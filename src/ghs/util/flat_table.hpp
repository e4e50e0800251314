// FlatTable: the open-addressed hash table behind the serving layer's
// per-launch memo caches. A key is a few 64-bit words, hashed
// multiplicatively to a home slot in one array kept at most half full;
// collisions probe the next slots, and nothing is erased, so a lookup ends
// at its key or at the first empty slot.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ghs {

template <std::size_t N, typename Value>
class FlatTable {
 public:
  using Key = std::array<std::int64_t, N>;

  /// The value stored under `key`, or null. Valid until the next insert.
  Value* find(const Key& key) {
    if (size_ == 0) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Stores `value` under `key`, which must be absent.
  void insert(const Key& key, Value value) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
      old.swap(slots_);
      shift_ = 64 - std::countr_zero(slots_.size());
      for (Slot& slot : old) {
        if (slot.used) place(slot.key, std::move(slot.value));
      }
    }
    place(key, std::move(value));
    ++size_;
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t home(const Key& key) const {
    // The multipliers are the golden-ratio constant's powers, folded at
    // compile time; their products add up independently.
    std::uint64_t h = 0;
    std::uint64_t multiplier = 0x9e3779b97f4a7c15ull;
    for (const std::int64_t word : key) {
      h += static_cast<std::uint64_t>(word) * multiplier;
      multiplier *= 0x9e3779b97f4a7c15ull;
    }
    return static_cast<std::size_t>(h >> shift_);
  }

  void place(const Key& key, Value value) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = {key, std::move(value), true};
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  /// 64 - log2(slot count): home() keeps the hash's top bits.
  int shift_ = 64;
};

}  // namespace ghs
