// Event: the move-only callable the simulator's event queue stores.
//
// Replaces std::function<void()> on the hot path: a small-buffer layout
// sized so every scheduling closure in the repository — including the
// serve layer's [this, job] arrival and retry lambdas — lives inline in
// the simulator's event slot instead of in its own heap block. Only
// oversized callables fall back to one heap allocation; nothing is ever
// copied, so captured state (jobs, launch batches) moves straight from
// the caller into the slot and from the slot into the dispatch loop.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ghs::sim {

class Event {
 public:
  /// Inline capture capacity. 120 bytes fits a serve::Job plus a couple of
  /// pointers (the largest closure the serving layer schedules) and keeps
  /// the whole Event at 144 bytes.
  static constexpr std::size_t kInlineBytes = 120;

  Event() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Event> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Event(F&& fn) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* target) { (*static_cast<Fn*>(target))(); };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::kMoveFrom:
            ::new (self) Fn(std::move(*static_cast<Fn*>(other)));
            static_cast<Fn*>(other)->~Fn();
            break;
        }
      };
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      invoke_ = [](void* target) { (*static_cast<Fn*>(target))(); };
      manage_ = [](Op op, void* self, void*) {
        if (op == Op::kDestroy) delete static_cast<Fn*>(self);
      };
      heap_deleter_ = true;
    }
  }

  Event(Event&& other) noexcept { move_from(other); }

  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  ~Event() { destroy(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(target()); }

 private:
  enum class Op { kDestroy, kMoveFrom };
  using Invoke = void (*)(void*);
  using Manage = void (*)(Op, void*, void*);

  void* target() noexcept { return heap_deleter_ ? heap_ : storage_; }

  void destroy() noexcept {
    if (invoke_ == nullptr) return;
    manage_(Op::kDestroy, target(), nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
    heap_ = nullptr;
    heap_deleter_ = false;
  }

  void move_from(Event& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    heap_deleter_ = other.heap_deleter_;
    if (invoke_ != nullptr) {
      if (heap_deleter_) {
        heap_ = other.heap_;  // steal the heap block
      } else {
        manage_(Op::kMoveFrom, storage_, other.storage_);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    other.heap_ = nullptr;
    other.heap_deleter_ = false;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void* heap_ = nullptr;
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  bool heap_deleter_ = false;
};

}  // namespace ghs::sim
