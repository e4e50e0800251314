// Property test: UmManager against a per-page reference model.
//
// The reference below keeps one Page per 2 MiB page and applies the UM
// rules page by page, the way the manager did before it stored its page
// table as extents. Both run on identical simulated machines and receive
// the same seeded random operations: GPU and CPU passes over unaligned
// sub-ranges, wave-sliced completions of the returned segments in random
// order, prefetches, read-mostly advice, frees and re-allocations (with a
// partial last page), and partial or full drains of the simulator, under every migration mode with and without CPU
// migrate-back. After every step the plans, stats, residency, replicas,
// flight-recorder events and started migrations must agree exactly.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ghs/mem/topology.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/um/manager.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::um {
namespace {

constexpr Bytes kPage = 2 * kMiB;

// ---------------------------------------------------------------------------
// Reference model: the per-page table, one rule application per page.
// ---------------------------------------------------------------------------

class ReferenceUm {
 public:
  ReferenceUm(mem::Topology& topology, UmPolicy policy,
              telemetry::FlightRecorder* flight)
      : topology_(topology),
        policy_(policy),
        flight_(flight) {}

  AllocId allocate(Bytes size, mem::RegionId first_touch, std::string label) {
    Allocation a;
    a.size = size;
    a.label = std::move(label);
    a.live = true;
    a.pages.assign(static_cast<std::size_t>(ceil_div(size, policy_.page_size)),
                   Page{first_touch, 0, 0, false, false});
    allocations_.push_back(std::move(a));
    return static_cast<AllocId>(allocations_.size() - 1);
  }

  void free(AllocId id) {
    allocations_[id].live = false;
    allocations_[id].pages.clear();
  }

  Bytes resident_bytes(AllocId id, mem::RegionId region, Bytes offset,
                       Bytes length) const {
    const Allocation& a = allocations_[id];
    const auto [first, last] = page_span(a, offset, length);
    Bytes total = 0;
    for (std::size_t p = first; p < last; ++p) {
      if (a.pages[p].residency != region) continue;
      const Bytes page_begin = static_cast<Bytes>(p) * policy_.page_size;
      const Bytes begin = std::max(offset, page_begin);
      const Bytes end = std::min(
          offset + length, std::min(page_begin + policy_.page_size, a.size));
      total += end - begin;
    }
    return total;
  }

  Bytes duplicated_bytes(AllocId id) const {
    const Allocation& a = allocations_[id];
    Bytes total = 0;
    for (std::size_t p = 0; p < a.pages.size(); ++p) {
      if (a.pages[p].duplicated) total += page_bytes(a, p);
    }
    return total;
  }

  void advise_read_mostly(AllocId id) { allocations_[id].read_mostly = true; }

  std::vector<SegmentPlan> plan_pass(AllocId id, Accessor accessor,
                                     Bytes offset, Bytes length) {
    Allocation& a = allocations_[id];
    if (length == 0) return {};
    const auto [first, last] = page_span(a, offset, length);
    const mem::RegionId local = accessor == Accessor::kGpu
                                    ? mem::RegionId::kHbm
                                    : mem::RegionId::kLpddr;
    std::vector<SegmentPlan> plan;
    std::vector<std::pair<std::size_t, std::size_t>> background_runs;
    std::size_t bg_run_start = last;  // sentinel: no open run
    const auto close_bg_run = [&](std::size_t end) {
      if (bg_run_start < end) background_runs.emplace_back(bg_run_start, end);
      bg_run_start = last;
    };

    for (std::size_t p = first; p < last; ++p) {
      Page& page = a.pages[p];
      mem::RegionId source = page.residency;
      bool migrate = false;
      bool duplicate = false;
      bool wants_background = false;
      auto& passes =
          accessor == Accessor::kGpu ? page.gpu_passes : page.cpu_passes;
      if (a.read_mostly) {
        if (page.residency == local || page.duplicated) {
          source = local;
        } else {
          ++passes;
          if (!page.migrating) {
            duplicate = true;
            page.migrating = true;
          }
        }
      } else if (page.residency != local) {
        ++passes;
        if (accessor == Accessor::kGpu) {
          if (policy_.mode == MigrationMode::kFaultEager && !page.migrating) {
            migrate = true;
            page.migrating = true;
          } else if (policy_.mode == MigrationMode::kAccessCounter &&
                     !page.migrating &&
                     passes >= static_cast<std::uint32_t>(
                                   policy_.gpu_access_threshold)) {
            wants_background = true;
            page.migrating = true;
          }
        } else if (policy_.cpu_access_threshold > 0 && !page.migrating &&
                   passes >= static_cast<std::uint32_t>(
                                 policy_.cpu_access_threshold)) {
          wants_background = true;
          page.migrating = true;
        }
      }
      if (wants_background) {
        if (bg_run_start == last) bg_run_start = p;
      } else {
        close_bg_run(p);
      }

      const Bytes page_begin = static_cast<Bytes>(p) * policy_.page_size;
      const Bytes begin = std::max(offset, page_begin);
      const Bytes end = std::min(
          offset + length, std::min(page_begin + policy_.page_size, a.size));
      if (source != local) {
        (accessor == Accessor::kGpu ? stats_.remote_bytes_gpu
                                    : stats_.remote_bytes_cpu) += end - begin;
      }
      if (!plan.empty() && plan.back().source == source &&
          plan.back().migrate_on_access == migrate &&
          plan.back().duplicate_on_access == duplicate) {
        plan.back().length += end - begin;
      } else {
        SegmentPlan seg;
        seg.offset = begin;
        seg.length = end - begin;
        seg.source = source;
        seg.migrate_on_access = migrate;
        seg.duplicate_on_access = duplicate;
        if (migrate) {
          seg.rate_cap = policy_.fault_migration_bw.bytes_per_second;
        } else if (duplicate) {
          seg.rate_cap = policy_.duplication_bw.bytes_per_second;
        }
        plan.push_back(seg);
      }
    }
    close_bg_run(last);

    for (const auto& [run_first, run_last] : background_runs) {
      start_background_migration(id, run_first, run_last, local);
    }
    if (accessor == Accessor::kGpu) {
      for (const auto& seg : plan) {
        if (!seg.migrate_on_access) continue;
        ++stats_.fault_migrations;
        record("fault_migration",
               a.label + "[" + std::to_string(seg.offset) + "," +
                   std::to_string(seg.offset + seg.length) + ")");
      }
    }
    return plan;
  }

  void complete_segment(AllocId id, Bytes offset, Bytes length,
                        mem::RegionId new_residency) {
    Allocation& a = allocations_[id];
    if (!a.live) return;
    const auto [first, last] = page_span(a, offset, length);
    Bytes moved = 0;
    for (std::size_t p = first; p < last; ++p) {
      Page& page = a.pages[p];
      if (page.residency != new_residency) moved += page_bytes(a, p);
      page = Page{new_residency, 0, 0, false, false};
    }
    (new_residency == mem::RegionId::kHbm ? stats_.bytes_migrated_to_hbm
                                          : stats_.bytes_migrated_to_lpddr) +=
        moved;
    if (moved > 0) {
      record("page_migration", a.label + ": " + format_bytes(moved) + " -> " +
                                   mem::region_name(new_residency));
    }
  }

  void complete_duplication(AllocId id, Bytes offset, Bytes length) {
    Allocation& a = allocations_[id];
    if (!a.live) return;
    const auto [first, last] = page_span(a, offset, length);
    for (std::size_t p = first; p < last; ++p) {
      Page& page = a.pages[p];
      if (!page.duplicated) stats_.bytes_duplicated += page_bytes(a, p);
      page.duplicated = true;
      page.migrating = false;
    }
  }

  Bytes prefetch(AllocId id, Bytes offset, Bytes length,
                 mem::RegionId destination, std::function<void()> on_complete) {
    Allocation& a = allocations_[id];
    const auto [first, last] = page_span(a, offset, length);
    struct Run {
      std::size_t first;
      std::size_t last;
      mem::RegionId from;
    };
    std::vector<Run> runs;
    for (std::size_t p = first; p < last; ++p) {
      Page& page = a.pages[p];
      if (page.residency == destination || page.migrating) continue;
      page.migrating = true;
      if (!runs.empty() && runs.back().last == p &&
          runs.back().from == page.residency) {
        runs.back().last = p + 1;
      } else {
        runs.push_back(Run{p, p + 1, page.residency});
      }
    }
    if (runs.empty()) {
      if (on_complete) on_complete();
      return 0;
    }
    Bytes total = 0;
    auto pending = std::make_shared<std::size_t>(runs.size());
    auto done = std::make_shared<std::function<void()>>(std::move(on_complete));
    for (const auto& run : runs) {
      const Bytes begin = static_cast<Bytes>(run.first) * policy_.page_size;
      const Bytes bytes = std::min(static_cast<Bytes>(run.last) *
                                       policy_.page_size,
                                   a.size) -
                          begin;
      total += bytes;
      topology_.migrate(
          bytes, run.from, destination,
          [this, id, begin, bytes, destination, pending, done] {
            complete_segment(id, begin, bytes, destination);
            if (--*pending == 0 && *done) (*done)();
          });
    }
    return total;
  }

  const UmStats& stats() const { return stats_; }

 private:
  struct Page {
    mem::RegionId residency;
    std::uint32_t gpu_passes;
    std::uint32_t cpu_passes;
    bool migrating;
    bool duplicated;
  };

  struct Allocation {
    Bytes size = 0;
    std::string label;
    std::vector<Page> pages;
    bool live = false;
    bool read_mostly = false;
  };

  /// The manager's page span, with its zero-length rule: no pages.
  std::pair<std::size_t, std::size_t> page_span(const Allocation& a,
                                                Bytes offset,
                                                Bytes length) const {
    GHS_REQUIRE(offset >= 0 && length >= 0 && offset + length <= a.size,
                "range outside allocation");
    const auto first = static_cast<std::size_t>(offset / policy_.page_size);
    if (length == 0) return {first, first};
    return {first, static_cast<std::size_t>(
                       ceil_div(offset + length, policy_.page_size))};
  }

  Bytes page_bytes(const Allocation& a, std::size_t p) const {
    return std::min(static_cast<Bytes>(p + 1) * policy_.page_size, a.size) -
           static_cast<Bytes>(p) * policy_.page_size;
  }

  void start_background_migration(AllocId id, std::size_t first_page,
                                   std::size_t last_page,
                                   mem::RegionId destination) {
    Allocation& a = allocations_[id];
    const Bytes begin = static_cast<Bytes>(first_page) * policy_.page_size;
    const Bytes end =
        std::min(static_cast<Bytes>(last_page) * policy_.page_size, a.size);
    ++stats_.counter_migrations;
    std::ostringstream label;
    label << "um-migrate:" << a.label << "[" << begin << "," << end << ")->"
          << mem::region_name(destination);
    record("migration_start", label.str());
    topology_.migrate(
        end - begin, a.pages[first_page].residency, destination,
        [this, id, begin, bytes = end - begin, destination] {
          complete_segment(id, begin, bytes, destination);
        });
  }

  /// The reference formats each detail when it records, the way the
  /// recorder did before it formatted on read, and stores it interned.
  void record(const char* kind, const std::string& detail) {
    static constexpr telemetry::EventType kTypes[] = {
        {"um", "fault_migration", print_text},
        {"um", "migration_start", print_text},
        {"um", "page_migration", print_text}};
    for (const auto& type : kTypes) {
      if (std::string_view(type.kind) == kind) {
        flight_->record(topology_.sim().now(), type, flight_->intern(detail));
        return;
      }
    }
    FAIL() << "unknown flight kind " << kind;
  }

  static void print_text(std::string& out, const telemetry::EventArgs& a) {
    out += a.name(0);
  }

  mem::Topology& topology_;
  UmPolicy policy_;
  telemetry::FlightRecorder* flight_;
  std::vector<Allocation> allocations_;
  UmStats stats_;
};

// ---------------------------------------------------------------------------
// Two identical simulated machines, one per model.
// ---------------------------------------------------------------------------

struct Machine {
  sim::Simulator sim;
  mem::Topology topo{sim, mem::TopologyConfig{}};
  telemetry::FlightRecorder flight{1 << 16};
};

struct Case {
  MigrationMode mode;
  int cpu_threshold;
};

std::string plan_text(const std::vector<SegmentPlan>& plan) {
  std::ostringstream os;
  for (const auto& s : plan) {
    os << "[" << s.offset << "+" << s.length << " "
       << mem::region_name(s.source) << (s.migrate_on_access ? " M" : "")
       << (s.duplicate_on_access ? " D" : "") << " cap=" << s.rate_cap
       << "]";
  }
  return os.str();
}

std::string stats_text(const UmStats& s) {
  std::ostringstream os;
  os << "fault=" << s.fault_migrations << " counter=" << s.counter_migrations
     << " to_hbm=" << s.bytes_migrated_to_hbm
     << " to_lpddr=" << s.bytes_migrated_to_lpddr
     << " remote_gpu=" << s.remote_bytes_gpu
     << " remote_cpu=" << s.remote_bytes_cpu
     << " dup=" << s.bytes_duplicated;
  return os.str();
}

std::string events_text(const telemetry::FlightRecorder& flight) {
  std::ostringstream os;
  os << "recorded=" << flight.total_recorded() << "\n";
  flight.dump(os);
  return os.str();
}

/// One seeded run: `steps` random operations on both models, checked
/// after every step. Returns false (with gtest failures) on divergence.
bool run_seed(const Case& c, std::uint64_t seed, int steps) {
  UmPolicy policy;
  policy.page_size = kPage;
  policy.mode = c.mode;
  policy.gpu_access_threshold = 2;
  policy.cpu_access_threshold = c.cpu_threshold;

  Machine real_machine;
  Machine ref_machine;
  telemetry::Registry registry;
  UmManager real(real_machine.topo, policy,
                 telemetry::Sink{&registry, &real_machine.flight});
  ReferenceUm ref(ref_machine.topo, policy, &ref_machine.flight);
  const auto stream = static_cast<std::uint64_t>(c.mode) * 31 +
                      static_cast<std::uint64_t>(c.cpu_threshold);
  Rng rng(seed * std::uint64_t{0x9E3779B97F4A7C15} + stream);

  struct Live {
    AllocId id;
    Bytes size;
  };
  // A wave slice of a returned segment, still to be completed.
  struct Slice {
    AllocId id;
    Bytes offset;
    Bytes length;
    bool migrate;
  };
  std::vector<Live> live;
  std::vector<Slice> slices;
  int real_callbacks = 0;
  int ref_callbacks = 0;
  int allocations = 0;

  const auto allocate = [&] {
    const Bytes pages = 1 + static_cast<Bytes>(rng.next_below(24));
    const Bytes size =
        pages * kPage -
        static_cast<Bytes>(rng.next_below(2) *
                           (1 + rng.next_below(
                                    static_cast<std::uint64_t>(kPage - 1))));
    const auto first_touch = rng.next_below(4) == 0 ? mem::RegionId::kHbm
                                                    : mem::RegionId::kLpddr;
    const std::string label = "a" + std::to_string(allocations++);
    const AllocId id = real.allocate(size, first_touch, label);
    EXPECT_EQ(ref.allocate(size, first_touch, label), id);
    live.push_back(Live{id, size});
  };
  // A random sub-range, usually unaligned, sometimes empty.
  const auto random_range = [&](Bytes size) {
    Bytes a = static_cast<Bytes>(
        rng.next_below(static_cast<std::uint64_t>(size) + 1));
    Bytes b = static_cast<Bytes>(
        rng.next_below(static_cast<std::uint64_t>(size) + 1));
    if (rng.next_below(4) == 0) {  // page-aligned ends
      a = std::min(a / kPage * kPage, size);
      b = std::min(ceil_div(b, kPage) * kPage, size);
    }
    if (a > b) std::swap(a, b);
    if (rng.next_below(16) == 0) b = a;
    return std::pair<Bytes, Bytes>{a, b - a};
  };
  const auto compare = [&](int step, const char* op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " mode "
                                      << migration_mode_name(c.mode)
                                      << " cpu_threshold " << c.cpu_threshold
                                      << " step " << step << " (" << op
                                      << ")");
    EXPECT_EQ(stats_text(real.stats()), stats_text(ref.stats()));
    EXPECT_EQ(events_text(real_machine.flight),
              events_text(ref_machine.flight));
    EXPECT_EQ(real_machine.sim.now(), ref_machine.sim.now());
    EXPECT_EQ(real_machine.topo.network().mark().next_id,
              ref_machine.topo.network().mark().next_id);
    EXPECT_EQ(real_machine.topo.network().active_flows(),
              ref_machine.topo.network().active_flows());
    EXPECT_EQ(real_callbacks, ref_callbacks);
    Bytes hbm_total = 0;
    Bytes lpddr_total = 0;
    for (const auto& l : live) {
      for (const auto region : {mem::RegionId::kHbm, mem::RegionId::kLpddr}) {
        const Bytes whole = ref.resident_bytes(l.id, region, 0, l.size);
        EXPECT_EQ(real.resident_bytes(l.id, region), whole);
        (region == mem::RegionId::kHbm ? hbm_total : lpddr_total) += whole;
        const auto [offset, length] = random_range(l.size);
        EXPECT_EQ(real.resident_bytes(l.id, region, offset, length),
                  ref.resident_bytes(l.id, region, offset, length))
            << "range [" << offset << ", " << offset + length << ")";
      }
      EXPECT_EQ(real.duplicated_bytes(l.id), ref.duplicated_bytes(l.id));
    }
    // The counters sum what the stats sum; the residency gauges follow the
    // page table through allocate, migrate and free.
    const UmStats& st = ref.stats();
    const auto counter = [&registry](const char* name,
                                     telemetry::Labels labels) {
      return registry.counter(name, labels).value();
    };
    EXPECT_EQ(counter("ghs_um_fault_migrations_total", {}),
              st.fault_migrations);
    EXPECT_EQ(counter("ghs_um_background_migrations_total", {}),
              st.counter_migrations);
    EXPECT_EQ(counter("ghs_um_migrated_bytes_total", {{"dest", "hbm"}}),
              st.bytes_migrated_to_hbm);
    EXPECT_EQ(counter("ghs_um_migrated_bytes_total", {{"dest", "lpddr"}}),
              st.bytes_migrated_to_lpddr);
    EXPECT_EQ(counter("ghs_um_remote_bytes_total", {{"accessor", "gpu"}}),
              st.remote_bytes_gpu);
    EXPECT_EQ(counter("ghs_um_remote_bytes_total", {{"accessor", "cpu"}}),
              st.remote_bytes_cpu);
    EXPECT_EQ(counter("ghs_um_duplicated_bytes_total", {}),
              st.bytes_duplicated);
    EXPECT_EQ(registry.gauge("ghs_um_resident_bytes", {{"tier", "hbm"}})
                  .value(),
              static_cast<double>(hbm_total));
    EXPECT_EQ(registry.gauge("ghs_um_resident_bytes", {{"tier", "lpddr"}})
                  .value(),
              static_cast<double>(lpddr_total));
    return !::testing::Test::HasFailure();
  };

  allocate();
  for (int step = 0; step < steps; ++step) {
    const auto op = rng.next_below(100);
    const char* name = "";
    if (op < 30 && !live.empty()) {
      name = "plan_pass";
      const Live& l = live[rng.next_below(live.size())];
      const Accessor accessor =
          rng.next_below(2) == 0 ? Accessor::kGpu : Accessor::kCpu;
      const auto [offset, length] = random_range(l.size);
      const auto plan = real.plan_pass(l.id, accessor, offset, length);
      const auto expected = ref.plan_pass(l.id, accessor, offset, length);
      EXPECT_EQ(plan_text(plan), plan_text(expected))
          << accessor_name(accessor) << " pass [" << offset << ", "
          << offset + length << ")";
      // Split every flip/replica segment into wave slices.
      for (const auto& seg : expected) {
        if (!seg.migrate_on_access && !seg.duplicate_on_access) continue;
        Bytes at = seg.offset;
        const Bytes end = seg.offset + seg.length;
        while (at < end) {
          const Bytes cut =
              rng.next_below(3) == 0
                  ? end
                  : at + 1 +
                        static_cast<Bytes>(rng.next_below(
                            static_cast<std::uint64_t>(end - at)));
          slices.push_back(Slice{l.id, at, std::min(cut, end) - at,
                                 seg.migrate_on_access});
          at = std::min(cut, end);
        }
      }
    } else if (op < 55 && !slices.empty()) {
      name = "complete";
      const std::size_t pick = rng.next_below(slices.size());
      const Slice s = slices[pick];
      slices.erase(slices.begin() + static_cast<std::ptrdiff_t>(pick));
      if (s.migrate) {
        real.complete_segment(s.id, s.offset, s.length, mem::RegionId::kHbm);
        ref.complete_segment(s.id, s.offset, s.length, mem::RegionId::kHbm);
      } else {
        real.complete_duplication(s.id, s.offset, s.length);
        ref.complete_duplication(s.id, s.offset, s.length);
      }
    } else if (op < 65 && !live.empty()) {
      name = "prefetch";
      const Live& l = live[rng.next_below(live.size())];
      auto [offset, length] = random_range(l.size);
      if (length == 0) {  // zero-length calls are pinned in manager_test.cpp
        offset = 0;
        length = l.size;
      }
      const auto dest = rng.next_below(2) == 0 ? mem::RegionId::kHbm
                                               : mem::RegionId::kLpddr;
      const Bytes queued = real.prefetch(l.id, offset, length, dest,
                                         [&real_callbacks] { ++real_callbacks; });
      EXPECT_EQ(queued, ref.prefetch(l.id, offset, length, dest,
                                     [&ref_callbacks] { ++ref_callbacks; }));
    } else if (op < 68 && !live.empty()) {
      name = "advise_read_mostly";
      const Live& l = live[rng.next_below(live.size())];
      real.advise_read_mostly(l.id);
      ref.advise_read_mostly(l.id);
    } else if (op < 74) {
      name = "free/allocate";
      if (!live.empty() && (live.size() > 1 || rng.next_below(2) == 0)) {
        const std::size_t pick = rng.next_below(live.size());
        real.free(live[pick].id);
        ref.free(live[pick].id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      if (live.size() < 3) allocate();
    } else if (op < 90) {
      name = "drain some";
      for (auto n = rng.next_below(4); n > 0; --n) {
        real_machine.sim.drain_batch();
        ref_machine.sim.drain_batch();
      }
    } else {
      name = "drain";
      real_machine.sim.run();
      ref_machine.sim.run();
    }
    if (!compare(step, name)) return false;
  }
  real_machine.sim.run();
  ref_machine.sim.run();
  return compare(steps, "final drain");
}

TEST(UmManagerPropertyTest, ExtentTableMatchesPerPageReference) {
  const Case cases[] = {
      {MigrationMode::kNone, 0},          {MigrationMode::kNone, 2},
      {MigrationMode::kFaultEager, 0},    {MigrationMode::kFaultEager, 2},
      {MigrationMode::kAccessCounter, 0}, {MigrationMode::kAccessCounter, 2},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      if (!run_seed(c, seed, 160)) return;  // first divergence is enough
    }
  }
}

}  // namespace
}  // namespace ghs::um
