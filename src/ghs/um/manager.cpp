#include "ghs/um/manager.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::um {

namespace {

// Flight-recorder sites: POD arguments, formatted when the recorder is
// read. Argument 0 is the allocation's interned label.

using telemetry::append;
using Args = telemetry::EventArgs;

const char* region_of(std::int64_t region) {
  return mem::region_name(static_cast<mem::RegionId>(region));
}

/// (label, offset, end)
constexpr telemetry::EventType kFaultMigrationEvent{
    "um", "fault_migration", [](std::string& out, const Args& a) {
      append(out, a.name(0), "[", a.i(1), ",", a.i(2), ")");
    }};
/// (label, begin, end, destination)
constexpr telemetry::EventType kMigrationStartEvent{
    "um", "migration_start", [](std::string& out, const Args& a) {
      append(out, "um-migrate:", a.name(0), "[", a.i(1), ",", a.i(2), ")->",
             region_of(a.i(3)));
    }};
/// (label, bytes moved, new residency)
constexpr telemetry::EventType kPageMigrationEvent{
    "um", "page_migration", [](std::string& out, const Args& a) {
      append(out, a.name(0), ": ", format_bytes(a.i(1)), " -> ",
             region_of(a.i(2)));
    }};

}  // namespace

const char* accessor_name(Accessor accessor) {
  return accessor == Accessor::kGpu ? "GPU" : "CPU";
}

const char* migration_mode_name(MigrationMode mode) {
  switch (mode) {
    case MigrationMode::kNone:
      return "none";
    case MigrationMode::kFaultEager:
      return "fault-eager";
    case MigrationMode::kAccessCounter:
      return "access-counter";
  }
  return "?";
}

struct UmManager::Instruments {
  explicit Instruments(telemetry::Registry& r)
      : fault_migrations(r.counter(
            "ghs_um_fault_migrations_total", {},
            "Fault-eager segments that flipped residency on access")),
        background_migrations(r.counter(
            "ghs_um_background_migrations_total", {},
            "Background migrations started by the access counters")),
        migrated_hbm(r.counter(
            "ghs_um_migrated_bytes_total", {{"dest", "hbm"}},
            "Bytes whose pages migrated, by destination tier")),
        migrated_lpddr(r.counter(
            "ghs_um_migrated_bytes_total", {{"dest", "lpddr"}},
            "Bytes whose pages migrated, by destination tier")),
        remote_gpu(r.counter(
            "ghs_um_remote_bytes_total", {{"accessor", "gpu"}},
            "Bytes served over NVLink-C2C instead of local memory")),
        remote_cpu(r.counter(
            "ghs_um_remote_bytes_total", {{"accessor", "cpu"}},
            "Bytes served over NVLink-C2C instead of local memory")),
        duplicated(r.counter("ghs_um_duplicated_bytes_total", {},
                             "Read-mostly replica bytes established")),
        resident_hbm(r.gauge("ghs_um_resident_bytes", {{"tier", "hbm"}},
                             "Managed bytes currently resident, by tier")),
        resident_lpddr(r.gauge("ghs_um_resident_bytes", {{"tier", "lpddr"}},
                               "Managed bytes currently resident, by tier")) {
  }

  telemetry::Counter& fault_migrations;
  telemetry::Counter& background_migrations;
  telemetry::Counter& migrated_hbm;
  telemetry::Counter& migrated_lpddr;
  telemetry::Counter& remote_gpu;
  telemetry::Counter& remote_cpu;
  telemetry::Counter& duplicated;
  telemetry::Gauge& resident_hbm;
  telemetry::Gauge& resident_lpddr;
};

UmManager::UmManager(mem::Topology& topology, UmPolicy policy,
                     telemetry::Sink sink, trace::Tracer* tracer)
    : topology_(topology),
      policy_(policy),
      tracer_(tracer),
      flight_(sink.flight),
      m_(sink.metrics != nullptr ? &sink.metrics->handles<Instruments>()
                                 : nullptr) {
  GHS_REQUIRE(policy_.page_size > 0, "page_size=" << policy_.page_size);
  GHS_REQUIRE(policy_.fault_migration_bw.bytes_per_second > 0.0,
              "fault migration bandwidth must be positive");
  GHS_REQUIRE(policy_.gpu_access_threshold > 0, "gpu_access_threshold");
  GHS_REQUIRE(policy_.cpu_access_threshold >= 0, "cpu_access_threshold");
}

AllocId UmManager::allocate(Bytes size, mem::RegionId first_touch,
                            std::string label) {
  GHS_REQUIRE(size > 0, "allocation '" << label << "' has size " << size);
  Allocation a;
  a.size = size;
  a.label = std::move(label);
  if (flight_ != nullptr) a.flight_label = flight_->intern(a.label);
  a.live = true;
  a.n_pages = static_cast<std::size_t>(ceil_div(size, policy_.page_size));
  a.extents.push_back(Extent{0, Page{first_touch}});
  allocations_.push_back(std::move(a));
  if (telemetry::Gauge* g = residency_gauge(first_touch)) {
    g->add(static_cast<double>(size));
  }
  return static_cast<AllocId>(allocations_.size() - 1);
}

void UmManager::free(AllocId id) {
  Allocation& a = alloc(id);
  if (m_ != nullptr) {
    for (std::size_t i = 0; i < a.extents.size(); ++i) {
      residency_gauge(a.extents[i].state.residency)
          ->add(-static_cast<double>(
              span_bytes(a, a.extents[i].first, extent_end(a, i))));
    }
  }
  a.live = false;
  a.extents.clear();
}

void UmManager::digest(std::vector<std::int64_t>& out) const {
  for (const Allocation& a : allocations_) {
    out.push_back(a.live);
    out.push_back(a.read_mostly);
    out.push_back(static_cast<std::int64_t>(a.extents.size()));
    for (const Extent& e : a.extents) {
      out.push_back(static_cast<std::int64_t>(e.first));
      out.push_back(static_cast<std::int64_t>(e.state.residency));
      out.push_back(e.state.gpu_passes);
      out.push_back(e.state.cpu_passes);
      out.push_back(e.state.migrating);
      out.push_back(e.state.duplicated);
    }
  }
}

void UmManager::fast_forward(const UmStats& since, std::int64_t k) {
  // Each stat and the counter beside it move by the same amount.
  const auto advance = [&](Bytes UmStats::*stat, telemetry::Counter* counter) {
    const Bytes run = stats_.*stat - since.*stat;
    stats_.*stat += repeated(stats_.*stat, k, run, "a UM statistic");
    if (counter != nullptr) {
      counter->inc(repeated(counter->value(), k, run, "a UM counter"));
    }
  };
  const Instruments* m = m_;
  advance(&UmStats::fault_migrations, m ? &m->fault_migrations : nullptr);
  advance(&UmStats::counter_migrations,
          m ? &m->background_migrations : nullptr);
  advance(&UmStats::bytes_migrated_to_hbm, m ? &m->migrated_hbm : nullptr);
  advance(&UmStats::bytes_migrated_to_lpddr,
          m ? &m->migrated_lpddr : nullptr);
  advance(&UmStats::remote_bytes_gpu, m ? &m->remote_gpu : nullptr);
  advance(&UmStats::remote_bytes_cpu, m ? &m->remote_cpu : nullptr);
  advance(&UmStats::bytes_duplicated, m ? &m->duplicated : nullptr);
}

telemetry::Gauge* UmManager::residency_gauge(mem::RegionId region) const {
  if (m_ == nullptr) return nullptr;
  return region == mem::RegionId::kHbm ? &m_->resident_hbm
                                       : &m_->resident_lpddr;
}

void UmManager::shift_residency(mem::RegionId from, mem::RegionId to,
                                Bytes bytes) {
  if (m_ == nullptr || from == to || bytes == 0) return;
  residency_gauge(from)->add(-static_cast<double>(bytes));
  residency_gauge(to)->add(static_cast<double>(bytes));
}

Bytes UmManager::size(AllocId id) const { return alloc(id).size; }

UmManager::Allocation& UmManager::alloc(AllocId id) {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  Allocation& a = allocations_[id];
  GHS_REQUIRE(a.live, "allocation " << id << " ('" << a.label
                                    << "') was freed");
  return a;
}

const UmManager::Allocation& UmManager::alloc(AllocId id) const {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  const Allocation& a = allocations_[id];
  GHS_REQUIRE(a.live, "allocation " << id << " ('" << a.label
                                    << "') was freed");
  return a;
}

std::pair<std::size_t, std::size_t> UmManager::page_span(const Allocation& a,
                                                         Bytes offset,
                                                         Bytes length) const {
  GHS_REQUIRE(offset >= 0 && length >= 0 && offset + length <= a.size,
              "range [" << offset << ", " << offset + length
                        << ") outside allocation of size " << a.size);
  const auto first = static_cast<std::size_t>(offset / policy_.page_size);
  if (length == 0) return {first, first};
  const auto last = static_cast<std::size_t>(
      ceil_div(offset + length, policy_.page_size));
  return {first, last};
}

Bytes UmManager::span_bytes(const Allocation& a, std::size_t first,
                            std::size_t last) const {
  return std::min(static_cast<Bytes>(last) * policy_.page_size, a.size) -
         static_cast<Bytes>(first) * policy_.page_size;
}

std::size_t UmManager::extent_end(const Allocation& a, std::size_t i) {
  return i + 1 < a.extents.size() ? a.extents[i + 1].first : a.n_pages;
}

std::size_t UmManager::find_extent(const Allocation& a, std::size_t page) {
  const auto it = std::upper_bound(
      a.extents.begin(), a.extents.end(), page,
      [](std::size_t p, const Extent& e) { return p < e.first; });
  return static_cast<std::size_t>(it - a.extents.begin()) - 1;
}

std::size_t UmManager::split_at(Allocation& a, std::size_t page) {
  if (page == a.n_pages) return a.extents.size();
  const std::size_t i = find_extent(a, page);
  if (a.extents[i].first == page) return i;
  a.extents.insert(a.extents.begin() + static_cast<std::ptrdiff_t>(i + 1),
                   Extent{page, a.extents[i].state});
  return i + 1;
}

void UmManager::merge_around(Allocation& a, std::size_t lo, std::size_t hi) {
  auto& ext = a.extents;
  const std::size_t begin = lo > 0 ? lo - 1 : 0;
  const std::size_t end = std::min(hi + 1, ext.size());
  std::size_t kept = begin;
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (ext[i].state == ext[kept].state) continue;
    ext[++kept] = ext[i];
  }
  ext.erase(ext.begin() + static_cast<std::ptrdiff_t>(kept + 1),
            ext.begin() + static_cast<std::ptrdiff_t>(end));
}

Bytes UmManager::resident_bytes(AllocId id, mem::RegionId region) const {
  return resident_bytes(id, region, 0, size(id));
}

Bytes UmManager::resident_bytes(AllocId id, mem::RegionId region, Bytes offset,
                                Bytes length) const {
  const Allocation& a = alloc(id);
  const auto [first, last] = page_span(a, offset, length);
  if (first == last) return 0;
  Bytes total = 0;
  for (std::size_t i = find_extent(a, first);
       i < a.extents.size() && a.extents[i].first < last; ++i) {
    if (a.extents[i].state.residency != region) continue;
    const Bytes begin = std::max(
        offset, static_cast<Bytes>(a.extents[i].first) * policy_.page_size);
    const Bytes end = std::min(
        offset + length,
        std::min(static_cast<Bytes>(extent_end(a, i)) * policy_.page_size,
                 a.size));
    total += end - begin;
  }
  return total;
}

std::uint32_t UmManager::count_pass(Page& page, Accessor accessor) const {
  // Every read of a count is `passes >= threshold`, so stopping at the
  // threshold changes no decision; it lets a page that is read pass after
  // pass reach a steady state. A count no policy reads stays at 0.
  std::uint32_t& passes =
      accessor == Accessor::kGpu ? page.gpu_passes : page.cpu_passes;
  int threshold = policy_.cpu_access_threshold;
  if (accessor == Accessor::kGpu) {
    threshold = policy_.mode == MigrationMode::kAccessCounter
                    ? policy_.gpu_access_threshold
                    : 0;
  }
  if (passes < static_cast<std::uint32_t>(threshold)) ++passes;
  return passes;
}

std::vector<SegmentPlan> UmManager::plan_pass(AllocId id, Accessor accessor,
                                              Bytes offset, Bytes length) {
  Allocation& a = alloc(id);
  if (length == 0) return {};
  const auto [first, last] = page_span(a, offset, length);
  const mem::RegionId local = accessor == Accessor::kGpu
                                  ? mem::RegionId::kHbm
                                  : mem::RegionId::kLpddr;

  // Per-page serving decision, taken once per extent (its pages share one
  // state, so they share the decision), then coalesce identical neighbours.
  struct Decision {
    mem::RegionId source;
    bool migrate_on_access;
    bool duplicate_on_access;
  };
  std::vector<SegmentPlan> plan;
  std::vector<std::pair<std::size_t, std::size_t>> background_runs;

  const std::size_t lo = split_at(a, first);
  const std::size_t hi = split_at(a, last);
  for (std::size_t i = lo; i < hi; ++i) {
    Page& page = a.extents[i].state;
    const std::size_t run_first = a.extents[i].first;
    const std::size_t run_last = extent_end(a, i);
    Decision d{page.residency, false, false};
    bool wants_background = false;

    if (a.read_mostly) {
      // Read-duplication: a replica (or the home copy) serves locally;
      // otherwise this pass establishes the replica.
      if (page.residency == local || page.duplicated) {
        d.source = local;
      } else if (!page.migrating) {
        d.duplicate_on_access = true;
        page.migrating = true;
      }
    } else if (page.residency != local) {
      const std::uint32_t passes = count_pass(page, accessor);
      if (accessor == Accessor::kGpu) {
        switch (policy_.mode) {
          case MigrationMode::kNone:
            break;
          case MigrationMode::kFaultEager:
            if (!page.migrating) {
              d.migrate_on_access = true;
              page.migrating = true;
            }
            break;
          case MigrationMode::kAccessCounter:
            if (!page.migrating &&
                passes >= static_cast<std::uint32_t>(
                              policy_.gpu_access_threshold)) {
              wants_background = true;
              page.migrating = true;
            }
            break;
        }
      } else if (policy_.cpu_access_threshold > 0 && !page.migrating &&
                 passes >= static_cast<std::uint32_t>(
                               policy_.cpu_access_threshold)) {
        wants_background = true;
        page.migrating = true;
      }
    }

    if (wants_background) {
      if (!background_runs.empty() &&
          background_runs.back().second == run_first) {
        background_runs.back().second = run_last;
      } else {
        background_runs.emplace_back(run_first, run_last);
      }
    }

    const Bytes begin = std::max(
        offset, static_cast<Bytes>(run_first) * policy_.page_size);
    const Bytes end =
        std::min(offset + length,
                 std::min(static_cast<Bytes>(run_last) * policy_.page_size,
                          a.size));
    const Bytes seg_len = end - begin;
    GHS_CHECK(seg_len > 0, "empty page slice");

    if (d.source != local) {
      auto& remote = accessor == Accessor::kGpu ? stats_.remote_bytes_gpu
                                                : stats_.remote_bytes_cpu;
      remote += seg_len;
      if (m_ != nullptr) {
        (accessor == Accessor::kGpu ? m_->remote_gpu : m_->remote_cpu)
            .inc(seg_len);
      }
    }

    if (!plan.empty() && plan.back().source == d.source &&
        plan.back().migrate_on_access == d.migrate_on_access &&
        plan.back().duplicate_on_access == d.duplicate_on_access &&
        plan.back().offset + plan.back().length == begin) {
      plan.back().length += seg_len;
    } else {
      SegmentPlan seg;
      seg.offset = begin;
      seg.length = seg_len;
      seg.source = d.source;
      seg.migrate_on_access = d.migrate_on_access;
      seg.duplicate_on_access = d.duplicate_on_access;
      if (d.migrate_on_access) {
        seg.rate_cap = policy_.fault_migration_bw.bytes_per_second;
      } else if (d.duplicate_on_access) {
        seg.rate_cap = policy_.duplication_bw.bytes_per_second;
      }
      plan.push_back(seg);
    }
  }
  merge_around(a, lo, hi);

  for (const auto& [run_first, run_last] : background_runs) {
    start_background_migration(id, run_first, run_last, local);
  }
  if (accessor == Accessor::kGpu) {
    for (const auto& seg : plan) {
      if (seg.migrate_on_access) {
        ++stats_.fault_migrations;
        if (m_ != nullptr) m_->fault_migrations.inc();
        if (flight_ != nullptr) {
          flight_->record(topology_.sim().now(), kFaultMigrationEvent,
                          a.flight_label, seg.offset,
                          seg.offset + seg.length);
        }
      }
    }
  }
  return plan;
}

void UmManager::start_background_migration(AllocId id, std::size_t first_page,
                                           std::size_t last_page,
                                           mem::RegionId destination) {
  Allocation& a = alloc(id);
  const Bytes begin = static_cast<Bytes>(first_page) * policy_.page_size;
  const Bytes end =
      std::min(static_cast<Bytes>(last_page) * policy_.page_size, a.size);
  const Bytes bytes = end - begin;
  GHS_CHECK(bytes > 0, "empty background migration");
  const mem::RegionId from =
      a.extents[find_extent(a, first_page)].state.residency;
  ++stats_.counter_migrations;
  if (m_ != nullptr) m_->background_migrations.inc();
  const SimTime started = topology_.sim().now();
  if (flight_ != nullptr) {
    flight_->record(started, kMigrationStartEvent, a.flight_label, begin, end,
                    destination);
  }
  topology_.migrate(
      bytes, from, destination,
      [this, id, begin, bytes, destination, started] {
        record_migration_span("um-migrate", id, begin, bytes, destination,
                              started);
        complete_segment(id, begin, bytes, destination);
      });
}

void UmManager::advise_read_mostly(AllocId id) {
  alloc(id).read_mostly = true;
}

bool UmManager::read_mostly(AllocId id) const {
  return alloc(id).read_mostly;
}

Bytes UmManager::duplicated_bytes(AllocId id) const {
  const Allocation& a = alloc(id);
  Bytes total = 0;
  for (std::size_t i = 0; i < a.extents.size(); ++i) {
    if (!a.extents[i].state.duplicated) continue;
    total += span_bytes(a, a.extents[i].first, extent_end(a, i));
  }
  return total;
}

void UmManager::complete_duplication(AllocId id, Bytes offset, Bytes length) {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  Allocation& a = allocations_[id];
  if (!a.live) return;
  const auto [first, last] = page_span(a, offset, length);
  Bytes fresh = 0;
  const std::size_t lo = split_at(a, first);
  const std::size_t hi = split_at(a, last);
  for (std::size_t i = lo; i < hi; ++i) {
    Page& page = a.extents[i].state;
    if (!page.duplicated) {
      fresh += span_bytes(a, a.extents[i].first, extent_end(a, i));
    }
    page.duplicated = true;
    page.migrating = false;
  }
  merge_around(a, lo, hi);
  stats_.bytes_duplicated += fresh;
  if (fresh > 0 && m_ != nullptr) m_->duplicated.inc(fresh);
}

Bytes UmManager::prefetch(AllocId id, Bytes offset, Bytes length,
                          mem::RegionId destination,
                          std::function<void()> on_complete) {
  Allocation& a = alloc(id);
  const auto [first, last] = page_span(a, offset, length);
  // Collect runs of pages that need to move and are not already in flight.
  struct Run {
    std::size_t first;
    std::size_t last;
    mem::RegionId from;
  };
  std::vector<Run> runs;
  const std::size_t lo = split_at(a, first);
  const std::size_t hi = split_at(a, last);
  for (std::size_t i = lo; i < hi; ++i) {
    Page& page = a.extents[i].state;
    if (page.residency == destination || page.migrating) continue;
    page.migrating = true;
    const std::size_t run_first = a.extents[i].first;
    const std::size_t run_last = extent_end(a, i);
    if (!runs.empty() && runs.back().last == run_first &&
        runs.back().from == page.residency) {
      runs.back().last = run_last;
    } else {
      runs.push_back(Run{run_first, run_last, page.residency});
    }
  }
  merge_around(a, lo, hi);
  if (runs.empty()) {
    if (on_complete) on_complete();
    return 0;
  }
  Bytes total = 0;
  auto pending = std::make_shared<std::size_t>(runs.size());
  auto done = std::make_shared<std::function<void()>>(std::move(on_complete));
  const SimTime started = topology_.sim().now();
  for (const auto& run : runs) {
    const Bytes begin = static_cast<Bytes>(run.first) * policy_.page_size;
    const Bytes end =
        std::min(static_cast<Bytes>(run.last) * policy_.page_size, a.size);
    const Bytes bytes = end - begin;
    total += bytes;
    topology_.migrate(
        bytes, run.from, destination,
        [this, id, begin, bytes, destination, pending, done, started] {
          record_migration_span("um-prefetch", id, begin, bytes, destination,
                                started);
          complete_segment(id, begin, bytes, destination);
          GHS_CHECK(*pending > 0, "prefetch completion underflow");
          if (--*pending == 0 && *done) (*done)();
        });
  }
  return total;
}

void UmManager::record_migration_span(const char* kind, AllocId id,
                                      Bytes begin, Bytes bytes,
                                      mem::RegionId destination,
                                      SimTime started) {
  if (tracer_ == nullptr) return;
  // The label outlives a free, so a migration that lands after one still
  // names its allocation.
  tracer_->record(trace::Track::kUmMigration,
                  std::string(kind) + ":" + allocations_[id].label + "[" +
                      std::to_string(begin) + "," +
                      std::to_string(begin + bytes) + ")->" +
                      mem::region_name(destination),
                  started, topology_.sim().now(), format_bytes(bytes));
}

void UmManager::complete_segment(AllocId id, Bytes offset, Bytes length,
                                 mem::RegionId new_residency) {
  GHS_REQUIRE(id < allocations_.size(), "allocation id " << id);
  Allocation& a = allocations_[id];
  if (!a.live) return;  // allocation freed while a migration was in flight
  const auto [first, last] = page_span(a, offset, length);
  Bytes moved = 0;
  const std::size_t lo = split_at(a, first);
  const std::size_t hi = split_at(a, last);
  for (std::size_t i = lo; i < hi; ++i) {
    if (a.extents[i].state.residency != new_residency) {
      moved += span_bytes(a, a.extents[i].first, extent_end(a, i));
    }
    // Moving a page collapses its replica and resets its counters.
    a.extents[i].state = Page{new_residency};
  }
  merge_around(a, lo, hi);
  if (new_residency == mem::RegionId::kHbm) {
    stats_.bytes_migrated_to_hbm += moved;
  } else {
    stats_.bytes_migrated_to_lpddr += moved;
  }
  if (moved > 0) {
    // Two tiers: everything that moved came from the other one.
    const mem::RegionId source = new_residency == mem::RegionId::kHbm
                                     ? mem::RegionId::kLpddr
                                     : mem::RegionId::kHbm;
    if (m_ != nullptr) {
      (new_residency == mem::RegionId::kHbm ? m_->migrated_hbm
                                            : m_->migrated_lpddr)
          .inc(moved);
    }
    shift_residency(source, new_residency, moved);
    if (flight_ != nullptr) {
      flight_->record(topology_.sim().now(), kPageMigrationEvent,
                      a.flight_label, moved, new_residency);
    }
  }
}

}  // namespace ghs::um
