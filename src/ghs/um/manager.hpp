// Page-granular unified-memory manager.
//
// Device models do not touch pages directly; for every streaming pass over
// a managed range they ask for a *pass plan* — the list of contiguous
// segments, each with the memory it will be served from, an optional rate
// cap (fault-driven migration throttles the reader), and whether its pages
// flip residency when the segment's flow completes. The manager also owns
// the access counters and launches background migrations in
// access-counter mode.
//
// Pages stay the unit of every decision and boundary, but the page table is
// stored run-length encoded: a sorted list of extents, each a run of pages
// in one identical state. Every per-page rule reads only that page's own
// state, so applying it once per extent gives each page the result it
// would get alone, and a pass over a 4 GB array costs a handful of extents
// instead of two thousand pages.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ghs/mem/topology.hpp"
#include "ghs/mem/transfer.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/um/policy.hpp"
#include "ghs/util/units.hpp"

namespace ghs::um {

using AllocId = std::uint32_t;

enum class Accessor { kGpu, kCpu };

const char* accessor_name(Accessor accessor);

/// One contiguous piece of a pass plan.
struct SegmentPlan {
  Bytes offset = 0;
  Bytes length = 0;
  /// Memory the bytes are served from.
  mem::RegionId source = mem::RegionId::kLpddr;
  /// True when the segment's pages move to the accessor's local memory as a
  /// side effect of the access (fault-eager migration). The device must
  /// call UmManager::complete_segment once the segment's flow finishes.
  bool migrate_on_access = false;
  /// True when the access establishes a read-duplicated replica instead of
  /// moving the pages (read-mostly allocations). The device must call
  /// UmManager::complete_duplication once the segment's flow finishes.
  bool duplicate_on_access = false;
  /// Aggregate rate cap for the segment's flow in bytes/s; 0 = uncapped.
  double rate_cap = 0.0;
};

struct UmStats {
  std::int64_t fault_migrations = 0;       // fault-eager segment flips
  std::int64_t counter_migrations = 0;     // background migrations started
  Bytes bytes_migrated_to_hbm = 0;
  Bytes bytes_migrated_to_lpddr = 0;
  Bytes remote_bytes_gpu = 0;              // GPU bytes served from LPDDR
  Bytes remote_bytes_cpu = 0;              // CPU bytes served from HBM
  Bytes bytes_duplicated = 0;              // read-mostly replicas created
};

class UmManager {
 public:
  UmManager(mem::Topology& topology, mem::TransferEngine& transfers,
            UmPolicy policy);

  UmManager(const UmManager&) = delete;
  UmManager& operator=(const UmManager&) = delete;

  const UmPolicy& policy() const { return policy_; }

  /// Allocates a managed range whose pages first-touch in `first_touch`
  /// (the paper's arrays are initialised on the CPU, i.e. kLpddr).
  AllocId allocate(Bytes size, mem::RegionId first_touch, std::string label);

  /// Releases the allocation; its id becomes invalid.
  void free(AllocId id);

  Bytes size(AllocId id) const;

  /// Bytes of [offset, offset+length) currently resident in `region`.
  Bytes resident_bytes(AllocId id, mem::RegionId region) const;
  Bytes resident_bytes(AllocId id, mem::RegionId region, Bytes offset,
                       Bytes length) const;

  /// Plans one streaming pass of `accessor` over [offset, offset+length):
  /// returns serving segments, bumps access counters, and (in
  /// access-counter mode) starts background migrations for pages that
  /// crossed their threshold. Call once per kernel iteration / CPU sweep.
  std::vector<SegmentPlan> plan_pass(AllocId id, Accessor accessor,
                                     Bytes offset, Bytes length);

  /// Reports that a migrate_on_access segment's flow finished; flips its
  /// pages to `new_residency`.
  void complete_segment(AllocId id, Bytes offset, Bytes length,
                        mem::RegionId new_residency);

  /// Reports that a duplicate_on_access segment's flow finished; its pages
  /// now have replicas in both memories.
  void complete_duplication(AllocId id, Bytes offset, Bytes length);

  /// Read-mostly advice (cudaMemAdviseSetReadMostly analogue): marks the
  /// allocation read-duplicable. A processor's first pass over a
  /// non-duplicated page establishes a local copy at the duplication rate;
  /// afterwards both processors read their local replica at full speed.
  /// Writes are not modelled (the reduction input is read-only); freeing
  /// or prefetching drops replicas.
  void advise_read_mostly(AllocId id);
  bool read_mostly(AllocId id) const;

  /// Bytes of [0, size) currently replicated in both memories.
  Bytes duplicated_bytes(AllocId id) const;

  /// Programmatic placement (cudaMemPrefetchAsync analogue): bulk-moves
  /// the pages of [offset, offset+length) not already in `destination`
  /// through the migration engine — at full engine rate, not the
  /// fault-handling rate. `on_complete` fires when the last page lands
  /// (immediately if nothing needs to move). Returns the bytes queued.
  Bytes prefetch(AllocId id, Bytes offset, Bytes length,
                 mem::RegionId destination, std::function<void()> on_complete);

  const UmStats& stats() const { return stats_; }

  /// Installs a span recorder for background migrations (null disables).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Registers migration/residency instruments and the flight recorder
  /// (null members disable). Residency gauges only track allocations made
  /// after the call.
  void set_telemetry(telemetry::Sink sink);

 private:
  struct Page {
    mem::RegionId residency = mem::RegionId::kLpddr;
    std::uint32_t gpu_passes = 0;
    std::uint32_t cpu_passes = 0;
    bool migrating = false;
    /// Read-mostly allocations only: a replica exists in the non-home
    /// memory, so both processors read locally.
    bool duplicated = false;

    bool operator==(const Page&) const = default;
  };

  /// Pages [first, next extent's first) all hold `state`.
  struct Extent {
    std::size_t first = 0;
    Page state;
  };

  struct Allocation {
    Bytes size = 0;
    std::string label;
    std::size_t n_pages = 0;
    /// Sorted by `first`, covering [0, n_pages); no two neighbours hold
    /// equal state. Empty once freed.
    std::vector<Extent> extents;
    bool live = false;
    bool read_mostly = false;
  };

  Allocation& alloc(AllocId id);
  const Allocation& alloc(AllocId id) const;
  /// Index range [first, last) of pages overlapping [offset, offset+len);
  /// empty when `length` is 0.
  std::pair<std::size_t, std::size_t> page_span(const Allocation& a,
                                                Bytes offset,
                                                Bytes length) const;
  /// Bytes of pages [first, last), the partial last page included.
  Bytes span_bytes(const Allocation& a, std::size_t first,
                   std::size_t last) const;
  /// One past the last page of extent `i`.
  static std::size_t extent_end(const Allocation& a, std::size_t i);
  /// Index of the extent holding `page` (< n_pages).
  static std::size_t find_extent(const Allocation& a, std::size_t page);
  /// Makes an extent start at `page` and returns its index (the extent
  /// count when `page` is n_pages).
  static std::size_t split_at(Allocation& a, std::size_t page);
  /// Merges equal neighbours among extents [lo - 1, hi]: the extents a
  /// call touched plus one on each side.
  static void merge_around(Allocation& a, std::size_t lo, std::size_t hi);
  void start_background_migration(AllocId id, std::size_t first_page,
                                  std::size_t last_page,
                                  mem::RegionId destination);

  /// Moves `bytes` of the residency gauges from one tier to another
  /// (no-op when telemetry is off; `from == to` is allowed and a no-op).
  void shift_residency(mem::RegionId from, mem::RegionId to, Bytes bytes);
  telemetry::Gauge* residency_gauge(mem::RegionId region) const;

  mem::Topology& topology_;
  mem::TransferEngine& transfers_;
  UmPolicy policy_;
  trace::Tracer* tracer_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* m_fault_migrations_ = nullptr;
  telemetry::Counter* m_background_migrations_ = nullptr;
  telemetry::Counter* m_migrated_hbm_ = nullptr;
  telemetry::Counter* m_migrated_lpddr_ = nullptr;
  telemetry::Counter* m_remote_gpu_ = nullptr;
  telemetry::Counter* m_remote_cpu_ = nullptr;
  telemetry::Counter* m_duplicated_ = nullptr;
  telemetry::Gauge* m_resident_hbm_ = nullptr;
  telemetry::Gauge* m_resident_lpddr_ = nullptr;
  std::vector<Allocation> allocations_;
  UmStats stats_;
};

}  // namespace ghs::um
