// Exporters for the telemetry Registry:
//
//   write_prometheus     text exposition format (scrape-able / promtool-
//                        parseable), histograms as cumulative `le` buckets
//   write_json_snapshot  one JSON object with stable key order and fixed
//                        number formatting — byte-identical for identical
//                        instrument values, so same-seed runs diff clean
//   to_table             human stats::Table dump (histograms rendered as
//                        count/mean/p50/p95/p99/p999)
//
// Volatile instruments (wall-clock gauges) are skipped by default so the
// default output of every exporter is deterministic; pass include_volatile
// to see them.
#pragma once

#include <ostream>

#include "ghs/stats/table.hpp"
#include "ghs/telemetry/registry.hpp"

namespace ghs::telemetry {

struct ExportOptions {
  bool include_volatile = false;
};

void write_prometheus(std::ostream& os, const Registry& registry,
                      const ExportOptions& options = {});

void write_json_snapshot(std::ostream& os, const Registry& registry,
                         const ExportOptions& options = {});

stats::Table to_table(const Registry& registry,
                      const ExportOptions& options = {});

}  // namespace ghs::telemetry
