// Hopper-class GPU model parameters.
//
// Hard constants (SM count, clock, occupancy limits, HBM peak) are the
// H100-SXM values of the paper's GH200 testbed. Soft constants (latency,
// outstanding-load depth, combine costs, stream efficiencies) are
// calibration parameters; EXPERIMENTS.md documents which measured numbers
// each one is fitted against.
#pragma once

#include "ghs/util/units.hpp"

namespace ghs::gpu {

/// How a kernel's per-thread partial sums are folded into the global
/// reduction variable. The cost difference between these classes is what
/// spreads the paper's four baseline bandwidths apart (Table 1).
enum class CombineClass {
  kNativeInt,   // int32/int64 reduction: hardware atomic add
  kWideningInt, // int8 -> int64: conversion + 64-bit CAS-style combine
  kFloatCas,    // float/double: CAS-loop combine in the runtime
};

struct GpuConfig {
  // --- hard architecture constants (H100 SXM5 96GB) ---
  int num_sms = 132;
  double clock_ghz = 1.980;
  int warp_size = 32;
  int max_threads_per_sm = 2048;
  int max_ctas_per_sm = 32;

  // --- memory-system model ---
  /// Loaded HBM3 latency seen by a streaming warp.
  SimTime mem_latency = from_nanoseconds(450.0);
  /// Maximum loads a warp keeps in flight (LSU queue depth).
  int max_outstanding_loads_per_warp = 8;
  /// Independent loop iterations the hardware overlaps per warp when the
  /// loop body itself offers fewer than max_outstanding loads.
  int iteration_ilp = 2;
  /// DRAM stream efficiency by element size: fraction of peak HBM bandwidth
  /// a saturating kernel achieves (Table 1 "Efficiency" column).
  double stream_efficiency_1b = 0.902;
  double stream_efficiency_4b = 0.952;
  double stream_efficiency_8b = 0.957;

  // --- kernel overheads ---
  /// Host-side latency of launching a target region (runtime + driver).
  SimTime kernel_launch_latency = from_nanoseconds(4000.0);
  /// Serial CTA dispatch cost in the gigathread engine, per CTA.
  SimTime cta_dispatch_cost = from_nanoseconds(0.05);
  /// Shared-memory tree reduction: cycles per step (sync + add).
  double tree_step_cycles = 24.0;

  // --- combine (atomic) unit: serialized per-CTA combine costs ---
  /// Calibrated against the paper's baseline bandwidths: C1 620 GB/s,
  /// C2 172 GB/s, C3 271 GB/s, C4 526 GB/s with the NVHPC heuristic grid.
  /// The float CAS-loop is slightly wider for 8-byte operands.
  SimTime combine_native_int = from_nanoseconds(0.820);
  SimTime combine_widening_int = from_nanoseconds(1.448);
  SimTime combine_float32_cas = from_nanoseconds(1.883);
  SimTime combine_float64_cas = from_nanoseconds(1.941);

  // --- unified-memory access ---
  /// GPU streaming efficiency on HBM-resident *managed* pages relative to
  /// explicitly mapped device memory (address translation through the
  /// system page tables costs a few percent).
  double um_hbm_efficiency = 0.93;
  /// Rate cap for GPU streaming reads of CPU-resident managed memory;
  /// below the raw C2C capacity because remote traffic is request/response.
  Bandwidth remote_read_bw = Bandwidth::from_gbps(430.0);

  double stream_efficiency(Bytes element_size) const {
    if (element_size <= 1) return stream_efficiency_1b;
    if (element_size <= 4) return stream_efficiency_4b;
    return stream_efficiency_8b;
  }

  /// `element_size` disambiguates the float32 and float64 CAS widths.
  SimTime combine_cost(CombineClass c, Bytes element_size) const {
    switch (c) {
      case CombineClass::kNativeInt:
        return combine_native_int;
      case CombineClass::kWideningInt:
        return combine_widening_int;
      case CombineClass::kFloatCas:
        return element_size <= 4 ? combine_float32_cas : combine_float64_cas;
    }
    return combine_native_int;
  }

  /// Picoseconds per GPU clock cycle.
  double cycle_ps() const { return 1000.0 / clock_ghz; }
};

}  // namespace ghs::gpu
