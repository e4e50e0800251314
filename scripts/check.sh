#!/usr/bin/env bash
# Full local gate: build the Release and the ASan+UBSan configurations and
# run the test suite under both. Run from the repository root:
#
#   $ scripts/check.sh            # both configs
#   $ scripts/check.sh release    # just the plain build
#   $ scripts/check.sh asan       # just the sanitized build
#   $ scripts/check.sh telemetry  # just the telemetry suite under ASan+UBSan
#                                 # (fast gate for the registry's
#                                 # concurrency contract)
#   $ scripts/check.sh chaos      # fault-injection suite under ASan+UBSan
#                                 # (breaker/injector/chaos-service tests),
#                                 # then a same-seed serve_loadgen
#                                 # --plan=builtin byte-identity smoke
#                                 # (stdout and metrics snapshot)
#   $ scripts/check.sh slo        # tracing + SLO suite under ASan+UBSan
#                                 # (span trees, exporters, burn-rate math)
#   $ scripts/check.sh cluster    # fleet suite under ASan+UBSan (router,
#                                 # ring, spill/steal, membership)
#   $ scripts/check.sh tsdb       # time-series suite under ASan+UBSan, then
#                                 # a same-seed cluster_loadgen --series-out
#                                 # byte-identity smoke checked with
#                                 # metrics_diff.py --series
#   $ scripts/check.sh membership # failure-domain suites under ASan+UBSan
#                                 # (table/journal/detector + cluster crash,
#                                 # drain, replay), then crash-schedule and
#                                 # restart-before-detection byte-identity
#                                 # and exit-2 flag-validation smokes on
#                                 # cluster_loadgen
#   $ scripts/check.sh profile    # profiling/attribution and bench-harness
#                                 # suites under ASan+UBSan, then
#                                 # profiler-on determinism + profiler-off
#                                 # snapshot byte-identity, conservation
#                                 # smokes (fleet and --plan=builtin), exit-2
#                                 # flag validation on both loadgens, and
#                                 # the instrument-name lint
#   $ scripts/check.sh substrate  # simulated-hardware suites under
#                                 # ASan+UBSan: UM page table (per-page
#                                 # reference property test), fluid
#                                 # network, GPU/CPU/OpenMP models and the
#                                 # full-precision substrate golden
#   $ scripts/check.sh perf       # Release event-core throughput gate only:
#                                 # a 10^5-job serve_loadgen smoke with
#                                 # --perf, then the serve_perf wall-clock
#                                 # floors and peak-RSS ceiling
#                                 # (docs/PERFORMANCE.md)
#   $ scripts/check.sh coverage   # Debug --coverage build (build-coverage/)
#                                 # runs ctest, then scripts/line_coverage.py
#                                 # prints src line coverage and fails below
#                                 # its floor
#
# After the tests pass, the release config also runs certify_reproduction
# (it must print CERTIFIED), checks that it, summary_stats and the seven
# ablation benches write their --metrics-out snapshots, and runs
# scripts/perf_gate.py against the checked-in bench baseline. The asan
# config exercises the simulator's event heap and its slot recycling under
# ASan+UBSan via the sim and serve suites.
set -euo pipefail

cd "$(dirname "$0")/.."

# Runs a command that must reject its flags: exit 2, not a crash or a run.
expect_exit2() {
  local status=0
  "$@" >/dev/null 2>&1 || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "expected exit 2 for $*, got $status" >&2
    exit 1
  fi
}

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
configs=("${1:-release}")
if [[ $# -eq 0 ]]; then
  configs=(release asan)
fi

for config in "${configs[@]}"; do
  target=""
  test_regex=""
  case "$config" in
    release)
      dir=build
      flags=(-DCMAKE_BUILD_TYPE=Release -DGHS_SANITIZE=OFF)
      ;;
    asan)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      ;;
    telemetry)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target=telemetry_tests
      test_regex=telemetry_tests
      ;;
    chaos)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target="fault_tests serve_tests serve_loadgen"
      test_regex="fault_tests|serve_tests"
      ;;
    slo)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target="trace_tests slo_tests"
      test_regex="trace_tests|slo_tests"
      ;;
    cluster)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target=cluster_tests
      test_regex=cluster_tests
      ;;
    tsdb)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target="timeseries_tests cluster_loadgen"
      test_regex=timeseries_tests
      ;;
    membership)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target="membership_tests cluster_tests cluster_loadgen"
      test_regex="membership_tests|cluster_tests"
      ;;
    profile)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target="profile_tests bench_tests serve_loadgen cluster_loadgen"
      test_regex="profile_tests|bench_tests"
      ;;
    substrate)
      dir=build-asan
      flags=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DGHS_SANITIZE=ON)
      target="um_tests sim_tests gpu_tests cpu_tests omp_tests core_tests"
      test_regex="um_tests|sim_tests|gpu_tests|cpu_tests|omp_tests|core_tests"
      ;;
    perf)
      dir=build
      flags=(-DCMAKE_BUILD_TYPE=Release -DGHS_SANITIZE=OFF)
      target=serve_loadgen
      ;;
    coverage)
      dir=build-coverage
      flags=(-DCMAKE_BUILD_TYPE=Debug -DGHS_SANITIZE=OFF
             -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage)
      ;;
    *)
      echo "unknown config '$config' (release|asan|telemetry|chaos|slo|cluster|tsdb|membership|profile|substrate|perf|coverage)" >&2
      exit 2
      ;;
  esac
  echo "==> configure $config"
  cmake -B "$dir" -S . "${flags[@]}"
  echo "==> build $config"
  if [[ -n "$target" ]]; then
    # shellcheck disable=SC2086  # $target may list several test binaries
    cmake --build "$dir" -j "$jobs" --target $target
  else
    cmake --build "$dir" -j "$jobs"
  fi
  if [[ "$config" == perf ]]; then
    echo "==> perf smoke (10^5 jobs)"
    "$dir/bench/serve_loadgen" --jobs=100000 --policy=fifo --perf >/dev/null
    echo "==> perf gate (wall-clock floors, peak-RSS ceiling)"
    python3 scripts/perf_gate.py --bindir "$dir/bench" --only serve_perf
    continue
  fi
  if [[ "$config" == coverage ]]; then
    # Counters from earlier runs would inflate this one's coverage.
    find "$dir" -name '*.gcda' -delete
  fi
  echo "==> test $config"
  if [[ -n "$test_regex" ]]; then
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" -R "$test_regex"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  fi
  if [[ "$config" == coverage ]]; then
    echo "==> src line coverage"
    python3 scripts/line_coverage.py "$dir"
  fi
  if [[ "$config" == chaos ]]; then
    echo "==> chaos determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    for run in a b; do
      "$dir/bench/serve_loadgen" --plan=builtin --policy=all \
        --metrics-out="$tmp/$run.prom" >"$tmp/$run.json" 2>/dev/null
    done
    cmp "$tmp/a.json" "$tmp/b.json"
    cmp "$tmp/a.prom.json" "$tmp/b.prom.json"
    rm -rf "$tmp"
  fi
  if [[ "$config" == tsdb ]]; then
    echo "==> series determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 --scrape-interval=50 \
      --series-out="$tmp/a.series.json" >/dev/null 2>&1
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 --scrape-interval=50 \
      --series-out="$tmp/b.series.json" >/dev/null 2>&1
    cmp "$tmp/a.series.json" "$tmp/b.series.json"
    python3 scripts/metrics_diff.py --series \
      "$tmp/a.series.json" "$tmp/b.series.json"
    rm -rf "$tmp"
  fi
  if [[ "$config" == membership ]]; then
    echo "==> crash/drain determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 \
      --crash-plan=1@300us:2ms --drain-at=3@1ms --heartbeat-us=100 \
      >"$tmp/a.json" 2>/dev/null
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=2000 \
      --crash-plan=1@300us:2ms --drain-at=3@1ms --heartbeat-us=100 \
      >"$tmp/b.json" 2>/dev/null
    cmp "$tmp/a.json" "$tmp/b.json"
    # Node 9 restarts before the detector declares it dead and recovers its
    # journal locally while a transfer to it is still in flight.
    echo "==> restart-before-detection smoke (exit 0, same-seed byte identity)"
    for run in a b; do
      "$dir/bench/cluster_loadgen" --nodes=16 --router=p2c --policy=bandwidth \
        --rate=110000 --jobs=4000 --um-fraction=0.1 --remote-fraction=0.3 \
        --crash-plan=9@1140us:1590us --heartbeat-us=100 --seed=1 \
        >"$tmp/restart-$run.json" 2>/dev/null
    done
    cmp "$tmp/restart-a.json" "$tmp/restart-b.json"
    rm -rf "$tmp"
    echo "==> flag-validation smoke (bad node targets and schedules exit 2)"
    for bad in "--nodes=0" "--fault-node=9" "--crash-plan=9@1ms" \
               "--drain-at=9@1ms" "--crash-plan=bogus" "--drain-at=x@1ms" \
               "--router=passthrough"; do
      expect_exit2 "$dir/bench/cluster_loadgen" --nodes=4 "$bad"
    done
  fi
  if [[ "$config" == profile ]]; then
    echo "==> profiler determinism smoke (same-seed byte identity under ASan)"
    tmp=$(mktemp -d)
    for run in a b; do
      "$dir/bench/serve_loadgen" --jobs=500 --cost-report \
        --profile-interval=50 --profile-out="$tmp/$run.folded" \
        >"$tmp/$run.json" 2>/dev/null
    done
    cmp "$tmp/a.json" "$tmp/b.json"
    cmp "$tmp/a.folded" "$tmp/b.folded"
    echo "==> profiler-off byte-identity (snapshot unchanged by attribution)"
    # Attribution only (--cost-report, no --profile-interval): sampling
    # adds the profiler's own tick events to the sim, which legitimately
    # moves ghs_sim_* — same as scraper ticks. Non-UM workload: unified
    # jobs warm the tuner memo-cache when a recorder is attached (the
    # same documented perturbation tracing has), so the identity property
    # is checked without --um-fraction.
    "$dir/bench/serve_loadgen" --jobs=500 --metrics-out="$tmp/off.prom" \
      >/dev/null 2>&1
    "$dir/bench/serve_loadgen" --jobs=500 --metrics-out="$tmp/on.prom" \
      --cost-report >/dev/null 2>&1
    python3 scripts/metrics_diff.py "$tmp/off.prom.json" "$tmp/on.prom.json"
    echo "==> conservation smoke (fleet with crash/replay + remote transfers)"
    # write_json GHS_CHECKs attributed == telemetry totals; a leak aborts.
    "$dir/bench/cluster_loadgen" --nodes=4 --jobs=1000 --router=all \
      --remote-fraction=0.4 --um-fraction=0.2 --crash-plan=1@300us:2ms \
      --heartbeat-us=100 --cost-report --profile-interval=50 \
      >/dev/null 2>&1
    "$dir/bench/serve_loadgen" --plan=builtin --policy=fifo --jobs=500 \
      --um-fraction=0.3 --cost-report --profile-interval=50 >/dev/null 2>&1
    echo "==> flag-validation smoke (bad flags exit 2 on both loadgens)"
    for bad in "--profile-interval=-1" "--profile-out=x.folded" \
               "--trace-sample=1.5" "--trace-sample=-0.1" \
               "--um-fraction=2" "--scrape-interval=-1"; do
      expect_exit2 "$dir/bench/serve_loadgen" --jobs=10 "$bad"
    done
    printf 'kernel-fault gpu p=banana\n' >"$tmp/bad.plan"
    for bin in serve_loadgen cluster_loadgen; do
      for bad in "--policy=bogus" "--plan=$tmp/no-such.plan" \
                 "--plan=$tmp/bad.plan" "--min-log2=30 --max-log2=10" \
                 "--min-log2=0" "--max-log2=40" "--deadline-us=-5" \
                 "--slo --slo-latency-ms=-1"; do
        # shellcheck disable=SC2086  # $bad may hold two flags
        expect_exit2 "$dir/bench/$bin" $bad
      done
    done
    for bad in "--tenants=0" "--tenants=100" \
               "--tenants=300 --jobs=200 --depth=512" "--think-us=-3"; do
      # shellcheck disable=SC2086
      expect_exit2 "$dir/bench/serve_loadgen" --closed $bad
    done
    for bad in "--router=bogus" "--link-gbps=0" "--tenants=0" \
               "--tenants=-3"; do
      expect_exit2 "$dir/bench/cluster_loadgen" "$bad"
    done
    rm -rf "$tmp"
    echo "==> instrument-name lint (code vs docs/OBSERVABILITY.md)"
    python3 scripts/lint_instruments.py
  fi
  if [[ "$config" == release ]]; then
    tmp=$(mktemp -d)
    echo "==> certify_reproduction (every published number in band)"
    certify=$("$dir/bench/certify_reproduction" \
      --metrics-out="$tmp/certify_reproduction.prom") || true
    if ! grep -q '^CERTIFIED' <<<"$certify"; then
      echo "$certify" >&2
      echo "certify_reproduction did not print CERTIFIED" >&2
      exit 1
    fi
    echo "==> metrics-out smoke (paper benches write FILE and FILE.json)"
    benches=(summary_stats ablation_combine_strategy ablation_cpu_schedule
             ablation_grid_heuristic ablation_prefetch
             ablation_reduction_strategy ablation_thread_limit
             ablation_um_policy)
    for bench in "${benches[@]}"; do
      "$dir/bench/$bench" --iters=2 --metrics-out="$tmp/$bench.prom" \
        >/dev/null
    done
    for bench in certify_reproduction "${benches[@]}"; do
      if [[ ! -s "$tmp/$bench.prom" || ! -s "$tmp/$bench.prom.json" ]]; then
        echo "$bench --metrics-out wrote no snapshot" >&2
        exit 1
      fi
    done
    rm -rf "$tmp"
    echo "==> instrument-name lint (code vs docs/OBSERVABILITY.md)"
    python3 scripts/lint_instruments.py
    echo "==> perf gate ($config)"
    python3 scripts/perf_gate.py --bindir "$dir/bench"
  fi
done
echo "==> all green"
