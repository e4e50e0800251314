#!/usr/bin/env bash
# Byte-identity manifest: runs a fixed list of loadgen and paper-bench
# invocations with the binaries of one build, writes every artefact they
# produce (stdout, stderr, metrics, series, folded stacks, traces) to
# OUT_DIR, and lists one sha256 per artefact in OUT_DIR/MANIFEST.
#
#   $ scripts/output_manifest.sh BUILD_DIR OUT_DIR
#   $ diff parent-out/MANIFEST change-out/MANIFEST   # parent vs change
#
# BUILD_DIR is a built tree (Release is fastest); OUT_DIR must be empty or
# absent. The runs take about a minute, most of it certify_reproduction.
# The volatile ghs_bench_wall_seconds line is dropped from every .prom
# file before hashing. The script fails if table1_baseline_vs_optimized with
# --config=configs/gh200.properties (the library defaults, spelled out)
# prints anything other than the plain run.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
bin="$(cd "$1" && pwd)/bench"
mkdir -p "$2"
out="$(cd "$2" && pwd)"
if [[ -n "$(ls -A "$out")" ]]; then
  echo "$0: $out is not empty" >&2
  exit 2
fi
# Relative output names keep OUT_DIR out of every artefact.
cd "$out"

# run NAME BINARY ARGS...: stdout to NAME.out, stderr to NAME.err.
run() {
  local name=$1 binary=$2
  shift 2
  "$bin/$binary" "$@" >"$name.out" 2>"$name.err"
}

for seed in 42 7 1234; do
  run "serve_observed_$seed" serve_loadgen --seed="$seed" --policy=all \
    --um-fraction=0.2 --metrics-out="serve_observed_$seed.prom" \
    --scrape-interval=50 --series-out="serve_observed_$seed.series.json" \
    --profile-interval=50 --profile-out="serve_observed_$seed.folded" \
    --cost-report --slo --trace="serve_observed_$seed.trace.json"
  run "serve_chaos_$seed" serve_loadgen --seed="$seed" --plan=builtin \
    --policy=all --metrics-out="serve_chaos_$seed.prom"
  run "serve_closed_$seed" serve_loadgen --seed="$seed" --closed \
    --tenants=16
  run "cluster_observed_$seed" cluster_loadgen --seed="$seed" --nodes=4 \
    --router=all --um-fraction=0.1 --remote-fraction=0.3 \
    --crash-plan=1@300us:2ms --drain-at=3@1ms --heartbeat-us=100 \
    --metrics-out="cluster_observed_$seed.prom" --scrape-interval=50 \
    --series-out="cluster_observed_$seed.series.json" \
    --profile-interval=50 --profile-out="cluster_observed_$seed.folded" \
    --cost-report --slo --trace="cluster_observed_$seed.trace.json"
  run "cluster_scaling_$seed" cluster_loadgen --seed="$seed" --scaling \
    --nodes=16
  run "cluster_chaos_$seed" cluster_loadgen --seed="$seed" --plan=builtin \
    --fault-node=2
done

for paper in table1_baseline_vs_optimized fig1_gpu_sweep \
             fig2a_um_a1_baseline fig2b_um_a1_optimized fig3_um_a1_speedup \
             fig4a_um_a2_baseline fig4b_um_a2_optimized fig5_um_a2_speedup \
             summary_stats ablation_combine_strategy ablation_cpu_schedule \
             ablation_grid_heuristic ablation_prefetch \
             ablation_reduction_strategy ablation_thread_limit \
             ablation_um_policy; do
  run "$paper" "$paper" --iters=2 --metrics-out="$paper.prom"
done
run certify_reproduction certify_reproduction

run table1_config table1_baseline_vs_optimized \
  --config="$root/configs/gh200.properties"
run table1_plain table1_baseline_vs_optimized
if ! cmp -s table1_config.out table1_plain.out; then
  echo "$0: --config=configs/gh200.properties changes table1's output" >&2
  exit 1
fi

for prom in *.prom; do
  grep -v '^ghs_bench_wall_seconds' "$prom" >"$prom.tmp"
  mv "$prom.tmp" "$prom"
done
hashes=$(sha256sum -- *)
echo "$hashes" >MANIFEST
echo "$(wc -l <MANIFEST) artefacts hashed into $out/MANIFEST"
