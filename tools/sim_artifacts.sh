#!/usr/bin/env bash
# Regenerates every deterministic simulator artifact of a build into one
# directory: the stdout and JSON of the figure, ECS, ablation, extension,
# throughput, mobility-churn and fault benches, and the stdout of every
# example.
# Each run has fixed flags and writes its files under relative names
# inside <out-dir>, and nothing written depends on wall-clock time
# (bench_throughput's stdout, whose qps_wall column does, is dropped; its
# --json-out file is kept). Two builds that simulate identically therefore
# produce byte-identical trees:
#
#   tools/sim_artifacts.sh build-before out-before
#   tools/sim_artifacts.sh build-after out-after
#   diff -r out-before out-after     # empty: no sim-time output moved
#
# tests/golden/sim/ pins this tree for a Release build, with the meta.build
# stamp (the only field a Debug build writes differently) normalized to
# "any"; tools/check.sh stage 11 compares build/ against it. A change that
# moves a simulated number on purpose re-baselines it:
#
#   rm -rf tests/golden/sim && tools/sim_artifacts.sh build tests/golden/sim
#   sed -i -E 's/"build": "[a-z]+"/"build": "any"/' \
#       tests/golden/sim/BENCH_*.json
#
# Usage: tools/sim_artifacts.sh <build-dir> <out-dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

# Parallel benches are byte-identical at any worker count; two keeps the
# run light.
workers=2

run() {  # run <stdout-file> <binary> [args...]
  local out=$1
  shift
  echo "  $out" >&2
  "$@" > "$out"
}

echo "writing sim artifacts to $(pwd)" >&2
run fig2.txt "$build/bench/bench_fig2_lookup_latency" \
  --workers "$workers" --json-out BENCH_fig2.json
run fig3.txt "$build/bench/bench_fig3_response_distribution"
run fig5.txt "$build/bench/bench_fig5_deployments" \
  --workers "$workers" --json-out BENCH_fig5.json
run ecs.txt "$build/bench/bench_ecs_impact"
for ablation in cdns_scope handoff ingress_fallback load namespace \
                tier_referral ttl; do
  run "ablation_$ablation.txt" "$build/bench/bench_ablation_$ablation" \
    --workers "$workers"
done
run extension_table1.txt "$build/bench/bench_extension_table1_at_mec"
run /dev/null "$build/bench/bench_throughput" \
  --workers "$workers" --json-out BENCH_throughput.json
run mobility.txt "$build/bench/bench_mobility_churn" \
  --workers "$workers" --json-out BENCH_mobility.json
run fault.txt "$build/bench/bench_fault_availability" \
  --workers "$workers" --json-out BENCH_fault_availability.json \
  --incidents-out BENCH_incidents.json
for example in quickstart fig1_walkthrough mobile_handoff overload_fallback \
               arvr_latency_budget; do
  run "example_$example.txt" "$build/examples/$example"
done
