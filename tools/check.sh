#!/usr/bin/env bash
# Full pre-merge gauntlet:
#   1. Debug build with ASan+UBSan (warnings are errors, and any undefined
#      behaviour aborts the test that hits it), all tests under the
#      sanitizers.
#   2. Fault-matrix smoke: every chaos scenario once, fixed seed, under the
#      sanitizers (bench_fault_availability drives the whole failure-handling
#      stack end to end).
#   3. Release build (what the benches/figures run as) with -Werror, all
#      tests. It looks for c-ares in the conda prefix (the active one, or
#      ~/miniconda), so the codec's differential test against c-ares runs
#      where c-ares is installed; without it that one test is not built.
#   4. Observability gate: fig2 with trace/metrics/timeseries outputs,
#      mecdns_report over each artifact, and a self-diff of two identical
#      runs (any nonzero diff means the bench lost determinism).
#   5. TSan parallel-campaign gate: fig5 at --workers 1 and --workers 4
#      under ThreadSanitizer, outputs compared byte for byte — the parallel
#      runner's determinism contract, and its data-race freedom, in one
#      stage.
#   6. Perf gate: bench_micro emits BENCH_micro.json and bench_throughput
#      drives the load generator against two fig5 deployments; the
#      deterministic artifact is byte-compared across worker counts,
#      self-diffed (must be clean), and an injected allocs/query regression
#      must trip `mecdns_report --diff` nonzero.
#   7. Mobility-churn robustness gate: bench_mobility_churn runs handoff
#      storms / flash crowds fragile-vs-robust, byte-compares the artifact
#      across worker counts, requires --gate to pass (robust meets the SLO
#      everywhere, fragile exhausts its budget somewhere), and requires the
#      --misconfigure run — robust machinery with the client fallback
#      forgotten — to exit nonzero.
#   8. Incident-forensics gate: the fault matrix emits BENCH_incidents.json
#      (flight-recorder journal correlated into graded incidents),
#      byte-compared across worker counts and rendered by
#      `mecdns_report --incidents`. Every robust incident must grade a
#      finite MTTD and a bounded MTTR (the awk gate owns finiteness; --diff
#      owns drift, so an injected MTTR regression must trip it nonzero).
#   9. Livewire smoke: the epoll/UDP runtime for real. mecdns_livewire
#      serves the MEC zone on an ephemeral 127.0.0.1 port (ASan build), the
#      probe client resolves a name over the real wire and checks the A
#      record (once lower-case, once mixed-case), and the server's teardown
#      must report sockets_leaked=0.
# Usage: tools/check.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run() { echo "+ $*"; "$@"; }

echo "=== 1/9: ASan/UBSan build + tests (build-asan/) ==="
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -Werror" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
run cmake --build build-asan -j "$jobs"
run ctest --test-dir build-asan --output-on-failure -j "$jobs" --timeout 120

echo "=== 2/9: fault-matrix smoke (ASan/UBSan) ==="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for scenario in mec-ldns-crash edge-cache-partition wan-loss-burst \
                cdns-brownout cache-wipe; do
  run ./build-asan/bench/bench_fault_availability \
      --scenario "$scenario" --requests 40 --spacing-ms 500 \
      --fault-start-ms 8000 --fault-end-ms 14000 --seed 42 \
      --json-out "$smoke_dir/fault_$scenario.json"
done

echo "=== 3/9: Release build (warnings are errors) + tests (build/) ==="
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror \
    -DCMAKE_PREFIX_PATH="${CONDA_PREFIX:-$HOME/miniconda}"
run cmake --build build -j "$jobs"
run ctest --test-dir build --output-on-failure -j "$jobs" --timeout 120

echo "=== 4/9: observability pipeline + determinism self-diff ==="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir"' EXIT
run ./build/bench/bench_fig2_lookup_latency \
    --json-out "$obs_dir/fig2_a.json" \
    --trace-out "$obs_dir/trace.json" \
    --metrics-out "$obs_dir/metrics.json" \
    --timeseries-out "$obs_dir/series.json"
# fig2 runs one simulation per (site, network) cell, so trace/timeseries
# files carry the cell slug; spot-check the first cell's artifacts.
run ./build/tools/mecdns_report \
    --trace "$obs_dir/trace.airbnb.wired-campus.json" \
    --metrics "$obs_dir/metrics.json" \
    --timeseries "$obs_dir/series.airbnb.wired-campus.json"
run ./build/bench/bench_fig2_lookup_latency --json-out "$obs_dir/fig2_b.json"
run ./build/tools/mecdns_report \
    --diff "$obs_dir/fig2_a.json" --against "$obs_dir/fig2_b.json"

echo "=== 5/9: TSan parallel-campaign determinism gate (build-tsan/) ==="
run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -Werror" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
run cmake --build build-tsan -j "$jobs" \
    --target bench_fig5_deployments core_parallel_test mecdns_report
run ./build-tsan/tests/core_parallel_test
par_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir" "$par_dir"' EXIT
run ./build-tsan/bench/bench_fig5_deployments --workers 1 \
    --json-out "$par_dir/fig5_serial.json" \
    --metrics-out "$par_dir/metrics_serial.json"
run ./build-tsan/bench/bench_fig5_deployments --workers 4 \
    --json-out "$par_dir/fig5_parallel.json" \
    --metrics-out "$par_dir/metrics_parallel.json"
run ./build-tsan/tools/mecdns_report \
    --diff-bytes "$par_dir/fig5_serial.json" \
    --against "$par_dir/fig5_parallel.json"
run ./build-tsan/tools/mecdns_report \
    --diff-bytes "$par_dir/metrics_serial.json" \
    --against "$par_dir/metrics_parallel.json"

echo "=== 6/9: perf gate (microbench artifact + throughput regression) ==="
perf_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir" "$par_dir" "$perf_dir"' EXIT
# Microbenchmarks as a pipeline artifact (the JSON is a reference record,
# not a gate — wall time is machine-dependent).
run ./build/bench/bench_micro \
    --benchmark_out="$perf_dir/BENCH_micro.json" \
    --benchmark_out_format=json
run ./build/tools/mecdns_report --bench "$perf_dir/BENCH_micro.json"
# Load-generator throughput: small population here (check.sh is a
# pre-merge loop; the full 100k-UE run is one flag away). Worker-count
# independence is part of the determinism contract, so compare bytes.
# --journal arms the flight recorder on the hot path, so the allocation
# ceilings below are verified with journaling enabled (it must stay free).
tp="./build/bench/bench_throughput --ues 20000 --rate-hz 0.05 --duration-s 10 \
    --journal"
run $tp --workers 1 --json-out "$perf_dir/tp_serial.json" \
    --metrics-out "$perf_dir/tp_metrics_serial.json"
run $tp --workers 4 --json-out "$perf_dir/tp_parallel.json" \
    --metrics-out "$perf_dir/tp_metrics_parallel.json"
run ./build/tools/mecdns_report \
    --diff-bytes "$perf_dir/tp_serial.json" \
    --against "$perf_dir/tp_parallel.json"
run ./build/tools/mecdns_report \
    --diff-bytes "$perf_dir/tp_metrics_serial.json" \
    --against "$perf_dir/tp_metrics_parallel.json"
run ./build/tools/mecdns_report --bench "$perf_dir/tp_serial.json"
run ./build/tools/mecdns_report \
    --diff "$perf_dir/tp_serial.json" --against "$perf_dir/tp_parallel.json"
# Absolute allocation ceilings (the arena/pool/borrowed-send baseline is
# ~30 allocs and ~6.3 KB per query). The diffs above only catch drift
# between the two runs of this script, so pin hard numbers: the gate trips
# well below half the pre-arena cost (274 allocs, ~21 KB per query).
# Event-queue ceilings: answered queries cancel their retry timers, so a
# query costs 21 events and the queue holds only live work (104/356 peak
# here); an uncancelled timer shows up as 23 events and a ~4k-deep queue.
awk 'BEGIN { RS = "," }
  /"allocs_per_query"/ { split($0, kv, ":"); v = kv[2] + 0
      if (v > 100) { printf "allocs_per_query %s exceeds ceiling 100\n", v; bad = 1 } }
  /"alloc_bytes_per_query"/ { split($0, kv, ":"); v = kv[2] + 0
      if (v > 10000) { printf "alloc_bytes_per_query %s exceeds ceiling 10000\n", v; bad = 1 } }
  /"events_per_query"/ { split($0, kv, ":"); v = kv[2] + 0
      if (v > 21) { printf "events_per_query %s exceeds ceiling 21\n", v; bad = 1 } }
  /"peak_queue_depth"/ { split($0, kv, ":"); v = kv[2] + 0
      if (v > 1000) { printf "peak_queue_depth %s exceeds ceiling 1000\n", v; bad = 1 } }
  END { if (bad) exit 1; print "+ allocation and event-queue ceilings respected" }' \
  "$perf_dir/tp_serial.json"
# The gate must actually gate: inject a 10x allocs/query regression and
# demand a nonzero exit.
sed -E 's/"allocs_per_query": ([0-9.]+)/"allocs_per_query": 999999/' \
    "$perf_dir/tp_serial.json" > "$perf_dir/tp_regressed.json"
if ./build/tools/mecdns_report --diff "$perf_dir/tp_serial.json" \
    --against "$perf_dir/tp_regressed.json" > /dev/null; then
  echo "error: injected allocs_per_query regression was not detected" >&2
  exit 1
fi
echo "+ injected regression correctly detected"

echo "=== 7/9: mobility-churn robustness gate ==="
mob_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir" "$par_dir" "$perf_dir" "$mob_dir"' EXIT
# Downsized population, same overload physics: the flash crowd still
# concentrates ~960 qps on the hot cell's 1-worker (~909 qps) L-DNS.
mob="./build/bench/bench_mobility_churn --ues 150 --rate-hz 8 \
    --duration-s 12 --event-start-s 3 --event-end-s 8 --seed 42"
run $mob --workers 1 --json-out "$mob_dir/mobility_serial.json" --gate
run $mob --workers 4 --json-out "$mob_dir/mobility_parallel.json" --gate
run ./build/tools/mecdns_report \
    --diff-bytes "$mob_dir/mobility_serial.json" \
    --against "$mob_dir/mobility_parallel.json"
# The gate must actually gate: a mis-configured robust deployment (site
# machinery on, client fallback forgotten) reports under the robust label
# and must be rejected.
if $mob --workers 4 --json-out "$mob_dir/mobility_broken.json" \
    --gate --misconfigure > /dev/null; then
  echo "error: mis-configured robust run was not rejected by --gate" >&2
  exit 1
fi
echo "+ mis-configured robust run correctly rejected"

echo "=== 8/9: incident-forensics gate ==="
inc_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir" "$par_dir" "$perf_dir" "$mob_dir" \
    "$inc_dir"' EXIT
fault="./build/bench/bench_fault_availability --requests 40 --spacing-ms 500 \
    --fault-start-ms 8000 --fault-end-ms 14000 --seed 42"
run $fault --workers 1 --json-out "" \
    --incidents-out "$inc_dir/inc_serial.json"
run $fault --workers 4 --json-out "" \
    --incidents-out "$inc_dir/inc_parallel.json"
run ./build/tools/mecdns_report \
    --diff-bytes "$inc_dir/inc_serial.json" \
    --against "$inc_dir/inc_parallel.json"
run ./build/tools/mecdns_report --incidents "$inc_dir/inc_serial.json"
run ./build/tools/mecdns_report \
    --diff "$inc_dir/inc_serial.json" --against "$inc_dir/inc_parallel.json"
# Finiteness gate (the --diff above only catches drift): every scenario
# must correlate at least one incident from its injected fault, nothing may
# fall off the journal ring, and every robust incident must grade a finite
# MTTD (the control plane visibly reacted) and a bounded MTTR. -1 means
# "broke and never detected/recovered" — exactly what must not ship.
awk '
  /"mode": "robust"/ {
    match($0, /"scenario": "[^"]+"/); row = substr($0, RSTART + 13, RLENGTH - 14)
    match($0, /"mttd_ms": -?[0-9.]+/); mttd = substr($0, RSTART + 11, RLENGTH - 11) + 0
    match($0, /"mttr_ms": -?[0-9.]+/); mttr = substr($0, RSTART + 11, RLENGTH - 11) + 0
    if (mttd < 0) { printf "%s: robust MTTD %s (undetected)\n", row, mttd; bad = 1 }
    if (mttr < 0 || mttr > 4000) { printf "%s: robust MTTR %s out of [0, 4000]\n", row, mttr; bad = 1 }
  }
  /"incidents": 0/ { printf "scenario row with zero incidents: %s\n", $0; bad = 1 }
  /"journal_dropped": [1-9]/ { printf "journal overflow: %s\n", $0; bad = 1 }
  END { if (bad) exit 1; print "+ incident grades within bounds" }' \
  "$inc_dir/inc_serial.json"
# The recovery-time gate must actually gate: inject a huge MTTR and demand
# a nonzero exit from --diff.
sed -E 's/"mttr_ms": [0-9.]+/"mttr_ms": 999999/' \
    "$inc_dir/inc_serial.json" > "$inc_dir/inc_regressed.json"
if ./build/tools/mecdns_report --diff "$inc_dir/inc_serial.json" \
    --against "$inc_dir/inc_regressed.json" > /dev/null; then
  echo "error: injected mttr_ms regression was not detected" >&2
  exit 1
fi
echo "+ injected MTTR regression correctly detected"
# Mobility churn feeds the same journal/correlator: byte-stable across
# workers and at least one incident per churn scenario.
run $mob --workers 1 --json-out "" \
    --incidents-out "$inc_dir/mob_inc_serial.json"
run $mob --workers 4 --json-out "" \
    --incidents-out "$inc_dir/mob_inc_parallel.json"
run ./build/tools/mecdns_report \
    --diff-bytes "$inc_dir/mob_inc_serial.json" \
    --against "$inc_dir/mob_inc_parallel.json"
run ./build/tools/mecdns_report --incidents "$inc_dir/mob_inc_serial.json"
awk '
  /"incidents": 0/ { printf "churn row with zero incidents: %s\n", $0; bad = 1 }
  END { if (bad) exit 1; print "+ every churn scenario correlated an incident" }' \
  "$inc_dir/mob_inc_serial.json"

echo "=== 9/9: livewire smoke (real UDP over loopback, ASan) ==="
live_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir" "$par_dir" "$perf_dir" "$mob_dir" \
    "$inc_dir" "$live_dir"' EXIT
run cmake --build build-asan -j "$jobs" --target mecdns_livewire
./build-asan/tools/mecdns_livewire --port 0 --duration-s 30 \
    --records video.mec.test=192.0.2.7 > "$live_dir/serve.log" 2>&1 &
live_pid=$!
for _ in $(seq 1 100); do
  grep -q LISTENING "$live_dir/serve.log" 2>/dev/null && break
  sleep 0.1
done
live_port="$(head -1 "$live_dir/serve.log" | grep -oE '[0-9]+$')"
echo "+ livewire server on 127.0.0.1:$live_port"
run ./build-asan/tools/mecdns_livewire --probe video.mec.test \
    --server "127.0.0.1:$live_port" --expect-a 192.0.2.7
# A mixed-case spelling must hit the same record (RFC 4343): the zone's
# case-folded hash index, over the real wire.
run ./build-asan/tools/mecdns_livewire --probe VIDEO.Mec.Test \
    --server "127.0.0.1:$live_port" --expect-a 192.0.2.7
# SIGINT must shut the loop down cleanly; the exit status is the server's
# own socket-leak verdict (nonzero if any fd survived teardown).
kill -INT "$live_pid"
wait "$live_pid"
cat "$live_dir/serve.log"
grep -q '^sockets_leaked=0$' "$live_dir/serve.log" || {
  echo "error: livewire teardown leaked sockets" >&2; exit 1; }

echo "All checks passed."
