#!/usr/bin/env bash
# Full pre-merge gauntlet:
#   1. Debug build with ASan+UBSan (warnings are errors, and any undefined
#      behaviour aborts the test that hits it), all tests under the
#      sanitizers.
#   2. Fault-matrix smoke: every chaos scenario once, fixed seed, under the
#      sanitizers (bench_fault_availability drives the whole failure-handling
#      stack end to end).
#   3. Release build (what the benches/figures run as) with -Werror, all
#      tests, after a grep gate that rejects liveness tokens
#      (make_shared<bool> / make_shared<T*>) under src/. It looks for c-ares in the conda prefix (the active one, or
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
#      record (once lower-case, once mixed-case), a crafted 60,261-octet
#      query must be answered, a query with an OPT record must get one back,
#      the probe must pass again after them, and the server's teardown must
#      report sockets_leaked=0.
#  10. Benchmark build: perfbench compiles src/ and tools/ itself and reads
#      simnet::Packet, so its own unit tests and a short traced
#      sim-mec-steady run must pass (run.py exits 1 when its build fails).
#  11. Golden sim artifacts: tools/sim_artifacts.sh regenerates every
#      deterministic bench and example output from build/, and the tree
#      (meta.build normalized) must equal tests/golden/sim/ byte for byte.
# Usage: tools/check.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run() { echo "+ $*"; "$@"; }

echo "=== 1/11: ASan/UBSan build + tests (build-asan/) ==="
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -Werror" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
run cmake --build build-asan -j "$jobs"
run ctest --test-dir build-asan --output-on-failure -j "$jobs" --timeout 120

echo "=== 2/11: fault-matrix smoke (ASan/UBSan) ==="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for scenario in mec-ldns-crash edge-cache-partition wan-loss-burst \
                cdns-brownout cache-wipe; do
  run ./build-asan/bench/bench_fault_availability \
      --scenario "$scenario" --requests 40 --spacing-ms 500 \
      --fault-start-ms 8000 --fault-end-ms 14000 --seed 42 \
      --json-out "$smoke_dir/fault_$scenario.json"
done

echo "=== 3/11: Release build (warnings are errors) + tests (build/) ==="
# One cancellation rule: a component cancels the timers it armed, so no
# heap-allocated liveness token (a shared flag or self pointer that late
# events check) may come back under src/.
if grep -rnE 'make_shared<(bool|[^<>]*\*)>' src/; then
  echo "error: liveness token under src/; cancel the timer instead" >&2
  exit 1
fi
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror \
    -DCMAKE_PREFIX_PATH="${CONDA_PREFIX:-$HOME/miniconda}"
run cmake --build build -j "$jobs"
run ctest --test-dir build --output-on-failure -j "$jobs" --timeout 120

echo "=== 4/11: observability pipeline + determinism self-diff ==="
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

echo "=== 5/11: TSan parallel-campaign determinism gate (build-tsan/) ==="
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

echo "=== 6/11: perf gate (microbench artifact + throughput regression) ==="
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
# Absolute allocation and event-queue ceilings. The diffs above only catch
# drift between the two runs of this script, so pin hard numbers (the
# thresholds and their rationale live in the awk file; CI runs it too).
run awk -f tools/gates/throughput_ceilings.awk "$perf_dir/tp_serial.json"
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

echo "=== 7/11: mobility-churn robustness gate ==="
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

echo "=== 8/11: incident-forensics gate ==="
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
# Finiteness gate (the --diff above only catches drift): incidents per
# scenario, no journal overflow, finite robust MTTD and bounded MTTR (the
# same awk file runs in CI).
run awk -f tools/gates/incident_grades.awk "$inc_dir/inc_serial.json"
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

echo "=== 9/11: livewire smoke (real UDP over loopback, ASan) ==="
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
# A hostile query: 60,261 octets whose 3000 SRV additionals all point at
# one 245-octet name, 789,261 octets if re-encoded. The server must answer
# it (and keep answering), never encoding past its 65535-octet buffer.
# Then a query with an OPT record: the reply must carry one too (RFC 6891
# §6.1.1).
python3 - "$live_port" <<'EOF'
import socket, struct, sys
labels = [b"a" * 63, b"b" * 63, b"c" * 63, b"d" * 42, b"mec", b"test"]
name = b"".join(bytes([len(l)]) + l for l in labels) + b"\0"
srv = bytes.fromhex("c00c 0021 0001 0000001e 0008 0001 0001 13c4 c00c")
query = (struct.pack(">6H", 0x4242, 0x0100, 1, 0, 0, 3000) + name +
         struct.pack(">2H", 33, 1) + srv * 3000)
assert len(query) == 60261, len(query)
s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
s.settimeout(5)
s.sendto(query, ("127.0.0.1", int(sys.argv[1])))
reply = s.recv(65535)
rid, flags = struct.unpack(">2H", reply[:4])
assert rid == 0x4242 and flags & 0x8000, reply[:4].hex()
print("+ %d-octet hostile query answered: %d octets, rcode %d"
      % (len(query), len(reply), flags & 0xf))
def skip_name(msg, off):
    while msg[off] != 0 and msg[off] & 0xc0 != 0xc0:
        off += 1 + msg[off]
    return off + (2 if msg[off] else 1)
opt = b"\0" + struct.pack(">2HIH", 41, 1232, 0, 0)
query = (struct.pack(">6H", 0x4343, 0x0100, 1, 0, 0, 1) +
         b"\x05video\x03mec\x04test\0" + struct.pack(">2H", 1, 1) + opt)
s.sendto(query, ("127.0.0.1", int(sys.argv[1])))
reply = s.recv(65535)
rid, flags, qd, an, ns, ar = struct.unpack(">6H", reply[:12])
assert rid == 0x4343 and flags & 0x8000, reply[:4].hex()
off = 12
for _ in range(qd):
    off = skip_name(reply, off) + 4
types = []
for _ in range(an + ns + ar):
    off = skip_name(reply, off)
    rtype, _, _, rdlength = struct.unpack(">2HIH", reply[off:off + 10])
    types.append(rtype)
    off += 10 + rdlength
assert 41 in types[an + ns:], "no OPT record in the additional section"
print("+ EDNS query answered with an OPT record: rcode %d, %d answers"
      % (flags & 0xf, an))
EOF
run ./build-asan/tools/mecdns_livewire --probe video.mec.test \
    --server "127.0.0.1:$live_port" --expect-a 192.0.2.7
# SIGINT must shut the loop down cleanly; the exit status is the server's
# own socket-leak verdict (nonzero if any fd survived teardown).
kill -INT "$live_pid"
wait "$live_pid"
cat "$live_dir/serve.log"
grep -q '^sockets_leaked=0$' "$live_dir/serve.log" || {
  echo "error: livewire teardown leaked sockets" >&2; exit 1; }

echo "=== 10/11: benchmark build (perfbench self-test + short traced run) ==="
run python3 perfbench/run.py --self-test
run python3 perfbench/run.py --workload sim-mec-steady --seconds 2 --trace 1

echo "=== 11/11: golden sim artifacts (build/ vs tests/golden/sim/) ==="
sim_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$obs_dir" "$par_dir" "$perf_dir" "$mob_dir" \
    "$inc_dir" "$live_dir" "$sim_dir"' EXIT
run tools/sim_artifacts.sh build "$sim_dir"
sed -i -E 's/"build": "[a-z]+"/"build": "any"/' "$sim_dir"/BENCH_*.json
run diff -r tests/golden/sim "$sim_dir"

echo "All checks passed."
