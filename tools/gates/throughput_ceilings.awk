# Absolute allocation and event-queue ceilings for a bench_throughput
# artifact (BENCH_throughput.json). Exits 1 if any deployment row is over.
#
#   awk -f tools/gates/throughput_ceilings.awk BENCH_throughput.json
#
# Since the query path passes messages by reference through move-only
# inline callbacks and a packet allocates nothing beyond its pooled
# payload, the baseline is ~1 alloc and ~140 B per query on mec-mec and
# ~7 allocs and ~1.3 KB on provider (the recursive resolver's jobs and
# cache entries); the ceilings allow under 2x of the provider row.
# Answered queries cancel their retry timers, so a query
# costs 21 events and the queue holds only live work (104/356 peak at the
# check.sh settings); an uncancelled timer shows up as 23 events and a
# ~4k-deep queue.
BEGIN { RS = "," }
/"allocs_per_query"/ { split($0, kv, ":"); v = kv[2] + 0
    if (v > 14) { printf "allocs_per_query %s exceeds ceiling 14\n", v; bad = 1 } }
/"alloc_bytes_per_query"/ { split($0, kv, ":"); v = kv[2] + 0
    if (v > 2600) { printf "alloc_bytes_per_query %s exceeds ceiling 2600\n", v; bad = 1 } }
/"events_per_query"/ { split($0, kv, ":"); v = kv[2] + 0
    if (v > 21) { printf "events_per_query %s exceeds ceiling 21\n", v; bad = 1 } }
/"peak_queue_depth"/ { split($0, kv, ":"); v = kv[2] + 0
    if (v > 1000) { printf "peak_queue_depth %s exceeds ceiling 1000\n", v; bad = 1 } }
END { if (bad) exit 1; print "+ allocation and event-queue ceilings respected" }
