# Finiteness gate for a bench_fault_availability incidents artifact
# (--incidents-out). Exits 1 unless every scenario correlated at least one
# incident from its injected fault, nothing fell off the journal ring, and
# every robust incident graded a finite MTTD (the control plane visibly
# reacted) and a bounded MTTR. -1 means "broke and never detected/recovered".
#
#   awk -f tools/gates/incident_grades.awk BENCH_incidents.json
#
# `mecdns_report --diff` owns drift; this gate owns finiteness.
/"mode": "robust"/ {
  match($0, /"scenario": "[^"]+"/); row = substr($0, RSTART + 13, RLENGTH - 14)
  match($0, /"mttd_ms": -?[0-9.]+/); mttd = substr($0, RSTART + 11, RLENGTH - 11) + 0
  match($0, /"mttr_ms": -?[0-9.]+/); mttr = substr($0, RSTART + 11, RLENGTH - 11) + 0
  if (mttd < 0) { printf "%s: robust MTTD %s (undetected)\n", row, mttd; bad = 1 }
  if (mttr < 0 || mttr > 4000) { printf "%s: robust MTTR %s out of [0, 4000]\n", row, mttr; bad = 1 }
}
/"incidents": 0/ { printf "scenario row with zero incidents: %s\n", $0; bad = 1 }
/"journal_dropped": [1-9]/ { printf "journal overflow: %s\n", $0; bad = 1 }
END { if (bad) exit 1; print "+ incident grades within bounds" }
