#!/usr/bin/env bash
# Runs every workload N times (default 6), alternating workloads, splits
# each workload's runs into two interleaved sets (odd and even), and
# prints both medians and their relative difference per end-to-end
# metric against its bound. Exits non-zero when any difference exceeds
# its bound: such a metric is demoted to the per-layer list, as every
# rate and latency has been, not given a wider bound (README.md,
# "Bounds").
#
#   bench/selfcheck.sh [N] [seconds]
set -euo pipefail
n="${1:-6}"
seconds="${2:-}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/bench/out/selfcheck"
rm -rf "$out" && mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for i in $(seq 1 "$n"); do
  for w in $workloads; do
    echo "run $i/$n $w" >&2
    bash bench/run.sh --workload "$w" --seed "$i" ${seconds:+--seconds "$seconds"} --trace 0 | tail -n 1 > "$out/$w.$i.json"
  done
done
python3 - "$out" "$n" <<'PY'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bad = 0
for w in (w["name"] for w in spec["workloads"]):
    runs = [json.load(open(f"{out}/{w}.{i}.json")) for i in range(1, n + 1)]
    for r in runs:
        if not r["correct"] or r["failed"]:
            print(f"{w}: a run was incorrect or had failed operations"); bad += 1
    print(f"\n{w}")
    print(f"  {'metric':28} {'set A':>14} {'set B':>14} {'diff':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        a, b = statistics.median(vals[0::2]), statistics.median(vals[1::2])
        diff = abs(a - b) / min(a, b)
        flag = "" if diff <= m["bound"] else "  EXCEEDS"
        bad += bool(flag)
        print(f"  {m['name']:28} {a:14.4f} {b:14.4f} {diff:8.3f} {m['bound']:6.2f}{flag}")
sys.exit(1 if bad else 0)
PY
