#!/usr/bin/env bash
# Paired benchmark runs of two checkouts of this repository.
#
#   scripts/bench_pairs.sh WORKLOAD PARENT_DIR CHANGE_DIR SEED [SEED ...]
#
# For each seed, runs `python3 perfbench/run.py --workload WORKLOAD --seed
# SEED --seconds S --trace 0` once in each checkout, S being `run_seconds`
# from the change's BENCHMARK.json.  Pairs alternate which side runs first
# (parent first on the 1st, 3rd, ... seed).  Prints each run's gated
# metrics, then per metric each side's median and quartiles, the change's
# wins (ties count for neither side), and whether the median gap exceeds
# the parent's interquartile range: `better` or `worse` for the change
# when it does, in either direction, `no` when it is within it.  Last,
# per seed, whether the two sides' per-cell results (cell_best_db and
# cell_tail_db) are identical, and if not, how many differ and by how
# much.  Before the tables, each side's line count of src/uavris/*.py.
# Each run's output and full result JSON are kept in the directory named
# on the first line.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workload=$1
parent=$(cd "$2" && pwd)
change=$(cd "$3" && pwd)
shift 3
for dir in "$parent" "$change"; do
    if [ ! -f "$dir/perfbench/run.py" ]; then
        echo "bench_pairs: no perfbench/run.py in $dir" >&2
        exit 2
    fi
done
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$change/BENCHMARK.json")
out=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
echo "bench_pairs: $workload, ${seconds} s runs, logs in $out"

run_side() {  # side seed
    local side=$1 seed=$2 dir
    dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
    (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) > "$out/${side}_${seed}.log" 2>&1
    cp "$dir/perfbench/out/result_${workload}_trace0.json" "$out/${side}_${seed}.json"
    echo "  seed $seed $side done"
}

pair=0
for seed in "$@"; do
    if [ $((pair % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run_side "$side" "$seed"
    done
    pair=$((pair + 1))
done

echo
for side in parent change; do
    dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
    echo "$side: $(cat "$dir"/src/uavris/*.py | wc -l) lines in src/uavris/*.py"
done

python3 - "$out" "$change/BENCHMARK.json" "$@" <<'EOF'
import json
import sys

import numpy as np

out, bench, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
gated = {m["name"]: m for m in json.load(open(bench))["end_to_end"]}


def last_json(path):
    with open(path) as fh:
        return json.loads(fh.read().strip().splitlines()[-1])


runs = {side: [last_json(f"{out}/{side}_{s}.log") for s in seeds] for side in ("parent", "change")}
for side, results in runs.items():
    bad = [s for s, r in zip(seeds, results) if not r["correct"] or r["failed"]]
    if bad:
        print(f"{side}: failed checks on seeds {' '.join(bad)}")

print(f"\n{'seed':>6s} {'side':6s} " + " ".join(f"{n:>14s}" for n in gated))
for i, seed in enumerate(seeds):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in order:
        values = runs[side][i]["metrics"]
        print(f"{seed:>6s} {side:6s} " + " ".join(f"{values[n]['value']:14.6g}" for n in gated))

print(f"\n{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
      f" {'wins':>6s} {'gap > parent IQR':>17s}")
for name, spec in gated.items():
    p = np.array([r["metrics"][name]["value"] for r in runs["parent"]])
    c = np.array([r["metrics"][name]["value"] for r in runs["change"]])
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = int(np.sum(sign * (p - c) > 0))
    pq, cq = np.quantile(p, [0.25, 0.5, 0.75]), np.quantile(c, [0.25, 0.5, 0.75])
    gap = sign * (pq[1] - cq[1])  # > 0 when the change's median is better
    resolved = "no" if abs(gap) <= pq[2] - pq[0] else "better" if gap > 0 else "worse"
    print(f"{name:16s} {pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
          f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] {wins:3d}/{len(seeds):<2d} "
          f"{resolved:>17s}")

print("\nper-cell results, change against parent")
for seed in seeds:
    full = {side: json.load(open(f"{out}/{side}_{seed}.json")) for side in runs}
    for key in ("cell_best_db", "cell_tail_db"):
        p, c = (np.array(full[side][key], dtype=float) for side in ("parent", "change"))
        if p.shape != c.shape:
            verdict = f"different cell counts ({p.size} and {c.size})"
        elif np.array_equal(p, c, equal_nan=True):
            verdict = "identical"
        else:
            diff = np.abs(p - c)
            differ = ~((p == c) | (np.isnan(p) & np.isnan(c)))
            verdict = (f"{int(differ.sum())} of {p.size} differ, "
                       f"max |diff| {np.nanmax(diff[differ]):.3g} dB")
        print(f"{seed:>6s} {key:13s} {verdict}")
EOF
