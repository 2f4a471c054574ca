#!/usr/bin/env bash
# Compares one perfbench workload between a parent revision and the
# working tree, in alternating pairs.
#
#   tools/perf_pairs.sh <parent-rev> <workload> [pairs]
#
# Builds perfbench (Release) twice under .bench_build/pairs/: once
# from the committed files of <parent-rev> (exported with git
# archive) and once from this checkout. Then runs <pairs> (default
# 10) alternating parent/change pairs with seed 3, 25 s and
# --trace 0, and prints per metric the two medians, the parent's
# interquartile range and how many pairs the change won. Exits 1 if
# any simulated metric differs between any two runs, if a run fails
# its correctness checks, or if a build fails.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 <parent-rev> <workload> [pairs]" >&2
    exit 2
fi
REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"

ROOT="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
OUT="$ROOT/.bench_build/pairs"
PARENT_SRC="$OUT/parent-src"
JOBS="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

rm -rf "$PARENT_SRC" "$OUT/runs"
mkdir -p "$PARENT_SRC" "$OUT/runs"
git -C "$ROOT" archive "$REV" | tar -x -C "$PARENT_SRC"

build() { # <source root> <build dir>
    cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=Release >&2
    cmake --build "$2" -j "$JOBS" --target perfbench >&2
}
build "$PARENT_SRC" "$OUT/parent"
build "$ROOT" "$OUT/change"

run() { # <side> <source root> <pair index>
    # Same environment as perfbench/run.py: no plan-cache disk spill.
    (cd "$2" && env -u MSCCLANG_PLAN_CACHE_DIR "$OUT/$1/perfbench" \
        --workload "$WORKLOAD" --seed 3 --seconds 25 --trace 0) \
        | tail -n 1 >"$OUT/runs/$1-$3.json"
}
for ((i = 1; i <= PAIRS; i++)); do
    run parent "$PARENT_SRC" "$i"
    run change "$ROOT" "$i"
    echo "pair $i/$PAIRS done" >&2
done

python3 - "$OUT/runs" "$PAIRS" "$ROOT/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs_dir, pairs, spec_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
SIMULATED = ["collective_us_geomean", "fleet_p50_us", "fleet_p99_us",
             "availability", "goodput_gbps"]
with open(spec_path) as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

def load(side, i):
    with open(f"{runs_dir}/{side}-{i}.json") as f:
        return json.loads(f.read())

parent = [load("parent", i) for i in range(1, pairs + 1)]
change = [load("change", i) for i in range(1, pairs + 1)]
bad = False

for side, runs in (("parent", parent), ("change", change)):
    for i, r in enumerate(runs, 1):
        if not r.get("correct", False):
            print(f"FAIL: {side} run {i} failed its correctness checks")
            bad = True
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{side}: {failed} of {attempted} operations failed")

print(f"{'metric':<24}{'parent':>14}{'change':>14}{'delta':>9}"
      f"{'parent IQR':>14}{'wins':>8}")
for name in parent[0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    if name in SIMULATED and len(set(p + c)) != 1:
        print(f"FAIL: simulated metric {name} differs: "
              f"parent {sorted(set(p))} change {sorted(set(c))}")
        bad = True
    lower = better.get(name, "lower") == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    q = statistics.quantiles(p, n=4, method="inclusive") \
        if len(p) > 1 else [p[0]] * 3
    pm, cm = statistics.median(p), statistics.median(c)
    delta = (cm - pm) / pm * 100 if pm else 0.0
    print(f"{name:<24}{pm:>14.6g}{cm:>14.6g}{delta:>+8.1f}%"
          f"{q[2] - q[0]:>14.4g}{wins:>5}/{pairs}")
sys.exit(1 if bad else 0)
EOF
