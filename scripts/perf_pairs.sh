#!/usr/bin/env bash
# Paired benchmark comparison of a commit against the working tree:
#
#   bash scripts/perf_pairs.sh REV WORKLOADS [PAIRS [SEED]]
#   make perf-pairs REV=HEAD WORKLOAD=coll PAIRS=10 SEED=0
#
# WORKLOADS is one workload, a comma-separated list (gather,paper) or
# `all` (every workload BENCHMARK.json declares, in its order).
#
# Exports REV (`git archive`) into a temporary directory and builds the
# benchmark there and in the working tree. Then, for each workload in
# turn, it runs
# `sh perfbench/run.sh --workload WORKLOAD --seed SEED --trace 0` on both
# sides PAIRS times (default 10; SEED defaults to 0), alternating which
# side runs first, and prints that workload's table.
#
# For every end-to-end metric it prints each side's median and quartiles,
# the change in the median, and how many pairs the working tree won (ties
# count for neither). A metric is a GAIN when the tree wins at least nine
# tenths of the pairs and the medians differ by more than REV's
# interquartile range; it is WORSE when the tree's median is worse than
# REV's by more than the metric's bound in BENCHMARK.json. After the table
# it lists every run's value, per metric and side, in the order run. Run it
# from the root of the checkout; it edits nothing in the checkout.
set -euo pipefail

usage() {
  echo "usage: bash scripts/perf_pairs.sh REV WORKLOAD[,WORKLOAD...]|all [PAIRS [SEED]]" >&2
  exit 2
}
[ $# -ge 2 ] && [ $# -le 4 ] || usage
rev=$1 workloads=$2 pairs=${3:-10} seed=${4:-0}
case $pairs in '' | *[!0-9]* | 0 | 1) usage ;; esac
case $seed in '' | *[!0-9]*) usage ;; esac
if [ ! -f dune-project ] || [ ! -f perfbench/run.sh ] || [ ! -f BENCHMARK.json ]; then
  echo "perf_pairs: run from the root of a portals_repro checkout" >&2
  exit 2
fi
declared=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
if [ "$workloads" = all ]; then
  workloads=$declared
else
  workloads=${workloads//,/ }
  for w in $workloads; do
    case " $declared " in *" $w "*) ;; *)
      echo "perf_pairs: unknown workload $w (declared: $declared)" >&2
      exit 2 ;;
    esac
  done
fi
[ -n "${workloads// /}" ] || usage

tree=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$tmp/rev"

# Build both sides up front, so no measured run follows a compile.
for dir in "$tmp/rev" "$tree"; do
  (cd "$dir" && DUNE_CACHE=disabled dune build --root . ./perfbench/suite.exe)
done

run() { # side dir workload
  (cd "$2" && sh perfbench/run.sh --workload "$3" --seed "$seed" \
    --trace 0 | tail -n 1) >>"$tmp/$3.$1.jsonl"
}

table() { # workload
python3 - "$tmp/$1.rev.jsonl" "$tmp/$1.tree.jsonl" "$rev" "$1" "$seed" <<'EOF'
import json
import statistics
import sys

rev_file, tree_file, rev, workload, seed = sys.argv[1:]
load = lambda f: [json.loads(line) for line in open(f)]
runs = {"rev": load(rev_file), "tree": load(tree_file)}
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

for side, rs in runs.items():
    bad = sum(1 for r in rs if not r["correct"] or r["failed"])
    if bad:
        print(f"warning: {bad} incorrect {side} run(s)")

print(f"{workload}: {rev} (rev) against the working tree (tree), "
      f"{len(runs['rev'])} pairs, seed {seed}")
print(f"{'metric':14} {'rev median [q1, q3]':32} {'tree median [q1, q3]':32} "
      f"{'change':>8} {'wins':>6}  verdict")
for name, m in spec.items():
    a = [r["metrics"][name]["value"] for r in runs["rev"]]
    b = [r["metrics"][name]["value"] for r in runs["tree"]]
    lower = m["better"] == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma if ma else 0.0
    worse = change if lower else -change
    if wins * 10 >= 9 * len(a) and -worse > 0 and abs(mb - ma) > qa[2] - qa[0]:
        verdict = "GAIN"
    elif worse > m["bound"]:
        verdict = f"WORSE (bound {m['bound']:+.0%})"
    else:
        verdict = "within bound"
    cell = lambda med, q: f"{med:.4g} [{q[0]:.4g}, {q[2]:.4g}] {m['unit']}"
    print(f"{name:14} {cell(ma, qa):32} {cell(mb, qb):32} "
          f"{change:+8.2%} {wins:>3}/{len(a):<2}  {verdict}")

print("every run, in the order run (pair i is column i):")
for name, m in spec.items():
    for side, rs in runs.items():
        vals = " ".join(f"{r['metrics'][name]['value']:.4g}" for r in rs)
        print(f"{name:14} {side:4} {vals} {m['unit']}")
EOF
}

first=1
for workload in $workloads; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run rev "$tmp/rev" "$workload"; run tree "$tree" "$workload"
    else
      run tree "$tree" "$workload"; run rev "$tmp/rev" "$workload"
    fi
    echo "$workload: pair $i/$pairs done" >&2
  done
  [ $first -eq 1 ] || echo
  first=0
  table "$workload"
done
