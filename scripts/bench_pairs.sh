#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark (BENCHMARK.json).
#
#   scripts/bench_pairs.sh <parent-ref> [--pairs 10] [--workloads a,b,...] [--out DIR]
#                          [--seconds N] [--first-seed 11]
#
# `git archive`s <parent-ref> into a temporary directory (under $TMPDIR),
# builds its cij_benchmark and the working tree's with separate
# CARGO_TARGET_DIRs, then runs both executables on seeds 11, 12, ... — one
# pair per seed, the side that goes first flipping each pair — and prints,
# per workload x end-to-end metric, both medians, the parent's quartiles and
# how many pairs the change won (ties count for neither side). Workloads,
# metrics, their better-direction and the run length come from BENCHMARK.json;
# --seconds N overrides its run_seconds (short exploratory pairs), and the
# report header names the run length used. --first-seed N starts the seeds
# at N instead of 11: a claim should also hold on seeds nobody looked at
# while the change was written.
# After the table it says, per workload, on how many seeds
# page_accesses_per_op was identical — the line a decision-preserving claim
# rests on — or lists the seeds that differ with both values.
#
# A run that exits non-zero (a wrong output, a crash) does not stop the
# script: its status is recorded, its pair is left out of the medians, the
# `failed p/c` column counts it and the script exits 1 after the report.
# --out DIR keeps every run's result line (<workload>.<side>.jsonl, beside a
# .status file of `seed exit-status` lines) instead of deleting them.
set -euo pipefail

usage() {
    sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref=$1
shift
pairs=10
workloads=
out=
seconds=
first_seed=11
while [ $# -gt 1 ]; do
    case $1 in
    --pairs) pairs=$2 ;;
    --workloads) workloads=$2 ;;
    --out) out=$2 ;;
    --seconds) seconds=$2 ;;
    --first-seed) first_seed=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ $# -eq 0 ] || usage

repo=$(git rev-parse --show-toplevel)
cd "$repo"
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
logs=$work
if [ -n "$out" ]; then
    mkdir -p "$out"
    logs=$(cd "$out" && pwd)
    rm -f "$logs"/*.jsonl "$logs"/*.status
fi

mkdir "$work/parent"
git archive "$parent_ref" | tar -x -C "$work/parent"
build() { # <checkout> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path cij_benchmark/Cargo.toml)
}
echo "building $parent_ref and the working tree ..." >&2
build "$work/parent" "$work/parent-target"
build "$repo" "$work/change-target"

if [ -z "$seconds" ]; then
    seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
if [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

run() { # <side> <workload> <seed>: appends the run's result line and exit status to its logs
    local printed status=0
    printed=$("$work/$1-target/release/cij_benchmark" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0) || status=$?
    [ "$status" -eq 0 ] || echo "$2: $1 exited $status on seed $3" >&2
    # One line per run whatever happened, so the two sides stay aligned.
    printf '%s\n' "$printed" | tail -n 1 >>"$logs/$2.$1.jsonl"
    echo "$3 $status" >>"$logs/$2.$1.status"
}
for workload in ${workloads//,/ }; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        echo "$workload: pair $((i + 1))/$pairs (seed $seed)" >&2
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$workload" "$seed"; done
    done
done

python3 - "$logs" "$workloads" "$pairs" "$seconds" "$first_seed" <<'EOF'
import json, statistics, sys

logs, workloads = sys.argv[1], sys.argv[2].split(",")
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
pairs, first = int(sys.argv[3]), int(sys.argv[5])
print(f"{pairs} pairs per workload (seeds {first}-{first + pairs - 1}), {sys.argv[4]} s per run")

def load(workload, side):
    """One (seed, result) per run; the result is None when the run exited
    non-zero, printed no result line, failed an op or got an output wrong."""
    runs = []
    for line, status in zip(open(f"{logs}/{workload}.{side}.jsonl"),
                            open(f"{logs}/{workload}.{side}.status")):
        seed, code = status.split()
        try:
            result = json.loads(line)
            ok = code == "0" and not result["failed"] and result["correct"]
        except (ValueError, KeyError, TypeError):
            ok = False
        runs.append((seed, result if ok else None))
    return runs

print(f"{'workload':<14} {'metric':<21} {'parent p50':>11} {'[q1':>11} {'q3]':>11} "
      f"{'change p50':>11} {'delta':>8}  wins  failed p/c")
any_failed = False
accesses = []
for workload in workloads:
    parent, change = load(workload, "parent"), load(workload, "change")
    failed = "/".join(str(sum(r is None for _, r in runs)) for runs in (parent, change))
    any_failed |= failed != "0/0"
    # Only pairs of which both runs succeeded are compared.
    good = [(seed, p, c) for (seed, p), (_, c) in zip(parent, change) if p and c]
    if not good:
        print(f"{workload:<14} no pair of successful runs {'':>51}  {failed}")
        continue
    counts = [(seed, *(r["metrics"]["page_accesses_per_op"]["value"] for r in (p, c)))
              for seed, p, c in good]
    differing = [f"seed {seed}: {pv:g} -> {cv:g}" for seed, pv, cv in counts if pv != cv]
    accesses.append(f"{workload}: page_accesses_per_op " + (
        f"differs on {len(differing)}/{len(counts)} seeds ({'; '.join(differing)})"
        if differing else f"identical on {len(counts)}/{len(counts)} seeds"))
    good = [(p, c) for _, p, c in good]
    for metric, direction in better.items():
        p = [r["metrics"][metric]["value"] for r, _ in good]
        c = [r["metrics"][metric]["value"] for _, r in good]
        sign = -1 if direction == "lower" else 1
        wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        ties = sum(cv == pv for pv, cv in zip(p, c))
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0], p[0], p[0])
        pm, cm = statistics.median(p), statistics.median(c)
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"{workload:<14} {metric:<21} {pm:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{cm:>11.5g} {delta:>8}  {wins}/{len(p) - ties}  {failed}")
print()
print("\n".join(accesses))
sys.exit(1 if any_failed else 0)
EOF
