#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark (BENCHMARK.json).
#
#   scripts/bench_pairs.sh <parent-ref> [--pairs 10] [--workloads a,b,...] [--out DIR]
#                          [--seconds N] [--first-seed 11] [--traced-seed N]
#                          [--record FILE [--pr N]]
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
#
# --traced-seed N runs no pairs: each side runs once per workload with
# --trace 1 on seed N, and the script prints, per workload, the parent's and
# the change's value of every BENCHMARK.json per-layer metric whose unit is
# `count` or `bytes` — the deterministic counters a small claim rests on —
# marking each that differs with `*`. It exits 1 if a traced run fails.
#
# --record FILE appends one record of the pairs just run to the JSON
# trajectory FILE (created if missing; BENCH_TRAJECTORY.json at the root is
# the committed one): per workload x end-to-end metric both medians and
# quartiles and the wins out of the decided pairs, per workload and seed
# whether page_accesses_per_op was identical, the seeds and run seconds,
# the parent commit, the command (less --out DIR), and the change's PR
# number — --pr N, or one more than the file's last record's.
set -euo pipefail

usage() {
    sed -n '2,41p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

[ $# -ge 1 ] || usage
# The command a record names: every argument but where the logs went.
command=scripts/bench_pairs.sh
skip=0
for arg in "$@"; do
    if [ "$skip" -eq 1 ]; then skip=0; elif [ "$arg" = --out ]; then skip=1; else command+=" $arg"; fi
done
parent_ref=$1
shift
pairs=10
workloads=
out=
seconds=
first_seed=11
traced_seed=
record=
pr=
while [ $# -gt 1 ]; do
    case $1 in
    --pairs) pairs=$2 ;;
    --workloads) workloads=$2 ;;
    --out) out=$2 ;;
    --seconds) seconds=$2 ;;
    --first-seed) first_seed=$2 ;;
    --traced-seed) traced_seed=$2 ;;
    --record) record=$2 ;;
    --pr) pr=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ $# -eq 0 ] || usage
[ -z "$pr" ] || [ -n "$record" ] || usage
[ -z "$record" ] || [ -z "$traced_seed" ] || usage

if [ -n "$record" ]; then
    case $record in /*) ;; *) record=$PWD/$record ;; esac
fi
repo=$(git rev-parse --show-toplevel)
cd "$repo"
parent_commit=$(git rev-parse --verify "$parent_ref^{commit}")
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

if [ -n "$traced_seed" ]; then
    status=0
    for workload in ${workloads//,/ }; do
        for side in parent change; do
            echo "$workload: traced $side (seed $traced_seed)" >&2
            "$work/$side-target/release/cij_benchmark" --workload "$workload" \
                --seed "$traced_seed" --seconds "$seconds" --trace 1 |
                tail -n 1 >"$logs/$workload.$side.traced.json" || status=1
        done
    done
    python3 - "$logs" "$workloads" "$traced_seed" <<'EOF' || status=1
import json, sys

logs, workloads, seed = sys.argv[1], sys.argv[2].split(","), sys.argv[3]
units = {m["name"]: m["unit"] for m in json.load(open("BENCHMARK.json"))["per_layer"]}
counters = [name for name, unit in units.items() if unit in ("count", "bytes")]
print(f"traced runs on seed {seed}; * marks a counter that differs")
print(f"{'workload':<14} {'metric':<36} {'parent':>14} {'change':>14}")
failed = False
for workload in workloads:
    runs = []
    for side in ("parent", "change"):
        try:
            runs.append(json.load(open(f"{logs}/{workload}.{side}.traced.json"))["metrics"])
        except (ValueError, KeyError):
            runs.append(None)
    if None in runs:
        print(f"{workload:<14} a traced run printed no result")
        failed = True
        continue
    for name in counters:
        values = [run.get(name, {}).get("value") for run in runs]
        if values == [None, None]:
            continue
        mark = "" if values[0] == values[1] else " *"
        shown = [f"{'-' if v is None else f'{v:.12g}':>14}" for v in values]
        print(f"{workload:<14} {name:<36} {shown[0]} {shown[1]}{mark}")
sys.exit(1 if failed else 0)
EOF
    exit $status
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

python3 - "$logs" "$workloads" "$pairs" "$seconds" "$first_seed" "$record" "$pr" \
    "$parent_commit" "$command" <<'EOF'
import json, os, statistics, sys

logs, workloads = sys.argv[1], sys.argv[2].split(",")
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
pairs, first = int(sys.argv[3]), int(sys.argv[5])
record_path, pr, parent_commit, command = sys.argv[6:10]
print(f"{pairs} pairs per workload (seeds {first}-{first + pairs - 1}), {sys.argv[4]} s per run")
record = {
    "pr": None,
    "parent": parent_commit,
    "command": command,
    "pairs": pairs,
    "seeds": list(range(first, first + pairs)),
    "run_seconds": float(sys.argv[4]),
    "workloads": {},
}

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
    entry = record["workloads"][workload] = {
        "failed": [int(n) for n in failed.split("/")],
        "page_accesses_identical": {seed: pv == cv for seed, pv, cv in counts},
        "metrics": {},
    }
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
        quartiles = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        (q1, _, q3), (cq1, _, cq3) = quartiles(p), quartiles(c)
        pm, cm = statistics.median(p), statistics.median(c)
        entry["metrics"][metric] = {
            "parent": {"p50": pm, "q1": q1, "q3": q3},
            "change": {"p50": cm, "q1": cq1, "q3": cq3},
            "wins": wins,
            "decided": len(p) - ties,
        }
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"{workload:<14} {metric:<21} {pm:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{cm:>11.5g} {delta:>8}  {wins}/{len(p) - ties}  {failed}")
print()
print("\n".join(accesses))
if record_path:
    trajectory = {"records": []}
    if os.path.exists(record_path):
        trajectory = json.load(open(record_path))
    last = trajectory["records"][-1]["pr"] if trajectory["records"] else None
    if pr:
        record["pr"] = int(pr)
    elif last is not None:
        record["pr"] = last + 1
    else:
        sys.exit(f"--record {record_path}: the file has no record to count on; pass --pr N")
    trajectory["records"].append(record)
    with open(record_path, "w") as out:
        json.dump(trajectory, out, indent=2)
        out.write("\n")
    print(f"recorded PR {record['pr']} in {record_path}")
sys.exit(1 if any_failed else 0)
EOF
