#!/usr/bin/env bash
# The committed mutants (scripts/mutants/NN-<name>.diff): each is a small,
# deliberately wrong change the test suite must reject.
#
#   scripts/mutants.sh [--check]
#
# Every diff starts with `#` header lines. `# Mutant:` says what it breaks;
# then either `# Red: <command>` names the command (run from the repo root)
# that must fail with the mutant applied, or `# Equivalent: <argument>`
# marks a mutant no test can kill and says why.
#
# For each mutant, in file order: apply the diff with `git apply`, build
# every test target (a mutant that no longer compiles is a rotted mutant, not a
# kill), run the Red command, assert that it fails, and revert. Equivalent
# mutants are only applied and reverted. A trap reverts the applied mutant
# on interrupt. Refuses to start on a dirty tree, so `git status` is as clean
# afterwards as before; build outputs go to target/ as usual.
#
# --check only runs `git apply --check -v` on every diff (seconds): a change
# that rots a diff is caught without running anything. A diff whose hunk
# applies only at an offset from its recorded lines fails too, naming the
# hunk and the offset: re-make it on its current lines, since a drifted
# hunk whose context recurs can land on the wrong lines.
#
# Exits 1 if any mutant survives, fails to apply or fails to build; each
# failing command's output is kept in a log under $TMPDIR and named.
set -euo pipefail

usage() {
    sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
}

check=0
case ${1-} in
    "") ;;
    --check) check=1 ;;
    *) usage ;;
esac

cd "$(git rev-parse --show-toplevel)"
mutants=(scripts/mutants/*.diff)

header() { # header <diff> <key>: the value of the first `# <key>:` line
    sed -n "s/^# $2: *//p" "$1" | head -n 1
}

if [ $check -eq 1 ]; then
    status=0
    for diff in "${mutants[@]}"; do
        if [ -z "$(header "$diff" Red)$(header "$diff" Equivalent)" ]; then
            echo "$diff: no '# Red:' or '# Equivalent:' header" >&2
            status=1
        elif ! out=$(git apply --check -v "$diff" 2>&1); then
            echo "$out" >&2
            echo "$diff: no longer applies" >&2
            status=1
        elif offsets=$(sed -n 's/^Hunk #\([0-9]*\) succeeded at \([0-9]*\) (offset \(-\{0,1\}[0-9]*\) lines\{0,1\})\./hunk #\1 at offset \3 (line \2)/p' <<<"$out") &&
            [ -n "$offsets" ]; then
            echo "$diff: applies off its recorded lines: $(paste -sd, - <<<"$offsets" | sed 's/,/, /g')" >&2
            status=1
        fi
    done
    [ $status -eq 0 ] && echo "mutants.sh: all ${#mutants[@]} diffs apply at their recorded lines"
    exit $status
fi

if [ -n "$(git status --porcelain)" ]; then
    echo "mutants.sh: the working tree is dirty; commit or stash first" >&2
    exit 2
fi

logs=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
applied=
revert() {
    if [ -n "$applied" ]; then
        git apply -R "$applied" || git checkout -q -- .
        applied=
    fi
}
trap 'revert; exit 130' INT TERM
trap revert EXIT

failed=0
for diff in "${mutants[@]}"; do
    name=$(basename "$diff" .diff)
    log="$logs/$name.log"
    red=$(header "$diff" Red)
    if ! git apply "$diff"; then
        echo "$name: DOES NOT APPLY"
        failed=1
        continue
    fi
    applied=$diff
    if [ -z "$red" ]; then
        echo "$name: equivalent ($(header "$diff" Equivalent | cut -c1-60)...)"
    elif ! cargo build -q --workspace --tests --locked >"$log" 2>&1; then
        echo "$name: DOES NOT BUILD (log: $log)"
        failed=1
    elif bash -c "$red" >>"$log" 2>&1; then
        echo "$name: SURVIVED \`$red\` (log: $log)"
        failed=1
    else
        echo "$name: killed by \`$red\`"
    fi
    revert
done
if [ $failed -eq 0 ]; then
    rm -rf "$logs"
    echo "mutants.sh: every mutant killed or argued equivalent"
fi
exit $failed
