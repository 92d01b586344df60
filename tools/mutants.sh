#!/usr/bin/env bash
# Recorded mutation checks: every mutant in a list must be killed by the
# tests it names.
#
#   tools/mutants.sh [LIST]      run LIST (default: tools/mutants.txt)
#   tools/mutants.sh --self-test show that a surviving or stale mutant
#                                fails the run and a killed one passes
#
# Each non-comment line of a list holds four TAB-separated fields:
#
#   file <TAB> original text <TAB> replacement <TAB> cargo test arguments
#
# The original text must occur exactly once in the file; no field may be
# empty (consecutive TABs collapse). The cargo test
# arguments select the package and the test filter, for example
# `-p cnfet-mna --lib engine::tests::nominal_steps_bound_the_run`.
#
# The script copies the working tree to a temporary directory once. For
# each mutant it first runs the filter on the clean copy, which must
# pass at least one test. It then applies the mutant, checks that it
# compiles, and runs the filter again, which must now fail. The file is
# restored before the next mutant. The run fails if any mutant survives,
# if its original text is missing or ambiguous, if the mutated tree does
# not compile, or if the filter passes no test on the clean tree.
#
# Each mutated test run is bounded at 120 s; a run that times out counts
# as killed.
#
# Environment: MUTANTS_TARGET_DIR names the cargo target directory
# (default: one inside the copy).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${1:-}" == "--self-test" ]]; then
    lists="$(mktemp -d)"
    trap 'rm -rf "$lists"' EXIT
    export MUTANTS_TARGET_DIR="${MUTANTS_TARGET_DIR:-$lists/target}"
    rng="crates/rng/src/lib.rs"
    tests="-p cnfet-rng --lib tests::unit_in_range_and_roughly_uniform"
    # One bit more of the raw output leaves [0, 1): the test kills it.
    printf '%s\t%s\t%s\t%s\n' "$rng" \
        '(self.next_u64() >> 11) as f64' '(self.next_u64() >> 10) as f64' \
        "$tests" >"$lists/killed.txt"
    # A comment edit changes no behaviour: no test can kill it.
    printf '%s\t%s\t%s\t%s\n' "$rng" \
        '// xorshift state must be nonzero' '// xorshift state must not be zero' \
        "$tests" >"$lists/survives.txt"
    printf '%s\t%s\t%s\t%s\n' "$rng" \
        'text that appears in no file' 'anything' \
        "$tests" >"$lists/stale.txt"
    "$0" "$lists/killed.txt" || {
        echo "self-test: a killed mutant failed the run" >&2
        exit 1
    }
    for case in "survives:mutant SURVIVED" "stale:original text not found"; do
        list="${case%%:*}"
        if out="$("$0" "$lists/$list.txt" 2>&1)"; then
            echo "self-test: the $list mutant passed the run" >&2
            exit 1
        fi
        if [[ "$out" != *"${case#*:}"* ]]; then
            printf '%s\n' "$out" >&2
            echo "self-test: the $list mutant failed for another reason" >&2
            exit 1
        fi
    done
    echo "self-test: ok (killed passes; surviving and stale fail)"
    exit 0
fi

list="$(cd "$(dirname "${1:-$root/tools/mutants.txt}")" && pwd)/$(basename "${1:-mutants.txt}")"
[[ -f "$list" ]] || { echo "no mutant list at $list" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# Fresh mtimes (`-m`): a reused target directory may hold a mutated
# build newer than the files' committed times, which cargo would keep.
(cd "$root" && git ls-files -z -co --exclude-standard | tar --null -T - -cf -) | tar -xmf - -C "$work"
export CARGO_TARGET_DIR="${MUTANTS_TARGET_DIR:-$work/target}"
timeout_s=120

checked=0
failures=()
fail() {
    failures+=("$1")
    echo "FAIL: $1"
}

# The list is read on fd 3, so no test can consume it from stdin.
while IFS=$'\t' read -r -u 3 file from to args || [[ -n "$file" ]]; do
    [[ -z "$file" || "$file" == \#* ]] && continue
    checked=$((checked + 1))
    entry="$file: \`$from\`"
    if [[ -z "$from" || -z "$args" ]]; then
        fail "$entry: malformed line (need four TAB-separated fields)"
        continue
    fi
    target="$work/$file"
    if [[ ! -f "$target" ]]; then
        fail "$entry: no such file"
        continue
    fi
    content="$(<"$target")"
    rest="${content#*"$from"}"
    if [[ "$rest" == "$content" ]]; then
        fail "$entry: original text not found (stale entry)"
        continue
    fi
    if [[ "$rest" == *"$from"* ]]; then
        fail "$entry: original text occurs more than once"
        continue
    fi
    read -r -a cargo_args <<<"$args"

    echo "== $entry -> \`$to\` ($args)"
    if ! clean="$(cd "$work" && cargo test -q "${cargo_args[@]}" 2>&1)"; then
        printf '%s\n' "$clean" | tail -20
        fail "$entry: the filter fails on the clean tree"
        continue
    fi
    if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<<"$clean"; then
        fail "$entry: the filter runs no test"
        continue
    fi

    cp "$target" "$target.orig"
    printf '%s\n' "${content/"$from"/"$to"}" >"$target"
    if ! build="$(cd "$work" && cargo test -q --no-run "${cargo_args[@]}" 2>&1)"; then
        printf '%s\n' "$build" | grep -E '^error' | head -5
        fail "$entry: the mutant does not compile"
    else
        set +e
        (cd "$work" && timeout "$timeout_s" cargo test -q "${cargo_args[@]}") >/dev/null 2>&1
        status=$?
        set -e
        case "$status" in
            0) fail "$entry: mutant SURVIVED" ;;
            124) echo "   killed (timed out after ${timeout_s}s)" ;;
            *) echo "   killed" ;;
        esac
    fi
    # A fresh mtime: cargo would otherwise keep the mutated build, which
    # is newer than the restored file's copy time.
    mv "$target.orig" "$target"
    touch "$target"
done 3<"$list"

echo "mutants: $checked checked, ${#failures[@]} failed"
if ((checked == 0)); then
    echo "no mutants listed in $list" >&2
    exit 1
fi
((${#failures[@]} == 0))
