#!/usr/bin/env bash
# Run the committed mutant list against the tests that must catch it.
#
# Each `goldens/mutants/*.patch` is one plausible engine bug. Its header
# says what the bug is (`# Mutant:` lines) and names the property and unit
# tests that must catch it besides the goldens (`# Test:` lines, each the
# arguments of one `cargo test --release` run). For every patch this script
# resets one scratch git worktree of HEAD under WORK, applies the patch,
# and runs the root `goldens` test and the named tests, all in release.
# It prints, per mutant, the manifest lines that caught it (from the
# goldens' failure message) and the named tests that failed.
#
# It fails when:
#   - a patch no longer applies (refresh it; never skip it);
#   - a test named on a patch's `# Test:` line passes under that patch,
#     so the header claims a kill that does not happen (a filter that
#     matches no test passes too);
#   - a mutant survives, every test passing, and `goldens/mutants/
#     EQUIVALENT.md` has no `## <name>` section arguing why it can move no
#     output;
#   - EQUIVALENT.md argues a mutant that the goldens do catch.
#
# Usage:
#   scripts/mutants.sh [--work DIR] [NAME...]
#
# NAMEs pick patches by basename (default: all). One worktree and one
# target directory serve every patch, so each run rebuilds only the crates
# the patch touches and their dependents (a few minutes for the list on
# two cores). Run it from a clone, not from a working copy you are
# editing: it registers and removes a worktree in that repository.
set -euo pipefail

work="${TMPDIR:-/tmp}/mutants"
names=()
while [ $# -gt 0 ]; do
    case "$1" in
        --work) work=$2; shift 2 ;;
        -*) echo "usage: $0 [--work DIR] [NAME...]" >&2; exit 2 ;;
        *) names+=("$1"); shift ;;
    esac
done

repo=$(git rev-parse --show-toplevel)
dir="$repo/goldens/mutants"
if [ ${#names[@]} -eq 0 ]; then
    for p in "$dir"/*.patch; do
        names+=("$(basename "$p" .patch)")
    done
fi

tree="$work/tree"
mkdir -p "$work"
cleanup() {
    git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true
    git -C "$repo" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$repo" worktree add --detach "$tree" HEAD >/dev/null
export CARGO_TARGET_DIR="$work/target"

failed=0
for name in "${names[@]}"; do
    patch="$dir/$name.patch"
    git -C "$tree" checkout -q -- .
    if [ ! -f "$patch" ] || ! git -C "$tree" apply "$patch"; then
        echo "$name: FAIL, the patch does not apply"
        failed=1
        continue
    fi
    caught=()
    log="$work/$name.goldens.log"
    if ! (cd "$tree" && cargo test -q --release --test goldens >"$log" 2>&1); then
        lines=$(grep -oE '^[a-z0-9-]+ (report|jsonl|ledger) [0-9a-f]{16}, pinned [0-9a-f]{16}|[a-z0-9-]+: untraced and sampled reports differ' "$log" \
            | sort -u | sed '2,$s/^/    /' || true)
        caught+=("goldens: ${lines:-a run failed (see $log)}")
    fi
    golden=${#caught[@]}
    passed=()
    i=0
    while IFS= read -r args; do
        i=$((i + 1))
        # shellcheck disable=SC2086 # the header holds cargo arguments
        if ! (cd "$tree" && cargo test -q --release $args >"$work/$name.test$i.log" 2>&1); then
            caught+=("test: $args")
        else
            passed+=("$args")
        fi
    done < <(sed -n 's/^# Test: //p' "$patch")
    for args in "${passed[@]}"; do
        echo "$name: FAIL, its header names a test that passes under it: $args"
        failed=1
    done
    listed=0
    if grep -qx "## $name" "$dir/EQUIVALENT.md"; then
        listed=1
    fi
    if [ ${#caught[@]} -eq 0 ]; then
        if [ $listed -eq 1 ]; then
            echo "$name: survived, argued in EQUIVALENT.md"
        else
            echo "$name: FAIL, survived every test and EQUIVALENT.md does not argue it"
            failed=1
        fi
        continue
    fi
    if [ "$golden" -gt 0 ] && [ $listed -eq 1 ]; then
        echo "$name: FAIL, EQUIVALENT.md argues it, but the goldens catch it"
        failed=1
    else
        echo "$name: killed"
    fi
    for c in "${caught[@]}"; do
        echo "  $c"
    done
done
exit $failed
