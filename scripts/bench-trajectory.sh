#!/usr/bin/env bash
# Back-fill the fleet benchmark's trajectory across commits.
#
# Checks out every code commit from FROM (default f933f89, the commit that
# added fleetbench) through TO (default HEAD) in its own detached git
# worktree under WORK, builds that commit's own fleetbench, and runs the
# three workloads once on each at BENCHMARK.json's run length (28 s). A
# commit whose changes all lie outside `crates/`, `src/`, `fleetbench/` and
# the Cargo manifests (a ROADMAP re-anchor) is skipped: it builds the same
# engine as its parent. Runs alternate between commits: each workload runs
# on every commit before the next workload starts, so a slow stretch of a
# shared host lands on all commits alike rather than on one.
#
# Writes OUT (default BENCH_fleet.json): the host fingerprint fleetbench
# prints (nproc, CPU model), the run settings, and for each commit, in
# history order, its sha, subject, engine-source digest and, per workload,
# the run's `correct` flag and the five end-to-end metrics of
# BENCHMARK.json. A commit OUT already holds keeps its point and is not
# run again, so extending the trajectory by one commit costs one commit's
# runs. (Points measured by different invocations of this script share
# no slow stretch of the host; compare them with `experiments bench-diff`
# and read a gap inside fleetbench's 16-27 % invocation spread as noise.)
#
# Usage:
#   scripts/bench-trajectory.sh [--from REV] [--to REV] [--work DIR] [--out FILE]
#
# Each run takes about 35 s per workload and commit (17 commits: about 30
# minutes, plus one release build per commit). Worktrees are removed on
# exit; raw per-run JSON stays in WORK/runs.
set -euo pipefail

from=f933f89
to=HEAD
seconds=28
work="${TMPDIR:-/tmp}/bench-trajectory"
out=BENCH_fleet.json
workloads=(city-10k churn-1k room-long)

while [ $# -gt 0 ]; do
    case "$1" in
        --from) from=$2; shift 2 ;;
        --to) to=$2; shift 2 ;;
        --work) work=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "usage: $0 [--from REV] [--to REV] [--work DIR] [--out FILE]" >&2
           exit 2 ;;
    esac
done

repo=$(git rev-parse --show-toplevel)
cd "$repo"
mkdir -p "$work/runs"

# Code commits, oldest first: FROM itself, then first-parent history to TO.
commits=()
for c in $(git rev-parse --short "$from") \
    $(git rev-list --reverse --first-parent --abbrev-commit "$from..$to"); do
    if git diff-tree --no-commit-id --name-only -r --root "$c" \
        | grep -qE '^(crates/|src/|fleetbench/|Cargo\.(toml|lock)$)'; then
        commits+=("$(git rev-parse --short "$c")")
    fi
done
# Drop the commits OUT already holds a point for.
if [ -f "$out" ]; then
    held=$(python3 -c 'import json, sys; print(" ".join(p["sha"] for p in json.load(open(sys.argv[1]))["commits"]))' "$out")
    missing=()
    for c in "${commits[@]}"; do
        case " $held " in
            *" $(git rev-parse "$c") "*) ;;
            *) missing+=("$c") ;;
        esac
    done
    commits=("${missing[@]+"${missing[@]}"}")
fi
echo "bench-trajectory: ${#commits[@]} commits to run: ${commits[*]-}" >&2
if [ ${#commits[@]} -eq 0 ]; then
    exit 0
fi

cleanup() {
    for c in "${commits[@]}"; do
        git worktree remove --force "$work/$c" 2>/dev/null || true
    done
    git worktree prune
}
trap cleanup EXIT

for c in "${commits[@]}"; do
    if [ ! -d "$work/$c" ]; then
        git worktree add --detach "$work/$c" "$c" >/dev/null
    fi
    echo "bench-trajectory: building $c" >&2
    cargo build -q --release --manifest-path "$work/$c/fleetbench/Cargo.toml" \
        --target-dir "$work/$c/fleetbench/target"
done

for w in "${workloads[@]}"; do
    for c in "${commits[@]}"; do
        echo "bench-trajectory: $w, $c" >&2
        (cd "$work/$c" && ./fleetbench/target/release/fleetbench \
            --workload "$w" --seconds "$seconds" --trace 0 2>/dev/null) > "$work/runs/$c-$w.txt" || true
    done
done

python3 - "$work/runs" "$out" "$seconds" "$from" "$to" "${commits[@]}" <<'PY'
import json, os, subprocess, sys

runs, out, seconds, base, to = sys.argv[1:6]
commits = sys.argv[6:]
workloads = ["city-10k", "churn-1k", "room-long"]
metrics = ["setup_s", "cold_run_ref", "run_ref", "peak_rss_mib", "ops_ok_ratio"]

def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()

def read(c, w):
    """The fingerprint (first JSON line) and result (last line) of a run."""
    try:
        lines = [l for l in open(f"{runs}/{c}-{w}.txt") if l.startswith("{")]
        return json.loads(lines[0]), json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None, None

host, points = None, []
for c in commits:
    point = {"sha": git("rev-parse", c), "subject": git("log", "-1", "--format=%s", c),
             "engine_digest": None, "workloads": {}}
    for w in workloads:
        fp, res = read(c, w)
        if res is None:
            point["workloads"][w] = {"correct": False, "metrics": {}}
            continue
        host = host or {"nproc": fp["nproc"], "cpu_model": fp["cpu_model"]}
        point["engine_digest"] = fp.get("source_fnv")
        point["workloads"][w] = {
            "correct": bool(res["correct"]),
            "metrics": {m: res["metrics"][m]["value"] for m in metrics if m in res["metrics"]},
        }
    points.append(point)

# Keep the points OUT already holds; the new ones go in history order.
held = json.load(open(out)) if os.path.exists(out) else {"host": None, "commits": []}
if held["host"] and host and held["host"] != host:
    print(f"bench-trajectory: warning: host {host} differs from {out}'s {held['host']}",
          file=sys.stderr)
order = {sha: i for i, sha in enumerate(
    git("rev-list", "--reverse", "--first-parent", to).split())}
points = sorted(held["commits"] + points, key=lambda p: order.get(p["sha"], -1))
doc = {
    "host": held["host"] or host,
    "harness": {"command": "scripts/bench-trajectory.sh", "from": base, "seconds": int(seconds),
                "workloads": workloads, "metrics": metrics},
    "commits": points,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"bench-trajectory: wrote {out} ({len(points)} commits)", file=sys.stderr)
PY
