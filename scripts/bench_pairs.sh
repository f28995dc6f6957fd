#!/usr/bin/env bash
# Compares one perfbench workload between a parent revision and the working
# tree in alternating pairs of runs.
#
# Builds perfbench twice — from a clean export of PARENT_REV in a temporary
# directory, and from the working tree — then runs PAIRS pairs of
# `perfbench --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`,
# alternating which side runs first. Prints every pair, each side's median and
# quartiles of ops_per_s, the change's win count and the median ratio, plus
# the medians of setup_s and peak_rss_mib. Fails when a run exits non-zero or
# the two sides print different digests of the simulated statistics.
#
# Usage: scripts/bench_pairs.sh PARENT_REV WORKLOAD SEED PAIRS [SECONDS]
#   SECONDS defaults to 10, the run length BENCHMARK.json sets.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD SEED PAIRS [SECONDS]" >&2
    exit 2
fi
parent_rev=$1
workload=$2
seed=$3
pairs=$4
seconds=${5:-10}

cd "$(dirname "$0")/.."
parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")

# A plain export, not a worktree: nothing is registered in .git, so an
# interrupted run leaves no state behind beyond its temporary directory.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_sha" | tar -x -C "$tmp/parent"

echo "building perfbench at ${parent_sha:0:12} and at the working tree"
cargo build --release --offline --quiet --manifest-path "$tmp/parent/perfbench/Cargo.toml"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
parent_bin="$tmp/parent/perfbench/target/release/perfbench"
change_bin="$PWD/perfbench/target/release/perfbench"

# run SIDE BIN: one run; appends "SIDE ops setup rss digest" to the results.
run() {
    local output
    if ! output=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
        echo "FAIL: $1 run exited non-zero" >&2
        exit 1
    fi
    metric() { printf '%s\n' "$output" | awk -v name="$1" '$1 == name { print $2; exit }'; }
    local digest
    digest=$(printf '%s\n' "$output" | sed -n "s/^digest $workload seed $seed: //p")
    echo "$1 $(metric ops_per_s) $(metric setup_s) $(metric peak_rss_mib) $digest" >>"$tmp/results"
}

: >"$tmp/results"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent_bin"
        run change "$change_bin"
    else
        run change "$change_bin"
        run parent "$parent_bin"
    fi
done

python3 - "$tmp/results" "$workload" "$seed" "$seconds" <<'EOF'
import statistics
import sys

path, workload, seed, seconds = sys.argv[1:]
runs = {"parent": [], "change": []}
for line in open(path):
    side, ops, setup, rss, digest = line.split()
    runs[side].append((float(ops), float(setup), float(rss), digest))

digests = {run[3] for side in runs.values() for run in side}
print(f"{workload} seed {seed}, {seconds} s runs, ops_per_s per pair:")
wins = 0
for index, (parent, change) in enumerate(zip(runs["parent"], runs["change"]), start=1):
    first = "parent" if index % 2 == 1 else "change"
    wins += change[0] > parent[0]
    print(f"  pair {index:2} ({first} first): parent {parent[0]:12.0f}  "
          f"change {change[0]:12.0f}  ratio {change[0] / parent[0]:.3f}")


def summary(values):
    # Quartiles by linear interpolation between order statistics.
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


for side in ("parent", "change"):
    median, q1, q3 = summary([run[0] for run in runs[side]])
    print(f"  {side}: median {median:.0f}, quartiles {q1:.0f}-{q3:.0f}")
parent_median, parent_q1, parent_q3 = summary([run[0] for run in runs["parent"]])
change_median = summary([run[0] for run in runs["change"]])[0]
gap = change_median - parent_median
iqr = parent_q3 - parent_q1
pairs = len(runs["change"])
print(f"  change wins {wins}/{pairs}; median ratio {change_median / parent_median:.3f}; "
      f"median gap {gap:.0f} vs parent IQR {iqr:.0f} ({'exceeds' if abs(gap) > iqr else 'within'})")
for column, name, unit in ((1, "setup_s", "s"), (2, "peak_rss_mib", "MiB")):
    medians = {side: statistics.median(run[column] for run in runs[side]) for side in runs}
    print(f"  {name} median: parent {medians['parent']:.6g} {unit}, change "
          f"{medians['change']:.6g} {unit}, ratio {medians['change'] / medians['parent']:.3f}")
if len(digests) != 1:
    print(f"FAIL: digests differ: {sorted(digests)}")
    sys.exit(1)
print(f"  digest {digests.pop()} on every run of both sides")
EOF
