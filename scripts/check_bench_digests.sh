#!/usr/bin/env bash
# Replays every benchmark workload at the seeds pinned in
# scripts/bench_digests.txt and fails when a printed digest of the simulated
# statistics differs from its pinned value (or a run reports `correct: false`).
#
# Usage: scripts/check_bench_digests.sh [DIGEST_FILE]
set -euo pipefail

cd "$(dirname "$0")/.."
digests="${1:-scripts/bench_digests.txt}"

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
perfbench=perfbench/target/release/perfbench

failures=0
while read -r workload seed pinned; do
    case "$workload" in '' | '#'*) continue ;; esac
    if ! output=$("$perfbench" --workload "$workload" --seed "$seed" --seconds 1 --trace 0); then
        echo "FAIL $workload seed $seed: perfbench exited non-zero"
        failures=$((failures + 1))
        continue
    fi
    actual=$(printf '%s\n' "$output" | sed -n "s/^digest $workload seed $seed: //p")
    if [ "$actual" = "$pinned" ]; then
        echo "ok   $workload seed $seed: $actual"
    else
        echo "FAIL $workload seed $seed: digest ${actual:-<none>}, pinned $pinned"
        failures=$((failures + 1))
    fi
done < "$digests"

if [ "$failures" -ne 0 ]; then
    echo "$failures digest check(s) failed"
    exit 1
fi
