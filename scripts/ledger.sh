#!/usr/bin/env bash
# Records one ledger entry: the bolt-perf run records of one commit.
#
#   scripts/ledger.sh REV          # writes ledger/BENCH_<short rev>.jsonl
#   bolt-perf --compare ledger/BENCH_<a>.jsonl ledger/BENCH_<b>.jsonl
#
# REV is built in a fresh clone of this repository with a target dir of
# its own, and bolt-perf runs from inside that clone, so every record
# carries REV's `git_rev`. Every rev is built the same way because
# bolt-perf's peak RSS moves with where the binary was built: entries
# compare only when they were built alike. A clone rather than a git
# worktree: bolt-perf reads the rev from a `.git` directory, and a
# worktree has only a `.git` file.
#
# Each workload of REV's BENCHMARK.json gets 3 untraced runs (the ones
# `--compare` reads: medians and quartile spreads) and 1 traced run (the
# per-layer metrics; their counts are exact for a rev), at a pinned seed.
# A run whose checks fail, or that cannot complete, stops the script
# before anything is written.
#
# LEDGER_WORK names where the clone and its build go (default: a
# temporary dir, removed on exit); a kept dir spares a rerun the
# dependencies' build.
set -euo pipefail
cd "$(dirname "$0")/.."

REV=${1:?usage: scripts/ledger.sh REV}
SEED=7
BUDGET=30
RUNS=3
SHA=$(git rev-parse --verify "$REV^{commit}")
SHORT=$(git rev-parse --short=7 "$SHA")
mkdir -p ledger
OUT="$PWD/ledger/BENCH_$SHORT.jsonl"

if [ -n "${LEDGER_WORK:-}" ]; then
  WORK=$LEDGER_WORK
  mkdir -p "$WORK"
else
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT
fi
SRC="$WORK/src-$SHORT"
rm -rf "$SRC"
git clone --quiet --no-checkout "$PWD" "$SRC"
git -C "$SRC" checkout --quiet --detach "$SHA"

echo "==> building bolt-perf at $SHORT"
(cd "$SRC" && CARGO_TARGET_DIR="$WORK/target-$SHORT" \
  cargo build --release --quiet --offline -p bolt-bench --bin bolt-perf)
BIN="$WORK/target-$SHORT/release/bolt-perf"
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' "$SRC/BENCHMARK.json")

# One run: its record (the first line bolt-perf prints) goes to the entry.
PARTIAL="$WORK/BENCH_$SHORT.jsonl"
: > "$PARTIAL"
run() {
  local workload=$1 trace=$2
  echo "==> $workload seed $SEED, ${BUDGET}s, trace $trace"
  (cd "$SRC" && "$BIN" --workload "$workload" --seed "$SEED" --seconds "$BUDGET" \
    --trace "$trace") > "$WORK/run.out"
  head -n 1 "$WORK/run.out" >> "$PARTIAL"
}
for ((round = 0; round < RUNS; round++)); do
  for w in "${WORKLOADS[@]}"; do run "$w" 0; done
done
for w in "${WORKLOADS[@]}"; do run "$w" 1; done
mv "$PARTIAL" "$OUT"
echo "wrote $OUT"
