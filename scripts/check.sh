#!/usr/bin/env bash
# Full pre-merge gate: build, tests, lints, and a compile check of every
# bench harness so experiment targets cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party packages. Vendored crates under vendor/ are imported verbatim
# and deliberately left out of the formatting gate.
FIRST_PARTY=(-p bolt-repro -p bolt -p bolt-sim -p bolt-linalg -p bolt-workloads
             -p bolt-probes -p bolt-recommender -p bolt-bench)

echo "==> cargo fmt --check (first-party packages)"
cargo fmt --check "${FIRST_PARTY[@]}"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace (every unit, integration and property suite)"
cargo test --workspace -q

echo "==> cargo test --doc (doctests)"
cargo test --workspace --doc -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (every bench harness must compile)"
cargo bench --no-run --workspace

echo "==> cargo doc (first-party rustdoc must be warning-free: no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${FIRST_PARTY[@]}"

echo "==> pgo-bolt.sh dry-run smoke (prerequisite check must not error)"
scripts/pgo-bolt.sh --dry-run > /dev/null

echo "==> mrc_extension example smoke run"
cargo run --release -q --example mrc_extension > /dev/null

echo "==> deterministic replay (same seed -> identical run, telemetry included)"
REPLAY_DIR=$(mktemp -d)
trap 'rm -rf "$REPLAY_DIR"' EXIT
for i in 1 2; do
  cargo run --release -q -- detect --servers 4 --victims 6 --seed 42 \
    --telemetry "$REPLAY_DIR/run$i.jsonl" > "$REPLAY_DIR/out$i.txt"
  # Wall-clock span durations are the one nondeterministic field.
  sed -E 's/"wall_ns":[0-9]+/"wall_ns":0/g' "$REPLAY_DIR/run$i.jsonl" \
    > "$REPLAY_DIR/norm$i.jsonl"
done
cmp "$REPLAY_DIR/out1.txt" "$REPLAY_DIR/out2.txt"
cmp "$REPLAY_DIR/norm1.jsonl" "$REPLAY_DIR/norm2.jsonl"

echo "==> fit cache is output-invariant (cache on vs --no-fit-cache)"
cargo run --release -q -- detect --servers 4 --victims 6 --seed 42 \
  --no-fit-cache > "$REPLAY_DIR/uncached.txt"
cmp "$REPLAY_DIR/out1.txt" "$REPLAY_DIR/uncached.txt"

echo "==> anytime smoke (--anytime runs deterministically, flag off unchanged)"
for i in 1 2; do
  cargo run --release -q -- detect --servers 4 --victims 6 --seed 42 --anytime \
    --confidence-threshold 0.7 > "$REPLAY_DIR/any$i.txt"
done
cmp "$REPLAY_DIR/any1.txt" "$REPLAY_DIR/any2.txt"

echo "==> service-loop smoke (storms on: Serial vs Threads(3) must move no bytes)"
SERVE_START=$SECONDS
cargo run --release -q -- serve --requests 200 --storm 0.6 --chaos-intensity 0.3 \
  --threads 1 --telemetry "$REPLAY_DIR/serve1.jsonl" > "$REPLAY_DIR/serve1.txt"
cargo run --release -q -- serve --requests 200 --storm 0.6 --chaos-intensity 0.3 \
  --threads 3 --telemetry "$REPLAY_DIR/serve3.jsonl" > "$REPLAY_DIR/serve3.txt"
SERVE_ELAPSED=$((SECONDS - SERVE_START))
cmp "$REPLAY_DIR/serve1.txt" "$REPLAY_DIR/serve3.txt"
for i in 1 3; do
  sed -E 's/"wall_ns":[0-9]+/"wall_ns":0/g' "$REPLAY_DIR/serve$i.jsonl" \
    > "$REPLAY_DIR/serve_norm$i.jsonl"
done
cmp "$REPLAY_DIR/serve_norm1.jsonl" "$REPLAY_DIR/serve_norm3.jsonl"
grep -q "failures are announced" "$REPLAY_DIR/serve1.txt" \
  || { echo "service smoke: honesty contract violated"; cat "$REPLAY_DIR/serve1.txt"; exit 1; }
# The 200-request loop itself is sub-second in release; a long-tail
# regression in the lane scheduler blows past this budget immediately.
if [ "$SERVE_ELAPSED" -gt 60 ]; then
  echo "service smoke: took ${SERVE_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> region-serve smoke (2k servers, storms on: Serial vs Threads(3) must move no bytes)"
RSERVE_START=$SECONDS
cargo run --release -q -- serve --region --servers 2000 --requests 60 --storm 0.5 \
  --threads 1 > "$REPLAY_DIR/rserve1.txt"
cargo run --release -q -- serve --region --servers 2000 --requests 60 --storm 0.5 \
  --threads 3 > "$REPLAY_DIR/rserve3.txt"
RSERVE_ELAPSED=$((SECONDS - RSERVE_START))
cmp "$REPLAY_DIR/rserve1.txt" "$REPLAY_DIR/rserve3.txt"
grep -q "| sweeps shared  *| 0  *|" "$REPLAY_DIR/rserve1.txt" \
  && { echo "region-serve smoke: no sweeps shared"; cat "$REPLAY_DIR/rserve1.txt"; exit 1; }
# The event-driven loop serves a 2k-server region in ~2s of wall time;
# anything near the budget means per-step or per-server cost crept back in.
if [ "$RSERVE_ELAPSED" -gt 60 ]; then
  echo "region-serve smoke: took ${RSERVE_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> idle invariance (10x sparser arrivals: same verdicts, same wall-time ballpark)"
IDLE_START=$SECONDS
cargo run --release -q -- serve --region --servers 500 --requests 60 --rate 2 \
  > "$REPLAY_DIR/idle_fast.txt"
cargo run --release -q -- serve --region --servers 500 --requests 60 --rate 0.2 \
  > "$REPLAY_DIR/idle_slow.txt"
IDLE_ELAPSED=$((SECONDS - IDLE_START))
# Verdict rows (offered/admitted/completed/degraded/shed/timed out) must be
# identical; latency and the idle-skipped counter legitimately differ.
for f in idle_fast idle_slow; do
  grep -E "offered|admitted|completed|degraded |shed|timed out" \
    "$REPLAY_DIR/$f.txt" > "$REPLAY_DIR/$f.verdicts"
done
cmp "$REPLAY_DIR/idle_fast.verdicts" "$REPLAY_DIR/idle_slow.verdicts"
# 10x idle time must not cost 10x wall time: both runs together fit the
# same small budget because the event clock jumps the gaps.
if [ "$IDLE_ELAPSED" -gt 60 ]; then
  echo "idle invariance: took ${IDLE_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> region smoke (5k servers / 50k VMs must step within the budget)"
REGION_START=$SECONDS
cargo run --release -q -- region --servers 5000 --vms-per-server 10 --steps 5 \
  > "$REPLAY_DIR/region.txt"
REGION_ELAPSED=$((SECONDS - REGION_START))
grep -q "^| vms  *| 50000" "$REPLAY_DIR/region.txt" \
  || { echo "region smoke: expected 50000 tenants"; cat "$REPLAY_DIR/region.txt"; exit 1; }
# Budget covers the whole invocation (including cargo dispatch); the run
# itself is ~0.2s — a linear-cost regression at this scale blows past 60s.
if [ "$REGION_ELAPSED" -gt 60 ]; then
  echo "region smoke: took ${REGION_ELAPSED}s (budget 60s)"; exit 1
fi

echo "OK: all checks passed"
