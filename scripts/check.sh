#!/usr/bin/env bash
# Full pre-merge gate: build, tests, lints, and a compile check of every
# bench harness so experiment targets cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party packages. Vendored crates under vendor/ are imported verbatim
# and deliberately left out of the formatting gate.
FIRST_PARTY=(-p bolt-repro -p bolt -p bolt-sim -p bolt-linalg -p bolt-workloads
             -p bolt-probes -p bolt-recommender -p bolt-bench)

# `FitCache` and `shared_recommender` survive only for the bolt-perf
# benchmark's frozen calls: the memo's own module, the lib.rs re-export,
# the modules of the three forwarders that recall through it
# (experiment.rs, service.rs) and bolt-perf itself. Anywhere else a new
# caller would spread the compatibility surface the benchmark's next
# revision deletes.
echo "==> FitCache and shared_recommender stay behind bolt-perf's forwarders"
STRAY=$(grep -rnE --include='*.rs' --exclude-dir=target --exclude-dir=vendor \
  '\b(FitCache|fit_cache|shared_recommender)\b' . \
  | grep -vE '^\./crates/core/src/(ctx|experiment|service)\.rs:' \
  | grep -vE '^\./crates/core/src/lib\.rs:[0-9]+:pub use ctx::' \
  | grep -vE '^\./crates/bench/src/bin/bolt-perf/' || true)
if [ -n "$STRAY" ]; then
  echo "FitCache named outside its compatibility surface:"; echo "$STRAY"; exit 1
fi

echo "==> cargo fmt --check (first-party packages)"
cargo fmt --check "${FIRST_PARTY[@]}"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace (every unit, integration and property suite)"
cargo test --workspace -q

# The simulator's proptests pin the probe walks (resident table, fold
# operands, the shared sweep memo) to the reference scan bit for bit.
# Their own 32-64 cases per property keep the debug run short; 2,048 in
# release go deeper.
echo "==> bolt-sim at PROPTEST_CASES=2048 (release)"
PROPTEST_CASES=2048 cargo test --release -q -p bolt-sim

echo "==> cargo test --doc (doctests)"
cargo test --workspace --doc -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (every bench harness must compile)"
cargo bench --no-run --workspace

echo "==> cargo doc (first-party rustdoc must be warning-free: no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${FIRST_PARTY[@]}"

echo "==> mrc_extension example smoke run"
cargo run --release -q --example mrc_extension > /dev/null

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> service-loop smoke (storms on, threaded)"
SERVE_START=$SECONDS
cargo run --release -q -- serve --requests 200 --storm 0.6 --chaos-intensity 0.3 \
  --threads 3 --telemetry "$SMOKE_DIR/serve.jsonl" > "$SMOKE_DIR/serve.txt"
SERVE_ELAPSED=$((SECONDS - SERVE_START))
grep -q "failures are announced" "$SMOKE_DIR/serve.txt" \
  || { echo "service smoke: honesty contract violated"; cat "$SMOKE_DIR/serve.txt"; exit 1; }
# Nothing in the workspace parses the JSONL trace, so an outside parser
# checks that every line is a JSON object carrying "type" and "unit".
# jq 1.6 accepts NaN, so non-finite numbers are pinned by the Rust tests.
jq -e -s 'length > 0 and all(has("type") and has("unit"))' "$SMOKE_DIR/serve.jsonl" > /dev/null \
  || { echo "service smoke: telemetry trace is not valid JSONL"; exit 1; }
# A cluster records its lifecycle log only when its driver opts in; a
# traced service must still carry its cluster's launch block.
jq -e -s 'any(.type == "cluster" and .event.kind == "launch")' "$SMOKE_DIR/serve.jsonl" \
  > /dev/null || { echo "service smoke: telemetry lost the cluster launches"; exit 1; }
# The 200-request loop itself is sub-second in release; a long-tail
# regression in the lane scheduler blows past this budget immediately.
if [ "$SERVE_ELAPSED" -gt 60 ]; then
  echo "service smoke: took ${SERVE_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> robustness smoke (the chaos path from the CLI, 8 victims on 4 servers)"
ROB_START=$SECONDS
cargo run --release -q -- robustness --servers 4 --victims 8 > "$SMOKE_DIR/robustness.txt"
ROB_ELAPSED=$((SECONDS - ROB_START))
grep -q "failures are announced" "$SMOKE_DIR/robustness.txt" \
  || { echo "robustness smoke: honesty contract violated"; cat "$SMOKE_DIR/robustness.txt"; exit 1; }
# Columns: | intensity | accuracy | degraded | silent | confidence | faults | ...
# Full intensity must actually inject faults, or the sweep measured nothing.
awk -F'|' '$2 ~ /^ *1\.00 *$/ && $7 + 0 > 0 { found = 1 } END { exit !found }' \
  "$SMOKE_DIR/robustness.txt" \
  || { echo "robustness smoke: full intensity injected no faults"; cat "$SMOKE_DIR/robustness.txt"; exit 1; }
# The sweep takes well under a second in release.
if [ "$ROB_ELAPSED" -gt 60 ]; then
  echo "robustness smoke: took ${ROB_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> region-serve smoke (2k servers, storms on, threaded)"
RSERVE_START=$SECONDS
cargo run --release -q -- serve --region --servers 2000 --requests 60 --storm 0.5 \
  --threads 3 > "$SMOKE_DIR/rserve.txt"
RSERVE_ELAPSED=$((SECONDS - RSERVE_START))
grep -q "| sweeps shared  *| 0  *|" "$SMOKE_DIR/rserve.txt" \
  && { echo "region-serve smoke: no sweeps shared"; cat "$SMOKE_DIR/rserve.txt"; exit 1; }
# The run takes ~0.3 s of wall time on a 2-core host
# (snapshots are copy-on-write, so a request no longer copies the region);
# anything near the budget means per-step or per-server cost crept back in.
if [ "$RSERVE_ELAPSED" -gt 60 ]; then
  echo "region-serve smoke: took ${RSERVE_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> idle invariance (10x sparser arrivals: same verdicts, same wall-time ballpark)"
IDLE_START=$SECONDS
cargo run --release -q -- serve --region --servers 500 --requests 60 --rate 2 \
  > "$SMOKE_DIR/idle_fast.txt"
cargo run --release -q -- serve --region --servers 500 --requests 60 --rate 0.2 \
  > "$SMOKE_DIR/idle_slow.txt"
IDLE_ELAPSED=$((SECONDS - IDLE_START))
# Verdict rows (offered/admitted/completed/degraded/shed/timed out) must be
# identical; latency and the idle-skipped counter legitimately differ.
for f in idle_fast idle_slow; do
  grep -E "offered|admitted|completed|degraded |shed|timed out" \
    "$SMOKE_DIR/$f.txt" > "$SMOKE_DIR/$f.verdicts"
done
cmp "$SMOKE_DIR/idle_fast.verdicts" "$SMOKE_DIR/idle_slow.verdicts"
# 10x idle time must not cost 10x wall time: both runs together fit the
# same small budget because the event clock jumps the gaps.
if [ "$IDLE_ELAPSED" -gt 60 ]; then
  echo "idle invariance: took ${IDLE_ELAPSED}s (budget 60s)"; exit 1
fi

echo "==> region smoke (5k servers / 50k VMs must step within the budget)"
REGION_START=$SECONDS
cargo run --release -q -- region --servers 5000 --vms-per-server 10 --steps 5 \
  > "$SMOKE_DIR/region.txt"
REGION_ELAPSED=$((SECONDS - REGION_START))
grep -q "^| vms  *| 50000" "$SMOKE_DIR/region.txt" \
  || { echo "region smoke: expected 50000 tenants"; cat "$SMOKE_DIR/region.txt"; exit 1; }
# Budget covers the whole invocation (including cargo dispatch); the run
# itself is ~0.2s — a linear-cost regression at this scale blows past 60s.
if [ "$REGION_ELAPSED" -gt 60 ]; then
  echo "region smoke: took ${REGION_ELAPSED}s (budget 60s)"; exit 1
fi

echo "OK: all checks passed"
