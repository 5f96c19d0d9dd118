#!/usr/bin/env bash
# Opt-in PGO (+ optional llvm-bolt) pipeline for the release binary.
#
# Profile-guided optimization is the one compiler-side lever left after the
# kernel pass: the kernels fix the instruction mix, PGO fixes layout and
# branch weights around them. The pipeline is strictly opt-in because it
# needs an instrumented rebuild, a profiling run, and LLVM tooling whose
# version must match rustc's LLVM — none of which belongs in the default
# build or CI gate.
#
# Stages:
#   1. instrument: rebuild with -Cprofile-generate into its own target dir
#      (never pollutes the normal ./target artifacts)
#   2. profile: run the crit_run_experiment workload (the hot production
#      path: full detection experiments) to collect .profraw files
#   3. merge: llvm-profdata merge -> bolt.profdata
#   4. optimize: rebuild with -Cprofile-use and compare crit_run_experiment
#      numbers against the plain release build
#   5. (optional, --with-bolt) post-link llvm-bolt: relink with
#      --emit-relocs, instrument, re-profile, rewrite the binary
#
# Usage:
#   scripts/pgo-bolt.sh --dry-run      # prerequisite check only, no build
#   scripts/pgo-bolt.sh                # stages 1-4
#   scripts/pgo-bolt.sh --with-bolt    # stages 1-5 (needs llvm-bolt)
#
# Determinism note: PGO changes code layout, never floating-point
# semantics — the reference-oracle gate (cargo test -p bolt --test
# oracle) holds for PGO builds too, and stage 4 reruns it.
set -euo pipefail
cd "$(dirname "$0")/.."

DRY_RUN=0
WITH_BOLT=0
for arg in "$@"; do
  case "$arg" in
    --dry-run) DRY_RUN=1 ;;
    --with-bolt) WITH_BOLT=1 ;;
    *) echo "unknown argument: $arg (expected --dry-run / --with-bolt)"; exit 2 ;;
  esac
done

HOST=$(rustc -vV | sed -n 's/^host: //p')
RUSTC_LLVM=$(rustc -vV | sed -n 's/^LLVM version: \([0-9]*\).*/\1/p')
PGO_DIR="target/pgo"
PROFRAW_DIR="$PGO_DIR/profraw"
PROFDATA="$PGO_DIR/bolt.profdata"

# rustup's llvm-tools component ships the matching llvm-profdata; fall back
# to the system binary (works only if its major version matches rustc's).
SYSROOT_BIN="$(rustc --print sysroot)/lib/rustlib/$HOST/bin"
if [ -x "$SYSROOT_BIN/llvm-profdata" ]; then
  PROFDATA_BIN="$SYSROOT_BIN/llvm-profdata"
else
  PROFDATA_BIN=$(command -v llvm-profdata || true)
fi

echo "==> prerequisites"
echo "    host:           $HOST"
echo "    rustc LLVM:     ${RUSTC_LLVM:-unknown}"
if [ -z "$PROFDATA_BIN" ]; then
  echo "    llvm-profdata:  NOT FOUND (install the rustup llvm-tools component)"
  PROFDATA_OK=0
else
  PROFDATA_LLVM=$("$PROFDATA_BIN" merge --version 2>/dev/null \
    | sed -n 's/.*LLVM version \([0-9]*\).*/\1/p' | head -1)
  echo "    llvm-profdata:  $PROFDATA_BIN (LLVM ${PROFDATA_LLVM:-unknown})"
  if [ -n "$PROFDATA_LLVM" ] && [ "$PROFDATA_LLVM" != "$RUSTC_LLVM" ]; then
    echo "    WARNING: llvm-profdata LLVM $PROFDATA_LLVM != rustc LLVM $RUSTC_LLVM;"
    echo "             .profraw files from rustc's newer runtime will likely be rejected."
    PROFDATA_OK=0
  else
    PROFDATA_OK=1
  fi
fi
BOLT_BIN=$(command -v llvm-bolt || true)
if [ -n "$BOLT_BIN" ]; then
  echo "    llvm-bolt:      $BOLT_BIN"
else
  echo "    llvm-bolt:      not found (stage 5 unavailable; PGO stages 1-4 unaffected)"
fi

if [ "$DRY_RUN" = 1 ]; then
  if [ "${PROFDATA_OK:-0}" = 1 ]; then
    echo "dry run: prerequisites look good; rerun without --dry-run to build."
  else
    echo "dry run: PGO prerequisites NOT satisfied (see above); the pipeline would fail at the merge stage."
  fi
  exit 0
fi

if [ "$WITH_BOLT" = 1 ] && [ -z "$BOLT_BIN" ]; then
  echo "error: --with-bolt requested but llvm-bolt is not on PATH"; exit 1
fi

echo "==> stage 1: instrumented build (-Cprofile-generate)"
rm -rf "$PROFRAW_DIR"
mkdir -p "$PROFRAW_DIR"
RUSTFLAGS="-Cprofile-generate=$PROFRAW_DIR" \
  cargo build --release --target-dir "$PGO_DIR/instrumented" -p bolt-bench --benches

echo "==> stage 2: profiling run (crit_run_experiment workload)"
CRIT_BIN=$(find "$PGO_DIR/instrumented/release/deps" -maxdepth 1 \
  -name 'crit_run_experiment-*' -type f -executable | head -1)
if [ -z "$CRIT_BIN" ]; then
  echo "error: instrumented crit_run_experiment binary not found"; exit 1
fi
"$CRIT_BIN" --bench 2>/dev/null | tail -2 || true
PROFRAW_COUNT=$(find "$PROFRAW_DIR" -name '*.profraw' | wc -l)
echo "    collected $PROFRAW_COUNT .profraw file(s)"
if [ "$PROFRAW_COUNT" = 0 ]; then
  echo "error: no profiles collected"; exit 1
fi

echo "==> stage 3: merge profiles"
if ! "$PROFDATA_BIN" merge -o "$PROFDATA" "$PROFRAW_DIR"/*.profraw; then
  echo "error: llvm-profdata merge failed (LLVM version mismatch between"
  echo "       $PROFDATA_BIN and rustc — install the rustup llvm-tools"
  echo "       component for a matching binary)."
  exit 1
fi

echo "==> stage 4: optimized build (-Cprofile-use) + comparison"
EMIT_RELOCS=""
if [ "$WITH_BOLT" = 1 ]; then
  EMIT_RELOCS=" -Clink-args=-Wl,--emit-relocs"
fi
RUSTFLAGS="-Cprofile-use=$(pwd)/$PROFDATA -Cllvm-args=-pgo-warn-missing-function$EMIT_RELOCS" \
  cargo build --release --target-dir "$PGO_DIR/optimized" -p bolt-bench --benches
RUSTFLAGS="-Cprofile-use=$(pwd)/$PROFDATA$EMIT_RELOCS" \
  cargo test -q --target-dir "$PGO_DIR/optimized" -p bolt --test oracle
PGO_CRIT=$(find "$PGO_DIR/optimized/release/deps" -maxdepth 1 \
  -name 'crit_run_experiment-*' -type f -executable | head -1)
echo "    baseline (plain release):"
cargo bench -p bolt-bench --bench crit_run_experiment 2>/dev/null \
  | grep -A1 "run_experiment_serial" | sed 's/^/    /'
echo "    PGO build:"
"$PGO_CRIT" --bench 2>/dev/null | grep -A1 "run_experiment_serial" | sed 's/^/    /'

if [ "$WITH_BOLT" = 1 ]; then
  echo "==> stage 5: llvm-bolt post-link optimization"
  BOLT_OUT="$PGO_DIR/crit_run_experiment.bolt"
  "$BOLT_BIN" "$PGO_CRIT" -o "$BOLT_OUT" -reorder-blocks=ext-tsp \
    -reorder-functions=cdsort -split-functions -split-all-cold -dyno-stats
  echo "    BOLT-optimized binary:"
  "$BOLT_OUT" --bench 2>/dev/null | grep -A1 "run_experiment_serial" | sed 's/^/    /'
fi

echo "OK: PGO pipeline complete (artifacts under $PGO_DIR/, normal target/ untouched)"
