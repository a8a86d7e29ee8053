#!/usr/bin/env bash
# Builds `soct` and the benchmark from source, then runs one workload:
#
#   bash benchmark/run.sh --workload paper-grid|serve-live|chase \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of standard output is the JSON
# result. `--trace 1` also builds `socttrace`, the in-process replay, so
# that a library change that breaks it costs only the per-layer run.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
bin="$CARGO_TARGET_DIR/release"

cargo build --release --offline --quiet -p soct_cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml -p soctbench >&2

args=(--soct "$bin/soct")
trace=0
prev=""
for a in "$@"; do
    if [[ $prev == --trace ]]; then trace=$a; fi
    prev=$a
done
if [[ $trace == 1 ]]; then
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml -p socttrace >&2
    args+=(--tracer "$bin/socttrace")
fi
"$bin/soctbench" "${args[@]}" "$@"
