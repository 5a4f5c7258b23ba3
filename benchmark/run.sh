#!/bin/sh
# The benchmark's two commands, from anywhere:
#   benchmark/run.sh <seed>          every workload, end-to-end metrics
#   benchmark/run.sh <seed> --trace  every workload, per-layer metrics + traces
# Anything after the seed is passed through (--seconds <s>, --out <file>).
set -eu
seed="${1:?usage: run.sh <seed> [--trace] [--seconds <s>] [--out <file>]}"
shift
cd "$(dirname "$0")/.."
exec cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- run --seed "$seed" "$@"
