#!/usr/bin/env bash
# The benchmark's one command. Builds cartbench in release mode, then
#   run.sh                      every workload and the layers pass: prints every
#                               metric with its unit, checks every output, and
#                               writes benchmark/out/results.json
#   run.sh --smoke              the same in under 20 s, without the layers pass
#   run.sh compare A.json B.json
#   run.sh --workload W --seed S --seconds T --trace 0|1
#                               one workload, one JSON result as the last line
#                               (the form BENCHMARK.json's command takes)
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/cartbench"
exec "$bin" "$@"
