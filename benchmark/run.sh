#!/usr/bin/env bash
# The whole benchmark in one command: builds the harness, runs every
# workload (end-to-end rounds interleaved, then the per-layer pass),
# prints one line per `workload metric value unit`, runs the output
# checks, and writes benchmark/out/results.json + benchmark/out/trace.ndjson.
# Arguments go to `suite` (--rounds N, --seed N, --seconds S, --smoke).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- suite "$@"
