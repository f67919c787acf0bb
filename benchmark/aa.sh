#!/usr/bin/env bash
# A/A check: two complete sets of runs of the same build must agree
# within the benchmark's own bounds on every (workload, end-to-end
# metric) pair. Ends non-zero unless every row of the comparison is `ok`.
# Arguments go to both `suite` runs.
set -euo pipefail
cd "$(dirname "$0")/.."
bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
bench suite --out benchmark/out/aa-a.json "$@"
bench suite --out benchmark/out/aa-b.json "$@"
bench compare benchmark/out/aa-a.json benchmark/out/aa-b.json
