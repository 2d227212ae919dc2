#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repository
# root. Arguments are passed through:
#
#   benchmark/run.sh                         every workload, untraced then traced;
#                                            table on stdout, benchmark/out/results.json
#                                            and benchmark/out/trace.jsonl
#   benchmark/run.sh --quick                 the same at 1 round x 1 s, no gating
#   benchmark/run.sh --repeat-check          the full set twice, must agree within bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; last stdout line is one JSON object
#                                            (what BENCHMARK.json's command gets)
#
# The build goes to $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/artemis-benchmark" "$@"
