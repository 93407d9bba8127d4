#!/usr/bin/env bash
# The benchmark's one command. With no arguments: every workload, untraced
# pass then traced pass, written to benchmark/results/latest.json. With
# `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: that one pass.
# With `compare A.json B.json`: two result sets against the bounds.
set -euo pipefail
# From the repository root, so that .cargo/config.toml (target-cpu=native)
# applies to the build and BENCHMARK.json is found.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ "$#" -eq 0 ]; then
    set -- all --seed 2009
fi
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
