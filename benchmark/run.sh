#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source, then run
#   chlm-benchmark bench --workload W --seed N --seconds T --trace 0|1
# from the root of the checkout. A --trace 0 run builds the end-to-end
# binary alone, so that a refactor which breaks the per-layer replica
# (chlm-benchmark-trace) cannot take the end-to-end numbers down with it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

bins=(--bin chlm-benchmark)
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-}" == "1" ]]; then
        bins+=(--bin chlm-benchmark-trace)
    fi
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "${bins[@]}" >&2

# cargo resolves a relative CARGO_TARGET_DIR against the directory it was
# started in, which is also ours.
exec "${CARGO_TARGET_DIR:-$here/target}/release/chlm-benchmark" bench "$@"
