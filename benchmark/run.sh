#!/usr/bin/env bash
# Build the benchmark (release profile: fat LTO, one codegen unit) and run
# it from the repository root, so relative paths such as `--out` resolve
# there.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out FILE]
#   benchmark/run.sh compare BASE NEW
#
# The run is pinned to the last CPU it may use (the first tends to take
# more interrupts), when `taskset` exists: a service worker woken on the
# other core of a 2-core box made tournament latencies jump by up to 2x
# from run to run.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/chf-benchmark"
cpu=$(sed -n 's/^Cpus_allowed_list:.*[^0-9]\([0-9][0-9]*\)$/\1/p' /proc/self/status 2>/dev/null || true)
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
