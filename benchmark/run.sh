#!/usr/bin/env bash
# One full pass of the trajectory benchmark: every workload untraced
# (the end-to-end metrics), then every workload traced (the per-layer
# metrics). Every metric is printed by name with its unit; with a file
# argument each run is also appended to that file as one JSON record,
# which is what `trajectory --compare A.json B.json` reads.
#
#   benchmark/run.sh [OUT.json] [SEED] [SECONDS]
#
# Run it from anywhere; it builds into benchmark/target unless
# CARGO_TARGET_DIR says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-}"
seed="${2:-1}"
seconds="${3:-25}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/trajectory"

status=0
for trace in 0 1; do
    for workload in codec_rs archive store_large store_small; do
        args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
        [ -n "$out" ] && args+=(--out "$out")
        echo "== $workload (trace $trace)"
        # The last line is the driver's JSON; the lines above it are the
        # same metrics, readable.
        "$bin" "${args[@]}" | sed '$d' || status=1
    done
done
exit "$status"
