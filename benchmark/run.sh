#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--smoke] [--regen-golden] [--manifest]
#
# Builds the standalone package under benchmark/ (--release --offline,
# nothing else) and runs each named workload — all four when none is
# named — in a fresh process. Each process prints every metric by name
# with its unit and ends with one JSON object; results are also kept in
# benchmark/out/.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One fixed target dir, so only the first invocation compiles and compile
# time stays outside setup_s.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/geoqp-benchmark"

GEOQP_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
GEOQP_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GEOQP_BENCH_RUSTC GEOQP_BENCH_COMMIT

workload=""
rest=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            workload="${2:?--workload needs a name}"
            shift 2
            ;;
        *)
            rest+=("$1")
            shift
            ;;
    esac
done

if [ -n "$workload" ] || [[ " ${rest[*]-} " == *" --manifest "* ]]; then
    exec "$bin" ${workload:+--workload "$workload"} ${rest[@]+"${rest[@]}"}
fi

status=0
for w in tpch_exec adhoc_optimize service_mixed service_churn; do
    "$bin" --workload "$w" ${rest[@]+"${rest[@]}"} || status=$?
done
exit "$status"
