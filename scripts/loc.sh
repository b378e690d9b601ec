#!/usr/bin/env bash
# Line counts the ROADMAP and acceptance criteria quote, from one place:
# each crate's src/, the six product crates' total, and all Rust outside
# benchmark/. Informational — prints, never gates.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

for src in crates/*/src; do
    crate="${src#crates/}"
    printf '%-10s %6d\n' "${crate%/src}" "$(lines "$src")"
done
printf '%-10s %6d  (crates/common/src/columnar.rs above `mod tests`)\n' cell-table \
    "$(sed '/^mod tests/,$d' crates/common/src/columnar.rs | wc -l)"
printf '%-10s %6d  (core exec runtime net cli server: src/ only)\n' six-crate \
    "$(lines crates/{core,exec,runtime,net,cli,server}/src)"
printf '%-10s %6d  (every .rs outside benchmark/ and build outputs)\n' all-rust \
    "$(lines . -not -path './benchmark/*' -not -path './target/*' -not -path './.bench_build/*')"
