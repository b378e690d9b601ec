#!/usr/bin/env bash
# Alternated parent/change pairs: benchmark/README.md § "Comparing two
# commits", as one command.
#
#   scripts/bench_pairs.sh [--trace] <parent-rev> [pairs=10] [workload…]
#
# Compares the working tree (tracked and untracked files, as they are now)
# with <parent-rev>. Both sides are copied into a temp dir (`git archive`
# for the parent — a copy, so no worktree is registered and nothing has to
# be pruned), each is built into its own CARGO_TARGET_DIR, and every
# workload named — all of BENCHMARK.json's when none is — runs <pairs>
# times per side at BENCHMARK.json's `run_seconds`, each pair on a fresh
# seed both sides share, alternating which side goes first. Prints, per
# workload and end-to-end metric, each side's quartiles and how many pairs
# the change won. Both sides run inside their copies, so nothing is
# written under this checkout's benchmark/; the temp dir is removed on
# exit and every run's full output is echoed as it happens.
#
# With --trace, each pair also runs one `--trace 1` run per side (which
# side goes first alternates too), and a second table gives each side's
# per-layer medians — `runtime.q*_ms_p50` and `exec.plan_cpu_ms` — and
# how many pairs the change won on each: where an end-to-end difference
# sits.
set -euo pipefail
cd "$(dirname "$0")/.."

trace=0
if [ "${1:-}" = --trace ]; then trace=1; shift; fi
parent_rev="${1:?usage: scripts/bench_pairs.sh [--trace] <parent-rev> [pairs=10] [workload…]}"
pairs="${2:-10}"
shift $(($# < 2 ? $# : 2))
case "$pairs" in '' | *[!0-9]* | 0) echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;; esac

# BENCHMARK.json keeps one workload / metric per line.
manifest_names() { sed -n "/\"$1\": \[/,/^  \]/s/.*{\"name\": \"\([^\"]*\)\".*/\1/p" BENCHMARK.json; }
seconds="$(sed -n 's/.*"run_seconds": \([0-9.]*\).*/\1/p' BENCHMARK.json)"
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(manifest_names workloads)
mapfile -t metrics < <(manifest_names end_to_end)

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$parent_rev" | tar -x -C "$tmp/parent"
git ls-files -z --cached --others --exclude-standard |
    tar -c --null --ignore-failed-read -T - 2>/dev/null | tar -x -C "$tmp/change"

# One run: prints the binary's output, keeps its `name = value` lines in
# $tmp/values, or in $tmp/traced for a `--trace 1` run.
run_side() { # side workload seed traced
    local out="$tmp/values" tag=""
    if [ "$4" = 1 ]; then out="$tmp/traced" tag=" traced"; fi
    (cd "$tmp/$1" && CARGO_TARGET_DIR="$tmp/target-$1" \
        bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4") |
        tee "$tmp/last" | sed "s/^/    [$1 $2 seed $3$tag] /" >&2
    awk -v side="$1" -v w="$2" -v seed="$3" \
        '$2 == "=" { print w, $1, seed, side, $3 }' "$tmp/last" >>"$out"
    grep -q '"correct": true' "$tmp/last" || echo "    !! $1 $2 seed $3$tag: not correct" >&2
}

echo "==> building both sides (parent $(git rev-parse --short "$parent_rev"), change = working tree)" >&2
for side in parent change; do
    (cd "$tmp/$side" && CARGO_TARGET_DIR="$tmp/target-$side" \
        bash benchmark/run.sh --workload adhoc_optimize --smoke >/dev/null)
done

seed_base="$(date +%s)"
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed_base % 1000000 * 100 + i))
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        echo "==> $w pair $((i + 1))/$pairs, seed $seed, ${order[0]} first" >&2
        for side in "${order[@]}"; do run_side "$side" "$w" "$seed" 0; done
        if ((trace)); then
            for side in "${order[@]}"; do run_side "$side" "$w" "$seed" 1; done
        fi
    done
done

better_of() { sed -n "s/.*{\"name\": \"$1\".*\"better\": \"\([a-z]*\)\".*/\1/p" BENCHMARK.json; }

# One table row: workload, metric, direction, each side's quartiles and
# the pairs the change won, over the `workload metric seed side value`
# lines of $1. Quartiles by linear interpolation; a pair is won by the
# better value, ties count for neither side. Values within 1e-9 of each
# other are a tie: a per-op mean of seed-deterministic costs
# (`ship_cost_ms_per_op`) differs in its last digits when the two sides
# fit different numbers of ops.
row() { # file workload metric
    awk -v w="$2" -v m="$3" -v better="$(better_of "$3")" '
        function q(a, n, p,    h, lo) {
            h = (n - 1) * p; lo = int(h)
            return a[lo + 1] + (h - lo) * (a[(lo + 2 > n ? n : lo + 2)] - a[lo + 1])
        }
        function sorted(src, dst,    n, i, j, t) {
            n = 0; for (i in src) dst[++n] = src[i]
            for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j > 0 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            return n
        }
        $1 == w && $2 == m { if ($4 == "parent") p[$3] = $5; else c[$3] = $5 }
        END {
            for (s in p) if (s in c) {
                d = c[s] - p[s]; if (d < 0) d = -d
                if (d <= 1e-9 * (p[s] < 0 ? -p[s] : p[s])) continue
                if ((better == "higher") == (c[s] > p[s])) won++
            }
            np = sorted(p, ps); nc = sorted(c, cs)
            if (np == 0 || nc == 0) exit
            printf "%-15s %-20s %-6s %11.4f /%11.4f /%11.4f   %11.4f /%11.4f /%11.4f   %d\n", \
                w, m, better, q(ps, np, .25), q(ps, np, .5), q(ps, np, .75), \
                q(cs, nc, .25), q(cs, nc, .5), q(cs, nc, .75), won
        }' "$1"
}

header() { # first column title
    printf '\n%-15s %-20s %-6s %36s   %36s   %s\n' workload "$1" better \
        'parent q1 / median / q3' 'change q1 / median / q3' "change won (of $pairs)"
}
header metric
for w in "${workloads[@]}"; do
    for m in "${metrics[@]}"; do row "$tmp/values" "$w" "$m"; done
done
if ((trace)); then
    mapfile -t layers < <(manifest_names per_layer | grep -E '^(runtime\.q[0-9]+_ms_p50|exec\.plan_cpu_ms)$')
    header 'layer (--trace 1)'
    for w in "${workloads[@]}"; do
        for m in "${layers[@]}"; do row "$tmp/traced" "$w" "$m"; done
    done
fi
