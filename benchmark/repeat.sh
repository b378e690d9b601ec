#!/usr/bin/env bash
# Is the ruler steady?  benchmark/repeat.sh [N] [FIRST_SEED] [WORKLOAD...]
#
# Runs every workload (or the named ones) in two independent sets of N fresh processes
# (default 5), each run on another seed, and prints per end-to-end metric
# the median and the spread of each set — the distance between the first
# and third quartile as a share of the median, quartiles as Python's
# statistics.quantiles(values, n=4) gives them — and how much worse the
# second median is than the first. Exits non-zero if a run fails its output
# check, a spread (setup_s excepted) exceeds the metric's bound in
# BENCHMARK.json, or a second median is worse than the first by more than
# the bound. The output is Markdown; this host's is REPEATABILITY.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:-5}"
first="${2:-1}"
run_seconds="$(grep -o '"run_seconds": [0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
if [ $# -gt 2 ]; then
    workloads="${*:3}"
else
    workloads="$(sed -n '/"workloads"/,/\]/p' BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4)"
fi
mkdir -p benchmark/out
tmp="$(mktemp -d benchmark/out/repeat.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "# Repeatability on this host"
echo
echo "\`benchmark/repeat.sh $n $first\`: two sets of $n runs per workload, $run_seconds s each,"
echo "seeds $first.. upward, one fresh process per run; $(nproc) cores, $(rustc --version)."
echo "Spread = (Q3 − Q1) ÷ median over a set's runs."
echo

status=0
seed="$first"
for w in $workloads; do
    for set in 1 2; do
        for _ in $(seq "$n"); do
            if ! line="$(benchmark/run.sh --workload "$w" --seed "$seed" \
                --seconds "$run_seconds" --trace 0 | tail -n 1)"; then
                echo "run failed: $w seed $seed" >&2
                status=1
            fi
            case "$line" in
                '{"correct": true,'*) ;;
                *)
                    echo "output check failed: $w seed $seed" >&2
                    status=1
                    ;;
            esac
            # name value, one per line
            echo "$line" | grep -o '"[A-Za-z0-9_.-]*": {"value": [^,]*' |
                sed 's/"\([^"]*\)": {"value": /\1 /' >>"$tmp/$w.$set"
            seed=$((seed + 1))
        done
    done

    echo "## $w"
    echo
    echo "| metric | bound | median 1 | spread 1 | median 2 | spread 2 | 2 worse by | verdict |"
    echo "|---|---|---|---|---|---|---|---|"
    grep -o '{"name": "[^"]*", "unit": "[^"]*", "better": "[^"]*", "bound": [0-9.]*}' BENCHMARK.json |
        sed 's/{"name": "\([^"]*\)", "unit": "\([^"]*\)", "better": "\([^"]*\)", "bound": \([0-9.]*\)}/\1 \2 \3 \4/' |
        while read -r name unit better bound; do
            for set in 1 2; do
                awk -v m="$name" '$1 == m { print $2 }' "$tmp/$w.$set" | sort -g >"$tmp/values.$set"
            done
            awk -v name="$name" -v unit="$unit" -v better="$better" -v bound="$bound" '
                function quantile(x, len, i,    m, j, delta) {
                    m = len + 1
                    j = int(i * m / 4)
                    if (j < 1) j = 1
                    if (j > len - 1) j = len - 1
                    delta = i * m - j * 4
                    return (x[j] * (4 - delta) + x[j + 1] * delta) / 4
                }
                FNR == 1 { set++ }
                { v[set, FNR] = $1; len[set] = FNR }
                END {
                    for (s = 1; s <= 2; s++) {
                        for (i = 1; i <= len[s]; i++) x[i] = v[s, i]
                        med[s] = quantile(x, len[s], 2)
                        spread[s] = (quantile(x, len[s], 3) - quantile(x, len[s], 1)) / med[s]
                    }
                    worse = (better == "lower") ? med[2] / med[1] - 1 : 1 - med[2] / med[1]
                    bad = worse > bound
                    if (name != "setup_s" && (spread[1] > bound || spread[2] > bound)) bad = 1
                    printf "| `%s` (%s) | %.2f | %.6g | %.1f %% | %.6g | %.1f %% | %+.1f %% | %s |\n", \
                        name, unit, bound, med[1], 100 * spread[1], med[2], 100 * spread[2], \
                        100 * worse, bad ? "**outside**" : "ok"
                    exit bad
                }' "$tmp/values.1" "$tmp/values.2" || echo outside >>"$tmp/outside"
        done
    echo
done

[ ! -e "$tmp/outside" ] || status=1
exit "$status"
