#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, and every test.
# Run from anywhere; exits non-zero on the first failure.
#
# Formatting and lint gates cover the repo's own crates only — the vendored
# dependencies under vendor/ are third-party snapshots and keep their
# upstream style.
set -euo pipefail
cd "$(dirname "$0")/.."

GEOQP_PACKAGES=(
    geoqp geoqp-bench geoqp-cli geoqp-common geoqp-core geoqp-exec
    geoqp-expr geoqp-net geoqp-parser geoqp-plan geoqp-policy
    geoqp-runtime geoqp-server geoqp-storage geoqp-tpch
)
pkg_flags=()
for p in "${GEOQP_PACKAGES[@]}"; do pkg_flags+=(-p "$p"); done

echo "==> one rule list: the rules normalization dominates stay deleted"
if grep -rnE 'all_rules|FilterMerge|FilterPushdown|ProjectMerge|ProjectJoinTranspose|AggregateInputPrune' \
    crates tests README.md DESIGN.md; then
    echo "a second rule list or a rule core::normalize already applies is back" >&2
    exit 1
fi

echo "==> stored once: a table keeps no row copy and no lazily built mirror"
if grep -nE '^[[:space:]]*(pub )?[a-z_]+: Vec<Row>,|OnceLock' crates/storage/src/table.rs; then
    echo "storage::Table holds rows or a lazily built second layout again" >&2
    exit 1
fi

echo "==> one boundary layout: a scan, a fragment hand-off and a checkpoint" \
     "resume each hand an interpreter an Arc<ColumnarBatch>, never rows"
if grep -rnE 'enum Payload|fn scan_columnar|fn fetch_columnar|fn into_columnar' crates; then
    echo "a second layout at an interpreter's boundary is back" >&2
    exit 1
fi
for f in crates/runtime/src/*.rs; do
    if sed '/^mod tests/,$d' "$f" | grep -nE 'Rows::decode|\.encode\(\)'; then
        echo "$f encodes or decodes rows outside its tests: the runtime moves batches" >&2
        exit 1
    fi
done

echo "==> one cell table: a fixed-width type is described once, so above" \
     "its tests common/src/columnar.rs names a typed variant on at most four" \
     "lines (today three: the layout dispatch, eq_at's two cross-type arms)"
typed_arms="$(sed '/^mod tests/,$d' crates/common/src/columnar.rs | grep -c 'Column::Float64')"
if [ "$typed_arms" -gt 4 ]; then
    echo "crates/common/src/columnar.rs names Column::Float64 on $typed_arms lines:" \
        "a per-type arm was copied back in" >&2
    exit 1
fi

echo "==> one recovery step: a failed attempt becomes the next plan in one" \
     "place, so crates/core/src places, excludes, avoids and stitches once" \
     "(select_sites_with: phase 2 + Recovery::step)"
recovery_gate() { # <pattern> <max> [file to skip]
    local n
    n="$(grep -rF "$1" crates/core/src --include='*.rs' | grep -vc "^crates/core/src/${3:-}:" || true)"
    if [ "$n" -gt "$2" ]; then
        echo "crates/core/src has $n lines with '$1' (at most $2):" \
            "a second re-planning path is back" >&2
        exit 1
    fi
}
recovery_gate 'select_sites_with(' 2 site_selector.rs
recovery_gate 'excluding_sites(' 1 annotate.rs
recovery_gate 'avoiding_links(' 1
recovery_gate 'stitch(' 1

echo "==> one plan identity: a plan-cache hit is the same SQL text, result site," \
     "tenant and governing pids, compared by value, so the server neither" \
     "fingerprints a plan nor audits a hit again, no policy update but a" \
     "revoke evicts, and an optimized query keeps no phase-1 tree"
if grep -rnE '\.audit\(|fingerprint|pub mod plan_cache' crates/server/src; then
    echo "crates/server/src fingerprints or re-audits plans, or exports its plan" \
        "cache: a hit is identified by value and only CacheStats leaves the crate" >&2
    exit 1
fi
if grep -rnE 'purge_tenant|^[[:space:]]*(pub )?seq:' crates/server/src; then
    echo "the plan cache is keyed or purged by catalog sequence again: a key names" \
        "the pids the optimizer reads, and only a revoke evicts, the entries" \
        "naming its pid" >&2
    exit 1
fi
if awk '/^pub struct OptimizedQuery/,/^}/' crates/core/src/engine.rs |
    grep -nE 'pub (annotated|logical):'; then
    echo "OptimizedQuery keeps phase 1's tree or the normalized plan again: it" \
        "keeps its input, and Engine::annotate re-derives the tree" >&2
    exit 1
fi

echo "==> one snapshot owner: implication verdicts are keyed by their two" \
     "predicates and checkpoints belong to the run, so no catalog epoch keys" \
     "either, and a revocation restricts the run's store instead of re-keying it"
if grep -rnE 'predicate_fingerprint|pin_epoch|pinned_epoch|reset_counters' crates/policy/src ||
    grep -nE 'fn migrate' crates/runtime/src/checkpoint.rs ||
    grep -rnE --include='*.rs' 'policies\(\)\.epoch\(\)|policies\.epoch\(\)' crates src tests; then
    echo "a policy catalog carries an epoch again, the implication memo is keyed by" \
        "a fingerprint or epoch, or checkpoints migrate across epochs: a verdict" \
        "is identified by its predicates and a checkpoint by the run that holds it" >&2
    exit 1
fi

echo "==> one runtime: every located plan runs on the fragment runtime, walked" \
     "on the caller's thread, so no sequential interpreter, ticking fault" \
     "clock or runtime switch is back, and the runtime neither spawns a" \
     "thread per fragment nor waits for a producer"
if grep -rnE 'SimShip|fn tick|reset_clock|exec_ship_order|pub pipelined' crates/*/src ||
    grep -nE 'thread::scope|Condvar' crates/runtime/src/runtime.rs crates/runtime/src/exchange.rs; then
    echo "a second executor, a ticking fault clock, a runtime switch or a" \
        "threaded fragment walk is back: a located plan has one runtime" >&2
    exit 1
fi

echo "==> one policy identity: a snapshot is its log sequence, an expression" \
     "its log pid and an implication verdict its two predicates, so no pin" \
     "type, chain epoch outside the log, per-snapshot id renumbering or" \
     "id-keyed verdict map is back"
if grep -rnE 'CatalogPin|fn renumbered|live_epoch|tenant_epoch|HashMap<usize, ?bool>' crates/*/src; then
    echo "a second name for policy state is back: snapshots are u64 seqs, a" \
        "materialized catalog keeps the log's pids, and the implication memo" \
        "keys verdicts by (query predicate, expression predicate)" >&2
    exit 1
fi

echo "==> one recovery path: nothing truncates the catalog log, so every" \
     "pinned seq stays materializable, and no compaction, floor snapshot" \
     "or snapshot bootstrap is back"
if grep -rnE 'fn compact|fn bootstrap|CatalogSnapshot|CatalogCompacted|pull_snapshot|CatalogGossip|with_auto_compact' crates/*/src; then
    echo "catalog compaction or snapshot bootstrap is back: the log of record" \
        "is never truncated" >&2
    exit 1
fi

echo "==> one catalog log: a query's pin names a seq of the one log, audited" \
     "per batch where the plan runs, so no replica, chain epoch, sync round," \
     "freshness guard or stale-replica refusal is back"
if grep -rnE 'CatalogReplica|StaleGuard|StaleReplica|CatalogStale|catalog-stale|CatalogHealth|ReplicaHealth|sync_round|sync_full|sync_at|stale_guard|readmit|fn wipe|chain_epoch|genesis_epoch|epoch_at|fn severed|CATALOG_SYNC_SALT' \
    crates/*/src src tests examples; then
    echo "a simulated catalog replica or its freshness plumbing is back: the" \
        "service reads the one log, and revocations reach in-flight queries" \
        "through the churn signal" >&2
    exit 1
fi

echo "==> one revocation path: every service query runs under its pin's" \
     "churn watch, so a revocation aborts it before its next batch leaves" \
     "and it re-plans once inside the run; no job is re-run at completion"
if grep -rnE 'last_revoke_seq|churn_reruns|MAX_CHURN_RERUNS' crates/server/src; then
    echo "the server's completion-time re-run is back: a revocation reaches an" \
        "in-flight query through its churn watch, and each job runs once" >&2
    exit 1
fi

echo "==> one run rule: a plan's mode decides what its run audits, relays" \
     "and checkpoints, and only a fault plan brings the failover preset, so" \
     "above their tests crates/cli/src and crates/server/src neither build" \
     "an empty fault plan nor decide when a statement needs failover"
for f in crates/cli/src/*.rs crates/server/src/*.rs; do
    if sed '/^mod tests/,$d' "$f" | grep -nE 'FaultPlan::new\(|fn controlled|needs_failover'; then
        echo "$f attaches the failover preset to something other than a fault" \
            "plan: a deadline, a cancel token and hedging attach on their own" >&2
        exit 1
    fi
done

echo "==> one link rule: a transfer that fails names a crashed endpoint, which" \
     "re-planning excludes, or only the link, which re-planning avoids, so" \
     "crates/*/src and src/ carry no circuit breaker, no condemnation waiver" \
     "and no blame of a live destination"
if grep -rnE 'breaker|HealthConfig|open_budget|cooldown_steps|waive|culprit\.or_else' \
    crates/*/src src; then
    echo "a second rule for a failed link is back: a link drop is avoided, a" \
        "crash excluded, and hedging alone answers a gray link" >&2
    exit 1
fi

echo "==> round-robin: the service claims the first backlogged tenant below" \
     "max_inflight from the cursor, so above their tests crates/cli/src and" \
     "crates/server/src carry no per-tenant quantum or deficit credit"
for f in crates/cli/src/*.rs crates/server/src/*.rs; do
    if sed '/^mod tests/,$d' "$f" | grep -nE 'quantum|deficit'; then
        echo "$f weighs tenants again: the scheduler is round-robin" >&2
        exit 1
    fi
done

echo "==> one pin rule: a revocation re-pins the query to the catalog head" \
     "visible at the abort step and a refusal there is final, and one owner" \
     "turns a catalog seq into an engine (CatalogService::engine)"
if grep -rnE 'granted_since|grant_retries|grants_rescued|last_grant_retry_seq|live_grant|fn for_engine' \
    crates/*/src src tests examples; then
    echo "the grant retry or a second catalog-service constructor is back: a" \
        "revocation re-pins once, to the head it can see" >&2
    exit 1
fi
if grep -rnF --include='*.rs' 'fork_with_policies(' crates src tests examples |
    grep -v '^crates/core/src/'; then
    echo "an engine at a catalog seq is built by hand outside crates/core/src:" \
        "take it from CatalogService::engine(seq)" >&2
    exit 1
fi

echo "==> one key-to-position map: a join or grouping key becomes a table" \
     "slot only in crates/exec/src/keyed.rs (JoinIndex for a join, Grouping" \
     "for an aggregate), hashed by the fmix64 finalizer or positioned by" \
     "key − min or a dictionary code"
if grep -rnE --include='*.rs' \
    'ff51_?afd7_?ed55_?8ccd|c4ce_?b9fe_?1a85_?ec53|wrapping_sub\((self\.|at\.)?min\)' \
    crates src tests | grep -v '^crates/exec/src/keyed.rs:'; then
    echo "a second place turns keys into table positions: hash or position" \
        "them through crates/exec/src/keyed.rs" >&2
    exit 1
fi

echo "==> aggregates are columns: the columnar aggregate accumulates typed" \
     "per-group vectors and gathers its keys, so above its tests" \
     "crates/exec/src/columnar.rs holds no row accumulator, group list or" \
     "row-built batch (the row engine keeps Accumulator as its oracle)"
if sed '/^mod tests/,$d' crates/exec/src/columnar.rs | grep -nE 'Accumulator|\bGroups\b|from_rows\('; then
    echo "crates/exec/src/columnar.rs accumulates through Accumulator, keeps a" \
        "Groups list or builds a batch from rows again: a group is an id into" \
        "typed vectors, and its output is gathered" >&2
    exit 1
fi

echo "==> masks are truth pairs: a predicate kernel writes one TRUE byte and" \
     "one FALSE byte per row (AND and OR bytewise, NOT a swap), so above its" \
     "tests crates/exec/src/columnar.rs holds no Vec<Option<bool>> and no" \
     "merge_kleene"
if sed '/^mod tests/,$d' crates/exec/src/columnar.rs | grep -nE 'Vec<Option<bool>>|merge_kleene'; then
    echo "crates/exec/src/columnar.rs builds a per-row Option<bool> mask or merges" \
        "masks row by row again: a mask is a truth pair" >&2
    exit 1
fi

echo "==> cargo fmt --check (geoqp crates)"
cargo fmt --check "${pkg_flags[@]}"

echo "==> cargo clippy --all-targets -- -D warnings (geoqp crates)"
cargo clippy "${pkg_flags[@]}" --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (default test-thread schedule)"
cargo test -q

echo "==> tier-1 again, serialized: cargo test -q -- --test-threads=1" \
     "(a verdict that depends on the schedule differs between the two)"
cargo test -q -- --test-threads=1

echo "==> chaos soak x5 at default threads: the twin-determinism checks" \
     "must hold on every schedule the host happens to produce"
for i in 1 2 3 4 5; do
    echo "    chaos_soak pass $i/5"
    cargo test -q --test chaos_soak
done

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark smoke: the benchmark package is its own workspace, so" \
     "nothing above compiles benchmark/src/sut.rs against the engine API"
bash benchmark/run.sh --smoke

echo "==> benchmark gate: the seed-deterministic metrics of tpch_exec at" \
     "seed 2021 must equal scripts/bench_expected.txt exactly (timing is" \
     "never gated: it is a paired comparison made by the PR that claims it)"
bench_out="$(mktemp)"
trap 'rm -f "$bench_out"' EXIT
bash benchmark/run.sh --workload tpch_exec --smoke --seed 2021 >"$bench_out"
bash benchmark/run.sh --workload tpch_exec --smoke --seed 2021 --trace 1 >>"$bench_out"
while read -r name _ want; do
    case "$name" in '' | '#'*) continue ;; esac
    # Every line either run printed for the metric, collapsed: one value.
    got="$(awk -v n="$name" '$1 == n && $2 == "=" { print $3 }' "$bench_out" | sort -u)"
    if [ "$got" != "$want" ]; then
        echo "benchmark gate: $name = ${got:-<not printed>}, expected $want" >&2
        exit 1
    fi
done <scripts/bench_expected.txt

echo "==> benchmark adapter contract: no step above may have touched" \
     "benchmark/ or BENCHMARK.json (run outputs are git-ignored)"
test -z "$(git status --porcelain benchmark BENCHMARK.json)"

echo "==> exec kernels in a release build: span arithmetic near the i64" \
     "bounds has no overflow checks there (release)"
cargo test -q -p geoqp-exec --release

echo "==> columnar differential suite: row vs vectorized engines," \
     "all fault schedules (release)"
cargo test -q -p geoqp-bench --release --test columnar_differential

echo "==> morsel differential suite: 1 vs 2 vs 4 workers per site," \
     "all fault schedules, bit-identical rows/transfers + merge-order" \
     "purity (release)"
cargo test -q -p geoqp-bench --release --test morsel_differential

echo "==> ad-hoc workload differential fuzz: generated queries," \
     "row vs columnar, plus a fault slice" \
     "(GEOQP_ADHOC_N=${GEOQP_ADHOC_N:-200} queries, release)"
GEOQP_ADHOC_N="${GEOQP_ADHOC_N:-200}" \
    cargo test -q -p geoqp-bench --release --test adhoc_differential

echo "==> optimizer search-volume counters in a release build: the same" \
     "committed numbers as the debug run above (release)"
cargo test -q -p geoqp-bench --release --test adhoc_counters

echo "==> generated data digests + resident bytes: every table, through" \
     "generate and through populate, is the recorded data, and a populated" \
     "catalog holds it once, as columns (counting allocator, release)"
cargo test -q -p geoqp-tpch --release --test data_digest --test resident_bytes

echo "==> E12 pinned: the churn grids at seed 2021 serialize to the" \
     "committed BENCH_churn.json byte for byte (release)"
cargo test -q -p geoqp-bench --release --test churn_figure

echo "==> chaos soak: crash/partition + gray degrade/loss + catalog-churn" \
     "variants (fixed seeds, GEOQP_CHAOS_N=${GEOQP_CHAOS_N:-24} schedules each," \
     "odd rounds on the columnar engine with alternating 2/4-worker" \
     "morsel pools; churn round layers mid-query" \
     "revocations on the crash schedules; recovery round adds" \
     "revoke-all + re-grant re-pinned onto the re-grant head and" \
     "duplicate-execution determinism checks)"
GEOQP_CHAOS_N="${GEOQP_CHAOS_N:-24}" cargo test -q --test chaos_soak -- --nocapture

echo "==> line counts (informational, never a gate)"
bash scripts/loc.sh

echo "CI OK"
