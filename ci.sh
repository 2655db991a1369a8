#!/usr/bin/env bash
# CI pipeline, shared verbatim by local runs and .github/workflows/ci.yml.
#
# Usage:
#   ./ci.sh                      # run every stage in order
#   ./ci.sh --stage <name>       # run one stage (what the workflow matrix does)
#   ./ci.sh --list               # list stage names
#
# Stages:
#   build          cargo build --release (whole workspace)
#   test           tier-1 root-crate tests, then the whole workspace
#   lint           clippy with -D warnings across all targets
#   fmt            cargo fmt --check (no formatting drift)
#   docs           cargo doc --workspace --no-deps warning-free for our
#                  crates (offline, vendor/ excluded) + README
#                  quick-start commands cross-checked against --help
#   figures-smoke  figures driver smoke: registry, TOML round-trip, JSON,
#                  churned-family execution (mobility-churn reload)
#   shard-smoke    3-way shard -> merge -> zero-tolerance scenario_diff
#                  against the unsharded run (bit-identity gate)
#   golden         re-run the fig6b smoke scenario and scenario_diff it
#                  against the committed golden/fig6b_smoke.json at zero
#                  tolerance (cross-version conformance gate)
#   fault-smoke    scenario_run under an injected crash/stall/corrupt
#                  fault plan, a halt -> resume leg, a forced partial
#                  merge and a process-worker leg, each checked against
#                  the golden archive or the degradation contract
#   anytime-smoke  tabu-budget sweep (planning-pareto): threads {1,8}
#                  bit-identity, cover cost monotone non-increasing in
#                  budget, zero-tolerance diff vs golden/anytime_smoke.json
#   service-smoke  groupingd event-log replay: JSONL serve transcript
#                  diffed against golden/service_smoke.json at zero
#                  tolerance, a snapshot -> restore -> continue leg that
#                  must reproduce the transcript tail, and an empty-fleet
#                  leg: a never-populated log and an emptied fleet under
#                  staleness:0.5 must serve zero-transmission plans
#   weighted-smoke airtime-weighted cover: reduced weighted-airtime point
#                  at threads {1,8} (bit-identity), then zero-tolerance
#                  diff against golden/weighted_smoke.json
#   bench-gate     bench_report --compare against BENCH_baseline.json (a
#                  baseline stage or derived key the report lacks fails
#                  even under --warn-only; the anchor_instance sizes are
#                  pinned)
#   massive-smoke  scale tier: reduced 10^5-device massive-n point diffed
#                  against golden/massive_smoke.json at zero tolerance
#                  (summary-level only; the archive guard is exercised
#                  too), plus the bench_report massive stages, the
#                  po_queries stage's PO counts and an 80 MB peak-RSS
#                  ceiling on two parallel 10^5-device items
#   nightly        full paper-suite scenario diffed summary-level against
#                  golden/paper_suite.json at zero tolerance
#   perfbench-smoke build the benchmark of record (perfbench/, its own
#                  workspace, --locked) and run each of its workloads for
#                  0.1 s; each must report "correct": true and no failed
#                  call
#
# Extra stages outside the per-PR matrix (dispatch with --stage):
#   base-diff      rebuild the fig6b smoke archive on the PR head AND on
#                  the merge-base revision, scenario_diff --json between
#                  them into $CI_ARTIFACT_DIR; metric drift is
#                  report-only, only structural mismatch fails
#
# Artifacts (merged smoke archive, bench report) land in $CI_ARTIFACT_DIR
# when set (the workflow uploads them), otherwise in a temp directory.
set -euo pipefail
cd "$(dirname "$0")"

STAGES=(build test lint fmt docs figures-smoke shard-smoke golden fault-smoke anytime-smoke service-smoke weighted-smoke bench-gate massive-smoke nightly perfbench-smoke)

ARTIFACT_DIR="${CI_ARTIFACT_DIR:-}"
if [[ -z "$ARTIFACT_DIR" ]]; then
    ARTIFACT_DIR="$(mktemp -d /tmp/nbiot_ci.XXXXXX)"
fi
mkdir -p "$ARTIFACT_DIR"

SCRATCH="$(mktemp -d /tmp/nbiot_ci_scratch.XXXXXX)"
trap 'rm -rf "$SCRATCH"' EXIT

run_figures() {
    cargo run --release -q -p nbiot-bench --bin figures -- "$@"
}

stage_build() {
    echo "==> cargo build --release --workspace"
    cargo build --release --workspace
}

stage_test() {
    echo "==> cargo test -q (tier-1: root crate)"
    cargo test -q
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q
}

stage_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_fmt() {
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
}

stage_docs() {
    echo "==> cargo doc --workspace --no-deps (offline, warnings denied)"
    # Every crate of ours; the vendored stand-ins under vendor/ are not
    # ours to document (vendor/proptest has a warning of its own).
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
        --exclude rand --exclude serde --exclude serde_derive --exclude serde_json \
        --exclude proptest
    echo "==> README quick-start commands vs --help"
    # The README's fenced sh blocks are the quick-start contract: every
    # long flag they pass to an nbiot-bench binary must be documented by
    # that binary's --help, and every pipeline stage must be mentioned in
    # the README. Backslash continuations are joined and the shard
    # example's "${figures[@]}" alias expanded first.
    local cmds="$SCRATCH/readme_cmds" fail=0
    awk '/^```sh$/{f=1;next} /^```$/{f=0} f' README.md \
        | sed -e ':a' -e '/\\$/{N;s/\\\n//;ba}' \
        | sed 's/"\${figures\[@\]}"/cargo run --release -q -p nbiot-bench --bin figures --/' \
        > "$cmds"
    local src bin help flags flag
    for src in crates/bench/src/bin/*.rs; do
        bin="$(basename "$src" .rs)"
        grep -Eq -- "--bin $bin( |\$)" "$cmds" || continue
        help="$(cargo run --release -q -p nbiot-bench --bin "$bin" -- --help 2>&1 || true)"
        # A binary may appear with no flags at all (grep then exits 1
        # under pipefail, which is not a failure here).
        flags="$(sed -n "s/.*--bin $bin *-- //p" "$cmds" | { grep -o -- '--[a-z][a-z-]*' || true; } | sort -u)"
        for flag in $flags; do
            if ! grep -q -- "$flag" <<< "$help"; then
                echo "README uses \`$flag\` with \`$bin\`, but \`$bin --help\` does not document it" >&2
                fail=1
            fi
        done
    done
    local s
    for s in "${STAGES[@]}"; do
        if ! grep -q "$s" README.md; then
            echo "ci.sh stage \`$s\` is not mentioned in README.md" >&2
            fail=1
        fi
    done
    [[ "$fail" -eq 0 ]]
    echo "docs smoke OK (rustdoc clean, README commands match --help)"
}

stage_figures_smoke() {
    echo "==> figures --scenario smoke (named scenario + TOML file round-trip)"
    local scn="$SCRATCH/figures_smoke.toml"
    run_figures --list > /dev/null
    run_figures --scenario fig6a --dump toml > "$scn"
    # The dumped template must load back and execute with CLI overrides.
    run_figures --scenario "$scn" --runs 2 --devices 30 --threads 2 > /dev/null
    run_figures --scenario bursty-alarm --runs 2 --devices 30 --json > /dev/null
    # The churn family end-to-end, including the dumped-TOML reload path
    # (ChurnModel + RegroupPolicy must survive the TOML subset).
    local churn_scn="$SCRATCH/mobility_churn_smoke.toml"
    run_figures --scenario mobility-churn --dump toml > "$churn_scn"
    run_figures --scenario "$churn_scn" --runs 2 --devices 30 --threads 2 > /dev/null
    run_figures --scenario handover-storm --runs 2 --devices 25 --json > /dev/null
    echo "figures smoke OK"
}

stage_shard_smoke() {
    echo "==> shard smoke: 3-way shard -> merge -> zero-tolerance diff vs unsharded"
    # Same workload either way; any delta at all fails the diff (and CI).
    local args=(--scenario fig6b --runs 3 --devices 40 --threads 2)
    for i in 0 1 2; do
        run_figures "${args[@]}" --shard "$i/3" --emit-archive "$SCRATCH/shard$i.json"
    done
    run_figures "${args[@]}" --emit-archive "$SCRATCH/unsharded.json" > /dev/null
    cargo run --release -q -p nbiot-bench --bin scenario_merge -- \
        --out "$ARTIFACT_DIR/smoke_scenario_archive.json" \
        "$SCRATCH"/shard{0,1,2}.json > /dev/null
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- \
        "$ARTIFACT_DIR/smoke_scenario_archive.json" "$SCRATCH/unsharded.json"
    echo "shard smoke OK (merged archive bit-identical to the unsharded run)"
}

stage_golden() {
    echo "==> golden: fig6b smoke vs committed golden archive (zero tolerance)"
    # The committed golden archive locks the exact numeric output of the
    # fig6b smoke workload. Any change that moves a single bit of any
    # summary — engine, kernels, RNG streams, fold order — fails here
    # until the golden is regenerated deliberately:
    #   cargo run --release -q -p nbiot-bench --bin figures -- \
    #       --scenario fig6b --runs 3 --devices 40 --threads 2 \
    #       --emit-archive golden/fig6b_smoke.json
    local fresh="$SCRATCH/golden_fresh.json"
    run_figures --scenario fig6b --runs 3 --devices 40 --threads 2 \
        --emit-archive "$fresh" > /dev/null
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- \
        golden/fig6b_smoke.json "$fresh"
    echo "golden OK (fresh run bit-identical to golden/fig6b_smoke.json)"
}

stage_fault_smoke() {
    echo "==> fault smoke: supervised scenario_run under injected faults vs golden"
    # The process-worker leg re-invokes the figures binary; build it once
    # up front (cargo run --bin scenario_run alone would not).
    cargo build --release -q -p nbiot-bench
    local run=(cargo run --release -q -p nbiot-bench --bin scenario_run --)
    local diff=(cargo run --release -q -p nbiot-bench --bin scenario_diff --)
    local args=(--scenario fig6b --runs 3 --devices 40 --threads 2)
    local rc

    # Leg 1: every injected fault kind on the golden smoke workload —
    # crash mid-shard, a stall past the timeout, a corrupted checkpoint
    # write and a transient spawn failure. The retries must recover and
    # the merged archive must be bit-identical to the committed golden.
    cat > "$SCRATCH/faults.json" <<'EOF'
{ "rules": [
    { "shard": 0, "attempt": 1, "kind": { "Crash": { "after_items": 1 } } },
    { "shard": 1, "attempt": 1, "kind": "Stall" },
    { "shard": 1, "attempt": 2, "kind": "SpawnFailure" },
    { "shard": 2, "attempt": 1, "kind": "CorruptWrite" }
] }
EOF
    "${run[@]}" "${args[@]}" --shards 3 --run-dir "$SCRATCH/ft_run" \
        --fault-plan "$SCRATCH/faults.json" --timeout-ms 5000 --backoff-ms 0 \
        --out "$ARTIFACT_DIR/fault_smoke_archive.json" > /dev/null
    "${diff[@]}" golden/fig6b_smoke.json "$ARTIFACT_DIR/fault_smoke_archive.json"
    echo "fault smoke leg 1 OK (crash/stall/corrupt/spawn-failure plan recovered)"

    # Leg 2: kill after one completed shard (exit 4), resume from the
    # same run directory, and still land on the golden bit pattern.
    rc=0
    "${run[@]}" "${args[@]}" --shards 3 --run-dir "$SCRATCH/halt_run" \
        --halt-after 1 > /dev/null || rc=$?
    [[ "$rc" -eq 4 ]] || { echo "expected halt exit 4, got $rc" >&2; return 1; }
    "${run[@]}" "${args[@]}" --shards 3 --run-dir "$SCRATCH/halt_run" \
        --out "$SCRATCH/resumed.json" > /dev/null
    "${diff[@]}" golden/fig6b_smoke.json "$SCRATCH/resumed.json"
    echo "fault smoke leg 2 OK (halt -> resume bit-identical)"

    # Leg 3: a shard that fails every attempt must degrade (exit 3) to a
    # coverage-annotated partial archive naming exactly that shard.
    cat > "$SCRATCH/always_fail.json" <<'EOF'
{ "rules": [
    { "shard": 1, "attempt": 1, "kind": "SpawnFailure" },
    { "shard": 1, "attempt": 2, "kind": "SpawnFailure" },
    { "shard": 1, "attempt": 3, "kind": "SpawnFailure" }
] }
EOF
    rc=0
    "${run[@]}" "${args[@]}" --shards 3 --run-dir "$SCRATCH/partial_run" \
        --fault-plan "$SCRATCH/always_fail.json" --backoff-ms 0 \
        --allow-partial > /dev/null || rc=$?
    [[ "$rc" -eq 3 ]] || { echo "expected degraded exit 3, got $rc" >&2; return 1; }
    grep -q '"coverage"' "$SCRATCH/partial_run/partial.json"
    grep -q '"missing"' "$SCRATCH/partial_run/partial.json"
    # ...and the partial archive must refuse to fold into figure tables.
    rc=0
    "${diff[@]}" "$SCRATCH/partial_run/partial.json" \
        "$SCRATCH/partial_run/partial.json" 2> /dev/null || rc=$?
    [[ "$rc" -ne 0 ]] || { echo "partial archive folded; it must refuse" >&2; return 1; }
    echo "fault smoke leg 3 OK (exhausted retries degrade to annotated partial)"

    # Leg 4: process workers — each shard a supervised child re-invoking
    # the figures binary — must also land on the golden bit pattern.
    "${run[@]}" "${args[@]}" --shards 2 --run-dir "$SCRATCH/proc_run" \
        --workers process \
        --figures-bin "${CARGO_TARGET_DIR:-target}/release/figures" \
        --out "$SCRATCH/proc_merged.json" > /dev/null
    "${diff[@]}" golden/fig6b_smoke.json "$SCRATCH/proc_merged.json"
    echo "fault smoke OK (all four legs)"
}

stage_anytime_smoke() {
    echo "==> anytime smoke: tabu budget sweep (monotone cover cost, thread bit-identity, golden)"
    # The committed golden locks the exact archive of the planning-pareto
    # smoke workload (the anytime tabu budget ladder over one DR-SC
    # instance family). Regenerate deliberately with:
    #   cargo run --release -q -p nbiot-bench --bin figures -- \
    #       --scenario planning-pareto --runs 2 --devices 1000 --threads 1 \
    #       --emit-archive golden/anytime_smoke.json
    local args=(--scenario planning-pareto --runs 2 --devices 1000)
    local t1="$SCRATCH/anytime_t1.json" t8="$SCRATCH/anytime_t8.json"
    local report="$SCRATCH/anytime_report.txt"

    # Leg 1: the anytime search is deterministic at every thread count —
    # the budget knob is iterations, never wall-clock.
    run_figures "${args[@]}" --threads 1 --emit-archive "$t1" > "$report"
    run_figures "${args[@]}" --threads 8 --emit-archive "$t8" > /dev/null
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- "$t1" "$t8"
    echo "anytime smoke leg 1 OK (threads 1 and 8 bit-identical)"

    # Leg 2: the anytime contract — mean cover cost is monotone
    # non-increasing as the tabu budget grows (scenario mechanism order
    # is the budget ladder; the budget-0 row is the greedy anchor).
    # Reads the "cover final" column (field 6) of the Pareto table; the
    # transmissions table's tabu rows have fewer fields and are skipped.
    awk '/DR-SC-tabu\(/ && NF == 8 {
             cost = $6 + 0
             if (prev != "" && cost > prev + 1e-9) {
                 printf "cover cost rose with budget: %s -> %s at %s\n", prev, cost, $2 > "/dev/stderr"
                 exit 1
             }
             prev = cost
         }' "$report"
    echo "anytime smoke leg 2 OK (cover cost monotone non-increasing in budget)"

    # Leg 3: zero-tolerance conformance against the committed golden.
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- \
        golden/anytime_smoke.json "$t1"
    echo "anytime smoke OK (fresh sweep bit-identical to golden/anytime_smoke.json)"
}

stage_service_smoke() {
    echo "==> service smoke: groupingd replay vs golden transcript (zero tolerance)"
    # The committed golden locks the exact JSONL serve transcript of the
    # smoke event log (one line per served campaign plus the summary
    # line) under the repair policy. Any change to the service engine,
    # repair kernels, or RNG serve streams fails here until the golden is
    # regenerated deliberately:
    #   cargo run --release -q -p nbiot-bench --bin groupingd -- --synth \
    #       --mix mobility-churn --devices 80 --epochs 6 --mechanism dr-sc \
    #       --seed 42 --emit-events "$SCRATCH/service_events.json"
    #   cargo run --release -q -p nbiot-bench --bin groupingd -- \
    #       --events "$SCRATCH/service_events.json" --policy repair \
    #       --seed 42 > golden/service_smoke.json
    local d=(cargo run --release -q -p nbiot-bench --bin groupingd --)
    local events="$SCRATCH/service_events.json"
    "${d[@]}" --synth --mix mobility-churn --devices 80 --epochs 6 \
        --mechanism dr-sc --seed 42 --emit-events "$events" 2> /dev/null
    "${d[@]}" --events "$events" --policy repair --seed 42 > "$SCRATCH/service_full.jsonl"
    diff -u golden/service_smoke.json "$SCRATCH/service_full.jsonl"
    echo "service smoke leg 1 OK (replay bit-identical to golden/service_smoke.json)"

    # Leg 2: snapshot -> restore -> continue. A checkpoint written ~60%
    # through the log must resume into exactly the tail of the
    # uninterrupted transcript (the replay-equivalence contract).
    local records every
    records="$(grep -c '"epoch"' "$events")"
    every=$(( records * 3 / 5 ))
    "${d[@]}" --events "$events" --policy repair --seed 42 \
        --snapshot-every "$every" --snapshot-out "$SCRATCH/service_snap.json" > /dev/null
    "${d[@]}" --events "$events" --policy repair --seed 42 \
        --restore "$SCRATCH/service_snap.json" > "$SCRATCH/service_resumed.jsonl"
    tail -n "$(wc -l < "$SCRATCH/service_resumed.jsonl")" "$SCRATCH/service_full.jsonl" \
        | diff -u - "$SCRATCH/service_resumed.jsonl"
    echo "service smoke leg 2 OK (restore-midway transcript matches the uninterrupted tail)"

    # Leg 3: an empty fleet is an ordinary state. A log that never
    # registers a device replays with exit 0, and every serve plans no
    # transmission. A fleet that every device leaves is wholly stale, so
    # the staleness policy re-plans it: every serve after the first
    # transmits nothing.
    local empty="$SCRATCH/service_empty_events.json"
    "${d[@]}" --synth --devices 0 --epochs 2 --emit-events "$empty" 2> /dev/null
    "${d[@]}" --events "$empty" > "$SCRATCH/service_empty.jsonl"
    local serves
    serves="$(grep -c '"serve"' "$SCRATCH/service_empty.jsonl")"
    if [[ "$serves" -ne 3 ]] \
        || grep '"serve"' "$SCRATCH/service_empty.jsonl" \
            | grep -qv '"devices":0,"transmissions":0'; then
        echo "empty-fleet replay did not serve three zero-transmission plans:" >&2
        cat "$SCRATCH/service_empty.jsonl" >&2
        exit 1
    fi
    local emptied="$SCRATCH/service_emptied_events.json"
    "${d[@]}" --synth --devices 5 --epochs 3 --departure-rate 1.0 --arrival-rate 0 \
        --emit-events "$emptied" 2> /dev/null
    "${d[@]}" --events "$emptied" --policy staleness:0.5 > "$SCRATCH/service_emptied.jsonl"
    serves="$(grep -c '"serve"' "$SCRATCH/service_emptied.jsonl")"
    if [[ "$serves" -ne 4 ]] \
        || grep '"serve"' "$SCRATCH/service_emptied.jsonl" | tail -n +2 \
            | grep -qv '"devices":0,"transmissions":0'; then
        echo "emptied-fleet replay under staleness:0.5 kept transmitting to nobody:" >&2
        cat "$SCRATCH/service_emptied.jsonl" >&2
        exit 1
    fi
    echo "service smoke OK (all three legs)"
}

stage_nightly() {
    echo "==> nightly: full paper-suite vs committed golden (summary-level, zero tolerance)"
    # The full-suite gate: the complete paper-suite scenario (every
    # payload, default run count) must reproduce the committed summary
    # bit-for-bit. Summary-level like the massive gate — the raw archive
    # of the full suite is large and adds nothing over the folded
    # summaries. Regenerate deliberately with:
    #   cargo run --release -q -p nbiot-bench --bin figures -- \
    #       --scenario paper-suite --json > golden/paper_suite.json
    local fresh="$SCRATCH/paper_suite_fresh.json"
    run_figures --scenario paper-suite --json > "$fresh"
    diff -u golden/paper_suite.json "$fresh"
    echo "nightly OK (full paper-suite summary bit-identical to golden/paper_suite.json)"
}

stage_base_diff() {
    echo "==> base-vs-PR diff: fig6b smoke archive on PR head vs merge-base"
    local base_ref="${BASE_REF:-origin/main}"
    local base_sha=""
    base_sha="$(git merge-base HEAD "$base_ref" 2>/dev/null || true)"
    if [[ -z "$base_sha" ]]; then
        base_sha="$(git rev-parse HEAD~1 2>/dev/null || true)"
    fi
    if [[ -z "$base_sha" ]]; then
        echo "base-diff skipped (no base revision reachable from HEAD)"
        return 0
    fi
    local args=(--scenario fig6b --runs 3 --devices 40 --threads 2)
    run_figures "${args[@]}" --emit-archive "$SCRATCH/head_archive.json" > /dev/null

    # The base archive is produced by the base revision's own binary, in
    # a detached worktree with its own target dir (the head target cache
    # stays untouched).
    git worktree add --detach "$SCRATCH/base_tree" "$base_sha" > /dev/null 2>&1
    (cd "$SCRATCH/base_tree" && \
        CARGO_TARGET_DIR="$SCRATCH/base_target" \
        cargo run --release -q -p nbiot-bench --bin figures -- \
            "${args[@]}" --emit-archive "$SCRATCH/base_archive.json" > /dev/null)
    git worktree remove --force "$SCRATCH/base_tree" > /dev/null 2>&1 || true

    # A deliberate archive-schema bump makes the two artifacts
    # incomparable by this build's loader; that change is gated by the
    # golden stages, so the cross-revision diff reports and steps aside
    # instead of blocking every schema-migration PR.
    local head_schema base_schema
    head_schema="$(grep -o '"schema_version"[: ]*[0-9]*' "$SCRATCH/head_archive.json" | head -1)"
    base_schema="$(grep -o '"schema_version"[: ]*[0-9]*' "$SCRATCH/base_archive.json" | head -1)"
    local out="$ARTIFACT_DIR/base_vs_pr_diff.json"
    if [[ "$head_schema" != "$base_schema" ]]; then
        printf '{ "skipped": "archive schema changed between base and head (%s vs %s)" }\n' \
            "${base_schema##* }" "${head_schema##* }" > "$out"
        echo "base-diff OK (schema bump ${base_schema##* } -> ${head_schema##* }; diff skipped, see golden stages)"
        return 0
    fi

    # Metric drift between revisions is the artifact's payload
    # (report-only); only a structural mismatch — the candidate no longer
    # measuring what the base measured — fails the job.
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- \
        --json --structural-only \
        "$SCRATCH/base_archive.json" "$SCRATCH/head_archive.json" > "$out"
    echo "base-diff OK (diff artifact at $out; structure matches base $base_sha)"
}

stage_weighted_smoke() {
    echo "==> weighted smoke: airtime-weighted cover vs golden (thread bit-identity, zero tolerance)"
    # The committed golden locks the exact archive of the reduced
    # weighted-airtime point: DR-SC and DR-SC-weighted side by side on the
    # heterogeneous CE0/CE1/CE2 mix, including the `plan_airtime_ms` and
    # `airtime_vs_count_ratio` summaries. Any change to the weighted
    # kernel's ratio key, tie law, or the best-of-two fallback fails here
    # until the golden is regenerated deliberately:
    #   cargo run --release -q -p nbiot-bench --bin figures -- \
    #       --scenario weighted-airtime --runs 2 --devices 60 --threads 1 \
    #       --emit-archive golden/weighted_smoke.json
    local args=(--scenario weighted-airtime --runs 2 --devices 60)
    local t1="$SCRATCH/weighted_t1.json" t8="$SCRATCH/weighted_t8.json"

    # Leg 1: the weighted cover is deterministic at every thread count —
    # the fixed-point ratio key is the tie law, never scheduling order.
    run_figures "${args[@]}" --threads 1 --emit-archive "$t1" > /dev/null
    run_figures "${args[@]}" --threads 8 --emit-archive "$t8" > /dev/null
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- "$t1" "$t8"
    echo "weighted smoke leg 1 OK (threads 1 and 8 bit-identical)"

    # Leg 2: zero-tolerance conformance against the committed golden.
    cargo run --release -q -p nbiot-bench --bin scenario_diff -- \
        golden/weighted_smoke.json "$t1"
    echo "weighted smoke OK (fresh run bit-identical to golden/weighted_smoke.json)"
}

stage_bench_gate() {
    echo "==> bench gate: bench_report --compare vs BENCH_baseline.json"
    # The committed baseline was measured on the *full* default workload.
    # Strict mode therefore measures the full workload too — a gate
    # comparing a tiny smoke run against the full baseline could never
    # flag a regression in the workload-scaled stages. The default
    # (non-strict) mode keeps CI fast with a tiny run and --warn-only:
    # on the 1-core shared container wall-clock ratios are untrustworthy
    # anyway (per ROADMAP), and the fixed-size kernel stages still get a
    # meaningful look. Flip BENCH_GATE_STRICT=1 on dedicated hardware.
    local gate_flags=(--compare BENCH_baseline.json --tolerance-pct "${BENCH_TOLERANCE_PCT:-25}")
    local workload_flags=(--runs 2 --devices 40 --massive-devices 20000)
    if [[ "${BENCH_GATE_STRICT:-0}" == "1" ]]; then
        workload_flags=() # full default workload, matching the baseline
    else
        gate_flags+=(--warn-only)
    fi
    # ${arr[@]+...} keeps the empty strict-mode array safe under `set -u`
    # on bash < 4.4 (macOS ships 3.2). bench_report writes the report
    # before it gates, so a failing gate still gets the report checks
    # below, and its status is the stage's.
    local gate_rc=0
    cargo run --release -q -p nbiot-bench --bin bench_report -- \
        ${workload_flags[@]+"${workload_flags[@]}"} \
        --out "$ARTIFACT_DIR/BENCH_results.json" \
        "${gate_flags[@]}" > /dev/null || gate_rc=$?
    test -s "$ARTIFACT_DIR/BENCH_results.json"
    # The shared-input DR-SC family stage is what the derived
    # dr_sc_family_sharing_ratio reads; a report without it is broken.
    grep -q '"plan_dr_sc_family"' "$ARTIFACT_DIR/BENCH_results.json" \
        || { echo "bench report lacks stage plan_dr_sc_family" >&2; return 1; }
    # The anchor_instance stage carries the instance's deterministic size
    # and asserts that its device → window runs expand to the windows. The
    # sizes are pinned for both workloads: a change means the instance or
    # its index moved.
    grep -q '"anchor_instance"' "$ARTIFACT_DIR/BENCH_results.json" \
        || { echo "bench report lacks stage anchor_instance" >&2; return 1; }
    local sizes expected
    sizes=$(grep -A 12 '"name": "anchor_instance"' "$ARTIFACT_DIR/BENCH_results.json" \
        | grep -Eo '"(anchors|windows|entries_before_dedup|entries_after_dedup|index_entries|index_runs)": [0-9]+' \
        | tr '\n' ' ')
    expected='"anchors": 7724 "windows": 119 "entries_before_dedup": 31612 "entries_after_dedup": 585 "index_entries": 585 "index_runs": 161 '
    if [[ "${BENCH_GATE_STRICT:-0}" == "1" ]]; then
        expected='"anchors": 109546 "windows": 13249 "entries_before_dedup": 7317899 "entries_after_dedup": 895605 "index_entries": 895605 "index_runs": 24594 '
    fi
    [[ "$sizes" == "$expected" ]] \
        || { echo "anchor_instance sizes moved: $sizes" >&2; return 1; }
    echo "bench report written to $ARTIFACT_DIR/BENCH_results.json:"
    grep -A4 '"derived"' "$ARTIFACT_DIR/BENCH_results.json"
    [[ "$gate_rc" -eq 0 ]] || echo "bench gate failed (exit $gate_rc); the report checks passed" >&2
    return "$gate_rc"
}

stage_massive_smoke() {
    echo "==> massive smoke: reduced 10^5-device massive-n point vs golden (zero tolerance)"
    # The committed golden locks the exact summary JSON of the reduced
    # massive-n point (10^5 devices; the full scenario's second point is
    # 10^6 and stays out of CI). Summary-level only by design: a raw
    # archive at this scale is refused by the figures driver, which leg 2
    # checks. Regenerate the golden deliberately with:
    #   cargo run --release -q -p nbiot-bench --bin figures -- \
    #       --scenario massive-n --devices 100000 --runs 1 --threads 2 \
    #       --json > golden/massive_smoke.json
    local fresh="$SCRATCH/massive_fresh.json"
    run_figures --scenario massive-n --devices 100000 --runs 1 --threads 2 \
        --json > "$fresh"
    diff -u golden/massive_smoke.json "$fresh"
    echo "massive smoke leg 1 OK (summary bit-identical to golden/massive_smoke.json)"

    # Leg 2: the archive guard — raw per-run records above the device
    # limit must be refused with a usage error (exit 2), not written.
    local rc=0
    run_figures --scenario massive-n --emit-archive "$SCRATCH/refused.json" \
        2> /dev/null || rc=$?
    [[ "$rc" -eq 2 ]] || { echo "expected archive-guard exit 2, got $rc" >&2; return 1; }
    [[ ! -e "$SCRATCH/refused.json" ]] || { echo "refused archive was written" >&2; return 1; }
    echo "massive smoke leg 2 OK (raw archive above the device limit refused)"

    # Leg 3: the bench_report massive stages at a reduced 10^5 point.
    # Warn-only against the committed baseline: the baseline's massive
    # stages were measured at the full 10^6 default, so only stage
    # presence and completion are hard-gated here (the full comparison is
    # the bench-gate stage's job).
    local report="$ARTIFACT_DIR/massive_bench_results.json"
    cargo run --release -q -p nbiot-bench --bin bench_report -- \
        --runs 2 --devices 40 --massive-devices 100000 \
        --compare BENCH_baseline.json --tolerance-pct "${BENCH_TOLERANCE_PCT:-25}" \
        --warn-only --out "$report" > /dev/null
    local s
    for s in massive_instance_generation set_cover_massive_incremental plan_validate \
             campaign_massive window_cover_massive po_queries; do
        grep -q "\"$s" "$report" || { echo "bench report lacks stage $s" >&2; return 1; }
    done
    # The fleet's PO counts are deterministic: DR-SI's devices with a PO in
    # [t - TI, t) and the engine's monitored POs over its horizon. A change
    # here means a paging occasion moved.
    local counts
    counts=$(grep -A 6 '"name": "po_queries"' "$report" \
        | grep -Eo '"(po_in_window|pos_monitored)": [0-9]+' | tr '\n' ' ')
    [[ "$counts" == '"po_in_window": 220 "pos_monitored": 433434 ' ]] \
        || { echo "po_queries counts moved: $counts" >&2; return 1; }
    # Plan validation is timed for each of DR-SC, DA-SC and DR-SI.
    local rows
    rows=$(grep -c '"name": "plan_validate"' "$report" || true)
    [[ "$rows" -eq 3 ]] || { echo "expected 3 plan_validate rows, got $rows" >&2; return 1; }
    # The window cover runs on schedule classes: its detail counts them.
    for s in classes class_events; do
        grep -q "\"$s\"" "$report" || { echo "window_cover_massive lacks $s" >&2; return 1; }
    done

    # Leg 4: memory of the massive tier. A grid item keeps population
    # sums, not per-device ledgers, and one plan at a time: two parallel
    # 10^5-device items peak near 57 MB, against about 110 MB when every
    # plan and ledger of an item stayed alive. The built binary runs
    # directly, since cargo's own RSS would count under `cargo run`.
    cargo build --release -q -p nbiot-bench --bin figures
    python3 - "${CARGO_TARGET_DIR:-target}/release/figures" <<'PY'
import resource, subprocess, sys

subprocess.run(
    [sys.argv[1], "--scenario", "massive-n", "--devices", "100000",
     "--runs", "2", "--threads", "2", "--json"],
    stdout=subprocess.DEVNULL, check=True,
)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"massive smoke leg 4: figures peak RSS {peak_mb:.1f} MB (limit 80 MB)")
sys.exit(0 if peak_mb <= 80 else 1)
PY
    echo "massive smoke OK (all four legs)"
}

stage_perfbench_smoke() {
    echo "==> perfbench smoke: build the benchmark of record, run each workload briefly"
    # perfbench/ is its own workspace on the crates' public API, so no
    # other stage compiles it; an API change that breaks it fails here.
    # --locked keeps perfbench/Cargo.lock as it is.
    local target="target/perfbench" w
    CARGO_TARGET_DIR="$target" cargo build --release --offline --locked -q \
        --manifest-path perfbench/Cargo.toml
    for w in paper-grid metering-100k service-churn; do
        "$target/release/perfbench" --workload "$w" --seed 1 --seconds 0.1 --trace 1 \
            --trace-dir "$SCRATCH"/traces > "$SCRATCH/perfbench_$w.json"
        # The last stdout line is the result, as in massive-smoke's leg 4.
        python3 - "$w" "$SCRATCH/perfbench_$w.json" <<'PY'
import json, sys

workload, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    result = json.loads(f.read().strip().splitlines()[-1])
correct, failed = result.get("correct"), result.get("failed")
print(f"perfbench {workload}: correct {correct}, failed {failed} "
      f"of {result.get('attempted')}")
sys.exit(0 if correct is True and failed == 0 else 1)
PY
    done
    echo "perfbench smoke OK (three workloads)"
}

run_stage() {
    case "$1" in
        build)         stage_build ;;
        test)          stage_test ;;
        lint)          stage_lint ;;
        fmt)           stage_fmt ;;
        docs)          stage_docs ;;
        figures-smoke) stage_figures_smoke ;;
        shard-smoke)   stage_shard_smoke ;;
        golden)        stage_golden ;;
        fault-smoke)   stage_fault_smoke ;;
        anytime-smoke) stage_anytime_smoke ;;
        service-smoke) stage_service_smoke ;;
        weighted-smoke) stage_weighted_smoke ;;
        bench-gate)    stage_bench_gate ;;
        massive-smoke) stage_massive_smoke ;;
        nightly)       stage_nightly ;;
        perfbench-smoke) stage_perfbench_smoke ;;
        base-diff)     stage_base_diff ;;
        *)
            echo "unknown stage '$1'; stages: ${STAGES[*]}" >&2
            exit 2
            ;;
    esac
}

case "${1:-}" in
    --stage)
        [[ $# -ge 2 ]] || { echo "--stage needs a name; stages: ${STAGES[*]}" >&2; exit 2; }
        run_stage "$2"
        ;;
    --list)
        printf '%s\n' "${STAGES[@]}"
        ;;
    --help|-h)
        sed -n '2,64p' "$0" | sed 's/^# \{0,1\}//'
        ;;
    "")
        for stage in "${STAGES[@]}"; do
            run_stage "$stage"
        done
        echo "==> CI OK"
        ;;
    *)
        echo "unknown argument '$1'; use --stage <name>, --list or no argument" >&2
        exit 2
        ;;
esac
