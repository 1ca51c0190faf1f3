#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
# --locked here and on the workspace tests: a manifest edit that leaves
# Cargo.lock stale fails the gate instead of being rewritten silently.
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== benchmark compile (the repository benchmark is its own workspace) =="
# crates/bench/examples/vscc_benchmark builds against the library crates'
# public API but sits outside this workspace, so nothing above compiles it.
# Check it here, early, so a public-API deletion it depends on fails fast
# instead of at the benchmark smoke near the end.
cargo check --offline --manifest-path crates/bench/examples/vscc_benchmark/Cargo.toml

echo "== benchmark unit tests (metric table, BENCHMARK.json agreement, comparison rules) =="
# The benchmark's own tests, including the check that BENCHMARK.json
# agrees with its metric table; the workspace test stage never runs them.
cargo test -q --offline --manifest-path crates/bench/examples/vscc_benchmark/Cargo.toml

echo "== cargo doc (deny warnings: no dangling or private intra-doc links) =="
# --document-private-items also checks the links in private items' docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --document-private-items

echo "== cargo bench --no-run (figure/table harnesses must keep building) =="
cargo bench --workspace --no-run

echo "== cargo test =="
cargo test --locked --workspace -q

echo "== chaos smoke (fixed-seed fault plan, recovery end to end) =="
cargo test -q --test chaos smoke_fixed_seed

echo "== heal-and-repromote smoke (storm-then-quiet must end re-promoted) =="
# A seeded ack-loss storm demotes the pair; once the plan goes quiet the
# canary probes must earn it back: promotions > 0, zero pairs still
# demoted at exit, and the audited rerun byte-identical (DESIGN.md §5h).
cargo test -q --test chaos demoted_pair_heals_after_the_storm_ends

echo "== figure stdout goldens (release: every figure/table target's stdout equals its golden) =="
# One golden per entry of vscc_bench::FIGURES (tests/figures.rs checks the
# two correspond). Each target also panics if a headline check fails.
# The debug test suite skips the slow entries (fig7 alone takes about
# 30 s on a 2-vCPU host); this stage runs them all. The run must be
# clean: an env plan or export adds banner lines and skips the checks.
(
    for v in $(compgen -e | grep '^VSCC_' || true); do unset "$v"; done
    for golden in tests/goldens/*_stdout.txt; do
        target="$(basename "$golden" _stdout.txt)"
        cargo bench -q -p vscc-bench --bench "$target" | cmp - "$golden"
    done
)

echo "== VSCC_FAULTS smoke (one figure target under an env fault plan) =="
# VSCC_FAULTS is the one environment variable the library reads:
# VsccBuilder::build merges it into every system the target builds, and
# the bench banner echoes the parsed plan. Under an env plan the headline
# asserts are skipped, so the target must simply finish and echo the plan
# in its canonical form (the Display <-> parse round trip).
FAULT_PLAN='seed=7,corrupt=0.05,ackloss=0.01,recovery=on,watchdog=20000000'
VSCC_FAULTS="$FAULT_PLAN" cargo bench -q -p vscc-bench --bench fig6b_interdevice \
    | grep -F "[faults] VSCC_FAULTS plan active: $FAULT_PLAN" >/dev/null

echo "== golden exports (fixed-seed exports and run reports byte-identical to goldens) =="
# The health plane must be inert without an active fault plan: any drift
# in these fixed-seed trace/metrics/timeseries/audit exports means the
# recovery layer perturbed a clean run. The two pinned report.md files
# (the designated runs of fig6b and of fig_recovery, the storm-then-quiet
# healing run) cover the report renderer, its fault section and health
# timeline included.
cargo test -q --test golden_exports

echo "== cadence-sweep smoke (two cadences, same run, same final snapshot) =="
cargo test -q --test observability cadence_sweep

echo "== obs smoke (VSCC_OBS fig6b and fig_recovery: identical exports, clean lint, golden reports) =="
# VSCC_OBS=<dir> makes the fig6b target export its designated run (the
# vDMA 8 KiB point: trace, metrics, time series, audit stream, report).
# Two back-to-back runs (separate processes) must be byte-identical, the
# trace and time-series exports must lint clean (the trace lint rejects
# any event outside M/X/i/s/t/f, so a counter line copied in from the
# time series fails it), vscc_obs diff must find
# no divergence (exit 1 would kill the script), and vscc_obs report must
# reproduce report.md byte for byte. The targets' own report.md files
# must equal the goldens the tests render from the same designated runs:
# fig6b's, and fig_recovery's healing run.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
VSCC_OBS="$OBS_TMP/a" cargo bench -p vscc-bench --bench fig6b_interdevice >/dev/null
VSCC_OBS="$OBS_TMP/b" cargo bench -p vscc-bench --bench fig6b_interdevice >/dev/null
for f in trace.json metrics.json timeseries.json audit.json report.md; do
    cmp -s "$OBS_TMP/a/$f" "$OBS_TMP/b/$f" || { echo "$f not byte-identical"; exit 1; }
done
cargo run -q --example vscc_obs -- lint "$OBS_TMP/a"
cargo run -q --example vscc_obs -- diff "$OBS_TMP/a" "$OBS_TMP/b"
cargo run -q --example vscc_obs -- report "$OBS_TMP/a" | cmp - "$OBS_TMP/a/report.md"
cmp "$OBS_TMP/a/report.md" tests/goldens/fig6b_report.md
VSCC_OBS="$OBS_TMP/healing" cargo bench -p vscc-bench --bench fig_recovery >/dev/null
cmp "$OBS_TMP/healing/report.md" tests/goldens/healing_report.md

echo "== benchmark smoke (all six workloads at ~1/20 scale: no failed op, digests pinned) =="
# Exits non-zero on a failed op or a digest mismatch between passes. The
# benchmark refuses any VSCC_* variable (exit 2), so they are unset for
# this stage only — VSCC_PERF_SKIP and friends still apply to the stages
# around it. Each workload's des.sim_digest must then equal its line in
# tests/goldens/bench_smoke_digests.txt: a simulator-only change leaves
# the simulated results alone. That file's header says how to regenerate
# it after a deliberate model change.
(
    for v in $(compgen -e | grep '^VSCC_' || true); do unset "$v"; done
    cargo run --release -q --offline \
        --manifest-path crates/bench/examples/vscc_benchmark/Cargo.toml -- --smoke
) | awk '/^vscc_benchmark: workload=/ { sub("workload=", "", $2); w = $2 }
         /^  des.sim_digest / { print w, $2 }' >"$OBS_TMP/smoke_digests.txt"
grep -v '^#' tests/goldens/bench_smoke_digests.txt | diff - "$OBS_TMP/smoke_digests.txt" || {
    echo "benchmark --smoke sim_digest differs from tests/goldens/bench_smoke_digests.txt"
    exit 1
}

echo "== benchmark full-scale digests (one class-C pass per workload, run twice, pinned) =="
# --check-determinism runs one full-scale pass of the workload twice in
# one process and exits 1 if the two digests differ. The digest must then
# equal its line in tests/goldens/bench_full_digests.txt: BT at class C on
# up to 225 ranks reaches interleavings the class-W smoke above does not.
(
    for v in $(compgen -e | grep '^VSCC_' || true); do unset "$v"; done
    for w in pingpong_small pingpong_large bt_onchip_36 bt_vdma_225 bt_routed_64 storm_ring; do
        cargo run --release -q --offline \
            --manifest-path crates/bench/examples/vscc_benchmark/Cargo.toml -- \
            --workload "$w" --check-determinism \
            | awk -v w="$w" '/^determinism: ok,/ { print w, $5 }'
    done
) >"$OBS_TMP/full_digests.txt"
grep -v '^#' tests/goldens/bench_full_digests.txt | diff - "$OBS_TMP/full_digests.txt" || {
    echo "benchmark full-scale sim_digest differs from tests/goldens/bench_full_digests.txt"
    exit 1
}

if [ "${VSCC_PERF_SKIP:-}" = "1" ]; then
    echo "== perf smoke: skipped (VSCC_PERF_SKIP=1) =="
else
    echo "== perf smoke (engine events/sec + allocs/msg vs committed BENCH_engine.json) =="
    # Quick-sample harness run; writes target/BENCH_engine.json and fails
    # if any scenario's events/sec drops >30% below the committed
    # baseline, or a datapath scenario's allocations-per-message rises
    # >20% above it (the alloc counter is deterministic, so that gate is
    # noise-free), or the audited data-path twin loses >10% events/sec
    # against its audit-off twin (the audit-overhead budget).
    # Wall-clock only — the virtual clock never sees it.
    # Set VSCC_PERF_SKIP=1 on noisy/shared machines.
    VSCC_PERF_FAST=1 VSCC_PERF_GATE=1 cargo bench -p vscc-bench --bench engine_micro
fi

echo "All checks passed."
