//! Deterministic allocation gate: host allocations per one-way message on
//! the three data-path ping-pongs of `vscc_bench::datapath`, against the
//! `allocs_per_msg` committed in the repo-root `BENCH_engine.json`.
//!
//! The allocation count of a simulated run does not depend on the host's
//! speed or load, so unlike the `engine_micro` wall-clock gates this one
//! cannot flake: any rise is a code change. `engine_micro` keeps its own
//! copy of the gate; this test puts it in `cargo test`.

use vscc_bench::datapath::{
    allocs_per_msg, baseline_field, CountingAlloc, ALLOC_GATE_RATIO, SCENARIOS,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn datapath_allocs_per_msg_within_gate_of_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let over: Vec<String> = SCENARIOS
        .into_iter()
        .filter_map(|(name, pingpong)| {
            let committed = baseline_field(&text, name, "allocs_per_msg")
                .unwrap_or_else(|| panic!("{path} has no allocs_per_msg for {name}"));
            let now = allocs_per_msg(pingpong);
            (now > committed * ALLOC_GATE_RATIO)
                .then(|| format!("{name}: {now:.2} allocs/msg vs committed {committed:.2}"))
        })
        .collect();
    assert!(
        over.is_empty(),
        "allocations/message regressed >{:.0}%: {}",
        (ALLOC_GATE_RATIO - 1.0) * 100.0,
        over.join("; ")
    );
}
