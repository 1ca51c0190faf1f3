//! Deterministic allocation gate: host allocations per one-way message on
//! the three data-path ping-pongs of `vscc_bench::datapath`, against the
//! `allocs_per_msg` committed in the repo-root `BENCH_engine.json`; and a
//! bound on BT's peak live heap.
//!
//! The allocation count of a simulated run does not depend on the host's
//! speed or load, so unlike the `engine_micro` wall-clock gates this one
//! cannot flake: any rise is a code change. `engine_micro` keeps its own
//! copy of the gate; this test puts it in `cargo test`.

use des::Sim;
use rcce::SessionBuilder;
use scc::device::SccDevice;
use scc::geometry::DeviceId;
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_bench::datapath::{
    allocs_per_msg, baseline_field, live_bytes, peak_live_bytes, reset_peak, CountingAlloc,
    ALLOC_GATE_RATIO, SCENARIOS,
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

/// During `copy_faces` every BT rank sits in its face exchange at once,
/// so the run's peak heap is set by how many face buffers each rank
/// holds there: one (the payload is dropped before the receive buffer
/// exists) keeps it under 1.75 face buffers per rank; holding the send
/// and the receive buffer together reads about 2.25.
#[test]
fn bt_peak_heap_holds_one_face_buffer_per_rank() {
    let cfg = BtConfig { class: BtClass::B, ranks: 16, warmup: 0, measured: 1 };
    let sim = Sim::new();
    let dev = SccDevice::new(&sim, DeviceId(0));
    let session = SessionBuilder::new(&sim, vec![dev]).max_ranks(cfg.ranks).build();
    reset_peak();
    let base = live_bytes();
    let res = run_bt(&session, &cfg).expect("BT run");
    let peak = (peak_live_bytes() - base) as f64;
    assert!(res.verified);
    let per_rank_faces = peak / (cfg.ranks * cfg.face_msg_bytes()) as f64;
    assert!(
        per_rank_faces <= 1.75,
        "peak live heap {peak} B is {per_rank_faces:.2} face buffers per rank (bound 1.75)"
    );
}
