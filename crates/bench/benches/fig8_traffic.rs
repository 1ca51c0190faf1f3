//! Figure 8 — NPB BT (class C) communication traffic of 64 cores.
//!
//! The traffic matrix of a 64-rank class C run on two devices, scaled
//! from the simulated iterations to the full 200 NPB iterations. Paper
//! reference points: a neighbourhood-dominated pattern (dark squares near
//! the diagonal), inter-device traffic highlighted at the device
//! boundaries, and a maximum pairwise traffic of about 186 MB.

use des::Sim;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::traffic::TrafficMatrix;

fn bt_config(ranks: usize) -> BtConfig {
    let mut cfg = BtConfig::new(BtClass::C, ranks);
    cfg.measured = 2;
    cfg
}

fn main() {
    vscc_bench::banner("Figure 8", "NPB BT (class C) communication traffic of 64 cores");
    let ranks = 64usize;
    // One big BT world: run it through the sweep pool like the other
    // bench targets (the closure owns the whole non-Send sim and hands
    // back only printable data).
    let summaries = vscc_bench::parallel_sweep(&[ranks], |&ranks| {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
        let s = v.session_with_ranks(ranks);
        let cfg = bt_config(ranks);
        let res = run_bt(&s, &cfg).expect("BT run");

        // Scale the recorded (warmup + measured) iterations to the full run.
        let simulated_iters = (cfg.warmup + cfg.measured) as u64;
        let full =
            TrafficMatrix::capture(&s).scaled(BtClass::C.full_iterations() as u64, simulated_iters);
        let (src, dst, bytes) = full.max_pair();
        (
            res.verified,
            full.render(),
            (src, dst, bytes),
            full.inter_device_fraction(),
            full.total(),
            full.neighbour_fraction(9),
        )
    });
    let (verified, rendered, (src, dst, bytes), xdev, total, neigh9) = &summaries[0];

    if vscc_bench::headline_asserts() {
        assert!(verified);
    }
    println!("{rendered}");
    println!(
        "max pairwise traffic: rank{src} -> rank{dst}, {:.1} MB over {} iterations (paper: 'about 186 MB')",
        *bytes as f64 / 1e6,
        BtClass::C.full_iterations()
    );
    println!(
        "inter-device share: {:.1}% of {:.1} GB total; neighbour(radius 9) share {:.1}%",
        xdev * 100.0,
        *total as f64 / 1e9,
        neigh9 * 100.0
    );
    if vscc_bench::headline_asserts() {
        assert!(
            (50.0..400.0).contains(&(*bytes as f64 / 1e6)),
            "max pairwise traffic must be in the paper's order of magnitude"
        );
        assert!(*neigh9 > 0.5, "the pattern must be neighbourhood-based");
    }

    // The designated run: the figure's own 64-rank, two-device run,
    // fully traced.
    vscc_bench::observe("bt-class-c-64", || {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .trace_categories(&des::trace::Category::ALL)
            .build();
        let s = v.session_with_ranks(ranks);
        let series = v.spawn_sampler(des::obs::DEFAULT_CADENCE);
        run_bt(&s, &bt_config(ranks)).expect("observed BT run");
        vscc_bench::Observed::of(&v, series)
    });
}
