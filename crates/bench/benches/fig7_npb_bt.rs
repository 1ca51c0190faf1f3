//! Figure 7 — NPB BT class C performance over core counts.
//!
//! Square process counts up to 225 (the paper: "225 represents the maximum
//! configuration, since the application can only handle a number of
//! processes which is a square number"), ranks laid out linearly over up
//! to five devices, for the optimal (vDMA local put / local get) and the
//! worst (simple routing) inter-device configuration. The paper's Fig. 7
//! shows the optimal configuration scaling well and the worst
//! configuration falling far behind once the tunnels carry traffic.
//!
//! Throughput is steady state, so one warm-up plus two timed iterations
//! reproduce the per-iteration rate of the full 200-iteration NPB run.

use des::Sim;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};

fn bt_gflops(scheme: CommScheme, ranks: usize) -> f64 {
    let sim = Sim::new();
    let devices = ranks.div_ceil(48).max(1) as u8;
    let v = VsccBuilder::new(&sim, devices).scheme(scheme).build();
    let s = v.session_with_ranks(ranks);
    let mut cfg = BtConfig::new(BtClass::C, ranks);
    cfg.measured = 2;
    let res = run_bt(&s, &cfg).expect("BT run");
    if vscc_bench::headline_asserts() {
        assert!(res.verified, "BT payload verification failed for {scheme:?} at {ranks} ranks");
    }
    res.gflops
}

fn main() {
    vscc_bench::banner(
        "Figure 7",
        "NPB BT class C (162^3) performance, GFLOP/s vs cores (peak 0.533/core)",
    );
    let counts = [16usize, 25, 36, 49, 64, 100, 121, 144, 169, 196, 225];
    println!(
        "{}",
        vscc_bench::header("cores", &["optimal".into(), "worst".into(), "ratio".into()])
    );

    let rows = vscc_bench::parallel_sweep(&counts, |&ranks| {
        let best = bt_gflops(CommScheme::LocalPutLocalGet, ranks);
        let worst = bt_gflops(CommScheme::SimpleRouting, ranks);
        (ranks, best, worst)
    });

    for (ranks, best, worst) in &rows {
        println!("{}", vscc_bench::row(&format!("{ranks:>5}"), &[*best, *worst, *best / *worst]));
    }

    let single_device = rows.iter().find(|(r, _, _)| *r == 36).expect("36-rank row");
    let largest = rows.last().expect("225-rank row");
    println!(
        "\noptimal config at 225 cores: {:.2} GFLOP/s ({:.1}x the worst config; single-device 36-core point {:.2})",
        largest.1,
        largest.1 / largest.2,
        single_device.1
    );
    if vscc_bench::headline_asserts() {
        assert!(
            largest.1 > 2.0 * largest.2,
            "host-accelerated communication must clearly beat transparent routing"
        );
    }

    // The designated run sits inside the figure's regime: 64 ranks over
    // two devices with vDMA, so the tunnels carry BT's boundary faces.
    vscc_bench::observe("bt-class-c-64x2", || {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .trace_categories(&des::trace::Category::ALL)
            .build();
        let s = v.session_with_ranks(64);
        let series = v.spawn_sampler(des::obs::DEFAULT_CADENCE);
        let mut cfg = BtConfig::new(BtClass::C, 64);
        cfg.measured = 1;
        run_bt(&s, &cfg).expect("observed BT run");
        vscc_bench::Observed::of(&v, series)
    });
}
