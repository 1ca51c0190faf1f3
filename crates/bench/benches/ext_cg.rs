//! Extension experiment (not a paper figure): NPB CG on vSCC.
//!
//! CG's strided row-reduce / transpose pattern is the stress case the
//! paper's conclusion warns about — applications *without* neighbourhood
//! locality put far more pairs onto the tunnel. The table contrasts CG's
//! scaling under the optimal and worst schemes with the inter-device
//! fraction of its traffic, alongside BT's for reference.

use des::Sim;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, run_cg, BtClass, BtConfig, CgClass, CgConfig};
use vscc_apps::traffic::TrafficMatrix;

fn cg_point(scheme: CommScheme, ranks: usize) -> (f64, f64) {
    let sim = Sim::new();
    let devices = ranks.div_ceil(48).max(1) as u8;
    let v = VsccBuilder::new(&sim, devices.max(2)).scheme(scheme).build();
    let per_dev = ranks.div_ceil(devices.max(2) as usize);
    let s = v.session_builder().cores_per_device(per_dev).max_ranks(ranks).build();
    let res = run_cg(&s, &CgConfig::new(CgClass::A, ranks)).expect("CG run");
    if vscc_bench::headline_asserts() {
        assert!(res.verified);
    }
    let m = TrafficMatrix::capture(&s);
    (res.gflops, m.inter_device_fraction())
}

fn main() {
    vscc_bench::banner(
        "Extension (CG)",
        "NPB CG class A on vSCC: GFLOP/s and inter-device traffic share",
    );
    println!(
        "{}",
        vscc_bench::header("ranks", &["vDMA GF/s".into(), "routed GF/s".into(), "x-dev %".into()])
    );
    let rank_counts = [4usize, 8, 16, 32, 64];
    let rows = vscc_bench::parallel_sweep(&rank_counts, |&ranks| {
        let (best, xf) = cg_point(CommScheme::LocalPutLocalGet, ranks);
        let (worst, _) = cg_point(CommScheme::SimpleRouting, ranks);
        (best, worst, xf)
    });
    for (&ranks, &(best, worst, xf)) in rank_counts.iter().zip(&rows) {
        println!("{}", vscc_bench::row(&format!("{ranks:>5}"), &[best, worst, xf * 100.0]));
    }

    // Contrast the traffic structure with BT at the same scale. (At 16
    // ranks CG's smallest-stride partners are also near the diagonal;
    // the structural difference shows in how the share decays with
    // radius and in the transpose band.)
    // The two 16-rank structure probes are independent runs; each returns
    // only its (Send) ring-distance fractions.
    let apps = ["BT (neighbourhood rings)", "CG (strided reduce/transpose)"];
    let fractions = vscc_bench::parallel_sweep(&apps, |&app| {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
        let s = v.session_builder().cores_per_device(8).build();
        if app.starts_with("BT") {
            let mut cfg = BtConfig::new(BtClass::W, 16);
            cfg.measured = 2;
            run_bt(&s, &cfg).expect("BT");
        } else {
            run_cg(&s, &CgConfig::new(CgClass::A, 16)).expect("CG");
        }
        let m = TrafficMatrix::capture(&s);
        [m.neighbour_fraction(1), m.neighbour_fraction(2), m.neighbour_fraction(4)]
    });
    for (&app, f) in apps.iter().zip(&fractions) {
        println!(
            "{app}: {:.0}% of bytes at ring distance <=1, {:.0}% at <=2, {:.0}% at <=4",
            f[0] * 100.0,
            f[1] * 100.0,
            f[2] * 100.0
        );
    }

    // The designated run: 16-rank CG over two devices, fully traced.
    vscc_bench::observe("cg-16", || {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .trace_categories(&des::trace::Category::ALL)
            .build();
        let s = v.session_builder().cores_per_device(8).build();
        let series = v.spawn_sampler(des::obs::DEFAULT_CADENCE);
        run_cg(&s, &CgConfig::new(CgClass::A, 16)).expect("CG");
        vscc_bench::Observed::of(&v, series)
    });
}
