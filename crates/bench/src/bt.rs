//! Figures 7 and 8 — NPB BT class C.
//!
//! Fig. 7 is BT's performance over square process counts up to 225 (the
//! paper: "225 represents the maximum configuration, since the
//! application can only handle a number of processes which is a square
//! number"), ranks laid out linearly over up to five devices, for the
//! optimal (vDMA local put / local get) and the worst (simple routing)
//! inter-device configuration. The paper's Fig. 7 shows the optimal
//! configuration scaling well and the worst configuration falling far
//! behind once the tunnels carry traffic. Throughput is steady state, so
//! one warm-up plus two timed iterations reproduce the per-iteration
//! rate of the full 200-iteration NPB run.
//!
//! Fig. 8 is the traffic matrix of a 64-rank run on two devices, scaled
//! from the simulated iterations to the full 200 NPB iterations. Paper
//! reference points: a neighbourhood-dominated pattern (dark squares near
//! the diagonal), inter-device traffic highlighted at the device
//! boundaries, and a maximum pairwise traffic of about 186 MB.

use des::Sim;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::traffic::TrafficMatrix;

use crate::{header, row, Observed, Table};

/// Timed iterations of Fig. 8's run and of its designated run.
pub const FIG8_MEASURED: usize = 2;

fn config(ranks: usize, measured: usize) -> BtConfig {
    let mut cfg = BtConfig::new(BtClass::C, ranks);
    cfg.measured = measured;
    cfg
}

/// GFLOP/s of `ranks` ranks over as few devices as hold them, and
/// whether every payload verified.
fn gflops(scheme: CommScheme, ranks: usize) -> (f64, bool) {
    let sim = Sim::new();
    let devices = ranks.div_ceil(48).max(1) as u8;
    let v = VsccBuilder::new(&sim, devices).scheme(scheme).build();
    let res = run_bt(&v.session_with_ranks(ranks), &config(ranks, 2)).expect("BT run");
    (res.gflops, res.verified)
}

/// Fig. 7: optimal and worst configuration over core counts.
pub fn fig7() -> Table {
    const SCHEMES: [CommScheme; 2] = [CommScheme::LocalPutLocalGet, CommScheme::SimpleRouting];
    let mut table = Table::default();
    table.line(header("cores", &["optimal".into(), "worst".into(), "ratio".into()]));
    let counts = [16usize, 25, 36, 49, 64, 100, 121, 144, 169, 196, 225];
    let rows = crate::parallel_sweep(&counts, |&ranks| SCHEMES.map(|s| gflops(s, ranks)));
    for (&ranks, runs) in counts.iter().zip(&rows) {
        let [(best, _), (worst, _)] = *runs;
        table.line(row(&format!("{ranks:>5}"), &[best, worst, best / worst]));
        for (scheme, &(_, verified)) in SCHEMES.iter().zip(runs) {
            table.check(
                verified,
                format_args!("BT payload verification failed for {scheme:?} at {ranks} ranks"),
            );
        }
    }
    let single_device = rows[counts.iter().position(|&r| r == 36).expect("36-rank row")][0].0;
    let [(best, _), (worst, _)] = rows[counts.len() - 1];
    table.line(format_args!(
        "\noptimal config at 225 cores: {best:.2} GFLOP/s ({:.1}x the worst config; \
         single-device 36-core point {single_device:.2})",
        best / worst
    ));
    table.check(
        best > 2.0 * worst,
        "host-accelerated communication must clearly beat transparent routing",
    );
    table
}

/// Fig. 8: the 64-rank traffic matrix and its peak pair.
pub fn fig8() -> Table {
    let ranks = 64;
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
    let s = v.session_with_ranks(ranks);
    let cfg = config(ranks, FIG8_MEASURED);
    let res = run_bt(&s, &cfg).expect("BT run");
    // Scale the recorded (warmup + measured) iterations to the full run.
    let iterations = BtClass::C.full_iterations();
    let full =
        TrafficMatrix::capture(&s).scaled(iterations as u64, (cfg.warmup + cfg.measured) as u64);
    let (src, dst, bytes) = full.max_pair();
    let mb = bytes as f64 / 1e6;
    let neighbours = full.neighbour_fraction(9);

    let mut table = Table::default();
    table.line(full.render());
    table.line(format_args!(
        "max pairwise traffic: rank{src} -> rank{dst}, {mb:.1} MB over {iterations} iterations \
         (paper: 'about 186 MB')"
    ));
    table.line(format_args!(
        "inter-device share: {:.1}% of {:.1} GB total; neighbour(radius 9) share {:.1}%",
        full.inter_device_fraction() * 100.0,
        full.total() as f64 / 1e9,
        neighbours * 100.0
    ));
    table.check(res.verified, "BT payload verification failed");
    table.check(
        (50.0..400.0).contains(&mb),
        "max pairwise traffic must be in the paper's order of magnitude",
    );
    table.check(neighbours > 0.5, "the pattern must be neighbourhood-based");
    table
}

/// The designated run of both figures, inside their regime: 64 ranks
/// over two devices with vDMA, so the tunnels carry BT's boundary faces,
/// with `measured` timed iterations, fully traced.
pub fn traced(measured: usize) -> Observed {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .trace_categories(&des::trace::Category::ALL)
        .build();
    let s = v.session_with_ranks(64);
    let series = v.spawn_sampler(des::obs::DEFAULT_CADENCE);
    run_bt(&s, &config(64, measured)).expect("observed BT run");
    Observed::of(&v, series)
}
