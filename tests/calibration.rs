//! Calibration-band assertions (DESIGN.md §5): the throughput *shapes*
//! the reproduction must preserve. These are the repository's contract
//! with the paper — any cost-model change that breaks a band fails here.

use vscc::CommScheme;
use vscc_apps::pingpong;

const REPS: usize = 3;
const BIG: usize = 128 * 1024;

#[test]
fn onchip_ceiling_near_150_mbps() {
    let p = pingpong::onchip(true, 512 * 1024, REPS);
    assert!(
        (120.0..190.0).contains(&p.mbps),
        "iRCCE on-chip ceiling {:.1} MB/s outside the paper's ~150 MB/s band",
        p.mbps
    );
}

#[test]
fn blocking_rcce_roughly_half_of_pipelined() {
    let block = pingpong::onchip(false, BIG, REPS).mbps;
    let pipe = pingpong::onchip(true, BIG, REPS).mbps;
    let ratio = block / pipe;
    assert!((0.4..0.75).contains(&ratio), "RCCE/iRCCE ratio {ratio:.2} implausible");
}

#[test]
fn simple_routing_collapses() {
    let p = pingpong::interdevice(CommScheme::SimpleRouting, 8192, 2);
    assert!(p.mbps < 3.0, "routing at {:.2} MB/s; a 32 B line per ~10^4 cycles is ~1.6", p.mbps);
}

#[test]
fn scheme_ordering_matches_figure_6b() {
    let t = |s: CommScheme| pingpong::interdevice(s, BIG, REPS).mbps;
    let routed = t(CommScheme::SimpleRouting);
    let bound = t(CommScheme::RemotePutHwAck);
    let wcb = t(CommScheme::RemotePutWcb);
    let lprg = t(CommScheme::LocalPutRemoteGet);
    let vdma = t(CommScheme::LocalPutLocalGet);
    assert!(
        routed < lprg && lprg < wcb && wcb < bound,
        "ordering broken: {routed} {lprg} {wcb} {bound}"
    );
    assert!(vdma <= bound && vdma > wcb, "vDMA ({vdma}) must sit just below the bound ({bound})");
}

#[test]
fn lprg_fraction_of_bound_near_72_percent() {
    let bound = pingpong::interdevice(CommScheme::RemotePutHwAck, BIG, REPS).mbps;
    let lprg = pingpong::interdevice(CommScheme::LocalPutRemoteGet, BIG, REPS).mbps;
    let frac = lprg / bound;
    assert!((0.55..0.85).contains(&frac), "LPRG/bound {frac:.3}; paper reports 0.7172");
}

#[test]
fn headline_recovered_fraction() {
    let onchip = pingpong::onchip(true, 256 * 1024, REPS).mbps;
    let best = pingpong::interdevice(CommScheme::LocalPutLocalGet, 256 * 1024, REPS).mbps;
    let frac = best / onchip;
    assert!((0.17..0.32).contains(&frac), "recovered fraction {frac:.3}; paper reports 0.24");
}

#[test]
fn latency_factor_of_120() {
    // Paper §5: the tunnel raises latencies by a factor of ~120.
    let m = pcie::PcieModel::default();
    let onchip = scc::CostModel::default().onchip_reference_latency();
    let factor = m.routed_line_round_trip() as f64 / onchip as f64;
    assert!((80.0..160.0).contains(&factor), "latency factor {factor:.0}, paper says ~120");
}

#[test]
fn dip_at_mpb_boundary_except_vdma() {
    let dip = |s: CommScheme| {
        pingpong::interdevice(s, 8192, REPS).mbps / pingpong::interdevice(s, 7424, REPS).mbps
    };
    assert!(dip(CommScheme::LocalPutRemoteGet) < 0.99, "LPRG must dip past the MPB boundary");
    assert!(dip(CommScheme::SimpleRouting) <= 1.0 + 1e-9);
    assert!(dip(CommScheme::LocalPutLocalGet) > 0.99, "vDMA pipelining removes the dip");
}

#[test]
fn onchip_dip_at_8k_for_blocking_rcce() {
    // Footnote 5: an 8 KiB message no longer fits the MPB payload.
    let before = pingpong::onchip(false, 7680, REPS).mbps;
    let after = pingpong::onchip(false, 8192, REPS).mbps;
    assert!(after < before, "on-chip blocking must dip when the message splits");
}

#[test]
fn zero_fault_spec_perturbs_nothing() {
    // The fault plane's zero-perturbation guarantee: a default build and a
    // build with an explicit all-zero `FaultSpec` (recovery armed but no
    // fault injected) must produce bit-identical runs — same virtual
    // clock, same metrics snapshot. Every probability draw in the plane
    // is gated on `p > 0.0`, so an inactive spec must never advance an
    // RNG stream or add a timer.
    let run = |faults: Option<des::faultplan::FaultSpec>| {
        let sim = des::Sim::new();
        let mut b = vscc::VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet);
        if let Some(spec) = faults {
            b = b.faults(spec);
        }
        let v = b.build();
        let s = pingpong::pair_session(&v).build();
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.send(&vec![5u8; 12_000], 1).await;
            } else {
                let mut buf = vec![0u8; 12_000];
                r.recv(&mut buf, 0).await;
                assert_eq!(buf, vec![5u8; 12_000]);
            }
        })
        .expect("calibration run");
        (sim.now(), v.metrics().snapshot().to_json())
    };
    let (clean_now, clean_metrics) = run(None);
    let mut inert = des::faultplan::FaultSpec::none();
    inert.recovery = true; // recovery alone must not shift anything either
    let (spec_now, spec_metrics) = run(Some(inert));
    assert_eq!(clean_now, spec_now, "an inactive fault spec must not move the clock");
    assert_eq!(
        clean_metrics, spec_metrics,
        "an inactive fault spec must not change a single counter"
    );
}
