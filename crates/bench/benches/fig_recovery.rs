//! Self-healing communication plane (DESIGN.md §5h) — beyond the paper.
//!
//! A storm-then-quiet ack-loss plan (`ackloss=0.8@..800000`) batters one
//! fast-ack device pair: consecutive lossy bursts demote it to the
//! host-acked fallback, the storm ends, and deterministic canary probes
//! re-promote it to the fast path. The table shows the throughput arc —
//! collapsed during the storm, limping through the fallback window,
//! restored after re-promotion — against a fault-free same-seed twin.
//!
//! Headline shapes (asserted on clean-env runs): at least one demotion
//! lands *inside* the storm, at least one probe-driven re-promotion
//! lands *after* it, and the post-recovery per-message gap is within 5%
//! of the twin's steady state.

use des::faultplan::FaultSpec;
use des::Sim;
use vscc::host::{HostConfig, RecoveryConfig};
use vscc::{CommScheme, VsccBuilder};
use vscc_bench::Observed;

/// The storm: 80% injected ack loss on every posted line until cycle
/// 800 k, nothing after. Recovery on; a generous watchdog converts any
/// genuine hang into a diagnosed abort.
const STORM: &str = "seed=13,ackloss=0.8@..800000,recovery=on,watchdog=20000000";
/// End of the injection phase (keep in sync with [`STORM`]).
const STORM_END: u64 = 800_000;
/// Message size: small enough that several lossy bursts (and therefore
/// the demotion threshold) fit inside the storm window.
const SIZE: usize = 512;
/// Message count: sized so a fat tail of messages rides the re-promoted
/// fast path.
const MSGS: usize = 96;

/// One run's harvest: per-message completion times at the receiver plus
/// the health ledger.
struct RunOut {
    times: Vec<u64>,
    demotions: u64,
    promotions: u64,
    first_demote: Option<u64>,
    last_promote: Option<u64>,
    still_demoted: usize,
}

/// One storm run (or its fault-free twin, whose inactive `faults` only
/// keeps recovery on). `observed` traces every category and samples the
/// run for `VSCC_OBS`.
fn run(faults: FaultSpec, observed: bool) -> (RunOut, Option<Observed>) {
    let sim = Sim::new();
    // Dense canary cadence so the whole demote→probe→heal arc fits one
    // short figure run; the production default derives a sparser
    // schedule from the PCIe model (probe_interval_base).
    let recovery = RecoveryConfig { probe_interval: 20_000, probe_backoff_max: 160_000 };
    let mut b = VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::RemotePutHwAck)
        .host_config(HostConfig { faults, recovery, ..HostConfig::default() });
    if observed {
        b = b.trace_categories(&des::trace::Category::ALL);
    }
    let v = b.build();
    let a = v.devices[0].global(scc::geometry::CoreId(0));
    let bb = v.devices[1].global(scc::geometry::CoreId(0));
    let s = v.session_builder().participants(vec![a, bb]).build();
    let series = observed.then(|| v.spawn_sampler(des::obs::DEFAULT_CADENCE));
    // Hold the clock open past the storm plus the probe backoff so the
    // (daemon) probers can finish the healing arc even if the app's
    // traffic drains first.
    let keepalive = sim.clone();
    sim.spawn_named("post-storm-idle", async move {
        keepalive.delay(2_000_000).await;
    });
    let out = s
        .run_app(move |r| async move {
            let mut times = Vec::new();
            for i in 0..MSGS {
                let fill = (i as u8).wrapping_mul(29).wrapping_add(3);
                if r.id() == 0 {
                    r.send(&vec![fill; SIZE], 1).await;
                } else {
                    let mut buf = vec![0u8; SIZE];
                    r.recv(&mut buf, 0).await;
                    assert_eq!(buf, vec![fill; SIZE], "payload corrupt at message {i}");
                    times.push(r.now());
                }
            }
            times
        })
        .expect("recovery figure run must complete");
    let times = out.into_iter().find(|t| !t.is_empty()).expect("receiver times");
    let transitions = v.host.health.transitions();
    let out = RunOut {
        times,
        demotions: v.host.rstats.demotions.get(),
        promotions: v.host.health.promotions.get(),
        first_demote: transitions.iter().find(|t| t.trigger == "demote").map(|t| t.time),
        last_promote: transitions.iter().rev().find(|t| t.trigger == "promote").map(|t| t.time),
        still_demoted: v.host.health.fallback_pairs().len(),
    };
    (out, series.map(|series| Observed::of(&v, series)))
}

/// Mean cycles per message across `times[lo..hi]`, measured from the
/// completion of the preceding message (`times[lo - 1]`, or 0).
fn mean_gap(times: &[u64], lo: usize, hi: usize) -> f64 {
    let start = if lo == 0 { 0 } else { times[lo - 1] };
    (times[hi - 1] - start) as f64 / (hi - lo) as f64
}

fn mbps(gap_cycles: f64) -> f64 {
    des::time::CORE_FREQ.mbytes_per_sec(SIZE as u64, gap_cycles.max(1.0) as u64)
}

fn main() {
    vscc_bench::banner(
        "Figure (recovery)",
        "self-healing plane: demote under an ack-loss storm, probe back to health",
    );
    // An env VSCC_FAULTS plan replaces the built-in storm (and the
    // banner + skipped asserts flag the run as custom).
    let spec = des::faultplan::spec_from_env()
        .unwrap_or_else(|| FaultSpec::parse(STORM).expect("built-in storm spec"));
    println!("plan: {spec}");
    let (faulty, _) = run(spec.clone(), false);
    let (clean, _) = run(FaultSpec { recovery: true, ..FaultSpec::none() }, false);

    // Phase boundaries from the run itself: the storm window, the
    // degraded (fallback) window up to the last re-promotion, and the
    // recovered tail.
    let heal_t = faulty.last_promote.unwrap_or(u64::MAX);
    let in_storm = faulty.times.partition_point(|&t| t <= STORM_END);
    let healed_from = faulty.times.partition_point(|&t| t <= heal_t);
    println!("{}", vscc_bench::header("phase", &["msgs".into(), "cyc/msg".into(), "MB/s".into()]));
    let phase_row = |label: &str, lo: usize, hi: usize| {
        if lo < hi {
            let gap = mean_gap(&faulty.times, lo, hi);
            println!("{}", vscc_bench::row(label, &[(hi - lo) as f64, gap, mbps(gap)]));
        }
    };
    phase_row("storm (injected ack loss)", 0, in_storm);
    phase_row("degraded (host-acked fallback)", in_storm, healed_from);
    phase_row("recovered (probed back to fast path)", healed_from, faulty.times.len());
    let clean_tail = clean.times.len() - (clean.times.len() - healed_from).min(clean.times.len());
    let clean_gap = mean_gap(&clean.times, clean_tail, clean.times.len());
    println!(
        "{}",
        vscc_bench::row(
            "fault-free twin (same tail)",
            &[(clean.times.len() - clean_tail) as f64, clean_gap, mbps(clean_gap)]
        )
    );
    println!(
        "\nhealth ledger: {} demotion(s), {} re-promotion(s), {} pair(s) still demoted",
        faulty.demotions, faulty.promotions, faulty.still_demoted
    );

    if vscc_bench::headline_asserts() {
        let demote_t = faulty.first_demote.expect("the storm must demote the pair");
        assert!(
            demote_t <= STORM_END,
            "demotion at {demote_t} must land inside the storm (.. {STORM_END})"
        );
        assert!(faulty.promotions >= 1, "a canary probe must re-promote the pair");
        let promote_t = faulty.last_promote.expect("promotions counted but none logged");
        assert!(
            promote_t > STORM_END,
            "re-promotion at {promote_t} must land after the storm (.. {STORM_END})"
        );
        assert_eq!(faulty.still_demoted, 0, "no pair may stay demoted once the plan is quiet");
        let tail = faulty.times.len() - healed_from;
        assert!(tail >= 8, "recovered tail too thin ({tail} msgs) to judge throughput");
        let recovered_gap = mean_gap(&faulty.times, healed_from, faulty.times.len());
        let ratio = recovered_gap / clean_gap;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "post-recovery gap {recovered_gap:.0} vs clean {clean_gap:.0} (ratio {ratio:.3}) \
             outside the 5% band"
        );
    }

    // The designated run: the storm run itself, traced and sampled, so
    // the Health-category instants and the degraded-pairs level series
    // show the whole arc.
    vscc_bench::observe("healing", || run(spec, true).1.expect("observed run"));
}
