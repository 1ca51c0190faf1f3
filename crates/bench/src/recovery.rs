//! The storm-then-quiet healing run of the self-healing plane (DESIGN.md
//! §5h) — beyond the paper.
//!
//! A storm-then-quiet ack-loss plan ([`STORM`]) batters one fast-ack
//! device pair: consecutive lossy bursts demote it to the host-acked
//! fallback, the storm ends, and deterministic canary probes re-promote
//! it to the fast path. The `fig_recovery` target prints [`table`] and
//! exports [`run`] as its designated run; `tests/figures.rs`,
//! `tests/golden_exports.rs` and `tests/chaos.rs` check the same run.

use des::faultplan::FaultSpec;
use des::Sim;
use vscc::host::{HostConfig, RecoveryConfig};
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::pingpong;

use crate::{header, row, Observed};

/// Banner id of the figure.
pub const ID: &str = "Figure (recovery)";
/// Banner caption of the figure.
pub const CAPTION: &str =
    "self-healing plane: demote under an ack-loss storm, probe back to health";
/// Trace label of the designated run.
pub const LABEL: &str = "healing";
/// The storm: 80% injected ack loss on every posted line until cycle
/// 800 k, nothing after. Recovery on; a generous watchdog converts any
/// genuine hang into a diagnosed abort.
pub const STORM: &str = "seed=13,ackloss=0.8@..800000,recovery=on,watchdog=20000000";
/// End of the injection phase (keep in sync with [`STORM`]).
pub const STORM_END: u64 = 800_000;
/// Message size: small enough that several lossy bursts (and therefore
/// the demotion threshold) fit inside the storm window.
const SIZE: usize = 512;
/// Message count: sized so a fat tail of messages rides the re-promoted
/// fast path.
const MSGS: usize = 96;

/// The parsed [`STORM`] plan.
pub fn storm() -> FaultSpec {
    FaultSpec::parse(STORM).expect("built-in storm spec")
}

/// One run's harvest: per-message completion times at the receiver plus
/// the health ledger.
#[derive(Debug, PartialEq)]
pub struct RunOut {
    pub times: Vec<u64>,
    pub demotions: u64,
    pub promotions: u64,
    pub first_demote: Option<u64>,
    pub last_promote: Option<u64>,
    pub still_demoted: usize,
}

/// One storm run (or its fault-free twin, whose inactive `faults` only
/// keeps recovery on): rank 0 streams `MSGS` messages to rank 1, which
/// verifies every payload. `observed` traces every category and samples
/// the run for `VSCC_OBS`.
pub fn run(faults: FaultSpec, observed: bool) -> (RunOut, Option<Observed>) {
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
    let s = pingpong::pair_session(&v).build();
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

/// The designated run: the storm run under `faults` itself, traced and
/// sampled, so the Health-category instants and the degraded-pairs level
/// series show the whole arc.
pub fn designated(faults: FaultSpec) -> Observed {
    run(faults, true).1.expect("observed run")
}

/// Mean cycles per message across `times[lo..hi]`, measured from the
/// completion of the preceding message (`times[lo - 1]`, or 0).
pub fn mean_gap(times: &[u64], lo: usize, hi: usize) -> f64 {
    let start = if lo == 0 { 0 } else { times[lo - 1] };
    (times[hi - 1] - start) as f64 / (hi - lo) as f64
}

fn mbps(gap_cycles: f64) -> f64 {
    des::time::CORE_FREQ.mbytes_per_sec(SIZE as u64, gap_cycles.max(1.0) as u64)
}

/// The figure as printed, and what its headline shapes are judged on.
pub struct Recovery {
    /// Everything the target prints after its banner.
    pub text: String,
    /// The run under the plan.
    pub faulty: RunOut,
    /// Index of the first message completed after the last re-promotion.
    pub healed_from: usize,
    /// The fault-free twin's mean gap over the same tail.
    pub clean_gap: f64,
}

/// The throughput arc of a run under `spec` — collapsed during the storm,
/// limping through the fallback window, restored after re-promotion —
/// against a fault-free same-seed twin, plus the health ledger.
pub fn table(spec: &FaultSpec) -> Recovery {
    let (faulty, _) = run(spec.clone(), false);
    let (clean, _) = run(FaultSpec { recovery: true, ..FaultSpec::none() }, false);

    // Phase boundaries from the run itself: the storm window, the
    // degraded (fallback) window up to the last re-promotion, and the
    // recovered tail.
    let heal_t = faulty.last_promote.unwrap_or(u64::MAX);
    let in_storm = faulty.times.partition_point(|&t| t <= STORM_END);
    let healed_from = faulty.times.partition_point(|&t| t <= heal_t);
    let mut text = format!("plan: {spec}\n");
    text += &header("phase", &["msgs".into(), "cyc/msg".into(), "MB/s".into()]);
    text += "\n";
    let mut phase_row = |label: &str, lo: usize, hi: usize| {
        if lo < hi {
            let gap = mean_gap(&faulty.times, lo, hi);
            text += &row(label, &[(hi - lo) as f64, gap, mbps(gap)]);
            text += "\n";
        }
    };
    phase_row("storm (injected ack loss)", 0, in_storm);
    phase_row("degraded (host-acked fallback)", in_storm, healed_from);
    phase_row("recovered (probed back to fast path)", healed_from, faulty.times.len());
    let clean_tail = clean.times.len() - (clean.times.len() - healed_from).min(clean.times.len());
    let clean_gap = mean_gap(&clean.times, clean_tail, clean.times.len());
    let tail_msgs = (clean.times.len() - clean_tail) as f64;
    text += &row("fault-free twin (same tail)", &[tail_msgs, clean_gap, mbps(clean_gap)]);
    text += &format!(
        "\n\nhealth ledger: {} demotion(s), {} re-promotion(s), {} pair(s) still demoted\n",
        faulty.demotions, faulty.promotions, faulty.still_demoted
    );
    Recovery { text, faulty, healed_from, clean_gap }
}
