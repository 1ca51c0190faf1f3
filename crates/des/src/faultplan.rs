//! Deterministic fault-injection plane.
//!
//! A [`FaultSpec`] is plain seeded configuration — which faults to inject
//! at what rates — and a [`FaultPlan`] is its runtime: per-site forked
//! [`DetRng`] streams, `pcie.fault.*` counters, and `Fault`-category trace
//! emission. Everything is driven by the virtual clock and the seed, so
//! two identical faulty runs are byte-identical (determinism invariant),
//! and a zero-rate spec draws from no RNG stream and registers no timer —
//! fault-free runs are bit-for-bit unaffected (zero perturbation).
//!
//! What can be injected (the hooks live in `pcie` and the host layer):
//!
//! - **TLP corruption** on tunnel payload transfers (posted payload
//!   deliveries, vDMA deliveries, prefetch chunks and their retries).
//!   Corruption really flips payload bytes (functional-fidelity
//!   invariant); the receiver-side checksum catches it and the transfer
//!   is retried.
//! - **Lost fast write-acks**: an extra loss rate on top of the model's
//!   own instability curve (`pcie::fault::FastAck`), drawn from the
//!   plan's own stream so the base-instability draw sequence is untouched.
//!   This is the one unstable mechanism the paper names (§2.3).
//!
//! An active plan always runs protected: the host recovery layer
//! (checksums, retries, fast-ack retransmit and demotion) is on whenever
//! any fault is injected. `recovery=on` only matters without one, where
//! it keeps the layer on against the fast-ack path's own base
//! instability.
//!
//! # `VSCC_FAULTS` grammar
//!
//! Comma-separated `key=value` directives (see [`FaultSpec::parse`]):
//!
//! ```text
//! seed=7                 RNG seed for all fault streams (default 0)
//! corrupt=0.005          TLP corruption probability per tunnel transfer
//! ackloss=1e-4           extra fast-ack loss probability per posted write
//! recovery=on            recovery layer on even without an active fault
//! watchdog=2000000       flag-poll watchdog budget in cycles
//! ```
//!
//! Any other key is rejected as an unknown fault key, so a spec written
//! for a wider grammar fails loudly instead of running fault-free.
//!
//! Example: `VSCC_FAULTS=seed=3,corrupt=0.01,recovery=on,watchdog=2000000`.
//!
//! ## Phase bounds
//!
//! Both injection keys can carry a trailing `@<start>..<end>` [`Phase`]
//! bound restricting them to a virtual-clock window: the fault fires only
//! for `start <= now < end` (either side may be omitted — `@..50000`
//! means "until cycle 50 000", `@50000..` means "from cycle 50 000 on").
//! Examples:
//!
//! ```text
//! ackloss=0.9@..3000000         ack storm that ends at cycle 3 000 000
//! corrupt=0.05@1000000..2000000 corruption only inside the window
//! ```
//!
//! Out-of-phase cycles draw from no RNG stream at all — a phase bound is
//! pure clock arithmetic, so the draw sequence inside the window is
//! independent of how much fault-free time surrounds it. This is what
//! lets a *storm-then-quiet* plan model a transient fault burst that
//! ends, which the self-healing layer (`vscc::health`) needs in order to
//! demonstrate demote → probe → re-promote arcs.

use std::cell::RefCell;
use std::fmt;

use crate::obs::{Registry, FAULTS_ENV};
use crate::rng::DetRng;
use crate::stats::Counter;
use crate::time::Cycles;
use crate::trace::{Category, Trace};

/// A virtual-clock window bounding one injection key: the fault fires
/// only while `start <= now < end`. [`Phase::ALWAYS`] (the default) is
/// unbounded. Parsed from a trailing `@<start>..<end>` on the key's
/// value; both sides optional.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// First cycle (inclusive) at which the fault may fire.
    pub start: Cycles,
    /// First cycle (exclusive) at which it stops firing; `None` = never.
    pub end: Option<Cycles>,
}

impl Phase {
    /// The unbounded phase: active on every cycle.
    pub const ALWAYS: Phase = Phase { start: 0, end: None };

    /// Whether `now` falls inside this phase.
    pub fn contains(&self, now: Cycles) -> bool {
        now >= self.start && self.end.is_none_or(|e| now < e)
    }

    /// The canonical `@start..end` suffix, empty for [`Phase::ALWAYS`].
    fn suffix(&self) -> String {
        if *self == Phase::ALWAYS {
            String::new()
        } else {
            match self.end {
                Some(end) => format!("@{}..{}", self.start, end),
                None => format!("@{}..", self.start),
            }
        }
    }
}

impl Default for Phase {
    fn default() -> Self {
        Phase::ALWAYS
    }
}

/// Seeded fault-injection configuration. Plain data: carried in host
/// configs, comparable, and parseable from the `VSCC_FAULTS` env spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for every fault RNG stream (site streams are forked from it).
    pub seed: u64,
    /// Probability a tunnel payload transfer arrives with flipped bytes.
    pub tlp_corrupt_p: f64,
    /// Phase bound of the TLP corruption fault.
    pub tlp_corrupt_phase: Phase,
    /// Extra fast write-ack loss probability, on top of the model's own
    /// device-count-dependent instability.
    pub ack_loss_p: f64,
    /// Phase bound of the injected fast-ack loss.
    pub ack_phase: Phase,
    /// Keep the host recovery layer (checksum verify + retry/backoff,
    /// fast-ack retransmit + fallback) on even when no fault is
    /// injected. An active spec runs protected regardless.
    pub recovery: bool,
    /// Flag-poll watchdog budget in cycles, if any: a rank stuck polling
    /// longer than this aborts the run with a diagnosed timeout.
    pub watchdog: Option<Cycles>,
}

impl FaultSpec {
    /// The empty spec: nothing injected, recovery off, no watchdog.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            tlp_corrupt_p: 0.0,
            tlp_corrupt_phase: Phase::ALWAYS,
            ack_loss_p: 0.0,
            ack_phase: Phase::ALWAYS,
            recovery: false,
            watchdog: None,
        }
    }

    /// Whether any fault is actually injected. A spec that only sets
    /// `recovery`/`watchdog` is inactive: no plan is built for it, so
    /// fault-free runs stay bit-identical.
    pub fn is_active(&self) -> bool {
        self.tlp_corrupt_p > 0.0 || self.ack_loss_p > 0.0
    }

    /// Parse the `VSCC_FAULTS` spec grammar (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        fn prob(key: &str, v: &str) -> Result<f64, String> {
            let p: f64 =
                v.parse().map_err(|_| format!("{key}: expected a probability, got {v:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{key}: probability {p} outside [0, 1]"));
            }
            Ok(p)
        }
        fn cycles(key: &str, v: &str) -> Result<Cycles, String> {
            v.parse().map_err(|_| format!("{key}: expected a cycle count, got {v:?}"))
        }
        fn phase(key: &str, s: &str) -> Result<Phase, String> {
            let (start, end) = s
                .split_once("..")
                .ok_or_else(|| format!("{key}: expected @<start>..<end> phase, got {s:?}"))?;
            let start = if start.is_empty() { 0 } else { cycles(key, start)? };
            let end = if end.is_empty() { None } else { Some(cycles(key, end)?) };
            if let Some(e) = end {
                if e <= start {
                    return Err(format!("{key}: phase end {e} must exceed start {start}"));
                }
            }
            Ok(Phase { start, end })
        }
        /// A rate value: a probability with an optional trailing
        /// `@start..end` phase bound.
        fn rate(key: &str, v: &str) -> Result<(f64, Phase), String> {
            match v.split_once('@') {
                Some((p, tail)) => Ok((prob(key, p)?, phase(key, tail)?)),
                None => Ok((prob(key, v)?, Phase::ALWAYS)),
            }
        }

        let mut out = FaultSpec::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            match key {
                "seed" => out.seed = cycles("seed", value)?,
                "corrupt" => (out.tlp_corrupt_p, out.tlp_corrupt_phase) = rate("corrupt", value)?,
                "ackloss" => (out.ack_loss_p, out.ack_phase) = rate("ackloss", value)?,
                "recovery" => {
                    if value != "on" {
                        return Err(format!("recovery: expected on, got {value:?}"));
                    }
                    out.recovery = true;
                }
                "watchdog" => out.watchdog = Some(cycles("watchdog", value)?),
                _ => return Err(format!("unknown fault key {key:?}")),
            }
        }
        Ok(out)
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut put = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            write!(f, "{sep}{s}")?;
            sep = ",";
            Ok(())
        };
        put(f, format!("seed={}", self.seed))?;
        if self.tlp_corrupt_p > 0.0 {
            put(f, format!("corrupt={}{}", self.tlp_corrupt_p, self.tlp_corrupt_phase.suffix()))?;
        }
        if self.ack_loss_p > 0.0 {
            put(f, format!("ackloss={}{}", self.ack_loss_p, self.ack_phase.suffix()))?;
        }
        if self.recovery {
            put(f, "recovery=on".to_string())?;
        }
        if let Some(w) = self.watchdog {
            put(f, format!("watchdog={w}"))?;
        }
        Ok(())
    }
}

/// The `VSCC_FAULTS` spec from the environment, if set and non-empty.
/// Panics on a malformed spec — this is a debug hook, and a typo should
/// fail loudly, not silently run fault-free.
pub fn spec_from_env() -> Option<FaultSpec> {
    let raw = std::env::var(FAULTS_ENV).ok().filter(|v| !v.is_empty())?;
    match FaultSpec::parse(&raw) {
        Ok(spec) => Some(spec),
        Err(e) => panic!("malformed {FAULTS_ENV}={raw:?}: {e} (see des::faultplan docs)"),
    }
}

/// FNV-1a over `bytes`. Used as the tunnel-transfer checksum by the host
/// recovery layer: cheap, deterministic, and sensitive to any byte flip.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runtime of a [`FaultSpec`]: forked RNG streams per injection site,
/// `pcie.fault.*` counters, and `Fault`-category trace emission.
///
/// Each site has its own stream so adding draws at one site never shifts
/// another site's sequence; all draw methods are RNG-free when their rate
/// is zero.
pub struct FaultPlan {
    spec: FaultSpec,
    tlp_rng: RefCell<DetRng>,
    ack_rng: RefCell<DetRng>,
    garble_rng: RefCell<DetRng>,
    /// Dedicated stream for health-probe canary writes, so probe traffic
    /// can never shift the draw sequence any application write sees.
    probe_rng: RefCell<DetRng>,
    trace: Trace,
    /// Tunnel transfers corrupted (`pcie.fault.tlp_corrupted`).
    pub tlp_corrupted: Counter,
    /// Fast write-acks lost, base instability and injected combined
    /// (`pcie.fault.ack_lost`).
    pub ack_lost: Counter,
}

impl FaultPlan {
    /// Build the runtime for `spec`. `trace` receives `Fault`-category
    /// events (pass a disabled trace to skip them).
    pub fn new(spec: FaultSpec, trace: Trace) -> Self {
        let mut root = DetRng::seed_from(spec.seed ^ 0xFA17_AB5E_D15E_A5E5);
        let tlp_rng = RefCell::new(root.fork(1));
        // Stream 2 fed a retired injection site. Forking advances the
        // root, so it is still skipped to keep every later stream's seed.
        root.next_u64();
        FaultPlan {
            tlp_rng,
            ack_rng: RefCell::new(root.fork(3)),
            garble_rng: RefCell::new(root.fork(4)),
            probe_rng: RefCell::new(root.fork(5)),
            spec,
            trace,
            tlp_corrupted: Counter::new(),
            ack_lost: Counter::new(),
        }
    }

    /// The spec this plan runs.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Adopt the plan's counters into `registry` under `pcie.fault.*`.
    pub fn register_metrics(&self, registry: &Registry) {
        let r = registry.scoped("pcie.fault");
        r.adopt_counter("tlp_corrupted", &self.tlp_corrupted);
        r.adopt_counter("ack_lost", &self.ack_lost);
    }

    fn note(&self, now: Cycles, kind: &'static str, flow: Option<u64>) {
        crate::audit::record_fault(now, kind, flow.unwrap_or(0));
        self.trace.instant(now, Category::Fault, kind, flow, || "fault", Vec::new);
    }

    /// Draw whether one tunnel payload transfer arrives corrupted (then
    /// apply [`FaultPlan::garble`] to its in-flight copy). A zero rate or
    /// an out-of-phase cycle skips the draw entirely.
    pub fn tlp_corrupt(&self, now: Cycles, flow: Option<u64>) -> bool {
        let hit = self.spec.tlp_corrupt_p > 0.0
            && self.spec.tlp_corrupt_phase.contains(now)
            && self.tlp_rng.borrow_mut().chance(self.spec.tlp_corrupt_p);
        if hit {
            self.tlp_corrupted.inc();
            self.note(now, "tlp_corrupt", flow);
        }
        hit
    }

    /// Really flip bytes of an in-flight copy (functional fidelity: a
    /// corrupted transfer delivers wrong bytes, not a timing blip). Flips
    /// 1–4 byte positions with non-zero XOR masks.
    pub fn garble(&self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let mut rng = self.garble_rng.borrow_mut();
        let flips = rng.range(1, 5).min(data.len() as u64);
        for _ in 0..flips {
            let pos = rng.range(0, data.len() as u64) as usize;
            let mask = rng.range(1, 256) as u8;
            data[pos] ^= mask;
        }
    }

    /// Draw the injected extra fast-ack loss for one posted write. Uses
    /// its own stream so `FastAck`'s legacy draw sequence is untouched.
    pub fn extra_ack_loss(&self, now: Cycles) -> bool {
        self.spec.ack_loss_p > 0.0
            && self.spec.ack_phase.contains(now)
            && self.ack_rng.borrow_mut().chance(self.spec.ack_loss_p)
    }

    /// Draw the injected ack loss for one health-probe canary write.
    /// Same rate and phase bounds as [`FaultPlan::extra_ack_loss`], but a
    /// dedicated stream: however many probes the health layer sends, the
    /// draw sequence seen by application writes is unchanged.
    pub fn probe_ack_loss(&self, now: Cycles) -> bool {
        self.spec.ack_loss_p > 0.0
            && self.spec.ack_phase.contains(now)
            && self.probe_rng.borrow_mut().chance(self.spec.ack_loss_p)
    }

    /// Record one lost fast-ack (base instability or injected) in
    /// `pcie.fault.ack_lost` and the `Fault` trace.
    pub fn note_ack_lost(&self, now: Cycles, flow: Option<u64>) {
        self.ack_lost.inc();
        self.note(now, "ack_lost", flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_roundtrips() {
        let s = FaultSpec::none();
        assert!(!s.is_active());
        assert_eq!(FaultSpec::parse("").unwrap(), s);
        assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn parse_full_grammar() {
        let s = FaultSpec::parse("seed=7,corrupt=0.005,ackloss=1e-4,recovery=on,watchdog=2000000")
            .unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.tlp_corrupt_p, 0.005);
        assert_eq!(s.ack_loss_p, 1e-4);
        assert!(s.recovery && s.is_active());
        assert_eq!(s.watchdog, Some(2_000_000));
        // Display → parse roundtrip.
        assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultSpec::parse("corrupt=2.0").is_err());
        assert!(FaultSpec::parse("corrupt").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("recovery=maybe").is_err());
        // Phase bounds: empty window, backwards window, non-phase key,
        // a bare `@` value.
        assert!(FaultSpec::parse("corrupt=0.1@500..500").is_err());
        assert!(FaultSpec::parse("corrupt=0.1@900..500").is_err());
        assert!(FaultSpec::parse("corrupt=0.1@a..b").is_err());
        assert!(FaultSpec::parse("corrupt=0.1@5").is_err());
        assert!(FaultSpec::parse("seed=7@1..2").is_err());
        // Removed keys and aliases stay errors, not silent no-ops.
        assert!(FaultSpec::parse("until=5").is_err());
        assert!(FaultSpec::parse("recovery=off").is_err());
        for stale in [
            "drop=0.1",
            "delay=0.1:10",
            "linkdown=1@2",
            "stall=1@2",
            "mmio_stuck=0.1",
            "mmio_garble=0.1",
        ] {
            let err = FaultSpec::parse(stale).expect_err(stale);
            assert!(err.contains("unknown fault key"), "{stale}: {err}");
        }
    }

    #[test]
    fn parse_phase_bounds() {
        let s = FaultSpec::parse("seed=3,corrupt=0.05@1000..2000,ackloss=0.9@30000..").unwrap();
        assert_eq!(s.tlp_corrupt_phase, Phase { start: 1000, end: Some(2000) });
        assert_eq!(s.ack_phase, Phase { start: 30_000, end: None });
        let s = FaultSpec::parse("ackloss=0.9@..3000000").unwrap();
        assert_eq!(s.ack_phase, Phase { start: 0, end: Some(3_000_000) });
        // Display → parse roundtrip with every phase shape present.
        assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn phases_gate_draws_without_touching_streams() {
        // A storm that ends: in-window draws match an unbounded plan's
        // draws exactly (the phase gate sits before the RNG), and
        // out-of-window cycles draw nothing.
        let bounded = FaultSpec::parse("seed=9,corrupt=0.5@100..200").unwrap();
        let unbounded = FaultSpec::parse("seed=9,corrupt=0.5").unwrap();
        let pb = FaultPlan::new(bounded, Trace::disabled());
        let pu = FaultPlan::new(unbounded, Trace::disabled());
        for now in 0..300u64 {
            let b = pb.tlp_corrupt(now, None);
            if (100..200).contains(&now) {
                assert_eq!(b, pu.tlp_corrupt(now, None));
            } else {
                assert!(!b, "fault fired out of phase at {now}");
            }
        }
        assert!(pb.tlp_corrupted.get() > 0);
    }

    #[test]
    fn streams_keep_their_fork_seeds() {
        // Each site stream is the root's fork of its own index, 1 to 5,
        // in order; index 2 is skipped, not reused, so seeded plans draw
        // the same sequences as before its site was retired.
        let plan = FaultPlan::new(FaultSpec { seed: 17, ..FaultSpec::none() }, Trace::disabled());
        let mut root = DetRng::seed_from(17 ^ 0xFA17_AB5E_D15E_A5E5);
        let mut want: Vec<DetRng> = (1..=5).map(|i| root.fork(i)).collect();
        let streams =
            [(&plan.tlp_rng, 1), (&plan.ack_rng, 3), (&plan.garble_rng, 4), (&plan.probe_rng, 5)];
        for (stream, i) in streams {
            assert_eq!(stream.borrow_mut().next_u64(), want[i - 1].next_u64(), "stream {i}");
        }
    }

    #[test]
    fn probe_stream_is_independent_of_ack_stream() {
        // Interleaving probe draws between ack draws must not change the
        // ack sequence (and vice versa): separate forked streams.
        let spec = FaultSpec::parse("seed=6,ackloss=0.5").unwrap();
        let plain: Vec<bool> = {
            let plan = FaultPlan::new(spec.clone(), Trace::disabled());
            (0..200).map(|i| plan.extra_ack_loss(i)).collect()
        };
        let interleaved: Vec<bool> = {
            let plan = FaultPlan::new(spec, Trace::disabled());
            (0..200)
                .map(|i| {
                    let _ = plan.probe_ack_loss(i);
                    plan.extra_ack_loss(i)
                })
                .collect()
        };
        assert_eq!(plain, interleaved);
    }

    #[test]
    fn recovery_only_spec_is_inactive() {
        let s = FaultSpec::parse("recovery=on,watchdog=1000").unwrap();
        assert!(!s.is_active());
    }

    #[test]
    fn checksum_detects_any_flip() {
        let data = vec![0xA5u8; 256];
        let want = checksum(&data);
        for pos in [0usize, 17, 255] {
            let mut d = data.clone();
            d[pos] ^= 0x01;
            assert_ne!(checksum(&d), want, "flip at {pos} undetected");
        }
        assert_eq!(checksum(&data), want);
    }

    #[test]
    fn zero_rates_never_draw() {
        let plan = FaultPlan::new(FaultSpec::none(), Trace::disabled());
        for i in 0..1000u64 {
            assert!(!plan.tlp_corrupt(i, None));
            assert!(!plan.extra_ack_loss(i));
            assert!(!plan.probe_ack_loss(i));
        }
        // No draws means the streams were never touched and no counter moved.
        assert_eq!(plan.tlp_corrupted.get(), 0);
        assert_eq!(plan.ack_lost.get(), 0);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let spec = FaultSpec::parse("seed=9,corrupt=0.2").unwrap();
        let draw = |spec: &FaultSpec| {
            let plan = FaultPlan::new(spec.clone(), Trace::disabled());
            (0..200).map(|i| plan.tlp_corrupt(i, None)).collect::<Vec<_>>()
        };
        let a = draw(&spec);
        assert_eq!(a, draw(&spec));
        assert!(a.iter().any(|&f| f));
        let other = FaultSpec { seed: 10, ..spec };
        assert_ne!(a, draw(&other));
    }

    #[test]
    fn garble_really_flips_bytes_deterministically() {
        let spec = FaultSpec::parse("seed=4,corrupt=1.0").unwrap();
        let run = || {
            let plan = FaultPlan::new(spec.clone(), Trace::disabled());
            let mut data = vec![0x5Au8; 64];
            plan.garble(&mut data);
            data
        };
        let a = run();
        assert_eq!(a, run());
        assert_ne!(a, vec![0x5Au8; 64]);
        assert_ne!(checksum(&a), checksum(&[0x5Au8; 64]));
    }

    #[test]
    fn trace_gets_fault_category_events() {
        let spec = FaultSpec::parse("seed=1,corrupt=1.0").unwrap();
        let trace = Trace::enabled();
        let plan = FaultPlan::new(spec, trace.clone());
        assert!(plan.tlp_corrupt(42, Some(7)));
        let ev = trace.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].cat, Category::Fault);
        assert_eq!(ev[0].kind, "tlp_corrupt");
        assert_eq!(ev[0].flow, Some(7));
        assert_eq!(ev[0].time, 42);
    }
}
