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
//! - **TLP drop / corruption / extra delay** on tunnel payload transfers.
//!   Corruption really flips payload bytes (functional-fidelity
//!   invariant); the receiver-side checksum catches it and the transfer
//!   is retried.
//! - **Transient link-down windows**: periodic intervals during which a
//!   PCIe port holds tunnel payload transfers (posted payload deliveries,
//!   vDMA deliveries, prefetch chunks and their retries) until the window
//!   ends. Flag forwards, routed lines, doorbells and fast-ack streams do
//!   not wait. Pure arithmetic over `now` — no RNG, no timers when the
//!   spec is inactive.
//! - **Lost fast write-acks**: an extra loss rate on top of the model's
//!   own instability curve (`pcie::fault::FastAck`), drawn from the
//!   plan's own stream so the base-instability draw sequence is untouched.
//! - **Stuck / garbled MMIO register programming** of the vDMA engine.
//! - **Commtask stall windows**: the host service loop stops draining its
//!   command queue for an interval.
//!
//! An active plan always runs protected: the host recovery layer
//! (checksums, retries, MMIO re-issue, fast-ack retransmit and demotion)
//! is on whenever any fault is injected. `recovery=on` only matters
//! without one, where it keeps the layer on against the fast-ack path's
//! own base instability.
//!
//! # `VSCC_FAULTS` grammar
//!
//! Comma-separated `key=value` directives (see [`FaultSpec::parse`]):
//!
//! ```text
//! seed=7                 RNG seed for all fault streams (default 0)
//! drop=0.01              TLP drop probability per tunnel transfer
//! corrupt=0.005          TLP corruption probability per tunnel transfer
//! delay=0.02:2000        extra-delay probability : delay in cycles
//! linkdown=1000@200000   link held down for 1000 cycles every 200000
//! ackloss=1e-4           extra fast-ack loss probability per posted write
//! mmio_stuck=0.001       register write silently dropped
//! mmio_garble=0.001      register write bit-flipped in flight
//! stall=5000@300000      commtask stalls 5000 cycles every 300000
//! recovery=on            recovery layer on even without an active fault
//! watchdog=2000000       flag-poll watchdog budget in cycles
//! ```
//!
//! Example: `VSCC_FAULTS=seed=3,corrupt=0.01,recovery=on,watchdog=2000000`.
//!
//! ## Phase bounds
//!
//! Every injection key can carry a trailing `@<start>..<end>` [`Phase`]
//! bound restricting it to a virtual-clock window: the fault fires only
//! for `start <= now < end` (either side may be omitted — `@..50000`
//! means "until cycle 50 000", `@50000..` means "from cycle 50 000 on").
//! Examples:
//!
//! ```text
//! ackloss=0.9@..3000000      ack storm that ends at cycle 3 000 000
//! drop=0.05@1000000..2000000 drops only inside the window
//! delay=0.1:2000@..50000     per-key phase composes with `:`-values
//! linkdown=1000@200000@0..9000000   ...and with `@`-window values
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
    /// Probability a tunnel payload transfer is dropped outright.
    pub tlp_drop_p: f64,
    /// Probability a tunnel payload transfer arrives with flipped bytes.
    pub tlp_corrupt_p: f64,
    /// Probability a tunnel payload transfer is delayed by
    /// [`FaultSpec::tlp_delay_cycles`].
    pub tlp_delay_p: f64,
    /// Extra delay applied when the delay fault fires.
    pub tlp_delay_cycles: Cycles,
    /// Length of each periodic link-down window (0 disables).
    pub link_down_duration: Cycles,
    /// Period of the link-down windows (must exceed the duration).
    pub link_down_period: Cycles,
    /// Extra fast write-ack loss probability, on top of the model's own
    /// device-count-dependent instability.
    pub ack_loss_p: f64,
    /// Probability an MMIO register write is silently dropped (stuck).
    pub mmio_stuck_p: f64,
    /// Probability an MMIO register write is bit-flipped in flight.
    pub mmio_garble_p: f64,
    /// Length of each periodic commtask stall window (0 disables).
    pub stall_duration: Cycles,
    /// Period of the commtask stall windows.
    pub stall_period: Cycles,
    /// Phase bound of the TLP drop fault.
    pub tlp_drop_phase: Phase,
    /// Phase bound of the TLP corruption fault.
    pub tlp_corrupt_phase: Phase,
    /// Phase bound of the TLP delay fault.
    pub tlp_delay_phase: Phase,
    /// Phase bound of the link-down windows.
    pub link_phase: Phase,
    /// Phase bound of the injected fast-ack loss.
    pub ack_phase: Phase,
    /// Phase bound of the stuck-MMIO fault.
    pub mmio_stuck_phase: Phase,
    /// Phase bound of the garbled-MMIO fault.
    pub mmio_garble_phase: Phase,
    /// Phase bound of the commtask stall windows.
    pub stall_phase: Phase,
    /// Keep the host recovery layer (checksum verify + retry/backoff,
    /// MMIO guard verify + re-issue, fast-ack retransmit + fallback) on
    /// even when no fault is injected. An active spec runs protected
    /// regardless.
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
            tlp_drop_p: 0.0,
            tlp_corrupt_p: 0.0,
            tlp_delay_p: 0.0,
            tlp_delay_cycles: 0,
            link_down_duration: 0,
            link_down_period: 0,
            ack_loss_p: 0.0,
            mmio_stuck_p: 0.0,
            mmio_garble_p: 0.0,
            stall_duration: 0,
            stall_period: 0,
            tlp_drop_phase: Phase::ALWAYS,
            tlp_corrupt_phase: Phase::ALWAYS,
            tlp_delay_phase: Phase::ALWAYS,
            link_phase: Phase::ALWAYS,
            ack_phase: Phase::ALWAYS,
            mmio_stuck_phase: Phase::ALWAYS,
            mmio_garble_phase: Phase::ALWAYS,
            stall_phase: Phase::ALWAYS,
            recovery: false,
            watchdog: None,
        }
    }

    /// Whether any fault is actually injected. A spec that only sets
    /// `recovery`/`watchdog` is inactive: no plan is built for it, so
    /// fault-free runs stay bit-identical.
    pub fn is_active(&self) -> bool {
        self.tlp_drop_p > 0.0
            || self.tlp_corrupt_p > 0.0
            || self.tlp_delay_p > 0.0
            || self.link_down_duration > 0
            || self.ack_loss_p > 0.0
            || self.mmio_stuck_p > 0.0
            || self.mmio_garble_p > 0.0
            || self.stall_duration > 0
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
        fn window(key: &str, v: &str) -> Result<(Cycles, Cycles), String> {
            let (dur, per) = v
                .split_once('@')
                .ok_or_else(|| format!("{key}: expected <duration>@<period>, got {v:?}"))?;
            let dur = cycles(key, dur)?;
            let per = cycles(key, per)?;
            if dur > 0 && per <= dur {
                return Err(format!("{key}: period {per} must exceed duration {dur}"));
            }
            Ok((dur, per))
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
        /// Split a trailing `@start..end` phase bound off `v`, if present.
        /// Only the *last* `@` segment is a candidate, and only when it
        /// contains `..` — so window values like `1000@200000` (and
        /// phased windows like `1000@200000@0..9000`) parse unambiguously.
        fn split_phase<'v>(key: &str, v: &'v str) -> Result<(&'v str, Phase), String> {
            match v.rsplit_once('@') {
                Some((base, tail)) if tail.contains("..") => Ok((base, phase(key, tail)?)),
                _ => Ok((v, Phase::ALWAYS)),
            }
        }

        let mut out = FaultSpec::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let (value, key_phase) = split_phase(key, value)?;
            if key_phase != Phase::ALWAYS && matches!(key, "seed" | "recovery" | "watchdog") {
                return Err(format!("{key}: key does not take a @start..end phase bound"));
            }
            match key {
                "seed" => out.seed = cycles("seed", value)?,
                "drop" => {
                    out.tlp_drop_p = prob("drop", value)?;
                    out.tlp_drop_phase = key_phase;
                }
                "corrupt" => {
                    out.tlp_corrupt_p = prob("corrupt", value)?;
                    out.tlp_corrupt_phase = key_phase;
                }
                "delay" => {
                    let (p, cyc) = value
                        .split_once(':')
                        .ok_or_else(|| format!("delay: expected <p>:<cycles>, got {value:?}"))?;
                    out.tlp_delay_p = prob("delay", p)?;
                    out.tlp_delay_cycles = cycles("delay", cyc)?;
                    out.tlp_delay_phase = key_phase;
                }
                "linkdown" => {
                    (out.link_down_duration, out.link_down_period) = window("linkdown", value)?;
                    out.link_phase = key_phase;
                }
                "ackloss" => {
                    out.ack_loss_p = prob("ackloss", value)?;
                    out.ack_phase = key_phase;
                }
                "mmio_stuck" => {
                    out.mmio_stuck_p = prob("mmio_stuck", value)?;
                    out.mmio_stuck_phase = key_phase;
                }
                "mmio_garble" => {
                    out.mmio_garble_p = prob("mmio_garble", value)?;
                    out.mmio_garble_phase = key_phase;
                }
                "stall" => {
                    (out.stall_duration, out.stall_period) = window("stall", value)?;
                    out.stall_phase = key_phase;
                }
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
        if self.tlp_drop_p > 0.0 {
            put(f, format!("drop={}{}", self.tlp_drop_p, self.tlp_drop_phase.suffix()))?;
        }
        if self.tlp_corrupt_p > 0.0 {
            put(f, format!("corrupt={}{}", self.tlp_corrupt_p, self.tlp_corrupt_phase.suffix()))?;
        }
        if self.tlp_delay_p > 0.0 {
            put(
                f,
                format!(
                    "delay={}:{}{}",
                    self.tlp_delay_p,
                    self.tlp_delay_cycles,
                    self.tlp_delay_phase.suffix()
                ),
            )?;
        }
        if self.link_down_duration > 0 {
            put(
                f,
                format!(
                    "linkdown={}@{}{}",
                    self.link_down_duration,
                    self.link_down_period,
                    self.link_phase.suffix()
                ),
            )?;
        }
        if self.ack_loss_p > 0.0 {
            put(f, format!("ackloss={}{}", self.ack_loss_p, self.ack_phase.suffix()))?;
        }
        if self.mmio_stuck_p > 0.0 {
            put(f, format!("mmio_stuck={}{}", self.mmio_stuck_p, self.mmio_stuck_phase.suffix()))?;
        }
        if self.mmio_garble_p > 0.0 {
            put(
                f,
                format!("mmio_garble={}{}", self.mmio_garble_p, self.mmio_garble_phase.suffix()),
            )?;
        }
        if self.stall_duration > 0 {
            put(
                f,
                format!(
                    "stall={}@{}{}",
                    self.stall_duration,
                    self.stall_period,
                    self.stall_phase.suffix()
                ),
            )?;
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

/// A fault drawn for one tunnel transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlpFault {
    /// The transfer vanishes: nothing arrives.
    Drop,
    /// The transfer arrives with flipped bytes (apply [`FaultPlan::garble`]).
    Corrupt,
    /// The transfer arrives late by this many extra cycles.
    Delay(Cycles),
}

/// A fault drawn for one MMIO register write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioFault {
    /// The write is silently dropped (stuck programming).
    Stuck,
    /// The write arrives bit-flipped.
    Garble,
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
    mmio_rng: RefCell<DetRng>,
    ack_rng: RefCell<DetRng>,
    garble_rng: RefCell<DetRng>,
    /// Dedicated stream for health-probe canary writes, so probe traffic
    /// can never shift the draw sequence any application write sees.
    probe_rng: RefCell<DetRng>,
    trace: Trace,
    /// Tunnel transfers dropped (`pcie.fault.tlp_dropped`).
    pub tlp_dropped: Counter,
    /// Tunnel transfers corrupted (`pcie.fault.tlp_corrupted`).
    pub tlp_corrupted: Counter,
    /// Tunnel transfers delayed (`pcie.fault.tlp_delayed`).
    pub tlp_delayed: Counter,
    /// Transfers that waited out a link-down window
    /// (`pcie.fault.link_down_waits`).
    pub link_down_waits: Counter,
    /// MMIO writes silently dropped (`pcie.fault.mmio_stuck`).
    pub mmio_stuck: Counter,
    /// MMIO writes bit-flipped (`pcie.fault.mmio_garbled`).
    pub mmio_garbled: Counter,
    /// Commands that waited out a commtask stall window
    /// (`pcie.fault.commtask_stalls`).
    pub commtask_stalls: Counter,
    /// Fast write-acks lost, base instability and injected combined
    /// (`pcie.fault.ack_lost`).
    pub ack_lost: Counter,
}

impl FaultPlan {
    /// Build the runtime for `spec`. `trace` receives `Fault`-category
    /// events (pass a disabled trace to skip them).
    pub fn new(spec: FaultSpec, trace: Trace) -> Self {
        let mut root = DetRng::seed_from(spec.seed ^ 0xFA17_AB5E_D15E_A5E5);
        FaultPlan {
            tlp_rng: RefCell::new(root.fork(1)),
            mmio_rng: RefCell::new(root.fork(2)),
            ack_rng: RefCell::new(root.fork(3)),
            garble_rng: RefCell::new(root.fork(4)),
            probe_rng: RefCell::new(root.fork(5)),
            spec,
            trace,
            tlp_dropped: Counter::new(),
            tlp_corrupted: Counter::new(),
            tlp_delayed: Counter::new(),
            link_down_waits: Counter::new(),
            mmio_stuck: Counter::new(),
            mmio_garbled: Counter::new(),
            commtask_stalls: Counter::new(),
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
        r.adopt_counter("tlp_dropped", &self.tlp_dropped);
        r.adopt_counter("tlp_corrupted", &self.tlp_corrupted);
        r.adopt_counter("tlp_delayed", &self.tlp_delayed);
        r.adopt_counter("link_down_waits", &self.link_down_waits);
        r.adopt_counter("mmio_stuck", &self.mmio_stuck);
        r.adopt_counter("mmio_garbled", &self.mmio_garbled);
        r.adopt_counter("commtask_stalls", &self.commtask_stalls);
        r.adopt_counter("ack_lost", &self.ack_lost);
    }

    fn note(&self, now: Cycles, kind: &'static str, flow: Option<u64>) {
        crate::audit::record_fault(now, kind, flow.unwrap_or(0));
        self.trace.instant(now, Category::Fault, kind, flow, || "fault", Vec::new);
    }

    /// Draw the fault (if any) for one tunnel payload transfer. At most
    /// one fault fires per transfer, checked drop → corrupt → delay; a
    /// zero rate (or an out-of-phase cycle) skips its draw entirely.
    pub fn tlp_fault(&self, now: Cycles, flow: Option<u64>) -> Option<TlpFault> {
        let mut rng = self.tlp_rng.borrow_mut();
        if self.spec.tlp_drop_p > 0.0
            && self.spec.tlp_drop_phase.contains(now)
            && rng.chance(self.spec.tlp_drop_p)
        {
            self.tlp_dropped.inc();
            self.note(now, "tlp_drop", flow);
            return Some(TlpFault::Drop);
        }
        if self.spec.tlp_corrupt_p > 0.0
            && self.spec.tlp_corrupt_phase.contains(now)
            && rng.chance(self.spec.tlp_corrupt_p)
        {
            self.tlp_corrupted.inc();
            self.note(now, "tlp_corrupt", flow);
            return Some(TlpFault::Corrupt);
        }
        if self.spec.tlp_delay_p > 0.0
            && self.spec.tlp_delay_phase.contains(now)
            && rng.chance(self.spec.tlp_delay_p)
        {
            self.tlp_delayed.inc();
            self.note(now, "tlp_delay", flow);
            return Some(TlpFault::Delay(self.spec.tlp_delay_cycles));
        }
        None
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

    /// If `now` falls in a link-down window, the timestamp at which the
    /// link comes back up. Pure arithmetic over the clock — no RNG, no
    /// timers when the window spec is zero.
    pub fn link_down_until(&self, now: Cycles) -> Option<Cycles> {
        if !self.spec.link_phase.contains(now) {
            return None;
        }
        Self::window_end(now, self.spec.link_down_duration, self.spec.link_down_period).inspect(
            |_| {
                self.link_down_waits.inc();
                self.note(now, "link_down_wait", None);
            },
        )
    }

    /// If `now` falls in a commtask stall window, when the stall ends.
    pub fn stall_until(&self, now: Cycles) -> Option<Cycles> {
        if !self.spec.stall_phase.contains(now) {
            return None;
        }
        Self::window_end(now, self.spec.stall_duration, self.spec.stall_period).inspect(|_| {
            self.commtask_stalls.inc();
            self.note(now, "commtask_stall", None);
        })
    }

    fn window_end(now: Cycles, duration: Cycles, period: Cycles) -> Option<Cycles> {
        if duration == 0 || period == 0 {
            return None;
        }
        let phase = now % period;
        (phase < duration).then(|| now - phase + duration)
    }

    /// Draw the fault (if any) for one MMIO register write.
    pub fn mmio_fault(&self, now: Cycles) -> Option<MmioFault> {
        let mut rng = self.mmio_rng.borrow_mut();
        if self.spec.mmio_stuck_p > 0.0
            && self.spec.mmio_stuck_phase.contains(now)
            && rng.chance(self.spec.mmio_stuck_p)
        {
            self.mmio_stuck.inc();
            self.note(now, "mmio_stuck", None);
            return Some(MmioFault::Stuck);
        }
        if self.spec.mmio_garble_p > 0.0
            && self.spec.mmio_garble_phase.contains(now)
            && rng.chance(self.spec.mmio_garble_p)
        {
            self.mmio_garbled.inc();
            self.note(now, "mmio_garble", None);
            return Some(MmioFault::Garble);
        }
        None
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
        let s = FaultSpec::parse(
            "seed=7,drop=0.01,corrupt=0.005,delay=0.02:2000,linkdown=1000@200000,\
             ackloss=1e-4,mmio_stuck=0.001,mmio_garble=0.002,stall=5000@300000,\
             recovery=on,watchdog=2000000",
        )
        .unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.tlp_drop_p, 0.01);
        assert_eq!(s.tlp_corrupt_p, 0.005);
        assert_eq!((s.tlp_delay_p, s.tlp_delay_cycles), (0.02, 2000));
        assert_eq!((s.link_down_duration, s.link_down_period), (1000, 200_000));
        assert_eq!(s.ack_loss_p, 1e-4);
        assert_eq!((s.mmio_stuck_p, s.mmio_garble_p), (0.001, 0.002));
        assert_eq!((s.stall_duration, s.stall_period), (5000, 300_000));
        assert!(s.recovery && s.is_active());
        assert_eq!(s.watchdog, Some(2_000_000));
        // Display → parse roundtrip.
        assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultSpec::parse("drop=2.0").is_err());
        assert!(FaultSpec::parse("drop").is_err());
        assert!(FaultSpec::parse("linkdown=5000@100").is_err());
        assert!(FaultSpec::parse("delay=0.1").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("recovery=maybe").is_err());
        // Phase bounds: empty window, backwards window, non-phase key.
        assert!(FaultSpec::parse("drop=0.1@500..500").is_err());
        assert!(FaultSpec::parse("drop=0.1@900..500").is_err());
        assert!(FaultSpec::parse("drop=0.1@a..b").is_err());
        assert!(FaultSpec::parse("seed=7@1..2").is_err());
        // Removed keys and aliases stay errors, not silent no-ops.
        assert!(FaultSpec::parse("until=5").is_err());
        assert!(FaultSpec::parse("recovery=off").is_err());
    }

    #[test]
    fn parse_phase_bounds() {
        let s = FaultSpec::parse(
            "seed=3,drop=0.05@1000..2000,delay=0.1:2000@..50000,\
             linkdown=1000@200000@0..9000000,ackloss=0.9@30000..",
        )
        .unwrap();
        assert_eq!(s.tlp_drop_phase, Phase { start: 1000, end: Some(2000) });
        assert_eq!(s.tlp_delay_phase, Phase { start: 0, end: Some(50_000) });
        assert_eq!(s.link_phase, Phase { start: 0, end: Some(9_000_000) });
        assert_eq!((s.link_down_duration, s.link_down_period), (1000, 200_000));
        assert_eq!(s.ack_phase, Phase { start: 30_000, end: None });
        // Display → parse roundtrip with every phase shape present.
        assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn phases_gate_draws_without_touching_streams() {
        // A storm that ends: in-window draws match an unbounded plan's
        // draws exactly (the phase gate sits before the RNG), and
        // out-of-window cycles draw nothing.
        let bounded = FaultSpec::parse("seed=9,drop=0.5@100..200").unwrap();
        let unbounded = FaultSpec::parse("seed=9,drop=0.5").unwrap();
        let pb = FaultPlan::new(bounded, Trace::disabled());
        let pu = FaultPlan::new(unbounded, Trace::disabled());
        for now in 0..300u64 {
            let b = pb.tlp_fault(now, None);
            if (100..200).contains(&now) {
                assert_eq!(b, pu.tlp_fault(now, None));
            } else {
                assert_eq!(b, None, "fault fired out of phase at {now}");
            }
        }
        assert!(pb.tlp_dropped.get() > 0);
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
            assert_eq!(plan.tlp_fault(i, None), None);
            assert_eq!(plan.mmio_fault(i), None);
            assert!(!plan.extra_ack_loss(i));
            assert!(!plan.probe_ack_loss(i));
            assert_eq!(plan.link_down_until(i), None);
            assert_eq!(plan.stall_until(i), None);
        }
        // No draws means the streams were never touched and no counter moved.
        assert_eq!(plan.tlp_dropped.get(), 0);
        assert_eq!(plan.link_down_waits.get(), 0);
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let spec = FaultSpec::parse("seed=9,drop=0.2,corrupt=0.2,delay=0.2:500").unwrap();
        let draw = |spec: &FaultSpec| {
            let plan = FaultPlan::new(spec.clone(), Trace::disabled());
            (0..200).map(|i| plan.tlp_fault(i, None)).collect::<Vec<_>>()
        };
        let a = draw(&spec);
        assert_eq!(a, draw(&spec));
        assert!(a.iter().any(|f| f.is_some()));
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
    fn windows_are_pure_clock_arithmetic() {
        let spec = FaultSpec::parse("linkdown=100@1000").unwrap();
        let plan = FaultPlan::new(spec, Trace::disabled());
        assert_eq!(plan.link_down_until(0), Some(100));
        assert_eq!(plan.link_down_until(99), Some(100));
        assert_eq!(plan.link_down_until(100), None);
        assert_eq!(plan.link_down_until(999), None);
        assert_eq!(plan.link_down_until(1_050), Some(1_100));
        assert_eq!(plan.link_down_waits.get(), 3);
    }

    #[test]
    fn trace_gets_fault_category_events() {
        let spec = FaultSpec::parse("seed=1,drop=1.0").unwrap();
        let trace = Trace::enabled();
        let plan = FaultPlan::new(spec, trace.clone());
        assert_eq!(plan.tlp_fault(42, Some(7)), Some(TlpFault::Drop));
        let ev = trace.events_in(Category::Fault);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, "tlp_drop");
        assert_eq!(ev[0].flow, Some(7));
        assert_eq!(ev[0].time, 42);
    }
}
