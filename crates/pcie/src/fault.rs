//! Fast write-acknowledge emulation and its instability.
//!
//! The 2012 prototype's *remote put* performance relied on the FPGA
//! generating automatic write acknowledges for requests targeting off-chip
//! memory. Per the paper (§2.3) this "has known stability issues, which
//! prevents a tight coupling of more than two SCC devices and works only
//! for applications with a moderate inter-device communication". We model
//! the mechanism as a per-posted-write ack-loss probability that is zero
//! for ≤2 coupled devices and grows with both device count and traffic —
//! enough to reproduce the qualitative result (the `tbl_stability` bench):
//! fine at 2 devices, unusable at 3+.
//!
//! The emulation rides the deterministic fault plane
//! ([`des::faultplan::FaultPlan`]): an attached plan can inject *extra*
//! ack loss (`ackloss=` in the spec) from its own RNG stream — the legacy
//! draw sequence is untouched, so seeded runs without a plan reproduce
//! byte-identically — and every lost ack, base or injected, lands in the
//! plan's `pcie.fault.ack_lost` counter and `Fault`-category trace. Each
//! loss is also stamped with its virtual-clock time and flow id so a
//! [`StabilityError`] is attributable, not just counted.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use des::faultplan::FaultPlan;
use des::rng::DetRng;
use des::stats::Counter;
use des::Cycles;

/// One lost fast write-ack, stamped for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostAck {
    /// Virtual-clock time of the posted write whose ack was lost.
    pub time: Cycles,
    /// Flow id of the message the write belonged to, if known.
    pub flow: Option<u64>,
}

/// How many individual losses a [`StabilityError`] records (the counts
/// always cover all of them).
pub const LOST_ACK_LOG: usize = 32;

/// Error produced when the fast-ack path lost acknowledges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilityError {
    /// Lost acknowledges observed.
    pub failures: u64,
    /// Posted writes issued.
    pub writes: u64,
    /// The first [`LOST_ACK_LOG`] losses, each with its virtual-clock
    /// time and flow id.
    pub lost: Vec<LostAck>,
}

impl fmt::Display for StabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fast write-ack instability: {} lost acks in {} posted writes",
            self.failures, self.writes
        )?;
        if !self.lost.is_empty() {
            write!(f, "; first losses:")?;
            for l in self.lost.iter().take(4) {
                match l.flow {
                    Some(flow) => write!(f, " t={} (flow {})", l.time, flow)?,
                    None => write!(f, " t={}", l.time)?,
                }
            }
            if self.lost.len() > 4 {
                write!(f, " …")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for StabilityError {}

/// State of the FPGA fast write-acknowledge emulation.
pub struct FastAck {
    enabled: bool,
    coupled_devices: usize,
    rng: RefCell<DetRng>,
    /// Dedicated base-instability stream for health-probe canary writes.
    /// Probes draw from here (and from the plan's probe stream), never
    /// from `rng`, so probe traffic cannot shift the legacy sequence —
    /// and merely seeding this at construction draws nothing at all.
    probe_rng: RefCell<DetRng>,
    writes: Counter,
    failures: Counter,
    lost: RefCell<Vec<LostAck>>,
    plan: RefCell<Option<Rc<FaultPlan>>>,
}

/// Base ack-loss probability per posted write at 3 coupled devices.
const BASE_LOSS_P: f64 = 2e-5;

impl FastAck {
    /// Create the emulation for a system of `coupled_devices` devices.
    pub fn new(enabled: bool, coupled_devices: usize, seed: u64) -> Self {
        FastAck {
            enabled,
            coupled_devices,
            rng: RefCell::new(DetRng::seed_from(seed ^ 0xFA57_ACC5)),
            probe_rng: RefCell::new(DetRng::seed_from(seed ^ 0x0009_B0BE_CA9A_21E5)),
            writes: Counter::new(),
            failures: Counter::new(),
            lost: RefCell::new(Vec::new()),
            plan: RefCell::new(None),
        }
    }

    /// Attach a fault plan: injected `ackloss=` faults add to the base
    /// instability, and every loss is surfaced through the plan's
    /// counters and trace.
    pub fn attach_plan(&self, plan: Rc<FaultPlan>) {
        *self.plan.borrow_mut() = Some(plan);
    }

    /// Ack-loss probability per posted write in the current configuration
    /// (base instability only; an attached plan adds its own).
    pub fn loss_probability(&self) -> f64 {
        if !self.enabled || self.coupled_devices <= 2 {
            0.0
        } else {
            // Doubles per device beyond three: contention on the shared
            // host-side ack path compounds.
            BASE_LOSS_P * (1u64 << (self.coupled_devices - 3)) as f64
        }
    }

    /// Account one posted write at virtual time `now` for message `flow`;
    /// returns `true` if its automatic ack was lost (the write must be
    /// retried / the session destabilizes).
    pub fn on_posted_write(&self, now: Cycles, flow: Option<u64>) -> bool {
        self.writes.inc();
        let p = self.loss_probability();
        // The legacy stream draws exactly as before any plan existed:
        // only when the base probability is non-zero.
        let base_lost = p > 0.0 && self.rng.borrow_mut().chance(p);
        let plan = self.plan.borrow();
        let injected_lost = plan.as_ref().is_some_and(|pl| pl.extra_ack_loss(now));
        if !(base_lost || injected_lost) {
            return false;
        }
        self.failures.inc();
        let mut lost = self.lost.borrow_mut();
        if lost.len() < LOST_ACK_LOG {
            lost.push(LostAck { time: now, flow });
        }
        if let Some(pl) = plan.as_ref() {
            pl.note_ack_lost(now, flow);
        }
        true
    }

    /// Account one health-probe canary write at `now`; returns `true` if
    /// its ack was lost. Probes see the same loss *rates* as application
    /// writes — base instability plus any injected `ackloss=` (with its
    /// phase bounds) — but draw from dedicated streams and touch neither
    /// the posted-write counters nor the lost-ack log, so a probing run's
    /// application-visible behaviour is unchanged and [`FastAck::check`]
    /// never blames probe traffic.
    pub fn on_probe_write(&self, now: Cycles) -> bool {
        let p = self.loss_probability();
        let base_lost = p > 0.0 && self.probe_rng.borrow_mut().chance(p);
        let injected_lost = self.plan.borrow().as_ref().is_some_and(|pl| pl.probe_ack_loss(now));
        base_lost || injected_lost
    }

    /// (posted writes, lost acks) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.writes.get(), self.failures.get())
    }

    /// Err if any ack was lost — the paper's prototype could not recover.
    pub fn check(&self) -> Result<(), StabilityError> {
        if self.failures.get() > 0 {
            Err(StabilityError {
                failures: self.failures.get(),
                writes: self.writes.get(),
                lost: self.lost.borrow().clone(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::faultplan::FaultSpec;
    use des::trace::{Category, Trace};

    #[test]
    fn two_devices_are_stable() {
        let fa = FastAck::new(true, 2, 1);
        for _ in 0..200_000 {
            assert!(!fa.on_posted_write(0, None));
        }
        assert!(fa.check().is_ok());
    }

    #[test]
    fn disabled_never_fails() {
        let fa = FastAck::new(false, 5, 1);
        for _ in 0..100_000 {
            assert!(!fa.on_posted_write(0, None));
        }
        assert!(fa.check().is_ok());
    }

    #[test]
    fn three_devices_fail_under_heavy_traffic() {
        let fa = FastAck::new(true, 3, 7);
        // ~ 1 MB/run of line writes in a real session: ~3e5 posted writes.
        for _ in 0..300_000 {
            fa.on_posted_write(0, None);
        }
        let err = fa.check().expect_err("3-device coupling must destabilize");
        assert!(err.failures > 0);
        assert_eq!(err.writes, 300_000);
    }

    #[test]
    fn loss_probability_grows_with_device_count() {
        let p3 = FastAck::new(true, 3, 0).loss_probability();
        let p5 = FastAck::new(true, 5, 0).loss_probability();
        assert!(p5 > p3);
        assert_eq!(p5, p3 * 4.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let fa = FastAck::new(true, 4, seed);
            (0..50_000).filter(|_| fa.on_posted_write(0, None)).count()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn lost_acks_are_stamped_for_attribution() {
        let fa = FastAck::new(true, 5, 3);
        let mut t = 0u64;
        for i in 0..100_000u64 {
            t = i * 10;
            fa.on_posted_write(t, Some(i + 1));
        }
        let err = fa.check().expect_err("5-device coupling must destabilize");
        assert!(!err.lost.is_empty());
        assert!(err.lost.len() <= LOST_ACK_LOG);
        assert_eq!(err.lost.len() as u64, err.failures.min(LOST_ACK_LOG as u64));
        for l in &err.lost {
            assert!(l.time <= t);
            assert!(l.flow.is_some());
        }
        let msg = err.to_string();
        assert!(msg.contains("first losses:"), "{msg}");
        assert!(msg.contains("flow"), "{msg}");
    }

    #[test]
    fn attached_plan_preserves_legacy_stream_and_counts_losses() {
        // Losses of a bare FastAck.
        let bare = {
            let fa = FastAck::new(true, 4, 11);
            (0..50_000u64).filter(|_| fa.on_posted_write(0, None)).count()
        };
        // Same seed with a zero-ackloss plan attached: identical stream.
        let trace = Trace::enabled();
        let plan =
            Rc::new(FaultPlan::new(FaultSpec { seed: 5, ..FaultSpec::none() }, trace.clone()));
        let fa = FastAck::new(true, 4, 11);
        fa.attach_plan(plan.clone());
        let with_plan = (0..50_000u64).filter(|i| fa.on_posted_write(*i, Some(1))).count();
        assert_eq!(bare, with_plan, "zero-rate plan must not shift the legacy draw stream");
        assert_eq!(plan.ack_lost.get(), with_plan as u64);
        let faults = trace.with_events(|ev| ev.iter().filter(|e| e.cat == Category::Fault).count());
        assert_eq!(faults, with_plan);
    }

    #[test]
    fn probe_writes_do_not_perturb_application_stream_or_counters() {
        // Same seed, probes interleaved: the application-write loss
        // pattern and the (writes, failures) stats must be identical.
        let spec = FaultSpec::parse("seed=3,ackloss=0.2").unwrap();
        let run = |probe: bool| {
            let plan = Rc::new(FaultPlan::new(spec.clone(), Trace::disabled()));
            let fa = FastAck::new(true, 4, 11);
            fa.attach_plan(plan);
            let losses: Vec<bool> = (0..20_000u64)
                .map(|i| {
                    if probe {
                        let _ = fa.on_probe_write(i);
                    }
                    fa.on_posted_write(i, None)
                })
                .collect();
            (losses, fa.stats())
        };
        let (plain, plain_stats) = run(false);
        let (probed, probed_stats) = run(true);
        assert_eq!(plain, probed, "probe draws leaked into the application stream");
        assert_eq!(plain_stats, probed_stats, "probes moved the posted-write counters");
    }

    #[test]
    fn probe_writes_see_injected_loss() {
        let spec = FaultSpec::parse("seed=8,ackloss=0.5").unwrap();
        let plan = Rc::new(FaultPlan::new(spec, Trace::disabled()));
        let fa = FastAck::new(true, 2, 1); // base p = 0 at 2 devices
        fa.attach_plan(plan);
        let losses = (0..1000u64).filter(|&i| fa.on_probe_write(i)).count();
        assert!(losses > 300, "injected loss must hit probes too (got {losses})");
        assert_eq!(fa.stats(), (0, 0), "probes must not count as posted writes");
    }

    #[test]
    fn injected_ack_loss_adds_to_base() {
        // 2 devices: base probability is zero, so every loss is injected.
        let spec = FaultSpec::parse("seed=2,ackloss=0.01").unwrap();
        let plan = Rc::new(FaultPlan::new(spec, Trace::disabled()));
        let fa = FastAck::new(true, 2, 1);
        fa.attach_plan(plan.clone());
        let losses = (0..100_000u64).filter(|i| fa.on_posted_write(*i, None)).count();
        assert!(losses > 0, "injected ack loss must fire");
        assert_eq!(plan.ack_lost.get(), losses as u64);
        assert_eq!(fa.stats().1, losses as u64);
    }
}
