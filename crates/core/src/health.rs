//! Per-pair health state machine of the self-healing communication plane
//! (DESIGN.md §5h).
//!
//! The host recovery layer demotes a 3×-lossy device pair from the
//! posted remote-put fast path to the host-acked fallback. It runs
//! whenever a fault plan is active (or `recovery=on` keeps it on without
//! one); this module is what earns a demoted pair its way back:
//!
//! ```text
//!             consecutive lossy bursts ≥ FALLBACK_THRESHOLD
//!   Healthy ─────────────────────────────────────────────► Degraded
//!      ▲                                                      │
//!      │ promote: K consecutive probe successes               │ probe
//!      │                                                      ▼ timer
//!   Probing ◄──────────────────────────────────────────── (canary)
//!      │  probe_fail: back to Degraded, interval doubled
//!      │
//!      └── demote_count ≥ QUARANTINE_AFTER ──► Quarantined (terminal)
//! ```
//!
//! A demoted pair keeps serving traffic over the safe fallback while a
//! daemon prober sends periodic single-line canaries over the *demoted*
//! fast path. `PROMOTE_AFTER` consecutive successes re-promote the pair;
//! any failure resets the success count and doubles the probe interval
//! (bounded by `probe_backoff_max`) — exponential hysteresis, so a pair
//! under an ongoing fault storm is re-tested ever more rarely and cannot
//! flap. A pair demoted `QUARANTINE_AFTER` times is quarantined: it stays
//! on the fallback permanently and its prober retires. Every transition
//! is timestamped, logged (bounded), traced (`Category::Health`), and
//! counted (`host.health.*`).
//!
//! Retries do not consult this module: a corrupted tunnel transfer is
//! re-sent on the model's fixed `retry_backoff_base` ladder. Probers only
//! spawn after a demotion, so on a fault-free run this module is pure
//! inert state, which is what keeps the committed goldens byte-identical.
//!
//! All state lives behind `RefCell` (single-threaded simulation) and all
//! clocks are virtual: two identical seeded runs produce identical
//! transition logs.

use std::cell::RefCell;
use std::collections::BTreeMap;

use des::obs::Registry;
use des::stats::{Counter, Gauge};
use des::Cycles;

/// Health of one `(src_device, dst_device)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairHealth {
    /// Fast path in use; no demotion in effect.
    Healthy,
    /// Demoted to the host-acked fallback; prober armed.
    Degraded,
    /// A canary probe is in flight on the fast path.
    Probing,
    /// Demoted too many times; fallback is permanent, prober retired.
    Quarantined,
}

impl PairHealth {
    /// Lower-case name, as traced and reported.
    pub fn name(self) -> &'static str {
        match self {
            PairHealth::Healthy => "healthy",
            PairHealth::Degraded => "degraded",
            PairHealth::Probing => "probing",
            PairHealth::Quarantined => "quarantined",
        }
    }

    /// Whether traffic for this pair must use the host-acked fallback.
    pub fn uses_fallback(self) -> bool {
        !matches!(self, PairHealth::Healthy)
    }
}

/// One recorded FSM transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Virtual-clock time of the transition.
    pub time: Cycles,
    /// The `(src_device, dst_device)` pair.
    pub pair: (u8, u8),
    /// State before.
    pub from: PairHealth,
    /// State after.
    pub to: PairHealth,
    /// What caused it: `"demote"`, `"probe_start"`, `"probe_fail"`,
    /// `"promote"`, or `"quarantine"`.
    pub trigger: &'static str,
}

/// Bound on the transition log: enough for any bench arc, bounded for
/// chaos loops (the counters always cover everything).
const TRANSITION_LOG: usize = 1024;

#[derive(Debug, Default)]
struct PairState {
    health: Option<PairHealth>, // None = never touched (counts as Healthy)
    ack_streak: u32,
    demote_count: u32,
    probe_successes: u32,
    probe_interval: Cycles,
    prober_active: bool,
}

impl PairState {
    fn health(&self) -> PairHealth {
        self.health.unwrap_or(PairHealth::Healthy)
    }
}

/// Tracker of every pair's health and probe schedule.
///
/// Owned by `vscc::host::HostSide`; always constructed (field reads are
/// cheap) but its metrics are only registered when a fault plan is
/// active, mirroring `FaultPlan::register_metrics`.
pub struct HealthTracker {
    pairs: RefCell<BTreeMap<(u8, u8), PairState>>,
    transitions: RefCell<Vec<HealthTransition>>,
    /// Pairs currently Degraded (`host.health.degraded_pairs`).
    pub degraded_pairs: Gauge,
    /// Pairs currently Probing (`host.health.probing_pairs`).
    pub probing_pairs: Gauge,
    /// Pairs currently Quarantined (`host.health.quarantined_pairs`).
    pub quarantined_pairs: Gauge,
    /// Probe-driven re-promotions (`host.health.promotions`).
    pub promotions: Counter,
    /// Canary probes sent (`host.health.probe_sent`).
    pub probe_sent: Counter,
    /// Canary probes acked (`host.health.probe_ok`).
    pub probe_ok: Counter,
    /// Canary probes lost (`host.health.probe_fail`).
    pub probe_fail: Counter,
    /// Pairs quarantined (`host.health.quarantines`).
    pub quarantines: Counter,
}

impl HealthTracker {
    pub fn new() -> Self {
        HealthTracker {
            pairs: RefCell::new(BTreeMap::new()),
            transitions: RefCell::new(Vec::new()),
            degraded_pairs: Gauge::new(),
            probing_pairs: Gauge::new(),
            quarantined_pairs: Gauge::new(),
            promotions: Counter::new(),
            probe_sent: Counter::new(),
            probe_ok: Counter::new(),
            probe_fail: Counter::new(),
            quarantines: Counter::new(),
        }
    }

    /// Surface the gauges and counters in `registry` under
    /// `host.health.*`. Called only when a fault plan is active, so
    /// fault-free metric snapshots stay byte-identical.
    pub fn register(&self, registry: &Registry) {
        let h = registry.scoped("host").scoped("health");
        h.adopt_gauge("degraded_pairs", &self.degraded_pairs);
        h.adopt_gauge("probing_pairs", &self.probing_pairs);
        h.adopt_gauge("quarantined_pairs", &self.quarantined_pairs);
        h.adopt_counter("promotions", &self.promotions);
        h.adopt_counter("probe_sent", &self.probe_sent);
        h.adopt_counter("probe_ok", &self.probe_ok);
        h.adopt_counter("probe_fail", &self.probe_fail);
        h.adopt_counter("quarantines", &self.quarantines);
    }

    fn gauge_of(&self, s: PairHealth) -> Option<&Gauge> {
        match s {
            PairHealth::Healthy => None,
            PairHealth::Degraded => Some(&self.degraded_pairs),
            PairHealth::Probing => Some(&self.probing_pairs),
            PairHealth::Quarantined => Some(&self.quarantined_pairs),
        }
    }

    /// Move `pair` to `to`, maintaining the per-state gauges and the
    /// bounded transition log. Returns the transition for tracing.
    fn transition(
        &self,
        now: Cycles,
        pair: (u8, u8),
        state: &mut PairState,
        to: PairHealth,
        trigger: &'static str,
    ) -> HealthTransition {
        let from = state.health();
        if let Some(g) = self.gauge_of(from) {
            g.sub(1);
        }
        if let Some(g) = self.gauge_of(to) {
            g.add(1);
        }
        state.health = Some(to);
        let t = HealthTransition { time: now, pair, from, to, trigger };
        let mut log = self.transitions.borrow_mut();
        if log.len() < TRANSITION_LOG {
            log.push(t);
        }
        t
    }

    /// Current health of `pair`.
    pub fn state(&self, pair: (u8, u8)) -> PairHealth {
        self.pairs.borrow().get(&pair).map(|s| s.health()).unwrap_or(PairHealth::Healthy)
    }

    /// Every tracked pair with its state, sorted by pair id.
    pub fn states(&self) -> Vec<((u8, u8), PairHealth)> {
        self.pairs.borrow().iter().map(|(&p, s)| (p, s.health())).collect()
    }

    /// Pairs currently routed over the host-acked fallback, sorted.
    pub fn fallback_pairs(&self) -> Vec<(u8, u8)> {
        self.pairs
            .borrow()
            .iter()
            .filter(|(_, s)| s.health().uses_fallback())
            .map(|(&p, _)| p)
            .collect()
    }

    /// Whether `pair` must currently use the fallback path.
    pub fn is_fallback(&self, pair: (u8, u8)) -> bool {
        self.state(pair).uses_fallback()
    }

    /// The recorded transitions, in order (bounded at `TRANSITION_LOG`).
    pub fn transitions(&self) -> Vec<HealthTransition> {
        self.transitions.borrow().clone()
    }

    /// Track one posted-write burst result for `pair`. Returns `true`
    /// when the consecutive-lossy streak just reached `threshold` on a
    /// Healthy pair — the caller must then [`HealthTracker::demote`].
    pub fn note_ack_burst(&self, pair: (u8, u8), lossy: bool, threshold: u32) -> bool {
        let mut pairs = self.pairs.borrow_mut();
        let state = pairs.entry(pair).or_default();
        if !lossy {
            state.ack_streak = 0;
            return false;
        }
        state.ack_streak += 1;
        state.ack_streak >= threshold && state.health() == PairHealth::Healthy
    }

    /// Demote `pair` from the fast path. Escalates to Quarantined when
    /// this is the `quarantine_after`-th demotion; otherwise the pair is
    /// Degraded and its probe interval reset to `probe_interval`.
    /// Returns the transition (for tracing) — `None` if the pair was
    /// already off the fast path.
    pub fn demote(
        &self,
        now: Cycles,
        pair: (u8, u8),
        probe_interval: Cycles,
        quarantine_after: u32,
    ) -> Option<HealthTransition> {
        let mut pairs = self.pairs.borrow_mut();
        let state = pairs.entry(pair).or_default();
        if state.health() != PairHealth::Healthy {
            return None;
        }
        state.demote_count += 1;
        state.ack_streak = 0;
        state.probe_successes = 0;
        state.probe_interval = probe_interval;
        if state.demote_count >= quarantine_after {
            self.quarantines.inc();
            Some(self.transition(now, pair, state, PairHealth::Quarantined, "quarantine"))
        } else {
            Some(self.transition(now, pair, state, PairHealth::Degraded, "demote"))
        }
    }

    /// Claim the prober role for `pair`: `true` exactly once per
    /// demotion episode, so duplicate daemons are never spawned.
    pub fn try_start_prober(&self, pair: (u8, u8)) -> bool {
        let mut pairs = self.pairs.borrow_mut();
        let state = pairs.entry(pair).or_default();
        if state.prober_active || state.health() != PairHealth::Degraded {
            return false;
        }
        state.prober_active = true;
        true
    }

    /// The prober for `pair` retired (promotion, quarantine, or end of
    /// run).
    pub fn prober_done(&self, pair: (u8, u8)) {
        if let Some(state) = self.pairs.borrow_mut().get_mut(&pair) {
            state.prober_active = false;
        }
    }

    /// Next canary delay for `pair` (set by demote / probe outcomes).
    pub fn probe_interval(&self, pair: (u8, u8)) -> Cycles {
        self.pairs.borrow().get(&pair).map(|s| s.probe_interval).unwrap_or(0).max(1)
    }

    /// A canary is going out: Degraded → Probing. Returns the transition,
    /// or `None` if the pair is not Degraded (prober should retire).
    pub fn begin_probe(&self, now: Cycles, pair: (u8, u8)) -> Option<HealthTransition> {
        let mut pairs = self.pairs.borrow_mut();
        let state = pairs.get_mut(&pair)?;
        if state.health() != PairHealth::Degraded {
            return None;
        }
        self.probe_sent.inc();
        Some(self.transition(now, pair, state, PairHealth::Probing, "probe_start"))
    }

    /// The canary was acked. After `promote_after` consecutive successes
    /// the pair re-promotes (Probing → Healthy, returns the transition);
    /// otherwise it returns to Degraded silently (same episode, interval
    /// halved toward `base_interval` — healing pairs are probed faster).
    pub fn note_probe_ok(
        &self,
        now: Cycles,
        pair: (u8, u8),
        promote_after: u32,
        base_interval: Cycles,
    ) -> Option<HealthTransition> {
        self.probe_ok.inc();
        let mut pairs = self.pairs.borrow_mut();
        let state = pairs.get_mut(&pair).expect("probe outcome for untracked pair");
        state.probe_successes += 1;
        state.probe_interval = (state.probe_interval / 2).max(base_interval);
        if state.probe_successes >= promote_after {
            state.probe_successes = 0;
            self.promotions.inc();
            Some(self.transition(now, pair, state, PairHealth::Healthy, "promote"))
        } else {
            state.health = Some(PairHealth::Degraded);
            self.probing_pairs.sub(1);
            self.degraded_pairs.add(1);
            None
        }
    }

    /// The canary was lost: success count resets and the probe interval
    /// doubles (bounded by `backoff_max`) — the exponential hysteresis
    /// that keeps a pair from flapping under an ongoing storm. Returns
    /// the Probing → Degraded transition.
    pub fn note_probe_fail(
        &self,
        now: Cycles,
        pair: (u8, u8),
        backoff_max: Cycles,
    ) -> HealthTransition {
        self.probe_fail.inc();
        let mut pairs = self.pairs.borrow_mut();
        let state = pairs.get_mut(&pair).expect("probe outcome for untracked pair");
        state.probe_successes = 0;
        state.probe_interval = (state.probe_interval * 2).min(backoff_max);
        self.transition(now, pair, state, PairHealth::Degraded, "probe_fail")
    }
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Cycles = 160_000;
    const CAP: Cycles = 16 * BASE;

    fn demoted_tracker(pair: (u8, u8)) -> HealthTracker {
        let t = HealthTracker::new();
        assert!(!t.note_ack_burst(pair, true, 3));
        assert!(!t.note_ack_burst(pair, true, 3));
        assert!(t.note_ack_burst(pair, true, 3));
        t.demote(0, pair, BASE, 5).expect("first demotion transitions");
        t
    }

    #[test]
    fn streak_resets_on_clean_burst() {
        let t = HealthTracker::new();
        assert!(!t.note_ack_burst((0, 1), true, 3));
        assert!(!t.note_ack_burst((0, 1), true, 3));
        assert!(!t.note_ack_burst((0, 1), false, 3));
        assert!(!t.note_ack_burst((0, 1), true, 3));
        assert_eq!(t.state((0, 1)), PairHealth::Healthy);
        assert!(t.fallback_pairs().is_empty());
    }

    #[test]
    fn demote_probe_promote_arc() {
        let t = demoted_tracker((0, 1));
        assert_eq!(t.state((0, 1)), PairHealth::Degraded);
        assert_eq!(t.fallback_pairs(), vec![(0, 1)]);
        assert!(t.try_start_prober((0, 1)));
        assert!(!t.try_start_prober((0, 1)), "duplicate prober claimed");
        // K = 2 successes re-promote.
        assert!(t.begin_probe(10, (0, 1)).is_some());
        assert!(t.note_probe_ok(11, (0, 1), 2, BASE).is_none());
        assert!(t.begin_probe(20, (0, 1)).is_some());
        let promoted = t.note_probe_ok(21, (0, 1), 2, BASE).expect("second success promotes");
        assert_eq!((promoted.from, promoted.to), (PairHealth::Probing, PairHealth::Healthy));
        assert_eq!(t.state((0, 1)), PairHealth::Healthy);
        assert!(t.fallback_pairs().is_empty());
        assert_eq!(t.promotions.get(), 1);
        assert_eq!(t.probe_ok.get(), 2);
        assert_eq!(t.degraded_pairs.get(), 0);
        assert_eq!(t.probing_pairs.get(), 0);
        // The transition log names the full arc in order.
        let triggers: Vec<_> = t.transitions().iter().map(|tr| tr.trigger).collect();
        assert_eq!(triggers, vec!["demote", "probe_start", "probe_start", "promote"]);
    }

    #[test]
    fn probe_failure_backs_off_exponentially_with_cap() {
        let t = demoted_tracker((2, 0));
        assert_eq!(t.probe_interval((2, 0)), BASE);
        for i in 0..10 {
            t.begin_probe(i, (2, 0)).unwrap();
            let tr = t.note_probe_fail(i, (2, 0), CAP);
            assert_eq!((tr.from, tr.to), (PairHealth::Probing, PairHealth::Degraded));
        }
        assert_eq!(t.probe_interval((2, 0)), CAP, "backoff must cap");
        assert_eq!(t.probe_fail.get(), 10);
        // A success halves the interval back toward base.
        t.begin_probe(99, (2, 0)).unwrap();
        t.note_probe_ok(99, (2, 0), 3, BASE);
        assert_eq!(t.probe_interval((2, 0)), CAP / 2);
        // Failure also reset the success count: one ok is not enough.
        assert_eq!(t.state((2, 0)), PairHealth::Degraded);
    }

    #[test]
    fn repeated_demotions_quarantine() {
        let t = HealthTracker::new();
        let pair = (1, 2);
        for episode in 0..3u64 {
            let tr = t.demote(episode, pair, BASE, 3).expect("healthy pair demotes");
            if episode < 2 {
                assert_eq!(tr.to, PairHealth::Degraded);
                // Heal it so the next demotion is possible.
                t.begin_probe(episode, pair).unwrap();
                t.note_probe_ok(episode, pair, 1, BASE).expect("K=1 promotes");
            } else {
                assert_eq!(tr.to, PairHealth::Quarantined, "third demotion quarantines");
            }
        }
        assert_eq!(t.quarantines.get(), 1);
        assert_eq!(t.quarantined_pairs.get(), 1);
        assert_eq!(t.state(pair), PairHealth::Quarantined);
        assert!(t.is_fallback(pair));
        // Quarantine is terminal: no probing, no re-demotion.
        assert!(t.begin_probe(99, pair).is_none());
        assert!(t.demote(99, pair, BASE, 3).is_none());
        assert!(!t.try_start_prober(pair));
    }

    #[test]
    fn states_and_log_are_sorted_and_bounded() {
        let t = HealthTracker::new();
        t.demote(0, (2, 0), BASE, 9).unwrap();
        t.demote(1, (0, 1), BASE, 9).unwrap();
        assert_eq!(
            t.states(),
            vec![((0, 1), PairHealth::Degraded), ((2, 0), PairHealth::Degraded)]
        );
        assert_eq!(t.fallback_pairs(), vec![(0, 1), (2, 0)]);
        // The log bound holds under a hostile flap loop.
        for i in 0..2 * TRANSITION_LOG as u64 {
            t.begin_probe(i, (0, 1));
            t.note_probe_fail(i, (0, 1), CAP);
        }
        assert!(t.transitions().len() <= TRANSITION_LOG);
    }
}
