//! RCCE sessions: rank numbering, per-rank state, traffic accounting.
//!
//! A session pins one RCCE process (a *unit of execution*, UE) to each
//! participating core. Ranks are assigned linearly over the participating
//! cores — first all cores of device 0, then device 1 starting at 48, and
//! so on (paper §3) — and, as in the paper's startup-script extension
//! (§4), cores that failed to boot are simply skipped, compacting the rank
//! space.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use des::obs::Registry;
use des::stats::{Counter, Log2Histogram};
use des::sync::SimMutex;
use des::trace::{Category, Trace};
use des::{Cycles, JoinHandle, Sim};
use scc::device::SccDevice;
use scc::geometry::{DeviceId, GlobalCore};
use scc::CoreHandle;

use crate::api::Rcce;
use crate::protocol::{BlockingProtocol, PointToPoint};

/// Shared per-session state.
pub struct SessionInner {
    sim: Sim,
    devices: Vec<Rc<SccDevice>>,
    ranks: Vec<GlobalCore>,
    onchip: Rc<dyn PointToPoint>,
    inter: Rc<dyn PointToPoint>,
    traffic: RefCell<Vec<u64>>,
    messages: RefCell<Vec<u64>>,
    /// Per-(src,dest) count of flows allocated on the send side.
    send_flow_seq: RefCell<Vec<u64>>,
    /// Per-(src,dest) count of flows matched on the receive side.
    recv_flow_seq: RefCell<Vec<u64>>,
    trace: Trace,
    metrics: Registry,
    rcce_metrics: RcceMetrics,
    /// Flag-poll watchdog budget: a single protocol wait exceeding this
    /// many cycles aborts the run with a diagnosis instead of hanging.
    /// `None` (the default) polls forever, as real RCCE does.
    poll_watchdog: Option<Cycles>,
}

/// Message-size classes for the per-call latency histograms
/// (`rcce.send.lat_cycles.le64` …). Bounds follow the paper's sweep:
/// small (≤64 B), up to the pipelined threshold (≤1 KiB), up to the MPB
/// payload area (≤8 KiB), and beyond.
pub const SIZE_CLASSES: [(&str, usize); 4] =
    [("le64", 64), ("le1k", 1024), ("le8k", 8192), ("gt8k", usize::MAX)];

/// Instruments of the hot send/recv paths, resolved once at session
/// construction: `Cell` updates per call after.
pub(crate) struct RcceMetrics {
    pub send_lat: Vec<Log2Histogram>,
    pub recv_lat: Vec<Log2Histogram>,
    pub send_lock_wait: Counter,
    /// Cycles each send held its UE's single outgoing-send lock (the MPB
    /// send buffer is one resource; the hold-time distribution is the
    /// send-side serialization the paper's schemes compete on).
    pub send_lock_hold: Log2Histogram,
    /// Flag-poll loop iterations (`flag_wait_reached` wakeups that
    /// re-read the flag); the time-series sampler turns the delta into a
    /// poll scan rate.
    pub poll_scans: Counter,
    pub poll_timeouts: Counter,
}

impl RcceMetrics {
    fn new(registry: &Registry) -> Self {
        let rcce = registry.scoped("rcce");
        RcceMetrics {
            send_lat: SIZE_CLASSES
                .iter()
                .map(|(label, _)| rcce.histogram(&format!("send.lat_cycles.{label}")))
                .collect(),
            recv_lat: SIZE_CLASSES
                .iter()
                .map(|(label, _)| rcce.histogram(&format!("recv.lat_cycles.{label}")))
                .collect(),
            send_lock_wait: rcce.counter("send.lock_wait_cycles"),
            send_lock_hold: rcce.histogram("send.lock_hold_cycles"),
            poll_scans: rcce.counter("poll.scans"),
            poll_timeouts: rcce.counter("poll_timeouts"),
        }
    }
}

/// Index into [`SIZE_CLASSES`] for a message of `len` bytes.
pub fn size_class(len: usize) -> usize {
    SIZE_CLASSES.iter().position(|(_, cap)| len <= *cap).unwrap()
}

impl SessionInner {
    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The core a rank runs on.
    pub fn who(&self, rank: usize) -> GlobalCore {
        self.ranks[rank]
    }

    /// The device object hosting `rank`.
    pub fn device_of(&self, rank: usize) -> &Rc<SccDevice> {
        &self.devices[self.ranks[rank].device.0 as usize]
    }

    /// The device object hosting a physical core.
    pub fn device_of_core(&self, who: GlobalCore) -> &Rc<SccDevice> {
        &self.devices[who.device.0 as usize]
    }

    /// The simulation clock.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The protocol serving the pair `(a, b)`: the on-chip protocol for
    /// same-device pairs, the inter-device protocol otherwise.
    pub fn proto(&self, a: usize, b: usize) -> Rc<dyn PointToPoint> {
        if self.ranks[a].device == self.ranks[b].device {
            self.onchip.clone()
        } else {
            self.inter.clone()
        }
    }

    /// Account `bytes` of payload moved from `src` to `dest` (Fig. 8's
    /// traffic matrix).
    pub fn record_traffic(&self, src: usize, dest: usize, bytes: u64) {
        let n = self.num_ranks();
        self.traffic.borrow_mut()[src * n + dest] += bytes;
        self.messages.borrow_mut()[src * n + dest] += 1;
    }

    /// Encode the `seq`-th message of the pair `(src, dest)` as a flow id.
    /// Ids are unique across pairs, monotonic per pair, and never zero.
    fn flow_id(seq: u64, src: usize, dest: usize) -> u64 {
        let pairs = (crate::layout::MAX_RANKS * crate::layout::MAX_RANKS) as u64;
        seq * pairs + (src * crate::layout::MAX_RANKS + dest) as u64 + 1
    }

    /// Allocate the next send-side flow id for `src -> dest`. The sender
    /// allocates after its send lock is granted and the receiver under
    /// its receive lock; both are FIFO, so the n-th send of a pair
    /// always matches the n-th receive — both sides derive the same id
    /// without any bytes on the wire.
    pub fn next_send_flow(&self, src: usize, dest: usize) -> u64 {
        let n = self.num_ranks();
        let mut seqs = self.send_flow_seq.borrow_mut();
        let seq = seqs[src * n + dest];
        seqs[src * n + dest] += 1;
        Self::flow_id(seq, src, dest)
    }

    /// Allocate the next receive-side flow id for `src -> dest` (the
    /// mirror of [`SessionInner::next_send_flow`]).
    pub fn next_recv_flow(&self, src: usize, dest: usize) -> u64 {
        let n = self.num_ranks();
        let mut seqs = self.recv_flow_seq.borrow_mut();
        let seq = seqs[src * n + dest];
        seqs[src * n + dest] += 1;
        Self::flow_id(seq, src, dest)
    }

    /// The protocol trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The metrics registry this session reports into.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    pub(crate) fn rcce_metrics(&self) -> &RcceMetrics {
        &self.rcce_metrics
    }

    /// The flag-poll watchdog budget, if one is configured.
    pub fn poll_watchdog(&self) -> Option<Cycles> {
        self.poll_watchdog
    }

    /// Record one poll-watchdog trip (used by the protocol layer).
    pub fn note_poll_timeout(&self) {
        self.rcce_metrics.poll_timeouts.inc();
    }

    /// Dense traffic matrix snapshot: `matrix[src][dest]` payload bytes.
    pub fn traffic_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.num_ranks();
        let flat = self.traffic.borrow();
        (0..n).map(|s| flat[s * n..(s + 1) * n].to_vec()).collect()
    }

    /// Message-count matrix snapshot.
    pub fn message_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.num_ranks();
        let flat = self.messages.borrow();
        (0..n).map(|s| flat[s * n..(s + 1) * n].to_vec()).collect()
    }
}

/// Per-rank protocol state: the UE's core handle, flag counters, and the
/// UE's one send lock and one receive lock.
pub struct RankCtx {
    /// This UE's rank.
    pub rank: usize,
    /// The core it runs on.
    pub core: CoreHandle,
    /// The owning session.
    pub session: Rc<SessionInner>,
    /// Chunks sent towards each destination (wrapping counters).
    pub sent_count: RefCell<Vec<u8>>,
    /// Chunks received from each source (wrapping counters).
    pub recv_count: RefCell<Vec<u8>>,
    /// Barrier generation.
    pub barrier_gen: Cell<u8>,
    /// Pre-interned trace label (`"rank<N>"`): hot-path trace closures
    /// clone this `Rc` instead of formatting a fresh `String` per event.
    pub label: Rc<str>,
    send_lock: SimMutex,
    recv_lock: SimMutex,
    /// Send-lock exclusivity monitor: true while a send is in flight.
    in_send: Cell<bool>,
}

impl RankCtx {
    fn new(session: &Rc<SessionInner>, rank: usize) -> Rc<Self> {
        let n = session.num_ranks();
        let device = session.device_of(rank);
        Rc::new(RankCtx {
            rank,
            core: CoreHandle::new(device, session.who(rank).core),
            session: session.clone(),
            sent_count: RefCell::new(vec![0; n]),
            recv_count: RefCell::new(vec![0; n]),
            barrier_gen: Cell::new(0),
            label: session.trace().intern(&format!("rank{rank}")),
            send_lock: SimMutex::new(),
            recv_lock: SimMutex::new(),
            in_send: Cell::new(false),
        })
    }

    /// Number of ranks in the session.
    pub fn num_ranks(&self) -> usize {
        self.session.num_ranks()
    }

    /// This rank's core identity.
    pub fn who(&self) -> GlobalCore {
        self.session.who(self.rank)
    }

    /// Bump the `sent` counter towards `dest` and return its new value.
    pub fn next_sent(&self, dest: usize) -> u8 {
        let mut sc = self.sent_count.borrow_mut();
        sc[dest] = sc[dest].wrapping_add(1);
        sc[dest]
    }

    /// Serializes this rank's outgoing sends. The lock is global per UE,
    /// not per destination: every send stages its chunks through the one
    /// local MPB send buffer, exactly like iRCCE's single outgoing
    /// request queue — two concurrent isends would otherwise clobber the
    /// buffer.
    pub(crate) fn send_lock(&self) -> &SimMutex {
        &self.send_lock
    }

    /// Serializes this rank's receives, in call order. Like the send
    /// lock it is global per UE, not per source: the direct slot and the
    /// remote-put and vDMA receive areas of this rank's MPB are one
    /// resource each, shared by every inter-device sender.
    pub(crate) fn recv_lock(&self) -> &SimMutex {
        &self.recv_lock
    }

    /// Send-lock exclusivity monitor: mark a send in flight. Two
    /// overlapping sends of one UE would interleave chunks through the
    /// single MPB send buffer; that is a protocol bug, so it traces an
    /// `App` violation event (with the offending flow) and fails fast.
    pub fn enter_send(&self, flow: u64) {
        if self.in_send.replace(true) {
            let me = self.rank;
            self.session.trace().instant(
                self.session.sim().now(),
                Category::App,
                "monitor_violation",
                Some(flow),
                || self.label.clone(),
                || des::fields![check = "send_lock_exclusivity", rank = me],
            );
            panic!(
                "send-lock exclusivity violated: rank {me} started a send \
                 (flow {flow}) while another send was in flight"
            );
        }
    }

    /// Mark the in-flight send finished.
    pub fn exit_send(&self) {
        self.in_send.set(false);
    }
}

/// Builder for [`Session`].
pub struct SessionBuilder {
    sim: Sim,
    devices: Vec<Rc<SccDevice>>,
    participants: Option<Vec<GlobalCore>>,
    onchip: Rc<dyn PointToPoint>,
    inter: Option<Rc<dyn PointToPoint>>,
    trace: Trace,
    metrics: Option<Registry>,
    poll_watchdog: Option<Cycles>,
}

impl SessionBuilder {
    /// Start building a session over `devices`.
    pub fn new(sim: &Sim, devices: Vec<Rc<SccDevice>>) -> Self {
        assert!(!devices.is_empty(), "a session needs at least one device");
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(d.id, DeviceId(i as u8), "devices must be passed in id order");
        }
        SessionBuilder {
            sim: sim.clone(),
            devices,
            participants: None,
            onchip: Rc::new(BlockingProtocol::default()),
            inter: None,
            trace: Trace::disabled(),
            metrics: None,
            poll_watchdog: None,
        }
    }

    /// Abort any single protocol flag wait that exceeds `limit` cycles
    /// with a diagnosed timeout (instead of polling forever). The
    /// watchdog races a virtual timer against each wait; the losing
    /// timer is withdrawn on drop, so a clean run's final `sim.now()`
    /// and timer population are unaffected (see `tests/engine.rs`).
    pub fn poll_watchdog(mut self, limit: Cycles) -> Self {
        self.poll_watchdog = Some(limit);
        self
    }

    /// Restrict the session to an explicit core list (rank order).
    pub fn participants(mut self, cores: Vec<GlobalCore>) -> Self {
        self.participants = Some(cores);
        self
    }

    /// Use only the first `k` alive cores of each device.
    pub fn cores_per_device(mut self, k: usize) -> Self {
        let mut cores = Vec::new();
        for dev in &self.devices {
            cores.extend(dev.alive_cores().into_iter().take(k).map(|c| dev.global(c)));
        }
        self.participants = Some(cores);
        self
    }

    /// Cap the total number of ranks (e.g. BT's square process counts).
    pub fn max_ranks(mut self, n: usize) -> Self {
        let all = self.participants.take().unwrap_or_else(|| self.default_participants());
        self.participants = Some(all.into_iter().take(n).collect());
        self
    }

    /// Replace the on-chip (same-device) point-to-point protocol.
    pub fn onchip_protocol(mut self, p: Rc<dyn PointToPoint>) -> Self {
        self.onchip = p;
        self
    }

    /// Replace the inter-device point-to-point protocol (the vSCC schemes).
    pub fn interdevice_protocol(mut self, p: Rc<dyn PointToPoint>) -> Self {
        self.inter = Some(p);
        self
    }

    /// Record protocol events into `trace`: a fresh [`Trace::enabled`]
    /// for a Fig. 2 timeline, or a shared one (e.g. the vSCC system
    /// trace, so protocol and host events interleave on one timeline).
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Report metrics into an externally-shared registry instead of a
    /// private one.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    fn default_participants(&self) -> Vec<GlobalCore> {
        // Linear extension of RCCE ranks over alive cores, device by
        // device (paper §2.1/§4).
        self.devices.iter().flat_map(|d| d.alive_cores().into_iter().map(|c| d.global(c))).collect()
    }

    /// Finish the builder.
    pub fn build(self) -> Session {
        let ranks = match self.participants {
            Some(p) => p,
            None => self.default_participants(),
        };
        assert!(!ranks.is_empty(), "session has no participants");
        assert!(ranks.len() <= crate::layout::MAX_RANKS);
        for g in &ranks {
            let dev = &self.devices[g.device.0 as usize];
            assert!(dev.is_alive(g.core), "participant {g} did not boot");
        }
        let n = ranks.len();
        let inter = self.inter.unwrap_or_else(|| self.onchip.clone());
        let metrics = self.metrics.unwrap_or_default();
        let rcce_metrics = RcceMetrics::new(&metrics);
        Session {
            inner: Rc::new(SessionInner {
                sim: self.sim,
                devices: self.devices,
                ranks,
                onchip: self.onchip,
                inter,
                traffic: RefCell::new(vec![0; n * n]),
                messages: RefCell::new(vec![0; n * n]),
                send_flow_seq: RefCell::new(vec![0; n * n]),
                recv_flow_seq: RefCell::new(vec![0; n * n]),
                trace: self.trace,
                metrics,
                rcce_metrics,
                poll_watchdog: self.poll_watchdog,
            }),
        }
    }
}

/// A built RCCE session.
#[derive(Clone)]
pub struct Session {
    /// Shared state (exposed for the vSCC system layer).
    pub inner: Rc<SessionInner>,
}

impl Session {
    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    /// Build the per-rank handle for `rank`.
    pub fn rcce(&self, rank: usize) -> Rcce {
        assert!(rank < self.num_ranks());
        Rcce::new(RankCtx::new(&self.inner, rank))
    }

    /// Spawn one task per rank running `f(rcce)`; returns the handles in
    /// rank order.
    pub fn spawn_ranks<T, Fut>(&self, f: impl Fn(Rcce) -> Fut) -> Vec<JoinHandle<T>>
    where
        T: 'static,
        Fut: Future<Output = T> + 'static,
    {
        (0..self.num_ranks())
            .map(|r| self.inner.sim().spawn_named(format!("rank{r}"), f(self.rcce(r))))
            .collect()
    }

    /// Spawn all ranks, run the simulation to completion, and return the
    /// per-rank results.
    pub fn run_app<T, Fut>(&self, f: impl Fn(Rcce) -> Fut) -> Result<Vec<T>, des::SimError>
    where
        T: 'static,
        Fut: Future<Output = T> + 'static,
    {
        let handles = self.spawn_ranks(f);
        self.inner.sim().run()?;
        Ok(handles
            .into_iter()
            .map(|h| h.try_take().expect("rank task finished under run()"))
            .collect())
    }

    /// Traffic matrix (payload bytes), `matrix[src][dest]`.
    pub fn traffic_matrix(&self) -> Vec<Vec<u64>> {
        self.inner.traffic_matrix()
    }

    /// Message-count matrix.
    pub fn message_matrix(&self) -> Vec<Vec<u64>> {
        self.inner.message_matrix()
    }

    /// The protocol trace (empty unless built `with_trace` of an enabled
    /// one).
    pub fn trace(&self) -> Trace {
        self.inner.trace().clone()
    }

    /// The metrics registry this session reports into.
    pub fn metrics(&self) -> Registry {
        self.inner.metrics().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc::device::BootConfig;

    fn one_device(sim: &Sim) -> Vec<Rc<SccDevice>> {
        vec![SccDevice::new(sim, DeviceId(0))]
    }

    #[test]
    fn default_mapping_is_linear() {
        let sim = Sim::new();
        let s = SessionBuilder::new(&sim, one_device(&sim)).build();
        assert_eq!(s.num_ranks(), 48);
        assert_eq!(s.inner.who(0), GlobalCore::new(0, 0));
        assert_eq!(s.inner.who(47), GlobalCore::new(0, 47));
    }

    #[test]
    fn failed_cores_are_skipped_and_ranks_compact() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        let up = dev.boot(&BootConfig { core_failure_prob: 0.2, seed: 3 });
        let s = SessionBuilder::new(&sim, vec![dev]).build();
        assert_eq!(s.num_ranks(), up.len());
        // Ranks are dense over the surviving cores in id order.
        for (r, c) in up.iter().enumerate() {
            assert_eq!(s.inner.who(r).core, *c);
        }
    }

    #[test]
    fn cores_per_device_limits_ranks() {
        let sim = Sim::new();
        let s = SessionBuilder::new(&sim, one_device(&sim)).cores_per_device(4).build();
        assert_eq!(s.num_ranks(), 4);
    }

    #[test]
    fn max_ranks_truncates() {
        let sim = Sim::new();
        let s = SessionBuilder::new(&sim, one_device(&sim)).max_ranks(9).build();
        assert_eq!(s.num_ranks(), 9);
    }

    #[test]
    fn flow_ids_match_across_sides_and_stay_unique() {
        let sim = Sim::new();
        let s = SessionBuilder::new(&sim, one_device(&sim)).max_ranks(3).build();
        // Both sides derive the same id for the nth message of a pair.
        let f1 = s.inner.next_send_flow(0, 1);
        let f2 = s.inner.next_send_flow(0, 1);
        assert_eq!(s.inner.next_recv_flow(0, 1), f1);
        assert_eq!(s.inner.next_recv_flow(0, 1), f2);
        assert_ne!(f1, f2);
        // Distinct pairs never collide, and ids are never zero.
        let g1 = s.inner.next_send_flow(1, 0);
        let g2 = s.inner.next_send_flow(1, 2);
        assert!(f1 != g1 && f1 != g2 && g1 != g2);
        assert!(f1 > 0 && g1 > 0);
    }

    #[test]
    fn traffic_matrix_accumulates() {
        let sim = Sim::new();
        let s = SessionBuilder::new(&sim, one_device(&sim)).max_ranks(3).build();
        s.inner.record_traffic(0, 1, 100);
        s.inner.record_traffic(0, 1, 50);
        s.inner.record_traffic(2, 0, 7);
        let m = s.traffic_matrix();
        assert_eq!(m[0][1], 150);
        assert_eq!(m[2][0], 7);
        assert_eq!(m[1][2], 0);
        assert_eq!(s.message_matrix()[0][1], 2);
    }

    #[test]
    #[should_panic(expected = "did not boot")]
    fn dead_participant_rejected() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        dev.boot(&BootConfig { core_failure_prob: 0.99, seed: 5 });
        let dead = (0..48)
            .map(scc::geometry::CoreId)
            .find(|c| !dev.is_alive(*c))
            .expect("some core failed");
        let g = dev.global(dead);
        SessionBuilder::new(&sim, vec![dev]).participants(vec![g]).build();
    }
}
