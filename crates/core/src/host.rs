//! The host communication task (§3.2) and the off-chip fabric it provides.
//!
//! [`HostSide`] is what gets plugged into every device as its
//! [`RemoteFabric`]. It implements, in one place, everything the paper's
//! multithreaded driver daemon does:
//!
//! * **classification** of incoming requests into synchronization-flag
//!   and communication-buffer accesses (§3.1) — flags bypass all buffers
//!   and are forwarded with an immediate host acknowledge; buffer traffic
//!   is handled per the active [`CommScheme`];
//! * the **transparent routing** path of the 2012 prototype (per-32 B-line
//!   store-and-forward round trips) as the baseline;
//! * the FPGA **fast write-acknowledge** path with its instability;
//! * the host **write-combining buffer** (remote-put scheme);
//! * the **software cache** with prefetch and explicit consistency
//!   control (local-put / remote-get scheme);
//! * the **virtual DMA controller** (local-put / local-get scheme),
//!   with one daemon worker per device processing MMIO commands in order.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use des::bytes::{pooled, Bytes};
use des::channel::{unbounded, Receiver, Sender};
use des::faultplan::{checksum, FaultPlan, FaultSpec, MmioFault, TlpFault};
use des::fields;
use des::obs::Registry;
use des::stats::Counter;
use des::trace::{Category, Trace};
use des::{Cycles, Sim};
use pcie::{ConduitTlp, FastAck, HostFabric, PcieModel};
use rcce::layout::{self, OFF_PAYLOAD};
use scc::device::SccDevice;
use scc::geometry::{DeviceId, GlobalCore, MpbAddr};
use scc::remote::{LocalBoxFuture, RegisterLine, RemoteFabric};
use scc::LINE_BYTES;

use crate::health::{HealthTracker, HealthTransition, PairHealth};
use crate::hostwcb::HostWcb;
use crate::mmio::{self, HostCmd};
use crate::schemes::CommScheme;
use crate::swcache::SwCache;

/// Tunables of the communication task.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// PCIe/SIF timing model.
    pub model: PcieModel,
    /// vDMA / prefetch transfer granularity in bytes.
    pub dma_chunk: usize,
    /// Host write-combining buffer granularity in bytes.
    pub wcb_granularity: usize,
    /// Seed of the fast-ack emulation's base-instability streams
    /// ([`FastAck::new`]). Injected faults draw from [`FaultSpec::seed`]
    /// instead.
    pub seed: u64,
    /// Injected-fault plan specification. [`FaultSpec::none`] (the
    /// default) builds no plan at all: the zero-perturbation path. An
    /// active spec always runs with the recovery layer on.
    pub faults: FaultSpec,
    /// Probe cadence of the recovery layer's health prober.
    pub recovery: RecoveryConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            model: PcieModel::default(),
            dma_chunk: 1024,
            wcb_granularity: 1024,
            seed: 0,
            faults: FaultSpec::none(),
            recovery: RecoveryConfig::default(),
        }
    }
}

/// Retry attempts before a tunnel transfer is abandoned (the loss is
/// then surfaced, not silently dropped).
pub const MAX_RETRIES: u32 = 6;
/// Consecutive lossy posted-write bursts on one device pair before the
/// commtask demotes the pair from remote-put to the host-acked path.
pub const FALLBACK_THRESHOLD: u32 = 3;
/// Consecutive successful canaries before a demoted pair re-promotes to
/// the fast path.
pub const PROMOTE_AFTER: u32 = 3;
/// Demotions of one pair before it is quarantined (permanent fallback,
/// prober retired).
pub const QUARANTINE_AFTER: u32 = 5;

/// Probe cadence of the host recovery layer. Whether the layer runs at
/// all is not configured here: it is on exactly when the fault spec is
/// active or sets `recovery` ([`FaultSpec::recovery`]). Retry timing
/// derives from the PCIe model (`retry_timeout_cycles` /
/// `retry_backoff_base` on [`PcieModel`]); the counts are the module
/// constants ([`MAX_RETRIES`], ...). Zero probe fields mean "derive from
/// the PCIe model" when the host is built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Base interval between health-probe canaries on a demoted pair
    /// (0 derives `probe_interval_base` from the model).
    pub probe_interval: Cycles,
    /// Cap of the exponential probe backoff (0 derives
    /// `probe_interval_max` from the model).
    pub probe_backoff_max: Cycles,
}

impl RecoveryConfig {
    /// Fill derived probe timing from the PCIe model.
    fn resolve(mut self, model: &PcieModel) -> Self {
        if self.probe_interval == 0 {
            self.probe_interval = model.probe_interval_base();
        }
        if self.probe_backoff_max == 0 {
            self.probe_backoff_max = model.probe_interval_max();
        }
        self
    }
}

/// Recovery-activity counters (`host.retry.*`, `host.fallback.*`).
#[derive(Clone, Default)]
pub struct RecoveryStats {
    /// Payload tunnel transfers retried.
    pub payload_retries: Counter,
    /// vDMA tunnel transfers retried.
    pub vdma_retries: Counter,
    /// Prefetch tunnel transfers retried.
    pub prefetch_retries: Counter,
    /// MMIO register lines re-issued after stuck or garbled programming.
    pub mmio_retries: Counter,
    /// Payload lines retransmitted after lost fast acks.
    pub fastack_retransmits: Counter,
    /// Corruptions caught by the tunnel checksum.
    pub checksum_detected: Counter,
    /// Transfers abandoned after exhausting retries.
    pub giveups: Counter,
    /// Duplicate vDMA programming writes suppressed (idempotent
    /// re-issue).
    pub vdma_dedup: Counter,
    /// Device pairs demoted from remote-put to the host-acked path.
    pub demotions: Counter,
    /// Writes served through the fallback path after a demotion.
    pub fallback_writes: Counter,
}

impl RecoveryStats {
    /// Surface the counters in `registry` under `host.retry.*` and
    /// `host.fallback.*`.
    pub fn register(&self, registry: &Registry) {
        let retry = registry.scoped("host").scoped("retry");
        retry.adopt_counter("payload", &self.payload_retries);
        retry.adopt_counter("vdma", &self.vdma_retries);
        retry.adopt_counter("prefetch", &self.prefetch_retries);
        retry.adopt_counter("mmio", &self.mmio_retries);
        retry.adopt_counter("fastack_lines", &self.fastack_retransmits);
        retry.adopt_counter("checksum_detected", &self.checksum_detected);
        retry.adopt_counter("giveups", &self.giveups);
        retry.adopt_counter("vdma_dedup", &self.vdma_dedup);
        let fallback = registry.scoped("host").scoped("fallback");
        fallback.adopt_counter("demotions", &self.demotions);
        fallback.adopt_counter("writes", &self.fallback_writes);
    }
}

/// Counters the experiments inspect.
#[derive(Clone, Default)]
pub struct HostStats {
    /// Routed per-line round trips served.
    pub routed_lines: Counter,
    /// Flag writes forwarded.
    pub flag_forwards: Counter,
    /// vDMA copy commands executed.
    pub vdma_ops: Counter,
    /// Cache prefetch (update) operations executed.
    pub cache_updates: Counter,
    /// Direct small-message writes forwarded.
    pub direct_writes: Counter,
}

impl HostStats {
    /// Surface the counters in `registry` under `host.*`. Field access
    /// (`host.stats.routed_lines.get()`) keeps working; the registry
    /// shares the same handles.
    pub fn register(&self, registry: &Registry) {
        let host = registry.scoped("host");
        host.adopt_counter("routed_lines", &self.routed_lines);
        host.adopt_counter("flag_forwards", &self.flag_forwards);
        host.adopt_counter("vdma_ops", &self.vdma_ops);
        host.adopt_counter("cache_updates", &self.cache_updates);
        host.adopt_counter("direct_writes", &self.direct_writes);
    }
}

/// [`des::span!`] for one PCIe-side hop of the communication task: the
/// host's trace and clock, [`Category::Pcie`], on the `actor` track.
macro_rules! pcie_hop {
    ($host:expr, $kind:expr, $flow:expr, $actor:expr, [$($fields:tt)*], $body:expr $(,)?) => {
        des::span!($host.trace, $host.sim, Category::Pcie, $kind, $flow, $actor, [$($fields)*], $body)
    };
}

/// The communication task and fabric.
pub struct HostSide {
    sim: Sim,
    /// PCIe ports and host memory.
    pub fabric: HostFabric,
    /// Active inter-device communication scheme.
    pub scheme: CommScheme,
    /// The software cache (local-put / remote-get).
    pub cache: SwCache,
    /// The host write-combining buffer (remote-put).
    pub wcb: HostWcb,
    /// Fast write-ack emulation state.
    pub fastack: FastAck,
    /// Operation counters.
    pub stats: HostStats,
    /// Recovery-activity counters.
    pub rstats: RecoveryStats,
    /// Resolved recovery configuration.
    pub recovery: RecoveryConfig,
    /// Whether the recovery layer runs: always under an active fault
    /// plan, and without one only when the spec sets `recovery`.
    protected: bool,
    /// The installed fault plan (`None` on the zero-perturbation path).
    faults: Option<Rc<FaultPlan>>,
    /// Per-pair health FSM and probe schedule (the
    /// self-healing plane — DESIGN.md §5h). Always constructed; its
    /// metrics register only when a fault plan is active, and probers
    /// only spawn after a demotion, so fault-free runs are untouched.
    pub health: HealthTracker,
    /// Per-destination-device delivery chain: each posted delivery
    /// (payload forward or flag forward) swaps in a fresh latch and waits
    /// on its predecessor's, so installs happen in issue order even when
    /// recovery retries delay one of them mid-flight.
    delivery_chain: Vec<RefCell<Rc<des::sync::Latch>>>,
    /// Pre-interned per-device trace labels (`"commtask-d<N>"`): the hot
    /// forwarding paths clone an `Rc` instead of formatting per event.
    commtask_labels: Vec<Rc<str>>,
    /// Per-device commtask busy cycles (`host.commtask.d<N>.busy_cycles`):
    /// virtual time each daemon worker spends executing queued commands,
    /// accumulated once per command so the hot path stays allocation-free.
    commtask_busy: Vec<Counter>,
    /// Reusable scratch for WCB flush batches (drained immediately after
    /// each [`HostWcb::append_into`], never held across an await).
    wcb_ready: RefCell<Vec<crate::hostwcb::PendingRun>>,
    trace: Trace,
    cfg: HostConfig,
    me: Weak<HostSide>,
    devices: RefCell<Vec<Weak<SccDevice>>>,
    workers: RefCell<Vec<Sender<HostCmd>>>,
    /// Per-device doorbell queues: the host side of the latency-stamped
    /// MMIO boundary (DESIGN.md §5i). Cores enqueue stamped posted
    /// doorbells; the `mmio-d<N>` actor services each at its stamped
    /// arrival, so no doorbell reaches the host in under one
    /// `PcieModel::mmio_crossing_cycles()`.
    doorbells: RefCell<Vec<Sender<ConduitTlp<RegisterLine>>>>,
}

impl HostSide {
    /// Create the host side for `n_devices` devices with `scheme` active,
    /// then [`HostSide::attach`] the devices. Metrics report into
    /// `registry` (`host.*`, `pcie.*` names) and structured events go to
    /// `trace` ([`Category::Pcie`] / [`Category::Vdma`]).
    pub fn with_obs(
        sim: &Sim,
        n_devices: u8,
        scheme: CommScheme,
        cfg: HostConfig,
        registry: &Registry,
        trace: Trace,
    ) -> Rc<Self> {
        let fabric = HostFabric::new(cfg.model.clone(), n_devices);
        fabric.register_metrics(registry);
        let fast = scheme == CommScheme::RemotePutHwAck;
        let stats = HostStats::default();
        stats.register(registry);
        let rstats = RecoveryStats::default();
        rstats.register(registry);
        let recovery = cfg.recovery.clone().resolve(&cfg.model);
        let protected = cfg.faults.recovery || cfg.faults.is_active();
        let health = HealthTracker::new();
        // An inactive spec builds no plan: every fault hook stays on its
        // zero-cost `None` path and no RNG stream is ever created. The
        // health metrics follow the same rule — registered only when a
        // plan is active, so fault-free snapshots stay byte-identical.
        let faults = cfg.faults.is_active().then(|| {
            let plan = Rc::new(FaultPlan::new(cfg.faults.clone(), trace.clone()));
            plan.register_metrics(registry);
            health.register(registry);
            fabric.set_faults(&plan);
            plan
        });
        let fastack = FastAck::new(fast, n_devices as usize, cfg.seed);
        if let Some(plan) = &faults {
            fastack.attach_plan(plan.clone());
        }
        let commtask_busy: Vec<Counter> = (0..n_devices)
            .map(|d| {
                let c = Counter::new();
                registry
                    .scoped("host")
                    .scoped("commtask")
                    .scoped(&format!("d{d}"))
                    .adopt_counter("busy_cycles", &c);
                c
            })
            .collect();
        Rc::new_cyclic(|me| HostSide {
            sim: sim.clone(),
            fabric,
            scheme,
            cache: SwCache::new(registry),
            wcb: HostWcb::new(cfg.wcb_granularity, registry),
            fastack,
            stats,
            rstats,
            recovery,
            protected,
            faults,
            health,
            delivery_chain: (0..n_devices)
                .map(|_| RefCell::new(Rc::new(des::sync::Latch::new(0))))
                .collect(),
            commtask_labels: (0..n_devices)
                .map(|d| trace.intern(&format!("commtask-d{d}")))
                .collect(),
            commtask_busy,
            wcb_ready: RefCell::new(Vec::new()),
            trace,
            cfg,
            me: me.clone(),
            devices: RefCell::new(Vec::new()),
            workers: RefCell::new(Vec::new()),
            doorbells: RefCell::new(Vec::new()),
        })
    }

    /// The structured trace host events go to.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Wire the devices to this host: installs `self` as each device's
    /// fabric and spawns one daemon worker per device.
    pub fn attach(self: &Rc<Self>, devices: &[Rc<SccDevice>]) {
        *self.devices.borrow_mut() = devices.iter().map(Rc::downgrade).collect();
        let mut workers = self.workers.borrow_mut();
        let mut doorbells = self.doorbells.borrow_mut();
        for dev in devices {
            dev.set_fabric(self.clone() as Rc<dyn RemoteFabric>);
            let (tx, rx) = unbounded();
            workers.push(tx);
            let host = self.clone();
            let id = dev.id;
            self.sim.spawn_daemon(format!("commtask-d{}", id.0), async move {
                host.worker_loop(id, rx).await;
            });
            // The host end of the device's MMIO conduit: services each
            // stamped doorbell at its arrival time.
            let (tx, rx) = unbounded();
            doorbells.push(tx);
            let host = self.clone();
            self.sim.spawn_daemon(format!("mmio-d{}", id.0), async move {
                host.doorbell_loop(rx).await;
            });
        }
    }

    /// The pre-interned trace label of device `d`'s comm task.
    fn commtask_label(&self, d: u8) -> Rc<str> {
        self.commtask_labels[d as usize].clone()
    }

    fn device(&self, id: DeviceId) -> Rc<SccDevice> {
        self.devices.borrow()[id.0 as usize].upgrade().expect("device dropped while host running")
    }

    /// The configured DMA chunk size.
    pub fn dma_chunk(&self) -> usize {
        self.cfg.dma_chunk
    }

    fn is_payload(addr: MpbAddr) -> bool {
        addr.offset >= OFF_PAYLOAD
    }

    // ------------------------------------------------------------------
    // Daemon workers
    // ------------------------------------------------------------------

    async fn worker_loop(self: Rc<Self>, device: DeviceId, rx: Receiver<HostCmd>) {
        let busy = self.commtask_busy[device.0 as usize].clone();
        let mut last_vdma: Option<HostCmd> = None;
        while let Some(cmd) = rx.recv().await {
            let cmd_start = self.sim.now();
            // Injected commtask stall: the daemon thread is descheduled for
            // the rest of the window before it touches the command.
            if let Some(plan) = &self.faults {
                if let Some(until) = plan.stall_until(self.sim.now()) {
                    self.sim.delay_until(until).await;
                }
            }
            if matches!(cmd, HostCmd::VdmaStart { .. }) {
                // Idempotent re-programming: a retried register write whose
                // original did land shows up as two identical consecutive
                // commands (seq/drain_seq make distinct transfers differ);
                // execute once.
                if self.protected && last_vdma.as_ref() == Some(&cmd) {
                    self.rstats.vdma_dedup.inc();
                    continue;
                }
                last_vdma = Some(cmd.clone());
            }
            match cmd {
                HostCmd::CacheUpdate { owner, offset, len, flow } => {
                    self.do_cache_update(owner, offset, len, flow).await;
                }
                HostCmd::VdmaStart {
                    src,
                    src_off,
                    dst,
                    dst_off,
                    len,
                    seq,
                    src_rank,
                    drain_seq,
                    flow,
                } => {
                    des::span!(
                        self.trace,
                        self.sim,
                        Category::Vdma,
                        "vdma",
                        flow,
                        || self.commtask_label(src.device.0),
                        [src_dev = src.device.0, dst_dev = dst.device.0, bytes = len, seq = seq],
                        self.do_vdma(
                            src, src_off, dst, dst_off, len, seq, src_rank, drain_seq, flow
                        )
                        .await
                    );
                }
                // Handled synchronously at MMIO arrival; never queued.
                HostCmd::CacheInvalidate { .. } => {}
            }
            busy.add(self.sim.now() - cmd_start);
        }
    }

    /// The host end of one device's MMIO conduit: each stamped doorbell
    /// becomes visible here at its arrival time, never earlier.
    /// Per-device FIFO servicing mirrors the egress link's FIFO wire, so
    /// doorbells from one device decode in issue order.
    async fn doorbell_loop(self: Rc<Self>, rx: Receiver<ConduitTlp<RegisterLine>>) {
        while let Some(tlp) = rx.recv().await {
            if self.sim.now() < tlp.arrival {
                self.sim.delay_until(tlp.arrival).await;
            }
            self.service_doorbell(tlp.payload).await;
        }
    }

    /// Decode and dispatch one doorbell line at its host-side arrival:
    /// the fault/retry machinery, the register decode, and the commtask
    /// dispatch — everything that used to run inline in the issuing
    /// core's task before the boundary was latency-stamped.
    async fn service_doorbell(&self, line: RegisterLine) {
        let sim = self.sim.clone();
        let mut line = line;
        let port = self.fabric.port(line.src.device);
        if let Some(plan) = &self.faults {
            let pristine = line.clone();
            let mut attempt = 0u32;
            loop {
                match plan.mmio_fault(sim.now()) {
                    None => break,
                    // The register never latched: re-issue it.
                    Some(MmioFault::Stuck) => {}
                    Some(MmioFault::Garble) => {
                        plan.garble(&mut line.data);
                        // A flip the guard word misses executes as is.
                        if mmio::verify(&line) {
                            break;
                        }
                    }
                }
                attempt += 1;
                if attempt > MAX_RETRIES {
                    self.rstats.giveups.inc();
                    return;
                }
                // Detected by status-register readback: charge the
                // readback round trip plus the line re-issue.
                self.rstats.mmio_retries.inc();
                self.trace.instant(
                    sim.now(),
                    Category::Fault,
                    "mmio_retry",
                    None,
                    || self.commtask_label(line.src.device.0),
                    || fields![line = line.line as u64, attempt = attempt as u64],
                );
                sim.delay(self.cfg.model.host_answered_round_trip()).await;
                port.egress.transfer(&sim, LINE_BYTES as u64).await;
                line = pristine.clone();
            }
        }
        let Some(cmd) = mmio::decode(&line) else {
            // Writes to undefined register lines are absorbed like
            // scratch MMIO space (and still cost the transaction).
            return;
        };
        let kind = match &cmd {
            HostCmd::VdmaStart { .. } => "mmio_vdma_start",
            HostCmd::CacheUpdate { .. } => "mmio_cache_update",
            HostCmd::CacheInvalidate { .. } => "mmio_cache_invalidate",
        };
        let flow = match &cmd {
            HostCmd::VdmaStart { flow, .. } | HostCmd::CacheUpdate { flow, .. } => *flow,
            _ => None,
        };
        self.trace.instant(
            sim.now(),
            Category::Vdma,
            kind,
            flow,
            || self.commtask_label(line.src.device.0),
            || fields![core = line.src.core.0 as u64],
        );
        match cmd {
            HostCmd::CacheInvalidate { owner, offset, len } => {
                self.cache.invalidate(owner, offset, len);
            }
            HostCmd::CacheUpdate { owner, .. } => {
                // Mark in flight *now* so reads ordered after this
                // doorbell's arrival wait for the prefetch.
                self.cache.begin_update(owner);
                self.workers.borrow()[line.src.device.0 as usize].send(cmd);
            }
            HostCmd::VdmaStart { .. } => {
                self.workers.borrow()[line.src.device.0 as usize].send(cmd);
            }
        }
    }

    fn monitor_of(&self, id: DeviceId) -> Option<Rc<dyn scc::device::MpbWriteMonitor>> {
        self.device(id).monitor()
    }

    /// Install `data` at `addr` on behalf of `writer`. Every host delivery
    /// into a device MPB goes through here, so the window and flag
    /// monitors see each store before it lands.
    fn store(&self, writer: GlobalCore, addr: MpbAddr, data: &[u8], flow: Option<u64>) {
        let dev = self.device(addr.owner.device);
        if let Some(m) = dev.monitor() {
            m.host_write(writer, addr, data, flow);
        }
        dev.mpb(addr.owner.core).write(addr.offset as usize, data);
    }

    /// Subject one tunnel transfer toward (`inbound`) or from `dev` to
    /// the installed fault plan, protected by a checksum and bounded
    /// exponential-backoff retries on deterministic virtual timers.
    ///
    /// Returns the bytes as delivered: a shared view of the originals
    /// (the clean path never copies), a garbled CoW copy (only when a
    /// corruption slips past the checksum), or `None` when the transfer
    /// is lost for good after exhausting its retries. Without a plan this
    /// is a zero-cost pass-through.
    async fn tunnel_transfer(
        &self,
        dev: DeviceId,
        inbound: bool,
        data: &Bytes,
        flow: Option<u64>,
        retries: &Counter,
    ) -> Option<Bytes> {
        des::audit::record_payload(self.sim.now(), data);
        let Some(plan) = &self.faults else {
            return Some(data.clone());
        };
        let sim = &self.sim;
        let port = self.fabric.port(dev);
        let want = checksum(data);
        let mut attempt = 0u32;
        loop {
            port.fault_gate(sim).await;
            match plan.tlp_fault(sim.now(), flow) {
                None => return Some(data.clone()),
                Some(TlpFault::Delay(extra)) => {
                    sim.delay(extra).await;
                    return Some(data.clone());
                }
                Some(TlpFault::Drop) => {
                    // Nothing arrives; the per-request timer expires.
                    sim.delay(self.cfg.model.retry_timeout_cycles()).await;
                }
                Some(TlpFault::Corrupt) => {
                    let mut wire = data.clone();
                    plan.garble(wire.make_mut());
                    if checksum(&wire) == want {
                        return Some(wire);
                    }
                    self.rstats.checksum_detected.inc();
                }
            }
            attempt += 1;
            if attempt > MAX_RETRIES {
                self.rstats.giveups.inc();
                self.trace.instant(
                    sim.now(),
                    Category::Fault,
                    "retry_giveup",
                    flow,
                    || "host-recovery",
                    || fields![device = dev.0 as u64, bytes = data.len() as u64],
                );
                return None;
            }
            retries.inc();
            self.trace.instant(
                sim.now(),
                Category::Fault,
                "retry",
                flow,
                || "host-recovery",
                || fields![attempt = attempt as u64, bytes = data.len() as u64],
            );
            let base = self.cfg.model.retry_backoff_base();
            let backoff = (base << (attempt - 1)).min(16 * base);
            sim.delay(backoff).await;
            // The re-sent bytes occupy the wire again.
            let arrival = if inbound {
                port.ingress.reserve(sim, data.len() as u64)
            } else {
                port.egress.reserve(sim, data.len() as u64)
            };
            sim.delay_until(arrival).await;
        }
    }

    /// Prefetch `owner`'s MPB range into the software cache (DMA
    /// device → host), streaming chunk by chunk so overlapping reads can
    /// be answered "in parallel after a warmup phase" (§3.2).
    async fn do_cache_update(&self, owner: GlobalCore, offset: u16, len: usize, flow: Option<u64>) {
        let sim = &self.sim;
        pcie_hop!(
            self,
            "prefetch",
            flow,
            || self.commtask_label(owner.device.0),
            [core = owner.core.0, offset = offset, bytes = len],
            {
                let port = self.fabric.port(owner.device);
                let mut installed: Vec<Bytes> =
                    Vec::with_capacity(len.div_ceil(self.cfg.dma_chunk.max(1)));
                for (lo, hi) in rcce::protocol::chunk_ranges(len, self.cfg.dma_chunk) {
                    port.egress
                        .transfer(sim, self.cfg.model.host_dma_bytes((hi - lo) as u64))
                        .await;
                    self.fabric.host_mem.reserve(sim, (hi - lo) as u64);
                    let buf = self
                        .device(owner.device)
                        .mpb(owner.core)
                        .read_bytes(offset as usize + lo, hi - lo);
                    let Some(delivered) = self
                        .tunnel_transfer(
                            owner.device,
                            false,
                            &buf,
                            flow,
                            &self.rstats.prefetch_retries,
                        )
                        .await
                    else {
                        // Retries exhausted: installing a hole would panic the
                        // reader on "range valid right after update" — convert
                        // the hang into a diagnosed abort instead.
                        self.sim.abort(format!(
                            "prefetch of {} bytes from d{}c{} lost (retries exhausted)",
                            hi - lo,
                            owner.device.0,
                            owner.core.0
                        ));
                        std::future::pending::<()>().await;
                        unreachable!()
                    };
                    self.cache.install(owner, offset + lo as u16, &delivered);
                    installed.push(delivered);
                }
                // Consistency audit at the only point the cache promises it: right
                // as the update completes, the installed range must equal the
                // device's MPB (a divergence means the owner overwrote the buffer
                // mid-prefetch — torn data under relaxed consistency).
                if let Some(m) = self.monitor_of(owner.device) {
                    let mut whole = pooled(len);
                    let mut pos = 0;
                    for chunk in &installed {
                        whole[pos..pos + chunk.len()].copy_from_slice(chunk);
                        pos += chunk.len();
                    }
                    let mut actual = pooled(len);
                    self.device(owner.device).mpb(owner.core).read(offset as usize, &mut actual);
                    m.cache_read_check(owner, offset, &whole, &actual, flow);
                }
                self.cache.finish_update(owner);
                self.stats.cache_updates.inc();
            }
        );
    }

    /// Execute one vDMA copy: `src` MPB → host → `dst` MPB, pipelined at
    /// the DMA chunk granularity; on completion write `seq` into
    /// `sent[src_rank]` at the destination (data-available signal). The
    /// enclosing `vdma` span is opened and closed by the caller, so the
    /// give-up `return` below needs no close of its own.
    #[allow(clippy::too_many_arguments)]
    async fn do_vdma(
        &self,
        src: GlobalCore,
        src_off: u16,
        dst: GlobalCore,
        dst_off: u16,
        len: usize,
        seq: u8,
        src_rank: u8,
        drain_seq: u8,
        flow: Option<u64>,
    ) {
        assert_ne!(src.device, dst.device, "vDMA serves inter-device copies only");
        let sim = &self.sim;
        // Descriptor setup in the daemon before any wire activity.
        sim.delay(self.cfg.model.dma_descriptor_cycles).await;
        let sport = self.fabric.port(src.device);
        let dport = self.fabric.port(dst.device);
        // The sender's slot is stable until the receiver re-grants it, so
        // the bytes can be captured up front; timing comes from the link
        // reservations. Drain (device→host) and delivery (host→device)
        // chunks interleave through the FIFO reservations — the
        // communication task's pipelining effect (§4.1).
        let data = self.device(src.device).mpb(src.core).read_bytes(src_off as usize, len);
        let mut drain_arrival = sim.now();
        let mut last_arrival = sim.now();
        for (lo, hi) in rcce::protocol::chunk_ranges(len, self.cfg.dma_chunk) {
            let wire = self.cfg.model.host_dma_bytes((hi - lo) as u64);
            drain_arrival = sport.egress.reserve(sim, wire);
            self.fabric.host_mem.reserve(sim, (hi - lo) as u64);
            last_arrival = dport.ingress.reserve(sim, wire);
        }
        // Raise the sender's drain flag the moment the source slot has
        // been pulled to the host: the core busy-waits on it before
        // reusing the slot (§3.3).
        {
            let host = self.rc_self();
            let sim2 = sim.clone();
            sim.spawn_named("vdma-drain-flag", async move {
                sim2.delay_until(drain_arrival).await;
                let arr = host.fabric.port(src.device).ingress.reserve(&sim2, LINE_BYTES as u64);
                sim2.delay_until(arr).await;
                host.store(src, MpbAddr::new(src, layout::OFF_VDMA_DONE), &[drain_seq], flow);
                host.trace.instant(
                    sim2.now(),
                    Category::Vdma,
                    "drain_flag",
                    flow,
                    || host.commtask_label(src.device.0),
                    || fields![seq = drain_seq as u64],
                );
            });
        }
        // The stretch between programming and the last chunk's arrival is
        // wire occupancy (queueing included): the critical-path profiler
        // attributes it to the PCIe wire, not the enclosing vDMA span.
        pcie_hop!(self, "pcie_wire", flow, || self.commtask_label(src.device.0), [bytes = len], {
            sim.delay_until(last_arrival.max(drain_arrival)).await;
        });
        let Some(data) =
            self.tunnel_transfer(dst.device, true, &data, flow, &self.rstats.vdma_retries).await
        else {
            // Retries exhausted: deliver nothing — neither payload nor
            // completion flag — so the receiver's poll watchdog turns the
            // loss into a diagnosed timeout instead of a torn message.
            return;
        };
        self.store(src, MpbAddr::new(dst, dst_off), &data, flow);
        // Completion flag travels as one more line on the same port.
        let flag_arrival = dport.ingress.reserve(sim, LINE_BYTES as u64);
        sim.delay_until(flag_arrival).await;
        self.store(src, layout::sent_flag(dst, src_rank as usize), &[seq], flow);
        self.stats.vdma_ops.inc();
    }

    /// Take a ticket on the destination device's delivery chain. The
    /// returned `prev` latch opens once every earlier posted delivery to
    /// `dev` has installed its bytes; `next` must be counted down after
    /// this delivery installs its own. Clean runs never block on `prev`:
    /// the ingress link is FIFO, so arrivals are strictly monotone in
    /// issue order and the predecessor has always finished (the latch's
    /// fast path returns without yielding — zero perturbation). Under
    /// fault recovery the chain keeps a retried, delayed payload from
    /// being overtaken by a later flag forward, which would hand the
    /// receiver a valid flag over stale payload bytes.
    fn delivery_ticket(&self, dev: DeviceId) -> (Rc<des::sync::Latch>, Rc<des::sync::Latch>) {
        let next = Rc::new(des::sync::Latch::new(1));
        let prev = self.delivery_chain[dev.0 as usize].replace(next.clone());
        (prev, next)
    }

    /// Forward a classified flag write to its device, preserving order
    /// behind any buffered WCB data for the same destination.
    fn forward_flag(
        self: &Rc<Self>,
        src: GlobalCore,
        addr: MpbAddr,
        data: Bytes,
        flow: Option<u64>,
    ) {
        let sim = self.sim.clone();
        let host = self.clone();
        self.stats.flag_forwards.inc();
        self.trace.instant(
            sim.now(),
            Category::Pcie,
            "flag_forward",
            flow,
            || self.commtask_label(addr.owner.device.0),
            || fields![core = addr.owner.core.0 as u64, offset = addr.offset as u64],
        );
        // Ordering: drain WCB runs for this destination *before* reserving
        // the flag's slot on the ingress link.
        let runs = if self.scheme == CommScheme::RemotePutWcb {
            self.wcb.drain(addr.owner)
        } else {
            Vec::new()
        };
        let port = self.fabric.port(addr.owner.device);
        let mut run_arrivals = Vec::with_capacity(runs.len());
        for run in &runs {
            self.fabric.host_mem.reserve(&sim, run.data.len() as u64);
            run_arrivals.push(port.ingress.reserve(&sim, run.data.len() as u64));
        }
        let flag_arrival = port.ingress.reserve(&sim, data.len().max(1) as u64);
        let (prev, next) = self.delivery_ticket(addr.owner.device);
        self.sim.spawn_named("flag-forward", async move {
            prev.wait().await;
            for (run, arr) in runs.into_iter().zip(run_arrivals) {
                sim.delay_until(arr).await;
                host.store(src, MpbAddr::new(addr.owner, run.offset), &run.data, flow);
            }
            sim.delay_until(flag_arrival).await;
            host.store(src, addr, &data, flow);
            next.count_down();
        });
    }

    /// Deliver a payload write (posted fast path): reserve the target
    /// ingress now, install the bytes at arrival.
    fn deliver_payload(
        self: &Rc<Self>,
        src: GlobalCore,
        addr: MpbAddr,
        data: Bytes,
        flow: Option<u64>,
    ) {
        let sim = self.sim.clone();
        let host = self.clone();
        self.fabric.host_mem.reserve(&sim, data.len() as u64);
        let arrival = self.fabric.port(addr.owner.device).ingress.reserve(&sim, data.len() as u64);
        let (prev, next) = self.delivery_ticket(addr.owner.device);
        self.sim.spawn_named("payload-forward", async move {
            prev.wait().await;
            sim.delay_until(arrival).await;
            let Some(bytes) = host
                .tunnel_transfer(addr.owner.device, true, &data, flow, &host.rstats.payload_retries)
                .await
            else {
                // Lost for good. The chain latch is deliberately left
                // closed: a later flag forward must never land over the
                // missing payload (that would be silent corruption), so
                // the receiver sees nothing and its poll watchdog — or
                // the deadlock detector — diagnoses the loss.
                return;
            };
            host.store(src, addr, &bytes, flow);
            next.count_down();
        });
    }

    /// One fully transparent routed line round trip (the 2012 baseline).
    ///
    /// Each leg into the daemon is one sleep: the line's arrival and the
    /// daemon's forward time are a single deadline, since nothing happens
    /// between them that the task could observe (DESIGN.md §5d).
    async fn routed_round_trip(&self, requester: DeviceId, target: DeviceId, flow: Option<u64>) {
        let sim = &self.sim;
        let m = &self.cfg.model;
        let line = LINE_BYTES as u64;
        let rport = self.fabric.port(requester);
        let tport = self.fabric.port(target);
        // Request: requester SIF out -> daemon -> target SIF in.
        sim.delay_until(rport.egress.reserve(sim, line) + m.sw_forward_cycles).await;
        tport.ingress.transfer(sim, line).await;
        // Response: target SIF out -> daemon -> requester SIF in.
        sim.delay_until(tport.egress.reserve(sim, line) + m.sw_forward_cycles).await;
        rport.ingress.transfer(sim, line).await;
        self.stats.routed_lines.inc();
        self.trace.instant(
            sim.now(),
            Category::Pcie,
            "routed_line",
            flow,
            || self.commtask_label(requester.0),
            || fields![target_dev = target.0 as u64],
        );
    }
}

/// MPB lines that `len` bytes at `offset` touch, at least one: the
/// routed path's round-trip count. A span that straddles a line
/// boundary touches one line more than `len / LINE_BYTES` rounds up to.
fn lines_spanned(offset: u16, len: usize) -> usize {
    let start = offset as usize;
    ((start + len).div_ceil(LINE_BYTES) - start / LINE_BYTES).max(1)
}

impl RemoteFabric for HostSide {
    fn read(
        &self,
        src: GlobalCore,
        addr: MpbAddr,
        len: usize,
        flow: Option<u64>,
    ) -> LocalBoxFuture<'_, Bytes> {
        Box::pin(async move {
            let sim = self.sim.clone();
            let actor = move || self.commtask_label(src.device.0);
            let cached_mode =
                self.scheme == CommScheme::LocalPutRemoteGet && Self::is_payload(addr);
            if cached_mode {
                // Chunked read answered from the software cache: one
                // request line out, then the payload streamed back in,
                // sub-chunk by sub-chunk, overlapping an in-flight
                // prefetch of the same range.
                let rport = self.fabric.port(src.device);
                rport.egress.transfer(&sim, LINE_BYTES as u64).await;
                pcie_hop!(self, "classify", flow, actor, [bytes = len as u64], {
                    sim.delay(self.cfg.model.sw_answer_cycles).await;
                });
                let mut out = pooled(len);
                let wire_start = sim.now();
                let mut last_arrival = sim.now();
                for (lo, hi) in rcce::protocol::chunk_ranges(len, self.cfg.dma_chunk) {
                    let off = addr.offset + lo as u16;
                    pcie_hop!(self, "cache_wait", flow, actor, [offset = off, bytes = hi - lo], {
                        self.cache.wait_range_or_settled(addr.owner, off, hi - lo).await;
                    });
                    let data = match self.cache.read(addr.owner, off, hi - lo) {
                        Some(d) => d,
                        None => {
                            // Cold miss: fetch from the owning device.
                            self.cache.begin_update(addr.owner);
                            self.do_cache_update(addr.owner, off, hi - lo, flow).await;
                            self.cache
                                .read(addr.owner, off, hi - lo)
                                .expect("range valid right after update")
                        }
                    };
                    out[lo..hi].copy_from_slice(&data);
                    // Core-initiated read completions take the native
                    // packet path (no host-DMA penalty).
                    last_arrival = rport.ingress.reserve(&sim, (hi - lo) as u64);
                }
                self.trace.begin(wire_start, Category::Pcie, "pcie_wire", flow, actor, || {
                    fields![bytes = len as u64]
                });
                sim.delay_until(last_arrival).await;
                self.trace.end(sim.now(), Category::Pcie, "pcie_wire", flow, actor);
                out.freeze()
            } else {
                // Transparent routing: one blocking round trip per line.
                let n_lines = lines_spanned(addr.offset, len);
                pcie_hop!(self, "pcie_wire", flow, actor, [bytes = len, lines = n_lines], {
                    for _ in 0..n_lines {
                        self.routed_round_trip(src.device, addr.owner.device, flow).await;
                    }
                });
                self.device(addr.owner.device)
                    .mpb(addr.owner.core)
                    .read_bytes(addr.offset as usize, len)
            }
        })
    }

    fn write(
        &self,
        src: GlobalCore,
        addr: MpbAddr,
        data: Bytes,
        flow: Option<u64>,
    ) -> LocalBoxFuture<'_, ()> {
        // The borrow-checker friendly clone: `self` methods that spawn need
        // an Rc; upgrade the stored self-weak to get one.
        Box::pin(async move {
            let this = self.rc_self();
            let sim = self.sim.clone();
            let actor = move || self.commtask_label(src.device.0);
            if !Self::is_payload(addr) {
                // Synchronization class: host acks immediately (§3.1),
                // then forwards.
                let sport = self.fabric.port(src.device);
                sport.egress.transfer(&sim, LINE_BYTES as u64).await;
                pcie_hop!(self, "classify", flow, actor, [offset = addr.offset as u64], {
                    sim.delay(self.cfg.model.sw_answer_cycles).await;
                });
                this.forward_flag(src, addr, data, flow);
                return;
            }
            match self.scheme {
                CommScheme::SimpleRouting => {
                    // Write-with-acknowledge per line: full round trips.
                    let n_lines = lines_spanned(addr.offset, data.len());
                    pcie_hop!(
                        self,
                        "pcie_wire",
                        flow,
                        actor,
                        [bytes = data.len(), lines = n_lines],
                        {
                            for _ in 0..n_lines {
                                self.routed_round_trip(src.device, addr.owner.device, flow).await;
                            }
                        }
                    );
                    self.store(src, addr, &data, flow);
                }
                CommScheme::RemotePutHwAck => {
                    let pair = (src.device.0, addr.owner.device.0);
                    if self.health.is_fallback(pair) {
                        // Demoted pair: the unstable posted stream is
                        // replaced by the safe host-acked forward (the
                        // local-put delivery path). Slower, but every
                        // byte is accounted for.
                        self.rstats.fallback_writes.inc();
                        let sport = self.fabric.port(src.device);
                        pcie_hop!(
                            self,
                            "pcie_wire",
                            flow,
                            actor,
                            [bytes = data.len(), fallback = 1u64],
                            {
                                sport.egress.transfer(&sim, data.len() as u64).await;
                            }
                        );
                        sim.delay(self.cfg.model.sw_answer_cycles).await;
                        this.deliver_payload(src, addr, data, flow);
                        return;
                    }
                    // Posted line writes with FPGA auto-acks: the sender
                    // only pays wire occupancy, and the bridge cuts the
                    // stream through to the target device line by line.
                    let sport = self.fabric.port(src.device);
                    let mut lost = 0u32;
                    for _ in 0..data.len().div_ceil(LINE_BYTES).max(1) {
                        if self.fastack.on_posted_write(sim.now(), flow) {
                            lost += 1;
                        }
                    }
                    pcie_hop!(
                        self,
                        "pcie_wire",
                        flow,
                        actor,
                        [bytes = data.len(), lost_acks = lost],
                        {
                            let r = sport.egress.reserve_timed(&sim, data.len() as u64);
                            this.deliver_payload(src, addr, data, flow);
                            // A lost ack stalls the SIF for a recovery round trip.
                            let penalty = lost as u64 * self.cfg.model.routed_line_round_trip();
                            sim.delay_until(r.wire_free + penalty).await;
                            if self.protected && lost > 0 {
                                // Retransmit the lines whose acks were lost and
                                // hold the sender for one backoff interval.
                                self.rstats.fastack_retransmits.add(lost as u64);
                                self.trace.instant(
                                    sim.now(),
                                    Category::Fault,
                                    "fastack_retransmit",
                                    flow,
                                    || "host-recovery",
                                    || fields![lines = lost as u64],
                                );
                                let arr =
                                    sport.egress.reserve(&sim, lost as u64 * LINE_BYTES as u64);
                                let resume =
                                    arr.max(sim.now() + self.cfg.model.retry_backoff_base());
                                sim.delay_until(resume).await;
                            }
                        }
                    );
                    if self.protected {
                        this.note_ack_result(pair, lost > 0, flow);
                    }
                }
                CommScheme::RemotePutWcb => {
                    // Posted into the host write-combining buffer; the
                    // task flushes each complete granule as it fills, so
                    // granule delivery pipelines with the sender's stream.
                    let sport = self.fabric.port(src.device);
                    pcie_hop!(self, "pcie_wire", flow, actor, [bytes = data.len() as u64], {
                        let mut wire_free = sim.now();
                        {
                            let mut ready = self.wcb_ready.borrow_mut();
                            for (lo, hi) in
                                rcce::protocol::chunk_ranges(data.len(), self.wcb.granularity())
                            {
                                let r = sport.egress.reserve_timed(&sim, (hi - lo) as u64);
                                wire_free = r.wire_free;
                                self.wcb.append_into(
                                    addr.owner,
                                    addr.offset + lo as u16,
                                    &data[lo..hi],
                                    &mut ready,
                                );
                                for run in ready.drain(..) {
                                    let a = MpbAddr::new(addr.owner, run.offset);
                                    this.deliver_payload(src, a, run.data, flow);
                                }
                            }
                        }
                        sim.delay_until(wire_free).await;
                    });
                }
                CommScheme::LocalPutRemoteGet | CommScheme::LocalPutLocalGet => {
                    // Only the small-message direct path writes payload
                    // remotely under these schemes: host-acked forward.
                    let sport = self.fabric.port(src.device);
                    pcie_hop!(self, "pcie_wire", flow, actor, [bytes = data.len() as u64], {
                        sport.egress.transfer(&sim, data.len() as u64).await;
                    });
                    pcie_hop!(self, "classify", flow, actor, [bytes = data.len() as u64], {
                        sim.delay(self.cfg.model.sw_answer_cycles).await;
                    });
                    self.stats.direct_writes.inc();
                    self.trace.instant(
                        sim.now(),
                        Category::Pcie,
                        "direct_write",
                        flow,
                        || self.commtask_label(addr.owner.device.0),
                        || fields![bytes = data.len() as u64],
                    );
                    this.deliver_payload(src, addr, data, flow);
                }
            }
        })
    }

    fn mmio_write(&self, line: RegisterLine) -> LocalBoxFuture<'_, ()> {
        Box::pin(async move {
            let sim = self.sim.clone();
            let dev = line.src.device;
            // One fused 32 B posted TLP into the host register window,
            // stamped with the full SIF crossing (DESIGN.md §5i): the
            // doorbell becomes visible host-side only at its arrival,
            // and the issuing core continues at wire-free time —
            // posted-write semantics, exactly like a PCIe memory write.
            let port = self.fabric.port(dev);
            let (tlp, wire_free) = port.stamp_to_host(&sim, LINE_BYTES as u64, line);
            self.doorbells.borrow()[dev.0 as usize].send(tlp);
            sim.delay_until(wire_free).await;
        })
    }
}

impl HostSide {
    /// Trait methods only see `&self`; the stored self-weak lets them
    /// spawn owning forwarder tasks.
    fn rc_self(&self) -> Rc<Self> {
        self.me.upgrade().expect("HostSide alive while its methods run")
    }

    /// Device pairs currently routed through the host-acked fallback path
    /// (Degraded, Probing, or Quarantined), as `(src_device, dst_device)`
    /// ids, sorted.
    pub fn demoted_pairs(&self) -> Vec<(u8, u8)> {
        self.health.fallback_pairs()
    }

    /// Snapshot of every tracked pair's health state, sorted by pair.
    pub fn health_states(&self) -> Vec<((u8, u8), PairHealth)> {
        self.health.states()
    }

    /// Track consecutive lossy posted-write bursts per device pair; at
    /// the configured threshold the pair is demoted to the host-acked
    /// fallback path, the transition recorded, and a canary prober
    /// spawned to earn the pair's way back (DESIGN.md §5h).
    fn note_ack_result(self: &Rc<Self>, pair: (u8, u8), lossy: bool, flow: Option<u64>) {
        if !self.health.note_ack_burst(pair, lossy, FALLBACK_THRESHOLD) {
            return;
        }
        let tr = self
            .health
            .demote(self.sim.now(), pair, self.recovery.probe_interval, QUARANTINE_AFTER)
            .expect("note_ack_burst fired on a Healthy pair");
        self.rstats.demotions.inc();
        self.emit_health(&tr, flow);
        if self.health.state(pair) == PairHealth::Degraded {
            self.spawn_prober(pair);
        }
    }

    /// Record a health transition as a `Health`-category trace instant
    /// and an audit-stream fault decision (so audited reruns bisect
    /// divergent healing behaviour like any other scheduler decision).
    fn emit_health(&self, tr: &HealthTransition, flow: Option<u64>) {
        des::audit::record_fault(tr.time, tr.trigger, ((tr.pair.0 as u64) << 8) | tr.pair.1 as u64);
        let trigger = tr.trigger;
        let (from, to) = (tr.from, tr.to);
        let pair = tr.pair;
        self.trace.instant(
            tr.time,
            Category::Health,
            trigger,
            flow,
            || "host-health",
            || {
                fields![
                    src_dev = pair.0 as u64,
                    dst_dev = pair.1 as u64,
                    from = from.name(),
                    to = to.name()
                ]
            },
        );
    }

    /// Spawn the canary prober daemon for a freshly demoted pair. One
    /// prober per pair at a time (`try_start_prober` claims it); the
    /// daemon retires when the pair re-promotes or quarantines. Probes
    /// are one-line egress transfers on the source port judged by the
    /// fast-ack model's *probe* stream, so they never perturb the
    /// application-visible RNG sequences or ack counters.
    fn spawn_prober(self: &Rc<Self>, pair: (u8, u8)) {
        if !self.health.try_start_prober(pair) {
            return;
        }
        let this = self.rc_self();
        let sim = self.sim.clone();
        self.sim.spawn_daemon(format!("health-probe-d{}-d{}", pair.0, pair.1), async move {
            loop {
                sim.delay(this.health.probe_interval(pair)).await;
                let Some(tr) = this.health.begin_probe(sim.now(), pair) else {
                    // Promoted or quarantined since the last wake-up.
                    break;
                };
                this.emit_health(&tr, None);
                let sport = this.fabric.port(DeviceId(pair.0));
                sport.egress.transfer(&sim, LINE_BYTES as u64).await;
                sim.delay(this.cfg.model.sw_answer_cycles).await;
                if this.fastack.on_probe_write(sim.now()) {
                    let tr = this.health.note_probe_fail(
                        sim.now(),
                        pair,
                        this.recovery.probe_backoff_max,
                    );
                    this.emit_health(&tr, None);
                } else if let Some(tr) = this.health.note_probe_ok(
                    sim.now(),
                    pair,
                    PROMOTE_AFTER,
                    this.recovery.probe_interval,
                ) {
                    this.emit_health(&tr, None);
                    break;
                }
            }
            this.health.prober_done(pair);
        });
    }
}
