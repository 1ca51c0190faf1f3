//! The six workloads and the pass that runs each once.
//!
//! Every workload is a closed loop: a rank sends its next message only
//! after its previous exchange completed. A pass builds a fresh system per
//! measurement point, so passes are independent and, for a given seed,
//! simulate bit-identically. Only public APIs of the simulator are used.

use std::collections::BTreeMap;
use std::rc::Rc;

use des::critpath::Attribution;
use des::faultplan::FaultSpec;
use des::obs::MetricValue;
use des::trace::Category;
use des::{EngineStats, Sim};
use rcce::{BlockingProtocol, PipelinedProtocol, PointToPoint, Rcce, Session};
use scc::geometry::CoreId;
use vscc::{CommScheme, OnchipProtocol, Vscc, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::traffic::TrafficMatrix;

use crate::measure::Digest;
use crate::timed::{PollClock, Spans, Timed, TimedFuture};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PingpongSmall,
    PingpongLarge,
    BtOnchip36,
    BtVdma225,
    BtRouted64,
    StormRing,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PingpongSmall,
        Workload::PingpongLarge,
        Workload::BtOnchip36,
        Workload::BtVdma225,
        Workload::BtRouted64,
        Workload::StormRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "pingpong_small",
            Workload::PingpongLarge => "pingpong_large",
            Workload::BtOnchip36 => "bt_onchip_36",
            Workload::BtVdma225 => "bt_vdma_225",
            Workload::BtRouted64 => "bt_routed_64",
            Workload::StormRing => "storm_ring",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// BT warms its own pools in `BtConfig`'s warm-up iteration, so only
    /// the other workloads run an untimed warm-up pass.
    pub fn needs_warmup(self) -> bool {
        !matches!(self, Workload::BtOnchip36 | Workload::BtVdma225 | Workload::BtRouted64)
    }

    /// Timed passes filling `seconds` on the reference host (one pass
    /// takes about this long there; see `calib`).
    pub fn passes_for(self, seconds: f64) -> usize {
        let pass_s = match self {
            Workload::PingpongSmall => 0.55,
            Workload::PingpongLarge => 0.58,
            Workload::BtOnchip36 => 1.1,
            Workload::BtVdma225 => 3.5,
            Workload::BtRouted64 => 3.5,
            Workload::StormRing => 0.41,
        };
        (seconds / pass_s).round() as usize
    }
}

/// Inputs of a run: the seed feeds the payload bytes; the storm plan and
/// BT inputs are fixed, so BT ignores it. `smoke` shrinks every workload
/// to about a twentieth (BT drops to class W).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub smoke: bool,
}

impl Params {
    fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }

    fn bt_class(&self) -> BtClass {
        if self.smoke {
            BtClass::W
        } else {
            BtClass::C
        }
    }
}

/// The inter-device schemes the ping-pong workloads sweep (simple routing
/// is left to `bt_routed_64`: at ping-pong sizes it is all per-line
/// round trips and would dominate the pass).
const PINGPONG_SCHEMES: [CommScheme; 4] = [
    CommScheme::RemotePutHwAck,
    CommScheme::RemotePutWcb,
    CommScheme::LocalPutRemoteGet,
    CommScheme::LocalPutLocalGet,
];

pub fn scheme_label(s: CommScheme) -> &'static str {
    match s {
        CommScheme::SimpleRouting => "routed",
        CommScheme::RemotePutHwAck => "hw-ack",
        CommScheme::RemotePutWcb => "WCB",
        CommScheme::LocalPutRemoteGet => "LPRG",
        CommScheme::LocalPutLocalGet => "vDMA",
    }
}

fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}KiB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// The five-device platform of the paper (Fig. 1).
const DEVICES: u8 = 5;
const STORM_SIZE: usize = 4096;
const STORM_ROUNDS: usize = 2000;
const LARGE_REF_SIZE: usize = 256 * 1024;

/// The storm plan. Its fault seed is fixed rather than taken from the
/// run's seed: the storm's simulated throughput is bimodal across fault
/// seeds (about 49.5 or 51.3 MB/s), far wider than the bound `sim_mbps`
/// must hold, so every run measures the same storm and the run's seed
/// feeds only the payload bytes.
fn storm_plan() -> FaultSpec {
    FaultSpec::parse("seed=1,ackloss=0.6@..300000000,corrupt=0.02,recovery=on,watchdog=20000000")
        .expect("built-in storm plan parses")
}

/// Which cores a point's session runs on.
#[derive(Debug, Clone, Copy)]
enum Ranks {
    /// Core 0 of device 0 and core 0 of device 1.
    CrossPair,
    /// Cores 0 and 1 of device 0.
    OnchipPair,
    /// The first `n` cores, linearly over the devices.
    First(usize),
    /// Cores 0 and 1 of every device, device by device.
    Ring,
}

/// Everything needed to build one point's system and session.
#[derive(Debug, Clone)]
struct SystemSpec {
    devices: u8,
    scheme: CommScheme,
    onchip: OnchipProtocol,
    faults: Option<FaultSpec>,
    ranks: Ranks,
    trace_all: bool,
}

struct System {
    sim: Sim,
    v: Vscc,
    s: Session,
}

/// Per-point poll clocks of a traced pass.
struct PointClocks {
    rank: PollClock,
    onchip: PollClock,
    scheme: PollClock,
}

fn build(spec: &SystemSpec, clocks: Option<&PointClocks>) -> System {
    let sim = Sim::new();
    let mut b = VsccBuilder::new(&sim, spec.devices)
        .scheme(spec.scheme)
        .onchip(spec.onchip)
        .monitor_fail_fast(false);
    if let Some(f) = &spec.faults {
        b = b.faults(f.clone());
    }
    if spec.trace_all {
        b = b.trace_categories(&Category::ALL);
    }
    let v = b.build();
    let cores = match spec.ranks {
        Ranks::CrossPair => vec![v.devices[0].global(CoreId(0)), v.devices[1].global(CoreId(0))],
        Ranks::OnchipPair => vec![v.devices[0].global(CoreId(0)), v.devices[0].global(CoreId(1))],
        Ranks::First(n) => v
            .devices
            .iter()
            .flat_map(|d| d.alive_cores().into_iter().map(|c| d.global(c)))
            .take(n)
            .collect(),
        Ranks::Ring => {
            v.devices.iter().flat_map(|d| [d.global(CoreId(0)), d.global(CoreId(1))]).collect()
        }
    };
    let mut sb = v.session_builder().participants(cores);
    if let Some(c) = clocks {
        // Rebuild the protocols exactly as `Vscc::session_builder`
        // installs them, then decorate them.
        let multi = spec.devices > 1;
        let send_window = vscc::schemes::SEND_AREA_BYTES;
        let onchip: Rc<dyn PointToPoint> = match (spec.onchip, multi) {
            (OnchipProtocol::Blocking, false) => Rc::new(BlockingProtocol::default()),
            (OnchipProtocol::Blocking, true) => Rc::new(BlockingProtocol::confined(0, send_window)),
            (OnchipProtocol::Pipelined, false) => Rc::new(PipelinedProtocol::default()),
            (OnchipProtocol::Pipelined, true) => {
                Rc::new(PipelinedProtocol::confined(0, send_window))
            }
        };
        sb = sb.onchip_protocol(Timed::wrap(onchip, &c.onchip)).interdevice_protocol(Timed::wrap(
            spec.scheme.protocol_with_obs(v.metrics()),
            &c.scheme,
        ));
    }
    let s = sb.build();
    System { sim, v, s }
}

/// Seeded payload bytes: every message is a distinct window of one seeded
/// random buffer, so a stale, truncated or misrouted delivery mismatches.
struct Payload {
    base: Vec<u8>,
    seed: u64,
}

/// Distinct message windows start within this many bytes of each other.
const PAYLOAD_SPREAD: usize = 4093;

impl Payload {
    fn new(seed: u64, max_size: usize) -> Rc<Payload> {
        let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
        let base = (0..max_size + PAYLOAD_SPREAD)
            .map(|_| {
                x = splitmix(x);
                x as u8
            })
            .collect();
        Rc::new(Payload { base, seed })
    }

    /// The bytes of message `key`.
    fn msg(&self, key: u64, size: usize) -> &[u8] {
        let off = (splitmix(key ^ self.seed) % PAYLOAD_SPREAD as u64) as usize;
        &self.base[off..off + size]
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn msg_key(point: u64, round: u64, src: u64) -> u64 {
    (point << 40) ^ (round << 8) ^ src
}

/// What one rank saw: received messages, mismatches among them, the
/// first bad message, and its completion time.
#[derive(Default)]
struct RankOut {
    received: u64,
    bad: u64,
    first_bad: Option<(u64, usize)>,
    end: u64,
}

impl RankOut {
    fn check(&mut self, got: &[u8], want: &[u8], round: u64, src: usize) {
        self.received += 1;
        if got != want {
            self.bad += 1;
            self.first_bad.get_or_insert((round, src));
        }
    }
}

async fn bounce(r: Rcce, size: usize, rts: usize, payload: Rc<Payload>, point: u64) -> RankOut {
    let mut out = RankOut::default();
    let mut buf = vec![0u8; size];
    let (me, peer) = (r.id(), 1 - r.id());
    for i in 0..rts as u64 {
        if me == 0 {
            r.send(payload.msg(msg_key(point, i, 0), size), peer).await;
            r.recv(&mut buf, peer).await;
            out.check(&buf, payload.msg(msg_key(point, i, 1), size), i, peer);
        } else {
            r.recv(&mut buf, peer).await;
            out.check(&buf, payload.msg(msg_key(point, i, 0), size), i, peer);
            r.send(payload.msg(msg_key(point, i, 1), size), peer).await;
        }
    }
    out.end = r.now();
    out
}

/// One round of the storm ring per iteration: ranks `2d` and `2d+1` are
/// cores 0 and 1 of device `d`, and each sends to the same core of the
/// next device. Even devices send then receive, odd devices receive then
/// send, so the blocking ring cannot deadlock.
async fn ring(r: Rcce, size: usize, rounds: usize, payload: Rc<Payload>) -> RankOut {
    let mut out = RankOut::default();
    let mut buf = vec![0u8; size];
    let me = r.id();
    let devices = r.num_ues() / 2;
    let (dev, core) = (me / 2, me % 2);
    let next = ((dev + 1) % devices) * 2 + core;
    let prev = ((dev + devices - 1) % devices) * 2 + core;
    for i in 0..rounds as u64 {
        let mine = payload.msg(msg_key(0, i, me as u64), size);
        if dev % 2 == 0 {
            r.send(mine, next).await;
            r.recv(&mut buf, prev).await;
        } else {
            r.recv(&mut buf, prev).await;
            r.send(mine, next).await;
        }
        out.check(&buf, payload.msg(msg_key(0, i, prev as u64), size), i, prev);
    }
    out.end = r.now();
    out
}

/// Layer counters accumulated over a pass's points.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sim_cycles: u64,
    pub engine: EngineStats,
    pub messages: u64,
    pub onchip_msgs: u64,
    pub inter_msgs: u64,
    pub payload_bytes: u64,
    pub inter_bytes: u64,
    pub violations: u64,
    /// Registry counters, summed over points.
    pub counters: BTreeMap<String, u64>,
    /// Largest histogram p99 per registry name.
    pub p99_max: BTreeMap<String, u64>,
    /// Largest gauge high watermark per registry name.
    pub hwm_max: BTreeMap<String, i64>,
}

impl Tally {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix` and ends with
    /// `suffix`.
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.matching(prefix, suffix).map(|(_, v)| v).sum()
    }

    pub fn matching<'a>(
        &'a self,
        prefix: &'a str,
        suffix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(k, v)| (k.as_str(), *v))
    }
}

/// Simulated results of a pass: the paper-facing numbers.
#[derive(Debug, Clone, Default)]
pub struct Fidelity {
    /// Simulated MB/s per point (the geometric mean is `sim_mbps`).
    pub mbps: Vec<f64>,
    /// BT GFLOP/s over the timed window (Fig. 7).
    pub gflops: Option<f64>,
    /// 100 * LPRG / hw-ack at 128 KiB (Fig. 6b; paper 71.72).
    pub lprg_pct: Option<f64>,
    /// 100 * max(vDMA, LPRG) at 128 KiB / on-chip pipelined 256 KiB (paper 24).
    pub recovered_pct: Option<f64>,
    /// Heaviest rank pair projected to 200 iterations, MB (Fig. 8; paper 186).
    pub fig8_max_pair_mb: Option<f64>,
}

/// One pass's outcome.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    pub ops: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub digest: u64,
    pub tally: Tally,
    pub fidelity: Fidelity,
}

impl PassOut {
    fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// The traced-pass state: spans plus the pass span they hang under.
pub struct Tracing {
    spans: Spans,
    pass: usize,
}

impl Tracing {
    pub fn new() -> Tracing {
        let spans = Spans::new();
        let pass = spans.open("pass", None);
        Tracing { spans, pass }
    }

    pub fn finish(self) -> Vec<crate::timed::Span> {
        self.spans.close(self.pass);
        self.spans.into_vec()
    }
}

/// Runs the points of one pass, folding each into the digest and tally.
struct PassRunner<'a> {
    w: Workload,
    out: PassOut,
    digest: Digest,
    tracing: Option<&'a Tracing>,
}

/// The bookkeeping of a point under way: its span ids and clocks.
struct PointCtx {
    label: String,
    span: Option<(usize, usize)>,
    clocks: Option<PointClocks>,
}

impl<'a> PassRunner<'a> {
    fn new(w: Workload, tracing: Option<&'a Tracing>) -> Self {
        PassRunner { w, out: PassOut::default(), digest: Digest::default(), tracing }
    }

    /// Build the point's system (timed as the `setup` span when traced).
    fn setup(&self, label: String, spec: &SystemSpec) -> (PointCtx, System) {
        match self.tracing {
            None => (PointCtx { label, span: None, clocks: None }, build(spec, None)),
            Some(t) => {
                let point = t.spans.open(&format!("point:{label}"), Some(t.pass));
                let setup = t.spans.open("setup", Some(point));
                let origin = t.spans.origin();
                let clocks = PointClocks {
                    rank: PollClock::new(origin),
                    onchip: PollClock::new(origin),
                    scheme: PollClock::new(origin),
                };
                let sys = build(spec, Some(&clocks));
                t.spans.close(setup);
                let run = t.spans.open("run", Some(point));
                (PointCtx { label, span: Some((point, run)), clocks: Some(clocks) }, sys)
            }
        }
    }

    /// Run benchmark-owned rank closures, with a poll timer of their own
    /// when traced.
    fn run_ranks<Fut>(
        &self,
        ctx: &PointCtx,
        sys: &System,
        f: impl Fn(Rcce) -> Fut,
    ) -> Result<Vec<RankOut>, des::SimError>
    where
        Fut: std::future::Future<Output = RankOut> + 'static,
    {
        match &ctx.clocks {
            None => sys.s.run_app(f),
            Some(c) => sys.s.run_app(|r| TimedFuture::new(f(r), &c.rank)),
        }
    }

    /// Fold the benchmark-owned ranks' outcome into the pass: every
    /// mismatched message, or every planned one if the run failed, is a
    /// failed op. Returns (messages received, last completion cycle).
    fn ranks_done(
        &mut self,
        ctx: &PointCtx,
        result: &Result<Vec<RankOut>, des::SimError>,
        planned: u64,
    ) -> (u64, u64) {
        let w = self.w.name();
        self.out.ops += planned;
        match result {
            Ok(outs) => {
                for (rank, o) in outs.iter().enumerate() {
                    self.out.fail(o.bad, || {
                        let (round, src) = o.first_bad.expect("a bad message was recorded");
                        format!(
                            "{w} {}: payload mismatch in round {round} (rank {rank} <- rank {src})",
                            ctx.label
                        )
                    });
                }
                let end = outs.iter().map(|o| o.end).max().unwrap_or(0);
                (outs.iter().map(|o| o.received).sum(), end)
            }
            Err(e) => {
                self.out.fail(planned, || format!("{w} {}: {e}", ctx.label));
                (0, 0)
            }
        }
    }

    /// Close the point: spans, digest, counters.
    fn finish(&mut self, ctx: PointCtx, sys: &System, results: &[u64]) {
        if let (Some(t), Some((point, run)), Some(c)) = (self.tracing, ctx.span, &ctx.clocks) {
            t.spans.close(run);
            let parent = t.spans.aggregate("rank", run, &c.rank).unwrap_or(run);
            t.spans.aggregate("rcce.onchip", parent, &c.onchip);
            t.spans.aggregate("vscc.scheme", parent, &c.scheme);
            t.spans.close(point);
        }
        let snapshot = sys.v.metrics().snapshot();
        let now = sys.sim.now();
        let d = &mut self.digest;
        d.bytes(ctx.label.as_bytes());
        d.u64(now);
        for &r in results {
            d.u64(r);
        }
        d.bytes(snapshot.to_json().as_bytes());

        let t = &mut self.out.tally;
        t.sim_cycles += now;
        t.engine += sys.sim.engine_stats();
        let violations = sys.v.violations().len() as u64;
        t.violations += violations;
        let traffic = TrafficMatrix::capture(&sys.s);
        let counts = sys.s.message_matrix();
        for (src, row) in counts.iter().enumerate() {
            for (dst, &n) in row.iter().enumerate() {
                t.messages += n;
                if traffic.device_of[src] == traffic.device_of[dst] {
                    t.onchip_msgs += n;
                } else {
                    t.inter_msgs += n;
                }
            }
        }
        t.payload_bytes += traffic.total();
        t.inter_bytes += traffic.inter_device_bytes();
        for (name, value) in snapshot.entries {
            match value {
                MetricValue::Counter { value } => *t.counters.entry(name).or_default() += value,
                MetricValue::Gauge { high_watermark, .. } => {
                    let e = t.hwm_max.entry(name).or_insert(high_watermark);
                    *e = (*e).max(high_watermark);
                }
                MetricValue::Histogram { count, p99, .. } if count > 0 => {
                    let e = t.p99_max.entry(name).or_insert(p99);
                    *e = (*e).max(p99);
                }
                MetricValue::Histogram { .. } => {}
            }
        }
        let label = ctx.label;
        let w = self.w.name();
        self.out.fail(violations, || format!("{w} {label}: {violations} monitor violation(s)"));
    }

    fn done(mut self) -> PassOut {
        self.out.digest = self.digest.value();
        self.out
    }
}

/// One ping-pong point: `rts` round trips of `size` bytes; returns the
/// simulated MB/s.
fn pingpong_point(
    run: &mut PassRunner,
    spec: SystemSpec,
    size: usize,
    rts: usize,
    payload: &Rc<Payload>,
    point: u64,
) -> f64 {
    let who = match spec.ranks {
        Ranks::OnchipPair => "onchip-ref",
        _ => scheme_label(spec.scheme),
    };
    let (ctx, sys) = run.setup(format!("{who}/{}", size_label(size)), &spec);
    let payload = payload.clone();
    let result = run.run_ranks(&ctx, &sys, |r| bounce(r, size, rts, payload.clone(), point));
    let (received, end) = run.ranks_done(&ctx, &result, 2 * rts as u64);
    let mbps = des::time::CORE_FREQ.mbytes_per_sec((2 * rts * size) as u64, end.max(1));
    run.finish(ctx, &sys, &[received, end, mbps.to_bits()]);
    mbps
}

fn pingpong_pass(run: &mut PassRunner, p: &Params, sizes: &[usize], rts: usize) {
    let max = *sizes.iter().max().expect("sizes");
    let payload = Payload::new(p.seed, max.max(LARGE_REF_SIZE));
    let mut point = 0u64;
    let mut at: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    for scheme in PINGPONG_SCHEMES {
        for &size in sizes {
            let spec = SystemSpec {
                devices: DEVICES,
                scheme,
                onchip: OnchipProtocol::Blocking,
                faults: None,
                ranks: Ranks::CrossPair,
                trace_all: false,
            };
            let mbps = pingpong_point(run, spec, size, rts, &payload, point);
            point += 1;
            run.out.fidelity.mbps.push(mbps);
            at.insert((scheme_label(scheme), size), mbps);
        }
    }
    if run.w == Workload::PingpongLarge {
        // The on-chip pipelined reference of the recovered fraction.
        let spec = SystemSpec {
            devices: 1,
            scheme: CommScheme::LocalPutLocalGet,
            onchip: OnchipProtocol::Pipelined,
            faults: None,
            ranks: Ranks::OnchipPair,
            trace_all: false,
        };
        let onchip = pingpong_point(run, spec, LARGE_REF_SIZE, rts, &payload, point);
        let big = 128 * 1024;
        if let (Some(hw), Some(lprg), Some(vdma)) =
            (at.get(&("hw-ack", big)), at.get(&("LPRG", big)), at.get(&("vDMA", big)))
        {
            run.out.fidelity.lprg_pct = Some(100.0 * lprg / hw);
            run.out.fidelity.recovered_pct = Some(100.0 * vdma.max(*lprg) / onchip);
        }
    }
}

fn bt_pass(run: &mut PassRunner, p: &Params, scheme: CommScheme, ranks: usize, measured: usize) {
    let class = p.bt_class();
    let devices = ranks.div_ceil(48) as u8;
    let spec = SystemSpec {
        devices,
        scheme,
        onchip: OnchipProtocol::Blocking,
        faults: None,
        ranks: Ranks::First(ranks),
        trace_all: false,
    };
    let label = format!("BT-{}/{ranks}/{}", class.name(), scheme_label(scheme));
    let (ctx, sys) = run.setup(label, &spec);
    let mut cfg = BtConfig::new(class, ranks);
    cfg.measured = measured;
    let w = run.w.name();
    run.out.ops += 1;
    let res = run_bt(&sys.s, &cfg);
    let mut results = vec![sys.sim.now()];
    match &res {
        Ok(r) => {
            run.out.fail(u64::from(!r.verified), || {
                format!("{w} {}: BT payload verification failed", ctx.label)
            });
            let traffic = TrafficMatrix::capture(&sys.s);
            let mbps = des::time::CORE_FREQ.mbytes_per_sec(traffic.total(), sys.sim.now().max(1));
            let iters = (cfg.warmup + cfg.measured) as u64;
            let full = traffic.scaled(class.full_iterations() as u64, iters);
            let (_, _, max_pair) = full.max_pair();
            run.out.fidelity.mbps.push(mbps);
            run.out.fidelity.gflops = Some(r.gflops);
            if run.w == Workload::BtRouted64 {
                run.out.fidelity.fig8_max_pair_mb = Some(max_pair as f64 / 1e6);
            }
            results.extend([r.cycles, r.gflops.to_bits(), u64::from(r.verified), r.messages]);
            results.extend([traffic.total(), max_pair]);
        }
        Err(e) => run.out.fail(1, || format!("{w} {}: {e}", ctx.label)),
    }
    run.finish(ctx, &sys, &results);
}

fn storm_pass(run: &mut PassRunner, p: &Params) {
    let rounds = p.scaled(STORM_ROUNDS);
    let spec = SystemSpec {
        devices: DEVICES,
        scheme: CommScheme::RemotePutHwAck,
        onchip: OnchipProtocol::Blocking,
        faults: Some(storm_plan()),
        ranks: Ranks::Ring,
        trace_all: false,
    };
    let payload = Payload::new(p.seed, STORM_SIZE);
    let (ctx, sys) = run.setup(format!("ring/{}", size_label(STORM_SIZE)), &spec);
    let ranks = 2 * DEVICES as u64;
    let result = run.run_ranks(&ctx, &sys, |r| ring(r, STORM_SIZE, rounds, payload.clone()));
    let (received, end) = run.ranks_done(&ctx, &result, ranks * rounds as u64);
    let mbps = des::time::CORE_FREQ.mbytes_per_sec(received * STORM_SIZE as u64, end.max(1));
    run.out.fidelity.mbps.push(mbps);
    run.finish(ctx, &sys, &[received, end, mbps.to_bits()]);
}

/// Run one pass of `w`; `tracing` decorates it for the traced pass.
pub fn pass(w: Workload, p: &Params, tracing: Option<&Tracing>) -> PassOut {
    let mut run = PassRunner::new(w, tracing);
    match w {
        Workload::PingpongSmall => pingpong_pass(&mut run, p, &[64, 1024], p.scaled(6000)),
        Workload::PingpongLarge => {
            pingpong_pass(&mut run, p, &[128 * 1024, 512 * 1024], p.scaled(32))
        }
        Workload::BtOnchip36 => bt_pass(&mut run, p, CommScheme::LocalPutLocalGet, 36, 2),
        Workload::BtVdma225 => bt_pass(&mut run, p, CommScheme::LocalPutLocalGet, 225, 1),
        Workload::BtRouted64 => bt_pass(&mut run, p, CommScheme::SimpleRouting, 64, 1),
        Workload::StormRing => storm_pass(&mut run, p),
    }
    run.done()
}

/// The system one set-up of `w` builds: the workload's largest platform
/// and session. `setup_s` times this.
pub fn setup_once(w: Workload) {
    let spec = match w {
        Workload::PingpongSmall | Workload::PingpongLarge => SystemSpec {
            devices: DEVICES,
            scheme: CommScheme::LocalPutLocalGet,
            onchip: OnchipProtocol::Blocking,
            faults: None,
            ranks: Ranks::CrossPair,
            trace_all: false,
        },
        Workload::BtOnchip36 | Workload::BtVdma225 | Workload::BtRouted64 => {
            let (ranks, scheme) = bt_shape(w);
            SystemSpec {
                devices: ranks.div_ceil(48) as u8,
                scheme,
                onchip: OnchipProtocol::Blocking,
                faults: None,
                ranks: Ranks::First(ranks),
                trace_all: false,
            }
        }
        Workload::StormRing => SystemSpec {
            devices: DEVICES,
            scheme: CommScheme::RemotePutHwAck,
            onchip: OnchipProtocol::Blocking,
            faults: Some(storm_plan()),
            ranks: Ranks::Ring,
            trace_all: false,
        },
    };
    std::hint::black_box(build(&spec, None));
}

fn bt_shape(w: Workload) -> (usize, CommScheme) {
    match w {
        Workload::BtOnchip36 => (36, CommScheme::LocalPutLocalGet),
        Workload::BtVdma225 => (225, CommScheme::LocalPutLocalGet),
        _ => (64, CommScheme::SimpleRouting),
    }
}

/// Critical-path attribution of one observed round trip per (scheme,
/// size) the workload exercises; BT observes its most frequent message
/// (the forward solve) between two ranks of its placement.
pub fn critpath(w: Workload, p: &Params) -> Attribution {
    let pair = |devices: u8, scheme, ranks, faults| SystemSpec {
        devices,
        scheme,
        onchip: OnchipProtocol::Blocking,
        faults,
        ranks,
        trace_all: true,
    };
    let points: Vec<(SystemSpec, usize)> = match w {
        Workload::PingpongSmall | Workload::PingpongLarge => {
            let sizes: &[usize] =
                if w == Workload::PingpongSmall { &[64, 1024] } else { &[128 * 1024, 512 * 1024] };
            PINGPONG_SCHEMES
                .iter()
                .flat_map(|&s| {
                    sizes.iter().map(move |&z| (pair(DEVICES, s, Ranks::CrossPair, None), z))
                })
                .collect()
        }
        Workload::BtOnchip36 | Workload::BtVdma225 | Workload::BtRouted64 => {
            let (ranks, scheme) = bt_shape(w);
            let size = BtConfig::new(p.bt_class(), ranks).solve_msg_bytes();
            let devices = ranks.div_ceil(48) as u8;
            let placement = if devices == 1 { Ranks::OnchipPair } else { Ranks::CrossPair };
            vec![(pair(devices, scheme, placement, None), size)]
        }
        Workload::StormRing => vec![(
            pair(DEVICES, CommScheme::RemotePutHwAck, Ranks::CrossPair, Some(storm_plan())),
            STORM_SIZE,
        )],
    };
    let payload = Payload::new(p.seed, points.iter().map(|(_, z)| *z).max().unwrap_or(0));
    let mut total = Attribution::default();
    for (spec, size) in points {
        let sys = build(&spec, None);
        let payload = payload.clone();
        let outs = sys.s.run_app(|r| bounce(r, size, 1, payload.clone(), 0));
        let end = outs.map(|o| o.iter().map(|o| o.end).max().unwrap_or(0)).unwrap_or(0);
        total.add(&des::critpath::run_attribution(sys.v.trace(), 0, end));
    }
    total
}
