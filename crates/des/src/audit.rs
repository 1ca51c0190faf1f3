//! Hash-chained scheduler audit stream (DESIGN.md §5g).
//!
//! The engine's other observability planes record *what the simulated
//! system did* (metrics, traces, timeseries). This module records *why
//! the engine did it*: every scheduler decision — task spawn/poll/wake
//! order, timer arm/fire/cancel, channel and link deliveries, RNG
//! draws, fault-plan activations, payload digests at tunnel
//! boundaries — is folded into one FNV-1a chain hash per fixed-cycle
//! *epoch*. Two runs whose exports agree epoch-for-epoch took the same
//! decisions in the same order; the first divergent epoch brackets the
//! first divergent decision to a `cadence`-cycle window.
//!
//! Bisection is a two-step protocol over a bench target's designated
//! run, whose export is `audit.json` under its `VSCC_OBS` directory:
//!
//! 1. run twice with `VSCC_OBS=a` / `VSCC_OBS=b`, then
//!    `vscc_obs diff a b` → first divergent epoch `E`;
//! 2. re-run both with `VSCC_OBS=a@E` / `VSCC_OBS=b@E` — inside epoch
//!    `E` every raw decision is kept (in a ring of the last
//!    [`DEFAULT_ZOOM_RING`]); the zoom arms nothing else (a designated
//!    run's trace already records every category for the whole run).
//!    `vscc_obs diff` on the zoomed dumps then names the first divergent
//!    *decision* (kind, operands, cycle).
//!
//! Recording is a thread-local ambient sink behind a `const`-initialised
//! `Cell<bool>` fast path: with no audit installed every hook is a
//! thread-local load and a branch, and the sink only ever *reads*
//! engine state — it cannot move virtual time, touch metrics, or wake
//! anything, which is why audit-off runs are byte-identical to
//! pre-audit builds (see `tests/engine.rs` golden FNV pins).
//!
//! The chain hash uses the same FNV-1a constants as
//! [`crate::faultplan::checksum`], folded word-wise per operand (cheap,
//! and injective per 8-byte operand, so any single changed operand
//! flips the epoch digest); payload bytes are first reduced with the
//! word-wise [`digest_bytes`] (8 bytes per multiply — the data path
//! digests whole messages, so the byte-wise `checksum` would dominate
//! the audit tax) and the digest folded in.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::faultplan::checksum;
use crate::time::Cycles;

/// Default epoch length in cycles; matches the timeseries sampler's
/// default cadence so the two planes window identically.
pub const DEFAULT_EPOCH_CYCLES: u64 = 25_000;

/// Bound on the zoomed raw-decision ring: a zoom window on a huge epoch
/// keeps the *last* N decisions.
pub const DEFAULT_ZOOM_RING: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a word fold: `h' = (h ^ x) * prime`.
#[inline]
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Word-wise FNV digest of a byte slice: 8 little-endian bytes per
/// fold across two independent lanes (even/odd words), the tail
/// zero-padded, the length folded last (so `[0]` and `[0, 0]` differ).
/// The lanes halve the serial multiply chain on whole-message digests —
/// the data path digests every tunnel payload, so this is the audit
/// tax's hottest loop. Any single flipped byte lands in exactly one
/// lane's word and flips the combined digest.
#[inline]
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let (mut h0, mut h1) = (FNV_OFFSET, FNV_OFFSET);
    let mut pairs = bytes.chunks_exact(16);
    for p in &mut pairs {
        h0 = fold(h0, u64::from_le_bytes(p[..8].try_into().expect("8-byte word")));
        h1 = fold(h1, u64::from_le_bytes(p[8..].try_into().expect("8-byte word")));
    }
    let rest = pairs.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 16];
        tail[..rest.len()].copy_from_slice(rest);
        h0 = fold(h0, u64::from_le_bytes(tail[..8].try_into().expect("8-byte word")));
        h1 = fold(h1, u64::from_le_bytes(tail[8..].try_into().expect("8-byte word")));
    }
    fold(fold(h0, h1), bytes.len() as u64)
}

/// Number of decision kinds (length of [`DecisionKind::ALL`]).
pub const KIND_COUNT: usize = 12;

/// The decision taxonomy. Every nondeterminism-relevant choice the
/// engine makes maps to exactly one kind; the two operand words `a`/`b`
/// carry the kind-specific identity (see each variant's doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DecisionKind {
    /// Task spawned: `a` = task id, `b` = interned name.
    Spawn = 0,
    /// Task polled: `a` = task id.
    Poll = 1,
    /// Task woken onto the ready queue: `a` = task id.
    Wake = 2,
    /// Timer registered: `a` = deadline, `b` = timer sequence number.
    TimerArm = 3,
    /// Timer popped for firing: `a` = deadline, `b` = timer sequence.
    TimerFire = 4,
    /// Pending timer withdrawn: `a` = deadline, `b` = timer sequence.
    TimerCancel = 5,
    /// Value queued on a [`crate::channel`]: `a` = queue depth after.
    ChanSend = 6,
    /// Value dequeued from a channel: `a` = queue depth after.
    ChanRecv = 7,
    /// Link bandwidth reserved: `a` = bytes, `b` = arrival cycle.
    LinkReserve = 8,
    /// Deterministic RNG draw: `a` = the drawn word.
    RngDraw = 9,
    /// Fault-plan activation: `a` = FNV of the fault kind, `b` = flow.
    Fault = 10,
    /// Payload digest at a tunnel boundary: `a` = FNV-1a of the bytes,
    /// `b` = length.
    Payload = 11,
}

impl DecisionKind {
    pub const ALL: [DecisionKind; KIND_COUNT] = [
        DecisionKind::Spawn,
        DecisionKind::Poll,
        DecisionKind::Wake,
        DecisionKind::TimerArm,
        DecisionKind::TimerFire,
        DecisionKind::TimerCancel,
        DecisionKind::ChanSend,
        DecisionKind::ChanRecv,
        DecisionKind::LinkReserve,
        DecisionKind::RngDraw,
        DecisionKind::Fault,
        DecisionKind::Payload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Spawn => "spawn",
            DecisionKind::Poll => "poll",
            DecisionKind::Wake => "wake",
            DecisionKind::TimerArm => "timer_arm",
            DecisionKind::TimerFire => "timer_fire",
            DecisionKind::TimerCancel => "timer_cancel",
            DecisionKind::ChanSend => "chan_send",
            DecisionKind::ChanRecv => "chan_recv",
            DecisionKind::LinkReserve => "link_reserve",
            DecisionKind::RngDraw => "rng_draw",
            DecisionKind::Fault => "fault",
            DecisionKind::Payload => "payload",
        }
    }
}

/// One sealed epoch: the chain hash after folding every decision of
/// the epoch into the previous epoch's chain, plus per-kind counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochRow {
    pub epoch: u64,
    /// First cycle of the epoch (`epoch * cadence`).
    pub start: Cycles,
    /// Chain hash at the end of the epoch.
    pub chain: u64,
    /// Decisions folded during this epoch.
    pub decisions: u64,
    pub counts: [u64; KIND_COUNT],
}

/// One raw decision captured inside the zoom window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    pub kind: DecisionKind,
    pub cycle: Cycles,
    pub a: u64,
    pub b: u64,
}

struct AuditInner {
    cadence: u64,
    /// Running chain hash (seeded with the FNV offset basis; each
    /// epoch's chain continues from the previous epoch's).
    chain: Cell<u64>,
    /// Epoch currently being folded.
    epoch: Cell<u64>,
    /// First cycle past the current epoch. The per-decision fast path
    /// is one compare against this; the `cycle / cadence` division only
    /// happens on an epoch roll (virtual time is monotone within a
    /// run, so a cycle below the bound is inside the current epoch).
    epoch_end: Cell<Cycles>,
    /// Last observed virtual time (decisions recorded without an
    /// explicit cycle — channel ops, RNG draws — attribute here).
    now: Cell<Cycles>,
    /// Per-kind decision counts of the current (open) epoch. The
    /// epoch's decision total is their sum, computed at roll time — the
    /// hot path pays exactly one counter bump per decision.
    counts: [Cell<u64>; KIND_COUNT],
    rows: RefCell<Vec<EpochRow>>,
    /// Zoom target epoch: raw decisions of exactly this epoch are kept.
    zoom: Option<u64>,
    ring: RefCell<VecDeque<Decision>>,
    /// Decisions dropped from the front of the ring (bounded window).
    ring_dropped: Cell<u64>,
}

impl AuditInner {
    /// Seal the open epoch (a row is emitted only if it folded at
    /// least one decision) and move to `target`.
    fn roll_to(&self, target: u64) {
        let cur = self.epoch.get();
        let mut counts = [0u64; KIND_COUNT];
        let mut decisions = 0;
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.get();
            src.set(0);
            decisions += *dst;
        }
        if decisions > 0 {
            self.rows.borrow_mut().push(EpochRow {
                epoch: cur,
                start: cur * self.cadence,
                chain: self.chain.get(),
                decisions,
                counts,
            });
        }
        self.epoch.set(target);
        self.epoch_end.set((target + 1) * self.cadence);
    }

    fn note(&self, cycle: Cycles, kind: DecisionKind, a: u64, b: u64) {
        if cycle >= self.epoch_end.get() {
            self.roll_to(cycle / self.cadence);
        }
        // Three folds per decision: the cycle and kind share one word
        // (kinds fit in 4 bits and virtual time never nears 2^60, so
        // the packing is injective), then the two operands.
        let mut h = self.chain.get();
        h = fold(h, (cycle << 4) | (kind as u64 + 1));
        h = fold(h, a);
        h = fold(h, b);
        self.chain.set(h);
        self.counts[kind as usize].set(self.counts[kind as usize].get() + 1);
        if cycle > self.now.get() {
            self.now.set(cycle);
        }
        if self.zoom == Some(self.epoch.get()) {
            let mut ring = self.ring.borrow_mut();
            if ring.len() == DEFAULT_ZOOM_RING {
                ring.pop_front();
                self.ring_dropped.set(self.ring_dropped.get() + 1);
            }
            ring.push_back(Decision { kind, cycle, a, b });
        }
    }
}

/// The thread's ambient sink. One `thread_local` holds both the owning
/// handle and a hot-path alias, so a hook pays a single TLS address
/// computation and a null check — no `RefCell` borrow per decision.
struct TlsSink {
    /// Owns the installed sink (keeps the `AuditInner` alive while a
    /// guard is out). Only touched by install/uninstall.
    sink: RefCell<Option<Rc<AuditInner>>>,
    /// Hot-path alias of `sink`'s contents. Invariant: non-null exactly
    /// while `sink` is `Some`, pointing at the `Rc`'s allocation — the
    /// two cells live in one thread-local and are only mutated together
    /// (install / guard drop), so dereferencing a non-null `ptr` is
    /// sound for the duration of the hook call.
    ptr: Cell<*const AuditInner>,
}

thread_local! {
    static SINK: TlsSink =
        const { TlsSink { sink: RefCell::new(None), ptr: Cell::new(std::ptr::null()) } };
}

/// Whether an audit sink is installed on this thread. The engine hooks
/// check this first; it is a `const`-initialised thread-local `Cell`
/// read, so the audit-off cost is one load and branch per hook.
#[inline]
pub fn enabled() -> bool {
    SINK.with(|s| !s.ptr.get().is_null())
}

/// Record a decision at an explicit virtual time. No-op unless an
/// [`Audit`] is installed on this thread.
#[inline]
pub fn record_at(cycle: Cycles, kind: DecisionKind, a: u64, b: u64) {
    SINK.with(|s| {
        let p = s.ptr.get();
        if p.is_null() {
            return;
        }
        // SAFETY: `p` aliases the `Rc` held in `s.sink` (TlsSink
        // invariant), which stays alive for this whole call: `note`
        // never re-enters install/uninstall.
        unsafe { &*p }.note(cycle, kind, a, b);
    });
}

/// Record a decision at the sink's last observed virtual time (for
/// hooks that have no `Sim` handle: channel operations, RNG draws).
#[inline]
pub fn record(kind: DecisionKind, a: u64, b: u64) {
    SINK.with(|s| {
        let p = s.ptr.get();
        if p.is_null() {
            return;
        }
        // SAFETY: as in `record_at`.
        let inner = unsafe { &*p };
        inner.note(inner.now.get(), kind, a, b);
    });
}

/// Record a payload-byte digest at a tunnel boundary.
#[inline]
pub fn record_payload(cycle: Cycles, bytes: &[u8]) {
    if !enabled() {
        return;
    }
    record_at(cycle, DecisionKind::Payload, digest_bytes(bytes), bytes.len() as u64);
}

/// Record a fault-plan activation (`kind` is the fault kind string).
#[inline]
pub fn record_fault(cycle: Cycles, kind: &'static str, flow: u64) {
    if !enabled() {
        return;
    }
    record_at(cycle, DecisionKind::Fault, checksum(kind.as_bytes()), flow);
}

/// Uninstalls the thread-local sink on drop.
pub struct AuditGuard {
    _priv: (),
}

impl Drop for AuditGuard {
    fn drop(&mut self) {
        SINK.with(|s| {
            s.ptr.set(std::ptr::null());
            *s.sink.borrow_mut() = None;
        });
    }
}

/// A hash-chained audit stream for one simulation run.
///
/// [`Audit::install`] routes this thread's engine hooks into the
/// stream until the returned guard drops; the audit is scoped to a
/// single [`crate::Sim`] run (virtual time restarts at zero per run,
/// which would fold epochs backwards across runs).
pub struct Audit {
    inner: Rc<AuditInner>,
}

impl Audit {
    pub fn new(cadence: u64) -> Audit {
        Audit::build(cadence, None)
    }

    /// Audit with a zoom window: raw decisions of epoch `epoch` are
    /// kept in a ring of the last [`DEFAULT_ZOOM_RING`].
    pub fn with_zoom(cadence: u64, epoch: u64) -> Audit {
        Audit::build(cadence, Some(epoch))
    }

    fn build(cadence: u64, zoom: Option<u64>) -> Audit {
        assert!(cadence > 0, "audit epoch cadence must be positive");
        let inner = Rc::new(AuditInner {
            cadence,
            chain: Cell::new(FNV_OFFSET),
            epoch: Cell::new(0),
            epoch_end: Cell::new(cadence),
            now: Cell::new(0),
            counts: std::array::from_fn(|_| Cell::new(0)),
            rows: RefCell::new(Vec::new()),
            zoom,
            ring: RefCell::new(VecDeque::new()),
            ring_dropped: Cell::new(0),
        });
        Audit { inner }
    }

    /// Install this audit as the thread's ambient sink. Engine hooks
    /// record into it until the guard drops.
    pub fn install(&self) -> AuditGuard {
        SINK.with(|s| {
            *s.sink.borrow_mut() = Some(Rc::clone(&self.inner));
            s.ptr.set(Rc::as_ptr(&self.inner));
        });
        AuditGuard { _priv: () }
    }

    /// Chain hash over everything folded so far.
    pub fn chain(&self) -> u64 {
        self.inner.chain.get()
    }

    pub fn total_decisions(&self) -> u64 {
        self.inner.rows.borrow().iter().map(|r| r.decisions).sum::<u64>()
            + self.inner.counts.iter().map(Cell::get).sum::<u64>()
    }

    /// Sealed epochs plus the open tail epoch (if it folded anything).
    pub fn epochs(&self) -> Vec<EpochRow> {
        let mut rows = self.inner.rows.borrow().clone();
        let mut counts = [0u64; KIND_COUNT];
        let mut decisions = 0;
        for (dst, src) in counts.iter_mut().zip(self.inner.counts.iter()) {
            *dst = src.get();
            decisions += *dst;
        }
        if decisions > 0 {
            let cur = self.inner.epoch.get();
            rows.push(EpochRow {
                epoch: cur,
                start: cur * self.inner.cadence,
                chain: self.inner.chain.get(),
                decisions,
                counts,
            });
        }
        rows
    }

    /// Raw decisions captured inside the zoom window (bounded ring).
    pub fn zoomed(&self) -> Vec<Decision> {
        self.inner.ring.borrow().iter().copied().collect()
    }

    /// Deterministic line-oriented JSON export (`audit.json` under a
    /// `VSCC_OBS` directory); [`parse_export`] reads it back.
    pub fn to_json(&self) -> String {
        let rows = self.epochs();
        let zoomed = self.zoomed();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"vscc-audit-v1\",\n");
        let _ = writeln!(out, "  \"cadence\": {},", self.inner.cadence);
        let _ = writeln!(out, "  \"decisions\": {},", self.total_decisions());
        let _ = writeln!(out, "  \"final\": \"{:#018x}\",", self.chain());
        let _ = writeln!(out, "  \"epochs\": {},", rows.len());
        out.push_str("  \"rows\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"epoch\": {}, \"start\": {}, \"chain\": \"{:#018x}\", \"decisions\": {}, \"counts\": {{",
                row.epoch, row.start, row.chain, row.decisions
            );
            let mut first = true;
            for kind in DecisionKind::ALL {
                let n = row.counts[kind as usize];
                if n > 0 {
                    if !first {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": {n}", kind.name());
                    first = false;
                }
            }
            out.push_str("}}");
            if i + 1 < rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"zoom_dropped\": {},", self.inner.ring_dropped.get());
        out.push_str("  \"zoom\": [\n");
        for (i, d) in zoomed.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"kind\": \"{}\", \"cycle\": {}, \"a\": {}, \"b\": {}}}",
                d.kind.name(),
                d.cycle,
                d.a,
                d.b
            );
            if i + 1 < zoomed.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Export reading and diffing (shared by `examples/vscc_obs.rs`, the run
// report and the tests).

/// A parsed epoch line of an audit export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedEpoch {
    pub epoch: u64,
    pub chain: String,
    pub decisions: u64,
}

/// A parsed zoom-decision line of an audit export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedDecision {
    pub kind: String,
    pub cycle: u64,
    pub a: u64,
    pub b: u64,
}

impl std::fmt::Display for ParsedDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at cycle {} (a={}, b={})", self.kind, self.cycle, self.a, self.b)
    }
}

/// A parsed audit export.
#[derive(Clone, Debug, Default)]
pub struct ParsedAudit {
    pub cadence: u64,
    pub final_chain: String,
    pub rows: Vec<ParsedEpoch>,
    pub zoom: Vec<ParsedDecision>,
}

fn jnum(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn jstr<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

/// Parse an [`Audit::to_json`] export. Errors on inputs that do not
/// carry the audit schema marker.
pub fn parse_export(json: &str) -> Result<ParsedAudit, String> {
    if !json.contains("\"schema\": \"vscc-audit-v1\"") {
        return Err("not a vscc-audit-v1 export".to_string());
    }
    let mut parsed = ParsedAudit::default();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(chain) = jstr(line, "chain") {
            let (Some(epoch), Some(decisions)) = (jnum(line, "epoch"), jnum(line, "decisions"))
            else {
                return Err(format!("malformed epoch row: {line}"));
            };
            parsed.rows.push(ParsedEpoch { epoch, chain: chain.to_string(), decisions });
        } else if let Some(kind) = jstr(line, "kind") {
            let (Some(cycle), Some(a), Some(b)) =
                (jnum(line, "cycle"), jnum(line, "a"), jnum(line, "b"))
            else {
                return Err(format!("malformed zoom decision: {line}"));
            };
            parsed.zoom.push(ParsedDecision { kind: kind.to_string(), cycle, a, b });
        } else if let Some(c) = jnum(line, "cadence") {
            parsed.cadence = c;
        } else if let Some(f) = jstr(line, "final") {
            parsed.final_chain = f.to_string();
        }
    }
    Ok(parsed)
}

/// Where two audit exports first diverge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// First epoch whose chain hash (or presence) differs. `a`/`b` are
    /// the sides' chains at that epoch, `None` when the side has no
    /// such epoch.
    Epoch { epoch: u64, a: Option<String>, b: Option<String> },
    /// First zoomed raw decision that differs (only reported when both
    /// exports carry a zoom window). `index` counts from the start of
    /// the ring; `None` when that side's ring ended early.
    Decision { index: usize, a: Option<ParsedDecision>, b: Option<ParsedDecision> },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Epoch { epoch, a, b } => {
                let show = |c: &Option<String>| c.clone().unwrap_or_else(|| "absent".to_string());
                write!(f, "first divergent epoch {epoch}: chain {} vs {}", show(a), show(b))
            }
            Divergence::Decision { index, a, b } => {
                let show = |d: &Option<ParsedDecision>| match d {
                    Some(d) => d.to_string(),
                    None => "stream ended".to_string(),
                };
                write!(f, "first divergent decision #{index}: {} vs {}", show(a), show(b))
            }
        }
    }
}

/// Compare two parsed exports and return the first divergence, if any.
///
/// When both sides carry zoomed raw decisions the comparison happens at
/// decision granularity; otherwise at epoch-chain granularity.
pub fn diff(a: &ParsedAudit, b: &ParsedAudit) -> Result<Option<Divergence>, String> {
    if a.cadence != b.cadence {
        return Err(format!("exports are not comparable: cadence {} vs {}", a.cadence, b.cadence));
    }
    if !a.zoom.is_empty() && !b.zoom.is_empty() {
        for i in 0..a.zoom.len().max(b.zoom.len()) {
            let (da, db) = (a.zoom.get(i), b.zoom.get(i));
            if da != db {
                return Ok(Some(Divergence::Decision { index: i, a: da.cloned(), b: db.cloned() }));
            }
        }
    }
    // Walk both row lists in epoch order (rows are emitted in epoch
    // order; absent epochs folded nothing on that side).
    let (mut ia, mut ib) = (0usize, 0usize);
    loop {
        match (a.rows.get(ia), b.rows.get(ib)) {
            (None, None) => break,
            (Some(ra), Some(rb)) if ra.epoch == rb.epoch => {
                if ra.chain != rb.chain {
                    return Ok(Some(Divergence::Epoch {
                        epoch: ra.epoch,
                        a: Some(ra.chain.clone()),
                        b: Some(rb.chain.clone()),
                    }));
                }
                ia += 1;
                ib += 1;
            }
            (Some(ra), rb) if rb.is_none_or(|rb| ra.epoch < rb.epoch) => {
                return Ok(Some(Divergence::Epoch {
                    epoch: ra.epoch,
                    a: Some(ra.chain.clone()),
                    b: None,
                }));
            }
            (_, Some(rb)) => {
                return Ok(Some(Divergence::Epoch {
                    epoch: rb.epoch,
                    a: None,
                    b: Some(rb.chain.clone()),
                }));
            }
            (Some(_), None) => unreachable!("covered by the epoch-order arm"),
        }
    }
    if a.final_chain != b.final_chain {
        return Err(format!(
            "epoch rows agree but final chains differ ({} vs {}): truncated export?",
            a.final_chain, b.final_chain
        ));
    }
    Ok(None)
}

/// Convenience: parse two export strings and diff them.
pub fn diff_exports(a: &str, b: &str) -> Result<Option<Divergence>, String> {
    diff(&parse_export(a)?, &parse_export(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<F: FnOnce()>(cadence: u64, zoom: Option<u64>, f: F) -> Audit {
        let audit = match zoom {
            Some(e) => Audit::with_zoom(cadence, e),
            None => Audit::new(cadence),
        };
        let guard = audit.install();
        f();
        drop(guard);
        audit
    }

    #[test]
    fn identical_sequences_identical_exports() {
        let seq = |_: ()| {
            record_at(10, DecisionKind::Spawn, 1, 7);
            record_at(20, DecisionKind::Poll, 1, 0);
            record_at(30_000, DecisionKind::TimerFire, 30_000, 4);
            record(DecisionKind::RngDraw, 0xdead_beef, 0);
        };
        let a = run(25_000, None, || seq(()));
        let b = run(25_000, None, || seq(()));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(diff_exports(&a.to_json(), &b.to_json()), Ok(None));
    }

    #[test]
    fn reordered_decisions_flip_the_epoch_digest() {
        let a = run(25_000, None, || {
            record_at(10, DecisionKind::TimerFire, 10, 0);
            record_at(10, DecisionKind::TimerFire, 10, 1);
        });
        let b = run(25_000, None, || {
            record_at(10, DecisionKind::TimerFire, 10, 1);
            record_at(10, DecisionKind::TimerFire, 10, 0);
        });
        assert_ne!(a.chain(), b.chain());
        let d = diff_exports(&a.to_json(), &b.to_json()).unwrap();
        assert!(matches!(d, Some(Divergence::Epoch { epoch: 0, .. })), "{d:?}");
    }

    #[test]
    fn epochs_roll_and_chain_continues() {
        let audit = run(100, None, || {
            record_at(10, DecisionKind::Poll, 1, 0);
            record_at(110, DecisionKind::Poll, 2, 0);
            record_at(450, DecisionKind::Poll, 3, 0);
        });
        let rows = audit.epochs();
        let epochs: Vec<u64> = rows.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 4]);
        assert_eq!(rows[2].chain, audit.chain());
        assert!(rows.iter().all(|r| r.decisions == 1));
        assert_eq!(rows[1].start, 100);
    }

    #[test]
    fn zoom_ring_is_bounded_and_counts_drops() {
        let audit = Audit::with_zoom(1_000_000, 0);
        let guard = audit.install();
        for i in 0..(DEFAULT_ZOOM_RING + 6) as u64 {
            record_at(i, DecisionKind::Wake, i, 0);
        }
        drop(guard);
        let ring = audit.zoomed();
        assert_eq!(ring.len(), DEFAULT_ZOOM_RING);
        let kept: Vec<u64> = ring.iter().map(|d| d.a).collect();
        let last: Vec<u64> = (6..(DEFAULT_ZOOM_RING + 6) as u64).collect();
        assert_eq!(kept, last, "ring keeps the last N decisions");
        assert!(audit.to_json().contains("\"zoom_dropped\": 6"));
    }

    #[test]
    fn zoomed_dumps_pinpoint_first_divergent_decision() {
        let mk = |third: u64| {
            run(1_000, Some(0), || {
                record_at(1, DecisionKind::Poll, 1, 0);
                record_at(2, DecisionKind::Wake, 2, 0);
                record_at(3, DecisionKind::RngDraw, third, 0);
                record_at(4, DecisionKind::Poll, 2, 0);
            })
        };
        let (a, b) = (mk(5), mk(6));
        let d = diff_exports(&a.to_json(), &b.to_json()).unwrap().unwrap();
        match d {
            Divergence::Decision { index, a, b } => {
                assert_eq!(index, 2);
                assert_eq!(a.unwrap().a, 5);
                assert_eq!(b.unwrap().a, 6);
            }
            other => panic!("expected decision divergence, got {other:?}"),
        }
    }

    #[test]
    fn payload_byte_flip_changes_digest() {
        let mut bytes = vec![0x5A; 256];
        let a = run(25_000, None, || record_payload(50, &bytes));
        bytes[200] ^= 0x01;
        let b = run(25_000, None, || record_payload(50, &bytes));
        assert_ne!(a.chain(), b.chain());
    }

    #[test]
    fn nothing_recorded_without_install() {
        let audit = Audit::new(25_000);
        record_at(10, DecisionKind::Poll, 1, 0);
        assert_eq!(audit.total_decisions(), 0);
        assert!(audit.epochs().is_empty());
        assert!(!enabled());
    }

    #[test]
    fn non_audit_input_is_rejected() {
        assert!(parse_export("{\"cadence\": 25000}").is_err());
    }
}
