//! Critical-path reconstruction: where did each message's cycles go?
//!
//! The trace records *hops* as spans, each one record with its start and
//! end; this module attributes every cycle of a window to a named
//! [`Phase`]. Attribution is exact by construction: the window is cut at
//! every span boundary into elementary segments, each segment is charged
//! to the highest-priority phase active in it (gaps go to
//! [`Phase::Other`]), so the per-phase cycles always sum to the window
//! length. That is what lets the fig2/fig6b benches print tables whose
//! rows add up to the measured latency whenever `VSCC_OBS` is set, and
//! the run report (`crate::obs::report`) attribute each exported
//! process's whole run.
//!
//! The phase vocabulary is defined here, in the engine crate, so the
//! protocol layers above (rcce, vscc) and the consumers below (benches,
//! tests) agree on span kind names without depending on each other.

use crate::time::Cycles;
use crate::trace::Trace;

/// A named latency phase of a message's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Waiting for the UE's single outgoing-send lock.
    SenderLock,
    /// The sender core occupied copying payload into MPB.
    SenderPut,
    /// The sender stalled on a grant/ready/slot flag.
    MpbWait,
    /// The host commtask classifying and dispatching a fabric access.
    HostClassify,
    /// Software-cache miss service / staleness wait on the host.
    CacheStale,
    /// Queued behind other traffic for a PCIe port.
    PcieQueue,
    /// Bytes on the PCIe wire.
    PcieWire,
    /// The virtual DMA engine programming/moving a transfer.
    Vdma,
    /// The receiver polling for the sent flag.
    RecvPoll,
    /// The receiver core occupied copying payload out of MPB.
    RecvGet,
    /// Cycles no instrumented span covers.
    Other,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 11;

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::SenderLock,
        Phase::SenderPut,
        Phase::MpbWait,
        Phase::HostClassify,
        Phase::CacheStale,
        Phase::PcieQueue,
        Phase::PcieWire,
        Phase::Vdma,
        Phase::RecvPoll,
        Phase::RecvGet,
        Phase::Other,
    ];

    /// Short column label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SenderLock => "lock",
            Phase::SenderPut => "s.put",
            Phase::MpbWait => "mpbwait",
            Phase::HostClassify => "classify",
            Phase::CacheStale => "cache",
            Phase::PcieQueue => "pcieq",
            Phase::PcieWire => "wire",
            Phase::Vdma => "vdma",
            Phase::RecvPoll => "r.poll",
            Phase::RecvGet => "r.get",
            Phase::Other => "other",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).expect("phase in ALL")
    }

    /// Tie-break when phases overlap: the more specific resource wins.
    /// Wire beats the vDMA span that encloses it; a flag wait beats the
    /// chunk span it happens inside; everything beats `Other`.
    fn priority(self) -> u8 {
        match self {
            Phase::PcieWire => 10,
            Phase::PcieQueue => 9,
            Phase::Vdma => 8,
            Phase::CacheStale => 7,
            Phase::HostClassify => 6,
            Phase::MpbWait => 5,
            Phase::RecvPoll => 4,
            Phase::SenderPut => 3,
            Phase::RecvGet => 2,
            Phase::SenderLock => 1,
            Phase::Other => 0,
        }
    }
}

/// Map a span kind (as traced by the protocol layers) to its phase.
/// Kinds outside the vocabulary return `None` and do not attribute.
pub fn phase_of_kind(kind: &str) -> Option<Phase> {
    Some(match kind {
        "send_lock" => Phase::SenderLock,
        "sender_put" => Phase::SenderPut,
        "mpb_wait" => Phase::MpbWait,
        "classify" => Phase::HostClassify,
        "cache_wait" | "prefetch" => Phase::CacheStale,
        "pcie_queue" => Phase::PcieQueue,
        "pcie_wire" => Phase::PcieWire,
        "vdma" => Phase::Vdma,
        "recv_poll" => Phase::RecvPoll,
        "recv_get" => Phase::RecvGet,
        _ => return None,
    })
}

/// Cycles attributed per phase; always sums to the attributed window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    cycles: [u64; PHASE_COUNT],
}

impl Attribution {
    /// Cycles attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Total attributed cycles (equals the window length by construction).
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Accumulate another attribution into this one.
    pub fn add(&mut self, other: &Attribution) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }
}

/// A phase-tagged closed interval.
type Interval = (Cycles, Cycles, Phase);

/// Attribute the window `[start, end]` over `intervals`: every elementary
/// segment goes to the highest-priority active phase, gaps to
/// [`Phase::Other`]. The result's `total()` is exactly `end - start`.
pub fn attribute(intervals: &[Interval], start: Cycles, end: Cycles) -> Attribution {
    let mut attr = Attribution::default();
    if end <= start {
        return attr;
    }
    // Boundary sweep: +1/-1 per interval edge, clamped to the window.
    let mut edges: Vec<(Cycles, i32, usize)> = Vec::with_capacity(intervals.len() * 2);
    for &(t0, t1, phase) in intervals {
        let (a, b) = (t0.max(start), t1.min(end));
        if a < b {
            edges.push((a, 1, phase.index()));
            edges.push((b, -1, phase.index()));
        }
    }
    edges.sort();
    let mut active = [0i64; PHASE_COUNT];
    let mut cursor = start;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        if t > cursor {
            attr.cycles[winner(&active)] += t - cursor;
            cursor = t;
        }
        while i < edges.len() && edges[i].0 == t {
            active[edges[i].2] += edges[i].1 as i64;
            i += 1;
        }
    }
    if end > cursor {
        attr.cycles[winner(&active)] += end - cursor;
    }
    attr
}

fn winner(active: &[i64; PHASE_COUNT]) -> usize {
    Phase::ALL
        .iter()
        .filter(|p| active[p.index()] > 0)
        .max_by_key(|p| p.priority())
        .unwrap_or(&Phase::Other)
        .index()
}

/// Attribute a whole run's window `[start, end]` over *all* spans in the
/// trace, flow-tagged or not. Benches pass the measured completion time
/// as `end`, so the printed phases sum to the measured latency exactly.
pub fn run_attribution(trace: &Trace, start: Cycles, end: Cycles) -> Attribution {
    let intervals: Vec<Interval> = trace.with_events(|events| {
        events.iter().filter_map(|e| Some((e.time, e.end?, phase_of_kind(e.kind)?))).collect()
    });
    attribute(&intervals, start, end)
}

/// Render per-row attributions as an aligned table. Phase columns that
/// are zero in every row are omitted; `total` is always last.
pub fn render_table(label_header: &str, rows: &[(String, Attribution)]) -> String {
    let shown: Vec<Phase> =
        Phase::ALL.iter().copied().filter(|&p| rows.iter().any(|(_, a)| a.get(p) > 0)).collect();
    let mut out = format!("{label_header:<34}");
    for p in &shown {
        out.push_str(&format!(" {:>10}", p.name()));
    }
    out.push_str(&format!(" {:>12}\n", "total"));
    for (label, attr) in rows {
        out.push_str(&format!("{label:<34}"));
        for p in &shown {
            out.push_str(&format!(" {:>10}", attr.get(*p)));
        }
        out.push_str(&format!(" {:>12}\n", attr.total()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Category;

    #[test]
    fn vocabulary_maps_and_rejects() {
        assert_eq!(phase_of_kind("send_lock"), Some(Phase::SenderLock));
        assert_eq!(phase_of_kind("pcie_wire"), Some(Phase::PcieWire));
        assert_eq!(phase_of_kind("prefetch"), Some(Phase::CacheStale));
        assert_eq!(phase_of_kind("flag_set"), None);
    }

    #[test]
    fn attribution_sums_to_window_with_gaps_and_overlap() {
        // [0,10) lock, [10,30) put with a [15,25) mpb_wait inside,
        // [40,50) wire inside a [35,55) vdma span, gap [30,35) + [55,60).
        let intervals = vec![
            (0, 10, Phase::SenderLock),
            (10, 30, Phase::SenderPut),
            (15, 25, Phase::MpbWait),
            (35, 55, Phase::Vdma),
            (40, 50, Phase::PcieWire),
        ];
        let a = attribute(&intervals, 0, 60);
        assert_eq!(a.get(Phase::SenderLock), 10);
        assert_eq!(a.get(Phase::SenderPut), 10); // 20 minus the enclosed wait
        assert_eq!(a.get(Phase::MpbWait), 10);
        assert_eq!(a.get(Phase::Vdma), 10);
        assert_eq!(a.get(Phase::PcieWire), 10);
        assert_eq!(a.get(Phase::Other), 10); // the two gaps
        assert_eq!(a.total(), 60);
    }

    #[test]
    fn window_clamps_intervals() {
        let intervals = vec![(0, 100, Phase::Vdma)];
        let a = attribute(&intervals, 20, 50);
        assert_eq!(a.get(Phase::Vdma), 30);
        assert_eq!(a.total(), 30);
    }

    #[test]
    fn empty_window_is_empty() {
        assert_eq!(attribute(&[], 5, 5).total(), 0);
        assert_eq!(attribute(&[(0, 9, Phase::Vdma)], 9, 3).total(), 0);
    }

    #[test]
    fn run_attribution_reads_vocabulary_spans() {
        let t = Trace::enabled();
        t.span(0, 5, Category::Protocol, "send_lock", Some(1), || "rank0", Vec::new);
        t.span(5, 20, Category::Protocol, "sender_put", Some(1), || "rank0", Vec::new);
        t.span(8, 30, Category::Protocol, "recv_poll", Some(2), || "rank1", Vec::new);
        t.span(30, 35, Category::Protocol, "not_a_phase", None, || "rank1", Vec::new);
        t.instant(40, Category::Protocol, "flag_set", Some(1), || "rank0", Vec::new);
        let a = run_attribution(&t, 0, 40);
        assert_eq!(a.get(Phase::SenderLock), 5);
        assert_eq!(a.get(Phase::RecvPoll), 22);
        assert_eq!(a.get(Phase::SenderPut), 3);
        assert_eq!(a.get(Phase::Other), 10);
        assert_eq!(a.total(), 40);
    }

    #[test]
    fn render_table_omits_empty_phases_and_sums() {
        let intervals = vec![(0, 10, Phase::Vdma)];
        let a = attribute(&intervals, 0, 12);
        let s = render_table("scheme", &[("x".into(), a)]);
        assert!(s.contains("vdma"));
        assert!(s.contains("other"));
        assert!(!s.contains("wire"));
        assert!(s.contains("12"));
    }
}
