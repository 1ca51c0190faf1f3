//! L1 cache model for MPBT-typed data, and the write-combining buffer.
//!
//! The SCC has no cache coherence: a core that cached an MPB line keeps
//! serving the *stale* copy until it executes `CL1INVMB`. This model keeps
//! real (possibly stale) line copies so that protocol code must perform the
//! same invalidations the RCCE sources perform on hardware — forgetting one
//! produces wrong data in tests, exactly like on the machine.
//!
//! Policy, per the EAS: MPBT lines are cacheable in L1 only, write-through,
//! no write-allocate; a one-line write-combining buffer (WCB) merges
//! consecutive stores to the same 32 B line.

use std::cell::RefCell;
use std::ops::Range;

use des::stats::Counter;

use crate::geometry::GlobalCore;
use crate::{LINE_BYTES, MPB_BYTES};

/// Identifies one 32 B line in the system: (owning core's region, line idx).
pub type LineKey = (GlobalCore, u16);

/// Lines in one MPB region.
const REGION_LINES: usize = MPB_BYTES / LINE_BYTES;

/// A set of lines of one MPB region, one bit per 32 B line.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LineSet([u64; REGION_LINES / 64]);

impl LineSet {
    /// Lines `first..=last`, clipped to the region; empty if `first > last`.
    pub(crate) fn range(first: usize, last: usize) -> Self {
        let last = last.min(REGION_LINES - 1);
        let mut set = LineSet::default();
        for (w, word) in set.0.iter_mut().enumerate() {
            let base = w * 64;
            let (lo, hi) = (first.max(base), last.min(base + 63));
            if lo <= hi {
                *word = (u64::MAX >> (63 - (hi - base))) & (u64::MAX << (lo - base));
            }
        }
        set
    }

    /// The lines covering bytes `[offset, offset + len)`; empty if `len` is 0.
    pub(crate) fn covering(offset: usize, len: usize) -> Self {
        debug_assert!(offset + len <= MPB_BYTES, "window spans beyond one MPB region");
        if len == 0 {
            return LineSet::default();
        }
        Self::range(offset / LINE_BYTES, (offset + len - 1) / LINE_BYTES)
    }

    /// Number of lines in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no line is in the set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Lowest line in the set.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Highest line in the set.
    pub fn last(&self) -> Option<usize> {
        let w = self.0.iter().rposition(|&w| w != 0)?;
        Some(w * 64 + 63 - self.0[w].leading_zeros() as usize)
    }

    /// Lines in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> {
        let words = self.0;
        (0..words.len()).flat_map(move |w| {
            let mut bits = words[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    fn zip(self, other: LineSet, f: impl Fn(u64, u64) -> u64) -> LineSet {
        LineSet(std::array::from_fn(|w| f(self.0[w], other.0[w])))
    }
}

/// The overlap of `line` with the byte window `[offset, offset + len)`, as
/// (range within the line, range within the window).
fn overlap(line: usize, offset: usize, len: usize) -> (Range<usize>, Range<usize>) {
    let start = line * LINE_BYTES;
    let (lo, hi) = (start.max(offset), (start + LINE_BYTES).min(offset + len));
    (lo - start..hi - start, lo - offset..hi - offset)
}

/// Slot-index value of a line that has no slab entry yet.
const NO_SLOT: u32 = u32::MAX;

/// The lines one L1 holds of one owner's MPB region.
struct OwnerLines {
    owner: GlobalCore,
    /// Slab index of each line; assigned on the line's first fill and kept
    /// (for refills) until `CL1INVMB`.
    slot: [u32; REGION_LINES],
    /// Lines currently cached.
    present: LineSet,
}

/// Per-owner tables over one shared line slab. Both are cleared, keeping
/// their capacity, by `CL1INVMB`, so storage tracks the lines touched
/// since the last one.
#[derive(Default)]
struct Lines {
    owners: Vec<OwnerLines>,
    slab: Vec<[u8; LINE_BYTES]>,
}

/// Per-core L1 model for MPBT lines.
#[derive(Default)]
pub struct L1Model {
    lines: RefCell<Lines>,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
}

impl L1Model {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve the window `[offset, offset + buf.len())` of `owner`'s region:
    /// copies every cached line's overlap into `buf` (stale or not), counts
    /// one hit or miss per line, and returns the lines that missed.
    pub fn probe(&self, owner: GlobalCore, offset: usize, buf: &mut [u8]) -> LineSet {
        let want = LineSet::covering(offset, buf.len());
        let lines = self.lines.borrow();
        let mut missed = want;
        if let Some(t) = lines.owners.iter().find(|t| t.owner == owner) {
            for line in want.zip(t.present, |w, p| w & p).iter() {
                let (in_line, in_buf) = overlap(line, offset, buf.len());
                buf[in_buf].copy_from_slice(&lines.slab[t.slot[line] as usize][in_line]);
            }
            missed = want.zip(t.present, |w, p| w & !p);
        }
        self.hits.add((want.len() - missed.len()) as u64);
        self.misses.add(missed.len() as u64);
        missed
    }

    /// Install the `missed` lines (as returned by [`L1Model::probe`] for
    /// the same window) from `fetched`, the region's bytes from the first
    /// missed line on, and copy their overlap with the window into `buf`.
    pub fn fill(
        &self,
        owner: GlobalCore,
        missed: LineSet,
        fetched: &[u8],
        offset: usize,
        buf: &mut [u8],
    ) {
        let Some(first) = missed.first() else { return };
        let mut lines = self.lines.borrow_mut();
        let Lines { owners, slab } = &mut *lines;
        let t = match owners.iter().position(|t| t.owner == owner) {
            Some(i) => &mut owners[i],
            None => {
                owners.push(OwnerLines {
                    owner,
                    slot: [NO_SLOT; REGION_LINES],
                    present: LineSet::default(),
                });
                owners.last_mut().expect("table just pushed")
            }
        };
        for line in missed.iter() {
            if t.slot[line] == NO_SLOT {
                t.slot[line] = slab.len() as u32;
                slab.push([0; LINE_BYTES]);
            }
            let data = &mut slab[t.slot[line] as usize];
            data.copy_from_slice(&fetched[(line - first) * LINE_BYTES..][..LINE_BYTES]);
            let (in_line, in_buf) = overlap(line, offset, buf.len());
            buf[in_buf].copy_from_slice(&data[in_line]);
        }
        t.present = t.present.zip(missed, |p, m| p | m);
    }

    /// Look up one line; `Some` returns the cached (possibly stale) copy.
    pub fn lookup(&self, key: LineKey) -> Option<[u8; LINE_BYTES]> {
        let mut line = [0u8; LINE_BYTES];
        self.probe(key.0, key.1 as usize * LINE_BYTES, &mut line).is_empty().then_some(line)
    }

    /// Write-through store of `data` at `offset` of `owner`'s region:
    /// updates the cached copy of every line it touches that is present —
    /// no write-allocate.
    pub fn write_through(&self, owner: GlobalCore, offset: usize, data: &[u8]) {
        let mut lines = self.lines.borrow_mut();
        let Lines { owners, slab } = &mut *lines;
        if let Some(t) = owners.iter().find(|t| t.owner == owner) {
            let touched = LineSet::covering(offset, data.len()).zip(t.present, |w, p| w & p);
            for line in touched.iter() {
                let (in_line, in_data) = overlap(line, offset, data.len());
                slab[t.slot[line] as usize][in_line].copy_from_slice(&data[in_data]);
            }
        }
    }

    /// `CL1INVMB`: drop every MPBT line.
    pub fn invalidate_all(&self) {
        let mut lines = self.lines.borrow_mut();
        lines.owners.clear();
        lines.slab.clear();
        self.invalidations.inc();
    }

    /// Drop the lines covering `[offset, offset+len)` of `owner`'s region
    /// (selective invalidation used by the host software cache protocol).
    pub fn invalidate_range(&self, owner: GlobalCore, offset: u16, len: usize) {
        let mut lines = self.lines.borrow_mut();
        if let Some(t) = lines.owners.iter_mut().find(|t| t.owner == owner) {
            let dropped = LineSet::covering(offset as usize, len);
            t.present = t.present.zip(dropped, |p, d| p & !d);
        }
    }

    /// (hits, misses, invalidations) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits.get(), self.misses.get(), self.invalidations.get())
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.lines.borrow().owners.iter().map(|t| t.present.len()).sum()
    }
}

/// One-line write-combining buffer.
///
/// Counts how many *transactions* a sequence of stores costs: stores to the
/// line currently held merge for free; touching a different line flushes.
/// This is the mechanism the paper exploits to program the vDMA controller's
/// three registers with a single fused 32 B write (§3.3, Fig. 5).
#[derive(Default)]
pub struct Wcb {
    current: RefCell<Option<LineKey>>,
    transactions: Counter,
    merged: Counter,
}

impl Wcb {
    /// Empty WCB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a store to `key`; returns `true` if it merged into the
    /// pending line (no new transaction).
    pub fn store(&self, key: LineKey) -> bool {
        let mut cur = self.current.borrow_mut();
        if *cur == Some(key) {
            self.merged.inc();
            true
        } else {
            *cur = Some(key);
            self.transactions.inc();
            false
        }
    }

    /// Record a store spanning `n` consecutive lines starting at `key`;
    /// returns the number of transactions issued.
    pub fn store_span(&self, key: LineKey, n: u16) -> u64 {
        let mut tx = 0;
        for i in 0..n {
            if !self.store((key.0, key.1 + i)) {
                tx += 1;
            }
        }
        tx
    }

    /// Explicit flush (e.g. before a synchronizing flag write).
    pub fn flush(&self) {
        *self.current.borrow_mut() = None;
    }

    /// (transactions, merged stores) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.transactions.get(), self.merged.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(core: u8, line: u16) -> LineKey {
        (GlobalCore::new(0, core), line)
    }

    /// Fill one whole line with `data`, the way a one-line read miss does.
    fn fill_line(l1: &L1Model, (owner, line): LineKey, data: [u8; LINE_BYTES]) {
        let line = line as usize;
        let mut window = [0u8; LINE_BYTES];
        l1.fill(owner, LineSet::range(line, line), &data, line * LINE_BYTES, &mut window);
        assert_eq!(window, data);
    }

    #[test]
    fn miss_then_hit() {
        let l1 = L1Model::new();
        assert!(l1.lookup(key(0, 1)).is_none());
        fill_line(&l1, key(0, 1), [7; LINE_BYTES]);
        assert_eq!(l1.lookup(key(0, 1)), Some([7; LINE_BYTES]));
        let (h, m, _) = l1.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn stale_copy_served_until_invalidated() {
        let l1 = L1Model::new();
        fill_line(&l1, key(0, 0), [1; LINE_BYTES]);
        // Memory changed underneath (another core wrote) — cache is stale.
        assert_eq!(l1.lookup(key(0, 0)), Some([1; LINE_BYTES]));
        l1.invalidate_all();
        assert!(l1.lookup(key(0, 0)).is_none());
        assert_eq!(l1.resident(), 0);
    }

    #[test]
    fn write_through_updates_only_present_lines() {
        let l1 = L1Model::new();
        let owner = GlobalCore::new(0, 0);
        l1.write_through(owner, 2 * LINE_BYTES, &[9, 9]); // absent: no allocate
        assert!(l1.lookup(key(0, 2)).is_none());
        fill_line(&l1, key(0, 2), [0; LINE_BYTES]);
        l1.write_through(owner, 2 * LINE_BYTES + 4, &[5]);
        let line = l1.lookup(key(0, 2)).unwrap();
        assert_eq!(line[4], 5);
    }

    #[test]
    fn write_through_spans_lines_from_an_unaligned_start() {
        let l1 = L1Model::new();
        let owner = GlobalCore::new(0, 0);
        for line in [0u16, 1, 3] {
            fill_line(&l1, key(0, line), [0; LINE_BYTES]);
        }
        // Bytes [17, 117): the tail of line 0, all of 1 and 2, head of 3.
        l1.write_through(owner, 17, &[4; 100]);
        let line0 = l1.lookup(key(0, 0)).unwrap();
        assert_eq!((line0[16], line0[17]), (0, 4));
        assert_eq!(l1.lookup(key(0, 1)), Some([4; LINE_BYTES]));
        assert!(l1.lookup(key(0, 2)).is_none(), "absent line stays absent");
        let line3 = l1.lookup(key(0, 3)).unwrap();
        assert_eq!((line3[116 - 96], line3[117 - 96]), (4, 0));
    }

    #[test]
    fn probe_reports_misses_and_fill_completes_the_window() {
        let l1 = L1Model::new();
        let owner = GlobalCore::new(0, 1);
        fill_line(&l1, (owner, 1), [1; LINE_BYTES]);
        // Window [40, 140) covers lines 1..=4; only line 1 is cached.
        let mut buf = [0u8; 100];
        let missed = l1.probe(owner, 40, &mut buf);
        assert_eq!(missed, LineSet::range(2, 4));
        assert_eq!(buf[..24], [1; 24]);
        let fresh = [2u8; 3 * LINE_BYTES];
        l1.fill(owner, missed, &fresh, 40, &mut buf);
        assert_eq!(buf[24..], [2; 76]);
        assert_eq!(l1.resident(), 4);
        assert_eq!(l1.stats().0, 1);
    }

    #[test]
    fn invalidate_range_is_selective() {
        let l1 = L1Model::new();
        let owner = GlobalCore::new(0, 3);
        for line in 0..4u16 {
            fill_line(&l1, (owner, line), [line as u8; LINE_BYTES]);
        }
        // Invalidate bytes [32, 96): lines 1 and 2.
        l1.invalidate_range(owner, 32, 64);
        assert!(l1.lookup((owner, 0)).is_some());
        assert!(l1.lookup((owner, 1)).is_none());
        assert!(l1.lookup((owner, 2)).is_none());
        assert!(l1.lookup((owner, 3)).is_some());
    }

    #[test]
    fn line_set_bounds() {
        assert_eq!(LineSet::range(3, 2), LineSet::default());
        let all = LineSet::range(0, usize::MAX);
        assert_eq!((all.len(), all.first(), all.last()), (256, Some(0), Some(255)));
        let s = LineSet::range(63, 129);
        assert_eq!((s.len(), s.first(), s.last()), (67, Some(63), Some(129)));
        assert_eq!(s.iter().collect::<Vec<_>>(), (63..=129).collect::<Vec<_>>());
        assert_eq!(LineSet::covering(31, 2), LineSet::range(0, 1));
        assert!(LineSet::covering(64, 0).is_empty());
    }

    #[test]
    fn wcb_merges_same_line() {
        let w = Wcb::new();
        assert!(!w.store(key(0, 5))); // new transaction
        assert!(w.store(key(0, 5))); // merged
        assert!(w.store(key(0, 5))); // merged
        assert!(!w.store(key(0, 6))); // different line: flush + new
        assert_eq!(w.stats(), (2, 2));
    }

    #[test]
    fn wcb_flush_forces_new_transaction() {
        let w = Wcb::new();
        w.store(key(0, 1));
        w.flush();
        assert!(!w.store(key(0, 1)));
        assert_eq!(w.stats().0, 2);
    }

    #[test]
    fn wcb_span_counts_transactions() {
        let w = Wcb::new();
        assert_eq!(w.store_span(key(0, 0), 4), 4);
        // Re-storing the last line merges.
        assert_eq!(w.store_span(key(0, 3), 1), 0);
    }
}
