//! L1 cache model for MPBT-typed data.
//!
//! The SCC has no cache coherence: a core that cached an MPB line keeps
//! serving the *stale* copy until it executes `CL1INVMB`. This model keeps
//! real (possibly stale) line copies so that protocol code must perform the
//! same invalidations the RCCE sources perform on hardware — forgetting one
//! produces wrong data in tests, exactly like on the machine.
//!
//! Policy, per the EAS: MPBT lines are cacheable in L1 only, write-through,
//! no write-allocate.

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
        self.find_from(0, true)
    }

    /// Highest line in the set.
    pub fn last(&self) -> Option<usize> {
        let w = self.0.iter().rposition(|&w| w != 0)?;
        Some(w * 64 + 63 - self.0[w].leading_zeros() as usize)
    }

    /// Maximal runs of consecutive lines, as ascending `start..end`
    /// line ranges. Runs are found a word at a time, so a run costs a
    /// few bit scans however many lines it holds.
    pub(crate) fn runs(self) -> impl Iterator<Item = Range<usize>> {
        let mut from = 0;
        std::iter::from_fn(move || {
            let start = self.find_from(from, true)?;
            let end = self.find_from(start, false).unwrap_or(REGION_LINES);
            from = end;
            Some(start..end)
        })
    }

    /// First line at or after `from` that is in the set (`present`) or
    /// not in it (`!present`).
    fn find_from(&self, from: usize, present: bool) -> Option<usize> {
        let flip = if present { 0 } else { u64::MAX };
        let mut w = from / 64;
        let mut bits = (*self.0.get(w)? ^ flip) & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.0.get(w)? ^ flip;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    fn zip(self, other: LineSet, f: impl Fn(u64, u64) -> u64) -> LineSet {
        LineSet(std::array::from_fn(|w| f(self.0[w], other.0[w])))
    }
}

/// The bytes of the line run `lines` that fall inside the window
/// `[offset, offset + len)`, as a byte range of the region.
fn clip(lines: Range<usize>, offset: usize, len: usize) -> Range<usize> {
    (lines.start * LINE_BYTES).max(offset)..(lines.end * LINE_BYTES).min(offset + len)
}

/// The lines one L1 holds of one owner's MPB region.
struct OwnerLines {
    owner: GlobalCore,
    /// A region-sized shadow: byte `i` of a present line is the cached
    /// (possibly stale) copy of byte `i` of the region. Bytes of absent
    /// lines are never read.
    shadow: Box<[u8]>,
    /// Lines currently cached.
    present: LineSet,
}

/// Per-core L1 model for MPBT lines.
///
/// One table per owner region this core has read from. `CL1INVMB`
/// clears the presence bits and keeps the tables, so storage is one
/// region-sized shadow per owner ever read, fixed after warm-up.
#[derive(Default)]
pub struct L1Model {
    owners: RefCell<Vec<OwnerLines>>,
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
        let owners = self.owners.borrow();
        let mut missed = want;
        if let Some(t) = owners.iter().find(|t| t.owner == owner) {
            for run in want.zip(t.present, |w, p| w & p).runs() {
                let bytes = clip(run, offset, buf.len());
                buf[bytes.start - offset..bytes.end - offset].copy_from_slice(&t.shadow[bytes]);
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
        let base = first * LINE_BYTES;
        let mut owners = self.owners.borrow_mut();
        let t = match owners.iter().position(|t| t.owner == owner) {
            Some(i) => &mut owners[i],
            None => {
                owners.push(OwnerLines {
                    owner,
                    shadow: vec![0; MPB_BYTES].into_boxed_slice(),
                    present: LineSet::default(),
                });
                owners.last_mut().expect("table just pushed")
            }
        };
        for run in missed.runs() {
            let lines = run.start * LINE_BYTES..run.end * LINE_BYTES;
            t.shadow[lines.clone()].copy_from_slice(&fetched[lines.start - base..lines.end - base]);
            let bytes = clip(run, offset, buf.len());
            buf[bytes.start - offset..bytes.end - offset].copy_from_slice(&t.shadow[bytes]);
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
        let mut owners = self.owners.borrow_mut();
        if let Some(t) = owners.iter_mut().find(|t| t.owner == owner) {
            let touched = LineSet::covering(offset, data.len()).zip(t.present, |w, p| w & p);
            for run in touched.runs() {
                let bytes = clip(run, offset, data.len());
                let from = bytes.start - offset..bytes.end - offset;
                t.shadow[bytes].copy_from_slice(&data[from]);
            }
        }
    }

    /// `CL1INVMB`: drop every MPBT line.
    pub fn invalidate_all(&self) {
        for t in self.owners.borrow_mut().iter_mut() {
            t.present = LineSet::default();
        }
        self.invalidations.inc();
    }

    /// Drop the lines covering `[offset, offset+len)` of `owner`'s region
    /// (selective invalidation used by the host software cache protocol).
    pub fn invalidate_range(&self, owner: GlobalCore, offset: u16, len: usize) {
        let mut owners = self.owners.borrow_mut();
        if let Some(t) = owners.iter_mut().find(|t| t.owner == owner) {
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
        self.owners.borrow().iter().map(|t| t.present.len()).sum()
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
        assert_eq!(s.runs().next(), Some(63..130));
        assert_eq!(s.runs().count(), 1);
        assert_eq!(LineSet::covering(31, 2), LineSet::range(0, 1));
        assert!(LineSet::covering(64, 0).is_empty());
    }

    #[test]
    fn line_set_runs_merge_across_words() {
        assert_eq!(LineSet::default().runs().count(), 0);
        let all = LineSet::range(0, REGION_LINES - 1);
        assert_eq!(all.runs().next(), Some(0..REGION_LINES));
        assert_eq!(all.runs().count(), 1);
        // Lines 0, 60..=130 and 255, with 64..=127 filling a whole word.
        let s = LineSet::range(0, 0)
            .zip(LineSet::range(60, 130), |a, b| a | b)
            .zip(LineSet::range(255, 255), |a, b| a | b);
        assert_eq!(s.runs().collect::<Vec<_>>(), [0..1, 60..131, 255..256]);
        let holes = all.zip(s, |a, b| a & !b);
        assert_eq!(holes.runs().collect::<Vec<_>>(), [1..60, 131..255]);
    }
}
