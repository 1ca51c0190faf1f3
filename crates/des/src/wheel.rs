//! Hierarchical timer wheel with cancellable entries.
//!
//! Replaces the executor's former `BinaryHeap<Reverse<TimerEntry>>`. The
//! wheel keeps the exact `(deadline, seq)` FIFO tie-break of the heap —
//! two timers registered for the same cycle fire in registration order —
//! while making the common operations cheap:
//!
//! * **insert** — O(1): pick a level from the bits in which the deadline
//!   differs from the wheel base (`deadline ^ base`, six bits per level,
//!   the placement rule of hashed hierarchical wheels), push the slab
//!   index onto that slot's vector.
//! * **cancel** — O(1): tombstone the slab entry. A losing `race` arm or a
//!   dropped [`crate::Sim::delay`] future withdraws its timer instead of
//!   leaving it to fire spuriously and drag the virtual clock forward.
//! * **pop** — amortised O(1): walk the base forward over occupancy
//!   bitmaps (`u64` per level, one bit per slot), cascading higher-level
//!   slots down as the base crosses them. Deadlines further than the
//!   wheel span (64⁴ cycles) live in an overflow heap and are promoted
//!   into the wheel when the base gets close enough.
//!
//! The wheel is generic over its payload `P` so the executor can store a
//! plain task id for the common in-task `delay` (fired straight onto the
//! ready queue, no `Waker` machinery) and a boxed waker only for foreign
//! contexts; tests and property checks use bare integers.
//!
//! Determinism notes: a level-0 slot holds exactly one deadline (all its
//! entries agree with the base on every bit above the low six), but
//! cascading can interleave older and newer entries, so the slot is
//! sorted by `seq` when it is turned into the firing batch. Cancelled
//! entries never advance the base: tombstones are purged while walking,
//! and `pop_next` returns `None` without moving anything once no live
//! entry remains.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycles;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64 slots per level
const LEVELS: usize = 4;
/// Deadlines at least this far from the base go to the overflow heap.
pub(crate) const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32); // 64^4 = 2^24

/// Handle to a registered timer; used to withdraw it. The generation
/// guards against cancelling a recycled slab slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    idx: u32,
    generation: u32,
}

impl TimerId {
    /// `(slab index, generation)` — the audit stream's stable identity
    /// for a cancelled timer.
    pub(crate) fn parts(self) -> (u32, u32) {
        (self.idx, self.generation)
    }
}

struct Entry<P> {
    deadline: Cycles,
    seq: u64,
    /// `None` marks a cancelled tombstone awaiting purge.
    payload: Option<P>,
    generation: u32,
}

/// The wheel itself. One per [`crate::Sim`].
pub struct TimerWheel<P> {
    slab: Vec<Entry<P>>,
    free: Vec<u32>,
    levels: [[Vec<u32>; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    /// Entries too far out for the wheel, ordered by `(deadline, seq)`.
    overflow: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
    /// The wheel origin; never passes a live deadline, never moves back.
    base: Cycles,
    next_seq: u64,
    /// Live (non-cancelled) entries, wherever they sit.
    live: usize,
    /// Current firing batch: one level-0 slot's live entries, seq-sorted.
    firing: VecDeque<u32>,
    firing_deadline: Cycles,
    /// Emptied slot vectors kept for reuse: taking a slot swaps one of
    /// these in, so steady-state insert/fire cycles never return slot
    /// storage to the allocator.
    spare_slots: Vec<Vec<u32>>,
    /// Reusable `load_firing` scratch (seq-sort staging).
    batch: Vec<u32>,
    /// Sequence number of the entry most recently popped; read by the
    /// audit stream to identify which timer fired.
    last_popped_seq: u64,
}

/// Cap on recycled slot vectors; enough for every occupied slot of a
/// busy wheel without hoarding after a burst.
const MAX_SPARE_SLOTS: usize = 64;

fn level_for(xor: u64) -> usize {
    debug_assert!(xor < WHEEL_SPAN);
    if xor < 1 << SLOT_BITS {
        0
    } else if xor < 1 << (2 * SLOT_BITS) {
        1
    } else if xor < 1 << (3 * SLOT_BITS) {
        2
    } else {
        3
    }
}

impl<P> Default for TimerWheel<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> TimerWheel<P> {
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            levels: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            base: 0,
            next_seq: 0,
            live: 0,
            firing: VecDeque::new(),
            firing_deadline: 0,
            spare_slots: Vec::new(),
            batch: Vec::new(),
            last_popped_seq: 0,
        }
    }

    /// Sequence number the next [`Self::insert`] will assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the most recently popped entry.
    pub(crate) fn last_popped_seq(&self) -> u64 {
        self.last_popped_seq
    }

    /// Empty `level`/`slot`, handing its vector back for iteration. The
    /// slot is left holding a recycled (empty, pre-sized) vector so the
    /// next `place` into it does not allocate.
    fn take_slot(&mut self, level: usize, slot: usize) -> Vec<u32> {
        let spare = self.spare_slots.pop().unwrap_or_default();
        std::mem::replace(&mut self.levels[level][slot], spare)
    }

    /// Return an iterated slot vector to the spare list.
    fn recycle_slot(&mut self, mut v: Vec<u32>) {
        if v.capacity() > 0 && self.spare_slots.len() < MAX_SPARE_SLOTS {
            v.clear();
            self.spare_slots.push(v);
        }
    }

    /// Number of live (non-cancelled) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Register a timer. `deadline` must not lie before the last popped
    /// deadline (the executor only registers timers at or after `now`).
    pub fn insert(&mut self, deadline: Cycles, payload: P) -> TimerId {
        debug_assert!(deadline >= self.base, "timer registered in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.slab[idx as usize];
                e.deadline = deadline;
                e.seq = seq;
                e.payload = Some(payload);
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                self.slab.push(Entry { deadline, seq, payload: Some(payload), generation: 0 });
                idx
            }
        };
        self.live += 1;
        self.place(idx, deadline, seq);
        TimerId { idx, generation: self.slab[idx as usize].generation }
    }

    /// Withdraw a timer. Returns `true` if it was still pending (a fired
    /// or already-cancelled id is a no-op). The entry stays in its slot
    /// as a tombstone and is reclaimed lazily; crucially, a slot holding
    /// only tombstones never advances the virtual clock.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.slab.get_mut(id.idx as usize) {
            Some(e) if e.generation == id.generation && e.payload.is_some() => {
                e.payload = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Earliest live deadline, if any. Positions the wheel so the
    /// following `pop_next` is cheap.
    pub fn peek_deadline(&mut self) -> Option<Cycles> {
        self.peek_capped(Cycles::MAX)
    }

    /// Like [`Self::peek_deadline`], but never walks the base past `cap`:
    /// returns `None` when every live deadline lies beyond it. Keeps the
    /// invariant that the base never overtakes the executor's `now`, so
    /// later inserts at `now + δ` stay legal.
    fn peek_capped(&mut self, cap: Cycles) -> Option<Cycles> {
        loop {
            match self.firing.front() {
                Some(&idx) if self.slab[idx as usize].payload.is_some() => {
                    return Some(self.firing_deadline);
                }
                Some(&idx) => {
                    self.firing.pop_front();
                    self.release(idx);
                }
                None => break,
            }
        }
        if self.settle(cap) {
            Some(self.firing_deadline)
        } else {
            None
        }
    }

    fn pop_front_validated(&mut self) -> (Cycles, P) {
        let idx = self.firing.pop_front().expect("peek positioned a live entry");
        let payload = self.slab[idx as usize].payload.take().expect("peek validated liveness");
        self.last_popped_seq = self.slab[idx as usize].seq;
        self.release(idx);
        self.live -= 1;
        (self.firing_deadline, payload)
    }

    /// Pop the earliest live timer in `(deadline, seq)` order.
    pub fn pop_next(&mut self) -> Option<(Cycles, P)> {
        self.peek_capped(Cycles::MAX)?;
        Some(self.pop_front_validated())
    }

    /// Pop the earliest live timer only if it fires exactly at `deadline`
    /// (used to batch same-timestamp wakeups). The base never advances
    /// past `deadline` here, even when the next timer is far out.
    pub fn pop_next_at(&mut self, deadline: Cycles) -> Option<P> {
        if self.peek_capped(deadline)? == deadline {
            Some(self.pop_front_validated().1)
        } else {
            None
        }
    }

    fn release(&mut self, idx: u32) {
        let e = &mut self.slab[idx as usize];
        e.payload = None;
        e.generation = e.generation.wrapping_add(1);
        self.free.push(idx);
    }

    /// Drop a whole slot vector of tombstones (entries whose deadline the
    /// base already passed; live entries can never sit behind the base).
    fn purge_slot(&mut self, level: usize, slot: usize) {
        let v = self.take_slot(level, slot);
        self.occupied[level] &= !(1 << slot);
        for &idx in &v {
            debug_assert!(self.slab[idx as usize].payload.is_none(), "live timer behind the base");
            self.release(idx);
        }
        self.recycle_slot(v);
    }

    fn place(&mut self, idx: u32, deadline: Cycles, seq: u64) {
        let xor = deadline ^ self.base;
        if xor >= WHEEL_SPAN {
            self.overflow.push(Reverse((deadline, seq, idx)));
            return;
        }
        let level = level_for(xor);
        let slot = ((deadline >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(idx);
        self.occupied[level] |= 1 << slot;
    }

    /// Advance the base to the earliest live deadline (never past `cap`)
    /// and load that level-0 slot into the firing batch. Returns `false`
    /// when no live entry remains at or before `cap` (the base stays put
    /// on tombstone-only content: cancelled timers never move time).
    fn settle(&mut self, cap: Cycles) -> bool {
        if self.live == 0 {
            return false;
        }
        loop {
            // Purge cancelled overflow tops, then promote entries whose
            // deadline now fits the wheel (high bits agree with the base).
            while let Some(&Reverse((deadline, seq, idx))) = self.overflow.peek() {
                if self.slab[idx as usize].payload.is_none() {
                    self.overflow.pop();
                    self.release(idx);
                } else if deadline ^ self.base < WHEEL_SPAN {
                    self.overflow.pop();
                    self.place(idx, deadline, seq);
                } else {
                    break;
                }
            }
            // Cascade every level whose *current* slot is occupied: its
            // entries now differ from the base only below that level (XOR
            // placement), i.e. they may be due before anything else —
            // they must reach level 0 before any base jump is planned.
            if let Some(level) = (1..LEVELS).find(|&l| {
                let cur = (self.base >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1);
                self.occupied[l] & (1 << cur) != 0
            }) {
                let shift = SLOT_BITS * level as u32;
                let cur = ((self.base >> shift) & (SLOTS as u64 - 1)) as usize;
                let v = self.take_slot(level, cur);
                self.occupied[level] &= !(1 << cur);
                for &idx in &v {
                    let e = &self.slab[idx as usize];
                    if e.payload.is_none() {
                        self.release(idx);
                    } else {
                        let (deadline, seq) = (e.deadline, e.seq);
                        debug_assert!((deadline ^ self.base) < (1u64 << shift));
                        self.place(idx, deadline, seq);
                    }
                }
                self.recycle_slot(v);
                continue;
            }
            if self.occupied[0] != 0 {
                let cur = (self.base & (SLOTS as u64 - 1)) as u32;
                let rotated = self.occupied[0].rotate_right(cur);
                let dist = rotated.trailing_zeros() as u64;
                let slot = ((cur as u64 + dist) % SLOTS as u64) as usize;
                if (slot as u64) < cur as u64 {
                    // Wrapped: a stale slot from a finished rotation —
                    // live entries can't live behind the base.
                    self.purge_slot(0, slot);
                    continue;
                }
                let deadline = self.base + dist;
                if deadline > cap {
                    return false;
                }
                if self.load_firing(slot, deadline) {
                    return true;
                }
                continue;
            }
            let Some(level) = (1..LEVELS).find(|&l| self.occupied[l] != 0) else {
                match self.overflow.peek() {
                    // The wheel is empty: jump straight to the overflow
                    // top (tombstoned tops were purged above).
                    Some(&Reverse((deadline, _, _))) => {
                        if deadline > cap {
                            return false;
                        }
                        self.base = deadline;
                        continue;
                    }
                    None => {
                        debug_assert_eq!(self.live, 0, "live timer unaccounted for");
                        return false;
                    }
                }
            };
            let shift = SLOT_BITS * level as u32;
            let span = 1u64 << shift;
            let cur = ((self.base >> shift) & (SLOTS as u64 - 1)) as u32;
            let rotated = self.occupied[level].rotate_right(cur);
            let dist = rotated.trailing_zeros() as u64;
            debug_assert!(dist > 0, "current slot cascades were exhausted above");
            let slot = ((cur as u64 + dist) % SLOTS as u64) as usize;
            if (slot as u64) < cur as u64 {
                self.purge_slot(level, slot);
                continue;
            }
            // Jump to the start of the next occupied slot at this level,
            // but never past a higher level's next slot boundary (its
            // occupants may cascade to earlier deadlines) or past the
            // point where the overflow top becomes promotable. No level's
            // current slot is occupied here, so every live deadline is at
            // or beyond the smallest of these candidates.
            let mut target = (self.base & !(span * SLOTS as u64 - 1)) + (slot as u64) * span;
            for l in (level + 1)..LEVELS {
                if self.occupied[l] != 0 {
                    let lspan = 1u64 << (SLOT_BITS * l as u32);
                    target = target.min((self.base & !(lspan - 1)) + lspan);
                }
            }
            if let Some(&Reverse((deadline, _, _))) = self.overflow.peek() {
                target = target.min(deadline & !(WHEEL_SPAN - 1));
            }
            if target > cap {
                return false;
            }
            debug_assert!(target > self.base, "base walk must make progress");
            self.base = target;
        }
    }

    /// Turn level-0 slot `slot` (single deadline `deadline`) into the
    /// firing batch, seq-sorted, tombstones dropped. Returns `false` if
    /// the slot held only tombstones.
    fn load_firing(&mut self, slot: usize, deadline: Cycles) -> bool {
        let v = self.take_slot(0, slot);
        self.occupied[0] &= !(1 << slot);
        debug_assert!(self.firing.is_empty());
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        for &idx in &v {
            let e = &self.slab[idx as usize];
            if e.payload.is_none() {
                self.release(idx);
            } else {
                debug_assert_eq!(e.deadline, deadline, "level-0 slot must hold one deadline");
                batch.push(idx);
            }
        }
        self.recycle_slot(v);
        let loaded = !batch.is_empty();
        if loaded {
            batch.sort_unstable_by_key(|&idx| self.slab[idx as usize].seq);
            self.firing.extend(batch.iter().copied());
            self.firing_deadline = deadline;
        }
        self.batch = batch;
        loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel<u32>) -> Vec<Cycles> {
        let mut out = Vec::new();
        while let Some((d, _)) = wheel.pop_next() {
            out.push(d);
        }
        out
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut wh = TimerWheel::new();
        for d in [500u64, 3, 70_000, 3, 1 << 30, 64, 0] {
            wh.insert(d, 0u32);
        }
        assert_eq!(drain(&mut wh), vec![0, 3, 3, 64, 500, 70_000, 1 << 30]);
    }

    #[test]
    fn same_deadline_fifo_by_seq() {
        let mut wh = TimerWheel::new();
        let ids: Vec<TimerId> = (0..10u32).map(|i| wh.insert(1_000, i)).collect();
        // Cancel a couple in the middle; the rest keep insertion order.
        wh.cancel(ids[3]);
        wh.cancel(ids[7]);
        let mut fired = Vec::new();
        while let Some((d, payload)) = wh.pop_next() {
            assert_eq!(d, 1_000);
            fired.push(payload);
        }
        assert_eq!(fired, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn cancelled_only_entries_never_advance() {
        let mut wh = TimerWheel::new();
        let a = wh.insert(10, 0u32);
        let b = wh.insert(1 << 28, 1);
        wh.cancel(a);
        wh.cancel(b);
        assert!(wh.is_empty());
        assert_eq!(wh.pop_next().map(|(d, _)| d), None);
        // Base never walked: a fresh earlier timer still works.
        wh.insert(5, 2);
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(5));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut wh = TimerWheel::new();
        let id = wh.insert(7, 0u32);
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(7));
        assert!(!wh.cancel(id));
        // The slab slot got recycled; the stale id must not hit it.
        let id2 = wh.insert(9, 1);
        assert!(!wh.cancel(id));
        assert!(wh.cancel(id2));
    }

    #[test]
    fn overflow_promotion_preserves_order() {
        let mut wh = TimerWheel::new();
        // Far beyond the wheel span, interleaved with near deadlines.
        let far = WHEEL_SPAN * 3 + 17;
        wh.insert(far, 0u32);
        wh.insert(far, 1);
        wh.insert(2, 2);
        assert_eq!(drain(&mut wh), vec![2, far, far]);
    }

    #[test]
    fn boundary_crossing_small_delta() {
        // delta=1 across a span boundary must not round-trip through the
        // overflow heap forever.
        let mut wh = TimerWheel::new();
        wh.insert(WHEEL_SPAN - 1, 0u32);
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(WHEEL_SPAN - 1));
        wh.insert(WHEEL_SPAN, 1);
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(WHEEL_SPAN));
    }

    #[test]
    fn pop_next_at_batches_one_deadline() {
        let mut wh = TimerWheel::new();
        wh.insert(5, 0u32);
        wh.insert(5, 1);
        wh.insert(6, 2);
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(5));
        assert!(wh.pop_next_at(5).is_some());
        assert!(wh.pop_next_at(5).is_none());
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(6));
    }

    #[test]
    fn huge_deadline_saturates() {
        let mut wh = TimerWheel::new();
        wh.insert(Cycles::MAX, 0u32);
        wh.insert(1, 1);
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(1));
        assert_eq!(wh.pop_next().map(|(d, _)| d), Some(Cycles::MAX));
    }
}
