//! Cancellable timer queue: one binary min-heap over a slab.
//!
//! Timers fire in `(deadline, seq)` order, where `seq` counts inserts, so
//! two timers registered for the same cycle fire in registration order.
//! Payloads live in a slab; the heap holds only one packed `u128` key per
//! timer, `deadline << 64 | seq << 24 | slot`, so a heap compare is one
//! integer compare. Ordering the packed keys is ordering `(deadline, seq)`:
//! the deadline fills the high word, and `seq` (below 2^40) sits above
//! `slot` (below 2^24), which never decides because `seq` is unique.
//!
//! * **insert** — O(log n): take a free slot, push its key.
//! * **cancel** — O(1): free the slot at once. A losing `race` arm or a
//!   dropped [`crate::Sim::delay`] future withdraws its timer instead of
//!   leaving it to fire spuriously and drag the virtual clock forward.
//! * **pop** — O(log n): a key whose `seq` no longer matches its slot
//!   (the timer was cancelled, and the slot maybe reused) is skipped when
//!   it reaches the top, so a cancelled timer never fires and never moves
//!   the clock.
//!
//! `seq` is the timer's one identity: [`TimerId`] carries it as the
//! generation guard of its slot, the pops return it, and the audit stream
//! records it for arm, fire and cancel alike.
//!
//! The queue is generic over its payload `P` so the executor can store a
//! plain task id for the common in-task `delay` (fired straight onto the
//! ready queue, no `Waker` machinery) and a boxed waker only for foreign
//! contexts; tests and property checks use bare integers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// Bits of a packed key below `seq`: the slot index.
const SLOT_BITS: u32 = 24;
/// Bits of a packed key's low word above the slot: the sequence number.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// Pack `(deadline, seq, slot)` into one key ordered as `(deadline, seq)`.
fn pack(deadline: Cycles, seq: u64, slot: u32) -> u128 {
    (deadline as u128) << 64 | (seq << SLOT_BITS | slot as u64) as u128
}

/// Split a packed key back into `(deadline, seq, slot)`.
fn unpack(key: u128) -> (Cycles, u64, u32) {
    let low = key as u64;
    ((key >> 64) as Cycles, low >> SLOT_BITS, (low & ((1 << SLOT_BITS) - 1)) as u32)
}

/// Handle to a registered timer; used to withdraw it. The `seq` guards
/// against cancelling a reused slot's new tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    slot: u32,
    seq: u64,
}

impl TimerId {
    /// The timer's insertion sequence number: its FIFO tie-break key.
    pub fn seq(self) -> u64 {
        self.seq
    }
}

struct Slot<P> {
    /// Sequence number of the slot's current (or last) tenant.
    seq: u64,
    /// `None` while the slot is free.
    payload: Option<P>,
}

/// The timer queue itself. One per [`crate::Sim`].
pub struct TimerQueue<P> {
    /// Packed `(deadline, seq, slot)` keys; see [`pack`].
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<Slot<P>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Live (non-cancelled, unfired) timers.
    live: usize,
}

impl<P> Default for TimerQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> TimerQueue<P> {
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live (non-cancelled) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Register a timer firing at `deadline`.
    ///
    /// Panics past 2^40 inserts or 2^24 concurrently live timers, the
    /// widths of a packed key's `seq` and `slot` fields.
    pub fn insert(&mut self, deadline: Cycles, payload: P) -> TimerId {
        let seq = self.next_seq;
        assert!(seq < 1 << SEQ_BITS, "timer sequence numbers exhausted");
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Slot { seq, payload: Some(payload) };
                slot
            }
            None => {
                assert!(self.slab.len() < 1 << SLOT_BITS, "too many live timers");
                self.slab.push(Slot { seq, payload: Some(payload) });
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(pack(deadline, seq, slot)));
        self.live += 1;
        TimerId { slot, seq }
    }

    /// Withdraw a timer. Returns `true` if it was still pending (a fired
    /// or already-cancelled id is a no-op). The slot is freed at once;
    /// its heap key is skipped when it surfaces.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if !self.holds(id.slot, id.seq) {
            return false;
        }
        self.release(id.slot);
        true
    }

    /// Pop the earliest live timer in `(deadline, seq)` order.
    pub fn pop_next(&mut self) -> Option<(Cycles, u64, P)> {
        self.pop_if(|_| true)
    }

    /// Pop the earliest live timer only if it fires exactly at `deadline`
    /// (used to batch same-timestamp wakeups).
    pub fn pop_next_at(&mut self, deadline: Cycles) -> Option<(u64, P)> {
        self.pop_if(|d| d == deadline).map(|(_, seq, payload)| (seq, payload))
    }

    /// Pop the earliest live timer if `due(deadline)`, discarding the
    /// stale keys of cancelled timers on the way.
    fn pop_if(&mut self, due: impl FnOnce(Cycles) -> bool) -> Option<(Cycles, u64, P)> {
        while let Some(&Reverse(key)) = self.heap.peek() {
            let (deadline, seq, slot) = unpack(key);
            if !self.holds(slot, seq) {
                self.heap.pop();
                continue;
            }
            if !due(deadline) {
                return None;
            }
            self.heap.pop();
            return Some((deadline, seq, self.release(slot)));
        }
        None
    }

    /// Whether `slot` still holds the live timer numbered `seq`.
    fn holds(&self, slot: u32, seq: u64) -> bool {
        self.slab.get(slot as usize).is_some_and(|s| s.seq == seq && s.payload.is_some())
    }

    fn release(&mut self, slot: u32) -> P {
        self.free.push(slot);
        self.live -= 1;
        self.slab[slot as usize].payload.take().expect("released slot was live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut TimerQueue<u32>) -> Vec<Cycles> {
        let mut out = Vec::new();
        while let Some((d, _, _)) = q.pop_next() {
            out.push(d);
        }
        out
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut q = TimerQueue::new();
        for d in [500u64, 3, 70_000, 3, 1 << 30, 64, 0] {
            q.insert(d, 0u32);
        }
        assert_eq!(drain(&mut q), vec![0, 3, 3, 64, 500, 70_000, 1 << 30]);
    }

    #[test]
    fn same_deadline_fifo_by_seq() {
        let mut q = TimerQueue::new();
        let ids: Vec<TimerId> = (0..10u32).map(|i| q.insert(1_000, i)).collect();
        // Cancel a couple in the middle; the rest keep insertion order.
        q.cancel(ids[3]);
        q.cancel(ids[7]);
        let mut fired = Vec::new();
        while let Some((d, seq, payload)) = q.pop_next() {
            assert_eq!(d, 1_000);
            assert_eq!(seq, ids[payload as usize].seq());
            fired.push(payload);
        }
        assert_eq!(fired, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn cancelled_only_entries_never_fire() {
        let mut q = TimerQueue::new();
        let a = q.insert(10, 0u32);
        let b = q.insert(1 << 28, 1);
        q.cancel(a);
        q.cancel(b);
        assert!(q.is_empty());
        assert_eq!(q.pop_next().map(|(d, _, _)| d), None);
        // A fresh earlier timer still works.
        q.insert(5, 2);
        assert_eq!(q.pop_next().map(|(d, _, _)| d), Some(5));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = TimerQueue::new();
        let id = q.insert(7, 0u32);
        assert_eq!(q.pop_next().map(|(d, _, _)| d), Some(7));
        assert!(!q.cancel(id));
        // The slab slot got recycled; the stale id must not hit it.
        let id2 = q.insert(9, 1);
        assert!(!q.cancel(id));
        assert!(q.cancel(id2));
    }

    /// Cancel frees the slot at once, so the next insert reuses it while
    /// the cancelled timer's key still sits in the heap. That stale key
    /// must neither fire the new tenant at the old deadline nor let the
    /// old handle cancel it.
    #[test]
    fn stale_key_spares_the_reused_slots_new_tenant() {
        let mut q = TimerQueue::new();
        let old = q.insert(10, 0u32);
        assert!(q.cancel(old));
        let new = q.insert(20, 1);
        assert_eq!(new.slot, old.slot, "cancel must free the slot for the next insert");
        assert!(!q.cancel(old), "the stale handle must not cancel the new tenant");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_next_at(10), None, "the stale key must not fire the new tenant");
        assert_eq!(q.pop_next(), Some((20, new.seq(), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_next_at_batches_one_deadline() {
        let mut q = TimerQueue::new();
        q.insert(5, 0u32);
        q.insert(5, 1);
        q.insert(6, 2);
        assert_eq!(q.pop_next().map(|(d, _, _)| d), Some(5));
        assert!(q.pop_next_at(5).is_some());
        assert!(q.pop_next_at(5).is_none());
        assert_eq!(q.pop_next().map(|(d, _, _)| d), Some(6));
    }

    /// Deadlines that differ only in their high bits still pop in
    /// deadline order, equal deadlines in insertion order, and a later
    /// insert with an earlier deadline first; every field survives a
    /// pack/unpack round trip at its maximum.
    #[test]
    fn packed_keys_order_by_high_deadline_bits_then_seq() {
        let mut q = TimerQueue::new();
        let deadlines = [3 << 62, 1 << 40, 1 << 63, (1 << 40) | 1, 1 << 62, 1 << 40];
        let ids: Vec<TimerId> = deadlines.iter().map(|&d| q.insert(d, 0u32)).collect();
        let mut popped = Vec::new();
        while let Some((d, seq, _)) = q.pop_next() {
            popped.push((d, seq));
        }
        let mut want: Vec<(Cycles, u64)> =
            deadlines.iter().zip(&ids).map(|(&d, id)| (d, id.seq())).collect();
        want.sort();
        assert_eq!(popped, want);
        assert_eq!(
            unpack(pack(Cycles::MAX, (1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1)),
            (Cycles::MAX, (1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1)
        );
    }

    /// Timers at `Cycles::MAX` keep insertion order, whatever slots the
    /// free list hands them.
    #[test]
    fn same_deadline_fifo_at_cycles_max() {
        let mut q = TimerQueue::new();
        let early: Vec<TimerId> = (0..4u32).map(|i| q.insert(i as Cycles, i)).collect();
        for &id in &early {
            q.cancel(id);
        }
        for i in 0..8u32 {
            q.insert(Cycles::MAX, i);
        }
        let fired: Vec<u32> =
            std::iter::from_fn(|| q.pop_next_at(Cycles::MAX)).map(|(_, payload)| payload).collect();
        assert_eq!(fired, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn huge_deadline_saturates() {
        let mut q = TimerQueue::new();
        q.insert(Cycles::MAX, 0u32);
        q.insert(1, 1);
        assert_eq!(q.pop_next().map(|(d, _, _)| d), Some(1));
        assert_eq!(q.pop_next().map(|(d, _, _)| d), Some(Cycles::MAX));
    }
}
