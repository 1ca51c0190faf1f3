//! FIFO bandwidth/latency resources.
//!
//! A [`Link`] models a serial transmission resource (a PCIe lane bundle, a
//! DMA engine, a memory port): transfers serialize on the link in request
//! order, each occupying it for `bytes * cycles_per_byte` plus a fixed
//! per-transfer overhead, and arriving `latency` cycles after leaving the
//! wire. Queuing delay under contention emerges from the reservation.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::obs::Registry;
use crate::stats::{Counter, Gauge, Log2Histogram};
use crate::time::Cycles;
use crate::Sim;

/// Bandwidth expressed as a rational `cycles_per_byte = num / den`, keeping
/// all reservation arithmetic in integers for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bandwidth {
    num: u64,
    den: u64,
}

impl Bandwidth {
    /// `num / den` cycles per byte. Panics if `den == 0`.
    pub const fn cycles_per_byte(num: u64, den: u64) -> Self {
        assert!(den > 0, "bandwidth denominator must be non-zero");
        Bandwidth { num, den }
    }

    /// Convenience: bytes per cycle, i.e. `1/bpc` cycles per byte.
    pub const fn bytes_per_cycle(bpc: u64) -> Self {
        assert!(bpc > 0);
        Bandwidth { num: 1, den: bpc }
    }

    /// Wire occupancy of a transfer of `bytes`, rounded up. Computed in
    /// `u64` unless `bytes * num` overflows it, then in `u128`; both give
    /// the same cycles.
    pub const fn occupancy(self, bytes: u64) -> Cycles {
        match bytes.checked_mul(self.num) {
            Some(product) => product.div_ceil(self.den),
            None => (bytes as u128 * self.num as u128).div_ceil(self.den as u128) as Cycles,
        }
    }

    /// Peak MB/s at the given clock (decimal MB, for reporting).
    pub fn peak_mbps(self, freq: crate::Freq) -> f64 {
        (self.den as f64 / self.num as f64) * freq.as_mhz() as f64
    }
}

struct LinkState {
    busy_until: Cell<Cycles>,
    bw: Bandwidth,
    latency: Cycles,
    per_transfer: Cycles,
    bytes: Counter,
    busy_cycles: Counter,
    /// Wire-free times of reservations not yet drained; its length at
    /// reservation time is the queue depth.
    pending: RefCell<VecDeque<Cycles>>,
    queue_depth: Gauge,
    latency_hist: Log2Histogram,
}

/// Timing of one reserved transfer (see [`Link::reserve_timed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the wire is free again (posted-write completion point).
    pub wire_free: Cycles,
    /// When the payload fully arrives at the far end.
    pub arrival: Cycles,
}

/// A FIFO-arbitrated serial transmission resource.
#[derive(Clone)]
pub struct Link {
    state: Rc<LinkState>,
}

impl Link {
    /// Create a link with `bw` bandwidth, `latency` cycles of propagation
    /// delay, and a fixed `per_transfer` overhead (header processing,
    /// arbitration) charged to every transfer.
    pub fn new(bw: Bandwidth, latency: Cycles, per_transfer: Cycles) -> Self {
        Link {
            state: Rc::new(LinkState {
                busy_until: Cell::new(0),
                bw,
                latency,
                per_transfer,
                bytes: Counter::new(),
                busy_cycles: Counter::new(),
                pending: RefCell::new(VecDeque::new()),
                queue_depth: Gauge::new(),
                latency_hist: Log2Histogram::new(),
            }),
        }
    }

    /// Surface this link's instruments in `registry` under
    /// `{bytes, busy_cycles, queue_depth, latency_cycles}`; scope the
    /// registry first (e.g. `registry.scoped("pcie").scoped("link0")`).
    /// The `busy_cycles` counter is the utilization numerator — the
    /// time-series sampler turns its per-interval delta into the link's
    /// busy-fraction curve.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.adopt_counter("bytes", &self.state.bytes);
        registry.adopt_counter("busy_cycles", &self.state.busy_cycles);
        registry.adopt_gauge("queue_depth", &self.state.queue_depth);
        registry.adopt_histogram("latency_cycles", &self.state.latency_hist);
    }

    /// Configured bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.state.bw
    }

    /// Transfer `bytes` over the link; resolves when the data has fully
    /// arrived at the far end. Reservation happens synchronously at call
    /// time, so concurrent callers are served in call order.
    pub async fn transfer(&self, sim: &Sim, bytes: u64) {
        let arrive = self.reserve(sim, bytes);
        sim.delay_until(arrive).await;
    }

    /// Reserve wire time for `bytes` and return the absolute arrival
    /// timestamp without waiting. Lets a pipelined sender issue the next
    /// chunk while earlier chunks are in flight.
    pub fn reserve(&self, sim: &Sim, bytes: u64) -> Cycles {
        self.reserve_timed(sim, bytes).arrival
    }

    /// Like [`Link::reserve`], but also exposes when the wire frees up.
    /// A *posted* writer (fire-and-forget semantics) continues at
    /// `wire_free`; the payload lands at `arrival`.
    pub fn reserve_timed(&self, sim: &Sim, bytes: u64) -> Reservation {
        let st = &*self.state;
        let now = sim.now();
        let occupy = st.bw.occupancy(bytes) + st.per_transfer;
        let start = st.busy_until.get().max(now);
        let done = start + occupy;
        st.busy_until.set(done);
        st.bytes.add(bytes);
        st.busy_cycles.add(occupy);
        // Queue depth: reservations whose wire time has not yet elapsed,
        // including this one. Drained lazily at reservation time so the
        // gauge (and its high watermark) stay exact without timers.
        let mut pending = st.pending.borrow_mut();
        while pending.front().is_some_and(|&free| free <= now) {
            pending.pop_front();
        }
        pending.push_back(done);
        st.queue_depth.set(pending.len() as i64);
        st.latency_hist.record(done + st.latency - now);
        crate::audit::record_at(
            now,
            crate::audit::DecisionKind::LinkReserve,
            bytes,
            done + st.latency,
        );
        Reservation { wire_free: done, arrival: done + st.latency }
    }

    /// Total bytes moved over the link.
    pub fn total_bytes(&self) -> u64 {
        self.state.bytes.get()
    }

    /// Cycles the wire was occupied (utilization numerator).
    pub fn busy_cycles(&self) -> Cycles {
        self.state.busy_cycles.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_rounds_up() {
        let bw = Bandwidth::cycles_per_byte(3, 2); // 1.5 cycles/byte
        assert_eq!(bw.occupancy(0), 0);
        assert_eq!(bw.occupancy(1), 2);
        assert_eq!(bw.occupancy(2), 3);
        assert_eq!(bw.occupancy(100), 150);
    }

    /// The `u64` path and its `u128` fallback agree with the `u128`
    /// formula on both sides of the `bytes * num` overflow edge.
    #[test]
    fn occupancy_matches_u128_formula_across_the_overflow_edge() {
        for (num, den) in [(3, 2), (400, 32), (1, 12), (u64::MAX, 7), (7, u64::MAX)] {
            let bw = Bandwidth::cycles_per_byte(num, den);
            let edge = u64::MAX / num;
            for bytes in [
                0,
                1,
                4096,
                edge - 1,
                edge,
                edge.saturating_add(1),
                edge.saturating_add(2),
                u64::MAX,
            ] {
                let want = (bytes as u128 * num as u128).div_ceil(den as u128) as Cycles;
                assert_eq!(bw.occupancy(bytes), want, "{num}/{den} cycles/byte, {bytes} bytes");
            }
        }
    }

    #[test]
    fn single_transfer_timing() {
        let sim = Sim::new();
        // 1 cycle/byte, 100 latency, 10 per-transfer.
        let link = Link::new(Bandwidth::cycles_per_byte(1, 1), 100, 10);
        let s = sim.clone();
        sim.spawn(async move {
            link.transfer(&s, 32).await;
            assert_eq!(s.now(), 32 + 10 + 100);
        });
        sim.run().unwrap();
    }

    #[test]
    fn contention_serializes_fifo() {
        let sim = Sim::new();
        let link = Link::new(Bandwidth::cycles_per_byte(1, 1), 0, 0);
        for i in 0..3u64 {
            let (s, l) = (sim.clone(), link.clone());
            sim.spawn(async move {
                l.transfer(&s, 100).await;
                // Each transfer occupies 100 cycles back to back.
                assert_eq!(s.now(), 100 * (i + 1));
            });
        }
        sim.run().unwrap();
        assert_eq!(link.total_bytes(), 300);
    }

    #[test]
    fn latency_overlaps_between_transfers() {
        // Second transfer starts when the wire frees, not when the first
        // arrives: store-and-forward pipelining.
        let sim = Sim::new();
        let link = Link::new(Bandwidth::cycles_per_byte(1, 1), 1000, 0);
        for i in 0..2u64 {
            let (s, l) = (sim.clone(), link.clone());
            sim.spawn(async move {
                l.transfer(&s, 10).await;
                assert_eq!(s.now(), 10 * (i + 1) + 1000);
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn reserve_allows_pipelining() {
        let sim = Sim::new();
        let link = Link::new(Bandwidth::cycles_per_byte(1, 1), 500, 0);
        let s = sim.clone();
        sim.spawn(async move {
            // Issue 4 chunks of 100B without waiting in between.
            let mut last = 0;
            for _ in 0..4 {
                last = link.reserve(&s, 100);
            }
            s.delay_until(last).await;
            // Wire time 400, then 500 latency for the last chunk.
            assert_eq!(s.now(), 900);
        });
        sim.run().unwrap();
    }

    #[test]
    fn link_metrics_register_and_track() {
        let sim = Sim::new();
        let link = Link::new(Bandwidth::cycles_per_byte(1, 1), 50, 0);
        let reg = Registry::new();
        link.register_metrics(&reg.scoped("pcie").scoped("link0"));
        let s = sim.clone();
        let l = link.clone();
        sim.spawn(async move {
            // Three back-to-back reservations at t=0: queue builds to 3.
            l.reserve(&s, 100);
            l.reserve(&s, 100);
            l.reserve(&s, 100);
        });
        sim.run().unwrap();
        assert_eq!(reg.counter("pcie.link0.bytes").get(), 300);
        let g = reg.gauge("pcie.link0.queue_depth");
        assert_eq!(g.high_watermark(), 3);
        match reg.snapshot().entries.iter().find(|(n, _)| n == "pcie.link0.latency_cycles") {
            Some((_, crate::obs::MetricValue::Histogram { count, max, .. })) => {
                assert_eq!(*count, 3);
                // Last chunk: 300 wire + 50 latency.
                assert_eq!(*max, 350);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn peak_mbps_reporting() {
        let bw = Bandwidth::bytes_per_cycle(1);
        let f = crate::Freq::mhz(533);
        assert!((bw.peak_mbps(f) - 533.0).abs() < 1e-9);
    }
}
