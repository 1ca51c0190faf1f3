//! Outside-in host-time attribution for the traced pass.
//!
//! [`Timed`] decorates a [`PointToPoint`] protocol and times every poll of
//! the send/recv futures it hands out; [`TimedFuture`] does the same for a
//! benchmark-owned rank closure. Wall-clock reads never reach the virtual
//! clock, so a decorated run is simulated bit-identically to a plain one
//! (the traced pass checks this through the digest).
//!
//! Spans are `{name, parent, start_ns, end_ns, busy_ns}` kept in memory.
//! `pass`, `point`, `setup` and `run` spans are single intervals
//! (busy = end - start). Poll-level spans would number in the millions on
//! BT, so `rank` and protocol spans aggregate every poll of their layer
//! within one `run`: start is the first poll, end the last, and `busy_ns`
//! the summed poll time. A layer's self time is its busy time minus its
//! children's busy time.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use rcce::protocol::{LocalBoxFuture, PointToPoint};
use rcce::RankCtx;

/// Summed poll time of one decorated layer; clones share the sums.
#[derive(Clone)]
pub struct PollClock {
    origin: Instant,
    sums: Rc<Cell<PollSums>>,
}

#[derive(Clone, Copy, Default)]
struct PollSums {
    busy_ns: u64,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl PollClock {
    /// A clock whose span offsets are measured from `origin`.
    pub fn new(origin: Instant) -> Self {
        PollClock { origin, sums: Rc::default() }
    }

    fn record(&self, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let mut s = self.sums.get();
        s.busy_ns += end.duration_since(start).as_nanos() as u64;
        s.first_ns = s.first_ns.or(Some(ns(start)));
        s.last_ns = ns(end);
        self.sums.set(s);
    }

    pub fn busy_ns(&self) -> u64 {
        self.sums.get().busy_ns
    }

    /// `(first poll start, last poll end)` relative to the origin.
    pub fn extent(&self) -> Option<(u64, u64)> {
        let s = self.sums.get();
        s.first_ns.map(|f| (f, s.last_ns))
    }
}

/// A future whose every poll is timed into a [`PollClock`].
pub struct TimedFuture<F> {
    inner: Pin<Box<F>>,
    clock: PollClock,
}

impl<F: Future> TimedFuture<F> {
    pub fn new(inner: F, clock: &PollClock) -> Self {
        TimedFuture { inner: Box::pin(inner), clock: clock.clone() }
    }
}

impl<F: Future> Future for TimedFuture<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let start = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        self.clock.record(start, Instant::now());
        out
    }
}

/// A protocol decorator timing every poll of the wrapped protocol's
/// futures.
pub struct Timed {
    inner: Rc<dyn PointToPoint>,
    clock: PollClock,
}

impl Timed {
    pub fn wrap(inner: Rc<dyn PointToPoint>, clock: &PollClock) -> Rc<dyn PointToPoint> {
        Rc::new(Timed { inner, clock: clock.clone() })
    }
}

impl PointToPoint for Timed {
    fn send<'a>(
        &'a self,
        ctx: &'a RankCtx,
        dest: usize,
        data: &'a [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(TimedFuture::new(self.inner.send(ctx, dest, data, flow), &self.clock))
    }

    fn recv<'a>(
        &'a self,
        ctx: &'a RankCtx,
        src: usize,
        buf: &'a mut [u8],
        flow: u64,
    ) -> LocalBoxFuture<'a, ()> {
        Box::pin(TimedFuture::new(self.inner.recv(ctx, src, buf, flow), &self.clock))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
}

/// The in-memory span store of one traced pass.
pub struct Spans {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: RefCell::new(Vec::new()) }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open an interval span; close it with [`Spans::close`].
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { name: name.to_string(), parent, start_ns: now, end_ns: now, busy_ns: 0 });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = now;
        spans[id].busy_ns = now - spans[id].start_ns;
    }

    /// Record a layer's aggregated poll time under `parent` (nothing if
    /// the layer was never polled). Returns the span id.
    pub fn aggregate(&self, name: &str, parent: usize, clock: &PollClock) -> Option<usize> {
        let (start_ns, end_ns) = clock.extent()?;
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns,
            end_ns,
            busy_ns: clock.busy_ns(),
        });
        Some(spans.len() - 1)
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: its busy time minus its children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.busy_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "run".into(), parent: None, start_ns: 0, end_ns: 100, busy_ns: 100 },
            Span { name: "rank".into(), parent: Some(0), start_ns: 5, end_ns: 90, busy_ns: 60 },
            Span { name: "proto".into(), parent: Some(1), start_ns: 6, end_ns: 80, busy_ns: 25 },
        ];
        assert_eq!(self_ns(&spans), vec![40, 35, 25]);
    }
}
