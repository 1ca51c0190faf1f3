//! Simulated synchronization: FIFO semaphore, mutex, latch, and race.
//!
//! These are *modelled* primitives — they coordinate simulated actors inside
//! the single-threaded engine; they are not OS locks.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::{oneshot, OneshotSender};

struct SemState {
    permits: Cell<u64>,
    queue: RefCell<VecDeque<(u64, OneshotSender<()>)>>,
}

/// A counting semaphore with strict FIFO grant order.
///
/// FIFO ordering is what makes simulated bus/queue arbitration
/// deterministic and starvation-free.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<SemState>,
}

impl Semaphore {
    /// Create a semaphore holding `permits` permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            state: Rc::new(SemState {
                permits: Cell::new(permits),
                queue: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.state.permits.get()
    }

    /// Acquire `n` permits, waiting FIFO behind earlier requests.
    pub async fn acquire_many(&self, n: u64) {
        // Even if permits are available, a queued waiter goes first.
        if self.state.queue.borrow().is_empty() && self.state.permits.get() >= n {
            self.state.permits.set(self.state.permits.get() - n);
            return;
        }
        let (tx, rx) = oneshot();
        self.state.queue.borrow_mut().push_back((n, tx));
        rx.await;
    }

    /// Acquire one permit.
    pub async fn acquire(&self) {
        self.acquire_many(1).await;
    }

    /// Return `n` permits and hand them to queued waiters in FIFO order.
    pub fn release_many(&self, n: u64) {
        self.state.permits.set(self.state.permits.get() + n);
        loop {
            let mut queue = self.state.queue.borrow_mut();
            match queue.front() {
                Some(&(need, _)) if self.state.permits.get() >= need => {
                    let (need, tx) = queue.pop_front().expect("peeked front");
                    drop(queue);
                    self.state.permits.set(self.state.permits.get() - need);
                    tx.send(());
                }
                _ => break,
            }
        }
    }

    /// Return one permit.
    pub fn release(&self) {
        self.release_many(1);
    }

    /// Run `f` while holding one permit.
    pub async fn with<T>(&self, f: impl std::future::Future<Output = T>) -> T {
        self.acquire().await;
        let out = f.await;
        self.release();
        out
    }
}

/// A FIFO mutex for simulated actors (a binary [`Semaphore`]).
#[derive(Clone)]
pub struct SimMutex {
    sem: Semaphore,
}

impl Default for SimMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMutex {
    /// Create an unlocked mutex.
    pub fn new() -> Self {
        SimMutex { sem: Semaphore::new(1) }
    }

    /// Lock, run `f`, unlock.
    pub async fn with<T>(&self, f: impl std::future::Future<Output = T>) -> T {
        self.sem.with(f).await
    }

    /// Acquire the lock; must be paired with [`SimMutex::unlock`].
    pub async fn lock(&self) {
        self.sem.acquire().await;
    }

    /// Release the lock.
    pub fn unlock(&self) {
        self.sem.release();
    }
}

/// A latch: counts down from `n`; waiters resume when it hits zero.
#[derive(Clone)]
pub struct Latch {
    remaining: Rc<Cell<u64>>,
    notify: crate::event::Notify,
}

impl Latch {
    /// Create a latch requiring `n` count-downs.
    pub fn new(n: u64) -> Self {
        Latch { remaining: Rc::new(Cell::new(n)), notify: crate::event::Notify::new() }
    }

    /// Count down by one (saturating).
    pub fn count_down(&self) {
        let r = self.remaining.get().saturating_sub(1);
        self.remaining.set(r);
        if r == 0 {
            self.notify.notify_all();
        }
    }

    /// Wait for the count to reach zero.
    pub async fn wait(&self) {
        let remaining = self.remaining.clone();
        self.notify.wait_until(move || remaining.get() == 0).await;
    }
}

/// The winner of a [`race`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished (wins deadline ties).
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Run two futures concurrently and return the first to finish.
///
/// Polls the left future first, so when both become ready in the same
/// scheduler step the left one wins — ties are deterministic. The loser is
/// dropped; a losing [`crate::Sim::delay`] withdraws its timer on drop,
/// so a timeout race that wins early leaves no stale deadline behind and
/// cannot drag the clock forward on an otherwise idle simulation.
pub async fn race<FA, FB>(a: FA, b: FB) -> Either<FA::Output, FB::Output>
where
    FA: std::future::Future,
    FB: std::future::Future,
{
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    std::future::poll_fn(move |cx| {
        if let std::task::Poll::Ready(v) = a.as_mut().poll(cx) {
            return std::task::Poll::Ready(Either::Left(v));
        }
        if let std::task::Poll::Ready(v) = b.as_mut().poll(cx) {
            return std::task::Poll::Ready(Either::Right(v));
        }
        std::task::Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::rc::Rc;

    #[test]
    fn race_earlier_deadline_wins() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim
            .block_on(async move {
                match race(s.delay(100), s.delay(50)).await {
                    Either::Left(()) => "left",
                    Either::Right(()) => "right",
                }
            })
            .unwrap();
        assert_eq!(out, "right");
    }

    #[test]
    fn race_tie_goes_left() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim
            .block_on(async move {
                match race(s.delay(70), s.delay(70)).await {
                    Either::Left(()) => "left",
                    Either::Right(()) => "right",
                }
            })
            .unwrap();
        assert_eq!(out, "left");
    }

    #[test]
    fn race_event_beats_timeout() {
        let sim = Sim::new();
        let notify = crate::event::Notify::new();
        let (s, n) = (sim.clone(), notify.clone());
        sim.spawn_named("setter", async move {
            s.delay(10).await;
            n.notify_all();
        });
        let s = sim.clone();
        let won = sim
            .block_on(async move {
                let fired = Cell::new(false);
                let wait = notify.wait_until(|| fired.replace(true));
                matches!(race(wait, s.delay(1_000)).await, Either::Left(()))
            })
            .unwrap();
        assert!(won);
        // The losing delay(1_000) is cancelled on drop, so the run ends
        // at the notify time — the stale deadline never advances the clock.
        assert_eq!(sim.now(), 10);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let peak = Rc::new(Cell::new(0u64));
        let current = Rc::new(Cell::new(0u64));
        for _ in 0..8 {
            let (s, sem, peak, current) = (sim.clone(), sem.clone(), peak.clone(), current.clone());
            sim.spawn(async move {
                sem.acquire().await;
                current.set(current.get() + 1);
                peak.set(peak.get().max(current.get()));
                s.delay(10).await;
                current.set(current.get() - 1);
                sem.release();
            });
        }
        sim.run().unwrap();
        assert_eq!(peak.get(), 2);
    }

    #[test]
    fn semaphore_fifo_order() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let (s, sem, order) = (sim.clone(), sem.clone(), order.clone());
            sim.spawn(async move {
                // Stagger arrival so queue order is well-defined.
                s.delay(i as u64).await;
                sem.acquire().await;
                order.borrow_mut().push(i);
                s.delay(100).await;
                sem.release();
            });
        }
        sim.run().unwrap();
        assert_eq!(&*order.borrow(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn acquire_many_blocks_until_enough() {
        let sim = Sim::new();
        let sem = Semaphore::new(3);
        let (s, sem2) = (sim.clone(), sem.clone());
        sim.spawn_named("big", async move {
            sem2.acquire_many(3).await;
            s.delay(50).await;
            sem2.release_many(3);
        });
        let (s, sem2) = (sim.clone(), sem.clone());
        sim.spawn_named("small", async move {
            s.delay(1).await;
            sem2.acquire().await;
            // Granted when the big holder releases at t=50.
            assert_eq!(s.now(), 50);
            sem2.release();
        });
        sim.run().unwrap();
    }

    #[test]
    fn latch_releases_at_zero() {
        let sim = Sim::new();
        let latch = Latch::new(3);
        let (s, l) = (sim.clone(), latch.clone());
        sim.spawn_named("waiter", async move {
            l.wait().await;
            assert_eq!(s.now(), 30);
        });
        let (s, l) = (sim.clone(), latch.clone());
        sim.spawn_named("counter", async move {
            for _ in 0..3 {
                s.delay(10).await;
                l.count_down();
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn mutex_with_is_exclusive() {
        let sim = Sim::new();
        let m = SimMutex::new();
        let inside = Rc::new(Cell::new(false));
        for _ in 0..4 {
            let (s, m, inside) = (sim.clone(), m.clone(), inside.clone());
            sim.spawn(async move {
                m.with(async {
                    assert!(!inside.get());
                    inside.set(true);
                    s.delay(5).await;
                    inside.set(false);
                })
                .await;
            });
        }
        assert_eq!(sim.run().unwrap(), 20);
    }
}
