//! Simulated synchronization: FIFO mutex, latch, and race.
//!
//! These are *modelled* primitives — they coordinate simulated actors inside
//! the single-threaded engine; they are not OS locks.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::{oneshot, OneshotSender};

struct MutexState {
    locked: Cell<bool>,
    queue: RefCell<VecDeque<OneshotSender<()>>>,
}

/// A mutex for simulated actors with strict FIFO grant order.
///
/// FIFO ordering is what makes simulated arbitration deterministic and
/// starvation-free: [`SimMutex::unlock`] hands the lock straight to the
/// longest waiter, which resumes still holding it.
#[derive(Clone)]
pub struct SimMutex {
    state: Rc<MutexState>,
}

impl Default for SimMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMutex {
    /// Create an unlocked mutex.
    pub fn new() -> Self {
        SimMutex {
            state: Rc::new(MutexState {
                locked: Cell::new(false),
                queue: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// Acquire the lock, waiting FIFO behind earlier requests; must be
    /// paired with [`SimMutex::unlock`].
    pub async fn lock(&self) {
        if !self.state.locked.get() {
            self.state.locked.set(true);
            return;
        }
        let (tx, rx) = oneshot();
        self.state.queue.borrow_mut().push_back(tx);
        rx.await;
    }

    /// Release the lock: hand it to the first queued waiter, or leave it
    /// unlocked when none waits.
    pub fn unlock(&self) {
        let next = self.state.queue.borrow_mut().pop_front();
        match next {
            Some(tx) => tx.send(()),
            None => self.state.locked.set(false),
        }
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
/// cannot drag the clock forward on an otherwise idle simulation. Both
/// child polls run under a [`crate::SiblingGuard`]: a left delay must not
/// complete in place before the right one has armed.
pub async fn race<FA, FB>(a: FA, b: FB) -> Either<FA::Output, FB::Output>
where
    FA: std::future::Future,
    FB: std::future::Future,
{
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    std::future::poll_fn(move |cx| {
        let _siblings = crate::SiblingGuard::enter();
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
    fn mutex_grants_in_fifo_order() {
        let sim = Sim::new();
        let m = SimMutex::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let (s, m, order) = (sim.clone(), m.clone(), order.clone());
            sim.spawn(async move {
                // Stagger arrival so queue order is well-defined.
                s.delay(i as u64).await;
                m.lock().await;
                order.borrow_mut().push(i);
                s.delay(100).await;
                m.unlock();
            });
        }
        sim.run().unwrap();
        assert_eq!(&*order.borrow(), &[0, 1, 2, 3, 4]);
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
    fn mutex_is_exclusive() {
        let sim = Sim::new();
        let m = SimMutex::new();
        let inside = Rc::new(Cell::new(false));
        for _ in 0..4 {
            let (s, m, inside) = (sim.clone(), m.clone(), inside.clone());
            sim.spawn(async move {
                m.lock().await;
                assert!(!inside.get());
                inside.set(true);
                s.delay(5).await;
                inside.set(false);
                m.unlock();
            });
        }
        assert_eq!(sim.run().unwrap(), 20);
    }
}
