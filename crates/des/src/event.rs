//! Notification primitives: one-shot events, notify cells, and condition
//! re-check helpers.
//!
//! These model the *hardware* wake-up mechanisms of the simulated system
//! (e.g. "a byte in this MPB changed"), not OS synchronization: RCCE and the
//! communication task busy-wait in reality, and the engine turns a busy-wait
//! into "sleep until someone touches the watched state, then re-check".

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A level-triggered notification source.
///
/// `notify_all` wakes every currently-registered waiter; waiters must
/// re-check their predicate (spurious wakeups are expected).
#[derive(Clone, Default)]
pub struct Notify {
    waiters: Rc<RefCell<Vec<Waker>>>,
}

impl Notify {
    /// Create a fresh notifier with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake all registered waiters.
    pub fn notify_all(&self) {
        for w in self.waiters.borrow_mut().drain(..) {
            w.wake();
        }
    }

    /// Wait until `pred()` returns `Some(v)`, re-checking after every
    /// notification. The predicate is checked immediately before any
    /// registration, so an already-true condition never blocks.
    pub async fn wait_for<T>(&self, mut pred: impl FnMut() -> Option<T>) -> T {
        loop {
            if let Some(v) = pred() {
                return v;
            }
            Waiting { notify: self, armed: false }.await;
        }
    }

    /// Wait until `pred()` returns true.
    pub async fn wait_until(&self, mut pred: impl FnMut() -> bool) {
        self.wait_for(|| if pred() { Some(()) } else { None }).await;
    }
}

/// One registration/wakeup round on a [`Notify`].
struct Waiting<'a> {
    notify: &'a Notify,
    armed: bool,
}

impl Future for Waiting<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.armed {
            // We were woken (possibly spuriously); let the caller re-check.
            Poll::Ready(())
        } else {
            self.armed = true;
            self.notify.waiters.borrow_mut().push(cx.waker().clone());
            Poll::Pending
        }
    }
}

struct OneshotState<T> {
    value: Option<T>,
    waiter: Option<Waker>,
    sender_dropped: bool,
}

/// Sending half of a one-shot rendezvous (e.g. a DMA-completion reply).
pub struct OneshotSender<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Receiving half of a one-shot rendezvous.
pub struct OneshotReceiver<T> {
    state: Rc<RefCell<OneshotState<T>>>,
}

/// Create a one-shot channel. The receiver resolves once the sender fires;
/// if the sender is dropped first the receiver resolves to `None`.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let state =
        Rc::new(RefCell::new(OneshotState { value: None, waiter: None, sender_dropped: false }));
    (OneshotSender { state: state.clone() }, OneshotReceiver { state })
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver.
    pub fn send(self, value: T) {
        let mut st = self.state.borrow_mut();
        st.value = Some(value);
        if let Some(w) = st.waiter.take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.sender_dropped = true;
        if let Some(w) = st.waiter.take() {
            w.wake();
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.value.take() {
            Poll::Ready(Some(v))
        } else if st.sender_dropped {
            Poll::Ready(None)
        } else {
            st.waiter = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::cell::Cell;

    #[test]
    fn notify_wakes_waiter() {
        let sim = Sim::new();
        let notify = Notify::new();
        let flag = Rc::new(Cell::new(false));

        let (n2, f2, s2) = (notify.clone(), flag.clone(), sim.clone());
        sim.spawn_named("waiter", async move {
            n2.wait_until(|| f2.get()).await;
            assert_eq!(s2.now(), 500);
        });
        let s3 = sim.clone();
        sim.spawn_named("setter", async move {
            s3.delay(500).await;
            flag.set(true);
            notify.notify_all();
        });
        assert_eq!(sim.run().unwrap(), 500);
    }

    #[test]
    fn already_true_predicate_does_not_block() {
        let sim = Sim::new();
        let notify = Notify::new();
        sim.spawn(async move {
            notify.wait_until(|| true).await;
        });
        assert_eq!(sim.run().unwrap(), 0);
    }

    #[test]
    fn spurious_wakeups_recheck() {
        let sim = Sim::new();
        let notify = Notify::new();
        let counter = Rc::new(Cell::new(0u32));

        let (n2, c2) = (notify.clone(), counter.clone());
        sim.spawn_named("waiter", async move {
            n2.wait_until(|| c2.get() >= 3).await;
        });
        let s = sim.clone();
        sim.spawn_named("ticker", async move {
            for _ in 0..3 {
                s.delay(10).await;
                counter.set(counter.get() + 1);
                notify.notify_all();
            }
        });
        assert_eq!(sim.run().unwrap(), 30);
    }

    #[test]
    fn oneshot_delivers() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(9).await;
            tx.send(1234);
        });
        let got = sim.block_on(rx).unwrap();
        assert_eq!(got, Some(1234));
    }

    #[test]
    fn oneshot_sender_dropped_yields_none() {
        let sim = Sim::new();
        let (tx, rx) = oneshot::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(3).await;
            drop(tx);
        });
        let got = sim.block_on(rx).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn many_waiters_all_wake() {
        let sim = Sim::new();
        let notify = Notify::new();
        let flag = Rc::new(Cell::new(false));
        for _ in 0..16 {
            let (n, f) = (notify.clone(), flag.clone());
            sim.spawn(async move { n.wait_until(|| f.get()).await });
        }
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(1).await;
            flag.set(true);
            notify.notify_all();
        });
        assert_eq!(sim.run().unwrap(), 1);
    }
}
