//! Simulated single-producer unbounded FIFO.
//!
//! The host's per-device request queues use it: the `mmio-d<N>` doorbell
//! stream and the `commtask-d<N>` command queue that the communication
//! task drains.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::Notify;

struct ChanState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// Sending half of a simulated channel.
pub struct Sender<T> {
    state: Rc<RefCell<ChanState<T>>>,
    notify_recv: Notify,
}

/// Receiving half of a simulated channel.
pub struct Receiver<T> {
    state: Rc<RefCell<ChanState<T>>>,
    notify_recv: Notify,
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().closed = true;
        self.notify_recv.notify_all();
    }
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState { queue: VecDeque::new(), closed: false }));
    let notify_recv = Notify::new();
    (
        Sender { state: state.clone(), notify_recv: notify_recv.clone() },
        Receiver { state, notify_recv },
    )
}

impl<T> Sender<T> {
    /// Enqueue an item; the queue is unbounded, so this never waits.
    pub fn send(&self, value: T) {
        let depth = {
            let mut st = self.state.borrow_mut();
            st.queue.push_back(value);
            st.queue.len()
        };
        crate::audit::record(crate::audit::DecisionKind::ChanSend, depth as u64, 0);
        self.notify_recv.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next item; resolves to `None` once the sender is gone
    /// and the queue is drained.
    pub async fn recv(&self) -> Option<T> {
        loop {
            {
                let mut st = self.state.borrow_mut();
                if let Some(v) = st.queue.pop_front() {
                    let depth = st.queue.len();
                    drop(st);
                    crate::audit::record(crate::audit::DecisionKind::ChanRecv, depth as u64, 0);
                    return Some(v);
                }
                if st.closed {
                    return None;
                }
            }
            let state = self.state.clone();
            self.notify_recv
                .wait_until(move || {
                    let st = state.borrow();
                    !st.queue.is_empty() || st.closed
                })
                .await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn unbounded_send_recv() {
        let sim = Sim::new();
        let (tx, rx) = unbounded::<u32>();
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..5 {
                s.delay(10).await;
                tx.send(i);
            }
        });
        let got = sim
            .block_on(async move {
                let mut v = Vec::new();
                while let Some(x) = rx.recv().await {
                    v.push(x);
                }
                v
            })
            .unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_none_after_the_sender_drops() {
        let sim = Sim::new();
        let (tx, rx) = unbounded::<u8>();
        let s = sim.clone();
        sim.spawn(async move {
            tx.send(1);
            s.delay(10).await;
            tx.send(2);
            drop(tx);
        });
        let got = sim
            .block_on(async move {
                let mut v = Vec::new();
                while let Some(x) = rx.recv().await {
                    v.push(x);
                }
                v
            })
            .unwrap();
        assert_eq!(got, vec![1, 2]);
    }
}
