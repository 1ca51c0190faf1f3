//! Host-speed reference: a fixed kernel owned by the benchmark, timed
//! next to every measurement so host time can be reported at a nominal
//! host speed.
//!
//! On a shared 2-vCPU x86-64 Xeon VM the same pass runs up to 1.7x
//! slower for minutes at a time when co-tenants are busy, with no steal
//! time visible to the guest — far beyond any useful regression bound.
//! The kernel is a miniature of what the simulator spends its time on:
//! boxed futures polled by a ready queue, a binary-heap timer queue,
//! `RefCell` state, and one small heap allocation per wake-up. Measured
//! beside ping-pong, BT and routed-BT passes under load, its slowdown
//! tracks theirs with an elasticity of about 1, so their ratio stays put.
//! No change to the simulator can move it: it calls nothing outside this
//! file.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Median seconds of one kernel run on the reference host (an idle 2-vCPU
/// x86-64 Xeon VM). Normalized times are "seconds on that host".
pub const REFERENCE_S: f64 = 0.043;

const TASKS: usize = 512;
const WAKEUPS: u64 = 1200;
const STATE: usize = 4096;

/// The kernel's virtual clock and timer queue.
#[derive(Default)]
struct Clock {
    now: Cell<u64>,
    seq: Cell<u64>,
    current: Cell<usize>,
    timers: RefCell<BinaryHeap<Reverse<(u64, u64, usize)>>>,
}

/// Resolves once the clock reaches `until`; the first poll arms a timer
/// for the polling task.
struct Sleep {
    clock: Rc<Clock>,
    until: u64,
    armed: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let c = &self.clock;
        if c.now.get() >= self.until {
            return Poll::Ready(());
        }
        if !self.armed {
            c.seq.set(c.seq.get() + 1);
            c.timers.borrow_mut().push(Reverse((self.until, c.seq.get(), c.current.get())));
            self.armed = true;
        }
        Poll::Pending
    }
}

async fn actor(id: usize, clock: Rc<Clock>, state: Rc<RefCell<Vec<u64>>>) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ id as u64;
    for _ in 0..WAKEUPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let until = clock.now.get() + 1 + (x & 255);
        Sleep { clock: clock.clone(), until, armed: false }.await;
        let msg = Box::new([x as u8; 24]);
        state.borrow_mut()[x as usize % STATE] += u64::from(msg[3]);
    }
}

/// Run the kernel once; returns its wall time in seconds.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let clock = Rc::new(Clock::default());
    let state = Rc::new(RefCell::new(vec![0u64; STATE]));
    let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = ()>>>>> = (0..TASKS)
        .map(|id| {
            let f: Pin<Box<dyn Future<Output = ()>>> =
                Box::pin(actor(id, clock.clone(), state.clone()));
            Some(f)
        })
        .collect();
    let mut ready: VecDeque<usize> = (0..TASKS).collect();
    // Timers are the only wake-up source and the loop below requeues a
    // task when its timer fires, so the waker itself is never used.
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        while let Some(id) = ready.pop_front() {
            if let Some(task) = tasks[id].as_mut() {
                clock.current.set(id);
                if task.as_mut().poll(&mut cx).is_ready() {
                    tasks[id] = None;
                }
            }
        }
        let Some(Reverse((when, _, id))) = clock.timers.borrow_mut().pop() else { break };
        clock.now.set(when);
        ready.push_back(id);
    }
    black_box(state.borrow()[7]);
    start.elapsed().as_secs_f64()
}
