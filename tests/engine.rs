//! Engine-level regression tests: golden determinism of a fig6b-shaped
//! run and of a contended routed BT run, the routed path's per-line
//! timer budget, timer-queue ordering/cancellation properties against a
//! reference heap, in-place delay completion against the queued path,
//! and the poll-watchdog clock-accounting fix.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use proptest::prelude::*;

use des::event::Notify;
use des::faultplan::FaultSpec;
use des::sync::{race, Either};
use des::timer::TimerQueue;
use des::{Cycles, EngineStats, JoinHandle, SiblingGuard, Sim, SimError};
use scc::remote::RemoteFabric;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::npb::{run_bt, BtClass, BtConfig};
use vscc_apps::pingpong;

// ---------------------------------------------------------------------
// Golden determinism
// ---------------------------------------------------------------------

/// FNV-1a 64-bit — enough to pin a byte stream without a hash dep.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fig6b_shaped_run() -> (String, String) {
    let (_, trace, reg) = pingpong::interdevice_observed(CommScheme::LocalPutLocalGet, 65_536, 2);
    (des::obs::chrome_trace_json(&[("fig6b", &trace)]), reg.snapshot().to_json())
}

/// Two in-process runs of the same fixed-seed workload must export
/// byte-identical traces and metrics, and both must match the committed
/// golden hashes. A hash change here means a *model* change — rerun the
/// calibration suite and update the constants deliberately, never to
/// silence the test.
#[test]
fn golden_fig6b_shaped_run_is_byte_identical_and_pinned() {
    let (trace_a, metrics_a) = fig6b_shaped_run();
    let (trace_b, metrics_b) = fig6b_shaped_run();
    assert_eq!(trace_a, trace_b, "trace export must not vary between identical runs");
    assert_eq!(metrics_a, metrics_b, "metrics export must not vary between identical runs");

    const GOLDEN_TRACE_FNV: u64 = 0xcf61_fe9f_bde8_af7d;
    const GOLDEN_METRICS_FNV: u64 = 0xeb1b_11f6_0318_7710;
    assert_eq!(
        fnv1a(trace_a.as_bytes()),
        GOLDEN_TRACE_FNV,
        "trace golden drifted (got {:#018x}) — model change? re-check calibration first",
        fnv1a(trace_a.as_bytes())
    );
    assert_eq!(
        fnv1a(metrics_a.as_bytes()),
        GOLDEN_METRICS_FNV,
        "metrics golden drifted (got {:#018x}) — model change? re-check calibration first",
        fnv1a(metrics_a.as_bytes())
    );
}

/// A contended routed run: BT class S on 16 ranks split over two devices
/// under simple routing, so routed lines from eight ranks queue on each
/// SIF. The fig6b golden above only covers an uncontended two-rank
/// exchange; this pins the routed path where hops of different lines
/// interleave on shared links.
#[test]
fn golden_contended_routed_bt_run_is_pinned() {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::SimpleRouting).build();
    let s = v.session_builder().cores_per_device(8).build();
    let mut cfg = BtConfig::new(BtClass::S, 16);
    cfg.measured = 2;
    let res = run_bt(&s, &cfg).expect("routed BT run");
    assert!(res.verified, "routed BT corrupted its payloads");
    let metrics = v.metrics().snapshot().to_json();
    assert_eq!(sim.now(), 39_832_219, "final cycle drifted");
    assert_eq!(v.host.stats.routed_lines.get(), 19_152, "routed line count drifted");
    assert_eq!(res.gflops.to_bits(), 0x3fcc_8390_ce97_4f1a, "GFLOP/s drifted: {}", res.gflops);
    assert_eq!(
        fnv1a(metrics.as_bytes()),
        0xf735_f764_11bd_f8e1,
        "metrics golden drifted (got {:#018x}) — model change? re-check calibration first",
        fnv1a(metrics.as_bytes())
    );
}

// ---------------------------------------------------------------------
// Routed path event budget
// ---------------------------------------------------------------------

/// One uncontended routed read of `n` lines arms exactly four timers per
/// line (one per hop: request into the daemon, into the target, response
/// into the daemon, back into the requester) and costs exactly
/// `n × 10,600` cycles: four SIF crossings of 400 + 150 + 600 cycles plus
/// two 3,000-cycle daemon forwards. A fifth or sixth timer per line means
/// a hop was split back into separate arrival and forward sleeps.
#[test]
fn routed_read_arms_one_timer_per_hop() {
    const LINE_CYCLES: u64 = 4 * (400 + 150 + 600) + 2 * 3_000;
    for n in [1usize, 3, 8] {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::SimpleRouting).build();
        let src = v.devices[0].global(scc::geometry::CoreId(0));
        let owner = v.devices[1].global(scc::geometry::CoreId(0));
        let addr = rcce::layout::payload(owner, 0);
        let host = v.host.clone();
        let (timers0, t0) = (sim.engine_stats().timers_set, sim.now());
        sim.spawn_named("routed-read", async move {
            let bytes = host.read(src, addr, n * scc::LINE_BYTES, None).await;
            assert_eq!(bytes.len(), n * scc::LINE_BYTES);
        });
        sim.run().expect("routed read completes");
        assert_eq!(sim.engine_stats().timers_set - timers0, 4 * n as u64, "{n} line(s)");
        assert_eq!(sim.now() - t0, n as u64 * LINE_CYCLES, "{n} line(s)");
        assert_eq!(v.host.stats.routed_lines.get(), n as u64);
    }
}

// ---------------------------------------------------------------------
// Timer queue vs reference heap
// ---------------------------------------------------------------------

/// Interpreted timer-queue operation; values are reduced modulo the
/// legal range at execution time.
fn run_ops(ops: &[(u8, u64, u64)]) {
    let mut timers: TimerQueue<u32> = TimerQueue::new();
    // Reference: straightforward min-heap of (deadline, seq) that drops
    // cancelled entries eagerly, where the queue skips them lazily.
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut cancelled: Vec<bool> = Vec::new();
    let mut ids = Vec::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut payload = 0u32;

    let pop_reference = |heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                         cancelled: &[bool]|
     -> Option<(u64, u64, u32)> {
        while let Some(Reverse((d, s, p))) = heap.pop() {
            if !cancelled[p as usize] {
                return Some((d, s, p));
            }
        }
        None
    };

    for &(op, a, b) in ops {
        match op % 3 {
            0 => {
                // Insert: offsets from zero (same-cycle ties) to 40 M
                // cycles out.
                let deadline = now + a % 40_000_000;
                let id = timers.insert(deadline, payload);
                assert_eq!(id.seq(), seq, "insert must return the timer's sequence number");
                heap.push(Reverse((deadline, seq, payload)));
                ids.push(id);
                cancelled.push(false);
                seq += 1;
                payload += 1;
            }
            1 => {
                // Cancel a previously inserted timer (maybe already
                // fired or already cancelled — both must return false).
                if !ids.is_empty() {
                    let pick = (b % ids.len() as u64) as usize;
                    let cancel_ok = timers.cancel(ids[pick]);
                    // The reference heap holds exactly the live entries
                    // (cancels retain them out, pops remove them), so a
                    // cancel must succeed iff the entry is still there.
                    let ref_live = heap.iter().any(|Reverse((_, _, p))| *p as usize == pick);
                    assert_eq!(
                        cancel_ok, ref_live,
                        "cancel([{pick}]) disagreed with the reference"
                    );
                    if cancel_ok {
                        cancelled[pick] = true;
                        heap.retain(|Reverse((_, _, p))| *p as usize != pick);
                    }
                }
            }
            _ => {
                let got = timers.pop_next();
                let want = pop_reference(&mut heap, &cancelled);
                assert_eq!(got, want, "pop_next ordering diverged");
                if let Some((d, _, _)) = got {
                    now = now.max(d);
                }
            }
        }
        assert_eq!(timers.len(), heap.len(), "live-entry counts diverged");
    }

    // Drain both: every remaining live timer must fire in (deadline,
    // seq) order.
    loop {
        let got = timers.pop_next();
        let want = pop_reference(&mut heap, &cancelled);
        assert_eq!(got, want, "drain ordering diverged");
        if got.is_none() {
            break;
        }
    }
    assert!(timers.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Any interleaving of inserts, cancels, and pops produces exactly
    /// the (deadline, seq)-FIFO order of the reference heap.
    #[test]
    fn timer_queue_matches_reference_heap(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
    ) {
        run_ops(&ops);
    }

    /// Dense same-deadline bursts (the executor's common case: many
    /// tasks waking on one cycle) keep strict FIFO by sequence.
    #[test]
    fn timer_same_deadline_bursts_stay_fifo(
        deadlines in prop::collection::vec(0u64..8, 1..80),
    ) {
        let mut timers: TimerQueue<u32> = TimerQueue::new();
        for (i, d) in deadlines.iter().enumerate() {
            timers.insert(*d, i as u32);
        }
        let mut fired: Vec<(u64, u32)> = Vec::new();
        while let Some((d, _, p)) = timers.pop_next() {
            fired.push((d, p));
        }
        let mut want: Vec<(u64, u32)> =
            deadlines.iter().enumerate().map(|(i, d)| (*d, i as u32)).collect();
        want.sort_by_key(|&(d, i)| (d, i));
        prop_assert_eq!(fired, want);
    }
}

/// A cancelled timer never fires, frees its slot, and a stale handle
/// (same slot, older sequence number) can't cancel the slot's new tenant.
#[test]
fn timer_cancellation_is_exact() {
    let mut timers: TimerQueue<u32> = TimerQueue::new();
    let a = timers.insert(10, 0);
    let b = timers.insert(10, 1);
    assert!(timers.cancel(a), "live timer must cancel");
    assert!(!timers.cancel(a), "double-cancel must refuse");
    // The cancelled slot is free at once; the next insert reuses it and
    // the old handle must stay dead.
    let c = timers.insert(20, 2);
    assert!(!timers.cancel(a), "stale handle must stay dead after slot reuse");
    assert_eq!(timers.pop_next(), Some((10, b.seq(), 1)));
    assert_eq!(timers.pop_next(), Some((20, c.seq(), 2)));
    assert_eq!(timers.pop_next(), None);
    assert!(!timers.cancel(b), "fired timer must refuse cancellation");
    assert!(!timers.cancel(c), "fired timer must refuse cancellation");
}

// ---------------------------------------------------------------------
// In-place delay completion vs the queued path
// ---------------------------------------------------------------------

/// Wraps every spawned future of a [`World`]. With `queued` set it polls
/// under a [`SiblingGuard`], which forces every delay in the task to arm
/// a timer and wait for the run loop: the oracle.
struct Spawned<F> {
    fut: Pin<Box<F>>,
    queued: bool,
}

impl<F: Future> Future for Spawned<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let _siblings = self.queued.then(SiblingGuard::enter);
        self.fut.as_mut().poll(cx)
    }
}

/// One random task program as `(op, operand)` pairs; see [`run_program`].
type Program = Vec<(u8, u8)>;

/// What one run of a set of programs leaves observable.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Cycles, SimError>,
    now: Cycles,
    stats: EngineStats,
    chain: u64,
    /// `(task, time, op, operand)` after every op, in execution order.
    log: Vec<(u32, Cycles, u8, u64)>,
    pending_timers: usize,
}

struct World {
    sim: Sim,
    queued: bool,
    programs: Vec<Program>,
    notify: [Notify; 2],
    counts: [Cell<u64>; 2],
    log: RefCell<Vec<(u32, Cycles, u8, u64)>>,
    next_id: Cell<u32>,
    /// Delays with a positive length that completed on their first poll.
    in_place: Cell<u64>,
}

impl World {
    fn spawn<T: 'static>(
        &self,
        daemon: bool,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let fut = Spawned { fut: Box::pin(fut), queued: self.queued };
        if daemon {
            self.sim.spawn_daemon("daemon", fut)
        } else {
            self.sim.spawn_named(format!("t{}", self.next_id.get()), fut)
        }
    }

    fn next_id(&self) -> u32 {
        self.next_id.replace(self.next_id.get() + 1)
    }

    /// Await `cycles` of delay, counting it when it completes in place.
    async fn delay(&self, cycles: Cycles) {
        let mut d = self.sim.delay(cycles);
        let mut polls = 0;
        std::future::poll_fn(|cx| {
            polls += 1;
            Pin::new(&mut d).poll(cx)
        })
        .await;
        if polls == 1 && cycles > 0 {
            self.in_place.set(self.in_place.get() + 1);
        }
    }
}

fn spawn_program(w: &Rc<World>, prog: usize, depth: u32) -> JoinHandle<()> {
    let id = w.next_id();
    w.spawn(false, run_program(w.clone(), id, prog, depth))
}

/// Interpret one program. Delays are multiples of 25 cycles and aligned
/// sleeps end on multiples of 100, so deadlines tie across tasks often.
async fn run_program(w: Rc<World>, id: u32, prog: usize, depth: u32) {
    for (op, a) in w.programs[prog].clone() {
        let (op, a) = (op % 10, a as u64);
        let s = &w.sim;
        let mut arg = a;
        match op {
            0 | 1 => w.delay(a % 8 * 25).await,
            2 => w.delay((s.now() / 100 + 1) * 100 - s.now()).await,
            3 => {
                let k = (a % 2) as usize;
                w.counts[k].set(w.counts[k].get() + 1);
                w.notify[k].notify_all();
            }
            4 => {
                // Wait for the next notify on `k`, or time out.
                let k = (a % 2) as usize;
                let seen = w.counts[k].get();
                let wait = w.notify[k].wait_until(|| w.counts[k].get() > seen);
                arg = matches!(race(wait, w.delay(a * 5 + 1)).await, Either::Left(())) as u64;
            }
            5 => {
                let (x, y) = (a % 4 * 25, a / 4 % 4 * 25);
                arg = matches!(race(w.delay(x), w.delay(y)).await, Either::Left(())) as u64;
            }
            6 if depth == 0 => drop(spawn_program(&w, a as usize % w.programs.len(), 1)),
            7 if depth == 0 => spawn_program(&w, a as usize % w.programs.len(), 1).await,
            8 => {
                // Wake itself through the hub waker once.
                let mut woke = false;
                std::future::poll_fn(|cx| {
                    if std::mem::replace(&mut woke, true) {
                        Poll::Ready(())
                    } else {
                        cx.waker().wake_by_ref();
                        Poll::Pending
                    }
                })
                .await;
            }
            9 if a % 8 == 0 => {
                // The run must stop before this delay moves the clock.
                s.abort(format!("t{id}"));
                w.delay(25).await;
                std::future::pending::<()>().await;
            }
            _ => {}
        }
        w.log.borrow_mut().push((id, s.now(), op, arg));
    }
}

/// Run `programs` (one top-level task each) and a daemon ticking at each
/// of `daemons`' periods, in place or `queued`; returns the outcome and
/// the number of delays that completed in place.
fn run_world(programs: &[Program], daemons: &[u64], queued: bool) -> (Outcome, u64) {
    let audit = des::audit::Audit::new(des::audit::DEFAULT_EPOCH_CYCLES);
    let guard = audit.install();
    let w = Rc::new(World {
        sim: Sim::new(),
        queued,
        programs: programs.to_vec(),
        notify: [Notify::new(), Notify::new()],
        counts: [Cell::new(0), Cell::new(0)],
        log: RefCell::new(Vec::new()),
        next_id: Cell::new(0),
        in_place: Cell::new(0),
    });
    for &period in daemons {
        let (w2, id) = (w.clone(), w.next_id());
        w.spawn(true, async move {
            for tick in 0..40 {
                w2.delay(period).await;
                w2.log.borrow_mut().push((id, w2.sim.now(), u8::MAX, tick));
            }
        });
    }
    for prog in 0..programs.len() {
        spawn_program(&w, prog, 0);
    }
    let result = w.sim.run();
    drop(guard);
    let outcome = Outcome {
        result,
        now: w.sim.now(),
        stats: w.sim.engine_stats(),
        chain: audit.chain(),
        log: w.log.take(),
        pending_timers: w.sim.pending_timers(),
    };
    (outcome, w.in_place.get())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Completing a delay in place changes nothing observable: random
    /// programs of delays, same-deadline ties, notifies, timed waits,
    /// races, spawns, joins, self-wakes, daemons and aborts produce the
    /// same log, final clock, result, engine counters, pending timers and
    /// audit chain as when every delay is forced through the timer queue.
    #[test]
    fn in_place_delays_match_the_queued_oracle(
        programs in prop::collection::vec(
            prop::collection::vec((any::<u8>(), any::<u8>()), 0..12),
            1..5,
        ),
        daemons in prop::collection::vec(1u64..120, 0..3),
    ) {
        let (fast, _) = run_world(&programs, &daemons, false);
        let (oracle, forced) = run_world(&programs, &daemons, true);
        prop_assert_eq!(forced, 0, "the oracle completed a delay in place");
        prop_assert_eq!(fast, oracle);
    }
}

/// The comparison above has teeth: a lone task completes every delay in
/// place unless the oracle's guard forces it to queue. (Of the 256
/// random cases, 188 complete at least one delay in place, 2,709 in all.)
#[test]
fn in_place_oracle_exercises_the_fast_path() {
    let lone: Vec<Program> = vec![vec![(0, 3), (1, 5), (2, 0), (0, 7)]];
    let (fast, in_place) = run_world(&lone, &[], false);
    let (oracle, forced) = run_world(&lone, &[], true);
    assert_eq!((in_place, forced), (4, 0));
    assert_eq!(fast, oracle);
}

// ---------------------------------------------------------------------
// Poll-watchdog clock accounting
// ---------------------------------------------------------------------

/// With cancellable timers, a clean watchdog'd run no longer leaves the
/// losing watchdog race arm in the timer structure: the final
/// `sim.now()` equals the last in-app `r.now()` and no timers remain.
/// (Before timers were cancellable, the stale watchdog deadline dragged
/// `sim.now()` forward, hence the old "measure completion from in-app
/// r.now()" caveat.)
#[test]
fn clean_watchdogged_run_leaves_clock_at_app_completion() {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        // Generous: must never trip.
        .faults(FaultSpec { watchdog: Some(50_000_000), ..FaultSpec::none() })
        .build();
    let a = v.devices[0].global(scc::geometry::CoreId(0));
    let b = v.devices[1].global(scc::geometry::CoreId(0));
    let s = v.session_builder().participants(vec![a, b]).build();

    let app_end = Rc::new(Cell::new(0u64));
    let app_end2 = app_end.clone();
    s.run_app(move |r| {
        let app_end = app_end2.clone();
        async move {
            if r.id() == 0 {
                r.send(&vec![7u8; 4096], 1).await;
                let mut buf = vec![0u8; 4096];
                r.recv(&mut buf, 1).await;
            } else {
                let mut buf = vec![0u8; 4096];
                r.recv(&mut buf, 0).await;
                r.send(&buf, 0).await;
            }
            app_end.set(app_end.get().max(r.now()));
        }
    })
    .expect("watchdog must not trip on a healthy run");

    assert!(app_end.get() > 0, "the app must have recorded its completion time");
    assert_eq!(
        sim.now(),
        app_end.get(),
        "final sim.now() must equal the last in-app r.now(): no stale watchdog timers"
    );
    assert_eq!(sim.pending_timers(), 0, "watchdog race losers must be withdrawn");
}
