//! The virtual-clock executor.
//!
//! Single-threaded and strictly deterministic: the ready queue is FIFO, the
//! timer queue breaks deadline ties by insertion sequence, and wakers enqueue
//! task ids in wake order. Simulated time advances only when no task is
//! runnable.
//!
//! The hot paths are allocation-free in steady state: timers live in a
//! [`crate::timer::TimerQueue`] (a binary heap over a slab, cancellable —
//! a dropped [`Delay`] withdraws its entry instead of leaving it to fire)
//! and carry a bare task id that is pushed straight onto the ready queue
//! when they fire — an in-task `delay` never touches a [`Waker`] at all.
//! Polls receive a per-`Sim` *hub* waker (a borrowed [`RawWaker`] over the
//! executor itself); cloning it — which only foreign futures such as
//! channels or `JoinHandle`s do — materialises a cached per-task
//! `Arc<TaskWaker>` that is fully thread-safe. The wake queue drains
//! through a reusable swap buffer, an empty drain reads one flag and takes
//! no lock, and task names are interned ids resolved to strings only on
//! the deadlock error path.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Wake, Waker};

use std::sync::{Mutex, PoisonError};

use crate::time::Cycles;
use crate::timer::{TimerId, TimerQueue};

type TaskId = usize;

/// A spawned task. Its future and its join state share one `Rc`
/// allocation: the executor drives it through [`RunTask`], the
/// [`JoinHandle`] reads the result through [`JoinAccess`] — two
/// trait-object views of the same `Rc<TaskCell<F>>`.
enum TaskState<F: Future> {
    /// The future, structurally pinned inside the `Rc` (never moved; see
    /// the safety comment in `poll_cell`).
    Running(F),
    /// Completion overwrites the future in place; holds the result until
    /// the join handle takes it.
    Finished(Option<F::Output>),
}

struct TaskCell<F: Future> {
    state: RefCell<TaskState<F>>,
    waiters: RefCell<Vec<Waker>>,
}

trait RunTask {
    /// Poll the task; `true` means it completed (waiters were woken).
    fn poll_cell(&self, cx: &mut Context<'_>) -> bool;
}

impl<F: Future> RunTask for TaskCell<F> {
    fn poll_cell(&self, cx: &mut Context<'_>) -> bool {
        let mut state = self.state.borrow_mut();
        let fut = match &mut *state {
            TaskState::Running(f) => f,
            TaskState::Finished(_) => return true,
        };
        // SAFETY: the future lives inside the `Rc<TaskCell<F>>` allocation
        // and is never moved out of it. Completion overwrites the enum
        // variant in place, which drops the future at its pinned address
        // before the slot is reused — exactly the drop guarantee `Pin`
        // requires. This is the executor's only unsafe pinning.
        let fut = unsafe { Pin::new_unchecked(fut) };
        match fut.poll(cx) {
            Poll::Ready(out) => {
                *state = TaskState::Finished(Some(out));
                drop(state);
                for w in self.waiters.borrow_mut().drain(..) {
                    w.wake();
                }
                true
            }
            Poll::Pending => false,
        }
    }
}

trait JoinAccess<T> {
    /// Take the result, or enqueue `waker` for completion.
    fn take_or_wait(&self, waker: &Waker) -> Option<T>;
    fn try_take(&self) -> Option<T>;
}

impl<F: Future> JoinAccess<F::Output> for TaskCell<F> {
    fn take_or_wait(&self, waker: &Waker) -> Option<F::Output> {
        if let TaskState::Finished(result) = &mut *self.state.borrow_mut() {
            if let Some(v) = result.take() {
                return Some(v);
            }
        }
        self.waiters.borrow_mut().push(waker.clone());
        None
    }

    fn try_take(&self) -> Option<F::Output> {
        match &mut *self.state.borrow_mut() {
            TaskState::Finished(result) => result.take(),
            TaskState::Running(_) => None,
        }
    }
}

/// Error returned by [`Sim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No task is runnable, no timer is pending, but live tasks remain: the
    /// simulated system is deadlocked. Carries the names of the stuck tasks.
    Deadlock(Vec<String>),
    /// A task requested a diagnosed abort via [`Sim::abort`] (e.g. a poll
    /// watchdog converting an infinite flag wait into a timeout). Carries
    /// the abort reason.
    Aborted(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(names) => {
                write!(f, "simulated deadlock; stuck tasks: {}", names.join(", "))
            }
            SimError::Aborted(reason) => write!(f, "simulation aborted: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Host-side scheduler counters, for the wall-clock perf harness
/// (`engine_micro`). These count *engine operations*, not simulated
/// cycles, and never feed the virtual clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tasks spawned (including daemons).
    pub spawned: u64,
    /// Future polls executed.
    pub polls: u64,
    /// Timers registered.
    pub timers_set: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Timers withdrawn before firing (dropped delays, race losers).
    pub timers_cancelled: u64,
    /// Task wakeups drained from the wake queue.
    pub wakes: u64,
}

impl std::ops::AddAssign for EngineStats {
    /// Aggregate counters across runs (e.g. the passes of one benchmark
    /// workload).
    fn add_assign(&mut self, o: EngineStats) {
        self.spawned += o.spawned;
        self.polls += o.polls;
        self.timers_set += o.timers_set;
        self.timers_fired += o.timers_fired;
        self.timers_cancelled += o.timers_cancelled;
        self.wakes += o.wakes;
    }
}

impl EngineStats {
    /// Total scheduler operations — the "events" of an events/sec figure.
    pub fn events(&self) -> u64 {
        self.polls + self.timers_set + self.timers_fired + self.timers_cancelled + self.wakes
    }
}

/// Wake queue shared with wakers. Wakers may technically be sent across
/// threads, so this is the one `Send`-safe piece of the executor.
#[derive(Default)]
struct WakeQueue {
    ids: Mutex<Vec<TaskId>>,
    /// Set under the lock by every push and cleared under it by the
    /// drain that empties `ids`, so a clear flag means nothing to drain
    /// and the drain skips the lock. The push's `Release` store pairs
    /// with the drain's `Acquire` load: a wake that happened before the
    /// drain (a joined thread's, say) is seen; `ids` itself is published
    /// by the mutex.
    pending: AtomicBool,
}

impl WakeQueue {
    fn push(&self, id: TaskId) {
        let mut ids = self.ids.lock().unwrap_or_else(PoisonError::into_inner);
        ids.push(id);
        self.pending.store(true, Ordering::Release);
    }
}

struct TaskWaker {
    id: TaskId,
    queue: Arc<WakeQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.id);
    }
}

/// What a fired timer wakes. In-task delays store the bare task id —
/// firing one is a ready-queue push, no `Waker`, no queue lock. Foreign
/// contexts (a `Delay` polled outside the executor's own tasks) fall back
/// to a real waker.
enum WakeTarget {
    Task(TaskId),
    External(Waker),
}

/// Sentinel for "no task is being polled right now".
const NO_TASK: TaskId = usize::MAX;

/// The executor's shared waker plumbing. During a poll, `current` holds
/// the polled task's id; the *hub waker* handed to every poll is a
/// borrowed [`RawWaker`] over this struct. `wake(_by_ref)` on it enqueues
/// `current`; `clone` materialises (and caches) a real per-task
/// `Arc<TaskWaker>`, so only futures that actually store wakers —
/// channels, mutexes, `JoinHandle`s — pay for one.
struct WakerHub {
    current: Cell<TaskId>,
    queue: Arc<WakeQueue>,
    /// Lazily-built `Arc<TaskWaker>` per task id. Task ids are stable
    /// across slot reuse, so a cached waker serves every task the slot
    /// ever hosts.
    cache: RefCell<Vec<Option<Arc<TaskWaker>>>>,
}

// SAFETY contract for the hub vtable: the raw hub waker exists only for
// the duration of one `poll_task` call on the executor's own thread, and
// `Inner` (which owns the hub) outlives every poll. The un-cloned waker
// must never cross a thread: every clone goes through `hub_clone`, which
// returns an ordinary thread-safe `Arc<TaskWaker>`-backed waker, so a
// future that stores or sends `cx.waker().clone()` is always safe. All
// futures in this workspace are `!Send` (they hold `Rc`s), which keeps
// the borrowed waker on-thread in practice.
unsafe fn hub_clone(data: *const ()) -> RawWaker {
    let hub = &*(data as *const WakerHub);
    let id = hub.current.get();
    debug_assert_ne!(id, NO_TASK, "hub waker cloned outside a poll");
    let mut cache = hub.cache.borrow_mut();
    if cache.len() <= id {
        cache.resize_with(id + 1, || None);
    }
    let arc = cache[id]
        .get_or_insert_with(|| Arc::new(TaskWaker { id, queue: hub.queue.clone() }))
        .clone();
    RawWaker::from(arc)
}

unsafe fn hub_wake(data: *const ()) {
    hub_wake_by_ref(data);
}

unsafe fn hub_wake_by_ref(data: *const ()) {
    let hub = &*(data as *const WakerHub);
    let id = hub.current.get();
    debug_assert_ne!(id, NO_TASK, "hub waker used outside a poll");
    hub.queue.push(id);
}

unsafe fn hub_drop(_data: *const ()) {}

static HUB_VTABLE: RawWakerVTable =
    RawWakerVTable::new(hub_clone, hub_wake, hub_wake_by_ref, hub_drop);

struct Slot {
    task: Option<Rc<dyn RunTask>>,
    /// Index into the interned name table (resolved only for diagnostics).
    name: u32,
    /// Task is in the ready queue (dedupes spurious wakes).
    queued: bool,
    /// Slot is occupied by a live task.
    live: bool,
    /// Daemon tasks (e.g. host service loops) do not keep the simulation
    /// alive: the run ends when every non-daemon task finished.
    daemon: bool,
}

/// Interned task names: spawning with a name already seen costs one hash
/// lookup and zero allocations.
struct Names {
    by_name: HashMap<Rc<str>, u32>,
    list: Vec<Rc<str>>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let rc: Rc<str> = Rc::from(name);
        let id = self.list.len() as u32;
        self.list.push(rc.clone());
        self.by_name.insert(rc, id);
        id
    }
}

/// Pre-interned name id for anonymous tasks (see [`Sim::new`]).
const ANON_NAME: u32 = 0;

struct Inner {
    now: Cell<Cycles>,
    tasks: RefCell<Vec<Slot>>,
    free: RefCell<Vec<TaskId>>,
    ready: RefCell<VecDeque<TaskId>>,
    timers: RefCell<TimerQueue<WakeTarget>>,
    wake_queue: Arc<WakeQueue>,
    /// Reusable drain buffer swapped with the wake queue under one lock.
    wake_scratch: RefCell<Vec<TaskId>>,
    hub: WakerHub,
    names: RefCell<Names>,
    live: Cell<usize>,
    /// Fast flag mirroring `abort_reason`, checked once per loop turn.
    abort: Cell<bool>,
    /// A diagnosed abort requested by a task; surfaced by [`Sim::run`]
    /// before the next task poll. First request wins.
    abort_reason: RefCell<Option<String>>,
    stat_spawned: Cell<u64>,
    stat_polls: Cell<u64>,
    stat_timers_set: Cell<u64>,
    stat_timers_fired: Cell<u64>,
    stat_timers_cancelled: Cell<u64>,
    stat_wakes: Cell<u64>,
}

/// Handle to the simulation. Cheap to clone; all clones share the clock,
/// scheduler, and task set.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at time 0.
    pub fn new() -> Self {
        let mut names = Names { by_name: HashMap::new(), list: Vec::new() };
        let anon = names.intern("task");
        debug_assert_eq!(anon, ANON_NAME);
        let wake_queue = Arc::new(WakeQueue::default());
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(0),
                tasks: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                ready: RefCell::new(VecDeque::new()),
                timers: RefCell::new(TimerQueue::new()),
                wake_queue: wake_queue.clone(),
                wake_scratch: RefCell::new(Vec::new()),
                hub: WakerHub {
                    current: Cell::new(NO_TASK),
                    queue: wake_queue,
                    cache: RefCell::new(Vec::new()),
                },
                names: RefCell::new(names),
                live: Cell::new(0),
                abort: Cell::new(false),
                abort_reason: RefCell::new(None),
                stat_spawned: Cell::new(0),
                stat_polls: Cell::new(0),
                stat_timers_set: Cell::new(0),
                stat_timers_fired: Cell::new(0),
                stat_timers_cancelled: Cell::new(0),
                stat_wakes: Cell::new(0),
            }),
        }
    }

    /// Current simulated time in core cycles.
    pub fn now(&self) -> Cycles {
        self.inner.now.get()
    }

    /// Request a diagnosed abort: [`Sim::run`] returns
    /// [`SimError::Aborted`] with `reason` before polling another task.
    /// The first abort request wins; later ones are ignored. The caller
    /// should park itself afterwards (e.g. `std::future::pending().await`)
    /// — the run loop never polls again once the abort surfaces.
    pub fn abort(&self, reason: impl Into<String>) {
        let mut slot = self.inner.abort_reason.borrow_mut();
        if slot.is_none() {
            *slot = Some(reason.into());
            self.inner.abort.set(true);
        }
    }

    /// Number of registered-but-unfired timers. After a clean run this is
    /// zero: dropped delays (e.g. losing `race` arms and poll-watchdog
    /// budgets) withdraw their timers.
    pub fn pending_timers(&self) -> usize {
        self.inner.timers.borrow().len()
    }

    /// Snapshot of the host-side scheduler counters (see [`EngineStats`]).
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            spawned: self.inner.stat_spawned.get(),
            polls: self.inner.stat_polls.get(),
            timers_set: self.inner.stat_timers_set.get(),
            timers_fired: self.inner.stat_timers_fired.get(),
            timers_cancelled: self.inner.stat_timers_cancelled.get(),
            wakes: self.inner.stat_wakes.get(),
        }
    }

    /// Spawn an anonymous task.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.spawn_inner(ANON_NAME, fut, false)
    }

    /// Spawn a task with a diagnostic name (shown in deadlock reports).
    pub fn spawn_named<T: 'static>(
        &self,
        name: impl AsRef<str>,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let name = self.inner.names.borrow_mut().intern(name.as_ref());
        self.spawn_inner(name, fut, false)
    }

    /// Spawn a daemon task: it serves the simulation but does not keep it
    /// alive — [`Sim::run`] returns once all non-daemon tasks finished.
    pub fn spawn_daemon<T: 'static>(
        &self,
        name: impl AsRef<str>,
        fut: impl Future<Output = T> + 'static,
    ) -> JoinHandle<T> {
        let name = self.inner.names.borrow_mut().intern(name.as_ref());
        self.spawn_inner(name, fut, true)
    }

    fn spawn_inner<T: 'static>(
        &self,
        name: u32,
        fut: impl Future<Output = T> + 'static,
        daemon: bool,
    ) -> JoinHandle<T> {
        // One allocation per task: future + join state share the cell.
        let cell = Rc::new(TaskCell {
            state: RefCell::new(TaskState::Running(fut)),
            waiters: RefCell::new(Vec::new()),
        });
        let run: Rc<dyn RunTask> = cell.clone();
        let id = {
            let mut tasks = self.inner.tasks.borrow_mut();
            if let Some(id) = self.inner.free.borrow_mut().pop() {
                let slot = &mut tasks[id];
                slot.task = Some(run);
                slot.name = name;
                slot.queued = true;
                slot.live = true;
                slot.daemon = daemon;
                id
            } else {
                let id = tasks.len();
                tasks.push(Slot { task: Some(run), name, queued: true, live: true, daemon });
                id
            }
        };
        self.inner.stat_spawned.set(self.inner.stat_spawned.get() + 1);
        crate::audit::record_at(
            self.inner.now.get(),
            crate::audit::DecisionKind::Spawn,
            id as u64,
            name as u64,
        );
        if !daemon {
            self.inner.live.set(self.inner.live.get() + 1);
        }
        self.inner.ready.borrow_mut().push_back(id);
        JoinHandle { cell }
    }

    /// Sleep for `cycles` of simulated time.
    pub fn delay(&self, cycles: Cycles) -> Delay {
        Delay {
            sim: self.clone(),
            deadline: self.now().saturating_add(cycles),
            timer: None,
            registered: false,
        }
    }

    /// Sleep until the absolute simulated timestamp `deadline` (no-op if it
    /// is already in the past).
    pub fn delay_until(&self, deadline: Cycles) -> Delay {
        Delay { sim: self.clone(), deadline, timer: None, registered: false }
    }

    fn register_timer(&self, deadline: Cycles, target: WakeTarget) -> TimerId {
        self.inner.stat_timers_set.set(self.inner.stat_timers_set.get() + 1);
        let id = self.inner.timers.borrow_mut().insert(deadline, target);
        crate::audit::record_at(
            self.inner.now.get(),
            crate::audit::DecisionKind::TimerArm,
            deadline,
            id.seq(),
        );
        id
    }

    fn cancel_timer(&self, deadline: Cycles, id: TimerId) {
        if self.inner.timers.borrow_mut().cancel(id) {
            self.inner.stat_timers_cancelled.set(self.inner.stat_timers_cancelled.get() + 1);
            crate::audit::record_at(
                self.inner.now.get(),
                crate::audit::DecisionKind::TimerCancel,
                deadline,
                id.seq(),
            );
        }
    }

    fn drain_wake_queue(&self) {
        let mut scratch = self.inner.wake_scratch.borrow_mut();
        debug_assert!(scratch.is_empty());
        let queue = &self.inner.wake_queue;
        if !queue.pending.load(Ordering::Acquire) {
            return;
        }
        {
            let mut ids = queue.ids.lock().unwrap_or_else(PoisonError::into_inner);
            // Swap instead of take: both vectors keep their capacity, so
            // steady-state draining allocates nothing.
            std::mem::swap(&mut *ids, &mut *scratch);
            queue.pending.store(false, Ordering::Relaxed);
        }
        self.inner.stat_wakes.set(self.inner.stat_wakes.get() + scratch.len() as u64);
        let mut tasks = self.inner.tasks.borrow_mut();
        let mut ready = self.inner.ready.borrow_mut();
        for &id in scratch.iter() {
            if let Some(slot) = tasks.get_mut(id) {
                if slot.live && !slot.queued {
                    slot.queued = true;
                    ready.push_back(id);
                    crate::audit::record_at(
                        self.inner.now.get(),
                        crate::audit::DecisionKind::Wake,
                        id as u64,
                        0,
                    );
                }
            }
        }
        scratch.clear();
    }

    /// Names of the live non-daemon tasks, from the interned table — the
    /// payload of a [`SimError::Deadlock`] report.
    fn live_task_names(&self) -> Vec<String> {
        let tasks = self.inner.tasks.borrow();
        let names_table = self.inner.names.borrow();
        tasks
            .iter()
            .filter(|s| s.live && !s.daemon)
            .map(|s| names_table.list[s.name as usize].to_string())
            .collect()
    }

    /// Run until every task has finished.
    ///
    /// Returns the final timestamp, or an error on deadlock or a diagnosed
    /// abort (the simulation state stays inspectable after an error).
    pub fn run(&self) -> Result<Cycles, SimError> {
        loop {
            if self.inner.abort.get() {
                let reason =
                    self.inner.abort_reason.borrow_mut().take().expect("abort flag implies reason");
                self.inner.abort.set(false);
                return Err(SimError::Aborted(reason));
            }
            // Fast path: poll the next ready task. Wakes enqueued during
            // a poll are appended (in wake order) once the ready queue
            // empties — the poll sequence is identical to draining before
            // every poll, since both append at the back in wake order.
            let next = self.inner.ready.borrow_mut().pop_front();
            if let Some(id) = next {
                self.poll_task(id);
                continue;
            }
            self.drain_wake_queue();
            if !self.inner.ready.borrow().is_empty() {
                continue;
            }
            // All non-daemon tasks done: the run is complete (daemon
            // service loops never finish by design).
            if self.inner.live.get() == 0 {
                return Ok(self.inner.now.get());
            }
            // No runnable task: advance time to the next live timer.
            let fired = self.inner.timers.borrow_mut().pop_next();
            match fired {
                Some((deadline, seq, target)) => {
                    debug_assert!(deadline >= self.inner.now.get());
                    self.inner.now.set(deadline.max(self.inner.now.get()));
                    crate::audit::record_at(
                        self.inner.now.get(),
                        crate::audit::DecisionKind::TimerFire,
                        deadline,
                        seq,
                    );
                    self.fire_timer(target);
                    // Fire every timer that shares this deadline before
                    // polling, so same-timestamp wakeups are batched
                    // deterministically.
                    loop {
                        let next = self.inner.timers.borrow_mut().pop_next_at(deadline);
                        match next {
                            Some((seq, t)) => {
                                crate::audit::record_at(
                                    self.inner.now.get(),
                                    crate::audit::DecisionKind::TimerFire,
                                    deadline,
                                    seq,
                                );
                                self.fire_timer(t);
                            }
                            None => break,
                        }
                    }
                }
                // Nothing runnable and no live timer left, yet live tasks
                // remain: the simulated system is deadlocked.
                None => return Err(SimError::Deadlock(self.live_task_names())),
            }
        }
    }

    /// Dispatch a fired timer: a task target goes straight onto the ready
    /// queue (dedup via the `queued` flag, exactly like a drained wake);
    /// an external target falls back to its stored waker.
    fn fire_timer(&self, target: WakeTarget) {
        self.inner.stat_timers_fired.set(self.inner.stat_timers_fired.get() + 1);
        match target {
            WakeTarget::Task(id) => {
                self.inner.stat_wakes.set(self.inner.stat_wakes.get() + 1);
                let mut tasks = self.inner.tasks.borrow_mut();
                if let Some(slot) = tasks.get_mut(id) {
                    if slot.live && !slot.queued {
                        slot.queued = true;
                        self.inner.ready.borrow_mut().push_back(id);
                        crate::audit::record_at(
                            self.inner.now.get(),
                            crate::audit::DecisionKind::Wake,
                            id as u64,
                            0,
                        );
                    }
                }
            }
            WakeTarget::External(waker) => waker.wake(),
        }
    }

    /// Spawn `fut`, run the simulation to completion, and return its output.
    pub fn block_on<T: 'static>(
        &self,
        fut: impl Future<Output = T> + 'static,
    ) -> Result<T, SimError> {
        let handle = self.spawn_named("block_on", fut);
        self.run()?;
        Ok(handle.try_take().expect("block_on: run() completed, result must be present"))
    }

    fn poll_task(&self, id: TaskId) {
        let task = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let slot = &mut tasks[id];
            slot.queued = false;
            if !slot.live {
                return;
            }
            slot.task.take().expect("live task has runner")
        };
        self.inner.stat_polls.set(self.inner.stat_polls.get() + 1);
        crate::audit::record_at(
            self.inner.now.get(),
            crate::audit::DecisionKind::Poll,
            id as u64,
            0,
        );
        let hub = &self.inner.hub;
        hub.current.set(id);
        // SAFETY: the hub waker borrows `self.inner.hub`, which outlives
        // this poll (the `Rc<Inner>` is held by `self`); it is used and
        // dropped on this thread only, and every clone is converted to a
        // thread-safe `Arc<TaskWaker>` by `hub_clone`. See the vtable's
        // safety contract above.
        let waker = unsafe {
            Waker::from_raw(RawWaker::new(hub as *const WakerHub as *const (), &HUB_VTABLE))
        };
        let mut cx = Context::from_waker(&waker);
        let done = task.poll_cell(&mut cx);
        hub.current.set(NO_TASK);
        if done {
            drop(task);
            let mut tasks = self.inner.tasks.borrow_mut();
            let slot = &mut tasks[id];
            slot.live = false;
            let was_daemon = slot.daemon;
            self.inner.free.borrow_mut().push(id);
            if !was_daemon {
                self.inner.live.set(self.inner.live.get() - 1);
            }
        } else {
            self.inner.tasks.borrow_mut()[id].task = Some(task);
        }
    }
}

/// Await the completion of a spawned task and obtain its output.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    cell: Rc<dyn JoinAccess<T>>,
}

impl<T> JoinHandle<T> {
    /// Take the result if the task already finished.
    pub fn try_take(&self) -> Option<T> {
        self.cell.try_take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match self.cell.take_or_wait(cx.waker()) {
            Some(v) => Poll::Ready(v),
            None => Poll::Pending,
        }
    }
}

/// Future returned by [`Sim::delay`] / [`Sim::delay_until`].
///
/// Dropping an unfired `Delay` cancels its timer: a losing `race` arm no
/// longer leaves a stale entry to drag the clock (or a deadlock
/// diagnosis) to its deadline.
pub struct Delay {
    sim: Sim,
    deadline: Cycles,
    timer: Option<TimerId>,
    registered: bool,
}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            if let Some(id) = self.timer.take() {
                self.sim.cancel_timer(self.deadline, id);
            }
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            // Inside one of the executor's own polls, the timer carries
            // the bare task id (fired straight onto the ready queue);
            // only a foreign context pays for a waker clone.
            let target = match self.sim.inner.hub.current.get() {
                NO_TASK => WakeTarget::External(cx.waker().clone()),
                id => WakeTarget::Task(id),
            };
            let id = self.sim.register_timer(self.deadline, target);
            self.timer = Some(id);
        }
        Poll::Pending
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        if let Some(id) = self.timer.take() {
            self.sim.cancel_timer(self.deadline, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run().unwrap(), 0);
    }

    #[test]
    fn delay_advances_clock() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(42).await;
            assert_eq!(s.now(), 42);
            s.delay(8).await;
            assert_eq!(s.now(), 50);
        });
        assert_eq!(sim.run().unwrap(), 50);
    }

    #[test]
    fn zero_delay_is_ready_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(0).await;
            assert_eq!(s.now(), 0);
        });
        assert_eq!(sim.run().unwrap(), 0);
    }

    #[test]
    fn parallel_tasks_share_clock() {
        let sim = Sim::new();
        for d in [10u64, 20, 30] {
            let s = sim.clone();
            sim.spawn(async move {
                s.delay(d).await;
            });
        }
        assert_eq!(sim.run().unwrap(), 30);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim
            .block_on(async move {
                let h = s.spawn(async { 7u32 });
                h.await + 1
            })
            .unwrap();
        assert_eq!(out, 8);
    }

    #[test]
    fn join_waits_for_delayed_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim
            .block_on(async move {
                let s2 = s.clone();
                let h = s.spawn(async move {
                    s2.delay(100).await;
                    s2.now()
                });
                h.await
            })
            .unwrap();
        assert_eq!(out, 100);
    }

    #[test]
    fn deterministic_interleaving() {
        // Two identical runs must produce identical event logs.
        fn run_once() -> Vec<(u64, u32)> {
            let sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..4u32 {
                let s = sim.clone();
                let l = log.clone();
                sim.spawn(async move {
                    for k in 0..3u64 {
                        s.delay(7 * (i as u64 + 1) + k).await;
                        l.borrow_mut().push((s.now(), i));
                    }
                });
            }
            sim.run().unwrap();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn deadlock_is_reported_with_names() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn_named("stuck-one", async move {
            // Waits on a join handle of a task that never gets spawned's
            // equivalent: a pending future that nobody wakes.
            std::future::pending::<()>().await;
            drop(s);
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["stuck-one".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn same_deadline_fifo_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.delay(100).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run().unwrap();
        assert_eq!(&*log.borrow(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn spawn_from_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let total = sim
            .block_on(async move {
                let mut handles = Vec::new();
                for i in 0..10u64 {
                    let s2 = s.clone();
                    handles.push(s.spawn(async move {
                        s2.delay(i).await;
                        i
                    }));
                }
                let mut sum = 0;
                for h in handles {
                    sum += h.await;
                }
                sum
            })
            .unwrap();
        assert_eq!(total, 45);
    }

    #[test]
    fn abort_surfaces_from_run() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn_named("watchdog-victim", async move {
            s.delay(500).await;
            s.abort("flag poll timed out");
            std::future::pending::<()>().await;
        });
        assert_eq!(sim.run(), Err(SimError::Aborted("flag poll timed out".into())));
        assert_eq!(sim.now(), 500);
    }

    #[test]
    fn first_abort_reason_wins() {
        let sim = Sim::new();
        for (d, msg) in [(10u64, "first"), (20, "second")] {
            let s = sim.clone();
            sim.spawn(async move {
                s.delay(d).await;
                s.abort(msg);
                std::future::pending::<()>().await;
            });
        }
        assert_eq!(sim.run(), Err(SimError::Aborted("first".into())));
    }

    #[test]
    fn task_slots_are_reused() {
        let sim = Sim::new();
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run().unwrap();
        assert!(sim.inner.tasks.borrow().len() <= 100);
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run().unwrap();
        // Slots freed by the first wave must have been recycled.
        assert!(sim.inner.tasks.borrow().len() <= 100);
    }

    #[test]
    fn dropped_delay_cancels_its_timer() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            {
                let d = s.delay(1_000_000);
                // Poll once so the timer registers, then drop the future.
                futures_poll_once(d).await;
            }
            assert_eq!(s.pending_timers(), 0);
            s.delay(10).await;
        });
        assert_eq!(sim.run().unwrap(), 10);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn deadlock_reports_at_real_time_not_stale_deadline() {
        // Before timers were cancellable, the losing arm's timer stayed
        // in the heap: an ensuing hang was diagnosed only once the clock
        // had been dragged to the stale deadline.
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn_named("hung", async move {
            crate::sync::race(s.delay(10), s.delay(1_000_000)).await;
            std::future::pending::<()>().await;
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["hung".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert_eq!(sim.now(), 10);
        assert_eq!(sim.pending_timers(), 0);
    }

    #[test]
    fn engine_stats_count_scheduler_work() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(5).await;
            s.delay(5).await;
        });
        sim.run().unwrap();
        let st = sim.engine_stats();
        assert_eq!(st.spawned, 1);
        assert_eq!(st.timers_set, 2);
        assert_eq!(st.timers_fired, 2);
        assert_eq!(st.timers_cancelled, 0);
        assert!(st.polls >= 3);
        assert_eq!(st.wakes, st.timers_fired);
    }

    #[test]
    fn engine_stats_aggregate_with_add_assign() {
        let mut a = EngineStats {
            spawned: 1,
            polls: 2,
            timers_set: 3,
            timers_fired: 4,
            timers_cancelled: 5,
            wakes: 6,
        };
        let b = a;
        a += b;
        assert_eq!(a.spawned, 2);
        assert_eq!(a.events(), 2 * (2 + 3 + 4 + 5 + 6));
    }

    /// A task that wakes itself through the borrowed hub waker is queued
    /// and polled again, not left for a deadlock report.
    #[test]
    fn hub_waker_self_wake_repolls_the_task() {
        let sim = Sim::new();
        let polls = Rc::new(Cell::new(0u32));
        let p = polls.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            if p.get() == 1 {
                cx.waker().wake_by_ref();
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        }));
        assert_eq!(sim.run().unwrap(), 0);
        assert_eq!(polls.get(), 2);
        assert_eq!(sim.engine_stats().wakes, 1);
    }

    /// A waker cloned in one task and woken from another OS thread (inside
    /// a second task's poll) lands in the wake queue and is drained.
    #[test]
    fn waker_woken_from_another_thread_is_drained() {
        let sim = Sim::new();
        let stored: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let done = Rc::new(Cell::new(false));
        let (st, dn) = (stored.clone(), done.clone());
        sim.spawn(std::future::poll_fn(move |cx| {
            if dn.get() {
                return Poll::Ready(());
            }
            *st.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }));
        let (st, dn) = (stored.clone(), done.clone());
        sim.spawn(async move {
            let waker = st.borrow_mut().take().expect("the first task stored its waker");
            dn.set(true);
            std::thread::scope(|scope| {
                scope.spawn(move || waker.wake());
            });
        });
        assert_eq!(sim.run().unwrap(), 0);
        assert!(stored.borrow().is_none(), "the woken task must not park again");
        assert_eq!(sim.engine_stats().wakes, 1);
    }

    /// Poll a future exactly once with a no-op waker, then drop it.
    async fn futures_poll_once<F: Future + Unpin>(mut f: F) {
        std::future::poll_fn(move |cx| {
            let _ = Pin::new(&mut f).poll(cx);
            Poll::Ready(())
        })
        .await
    }
}
