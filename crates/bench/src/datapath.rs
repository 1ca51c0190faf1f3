//! The data-path ping-pongs behind the allocations-per-message gate, and
//! the counting allocator that measures them (and BT's peak live heap).
//!
//! `engine_micro` reports and gates `allocs_per_msg` for these scenarios
//! against the committed repo-root `BENCH_engine.json`; the root
//! package's `tests/allocs.rs` applies the same gate in `cargo test`, and
//! the `alloc_sites` example attributes the allocations to call sites.
//! The count of a simulated run does not depend on the host's speed or
//! load, so a rise is a code change, never noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use des::Sim;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::pingpong::{self, bounce};

/// Rep count of the longer of the two differenced runs; `engine_micro`
/// times ping-pongs of this length.
pub const R_HIGH: usize = 36;

/// Fail when a data-path scenario allocates more than this multiple of
/// its committed allocations per message.
pub const ALLOC_GATE_RATIO: f64 = 1.20;

/// A ping-pong of `n` reps, returning its `Sim` for the engine counters.
pub type PingPong = fn(usize) -> Sim;

/// The gated scenarios: (name in `BENCH_engine.json`, ping-pong).
pub const SCENARIOS: [(&str, PingPong); 3] = [
    ("datapath/interdevice_1k_wcb", |reps| {
        interdevice_pingpong(CommScheme::RemotePutWcb, 1024, reps)
    }),
    ("datapath/interdevice_8k_swcache", |reps| {
        interdevice_pingpong(CommScheme::LocalPutRemoteGet, 8192, reps)
    }),
    ("datapath/onchip_8k_blocking", |reps| onchip_pingpong(8192, reps)),
];

/// One thread's allocator counters.
struct Counts {
    allocs: Cell<u64>,
    live: Cell<isize>,
    peak: Cell<isize>,
}

thread_local! {
    static COUNTS: Counts = const {
        Counts { allocs: Cell::new(0), live: Cell::new(0), peak: Cell::new(0) }
    };
}

/// Counting global allocator: wraps `System`, counting on the calling
/// thread every `alloc`/`realloc`/`alloc_zeroed` and the heap bytes it
/// holds live (and their peak). Install it in the binary with
/// `#[global_allocator]`. Per-thread counting keeps other threads (the
/// test harness's) out of the numbers; the counters are const-initialised
/// `thread_local` `Cell`s, so updating them never allocates (no recursion
/// into the allocator).
pub struct CountingAlloc;

/// Count `allocs` allocations and a live-byte change of `bytes`.
fn record(allocs: u64, bytes: isize) {
    // try_with: TLS may be mid-teardown during thread exit.
    let _ = COUNTS.try_with(|c| {
        c.allocs.set(c.allocs.get() + allocs);
        let live = c.live.get() + bytes;
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter update, which
// neither allocates nor touches the returned memory. Layout sizes and a
// realloc's `new_size` fit in `isize` by `GlobalAlloc`'s contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }
}

/// Allocations performed by this thread so far (0 unless
/// [`CountingAlloc`] is the global allocator).
pub fn allocations() -> u64 {
    COUNTS.try_with(|c| c.allocs.get()).unwrap_or(0)
}

/// Heap bytes this thread allocated and has not freed. A thread that
/// frees another thread's allocations can read below zero.
pub fn live_bytes() -> isize {
    COUNTS.try_with(|c| c.live.get()).unwrap_or(0)
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_live_bytes() -> isize {
    COUNTS.try_with(|c| c.peak.get()).unwrap_or(0)
}

/// Restart this thread's peak at its current live bytes.
pub fn reset_peak() {
    let _ = COUNTS.try_with(|c| c.peak.set(c.live.get()));
}

/// Host allocations per one-way message of `pingpong`, isolated by rep
/// differencing: two identical systems run `R_LOW` and [`R_HIGH`]
/// ping-pong reps, and the allocation delta divided by the extra
/// messages cancels all setup/teardown allocations. Both runs are
/// deterministic, so the quotient is exact and stable across hosts.
/// Needs [`CountingAlloc`] installed.
pub fn allocs_per_msg(pingpong: impl Fn(usize) -> Sim) -> f64 {
    const R_LOW: usize = 4;
    let count = |reps| {
        let before = allocations();
        std::hint::black_box(pingpong(reps));
        allocations() - before
    };
    let low = count(R_LOW);
    let high = count(R_HIGH);
    // 2 one-way messages per ping-pong rep.
    (high - low) as f64 / (2 * (R_HIGH - R_LOW)) as f64
}

/// One inter-device ping-pong on a two-device system through the full
/// payload stack (MPB → tunnel → host delivery); returns the `Sim` for
/// its engine counters.
pub fn interdevice_pingpong(scheme: CommScheme, size: usize, reps: usize) -> Sim {
    let b = VsccBuilder::new(&Sim::new(), 2).scheme(scheme);
    pingpong::interdevice_run(b, size, reps, None).1.sim
}

/// Two cores of one device bouncing `size` bytes through the on-chip
/// `BlockingProtocol`: put, flag, CL1INVMB and get over the L1 model,
/// the shape of one BT on-chip chunk.
pub fn onchip_pingpong(size: usize, reps: usize) -> Sim {
    let sim = Sim::new();
    let dev = scc::device::SccDevice::new(&sim, scc::geometry::DeviceId(0));
    let s = rcce::SessionBuilder::new(&sim, vec![dev])
        .max_ranks(2)
        .onchip_protocol(std::rc::Rc::new(rcce::BlockingProtocol::default()))
        .build();
    s.run_app(move |r| bounce(r, size, reps)).unwrap();
    sim
}

/// Pull one numeric field of the named scenario out of a
/// `BENCH_engine.json` (no JSON dep available). Each scenario is one
/// line, so the search for `key` is confined to the line holding the
/// matching name.
pub fn baseline_field(text: &str, name: &str, key: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let at = text.find(&needle)?;
    let line = text[at..].lines().next()?;
    let key = format!("\"{key}\": ");
    let k = line.find(&key)?;
    let tail = &line[k + key.len()..];
    let end = tail.find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')?;
    tail[..end].parse().ok()
}
