//! The data-path ping-pongs behind the allocations-per-message gate, and
//! the counting allocator that measures them.
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
use vscc_apps::pingpong::bounce;

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

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counting global allocator: wraps `System`, bumping a per-thread
/// counter on every `alloc`/`realloc`/`alloc_zeroed`. Install it in the
/// binary with `#[global_allocator]`. Per-thread counting keeps other
/// threads (the test harness's) out of the numbers; the
/// counter is a const-initialised `thread_local` `Cell`, so bumping it
/// never allocates (no recursion into the allocator).
pub struct CountingAlloc;

fn bump() {
    // try_with: TLS may be mid-teardown during thread exit.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

/// Allocations performed by this thread so far (0 unless
/// [`CountingAlloc`] is the global allocator).
pub fn allocations() -> u64 {
    ALLOCS.try_with(|c| c.get()).unwrap_or(0)
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

/// One inter-device ping-pong (core 0 of device 0 and of device 1)
/// through the full payload stack (MPB → tunnel → host delivery);
/// returns the `Sim` for its engine counters.
pub fn interdevice_pingpong(scheme: CommScheme, size: usize, reps: usize) -> Sim {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(scheme).build();
    let a = v.devices[0].global(scc::geometry::CoreId(0));
    let d = v.devices[1].global(scc::geometry::CoreId(0));
    let s = v.session_builder().participants(vec![a, d]).build();
    s.run_app(move |r| bounce(r, size, reps)).unwrap();
    sim
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
