//! Allocation-site profiler for the data-path scenarios: runs the
//! `engine_micro` inter-device ping-pong under a backtrace-sampling
//! global allocator and prints the top allocating call sites.
//!
//! A debugging aid for the allocations-per-message gate — when
//! `BENCH_engine.json`'s `allocs_per_msg` regresses, this shows *which*
//! code started allocating. Build without optimisation for symbols:
//!
//! ```sh
//! cargo run -p vscc-bench --example alloc_sites [scheme] [size]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use vscc::CommScheme;
use vscc_bench::datapath::interdevice_pingpong as pingpong;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static SITES: RefCell<HashMap<String, u64>> = RefCell::new(HashMap::new());
}

struct SamplingAlloc;

fn record() {
    let enabled = ENABLED.try_with(Cell::get).unwrap_or(false);
    if !enabled {
        return;
    }
    // Re-entrancy guard: capturing/formatting the backtrace allocates.
    let entered = IN_HOOK.try_with(|f| !f.replace(true)).unwrap_or(false);
    if !entered {
        return;
    }
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let bt = std::backtrace::Backtrace::force_capture();
    let text = format!("{bt}");
    // The site key: the first few frames inside the workspace crates,
    // skipping the allocator machinery itself.
    let mut frames = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(name) = line.split_once(": ").map(|(_, n)| n) else { continue };
        if !name.contains("::") || name.starts_with("alloc_sites") {
            continue;
        }
        let ours = ["des::", "scc::", "rcce::", "vscc", "pcie::", "core::"]
            .iter()
            .any(|p| name.contains(p));
        if ours {
            frames.push(name.to_string());
            if frames.len() == 3 {
                break;
            }
        }
    }
    let key = if frames.is_empty() { "<runtime/std>".to_string() } else { frames.join(" <- ") };
    let _ = SITES.try_with(|s| *s.borrow_mut().entry(key).or_insert(0) += 1);
    let _ = IN_HOOK.try_with(|f| f.set(false));
}

unsafe impl GlobalAlloc for SamplingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        record();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, l: Layout) {
        System.dealloc(ptr, l)
    }
    unsafe fn realloc(&self, ptr: *mut u8, l: Layout, n: usize) -> *mut u8 {
        record();
        System.realloc(ptr, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: SamplingAlloc = SamplingAlloc;

fn main() {
    let mut args = std::env::args().skip(1);
    let scheme = match args.next().as_deref() {
        Some("routing") => CommScheme::SimpleRouting,
        Some("hwack") => CommScheme::RemotePutHwAck,
        Some("swcache") => CommScheme::LocalPutRemoteGet,
        Some("vdma") => CommScheme::LocalPutLocalGet,
        _ => CommScheme::RemotePutWcb,
    };
    let size: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let (lo, hi) = (4usize, 36usize);

    // Warm-up run fills the chunk pool and interning tables.
    pingpong(scheme, size, lo);

    // Difference two rep counts so setup allocations cancel; what's
    // left is per-message steady state (2 one-way messages per rep).
    ENABLED.with(|f| f.set(true));
    pingpong(scheme, size, lo);
    ENABLED.with(|f| f.set(false));
    let low_count = COUNT.with(Cell::get);
    let low: HashMap<String, u64> = SITES.with(|s| s.borrow().clone());
    SITES.with(|s| s.borrow_mut().clear());
    COUNT.with(|c| c.set(0));
    ENABLED.with(|f| f.set(true));
    pingpong(scheme, size, hi);
    ENABLED.with(|f| f.set(false));
    let high_count = COUNT.with(Cell::get);
    let msgs = 2 * (hi - lo) as u64;

    let mut rows: Vec<(String, f64)> = SITES.with(|s| {
        s.borrow()
            .iter()
            .map(|(k, &n)| {
                let base = low.get(k).copied().unwrap_or(0);
                (k.clone(), n.saturating_sub(base) as f64 / msgs as f64)
            })
            .collect()
    });
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "steady-state allocations/message = {:.1}  (scheme {scheme:?}, {size} B, {} msgs)",
        (high_count - low_count) as f64 / msgs as f64,
        msgs
    );
    println!("{:>10}  site", "allocs/msg");
    for (site, per_msg) in rows.iter().filter(|(_, p)| *p >= 0.05) {
        println!("{per_msg:>10.2}  {site}");
    }
}
