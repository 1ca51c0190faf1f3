//! Criterion micro-benchmarks of the simulation engine itself, plus the
//! wall-clock perf harness behind `BENCH_engine.json`: how fast the
//! reproduction executes on the *host* machine (not simulated time).
//!
//! Two layers:
//!
//! 1. The criterion section prints mean/min per-iteration wall time for
//!    a handful of engine-bound workloads — a quick eyeball check.
//! 2. The harness section measures engine *events/sec* for each hot
//!    path the PR optimised (executor timers, metric increments,
//!    disabled-category tracing), prints the headline before/after
//!    numbers against the recorded pre-optimisation baseline, and
//!    writes a machine-readable `target/BENCH_engine.json`. With
//!    `VSCC_PERF_GATE=1` it exits non-zero if any scenario's events/sec
//!    regressed more than 30 % against the committed repo-root
//!    `BENCH_engine.json` (the perf-trajectory baseline);
//!    `VSCC_PERF_FAST=1` shrinks sample counts for CI smoke use.
//!
//! Wall-clock here is measurement-only: nothing read from `Instant`
//! ever feeds the virtual clock (determinism invariant #1).

use criterion::{criterion_group, Criterion};
use des::Sim;
use rcce::SessionBuilder;
use scc::device::SccDevice;
use scc::geometry::DeviceId;
use vscc::{CommScheme, VsccBuilder};

#[global_allocator]
static ALLOC: vscc_bench::datapath::CountingAlloc = vscc_bench::datapath::CountingAlloc;

fn bench_executor(c: &mut Criterion) {
    c.bench_function("des/spawn_delay_10k_tasks", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..10_000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    s.delay(i % 97).await;
                });
            }
            sim.run().unwrap()
        })
    });

    c.bench_function("des/link_contention_1k_transfers", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let link = des::link::Link::new(des::link::Bandwidth::bytes_per_cycle(1), 100, 10);
            for _ in 0..1_000 {
                let (s, l) = (sim.clone(), link.clone());
                sim.spawn(async move {
                    l.transfer(&s, 256).await;
                });
            }
            sim.run().unwrap()
        })
    });
}

fn bench_onchip(c: &mut Criterion) {
    c.bench_function("rcce/onchip_pingpong_64k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let dev = SccDevice::new(&sim, DeviceId(0));
            let s = SessionBuilder::new(&sim, vec![dev]).max_ranks(2).build();
            s.run_app(|r| async move {
                if r.id() == 0 {
                    r.send(&vec![1u8; 65_536], 1).await;
                } else {
                    let mut buf = vec![0u8; 65_536];
                    r.recv(&mut buf, 0).await;
                }
            })
            .unwrap();
            sim.now()
        })
    });
}

fn bench_vscc(c: &mut Criterion) {
    c.bench_function("vscc/vdma_pingpong_64k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
            let a = v.devices[0].global(scc::geometry::CoreId(0));
            let d = v.devices[1].global(scc::geometry::CoreId(0));
            let s = v.session_builder().participants(vec![a, d]).build();
            s.run_app(|r| async move {
                if r.id() == 0 {
                    r.send(&vec![1u8; 65_536], 1).await;
                } else {
                    let mut buf = vec![0u8; 65_536];
                    r.recv(&mut buf, 0).await;
                }
            })
            .unwrap();
            sim.now()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_executor, bench_onchip, bench_vscc
}

mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    use des::obs::Registry;
    use des::trace::{Category, Trace};
    use des::Sim;
    use vscc::CommScheme;
    use vscc_bench::datapath::{
        self, baseline_field, interdevice_pingpong, PingPong, ALLOC_GATE_RATIO, R_HIGH, SCENARIOS,
    };

    /// Wall-time of the `des/spawn_delay_10k_tasks` criterion bench
    /// before this optimisation pass (BinaryHeap timers, per-poll
    /// `Arc<TaskWaker>`, two-allocation tasks), measured on the same
    /// container that produced the committed baseline. The harness
    /// prints the current numbers against these.
    const PRE_PR_SPAWN_DELAY_MEAN_MS: f64 = 5.255;
    const PRE_PR_SPAWN_DELAY_MIN_MS: f64 = 4.224;
    /// Allocations per one-way message on the data-path scenarios
    /// before the zero-copy payload plane (Vec-per-hop tunnel, cloning
    /// swcache install, per-chunk copies), measured on the same
    /// container that produced the committed baseline.
    const PRE_PR_DATAPATH_1K_ALLOCS_PER_MSG: f64 = 101.7;
    const PRE_PR_DATAPATH_8K_ALLOCS_PER_MSG: f64 = 318.4;
    /// Regression gate: fail `VSCC_PERF_GATE=1` runs when a scenario's
    /// events/sec drops below this fraction of the committed baseline.
    const GATE_RATIO: f64 = 0.70;
    /// Audit-overhead gate: the audited data-path run must keep at least
    /// this fraction of its audit-off twin's events/sec (i.e. the
    /// hash-chained audit stream may cost at most ~10 %). The twin is
    /// measured back-to-back in the same process, so the ratio is the
    /// audit tax itself, not host drift.
    const AUDIT_GATE_RATIO: f64 = 0.90;

    struct Outcome {
        name: &'static str,
        samples: usize,
        mean_ns: f64,
        min_ns: f64,
        /// Engine events of one sample (identical across samples: the
        /// workloads are deterministic).
        events: u64,
        /// Host allocations per one-way message (data-path scenarios
        /// only). Deterministic: the workload is single-threaded and
        /// seeded, so the count is exact, not sampled.
        allocs_per_msg: Option<f64>,
    }

    impl Outcome {
        /// Events/sec at the best observed sample (least host noise).
        fn events_per_sec(&self) -> f64 {
            self.events as f64 / (self.min_ns / 1e9)
        }
    }

    /// Run `routine` `samples` times, timing each; it returns the
    /// number of engine events one sample performs.
    fn measure(name: &'static str, samples: usize, mut routine: impl FnMut() -> u64) -> Outcome {
        let mut events = routine(); // warmup, untimed
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            events = black_box(routine());
            times.push(start.elapsed().as_nanos() as f64);
        }
        let mean_ns = times.iter().sum::<f64>() / times.len() as f64;
        let min_ns = times.iter().copied().fold(f64::INFINITY, f64::min);
        Outcome { name, samples, mean_ns, min_ns, events, allocs_per_msg: None }
    }

    /// Scheduler events of a finished run: polls, timer traffic, wakes.
    fn engine_events(sim: &Sim) -> u64 {
        let st = sim.engine_stats();
        st.polls + st.timers_set + st.timers_fired + st.timers_cancelled + st.wakes
    }

    /// The headline workload: 10k tasks, each sleeping once. Exercises
    /// spawn, timer-wheel insert/fire, and the direct task-id wake path.
    fn spawn_delay_10k() -> Outcome {
        measure("executor/spawn_delay_10k_tasks", samples(15), || {
            let sim = Sim::new();
            for i in 0..10_000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    s.delay(i % 97).await;
                });
            }
            sim.run().unwrap();
            engine_events(&sim)
        })
    }

    /// Timer cancellation churn: every `race` cancels its losing arm's
    /// timer. Pre-wheel these lingered in the heap; now the run must end
    /// with zero pending timers and cancellation must stay O(1)-cheap.
    fn timer_cancel_churn() -> Outcome {
        measure("executor/timer_cancel_churn_100k", samples(10), || {
            let sim = Sim::new();
            let s = sim.clone();
            sim.spawn(async move {
                for _ in 0..100_000u32 {
                    des::sync::race(s.delay(1), s.delay(1_000_000)).await;
                }
            });
            sim.run().unwrap();
            assert_eq!(sim.pending_timers(), 0, "cancelled race losers must leave the wheel");
            engine_events(&sim)
        })
    }

    /// A counter resolved once from the registry: per-increment cost
    /// must be a `Cell` update — no string hash, no registry lookup.
    fn counter_inc() -> Outcome {
        let registry = Registry::new();
        let counter = registry.scoped("bench").counter("inc");
        measure("metrics/counter_inc_10m", samples(10), move || {
            const N: u64 = 10_000_000;
            for _ in 0..N {
                // black_box defeats folding the whole loop into `+= N`.
                counter.add(black_box(1));
            }
            black_box(counter.get());
            N
        })
    }

    /// A histogram resolved once from the registry: per-record cost is
    /// a bucket increment.
    fn histogram_record() -> Outcome {
        let registry = Registry::new();
        let hist = registry.scoped("bench").histogram("rec");
        measure("metrics/histogram_record_10m", samples(10), move || {
            const N: u64 = 10_000_000;
            for i in 0..N {
                hist.record(i & 0xFFFF);
            }
            N
        })
    }

    /// Disabled-category tracing: the call sites pay one branch; the
    /// actor/field closures (which would allocate) are never run. A
    /// fully disabled trace and a category-filtered one are both
    /// exercised — they share the early-out.
    fn disabled_trace() -> Outcome {
        let off = Trace::disabled();
        let filtered = Trace::with_categories(&[Category::Pcie]);
        measure("trace/disabled_category_10m", samples(10), move || {
            const N: u64 = 10_000_000;
            for i in 0..N / 2 {
                off.instant(
                    i,
                    Category::Protocol,
                    "ev",
                    || format!("actor{i}"),
                    || des::fields![n = i],
                );
                filtered.instant(
                    i,
                    Category::Protocol,
                    "ev",
                    || format!("actor{i}"),
                    || des::fields![n = i],
                );
            }
            assert!(filtered.events().is_empty());
            N
        })
    }

    /// Enabled tracing with a pre-interned actor label: recording stores
    /// an `Rc` clone, no per-event string.
    fn interned_trace() -> Outcome {
        measure("trace/enabled_interned_200k", samples(10), || {
            const N: u64 = 200_000;
            let t = Trace::with_categories(&[Category::App]);
            let actor = t.intern("rank0");
            for i in 0..N {
                t.instant(i, Category::App, "tick", || actor.clone(), Vec::new);
            }
            assert_eq!(t.events().len(), N as usize);
            N
        })
    }

    /// A data-path scenario of [`SCENARIOS`]: wall-clock events/sec of
    /// its `R_HIGH`-rep ping-pong plus exact allocations per one-way
    /// message ([`datapath::allocs_per_msg`]).
    fn datapath_outcome((name, pingpong): (&'static str, PingPong)) -> Outcome {
        let allocs_per_msg = datapath::allocs_per_msg(pingpong);
        let mut o = measure(name, samples(8), || engine_events(&pingpong(R_HIGH)));
        o.allocs_per_msg = Some(allocs_per_msg);
        o
    }

    /// Audit-stream overhead pair: the vDMA data-path ping-pong bare and
    /// with the hash-chained audit stream installed (`des::audit`). The
    /// audited run folds every scheduler decision into the FNV chain, so
    /// its events/sec against the bare twin is exactly the per-decision
    /// audit cost. The samples are interleaved (off, on, off, on, ...)
    /// so host-frequency drift hits both sides alike and the min-based
    /// ratio stays meaningful on a busy machine.
    fn audit_pair() -> (Outcome, Outcome) {
        let run_off = || {
            let sim = interdevice_pingpong(CommScheme::LocalPutLocalGet, 8192, R_HIGH);
            engine_events(&sim)
        };
        let run_on = || {
            let audit = des::audit::Audit::new(des::audit::DEFAULT_EPOCH_CYCLES);
            let guard = audit.install();
            let sim = interdevice_pingpong(CommScheme::LocalPutLocalGet, 8192, R_HIGH);
            drop(guard);
            assert!(audit.total_decisions() > 0, "the audited twin must fold decisions");
            black_box(audit.chain());
            engine_events(&sim)
        };
        let n = samples(8);
        let mut ev_off = run_off(); // warmup, untimed
        let mut ev_on = run_on();
        let (mut t_off, mut t_on) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let start = Instant::now();
            ev_off = black_box(run_off());
            t_off.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            ev_on = black_box(run_on());
            t_on.push(start.elapsed().as_nanos() as f64);
        }
        let outcome = |name, times: &[f64], events| Outcome {
            name,
            samples: n,
            mean_ns: times.iter().sum::<f64>() / times.len() as f64,
            min_ns: times.iter().copied().fold(f64::INFINITY, f64::min),
            events,
            allocs_per_msg: None,
        };
        (
            outcome("audit/interdevice_8k_vdma_off", &t_off, ev_off),
            outcome("audit/interdevice_8k_vdma_audited", &t_on, ev_on),
        )
    }

    fn samples(full: usize) -> usize {
        if std::env::var("VSCC_PERF_FAST").map(|v| v == "1").unwrap_or(false) {
            3
        } else {
            full
        }
    }

    fn repo_root() -> std::path::PathBuf {
        // crates/bench -> workspace root.
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn write_json(outcomes: &[Outcome], path: &std::path::Path) {
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        let mut s = String::from("{\n  \"schema\": \"vscc-engine-bench-v4\",\n");
        s.push_str(&format!("  \"host_cores\": {cores},\n"));
        s.push_str(&format!(
            "  \"pre_pr_baseline\": {{ \"spawn_delay_10k_tasks_ms\": {{ \"mean\": {PRE_PR_SPAWN_DELAY_MEAN_MS}, \"min\": {PRE_PR_SPAWN_DELAY_MIN_MS} }}, \"datapath_allocs_per_msg\": {{ \"interdevice_1k_wcb\": {PRE_PR_DATAPATH_1K_ALLOCS_PER_MSG}, \"interdevice_8k_swcache\": {PRE_PR_DATAPATH_8K_ALLOCS_PER_MSG} }} }},\n"
        ));
        s.push_str("  \"scenarios\": [\n");
        for (i, o) in outcomes.iter().enumerate() {
            let allocs = match o.allocs_per_msg {
                Some(a) => format!(", \"allocs_per_msg\": {a:.2}"),
                None => String::new(),
            };
            s.push_str(&format!(
                "    {{ \"name\": \"{}\", \"samples\": {}, \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"events\": {}, \"events_per_sec\": {:.0}{} }}{}\n",
                o.name,
                o.samples,
                o.mean_ns,
                o.min_ns,
                o.events,
                o.events_per_sec(),
                allocs,
                if i + 1 < outcomes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, s).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }

    fn baseline_events_per_sec(text: &str, name: &str) -> Option<f64> {
        baseline_field(text, name, "events_per_sec")
    }

    pub fn run() {
        println!();
        println!("engine wall-clock harness (host time; never feeds the virtual clock)");
        println!(
            "{:<36} {:>8} {:>12} {:>12} {:>12} {:>14} {:>12}",
            "scenario", "samples", "mean", "min", "events", "events/sec", "allocs/msg"
        );

        let (audit_off, audit_on) = audit_pair();
        let outcomes = vec![
            spawn_delay_10k(),
            timer_cancel_churn(),
            counter_inc(),
            histogram_record(),
            disabled_trace(),
            interned_trace(),
            datapath_outcome(SCENARIOS[0]),
            datapath_outcome(SCENARIOS[1]),
            audit_off,
            audit_on,
            datapath_outcome(SCENARIOS[2]),
        ];
        for o in &outcomes {
            let allocs = match o.allocs_per_msg {
                Some(a) => format!("{a:.1}"),
                None => "-".to_string(),
            };
            println!(
                "{:<36} {:>8} {:>10.3}ms {:>10.3}ms {:>12} {:>14.0} {:>12}",
                o.name,
                o.samples,
                o.mean_ns / 1e6,
                o.min_ns / 1e6,
                o.events,
                o.events_per_sec(),
                allocs
            );
        }

        let spawn = &outcomes[0];
        let (spawn_mean_ms, spawn_min_ms) = (spawn.mean_ns / 1e6, spawn.min_ns / 1e6);
        println!();
        println!("headline vs pre-optimisation baseline (des/spawn_delay_10k_tasks):");
        println!(
            "  before: mean {PRE_PR_SPAWN_DELAY_MEAN_MS:.3} ms   min {PRE_PR_SPAWN_DELAY_MIN_MS:.3} ms"
        );
        println!("  after:  mean {spawn_mean_ms:.3} ms   min {spawn_min_ms:.3} ms");
        println!(
            "  speedup: {:.2}x (mean), {:.2}x (min)",
            PRE_PR_SPAWN_DELAY_MEAN_MS / spawn_mean_ms,
            PRE_PR_SPAWN_DELAY_MIN_MS / spawn_min_ms
        );

        println!();
        println!("data-path allocations per one-way message vs pre-zero-copy baseline:");
        for (o, pre) in [
            (&outcomes[6], PRE_PR_DATAPATH_1K_ALLOCS_PER_MSG),
            (&outcomes[7], PRE_PR_DATAPATH_8K_ALLOCS_PER_MSG),
        ] {
            let now = o.allocs_per_msg.expect("datapath scenarios carry alloc counts");
            println!(
                "  {:<36} before {pre:.1}   after {now:.1}   ({:.1}x fewer)",
                o.name,
                pre / now.max(f64::MIN_POSITIVE)
            );
        }

        let gate = std::env::var("VSCC_PERF_GATE").map(|v| v == "1").unwrap_or(false);
        let (audit_off, audit_on) = (&outcomes[8], &outcomes[9]);
        let audit_ratio = audit_on.events_per_sec() / audit_off.events_per_sec();
        println!();
        println!("audit-stream overhead (hash-chained scheduler audit, des::audit):");
        println!(
            "  off {:>14.0} ev/s   on {:>14.0} ev/s   ratio {audit_ratio:.3}x (gate >= {AUDIT_GATE_RATIO:.2}x)",
            audit_off.events_per_sec(),
            audit_on.events_per_sec(),
        );
        if gate && audit_ratio < AUDIT_GATE_RATIO {
            eprintln!(
                "PERF GATE FAILED: audit stream costs {:.1}% events/sec (budget {:.0}%)",
                (1.0 - audit_ratio) * 100.0,
                (1.0 - AUDIT_GATE_RATIO) * 100.0
            );
            std::process::exit(1);
        }

        let out_path = match std::env::var("VSCC_PERF_OUT") {
            Ok(p) => std::path::PathBuf::from(p),
            Err(_) => repo_root().join("target/BENCH_engine.json"),
        };
        write_json(&outcomes, &out_path);
        println!("wrote {}", out_path.display());

        let baseline_path = repo_root().join("BENCH_engine.json");
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => {
                let mut failed = Vec::new();
                let mut alloc_failed = Vec::new();
                println!();
                println!("vs committed baseline ({}):", baseline_path.display());
                for o in &outcomes {
                    match baseline_events_per_sec(&text, o.name) {
                        Some(base) if base > 0.0 => {
                            let ratio = o.events_per_sec() / base;
                            println!("  {:<36} {:>6.2}x baseline", o.name, ratio);
                            if ratio < GATE_RATIO {
                                failed.push((o.name, ratio));
                            }
                        }
                        _ => println!("  {:<36} (not in baseline)", o.name),
                    }
                    if let (Some(now), Some(base)) =
                        (o.allocs_per_msg, baseline_field(&text, o.name, "allocs_per_msg"))
                    {
                        if base > 0.0 {
                            let ratio = now / base;
                            println!("  {:<36} {:>6.2}x baseline allocs/msg", o.name, ratio);
                            if ratio > ALLOC_GATE_RATIO {
                                alloc_failed.push((o.name, ratio));
                            }
                        }
                    }
                }
                if gate && !failed.is_empty() {
                    eprintln!(
                        "PERF GATE FAILED: events/sec regressed >{:.0}% on: {}",
                        (1.0 - GATE_RATIO) * 100.0,
                        failed
                            .iter()
                            .map(|(n, r)| format!("{n} ({r:.2}x)"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(1);
                }
                if gate && !alloc_failed.is_empty() {
                    eprintln!(
                        "PERF GATE FAILED: allocations/message regressed >{:.0}% on: {}",
                        (ALLOC_GATE_RATIO - 1.0) * 100.0,
                        alloc_failed
                            .iter()
                            .map(|(n, r)| format!("{n} ({r:.2}x)"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(1);
                }
            }
            Err(_) => {
                println!(
                    "no committed baseline at {}; skipping comparison",
                    baseline_path.display()
                );
                if gate {
                    eprintln!("PERF GATE FAILED: VSCC_PERF_GATE=1 but no committed baseline");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn main() {
    benches();
    harness::run();
}
