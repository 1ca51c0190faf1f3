//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Every `cargo bench` target in this crate except `engine_micro` rebuilds
//! one table or figure of the paper's evaluation (§4): its `main` is
//! `vscc_bench::run("<target>")`, and [`FIGURES`] holds what each one
//! prints, checks and observes. `engine_micro` instead times the simulator
//! itself on the host (wall-clock events/sec and allocations per message).
//! Absolute numbers come from the calibrated simulation (see DESIGN.md §5);
//! the *shapes* — orderings, ratios, crossovers — are the reproduction
//! targets and are recorded in EXPERIMENTS.md.

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Mutex;

pub mod ablation;
pub mod bt;
pub mod datapath;
pub mod fig2;
pub mod fig6;
pub mod recovery;
pub mod stability;
pub mod threshold;

use des::audit::Audit;
use des::obs::report::Exports;
use des::obs::{Registry, TimeSeries};
use des::trace::Trace;
use vscc::{CommScheme, Vscc};

/// One figure/table bench target.
pub struct Figure {
    /// The `[[bench]]` name, also the stem of its stdout golden
    /// `tests/goldens/<name>_stdout.txt`.
    pub name: &'static str,
    /// Banner title: the paper's figure or table id and a caption.
    pub title: &'static str,
    /// Renders what the target prints after its banner and runs its
    /// headline checks.
    pub table: fn() -> Table,
    /// Trace label of the designated run.
    pub label: &'static str,
    /// The designated run, which `VSCC_OBS` exports.
    pub designated: fn() -> Observed,
    /// Printed after the exports under `VSCC_OBS` (critical-path tables).
    pub explain: Option<fn() -> String>,
    /// Too slow for a debug `cargo test`: only `scripts/check.sh` pins its
    /// stdout, in release.
    pub slow: bool,
}

/// Every figure/table target, in `Cargo.toml` order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig2_protocol",
        title: "Figure 2: timely behaviour of blocking vs pipelined protocols",
        table: fig2::table,
        label: "ircce-pipelined-16K",
        designated: || fig2::run(true).1,
        explain: Some(fig2::critpath),
        slow: false,
    },
    Figure {
        name: "fig6a_pingpong",
        title: "Figure 6a: Ping-Pong throughput (on-chip and inter-device), MB/s",
        table: fig6::fig6a,
        label: "vdma-interdevice-64K",
        designated: || sampled_vdma(64 * 1024),
        explain: None,
        slow: false,
    },
    Figure {
        name: "fig6b_interdevice",
        title: "Figure 6b: inter-device Ping-Pong throughput per scheme, MB/s",
        table: fig6::fig6b,
        label: "vdma-8K",
        designated: || sampled_vdma(8192),
        explain: Some(fig6::critpath),
        slow: false,
    },
    Figure {
        name: "fig7_npb_bt",
        title: "Figure 7: NPB BT class C (162^3) performance, GFLOP/s vs cores (peak 0.533/core)",
        table: bt::fig7,
        label: "bt-class-c-64x2",
        designated: || bt::traced(1),
        explain: None,
        slow: true,
    },
    Figure {
        name: "fig8_traffic",
        title: "Figure 8: NPB BT (class C) communication traffic of 64 cores",
        table: bt::fig8,
        label: "bt-class-c-64",
        designated: || bt::traced(bt::FIG8_MEASURED),
        explain: None,
        slow: true,
    },
    Figure {
        name: "tbl_threshold",
        title: "Table (threshold): small-message one-way latency in us: direct transfer vs controller path",
        table: threshold::table,
        label: "direct-64B",
        designated: || sampled_vdma(64),
        explain: None,
        slow: false,
    },
    Figure {
        name: "tbl_stability",
        title: "Table (stability): fast write-ack: lost acknowledges vs device count and traffic volume",
        table: stability::table,
        label: "hwack-recovered-5dev-1MB",
        designated: stability::designated,
        explain: None,
        slow: false,
    },
    Figure {
        name: "fig_recovery",
        title: "Figure (recovery): self-healing plane: demote under an ack-loss storm, probe back to health",
        table: || recovery::table(&recovery::plan()),
        label: "healing",
        designated: || recovery::designated(recovery::plan()),
        explain: None,
        slow: false,
    },
    Figure {
        name: "tbl_ablation",
        title: "Table (ablations): design-choice ablations, ping-pong MB/s at 64 KiB",
        table: ablation::table,
        label: "chunk-256",
        designated: ablation::designated,
        explain: None,
        slow: false,
    },
];

/// The [`FIGURES`] entry of bench target `name`.
pub fn figure(name: &str) -> &'static Figure {
    FIGURES.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("no figure target {name}"))
}

/// What a target prints after its banner, and the headline checks it
/// failed.
#[derive(Default)]
pub struct Table {
    /// Everything the target prints after its banner.
    pub text: String,
    /// The message of each failed headline check.
    pub failed: Vec<String>,
}

impl Table {
    /// Append `line` and a newline to the text.
    pub fn line(&mut self, line: impl Display) {
        self.text += &format!("{line}\n");
    }

    /// A headline check: keep `msg` if `ok` is false.
    pub fn check(&mut self, ok: bool, msg: impl Display) {
        if !ok {
            self.failed.push(msg.to_string());
        }
    }
}

/// The `main` of bench target `name`: the banner, the table, then its
/// headline checks, which encode the paper's clean-run results. An
/// injected `VSCC_FAULTS` plan legitimately shifts them (it always runs
/// with the recovery layer on, so payloads still verify, but retries and
/// demotions move the timings), so an active env plan skips them; the
/// banner already flags the run as faulty. Under `VSCC_OBS` the
/// designated run is then exported and explained (`observe`).
pub fn run(name: &str) {
    let fig = figure(name);
    print!("{}", banner_text(fig.title));
    let plan = des::faultplan::spec_from_env();
    if let Some(spec) = &plan {
        println!("[faults] {} plan active: {spec}", des::obs::FAULTS_ENV);
    }
    // Parsed (and a malformed value rejected) before the table's runs.
    if let Some(req) = obs_request() {
        println!("[obs] designated run exports to {} ({OBS_ENV})", req.dir.display());
    }
    let table = (fig.table)();
    print!("{}", table.text);
    if plan.is_none() {
        assert!(table.failed.is_empty(), "{}", table.failed.join("; "));
    }
    observe(fig);
}

/// The banner lines every target prints first, whatever the environment.
pub fn banner_text(title: &str) -> String {
    let rule = "================================================================";
    format!("\n{rule}\n{title}\n{rule}\n")
}

/// One vDMA round trip of `size` bytes on the figure platform, traced and
/// sampled (tunnel busy-fraction, MPB window occupancy, commtask
/// busy-fraction, ...): the designated run of fig6a, fig6b and
/// tbl_threshold. An active `VSCC_FAULTS` plan rides along, seed and all.
pub fn sampled_vdma(size: usize) -> Observed {
    let (_, trace, metrics, series) = vscc_apps::pingpong::interdevice_sampled(
        CommScheme::LocalPutLocalGet,
        size,
        1,
        des::obs::DEFAULT_CADENCE,
    );
    Observed { trace, metrics, series }
}

/// Format one numeric row with a label column.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<42}");
    for v in values {
        s.push_str(&format!(" {v:>9.2}"));
    }
    s
}

/// Format a header row.
pub fn header(label: &str, columns: &[String]) -> String {
    let mut s = format!("{label:<42}");
    for c in columns {
        s.push_str(&format!(" {c:>9}"));
    }
    s
}

/// Human-readable byte sizes for column headers.
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

/// The observability switch, `VSCC_OBS=<dir>[@<epoch>]`: the one
/// environment variable (besides `VSCC_FAULTS`) a bench target reads.
pub const OBS_ENV: &str = "VSCC_OBS";

/// A parsed `VSCC_OBS` value: the export directory and, after the last
/// `@`, an optional audit zoom epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsRequest {
    pub dir: PathBuf,
    /// Epoch whose raw scheduler decisions the audit keeps (bisection
    /// step two; see `des::audit`).
    pub zoom: Option<u64>,
}

impl ObsRequest {
    /// Parse a `VSCC_OBS` value; `None` when empty. Panics on a
    /// malformed value, like `des::faultplan::spec_from_env`: a typo
    /// should fail loudly, not quietly produce an unzoomed audit.
    pub fn parse(value: &str) -> Option<ObsRequest> {
        if value.is_empty() {
            return None;
        }
        let malformed = |why: &str| -> ! {
            panic!("malformed {OBS_ENV}={value:?}: {why} (want <dir>[@<epoch>])")
        };
        let (dir, zoom) = match value.rsplit_once('@') {
            Some((dir, epoch)) => {
                (dir, Some(epoch.parse().unwrap_or_else(|_| malformed("bad epoch"))))
            }
            None => (value, None),
        };
        if dir.is_empty() {
            malformed("empty directory");
        }
        Some(ObsRequest { dir: dir.into(), zoom })
    }
}

/// The `VSCC_OBS` request from the environment, if set and non-empty.
fn obs_request() -> Option<ObsRequest> {
    ObsRequest::parse(&std::env::var(OBS_ENV).ok()?)
}

/// The handles of one observed run: its trace (all categories), its
/// metrics registry, and its finished virtual-time sampler.
pub struct Observed {
    pub trace: Trace,
    pub metrics: Registry,
    pub series: TimeSeries,
}

impl Observed {
    /// Finish `series` at the end of `v`'s run and collect `v`'s handles.
    pub fn of(v: &Vscc, series: TimeSeries) -> Observed {
        series.finish(v.sim.now());
        Observed { trace: v.trace().clone(), metrics: v.metrics().clone(), series }
    }
}

/// Run `run` on this thread under a fresh hash-chained audit stream at
/// the default epoch cadence, keeping the raw decisions of epoch `zoom`.
/// The stream closes before `run`'s result is dropped, so whatever that
/// result owns (a system and its pending timers) is not audited.
pub fn audited<T>(zoom: Option<u64>, run: impl FnOnce() -> T) -> (T, Audit) {
    let cadence = des::audit::DEFAULT_EPOCH_CYCLES;
    let audit = match zoom {
        Some(epoch) => Audit::with_zoom(cadence, epoch),
        None => Audit::new(cadence),
    };
    let guard = audit.install();
    let out = run();
    drop(guard);
    (out, audit)
}

/// The four exports of a designated run: `run` executes on this thread
/// under [`audited`], and its trace is exported as process `label`.
pub fn exports(label: &str, zoom: Option<u64>, run: impl FnOnce() -> Observed) -> Exports {
    let (obs, audit) = audited(zoom, run);
    Exports {
        trace: des::obs::chrome_trace_json(label, &obs.trace),
        metrics: obs.metrics.snapshot().to_json(),
        timeseries: obs.series.to_json(),
        audit: audit.to_json(),
    }
}

/// The observability front door. When `VSCC_OBS=<dir>[@<epoch>]` is set,
/// render `fig`'s designated run with [`exports`], write `trace.json`,
/// `metrics.json`, `timeseries.json`, `audit.json` and `report.md` into
/// `<dir>` (see `des::obs::report`), print what was written, then print
/// `fig`'s explanation. An unwritable directory is reported on stderr;
/// the target still passes.
fn observe(fig: &Figure) {
    let Some(req) = obs_request() else {
        return;
    };
    let (label, started) = (fig.label, std::time::Instant::now());
    match exports(label, req.zoom, fig.designated).write_dir(&req.dir) {
        Ok(files) => {
            let sizes: Vec<String> = files.iter().map(|(f, n)| format!("{f} {n} B")).collect();
            let zoom = req.zoom.map(|e| format!(", audit zoom epoch {e}")).unwrap_or_default();
            println!(
                "[obs] {label}: wrote {} to {} in {:.2} s{zoom} ({OBS_ENV})",
                sizes.join(", "),
                req.dir.display(),
                started.elapsed().as_secs_f64()
            );
        }
        Err(e) => eprintln!("[obs] {OBS_ENV} export to {} failed: {e}", req.dir.display()),
    }
    if let Some(explain) = fig.explain {
        print!("{}", explain());
    }
}

/// Render per-run phase attribution: each row is one traced run
/// (label, trace, measured completion cycles). Attribution covers
/// `[0, cycles]`, so the printed phases sum to the measured time exactly
/// (integer cycles, no rounding).
pub fn critpath_table(label_header: &str, rows: &[(String, Trace, u64)]) -> String {
    let attributed: Vec<(String, des::critpath::Attribution)> = rows
        .iter()
        .map(|(label, trace, end)| (label.clone(), des::critpath::run_attribution(trace, 0, *end)))
        .collect();
    des::critpath::render_table(label_header, &attributed)
}

/// Run `f` over `items` on a small pool of OS threads (each simulation is
/// an independent single-threaded world, so sweeps parallelize across
/// cores); results come back in input order. Items are handed out last
/// first: sweeps list their points by ascending size, so the costliest
/// point starts at once instead of last, which shortens the makespan.
pub fn parallel_sweep<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(n.max(1));
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let out = Mutex::new(out);
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let i = n - 1 - k;
                let r = f(&items[i]);
                out.lock().expect("sweep mutex")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("sweep mutex")
        .into_iter()
        .map(|r| r.expect("every sweep item computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let items: Vec<u64> = (0..20).collect();
        let out = parallel_sweep(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    /// Every worker claims items in descending input order, and one of
    /// them starts with the last item; results still come back in input
    /// order.
    #[test]
    fn sweep_hands_out_the_last_item_first() {
        let items: Vec<u64> = (0..20).collect();
        let log = Mutex::new(Vec::new());
        let out = parallel_sweep(&items, |&x| {
            log.lock().unwrap().push((std::thread::current().id(), x));
            x
        });
        assert_eq!(out, items);
        let log = log.into_inner().unwrap();
        let mut per_thread: std::collections::HashMap<_, Vec<u64>> = Default::default();
        for (thread, x) in log {
            per_thread.entry(thread).or_default().push(x);
        }
        assert!(per_thread.values().any(|seen| seen[0] == 19), "{per_thread:?}");
        for seen in per_thread.values() {
            assert!(seen.windows(2).all(|w| w[0] > w[1]), "{seen:?} not descending");
        }
    }

    #[test]
    fn sweep_empty() {
        let out: Vec<u64> = parallel_sweep(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(32), "32");
        assert_eq!(size_label(8192), "8K");
        assert_eq!(size_label(7680), "7680");
    }

    #[test]
    fn obs_values_parse_or_panic() {
        assert_eq!(ObsRequest::parse(""), None);
        assert_eq!(ObsRequest::parse("d"), Some(ObsRequest { dir: "d".into(), zoom: None }));
        assert_eq!(ObsRequest::parse("d@7"), Some(ObsRequest { dir: "d".into(), zoom: Some(7) }));
        for bad in ["d@x", "@7", "d@"] {
            let err = std::panic::catch_unwind(|| ObsRequest::parse(bad)).expect_err(bad);
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains(&format!("{bad:?}")), "{bad}: {msg}");
        }
    }

    #[test]
    fn row_formats_all_values() {
        let r = row("x", &[1.0, 2.5]);
        assert!(r.contains("1.00") && r.contains("2.50"));
    }
}
