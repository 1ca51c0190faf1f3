//! The repository benchmark: six workloads through the simulator's public
//! APIs, host-time and simulated end-to-end metrics, and outside-in
//! per-layer attribution. See README.md for the metric table and how to
//! read a traced run.
//!
//! ```sh
//! cargo run --release -q --manifest-path crates/bench/examples/vscc_benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
//!     [--smoke] [--check-determinism]
//! cargo run --release -q --manifest-path crates/bench/examples/vscc_benchmark/Cargo.toml -- \
//!     compare PARENT.json CHANGE.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod compare;
mod json;
mod measure;
mod metrics;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use measure::Quartiles;
use metrics::{HostTimes, END_TO_END, PER_LAYER};
use workloads::{Params, PassOut, Tracing, Workload};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// `wall_s` is always a median of at least this many timed passes.
const MIN_PASSES: usize = 5;
/// System + session builds behind the `setup_s` median.
const SETUP_BUILDS: usize = 50;

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    check_determinism: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            out: None,
            smoke: false,
            check_determinism: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    o.workload = Some(Workload::from_name(name).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name:?}; one of {}", names.join(", "))
                    })?);
                }
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--out" => o.out = Some(value()?.clone()),
                "--smoke" => o.smoke = true,
                "--check-determinism" => o.check_determinism = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(o)
    }

    fn params(&self) -> Params {
        Params { seed: self.seed, smoke: self.smoke }
    }
}

/// What the output header and JSON record about the host.
struct HostRecord {
    nproc: usize,
    rustc: String,
    git_head: String,
    profile: &'static str,
}

impl HostRecord {
    fn collect() -> HostRecord {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .stderr(Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        HostRecord {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            rustc: run("rustc", &["-V"]),
            git_head: run("git", &["rev-parse", "HEAD"]),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }

    fn json(&self) -> String {
        json::object([
            ("nproc", self.nproc.to_string()),
            ("rustc", json::string(&self.rustc)),
            ("git_head", json::string(&self.git_head)),
            ("profile", json::string(self.profile)),
        ])
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vscc_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `VsccBuilder::build` honours VSCC_FAULTS / VSCC_SHARDS (and the
    // observability knobs change what a run does), so an ambient variable
    // would silently change what is measured.
    let ambient: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("VSCC_"))
        .collect();
    if !ambient.is_empty() {
        eprintln!("vscc_benchmark: refusing to run with {} set", ambient.join(", "));
        return ExitCode::from(2);
    }
    match opts.workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&args),
    }
}

/// Re-execute this binary once per workload, sequentially, so each gets
/// its own peak RSS and its own thread-local byte pool.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vscc_benchmark: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed, mut worst) = (true, 0u64, 0u64, 0u8);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("vscc_benchmark: cannot run {}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let code = out.status.code().unwrap_or(1).clamp(0, 255) as u8;
        worst = worst.max(code);
        let Some(last) = text.lines().last().and_then(|l| json::parse(l).ok()) else {
            correct = false;
            worst = worst.max(1);
            continue;
        };
        correct &= last.get("correct") == Some(&json::Json::Bool(true));
        attempted += last.get("attempted").and_then(json::Json::as_f64).unwrap_or(0.0) as u64;
        failed += last.get("failed").and_then(json::Json::as_f64).unwrap_or(0.0) as u64;
        for (name, m) in last.get("metrics").and_then(json::Json::as_obj).into_iter().flatten() {
            let value = m.get("value").and_then(json::Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(json::Json::as_str).unwrap_or("");
            metrics.push((format!("{}.{name}", w.name()), value, unit.to_string()));
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::from(worst)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {}",
                json::string(n),
                json::object([("value", json::num(*v)), ("unit", json::string(u))])
            )
        })
        .collect();
    json::object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", format!("{{{}}}", body.join(", "))),
    ])
}

fn digest_hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Host time of the timed passes and of set-up.
struct Timing {
    /// Per-pass seconds scaled to the reference host (`wall_s`).
    scaled: Vec<f64>,
    /// Per-pass raw host seconds.
    raw: Vec<f64>,
    /// Reference-kernel seconds timed before the first pass and after
    /// each pass.
    reference: Vec<f64>,
    /// Median raw seconds of one system + session build.
    host_setup_s: f64,
}

/// Everything one workload run reports.
struct Run {
    w: Workload,
    e2e: Vec<f64>,
    timing: Timing,
    layer: BTreeMap<&'static str, f64>,
    first: PassOut,
    attempted: u64,
    failed: u64,
    spans: Vec<timed::Span>,
}

fn run_one(w: Workload, opts: &Opts) -> ExitCode {
    let p = opts.params();
    let host = HostRecord::collect();
    println!(
        "vscc_benchmark: workload={} seed={} smoke={} trace={} | nproc={} profile={} {} git={}",
        w.name(),
        p.seed,
        p.smoke,
        u8::from(opts.trace),
        host.nproc,
        host.profile,
        host.rustc,
        host.git_head
    );

    if opts.check_determinism {
        let (a, b) = (workloads::pass(w, &p, None), workloads::pass(w, &p, None));
        let same = a.digest == b.digest;
        println!(
            "determinism: {} pass digests {} and {}",
            if same { "ok," } else { "FAILED," },
            digest_hex(a.digest),
            digest_hex(b.digest)
        );
        return if same { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }

    // Warm the kernel's code and allocator paths before timing anything.
    calib::reference_s();
    let ref_before = calib::reference_s();
    let builds = if p.smoke { 5 } else { SETUP_BUILDS };
    let setup: Vec<f64> = (0..builds)
        .map(|_| {
            let t = Instant::now();
            workloads::setup_once(w);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let ref_setup = (ref_before + calib::reference_s()) / 2.0;
    let host_setup_s = Quartiles::of(&setup).median;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_failure: Option<String> = None;
    let mut account = |o: &PassOut| {
        attempted += o.ops;
        failed += o.failed;
        if first_failure.is_none() {
            first_failure.clone_from(&o.first_failure);
        }
    };
    if w.needs_warmup() && !p.smoke {
        account(&workloads::pass(w, &p, None));
    }
    // A fixed pass count (rather than "until the time is up") keeps the
    // work, and with it peak RSS, independent of how fast the host runs.
    let n_passes = if p.smoke { 1 } else { w.passes_for(opts.seconds).max(MIN_PASSES) };
    // The reference kernel brackets every pass; each pass is scaled by the
    // mean of the two runs around it.
    let mut timing =
        Timing { scaled: vec![], raw: vec![], reference: vec![calib::reference_s()], host_setup_s };
    let mut passes: Vec<PassOut> = Vec::new();
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    for _ in 0..n_passes {
        let (a0, b0) = measure::alloc_counts();
        let t = Instant::now();
        let out = workloads::pass(w, &p, None);
        let dt = t.elapsed().as_secs_f64();
        let (a1, b1) = measure::alloc_counts();
        allocs += a1 - a0;
        alloc_bytes += b1 - b0;
        let before = *timing.reference.last().expect("bracketing reference run");
        let after = calib::reference_s();
        timing.raw.push(dt);
        timing.reference.push(after);
        timing.scaled.push(dt / ((before + after) / 2.0) * calib::REFERENCE_S);
        account(&out);
        passes.push(out);
    }
    let peak_rss = measure::peak_rss_mib().unwrap_or(0.0);
    let mut deterministic = passes.iter().all(|o| o.digest == passes[0].digest);
    if !deterministic {
        eprintln!("vscc_benchmark: timed passes of one seed simulated different results");
    }
    let first = passes.swap_remove(0);
    drop(passes);
    let wall_s = Quartiles::of(&timing.scaled).median;
    let sim_mbps =
        if first.fidelity.mbps.is_empty() { 0.0 } else { measure::geomean(&first.fidelity.mbps) };
    let setup_s = host_setup_s / ref_setup * calib::REFERENCE_S;
    let e2e = vec![wall_s, setup_s, peak_rss, sim_mbps];

    let mut layer = BTreeMap::new();
    let mut spans = Vec::new();
    if opts.trace {
        let tracing = Tracing::new();
        let r = calib::reference_s();
        let t = Instant::now();
        let traced = workloads::pass(w, &p, Some(&tracing));
        let traced_wall = t.elapsed().as_secs_f64() / r * calib::REFERENCE_S;
        account(&traced);
        if traced.digest != first.digest {
            eprintln!(
                "vscc_benchmark: the traced pass simulated different results ({} vs {})",
                digest_hex(traced.digest),
                digest_hex(first.digest)
            );
            deterministic = false;
        }
        spans = tracing.finish();
        let n = timing.raw.len() as f64;
        let host_times = HostTimes {
            wall_s,
            allocs_per_pass: allocs as f64 / n,
            alloc_bytes_per_pass: alloc_bytes as f64 / n,
        };
        // The low 53 bits: what a JSON number (an IEEE double) carries exactly.
        let digest_num = (first.digest & ((1 << 53) - 1)) as f64;
        let crit = workloads::critpath(w, &p);
        layer = metrics::per_layer(&first, &host_times, traced_wall, &spans, &crit, digest_num);
    }

    let run = Run { w, e2e, timing, layer, first, attempted, failed, spans };
    print_report(&run);
    if let Some(f) = &first_failure {
        eprintln!("vscc_benchmark: first failing op: {f}");
    }
    if let Some(path) = &opts.out {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", out_record(&run, opts, &host)));
        if let Err(e) = written {
            eprintln!("vscc_benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let shown: Vec<(String, f64, String)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), run.layer[d.name], d.unit.to_string()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&run.e2e)
            .map(|(d, v)| (d.name.to_string(), *v, d.unit.to_string()))
            .collect()
    };
    let correct = failed == 0 && deterministic;
    println!("{}", result_line(correct, attempted, failed, &shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The paper anchors a pass carries: `(name, value, what it compares)`.
fn anchors(first: &PassOut) -> Vec<(&'static str, f64, &'static str)> {
    let f = &first.fidelity;
    let mut v = Vec::new();
    if let Some(g) = f.gflops {
        v.push(("sim_gflops", g, "GFLOP/s (Fig 7; no absolute paper value)"));
    }
    if let Some(l) = f.lprg_pct {
        v.push(("lprg_gap_pp", (l - 71.72).abs(), "pp, LPRG/hw-ack vs paper 71.72 %"));
    }
    if let Some(r) = f.recovered_pct {
        v.push(("recovered_gap_pp", (r - 24.0).abs(), "pp, best/on-chip vs paper 24 %"));
    }
    if let Some(mb) = f.fig8_max_pair_mb {
        v.push(("fig8_gap_pct", 100.0 * (mb - 186.0).abs() / 186.0, "%, max pair vs paper 186 MB"));
    }
    v
}

fn error_rate(run: &Run) -> f64 {
    if run.attempted > 0 {
        run.failed as f64 / run.attempted as f64
    } else {
        0.0
    }
}

fn print_report(run: &Run) {
    let dir = |higher: bool| if higher { "higher is better" } else { "lower is better" };
    println!("\nend-to-end ({}):", run.w.name());
    for (d, v) in END_TO_END.iter().zip(&run.e2e) {
        println!("  {:<22} {:>16.6} {:<8} {}", d.name, v, d.unit, dir(d.higher_is_better));
    }
    println!("  {:<22} {:>16.6} {:<8} {}", "error_rate", error_rate(run), "ratio", dir(false));
    let t = &run.timing;
    let (scaled, raw, reference) =
        (Quartiles::of(&t.scaled), Quartiles::of(&t.raw), Quartiles::of(&t.reference));
    println!(
        "  wall_s over {} passes: q1 {:.4} median {:.4} q3 {:.4} (at reference speed)",
        t.scaled.len(),
        scaled.q1,
        scaled.median,
        scaled.q3
    );
    println!(
        "  raw host: wall median {:.4} s, setup median {:.6} s; reference kernel median {:.4} s \
         (nominal {})",
        raw.median,
        t.host_setup_s,
        reference.median,
        calib::REFERENCE_S
    );
    let f = &run.first.fidelity;
    for (name, v, what) in anchors(&run.first) {
        println!("  {name:<22} {v:>16.4} {what}");
    }
    if let Some(l) = f.lprg_pct {
        println!("  (LPRG reaches {l:.2} % of the hw-ack bound)");
    }
    if let Some(r) = f.recovered_pct {
        println!("  (the best inter-device scheme recovers {r:.2} % of on-chip)");
    }
    if let Some(mb) = f.fig8_max_pair_mb {
        println!("  (Fig 8 max pair {mb:.1} MB over 200 iterations)");
    }
    println!("  des.sim_digest {}", digest_hex(run.first.digest));
    if !run.layer.is_empty() {
        println!("\nper-layer (traced run; metric -> what it should move):");
        for d in &PER_LAYER {
            println!(
                "  {:<36} {:>16.6} {:<7} {:<16} -> {}",
                d.name,
                run.layer[d.name],
                d.unit,
                dir(d.higher_is_better),
                d.moves
            );
        }
    }
}

/// One JSON line for `--out`: everything `compare` and a reader need.
fn out_record(run: &Run, opts: &Opts, host: &HostRecord) -> String {
    let metric = |d: &metrics::Def, v: f64| {
        json::object([
            ("value", json::num(v)),
            ("unit", json::string(d.unit)),
            ("better", json::string(if d.higher_is_better { "higher" } else { "lower" })),
        ])
    };
    let mut all: Vec<String> = END_TO_END
        .iter()
        .zip(&run.e2e)
        .map(|(d, v)| format!("{}: {}", json::string(d.name), metric(d, *v)))
        .collect();
    all.extend(PER_LAYER.iter().filter_map(|d| {
        run.layer.get(d.name).map(|v| format!("{}: {}", json::string(d.name), metric(d, *v)))
    }));
    let fidelity: Vec<String> = anchors(&run.first)
        .into_iter()
        .map(|(n, v, _)| (n, v))
        .chain([("error_rate", error_rate(run))])
        .map(|(n, v)| format!("{}: {}", json::string(n), json::num(v)))
        .collect();
    let spans: Vec<String> = run
        .spans
        .iter()
        .map(|s| {
            json::object([
                ("name", json::string(&s.name)),
                ("parent", s.parent.map_or("null".to_string(), |p| p.to_string())),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("busy_ns", s.busy_ns.to_string()),
            ])
        })
        .collect();
    let series = |v: &[f64]| {
        let q = Quartiles::of(v);
        let values: Vec<String> = v.iter().map(|x| json::num(*x)).collect();
        json::object([
            ("q1", json::num(q.q1)),
            ("median", json::num(q.median)),
            ("q3", json::num(q.q3)),
            ("values", format!("[{}]", values.join(", "))),
        ])
    };
    let t = &run.timing;
    json::object([
        ("workload", json::string(run.w.name())),
        ("seed", opts.seed.to_string()),
        ("smoke", opts.smoke.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("host", host.json()),
        ("passes", t.raw.len().to_string()),
        ("wall_s_passes", series(&t.scaled)),
        ("host_wall_s_passes", series(&t.raw)),
        ("reference_s_passes", series(&t.reference)),
        ("host_setup_s", json::num(t.host_setup_s)),
        ("metrics", format!("{{{}}}", all.join(", "))),
        ("fidelity", format!("{{{}}}", fidelity.join(", "))),
        ("attempted", run.attempted.to_string()),
        ("failed", run.failed.to_string()),
        ("sim_digest", json::string(&digest_hex(run.first.digest))),
        ("spans", format!("[{}]", spans.join(", "))),
    ])
}
