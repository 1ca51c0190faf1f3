//! Read back what `VSCC_OBS=<dir>` wrote for a bench target's designated
//! run (`trace.json`, `metrics.json`, `timeseries.json`, `audit.json`,
//! `report.md`; see `des::obs::report`).
//!
//! ```sh
//! VSCC_OBS=/tmp/a cargo bench -p vscc-bench --bench fig6b_interdevice
//! cargo run --example vscc_obs -- report /tmp/a       # = /tmp/a/report.md
//! cargo run --example vscc_obs -- lint /tmp/a
//! cargo run --example vscc_obs -- diff /tmp/a /tmp/b
//! ```
//!
//! - `report <dir>` renders the run report from the directory's exports
//!   with the function the bench used, so it prints exactly the bytes of
//!   `<dir>/report.md`.
//! - `lint <dir|file>` checks a trace export's structural invariants
//!   (`des::obs::lint_trace`) and a time-series export's sampler
//!   invariants (`des::obs::timeseries::lint`); a directory lints both.
//! - `diff <a> <b>` compares two directories export by export, or two
//!   files of the same kind (auto-detected: metrics, time-series or
//!   audit). Metrics diffs list every changed value; time-series diffs
//!   name each series' first divergent sample; audit diffs name the
//!   first divergent epoch, or, when both sides ran with
//!   `VSCC_OBS=<dir>@<epoch>`, the first divergent scheduler decision.
//!
//! Exit status: 0 clean or identical, 1 violations or divergence, 2 usage
//! or read error.

use std::path::Path;
use std::process::exit;

use des::audit::{self, Divergence};
use des::obs::report::Exports;
use des::obs::{timeseries, Snapshot};

const USAGE: &str = "usage: vscc_obs report <dir> | lint <dir|file> | diff <a> <b>";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Trace,
    Metrics,
    TimeSeries,
    Audit,
}

/// The export kind, from the header each writer emits.
fn kind_of(json: &str) -> Option<Kind> {
    let second = json.lines().nth(1).unwrap_or("").trim();
    if json.starts_with("{\"traceEvents\":[") {
        Some(Kind::Trace)
    } else if second == "\"metrics\": {" {
        Some(Kind::Metrics)
    } else if second.starts_with("\"cadence\":") {
        Some(Kind::TimeSeries)
    } else if second == "\"schema\": \"vscc-audit-v1\"," {
        Some(Kind::Audit)
    } else {
        None
    }
}

/// Print `msg` and exit with the usage/read-error status.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    exit(2)
}

fn read(path: &Path) -> (String, Kind) {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
    let kind =
        kind_of(&json).unwrap_or_else(|| fail(format!("{}: not a vscc export", path.display())));
    (json, kind)
}

/// The files a directory argument stands for (with `only` kinds), or the
/// file itself.
fn files(path: &Path, only: &[&str]) -> Vec<std::path::PathBuf> {
    if path.is_dir() {
        only.iter().map(|f| path.join(f)).collect()
    } else {
        vec![path.to_path_buf()]
    }
}

/// Lint one export; returns its violation count.
fn lint(path: &Path) -> usize {
    let (json, kind) = read(path);
    let violations = match kind {
        Kind::Trace => des::obs::lint_trace(&json),
        Kind::TimeSeries => timeseries::lint(&json),
        other => fail(format!("{}: cannot lint a {other:?} export", path.display())),
    };
    for v in &violations {
        println!("  {v}");
    }
    println!("{}: {} violation(s)", path.display(), violations.len());
    violations.len()
}

/// Diff one pair of exports; returns whether they are identical.
fn diff(a: &Path, b: &Path) -> bool {
    let ((ja, ka), (jb, kb)) = (read(a), read(b));
    if ka != kb {
        fail(format!("cannot diff a {ka:?} export against a {kb:?} one"));
    }
    let label = format!("{} -> {}", a.display(), b.display());
    let lines: Vec<String> = match ka {
        Kind::Trace => fail(format!("{}: cannot diff a trace export", a.display())),
        Kind::Metrics => {
            let parse = |j: &str| Snapshot::from_json(j).unwrap_or_else(|e| fail(e));
            let d = parse(&ja).diff(&parse(&jb));
            d.render_table().lines().map(str::to_string).collect()
        }
        Kind::TimeSeries => {
            let parse = |j: &str| timeseries::parse_json(j).unwrap_or_else(|e| fail(e)).series;
            timeseries::diff(&parse(&ja), &parse(&jb))
        }
        Kind::Audit => match audit::diff_exports(&ja, &jb).unwrap_or_else(|e| fail(e)) {
            None => Vec::new(),
            Some(d @ Divergence::Epoch { epoch, .. }) => vec![
                d.to_string(),
                format!(
                    "re-run both sides with VSCC_OBS=<dir>@{epoch} for that epoch's raw \
                     decisions, then diff again"
                ),
            ],
            Some(d) => vec![d.to_string()],
        },
    };
    if lines.is_empty() {
        println!("{label}: identical");
    } else {
        println!("{label}: divergent");
        for l in &lines {
            println!("  {l}");
        }
    }
    lines.is_empty()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args.as_slice() {
        ["report", dir] => {
            let exports = Exports::read_dir(Path::new(dir))
                .unwrap_or_else(|e| fail(format!("cannot read exports from {dir}: {e}")));
            print!("{}", exports.report().unwrap_or_else(|e| fail(e)));
            true
        }
        ["lint", path] => {
            let total: usize = files(Path::new(path), &["trace.json", "timeseries.json"])
                .iter()
                .map(|f| lint(f))
                .sum();
            total == 0
        }
        ["diff", a, b] => {
            let kinds = &Exports::FILES[1..4];
            let (fa, fb) = (files(Path::new(a), kinds), files(Path::new(b), kinds));
            if fa.len() != fb.len() {
                fail("diff takes two directories or two files");
            }
            // Diff every pair, not just up to the first divergence.
            fa.iter().zip(&fb).map(|(x, y)| diff(x, y)).fold(true, |all, same| all & same)
        }
        _ => fail(USAGE),
    };
    exit(if ok { 0 } else { 1 })
}
