//! One observed run's export directory, and the Markdown run report
//! rendered from it.
//!
//! A bench target's designated run under `VSCC_OBS=<dir>` writes the
//! four machine-readable exports of [`Exports`] plus `report.md` into
//! `<dir>`; `vscc_obs report <dir>` re-renders the report from the
//! directory with the same [`Exports::report`], so it prints exactly the
//! bytes the bench wrote. The report answers "why is this number what
//! it is?" in one page: headline counters, faults & recovery (only when
//! a fault plan fired), the traced process's critical-path attribution
//! (phase columns sum to its end-of-run time exactly), peak/mean
//! utilization per sampled resource, windowed tail latency, and the
//! audit stream's digest. Identical exports render identical bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use super::timeseries::{self, PointValue, SeriesKind};
use super::{chrome_lines, MetricValue, Snapshot};
use crate::audit;
use crate::critpath::{self, Attribution};

/// The four machine-readable exports of one observed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exports {
    /// Chrome trace of the run's spans, instants and flow arrows.
    pub trace: String,
    /// Metrics-registry snapshot.
    pub metrics: String,
    /// Windowed time series of the virtual-time sampler.
    pub timeseries: String,
    /// Hash-chained scheduler audit stream.
    pub audit: String,
}

impl Exports {
    /// File names under an export directory, in [`Exports`] field order,
    /// then the rendered report.
    pub const FILES: [&'static str; 5] =
        ["trace.json", "metrics.json", "timeseries.json", "audit.json", "report.md"];

    /// Read the four exports back from `dir`.
    pub fn read_dir(dir: &Path) -> io::Result<Exports> {
        let read = |i: usize| std::fs::read_to_string(dir.join(Self::FILES[i]));
        Ok(Exports { trace: read(0)?, metrics: read(1)?, timeseries: read(2)?, audit: read(3)? })
    }

    /// Write the four exports and the rendered report into `dir`
    /// (created if missing); returns each file's name and size in bytes.
    pub fn write_dir(&self, dir: &Path) -> io::Result<Vec<(&'static str, usize)>> {
        let report = self.report().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::create_dir_all(dir)?;
        let bodies = [&self.trace, &self.metrics, &self.timeseries, &self.audit, &report];
        Self::FILES
            .into_iter()
            .zip(bodies)
            .map(|(name, body)| std::fs::write(dir.join(name), body).map(|()| (name, body.len())))
            .collect()
    }

    /// Render the Markdown run report. Errors name the export that does
    /// not parse.
    pub fn report(&self) -> Result<String, String> {
        let trace = summarize_trace(&self.trace);
        let counters: Vec<(String, u64)> = Snapshot::from_json(&self.metrics)
            .map_err(|e| format!("metrics: {e}"))?
            .entries
            .into_iter()
            .filter_map(|(name, v)| match v {
                MetricValue::Counter { value } => Some((name, value)),
                _ => None,
            })
            .collect();
        let ts =
            timeseries::parse_json(&self.timeseries).map_err(|e| format!("timeseries: {e}"))?;
        let audit = audit::parse_export(&self.audit).map_err(|e| format!("audit: {e}"))?;

        let mut md = String::from("# vSCC run report\n\n");
        let _ = writeln!(
            md,
            "{} spans and {} instants; sampler cadence {} cycles, {} series.",
            trace.spans,
            trace.instants,
            ts.cadence,
            ts.series.len()
        );

        md.push_str("\n## Headline metrics\n\n| counter | value |\n|---|---:|\n");
        for (name, v) in counters.iter().filter(|(n, _)| is_headline(n)) {
            let _ = writeln!(md, "| `{name}` | {v} |");
        }

        // The fault counters exist (at zero) on clean runs too, so the
        // section gates on activity, not on presence.
        let faults: Vec<&(String, u64)> =
            counters.iter().filter(|(n, _)| is_fault_counter(n)).collect();
        if faults.iter().any(|(_, v)| *v > 0) {
            render_faults(&mut md, &faults, &self.trace);
        }

        md.push_str("\n## Critical path\n\n");
        md.push_str("Cycles of each process's `[0, end]` window attributed per phase\n");
        md.push_str("(columns sum to the end-of-run time exactly):\n\n```text\n");
        let row = (format!("{} (end {})", trace.process, trace.end), trace.attribution);
        md.push_str(&critpath::render_table("process", &[row]));
        md.push_str("```\n");

        md.push_str("\n## Utilization\n\n| resource | kind | mean | peak |\n|---|---|---:|---:|\n");
        for (kind, unit) in [(SeriesKind::Busy, " %"), (SeriesKind::Level, "")] {
            for s in ts.series.iter().filter(|s| s.kind == kind) {
                let vals: Vec<i64> = s
                    .points
                    .iter()
                    .map(|(_, v)| match *v {
                        PointValue::Busy(pct) => pct as i64,
                        PointValue::Level(l) => l,
                        _ => unreachable!("filtered by kind"),
                    })
                    .collect();
                let peak = vals.iter().copied().max().unwrap_or(0);
                let mean = vals.iter().sum::<i64>() as f64 / vals.len().max(1) as f64;
                let (name, kind) = (&s.name, kind.name());
                let _ = writeln!(md, "| `{name}` | {kind} | {mean:.1}{unit} | {peak}{unit} |");
            }
        }

        md.push_str("\n## Windowed tail latency\n\n");
        md.push_str("Per-window (reset-on-sample) histogram quantiles; `p50`/`p99`\n");
        md.push_str("are the worst single window's interpolated quantiles:\n\n");
        md.push_str(
            "| series | active windows | count | worst p50 | worst p99 |\n|---|---:|---:|---:|---:|\n",
        );
        for s in ts.series.iter().filter(|s| s.kind == SeriesKind::Window) {
            let windows: Vec<(u64, u64, u64)> = s
                .points
                .iter()
                .filter_map(|(_, v)| match *v {
                    PointValue::Window { count, p50, p99 } => Some((count, p50, p99)),
                    _ => None,
                })
                .collect();
            let active = windows.iter().filter(|w| w.0 > 0).count();
            let count: u64 = windows.iter().map(|w| w.0).sum();
            let p50 = windows.iter().map(|w| w.1).max().unwrap_or(0);
            let p99 = windows.iter().map(|w| w.2).max().unwrap_or(0);
            let _ = writeln!(md, "| `{}` | {active} | {count} | {p50} | {p99} |", s.name);
        }

        let decisions: u64 = audit.rows.iter().map(|r| r.decisions).sum();
        let _ = writeln!(
            md,
            "\n## Audit\n\n{decisions} scheduler decisions in {} epochs of {} cycles; \
             final chain `{}`; {} zoomed raw decisions.",
            audit.rows.len(),
            audit.cadence,
            audit.final_chain,
            audit.zoom.len()
        );
        Ok(md)
    }
}

/// The critical-path view of a trace export.
struct TraceSummary {
    /// The traced process's name, end-of-run time, and attribution over
    /// `[0, end]`.
    process: String,
    end: u64,
    attribution: Attribution,
    /// Spans (`ph:"X"`) and instants (`ph:"i"`): the traced events,
    /// without the flow-arrow points that share the export.
    spans: usize,
    instants: usize,
}

fn summarize_trace(json: &str) -> TraceSummary {
    let mut process = "?";
    let mut end = 0;
    let mut intervals = Vec::new();
    let (mut spans, mut instants) = (0usize, 0usize);
    for e in chrome_lines(json) {
        match e.ph {
            "M" => {
                if e.name == "process_name" {
                    process = e.arg_str("name").unwrap_or("?");
                }
                continue;
            }
            "X" => spans += 1,
            "i" => instants += 1,
            _ => {}
        }
        let ts = e.ts().unwrap_or(0);
        let span_end = if e.ph == "X" { e.dur().map(|dur| ts + dur) } else { None };
        end = end.max(span_end.unwrap_or(ts));
        if let (Some(t1), Some(phase)) = (span_end, critpath::phase_of_kind(e.name)) {
            intervals.push((ts, t1, phase));
        }
    }
    let attribution = critpath::attribute(&intervals, 0, end);
    TraceSummary { process: process.to_string(), end, attribution, spans, instants }
}

/// The "Faults & recovery" section, with the self-healing plane's
/// transition timeline (DESIGN.md §5h) when the trace carries
/// Health-category instants.
fn render_faults(md: &mut String, faults: &[&(String, u64)], trace_json: &str) {
    md.push_str("\n## Faults & recovery\n\n");
    let injected: u64 =
        faults.iter().filter(|(n, _)| n.starts_with("pcie.fault.")).map(|(_, v)| v).sum();
    let responses: u64 =
        faults.iter().filter(|(n, _)| !n.starts_with("pcie.fault.")).map(|(_, v)| v).sum();
    let giveups =
        faults.iter().find(|(n, _)| n == "host.retry.giveups").map(|(_, v)| *v).unwrap_or(0);
    let _ = writeln!(
        md,
        "A fault plan was active: {injected} injection(s), {responses} recovery \
         action(s), {giveups} giveup(s).\n"
    );
    md.push_str("| counter | value |\n|---|---:|\n");
    for (name, v) in faults {
        let _ = writeln!(md, "| `{name}` | {v} |");
    }

    // In export (time) order.
    let health: Vec<HealthEvent> = chrome_lines(trace_json)
        .filter(|e| e.cat() == Some("health"))
        .filter_map(|e| {
            let pair = (e.arg_num("src_dev")?, e.arg_num("dst_dev")?);
            Some((e.ts()?, pair, e.arg_str("from")?, e.arg_str("to")?, e.name))
        })
        .collect();
    if health.is_empty() {
        return;
    }
    md.push_str(
        "\n### Health transitions\n\n| cycle | pair | transition | trigger |\n|---:|---|---|---|\n",
    );
    let mut last: BTreeMap<(u64, u64), &str> = BTreeMap::new();
    for &(ts, (src, dst), from, to, trigger) in &health {
        let _ = writeln!(md, "| {ts} | d{src}→d{dst} | {from} → {to} | {trigger} |");
        last.insert((src, dst), to);
    }
    md.push_str("\n### Final pair health\n\n| pair | state |\n|---|---|\n");
    for ((src, dst), state) in &last {
        let _ = writeln!(md, "| d{src}→d{dst} | {state} |");
    }
}

/// One health-FSM transition of the trace export: (cycle, device pair,
/// from state, to state, trigger).
type HealthEvent<'a> = (u64, (u64, u64), &'a str, &'a str, &'a str);

/// The counters of the fault/recovery plane (`VSCC_FAULTS` runs).
fn is_fault_counter(name: &str) -> bool {
    ["pcie.fault.", "host.retry.", "host.fallback.", "host.health."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// The counters worth a headline row: traffic volume per fabric
/// resource plus the host's classification totals.
fn is_headline(name: &str) -> bool {
    (name.starts_with("pcie.") && name.ends_with(".bytes"))
        || (name.starts_with("scc.") && (name.ends_with(".reads") || name.ends_with(".writes")))
        || matches!(
            name,
            "host.routed_lines"
                | "host.vdma_ops"
                | "host.cache_updates"
                | "host.direct_writes"
                | "host.flag_forwards"
                | "rcce.poll.scans"
        )
}
