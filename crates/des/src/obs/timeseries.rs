//! Virtual-time metric sampling: deterministic time-series over the
//! registry.
//!
//! A [`TimeSeries`] snapshots selected instruments of a
//! [`Registry`] at a fixed virtual-clock cadence, turning the
//! end-of-run aggregates of the snapshot plane into curves:
//!
//! - **counters** become per-interval deltas (rates); counters named
//!   `*busy_cycles` additionally normalise by the interval length into
//!   an integer busy percent (`kind: "busy"`),
//! - **gauges** become point samples of the current level,
//! - **histograms** become *windowed* interval quantiles: the sampler
//!   keeps a shadow copy of the cumulative bucket counts, and each
//!   sample reports the count/p50/p99 of only the samples recorded
//!   since the previous sample (reset-on-sample semantics, computed
//!   from bucket deltas via
//!   [`crate::stats::log2_quantile_interpolated`]).
//!
//! The sampler is a dedicated daemon actor on the ordinary timer queue
//! ([`TimeSeries::spawn`]). It only *reads* `Cell`/`RefCell` state and
//! never touches a shared synchronisation resource, and daemons do not
//! keep the simulation alive, so enabling it cannot move `sim.now()` at
//! app completion or any non-`obs.*` metric — see DESIGN.md §5f.
//!
//! Export: [`TimeSeries::to_json`] (`timeseries.json` under a
//! `VSCC_OBS` directory, byte-identical across identical runs), the only
//! home of the sampled series — `trace.json` holds no copy of them.
//! [`parse_json`] reads it back; [`lint`] checks it and [`diff`] names
//! where two exports first part.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::stats::{log2_quantile_interpolated, Counter, Gauge, Log2Histogram};
use crate::{Cycles, Sim};

use super::{json_escape, Metric, Registry};

/// Default sampling cadence in cycles: fine enough to resolve the
/// per-chunk phases of an 8 KiB inter-device transfer, coarse enough
/// that a bench run stays a few hundred samples.
pub const DEFAULT_CADENCE: Cycles = 25_000;

/// How a series' points were derived from its instrument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Counter delta per interval.
    Rate,
    /// `*busy_cycles` counter delta as an integer percent of the
    /// interval (busy fraction).
    Busy,
    /// Gauge level at the sample instant.
    Level,
    /// Histogram interval window: count and interpolated p50/p99 of the
    /// samples recorded since the previous sample.
    Window,
}

impl SeriesKind {
    const ALL: [SeriesKind; 4] =
        [SeriesKind::Rate, SeriesKind::Busy, SeriesKind::Level, SeriesKind::Window];

    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Busy => "busy",
            SeriesKind::Level => "level",
            SeriesKind::Window => "window",
        }
    }
}

/// One sampled point (paired with its virtual timestamp in the series).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointValue {
    /// Counter delta over the interval.
    Rate(u64),
    /// Busy percent (0..=100) over the interval.
    Busy(u64),
    /// Gauge level.
    Level(i64),
    /// Windowed histogram: interval count and interpolated quantiles.
    Window { count: u64, p50: u64, p99: u64 },
}

enum Source {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Log2Histogram),
}

struct Series {
    name: String,
    kind: SeriesKind,
    source: Source,
    /// Counter value at the previous sample (Rate/Busy).
    last: Cell<u64>,
    /// Cumulative bucket counts at the previous sample (Window).
    last_buckets: RefCell<Vec<u64>>,
    points: RefCell<Vec<(Cycles, PointValue)>>,
}

impl Series {
    fn sample(&self, t: Cycles, interval: Cycles) {
        let value = match (&self.source, self.kind) {
            (Source::Counter(c), SeriesKind::Busy) => {
                let cur = c.get();
                let delta = cur - self.last.get();
                self.last.set(cur);
                let pct = (delta * 100).checked_div(interval).unwrap_or(0).min(100);
                PointValue::Busy(pct)
            }
            (Source::Counter(c), _) => {
                let cur = c.get();
                let delta = cur - self.last.get();
                self.last.set(cur);
                PointValue::Rate(delta)
            }
            (Source::Gauge(g), _) => PointValue::Level(g.get()),
            (Source::Histogram(h), _) => {
                let cur = h.buckets();
                let mut shadow = self.last_buckets.borrow_mut();
                let mut delta = vec![0u64; cur.len()];
                for (i, &c) in cur.iter().enumerate() {
                    delta[i] = c - shadow.get(i).copied().unwrap_or(0);
                }
                *shadow = cur;
                let count: u64 = delta.iter().sum();
                PointValue::Window {
                    count,
                    p50: log2_quantile_interpolated(&delta, count, u64::MAX, 0.5),
                    p99: log2_quantile_interpolated(&delta, count, u64::MAX, 0.99),
                }
            }
        };
        self.points.borrow_mut().push((t, value));
    }
}

/// A name-sorted copy of one series, for exporters.
#[derive(Clone, Debug)]
pub struct SeriesExport {
    /// Full metric name.
    pub name: String,
    /// Point semantics.
    pub kind: SeriesKind,
    /// `(virtual time, value)` in sample order.
    pub points: Vec<(Cycles, PointValue)>,
}

struct Inner {
    cadence: Cycles,
    series: RefCell<Vec<Series>>,
    /// Previous sample instant (the left edge of the current window).
    last_t: Cell<Cycles>,
    samples: Cell<u64>,
    /// The sampler's own footprint, under `obs.sampler.*`.
    samples_taken: Counter,
}

/// Deterministic virtual-time series over a registry's instruments.
///
/// Cheap to clone (shared state). Build with [`TimeSeries::spawn`] (a
/// sampling daemon on the timer queue) or [`TimeSeries::manual`] (the
/// caller invokes [`TimeSeries::sample_now`], e.g. oracle tests).
#[derive(Clone)]
pub struct TimeSeries {
    inner: Rc<Inner>,
}

impl TimeSeries {
    /// Resolve every metric of `registry` except the sampler's own
    /// `obs.*` footprint at time `now`, without spawning a sampler; the
    /// caller drives sampling via [`TimeSeries::sample_now`] (`cadence`
    /// is only recorded in the export).
    pub fn manual(now: Cycles, registry: &Registry, cadence: Cycles) -> TimeSeries {
        assert!(cadence > 0, "sampler cadence must be positive");
        let obs = registry.scoped("obs").scoped("sampler");
        let samples_taken = obs.counter("samples");
        let selected = obs.gauge("series");
        let mut series = Vec::new();
        for name in registry.names() {
            if name.starts_with("obs.") {
                continue;
            }
            let Some(metric) = registry.get(&name) else { continue };
            series.push(match metric {
                Metric::Counter(c) => {
                    let kind = if name.ends_with("busy_cycles") {
                        SeriesKind::Busy
                    } else {
                        SeriesKind::Rate
                    };
                    Series {
                        name,
                        kind,
                        last: Cell::new(c.get()),
                        last_buckets: RefCell::new(Vec::new()),
                        points: RefCell::new(Vec::new()),
                        source: Source::Counter(c),
                    }
                }
                Metric::Gauge(g) => Series {
                    name,
                    kind: SeriesKind::Level,
                    last: Cell::new(0),
                    last_buckets: RefCell::new(Vec::new()),
                    points: RefCell::new(Vec::new()),
                    source: Source::Gauge(g),
                },
                Metric::Histogram(h) => Series {
                    name,
                    kind: SeriesKind::Window,
                    last: Cell::new(0),
                    last_buckets: RefCell::new(h.buckets()),
                    points: RefCell::new(Vec::new()),
                    source: Source::Histogram(h),
                },
            });
        }
        selected.set(series.len() as i64);
        TimeSeries {
            inner: Rc::new(Inner {
                cadence,
                series: RefCell::new(series),
                last_t: Cell::new(now),
                samples: Cell::new(0),
                samples_taken,
            }),
        }
    }

    /// Resolve `registry` as [`TimeSeries::manual`] does and spawn the
    /// sampling daemon on `sim`'s timer queue. The daemon fires every
    /// `cadence` cycles; being a daemon, its pending timer never extends
    /// the run past app completion.
    pub fn spawn(sim: &Sim, registry: &Registry, cadence: Cycles) -> TimeSeries {
        let ts = Self::manual(sim.now(), registry, cadence);
        let inner = ts.inner.clone();
        let sim2 = sim.clone();
        sim.spawn_daemon("obs-sampler", async move {
            loop {
                sim2.delay(inner.cadence).await;
                Self::sample_inner(&inner, sim2.now());
            }
        });
        ts
    }

    fn sample_inner(inner: &Inner, now: Cycles) {
        let interval = now - inner.last_t.get();
        for s in inner.series.borrow().iter() {
            s.sample(now, interval);
        }
        inner.last_t.set(now);
        inner.samples.set(inner.samples.get() + 1);
        inner.samples_taken.inc();
    }

    /// Take one sample at virtual time `now` (manual mode; also used by
    /// [`TimeSeries::finish`]).
    pub fn sample_now(&self, now: Cycles) {
        assert!(now >= self.inner.last_t.get(), "samples must move forward in time");
        Self::sample_inner(&self.inner, now);
    }

    /// Flush the final partial window: if the run ended between cadence
    /// boundaries, sample once more at `now` so the tail of the run is
    /// not lost. No-op when `now` is the previous sample instant.
    pub fn finish(&self, now: Cycles) {
        if now > self.inner.last_t.get() || self.inner.samples.get() == 0 {
            self.sample_now(now.max(self.inner.last_t.get()));
        }
    }

    /// The sampling cadence in cycles.
    pub fn cadence(&self) -> Cycles {
        self.inner.cadence
    }

    /// Number of sampling instants so far.
    pub fn samples(&self) -> u64 {
        self.inner.samples.get()
    }

    /// Name-sorted copies of every series (exporter API).
    pub fn series(&self) -> Vec<SeriesExport> {
        let mut out: Vec<SeriesExport> = self
            .inner
            .series
            .borrow()
            .iter()
            .map(|s| SeriesExport {
                name: s.name.clone(),
                kind: s.kind,
                points: s.points.borrow().clone(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Serialize as deterministic JSON: name-sorted series, one per
    /// line (diffable), points as `[t, v]` (rate/busy/level) or
    /// `[t, count, p50, p99]` (window).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ =
            write!(out, "  \"cadence\": {},\n  \"samples\": {},\n", self.cadence(), self.samples());
        out.push_str("  \"series\": {");
        for (i, s) in self.series().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"kind\": \"{}\", \"points\": [",
                json_escape(&s.name),
                s.kind.name()
            );
            for (j, (t, v)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match v {
                    PointValue::Rate(r) => {
                        let _ = write!(out, "[{t}, {r}]");
                    }
                    PointValue::Busy(pct) => {
                        let _ = write!(out, "[{t}, {pct}]");
                    }
                    PointValue::Level(l) => {
                        let _ = write!(out, "[{t}, {l}]");
                    }
                    PointValue::Window { count, p50, p99 } => {
                        let _ = write!(out, "[{t}, {count}, {p50}, {p99}]");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// A [`TimeSeries::to_json`] export read back by [`parse_json`].
#[derive(Clone, Debug)]
pub struct ParsedExport {
    pub cadence: Cycles,
    /// Sampling instants, as the header states them.
    pub samples: u64,
    /// Name-ordered as exported.
    pub series: Vec<SeriesExport>,
}

/// Read a [`TimeSeries::to_json`] export back. This reads exactly that
/// line format (one series per line), not general JSON; a malformed
/// line, a negative count or an unknown kind is an error naming it.
pub fn parse_json(json: &str) -> Result<ParsedExport, String> {
    let mut out = ParsedExport { cadence: 0, samples: 0, series: Vec::new() };
    let mut header = false;
    for (n, line) in json.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        let bad = || format!("line {}: malformed time-series line: {line}", n + 1);
        if let Some(v) = line.strip_prefix("\"cadence\": ") {
            out.cadence = v.parse().map_err(|_| bad())?;
            header = true;
        } else if let Some(v) = line.strip_prefix("\"samples\": ") {
            out.samples = v.parse().map_err(|_| bad())?;
        } else if line.contains("\"points\": [") {
            out.series.push(parse_series_line(line).ok_or_else(bad)?);
        }
    }
    if !header {
        return Err("missing \"cadence\" header (not a time-series export?)".to_string());
    }
    Ok(out)
}

/// One `"name": {"kind": "...", "points": [...]}` line.
fn parse_series_line(line: &str) -> Option<SeriesExport> {
    let (name, body) = line.strip_prefix('"')?.split_once("\": {\"kind\": \"")?;
    let (kind, points) = body.split_once("\", \"points\": [")?;
    let kind = SeriesKind::ALL.into_iter().find(|k| k.name() == kind)?;
    let points = points.strip_suffix("]}")?;
    let points = if points.is_empty() {
        Vec::new()
    } else {
        let tuples = points.strip_prefix('[')?.strip_suffix(']')?.split("], [");
        tuples.map(|p| parse_point(kind, p)).collect::<Option<_>>()?
    };
    Some(SeriesExport { name: name.to_string(), kind, points })
}

/// One `t, v` (or `t, count, p50, p99`) tuple body.
fn parse_point(kind: SeriesKind, tuple: &str) -> Option<(Cycles, PointValue)> {
    let fields: Vec<&str> = tuple.split(", ").collect();
    let u = |i: usize| fields.get(i)?.parse::<u64>().ok();
    let value = match (kind, fields.len()) {
        (SeriesKind::Rate, 2) => PointValue::Rate(u(1)?),
        (SeriesKind::Busy, 2) => PointValue::Busy(u(1)?),
        (SeriesKind::Level, 2) => PointValue::Level(fields[1].parse().ok()?),
        (SeriesKind::Window, 4) => PointValue::Window { count: u(1)?, p50: u(2)?, p99: u(3)? },
        _ => return None,
    };
    Some((u(0)?, value))
}

/// Check a time-series export against the sampler's invariants; returns
/// one message per violation (empty when clean): the export parses
/// (integer values, known kinds, non-negative rates and windows), series
/// are name-sorted, each holds one point per sampling instant with
/// timestamps that never step back, busy percents stay within
/// `[0, 100]`, and window quantiles are ordered (`p50 <= p99`, both 0 in
/// an empty window).
pub fn lint(json: &str) -> Vec<String> {
    let parsed = match parse_json(json) {
        Ok(p) => p,
        Err(e) => return vec![e],
    };
    let mut violations = Vec::new();
    if parsed.series.is_empty() {
        violations.push("no series found".to_string());
    }
    if !parsed.series.windows(2).all(|w| w[0].name < w[1].name) {
        violations.push("series are not sorted by name".to_string());
    }
    for s in &parsed.series {
        let name = &s.name;
        if s.points.len() as u64 != parsed.samples {
            let n = s.points.len();
            violations.push(format!("series {name:?}: {n} points for {} samples", parsed.samples));
        }
        if let Some(w) = s.points.windows(2).find(|w| w[1].0 < w[0].0) {
            violations.push(format!("series {name:?}: ts {} steps back from {}", w[1].0, w[0].0));
        }
        for (t, v) in &s.points {
            let ok = match *v {
                PointValue::Busy(pct) => pct <= 100,
                PointValue::Window { count, p50, p99 } => p50 <= p99 && (count > 0 || p99 == 0),
                PointValue::Rate(_) | PointValue::Level(_) => true,
            };
            if !ok {
                violations.push(format!("series {name:?}: inconsistent point {v:?} at t={t}"));
            }
        }
    }
    violations
}

/// Compare two parsed exports series by series: one line per differing
/// series, naming its first divergent sample (index and virtual time),
/// or that it exists on one side only. Empty when identical.
pub fn diff(a: &[SeriesExport], b: &[SeriesExport]) -> Vec<String> {
    let mut sides: BTreeMap<&str, [Option<&SeriesExport>; 2]> = BTreeMap::new();
    for (i, side) in [a, b].into_iter().enumerate() {
        for s in side {
            sides.entry(&s.name).or_default()[i] = Some(s);
        }
    }
    let mut out = Vec::new();
    for (name, pair) in sides {
        let line = match pair {
            [Some(_), None] => "only in the first export".to_string(),
            [None, Some(_)] => "only in the second export".to_string(),
            [Some(sa), Some(sb)] if sa.kind != sb.kind => {
                format!("kind {} -> {}", sa.kind.name(), sb.kind.name())
            }
            [Some(sa), Some(sb)] => {
                match sa.points.iter().zip(&sb.points).position(|(pa, pb)| pa != pb) {
                    Some(i) => {
                        let ((ta, va), (tb, vb)) = (sa.points[i], sb.points[i]);
                        format!("first divergent sample #{i}: {va:?} at t={ta} -> {vb:?} at t={tb}")
                    }
                    None if sa.points.len() != sb.points.len() => format!(
                        "common prefix equal; sample count {} -> {}",
                        sa.points.len(),
                        sb.points.len()
                    ),
                    None => continue,
                }
            }
            [None, None] => unreachable!("every entry has a side"),
        };
        out.push(format!("{name:<44} {line}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sample_as_interval_deltas() {
        let reg = Registry::new();
        let c = reg.counter("pcie.bytes");
        let ts = TimeSeries::manual(0, &reg, 100);
        c.add(30);
        ts.sample_now(100);
        c.add(12);
        ts.sample_now(200);
        ts.sample_now(300); // idle interval
        let s = &ts.series()[0];
        assert_eq!(s.kind, SeriesKind::Rate);
        assert_eq!(
            s.points,
            vec![
                (100, PointValue::Rate(30)),
                (200, PointValue::Rate(12)),
                (300, PointValue::Rate(0))
            ]
        );
    }

    #[test]
    fn busy_cycles_normalise_to_percent() {
        let reg = Registry::new();
        let c = reg.counter("pcie.link0.busy_cycles");
        let ts = TimeSeries::manual(0, &reg, 100);
        c.add(40);
        ts.sample_now(100);
        c.add(100);
        ts.sample_now(200);
        let s = &ts.series()[0];
        assert_eq!(s.kind, SeriesKind::Busy);
        assert_eq!(s.points, vec![(100, PointValue::Busy(40)), (200, PointValue::Busy(100))]);
    }

    #[test]
    fn gauges_sample_as_levels_and_histograms_as_windows() {
        let reg = Registry::new();
        let g = reg.gauge("host.wcb.depth");
        let h = reg.histogram("rcce.lat");
        // Pre-sampler samples belong to no window.
        h.record(1000);
        let ts = TimeSeries::manual(0, &reg, 50);
        g.set(7);
        h.record(100);
        h.record(100);
        ts.sample_now(50);
        g.set(3);
        ts.sample_now(100);
        let series = ts.series();
        assert_eq!(series[0].name, "host.wcb.depth");
        assert_eq!(series[0].points[0], (50, PointValue::Level(7)));
        assert_eq!(series[0].points[1], (100, PointValue::Level(3)));
        match series[1].points[0] {
            (50, PointValue::Window { count, p50, p99 }) => {
                assert_eq!(count, 2, "the pre-sampler sample must not leak into the window");
                assert!((64..128).contains(&p50), "p50 {p50} outside [64,128)");
                assert!(p99 >= p50);
            }
            other => panic!("expected window point, got {other:?}"),
        }
        match series[1].points[1] {
            (100, PointValue::Window { count, p50, p99 }) => {
                assert_eq!((count, p50, p99), (0, 0, 0), "empty window");
            }
            other => panic!("expected window point, got {other:?}"),
        }
    }

    #[test]
    fn every_metric_but_obs_is_sampled() {
        let reg = Registry::new();
        reg.counter("pcie.bytes");
        reg.counter("scc.writes");
        reg.counter("obs.sampler.noise");
        let ts = TimeSeries::manual(0, &reg, 10);
        let names: Vec<String> = ts.series().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["pcie.bytes", "scc.writes"]);
    }

    #[test]
    fn finish_flushes_the_partial_window_once() {
        let reg = Registry::new();
        let c = reg.counter("pcie.bytes");
        let ts = TimeSeries::manual(0, &reg, 100);
        c.add(9);
        ts.sample_now(100);
        c.add(5);
        ts.finish(140);
        ts.finish(140); // idempotent at the same instant
        assert_eq!(ts.samples(), 2);
        assert_eq!(
            ts.series()[0].points,
            vec![(100, PointValue::Rate(9)), (140, PointValue::Rate(5))]
        );
    }

    #[test]
    fn json_export_is_deterministic_and_sorted() {
        let build = || {
            let reg = Registry::new();
            let c = reg.counter("z.bytes");
            reg.gauge("a.depth").set(2);
            let ts = TimeSeries::manual(0, &reg, 10);
            c.add(4);
            ts.sample_now(10);
            ts.to_json()
        };
        let j1 = build();
        assert_eq!(j1, build());
        assert!(j1.contains("\"cadence\": 10"));
        assert!(j1.contains("\"a.depth\": {\"kind\": \"level\", \"points\": [[10, 2]]}"));
        assert!(j1.contains("\"z.bytes\": {\"kind\": \"rate\", \"points\": [[10, 4]]}"));
        let a = j1.find("a.depth").unwrap();
        let z = j1.find("z.bytes").unwrap();
        assert!(a < z, "series must be name-sorted");
    }

    #[test]
    fn json_export_reads_back_and_lints_clean() {
        let reg = Registry::new();
        let c = reg.counter("a.bytes");
        let busy = reg.counter("b.busy_cycles");
        let h = reg.histogram("c.lat");
        reg.gauge("d.depth").set(-2);
        let ts = TimeSeries::manual(0, &reg, 10);
        c.add(4);
        busy.add(5);
        h.record(100);
        ts.sample_now(10);
        ts.sample_now(20);
        let json = ts.to_json();
        let parsed = parse_json(&json).expect("parses");
        assert_eq!((parsed.cadence, parsed.samples), (10, 2));
        let want = ts.series();
        assert_eq!(parsed.series.len(), want.len());
        for (p, w) in parsed.series.iter().zip(&want) {
            assert_eq!((&p.name, p.kind, &p.points), (&w.name, w.kind, &w.points));
        }
        assert_eq!(lint(&json), Vec::<String>::new());
        assert!(diff(&parsed.series, &want).is_empty());
        // Out-of-range busy percent, a backwards timestamp, a negative
        // rate (unparseable), and a missing header are each named.
        let hot = json.replace("[[10, 50], [20, 0]]", "[[10, 50], [20, 101]]");
        assert!(lint(&hot).iter().any(|v| v.contains("Busy(101)")), "{:?}", lint(&hot));
        let back = json.replace("[[10, 50], [20, 0]]", "[[20, 50], [10, 0]]");
        assert!(lint(&back).iter().any(|v| v.contains("steps back")), "{:?}", lint(&back));
        let neg = json.replace("[[10, 4], [20, 0]]", "[[10, -4], [20, 0]]");
        assert!(lint(&neg)[0].contains("malformed"), "{:?}", lint(&neg));
        assert!(parse_json("{}").is_err());
    }

    #[test]
    fn sampler_daemon_does_not_extend_the_run() {
        let sim = Sim::new();
        let reg = Registry::new();
        let c = reg.counter("app.ticks");
        let ts = TimeSeries::spawn(&sim, &reg, 10);
        let sim2 = sim.clone();
        let c2 = c.clone();
        sim.spawn(async move {
            for _ in 0..5 {
                sim2.delay(7).await;
                c2.inc();
            }
        });
        let end = sim.run().expect("clean run");
        assert_eq!(end, 35, "the sampler daemon must not extend the run");
        assert_eq!(ts.samples(), 3, "samples at 10, 20, 30");
        let total: u64 = ts.series()[0]
            .points
            .iter()
            .map(|(_, v)| match v {
                PointValue::Rate(r) => *r,
                _ => 0,
            })
            .sum();
        ts.finish(end);
        let with_tail: u64 = ts.series()[0]
            .points
            .iter()
            .map(|(_, v)| match v {
                PointValue::Rate(r) => *r,
                _ => 0,
            })
            .sum();
        assert!(total <= 5);
        assert_eq!(with_tail, 5, "finish() recovers the tail of the run");
    }
}
