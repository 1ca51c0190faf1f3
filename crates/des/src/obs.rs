//! Observability: a metrics registry and machine-readable exporters.
//!
//! The registry names the primitive instruments of [`crate::stats`] with
//! hierarchical dot-separated keys (`host.swcache.hits`,
//! `pcie.link0.bytes`, `rcce.send.lock_wait_cycles`) and snapshots them
//! as name-sorted JSON. The exporters turn a [`crate::trace::Trace`]
//! into Chrome-trace-event JSON (loadable in Perfetto; `ts` is the
//! virtual clock in cycles) and a [`Registry`] into a metrics-snapshot
//! JSON. Each export's reader sits next to its
//! writer ([`chrome_lines`] and [`lint_trace`], [`Snapshot::from_json`],
//! [`timeseries::parse_json`], [`crate::audit::parse_export`]), and
//! [`report::Exports`] renders one run's four exports as a Markdown
//! report.
//!
//! This crate reads no environment variable for observability: the
//! bench harness's `VSCC_OBS=<dir>[@<epoch>]` switch writes one
//! designated run's exports through these functions, and the
//! `vscc_obs` example reads them back.
//!
//! Everything is deterministic: timestamps are [`crate::time::Cycles`],
//! iteration is insertion-ordered (trace) or name-sorted (metrics), and
//! two seeded runs produce byte-identical exports.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::stats::{Counter, Gauge, Log2Histogram};
use crate::trace::Trace;

pub mod report;
pub mod timeseries;

pub use timeseries::{PointValue, SeriesExport, SeriesKind, TimeSeries, DEFAULT_CADENCE};

/// Environment variable naming a fault plan to inject
/// (`VSCC_FAULTS=<spec>`; see [`crate::faultplan::FaultSpec::parse`] for
/// the grammar). The only environment variable the library crates read.
pub const FAULTS_ENV: &str = "VSCC_FAULTS";

/// One registered instrument.
#[derive(Clone)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Log2Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    /// `(full_name, instrument)` in registration order.
    slab: Vec<(Rc<str>, Metric)>,
    /// Name → slab index, used only at registration / lookup time.
    index: HashMap<Rc<str>, u32>,
}

/// A shared, hierarchically-named metrics registry.
///
/// Handles are cheap clones over one store; [`Registry::scoped`] derives
/// a view that prefixes every name, so a subsystem can register
/// `"hits"` and have it appear as `"host.swcache.hits"`.
///
/// Every instrument is a [`crate::stats`] `Rc<Cell>` value: a site
/// resolves its name once, at construction, and keeps the returned
/// instrument, so an update is a `Cell` write with no registry access.
/// [`Registry::counter`] and friends get or create — two sites asking
/// for one name share one instrument. The `adopt_*` calls register an
/// instrument a subsystem already owns, and panic on a taken name.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
    prefix: String,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A view of the same registry that prefixes names with `segment.`.
    pub fn scoped(&self, segment: &str) -> Registry {
        Registry { inner: self.inner.clone(), prefix: format!("{}{segment}.", self.prefix) }
    }

    fn full_name(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let full = self.full_name(name);
        let mut inner = self.inner.borrow_mut();
        if let Some(&idx) = inner.index.get(full.as_str()) {
            return inner.slab[idx as usize].1.clone();
        }
        let m = make();
        let idx = inner.slab.len() as u32;
        let key: Rc<str> = Rc::from(full);
        inner.slab.push((key.clone(), m.clone()));
        inner.index.insert(key, idx);
        m
    }

    /// Get or register the counter `name`.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            m => panic!("metric {:?} is a {}, not a counter", self.full_name(name), m.kind()),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            m => panic!("metric {:?} is a {}, not a gauge", self.full_name(name), m.kind()),
        }
    }

    /// Get or register the log2 histogram `name`.
    pub fn histogram(&self, name: &str) -> Log2Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Log2Histogram::new())) {
            Metric::Histogram(h) => h,
            m => panic!("metric {:?} is a {}, not a histogram", self.full_name(name), m.kind()),
        }
    }

    /// Register an *existing* counter under `name`, so a value already
    /// shared elsewhere (e.g. a link's byte counter) surfaces in
    /// snapshots without double counting.
    ///
    /// Panics if `name` is already registered.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.adopt(name, Metric::Counter(counter.clone()));
    }

    /// Register an existing gauge under `name`.
    pub fn adopt_gauge(&self, name: &str, gauge: &Gauge) {
        self.adopt(name, Metric::Gauge(gauge.clone()));
    }

    /// Register an existing histogram under `name`.
    pub fn adopt_histogram(&self, name: &str, histogram: &Log2Histogram) {
        self.adopt(name, Metric::Histogram(histogram.clone()));
    }

    fn adopt(&self, name: &str, metric: Metric) {
        let full = self.full_name(name);
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.index.contains_key(full.as_str()), "metric {full:?} registered twice");
        let idx = inner.slab.len() as u32;
        let key: Rc<str> = Rc::from(full);
        inner.slab.push((key.clone(), metric));
        inner.index.insert(key, idx);
    }

    /// All registered full names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.inner.borrow().slab.iter().map(|(n, _)| n.to_string()).collect()
    }

    /// Look up a metric by full name.
    pub fn get(&self, full_name: &str) -> Option<Metric> {
        let inner = self.inner.borrow();
        inner.index.get(full_name).map(|&idx| inner.slab[idx as usize].1.clone())
    }

    /// A point-in-time copy of every metric's value, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        let mut entries: Vec<(String, MetricValue)> = inner
            .slab
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter { value: c.get() },
                    Metric::Gauge(g) => {
                        MetricValue::Gauge { value: g.get(), high_watermark: g.high_watermark() }
                    }
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        p50: h.quantile_interpolated(0.5),
                        p99: h.quantile_interpolated(0.99),
                        buckets: h.buckets(),
                    },
                };
                (name.to_string(), value)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }
}

/// A snapshot of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter { value: u64 },
    Gauge { value: i64, high_watermark: i64 },
    Histogram { count: u64, sum: u128, max: u64, p50: u64, p99: u64, buckets: Vec<u64> },
}

/// A point-in-time, name-sorted copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(full_name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Serialize as deterministic JSON (sorted keys, integer values).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": ", json_escape(name));
            match value {
                MetricValue::Counter { value } => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {value}}}");
                }
                MetricValue::Gauge { value, high_watermark } => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"gauge\", \"value\": {value}, \"high_watermark\": {high_watermark}}}"
                    );
                }
                MetricValue::Histogram { count, sum, max, p50, p99, buckets } => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"histogram\", \"count\": {count}, \"sum\": {sum}, \"max\": {max}, \"p50\": {p50}, \"p99\": {p99}, \"buckets\": ["
                    );
                    for (j, b) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Read a [`Snapshot::to_json`] export back. This reads exactly that
    /// line format (one metric per line), not general JSON; a malformed
    /// metric line is an error naming it.
    pub fn from_json(json: &str) -> Result<Snapshot, String> {
        if json.lines().nth(1).is_none_or(|l| l.trim() != "\"metrics\": {") {
            return Err("missing \"metrics\" header (not a metrics export?)".to_string());
        }
        let mut entries = Vec::new();
        for (n, line) in json.lines().enumerate().skip(2) {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with('"') {
                let entry = parse_metric_line(line)
                    .ok_or_else(|| format!("line {}: malformed metric: {line}", n + 1))?;
                entries.push(entry);
            }
        }
        Ok(Snapshot { entries })
    }

    /// Compare two snapshots; `self` is the old side, `other` the new.
    ///
    /// The result is name-sorted, so rendering it is the "diff two metrics
    /// exports to bisect a determinism bug" workflow in one call.
    pub fn diff(&self, other: &Snapshot) -> SnapshotDiff {
        let mut diff = SnapshotDiff::default();
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some((an, av)), Some((bn, bv))) if an == bn => {
                    if av != bv {
                        diff.changed.push((an.clone(), av.clone(), bv.clone()));
                    }
                    i += 1;
                    j += 1;
                }
                (Some((an, av)), Some((bn, _))) if an < bn => {
                    diff.removed.push((an.clone(), av.clone()));
                    i += 1;
                }
                (Some(_), Some((bn, bv))) => {
                    diff.added.push((bn.clone(), bv.clone()));
                    j += 1;
                }
                (Some((an, av)), None) => {
                    diff.removed.push((an.clone(), av.clone()));
                    i += 1;
                }
                (None, Some((bn, bv))) => {
                    diff.added.push((bn.clone(), bv.clone()));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        diff
    }
}

/// One `"name": {"type": ..., ...}` line of a [`Snapshot::to_json`] export.
fn parse_metric_line(line: &str) -> Option<(String, MetricValue)> {
    let (name, rest) = line.strip_prefix('"')?.split_once("\": ")?;
    let body = rest.strip_prefix('{')?.strip_suffix('}')?;
    let field = |key: &str| -> Option<&str> {
        let (_, tail) = body.split_once(&format!("\"{key}\": "))?;
        tail.split([',', ']']).next().map(str::trim)
    };
    let int = |key: &str| field(key)?.parse::<u64>().ok();
    let value = match field("type")? {
        "\"counter\"" => MetricValue::Counter { value: int("value")? },
        "\"gauge\"" => MetricValue::Gauge {
            value: field("value")?.parse().ok()?,
            high_watermark: field("high_watermark")?.parse().ok()?,
        },
        "\"histogram\"" => {
            let list = body.split_once("\"buckets\": [")?.1.split(']').next()?;
            let buckets = if list.is_empty() {
                Vec::new()
            } else {
                list.split(", ").map(str::parse).collect::<Result<_, _>>().ok()?
            };
            MetricValue::Histogram {
                count: int("count")?,
                sum: field("sum")?.parse().ok()?,
                max: int("max")?,
                p50: int("p50")?,
                p99: int("p99")?,
                buckets,
            }
        }
        _ => return None,
    };
    Some((name.to_string(), value))
}

/// The delta between two [`Snapshot`]s, each section name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Metrics present in both with different values: `(name, old, new)`.
    pub changed: Vec<(String, MetricValue, MetricValue)>,
    /// Metrics only in the new snapshot.
    pub added: Vec<(String, MetricValue)>,
    /// Metrics only in the old snapshot.
    pub removed: Vec<(String, MetricValue)>,
}

impl SnapshotDiff {
    /// True when the snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// Render as an aligned delta table (empty string when identical).
    pub fn render_table(&self) -> String {
        fn brief(v: &MetricValue) -> String {
            match v {
                MetricValue::Counter { value } => value.to_string(),
                MetricValue::Gauge { value, high_watermark } => {
                    format!("{value} (max {high_watermark})")
                }
                MetricValue::Histogram { count, p50, p99, max, .. } => {
                    format!("count={count} p50={p50} p99={p99} max={max}")
                }
            }
        }
        let mut out = String::new();
        for (name, old, new) in &self.changed {
            let _ = writeln!(out, "~ {name:<48} {} -> {}", brief(old), brief(new));
        }
        for (name, new) in &self.added {
            let _ = writeln!(out, "+ {name:<48} {}", brief(new));
        }
        for (name, old) in &self.removed {
            let _ = writeln!(out, "- {name:<48} {}", brief(old));
        }
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize a trace as Chrome-trace-event JSON (the "JSON array format"
/// Perfetto and `chrome://tracing` load).
///
/// The trace becomes one process (`pid` 0) named `name`; actors become
/// `tid`s in order of first appearance, with `process_name` /
/// `thread_name` metadata events so the Perfetto UI shows real names.
/// `ts` is the virtual clock in cycles (exported as microseconds purely
/// so the UI's time axis is readable). A span is one complete event
/// (`ph:"X"` with its `dur`), an instant one `ph:"i"`, in record order.
///
/// Events carrying a flow id additionally emit one Chrome flow event
/// each, at the hop's start (`ph:"s"` at the flow's earliest hop,
/// `ph:"f"` at its latest, `ph:"t"` between; ties go by record order;
/// the arrow `id` is the flow id), so Perfetto draws cross-actor arrows
/// along each message's path. Flows with a single recorded hop are
/// skipped — an arrow needs two ends.
pub fn chrome_trace_json(name: &str, trace: &Trace) -> String {
    let mut out = format!(
        "{{\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    );
    let push_line = |out: &mut String, line: String| {
        out.push_str(",\n");
        out.push_str(&line);
    };
    trace.with_events(|events| {
        // Index of the earliest- and latest-starting hop per flow id
        // (ties by record order), so each hop knows whether it starts
        // ("s"), continues ("t"), or finishes ("f") its flow's arrow
        // chain.
        let mut flow_bounds: HashMap<u64, (usize, usize)> = HashMap::new();
        for (idx, event) in events.iter().enumerate() {
            if let Some(flow) = event.flow {
                let (first, last) = flow_bounds.entry(flow).or_insert((idx, idx));
                if event.time < events[*first].time {
                    *first = idx;
                }
                if event.time >= events[*last].time {
                    *last = idx;
                }
            }
        }
        let mut tids: HashMap<std::rc::Rc<str>, usize> = HashMap::new();
        for (idx, event) in events.iter().enumerate() {
            let next_tid = tids.len();
            let tid = match tids.get(&*event.actor) {
                Some(&t) => t,
                None => {
                    tids.insert(event.actor.clone(), next_tid);
                    push_line(
                        &mut out,
                        format!(
                            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{next_tid},\"args\":{{\"name\":\"{}\"}}}}",
                            json_escape(&event.actor)
                        ),
                    );
                    next_tid
                }
            };
            let (ph, dur) = match event.end {
                Some(end) => ("X", format!(",\"dur\":{}", end - event.time)),
                None => ("i", String::new()),
            };
            let mut line = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{}{dur},\"pid\":0,\"tid\":{tid}",
                json_escape(event.kind),
                event.cat.name(),
                event.time,
            );
            if event.end.is_none() {
                line.push_str(",\"s\":\"t\"");
            }
            let mut args: Vec<(&str, String)> = Vec::new();
            if let Some(flow) = event.flow {
                args.push(("flow", flow.to_string()));
            }
            for (name, value) in &event.fields {
                use crate::trace::FieldValue;
                let rendered = match value {
                    FieldValue::U64(v) => v.to_string(),
                    FieldValue::I64(v) => v.to_string(),
                    FieldValue::Str(s) => format!("\"{}\"", json_escape(s)),
                    FieldValue::Text(s) => format!("\"{}\"", json_escape(s)),
                };
                args.push((name, rendered));
            }
            if !args.is_empty() {
                line.push_str(",\"args\":{");
                for (i, (name, rendered)) in args.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "\"{}\":{rendered}", json_escape(name));
                }
                line.push('}');
            }
            line.push('}');
            push_line(&mut out, line);
            if let Some(flow) = event.flow {
                let (first_idx, last_idx) = flow_bounds[&flow];
                if first_idx != last_idx {
                    let fph = if idx == first_idx {
                        "s"
                    } else if idx == last_idx {
                        "f"
                    } else {
                        "t"
                    };
                    let mut fline = format!(
                        "{{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"{fph}\",\"id\":{flow},\"ts\":{},\"pid\":0,\"tid\":{tid}",
                        event.time,
                    );
                    if fph == "f" {
                        fline.push_str(",\"bp\":\"e\"");
                    }
                    fline.push('}');
                    push_line(&mut out, fline);
                }
            }
        }
    });
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// One event line of a [`chrome_trace_json`] export, read back. The
/// reader knows exactly that line format (one event per line, compact
/// `"key":value` pairs, the event's own keys before its `args`); it is
/// not a general JSON parser.
#[derive(Clone, Copy, Debug)]
pub struct ChromeLine<'a> {
    /// 1-based line number in the export.
    pub lineno: usize,
    /// Chrome phase: `M`etadata, complete span `X`, `i`nstant, or flow
    /// `s`/`t`/`f`; empty when the line has no `ph`.
    pub ph: &'a str,
    pub name: &'a str,
    pub tid: u64,
    raw: &'a str,
}

impl<'a> ChromeLine<'a> {
    /// The event's `ts`; `None` on metadata lines.
    pub fn ts(&self) -> Option<u64> {
        json_num(self.raw, "ts")
    }

    /// A span's `dur` (`None` on every other line).
    pub fn dur(&self) -> Option<u64> {
        json_num(self.raw, "dur")
    }

    /// The event's `cat` (`None` on metadata lines).
    pub fn cat(&self) -> Option<&'a str> {
        json_str(self.raw, "cat")
    }

    /// The flow-arrow `id` of an `s`/`t`/`f` line.
    pub fn id(&self) -> Option<u64> {
        json_num(self.raw, "id")
    }

    /// The raw `args` object body (without braces), if any.
    pub fn args(&self) -> Option<&'a str> {
        let p = self.raw.find("\"args\":{")?;
        Some(self.raw[p + 8..].trim_end_matches('}'))
    }

    /// String argument `key` (e.g. a metadata line's `name`).
    pub fn arg_str(&self, key: &str) -> Option<&'a str> {
        json_str(self.args()?, key)
    }

    /// Unsigned argument `key`.
    pub fn arg_num(&self, key: &str) -> Option<u64> {
        json_num(self.args()?, key)
    }
}

/// The text after the first `"key":` in `s`, past one optional space
/// (the trace export writes `"key":v`, the audit export `"key": v`).
fn json_value<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    Some(rest.strip_prefix(' ').unwrap_or(rest))
}

/// First string value of `"key":"..."` in `s`.
pub(crate) fn json_str<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    json_value(s, key)?.strip_prefix('"')?.split('"').next()
}

/// First unsigned value of `"key":N` in `s`.
pub(crate) fn json_num(s: &str, key: &str) -> Option<u64> {
    let rest = json_value(s, key)?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every event line (a `{...}` object with at least one key) of a
/// Chrome-trace export, metadata and lines without a `ph` included, in
/// file order.
pub fn chrome_lines(json: &str) -> impl Iterator<Item = ChromeLine<'_>> {
    json.lines().enumerate().filter_map(|(i, line)| {
        let raw = line.trim().trim_end_matches(',');
        if !raw.starts_with('{') || !raw.ends_with('}') || !raw.contains("\":") {
            return None;
        }
        Some(ChromeLine {
            lineno: i + 1,
            ph: json_str(raw, "ph").unwrap_or(""),
            name: json_str(raw, "name").unwrap_or("?"),
            tid: json_num(raw, "tid").unwrap_or(0),
            raw,
        })
    })
}

/// Check a Chrome-trace export's structural invariants; returns one
/// message per violation (empty when clean):
///
/// - every event has a phase, and it is metadata `M`, a span `X`, an
///   instant `i` or a flow point `s`/`t`/`f` (a stray counter sample `C`
///   is a violation);
/// - timestamps are monotone per `tid` for span ends (`ts + dur`) and
///   instants, which are recorded at the current virtual time (a span's
///   start may lie before earlier records of its track);
/// - every span `X` carries a numeric `dur`;
/// - every flow arrow that starts (`s`) also finishes (`f`), and vice
///   versa.
pub fn lint_trace(json: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut track_last: BTreeMap<u64, u64> = BTreeMap::new();
    let mut flows: [BTreeSet<u64>; 2] = Default::default();
    let mut events = 0usize;
    for e in chrome_lines(json).filter(|e| e.ph != "M") {
        events += 1;
        let (tid, name, at) = (e.tid, e.name, e.lineno);
        if e.ph.is_empty() {
            violations.push(format!("line {at}: event without ph"));
            continue;
        }
        if !matches!(e.ph, "X" | "i" | "s" | "t" | "f") {
            violations.push(format!("line {at}: unknown phase \"{}\"", e.ph));
            continue;
        }
        let Some(ts) = e.ts() else {
            violations.push(format!("line {at}: event without numeric ts"));
            continue;
        };
        match e.ph {
            "X" | "i" => {
                let end = if e.ph == "i" { Some(ts) } else { e.dur().map(|dur| ts + dur) };
                let Some(end) = end else {
                    violations.push(format!("line {at}: span \"{name}\" without numeric dur"));
                    continue;
                };
                let last = track_last.entry(tid).or_insert(0);
                if end < *last {
                    violations
                        .push(format!("line {at}: tid {tid}: ts {end} steps back from {last}"));
                }
                *last = (*last).max(end);
            }
            _ => match e.id() {
                Some(id) if e.ph == "s" => drop(flows[0].insert(id)),
                Some(id) if e.ph == "f" => drop(flows[1].insert(id)),
                Some(_) => {}
                None => violations.push(format!("line {at}: flow event without id")),
            },
        }
    }
    for id in flows[0].difference(&flows[1]) {
        violations.push(format!("flow {id}: started (ph:\"s\") but never finished (ph:\"f\")"));
    }
    for id in flows[1].difference(&flows[0]) {
        violations.push(format!("flow {id}: finished (ph:\"f\") but never started (ph:\"s\")"));
    }
    if events == 0 {
        violations.push("no events found (not a Chrome-trace export?)".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;
    use crate::trace::Category;

    #[test]
    fn registry_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("host.hits");
        let b = reg.counter("host.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("host.hits").get(), 3);
    }

    #[test]
    fn scoped_views_prefix_names() {
        let reg = Registry::new();
        let host = reg.scoped("host");
        let swcache = host.scoped("swcache");
        swcache.counter("hits").inc();
        host.gauge("depth").set(4);
        assert_eq!(reg.names(), vec!["host.swcache.hits", "host.depth"]);
        assert_eq!(reg.counter("host.swcache.hits").get(), 1);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn adopting_a_taken_name_panics() {
        let reg = Registry::new();
        reg.counter("link.bytes");
        reg.adopt_counter("link.bytes", &Counter::new());
    }

    #[test]
    fn adopted_counter_is_not_double_counted() {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(5);
        reg.adopt_counter("link.bytes", &c);
        c.add(2);
        assert_eq!(reg.counter("link.bytes").get(), 7);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.histogram("m.lat").record(5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.lat", "z.last"]);
        assert_eq!(snap.entries[0].1, MetricValue::Counter { value: 2 });
        match &snap.entries[1].1 {
            MetricValue::Histogram { count, p50, .. } => {
                assert_eq!(*count, 1);
                // Interpolated within bucket [4, 8), clamped to the max
                // recorded sample (5).
                assert_eq!(*p50, 5);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let build = || {
            let reg = Registry::new();
            reg.counter("b").add(2);
            reg.counter("a").add(1);
            reg.gauge("g").set(-3);
            reg.histogram("h").record(0);
            reg.snapshot().to_json()
        };
        let j1 = build();
        let j2 = build();
        assert_eq!(j1, j2);
        let a = j1.find("\"a\"").unwrap();
        let b = j1.find("\"b\"").unwrap();
        let g = j1.find("\"g\"").unwrap();
        assert!(a < b && b < g);
        assert!(j1.contains("\"high_watermark\": 0"));
    }

    #[test]
    fn chrome_trace_shape() {
        let t = Trace::enabled();
        t.instant(12, Category::Mpb, "flag_set", None, || "rank1", Vec::new);
        t.span(10, 20, Category::Protocol, "send", None, || "rank0", || fields![bytes = 64u64]);
        let json = chrome_trace_json("run", &t);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\",\"ts\":10,\"dur\":10,"));
        assert!(json.contains("\"ph\":\"i\",\"ts\":12"));
        assert!(json.contains("\"args\":{\"bytes\":64}"));
        // rank1 saw tid 0, rank0 tid 1, by first appearance.
        assert!(json.contains("\"tid\":1,\"args\":{\"name\":\"rank0\"}"));
        // Balanced braces/brackets — cheap structural validity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_flow_events_pair_up() {
        let t = Trace::enabled();
        t.instant(5, Category::Vdma, "vdma", Some(7), || "host", Vec::new);
        // Recorded when it closes, after the hop at 5, but it starts first.
        t.span(1, 6, Category::Protocol, "put", Some(7), || "rank0", Vec::new);
        t.instant(9, Category::Protocol, "get", Some(7), || "rank1", Vec::new);
        // A single-hop flow must not emit an unpaired "s".
        t.instant(11, Category::Protocol, "lonely", Some(8), || "rank0", Vec::new);
        let json = chrome_trace_json("run", &t);
        assert!(json.contains("\"ph\":\"s\",\"id\":7,\"ts\":1"));
        assert!(json.contains("\"ph\":\"t\",\"id\":7,\"ts\":5"));
        assert!(json.contains("\"ph\":\"f\",\"id\":7,\"ts\":9,"));
        assert!(json.contains("\"bp\":\"e\""));
        assert!(!json.contains("\"id\":8"));
        assert!(json.contains("\"args\":{\"flow\":7}"));
        assert_eq!(json.matches("\"ph\":\"s\"").count(), json.matches("\"ph\":\"f\"").count());
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }

    #[test]
    fn snapshot_diff_classifies_and_renders() {
        let old = Registry::new();
        old.counter("same").add(1);
        old.counter("bumped").add(2);
        old.counter("gone").add(9);
        let new = Registry::new();
        new.counter("same").add(1);
        new.counter("bumped").add(5);
        new.gauge("fresh").set(3);
        let d = old.snapshot().diff(&new.snapshot());
        assert!(!d.is_empty());
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].0, "bumped");
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].0, "fresh");
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.removed[0].0, "gone");
        let table = d.render_table();
        assert!(table.contains("~ bumped"));
        assert!(table.contains("2 -> 5"));
        assert!(table.contains("+ fresh"));
        assert!(table.contains("- gone"));
        let identical = old.snapshot().diff(&old.snapshot());
        assert!(identical.is_empty());
        assert_eq!(identical.render_table(), "");
    }

    #[test]
    fn snapshot_json_reads_back() {
        let reg = Registry::new();
        reg.counter("a.count").add(7);
        reg.gauge("b.level").set(-3);
        reg.histogram("c.lat").record(5);
        reg.histogram("d.empty");
        let snap = reg.snapshot();
        assert_eq!(Snapshot::from_json(&snap.to_json()), Ok(snap));
        assert!(Snapshot::from_json("{\n  \"cadence\": 1,\n}\n").is_err());
        let bad = reg.snapshot().to_json().replace("\"value\": 7", "\"value\": x");
        assert!(Snapshot::from_json(&bad).unwrap_err().contains("a.count"));
    }

    #[test]
    fn trace_lint_accepts_the_writer_and_names_violations() {
        let t = Trace::enabled();
        t.instant(12, Category::Protocol, "put", Some(7), || "rank0", Vec::new);
        t.instant(15, Category::Vdma, "get", Some(7), || "rank1", Vec::new);
        t.span(10, 20, Category::Protocol, "send", None, || "rank0", Vec::new);
        let json = chrome_trace_json("run", &t);
        assert_eq!(lint_trace(&json), Vec::<String>::new());
        let names: Vec<(&str, &str)> = chrome_lines(&json).map(|e| (e.ph, e.name)).collect();
        assert_eq!(names[0], ("M", "process_name"));
        assert_eq!(chrome_lines(&json).next().unwrap().arg_str("name"), Some("run"));
        // A span without a numeric duration and an unpaired arrow.
        let broken =
            json.replace("\"dur\":10,", "\"dur\":\"x\",").replace("\"ph\":\"f\"", "\"ph\":\"t\"");
        let v = lint_trace(&broken);
        assert!(v.iter().any(|m| m.contains("span \"send\" without numeric dur")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("never finished")), "{v:?}");
        // A span ending before an instant recorded ahead of it on its track.
        let v = lint_trace(&json.replace("\"dur\":10,", "\"dur\":1,"));
        assert!(v.iter().any(|m| m.contains("ts 11 steps back from 12")), "{v:?}");
        assert_eq!(lint_trace("{}"), vec!["no events found (not a Chrome-trace export?)"]);
    }

    #[test]
    fn trace_lint_rejects_a_counter_sample() {
        let t = Trace::enabled();
        t.span(10, 20, Category::Protocol, "send", None, || "rank0", Vec::new);
        let json = chrome_trace_json("run", &t);
        let counter = "{\"name\":\"q\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":1,\"pid\":0,\"tid\":0,\"args\":{\"level\":1}}";
        let stray = json.replace("\n]", &format!(",\n{counter}\n]"));
        let at = stray.lines().position(|l| l.starts_with(counter)).unwrap() + 1;
        assert_eq!(lint_trace(&stray), vec![format!("line {at}: unknown phase \"C\"")]);
    }

    #[test]
    fn trace_lint_names_an_event_without_ph() {
        let phaseless = concat!(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"run\"}}\n",
            "{\"name\":\"put\",\"cat\":\"protocol\",\"ph\":\"i\",\"ts\":12,\"pid\":0,\"tid\":1,\"s\":\"t\"}\n",
            "{\"name\":\"send\",\"cat\":\"protocol\",\"ts\":10,\"dur\":10,\"pid\":0,\"tid\":1}\n",
        );
        assert_eq!(chrome_lines(phaseless).map(|e| e.ph).collect::<Vec<_>>(), ["M", "i", ""]);
        assert_eq!(lint_trace(phaseless), vec!["line 3: event without ph"]);
    }
}
