//! Structured protocol event tracing.
//!
//! Events are typed — an actor, a [`Category`], a kind, and named payload
//! fields — and carry virtual-clock timestamps only, so a trace of a
//! seeded run is bit-reproducible. Point events ([`Trace::instant`]) and
//! spans ([`Trace::span`], or [`crate::span!`] around an awaited body)
//! both feed the Figure 2 text timeline ([`Trace::render`]) and the
//! Chrome-trace-event export in [`crate::obs`].
//!
//! A span is one record, written when it closes with its start and end
//! already known, so readers take its interval as it stands and never
//! pair a begin with an end. Records are in close order; a span whose
//! body never finishes (a run aborted by a watchdog while the body is
//! parked) is never recorded.
//!
//! Categories can be enabled selectively; a disabled category (or a fully
//! disabled trace) costs one branch per call site — the actor and field
//! closures are never evaluated, so the disabled path performs no
//! allocation, hashing, or formatting at all.
//!
//! Actor names are *interned*: every recorded event stores an
//! [`Rc<str>`] from a per-trace table, so a million events from
//! `"rank0"` share one string. Hot call sites can pre-intern their
//! label once ([`Trace::intern`]) and return the cached `Rc<str>` from
//! the actor closure, making the enabled recording path allocation-free
//! for the actor as well.
//!
//! Events may carry a *flow id* (the `flow` argument of every recording
//! method) tying the hops of one logical message together across actors;
//! the Chrome exporter in [`crate::obs`] turns these into flow arrows.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::time::Cycles;

/// Event category, used both for filtering and for the `cat` field of the
/// Chrome trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// RCCE/iRCCE message-passing protocol steps (put, flag, chunk).
    Protocol,
    /// PCIe tunnel/link transfers.
    Pcie,
    /// Host-side vDMA operations.
    Vdma,
    /// Application-level events (e.g. NPB BT payload verification).
    App,
    /// Injected faults and the recovery actions they trigger (drops,
    /// corruption, retries, fallback demotions, watchdog trips).
    Fault,
    /// Per-pair health-FSM transitions and canary probes of the
    /// self-healing layer (demote, probe, re-promote, quarantine).
    Health,
}

impl Category {
    /// All categories, in declaration order.
    pub const ALL: [Category; 6] = [
        Category::Protocol,
        Category::Pcie,
        Category::Vdma,
        Category::App,
        Category::Fault,
        Category::Health,
    ];

    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Lower-case name, as exported.
    pub fn name(self) -> &'static str {
        match self {
            Category::Protocol => "protocol",
            Category::Pcie => "pcie",
            Category::Vdma => "vdma",
            Category::App => "app",
            Category::Fault => "fault",
            Category::Health => "health",
        }
    }
}

/// A typed payload field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    Str(&'static str),
    Text(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Text(s) => f.write_str(s),
        }
    }
}

macro_rules! field_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::U64(v as u64)
            }
        }
    )*};
}
field_from_uint!(u8, u16, u32, u64, usize);

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(s: &'static str) -> Self {
        FieldValue::Str(s)
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Text(s)
    }
}

/// Named payload fields of one event.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// Build a [`Fields`] list: `fields![bytes = n, dest = d]`.
#[macro_export]
macro_rules! fields {
    ($($name:ident = $value:expr),* $(,)?) => {
        vec![$((stringify!($name), $crate::trace::FieldValue::from($value))),*]
    };
}

/// Bracket a body in a traced span: when the category is recorded, read
/// the start at `$sim.now()`, evaluate `$body` in place, then record one
/// [`Trace::span`] ending at the new `$sim.now()`; yield the body's
/// value.
///
/// The body is spliced into the enclosing `async` block, so it may
/// `.await` without the span adding a future layer of its own. A
/// `return` or `?` inside the body would skip the record: keep early
/// exits outside the bracket. The start and the fields are read before
/// the body, and only when the category is recorded; they are all the
/// span holds across the body's awaits. The trace, category, kind,
/// flow and actor are evaluated again for the record: pass cheap
/// expressions without side effects (locals, constants, field paths).
///
/// ```ignore
/// des::span!(trace, sim, Category::Pcie, "classify", flow, actor, [bytes = len], {
///     sim.delay(answer).await;
/// });
/// ```
#[macro_export]
macro_rules! span {
    (
        $trace:expr, $sim:expr, $cat:expr, $kind:expr, $flow:expr, $actor:expr,
        [$($name:ident = $value:expr),* $(,)?], $body:expr $(,)?
    ) => {{
        let open = $trace.records($cat).then(|| ($sim.now(), $crate::fields![$($name = $value),*]));
        let out = $body;
        if let Some((start, fields)) = open {
            $trace.span(start, $sim.now(), $cat, $kind, $flow, $actor, move || fields);
        }
        out
    }};
}

/// What an actor closure returns: any of the common string shapes.
///
/// The recording methods accept `impl FnOnce() -> A` for any
/// `A: Into<ActorLabel>`, so call sites can return a `&'static str`, a
/// freshly formatted `String`, or — on hot paths — a pre-interned
/// [`Rc<str>`] from [`Trace::intern`], which records without touching
/// the intern table or allocating.
pub enum ActorLabel {
    /// A static name; interned on first use.
    Static(&'static str),
    /// A formatted name; interned (the temporary is dropped).
    Owned(String),
    /// An already-interned name; stored as-is with no table lookup.
    Interned(Rc<str>),
}

impl From<&'static str> for ActorLabel {
    fn from(s: &'static str) -> Self {
        ActorLabel::Static(s)
    }
}

impl From<String> for ActorLabel {
    fn from(s: String) -> Self {
        ActorLabel::Owned(s)
    }
}

impl From<Rc<str>> for ActorLabel {
    fn from(s: Rc<str>) -> Self {
        ActorLabel::Interned(s)
    }
}

impl From<&Rc<str>> for ActorLabel {
    fn from(s: &Rc<str>) -> Self {
        ActorLabel::Interned(s.clone())
    }
}

/// One traced event: a point, or a span with its end.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp (core cycles): the point's time, or the
    /// span's start.
    pub time: Cycles,
    /// The span's end; `None` for a point event.
    pub end: Option<Cycles>,
    /// The acting entity, e.g. `"rank0"`, `"host"`, `"vdma1"`.
    /// Interned: events from the same actor share one allocation.
    pub actor: Rc<str>,
    /// Event category.
    pub cat: Category,
    /// Event kind, e.g. `"put"`, `"flag_set"`, `"chunk"`.
    pub kind: &'static str,
    /// Flow id of the message this hop belongs to, if any.
    pub flow: Option<u64>,
    /// Named payload fields.
    pub fields: Fields,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12}  {:<12} {:<9}", self.time, self.actor, self.cat.name())?;
        match self.end {
            Some(end) => write!(f, "[{}]..{end}", self.kind)?,
            None => write!(f, " {}", self.kind)?,
        }
        if let Some(flow) = self.flow {
            write!(f, " flow={flow}")?;
        }
        for (name, value) in &self.fields {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

struct TraceInner {
    events: RefCell<Vec<TraceEvent>>,
    /// Enabled-category bitmask, fixed at construction.
    mask: u8,
    /// Actor-name intern table; `Rc<str>: Borrow<str>` lets lookups
    /// avoid allocating.
    actors: RefCell<HashSet<Rc<str>>>,
}

impl TraceInner {
    fn intern(&self, name: &str) -> Rc<str> {
        let mut actors = self.actors.borrow_mut();
        match actors.get(name) {
            Some(rc) => rc.clone(),
            None => {
                let rc: Rc<str> = Rc::from(name);
                actors.insert(rc.clone());
                rc
            }
        }
    }

    fn resolve(&self, label: ActorLabel) -> Rc<str> {
        match label {
            // Already interned: store as-is, no hash, no allocation.
            ActorLabel::Interned(rc) => rc,
            ActorLabel::Static(s) => self.intern(s),
            ActorLabel::Owned(s) => self.intern(&s),
        }
    }
}

/// A shared, optionally-enabled structured trace.
///
/// Disabled traces (and disabled categories) are free: the recording
/// methods return after one branch, without evaluating the actor or field
/// closures.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Rc<TraceInner>>,
}

impl Trace {
    /// A disabled trace (records nothing).
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// An enabled trace collecting every category.
    pub fn enabled() -> Self {
        Trace::with_categories(&Category::ALL)
    }

    /// An enabled trace collecting only the given categories.
    pub fn with_categories(cats: &[Category]) -> Self {
        let mask = cats.iter().fold(0u8, |m, c| m | c.bit());
        Trace {
            inner: Some(Rc::new(TraceInner {
                events: RefCell::new(Vec::new()),
                mask,
                actors: RefCell::new(HashSet::new()),
            })),
        }
    }

    /// Whether any category is being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern an actor name, returning the shared `Rc<str>` for it.
    ///
    /// Hot call sites cache this once and return clones of it from
    /// their actor closures — recording then stores the label without
    /// hashing or allocating. On a disabled trace this still returns a
    /// usable (but untabled) `Rc<str>`.
    pub fn intern(&self, name: &str) -> Rc<str> {
        match &self.inner {
            Some(inner) => inner.intern(name),
            None => Rc::from(name),
        }
    }

    /// Whether events of `cat` are recorded: one branch on a disabled
    /// trace.
    pub fn records(&self, cat: Category) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.mask & cat.bit() != 0)
    }

    #[allow(clippy::too_many_arguments)] // internal funnel for every emit path
    fn push<A: Into<ActorLabel>>(
        &self,
        time: Cycles,
        end: Option<Cycles>,
        cat: Category,
        kind: &'static str,
        flow: Option<u64>,
        actor: impl FnOnce() -> A,
        fields: impl FnOnce() -> Fields,
    ) {
        if let Some(inner) = self.inner.as_ref().filter(|inner| inner.mask & cat.bit() != 0) {
            let actor = inner.resolve(actor().into());
            inner.events.borrow_mut().push(TraceEvent {
                time,
                end,
                actor,
                cat,
                kind,
                flow,
                fields: fields(),
            });
        }
    }

    /// Record a point event, tagged with `flow` if it belongs to a
    /// message. `actor` and `fields` are only evaluated when the category
    /// is enabled.
    pub fn instant<A: Into<ActorLabel>>(
        &self,
        time: Cycles,
        cat: Category,
        kind: &'static str,
        flow: Option<u64>,
        actor: impl FnOnce() -> A,
        fields: impl FnOnce() -> Fields,
    ) {
        self.push(time, None, cat, kind, flow, actor, fields);
    }

    /// Record a span over `[start, end]`, tagged with `flow` if it
    /// belongs to a message. Called when the span closes, so `end` is
    /// the current virtual time; `start` may be any earlier time.
    /// `actor` and `fields` are only evaluated when the category is
    /// enabled.
    #[allow(clippy::too_many_arguments)] // the instant's arguments plus a start
    pub fn span<A: Into<ActorLabel>>(
        &self,
        start: Cycles,
        end: Cycles,
        cat: Category,
        kind: &'static str,
        flow: Option<u64>,
        actor: impl FnOnce() -> A,
        fields: impl FnOnce() -> Fields,
    ) {
        self.push(start, Some(end), cat, kind, flow, actor, fields);
    }

    /// Run `f` over the recorded events without cloning them.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        match &self.inner {
            Some(inner) => f(&inner.events.borrow()),
            None => f(&[]),
        }
    }

    /// Snapshot of all events in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_events(|ev| ev.to_vec())
    }

    /// Render as an aligned text timeline (the Figure 2 view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.with_events(|events| {
            for e in events {
                out.push_str(&e.to_string());
                out.push('\n');
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_skips_closures() {
        let t = Trace::disabled();
        t.instant(
            1,
            Category::Protocol,
            "x",
            None,
            || -> &'static str { panic!("actor must not run") },
            || panic!("fields must not run"),
        );
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_collects_in_order() {
        let t = Trace::enabled();
        t.instant(5, Category::Protocol, "put", None, || "rank0", || fields![bytes = 64u64]);
        t.instant(9, Category::Protocol, "get", None, || "rank1", Vec::new);
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].time, 5);
        assert_eq!(ev[0].fields, vec![("bytes", FieldValue::U64(64))]);
        assert_eq!(&*ev[1].actor, "rank1");
    }

    #[test]
    fn category_filter_drops_and_skips() {
        let t = Trace::with_categories(&[Category::Pcie]);
        t.instant(
            1,
            Category::Protocol,
            "x",
            None,
            || -> &'static str { panic!("filtered actor must not run") },
            || panic!("filtered fields must not run"),
        );
        t.instant(2, Category::Pcie, "xfer", None, || "link0", Vec::new);
        let ev = t.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].cat, Category::Pcie);
    }

    #[test]
    fn a_span_is_one_record() {
        let t = Trace::enabled();
        t.span(10, 25, Category::Vdma, "dma", None, || "vdma0", || fields![bytes = 4096u64]);
        let ev = t.events();
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].time, ev[0].end), (10, Some(25)));
        assert_eq!(ev[0].fields, vec![("bytes", FieldValue::U64(4096))]);
        assert_eq!(ev[0].to_string(), "          10  vdma0        vdma     [dma]..25 bytes=4096");
    }

    #[test]
    fn span_brackets_an_awaited_body() {
        let sim = crate::Sim::new();
        let t = Trace::enabled();
        let (sim2, t2) = (sim.clone(), t.clone());
        sim.spawn(async move {
            sim2.delay(5).await;
            let v = span!(t2, sim2, Category::Vdma, "dma", Some(7), || "vdma0", [bytes = 64u64], {
                sim2.delay(20).await;
                42
            });
            assert_eq!(v, 42);
        });
        sim.run().expect("clean run");
        let ev = t.events();
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].time, ev[0].end, ev[0].flow), (5, Some(25), Some(7)));
        assert_eq!(ev[0].fields, vec![("bytes", FieldValue::U64(64))]);
        assert_eq!((&*ev[0].actor, ev[0].kind), ("vdma0", "dma"));
    }

    #[test]
    fn span_builds_no_fields_for_an_unrecorded_category() {
        let sim = crate::Sim::new();
        let t = Trace::with_categories(&[Category::Pcie]);
        let built = std::cell::Cell::new(false);
        let fields_built = || {
            built.set(true);
            1u64
        };
        span!(t, sim, Category::Vdma, "dma", None, || "vdma0", [bytes = fields_built()], {});
        assert!(!built.get());
        assert!(t.events().is_empty());
    }

    #[test]
    fn filter_by_actor() {
        let t = Trace::enabled();
        t.instant(1, Category::App, "x", None, || "a", Vec::new);
        t.instant(2, Category::App, "y", None, || "b", Vec::new);
        t.instant(3, Category::App, "z", None, || "a", Vec::new);
        assert_eq!(t.events().iter().filter(|e| &*e.actor == "a").count(), 2);
        assert_eq!(t.events().iter().filter(|e| e.cat == Category::App).count(), 3);
    }

    #[test]
    fn render_contains_all_lines() {
        let t = Trace::enabled();
        t.instant(1, Category::Protocol, "one", None, || "a", || fields![n = 7u64]);
        t.span(2, 3, Category::Pcie, "two", None, || "b", Vec::new);
        let s = t.render();
        assert!(s.contains("one") && s.contains("two"));
        assert!(s.contains("n=7"));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn flow_ids_recorded_and_rendered() {
        let t = Trace::enabled();
        t.instant(1, Category::Protocol, "put", Some(42), || "rank0", Vec::new);
        t.span(2, 3, Category::Vdma, "dma", Some(42), || "host", Vec::new);
        t.instant(4, Category::Protocol, "idle", None, || "rank1", Vec::new);
        let ev = t.events();
        assert_eq!(ev[0].flow, Some(42));
        assert_eq!(ev[1].flow, Some(42));
        assert_eq!(ev[2].flow, None);
        assert!(t.render().contains("flow=42"));
    }

    #[test]
    fn with_events_avoids_clone_and_filters_match() {
        let t = Trace::enabled();
        t.instant(1, Category::App, "x", None, || "a", Vec::new);
        t.instant(2, Category::Pcie, "y", None, || "b", Vec::new);
        let n = t.with_events(|ev| ev.len());
        assert_eq!(n, 2);
        assert_eq!(t.with_events(|ev| ev.iter().filter(|e| e.cat == Category::Pcie).count()), 1);
        assert_eq!(Trace::disabled().with_events(|ev| ev.len()), 0);
    }
}
