//! Observability guarantees (DESIGN.md §"Observability"):
//!
//! 1. Determinism — two identical seeded runs export byte-identical
//!    metrics snapshots and Chrome traces (the exports contain only
//!    virtual-clock values, never wall-clock or iteration order noise).
//! 2. Zero perturbation — enabling metrics + full tracing must not move
//!    the virtual clock by a single cycle; observability reads the
//!    simulation, it never participates in it.
//! 3. Zero cost when disabled — a disabled trace must not even evaluate
//!    the label/field closures.

mod common;

use des::audit::{self, DecisionKind};
use des::trace::Category;
use proptest::prelude::*;
use vscc::CommScheme;
use vscc_apps::pingpong;

#[test]
fn exports_are_byte_identical_across_runs() {
    let run = || {
        let (_, trace, reg) = pingpong::interdevice_observed(CommScheme::LocalPutLocalGet, 6000, 2);
        (reg.snapshot().to_json(), des::obs::chrome_trace_json("pingpong", &trace))
    };
    let (metrics_a, trace_a) = run();
    let (metrics_b, trace_b) = run();
    assert_eq!(metrics_a, metrics_b, "metrics snapshot must be deterministic");
    assert_eq!(trace_a, trace_b, "Chrome trace must be deterministic");
    // Sanity: the artifacts are non-trivial and carry every layer.
    assert!(trace_a.starts_with("{\"traceEvents\":["));
    assert!(trace_a.contains("\"cat\":\"protocol\""));
    assert!(trace_a.contains("\"cat\":\"vdma\""));
    assert!(metrics_a.contains("\"host.vdma_ops\""));
    assert!(metrics_a.contains("\"scc.d0.mpb.writes\""));
    assert!(metrics_a.contains("\"pcie.link0.egress.bytes\""));
}

#[test]
fn observability_does_not_perturb_virtual_time() {
    // Same workload with observability off (the default) and fully on:
    // the virtual completion time must match exactly.
    let plain = pingpong::interdevice(CommScheme::LocalPutLocalGet, 8192, 2);
    let (observed, trace, _) =
        pingpong::interdevice_observed(CommScheme::LocalPutLocalGet, 8192, 2);
    assert!(trace.is_enabled());
    assert!(!trace.events().is_empty(), "the observed run must actually record events");
    assert_eq!(plain, observed, "tracing/metrics must not shift the virtual clock");
}

#[test]
fn disabled_trace_never_evaluates_closures() {
    let t = des::trace::Trace::disabled();
    t.instant(
        0,
        Category::App,
        "never",
        None,
        || -> &'static str { panic!("actor closure must not run when tracing is disabled") },
        || panic!("fields closure must not run when tracing is disabled"),
    );
    t.span(
        0,
        1,
        Category::Protocol,
        "never",
        None,
        || -> &'static str { panic!("actor closure must not run when tracing is disabled") },
        || panic!("fields closure must not run when tracing is disabled"),
    );
    assert!(t.events().is_empty());
}

#[test]
fn flow_ids_survive_the_chrome_export_and_pair_up() {
    let (_, trace, _) = pingpong::interdevice_observed(CommScheme::LocalPutLocalGet, 6000, 2);
    let flows: std::collections::BTreeSet<u64> =
        trace.events().iter().filter_map(|e| e.flow).collect();
    assert!(!flows.is_empty(), "provenance must stamp flow ids on the hops");
    let json = des::obs::chrome_trace_json("pingpong", &trace);
    // The export opens exactly one arrow chain per multi-hop flow ("s")
    // and closes every one of them ("f").
    let count = |needle: &str| json.matches(needle).count();
    let starts = count("\"cat\":\"flow\",\"ph\":\"s\"");
    let finishes = count("\"cat\":\"flow\",\"ph\":\"f\"");
    assert!(starts > 0, "multi-hop messages must draw arrows");
    assert_eq!(starts, finishes, "every flow arrow must start and finish exactly once");
    for flow in &flows {
        assert!(json.contains(&format!("\"flow\":{flow}")), "flow {flow} lost in the export");
    }
}

#[test]
fn critpath_attribution_sums_to_measured_latency() {
    for scheme in [CommScheme::LocalPutRemoteGet, CommScheme::LocalPutLocalGet] {
        let (p, trace, _) = pingpong::interdevice_observed(scheme, 8192, 1);
        let attr = des::critpath::run_attribution(&trace, 0, p.cycles);
        assert_eq!(
            attr.total(),
            p.cycles,
            "{scheme:?}: phases must sum to the measured end-to-end time"
        );
    }
}

#[test]
fn clean_runs_record_no_monitor_violations() {
    let sim = des::Sim::new();
    let v = vscc::VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .monitor_fail_fast(false)
        .build();
    let s = pingpong::pair_session(&v).build();
    s.run_app(|r| async move {
        if r.id() == 0 {
            r.send(&[7u8; 6000], 1).await;
        } else {
            let mut buf = [0u8; 6000];
            r.recv(&mut buf, 0).await;
        }
    })
    .expect("clean run");
    assert!(v.devices.iter().all(|d| d.monitor().is_some()), "monitors are on every device");
    assert!(v.violations().is_empty(), "a correct run must not trip any invariant");
}

#[test]
fn seeded_window_violation_is_caught_by_the_monitor() {
    // A stray put into the receive half of the payload area — the window
    // the inter-device schemes deliver into — must be caught by the
    // window-discipline monitor directly, not (much later and much more
    // obscurely) by an application's payload verification.
    let sim = des::Sim::new();
    let v = vscc::VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .monitor_fail_fast(false)
        .build();
    let s = pingpong::pair_session(&v).build();
    s.run_app(|r| async move {
        if r.id() == 0 {
            let who = r.who();
            let bad = rcce::layout::payload(who, vscc::schemes::SEND_AREA_BYTES);
            r.ctx().core.put(bad, &[0xEE; 64], None).await;
        }
    })
    .expect("seeded run");
    let violations = v.violations();
    assert!(
        violations.iter().any(|viol| viol.check == "window_discipline"),
        "expected a window_discipline violation, got {violations:?}"
    );
}

// ---- time-series plane (DESIGN.md §5f) ----

/// Drop the sampler's own `obs.*` footprint from a snapshot, leaving the
/// metrics the simulation itself produced.
fn non_obs(snap: des::obs::Snapshot) -> Vec<(String, des::obs::MetricValue)> {
    snap.entries.into_iter().filter(|(name, _)| !name.starts_with("obs.")).collect()
}

#[test]
fn rebuilt_protocols_share_one_registrys_metrics() {
    // The repository benchmark's traced pass builds the session twice
    // over one system and wraps a second copy of the scheme's protocol:
    // every `vscc.window.*` gauge and `rcce.*` instrument is asked for
    // again on the same registry. Get-or-create must hand back the
    // existing instruments — no panic, no extra name.
    let names = |rebuild: bool| {
        let sim = des::Sim::new();
        let scheme = CommScheme::LocalPutLocalGet;
        let v = vscc::VsccBuilder::new(&sim, 2).scheme(scheme).build();
        let mut sb = v.session_builder();
        if rebuild {
            sb = v.session_builder().interdevice_protocol(scheme.protocol_with_obs(v.metrics()));
        }
        sb.build();
        let snap = v.metrics().snapshot();
        snap.entries.into_iter().map(|(name, _)| name).collect::<Vec<_>>()
    };
    let single = names(false);
    assert!(single.iter().any(|n| n == "vscc.window.vdma_send.bytes"));
    assert!(single.iter().any(|n| n == "rcce.send.lock_wait_cycles"));
    assert_eq!(names(true), single, "a rebuilt pass must register the same name set");
}

#[test]
fn timeseries_export_is_byte_identical_across_runs() {
    let run = || {
        let (_, trace, _, ts) = pingpong::interdevice_sampled(
            CommScheme::LocalPutLocalGet,
            8192,
            2,
            des::obs::DEFAULT_CADENCE,
        );
        (ts.to_json(), des::obs::chrome_trace_json("pingpong", &trace))
    };
    let (ts_a, trace_a) = run();
    let (ts_b, trace_b) = run();
    assert_eq!(ts_a, ts_b, "time-series export must be deterministic");
    assert_eq!(trace_a, trace_b, "trace export must be deterministic");
    // Each datum has one home: the sampled series live in the time-series
    // export, and the trace export holds no copy of them.
    for name in [
        "pcie.link0.egress.busy_cycles",
        "vscc.window.vdma_send.bytes",
        "host.commtask.d0.busy_cycles",
    ] {
        assert!(ts_a.contains(name), "{name} missing from the time-series export");
        assert!(!trace_a.contains(name), "{name} copied into the trace export");
    }
    assert!(!trace_a.contains("\"ph\":\"C\""), "the trace export holds no counter samples");
}

#[test]
fn sampler_does_not_perturb_the_run() {
    // Same workload bare, traced, and traced + sampled: the virtual
    // completion time and every non-`obs.*` metric must match exactly.
    let plain = pingpong::interdevice(CommScheme::LocalPutLocalGet, 8192, 2);
    let (observed, _, reg_observed) =
        pingpong::interdevice_observed(CommScheme::LocalPutLocalGet, 8192, 2);
    let (sampled, _, reg_sampled, ts) = pingpong::interdevice_sampled(
        CommScheme::LocalPutLocalGet,
        8192,
        2,
        des::obs::DEFAULT_CADENCE,
    );
    assert!(ts.samples() > 0, "the sampler must actually have fired");
    assert_eq!(plain, sampled, "the sampler daemon must not shift the virtual clock");
    assert_eq!(observed, sampled, "sampling on top of tracing must change nothing");
    assert_eq!(
        non_obs(reg_observed.snapshot()),
        non_obs(reg_sampled.snapshot()),
        "sampling must not move any non-obs metric"
    );
}

#[test]
fn windowed_quantiles_match_scalar_oracle() {
    let reg = des::obs::Registry::new();
    let h = reg.histogram("lat");
    let ts = des::obs::TimeSeries::manual(0, &reg, 100);
    // Three windows with very different shapes; the middle one is empty,
    // so a leak across the reset would be unmissable.
    let windows: [&[u64]; 3] = [&[5, 9, 13, 200], &[], &[1000, 1001, 1002, 40_000]];
    let mut t = 0;
    for w in &windows {
        for &v in *w {
            h.record(v);
        }
        t += 100;
        ts.sample_now(t);
    }
    let series = ts.series();
    let s = series.iter().find(|s| s.name == "lat").expect("histogram series tracked");
    assert_eq!(s.points.len(), windows.len());
    for ((_, point), w) in s.points.iter().zip(&windows) {
        let des::obs::PointValue::Window { count, p50, p99 } = *point else {
            panic!("histogram series must sample Window points, got {point:?}")
        };
        assert_eq!(count, w.len() as u64, "window count must be the interval's recordings");
        // Oracle 1: a fresh histogram holding only this window's values
        // must give the exact same interpolated quantiles (proves the
        // delta-bucket reset discipline leaks nothing across windows).
        let oracle = des::stats::Log2Histogram::new();
        for &v in *w {
            oracle.record(v);
        }
        let expect =
            |q: f64| des::stats::log2_quantile_interpolated(&oracle.buckets(), count, u64::MAX, q);
        assert_eq!(p50, expect(0.5), "window {w:?}");
        assert_eq!(p99, expect(0.99), "window {w:?}");
        // Oracle 2: the log2 buckets bound each quantile within a factor
        // of two of the true scalar quantile.
        if !w.is_empty() {
            let mut sorted = w.to_vec();
            sorted.sort_unstable();
            let scalar = |q: f64| sorted[((w.len() as f64 * q).ceil() as usize).max(1) - 1];
            for (got, q) in [(p50, 0.5), (p99, 0.99)] {
                let want = scalar(q);
                assert!(
                    got / 2 <= want && got >= want / 2,
                    "q={q}: interpolated {got} vs scalar {want} in {w:?}"
                );
            }
        } else {
            assert_eq!((p50, p99), (0, 0), "an empty window has no quantiles");
        }
    }
}

#[test]
fn cadence_sweep_changes_only_the_sampling() {
    // Two very different cadences over the identical workload: the run's
    // outcome and every non-obs metric must be byte-identical — only the
    // number of samples may differ.
    let run =
        |cadence| pingpong::interdevice_sampled(CommScheme::LocalPutRemoteGet, 8192, 2, cadence);
    let (p_fast, _, reg_fast, ts_fast) = run(10_000);
    let (p_slow, _, reg_slow, ts_slow) = run(40_000);
    assert!(ts_fast.samples() > ts_slow.samples(), "a faster cadence takes more samples");
    assert_eq!(p_fast, p_slow, "the cadence must not shift the virtual clock");
    assert_eq!(
        non_obs(reg_fast.snapshot()),
        non_obs(reg_slow.snapshot()),
        "the cadence must not move any non-obs metric"
    );
}

// ---- audit plane (DESIGN.md §5g) ----

/// Fold `decisions` through a fresh audit stream and return the final
/// chain hash (the detection-power oracle: any change to the decision
/// sequence must move this value).
fn chain_of(decisions: &[(u64, DecisionKind, u64, u64)]) -> u64 {
    let a = audit::Audit::new(audit::DEFAULT_EPOCH_CYCLES);
    let guard = a.install();
    for &(cycle, kind, x, y) in decisions {
        audit::record_at(cycle, kind, x, y);
    }
    drop(guard);
    a.chain()
}

#[test]
fn audit_export_is_byte_identical_across_fresh_threads() {
    // The audit sink is thread-local; a fresh thread per run is exactly
    // how the benches and the golden render it.
    let run = || {
        std::thread::spawn(|| {
            let b = pingpong::fig_platform(CommScheme::LocalPutLocalGet);
            let (_, audit) =
                vscc_bench::audited(None, || pingpong::interdevice_run(b, 8192, 1, None));
            audit.to_json()
        })
        .join()
        .expect("run thread")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "audit export must be deterministic");
    assert!(a.contains("\"schema\": \"vscc-audit-v1\""));
    // The stream really covers the engine: scheduler, timers, payloads.
    for kind in ["spawn", "poll", "wake", "timer_arm", "timer_fire", "payload"] {
        assert!(a.contains(&format!("\"{kind}\":")), "no {kind} decisions audited");
    }
    assert_eq!(audit::diff_exports(&a, &b), Ok(None));
}

#[test]
fn audit_does_not_perturb_the_run() {
    // Same workload bare and audited: the virtual completion time must
    // match exactly — the audit stream reads decisions, it never makes
    // them.
    let plain = pingpong::interdevice(CommScheme::LocalPutLocalGet, 8192, 2);
    let b = pingpong::fig_platform(CommScheme::LocalPutLocalGet);
    let ((audited, ..), audit) =
        vscc_bench::audited(None, || pingpong::interdevice_run(b, 8192, 2, None));
    assert!(audit.total_decisions() > 0, "the audited run must actually fold decisions");
    assert_eq!(plain, audited, "auditing must not shift the virtual clock");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Detection power: swapping two adjacent timer firings — the
    /// classic timer-ordering bug — flips the epoch digest.
    #[test]
    fn audit_detects_a_timer_reorder(
        prefix in proptest::collection::vec(
            (0usize..audit::KIND_COUNT, 0u64..1 << 32, 0u64..1 << 32), 0..16),
        deadlines in proptest::collection::vec(1u64..1_000_000, 2..12),
        swap in 0usize..10,
    ) {
        let mut base: Vec<(u64, DecisionKind, u64, u64)> = prefix
            .iter()
            .map(|&(k, a, b)| (0, DecisionKind::ALL[k], a, b))
            .collect();
        let fires = prefix.len();
        // Timer pops carry (deadline, seq): every pop is distinct.
        base.extend(
            deadlines.iter().enumerate().map(|(seq, &d)| {
                (0, DecisionKind::TimerFire, d, seq as u64)
            }),
        );
        let i = fires + swap % (deadlines.len() - 1);
        let mut reordered = base.clone();
        reordered.swap(i, i + 1);
        prop_assert!(
            chain_of(&base) != chain_of(&reordered),
            "swapping timer pops {} and {} must change the digest", i, i + 1
        );
    }

    /// Detection power: one extra (spurious) wake-up changes the digest.
    #[test]
    fn audit_detects_an_extra_wake(
        base in proptest::collection::vec(
            (0usize..audit::KIND_COUNT, 0u64..1 << 32, 0u64..1 << 32), 1..24),
        at in 0usize..24,
        task in 0u64..64,
    ) {
        let decisions: Vec<(u64, DecisionKind, u64, u64)> = base
            .iter()
            .map(|&(k, a, b)| (0, DecisionKind::ALL[k], a, b))
            .collect();
        let mut with_extra = decisions.clone();
        with_extra.insert(at % (decisions.len() + 1), (0, DecisionKind::Wake, task, 0));
        prop_assert!(
            chain_of(&decisions) != chain_of(&with_extra),
            "an injected wake must change the digest"
        );
    }

    /// Detection power: flipping a single payload byte at a tunnel
    /// boundary changes the epoch digest (the payload digest rides the
    /// chain, so data corruption is as visible as scheduling drift).
    #[test]
    fn audit_detects_a_flipped_payload_byte(
        bytes in proptest::collection::vec(any::<u8>(), 1..512),
        flip in 0usize..512,
        bit in 0u8..8,
    ) {
        let digest = |payload: &[u8]| {
            let a = audit::Audit::new(audit::DEFAULT_EPOCH_CYCLES);
            let guard = a.install();
            audit::record_payload(0, payload);
            drop(guard);
            a.chain()
        };
        let mut flipped = bytes.clone();
        let i = flip % bytes.len();
        flipped[i] ^= 1 << bit;
        prop_assert!(
            digest(&bytes) != digest(&flipped),
            "flipping byte {} must change the digest", i
        );
    }
}

/// The acceptance scenario: two runs differing ONLY in the fault-plan
/// seed, bisected in two passes — plain exports name the first divergent
/// epoch, zoomed reruns name the exact first divergent decision.
#[test]
fn seeded_divergence_is_bisected_to_the_first_decision() {
    let run = |seed: u64, zoom: Option<u64>| {
        std::thread::spawn(move || {
            let spec = des::faultplan::FaultSpec::parse(&format!(
                "seed={seed},corrupt=0.2,recovery=on,watchdog=20000000"
            ))
            .expect("valid fault spec");
            let b = pingpong::fig_platform(CommScheme::LocalPutLocalGet).faults(spec);
            let (_, audit) =
                vscc_bench::audited(zoom, || pingpong::interdevice_run(b, 8192, 1, None));
            audit.to_json()
        })
        .join()
        .expect("run thread")
    };

    // Pass 1: plain exports -> first divergent epoch.
    let (a, b) = (run(1, None), run(2, None));
    let divergence = audit::diff_exports(&a, &b).expect("comparable exports");
    let Some(audit::Divergence::Epoch { epoch, a: ca, b: cb }) = divergence else {
        panic!("two seeds must diverge at epoch granularity, got {divergence:?}")
    };
    assert!(ca.is_some() && cb.is_some(), "both sides fold decisions in the divergent epoch");

    // Pass 2: re-run both zoomed on that epoch -> first divergent decision.
    let (az, bz) = (run(1, Some(epoch)), run(2, Some(epoch)));
    assert!(az.contains("\"zoom_dropped\": 0"), "the zoom ring must hold the whole epoch");
    assert!(bz.contains("\"zoom_dropped\": 0"), "the zoom ring must hold the whole epoch");
    let divergence = audit::diff_exports(&az, &bz).expect("comparable zoomed exports");
    let Some(audit::Divergence::Decision { index, a: da, b: db }) = divergence else {
        panic!("zoomed exports must diverge at decision granularity, got {divergence:?}")
    };
    let (da, db) = (da.expect("side A decision"), db.expect("side B decision"));
    // The runs differ only in the fault RNG seed, so the exact first
    // divergent decision is the first fault-plan RNG draw: same kind,
    // same virtual cycle, different drawn word.
    assert_eq!(da.kind, "rng_draw", "decision #{index}: {da}");
    assert_eq!(db.kind, "rng_draw", "decision #{index}: {db}");
    assert_eq!(da.cycle, db.cycle, "the diverging draw happens at the same virtual time");
    assert_ne!(da.a, db.a, "the drawn words must differ between seeds");
    // And the decision really sits inside the named epoch.
    let cadence = audit::DEFAULT_EPOCH_CYCLES;
    assert!(da.cycle >= epoch * cadence && da.cycle < (epoch + 1) * cadence);
}

#[test]
fn category_filter_is_selective() {
    // A Protocol-only trace over the same run records protocol spans but
    // drops host-layer Vdma/Pcie events.
    let sim = des::Sim::new();
    let v = vscc::VsccBuilder::new(&sim, 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .trace_categories(&[Category::Protocol])
        .build();
    let s = pingpong::pair_session(&v).build();
    s.run_app(|r| async move {
        if r.id() == 0 {
            r.send(&[7u8; 6000], 1).await;
        } else {
            let mut buf = [0u8; 6000];
            r.recv(&mut buf, 0).await;
        }
    })
    .expect("traced run");
    let events = v.trace().events();
    assert!(events.iter().any(|e| e.cat == Category::Protocol));
    assert!(events.iter().all(|e| e.cat == Category::Protocol));
}

#[test]
fn health_transitions_ride_trace_metrics_and_timeseries() {
    // fig_recovery's healing run, observed end to end:
    // an ack-loss storm demotes the (0,1) pair, the storm ends, canary
    // probes re-promote it. Every layer of the observability plane must
    // carry the arc — Health-category trace instants, `host.health.*`
    // metrics, and the health gauges as time-series level tracks.
    let e = common::healing_exports();
    let snap = des::obs::Snapshot::from_json(&e.metrics).expect("metrics parse");
    let counter = |name: &str| match snap.entries.iter().find(|(n, _)| n == name) {
        Some((_, des::obs::MetricValue::Counter { value })) => *value,
        other => panic!("no counter {name}: {other:?}"),
    };
    assert!(counter("host.fallback.demotions") >= 1 && counter("host.health.promotions") >= 1);

    // Trace: the arc's transitions land in the Health category and
    // survive the Chrome export with their pair operands.
    let health: Vec<des::obs::ChromeLine> =
        des::obs::chrome_lines(&e.trace).filter(|l| l.cat() == Some("health")).collect();
    let names: std::collections::BTreeSet<&str> = health.iter().map(|l| l.name).collect();
    assert!(!names.is_empty(), "health transitions must be traced");
    for needed in ["demote", "probe_start", "promote"] {
        assert!(names.contains(needed), "missing {needed} in {names:?}");
    }
    assert!(health
        .iter()
        .all(|l| l.arg_num("src_dev").is_some() && l.arg_num("dst_dev").is_some()));

    // Metrics: the health plane reports under `host.health.*`.
    for name in ["host.health.promotions", "host.health.probe_sent", "host.health.degraded_pairs"] {
        assert!(e.metrics.contains(&format!("\"{name}\"")), "{name} missing from metrics");
    }

    // Time series: the degraded-pairs gauge rides the export as a level
    // track (it rose to 1 during the storm and fell back to 0).
    assert!(
        e.timeseries.contains("host.health.degraded_pairs"),
        "health gauges must become time-series tracks"
    );
}

// ---- the VSCC_OBS front door: readers, lints and the run report ----

#[test]
fn fig6b_trace_and_timeseries_exports_lint_clean() {
    let e = common::fig6b_exports();
    assert_eq!(des::obs::lint_trace(&e.trace), Vec::<String>::new());
    assert_eq!(des::obs::timeseries::lint(&e.timeseries), Vec::<String>::new());
    // The lints have teeth on real exports: a span without a numeric
    // duration and an out-of-range busy percent are both named.
    assert!(e.trace.contains(",\"dur\":"), "the export must hold a span");
    let broken = e.trace.replacen(",\"dur\":", ",\"dur\":-", 1);
    assert!(des::obs::lint_trace(&broken).iter().any(|v| v.contains("without numeric dur")));
    let busy = e.timeseries.lines().find(|l| l.contains("\"kind\": \"busy\"")).expect("busy");
    let hot = busy.replacen(", 0]", ", 101]", 1);
    assert_ne!(busy, hot, "the busy series must hold an idle sample to corrupt");
    let bad = e.timeseries.replacen(busy, &hot, 1);
    assert!(des::obs::timeseries::lint(&bad).iter().any(|v| v.contains("Busy(101)")));
}

#[test]
fn run_report_is_byte_identical_from_the_same_exports() {
    let e = common::fig6b_exports();
    let report = e.report().expect("exports parse");
    assert_eq!(report, e.report().expect("exports parse"), "same exports, same bytes");
    assert_eq!(
        report,
        common::fig6b_exports().report().unwrap(),
        "a rerun renders the same report"
    );
    for section in ["## Headline metrics", "## Critical path", "## Utilization", "## Audit"] {
        assert!(report.contains(section), "{section} missing");
    }
    assert!(!report.contains("## Faults & recovery"), "a clean run has no fault section");
    // Through the directory, as `vscc_obs report <dir>` reads it back.
    let dir = std::env::temp_dir().join(format!("vscc-obs-report-{}", std::process::id()));
    let written = e.write_dir(&dir).expect("write exports");
    assert_eq!(
        written.iter().map(|(f, _)| *f).collect::<Vec<_>>(),
        des::obs::report::Exports::FILES
    );
    let back = des::obs::report::Exports::read_dir(&dir).expect("read exports back");
    let on_disk = std::fs::read_to_string(dir.join("report.md")).expect("report.md");
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert_eq!(back, e);
    assert_eq!(on_disk, report);
}

/// The report's headline counts the traced spans and instants of the
/// designated fig6b run, not the flow-arrow points that share its trace
/// export.
#[test]
fn run_report_counts_spans_and_instants() {
    let report = common::fig6b_exports().report().expect("exports parse");
    let headline = report.lines().nth(2).expect("headline line");
    assert!(headline.starts_with("76 spans and 28 instants;"), "{headline}");
}

#[test]
fn export_readers_round_trip_the_writers() {
    let e = common::fig6b_exports();
    let snap = des::obs::Snapshot::from_json(&e.metrics).expect("metrics parse");
    assert_eq!(snap.to_json(), e.metrics, "metrics reader must invert the writer");
    let ts = des::obs::timeseries::parse_json(&e.timeseries).expect("timeseries parse");
    assert!(ts.series.len() > 10 && ts.samples > 0);
    assert!(des::obs::timeseries::diff(&ts.series, &ts.series).is_empty());
    // One shifted sample is named with its index and virtual time.
    let mut shifted = ts.series.clone();
    let rate = shifted.iter_mut().find(|s| s.kind == des::obs::SeriesKind::Rate).expect("a rate");
    let t = rate.points[1].0;
    rate.points[1].1 = des::obs::PointValue::Rate(u64::MAX);
    let d = des::obs::timeseries::diff(&ts.series, &shifted);
    assert_eq!(d.len(), 1);
    assert!(d[0].contains("first divergent sample #1: Rate("), "{}", d[0]);
    assert!(d[0].ends_with(&format!("at t={t} -> Rate({}) at t={t}", u64::MAX)), "{}", d[0]);
}
