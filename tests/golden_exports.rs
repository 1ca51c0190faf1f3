//! Golden-file regression for the observability exports on the fig6b
//! workload (inter-device ping-pong, every scheme), plus the Fig. 2
//! on-chip protocol timelines, the critical-path tables of both, and the
//! `report.md` of two designated `VSCC_OBS` runs (fig6b's and the
//! storm-then-quiet healing run, whose report carries the health
//! timeline).
//!
//! The zero-copy payload plane (and any future data-path change) must
//! not perturb virtual time or metrics: a clean run's Chrome-trace and
//! metrics exports are required to stay **byte-identical**. This
//! test renders both exports for each scheme at a sub-chunk and an
//! over-chunk size and compares them against the committed goldens in
//! `tests/goldens/`.
//!
//! Regenerate (only when an *intentional* timing/metrics change lands)
//! with:
//!
//! ```sh
//! VSCC_GOLDEN_REGEN=1 cargo test --test golden_exports
//! ```

mod common;

use common::assert_matches_golden;
use vscc::CommScheme;
use vscc_apps::pingpong;
use vscc_bench::fig2;

const SCHEMES: [(&str, CommScheme); 5] = [
    ("simple_routing", CommScheme::SimpleRouting),
    ("remote_put_hwack", CommScheme::RemotePutHwAck),
    ("remote_put_wcb", CommScheme::RemotePutWcb),
    ("local_put_remote_get", CommScheme::LocalPutRemoteGet),
    ("local_put_local_get", CommScheme::LocalPutLocalGet),
];

/// 1 KiB stays inside one protocol chunk; 8 KiB crosses the MPB window
/// boundary the fig6b dip analysis cares about.
const SIZES: [usize; 2] = [1024, 8192];

fn render_exports() -> (String, String) {
    let mut traces = String::new();
    let mut metrics = String::new();
    for (name, scheme) in SCHEMES {
        for size in SIZES {
            let (point, trace, reg) = pingpong::interdevice_observed(scheme, size, 1);
            traces.push_str(&format!("=== {name} size={size} cycles={} ===\n", point.cycles));
            traces.push_str(&des::obs::chrome_trace_json("pingpong", &trace));
            traces.push('\n');
            metrics.push_str(&format!("=== {name} size={size} cycles={} ===\n", point.cycles));
            metrics.push_str(&reg.snapshot().to_json());
            metrics.push('\n');
        }
    }
    (traces, metrics)
}

/// The time-series export golden: the two headline schemes,
/// sampled at the default cadence.
fn render_timeseries() -> String {
    let mut out = String::new();
    for (name, scheme) in [
        ("local_put_remote_get", CommScheme::LocalPutRemoteGet),
        ("local_put_local_get", CommScheme::LocalPutLocalGet),
    ] {
        let (point, _, _, ts) =
            pingpong::interdevice_sampled(scheme, 8192, 1, des::obs::DEFAULT_CADENCE);
        out.push_str(&format!("=== {name} size=8192 cycles={} ===\n", point.cycles));
        out.push_str(&ts.to_json());
    }
    out
}

/// The audit export golden: the two headline schemes audited at
/// the default epoch cadence. Rendered on a dedicated thread because
/// the audit sink is thread-local.
fn render_audit() -> String {
    std::thread::spawn(|| {
        let mut out = String::new();
        for (name, scheme) in [
            ("local_put_remote_get", CommScheme::LocalPutRemoteGet),
            ("local_put_local_get", CommScheme::LocalPutLocalGet),
        ] {
            let ((point, ..), audit) = vscc_bench::audited(None, || {
                pingpong::interdevice_run(pingpong::fig_platform(scheme), 8192, 1, None)
            });
            out.push_str(&format!("=== {name} size=8192 cycles={} ===\n", point.cycles));
            out.push_str(&audit.to_json());
        }
        out
    })
    .join()
    .expect("render thread")
}

/// Fig. 2's two runs, named as in the goldens, with their completion
/// cycles and traces. The fig6b goldens cover cross-device pairs only, so
/// these are what pin the on-chip protocols' hops.
fn onchip_runs() -> Vec<(&'static str, u64, des::trace::Trace)> {
    [("blocking", false), ("pipelined", true)]
        .into_iter()
        .map(|(name, pipelined)| {
            let (cycles, obs) = fig2::run(pipelined);
            (name, cycles, obs.trace)
        })
        .collect()
}

/// Fig. 2's runs rendered as text timelines.
fn render_onchip_timelines() -> String {
    let mut out = String::new();
    for (name, cycles, trace) in onchip_runs() {
        out.push_str(&format!("=== {name} size={} cycles={cycles} ===\n", fig2::SIZE));
        out.push_str(&trace.render());
    }
    out
}

/// The critical-path golden: each fig6b export run's and each Fig. 2
/// run's whole-run phase attribution over `[0, cycles]`, as
/// `critpath::render_table` prints it.
fn render_critpath() -> String {
    let mut rows = Vec::new();
    for (name, scheme) in SCHEMES {
        for size in SIZES {
            let (point, trace, _) = pingpong::interdevice_observed(scheme, size, 1);
            let attr = des::critpath::run_attribution(&trace, 0, point.cycles);
            rows.push((format!("{name} size={size}"), attr));
        }
    }
    for (name, cycles, trace) in onchip_runs() {
        rows.push((
            format!("{name} size={}", fig2::SIZE),
            des::critpath::run_attribution(&trace, 0, cycles),
        ));
    }
    des::critpath::render_table("run", &rows)
}

#[test]
fn interdevice_exports_are_byte_identical_to_goldens() {
    let (traces, metrics) = render_exports();
    assert_matches_golden("trace", "fig6b_trace_exports.txt", &traces);
    assert_matches_golden("metrics", "fig6b_metrics_exports.txt", &metrics);
}

#[test]
fn interdevice_timeseries_export_matches_golden() {
    assert_matches_golden("timeseries", "fig6b_timeseries_exports.txt", &render_timeseries());
}

#[test]
fn interdevice_audit_export_matches_golden() {
    assert_matches_golden("audit", "fig6b_audit_exports.txt", &render_audit());
}

#[test]
fn onchip_protocol_timelines_match_golden() {
    assert_matches_golden("timeline", "fig2_onchip_timelines.txt", &render_onchip_timelines());
}

#[test]
fn critpath_tables_match_golden() {
    assert_matches_golden("critpath", "fig6b_critpath.txt", &render_critpath());
}

#[test]
fn run_reports_match_goldens() {
    for (file, exports) in [
        ("fig6b_report.md", common::fig6b_exports()),
        ("healing_report.md", common::healing_exports()),
    ] {
        assert_matches_golden("report", file, &exports.report().expect("exports parse"));
    }
}
