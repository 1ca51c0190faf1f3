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

use std::path::PathBuf;
use std::rc::Rc;

use des::trace::Trace;
use des::Sim;
use rcce::{PipelinedProtocol, SessionBuilder};
use scc::device::SccDevice;
use scc::geometry::DeviceId;
use vscc::CommScheme;

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
            let (point, trace, reg) = vscc_apps::pingpong::interdevice_observed(scheme, size, 1);
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
            vscc_apps::pingpong::interdevice_sampled(scheme, 8192, 1, des::obs::DEFAULT_CADENCE);
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
            let (point, audit) = vscc_apps::pingpong::interdevice_audited(
                scheme,
                8192,
                1,
                des::audit::DEFAULT_EPOCH_CYCLES,
                None,
                None,
            );
            out.push_str(&format!("=== {name} size=8192 cycles={} ===\n", point.cycles));
            out.push_str(&audit.to_json());
        }
        out
    })
    .join()
    .expect("render thread")
}

/// Fig. 2's two runs: one 16 KiB on-chip message under RCCE blocking and
/// under iRCCE pipelined, each with its completion cycle and trace. The
/// fig6b goldens cover cross-device pairs only, so these are what pin
/// the on-chip protocols' hops.
fn onchip_runs() -> Vec<(&'static str, usize, u64, Trace)> {
    let size = 16 * 1024;
    [("blocking", false), ("pipelined", true)]
        .into_iter()
        .map(|(name, pipelined)| {
            let sim = Sim::new();
            let dev = SccDevice::new(&sim, DeviceId(0));
            let mut b =
                SessionBuilder::new(&sim, vec![dev]).max_ranks(2).with_trace(Trace::enabled());
            if pipelined {
                b = b.onchip_protocol(Rc::new(PipelinedProtocol::default()));
            }
            let s = b.build();
            s.run_app(move |r| async move {
                if r.id() == 0 {
                    r.send(&vec![7u8; size], 1).await;
                } else {
                    let mut buf = vec![0u8; size];
                    r.recv(&mut buf, 0).await;
                }
            })
            .expect("protocol run");
            (name, size, sim.now(), s.trace())
        })
        .collect()
}

/// Fig. 2's runs rendered as text timelines.
fn render_onchip_timelines() -> String {
    let mut out = String::new();
    for (name, size, cycles, trace) in onchip_runs() {
        out.push_str(&format!("=== {name} size={size} cycles={cycles} ===\n"));
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
            let (point, trace, _) = vscc_apps::pingpong::interdevice_observed(scheme, size, 1);
            let attr = des::critpath::run_attribution(&trace, 0, point.cycles);
            rows.push((format!("{name} size={size}"), attr));
        }
    }
    for (name, size, cycles, trace) in onchip_runs() {
        rows.push((
            format!("{name} size={size}"),
            des::critpath::run_attribution(&trace, 0, cycles),
        ));
    }
    des::critpath::render_table("run", &rows)
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
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

/// Compare `got` with the golden `file` (or rewrite it under
/// `VSCC_GOLDEN_REGEN=1`).
fn assert_matches_golden(kind: &str, file: &str, got: &str) {
    let path = goldens_dir().join(file);
    if std::env::var("VSCC_GOLDEN_REGEN").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(goldens_dir()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with VSCC_GOLDEN_REGEN=1 to create it", path.display())
    });
    assert_exports_equal(kind, &want, got);
}

/// Byte-compare with a diff-friendly failure: report the first
/// divergent line instead of dumping two multi-hundred-KiB blobs.
fn assert_exports_equal(kind: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            panic!(
                "{kind} export diverged from golden at line {}:\n  golden:  {w}\n  current: {g}\n\
                 (a data-path change must not shift virtual time or metrics; \
                 regenerate with VSCC_GOLDEN_REGEN=1 only if the change is intentional)",
                i + 1
            );
        }
    }
    panic!(
        "{kind} export length diverged from golden ({} vs {} lines)",
        want.lines().count(),
        got.lines().count()
    );
}
