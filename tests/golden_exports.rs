//! Golden-file regression for the observability exports on the fig6b
//! workload (inter-device ping-pong, every scheme).
//!
//! The zero-copy payload plane (and any future data-path change) must
//! not perturb virtual time or metrics: a clean run's `VSCC_TRACE` and
//! `VSCC_METRICS` exports are required to stay **byte-identical**. This
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

use std::path::PathBuf;

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
            traces.push_str(&des::obs::chrome_trace_json(&[("pingpong", &trace)]));
            traces.push('\n');
            metrics.push_str(&format!("=== {name} size={size} cycles={} ===\n", point.cycles));
            metrics.push_str(&reg.snapshot().to_json());
            metrics.push('\n');
        }
    }
    (traces, metrics)
}

/// The `VSCC_TIMESERIES` export golden: the two headline schemes,
/// sampled at the default cadence. Rendered on a dedicated thread
/// because the pool-occupancy series reads the thread-local chunk pool
/// — a fresh thread pins its starting state.
fn render_timeseries() -> String {
    std::thread::spawn(|| {
        let mut out = String::new();
        for (name, scheme) in [
            ("local_put_remote_get", CommScheme::LocalPutRemoteGet),
            ("local_put_local_get", CommScheme::LocalPutLocalGet),
        ] {
            let (point, _, _, ts) = vscc_apps::pingpong::interdevice_sampled(
                scheme,
                8192,
                1,
                des::obs::DEFAULT_CADENCE,
            );
            out.push_str(&format!("=== {name} size=8192 cycles={} ===\n", point.cycles));
            out.push_str(&ts.to_json());
        }
        out
    })
    .join()
    .expect("render thread")
}

/// The `VSCC_AUDIT` export golden: the two headline schemes audited at
/// the default epoch cadence. Rendered on a dedicated thread because
/// the audit sink is thread-local and the runs must start from a fresh
/// chunk-pool state, exactly like the time-series golden.
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

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

#[test]
fn interdevice_exports_are_byte_identical_to_goldens() {
    let (traces, metrics) = render_exports();
    let dir = goldens_dir();
    let trace_path = dir.join("fig6b_trace_exports.txt");
    let metrics_path = dir.join("fig6b_metrics_exports.txt");

    if std::env::var("VSCC_GOLDEN_REGEN").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&trace_path, &traces).unwrap();
        std::fs::write(&metrics_path, &metrics).unwrap();
        eprintln!("regenerated {} and {}", trace_path.display(), metrics_path.display());
        return;
    }

    let want_traces = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with VSCC_GOLDEN_REGEN=1 to create it",
            trace_path.display()
        )
    });
    let want_metrics = std::fs::read_to_string(&metrics_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with VSCC_GOLDEN_REGEN=1 to create it",
            metrics_path.display()
        )
    });

    assert_exports_equal("trace", &want_traces, &traces);
    assert_exports_equal("metrics", &want_metrics, &metrics);
}

#[test]
fn interdevice_timeseries_export_matches_golden() {
    let timeseries = render_timeseries();
    let path = goldens_dir().join("fig6b_timeseries_exports.txt");

    if std::env::var("VSCC_GOLDEN_REGEN").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(goldens_dir()).unwrap();
        std::fs::write(&path, &timeseries).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with VSCC_GOLDEN_REGEN=1 to create it", path.display())
    });
    assert_exports_equal("timeseries", &want, &timeseries);
}

#[test]
fn interdevice_audit_export_matches_golden() {
    let audit = render_audit();
    let path = goldens_dir().join("fig6b_audit_exports.txt");

    if std::env::var("VSCC_GOLDEN_REGEN").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(goldens_dir()).unwrap();
        std::fs::write(&path, &audit).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with VSCC_GOLDEN_REGEN=1 to create it", path.display())
    });
    assert_exports_equal("audit", &want, &audit);
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
