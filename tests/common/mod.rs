//! Shared by the integration tests: the designated `VSCC_OBS` runs'
//! exports, rendered exactly as the bench targets write them, and the
//! golden-file comparison.

#![allow(dead_code)] // each test crate uses its own subset

use std::path::PathBuf;

use des::obs::report::Exports;

/// Render the exports of bench target `name`'s designated run with
/// `vscc_bench::exports` on a fresh thread (the audit sink is
/// thread-local), as the target does under `VSCC_OBS`.
fn observed(name: &str) -> Exports {
    let fig = vscc_bench::figure(name);
    std::thread::spawn(|| vscc_bench::exports(fig.label, None, fig.designated))
        .join()
        .expect("render thread")
}

/// fig6b's designated run: the vDMA 8 KiB point.
pub fn fig6b_exports() -> Exports {
    observed("fig6b_interdevice")
}

/// fig_recovery's designated run: the storm-then-quiet healing run.
pub fn healing_exports() -> Exports {
    observed("fig_recovery")
}

/// Compare `got` with the golden `tests/goldens/<file>` (or rewrite it
/// under `VSCC_GOLDEN_REGEN=1`).
pub fn assert_matches_golden(kind: &str, file: &str, got: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let path = dir.join(file);
    if std::env::var("VSCC_GOLDEN_REGEN").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with VSCC_GOLDEN_REGEN=1 to create it", path.display())
    });
    if want == got {
        return;
    }
    // Report the first divergent line instead of dumping two
    // multi-hundred-KiB blobs.
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            panic!(
                "{kind} output diverged from golden {file} at line {}:\n  golden:  {w}\n  \
                 current: {g}\n(a data-path change must not shift virtual time or metrics; \
                 regenerate with VSCC_GOLDEN_REGEN=1 only if the change is intentional)",
                i + 1
            );
        }
    }
    panic!(
        "{kind} output length diverged from golden {file} ({} vs {} lines)",
        want.lines().count(),
        got.lines().count()
    );
}
