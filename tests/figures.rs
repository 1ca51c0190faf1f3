//! Figure stdout as tier-1 goldens. Every target in `vscc_bench::FIGURES`
//! has its clean-environment stdout of `cargo bench -p vscc-bench --bench
//! <name>` committed as `tests/goldens/<name>_stdout.txt`. Each fast
//! target has its own test: its text, rendered by the same table function
//! its `main` prints, must equal that golden, and none of its headline
//! checks may fail. The
//! slow ones (`slow: true`) are compared in release by `scripts/check.sh`.
//!
//! Regenerate the fast goldens (only when an *intentional* model change
//! moves a figure) with:
//!
//! ```sh
//! VSCC_GOLDEN_REGEN=1 cargo test --test figures
//! ```
//!
//! and a slow one with `cargo bench -q -p vscc-bench --bench <name> >
//! tests/goldens/<name>_stdout.txt`.

mod common;

use std::path::Path;

use common::assert_matches_golden;
use vscc_bench::{banner_text, figure, FIGURES};

/// The fast targets, one test each below.
const FAST: &[&str] = &[
    "fig2_protocol",
    "fig6a_pingpong",
    "fig6b_interdevice",
    "tbl_threshold",
    "tbl_stability",
    "fig_recovery",
    "tbl_ablation",
];

/// Target `name`'s text equals its golden and none of its checks fails.
fn assert_figure(name: &str) {
    let fig = figure(name);
    let table = (fig.table)();
    let got = banner_text(fig.title) + &table.text;
    assert_matches_golden(name, &format!("{name}_stdout.txt"), &got);
    assert!(table.failed.is_empty(), "{name}: {}", table.failed.join("; "));
}

#[test]
fn fig2_protocol_stdout_matches_golden() {
    assert_figure("fig2_protocol");
}

#[test]
fn fig6a_pingpong_stdout_matches_golden() {
    assert_figure("fig6a_pingpong");
}

#[test]
fn fig6b_interdevice_stdout_matches_golden() {
    assert_figure("fig6b_interdevice");
}

#[test]
fn tbl_threshold_stdout_matches_golden() {
    assert_figure("tbl_threshold");
}

#[test]
fn tbl_stability_stdout_matches_golden() {
    assert_figure("tbl_stability");
}

#[test]
fn fig_recovery_stdout_matches_golden() {
    assert_figure("fig_recovery");
}

#[test]
fn tbl_ablation_stdout_matches_golden() {
    assert_figure("tbl_ablation");
}

/// Each fast `FIGURES` entry has its own test above.
#[test]
fn every_fast_figure_has_a_test() {
    let mut fast: Vec<&str> = FIGURES.iter().filter(|f| !f.slow).map(|f| f.name).collect();
    let mut tested = FAST.to_vec();
    fast.sort_unstable();
    tested.sort_unstable();
    assert_eq!(tested, fast, "each fast figure needs its own *_stdout_matches_golden test");
}

/// `FIGURES` names every figure/table `[[bench]]` target exactly once,
/// and each has a committed stdout golden.
#[test]
fn every_bench_target_has_one_entry_and_a_golden() {
    let manifest = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/Cargo.toml"),
    )
    .expect("bench manifest");
    let mut benches: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|section| section.split('"').nth(1))
        .filter(|&name| name != "engine_micro")
        .collect();
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    benches.sort_unstable();
    names.sort_unstable();
    assert_eq!(names, benches, "FIGURES must list each figure/table bench target once");
    for name in names {
        let golden =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}_stdout.txt"));
        assert!(golden.is_file(), "{name} has no stdout golden {}", golden.display());
    }
}
