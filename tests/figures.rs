//! Figure stdout as tier-1 goldens: each pinned target's text, rendered
//! by the same `vscc_bench` function its `main` prints, must equal the
//! clean-environment stdout of `cargo bench -p vscc-bench --bench <t>`
//! committed under `tests/goldens/<t>_stdout.txt`.
//!
//! Regenerate (only when an *intentional* model change moves a figure)
//! with:
//!
//! ```sh
//! VSCC_GOLDEN_REGEN=1 cargo test --test figures
//! ```

mod common;

use common::assert_matches_golden;
use vscc_bench::{ablation, banner_text, fig2, recovery, threshold};

#[test]
fn fig2_protocol_stdout_matches_golden() {
    let got = banner_text(fig2::ID, fig2::CAPTION) + &fig2::table().text;
    assert_matches_golden("fig2_protocol", "fig2_protocol_stdout.txt", &got);
}

#[test]
fn fig_recovery_stdout_matches_golden() {
    let text = recovery::table(&recovery::storm()).text;
    let got = banner_text(recovery::ID, recovery::CAPTION) + &text;
    assert_matches_golden("fig_recovery", "fig_recovery_stdout.txt", &got);
}

#[test]
fn tbl_threshold_stdout_matches_golden() {
    let got = banner_text(threshold::ID, threshold::CAPTION) + &threshold::table().text;
    assert_matches_golden("tbl_threshold", "tbl_threshold_stdout.txt", &got);
}

#[test]
fn tbl_ablation_stdout_matches_golden() {
    let got = banner_text(ablation::ID, ablation::CAPTION) + &ablation::table().text;
    assert_matches_golden("tbl_ablation", "tbl_ablation_stdout.txt", &got);
}
