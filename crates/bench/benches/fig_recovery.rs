//! Self-healing communication plane (DESIGN.md §5h) — beyond the paper.
//!
//! A storm-then-quiet ack-loss plan (`ackloss=0.8@..800000`) batters one
//! fast-ack device pair: consecutive lossy bursts demote it to the
//! host-acked fallback, the storm ends, and deterministic canary probes
//! re-promote it to the fast path. The table shows the throughput arc —
//! collapsed during the storm, limping through the fallback window,
//! restored after re-promotion — against a fault-free same-seed twin.
//! The run and the table live in `vscc_bench::recovery`.
//!
//! Headline shapes (asserted on clean-env runs): at least one demotion
//! lands *inside* the storm, at least one probe-driven re-promotion
//! lands *after* it, and the post-recovery per-message gap is within 5%
//! of the twin's steady state.

use vscc_bench::recovery::{self, Recovery, STORM_END};

fn main() {
    vscc_bench::banner(recovery::ID, recovery::CAPTION);
    // An env VSCC_FAULTS plan replaces the built-in storm (and the
    // banner + skipped asserts flag the run as custom).
    let spec = des::faultplan::spec_from_env().unwrap_or_else(recovery::storm);
    let Recovery { text, faulty, healed_from, clean_gap } = recovery::table(&spec);
    print!("{text}");
    if vscc_bench::headline_asserts() {
        let demote_t = faulty.first_demote.expect("the storm must demote the pair");
        assert!(
            demote_t <= STORM_END,
            "demotion at {demote_t} must land inside the storm (.. {STORM_END})"
        );
        assert!(faulty.promotions >= 1, "a canary probe must re-promote the pair");
        let promote_t = faulty.last_promote.expect("promotions counted but none logged");
        assert!(
            promote_t > STORM_END,
            "re-promotion at {promote_t} must land after the storm (.. {STORM_END})"
        );
        assert_eq!(faulty.still_demoted, 0, "no pair may stay demoted once the plan is quiet");
        let tail = faulty.times.len() - healed_from;
        assert!(tail >= 8, "recovered tail too thin ({tail} msgs) to judge throughput");
        let recovered_gap = recovery::mean_gap(&faulty.times, healed_from, faulty.times.len());
        let ratio = recovered_gap / clean_gap;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "post-recovery gap {recovered_gap:.0} vs clean {clean_gap:.0} (ratio {ratio:.3}) \
             outside the 5% band"
        );
    }

    vscc_bench::observe(recovery::LABEL, || recovery::designated(spec));
}
