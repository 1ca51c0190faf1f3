//! Figure 2 — timely behaviour of the basic blocking communication
//! protocols: RCCE blocking (Fig. 2a) vs iRCCE pipelined (Fig. 2b).
//!
//! Regenerates the protocol timelines by tracing one 16 KiB on-chip
//! message under both protocols, and reports the completion times; the
//! pipelined protocol must finish earlier, as the figure's caption
//! demonstrates. The runs and the table live in `vscc_bench::fig2`.

use vscc_bench::fig2;

fn main() {
    vscc_bench::banner(fig2::ID, fig2::CAPTION);
    let fig = fig2::table();
    print!("{}", fig.text);
    if vscc_bench::headline_asserts() {
        assert!(fig.pipelined < fig.blocking, "Fig. 2's qualitative result must hold");
    }

    // Trace/metrics objects are Rc-based, so the observability paths
    // below re-run deterministically on this thread.
    if vscc_bench::observe(fig2::LABEL, || fig2::run(true).1) {
        let size = fig2::SIZE;
        println!("\ncritical-path attribution (cycles, one {size} B on-chip message):");
        let rows: Vec<(String, des::trace::Trace, u64)> =
            [("RCCE blocking", false), ("iRCCE pipelined", true)]
                .into_iter()
                .map(|(label, pipelined)| {
                    let (t, obs) = fig2::run(pipelined);
                    (label.to_string(), obs.trace, t)
                })
                .collect();
        print!("{}", vscc_bench::critpath_table("protocol", &rows));
        println!(
            "  (pipelining shrinks mpb-wait: the receiver drains each slot while\n  \
             the sender fills the other one)"
        );
    }
}
