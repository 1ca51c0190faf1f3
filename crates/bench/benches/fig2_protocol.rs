//! Figure 2 — timely behaviour of the basic blocking communication
//! protocols: RCCE blocking (Fig. 2a) vs iRCCE pipelined (Fig. 2b).
//!
//! Regenerates the protocol timelines by tracing one 16 KiB on-chip
//! message under both protocols, and reports the completion times; the
//! pipelined protocol must finish earlier, as the figure's caption
//! demonstrates.

use std::rc::Rc;

use des::obs::{Registry, TimeSeries, DEFAULT_CADENCE};
use des::trace::Trace;
use des::Sim;
use rcce::{PipelinedProtocol, SessionBuilder};
use scc::device::SccDevice;
use scc::geometry::DeviceId;
use vscc_bench::Observed;

fn run(pipelined: bool, size: usize) -> (u64, String, Observed) {
    let sim = Sim::new();
    let reg = Registry::new();
    let dev = SccDevice::new(&sim, DeviceId(0));
    dev.register_metrics(&reg);
    let mut b = SessionBuilder::new(&sim, vec![dev])
        .max_ranks(2)
        .with_trace(Trace::enabled())
        .with_metrics(&reg);
    if pipelined {
        b = b.onchip_protocol(Rc::new(PipelinedProtocol::default()));
    }
    let s = b.build();
    let series = TimeSeries::spawn(&sim, &reg, DEFAULT_CADENCE);
    s.run_app(move |r| async move {
        if r.id() == 0 {
            r.send(&vec![7u8; size], 1).await;
        } else {
            let mut buf = vec![0u8; size];
            r.recv(&mut buf, 0).await;
        }
    })
    .expect("protocol run");
    series.finish(sim.now());
    (sim.now(), s.trace().render(), Observed { trace: s.trace(), metrics: reg, series })
}

fn main() {
    vscc_bench::banner("Figure 2", "timely behaviour of blocking vs pipelined protocols");
    let size = 16 * 1024;
    // The two protocol runs are independent worlds: sweep them across
    // threads, bringing back only Send data (completion + rendered
    // timeline). Trace/metrics objects are Rc-based, so the observability
    // paths below re-run deterministically on this thread.
    let timed = vscc_bench::parallel_sweep(&[false, true], |&pipelined| {
        let (t, rendered, _) = run(pipelined, size);
        (t, rendered)
    });
    let (t_block, trace_block) = &timed[0];
    let (t_pipe, trace_pipe) = &timed[1];
    let (t_block, t_pipe) = (*t_block, *t_pipe);

    println!("\n--- (a) RCCE blocking, {size} B message, completion at {t_block} cycles ---");
    println!("{trace_block}");
    println!("--- (b) iRCCE pipelined, {size} B message, completion at {t_pipe} cycles ---");
    println!("{trace_pipe}");
    println!(
        "pipelined completes {:.1}% earlier (paper: 'indicates a previous completion of the pipelined protocol')",
        (1.0 - t_pipe as f64 / t_block as f64) * 100.0
    );
    if vscc_bench::headline_asserts() {
        assert!(t_pipe < t_block, "Fig. 2's qualitative result must hold");
    }

    if vscc_bench::observe("ircce-pipelined-16K", || run(true, size).2) {
        println!("\ncritical-path attribution (cycles, one {size} B on-chip message):");
        let rows: Vec<(String, des::trace::Trace, u64)> =
            [("RCCE blocking", false), ("iRCCE pipelined", true)]
                .into_iter()
                .map(|(label, pipelined)| {
                    let (t, _, obs) = run(pipelined, size);
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
