//! Figure 2 — timely behaviour of the basic blocking communication
//! protocols: RCCE blocking (Fig. 2a) vs iRCCE pipelined (Fig. 2b).
//!
//! One 16 KiB on-chip message is traced under both protocols; the
//! timelines and completion times are the figure. The `fig2_protocol`
//! target prints [`table`], `tests/figures.rs` pins it, and
//! `tests/golden_exports.rs` pins the critical path of the same [`run`]s.

use std::rc::Rc;

use des::obs::{Registry, TimeSeries, DEFAULT_CADENCE};
use des::trace::Trace;
use des::Sim;
use rcce::{PipelinedProtocol, SessionBuilder};
use scc::device::SccDevice;
use scc::geometry::DeviceId;

use crate::Observed;

/// Banner id of the figure.
pub const ID: &str = "Figure 2";
/// Banner caption of the figure.
pub const CAPTION: &str = "timely behaviour of blocking vs pipelined protocols";
/// The traced message's size in bytes.
pub const SIZE: usize = 16 * 1024;
/// Trace label of the designated run, `run(true)`.
pub const LABEL: &str = "ircce-pipelined-16K";

/// One [`SIZE`]-byte message from core 0 to core 1 of one device under
/// RCCE blocking or, if `pipelined`, iRCCE pipelined: traced, metered and
/// sampled. Returns the completion cycle and the run's handles.
pub fn run(pipelined: bool) -> (u64, Observed) {
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
            r.send(&vec![7u8; SIZE], 1).await;
        } else {
            let mut buf = vec![0u8; SIZE];
            r.recv(&mut buf, 0).await;
        }
    })
    .expect("protocol run");
    series.finish(sim.now());
    (sim.now(), Observed { trace: s.trace(), metrics: reg, series })
}

/// The figure as printed, and the two completion cycles it reports.
pub struct Fig2 {
    /// Everything the target prints after its banner.
    pub text: String,
    /// Completion cycle under RCCE blocking.
    pub blocking: u64,
    /// Completion cycle under iRCCE pipelined.
    pub pipelined: u64,
}

/// Both protocols' timelines and the pipelined protocol's lead.
pub fn table() -> Fig2 {
    // The two protocol runs are independent worlds: sweep them across
    // threads, bringing back only Send data (completion + rendered
    // timeline).
    let timed = crate::parallel_sweep(&[false, true], |&pipelined| {
        let (t, obs) = run(pipelined);
        (t, obs.trace.render())
    });
    let [(blocking, trace_block), (pipelined, trace_pipe)]: [_; 2] =
        timed.try_into().expect("two protocol runs");
    let lead = (1.0 - pipelined as f64 / blocking as f64) * 100.0;
    let text = format!(
        "\n--- (a) RCCE blocking, {SIZE} B message, completion at {blocking} cycles ---\n\
         {trace_block}\n\
         --- (b) iRCCE pipelined, {SIZE} B message, completion at {pipelined} cycles ---\n\
         {trace_pipe}\n\
         pipelined completes {lead:.1}% earlier \
         (paper: 'indicates a previous completion of the pipelined protocol')\n"
    );
    Fig2 { text, blocking, pipelined }
}
