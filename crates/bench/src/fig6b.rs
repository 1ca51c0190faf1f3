//! Figure 6b's designated run: the vDMA 8 KiB inter-device point, the
//! run `fig6b_interdevice` exports under `VSCC_OBS` and
//! `tests/golden_exports.rs` pins as `fig6b_report.md`.

use vscc::CommScheme;
use vscc_apps::pingpong;

use crate::Observed;

/// Trace label of the designated run.
pub const LABEL: &str = "vdma-8K";

/// One vDMA 8 KiB round trip on the fig6b platform, traced and sampled
/// (tunnel busy-fraction, MPB window occupancy, commtask busy-fraction,
/// ...). An active `VSCC_FAULTS` plan rides along, seed and all.
pub fn designated() -> Observed {
    let (_, trace, metrics, series) = pingpong::interdevice_sampled(
        CommScheme::LocalPutLocalGet,
        8192,
        1,
        des::obs::DEFAULT_CADENCE,
    );
    Observed { trace, metrics, series }
}
