//! §3.3 — the direct-transfer threshold.
//!
//! "Because programming the vDMA controller represents a certain
//! overhead, to recover low latency for small messages we have defined a
//! threshold for a core to directly transfer data, which is about 32 B to
//! 128 B dependent on the communication scheme."
//!
//! This table measures one-way small-message latency with the threshold
//! enabled (default) and disabled (every message programs the
//! controller / triggers the prefetch), showing where the crossover sits.
//! The table lives in `vscc_bench::threshold`.

use vscc::CommScheme;
use vscc_apps::pingpong;
use vscc_bench::threshold;

fn main() {
    vscc_bench::banner(threshold::ID, threshold::CAPTION);
    let table = threshold::table();
    print!("{}", table.text);
    // Below the threshold, the direct path must win clearly.
    if vscc_bench::headline_asserts() {
        for (scheme, on, off) in table.at_64 {
            assert!(on < off, "{}: direct path must cut small-message latency", scheme.name());
        }
    }

    // The designated run: one sub-threshold message on the direct path.
    vscc_bench::observe("direct-64B", || {
        let (_, trace, metrics, series) = pingpong::interdevice_sampled(
            CommScheme::LocalPutLocalGet,
            64,
            1,
            des::obs::DEFAULT_CADENCE,
        );
        vscc_bench::Observed { trace, metrics, series }
    });
}
