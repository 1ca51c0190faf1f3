//! Figure 6a — Ping-Pong throughput, on-chip and inter-device.
//!
//! Series: RCCE blocking (on-chip), iRCCE pipelined with its static
//! ~4 KiB threshold (on-chip), and the best/worst host-assisted
//! inter-device schemes for scale, over message sizes 32 B … 512 KiB.
//! Paper reference points: max on-chip throughput ≈ 150 MB/s (§4.1);
//! inter-device an order of magnitude below.

use vscc::CommScheme;
use vscc_apps::pingpong;

fn main() {
    vscc_bench::banner("Figure 6a", "Ping-Pong throughput (on-chip and inter-device), MB/s");
    let sizes = pingpong::fig6_sizes();
    let reps = 3;

    let cols: Vec<String> =
        ["size", "RCCE", "iRCCE", "vDMA", "routed"].iter().map(|s| s.to_string()).collect();
    println!("{}", vscc_bench::header("series", &cols[1..]));

    struct Row {
        size: usize,
        rcce: f64,
        ircce: f64,
        vdma: f64,
        routed: f64,
    }
    let rows = vscc_bench::parallel_sweep(&sizes, |&size| Row {
        size,
        rcce: pingpong::onchip(false, size, reps).mbps,
        ircce: pingpong::onchip(true, size, reps).mbps,
        vdma: pingpong::interdevice(CommScheme::LocalPutLocalGet, size, reps).mbps,
        routed: pingpong::interdevice(CommScheme::SimpleRouting, size, reps).mbps,
    });

    let mut max_onchip: f64 = 0.0;
    for r in &rows {
        max_onchip = max_onchip.max(r.ircce).max(r.rcce);
        println!(
            "{}",
            vscc_bench::row(&format!("{:>8} B", r.size), &[r.rcce, r.ircce, r.vdma, r.routed])
        );
    }
    println!("\nmax on-chip throughput: {max_onchip:.1} MB/s (paper: 'about 150 MB/s')");
    if vscc_bench::headline_asserts() {
        assert!((110.0..200.0).contains(&max_onchip), "on-chip ceiling out of the calibrated band");
    }

    vscc_bench::observe("vdma-interdevice-64K", || {
        let (_, trace, metrics, series) = pingpong::interdevice_sampled(
            CommScheme::LocalPutLocalGet,
            64 * 1024,
            1,
            des::obs::DEFAULT_CADENCE,
        );
        vscc_bench::Observed { trace, metrics, series }
    });
}
