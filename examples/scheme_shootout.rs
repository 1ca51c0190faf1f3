//! Scheme shootout: compare all five inter-device communication schemes
//! on a ping-pong, the core experiment behind Fig. 6b.
//!
//! ```sh
//! cargo run --release --example scheme_shootout [message_bytes]
//! ```

use des::time::CORE_FREQ;
use vscc::CommScheme;
use vscc_apps::pingpong;

fn main() {
    let size: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(32 * 1024);
    let reps = 3;

    println!("inter-device ping-pong, {size} B messages, {reps} round trips\n");
    println!("{:<40} {:>12} {:>14}", "scheme", "MB/s", "round trip us");
    let mut results = Vec::new();
    for scheme in CommScheme::ALL {
        let p = pingpong::interdevice(scheme, size, reps);
        let rt_us = p.cycles as f64 / reps as f64 / CORE_FREQ.as_mhz() as f64;
        println!("{:<40} {:>12.2} {:>14.1}", scheme.name(), p.mbps, rt_us);
        results.push((scheme, p.mbps));
    }

    let onchip = pingpong::onchip(true, size.max(64 * 1024), reps).mbps;
    let best = results
        .iter()
        .filter(|(s, _)| *s != CommScheme::RemotePutHwAck) // unstable beyond 2 devices
        .map(|(_, m)| *m)
        .fold(0.0f64, f64::max);
    println!("\non-chip (iRCCE) reference: {onchip:.1} MB/s");
    println!(
        "best stable scheme recovers {:.1}% of on-chip throughput (paper: 24%)",
        best / onchip * 100.0
    );
}
