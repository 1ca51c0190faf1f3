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

use std::rc::Rc;

use des::time::CORE_FREQ;
use des::Sim;
use vscc::schemes::{CachedGetProtocol, VdmaProtocol};
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::pingpong;

fn latency(scheme: CommScheme, threshold: usize, size: usize) -> f64 {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(scheme).build();
    let proto: Rc<dyn rcce::PointToPoint> = match scheme {
        CommScheme::LocalPutLocalGet => Rc::new(VdmaProtocol::with_threshold(threshold)),
        CommScheme::LocalPutRemoteGet => {
            Rc::new(CachedGetProtocol { direct_threshold: threshold, ..Default::default() })
        }
        _ => unreachable!("threshold applies to the explicit schemes"),
    };
    let s = pingpong::pair_session(&v).interdevice_protocol(proto).build();
    s.run_app(move |r| async move {
        if r.id() == 0 {
            r.send(&vec![1u8; size], 1).await;
        } else {
            let mut buf = vec![0u8; size];
            r.recv(&mut buf, 0).await;
        }
    })
    .expect("latency run");
    // One-way latency in microseconds.
    sim.now() as f64 / CORE_FREQ.as_mhz() as f64
}

fn main() {
    vscc_bench::banner(
        "Table (threshold)",
        "small-message one-way latency in us: direct transfer vs controller path",
    );
    let sizes = [16usize, 32, 64, 96, 128, 192, 256, 512];
    for (scheme, default_thr) in
        [(CommScheme::LocalPutLocalGet, 128usize), (CommScheme::LocalPutRemoteGet, 96usize)]
    {
        println!("\n{} (default threshold {default_thr} B)", scheme.name());
        println!(
            "{}",
            vscc_bench::header(
                "size",
                &["direct on".into(), "direct off".into(), "speedup".into()]
            )
        );
        // Every (size, threshold) point is an independent simulation:
        // sweep them across threads.
        let points = vscc_bench::parallel_sweep(&sizes, |&size| {
            (latency(scheme, default_thr, size), latency(scheme, 0, size))
        });
        for (&size, &(on, off)) in sizes.iter().zip(&points) {
            println!("{}", vscc_bench::row(&format!("{size:>5} B"), &[on, off, off / on]));
        }
        // Below the threshold, the direct path must win clearly.
        let (on, off) = points[sizes.iter().position(|&s| s == 64).expect("64 B point")];
        if vscc_bench::headline_asserts() {
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
