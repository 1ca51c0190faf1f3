//! §3.3 — the direct-transfer threshold.
//!
//! "Because programming the vDMA controller represents a certain
//! overhead, to recover low latency for small messages we have defined a
//! threshold for a core to directly transfer data, which is about 32 B to
//! 128 B dependent on the communication scheme."
//!
//! One-way small-message latency with the threshold enabled (default) and
//! disabled (every message programs the controller / triggers the
//! prefetch), showing where the crossover sits.

use std::rc::Rc;

use des::time::CORE_FREQ;
use des::Sim;
use vscc::schemes::{CachedGetProtocol, VdmaProtocol};
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::pingpong;

use crate::{header, row, Table};

/// Message sizes of each scheme's rows.
const SIZES: [usize; 8] = [16, 32, 64, 96, 128, 192, 256, 512];

/// One-way latency in microseconds of one `size`-byte message under
/// `scheme` with the direct path taken up to `threshold` bytes.
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
    sim.now() as f64 / CORE_FREQ.as_mhz() as f64
}

/// Both explicit schemes' latency rows, direct path on and off; below
/// the threshold, the direct path must win clearly.
pub fn table() -> Table {
    let mut table = Table::default();
    for (scheme, default_thr) in [
        (CommScheme::LocalPutLocalGet, VdmaProtocol::default().direct_threshold),
        (CommScheme::LocalPutRemoteGet, CachedGetProtocol::default().direct_threshold),
    ] {
        table.line(format_args!("\n{} (default threshold {default_thr} B)", scheme.name()));
        table.line(header("size", &["direct on".into(), "direct off".into(), "speedup".into()]));
        // Every (size, threshold) point is an independent simulation:
        // sweep them across threads.
        let points = crate::parallel_sweep(&SIZES, |&size| {
            (latency(scheme, default_thr, size), latency(scheme, 0, size))
        });
        for (&size, &(on, off)) in SIZES.iter().zip(&points) {
            table.line(row(&format!("{size:>5} B"), &[on, off, off / on]));
        }
        let (on, off) = points[SIZES.iter().position(|&s| s == 64).expect("64 B point")];
        table.check(
            on < off,
            format_args!("{}: direct path must cut small-message latency", scheme.name()),
        );
    }
    table
}
