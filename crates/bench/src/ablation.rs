//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. software-cache prefetch on/off (local put / remote get);
//! 2. vDMA / prefetch chunk size;
//! 3. host write-combining-buffer flush granularity;
//! 4. fused vs discrete programming of the vDMA registers (the 32 B
//!    alignment trick of §3.3 / Fig. 5).

use std::rc::Rc;

use des::Sim;
use rcce::PointToPoint;
use scc::geometry::CoreId;
use vscc::host::HostConfig;
use vscc::schemes::CachedGetProtocol;
use vscc::{CommScheme, Vscc, VsccBuilder};
use vscc_apps::pingpong;

use crate::{row, Observed, Table};

/// Ping-pong message size in bytes.
const SIZE: usize = 64 * 1024;
/// Ping-pong round trips per point.
const REPS: usize = 3;

/// MB/s of `REPS` round trips of `SIZE` bytes over `v`'s measured pair,
/// with `proto` (if any) in place of the scheme's protocol.
fn pair_throughput(v: &Vscc, proto: Option<Rc<dyn PointToPoint>>) -> f64 {
    let mut sb = pingpong::pair_session(v);
    if let Some(p) = proto {
        sb = sb.interdevice_protocol(p);
    }
    pingpong::measure(&sb.build(), SIZE, REPS).mbps
}

/// Cycles of one vDMA controller setup from core 0 of device 0, its
/// registers programmed with one fused write or three discrete ones.
fn programming_cycles(fused: bool) -> u64 {
    let sim = Sim::new();
    let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
    let dev0 = v.devices[0].clone();
    let t = sim
        .block_on(async move {
            let core = scc::CoreHandle::new(&dev0, CoreId(0));
            let data = scc::remote::pack_vdma_line(0, 0, 0, 0);
            let start = core.sim().now();
            for _ in 0..64 {
                if fused {
                    core.mmio_write_fused(vscc::mmio::REG_STATUS, data).await;
                } else {
                    core.mmio_write_discrete(vscc::mmio::REG_STATUS, data).await;
                }
            }
            core.sim().now() - start
        })
        .expect("mmio measure");
    t / 64
}

/// All four ablations.
pub fn table() -> Table {
    let mut table = Table::default();

    // 1. Prefetch on/off for the software cache.
    let both = crate::parallel_sweep(&[true, false], |&prefetch| {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutRemoteGet).build();
        let proto: Option<Rc<dyn PointToPoint>> = if prefetch {
            None
        } else {
            Some(Rc::new(CachedGetProtocol { prefetch: false, ..Default::default() }))
        };
        pair_throughput(&v, proto)
    });
    let prefetch = (both[0], both[1]);
    table.line("\n1. software-cache prefetch (local put / remote get)");
    table.line(row("   prefetch on", &[prefetch.0]));
    table.line(row("   prefetch off (demand misses)", &[prefetch.1]));

    // 2. vDMA chunk size.
    table.line("\n2. vDMA transfer granularity (local put / local get)");
    let chunks = [256usize, 512, 1024, 1920];
    let rows = crate::parallel_sweep(&chunks, |&chunk| {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .host_config(HostConfig { dma_chunk: chunk, ..HostConfig::default() })
            .build();
        pair_throughput(&v, None)
    });
    for (&chunk, &t) in chunks.iter().zip(&rows) {
        table.line(row(&format!("   chunk {chunk:>5} B"), &[t]));
    }

    // 3. WCB flush granularity.
    table.line("\n3. host WCB flush granularity (remote put)");
    let granules = [128usize, 512, 1024, 3840];
    let rows = crate::parallel_sweep(&granules, |&g| {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::RemotePutWcb)
            .host_config(HostConfig { wcb_granularity: g, ..HostConfig::default() })
            .build();
        pair_throughput(&v, None)
    });
    for (&g, &t) in granules.iter().zip(&rows) {
        table.line(row(&format!("   granule {g:>5} B"), &[t]));
    }

    // 4. Fused vs discrete vDMA register programming.
    let both = crate::parallel_sweep(&[true, false], |&f| programming_cycles(f));
    let (fused, discrete) = (both[0], both[1]);
    table.line("\n4. vDMA register programming (cycles per controller setup)");
    table.line(row("   fused 32B-aligned write", &[fused as f64]));
    table.line(row("   three discrete writes", &[discrete as f64]));
    table.line(format_args!(
        "   write-combining saves {:.1}% of the programming overhead (Fig. 5 layout)",
        (1.0 - fused as f64 / discrete as f64) * 100.0
    ));

    table.check(prefetch.0 > prefetch.1, "prefetching must hide the device->host leg");
    table.check(fused * 2 < discrete, "fusing must save at least half the transactions");
    table
}

/// The designated run: the small end of the vDMA-chunk ablation, where
/// per-chunk overhead dominates, fully traced.
pub fn designated() -> Observed {
    let b = VsccBuilder::new(&Sim::new(), 2)
        .scheme(CommScheme::LocalPutLocalGet)
        .host_config(HostConfig { dma_chunk: 256, ..HostConfig::default() })
        .trace_categories(&des::trace::Category::ALL);
    let (_, v, series) = pingpong::interdevice_run(b, SIZE, REPS, Some(des::obs::DEFAULT_CADENCE));
    Observed::of(&v, series.expect("sampled run"))
}
