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

const SIZE: usize = 64 * 1024;
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

fn main() {
    vscc_bench::banner("Table (ablations)", "design-choice ablations, ping-pong MB/s at 64 KiB");

    // 1. Prefetch on/off for the software cache.
    {
        let both = vscc_bench::parallel_sweep(&[true, false], |&prefetch| {
            let sim = Sim::new();
            let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutRemoteGet).build();
            let proto: Option<Rc<dyn PointToPoint>> = if prefetch {
                None
            } else {
                Some(Rc::new(CachedGetProtocol { prefetch: false, ..Default::default() }))
            };
            pair_throughput(&v, proto)
        });
        let (on, off) = (both[0], both[1]);
        println!("\n1. software-cache prefetch (local put / remote get)");
        println!("{}", vscc_bench::row("   prefetch on", &[on]));
        println!("{}", vscc_bench::row("   prefetch off (demand misses)", &[off]));
        if vscc_bench::headline_asserts() {
            assert!(on > off, "prefetching must hide the device->host leg");
        }
    }

    // 2. vDMA chunk size.
    {
        println!("\n2. vDMA transfer granularity (local put / local get)");
        let chunks = [256usize, 512, 1024, 1920];
        let rows = vscc_bench::parallel_sweep(&chunks, |&chunk| {
            let sim = Sim::new();
            let v = VsccBuilder::new(&sim, 2)
                .scheme(CommScheme::LocalPutLocalGet)
                .host_config(HostConfig { dma_chunk: chunk, ..HostConfig::default() })
                .build();
            pair_throughput(&v, None)
        });
        for (&chunk, &t) in chunks.iter().zip(&rows) {
            println!("{}", vscc_bench::row(&format!("   chunk {chunk:>5} B"), &[t]));
        }
    }

    // 3. WCB flush granularity.
    {
        println!("\n3. host WCB flush granularity (remote put)");
        let granules = [128usize, 512, 1024, 3840];
        let rows = vscc_bench::parallel_sweep(&granules, |&g| {
            let sim = Sim::new();
            let v = VsccBuilder::new(&sim, 2)
                .scheme(CommScheme::RemotePutWcb)
                .host_config(HostConfig { wcb_granularity: g, ..HostConfig::default() })
                .build();
            pair_throughput(&v, None)
        });
        for (&g, &t) in granules.iter().zip(&rows) {
            println!("{}", vscc_bench::row(&format!("   granule {g:>5} B"), &[t]));
        }
    }

    // 4. Fused vs discrete vDMA register programming.
    {
        let measure = |fused: bool| -> u64 {
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
        };
        let both = vscc_bench::parallel_sweep(&[true, false], |&f| measure(f));
        let (fused, discrete) = (both[0], both[1]);
        println!("\n4. vDMA register programming (cycles per controller setup)");
        println!("{}", vscc_bench::row("   fused 32B-aligned write", &[fused as f64]));
        println!("{}", vscc_bench::row("   three discrete writes", &[discrete as f64]));
        println!(
            "   write-combining saves {:.1}% of the programming overhead (Fig. 5 layout)",
            (1.0 - fused as f64 / discrete as f64) * 100.0
        );
        if vscc_bench::headline_asserts() {
            assert!(fused * 2 < discrete, "fusing must save at least half the transactions");
        }
    }

    // The designated run: the small end of the vDMA-chunk ablation,
    // where per-chunk overhead dominates, fully traced.
    vscc_bench::observe("chunk-256", || {
        let b = VsccBuilder::new(&Sim::new(), 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .host_config(HostConfig { dma_chunk: 256, ..HostConfig::default() })
            .trace_categories(&des::trace::Category::ALL);
        let (_, v, series) =
            pingpong::interdevice_run(b, SIZE, REPS, Some(des::obs::DEFAULT_CADENCE));
        vscc_bench::Observed::of(&v, series.expect("sampled run"))
    });
}
