//! Ablations of the design choices DESIGN.md calls out: software-cache
//! prefetch, vDMA chunk size, host WCB flush granularity, and fused vs
//! discrete vDMA register programming. The table lives in
//! `vscc_bench::ablation`.

use des::Sim;
use vscc::host::HostConfig;
use vscc::{CommScheme, VsccBuilder};
use vscc_apps::pingpong;
use vscc_bench::ablation::{self, Ablation};

fn main() {
    vscc_bench::banner(ablation::ID, ablation::CAPTION);
    let Ablation { text, prefetch, programming } = ablation::table();
    print!("{text}");
    if vscc_bench::headline_asserts() {
        assert!(prefetch.0 > prefetch.1, "prefetching must hide the device->host leg");
        assert!(
            programming.0 * 2 < programming.1,
            "fusing must save at least half the transactions"
        );
    }

    // The designated run: the small end of the vDMA-chunk ablation,
    // where per-chunk overhead dominates, fully traced.
    vscc_bench::observe("chunk-256", || {
        let b = VsccBuilder::new(&Sim::new(), 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .host_config(HostConfig { dma_chunk: 256, ..HostConfig::default() })
            .trace_categories(&des::trace::Category::ALL);
        let (_, v, series) = pingpong::interdevice_run(
            b,
            ablation::SIZE,
            ablation::REPS,
            Some(des::obs::DEFAULT_CADENCE),
        );
        vscc_bench::Observed::of(&v, series.expect("sampled run"))
    });
}
