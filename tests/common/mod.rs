//! Designated observed runs shared by the integration tests. Each one
//! renders the four exports of `des::obs::report::Exports` exactly as
//! `vscc_bench::observe` writes them under `VSCC_OBS`: on a fresh thread
//! (the audit sink is thread-local), traced, sampled and audited.

use des::audit::{self, Audit};
use des::obs::report::Exports;
use des::obs::{Registry, TimeSeries};
use des::trace::{Category, Trace};
use vscc::CommScheme;
use vscc_apps::pingpong;

/// Run `run` under a fresh audit stream on its own thread and export its
/// trace (as process `label`), metrics, series and audit stream.
fn observed(
    label: &'static str,
    run: impl FnOnce() -> (Trace, Registry, TimeSeries) + Send + 'static,
) -> Exports {
    std::thread::spawn(move || {
        let audit = Audit::new(audit::DEFAULT_EPOCH_CYCLES);
        let guard = audit.install();
        let (trace, reg, ts) = run();
        drop(guard);
        Exports {
            trace: des::obs::chrome_trace_json(label, &trace),
            metrics: reg.snapshot().to_json(),
            timeseries: ts.to_json(),
            audit: audit.to_json(),
        }
    })
    .join()
    .expect("render thread")
}

/// fig6b's designated run: the vDMA 8 KiB point.
pub fn fig6b_exports() -> Exports {
    observed("vdma-8K", || {
        let (_, trace, reg, ts) = pingpong::interdevice_sampled(
            CommScheme::LocalPutLocalGet,
            8192,
            1,
            des::obs::DEFAULT_CADENCE,
        );
        (trace, reg, ts)
    })
}

/// The storm-then-quiet healing run (the scenario of `tests/chaos.rs`):
/// an ack-loss storm demotes the (0,1) pair, the storm ends, canary
/// probes re-promote it, and an idle task keeps the clock running past
/// the last probe.
pub fn healing_exports() -> Exports {
    observed("healing", || {
        let spec = des::faultplan::FaultSpec::parse(
            "seed=13,ackloss=0.8@..800000,recovery=on,watchdog=20000000",
        )
        .expect("healing spec");
        let sim = des::Sim::new();
        let recovery =
            vscc::host::RecoveryConfig { probe_interval: 20_000, probe_backoff_max: 160_000 };
        let v = vscc::VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::RemotePutHwAck)
            .trace_categories(&Category::ALL)
            .host_config(vscc::host::HostConfig { faults: spec, recovery, ..Default::default() })
            .build();
        let a = v.devices[0].global(scc::geometry::CoreId(0));
        let b = v.devices[1].global(scc::geometry::CoreId(0));
        let s = v.session_builder().participants(vec![a, b]).build();
        let ts = v.spawn_sampler(des::obs::DEFAULT_CADENCE);
        let keepalive = sim.clone();
        sim.spawn_named("post-storm-idle", async move {
            keepalive.delay(3_000_000).await;
        });
        s.run_app(|r| async move {
            for i in 0..16u32 {
                let fill = (i as u8).wrapping_mul(29).wrapping_add(3);
                if r.id() == 0 {
                    r.send(&vec![fill; 512], 1).await;
                } else {
                    let mut buf = vec![0u8; 512];
                    r.recv(&mut buf, 0).await;
                }
            }
        })
        .expect("healing run");
        ts.finish(sim.now());
        (v.trace().clone(), v.metrics().clone(), ts)
    })
}
