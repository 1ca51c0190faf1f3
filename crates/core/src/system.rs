//! Building complete vSCC systems: devices + host + communication task +
//! RCCE session wiring.

use std::rc::Rc;

use des::faultplan::FaultSpec;
use des::obs::Registry;
use des::trace::{Category, Trace};
use des::{Cycles, Sim};
use rcce::{PipelinedProtocol, Session, SessionBuilder};
use scc::device::{BootConfig, SccDevice};
use scc::geometry::DeviceId;

use crate::host::{HostConfig, HostSide};
use crate::monitor::Monitors;
use crate::schemes::CommScheme;

/// Which protocol same-device pairs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnchipProtocol {
    /// RCCE's default blocking protocol.
    Blocking,
    /// iRCCE's pipelined protocol.
    Pipelined,
}

/// Builder for a [`Vscc`] system.
pub struct VsccBuilder {
    sim: Sim,
    n_devices: u8,
    scheme: CommScheme,
    onchip: OnchipProtocol,
    boot: BootConfig,
    host_cfg: HostConfig,
    trace: Trace,
    monitor_fail_fast: bool,
}

impl VsccBuilder {
    /// A system of `n_devices` SCC devices (the paper's flagship has 5).
    pub fn new(sim: &Sim, n_devices: u8) -> Self {
        assert!((1..=5).contains(&n_devices), "the host takes 1..=5 PCIe expansion slots");
        VsccBuilder {
            sim: sim.clone(),
            n_devices,
            scheme: CommScheme::LocalPutLocalGet,
            onchip: OnchipProtocol::Blocking,
            boot: BootConfig::default(),
            host_cfg: HostConfig::default(),
            trace: Trace::disabled(),
            monitor_fail_fast: true,
        }
    }

    /// Select the inter-device communication scheme.
    pub fn scheme(mut self, scheme: CommScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Select the on-chip protocol.
    pub fn onchip(mut self, p: OnchipProtocol) -> Self {
        self.onchip = p;
        self
    }

    /// Configure boot-time core-failure injection.
    pub fn boot(mut self, cfg: BootConfig) -> Self {
        self.boot = cfg;
        self
    }

    /// Replace the host/communication-task configuration.
    pub fn host_config(mut self, cfg: HostConfig) -> Self {
        self.host_cfg = cfg;
        self
    }

    /// Install a deterministic fault-injection plan (see
    /// [`FaultSpec::parse`] for the `VSCC_FAULTS` grammar). An active
    /// spec always runs with the recovery layer on; an inactive one
    /// builds no plan, but its `recovery` and `watchdog` still apply
    /// (the watchdog threads through to sessions built from this system).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.host_cfg.faults = spec;
        self
    }

    /// Enable structured tracing for `cats` across every layer (host,
    /// PCIe, vDMA, and the RCCE protocols of sessions built from this
    /// system).
    pub fn trace_categories(mut self, cats: &[Category]) -> Self {
        self.trace = Trace::with_categories(cats);
        self
    }

    /// Choose whether a monitor violation panics immediately (default) or
    /// is only recorded for later inspection via [`Vscc::violations`].
    pub fn monitor_fail_fast(mut self, fail_fast: bool) -> Self {
        self.monitor_fail_fast = fail_fast;
        self
    }

    /// Build devices, boot them, start the communication task.
    ///
    /// If no active fault plan was configured programmatically,
    /// `VSCC_FAULTS` in the environment installs one (the only
    /// environment variable the library crates read): any bench or test
    /// built through this builder can be chaos-tested without code
    /// changes. The env spec supplies the fault keys, `recovery` is
    /// OR-ed, and a programmatic `watchdog` wins over the env one.
    pub fn build(mut self) -> Vscc {
        let prog = &self.host_cfg.faults;
        if !prog.is_active() {
            if let Some(env) = des::faultplan::spec_from_env() {
                self.host_cfg.faults = FaultSpec {
                    recovery: env.recovery || prog.recovery,
                    watchdog: prog.watchdog.or(env.watchdog),
                    ..env
                };
            }
        }
        let poll_watchdog = self.host_cfg.faults.watchdog;
        let metrics = Registry::new();
        let devices: Vec<Rc<SccDevice>> =
            (0..self.n_devices).map(|d| SccDevice::new(&self.sim, DeviceId(d))).collect();
        for dev in &devices {
            dev.boot(&self.boot);
            dev.register_metrics(&metrics);
        }
        let host = HostSide::with_obs(
            &self.sim,
            self.n_devices,
            self.scheme,
            self.host_cfg,
            &metrics,
            self.trace.clone(),
        );
        host.attach(&devices);
        let monitors = Rc::new(Monitors::new(
            &self.sim,
            self.trace.clone(),
            self.scheme,
            self.n_devices,
            self.monitor_fail_fast,
        ));
        for dev in &devices {
            dev.set_monitor(monitors.clone());
        }
        Vscc {
            sim: self.sim,
            devices,
            host,
            scheme: self.scheme,
            onchip: self.onchip,
            metrics,
            trace: self.trace,
            monitors,
            poll_watchdog,
        }
    }
}

/// A running vSCC system.
pub struct Vscc {
    /// The simulation clock.
    pub sim: Sim,
    /// The SCC devices, in id order.
    pub devices: Vec<Rc<SccDevice>>,
    /// The host communication task / fabric.
    pub host: Rc<HostSide>,
    /// The active inter-device scheme.
    pub scheme: CommScheme,
    onchip: OnchipProtocol,
    metrics: Registry,
    trace: Trace,
    monitors: Rc<Monitors>,
    poll_watchdog: Option<Cycles>,
}

impl Vscc {
    /// Total cores that booted across all devices.
    pub fn alive_cores(&self) -> usize {
        self.devices.iter().map(|d| d.alive_cores().len()).sum()
    }

    /// The system-wide metrics registry (`host.*`, `pcie.*`, `scc.*`,
    /// plus `rcce.*` once a session is built).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The system-wide structured trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Invariant violations recorded so far (always empty when
    /// `monitor_fail_fast` is on — those panic instead).
    pub fn violations(&self) -> Vec<crate::monitor::Violation> {
        self.monitors.violations()
    }

    /// A pre-wired session builder (on-chip protocol and inter-device
    /// scheme installed); customize ranks and build.
    ///
    /// On multi-device systems the on-chip protocols are *confined* to the
    /// send half of the payload area: the inter-device schemes deliver
    /// inbound traffic (remote-put chunks, vDMA packets, direct messages)
    /// into the receive half, and a rank may be sending on-chip while such
    /// a delivery is in flight.
    pub fn session_builder(&self) -> SessionBuilder {
        let mut b = SessionBuilder::new(&self.sim, self.devices.clone())
            .with_metrics(&self.metrics)
            .with_trace(self.trace.clone());
        if let Some(limit) = self.poll_watchdog {
            b = b.poll_watchdog(limit);
        }
        let multi = self.devices.len() > 1;
        let send_window = crate::schemes::SEND_AREA_BYTES;
        let b = match (self.onchip, multi) {
            (OnchipProtocol::Blocking, false) => b,
            (OnchipProtocol::Blocking, true) => {
                b.onchip_protocol(Rc::new(rcce::BlockingProtocol::confined(0, send_window)))
            }
            (OnchipProtocol::Pipelined, false) => {
                b.onchip_protocol(Rc::new(PipelinedProtocol::default()))
            }
            (OnchipProtocol::Pipelined, true) => {
                b.onchip_protocol(Rc::new(PipelinedProtocol::confined(0, send_window)))
            }
        };
        b.interdevice_protocol(self.scheme.protocol_with_obs(&self.metrics))
    }

    /// Spawn the virtual-time metrics sampler ([`des::obs::timeseries`])
    /// over this system's registry, sampling every `cadence` cycles
    /// ([`des::obs::DEFAULT_CADENCE`] unless a sweep says otherwise).
    /// Call it *after* building the session:
    /// selection is resolved at spawn time, so `rcce.*` metrics (which
    /// register with the session) are only tracked once they exist.
    pub fn spawn_sampler(&self, cadence: Cycles) -> des::obs::TimeSeries {
        des::obs::TimeSeries::spawn(&self.sim, &self.metrics, cadence)
    }

    /// A session over every alive core.
    pub fn session(&self) -> Session {
        self.session_builder().build()
    }

    /// A session over the first `n` alive cores (linear rank extension).
    pub fn session_with_ranks(&self, n: usize) -> Session {
        self.session_builder().max_ranks(n).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-device rank pair: rank 0 on device 0, plus the first rank on
    /// device 1 (rank 48 when all cores boot).
    fn cross_pair_session(scheme: CommScheme) -> (Sim, Session) {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(scheme).build();
        let d0 = v.devices[0].global(scc::geometry::CoreId(0));
        let d1 = v.devices[1].global(scc::geometry::CoreId(0));
        let s = v.session_builder().participants(vec![d0, d1]).build();
        (sim, s)
    }

    fn roundtrip(scheme: CommScheme, len: usize) {
        let (_sim, s) = cross_pair_session(scheme);
        let msg: Vec<u8> = (0..len).map(|x| (x * 31 % 251) as u8).collect();
        let expect = msg.clone();
        s.run_app(move |r| {
            let msg = msg.clone();
            let expect = expect.clone();
            async move {
                if r.id() == 0 {
                    r.send(&msg, 1).await;
                    // And back, to exercise both directions.
                    let back = r.recv_vec(expect.len(), 1).await;
                    assert_eq!(back, expect, "{:?} corrupted the echo", scheme);
                } else {
                    let got = r.recv_vec(expect.len(), 0).await;
                    assert_eq!(got, expect, "{:?} corrupted the message", scheme);
                    r.send(&got, 0).await;
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn all_schemes_roundtrip_small() {
        for scheme in CommScheme::ALL {
            roundtrip(scheme, 64);
        }
    }

    #[test]
    fn all_schemes_roundtrip_one_chunk() {
        for scheme in CommScheme::ALL {
            roundtrip(scheme, 4000);
        }
    }

    #[test]
    fn all_schemes_roundtrip_multi_chunk() {
        for scheme in CommScheme::ALL {
            roundtrip(scheme, 30_000);
        }
    }

    #[test]
    fn all_schemes_roundtrip_exact_boundaries() {
        for scheme in CommScheme::ALL {
            for len in [
                1usize,
                scc::LINE_BYTES,
                crate::schemes::VDMA_SLOT,
                crate::schemes::VDMA_SLOT + 1,
                crate::schemes::LPRG_CHUNK,
                rcce::layout::CHUNK_BYTES,
                8192,
            ] {
                roundtrip(scheme, len);
            }
        }
    }

    #[test]
    fn scheme_throughput_ordering_matches_paper() {
        // Fig. 6b: routing << cached LPRG < vDMA <= hw-accelerated bound.
        let time_for = |scheme: CommScheme| -> u64 {
            let (sim, s) = cross_pair_session(scheme);
            let reps = 4usize;
            s.run_app(move |r| async move {
                let msg = vec![5u8; 4096];
                for _ in 0..reps {
                    if r.id() == 0 {
                        r.send(&msg, 1).await;
                        let mut buf = vec![0u8; 4096];
                        r.recv(&mut buf, 1).await;
                    } else {
                        let mut buf = vec![0u8; 4096];
                        r.recv(&mut buf, 0).await;
                        r.send(&buf, 0).await;
                    }
                }
            })
            .unwrap();
            sim.now()
        };
        let routing = time_for(CommScheme::SimpleRouting);
        let lprg = time_for(CommScheme::LocalPutRemoteGet);
        let vdma = time_for(CommScheme::LocalPutLocalGet);
        let hwack = time_for(CommScheme::RemotePutHwAck);
        assert!(routing > 5 * lprg, "routing {routing} should be >5x slower than LPRG {lprg}");
        assert!(lprg > vdma, "LPRG {lprg} should be slower than vDMA {vdma}");
        assert!(vdma as f64 >= hwack as f64 * 0.8, "vDMA can approach but not beat hw-ack");
    }

    #[test]
    fn onchip_pairs_unaffected_by_scheme() {
        // Two ranks on the same device must use the on-chip protocol even
        // in a multi-device system.
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::SimpleRouting).build();
        let s = v.session_builder().max_ranks(2).build();
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.send(&[1u8; 2000], 1).await;
            } else {
                let got = r.recv_vec(2000, 0).await;
                assert_eq!(got, vec![1u8; 2000]);
            }
        })
        .unwrap();
        // No routed lines: the pair is on-chip.
        assert_eq!(v.host.stats.routed_lines.get(), 0);
    }

    #[test]
    fn routed_put_charges_every_line_it_touches() {
        // 32 bytes at payload offset 100 cover MPB bytes 612..644: they
        // straddle a line boundary, so the routed path makes two round
        // trips, not the one `32 / LINE_BYTES` suggests.
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::SimpleRouting).build();
        let d0 = v.devices[0].global(scc::geometry::CoreId(0));
        let d1 = v.devices[1].global(scc::geometry::CoreId(0));
        let s = v.session_builder().participants(vec![d0, d1]).build();
        let before = v.host.stats.routed_lines.get();
        s.run_app(|r| async move {
            if r.id() == 0 {
                let target = rcce::layout::payload(r.ctx().session.who(1), 100);
                r.core().put(target, &[42u8; 32], None).await;
            }
        })
        .unwrap();
        assert_eq!(v.host.stats.routed_lines.get() - before, 2);
    }

    #[test]
    fn concurrent_receives_of_one_rank_run_one_at_a_time() {
        // Rank 0 receives from an on-chip peer and an inter-device peer
        // on two tasks at once; the UE's one receive lock must run them
        // in call order even though the second message is ready first.
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .trace_categories(&Category::ALL)
            .build();
        let cores = vec![
            v.devices[0].global(scc::geometry::CoreId(0)),
            v.devices[0].global(scc::geometry::CoreId(1)),
            v.devices[1].global(scc::geometry::CoreId(0)),
        ];
        let s = v.session_builder().participants(cores).build();
        let out = s
            .run_app(|r| async move {
                match r.id() {
                    0 => {
                        let near = r.clone();
                        let first = r.sim().spawn_named("recv near", async move {
                            let ok = near.recv_vec(1000, 1).await == vec![1u8; 1000];
                            (ok, near.now())
                        });
                        let far = r.clone();
                        let second = r.sim().spawn_named("recv far", async move {
                            let ok = far.recv_vec(6000, 2).await == vec![2u8; 6000];
                            (ok, far.now())
                        });
                        vec![first.await, second.await]
                    }
                    1 => {
                        r.compute(400_000).await;
                        r.send(&[1u8; 1000], 0).await;
                        vec![]
                    }
                    _ => {
                        r.send(&[2u8; 6000], 0).await;
                        vec![]
                    }
                }
            })
            .unwrap();
        let [(near_ok, near_done), (far_ok, far_done)] = out[0][..] else { unreachable!() };
        assert!(near_ok && far_ok, "both receives must verify their payloads");
        assert!(far_done > near_done);
        let far_start = v
            .trace()
            .events()
            .iter()
            .find(|e| &*e.actor == "rank0" && e.kind == "vdma_recv")
            .map(|e| e.time)
            .expect("the inter-device receive is traced");
        assert!(far_start >= near_done, "far receive started at {far_start}, before {near_done}");
    }

    #[test]
    fn vdma_ops_counted() {
        let (_sim, s) = cross_pair_session(CommScheme::LocalPutLocalGet);
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.send(&[9u8; 6000], 1).await;
            } else {
                let mut buf = vec![0u8; 6000];
                r.recv(&mut buf, 0).await;
            }
        })
        .unwrap();
    }

    #[test]
    fn cross_device_barrier_and_collectives() {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
        let s = v.session_builder().cores_per_device(3).build();
        assert_eq!(s.num_ranks(), 6);
        let out = s
            .run_app(|r| async move {
                r.barrier().await;
                let sum = r.allreduce_f64(1.0, rcce::collectives::Op::Sum).await;
                sum
            })
            .unwrap();
        assert!(out.iter().all(|&v| v == 6.0));
    }

    #[test]
    fn system_wide_observability_covers_every_layer() {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 2)
            .scheme(CommScheme::LocalPutLocalGet)
            .trace_categories(&Category::ALL)
            .build();
        let d0 = v.devices[0].global(scc::geometry::CoreId(0));
        let d1 = v.devices[1].global(scc::geometry::CoreId(0));
        let s = v.session_builder().participants(vec![d0, d1]).build();
        s.run_app(|r| async move {
            if r.id() == 0 {
                r.send(&[3u8; 6000], 1).await;
            } else {
                let mut buf = vec![0u8; 6000];
                r.recv(&mut buf, 0).await;
            }
        })
        .unwrap();
        // One registry spans scc, pcie, host, and rcce.
        let names = v.metrics().names();
        for expect in [
            "scc.d0.mpb.writes",
            "scc.d1.cl1inv",
            "pcie.link0.egress.bytes",
            "pcie.host_mem.queue_depth",
            "host.vdma_ops",
            "host.swcache.hits",
            "rcce.send.lock_wait_cycles",
        ] {
            assert!(names.contains(&expect.to_string()), "missing metric {expect}");
        }
        assert!(v.metrics().counter("host.vdma_ops").get() >= 1);
        assert!(v.metrics().counter("pcie.link0.egress.bytes").get() >= 6000);
        // One trace interleaves protocol and host/vDMA events.
        let evs = v.trace().events();
        assert!(evs.iter().any(|e| e.cat == Category::Vdma && e.kind == "vdma"));
        assert!(evs.iter().any(|e| e.cat == Category::Protocol));
        // Session-level accessors share the same objects.
        assert!(s.metrics().names().contains(&"host.vdma_ops".to_string()));
        assert!(s.trace().is_enabled());
    }

    #[test]
    fn five_devices_240_cores() {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 5).build();
        assert_eq!(v.alive_cores(), 240);
        let s = v.session();
        assert_eq!(s.num_ranks(), 240);
    }

    #[test]
    fn boot_failures_reduce_ranks() {
        let sim = Sim::new();
        let v = VsccBuilder::new(&sim, 5)
            .boot(BootConfig { core_failure_prob: 0.05, seed: 42 })
            .build();
        let alive = v.alive_cores();
        assert!(alive < 240, "5% failures over 240 cores should drop some");
        assert_eq!(v.session().num_ranks(), alive);
    }

    #[test]
    fn concurrent_pairs_share_tunnel() {
        // Two disjoint cross-device pairs run concurrently; both must
        // finish, and the tunnel contention must show up as slowdown
        // versus a single pair.
        let run = |pairs: usize| -> u64 {
            let sim = Sim::new();
            let v = VsccBuilder::new(&sim, 2).scheme(CommScheme::LocalPutLocalGet).build();
            let mut cores = Vec::new();
            for p in 0..pairs {
                cores.push(v.devices[0].global(scc::geometry::CoreId(p as u8)));
            }
            for p in 0..pairs {
                cores.push(v.devices[1].global(scc::geometry::CoreId(p as u8)));
            }
            let s = v.session_builder().participants(cores).build();
            s.run_app(move |r| async move {
                let me = r.id();
                let msg = vec![1u8; 16_000];
                if me < pairs {
                    r.send(&msg, me + pairs).await;
                } else {
                    let mut buf = vec![0u8; 16_000];
                    r.recv(&mut buf, me - pairs).await;
                }
            })
            .unwrap();
            sim.now()
        };
        let one = run(1);
        let four = run(4);
        assert!(four > one, "four pairs ({four}) must take longer than one ({one})");
        assert!(four < one * 8, "but not pathologically longer");
    }
}
