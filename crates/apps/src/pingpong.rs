//! Ping-Pong: the point-to-point throughput benchmark of §4.1.
//!
//! Two ranks bounce a message back and forth; throughput is the payload
//! volume over the simulated round-trip time. The helpers here build a
//! fresh system per measurement point so runs are independent and
//! deterministic. Two-rank inter-device runs use one pair
//! ([`pair_session`]), and ping-pongs one rep loop ([`bounce`], run and
//! timed by [`measure`]).

use des::obs::{Registry, TimeSeries};
use des::time::CORE_FREQ;
use des::trace::{Category, Trace};
use des::{Cycles, Sim};
use rcce::{PipelinedProtocol, Session, SessionBuilder};
use scc::device::SccDevice;
use scc::geometry::{CoreId, DeviceId};
use vscc::{CommScheme, Vscc, VsccBuilder};

/// One measured point of a ping-pong sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub size: usize,
    /// Simulated cycles for all repetitions.
    pub cycles: u64,
    /// One-way throughput in MB/s (paper's metric).
    pub mbps: f64,
}

/// The message sizes swept in Fig. 6 (32 B … 512 KiB, with extra points
/// around the 8 KiB MPB boundary where the dip appears).
pub fn fig6_sizes() -> Vec<usize> {
    let mut v: Vec<usize> = (5..=19).map(|p| 1usize << p).collect(); // 32 B..512 KiB
    v.extend([6144, 7424, 7680, 12288]);
    v.sort_unstable();
    v
}

/// Rank body of a ping-pong: rank 0 sends first, rank 1 echoes, `reps`
/// times over.
pub async fn bounce(r: rcce::Rcce, size: usize, reps: usize) {
    let peer = 1 - r.id();
    let msg = vec![0xA5u8; size];
    let mut buf = vec![0u8; size];
    for _ in 0..reps {
        if r.id() == 0 {
            r.send(&msg, peer).await;
            r.recv(&mut buf, peer).await;
        } else {
            r.recv(&mut buf, peer).await;
            r.send(&buf, peer).await;
        }
    }
}

/// Run [`bounce`] over the two ranks of `s` to completion and measure it.
pub fn measure(s: &Session, size: usize, reps: usize) -> PingPongPoint {
    s.run_app(move |r| bounce(r, size, reps)).expect("ping-pong");
    let cycles = s.inner.sim().now();
    // 2*reps one-way messages in `cycles`.
    let mbps = CORE_FREQ.mbytes_per_sec((2 * reps * size) as u64, cycles);
    PingPongPoint { size, cycles, mbps }
}

/// On-chip ping-pong between core 0 and core 1 of one device.
pub fn onchip(pipelined: bool, size: usize, reps: usize) -> PingPongPoint {
    let sim = Sim::new();
    let dev = SccDevice::new(&sim, DeviceId(0));
    let mut b = SessionBuilder::new(&sim, vec![dev]).max_ranks(2);
    if pipelined {
        b = b.onchip_protocol(std::rc::Rc::new(PipelinedProtocol::default()));
    }
    measure(&b.build(), size, reps)
}

/// The fig6b platform: the paper's physical setup is five SCC devices
/// behind one Xeon host (Fig. 1), with the inter-device measurement
/// running on one pair while the rest sit idle. Idle devices add fabric
/// structure (their own ports, commtasks, and host-side actors) but do
/// not shift the measured pair's timing under four of the five schemes:
/// their cycle counts are identical at 2 and 5 devices. Remote put with
/// hw-ack is the exception. Its fast-ack loss rate grows once three or
/// more devices share the tunnel (`pcie::FastAck`, the paper's hw-ack
/// instability), so large messages run slower at 5 devices than at 2:
/// two round trips differ from 48 KiB up, e.g. 8,920,861 versus
/// 8,940,861 cycles at 128 KiB.
pub const FIG_DEVICES: u8 = 5;

/// A fresh [`FIG_DEVICES`]-device system under `scheme`.
pub fn fig_platform(scheme: CommScheme) -> VsccBuilder {
    VsccBuilder::new(&Sim::new(), FIG_DEVICES).scheme(scheme)
}

/// A session builder over the pair every inter-device measurement runs
/// on: core 0 of device 0 (rank 0) and core 0 of device 1 (rank 1).
pub fn pair_session(v: &Vscc) -> SessionBuilder {
    let a = v.devices[0].global(CoreId(0));
    let b = v.devices[1].global(CoreId(0));
    v.session_builder().participants(vec![a, b])
}

/// Inter-device ping-pong over the [`pair_session`] of the system `b`
/// builds; every inter-device point runs through here. With a `cadence`,
/// the virtual-time metrics sampler runs at it and is finished at app
/// completion (partial tail window flushed), ready for a time-series
/// export. Returns the point, the system (its clock, trace and metrics)
/// and the sampler.
pub fn interdevice_run(
    b: VsccBuilder,
    size: usize,
    reps: usize,
    cadence: Option<Cycles>,
) -> (PingPongPoint, Vscc, Option<TimeSeries>) {
    let v = b.build();
    // Build the session before spawning the sampler so the `rcce.*`
    // metrics exist when the selection is resolved.
    let s = pair_session(&v).build();
    let series = cadence.map(|c| v.spawn_sampler(c));
    let point = measure(&s, size, reps);
    if let Some(ts) = &series {
        ts.finish(v.sim.now());
    }
    (point, v, series)
}

/// Inter-device ping-pong under `scheme` on the [`fig_platform`].
pub fn interdevice(scheme: CommScheme, size: usize, reps: usize) -> PingPongPoint {
    interdevice_run(fig_platform(scheme), size, reps, None).0
}

/// Like [`interdevice`], but with every layer's metrics in one registry
/// and all trace categories enabled.
pub fn interdevice_observed(
    scheme: CommScheme,
    size: usize,
    reps: usize,
) -> (PingPongPoint, Trace, Registry) {
    let b = fig_platform(scheme).trace_categories(&Category::ALL);
    let (point, v, _) = interdevice_run(b, size, reps, None);
    (point, v.trace().clone(), v.metrics().clone())
}

/// Like [`interdevice_observed`], but additionally running the
/// virtual-time metrics sampler at `cadence` cycles.
pub fn interdevice_sampled(
    scheme: CommScheme,
    size: usize,
    reps: usize,
    cadence: Cycles,
) -> (PingPongPoint, Trace, Registry, TimeSeries) {
    let b = fig_platform(scheme).trace_categories(&Category::ALL);
    let (point, v, series) = interdevice_run(b, size, reps, Some(cadence));
    (point, v.trace().clone(), v.metrics().clone(), series.expect("sampled run"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_sizes_cover_the_dip() {
        let s = fig6_sizes();
        assert!(s.contains(&32) && s.contains(&(512 * 1024)));
        assert!(s.contains(&7680) && s.contains(&8192));
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sizes must be sorted and unique");
    }

    #[test]
    fn onchip_blocking_band() {
        // Paper §4.1: max on-chip throughput ~150 MB/s; blocking RCCE
        // reaches roughly half of it.
        let p = onchip(false, 64 * 1024, 3);
        assert!((55.0..120.0).contains(&p.mbps), "RCCE on-chip at {} MB/s", p.mbps);
    }

    #[test]
    fn onchip_pipelined_band() {
        let p = onchip(true, 256 * 1024, 3);
        assert!((120.0..190.0).contains(&p.mbps), "iRCCE on-chip at {} MB/s", p.mbps);
    }

    #[test]
    fn pipelining_only_helps_above_packet_size() {
        // Below one packet, the pipelined protocol degenerates to the
        // blocking one.
        let small_b = onchip(false, 1024, 3);
        let small_p = onchip(true, 1024, 3);
        assert!((small_p.mbps - small_b.mbps).abs() / small_b.mbps < 0.05);
        let large_b = onchip(false, 128 * 1024, 3);
        let large_p = onchip(true, 128 * 1024, 3);
        assert!(large_p.mbps > large_b.mbps * 1.3);
    }

    #[test]
    fn routing_throughput_tiny() {
        let p = interdevice(CommScheme::SimpleRouting, 8192, 2);
        assert!(p.mbps < 5.0, "simple routing at {} MB/s should be ~1.5", p.mbps);
    }

    #[test]
    fn headline_24_percent_recovered() {
        // §5: "recover 24% of effective on-chip communication throughput".
        let onchip_max = onchip(true, 256 * 1024, 3).mbps;
        let best = interdevice(CommScheme::LocalPutLocalGet, 256 * 1024, 3).mbps;
        let ratio = best / onchip_max;
        assert!(
            (0.17..0.32).contains(&ratio),
            "best inter-device / on-chip = {ratio:.3}, expected ~0.24"
        );
    }

    #[test]
    fn lprg_fraction_of_bound() {
        // §4.1: local put / remote get reaches 71.72% of the
        // hardware-accelerated limit.
        let bound = interdevice(CommScheme::RemotePutHwAck, 128 * 1024, 2).mbps;
        let lprg = interdevice(CommScheme::LocalPutRemoteGet, 128 * 1024, 2).mbps;
        let frac = lprg / bound;
        assert!((0.55..0.85).contains(&frac), "LPRG/bound = {frac:.3}, expected ~0.72");
    }

    #[test]
    fn vdma_has_no_8k_dip_but_lprg_does() {
        let dip = |scheme: CommScheme| {
            let before = interdevice(scheme, 7424, 2).mbps;
            let after = interdevice(scheme, 8192, 2).mbps;
            after / before
        };
        assert!(dip(CommScheme::LocalPutRemoteGet) < 0.98, "LPRG should dip at 8 KiB");
        assert!(dip(CommScheme::LocalPutLocalGet) > 0.98, "vDMA removes the dip");
    }

    #[test]
    fn small_message_latency_below_programming_overhead_path() {
        // The direct-transfer threshold keeps small messages cheap: a
        // 64 B vDMA-scheme message must not cost more than ~4 routed RTs.
        let l = interdevice(CommScheme::LocalPutLocalGet, 64, 1).cycles;
        assert!(l < 40_000, "64 B latency {l} cycles too high");
    }

    #[test]
    fn idle_devices_only_slow_hw_ack() {
        let cycles = |scheme, size, n_devices| {
            let b = VsccBuilder::new(&Sim::new(), n_devices).scheme(scheme);
            interdevice_run(b, size, 2, None).0.cycles
        };
        for size in [64, 8 * 1024, 128 * 1024] {
            for scheme in CommScheme::ALL {
                let (two, five) = (cycles(scheme, size, 2), cycles(scheme, size, 5));
                if scheme == CommScheme::RemotePutHwAck {
                    assert!(five >= two, "{scheme:?} {size} B: 5 devices faster than 2");
                } else {
                    assert_eq!(two, five, "{scheme:?} {size} B: idle devices shifted timing");
                }
            }
        }
    }

    #[test]
    fn deterministic_measurements() {
        let a = interdevice(CommScheme::LocalPutLocalGet, 4096, 2);
        let b = interdevice(CommScheme::LocalPutLocalGet, 4096, 2);
        assert_eq!(a, b);
    }
}
