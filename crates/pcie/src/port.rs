//! Device ports and the shared host fabric.
//!
//! Each device owns a full-duplex PCIe path to the host, modelled as two
//! FIFO [`Link`]s whose bandwidth is the SIF's 32 B-packet processing rate
//! (the structural bottleneck of the system, see crate docs). All ports
//! additionally contend for host memory through one shared link.
//!
//! The host driver's register file is written, never read: the only
//! control TLP is the posted doorbell a core stamps device → host
//! ([`DevicePort::stamp_to_host`]). Payload moves as plain reservations
//! on the two links.

use des::link::{Bandwidth, Link};
use des::obs::Registry;
use des::stats::Counter;
use des::{Cycles, Sim};
use scc::geometry::DeviceId;

use crate::model::PcieModel;

/// A latency-stamped posted doorbell crossing the device → host
/// boundary: the payload plus the virtual time at which it becomes
/// visible at the host. Stamped only by [`DevicePort::stamp_to_host`], so
/// every instance carries at least [`PcieModel::mmio_crossing_cycles`] of
/// modeled delay. The sender continues at wire-free time; nothing is ever
/// stamped back, since no protocol reads a host register (paper §3.3).
#[derive(Debug, Clone)]
pub struct ConduitTlp<T> {
    /// Virtual time at which the TLP is visible at the host.
    pub arrival: Cycles,
    /// The control payload (the register line).
    pub payload: T,
}

/// One device's PCIe attachment (SIF + FPGA + cable).
pub struct DevicePort {
    /// Device → host direction.
    pub egress: Link,
    /// Host → device direction.
    pub ingress: Link,
    /// The device this port belongs to.
    pub device: DeviceId,
    /// The model's minimum boundary-crossing cost; the stamp helpers
    /// assert every stamped arrival respects it.
    min_crossing: Cycles,
    /// Doorbell TLPs stamped through this port.
    conduit_tlps: Counter,
}

impl DevicePort {
    /// Build a port from the model parameters.
    pub fn new(model: &PcieModel, device: DeviceId) -> Self {
        let bw = model.sif_bandwidth();
        DevicePort {
            egress: Link::new(bw, model.hw_latency, model.per_transfer_cycles),
            ingress: Link::new(bw, model.hw_latency, model.per_transfer_cycles),
            device,
            min_crossing: model.mmio_crossing_cycles(),
            conduit_tlps: Counter::new(),
        }
    }

    /// Stamp a doorbell TLP device → host: reserve `bytes` of egress
    /// wire time and return the stamped TLP plus the posted-completion
    /// point (`wire_free`) at which the sender may continue. The
    /// arrival stamp is checked against the model's minimum crossing
    /// cost (DESIGN.md §5i).
    pub fn stamp_to_host<T>(&self, sim: &Sim, bytes: u64, payload: T) -> (ConduitTlp<T>, Cycles) {
        let res = self.egress.reserve_timed(sim, bytes);
        self.check_stamp(sim, res.arrival);
        (ConduitTlp { arrival: res.arrival, payload }, res.wire_free)
    }

    fn check_stamp(&self, sim: &Sim, arrival: Cycles) {
        self.conduit_tlps.add(1);
        debug_assert!(
            arrival.saturating_sub(sim.now()) >= self.min_crossing,
            "conduit TLP stamped {} cycles ahead, below the {}-cycle boundary minimum",
            arrival.saturating_sub(sim.now()),
            self.min_crossing
        );
    }

    /// Total payload bytes moved in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.egress.total_bytes() + self.ingress.total_bytes()
    }

    /// Surface both directions' link instruments in `registry` under
    /// `pcie.linkN.{egress,ingress}.*` where `N` is the device id.
    pub fn register_metrics(&self, registry: &Registry) {
        let link = registry.scoped("pcie").scoped(&format!("link{}", self.device.0));
        self.egress.register_metrics(&link.scoped("egress"));
        self.ingress.register_metrics(&link.scoped("ingress"));
        link.scoped("conduit").adopt_counter("tlps", &self.conduit_tlps);
    }
}

/// The host side of the fabric: one port per device plus the shared
/// host-memory path.
pub struct HostFabric {
    /// Per-device ports, indexed by device id.
    pub ports: Vec<DevicePort>,
    /// Shared host memory bandwidth (both the daemon's buffers and DMA
    /// descriptors live here).
    pub host_mem: Link,
    /// The timing model.
    pub model: PcieModel,
}

impl HostFabric {
    /// Build the fabric for `devices` devices.
    pub fn new(model: PcieModel, devices: u8) -> Self {
        let host_mem = Link::new(Bandwidth::bytes_per_cycle(model.host_mem_bytes_per_cycle), 0, 20);
        HostFabric {
            ports: (0..devices).map(|d| DevicePort::new(&model, DeviceId(d))).collect(),
            host_mem,
            model,
        }
    }

    /// The port of `device`.
    pub fn port(&self, device: DeviceId) -> &DevicePort {
        &self.ports[device.0 as usize]
    }

    /// Surface every port and the shared host-memory link in `registry`
    /// (`pcie.linkN.*`, `pcie.host_mem.*`).
    pub fn register_metrics(&self, registry: &Registry) {
        for port in &self.ports {
            port.register_metrics(registry);
        }
        self.host_mem.register_metrics(&registry.scoped("pcie").scoped("host_mem"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SIF port links and the host-memory link charge exactly the
    /// `u128` occupancy formula, also past the `bytes * num` `u64` edge.
    #[test]
    fn fabric_link_occupancy_matches_u128_formula() {
        let model = PcieModel::default();
        let fabric = HostFabric::new(model.clone(), 2);
        let sif = (model.sif_packet_cycles, scc::LINE_BYTES as u64);
        let host_mem = (1, model.host_mem_bytes_per_cycle);
        let port = fabric.port(DeviceId(1));
        for (link, (num, den)) in
            [(&port.egress, sif), (&port.ingress, sif), (&fabric.host_mem, host_mem)]
        {
            assert_eq!(link.bandwidth(), Bandwidth::cycles_per_byte(num, den));
            let edge = u64::MAX / num;
            for bytes in [0, 1, 32, 4096, 1 << 20, edge - 1, edge, edge.saturating_add(1), u64::MAX]
            {
                let want = (bytes as u128 * num as u128).div_ceil(den as u128) as Cycles;
                assert_eq!(link.bandwidth().occupancy(bytes), want, "{num}/{den}, {bytes} bytes");
            }
        }
    }

    #[test]
    fn port_stream_rate_matches_sif_ceiling() {
        let sim = Sim::new();
        let model = PcieModel::default();
        let fabric = HostFabric::new(model.clone(), 2);
        let bytes: u64 = 1 << 20;
        let s = sim.clone();
        let t = sim
            .block_on(async move {
                fabric.port(DeviceId(0)).egress.transfer(&s, bytes).await;
                s.now()
            })
            .unwrap();
        let mbps = des::time::CORE_FREQ.mbytes_per_sec(bytes, t);
        let peak = model.sif_peak_mbps();
        assert!(
            (mbps - peak).abs() / peak < 0.05,
            "1 MiB stream at {mbps} MB/s should be within 5% of the {peak} MB/s ceiling"
        );
    }

    #[test]
    fn directions_are_independent() {
        let sim = Sim::new();
        let fabric = std::rc::Rc::new(HostFabric::new(PcieModel::default(), 1));
        // Saturate egress; an ingress transfer must not queue behind it.
        let (s, f) = (sim.clone(), fabric.clone());
        sim.spawn(async move {
            f.port(DeviceId(0)).egress.transfer(&s, 1 << 20).await;
        });
        let (s, f) = (sim.clone(), fabric.clone());
        let h = sim.spawn(async move {
            f.port(DeviceId(0)).ingress.transfer(&s, 32).await;
            s.now()
        });
        sim.run().unwrap();
        let t = h.try_take().unwrap();
        assert!(t < 2_000, "ingress line took {t} cycles; must not contend with egress");
    }

    #[test]
    fn ports_of_different_devices_run_in_parallel() {
        let sim = Sim::new();
        let fabric = std::rc::Rc::new(HostFabric::new(PcieModel::default(), 2));
        let mut handles = Vec::new();
        for d in 0..2u8 {
            let (s, f) = (sim.clone(), fabric.clone());
            handles.push(sim.spawn(async move {
                f.port(DeviceId(d)).egress.transfer(&s, 1 << 18).await;
                s.now()
            }));
        }
        sim.run().unwrap();
        let t0 = handles[0].try_take().unwrap();
        let t1 = handles[1].try_take().unwrap();
        // Same finish time: no cross-device serialization on the wire.
        assert_eq!(t0, t1);
    }

    #[test]
    fn fabric_metrics_cover_every_link() {
        let sim = Sim::new();
        let fabric = HostFabric::new(PcieModel::default(), 2);
        let reg = Registry::new();
        fabric.register_metrics(&reg);
        let s = sim.clone();
        let t = sim
            .block_on(async move {
                fabric.port(DeviceId(1)).egress.transfer(&s, 4096).await;
                fabric.host_mem.transfer(&s, 4096).await;
                fabric.port(DeviceId(1)).total_bytes()
            })
            .unwrap();
        assert_eq!(reg.counter("pcie.link1.egress.bytes").get(), 4096);
        assert_eq!(reg.counter("pcie.link0.egress.bytes").get(), 0);
        assert_eq!(reg.counter("pcie.host_mem.bytes").get(), 4096);
        assert_eq!(t, 4096);
        let names = reg.names();
        assert!(names.contains(&"pcie.link0.ingress.queue_depth".to_string()));
        assert!(names.contains(&"pcie.host_mem.latency_cycles".to_string()));
    }

    #[test]
    fn conduit_stamps_respect_the_boundary_minimum() {
        let sim = Sim::new();
        let model = PcieModel::default();
        let fabric = HostFabric::new(model.clone(), 1);
        let reg = Registry::new();
        fabric.register_metrics(&reg);
        let port = fabric.port(DeviceId(0));
        // A posted doorbell: the sender's continuation point precedes
        // the arrival, and the arrival carries at least one full
        // MMIO crossing of modeled delay.
        let (tlp, wire_free) = port.stamp_to_host(&sim, 32, 0xD00Du32);
        assert_eq!(tlp.payload, 0xD00D);
        assert!(wire_free < tlp.arrival, "posted writer continues before the TLP lands");
        assert!(
            tlp.arrival - sim.now() >= model.mmio_crossing_cycles(),
            "doorbell stamped {} cycles ahead, below the crossing cost",
            tlp.arrival - sim.now()
        );
        // Back-to-back stamps queue on the wire FIFO like any transfer.
        let (second, _) = port.stamp_to_host(&sim, 32, 0u32);
        assert!(second.arrival > tlp.arrival);
        assert_eq!(reg.counter("pcie.link0.conduit.tlps").get(), 2);
    }

    #[test]
    fn host_mem_is_shared_contention_point() {
        let sim = Sim::new();
        let fabric = std::rc::Rc::new(HostFabric::new(PcieModel::default(), 2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (s, f) = (sim.clone(), fabric.clone());
            handles.push(sim.spawn(async move {
                f.host_mem.transfer(&s, 1 << 16).await;
                s.now()
            }));
        }
        sim.run().unwrap();
        let t0 = handles[0].try_take().unwrap();
        let t1 = handles[1].try_take().unwrap();
        assert!(t1 > t0, "second host copy must queue behind the first");
    }
}
