//! Device ports and the shared host fabric.
//!
//! Each device owns a full-duplex PCIe path to the host, modelled as two
//! FIFO [`Link`]s whose bandwidth is the SIF's 32 B-packet processing rate
//! (the structural bottleneck of the system, see crate docs). All ports
//! additionally contend for host memory through one shared link.

use std::cell::RefCell;
use std::rc::Rc;

use des::faultplan::FaultPlan;
use des::link::{Bandwidth, Link};
use des::obs::Registry;
use des::stats::Counter;
use des::{Cycles, Sim};
use scc::geometry::DeviceId;

use crate::model::PcieModel;

/// Kind discriminator of a host↔device control TLP on the MMIO conduit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConduitKind {
    /// Posted doorbell write into a host register window (core → host).
    /// The sender continues at wire-free time; the write lands at the
    /// stamped arrival.
    Doorbell,
    /// Non-posted status read request (core → host); the reader blocks
    /// until the matching [`ConduitKind::StatusAnswer`] returns.
    StatusRead,
    /// Completion carrying the status payload back (host → core).
    StatusAnswer,
}

/// A latency-stamped control TLP crossing the host↔device boundary:
/// the payload plus the virtual time at which it becomes visible on
/// the far side. Stamped only by [`DevicePort::stamp_to_host`] /
/// [`DevicePort::stamp_to_device`], so every instance carries at least
/// [`PcieModel::mmio_crossing_cycles`] of modeled delay.
#[derive(Debug, Clone)]
pub struct ConduitTlp<T> {
    /// What kind of control signal this is.
    pub kind: ConduitKind,
    /// The device whose port stamped it.
    pub device: DeviceId,
    /// Virtual time at which the TLP is visible at the far end.
    pub arrival: Cycles,
    /// The control payload (register line, packed status, ...).
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
    /// Installed fault plan, if any; gates transfers during link-down
    /// windows. `None` (the default) is the zero-perturbation path.
    faults: RefCell<Option<Rc<FaultPlan>>>,
    /// The model's minimum boundary-crossing cost; the stamp helpers
    /// assert every stamped arrival respects it.
    min_crossing: Cycles,
    /// Control TLPs stamped through this port (both directions).
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
            faults: RefCell::new(None),
            min_crossing: model.mmio_crossing_cycles(),
            conduit_tlps: Counter::new(),
        }
    }

    /// Stamp a control TLP device → host: reserve `bytes` of egress
    /// wire time and return the stamped TLP plus the posted-completion
    /// point (`wire_free`) at which the sender may continue. The
    /// arrival stamp is checked against the model's minimum crossing
    /// cost (DESIGN.md §5i).
    pub fn stamp_to_host<T>(
        &self,
        sim: &Sim,
        kind: ConduitKind,
        bytes: u64,
        payload: T,
    ) -> (ConduitTlp<T>, Cycles) {
        let res = self.egress.reserve_timed(sim, bytes);
        self.check_stamp(sim, res.arrival);
        (ConduitTlp { kind, device: self.device, arrival: res.arrival, payload }, res.wire_free)
    }

    /// Stamp a control TLP host → device (status answers): reserve
    /// `bytes` of ingress wire time and return the stamped TLP plus the
    /// wire-free point.
    pub fn stamp_to_device<T>(
        &self,
        sim: &Sim,
        kind: ConduitKind,
        bytes: u64,
        payload: T,
    ) -> (ConduitTlp<T>, Cycles) {
        let res = self.ingress.reserve_timed(sim, bytes);
        self.check_stamp(sim, res.arrival);
        (ConduitTlp { kind, device: self.device, arrival: res.arrival, payload }, res.wire_free)
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

    /// Install a fault plan on this port.
    pub fn set_faults(&self, plan: Rc<FaultPlan>) {
        *self.faults.borrow_mut() = Some(plan);
    }

    /// Hold the caller while the link is in an injected link-down window
    /// (the switch retains the TLP until the link retrains). A no-op
    /// without an installed plan or outside a window.
    pub async fn fault_gate(&self, sim: &Sim) {
        let until = self.faults.borrow().as_ref().and_then(|plan| plan.link_down_until(sim.now()));
        if let Some(until) = until {
            sim.delay_until(until).await;
        }
    }

    /// Move `bytes` device → host; resolves at arrival in host memory.
    pub async fn to_host(&self, sim: &Sim, bytes: u64) {
        self.fault_gate(sim).await;
        self.egress.transfer(sim, bytes).await;
    }

    /// Move `bytes` host → device; resolves at arrival in the device.
    pub async fn to_device(&self, sim: &Sim, bytes: u64) {
        self.fault_gate(sim).await;
        self.ingress.transfer(sim, bytes).await;
    }

    /// Reserve egress wire time without waiting (pipelined senders).
    pub fn reserve_to_host(&self, sim: &Sim, bytes: u64) -> Cycles {
        self.egress.reserve(sim, bytes)
    }

    /// Reserve ingress wire time without waiting (pipelined delivery).
    pub fn reserve_to_device(&self, sim: &Sim, bytes: u64) -> Cycles {
        self.ingress.reserve(sim, bytes)
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

    /// Install a fault plan on every port.
    pub fn set_faults(&self, plan: &Rc<FaultPlan>) {
        for port in &self.ports {
            port.set_faults(plan.clone());
        }
    }

    /// Charge a pass through host memory for `bytes` (copy into or out of
    /// a daemon buffer).
    pub async fn host_copy(&self, sim: &Sim, bytes: u64) {
        self.host_mem.transfer(sim, bytes).await;
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

    #[test]
    fn port_stream_rate_matches_sif_ceiling() {
        let sim = Sim::new();
        let model = PcieModel::default();
        let fabric = HostFabric::new(model.clone(), 2);
        let bytes: u64 = 1 << 20;
        let s = sim.clone();
        let t = sim
            .block_on(async move {
                fabric.port(DeviceId(0)).to_host(&s, bytes).await;
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
            f.port(DeviceId(0)).to_host(&s, 1 << 20).await;
        });
        let (s, f) = (sim.clone(), fabric.clone());
        let h = sim.spawn(async move {
            f.port(DeviceId(0)).to_device(&s, 32).await;
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
                f.port(DeviceId(d)).to_host(&s, 1 << 18).await;
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
                fabric.port(DeviceId(1)).to_host(&s, 4096).await;
                fabric.host_copy(&s, 4096).await;
                (fabric.port(DeviceId(1)).total_bytes(), ())
            })
            .unwrap();
        assert_eq!(reg.counter("pcie.link1.egress.bytes").get(), 4096);
        assert_eq!(reg.counter("pcie.link0.egress.bytes").get(), 0);
        assert_eq!(reg.counter("pcie.host_mem.bytes").get(), 4096);
        assert_eq!(t.0, 4096);
        let names = reg.names();
        assert!(names.contains(&"pcie.link0.ingress.queue_depth".to_string()));
        assert!(names.contains(&"pcie.host_mem.latency_cycles".to_string()));
    }

    #[test]
    fn link_down_window_stalls_transfers() {
        use des::faultplan::{FaultPlan, FaultSpec};
        use des::trace::Trace;
        let spec = FaultSpec::parse("linkdown=5000@1000000").unwrap();
        let sim = Sim::new();
        let fabric = std::rc::Rc::new(HostFabric::new(PcieModel::default(), 1));
        fabric.set_faults(&Rc::new(FaultPlan::new(spec, Trace::disabled())));
        let (s, f) = (sim.clone(), fabric.clone());
        let t = sim
            .block_on(async move {
                // t=0 is inside the first down window: the line waits for
                // the link to retrain at t=5000 before crossing.
                f.port(DeviceId(0)).to_device(&s, 32).await;
                s.now()
            })
            .unwrap();
        assert!(t >= 5_000, "transfer finished at {t}, before the window ended");
        // Without the plan the same line crosses in well under 5000 cycles.
        let sim = Sim::new();
        let fabric = std::rc::Rc::new(HostFabric::new(PcieModel::default(), 1));
        let (s, f) = (sim.clone(), fabric.clone());
        let t0 = sim
            .block_on(async move {
                f.port(DeviceId(0)).to_device(&s, 32).await;
                s.now()
            })
            .unwrap();
        assert!(t0 < 5_000);
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
        let (tlp, wire_free) = port.stamp_to_host(&sim, ConduitKind::Doorbell, 32, 0xD00Du32);
        assert_eq!(tlp.kind, ConduitKind::Doorbell);
        assert_eq!(tlp.payload, 0xD00D);
        assert!(wire_free < tlp.arrival, "posted writer continues before the TLP lands");
        assert!(
            tlp.arrival - sim.now() >= model.mmio_crossing_cycles(),
            "doorbell stamped {} cycles ahead, below the crossing cost",
            tlp.arrival - sim.now()
        );
        // The answer direction observes the same discipline.
        let (ans, _) = port.stamp_to_device(&sim, ConduitKind::StatusAnswer, 32, [0u8; 4]);
        assert!(ans.arrival - sim.now() >= model.mmio_crossing_cycles());
        assert_eq!(reg.counter("pcie.link0.conduit.tlps").get(), 2);
        // Back-to-back stamps queue on the wire FIFO like any transfer.
        let (second, _) = port.stamp_to_host(&sim, ConduitKind::StatusRead, 32, 0u32);
        assert!(second.arrival > tlp.arrival);
    }

    #[test]
    fn host_mem_is_shared_contention_point() {
        let sim = Sim::new();
        let fabric = std::rc::Rc::new(HostFabric::new(PcieModel::default(), 2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (s, f) = (sim.clone(), fabric.clone());
            handles.push(sim.spawn(async move {
                f.host_copy(&s, 1 << 16).await;
                s.now()
            }));
        }
        sim.run().unwrap();
        let t0 = handles[0].try_take().unwrap();
        let t1 = handles[1].try_take().unwrap();
        assert!(t1 > t0, "second host copy must queue behind the first");
    }
}
