//! One SCC device: 48 cores, their MPB regions, memory-controller ports,
//! and the pluggable off-chip fabric.

use std::cell::RefCell;
use std::rc::Rc;

use des::link::{Bandwidth, Link};
use des::obs::Registry;
use des::rng::DetRng;
use des::stats::Counter;
use des::Sim;

use crate::costmodel::CostModel;
use crate::geometry::{CoreId, DeviceId, GlobalCore, MpbAddr, CORES_PER_DEVICE};
use crate::mpb::MpbRegion;
use crate::remote::RemoteFabric;

/// Observer of functional MPB stores issued by *cores of this device*
/// (cross-device stores are observed at the fabric instead). Installed by
/// the system layer to run protocol invariant monitors; implementations
/// must be passive — no simulated time, no writes — so that enabling a
/// monitor never perturbs the virtual clock.
pub trait MpbWriteMonitor {
    /// `writer` stored `data` at `addr` on its own device. `flow` is the
    /// provenance id of the message the store belongs to, if known.
    fn core_write(&self, writer: GlobalCore, addr: MpbAddr, data: &[u8], flow: Option<u64>);

    /// The host fabric delivered `data` to `addr` on behalf of `writer`
    /// (routed line, WCB granule, vDMA packet, forwarded flag). Defaults
    /// to unmonitored.
    fn host_write(&self, _writer: GlobalCore, _addr: MpbAddr, _data: &[u8], _flow: Option<u64>) {}

    /// A host software-cache hit served `cached` for `owner`'s MPB range
    /// at `offset` while the device actually holds `device_bytes`.
    /// Defaults to unmonitored.
    fn cache_read_check(
        &self,
        _owner: GlobalCore,
        _offset: u16,
        _cached: &[u8],
        _device_bytes: &[u8],
        _flow: Option<u64>,
    ) {
    }
}

/// Startup configuration; models the paper's observation (§4) that on a
/// multi-device installation "the situation occurs frequently that not all
/// 240 cores are available at startup".
#[derive(Debug, Clone)]
pub struct BootConfig {
    /// Probability that a core silently fails to boot.
    pub core_failure_prob: f64,
    /// Seed for the failure draw (combined with the device id).
    pub seed: u64,
}

impl Default for BootConfig {
    fn default() -> Self {
        BootConfig { core_failure_prob: 0.0, seed: 0 }
    }
}

/// Number of memory controllers per device.
pub const MEMORY_CONTROLLERS: usize = 4;

/// Device-wide access counters, aggregated across all 48 cores.
///
/// The MPB counters are *shared* with every [`MpbRegion`] of the device,
/// so functional accesses from any path (core, host, fabric) are counted
/// exactly once. [`SccDevice::register_metrics`] surfaces them in a
/// [`Registry`] under `scc.dN.*`.
#[derive(Clone, Default)]
pub struct DeviceStats {
    /// Functional MPB read accesses (any size), device-wide.
    pub mpb_reads: Counter,
    /// Functional MPB write accesses (any size), device-wide.
    pub mpb_writes: Counter,
    /// `CL1INVMB` instructions executed by this device's cores.
    pub cl1inv: Counter,
}

/// One SCC chip.
pub struct SccDevice {
    /// Device id (the z coordinate).
    pub id: DeviceId,
    /// The device's cycle-cost parameters.
    pub cost: CostModel,
    sim: Sim,
    mpbs: Vec<Rc<MpbRegion>>,
    mc_ports: Vec<Link>,
    fabric: RefCell<Option<Rc<dyn RemoteFabric>>>,
    monitor: RefCell<Option<Rc<dyn MpbWriteMonitor>>>,
    alive: RefCell<Vec<bool>>,
    stats: DeviceStats,
}

impl SccDevice {
    /// Build a device with the default cost model.
    pub fn new(sim: &Sim, id: DeviceId) -> Rc<Self> {
        let n = CORES_PER_DEVICE as usize;
        // DDR3-800 port: ~6.4 GB/s ≈ 12 B per 533 MHz core cycle. Streaming
        // latency is already inside CostModel::dram_line; the port link only
        // adds queueing when many cores stream at once.
        let mc_bw = Bandwidth::bytes_per_cycle(12);
        let stats = DeviceStats::default();
        Rc::new(SccDevice {
            id,
            cost: CostModel::default(),
            sim: sim.clone(),
            mpbs: (0..n)
                .map(|_| {
                    Rc::new(MpbRegion::with_counters(
                        stats.mpb_reads.clone(),
                        stats.mpb_writes.clone(),
                    ))
                })
                .collect(),
            mc_ports: (0..MEMORY_CONTROLLERS).map(|_| Link::new(mc_bw, 0, 0)).collect(),
            fabric: RefCell::new(None),
            monitor: RefCell::new(None),
            alive: RefCell::new(vec![true; n]),
            stats,
        })
    }

    /// The simulation this device lives in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Device-wide access counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Surface this device's counters in `registry` under
    /// `scc.dN.{mpb.reads, mpb.writes, cl1inv}`.
    pub fn register_metrics(&self, registry: &Registry) {
        let scope = registry.scoped("scc").scoped(&format!("d{}", self.id.0));
        scope.adopt_counter("mpb.reads", &self.stats.mpb_reads);
        scope.adopt_counter("mpb.writes", &self.stats.mpb_writes);
        scope.adopt_counter("cl1inv", &self.stats.cl1inv);
    }

    /// Boot the device, silently failing cores per `cfg`; returns the cores
    /// that came up. At least one core always boots.
    pub fn boot(&self, cfg: &BootConfig) -> Vec<CoreId> {
        let mut rng = DetRng::seed_from(cfg.seed ^ (0xD5CC_0000 + self.id.0 as u64));
        let mut alive = self.alive.borrow_mut();
        for a in alive.iter_mut() {
            *a = !rng.chance(cfg.core_failure_prob);
        }
        if !alive.iter().any(|&a| a) {
            alive[0] = true;
        }
        alive.iter().enumerate().filter(|(_, &a)| a).map(|(i, _)| CoreId(i as u8)).collect()
    }

    /// Cores currently booted.
    pub fn alive_cores(&self) -> Vec<CoreId> {
        self.alive
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| CoreId(i as u8))
            .collect()
    }

    /// Whether `core` booted.
    pub fn is_alive(&self, core: CoreId) -> bool {
        self.alive.borrow()[core.0 as usize]
    }

    /// The MPB region owned by `core`.
    pub fn mpb(&self, core: CoreId) -> &Rc<MpbRegion> {
        &self.mpbs[core.0 as usize]
    }

    /// The memory-controller port serving `core`'s private DRAM.
    pub fn mc_port(&self, core: CoreId) -> &Link {
        &self.mc_ports[core.tile().memory_controller() as usize]
    }

    /// Plug in the off-chip fabric (done by the vSCC system builder).
    pub fn set_fabric(&self, fabric: Rc<dyn RemoteFabric>) {
        *self.fabric.borrow_mut() = Some(fabric);
    }

    /// The off-chip fabric, panicking with a clear message if absent.
    pub fn fabric(&self) -> Rc<dyn RemoteFabric> {
        self.fabric
            .borrow()
            .clone()
            .expect("cross-device access without a fabric: build the system via vscc::System")
    }

    /// Install an MPB-store observer (protocol invariant monitors).
    pub fn set_monitor(&self, monitor: Rc<dyn MpbWriteMonitor>) {
        *self.monitor.borrow_mut() = Some(monitor);
    }

    /// The installed store observer, if any.
    pub fn monitor(&self) -> Option<Rc<dyn MpbWriteMonitor>> {
        self.monitor.borrow().clone()
    }

    /// The `GlobalCore` handle of a local core id.
    pub fn global(&self, core: CoreId) -> GlobalCore {
        GlobalCore { device: self.id, core }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_device_all_cores_alive() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        assert_eq!(dev.alive_cores().len(), 48);
        assert!(dev.is_alive(CoreId(47)));
    }

    #[test]
    fn boot_with_failures_drops_cores_deterministically() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(1));
        let cfg = BootConfig { core_failure_prob: 0.1, seed: 99 };
        let up1 = dev.boot(&cfg);
        let up2 = dev.boot(&cfg);
        assert_eq!(up1, up2, "boot must be deterministic for a fixed seed");
        assert!(up1.len() < 48, "10% failure probability should drop some of 48 cores");
        assert!(!up1.is_empty());
    }

    #[test]
    fn boot_never_yields_zero_cores() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        let up = dev.boot(&BootConfig { core_failure_prob: 1.0, seed: 1 });
        assert_eq!(up.len(), 1);
    }

    #[test]
    fn mpb_regions_are_distinct() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        dev.mpb(CoreId(0)).write_byte(0, 1);
        assert_eq!(dev.mpb(CoreId(1)).read_byte(0), 0);
    }

    #[test]
    fn mpb_access_counters_aggregate_across_regions() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        dev.mpb(CoreId(0)).write_byte(0, 1);
        dev.mpb(CoreId(7)).write(64, &[1, 2, 3]);
        let mut buf = [0u8; 2];
        dev.mpb(CoreId(7)).read(64, &mut buf);
        assert_eq!(dev.stats().mpb_writes.get(), 2);
        assert_eq!(dev.stats().mpb_reads.get(), 1);
    }

    #[test]
    fn register_metrics_surfaces_device_counters() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(3));
        let reg = Registry::new();
        dev.register_metrics(&reg);
        dev.mpb(CoreId(0)).write_byte(0, 9);
        assert_eq!(reg.counter("scc.d3.mpb.writes").get(), 1);
        assert_eq!(reg.counter("scc.d3.cl1inv").get(), 0);
        assert!(reg.names().contains(&"scc.d3.mpb.reads".to_string()));
    }

    #[test]
    fn fabric_missing_panics_with_hint() {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dev.fabric()));
        assert!(r.is_err());
    }
}
