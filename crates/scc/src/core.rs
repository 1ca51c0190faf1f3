//! A running P54C core: every memory operation it can issue, with cycle
//! charging and functional data movement.
//!
//! Three access classes, mirroring how RCCE uses the hardware:
//!
//! * **copy** ops stream between private DRAM and an MPB ([`CoreHandle::put`]
//!   / [`CoreHandle::get`]) — the two-way copy scheme of Fig. 2;
//! * **register** ops touch single MPB ranges without DRAM
//!   ([`CoreHandle::mpb_read`] / [`CoreHandle::mpb_write`]);
//! * **flag** ops poll/toggle one synchronization byte, always invalidating
//!   L1 first exactly like the RCCE sources do.
//!
//! Reads go through the non-coherent L1 model: a line cached earlier is
//! served *stale* until [`CoreHandle::cl1invmb`] — protocols that forget the
//! invalidate observe wrong data, as on the real chip.
//!
//! Accesses to another *device* are delegated to the installed
//! [`crate::remote::RemoteFabric`]; accesses within the device are charged by the mesh cost
//! model directly.

use std::rc::Rc;

use des::bytes::{pooled, pooled_copy};
use des::{Cycles, Sim};

use crate::cache::{L1Model, Wcb};
use crate::device::SccDevice;
use crate::geometry::{GlobalCore, MpbAddr};
use crate::remote::RegisterLine;
use crate::{lines, LINE_BYTES, MPB_BYTES};

/// A handle through which simulated software drives one core.
pub struct CoreHandle {
    sim: Sim,
    device: Rc<SccDevice>,
    /// This core's identity.
    pub who: GlobalCore,
    l1: L1Model,
    wcb: Wcb,
}

impl CoreHandle {
    /// Create a handle for `core` on `device`.
    pub fn new(device: &Rc<SccDevice>, core: crate::geometry::CoreId) -> Self {
        CoreHandle {
            sim: device.sim().clone(),
            device: device.clone(),
            who: device.global(core),
            l1: L1Model::new(),
            wcb: Wcb::new(),
        }
    }

    /// The simulation clock.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The device this core sits on.
    pub fn device(&self) -> &Rc<SccDevice> {
        &self.device
    }

    /// The L1 model (inspection in tests).
    pub fn l1(&self) -> &L1Model {
        &self.l1
    }

    fn is_local_device(&self, addr: MpbAddr) -> bool {
        addr.owner.device == self.who.device
    }

    /// Charge `cycles` of core time.
    pub async fn work(&self, cycles: Cycles) {
        self.sim.delay(cycles).await;
    }

    /// Charge compute worth `flops` floating-point operations (the P54C
    /// retires ~1 FLOP per cycle at best; the paper's 533 MFLOP/s peak).
    pub async fn compute(&self, flops: u64) {
        self.sim.delay(flops).await;
    }

    // ------------------------------------------------------------------
    // Copy operations (private DRAM <-> MPB)
    // ------------------------------------------------------------------

    /// Stream `data` from private DRAM into the MPB at `addr` (the *put*
    /// of the gory API). Cross-device targets go through the fabric.
    pub async fn put(&self, addr: MpbAddr, data: &[u8]) {
        self.put_f(addr, data, None).await;
    }

    /// [`CoreHandle::put`] tagged with the message's flow id (provenance
    /// for the fabric and the store monitor; no timing difference).
    pub async fn put_f(&self, addr: MpbAddr, data: &[u8], flow: Option<u64>) {
        assert!(addr.offset as usize + data.len() <= MPB_BYTES, "put overruns MPB region");
        let cost = &self.device.cost;
        let n = lines(data.len());
        // Source side: stream out of private DRAM through the memory
        // controller port (queueing under contention).
        let mc_done = self.device.mc_port(self.who.core).reserve(&self.sim, data.len() as u64);
        if self.is_local_device(addr) {
            let cycles =
                cost.copy_cost(data.len(), self.who.core.tile(), addr.owner.core.tile(), true);
            let end = (self.sim.now() + cycles).max(mc_done);
            self.sim.delay_until(end).await;
            self.write_region_local(addr, data, flow);
        } else {
            // Off-chip posted stream: the DRAM reads overlap with the
            // (much slower) SIF emission; the core is released at
            // whichever side finishes later.
            let dram = cost.op_overhead + n * cost.dram_line;
            let start = self.sim.now();
            let fabric = self.device.fabric();
            // One pooled copy out of the app's buffer; every later hop
            // (tunnel, retries, delivery) shares it.
            fabric.write_f(self.who, addr, pooled_copy(data), flow).await;
            let end = (start + dram).max(mc_done).max(self.sim.now());
            self.sim.delay_until(end).await;
        }
    }

    /// Stream from the MPB at `addr` into private DRAM (the *get* of the
    /// gory API). Reads pass through L1: cached lines are served stale.
    pub async fn get(&self, addr: MpbAddr, buf: &mut [u8]) {
        self.get_f(addr, buf, None).await;
    }

    /// [`CoreHandle::get`] tagged with the message's flow id.
    pub async fn get_f(&self, addr: MpbAddr, buf: &mut [u8], flow: Option<u64>) {
        assert!(addr.offset as usize + buf.len() <= MPB_BYTES, "get overruns MPB region");
        let n = lines(buf.len());
        let dram = n * self.device.cost.dram_line;
        let mc_done = self.device.mc_port(self.who.core).reserve(&self.sim, buf.len() as u64);
        let read_cycles = self.read_through_l1(addr, buf, flow).await;
        let end = (self.sim.now() + read_cycles + dram).max(mc_done);
        self.sim.delay_until(end).await;
    }

    // ------------------------------------------------------------------
    // Register-level MPB access (no DRAM traffic)
    // ------------------------------------------------------------------

    /// Read `buf.len()` bytes at `addr` into registers, through L1.
    pub async fn mpb_read(&self, addr: MpbAddr, buf: &mut [u8]) {
        assert!(addr.offset as usize + buf.len() <= MPB_BYTES, "mpb_read overruns MPB region");
        let cycles = self.read_through_l1(addr, buf, None).await;
        self.sim.delay(cycles).await;
    }

    /// Write `data` at `addr` from registers (write-through, no allocate).
    pub async fn mpb_write(&self, addr: MpbAddr, data: &[u8]) {
        let cost = &self.device.cost;
        if self.is_local_device(addr) {
            let cycles =
                cost.mpb_only_cost(data.len(), self.who.core.tile(), addr.owner.core.tile(), true);
            self.sim.delay(cycles).await;
            self.write_region_local(addr, data, None);
        } else {
            self.sim.delay(cost.op_overhead).await;
            self.device.fabric().write(self.who, addr, pooled_copy(data)).await;
        }
    }

    /// Resolve reads through the L1 model; returns the core-side cycle
    /// cost. Fills `buf` with a mix of stale cached lines and fresh fills.
    async fn read_through_l1(&self, addr: MpbAddr, buf: &mut [u8], flow: Option<u64>) -> Cycles {
        let cost = &self.device.cost;
        let len = buf.len();
        if len == 0 {
            return cost.op_overhead;
        }
        let req_start = addr.offset as usize;
        let window_lines = ((req_start + len - 1) / LINE_BYTES - req_start / LINE_BYTES + 1) as u64;
        // Cached lines land in `buf` straight away (stale or not); one
        // fetch then covers the first through the last missed line.
        let missed = self.l1.probe(addr.owner, req_start, buf);
        let misses = missed.len() as u64;
        let hits = window_lines - misses;
        if let (Some(fetch_first), Some(fetch_last)) = (missed.first(), missed.last()) {
            let span = (fetch_last - fetch_first + 1) * LINE_BYTES;
            let local_buf;
            let remote_buf;
            let truth: &[u8] = if self.is_local_device(addr) {
                // Pooled scratch: recycled across reads, zero steady-state
                // allocations.
                let mut t = pooled(span);
                self.device.mpb(addr.owner.core).read(fetch_first * LINE_BYTES, &mut t);
                local_buf = t;
                &local_buf
            } else {
                remote_buf = self
                    .device
                    .fabric()
                    .read_f(
                        self.who,
                        MpbAddr::new(addr.owner, (fetch_first * LINE_BYTES) as u16),
                        span,
                        flow,
                    )
                    .await;
                &remote_buf
            };
            self.l1.fill(addr.owner, missed, truth, req_start, buf);
        }

        let per_miss = if self.is_local_device(addr) {
            cost.mpb_line_cost(self.who.core.tile(), addr.owner.core.tile(), false)
        } else {
            // Transport was already charged by the fabric await; only the
            // core-side issue cost remains.
            cost.l1_hit
        };
        cost.op_overhead + hits * cost.l1_hit + misses * per_miss
    }

    /// Functionally store to a local-device region and keep the *own* L1
    /// write-through coherent with the store (no allocate).
    fn write_region_local(&self, addr: MpbAddr, data: &[u8], flow: Option<u64>) {
        if let Some(monitor) = self.device.monitor() {
            monitor.core_write(self.who, addr, data, flow);
        }
        self.device.mpb(addr.owner.core).write(addr.offset as usize, data);
        self.l1.write_through(addr.owner, addr.offset as usize, data);
    }

    // ------------------------------------------------------------------
    // Flags
    // ------------------------------------------------------------------

    /// Invalidate MPBT lines (`CL1INVMB`).
    pub async fn cl1invmb(&self) {
        self.l1.invalidate_all();
        self.device.stats().cl1inv.inc();
        self.sim.delay(self.device.cost.cl1invmb).await;
    }

    /// Write a one-byte synchronization flag at `addr`. Flushes the WCB
    /// first (a flag write must not linger in the combine buffer).
    pub async fn flag_write(&self, addr: MpbAddr, value: u8) {
        self.flag_write_f(addr, value, None).await;
    }

    /// [`CoreHandle::flag_write`] tagged with the message's flow id.
    pub async fn flag_write_f(&self, addr: MpbAddr, value: u8, flow: Option<u64>) {
        self.wcb.flush();
        let cost = &self.device.cost;
        if self.is_local_device(addr) {
            let c = cost.mpb_line_cost(self.who.core.tile(), addr.owner.core.tile(), true)
                + cost.op_overhead;
            self.sim.delay(c).await;
            if let Some(monitor) = self.device.monitor() {
                monitor.core_write(self.who, addr, &[value], flow);
            }
            self.device.mpb(addr.owner.core).write_byte(addr.offset as usize, value);
            self.l1.write_through(addr.owner, addr.offset as usize, &[value]);
        } else {
            self.sim.delay(cost.op_overhead).await;
            self.device.fabric().write_f(self.who, addr, pooled_copy(&[value]), flow).await;
        }
    }

    /// Read a flag byte freshly: invalidate its line, then read.
    pub async fn flag_read(&self, addr: MpbAddr) -> u8 {
        self.l1.invalidate_range(addr.owner, addr.offset, 1);
        let mut b = [0u8];
        let cost = self.device.cost.cl1invmb;
        self.sim.delay(cost).await;
        self.mpb_read(addr, &mut b).await;
        b[0]
    }

    /// Busy-wait (in simulated time) until the *local* flag at `addr`
    /// equals `value`. RCCE only ever polls flags in the waiting core's own
    /// MPB (paper §3.1 footnote), so remote waits are rejected.
    pub async fn flag_wait(&self, addr: MpbAddr, value: u8) {
        assert_eq!(
            addr.owner.device, self.who.device,
            "RCCE polls local flags only; cross-device flag_wait is a protocol bug"
        );
        let region = self.device.mpb(addr.owner.core).clone();
        let cost = &self.device.cost;
        let poll_cost =
            cost.cl1invmb + cost.mpb_line_cost(self.who.core.tile(), addr.owner.core.tile(), false);
        loop {
            self.l1.invalidate_range(addr.owner, addr.offset, 1);
            self.sim.delay(poll_cost).await;
            if region.read_byte(addr.offset as usize) == value {
                return;
            }
            let target = addr.offset as usize;
            region.wait_until(|| region.read_byte(target) == value).await;
        }
    }

    // ------------------------------------------------------------------
    // Test-and-set register, MMIO
    // ------------------------------------------------------------------

    /// Acquire the test-and-set register of `lock_core` on this device.
    pub async fn lock(&self, lock_core: crate::geometry::CoreId) {
        self.sim.delay(self.device.cost.config_reg).await;
        self.device.tas_acquire(lock_core).await;
    }

    /// Release a test-and-set register.
    pub async fn unlock(&self, lock_core: crate::geometry::CoreId) {
        self.sim.delay(self.device.cost.config_reg).await;
        self.device.tas_release(lock_core);
    }

    /// Program a host register line with one fused 32 B write. The on-chip
    /// WCB makes the three logical stores (address/count/control) a single
    /// transaction (§3.3, Fig. 5); cost model: one local store plus the
    /// fabric's posted-write cost.
    pub async fn mmio_write_fused(&self, line: u16, data: [u8; LINE_BYTES]) {
        self.wcb.store((self.who, line));
        self.wcb.flush();
        self.sim.delay(self.device.cost.mpb_local_write + self.device.cost.op_overhead).await;
        self.device.fabric().mmio_write(RegisterLine { src: self.who, line, data }).await;
    }

    /// Program the same registers with three *separate* stores (the naive
    /// variant the paper's fused layout avoids); used by the ablation
    /// bench. Each store is its own fabric transaction.
    pub async fn mmio_write_discrete(&self, line: u16, data: [u8; LINE_BYTES]) {
        for i in 0..3u16 {
            self.wcb.flush();
            self.sim.delay(self.device.cost.mpb_local_write + self.device.cost.op_overhead).await;
            // Each partial store travels as a full register-line update.
            self.device
                .fabric()
                .mmio_write(RegisterLine { src: self.who, line: line * 4 + i, data })
                .await;
        }
    }

    /// Read a host register line.
    pub async fn mmio_read(&self, line: u16) -> [u8; LINE_BYTES] {
        self.sim.delay(self.device.cost.op_overhead).await;
        self.device.fabric().mmio_read(self.who, line).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SccDevice;
    use crate::geometry::{CoreId, DeviceId};
    use des::Sim;

    fn setup() -> (Sim, Rc<SccDevice>) {
        let sim = Sim::new();
        let dev = SccDevice::new(&sim, DeviceId(0));
        (sim, dev)
    }

    #[test]
    fn put_get_roundtrip_local() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let c0 = CoreHandle::new(&dev, CoreId(0));
                let addr = MpbAddr::new(dev.global(CoreId(0)), 128);
                let data: Vec<u8> = (0..200u16).map(|x| x as u8).collect();
                c0.put(addr, &data).await;
                let mut back = vec![0u8; 200];
                c0.get(addr, &mut back).await;
                assert_eq!(back, data);
            })
            .unwrap();
    }

    #[test]
    fn put_charges_time() {
        let (sim, dev) = setup();
        let t = sim
            .clone()
            .block_on(async move {
                let c0 = CoreHandle::new(&dev, CoreId(0));
                let addr = MpbAddr::new(dev.global(CoreId(0)), 0);
                c0.put(addr, &[0u8; 4096]).await;
                c0.sim().now()
            })
            .unwrap();
        // 128 lines * (dram 90 + local write 16) + overhead 30 = 13598.
        assert_eq!(t, 13_598);
    }

    #[test]
    fn remote_tile_access_costs_more_than_local() {
        let (sim, dev) = setup();
        let (t_local, t_remote) = sim
            .clone()
            .block_on(async move {
                let c0 = CoreHandle::new(&dev, CoreId(0));
                let local = MpbAddr::new(dev.global(CoreId(0)), 0);
                let remote = MpbAddr::new(dev.global(CoreId(47)), 0);
                let start = c0.sim().now();
                c0.mpb_write(local, &[1u8; 1024]).await;
                let t1 = c0.sim().now() - start;
                let start = c0.sim().now();
                c0.mpb_write(remote, &[1u8; 1024]).await;
                let t2 = c0.sim().now() - start;
                (t1, t2)
            })
            .unwrap();
        assert!(t_remote > t_local, "remote {t_remote} should exceed local {t_local}");
    }

    #[test]
    fn stale_read_without_invalidate_then_fresh_after() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let reader = CoreHandle::new(&dev, CoreId(0));
                let writer = CoreHandle::new(&dev, CoreId(2));
                let addr = MpbAddr::new(dev.global(CoreId(0)), 256);
                // Reader caches the line while it holds 0xAA.
                writer.mpb_write(addr, &[0xAA; 32]).await;
                let mut buf = [0u8; 32];
                reader.mpb_read(addr, &mut buf).await;
                assert_eq!(buf, [0xAA; 32]);
                // Writer updates memory; reader's L1 still has the old line.
                writer.mpb_write(addr, &[0xBB; 32]).await;
                reader.mpb_read(addr, &mut buf).await;
                assert_eq!(buf, [0xAA; 32], "non-coherent L1 must serve stale data");
                // CL1INVMB makes the new data visible.
                reader.cl1invmb().await;
                reader.mpb_read(addr, &mut buf).await;
                assert_eq!(buf, [0xBB; 32]);
            })
            .unwrap();
    }

    #[test]
    fn own_store_updates_own_cached_line() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let c = CoreHandle::new(&dev, CoreId(0));
                let addr = MpbAddr::new(dev.global(CoreId(0)), 0);
                c.mpb_write(addr, &[1; 32]).await;
                let mut buf = [0u8; 32];
                c.mpb_read(addr, &mut buf).await; // caches the line
                c.mpb_write(addr, &[2; 32]).await; // write-through updates it
                c.mpb_read(addr, &mut buf).await;
                assert_eq!(buf, [2; 32]);
            })
            .unwrap();
    }

    #[test]
    fn unaligned_multi_line_store_updates_every_cached_line() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let c = CoreHandle::new(&dev, CoreId(0));
                let base = dev.global(CoreId(0));
                // Cache lines 0-4, then store from mid-line 0 to mid-line 3.
                let mut cached = [0u8; 160];
                c.mpb_read(MpbAddr::new(base, 0), &mut cached).await;
                let data: Vec<u8> = (1..=100u8).collect();
                c.mpb_write(MpbAddr::new(base, 17), &data).await;
                // No CL1INVMB: the write-through must have kept L1 current.
                let mut back = [0u8; 160];
                c.mpb_read(MpbAddr::new(base, 0), &mut back).await;
                assert_eq!(back[17..117], data[..]);
                assert!(back[..17].iter().chain(&back[117..]).all(|&b| b == 0));
            })
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "mpb_read overruns MPB region")]
    fn mpb_read_past_region_end_panics() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let c = CoreHandle::new(&dev, CoreId(0));
                // 64 bytes at 8160: the last 32 lie past the region end.
                let mut buf = [0u8; 64];
                c.mpb_read(MpbAddr::new(dev.global(CoreId(0)), 8160), &mut buf).await;
            })
            .unwrap();
    }

    #[test]
    fn flag_wait_sees_flag_from_other_core() {
        let (sim, dev) = setup();
        let waiter_dev = dev.clone();
        sim.spawn_named("waiter", async move {
            let c0 = CoreHandle::new(&waiter_dev, CoreId(0));
            let flag = MpbAddr::new(waiter_dev.global(CoreId(0)), 0);
            c0.flag_wait(flag, 1).await;
            assert!(c0.sim().now() >= 1000);
        });
        sim.spawn_named("setter", {
            let dev = dev.clone();
            async move {
                let c1 = CoreHandle::new(&dev, CoreId(1));
                c1.sim().delay(1000).await;
                let flag = MpbAddr::new(dev.global(CoreId(0)), 0);
                c1.flag_write(flag, 1).await;
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn flag_wait_already_set_returns_fast() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let c0 = CoreHandle::new(&dev, CoreId(0));
                let flag = MpbAddr::new(dev.global(CoreId(0)), 32);
                c0.flag_write(flag, 5).await;
                c0.flag_wait(flag, 5).await; // must not deadlock
            })
            .unwrap();
    }

    #[test]
    fn cross_device_without_fabric_panics() {
        let (sim, dev) = setup();
        let res = sim.clone().block_on(async move {
            let c0 = CoreHandle::new(&dev, CoreId(0));
            let remote = MpbAddr::new(GlobalCore::new(1, 0), 0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.fabric();
            }));
            assert!(caught.is_err());
            let _ = (c0, remote);
        });
        res.unwrap();
    }

    #[test]
    fn lock_is_mutually_exclusive_across_handles() {
        let (sim, dev) = setup();
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..2u8 {
            let dev = dev.clone();
            let order = order.clone();
            sim.spawn_named(format!("locker{i}"), async move {
                let c = CoreHandle::new(&dev, CoreId(i));
                c.sim().delay(i as u64).await;
                c.lock(CoreId(0)).await;
                order.borrow_mut().push((i, c.sim().now()));
                c.work(500).await;
                c.unlock(CoreId(0)).await;
            });
        }
        sim.run().unwrap();
        let o = order.borrow();
        assert_eq!(o[0].0, 0);
        assert_eq!(o[1].0, 1);
        assert!(o[1].1 >= o[0].1 + 500, "second locker waited for the first");
    }

    #[test]
    fn get_partial_line_offsets() {
        let (sim, dev) = setup();
        sim.clone()
            .block_on(async move {
                let c = CoreHandle::new(&dev, CoreId(0));
                let base = dev.global(CoreId(0));
                // Write a pattern, read back at an unaligned offset/length.
                c.put(MpbAddr::new(base, 0), &(0..255u8).collect::<Vec<_>>()).await;
                let mut buf = vec![0u8; 100];
                c.get(MpbAddr::new(base, 17), &mut buf).await;
                let expect: Vec<u8> = (17..117u8).collect();
                assert_eq!(buf, expect);
            })
            .unwrap();
    }
}
