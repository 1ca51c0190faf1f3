//! The software-controlled on-chip memory: per-core 8 KiB MPB regions.
//!
//! Bytes really live here; every write notifies watchers so that simulated
//! busy-waits ("poll this flag line") sleep until the watched region is
//! touched instead of spinning the virtual clock.

use std::cell::RefCell;
use std::rc::Rc;

use des::event::Notify;
use des::stats::Counter;

use crate::MPB_BYTES;

/// One core's 8 KiB region of its tile's LMB.
///
/// RCCE further subdivides it into a synchronization-flag area and the
/// message payload area; the region itself is flat storage.
pub struct MpbRegion {
    data: RefCell<Box<[u8]>>,
    notify: Notify,
    /// Functional read accesses (shared with the owning device's stats).
    reads: Counter,
    /// Functional write accesses (shared with the owning device's stats).
    writes: Counter,
}

impl Default for MpbRegion {
    fn default() -> Self {
        Self::new()
    }
}

impl MpbRegion {
    /// A zeroed region with private access counters.
    pub fn new() -> Self {
        Self::with_counters(Counter::new(), Counter::new())
    }

    /// A zeroed region whose accesses increment the given (typically
    /// device-wide, shared) counters.
    pub fn with_counters(reads: Counter, writes: Counter) -> Self {
        MpbRegion {
            data: RefCell::new(vec![0u8; MPB_BYTES].into_boxed_slice()),
            notify: Notify::new(),
            reads,
            writes,
        }
    }

    /// Shared handle.
    pub fn shared() -> Rc<Self> {
        Rc::new(Self::new())
    }

    /// Copy `buf.len()` bytes out, starting at `offset`.
    ///
    /// This reads the *true* memory content; cache staleness is modelled a
    /// level above, in [`crate::cache::L1Model`].
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        let data = self.data.borrow();
        assert!(
            offset + buf.len() <= MPB_BYTES,
            "MPB read [{offset}, {}) out of bounds",
            offset + buf.len()
        );
        self.reads.inc();
        buf.copy_from_slice(&data[offset..offset + buf.len()]);
    }

    /// Copy `buf` in at `offset` and wake watchers.
    pub fn write(&self, offset: usize, buf: &[u8]) {
        {
            let mut data = self.data.borrow_mut();
            assert!(
                offset + buf.len() <= MPB_BYTES,
                "MPB write [{offset}, {}) out of bounds",
                offset + buf.len()
            );
            data[offset..offset + buf.len()].copy_from_slice(buf);
        }
        self.writes.inc();
        self.notify.notify_all();
    }

    /// Read `len` bytes at `offset` into a pooled shared buffer.
    ///
    /// Same semantics as [`MpbRegion::read`], but the destination comes
    /// from the `des::bytes` chunk pool and the result can be forwarded
    /// across the payload path without further copies.
    pub fn read_bytes(&self, offset: usize, len: usize) -> des::bytes::Bytes {
        let data = self.data.borrow();
        assert!(offset + len <= MPB_BYTES, "MPB read [{offset}, {}) out of bounds", offset + len);
        self.reads.inc();
        let mut out = des::bytes::pooled(len);
        out.copy_from_slice(&data[offset..offset + len]);
        out.freeze()
    }

    /// Read a single byte (flag polling).
    pub fn read_byte(&self, offset: usize) -> u8 {
        self.reads.inc();
        self.data.borrow()[offset]
    }

    /// Write a single byte and wake watchers.
    pub fn write_byte(&self, offset: usize, value: u8) {
        self.data.borrow_mut()[offset] = value;
        self.writes.inc();
        self.notify.notify_all();
    }

    /// Sleep until the region is written and `pred` holds. The predicate is
    /// evaluated against true memory; callers model cache effects
    /// themselves.
    pub async fn wait_until(&self, pred: impl FnMut() -> bool) {
        self.notify.wait_until(pred).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Sim;

    #[test]
    fn read_back_what_was_written() {
        let m = MpbRegion::new();
        m.write(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn starts_zeroed() {
        let m = MpbRegion::new();
        let mut buf = [9u8; 16];
        m.read(0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let m = MpbRegion::new();
        m.write(MPB_BYTES - 1, &[0, 0]);
    }

    #[test]
    fn wait_until_wakes_on_flag_write() {
        let sim = Sim::new();
        let m = MpbRegion::shared();
        let (m2, s2) = (m.clone(), sim.clone());
        sim.spawn_named("poller", async move {
            m2.wait_until(|| m2.read_byte(0) == 7).await;
            assert_eq!(s2.now(), 33);
        });
        let s = sim.clone();
        sim.spawn_named("setter", async move {
            s.delay(33).await;
            m.write_byte(0, 7);
        });
        sim.run().unwrap();
    }
}
