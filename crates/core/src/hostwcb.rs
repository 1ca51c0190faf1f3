//! The host write-combining buffer for the remote-put scheme (§3.3,
//! Fig. 4c).
//!
//! In this scheme the sender writes its message "directly to the host
//! located intermediate buffer"; the communication task then copies the
//! data "in a certain granularity" to the MPB of the remote device. The
//! buffer therefore accumulates per (destination core) streams and flushes
//! either when the configured granularity fills or when ordering demands
//! it (a synchronization-flag write to the same destination must not
//! overtake buffered data).
//!
//! The buffer assumes each destination receives a *linear* stream (the
//! sender emits chunk bytes in address order, as the remote-put protocol
//! does); runs that overlap are not re-ordered against already-flushed
//! granules — the same limitation a hardware write-combining buffer has.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use des::bytes::{pooled_with_capacity, Bytes, BytesMut};
use des::obs::Registry;
use des::stats::{Counter, Gauge};
use scc::{GlobalCore, MPB_BYTES};

/// One buffered contiguous write run for a destination, frozen for
/// delivery: downstream hops (`deliver_payload`, the tunnel, retries)
/// clone the shared [`Bytes`] instead of copying.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRun {
    /// Destination MPB offset of the first byte.
    pub offset: u16,
    /// Buffered bytes.
    pub data: Bytes,
}

/// A run still accumulating (growable until frozen for flush).
struct Accum {
    offset: u16,
    data: BytesMut,
}

#[derive(Default)]
struct State {
    pending: HashMap<GlobalCore, Vec<Accum>>,
}

/// A named snapshot of the buffer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostWcbStats {
    /// Complete granules emitted (append-triggered or drained).
    pub flushes: u64,
    /// Stores merged into the preceding contiguous run.
    pub merges: u64,
}

/// The write-combining buffer.
#[derive(Clone)]
pub struct HostWcb {
    state: Rc<RefCell<State>>,
    granularity: usize,
    flushes: Counter,
    merges: Counter,
    depth: Gauge,
}

impl HostWcb {
    /// Create a buffer flushing at `granularity` bytes per destination,
    /// with the counters registered in `registry` under
    /// `host.wcb.{flushes, merges, depth}` — `depth` is the bytes
    /// currently buffered across all destinations.
    pub fn new(granularity: usize, registry: &Registry) -> Self {
        assert!(granularity > 0 && granularity <= MPB_BYTES);
        let scope = registry.scoped("host").scoped("wcb");
        HostWcb {
            state: Rc::new(RefCell::new(State::default())),
            granularity,
            flushes: scope.counter("flushes"),
            merges: scope.counter("merges"),
            depth: scope.gauge("depth"),
        }
    }

    /// The flush granularity in bytes.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Buffer `data` headed for `dst` at `offset`. Returns the runs that
    /// became ready to flush (granularity reached), in arrival order.
    pub fn append(&self, dst: GlobalCore, offset: u16, data: &[u8]) -> Vec<PendingRun> {
        let mut ready = Vec::new();
        self.append_into(dst, offset, data, &mut ready);
        ready
    }

    /// [`HostWcb::append`] emitting into a caller-owned `ready` buffer,
    /// so a steady stream of stores reuses one scratch vector instead
    /// of allocating a return `Vec` per append.
    pub fn append_into(
        &self,
        dst: GlobalCore,
        offset: u16,
        data: &[u8],
        ready: &mut Vec<PendingRun>,
    ) {
        let mut st = self.state.borrow_mut();
        self.depth.add(data.len() as i64);
        let runs = st.pending.entry(dst).or_default();
        // Merge with the last run when contiguous (the combining part).
        match runs.last_mut() {
            Some(last) if last.offset as usize + last.data.len() == offset as usize => {
                last.data.extend_from_slice(data);
                self.merges.inc();
            }
            _ => {
                // Pooled accumulator sized for a full granule plus the
                // triggering store, so steady-state merging never grows.
                let mut buf = pooled_with_capacity(self.granularity + data.len());
                buf.extend_from_slice(data);
                runs.push(Accum { offset, data: buf });
            }
        }
        // Flush every complete granule, rewriting `runs` in place. A run
        // that reached the granularity is frozen once; its granules are
        // O(1) slices of the shared storage, and only a sub-granule
        // remainder is copied back into an accumulator.
        let before = ready.len();
        let mut i = 0;
        while i < runs.len() {
            if runs[i].data.len() < self.granularity {
                if runs[i].data.is_empty() {
                    runs.remove(i);
                } else {
                    i += 1;
                }
                continue;
            }
            let run = std::mem::replace(&mut runs[i], Accum { offset: 0, data: BytesMut::new() });
            let frozen = run.data.freeze();
            let mut offset = run.offset;
            let mut pos = 0;
            while frozen.len() - pos >= self.granularity {
                ready.push(PendingRun { offset, data: frozen.slice(pos..pos + self.granularity) });
                pos += self.granularity;
                offset += self.granularity as u16;
            }
            if pos < frozen.len() {
                let mut rest = pooled_with_capacity(self.granularity + (frozen.len() - pos));
                rest.extend_from_slice(&frozen[pos..]);
                runs[i] = Accum { offset, data: rest };
                i += 1;
            } else {
                runs.remove(i);
            }
        }
        let emitted = ready.len() - before;
        self.flushes.add(emitted as u64);
        self.depth.sub((emitted * self.granularity) as i64);
    }

    /// Drain everything buffered for `dst` (ordering flush before a flag
    /// write, or end of message).
    pub fn drain(&self, dst: GlobalCore) -> Vec<PendingRun> {
        let out: Vec<PendingRun> = self
            .state
            .borrow_mut()
            .pending
            .remove(&dst)
            .unwrap_or_default()
            .into_iter()
            .map(|run| PendingRun { offset: run.offset, data: run.data.freeze() })
            .collect();
        self.flushes.add(out.len() as u64);
        self.depth.sub(out.iter().map(|r| r.data.len() as i64).sum());
        out
    }

    /// Buffered bytes currently held for `dst`.
    pub fn buffered(&self, dst: GlobalCore) -> usize {
        self.state
            .borrow()
            .pending
            .get(&dst)
            .map(|runs| runs.iter().map(|r| r.data.len()).sum())
            .unwrap_or(0)
    }

    /// Current counter values, by name.
    pub fn stats(&self) -> HostWcbStats {
        HostWcbStats { flushes: self.flushes.get(), merges: self.merges.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dst() -> GlobalCore {
        GlobalCore::new(2, 3)
    }

    #[test]
    fn small_writes_accumulate() {
        let w = HostWcb::new(1024, &Registry::new());
        assert!(w.append(dst(), 512, &[1; 100]).is_empty());
        assert!(w.append(dst(), 612, &[2; 100]).is_empty());
        assert_eq!(w.buffered(dst()), 200);
        assert_eq!(w.stats().merges, 1, "contiguous append must merge");
    }

    #[test]
    fn registry_backed_wcb_reports_named_metrics() {
        let reg = Registry::new();
        let w = HostWcb::new(256, &reg);
        w.append(dst(), 0, &[1; 256]);
        assert_eq!(reg.counter("host.wcb.flushes").get(), 1);
        assert_eq!(w.stats(), HostWcbStats { flushes: 1, merges: 0 });
    }

    #[test]
    fn depth_gauge_tracks_buffered_bytes() {
        let reg = Registry::new();
        let w = HostWcb::new(256, &reg);
        let depth = reg.gauge("host.wcb.depth");
        w.append(dst(), 0, &[1; 100]);
        assert_eq!(depth.get(), 100);
        w.append(dst(), 100, &[2; 300]); // crosses a granule: 256 flush
        assert_eq!(depth.get(), 400 - 256);
        assert_eq!(depth.get() as usize, w.buffered(dst()));
        w.drain(dst());
        assert_eq!(depth.get(), 0);
    }

    #[test]
    fn granularity_reached_emits_flush() {
        let w = HostWcb::new(256, &Registry::new());
        let ready = w.append(dst(), 512, &[7; 600]);
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].offset, 512);
        assert_eq!(ready[0].data.len(), 256);
        assert_eq!(ready[1].offset, 768);
        assert_eq!(w.buffered(dst()), 600 - 512);
    }

    #[test]
    fn drain_returns_remainder_in_order() {
        let w = HostWcb::new(1024, &Registry::new());
        w.append(dst(), 512, &[1; 10]);
        w.append(dst(), 700, &[2; 10]); // non-contiguous: second run
        let runs = w.drain(dst());
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].offset, 512);
        assert_eq!(runs[1].offset, 700);
        assert_eq!(w.buffered(dst()), 0);
    }

    #[test]
    fn destinations_are_independent() {
        let w = HostWcb::new(1024, &Registry::new());
        let other = GlobalCore::new(3, 0);
        w.append(dst(), 512, &[1; 50]);
        w.append(other, 512, &[2; 60]);
        assert_eq!(w.buffered(dst()), 50);
        assert_eq!(w.buffered(other), 60);
        w.drain(dst());
        assert_eq!(w.buffered(other), 60);
    }

    #[test]
    fn flush_preserves_bytes_exactly() {
        let w = HostWcb::new(128, &Registry::new());
        let payload: Vec<u8> = (0..200u8).collect();
        let mut got = w.append(dst(), 512, &payload);
        got.extend(w.drain(dst()));
        let mut reassembled = vec![0u8; 200];
        for run in got {
            let off = run.offset as usize - 512;
            reassembled[off..off + run.data.len()].copy_from_slice(&run.data);
        }
        assert_eq!(reassembled, payload);
    }
}
