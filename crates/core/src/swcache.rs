//! The host software cache of remote MPBs (§3.1/§3.2).
//!
//! The communication task mirrors (parts of) device MPB regions in host
//! memory. Consistency is *relaxed and explicit*: the cache only changes
//! when a core issues an update (prefetch) or invalidate instruction
//! through the MMIO register file. A read served from an un-updated range
//! returns stale bytes — exactly the failure mode the paper's protocol
//! rules out by having the sender invalidate/update "the outdated part of
//! the host copy explicitly".

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use des::bytes::{pooled, Bytes};
use des::event::Notify;
use des::obs::Registry;
use des::stats::Counter;
use scc::{GlobalCore, MPB_BYTES};

struct Entry {
    data: Box<[u8]>,
    valid: Box<[bool]>, // per byte; simple and exact
    pending: u64,       // in-flight updates targeting this region
}

impl Entry {
    fn new() -> Self {
        Entry {
            data: vec![0u8; MPB_BYTES].into_boxed_slice(),
            valid: vec![false; MPB_BYTES].into_boxed_slice(),
            pending: 0,
        }
    }
}

/// A named snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwCacheStats {
    /// Reads fully served from a valid mirror range.
    pub hits: u64,
    /// Reads that found (part of) the range invalid.
    pub misses: u64,
    /// Completed prefetch (update) operations.
    pub updates: u64,
    /// Explicit invalidate operations.
    pub invalidations: u64,
}

/// The software cache: one optional mirror per remote core region.
#[derive(Clone)]
pub struct SwCache {
    entries: Rc<RefCell<HashMap<GlobalCore, Entry>>>,
    notify: Notify,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    updates: Counter,
}

impl SwCache {
    /// Empty cache whose counters are registered in `registry` under
    /// `host.swcache.{hits, misses, updates, invalidations}`.
    pub fn new(registry: &Registry) -> Self {
        let scope = registry.scoped("host").scoped("swcache");
        SwCache {
            entries: Rc::default(),
            notify: Notify::new(),
            hits: scope.counter("hits"),
            misses: scope.counter("misses"),
            updates: scope.counter("updates"),
            invalidations: scope.counter("invalidations"),
        }
    }

    /// Mark an update of `owner`'s mirror as in flight (called when the
    /// MMIO command *arrives at the host*, before the DMA completes, so
    /// later reads wait instead of racing).
    pub fn begin_update(&self, owner: GlobalCore) {
        self.entries.borrow_mut().entry(owner).or_insert_with(Entry::new).pending += 1;
    }

    /// Install bytes of an in-flight update at `offset` and wake waiting
    /// readers; the update stays pending until [`SwCache::finish_update`].
    /// Lets the prefetch stream chunk by chunk so readers overlap with it
    /// ("answer remote memory requests of the receiver in parallel", §3.2).
    pub fn install(&self, owner: GlobalCore, offset: u16, data: &[u8]) {
        {
            let mut entries = self.entries.borrow_mut();
            let e = entries.entry(owner).or_insert_with(Entry::new);
            let off = offset as usize;
            e.data[off..off + data.len()].copy_from_slice(data);
            e.valid[off..off + data.len()].fill(true);
        }
        self.notify.notify_all();
    }

    /// Mark one in-flight update as finished.
    pub fn finish_update(&self, owner: GlobalCore) {
        {
            let mut entries = self.entries.borrow_mut();
            let e = entries.entry(owner).or_insert_with(Entry::new);
            debug_assert!(e.pending > 0, "finish_update without begin_update");
            e.pending = e.pending.saturating_sub(1);
        }
        self.updates.inc();
        self.notify.notify_all();
    }

    /// Whether `[offset, offset+len)` of `owner`'s mirror is fully valid.
    pub fn range_valid(&self, owner: GlobalCore, offset: u16, len: usize) -> bool {
        let entries = self.entries.borrow();
        let off = offset as usize;
        entries.get(&owner).map(|e| e.valid[off..off + len].iter().all(|&v| v)).unwrap_or(false)
    }

    /// Wait until the range is valid or no update is in flight (so a read
    /// can decide between a hit and a genuine miss).
    pub async fn wait_range_or_settled(&self, owner: GlobalCore, offset: u16, len: usize) {
        let this = self.clone();
        self.notify
            .wait_until(move || this.range_valid(owner, offset, len) || !this.has_pending(owner))
            .await;
    }

    /// Explicitly invalidate `[offset, offset+len)` of `owner`'s mirror.
    pub fn invalidate(&self, owner: GlobalCore, offset: u16, len: usize) {
        if let Some(e) = self.entries.borrow_mut().get_mut(&owner) {
            let off = offset as usize;
            e.valid[off..off + len].fill(false);
        }
        self.invalidations.inc();
    }

    /// Whether any update for `owner` is still in flight.
    pub fn has_pending(&self, owner: GlobalCore) -> bool {
        self.entries.borrow().get(&owner).map(|e| e.pending > 0).unwrap_or(false)
    }

    /// Try to serve `[offset, offset+len)` of `owner`'s mirror.
    /// Returns `Some(bytes)` on a full hit, `None` if any byte is invalid.
    /// The hit copies out of the mirror into a pooled chunk, so serving
    /// the same range repeatedly recycles one buffer instead of
    /// allocating per read.
    pub fn read(&self, owner: GlobalCore, offset: u16, len: usize) -> Option<Bytes> {
        let entries = self.entries.borrow();
        let off = offset as usize;
        match entries.get(&owner) {
            Some(e) if e.valid[off..off + len].iter().all(|&v| v) => {
                self.hits.inc();
                let mut out = pooled(len);
                out.copy_from_slice(&e.data[off..off + len]);
                Some(out.freeze())
            }
            _ => {
                self.misses.inc();
                None
            }
        }
    }

    /// Current counter values, by name.
    pub fn stats(&self) -> SwCacheStats {
        SwCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            updates: self.updates.get(),
            invalidations: self.invalidations.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Sim;

    fn owner() -> GlobalCore {
        GlobalCore::new(1, 7)
    }

    #[test]
    fn miss_before_update_hit_after() {
        let c = SwCache::new(&Registry::new());
        assert!(c.read(owner(), 512, 64).is_none());
        c.begin_update(owner());
        c.install(owner(), 512, &[7u8; 64]);
        c.finish_update(owner());
        assert_eq!(c.read(owner(), 512, 64).unwrap(), vec![7u8; 64]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.updates), (1, 1, 1));
    }

    #[test]
    fn registry_backed_cache_reports_named_metrics() {
        let reg = Registry::new();
        let c = SwCache::new(&reg);
        assert!(c.read(owner(), 0, 8).is_none());
        c.begin_update(owner());
        c.install(owner(), 0, &[1u8; 8]);
        c.finish_update(owner());
        assert!(c.read(owner(), 0, 8).is_some());
        c.invalidate(owner(), 0, 8);
        assert_eq!(reg.counter("host.swcache.hits").get(), 1);
        assert_eq!(reg.counter("host.swcache.misses").get(), 1);
        assert_eq!(reg.counter("host.swcache.updates").get(), 1);
        assert_eq!(reg.counter("host.swcache.invalidations").get(), 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn partial_validity_is_a_miss() {
        let c = SwCache::new(&Registry::new());
        c.begin_update(owner());
        c.install(owner(), 512, &[1u8; 32]);
        c.finish_update(owner());
        // Request extends past the updated range.
        assert!(c.read(owner(), 512, 64).is_none());
    }

    #[test]
    fn invalidate_makes_range_stale() {
        let c = SwCache::new(&Registry::new());
        c.begin_update(owner());
        c.install(owner(), 512, &[1u8; 128]);
        c.finish_update(owner());
        c.invalidate(owner(), 544, 32);
        assert!(c.read(owner(), 512, 128).is_none());
        // Adjacent untouched range still hits.
        assert!(c.read(owner(), 512, 32).is_some());
    }

    #[test]
    fn stale_data_served_without_explicit_update() {
        // The cache is *relaxed*: a second write to the device without an
        // update leaves the host copy stale — and the cache serves it.
        let c = SwCache::new(&Registry::new());
        c.begin_update(owner());
        c.install(owner(), 512, &[0xAA; 32]);
        c.finish_update(owner());
        // Device memory changed to 0xBB, but no update was issued:
        assert_eq!(c.read(owner(), 512, 32).unwrap(), vec![0xAA; 32]);
    }

    #[test]
    fn reader_waits_for_inflight_update() {
        let sim = Sim::new();
        let c = SwCache::new(&Registry::new());
        c.begin_update(owner());
        let (c2, s2) = (c.clone(), sim.clone());
        sim.spawn_named("reader", async move {
            c2.wait_range_or_settled(owner(), 0, 8).await;
            assert_eq!(s2.now(), 400);
            assert!(c2.read(owner(), 0, 8).is_some());
        });
        let s = sim.clone();
        sim.spawn_named("dma", async move {
            s.delay(400).await;
            c.install(owner(), 0, &[3u8; 8]);
            c.finish_update(owner());
        });
        sim.run().unwrap();
    }

    #[test]
    fn regions_are_independent() {
        let c = SwCache::new(&Registry::new());
        let a = GlobalCore::new(0, 0);
        let b = GlobalCore::new(1, 0);
        c.begin_update(a);
        c.install(a, 0, &[1; 16]);
        c.finish_update(a);
        assert!(c.read(a, 0, 16).is_some());
        assert!(c.read(b, 0, 16).is_none());
        assert!(!c.has_pending(a));
    }
}
