//! Always-on protocol invariant monitors.
//!
//! [`Monitors`] implements [`scc::device::MpbWriteMonitor`] and watches
//! every MPB store (core-local and host-delivered) plus software-cache
//! hits. All checks are *passive*: they never advance simulated time, so
//! installing them perturbs no measured number. Three invariants:
//!
//! 1. **Flag-counter monotonicity** — the one-byte wrapping counters
//!    (`sent`, `ready`, `vdma_done`) may only move forward (a wrap-safe
//!    delta below 128); a backwards write means a protocol sequencing bug.
//!    The barrier flags are excluded: they toggle by round, not count.
//! 2. **Window discipline** — each [`CommScheme`] partitions the payload
//!    area into a core-owned send window and a host-delivery window (see
//!    DESIGN.md §4b). A store outside the writer's window would silently
//!    corrupt an in-flight message of another path.
//! 3. **Software-cache consistency** — a cache *hit* must serve exactly
//!    the bytes the owning device holds; divergence means a missed
//!    invalidate/update.
//!
//! Violations emit an [`Category::App`] trace event tagged with the flow
//! id, dump the recorded trace to stderr, and (by default) panic so
//! tests fail at the violating store instead of at a downstream payload
//! verification.

use std::cell::RefCell;
use std::collections::HashMap;

use des::trace::{Category, Trace};
use des::{fields, Sim};
use rcce::layout::{self, CHUNK_BYTES, MAX_RANKS, OFF_BARRIER, OFF_PAYLOAD, OFF_VDMA_DONE};
use scc::device::MpbWriteMonitor;
use scc::geometry::{GlobalCore, MpbAddr};

use crate::schemes::{CommScheme, LPRG_CHUNK, SEND_AREA_BYTES};

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant tripped (`flag_monotonicity`, `window_discipline`,
    /// `swcache_consistency`).
    pub check: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Flow id of the offending access, if known.
    pub flow: Option<u64>,
}

/// The monitor set; one instance is shared by every device of a system.
pub struct Monitors {
    sim: Sim,
    trace: Trace,
    scheme: CommScheme,
    multi_device: bool,
    fail_fast: bool,
    /// Last observed value per counter flag byte.
    flags: RefCell<HashMap<(GlobalCore, u16), u8>>,
    violations: RefCell<Vec<Violation>>,
}

impl Monitors {
    /// Monitors for a system running `scheme` over `n_devices` devices.
    /// `fail_fast` panics at the violating store (the default in systems
    /// built by [`crate::VsccBuilder`]); disable it to collect
    /// [`Monitors::violations`] instead.
    pub fn new(
        sim: &Sim,
        trace: Trace,
        scheme: CommScheme,
        n_devices: u8,
        fail_fast: bool,
    ) -> Self {
        Monitors {
            sim: sim.clone(),
            trace,
            scheme,
            multi_device: n_devices > 1,
            fail_fast,
            flags: RefCell::new(HashMap::new()),
            violations: RefCell::new(Vec::new()),
        }
    }

    /// Violations recorded so far (empty unless `fail_fast` is off).
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.borrow().clone()
    }

    fn report(&self, check: &'static str, flow: Option<u64>, detail: String) {
        let d = detail.clone();
        self.trace.instant(
            self.sim.now(),
            Category::App,
            "monitor_violation",
            flow,
            || "monitor",
            || fields![check = check, detail = d.clone()],
        );
        self.violations.borrow_mut().push(Violation { check, detail: detail.clone(), flow });
        if self.fail_fast {
            // Dump the trace so the events leading up to the violation
            // survive the panic.
            eprintln!("--- monitor violation: traced events ---");
            eprint!("{}", self.trace.render());
            panic!("protocol invariant violated [{check}]: {detail}");
        }
    }

    /// Wrap-safe forward check on the counter-flag bytes. `sent` occupies
    /// `[0, MAX_RANKS)`, `ready` `[OFF_READY, OFF_READY + MAX_RANKS)`,
    /// `vdma_done` is one byte; the barrier flags `[OFF_BARRIER,
    /// OFF_VDMA_DONE)` toggle per round and are exempt.
    fn check_flags(&self, addr: MpbAddr, data: &[u8], flow: Option<u64>) {
        if data.len() != 1 || addr.offset >= OFF_PAYLOAD {
            return;
        }
        let off = addr.offset;
        let is_counter = (off as usize) < MAX_RANKS
            || (off >= layout::OFF_READY
                && (off as usize) < layout::OFF_READY as usize + MAX_RANKS)
            || off == OFF_VDMA_DONE;
        let is_barrier = (OFF_BARRIER..OFF_VDMA_DONE).contains(&off);
        if !is_counter || is_barrier {
            return;
        }
        let new = data[0];
        let mut flags = self.flags.borrow_mut();
        match flags.insert((addr.owner, off), new) {
            Some(old) if new.wrapping_sub(old) >= 128 => {
                drop(flags);
                self.report(
                    "flag_monotonicity",
                    flow,
                    format!("flag at {:?}+{off} stepped backwards: {old} -> {new}", addr.owner),
                );
            }
            _ => {}
        }
    }

    /// The payload window a *core-issued* store may touch.
    fn core_window(&self) -> usize {
        match self.scheme {
            CommScheme::SimpleRouting => CHUNK_BYTES,
            CommScheme::LocalPutRemoteGet => LPRG_CHUNK,
            CommScheme::RemotePutHwAck
            | CommScheme::RemotePutWcb
            | CommScheme::LocalPutLocalGet => SEND_AREA_BYTES,
        }
    }

    fn check_core_window(&self, writer: GlobalCore, addr: MpbAddr, len: usize, flow: Option<u64>) {
        if !self.multi_device || addr.offset < OFF_PAYLOAD {
            return;
        }
        let po = (addr.offset - OFF_PAYLOAD) as usize;
        let limit = self.core_window();
        if po + len > limit {
            self.report(
                "window_discipline",
                flow,
                format!(
                    "core {writer:?} wrote payload [{po}, {}) of {:?}, outside the \
                     {:?} core window [0, {limit})",
                    po + len,
                    addr.owner,
                    self.scheme
                ),
            );
        }
    }

    fn check_host_window(&self, writer: GlobalCore, addr: MpbAddr, len: usize, flow: Option<u64>) {
        if addr.offset < OFF_PAYLOAD {
            return;
        }
        let po = (addr.offset - OFF_PAYLOAD) as usize;
        // Transparent routing writes anywhere a core could; the explicit
        // schemes deliver inbound traffic only into the receive half.
        let (lo, hi) = match self.scheme {
            CommScheme::SimpleRouting => (0, CHUNK_BYTES),
            _ => (SEND_AREA_BYTES, CHUNK_BYTES),
        };
        if po < lo || po + len > hi {
            self.report(
                "window_discipline",
                flow,
                format!(
                    "host delivered [{po}, {}) into {:?} on behalf of {writer:?}, outside \
                     the {:?} delivery window [{lo}, {hi})",
                    po + len,
                    addr.owner,
                    self.scheme
                ),
            );
        }
    }
}

impl MpbWriteMonitor for Monitors {
    fn core_write(&self, writer: GlobalCore, addr: MpbAddr, data: &[u8], flow: Option<u64>) {
        self.check_flags(addr, data, flow);
        self.check_core_window(writer, addr, data.len(), flow);
    }

    fn host_write(&self, writer: GlobalCore, addr: MpbAddr, data: &[u8], flow: Option<u64>) {
        self.check_flags(addr, data, flow);
        self.check_host_window(writer, addr, data.len(), flow);
    }

    fn cache_read_check(
        &self,
        owner: GlobalCore,
        offset: u16,
        cached: &[u8],
        device_bytes: &[u8],
        flow: Option<u64>,
    ) {
        if cached != device_bytes {
            let first = cached.iter().zip(device_bytes).position(|(a, b)| a != b).unwrap_or(0);
            self.report(
                "swcache_consistency",
                flow,
                format!(
                    "software-cache hit for {owner:?}+{offset} diverges from the device \
                     (first differing byte at +{first}: cached {} vs device {})",
                    cached[first], device_bytes[first]
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitors(scheme: CommScheme, n_devices: u8) -> Monitors {
        let sim = Sim::new();
        Monitors::new(&sim, Trace::enabled(), scheme, n_devices, false)
    }

    fn core(d: u8, c: u8) -> GlobalCore {
        GlobalCore::new(d, c)
    }

    #[test]
    fn forward_flag_steps_pass_backwards_fails() {
        let m = monitors(CommScheme::LocalPutLocalGet, 2);
        let a = MpbAddr::new(core(0, 0), 3); // a sent flag
        m.core_write(core(0, 0), a, &[1], None);
        m.core_write(core(0, 0), a, &[2], None);
        m.core_write(core(0, 0), a, &[2], None); // idempotent rewrite ok
        assert!(m.violations().is_empty());
        m.core_write(core(0, 0), a, &[1], Some(9));
        let v = m.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "flag_monotonicity");
        assert_eq!(v[0].flow, Some(9));
    }

    #[test]
    fn counter_wrap_is_not_a_violation() {
        let m = monitors(CommScheme::LocalPutLocalGet, 2);
        let a = MpbAddr::new(core(0, 0), layout::OFF_READY + 5);
        m.core_write(core(0, 0), a, &[250], None);
        m.core_write(core(0, 0), a, &[3], None); // wraps forward by 9
        assert!(m.violations().is_empty());
    }

    #[test]
    fn barrier_flags_exempt() {
        let m = monitors(CommScheme::LocalPutLocalGet, 2);
        let a = MpbAddr::new(core(0, 0), OFF_BARRIER + 2);
        m.core_write(core(0, 0), a, &[1], None);
        m.core_write(core(0, 0), a, &[0], None); // toggles back: fine
        assert!(m.violations().is_empty());
    }

    #[test]
    fn core_window_enforced_per_scheme() {
        let m = monitors(CommScheme::LocalPutLocalGet, 2);
        let inside = layout::payload(core(0, 0), 0);
        m.core_write(core(0, 0), inside, &[0u8; SEND_AREA_BYTES], None);
        assert!(m.violations().is_empty());
        // One byte past the send area: the receive half belongs to the host.
        let outside = layout::payload(core(0, 0), SEND_AREA_BYTES);
        m.core_write(core(0, 0), outside, &[0u8; 1], Some(4));
        let v = m.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "window_discipline");
    }

    #[test]
    fn single_device_core_writes_unconstrained() {
        let m = monitors(CommScheme::LocalPutLocalGet, 1);
        let a = layout::payload(core(0, 0), CHUNK_BYTES - 1);
        m.core_write(core(0, 0), a, &[0u8; 1], None);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn host_delivery_window_enforced() {
        let m = monitors(CommScheme::RemotePutWcb, 2);
        let rx = layout::payload(core(1, 0), SEND_AREA_BYTES);
        m.host_write(core(0, 0), rx, &[0u8; 64], None);
        assert!(m.violations().is_empty());
        let tx = layout::payload(core(1, 0), 0);
        m.host_write(core(0, 0), tx, &[0u8; 64], None);
        assert_eq!(m.violations().len(), 1);
        // Simple routing may deliver anywhere.
        let m = monitors(CommScheme::SimpleRouting, 2);
        m.host_write(core(0, 0), tx, &[0u8; 64], None);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn swcache_divergence_detected() {
        let m = monitors(CommScheme::LocalPutRemoteGet, 2);
        m.cache_read_check(core(0, 0), 512, &[1, 2, 3], &[1, 2, 3], None);
        assert!(m.violations().is_empty());
        m.cache_read_check(core(0, 0), 512, &[1, 2, 3], &[1, 9, 3], Some(7));
        let v = m.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "swcache_consistency");
        assert!(v[0].detail.contains("+1"));
    }
}
