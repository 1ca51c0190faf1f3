//! The off-chip boundary: everything a core can do that leaves its device.
//!
//! A device's system interface (SIF, tile (3,0)) hands cross-device memory
//! traffic to whatever fabric is plugged in — the PCIe/host layer in the
//! full system, or a test double. The fabric also carries posted writes
//! into the *memory-mapped register file* that the paper adds to the host
//! driver (vDMA programming, software-cache control, §3.2/§3.3). No core
//! ever reads that file back: completion is signalled by an on-chip flag
//! the issuing core busy-waits on (§3.3).

use std::future::Future;
use std::pin::Pin;

use des::bytes::Bytes;

use crate::geometry::{GlobalCore, MpbAddr};
use crate::LINE_BYTES;

/// Boxed single-threaded future, the async-trait workaround for the
/// simulator's `!Send` world.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// A 32 B-aligned write to the host register window, as produced by the
/// core's write-combining buffer. Fused programming of the vDMA controller
/// arrives as a single `RegisterLine`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterLine {
    /// The issuing core.
    pub src: GlobalCore,
    /// Register line index within the issuing core's register window.
    pub line: u16,
    /// The 32 bytes of the line.
    pub data: [u8; LINE_BYTES],
}

/// Transport for traffic that leaves the device.
///
/// Implementations decide the latency/acknowledge semantics that
/// distinguish the paper's communication schemes (routed round trip,
/// FPGA fast write-ack, host-cached reads, …).
///
/// Payloads travel as [`Bytes`]: a shared view that every hop (tunnel,
/// retry queue, delivery chain, software cache) can clone and slice for
/// free, copying only where bytes are actually rewritten.
pub trait RemoteFabric {
    /// Read `len` bytes at `addr` on another device, on behalf of `src`.
    /// `flow` is the message-provenance flow id the fabric tags the hop
    /// with (`None` for untagged traffic).
    fn read(
        &self,
        src: GlobalCore,
        addr: MpbAddr,
        len: usize,
        flow: Option<u64>,
    ) -> LocalBoxFuture<'_, Bytes>;

    /// Write `data` to `addr` on another device, on behalf of `src`,
    /// tagged with `flow` like [`RemoteFabric::read`]. Resolves when the
    /// write is complete *from the issuing core's perspective* (i.e. when
    /// the fabric's ack policy says so).
    fn write(
        &self,
        src: GlobalCore,
        addr: MpbAddr,
        data: Bytes,
        flow: Option<u64>,
    ) -> LocalBoxFuture<'_, ()>;

    /// Deliver one fused register-line write to the host register window
    /// as a posted doorbell: resolves once the line has left the device.
    fn mmio_write(&self, line: RegisterLine) -> LocalBoxFuture<'_, ()>;
}

/// Pack the three logical vDMA registers (§3.3: address, count, control)
/// plus a scheme-specific argument into one 32 B register line.
pub fn pack_vdma_line(addr: u64, count: u64, control: u64, arg: u64) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    out[0..8].copy_from_slice(&addr.to_le_bytes());
    out[8..16].copy_from_slice(&count.to_le_bytes());
    out[16..24].copy_from_slice(&control.to_le_bytes());
    out[24..32].copy_from_slice(&arg.to_le_bytes());
    out
}

/// Inverse of [`pack_vdma_line`].
pub fn unpack_vdma_line(data: &[u8; LINE_BYTES]) -> (u64, u64, u64, u64) {
    let f = |r: std::ops::Range<usize>| u64::from_le_bytes(data[r].try_into().expect("8 bytes"));
    (f(0..8), f(8..16), f(16..24), f(24..32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdma_line_roundtrip() {
        let line = pack_vdma_line(0xDEAD_BEEF, 4096, 3, 42);
        assert_eq!(unpack_vdma_line(&line), (0xDEAD_BEEF, 4096, 3, 42));
    }

    #[test]
    fn vdma_line_distinct_fields() {
        let line = pack_vdma_line(1, 2, 3, 4);
        let (a, b, c, d) = unpack_vdma_line(&line);
        assert_eq!((a, b, c, d), (1, 2, 3, 4));
    }
}
