//! The memory-mapped register file the paper adds to the host driver.
//!
//! Each core owns one register window in the host's address space. The
//! vDMA controller's three logical registers — *address*, *count*,
//! *control* (§3.3, Fig. 5) — are laid out contiguously within one 32 B
//! line, so the SCC's write-combining buffer fuses programming them into a
//! single PCIe transaction. Cache-control operations (explicit update /
//! invalidate of the host software cache, §3.1) use a further line of the
//! same window.

use scc::remote::{pack_vdma_line, unpack_vdma_line, RegisterLine};
use scc::{GlobalCore, LINE_BYTES};

/// Register line index of the vDMA programming registers.
pub const REG_VDMA: u16 = 0;
/// Register line index of the cache-control registers.
pub const REG_CACHE: u16 = 1;
/// Register line index of the status register. Nothing reads it back;
/// a write to it decodes to no command and only costs the transaction.
pub const REG_STATUS: u16 = 3;

/// Control-word opcodes.
const OP_VDMA_START: u64 = 1;
const OP_CACHE_UPDATE: u64 = 2;
const OP_CACHE_INVALIDATE: u64 = 3;

/// A decoded command for the communication task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostCmd {
    /// Program the virtual DMA controller: copy `len` bytes from the
    /// issuing core's MPB at `src_off` into `dst`'s MPB at `dst_off`;
    /// on completion, write `seq` into `sent[src_rank]` at the
    /// destination.
    VdmaStart {
        /// Issuing (source) core.
        src: GlobalCore,
        /// Source MPB offset.
        src_off: u16,
        /// Destination core.
        dst: GlobalCore,
        /// Destination MPB offset.
        dst_off: u16,
        /// Bytes to move.
        len: usize,
        /// Completion counter value for the destination's `sent` flag.
        seq: u8,
        /// Rank of the sender (indexes the destination's flag arrays).
        src_rank: u8,
        /// Per-core drain sequence: written to the sender's `vdma_done`
        /// flag once the source slot has been drained to the host, so the
        /// core knows when it may reuse the slot (§3.3 busy-wait).
        drain_seq: u8,
        /// Provenance flow id of the message this transfer belongs to
        /// (rides in the free upper half of the control word; `None` when
        /// the encoder had no flow or it overflowed 32 bits).
        flow: Option<u64>,
    },
    /// Update the host copy of the issuing core's MPB range (prefetch
    /// trigger; §3.2).
    CacheUpdate {
        /// Owner whose region is mirrored.
        owner: GlobalCore,
        /// Start offset.
        offset: u16,
        /// Length in bytes.
        len: usize,
        /// Provenance flow id of the triggering message, if any.
        flow: Option<u64>,
    },
    /// Invalidate the host copy of the issuing core's MPB range.
    CacheInvalidate {
        /// Owner whose region is mirrored.
        owner: GlobalCore,
        /// Start offset.
        offset: u16,
        /// Length in bytes.
        len: usize,
    },
}

/// Pack a provenance flow id into the free upper half of a control word.
/// Ids above 32 bits don't fit in the register line and are dropped.
fn pack_flow(flow: Option<u64>) -> u64 {
    match flow {
        Some(f) if f <= u32::MAX as u64 => f << 32,
        _ => 0,
    }
}

/// Inverse of [`pack_flow`]: zero means "no flow" (real ids start at 1).
fn unpack_flow(control: u64) -> Option<u64> {
    match control >> 32 {
        0 => None,
        f => Some(f),
    }
}

/// Encode a vDMA programming command into a fused register line.
#[allow(clippy::too_many_arguments)]
pub fn encode_vdma(
    src_off: u16,
    dst: GlobalCore,
    dst_off: u16,
    len: usize,
    seq: u8,
    src_rank: u8,
    drain_seq: u8,
    flow: Option<u64>,
) -> [u8; LINE_BYTES] {
    let address = src_off as u64 | ((dst_off as u64) << 16);
    let count = len as u64;
    let control = OP_VDMA_START
        | ((seq as u64) << 8)
        | ((src_rank as u64) << 16)
        | ((drain_seq as u64) << 24)
        | pack_flow(flow);
    let arg = dst.linear() as u64;
    pack_vdma_line(address, count, control, arg)
}

/// Encode a cache-control command (`update == true` for update, else
/// invalidate).
pub fn encode_cache(offset: u16, len: usize, update: bool, flow: Option<u64>) -> [u8; LINE_BYTES] {
    let op = if update { OP_CACHE_UPDATE } else { OP_CACHE_INVALIDATE };
    pack_vdma_line(offset as u64, len as u64, op | pack_flow(flow), 0)
}

/// Decode a register-line write into a command. Returns `None` for
/// malformed writes (unknown opcode or wrong register line).
pub fn decode(line: &RegisterLine) -> Option<HostCmd> {
    let (address, count, control, arg) = unpack_vdma_line(&line.data);
    let op = control & 0xFF;
    match (line.line, op) {
        (REG_VDMA, OP_VDMA_START) => Some(HostCmd::VdmaStart {
            src: line.src,
            src_off: (address & 0xFFFF) as u16,
            dst: GlobalCore::from_linear(arg as u32),
            dst_off: ((address >> 16) & 0xFFFF) as u16,
            len: count as usize,
            seq: ((control >> 8) & 0xFF) as u8,
            src_rank: ((control >> 16) & 0xFF) as u8,
            drain_seq: ((control >> 24) & 0xFF) as u8,
            flow: unpack_flow(control),
        }),
        (REG_CACHE, OP_CACHE_UPDATE) => Some(HostCmd::CacheUpdate {
            owner: line.src,
            offset: address as u16,
            len: count as usize,
            flow: unpack_flow(control),
        }),
        (REG_CACHE, OP_CACHE_INVALIDATE) => Some(HostCmd::CacheInvalidate {
            owner: line.src,
            offset: address as u16,
            len: count as usize,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(src: GlobalCore, idx: u16, data: [u8; LINE_BYTES]) -> RegisterLine {
        RegisterLine { src, line: idx, data }
    }

    #[test]
    fn vdma_roundtrip() {
        let src = GlobalCore::new(0, 5);
        let dst = GlobalCore::new(2, 17);
        let enc = encode_vdma(512, dst, 4352, 3840, 9, 5, 77, Some(123_456));
        let cmd = decode(&line(src, REG_VDMA, enc)).unwrap();
        assert_eq!(
            cmd,
            HostCmd::VdmaStart {
                src,
                src_off: 512,
                dst,
                dst_off: 4352,
                len: 3840,
                seq: 9,
                src_rank: 5,
                drain_seq: 77,
                flow: Some(123_456),
            }
        );
    }

    #[test]
    fn flow_id_rides_control_word() {
        let src = GlobalCore::new(0, 0);
        let dst = GlobalCore::new(1, 1);
        // No flow → decodes to None.
        let enc = encode_vdma(0, dst, 0, 64, 1, 0, 1, None);
        match decode(&line(src, REG_VDMA, enc)).unwrap() {
            HostCmd::VdmaStart { flow, .. } => assert_eq!(flow, None),
            other => panic!("wrong decode: {other:?}"),
        }
        // Oversized flow ids don't fit the line and are dropped, not
        // truncated to a wrong id.
        let enc = encode_vdma(0, dst, 0, 64, 1, 0, 1, Some(1 << 40));
        match decode(&line(src, REG_VDMA, enc)).unwrap() {
            HostCmd::VdmaStart { flow, .. } => assert_eq!(flow, None),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn cache_update_roundtrip() {
        let src = GlobalCore::new(1, 0);
        let cmd = decode(&line(src, REG_CACHE, encode_cache(512, 7680, true, Some(7)))).unwrap();
        assert_eq!(cmd, HostCmd::CacheUpdate { owner: src, offset: 512, len: 7680, flow: Some(7) });
    }

    #[test]
    fn cache_invalidate_roundtrip() {
        let src = GlobalCore::new(1, 0);
        let cmd = decode(&line(src, REG_CACHE, encode_cache(600, 100, false, None))).unwrap();
        assert_eq!(cmd, HostCmd::CacheInvalidate { owner: src, offset: 600, len: 100 });
    }

    #[test]
    fn malformed_writes_rejected() {
        let src = GlobalCore::new(0, 0);
        // Wrong line for the opcode.
        assert!(decode(&line(src, REG_VDMA, encode_cache(0, 1, true, None))).is_none());
        // Garbage.
        assert!(decode(&line(src, REG_VDMA, [0xFF; LINE_BYTES])).is_none());
    }

    #[test]
    fn vdma_extreme_field_values() {
        let src = GlobalCore::new(0, 0);
        let dst = GlobalCore::new(4, 47);
        let enc =
            encode_vdma(8191, dst, 8191, scc::MPB_BYTES, 255, 239, 255, Some(u32::MAX as u64));
        match decode(&line(src, REG_VDMA, enc)).unwrap() {
            HostCmd::VdmaStart { src_off, dst_off, len, seq, src_rank, dst: d, .. } => {
                assert_eq!((src_off, dst_off), (8191, 8191));
                assert_eq!(len, scc::MPB_BYTES);
                assert_eq!((seq, src_rank), (255, 239));
                assert_eq!(d, dst);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }
}
