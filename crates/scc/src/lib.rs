//! Functional and timing model of the Intel Single-chip Cloud Computer.
//!
//! The SCC (Intel Labs, 2010) is a 48-core non-cache-coherent x86 research
//! processor: 24 tiles on a 6×4 2-D mesh, two P54C cores per tile, a 16 KiB
//! software-controlled on-chip memory per tile (the *local memory buffer*,
//! LMB — 8 KiB per core, holding the *message passing buffer* MPB and the
//! *synchronization flag* region SF), four DDR3 memory controllers for
//! private DRAM, a new `MPBT` memory type that bypasses L2, a one-line
//! write-combining buffer, the `CL1INVMB` instruction that invalidates all
//! MPBT-tagged L1 lines in one shot, and one test-and-set register per core.
//!
//! This crate models all of the above *functionally* (bytes really move,
//! stale cache reads really happen until invalidated) and *temporally*
//! (every access is charged a calibrated cycle cost; memory-controller and
//! off-chip ports are contended FIFO resources), except the test-and-set
//! registers: no protocol of the RCCE port uses them (its send and receive
//! locks are simulated per-UE mutexes), and the write-combining buffer,
//! whose one use here, fusing the vDMA register writes into one 32 B line,
//! [`CoreHandle::mmio_write_fused`] charges directly. Cross-device traffic
//! is delegated
//! through the [`remote::RemoteFabric`] trait, implemented by the PCIe/host
//! layers.

pub mod cache;
pub mod core;
pub mod costmodel;
pub mod device;
pub mod geometry;
pub mod mpb;
pub mod remote;

pub use crate::core::CoreHandle;
pub use costmodel::CostModel;
pub use device::{BootConfig, SccDevice};
pub use geometry::{CoreId, DeviceId, GlobalCore, MpbAddr, TileCoord, CORES_PER_DEVICE};
pub use remote::RemoteFabric;

/// Cache-line / MPB transfer granularity in bytes (32 B on the SCC).
pub const LINE_BYTES: usize = 32;

/// Per-core on-chip buffer size: 8 KiB of the tile's 16 KiB LMB.
pub const MPB_BYTES: usize = 8192;

/// Round a byte count up to whole 32 B lines.
pub const fn lines(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(LINE_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounding() {
        assert_eq!(lines(0), 0);
        assert_eq!(lines(1), 1);
        assert_eq!(lines(32), 1);
        assert_eq!(lines(33), 2);
        assert_eq!(lines(8192), 256);
    }
}
