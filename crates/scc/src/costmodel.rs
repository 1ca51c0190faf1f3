//! Calibrated cycle costs of the SCC memory system.
//!
//! All values are *core cycles at 533 MHz* per 32 B line unless noted.
//! Sources: the SCC External Architecture Specification and the published
//! MPB latency measurements the paper builds on (local MPB ~15/16 cycles
//! per line, ~4 mesh cycles per hop, on-chip remote access "~100 core
//! cycles", paper §3). The absolute values are less important than their
//! ratios — the reproduction asserts throughput *bands*, not points
//! (DESIGN.md §5).

use des::time::{CORE_FREQ, MESH_FREQ};
use des::Cycles;

use crate::geometry::TileCoord;
use crate::lines;

/// Cycle-cost parameters of one SCC device.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// L1 hit, per line.
    pub l1_hit: Cycles,
    /// Read one line from the local tile's MPB (L1 miss path).
    pub mpb_local_read: Cycles,
    /// Write one line to the local tile's MPB (write-through, via WCB).
    pub mpb_local_write: Cycles,
    /// Base cost of one line to/from a *remote* tile's MPB, before hops.
    pub mpb_remote_base: Cycles,
    /// Extra mesh cycles per hop per line (converted from the 800 MHz mesh
    /// domain when charged).
    pub mesh_cycles_per_hop: Cycles,
    /// Read or write one line of private DRAM through the tile's memory
    /// controller (cache-miss cost seen by a streaming copy).
    pub dram_line: Cycles,
    /// `CL1INVMB`: invalidate all MPBT-tagged L1 lines (single instruction).
    pub cl1invmb: Cycles,
    /// Fixed per-operation software overhead (address arithmetic, call).
    pub op_overhead: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            l1_hit: 2,
            mpb_local_read: 15,
            mpb_local_write: 16,
            mpb_remote_base: 45,
            mesh_cycles_per_hop: 4,
            dram_line: 90,
            cl1invmb: 4,
            op_overhead: 30,
        }
    }
}

impl CostModel {
    /// Mesh hop cost in core cycles per line for `hops` hops.
    pub fn hop_cost(&self, hops: u8) -> Cycles {
        MESH_FREQ.convert(self.mesh_cycles_per_hop * hops as Cycles, CORE_FREQ)
    }

    /// Cost of one line moved between a core on `from` and the MPB on `to`
    /// (read or write — the SCC charges these nearly symmetrically).
    pub fn mpb_line_cost(&self, from: TileCoord, to: TileCoord, write: bool) -> Cycles {
        if from == to {
            if write {
                self.mpb_local_write
            } else {
                self.mpb_local_read
            }
        } else {
            self.mpb_remote_base + self.hop_cost(from.hops(to))
        }
    }

    /// Cost of a buffered copy of `bytes` bytes between private DRAM and an
    /// MPB region (`from` = core tile, `to` = MPB tile): the P54C streams
    /// line by line, paying DRAM plus MPB cost per line.
    pub fn copy_cost(&self, bytes: usize, from: TileCoord, to: TileCoord, write: bool) -> Cycles {
        let n = lines(bytes);
        self.op_overhead + n * (self.dram_line + self.mpb_line_cost(from, to, write))
    }

    /// Cost of an MPB-to-MPB move of `bytes` (no DRAM involved), e.g.
    /// flag-line reads or on-chip MPB-relay copies.
    pub fn mpb_only_cost(
        &self,
        bytes: usize,
        from: TileCoord,
        to: TileCoord,
        write: bool,
    ) -> Cycles {
        let n = lines(bytes);
        self.op_overhead + n * self.mpb_line_cost(from, to, write)
    }

    /// Approximate "~100 core cycles" on-chip remote access of the paper
    /// (§3): one remote line at the mesh diameter. Used as the reference
    /// against which the PCIe model sets its 120× factor.
    pub fn onchip_reference_latency(&self) -> Cycles {
        self.mpb_remote_base + self.hop_cost(crate::geometry::MESH_X + crate::geometry::MESH_Y - 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TileCoord;

    #[test]
    fn local_cheaper_than_remote() {
        let m = CostModel::default();
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(3, 2);
        assert!(m.mpb_line_cost(a, a, false) < m.mpb_line_cost(a, b, false));
    }

    #[test]
    fn hop_cost_monotone_in_distance() {
        let m = CostModel::default();
        let origin = TileCoord::new(0, 0);
        let mut last = 0;
        for x in 0..6u8 {
            let c = m.mpb_line_cost(origin, TileCoord::new(x, 0), false);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn reference_latency_near_100_cycles() {
        // The paper quotes ~100 core cycles for an on-chip remote access.
        let m = CostModel::default();
        let r = m.onchip_reference_latency();
        assert!((60..=140).contains(&r), "reference latency {r} outside plausible band");
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let m = CostModel::default();
        let a = TileCoord::new(0, 0);
        let c1 = m.copy_cost(4096, a, a, true) - m.op_overhead;
        let c2 = m.copy_cost(8192, a, a, true) - m.op_overhead;
        assert_eq!(c2, 2 * c1);
    }

    #[test]
    fn zero_byte_copy_costs_only_overhead() {
        let m = CostModel::default();
        let a = TileCoord::new(0, 0);
        assert_eq!(m.copy_cost(0, a, a, true), m.op_overhead);
    }

    #[test]
    fn single_copy_bandwidth_band() {
        // A one-way streaming copy (DRAM -> local MPB) should land in the
        // 120-250 MB/s band so that ping-pong (two copies, blocking)
        // reproduces the paper's "max on-chip throughput about 150 MB/s"
        // once protocol pipelining is applied.
        let m = CostModel::default();
        let a = TileCoord::new(0, 0);
        let bytes = 1 << 20;
        let cycles = m.copy_cost(bytes, a, a, true);
        let mbps = des::time::CORE_FREQ.mbytes_per_sec(bytes as u64, cycles);
        assert!((120.0..250.0).contains(&mbps), "single-copy bandwidth {mbps} MB/s out of band");
    }
}
