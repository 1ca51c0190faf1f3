//! Calibrated parameters of the PCIe tunnel.
//!
//! Calibration targets (DESIGN.md §5): a routed per-line round trip of
//! ~10 k core cycles (the paper's "factor 120" over ~100-cycle on-chip
//! access), a SIF stream ceiling of ~42 MB/s, and a host-answered MMIO read
//! of ~600 cycles. The experiment harnesses assert the resulting
//! throughput *bands*, not exact points.

use des::link::Bandwidth;
use des::Cycles;

use scc::LINE_BYTES;

/// Timing parameters of one host↔device PCIe path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcieModel {
    /// FPGA/SIF processing per 32 B packet crossing the device boundary
    /// (core cycles). Caps all inter-device streams.
    pub sif_packet_cycles: Cycles,
    /// One-way hardware latency of the PCIe path (TLP through switch and
    /// root complex), core cycles.
    pub hw_latency: Cycles,
    /// Host daemon software handling per forwarded request (core cycles):
    /// the price of the *transparent routing* path of the 2012 prototype.
    pub sw_forward_cycles: Cycles,
    /// Host processing for answering a request out of the communication
    /// task's buffers (classification + copy-out), per request.
    pub sw_answer_cycles: Cycles,
    /// Fixed processing charged per burst transfer on a device port
    /// (TLP/descriptor handling in the FPGA bridge).
    pub per_transfer_cycles: Cycles,
    /// Overhead of setting up one host DMA descriptor.
    pub dma_descriptor_cycles: Cycles,
    /// Host memory bandwidth shared by all device ports (bytes/cycle).
    pub host_mem_bytes_per_cycle: u64,
    /// Extra wire time (percent) charged on host-initiated DMA streams:
    /// the host reaches device MPBs through the FPGA's register interface,
    /// which is slower than native on-chip packet forwarding.
    pub host_dma_penalty_pct: u64,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel {
            sif_packet_cycles: 400,
            hw_latency: 600,
            sw_forward_cycles: 3000,
            sw_answer_cycles: 250,
            per_transfer_cycles: 150,
            dma_descriptor_cycles: 800,
            host_mem_bytes_per_cycle: 8,
            host_dma_penalty_pct: 25,
        }
    }
}

impl PcieModel {
    /// Wire bandwidth of a device port: the SIF packet cost spread over the
    /// 32 B packet, i.e. `sif_packet_cycles / 32` cycles per byte.
    pub fn sif_bandwidth(&self) -> Bandwidth {
        Bandwidth::cycles_per_byte(self.sif_packet_cycles, LINE_BYTES as u64)
    }

    /// Peak stream rate through one SIF in MB/s (the Fig. 6b ceiling).
    pub fn sif_peak_mbps(&self) -> f64 {
        self.sif_bandwidth().peak_mbps(des::time::CORE_FREQ)
    }

    /// Effective bytes charged on the wire for `bytes` of host-initiated
    /// DMA (see `host_dma_penalty_pct`).
    pub fn host_dma_bytes(&self, bytes: u64) -> u64 {
        bytes * (100 + self.host_dma_penalty_pct) / 100
    }

    /// Round-trip cycles of one *routed* (transparent) line request:
    /// requester SIF out, PCIe, daemon forward, PCIe, target SIF in, and
    /// the response retracing the path.
    ///
    /// This is the nominal 10,000 cycles, not what a simulated line
    /// costs: it leaves out `per_transfer_cycles` on the four SIF
    /// crossings, so an uncontended routed line in `vscc::host` takes
    /// 4 × (400 + 150 + 600) + 2 × 3,000 = 10,600 cycles. The value is
    /// kept because the retry timeout, the retry backoff base, the probe
    /// interval, the fast-ack loss penalty and the latency-factor
    /// calibration all derive from it; changing it would move the
    /// fault-storm results.
    pub fn routed_line_round_trip(&self) -> Cycles {
        2 * (self.sif_packet_cycles + self.hw_latency) // request out + into target
            + self.sw_forward_cycles
            + 2 * (self.sif_packet_cycles + self.hw_latency) // response back
            + self.sw_forward_cycles
    }

    /// Round-trip cycles of a line read answered from host memory (the
    /// software cache hit path): one SIF crossing each way plus the host
    /// answer cost, no second device and no daemon forwarding.
    pub fn host_answered_round_trip(&self) -> Cycles {
        2 * (self.sif_packet_cycles + self.hw_latency) + self.sw_answer_cycles
    }

    /// One-way cost of an MMIO doorbell crossing the SIF boundary: one
    /// 32 B packet through the SIF pipeline plus the PCIe hardware hop.
    /// The vSCC MMIO plane stamps every doorbell (a posted TLP, the only
    /// control signal) with this cost, so none becomes visible at the
    /// host any sooner (DESIGN.md §5i).
    pub fn mmio_crossing_cycles(&self) -> Cycles {
        self.sif_packet_cycles + self.hw_latency
    }

    /// First-retry backoff of the recovery layer: one routed round trip.
    /// Doubling from here (bounded by the recovery config's cap) spaces
    /// retries on the same scale as the congestion that delays them.
    pub fn retry_backoff_base(&self) -> Cycles {
        self.routed_line_round_trip()
    }

    /// Base interval between health-probe canaries on a demoted pair
    /// (sixteen routed round trips ≈ 160 k cycles): rare enough that
    /// probe traffic is negligible against any application stream, dense
    /// enough that a pair re-promotes within ~1 M cycles of a fault storm
    /// ending (K consecutive successes at this spacing).
    pub fn probe_interval_base(&self) -> Cycles {
        16 * self.routed_line_round_trip()
    }

    /// Cap of the exponential probe backoff (sixteen base intervals):
    /// a pair that keeps failing its canaries is re-tested ever more
    /// rarely, but never less than once per ~2.5 M cycles — hysteresis
    /// against flapping without permanent abandonment.
    pub fn probe_interval_max(&self) -> Cycles {
        16 * self.probe_interval_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_round_trip_matches_paper_factor() {
        let m = PcieModel::default();
        let rt = m.routed_line_round_trip();
        // Paper: ~10^4 core cycles, ~120x the ~100-cycle on-chip access.
        assert!((9_000..=16_000).contains(&rt), "routed RT {rt} outside 10^4 band");
        let onchip = scc::CostModel::default().onchip_reference_latency();
        let factor = rt as f64 / onchip as f64;
        assert!((80.0..=160.0).contains(&factor), "latency factor {factor} not ~120");
    }

    #[test]
    fn sif_ceiling_band() {
        let m = PcieModel::default();
        let peak = m.sif_peak_mbps();
        assert!((35.0..=50.0).contains(&peak), "SIF ceiling {peak} MB/s out of band");
    }

    #[test]
    fn host_answer_is_much_faster_than_routing() {
        let m = PcieModel::default();
        assert!(m.host_answered_round_trip() * 4 < m.routed_line_round_trip());
    }

    #[test]
    fn mmio_crossing_is_the_minimum_crossing_cost() {
        let m = PcieModel::default();
        // Default calibration: 400 (SIF packet) + 600 (hw hop) = 1000.
        assert_eq!(m.mmio_crossing_cycles(), 1_000);
        // It must lower-bound every modeled cross-device interaction.
        assert!(m.mmio_crossing_cycles() <= m.host_answered_round_trip());
        assert!(m.mmio_crossing_cycles() * 4 <= m.routed_line_round_trip());
    }

    #[test]
    fn probe_intervals_are_sparse_and_bounded() {
        let m = PcieModel::default();
        // Probes must be rare against the data path…
        assert!(m.probe_interval_base() >= 8 * m.routed_line_round_trip());
        // …but the backoff cap keeps re-testing alive.
        assert!(m.probe_interval_max() <= 64 * m.probe_interval_base());
        assert!(m.probe_interval_max() > m.probe_interval_base());
    }
}
