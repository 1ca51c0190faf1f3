//! Simulated time units and frequency-domain conversions.
//!
//! The SCC has three clock domains (core 533 MHz, mesh 800 MHz, memory
//! 800 MHz in the configuration used by the paper, §4 footnote 4). All engine
//! timestamps are kept in *core cycles*; [`Freq`] converts latencies
//! expressed in another domain into core cycles.

/// Simulated time, measured in core clock cycles.
pub type Cycles = u64;

/// A clock domain frequency in MHz.
///
/// Conversions round up: a foreign-domain latency never gets cheaper by
/// being expressed in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    mhz: u32,
}

impl Freq {
    /// Create a frequency from MHz. Panics on zero.
    pub const fn mhz(mhz: u32) -> Self {
        assert!(mhz > 0, "frequency must be non-zero");
        Freq { mhz }
    }

    /// The frequency in MHz.
    pub const fn as_mhz(self) -> u32 {
        self.mhz
    }

    /// Convert `cycles` of this clock domain into cycles of the `target`
    /// domain, rounding up.
    pub const fn convert(self, cycles: Cycles, target: Freq) -> Cycles {
        let num = cycles as u128 * target.mhz as u128;
        let den = self.mhz as u128;
        num.div_ceil(den) as Cycles
    }

    /// Cycles of this domain elapsed in `ns` nanoseconds, rounding up.
    pub const fn cycles_in_ns(self, ns: u64) -> Cycles {
        (ns as u128 * self.mhz as u128).div_ceil(1000) as Cycles
    }

    /// Nanoseconds (rounded down) covered by `cycles` of this domain.
    pub const fn ns(self, cycles: Cycles) -> u64 {
        (cycles as u128 * 1000 / self.mhz as u128) as u64
    }

    /// Throughput in bytes/second for `bytes` moved in `cycles` of this
    /// domain. Returns 0.0 when `cycles` is zero.
    pub fn bytes_per_sec(self, bytes: u64, cycles: Cycles) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 * (self.mhz as f64 * 1e6) / cycles as f64
    }

    /// Throughput in MB/s (decimal megabytes, as used by the paper's plots).
    pub fn mbytes_per_sec(self, bytes: u64, cycles: Cycles) -> f64 {
        self.bytes_per_sec(bytes, cycles) / 1e6
    }
}

/// SCC core clock in the paper's configuration (533 MHz).
pub const CORE_FREQ: Freq = Freq::mhz(533);
/// SCC mesh clock in the paper's configuration (800 MHz).
pub const MESH_FREQ: Freq = Freq::mhz(800);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convert_identity() {
        let f = Freq::mhz(533);
        assert_eq!(f.convert(1000, f), 1000);
    }

    #[test]
    fn convert_mesh_to_core_rounds_up() {
        // 4 mesh cycles at 800 MHz = 5 ns = 2.665 core cycles -> 3.
        assert_eq!(MESH_FREQ.convert(4, CORE_FREQ), 3);
    }

    #[test]
    fn convert_core_to_mesh() {
        // 533 core cycles = 1 us = 800 mesh cycles.
        assert_eq!(CORE_FREQ.convert(533, MESH_FREQ), 800);
    }

    #[test]
    fn ns_roundtrip() {
        let f = Freq::mhz(533);
        // 533 cycles = 1000 ns exactly.
        assert_eq!(f.ns(533), 1000);
        assert_eq!(f.cycles_in_ns(1000), 533);
    }

    #[test]
    fn throughput() {
        // 533e6 cycles = 1 s; 150e6 bytes in 1 s = 150 MB/s.
        let mbs = CORE_FREQ.mbytes_per_sec(150_000_000, 533_000_000);
        assert!((mbs - 150.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_zero_throughput() {
        assert_eq!(CORE_FREQ.bytes_per_sec(10, 0), 0.0);
    }
}
