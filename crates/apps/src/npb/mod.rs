//! NAS Parallel Benchmarks on RCCE/vSCC.
//!
//! The paper's application study (§4.2) uses the BT benchmark in the
//! RCCE port of Mattson et al. This module reimplements BT's
//! *multi-partition* parallel structure — the communication pattern,
//! message sizes, and compute/communication ratio — on the simulated
//! stack. The per-cell numerics are replaced by calibrated FLOP charges
//! (1 FLOP/cycle at 533 MHz, the paper's peak) and messages carry
//! deterministic verification payloads instead of solver state; see
//! DESIGN.md §2 for why this substitution preserves Fig. 7/8.

pub mod bt;

pub use bt::{run_bt, BtClass, BtConfig, BtResult};
