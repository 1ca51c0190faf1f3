//! vSCC: host-assisted communication for a grid of cluster-on-a-chip
//! processors — the paper's contribution.
//!
//! vSCC couples several SCC devices through a single host into one virtual
//! many-core processor (240 cores at five devices). Because the PCIe tunnel
//! is ~120× slower than the on-chip mesh, the naive transparent extension
//! (route every 32 B on-chip packet through the host daemon) collapses;
//! the paper instead *waives transparency* and extends the architecture:
//!
//! * the host **communication task** ([`host::HostSide`]) classifies
//!   incoming traffic into *synchronization* (flag) and *communication*
//!   (buffer) accesses and handles them differently (§3.1);
//! * a **software cache** of remote MPBs with relaxed consistency and
//!   explicit invalidate/update instructions ([`swcache`]);
//! * a host **write-combining buffer** for the remote-put scheme
//!   ([`hostwcb`]);
//! * a **virtual DMA controller** programmed through three memory-mapped
//!   registers fused into one 32 B write ([`mmio`], [`host`]), enabling the
//!   new *local-put / local-get* scheme;
//! * a **direct-transfer threshold** recovering low latency for small
//!   messages (§3.3);
//! * a **self-healing communication plane** ([`health`]) layered over the
//!   recovery path: per-pair health FSM, canary re-promotion probing, and
//!   adaptive retry timeouts (beyond the paper — DESIGN.md §5h).
//!
//! [`schemes`] packages all of this as drop-in inter-device protocols for
//! the RCCE session layer; [`system`] builds complete vSCC machines.

pub mod health;
pub mod host;
pub mod hostwcb;
pub mod mmio;
pub mod monitor;
pub mod schemes;
pub mod swcache;
pub mod system;

pub use schemes::CommScheme;
pub use system::{OnchipProtocol, Vscc, VsccBuilder};
