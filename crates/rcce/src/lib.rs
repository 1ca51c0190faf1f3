//! Port of RCCE and iRCCE, the SCC's low-level communication libraries.
//!
//! RCCE (Intel Labs) is a light-weight message-passing environment for the
//! SCC: a one-sided *gory* layer (`put`/`get`/flag operations on the on-chip
//! MPB) and a two-sided *non-gory* layer (`send`/`recv`) implementing the
//! blocking local-put/remote-get protocol of the paper's Fig. 2a. iRCCE
//! (RWTH Aachen) adds non-blocking sends and the *pipelined* protocol of
//! Fig. 2b, which interleaves put and get at a finer packet granularity.
//! The port keeps what the applications call: blocking `send`/`recv`,
//! `isend`, `barrier`, `bcast`, and `reduce_f64`/`allreduce_f64`. One-sided
//! gory code drives the core's `put`/`get`/flag operations directly
//! through [`Rcce::core`].
//!
//! The port keeps the protocol state machines of the originals:
//! flag-based synchronization with busy-waiting, messages split at the MPB
//! payload capacity, explicit `CL1INVMB` before every fresh read, and read
//! operations only ever on *local* flags.
//!
//! Point-to-point transports are pluggable per pair class
//! ([`protocol::PointToPoint`]): the default on-chip protocol serves
//! same-device pairs, and the vSCC layer substitutes host-assisted schemes
//! for inter-device pairs — exactly the structure of the paper (§3).

pub mod api;
pub mod collectives;
pub mod ircce;
pub mod layout;
pub mod protocol;
pub mod session;

// `hop!` reaches `des::span!` through this path, so crates that expand
// it need no `des` import of their own.
#[doc(hidden)]
pub use des as __des;

pub use api::Rcce;
pub use protocol::{BlockingProtocol, PipelinedProtocol, PointToPoint};
pub use session::{RankCtx, Session, SessionBuilder};
