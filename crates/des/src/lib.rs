//! Deterministic discrete-event simulation engine.
//!
//! The engine drives *simulated hardware time* measured in cycles. Simulated
//! actors (processor cores, host daemon threads, DMA engines, …) are written
//! as ordinary `async fn`s and scheduled on a single-threaded executor whose
//! clock only advances when every runnable task has yielded. This gives
//! bit-reproducible runs: the same program and seed always produce the same
//! event order and the same final timestamp.
//!
//! The design follows the single-threaded-executor pattern: tasks are woken
//! through [`std::task::Waker`]s that push task ids onto a wake queue, timers
//! live in a binary-heap timer queue ([`timer::TimerQueue`]) that keys by
//! `(deadline, sequence)` and supports cancellation, and all shared
//! simulation state is interior-mutable behind `Rc`.
//!
//! # Quick example
//!
//! ```
//! use des::Sim;
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! sim.spawn(async move {
//!     s.delay(100).await;
//!     assert_eq!(s.now(), 100);
//! });
//! sim.run().unwrap();
//! assert_eq!(sim.now(), 100);
//! ```

pub mod audit;
pub mod bytes;
pub mod channel;
pub mod critpath;
pub mod event;
mod executor;
pub mod faultplan;
pub mod link;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod timer;
pub mod trace;

pub use executor::{EngineStats, JoinHandle, Sim, SimError};
pub use time::{Cycles, Freq};
