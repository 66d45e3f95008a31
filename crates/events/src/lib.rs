//! Deterministic discrete-event simulation kernel for the PLP simulator.
//!
//! This crate provides the time base and scheduling primitives shared by
//! every timing model in the workspace:
//!
//! * [`Cycle`] — the simulated clock, a strongly-typed `u64` cycle count;
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking for events scheduled at the same cycle;
//! * [`BusyResource`] and [`PipelinedUnit`] — occupancy models for
//!   single-server resources (e.g. a MAC unit) and pipelined units
//!   (initiation interval < latency);
//! * [`BoundedQueue`] — a capacity-limited FIFO with occupancy statistics,
//!   used for write-pending queues and memory-controller queues;
//! * [`stats`] — counters, histograms and running means used by every
//!   component to report results;
//! * [`fastmap`] — the integer-keyed `HashMap` of the hot paths.
//!
//! The kernel is deliberately single-threaded and allocation-light: the
//! PLP experiments sweep many configurations and benchmarks, so
//! simulation determinism (bit-identical results for identical seeds)
//! matters more than parallel speed.
//!
//! # Example
//!
//! ```
//! use plp_events::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle::new(10), "b");
//! q.push(Cycle::new(5), "a");
//! q.push(Cycle::new(10), "c"); // same time as "b": FIFO order preserved
//!
//! assert_eq!(q.pop(), Some((Cycle::new(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle::new(10), "b")));
//! assert_eq!(q.pop(), Some((Cycle::new(10), "c")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
mod bounded;
pub mod fastmap;
mod queue;
mod resource;
pub mod retry;
pub mod stats;
mod time;

pub use bounded::BoundedQueue;
pub use queue::EventQueue;
pub use resource::{BusyResource, PipelinedUnit};
pub use time::{Cycle, Freq};
