//! Custom static analysis for the PLP workspace.
//!
//! The simulator's correctness argument leans on source-level
//! conventions that `rustc` and clippy do not enforce: library code
//! must surface errors as values rather than panicking, address and
//! geometry arithmetic must not silently truncate, every consumer of
//! [`UpdateScheme`]-like enums must be forced to revisit its `match`
//! when a scheme is added, and nothing in the simulation may read a
//! nondeterministic source (wall clocks, OS entropy) — determinism is
//! what makes the run cache and the crash sweeps sound.
//!
//! This crate is that enforcement: a small, dependency-free lexical
//! linter ([`lint`]) and the `plp-lint` binary that `scripts/verify.sh`
//! gates on. Deliberate exceptions are annotated in the source as
//!
//! ```text
//! // lint: allow(<rule>) <reason>
//! ```
//!
//! on the offending line or the line above; the reason is mandatory,
//! so every exception documents itself. Rule identifiers and their
//! definitions live in [`lint::rules`].

pub mod cfg;
pub mod dataflow;
pub mod lint;
pub mod passes;
pub mod syntax;
