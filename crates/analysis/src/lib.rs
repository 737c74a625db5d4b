//! Static and dynamic analysis for the SAFELOC workspace.
//!
//! Two pillars, both dependency-free:
//!
//! - [`lint`] — a workspace-aware lexical rule engine (`safeloc_lint`
//!   binary) enforcing the invariants the test suite cannot see:
//!   determinism in the bitwise-pinned crates, panic-freedom on
//!   request-handling paths, justified atomic orderings, and no dead
//!   `pub fn`s. Every accepted site carries an inline justification, so
//!   `--check` fails CI on any finding.
//! - [`interleave`] — a loom-lite bounded-interleaving checker that
//!   exhaustively explores thread schedules of modeled concurrent
//!   structures under sequential consistency, with [`models`] restating
//!   the workspace's real lock-free/lock-light structures (telemetry
//!   registry interning, histogram CAS sums, serve hot-swap, the serve
//!   batch queue) as checkable state machines.
//!
//! The linter is lexical by design: no `syn`, no rustc internals, no
//! dependencies — it blanks comments/strings/char literals and masks
//! `#[cfg(test)]` regions with a small char-level scanner, which is
//! exactly enough precision for the pattern rules it enforces and keeps
//! the whole tool buildable in the offline environment.

pub mod interleave;
pub mod lint;
pub mod models;
