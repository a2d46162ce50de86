//! # sl-support
//!
//! The workspace's zero-dependency support toolkit. Everything that the
//! crates used to pull from crates.io (`rand`, `proptest`, `criterion`)
//! lives here instead, so the whole workspace builds and tests with no
//! registry access at all:
//!
//! * [`rng`] — the SplitMix64 generator previously private to
//!   `sl-buchi::random`, promoted so every crate draws from the same
//!   seeded, bit-stable streams.
//! * [`prop`] — a minimal property-testing harness: seeded case
//!   generation, composable strategies, greedy shrinking, and
//!   failure-seed reporting (`SL_PROP_CASES` / `SL_PROP_SEED`).
//! * [`bench`] — a wall-clock timing harness (warmup, calibrated
//!   batches, median/p95 report) backing `crates/bench/benches/`.
//! * [`cache`] — [`ShardedCache`], the one bounded, striped memo
//!   table (cap-and-clear, collision-checked lookups, uniform
//!   [`CacheStats`]) behind every cache in the workspace.
//! * [`par`] — scoped-thread chunked parallel sweeps with
//!   deterministic result ordering (`SL_THREADS` to pin the width) and
//!   panic-isolated fault-tolerant variants ([`par::try_par_map`]).
//!
//! The fault-tolerant execution layer lives here too:
//!
//! * [`error`] — the workspace-wide [`SlError`] taxonomy with context
//!   chains, absorbing the domain errors of every crate.
//! * [`budget`] — [`Budget`]/[`BudgetMeter`]: step limits, wall-clock
//!   deadlines, and cooperative cancellation ([`CancelFlag`]) shared by
//!   every `*_with_budget` entry point in the workspace.
//! * [`fault`] — deterministic seeded fault injection
//!   ([`fault::FaultPlan`], env-configured via `SL_FAULT_SEED` /
//!   `SL_FAULT_RATE`) proving the degradation paths.
//!
//! Everything here is plain `std`; there are no feature flags and no
//! transitive dependencies.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bench;
pub mod budget;
pub mod cache;
pub mod error;
pub mod fault;
pub mod par;
pub mod prop;
pub mod rng;

pub use budget::{Budget, BudgetMeter, CancelFlag};
pub use cache::{CacheStats, ShardKey, ShardedCache, SHARDS};
pub use error::SlError;
pub use fault::FaultPlan;
pub use par::{ItemOutcome, SweepReport};
pub use rng::SplitMix;
