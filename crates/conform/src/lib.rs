//! # sl-conform — the deterministic differential conformance fuzzer
//!
//! The workspace carries several independent implementations of the
//! same lattice-theoretic facts from Manolios & Trefler's PODC 2003
//! characterization: rank-based vs on-the-fly inclusion, offline
//! classify/decompose vs the incremental monitor, direct structures vs
//! HOA round-trips, cached vs uncached daemon queries. Because the
//! paper's Theorems 2/3 (decomposition), 5 (impossibility), and 6/7
//! (extremality) are universally quantified, every randomly generated
//! structure is a test: this crate turns them into metamorphic oracles
//! and cross-checks every engine against every other one.
//!
//! * [`case`] — the self-contained case model and JSONL codec;
//! * [`gen`] — seed-deterministic generators (lattice recipes, LTL,
//!   Büchi automata, HOA documents, daemon sessions);
//! * [`oracles`] — the registry of seven differential/metamorphic
//!   oracles (including the `crash` drill, which kills a persistent
//!   daemon at every journal record boundary and diffs the recovered
//!   daemon's answers byte-for-byte against an uninterrupted twin),
//!   where `Budget` exhaustion is accepted but a wrong answer never
//!   is;
//! * [`shrink`] — per-oracle [`sl_support::prop::Strategy`] shrinkers
//!   driven by the shared greedy [`sl_support::prop::minimize`] loop;
//! * [`corpus`] — the checked-in regression corpus CI replays forever;
//! * [`run`] — the fuzz loop and the `BENCH_conform.json` stats
//!   artifact.
//!
//! The `slfuzz` binary wires these together; `slfuzz --seed N --oracle
//! X --case C` replays any failure in isolation.

pub mod case;
pub mod corpus;
pub mod gen;
pub mod oracles;
pub mod run;
pub mod shrink;

pub use case::{Case, CrashCase, Factor, HoaCase, InclCase, LatticeCase, MonitorCase, SessionCase};
pub use oracles::{check, crash_drill, Outcome, ORACLES};
pub use run::{fuzz, Finding, FuzzOptions, OracleReport, RunReport};
