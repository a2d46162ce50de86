//! `sl-service`: the serving layer — a long-running safety/liveness
//! query daemon (`sld`) speaking newline-delimited JSON over stdin or
//! TCP.
//!
//! The safety/liveness literature this workspace reproduces frames its
//! results operationally: monitors consume growing prefixes, verifiers
//! ask decomposition and inclusion queries on demand. This crate turns
//! the toolkit's engines into exactly that deployment shape:
//!
//! * **`define`** — register an LTL formula (`sl-ltl::parse` +
//!   translation) or a HOA automaton (`sl-buchi::hoa::from_hoa`) under
//!   a name;
//! * **`classify` / `decompose`** — the paper's trichotomy and the
//!   Theorem 2 decomposition `B = B_S ∩ B_L`;
//! * **`include` / `equivalent` / `universal`** — the on-the-fly
//!   antichain inclusion engine over the daemon's quotient cache;
//! * **`monitor-step`** — incremental [`sl_buchi::Monitor`] sessions
//!   with sticky `Unknown`;
//! * **`batch`** — fan query verbs through the panic-isolated parallel
//!   sweep: one poisoned request degrades to a typed error response,
//!   never a dead daemon;
//! * **`stats`** — per-verb counters, transport `io_errors`,
//!   persistence metrics, the antichain counters
//!   ([`sl_buchi::AntichainStats`]), and one uniform block per cache
//!   (query, quotient, `check`): the five [`sl_support::CacheStats`]
//!   counters, then the cache's own fields;
//! * **`shutdown`** — the graceful drain: flush the write-ahead
//!   journal, snapshot, refuse further requests, close every
//!   connection (`quit`, by contrast, ends only the issuing
//!   connection).
//!
//! The daemon serves **concurrent connections**: [`Service`] is a
//! cloneable handle over one shared core (registry behind an RwLock,
//! query cache and quotient cache sharded into striped locks,
//! journaled verbs serialized through the mutation lock), and
//! [`serve_tcp`] runs one scoped thread per accepted connection,
//! bounded by `max_conns` with a typed `overloaded` rejection beyond
//! the cap. Each client's transcript stays byte-identical to a solo
//! run of the same script (for sessions over disjoint names) no
//! matter how many other clients are connected.
//!
//! A daemon built with [`Service::with_persistence`] is crash-safe:
//! the [`persist`] module journals every state-mutating request ahead
//! of dispatch and snapshots the registry plus all monitor sessions
//! atomically, so a restart recovers byte-identical behaviour (the
//! `crash` conformance oracle and `tests/crash_recovery.rs` hold it to
//! that, killing the daemon at every record boundary).
//!
//! Every request may carry a `budget` (`steps`/`ms`) mapped onto
//! [`sl_support::Budget`]; query results are memoized keyed by
//! `(verb, structural_hash)` in a [`sl_support::ShardedCache`], the
//! cap-and-clear policy every cache in the workspace shares; the `sl.service.request` fault site makes intake
//! drillable under `SL_FAULT_RATE`. The JSON layer is hand-rolled
//! ([`json`]) — the workspace stays registry-dependency-free.
//!
//! ```
//! use sl_service::{Service, ServiceConfig};
//! use sl_support::FaultPlan;
//!
//! let svc = Service::new(ServiceConfig {
//!     fault: FaultPlan::disabled(),
//!     threads: 1,
//!     ..ServiceConfig::default()
//! });
//! let reply = svc.handle_line(
//!     r#"{"id":1,"verb":"define","name":"gfa","ltl":"G F a","alphabet":["a","b"]}"#,
//! );
//! assert!(reply.line.contains("\"ok\":true"));
//! let reply = svc.handle_line(r#"{"id":2,"verb":"classify","target":"gfa"}"#);
//! assert!(reply.line.contains("\"class\":\"liveness\""));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod engine;
pub mod json;
pub mod persist;
pub mod proto;
pub mod registry;
pub mod server;

pub use cache::{QueryCache, QueryKind};
pub use engine::{Reply, Service, ServiceConfig, REQUEST_FAULT_SITE};
pub use json::Json;
pub use persist::{
    Persist, PersistConfig, PersistError, PersistStats, Recovered, SessionSnap, Snapshot,
};
pub use proto::{
    err_response, ok_response, parse_request, read_frame, BudgetSpec, Frame, ProtoError, Request,
    Verb,
};
pub use registry::Registry;
pub use server::{serve, serve_connection, serve_stdin, serve_tcp, SessionSummary};
