//! The service core: verb dispatch over a registry, memoizing query
//! cache, per-request budgets, batch fan-out, and fault drills.
//!
//! # Concurrency model
//!
//! A [`Service`] is a cheap cloneable handle over one shared daemon
//! core, so any number of connection threads can serve requests
//! against the same state. What is shared and how (see DESIGN S10 for
//! the full protocol):
//!
//! * the **registry** sits behind an `RwLock` — queries take read
//!   locks and run concurrently, `define`/`decompose` take the write
//!   lock only for the insert itself;
//! * the **query cache** is sharded into striped locks keyed by
//!   structural hash (see [`crate::cache`]); an in-flight table
//!   additionally deduplicates concurrent computes of the same cold
//!   query — the first claimant computes, everyone else waits on a
//!   condvar and re-probes;
//! * **monitor sessions and compiled fleets** share one mutex (they
//!   are one namespace daemon-wide, so a snapshot taken by any
//!   connection captures every session);
//! * counters are atomics; antichain totals aggregate under their own
//!   mutex.
//!
//! Mutating verbs (`define`, `decompose`, `monitor-step`) serialize
//! through the **mutation lock** — the persist slot's mutex — so the
//! journal's append order *is* dispatch order and crash recovery
//! replays exactly the interleaving that was served. Lock order is
//! persist → registry → sessions → cache shard → antichain totals /
//! persist-stats copy; `stats` takes its locks one at a time, never
//! nests them, and never takes the mutation lock itself.
//!
//! `shutdown` drains under the mutation lock: it flips the stopped
//! flag, flushes the journal, writes a final snapshot, and every
//! later request — including one that was already waiting on the
//! mutation lock — gets a typed `shutting_down` rejection. `quit`
//! ends only the issuing connection.
//!
//! # Determinism contract
//!
//! For a fixed request script served over a *single* connection, the
//! response byte stream is identical at any `SL_THREADS` — the golden
//! transcripts in `tests/service_protocol.rs` and the verify.sh
//! `service` stage hold the daemon to this. The load-bearing choices:
//!
//! * requests — and the items of a `batch` — are assigned fault-site
//!   indices sequentially at intake, so whether `sl.service.request`
//!   fires never depends on scheduling;
//! * batch items probe the cache sequentially in item order, misses
//!   are computed in parallel, and results are committed sequentially
//!   in item order — cache counters and contents end up
//!   schedule-independent;
//! * antichain counters ([`AntichainStats`]) are measured per query
//!   *on the worker thread that ran it* and the deltas are summed in
//!   item order. They are a pure function of the query, so the totals
//!   reported by `stats` are deterministic.
//!
//! With multiple connections, the guarantee each client keeps is
//! *transcript independence*: for sessions that touch disjoint names
//! and skip `stats`, the response stream is byte-for-byte what a solo
//! run of the same script would have produced, no matter how many
//! other clients are connected (`tests/concurrency.rs` pins this).
//!
//! # Fault tolerance
//!
//! The whole of dispatch runs inside a panic-isolation boundary: a
//! panicking request — organic, in any verb, or injected via the
//! `par.worker` drill site — degrades to a typed `panic` error
//! response; the daemon, its registry, and its cache survive. (Batch
//! items additionally carry their own per-item boundary so one
//! poisoned item cannot take down its siblings.) Because the daemon
//! outlives panics, every lock acquisition absorbs mutex poisoning —
//! each critical section leaves its structure valid. The
//! `sl.service.request` site makes request intake itself drillable
//! under `SL_FAULT_RATE`.

use crate::cache::{QueryCache, QueryKey, QueryKind};
use crate::json::Json;
use crate::persist::{Persist, PersistConfig, PersistError, PersistStats, SessionSnap};
use crate::proto::{
    err_value, kind_of, ok_value, request_from_value, BudgetSpec, ProtoError, Request, Verb,
};
use crate::registry::Registry;
use sl_buchi::{
    antichain_stats, classify, closure, decompose, equivalent, hoa, included, is_safety,
    shared_quotient_cache, universal, AntichainStats, Buchi, Classification, CompiledMonitor,
    Inclusion, Monitor, MonitorFleet, QuotientCache, Verdict,
};
use sl_omega::Alphabet;
use sl_pdr::{check_liveness, check_safety, LivenessVerdict, SafetyVerdict};
use sl_support::par::{try_par_map_with, ItemOutcome};
use sl_support::{fault, par, Budget, CacheStats, FaultPlan, ShardedCache, SlError, SHARDS};
use sl_trees::Kripke;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// The fault-injection site charged once per request (batch items
/// included), indexed by intake order.
pub const REQUEST_FAULT_SITE: &str = "sl.service.request";

/// Construction-time knobs for a [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Fault plan for the `sl.service.request` site. Defaults to the
    /// process-wide plan (`SL_FAULT_SEED`/`SL_FAULT_RATE`); tests pin
    /// explicit plans so golden transcripts stay clean under the
    /// environment drill.
    pub fault: FaultPlan,
    /// Worker count for batch fan-out. Defaults to
    /// `sl_support::par::thread_count()` (the `SL_THREADS` knob).
    pub threads: usize,
    /// Byte cap for one request line (oversized lines are rejected
    /// with a typed error, never buffered whole).
    pub max_line: usize,
    /// Entry cap of each result cache (query and `check`), split over
    /// its stripes with cap-and-clear per stripe; a cap below the
    /// stripe count caches nothing.
    pub cache_cap: usize,
    /// Bounded intake: the most items one `batch` may carry. Larger
    /// batches are shed with a typed `overloaded` rejection instead of
    /// letting one client grow the daemon's queue without bound.
    pub max_batch: usize,
    /// Bounded admission: the most concurrent connections the TCP
    /// supervisor serves. Connections beyond the cap get one typed
    /// `overloaded` rejection line and are closed (the `--max-conns`
    /// flag).
    pub max_conns: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            fault: *fault::global(),
            threads: par::thread_count(),
            max_line: 1 << 20,
            cache_cap: 256,
            max_batch: 1024,
            max_conns: 64,
        }
    }
}

/// A monitor session: the policy automaton's alphabet (for symbol
/// lookup), the automaton itself (snapshots serialize it per session,
/// so sessions that outlive a redefinition of their target name stay
/// bound to the automaton they actually watch), and where the stepped
/// state lives.
#[derive(Debug)]
struct MonitorSession {
    target: String,
    source: Arc<Buchi>,
    alphabet: Alphabet,
    backend: SessionBackend,
}

/// Where a session's monitor state lives. Safety-classified targets
/// compile once into a shared dense table and the session is one `u16`
/// slot in that table's [`MonitorFleet`] — the batched SoA hot path.
/// Everything else (not cl-safety, table too big) keeps a private
/// subset-construction [`Monitor`]; both backends are verdict-identical
/// by construction (the `compiled` conform oracle holds them to it).
#[derive(Debug)]
enum SessionBackend {
    /// Index into [`Sessions::fleets`] plus this session's slot.
    Compiled { fleet: usize, slot: usize },
    /// Private NFA-path monitor (the general fallback).
    Nfa(Monitor),
}

/// One compiled table shared by every session monitoring the same
/// registered automaton. Keyed by `Arc` identity: redefining a name
/// makes a new `Arc`, so stale sessions keep their original table.
#[derive(Debug)]
struct FleetEntry {
    source: Arc<Buchi>,
    fleet: MonitorFleet,
}

/// The monitor-session half of the daemon state: one namespace shared
/// by every connection (so a snapshot captures all sessions), guarded
/// by one mutex because fleets and the sessions indexing into them
/// must move together.
#[derive(Debug, Default)]
struct Sessions {
    monitors: HashMap<String, MonitorSession>,
    fleets: Vec<FleetEntry>,
}

impl Sessions {
    /// Picks a session backend for a target: safety-classified targets
    /// compile into a shared dense-table fleet (reusing the table when
    /// other sessions already watch the same `Arc`); anything else —
    /// not cl-safety, safety check over budget, or a table past the
    /// `u16` cap — falls back to a private NFA-path [`Monitor`].
    ///
    /// The safety check deliberately bypasses the query cache and the
    /// engine totals: `monitor-step` has never touched either, and
    /// keeping it that way preserves every existing golden `stats`
    /// transcript byte-for-byte.
    fn make_backend(&mut self, target: &Arc<Buchi>) -> SessionBackend {
        if matches!(is_safety(target), Ok(true)) {
            if let Some(i) = self
                .fleets
                .iter()
                .position(|entry| Arc::ptr_eq(&entry.source, target))
            {
                let slot = self.fleets[i].fleet.spawn();
                return SessionBackend::Compiled { fleet: i, slot };
            }
            if let Ok(compiled) = CompiledMonitor::new(target) {
                let mut fleet = MonitorFleet::new(&compiled);
                let slot = fleet.spawn();
                self.fleets.push(FleetEntry {
                    source: Arc::clone(target),
                    fleet,
                });
                return SessionBackend::Compiled {
                    fleet: self.fleets.len() - 1,
                    slot,
                };
            }
        }
        SessionBackend::Nfa(Monitor::new(target))
    }
}

/// One handled line's outcome.
#[derive(Debug)]
pub struct Reply {
    /// The response line (no trailing newline).
    pub line: String,
    /// Whether this request ends the issuing session: `true` for
    /// `quit` (connection-local) and `shutdown`.
    pub quit: bool,
    /// Whether this request was the `shutdown` that drained the daemon
    /// (the TCP supervisor closes every other connection once this
    /// reply is written).
    pub shutdown: bool,
}

/// All verbs, in the fixed order the `stats` response reports them.
const STATS_VERBS: [Verb; 12] = [
    Verb::Define,
    Verb::Classify,
    Verb::Decompose,
    Verb::Include,
    Verb::Equivalent,
    Verb::Universal,
    Verb::MonitorStep,
    Verb::Check,
    Verb::Stats,
    Verb::Batch,
    Verb::Shutdown,
    Verb::Quit,
];

/// The verbs the write-ahead journal records: exactly those whose
/// successful dispatch mutates durable state (`decompose` registers
/// the two decomposition parts, so it mutates the registry too).
fn is_journaled(verb: Verb) -> bool {
    matches!(verb, Verb::Define | Verb::Decompose | Verb::MonitorStep)
}

/// The `check` verb's half of the daemon state: LT-PDR engine counters
/// (atomics, summed over every computed check) plus its own memo
/// table. `check` operands are inline Kripke structures, not
/// registered automata, so the query cache's `Arc<Buchi>`-shaped
/// entries cannot hold them; this cache is keyed by a 64-bit hash of
/// the request's canonical text and stores that text for the equality
/// check (hash collisions recompute, never corrupt).
#[derive(Debug)]
struct CheckState {
    cache: ShardedCache<u64, (String, Json)>,
    /// Frames opened across all computed checks.
    frames: AtomicU64,
    /// Proof obligations discharged.
    obligations: AtomicU64,
    /// Generalizations that strictly strengthened a blocking cube.
    generalizations: AtomicU64,
    /// Sum of the k-liveness bounds the sweeps settled at.
    k_reached: AtomicU64,
}

/// The durability attachment: the journal/snapshot manager plus the
/// replay guard (recovery feeds journaled lines back through dispatch,
/// and those must not be re-journaled).
#[derive(Debug)]
struct PersistState {
    persist: Persist,
    replaying: bool,
    notes: Vec<String>,
}

/// Request/error/session tallies, all atomics so any connection can
/// bump them without a lock.
#[derive(Debug)]
struct Counters {
    verb_counts: [AtomicU64; STATS_VERBS.len()],
    errors: AtomicU64,
    io_errors: AtomicU64,
    /// Sessions ever started (monotone; the `connections` gauge).
    connections: AtomicU64,
    /// Sessions currently being served.
    active_sessions: AtomicU64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            verb_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
        }
    }
}

/// The daemon core every [`Service`] handle points at.
#[derive(Debug)]
struct Shared {
    config: ServiceConfig,
    registry: RwLock<Registry>,
    sessions: Mutex<Sessions>,
    cache: QueryCache,
    check: CheckState,
    counters: Counters,
    antichain_totals: Mutex<AntichainStats>,
    /// Per-daemon interned-quotient cache: `define`/`redefine` advance
    /// it incrementally, the on-the-fly inclusion engine reads it.
    /// Private to this service (not the process-global cache) so the
    /// `stats` counters are deterministic under concurrent tests. Its
    /// shard mutexes are leaf locks — never taken while holding the
    /// registry, session, or cache locks.
    quotient: QuotientCache,
    next_request_index: AtomicU64,
    /// The mutation lock: journaled verbs append and dispatch under
    /// it, so journal order is dispatch order (`None` when the
    /// service is not persistent — the lock still serializes
    /// mutators).
    persist: Mutex<Option<PersistState>>,
    /// The journal counters as of the last mutation-lock release
    /// (`None` when not persistent): `stats` reads this copy, so it
    /// never waits behind an in-flight mutation. A leaf lock.
    persist_stats: Mutex<Option<PersistStats>>,
    /// Set by `shutdown` under the mutation lock; every later request
    /// is refused with `shutting_down`.
    stopped: AtomicBool,
    /// In-flight compute dedup: cache keys currently being computed.
    /// A probe miss claims its key here or waits for the claimant.
    pending: Mutex<HashSet<QueryKey>>,
    pending_done: Condvar,
}

/// The daemon state: registry, monitor sessions, cache, counters —
/// a cloneable handle, one per connection thread.
#[derive(Debug, Clone)]
pub struct Service {
    shared: Arc<Shared>,
}

/// A resolved, cacheable query: what to compute and on what.
struct QueryJob {
    kind: QueryKind,
    left: Arc<Buchi>,
    right: Option<Arc<Buchi>>,
    budget: Option<BudgetSpec>,
}

/// Absorbs mutex poisoning: the daemon survives panics (dispatch is a
/// catch_unwind boundary), so a lock a panicking thread abandoned
/// still guards structurally valid state.
fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl Service {
    /// A service with the given configuration.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            shared: Arc::new(Shared {
                cache: QueryCache::new(config.cache_cap),
                check: CheckState {
                    cache: ShardedCache::new(config.cache_cap, SHARDS),
                    frames: AtomicU64::new(0),
                    obligations: AtomicU64::new(0),
                    generalizations: AtomicU64::new(0),
                    k_reached: AtomicU64::new(0),
                },
                quotient: QuotientCache::with_fault(config.fault),
                config,
                registry: RwLock::new(Registry::new()),
                sessions: Mutex::new(Sessions::default()),
                counters: Counters::default(),
                antichain_totals: Mutex::new(AntichainStats::default()),
                next_request_index: AtomicU64::new(0),
                persist: Mutex::new(None),
                persist_stats: Mutex::new(None),
                stopped: AtomicBool::new(false),
                pending: Mutex::new(HashSet::new()),
                pending_done: Condvar::new(),
            }),
        }
    }

    /// A service with default (environment-derived) configuration.
    #[must_use]
    pub fn from_env() -> Self {
        Service::new(ServiceConfig::default())
    }

    /// A durable service: recovers the newest loadable snapshot plus
    /// the journal tail from `persist.dir` (an empty or missing
    /// directory starts clean), then journals every state-mutating
    /// request ahead of dispatch and snapshots every
    /// `persist.snapshot_every` records. Recovery diagnostics are
    /// collected for [`Service::take_recovery_notes`].
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the directory is unusable, a journal
    /// holds a damaged complete record, or a checksum-valid snapshot
    /// decodes to state the engine rejects. Damaged snapshots fall
    /// back to older ones; a truncated journal tail is dropped with a
    /// note, not an error.
    pub fn with_persistence(
        config: ServiceConfig,
        persist: &PersistConfig,
    ) -> Result<Self, PersistError> {
        let started = std::time::Instant::now();
        let (persist, recovered) = Persist::open(persist)?;
        let service = Service::new(config);
        *service.lock_persist() = Some(PersistState {
            persist,
            replaying: true,
            notes: recovered.notes,
        });
        if let Some(snapshot) = &recovered.snapshot {
            service.restore_snapshot(snapshot)?;
        }
        let mut replayed = 0u64;
        for line in &recovered.tail {
            service.replay_line(line);
            replayed += 1;
        }
        let mut guard = service.lock_persist();
        let state = guard.as_mut().expect("attached above");
        state.replaying = false;
        state
            .persist
            .note_recovery(started.elapsed().as_millis() as u64, replayed);
        service.publish_persist_stats(&guard);
        drop(guard);
        Ok(service)
    }

    // ---- lock helpers (poison-absorbing, in lock order) ------------

    fn lock_persist(&self) -> MutexGuard<'_, Option<PersistState>> {
        relock(self.shared.persist.lock())
    }

    fn read_registry(&self) -> std::sync::RwLockReadGuard<'_, Registry> {
        relock(self.shared.registry.read())
    }

    fn write_registry(&self) -> std::sync::RwLockWriteGuard<'_, Registry> {
        relock(self.shared.registry.write())
    }

    fn lock_sessions(&self) -> MutexGuard<'_, Sessions> {
        relock(self.shared.sessions.lock())
    }

    /// Copies the journal counters for `stats`. Called with the
    /// mutation lock held, after every critical section that can move
    /// them.
    fn publish_persist_stats(&self, persist: &Option<PersistState>) {
        *relock(self.shared.persist_stats.lock()) =
            persist.as_ref().map(|state| *state.persist.stats());
    }

    /// Folds a per-query antichain delta into the daemon totals.
    fn absorb_search_stats(&self, delta: &AntichainStats) {
        relock(self.shared.antichain_totals.lock()).absorb(delta);
    }

    // ---- lifecycle and session accounting --------------------------

    /// Whether this service journals and snapshots its state.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.lock_persist().is_some()
    }

    /// Whether `shutdown` has drained the daemon (every further
    /// request gets a typed `shutting_down` rejection).
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }

    /// The configured concurrent-connection cap.
    #[must_use]
    pub fn max_conns(&self) -> usize {
        self.shared.config.max_conns
    }

    /// Sessions currently being served (the `active_sessions` gauge).
    #[must_use]
    pub fn active_sessions(&self) -> u64 {
        self.shared.counters.active_sessions.load(Ordering::SeqCst)
    }

    /// Counts a session in (serving loops bracket every session with
    /// [`Service::begin_session`]/[`Service::end_session`]).
    pub(crate) fn begin_session(&self) {
        self.shared.counters.connections.fetch_add(1, Ordering::SeqCst);
        self.shared
            .counters
            .active_sessions
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a session out.
    pub(crate) fn end_session(&self) {
        self.shared
            .counters
            .active_sessions
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Renders (and counts) the one-line `overloaded` rejection the
    /// TCP supervisor writes to connections beyond `max_conns`.
    pub(crate) fn overloaded_reply(&self) -> String {
        let error = ProtoError::new(
            "overloaded",
            format!(
                "the daemon is at its connection cap ({}); retry later",
                self.shared.config.max_conns
            ),
        );
        self.error_reply(None, &error).line
    }

    /// Drains recovery diagnostics (`[recovered]`-prefixed lines) for
    /// the caller to log; empty on a clean start.
    pub fn take_recovery_notes(&self) -> Vec<String> {
        match self.lock_persist().as_mut() {
            Some(state) => std::mem::take(&mut state.notes),
            None => Vec::new(),
        }
    }

    /// Counts one dropped-connection (or otherwise failed) transport
    /// I/O error; surfaced by `stats` as `io_errors`.
    pub fn note_io_error(&self) {
        self.shared.counters.io_errors.fetch_add(1, Ordering::SeqCst);
    }

    /// Flushes the journal to stable storage and writes a final
    /// snapshot — the graceful half of shutdown, also used by the
    /// listener-close path. Returns `true` when a snapshot was
    /// written (`false` for a non-persistent service).
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the snapshot or sync fails; the journal
    /// is still complete, so recovery remains possible.
    pub fn drain(&self) -> Result<bool, PersistError> {
        let mut persist = self.lock_persist();
        self.drain_with(&mut persist)
    }

    /// The drain body, for callers already holding the mutation lock.
    fn drain_with(&self, persist: &mut Option<PersistState>) -> Result<bool, PersistError> {
        let Some(state) = persist.as_mut() else {
            return Ok(false);
        };
        let (registry, sessions) = self.snapshot_state();
        let drained = state
            .persist
            .sync()
            .and_then(|()| state.persist.write_snapshot(registry, sessions));
        self.publish_persist_stats(persist);
        drained.map(|()| true)
    }

    /// The configured line cap (the framing layer enforces it).
    #[must_use]
    pub fn max_line(&self) -> usize {
        self.shared.config.max_line
    }

    /// Query-cache counters (bench reporting).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Empties the result cache and zeroes its counters (bench
    /// cold/warm isolation).
    pub fn reset_cache(&self) {
        self.shared.cache.reset();
    }

    // ---- the request path ------------------------------------------

    /// Handles one request line, producing exactly one response line.
    pub fn handle_line(&self, line: &str) -> Reply {
        let doc = match crate::json::parse(line) {
            Ok(doc) => doc,
            Err(message) => {
                return self.error_reply(None, &ProtoError::new("parse", message));
            }
        };
        let id = doc.get("id").cloned();
        let request = match request_from_value(doc) {
            Ok(request) => request,
            Err(error) => return self.error_reply(id.as_ref(), &error),
        };
        if self.is_stopped() {
            return self.error_reply(id.as_ref(), &shutting_down());
        }
        self.count_verb(request.verb);
        let index = self.take_index();
        if let Err(err) = self
            .shared
            .config
            .fault
            .inject_error(REQUEST_FAULT_SITE, index)
        {
            let error = ProtoError::new(kind_of(&err), err.to_string());
            return self.error_reply(id.as_ref(), &error);
        }
        if request.verb == Verb::Quit {
            // Connection-local: the serving loop ends this session and
            // the daemon keeps serving everyone else.
            return Reply {
                line: ok_value(id.as_ref(), Json::obj(vec![("bye", Json::Bool(true))])).render(),
                quit: true,
                shutdown: false,
            };
        }
        if request.verb == Verb::Shutdown {
            return self.do_shutdown(id.as_ref());
        }
        if is_journaled(request.verb) {
            // The mutation lock: write-ahead append and dispatch form
            // one critical section, so the journal's total order is
            // exactly the order mutations were applied — recovery
            // replays the served interleaving even when it came from
            // many connections.
            let mut persist = self.lock_persist();
            if self.is_stopped() {
                // `shutdown` won the lock while this request waited:
                // the final snapshot is already on disk.
                return self.error_reply(id.as_ref(), &shutting_down());
            }
            let appended = match persist.as_mut() {
                Some(state) if !state.replaying => state.persist.append(line),
                _ => Ok(()),
            };
            let reply = match appended {
                Ok(()) => {
                    let reply = self.dispatch_isolated(&request, id.as_ref());
                    self.maybe_snapshot(&mut persist);
                    reply
                }
                Err(e) => {
                    let error = ProtoError::new("persist", format!("journal write failed: {e}"));
                    self.error_reply(id.as_ref(), &error)
                }
            };
            self.publish_persist_stats(&persist);
            reply
        } else {
            self.dispatch_isolated(&request, id.as_ref())
        }
    }

    /// `shutdown`: drain the whole daemon. Taking the mutation lock
    /// first means no journaled verb is mid-dispatch when the stopped
    /// flag flips, so the final snapshot captures a complete state.
    fn do_shutdown(&self, id: Option<&Json>) -> Reply {
        let mut persist = self.lock_persist();
        self.shared.stopped.store(true, Ordering::SeqCst);
        let snapshotted = match self.drain_with(&mut persist) {
            Ok(wrote) => wrote,
            Err(e) => {
                eprintln!("sld: shutdown snapshot failed: {e}");
                false
            }
        };
        drop(persist);
        let body = Json::obj(vec![
            ("bye", Json::Bool(true)),
            ("drained", Json::Bool(true)),
            ("snapshotted", Json::Bool(snapshotted)),
        ]);
        Reply {
            line: ok_value(id, body).render(),
            quit: true,
            shutdown: true,
        }
    }

    /// Dispatch inside the panic boundary: every verb — not just the
    /// query kernel — degrades to a typed `panic` error, keeping the
    /// protocol contract that every failure is a response.
    fn dispatch_isolated(&self, request: &Request, id: Option<&Json>) -> Reply {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(request))) {
            Ok(Ok(result)) => Reply {
                line: ok_value(id, result).render(),
                quit: false,
                shutdown: false,
            },
            Ok(Err(error)) => self.error_reply(id, &error),
            Err(payload) => {
                let error = ProtoError::new("panic", panic_message(payload.as_ref()));
                self.error_reply(id, &error)
            }
        }
    }

    /// Feeds one recovered journal line back through dispatch. Replay
    /// skips the fault-injection gate — the journal records requests
    /// that were already accepted — but keeps the verb counters and
    /// index stream moving so a recovered daemon's bookkeeping stays
    /// plausible. Outcomes are discarded: a line that failed when
    /// first served fails identically here, which is the point.
    fn replay_line(&self, line: &str) {
        let Ok(doc) = crate::json::parse(line) else { return };
        let Ok(request) = request_from_value(doc) else { return };
        if !is_journaled(request.verb) {
            return;
        }
        self.count_verb(request.verb);
        let _ = self.take_index();
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(&request))) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) | Err(_) => {
                self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Writes an automatic snapshot when the journal has accumulated
    /// `snapshot_every` records. A failed snapshot is a diagnostic,
    /// not a request failure: the journal already holds everything.
    fn maybe_snapshot(&self, persist: &mut Option<PersistState>) {
        let due = match persist {
            Some(state) => !state.replaying && state.persist.should_snapshot(),
            None => false,
        };
        if due {
            let (registry, sessions) = self.snapshot_state();
            let state = persist.as_mut().expect("checked above");
            if let Err(e) = state.persist.write_snapshot(registry, sessions) {
                eprintln!("sld: snapshot failed: {e}");
            }
        }
    }

    /// Serializes the durable state: sorted registry bindings (HOA is
    /// an exact codec — `from_hoa(to_hoa(b)) == b`) and sorted monitor
    /// sessions with their raw backend state. Called with the mutation
    /// lock held, so no mutator is mid-flight; queries may interleave
    /// freely (they never touch durable state).
    fn snapshot_state(&self) -> (Vec<(String, String)>, Vec<SessionSnap>) {
        let mut registry: Vec<(String, String)> = self
            .read_registry()
            .iter()
            .map(|(name, automaton)| (name.to_string(), hoa::to_hoa(automaton, name)))
            .collect();
        registry.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let guard = self.lock_sessions();
        let mut sessions: Vec<SessionSnap> = guard
            .monitors
            .iter()
            .map(|(name, session)| {
                let state = match &session.backend {
                    SessionBackend::Compiled { fleet, slot } => {
                        u64::from(guard.fleets[*fleet].fleet.save_state(*slot))
                    }
                    SessionBackend::Nfa(monitor) => monitor.save_state(),
                };
                SessionSnap {
                    name: name.clone(),
                    target: session.target.clone(),
                    hoa: hoa::to_hoa(&session.source, &session.target),
                    state,
                }
            })
            .collect();
        drop(guard);
        sessions.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        (registry, sessions)
    }

    /// Rebuilds registry and sessions from a snapshot. Automata are
    /// reparsed from their HOA text (deduplicated by text, so sessions
    /// watching the same automaton share one compiled fleet, as they
    /// would have live); the deterministic monitor constructions make
    /// the saved raw state indices valid against the rebuilt tables.
    fn restore_snapshot(&self, snapshot: &crate::persist::Snapshot) -> Result<(), PersistError> {
        let bad = |detail: String| PersistError::State { detail };
        let mut by_hoa: HashMap<&str, Arc<Buchi>> = HashMap::new();
        let mut registry = self.write_registry();
        for (name, text) in &snapshot.registry {
            let automaton = hoa::from_hoa(text)
                .map_err(|e| bad(format!("registry entry `{name}`: {e}")))?;
            let stored = registry.insert(name, automaton);
            by_hoa.entry(text.as_str()).or_insert(stored);
        }
        drop(registry);
        let mut sessions = self.lock_sessions();
        for snap in &snapshot.sessions {
            let source = match by_hoa.get(snap.hoa.as_str()) {
                Some(arc) => Arc::clone(arc),
                None => {
                    let automaton = hoa::from_hoa(&snap.hoa)
                        .map_err(|e| bad(format!("session `{}`: {e}", snap.name)))?;
                    let arc = Arc::new(automaton);
                    by_hoa.insert(snap.hoa.as_str(), Arc::clone(&arc));
                    arc
                }
            };
            let mut backend = sessions.make_backend(&source);
            let loaded = match &mut backend {
                SessionBackend::Compiled { fleet, slot } => match u16::try_from(snap.state) {
                    Ok(raw) => sessions.fleets[*fleet].fleet.load_state(*slot, raw),
                    Err(_) => false,
                },
                SessionBackend::Nfa(monitor) => monitor.load_state(snap.state),
            };
            if !loaded {
                return Err(bad(format!(
                    "session `{}` state {} is out of range for its monitor",
                    snap.name, snap.state
                )));
            }
            sessions.monitors.insert(
                snap.name.clone(),
                MonitorSession {
                    target: snap.target.clone(),
                    alphabet: source.alphabet().clone(),
                    source,
                    backend,
                },
            );
        }
        Ok(())
    }

    fn error_reply(&self, id: Option<&Json>, error: &ProtoError) -> Reply {
        self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
        Reply {
            line: err_value(id, error).render(),
            quit: false,
            shutdown: false,
        }
    }

    fn take_index(&self) -> u64 {
        self.shared.next_request_index.fetch_add(1, Ordering::SeqCst)
    }

    fn count_verb(&self, verb: Verb) {
        let slot = STATS_VERBS
            .iter()
            .position(|&v| v == verb)
            .expect("every verb has a stats slot");
        self.shared.counters.verb_counts[slot].fetch_add(1, Ordering::SeqCst);
    }

    fn dispatch(&self, request: &Request) -> Result<Json, ProtoError> {
        match request.verb {
            Verb::Define => self.do_define(request),
            Verb::Classify | Verb::Include | Verb::Equivalent | Verb::Universal => {
                let job = self.resolve_query(request)?;
                self.run_query(&job)
            }
            Verb::Decompose => self.do_decompose(request),
            Verb::MonitorStep => self.do_monitor_step(request),
            Verb::Check => self.do_check(request),
            Verb::Stats => Ok(self.do_stats()),
            Verb::Batch => self.do_batch(request),
            Verb::Shutdown | Verb::Quit => {
                unreachable!("shutdown and quit are handled before dispatch")
            }
        }
    }

    // ---- define ---------------------------------------------------

    fn do_define(&self, request: &Request) -> Result<Json, ProtoError> {
        let name = require_str(&request.body, "name")?;
        let budget = request.budget.map(BudgetSpec::to_budget);
        let (automaton, source) = if let Some(formula) = request.body.get("ltl") {
            let formula = formula
                .as_str()
                .ok_or_else(|| ProtoError::new("parse", "`ltl` must be a string"))?;
            let names = alphabet_operand(&request.body)?;
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let sigma = Alphabet::new(&name_refs);
            let parsed = sl_ltl::parse(&sigma, formula)
                .map_err(|e| ProtoError::new("invalid_input", e.to_string()))?;
            let automaton = match &budget {
                Some(budget) => sl_ltl::translate_with_budget(&sigma, &parsed, budget)
                    .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?,
                None => sl_ltl::translate(&sigma, &parsed),
            };
            (automaton, "ltl")
        } else if let Some(text) = request.body.get("hoa") {
            let text = text
                .as_str()
                .ok_or_else(|| ProtoError::new("parse", "`hoa` must be a string"))?;
            let automaton =
                hoa::from_hoa(text).map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
            (automaton, "hoa")
        } else {
            return Err(ProtoError::new(
                "invalid_input",
                "define needs `ltl` (with `alphabet`) or `hoa`",
            ));
        };
        // Advance the interned quotient before publishing the binding:
        // a redefine seeds the simulation refinement from the previous
        // version's rows (clean SCCs carry over, only dirty ones are
        // re-derived), a fresh define warms the cache from scratch.
        // Mutating verbs serialize under the persist lock, so reading
        // the old binding here is not racy, and journal replay during
        // recovery re-warms the cache deterministically.
        let previous = self.read_registry().get(name).cloned();
        match &previous {
            Some(old) => {
                self.shared.quotient.advance(old, &automaton);
            }
            None => {
                let _ = self.shared.quotient.quotient(&automaton);
            }
        }
        let stored = self.write_registry().insert(name, automaton);
        Ok(Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("source", Json::Str(source.to_string())),
            ("states", Json::Int(stored.num_states() as i64)),
            ("transitions", Json::Int(stored.num_transitions() as i64)),
        ]))
    }

    // ---- the cacheable query verbs --------------------------------

    fn resolve_query(&self, request: &Request) -> Result<QueryJob, ProtoError> {
        let (kind, left_key, right_key) = match request.verb {
            Verb::Classify => (QueryKind::Classify, "target", None),
            Verb::Universal => (QueryKind::Universal, "target", None),
            Verb::Include => (QueryKind::Include, "left", Some("right")),
            Verb::Equivalent => (QueryKind::Equivalent, "left", Some("right")),
            _ => unreachable!("resolve_query is only called for query verbs"),
        };
        let registry = self.read_registry();
        let left = resolve_in(&registry, &request.body, left_key)?;
        let right = match right_key {
            Some(key) => Some(resolve_in(&registry, &request.body, key)?),
            None => None,
        };
        drop(registry);
        if let Some(right) = &right {
            if left.alphabet() != right.alphabet() {
                return Err(ProtoError::new(
                    "invalid_input",
                    "operands have different alphabets",
                ));
            }
        }
        Ok(QueryJob {
            kind,
            left,
            right,
            budget: request.budget,
        })
    }

    /// Probes the cache, computes on miss (inside a panic boundary,
    /// with engine counters attributed), stores successful results.
    ///
    /// Concurrent cold queries for the same key are **deduplicated**:
    /// the first connection to claim the key computes it; every other
    /// connection waits on the condvar and re-probes, so n clients
    /// asking the same cold question cost one compute, not n. Failed
    /// computes release the claim without storing — each waiter then
    /// claims and retries for itself (a budget-limited failure must
    /// not shadow a retry with a larger budget).
    fn run_query(&self, job: &QueryJob) -> Result<Json, ProtoError> {
        let key = QueryCache::key(job.kind, &job.left, job.right.as_deref());
        loop {
            if let Some(result) = self
                .shared
                .cache
                .probe(job.kind, &job.left, job.right.as_ref())
            {
                return Ok(result);
            }
            let mut pending = relock(self.shared.pending.lock());
            if pending.insert(key) {
                break;
            }
            let guard = relock(self.shared.pending_done.wait(pending));
            drop(guard);
        }
        let (outcome, delta) = compute_isolated(job, &self.shared.quotient);
        self.absorb_search_stats(&delta);
        if let Ok(result) = &outcome {
            self.shared.cache.store(
                job.kind,
                Arc::clone(&job.left),
                job.right.clone(),
                result.clone(),
            );
        }
        let mut pending = relock(self.shared.pending.lock());
        pending.remove(&key);
        drop(pending);
        self.shared.pending_done.notify_all();
        outcome
    }

    // ---- decompose ------------------------------------------------

    fn do_decompose(&self, request: &Request) -> Result<Json, ProtoError> {
        let name = require_str(&request.body, "target")?.to_string();
        let target = resolve_in(&self.read_registry(), &request.body, "target")?;
        let before = antichain_stats();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let d = decompose(&target);
            let check = d.check_sampled(&target, 2, 2);
            (d, check)
        }));
        self.absorb_search_stats(&antichain_stats().delta_since(&before));
        let (d, check) = outcome.map_err(|payload| {
            ProtoError::new("panic", panic_message(payload.as_ref()))
        })?;
        let safety_name = format!("{name}.safety");
        let liveness_name = format!("{name}.liveness");
        let mut registry = self.write_registry();
        let safety = registry.insert(&safety_name, d.safety);
        let liveness = registry.insert(&liveness_name, d.liveness);
        drop(registry);
        Ok(Json::obj(vec![
            ("target", Json::Str(name.to_string())),
            (
                "safety",
                Json::obj(vec![
                    ("name", Json::Str(safety_name)),
                    ("states", Json::Int(safety.num_states() as i64)),
                ]),
            ),
            (
                "liveness",
                Json::obj(vec![
                    ("name", Json::Str(liveness_name)),
                    ("states", Json::Int(liveness.num_states() as i64)),
                ]),
            ),
            (
                "check_sampled",
                match check {
                    None => Json::Str("ok".to_string()),
                    Some(w) => Json::Str(format!(
                        "mismatch at {}",
                        w.display(target.alphabet())
                    )),
                },
            ),
        ]))
    }

    // ---- monitor-step ---------------------------------------------

    fn do_monitor_step(&self, request: &Request) -> Result<Json, ProtoError> {
        let session_name = require_str(&request.body, "monitor")?;
        // Lock order: registry (read) before sessions — the read lock
        // is only consulted when the step creates a session, but
        // taking it up front keeps the order unconditional.
        let registry = self.read_registry();
        let mut guard = self.lock_sessions();
        if !guard.monitors.contains_key(session_name) {
            let target_name = require_str(&request.body, "target").map_err(|_| {
                ProtoError::new(
                    "invalid_input",
                    format!("monitor session `{session_name}` does not exist; creating one needs `target`"),
                )
            })?;
            let target = resolve_in(&registry, &request.body, "target")?;
            let backend = guard.make_backend(&target);
            guard.monitors.insert(
                session_name.to_string(),
                MonitorSession {
                    target: target_name.to_string(),
                    alphabet: target.alphabet().clone(),
                    source: target,
                    backend,
                },
            );
        }
        drop(registry);
        // Split borrow: the session entry and the fleet table are
        // disjoint fields, and the compiled backend needs both.
        let Sessions { monitors, fleets } = &mut *guard;
        let session = monitors.get_mut(session_name).expect("inserted above");
        if let Some(requested) = request.body.get("target").and_then(Json::as_str) {
            if requested != session.target {
                return Err(ProtoError::new(
                    "invalid_input",
                    format!(
                        "monitor session `{session_name}` watches `{}`, not `{requested}`",
                        session.target
                    ),
                ));
            }
        }
        let symbols = match request.body.get("symbols") {
            None => &[][..],
            Some(v) => v
                .as_arr()
                .ok_or_else(|| ProtoError::new("parse", "`symbols` must be an array of strings"))?,
        };
        // Resolve every symbol and charge the whole batch before the
        // monitor is touched: a malformed entry or an exhausted budget
        // rejects the request with the session state unchanged, so a
        // client retry cannot double-step a silently consumed prefix.
        let mut syms = Vec::with_capacity(symbols.len());
        for symbol in symbols {
            let name = symbol
                .as_str()
                .ok_or_else(|| ProtoError::new("parse", "`symbols` must be an array of strings"))?;
            // Out-of-alphabet names map to an out-of-range Symbol: the
            // monitor degrades to sticky Unknown, exactly as it does
            // for untrusted binary traces.
            syms.push(
                session
                    .alphabet
                    .symbol(name)
                    .unwrap_or(sl_omega::Symbol(u16::MAX)),
            );
        }
        if let Some(budget) = request.budget.map(BudgetSpec::to_budget) {
            budget
                .meter("service.monitor")
                .charge(syms.len() as u64)
                .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
        }
        let reset = request.body.get("reset").and_then(Json::as_bool) == Some(true);
        let mut verdicts = Vec::with_capacity(syms.len());
        let final_verdict = match &mut session.backend {
            SessionBackend::Compiled { fleet, slot } => {
                let fleet = &mut fleets[*fleet].fleet;
                if reset {
                    fleet.reset(*slot);
                }
                for sym in syms {
                    verdicts.push(Json::Str(verdict_name(fleet.step(*slot, sym)).to_string()));
                }
                fleet.verdict(*slot)
            }
            SessionBackend::Nfa(monitor) => {
                if reset {
                    monitor.reset();
                }
                for sym in syms {
                    verdicts.push(Json::Str(verdict_name(monitor.step(sym)).to_string()));
                }
                monitor.verdict()
            }
        };
        Ok(Json::obj(vec![
            ("monitor", Json::Str(session_name.to_string())),
            ("target", Json::Str(session.target.clone())),
            ("verdicts", Json::Arr(verdicts)),
            ("verdict", Json::Str(verdict_name(final_verdict).to_string())),
        ]))
    }

    // ---- check (LT-PDR over an inline Kripke structure) -----------

    /// `check`: decide `AG !bad` (mode `safety`) or `FG !bad` over all
    /// paths (mode `liveness`, via the k-liveness reduction) on a
    /// Kripke structure carried inline by the request. A pure query:
    /// not journaled, cached by a structural hash of the canonicalized
    /// model, panic-isolated like every other verb.
    fn do_check(&self, request: &Request) -> Result<Json, ProtoError> {
        let liveness = match require_str(&request.body, "mode")? {
            "safety" => false,
            "liveness" => true,
            other => {
                return Err(ProtoError::new(
                    "invalid_input",
                    format!("check mode must be `safety` or `liveness`, not `{other}`"),
                ))
            }
        };
        let (kripke, bad, canon) = parse_check_model(&request.body, liveness)?;
        let key = {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            canon.hash(&mut hasher);
            hasher.finish()
        };
        let cache = &self.shared.check.cache;
        if let Some((_, result)) = cache.get(&key, |(stored, _)| *stored == canon) {
            return Ok(result);
        }
        let budget = request
            .budget
            .map_or_else(Budget::unlimited, BudgetSpec::to_budget);
        let result = if liveness {
            let run = check_liveness(&kripke, &bad, &budget)
                .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
            self.absorb_check(&run.stats, run.k_reached);
            match run.verdict {
                LivenessVerdict::Live { k, invariant } => Json::obj(vec![
                    ("mode", Json::Str("liveness".to_string())),
                    ("verdict", Json::Str("live".to_string())),
                    ("k", Json::Int(k as i64)),
                    ("invariant", states_json(invariant.iter())),
                ]),
                LivenessVerdict::Lasso { stem, looping } => Json::obj(vec![
                    ("mode", Json::Str("liveness".to_string())),
                    ("verdict", Json::Str("lasso".to_string())),
                    ("stem", states_json(stem.into_iter())),
                    ("loop", states_json(looping.into_iter())),
                ]),
            }
        } else {
            let run = check_safety(&kripke, &bad, &budget)
                .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
            self.absorb_check(&run.stats, 0);
            match run.verdict {
                SafetyVerdict::Safe { invariant } => Json::obj(vec![
                    ("mode", Json::Str("safety".to_string())),
                    ("verdict", Json::Str("safe".to_string())),
                    ("invariant", states_json(invariant.iter())),
                ]),
                SafetyVerdict::Unsafe { trace } => Json::obj(vec![
                    ("mode", Json::Str("safety".to_string())),
                    ("verdict", Json::Str("unsafe".to_string())),
                    ("trace", states_json(trace.into_iter())),
                ]),
            }
        };
        cache.insert(key, (canon, result.clone()));
        Ok(result)
    }

    /// Folds one computed check's engine counters into the daemon
    /// totals (cache hits skip this, as they skip the compute).
    fn absorb_check(&self, stats: &sl_pdr::PdrStats, k_reached: u64) {
        let check = &self.shared.check;
        check.frames.fetch_add(stats.frames, Ordering::SeqCst);
        check.obligations.fetch_add(stats.obligations, Ordering::SeqCst);
        check
            .generalizations
            .fetch_add(stats.generalizations, Ordering::SeqCst);
        check.k_reached.fetch_add(k_reached, Ordering::SeqCst);
    }

    // ---- stats ----------------------------------------------------

    /// Renders the `stats` snapshot. Every lock here is taken and
    /// released on its own — `stats` never holds two at once, so it
    /// can never participate in a lock-order cycle with a mutator.
    /// It never takes the mutation lock: the journal counters come from
    /// the copy published when the lock was last released, so `stats`
    /// answers while a long `define` holds it. Under concurrency the
    /// snapshot is a consistent-enough read: each counter is exact,
    /// cross-counter relations may be mid-request.
    fn do_stats(&self) -> Json {
        let mut requests: Vec<(String, Json)> = STATS_VERBS
            .iter()
            .zip(self.shared.counters.verb_counts.iter())
            .map(|(verb, count)| {
                (
                    verb.wire_name().to_string(),
                    Json::Int(count.load(Ordering::SeqCst) as i64),
                )
            })
            .collect();
        let total: u64 = self
            .shared
            .counters
            .verb_counts
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum();
        requests.push(("total".to_string(), Json::Int(total as i64)));
        let automata = self.read_registry().len();
        let monitors = self.lock_sessions().monitors.len();
        let shard_stats = self.shared.cache.shard_stats();
        let shards: Vec<Json> = shard_stats.iter().map(|s| cache_json(s, vec![])).collect();
        let antichain = *relock(self.shared.antichain_totals.lock());
        let quotient = self.shared.quotient.stats();
        let counters = &self.shared.counters;
        let mut doc = vec![
            ("requests", Json::Obj(requests)),
            (
                "errors",
                Json::Int(counters.errors.load(Ordering::SeqCst) as i64),
            ),
            (
                "io_errors",
                Json::Int(counters.io_errors.load(Ordering::SeqCst) as i64),
            ),
            (
                "connections",
                Json::Int(counters.connections.load(Ordering::SeqCst) as i64),
            ),
            (
                "active_sessions",
                Json::Int(counters.active_sessions.load(Ordering::SeqCst) as i64),
            ),
            (
                "registry",
                Json::obj(vec![
                    ("automata", Json::Int(automata as i64)),
                    ("monitors", Json::Int(monitors as i64)),
                ]),
            ),
            (
                "cache",
                cache_json(
                    &shard_stats.into_iter().sum(),
                    vec![("shards", Json::Arr(shards))],
                ),
            ),
            (
                "engine",
                Json::obj(vec![
                    (
                        "antichain",
                        Json::obj(vec![
                            ("searches", Json::Int(antichain.searches as i64)),
                            (
                                "insert_attempts",
                                Json::Int(antichain.insert_attempts as i64),
                            ),
                            (
                                "subsumption_scans",
                                Json::Int(antichain.subsumption_scans as i64),
                            ),
                            (
                                "counterexamples",
                                Json::Int(antichain.counterexamples as i64),
                            ),
                            (
                                "peak_macro_states",
                                Json::Int(antichain.peak_macro_states as i64),
                            ),
                            (
                                "final_antichain",
                                Json::Int(antichain.final_antichain as i64),
                            ),
                        ]),
                    ),
                    (
                        "quotient_cache",
                        cache_json(
                            &quotient.cache,
                            vec![
                                ("invalidations", Json::Int(quotient.invalidations as i64)),
                                ("advances", Json::Int(quotient.advances as i64)),
                                ("dirty_sccs", Json::Int(quotient.dirty_sccs as i64)),
                                ("clean_sccs", Json::Int(quotient.clean_sccs as i64)),
                            ],
                        ),
                    ),
                ]),
            ),
        ];
        let check = &self.shared.check;
        doc.push((
            "check",
            Json::obj(vec![
                (
                    "frames",
                    Json::Int(check.frames.load(Ordering::SeqCst) as i64),
                ),
                (
                    "obligations",
                    Json::Int(check.obligations.load(Ordering::SeqCst) as i64),
                ),
                (
                    "generalizations",
                    Json::Int(check.generalizations.load(Ordering::SeqCst) as i64),
                ),
                (
                    "k_reached",
                    Json::Int(check.k_reached.load(Ordering::SeqCst) as i64),
                ),
                ("cache", cache_json(&check.cache.stats(), vec![])),
            ]),
        ));
        let persist = *relock(self.shared.persist_stats.lock());
        if let Some(p) = persist {
            doc.push((
                "persist",
                Json::obj(vec![
                    ("journal_bytes", Json::Int(p.journal_bytes as i64)),
                    (
                        "records_since_snapshot",
                        Json::Int(p.records_since_snapshot as i64),
                    ),
                    ("snapshots_taken", Json::Int(p.snapshots_taken as i64)),
                    (
                        "snapshots_discarded",
                        Json::Int(p.snapshots_discarded as i64),
                    ),
                    ("last_recovery_ms", Json::Int(p.last_recovery_ms as i64)),
                    ("replayed_records", Json::Int(p.replayed_records as i64)),
                ]),
            ));
        }
        Json::obj(doc)
    }

    // ---- batch ----------------------------------------------------

    /// Fans the items of a `batch` through the panic-isolated sweep:
    /// sequential intake (fault indices, verb counts, cache probes),
    /// parallel compute of the misses, sequential commit in item
    /// order. One poisoned item degrades to its own typed error.
    /// Batch items bypass the in-flight dedup table — the sequential
    /// probe already deduplicates within the batch, and the counters
    /// it produces are pinned by golden transcripts.
    fn do_batch(&self, request: &Request) -> Result<Json, ProtoError> {
        let items = request
            .body
            .get("requests")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProtoError::new("parse", "batch needs a `requests` array"))?
            .to_vec();
        // Bounded intake: shed oversized batches before any per-item
        // bookkeeping, so an overloaded rejection has no side effects
        // a retry would double-count.
        if items.len() > self.shared.config.max_batch {
            return Err(ProtoError::new(
                "overloaded",
                format!(
                    "batch carries {} requests; the daemon accepts at most {} per batch — \
                     split the batch and retry",
                    items.len(),
                    self.shared.config.max_batch
                ),
            ));
        }
        let default_budget = request.budget;

        // Per-item slot: either an already-final response value or a
        // job index into the parallel compute list.
        enum Slot {
            Done(Json),
            Job { id: Option<Json>, job_index: usize },
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(items.len());
        let mut jobs: Vec<QueryJob> = Vec::new();

        for item in items {
            let id = item.get("id").cloned();
            let prepared = request_from_value(item).and_then(|mut sub| {
                self.count_verb(sub.verb);
                let index = self.take_index();
                self.shared
                    .config
                    .fault
                    .inject_error(REQUEST_FAULT_SITE, index)
                    .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
                match sub.verb {
                    Verb::Classify | Verb::Include | Verb::Equivalent | Verb::Universal => {
                        if sub.budget.is_none() {
                            sub.budget = default_budget;
                        }
                        self.resolve_query(&sub)
                    }
                    other => Err(ProtoError::new(
                        "unsupported",
                        format!(
                            "`{}` cannot run inside a batch (only classify, include, \
                             equivalent, universal)",
                            other.wire_name()
                        ),
                    )),
                }
            });
            match prepared {
                Err(error) => {
                    self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                    slots.push(Slot::Done(err_value(id.as_ref(), &error)));
                }
                Ok(job) => {
                    // Sequential probe keeps hit/miss counters (and the
                    // set of computed jobs) schedule-independent.
                    match self
                        .shared
                        .cache
                        .probe(job.kind, &job.left, job.right.as_ref())
                    {
                        Some(result) => slots.push(Slot::Done(ok_value(id.as_ref(), result))),
                        None => {
                            slots.push(Slot::Job {
                                id,
                                job_index: jobs.len(),
                            });
                            jobs.push(job);
                        }
                    }
                }
            }
        }

        // The worker already isolates panics and types its errors, so
        // its closure is infallible; the sweep's own boundary still
        // catches the `par.worker` drill site's injected panics.
        let report = try_par_map_with(self.shared.config.threads, &jobs, |job| {
            Ok(compute_isolated(job, &self.shared.quotient))
        });

        let mut results = Vec::with_capacity(slots.len());
        let mut outcomes = report.outcomes.into_iter();
        for slot in slots {
            match slot {
                Slot::Done(value) => results.push(value),
                Slot::Job { id, job_index } => {
                    let outcome = outcomes.next().expect("one outcome per job");
                    let job = &jobs[job_index];
                    match outcome {
                        ItemOutcome::Ok((Ok(result), delta)) => {
                            self.absorb_search_stats(&delta);
                            self.shared.cache.store(
                                job.kind,
                                Arc::clone(&job.left),
                                job.right.clone(),
                                result.clone(),
                            );
                            results.push(ok_value(id.as_ref(), result));
                        }
                        ItemOutcome::Ok((Err(error), delta)) => {
                            self.absorb_search_stats(&delta);
                            self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                            results.push(err_value(id.as_ref(), &error));
                        }
                        ItemOutcome::Failed(err) => {
                            self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                            let error = ProtoError::new(kind_of(&err), err.to_string());
                            results.push(err_value(id.as_ref(), &error));
                        }
                        ItemOutcome::Panicked(message) => {
                            self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                            let error = ProtoError::new("panic", message);
                            results.push(err_value(id.as_ref(), &error));
                        }
                    }
                }
            }
        }
        Ok(Json::obj(vec![("results", Json::Arr(results))]))
    }
}

/// One cache's `stats` block: the five counters every cache shares,
/// in one order, then `extra` (the cache's own fields).
fn cache_json(stats: &CacheStats, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
        ("entries", Json::Int(stats.entries as i64)),
        ("clears", Json::Int(stats.clears as i64)),
        ("collisions", Json::Int(stats.collisions as i64)),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

// ---- the pure compute kernel (shared by inline and batch paths) ----

/// Computes one query inside a panic boundary, measuring the antichain
/// counters it spent on this thread. Returns the typed outcome plus
/// the counter delta — the caller decides how to fold both in.
fn compute_isolated(
    job: &QueryJob,
    quotient: &QuotientCache,
) -> (Result<Json, ProtoError>, AntichainStats) {
    let before = antichain_stats();
    let outcome = catch_unwind(AssertUnwindSafe(|| compute_query(job, quotient)));
    let delta = antichain_stats().delta_since(&before);
    let outcome = match outcome {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(err)) => Err(ProtoError::new(kind_of(&err), err.to_string())),
        Err(payload) => Err(ProtoError::new("panic", panic_message(payload.as_ref()))),
    };
    (outcome, delta)
}

/// The verb semantics proper. Unbudgeted requests consult no fault
/// site, so fault drills only fire where a budgeted request opted in.
/// `include`/`equivalent`/`universal` take their quotients from the
/// daemon's [`QuotientCache`], so repeated queries over the same
/// operands reuse interned quotients instead of recomputing the
/// simulation per query.
fn compute_query(job: &QueryJob, quotient: &QuotientCache) -> Result<Json, SlError> {
    let budget = job.budget.map(BudgetSpec::to_budget);
    let budget = budget.as_ref();
    match job.kind {
        QueryKind::Classify => {
            let b = job.left.as_ref();
            let class = match budget {
                None => classify(b)?,
                Some(_) => {
                    let cl = closure(b);
                    let cache = shared_quotient_cache();
                    // This prefix is part of the wire message of a
                    // budgeted classify that fails; keep it stable.
                    let prefix = |e: SlError| e.context("included_budgeted: antichain search");
                    let safe = included(&cl, b, cache, budget).map_err(prefix)?.holds();
                    let live = universal(&cl, cache, budget).map_err(prefix)?.is_ok();
                    match (safe, live) {
                        (true, true) => Classification::Both,
                        (true, false) => Classification::Safety,
                        (false, true) => Classification::Liveness,
                        (false, false) => Classification::Neither,
                    }
                }
            };
            Ok(Json::obj(vec![(
                "class",
                Json::Str(class_name(class).to_string()),
            )]))
        }
        QueryKind::Include => {
            let (a, b) = (job.left.as_ref(), job.right.as_ref().expect("binary").as_ref());
            Ok(match included(a, b, quotient, budget)? {
                Inclusion::Holds => Json::obj(vec![("holds", Json::Bool(true))]),
                Inclusion::CounterExample(w) => Json::obj(vec![
                    ("holds", Json::Bool(false)),
                    ("counterexample", Json::Str(w.display(a.alphabet()))),
                ]),
            })
        }
        QueryKind::Equivalent => {
            let (a, b) = (job.left.as_ref(), job.right.as_ref().expect("binary").as_ref());
            Ok(match equivalent(a, b, quotient, budget)? {
                Ok(()) => Json::obj(vec![("equivalent", Json::Bool(true))]),
                Err(w) => Json::obj(vec![
                    ("equivalent", Json::Bool(false)),
                    ("separator", Json::Str(w.display(a.alphabet()))),
                ]),
            })
        }
        QueryKind::Universal => {
            let b = job.left.as_ref();
            Ok(match universal(b, quotient, budget)? {
                Ok(()) => Json::obj(vec![("universal", Json::Bool(true))]),
                Err(w) => Json::obj(vec![
                    ("universal", Json::Bool(false)),
                    ("rejected", Json::Str(w.display(b.alphabet()))),
                ]),
            })
        }
    }
}

// ---- check model parsing ------------------------------------------

/// The largest inline model `check` accepts. A typed rejection, not a
/// resource race: one request must never make the daemon allocate
/// unboundedly before any budget is consulted.
const CHECK_MAX_STATES: usize = 4096;

/// The k-liveness sweep builds counter products of up to
/// `n * (|bad| + 2)` states; cap the largest product a liveness check
/// may construct.
const CHECK_MAX_PRODUCT: usize = 1 << 20;

/// Parses and validates the `check` operands into a Kripke structure
/// (labels derived from badness: bad states read `b`, others `a`), the
/// sorted deduplicated bad set, and the canonical text the result
/// cache keys on. Every malformed shape is a typed rejection — the
/// request crosses a trust boundary, and `Kripke::new` panics on the
/// invariants it checks.
fn parse_check_model(
    body: &Json,
    liveness: bool,
) -> Result<(Kripke, Vec<usize>, String), ProtoError> {
    let model = match body.get("model") {
        Some(model @ Json::Obj(_)) => model,
        _ => {
            return Err(ProtoError::new(
                "parse",
                "check needs a `model` object with `succ` and `initial`",
            ))
        }
    };
    let succ_json = model.get("succ").and_then(Json::as_arr).ok_or_else(|| {
        ProtoError::new("parse", "model needs a `succ` array of arrays of state indices")
    })?;
    let n = succ_json.len();
    if n == 0 {
        return Err(ProtoError::new(
            "invalid_input",
            "model must have at least one state",
        ));
    }
    if n > CHECK_MAX_STATES {
        return Err(ProtoError::new(
            "invalid_input",
            format!("model has {n} states; check accepts at most {CHECK_MAX_STATES}"),
        ));
    }
    let mut succ: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (s, outs) in succ_json.iter().enumerate() {
        let outs = outs.as_arr().ok_or_else(|| {
            ProtoError::new("parse", format!("succ[{s}] must be an array of state indices"))
        })?;
        if outs.is_empty() {
            return Err(ProtoError::new(
                "invalid_input",
                format!("state {s} has no successor; the transition relation must be total"),
            ));
        }
        let row: Vec<usize> = outs
            .iter()
            .map(|t| state_index(t, n))
            .collect::<Result<_, _>>()?;
        succ.push(row);
    }
    let initial = match model.get("initial") {
        Some(v) => state_index(v, n)?,
        None => {
            return Err(ProtoError::new(
                "parse",
                "model needs an `initial` state index",
            ))
        }
    };
    let mut bad: Vec<usize> = match body.get("bad") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| ProtoError::new("parse", "`bad` must be an array of state indices"))?
            .iter()
            .map(|b| state_index(b, n))
            .collect::<Result<_, _>>()?,
    };
    bad.sort_unstable();
    bad.dedup();
    if liveness && n.saturating_mul(bad.len() + 2) > CHECK_MAX_PRODUCT {
        return Err(ProtoError::new(
            "invalid_input",
            format!(
                "liveness check would build a counter product of up to {} states \
                 (limit {CHECK_MAX_PRODUCT}); shrink the model or the bad set",
                n * (bad.len() + 2)
            ),
        ));
    }
    let canon = Json::obj(vec![
        (
            "mode",
            Json::Str(if liveness { "liveness" } else { "safety" }.to_string()),
        ),
        ("initial", Json::Int(initial as i64)),
        ("bad", states_json(bad.iter().copied())),
        (
            "succ",
            Json::Arr(
                succ.iter()
                    .map(|row| states_json(row.iter().copied()))
                    .collect(),
            ),
        ),
    ])
    .render();
    let sigma = Alphabet::ab();
    let a = sigma.symbol("a").expect("ab alphabet");
    let b = sigma.symbol("b").expect("ab alphabet");
    let labels = (0..n)
        .map(|s| if bad.binary_search(&s).is_ok() { b } else { a })
        .collect();
    Ok((Kripke::new(sigma, labels, succ, initial), bad, canon))
}

/// One state index operand: a nonnegative integer below `n`.
fn state_index(v: &Json, n: usize) -> Result<usize, ProtoError> {
    let index = v
        .as_u64()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| ProtoError::new("parse", "state indices must be nonnegative integers"))?;
    if index >= n {
        return Err(ProtoError::new(
            "invalid_input",
            format!("state index {index} is out of range for a {n}-state model"),
        ));
    }
    Ok(index)
}

/// Renders a state-index sequence as a JSON array.
fn states_json<I: IntoIterator<Item = usize>>(states: I) -> Json {
    Json::Arr(states.into_iter().map(|s| Json::Int(s as i64)).collect())
}

// ---- small helpers ------------------------------------------------

fn shutting_down() -> ProtoError {
    ProtoError::new(
        "shutting_down",
        "the daemon has drained and accepts no further requests",
    )
}

/// Name lookup against an already-held registry guard (taking the
/// read lock inside would self-deadlock a thread that holds it).
fn resolve_in(registry: &Registry, body: &Json, key: &str) -> Result<Arc<Buchi>, ProtoError> {
    let name = require_str(body, key)?;
    registry
        .get(name)
        .cloned()
        .ok_or_else(|| ProtoError::new("unknown_object", format!("`{name}` is not defined")))
}

fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("parse", format!("request needs a string `{key}`")))
}

fn alphabet_operand(body: &Json) -> Result<Vec<String>, ProtoError> {
    let items = body
        .get("alphabet")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            ProtoError::new("parse", "define from `ltl` needs an `alphabet` array of strings")
        })?;
    if items.is_empty() {
        return Err(ProtoError::new("invalid_input", "alphabet must be nonempty"));
    }
    // `Alphabet::new` asserts these invariants; the request crosses a
    // trust boundary, so they must be typed rejections here, not
    // daemon-killing panics.
    if items.len() > usize::from(u16::MAX) {
        return Err(ProtoError::new(
            "invalid_input",
            format!(
                "alphabet has {} entries; at most {} are supported",
                items.len(),
                u16::MAX
            ),
        ));
    }
    let names: Vec<String> = items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| ProtoError::new("parse", "alphabet entries must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let mut seen = HashSet::new();
    for name in &names {
        if !seen.insert(name.as_str()) {
            return Err(ProtoError::new(
                "invalid_input",
                format!("alphabet repeats `{name}`"),
            ));
        }
    }
    Ok(names)
}

fn class_name(class: Classification) -> &'static str {
    match class {
        Classification::Safety => "safety",
        Classification::Liveness => "liveness",
        Classification::Both => "both",
        Classification::Neither => "neither",
    }
}

fn verdict_name(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Ok => "ok",
        Verdict::Violation => "violation",
        Verdict::Unknown => "unknown",
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// `stats` must answer while another thread holds the mutation lock
    /// (as a long `define` does), and still render the journal block.
    #[test]
    fn stats_answers_while_the_mutation_lock_is_held() {
        let dir = std::env::temp_dir().join(format!("sl-stats-unblocked-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = PersistConfig {
            dir: dir.clone(),
            snapshot_every: 0,
        };
        let service = Service::with_persistence(
            ServiceConfig {
                fault: FaultPlan::disabled(),
                threads: 1,
                ..ServiceConfig::default()
            },
            &persist,
        )
        .unwrap();
        let defined = service.handle_line(
            r#"{"id":1,"verb":"define","name":"ga","ltl":"G a","alphabet":["a","b"]}"#,
        );
        assert!(defined.line.contains("\"ok\":true"), "{}", defined.line);
        let held = service.lock_persist();
        let (tx, rx) = mpsc::channel();
        let prober = service.clone();
        let probe = std::thread::spawn(move || {
            let _ = tx.send(prober.handle_line(r#"{"id":2,"verb":"stats"}"#).line);
        });
        let reply = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        probe.join().unwrap();
        let reply = reply.expect("stats waited behind the mutation lock");
        assert!(reply.contains("\"persist\":{\"journal_bytes\":"), "{reply}");
        assert!(reply.contains("\"records_since_snapshot\":1"), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
