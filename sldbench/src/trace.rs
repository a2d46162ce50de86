//! The traced run: replay a workload's recorded request stream
//! in-process against a fresh [`Service`], time `handle_line` as the
//! request span, and time child spans around direct calls into each
//! layer's public entry points on that request's operands.
//!
//! Child spans are replays: each layer call runs right after the
//! `handle_line` it is attributed to, on the same operands, against
//! the tracer's own mirrors of the daemon's caches (so a child runs
//! only when the daemon did that work too — a query-cache hit gets no
//! search span). A span's `parent` links it to its request span; the
//! engine's self time is the request span minus its children.
//!
//! Deterministic counts come from the daemon's own `stats` counters,
//! read before and after a single-threaded replay; the untraced and
//! the traced replay must report identical deltas.

use crate::drive::{self, Resp, Sent, Window};
use crate::gen::{Expect, Workload};
use crate::report::{mean, percentile};
use sl_buchi::{
    antichain_stats, classify, decompose, hoa, included_onthefly_with_cache, is_safety, Buchi,
    CompiledMonitor, Inclusion, Monitor, MonitorFleet, QuotientCache,
};
use sl_omega::{Alphabet, Symbol};
use sl_service::json::{self, Json};
use sl_service::{
    proto::request_from_value, Persist, PersistConfig, QueryCache, QueryKind, Request, Service,
    ServiceConfig, SessionSnap, Verb,
};
use sl_support::FaultPlan;
use sl_trees::Kripke;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's defaults, mirrored by the tracer's own caches.
const CACHE_CAP: usize = 256;
const SNAPSHOT_EVERY: u64 = 256;

/// At most this many requests have their spans written out; longer
/// streams write every k-th request's spans (the per-layer numbers
/// always cover every request).
const WRITTEN_REQUESTS: usize = 40_000;

/// One timed interval. Spans of one request share `req`; `parent` is
/// the request span's id (0 for the request span itself).
pub struct Span {
    pub req: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

/// Per-layer numbers folded from the spans as each request finishes.
#[derive(Default)]
pub struct SpanSummary {
    /// Request span durations, ns, in replay order.
    pub handle_ns: Vec<f64>,
    /// Request span minus its children, ns.
    pub self_ns: Vec<f64>,
    /// Durations per child-span name, ns.
    pub by_name: HashMap<&'static str, Vec<f64>>,
}

impl SpanSummary {
    pub fn p50_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| percentile(v, 50.0) / 1e3)
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e6)
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.total_ms(name) * 1e3
    }
}

/// Spans in memory: the current request's, plus every kept one.
struct SpanLog {
    epoch: Instant,
    next_id: u32,
    current: Vec<Span>,
    kept: Vec<Span>,
    keep_every: u32,
    summary: SpanSummary,
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, req: u32, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        self.next_id += 1;
        let id = self.next_id;
        self.current.push(Span {
            req,
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    fn timed<T>(&mut self, req: u32, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = black_box(f());
        let end = self.now();
        self.push(req, parent, name, start, end);
        out
    }

    /// Folds the finished request's spans into the summary (self time
    /// is the request span minus its children) and keeps them if the
    /// request is one of those written out.
    fn finish(&mut self, req: u32) {
        let whole = self.current.first().map_or(0.0, Span::ns);
        let mut children = 0.0;
        for span in &self.current[1..] {
            children += span.ns();
            self.summary
                .by_name
                .entry(span.name)
                .or_default()
                .push(span.ns());
        }
        self.summary.handle_ns.push(whole);
        self.summary.self_ns.push((whole - children).max(0.0));
        if req.is_multiple_of(self.keep_every) {
            self.kept.append(&mut self.current);
        } else {
            self.current.clear();
        }
    }
}

/// A fresh in-process daemon: faults off, batch fan-out on the calling
/// thread, everything else at the defaults `sld` uses.
pub fn service(persist_dir: Option<&Path>) -> Result<Service, String> {
    let config = ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        ..ServiceConfig::default()
    };
    match persist_dir {
        None => Ok(Service::new(config)),
        Some(dir) => {
            let _ = fs::remove_dir_all(dir);
            Service::with_persistence(
                config,
                &PersistConfig {
                    dir: dir.to_path_buf(),
                    snapshot_every: SNAPSHOT_EVERY,
                },
            )
            .map_err(|e| format!("in-process daemon: {e}"))
        }
    }
}

/// The `stats` counters the count check compares.
const COUNTERS: [&str; 27] = [
    "requests.total",
    "errors",
    "cache.hits",
    "cache.misses",
    "cache.clears",
    "cache.collisions",
    "check.cache.hits",
    "check.cache.misses",
    "check.cache.clears",
    "check.frames",
    "check.obligations",
    "check.generalizations",
    "check.k_reached",
    "engine.antichain.searches",
    "engine.antichain.insert_attempts",
    "engine.antichain.subsumption_scans",
    "engine.antichain.counterexamples",
    "engine.antichain.peak_macro_states",
    "engine.quotient_cache.hits",
    "engine.quotient_cache.misses",
    "engine.quotient_cache.advances",
    "engine.quotient_cache.dirty_sccs",
    "engine.quotient_cache.clean_sccs",
    "engine.complement_cache.hits",
    "engine.complement_cache.misses",
    "persist.snapshots_taken",
    "persist.replayed_records",
];

/// Gauges: reported as their level after the replay, not a delta.
const GAUGES: [&str; 1] = ["engine.antichain.peak_macro_states"];

pub type Counts = Vec<(&'static str, i64)>;

fn read_counters(svc: &Service) -> Result<Counts, String> {
    let reply = svc.handle_line("{\"id\":\"bench-stats\",\"verb\":\"stats\"}");
    let doc = json::parse(&reply.line).map_err(|e| format!("stats reply: {e}"))?;
    let result = doc.get("result").ok_or("stats reply without result")?;
    Ok(COUNTERS
        .iter()
        .map(|path| {
            let value = path
                .split('.')
                .try_fold(result, |node, key| node.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            (*path, value as i64)
        })
        .collect())
}

fn deltas(before: &Counts, after: &Counts) -> Counts {
    before
        .iter()
        .zip(after)
        .map(|(&(name, b), &(_, a))| (name, if GAUGES.contains(&name) { a } else { a - b }))
        .collect()
}

pub fn count(counts: &Counts, name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// What the untraced replay produced. `busy_s` is the time spent in
/// the replay loop's bodies (regenerating requests is not counted).
pub struct Replay {
    pub busy_s: f64,
    pub counts: Counts,
}

/// The untraced single-threaded replay.
pub fn replay_plain<'a>(
    sent: impl Iterator<Item = Sent<'a>>,
    persist_dir: Option<&Path>,
) -> Result<Replay, String> {
    let svc = service(persist_dir)?;
    let before = read_counters(&svc)?;
    let mut busy = Duration::ZERO;
    for s in sent {
        let start = Instant::now();
        black_box(svc.handle_line(&s.req.line));
        busy += start.elapsed();
    }
    let counts = deltas(&before, &read_counters(&svc)?);
    Ok(Replay {
        busy_s: busy.as_secs_f64(),
        counts,
    })
}

/// Work the tracer tallies at the layer boundaries it calls.
#[derive(Default)]
pub struct Tally {
    pub request_bytes: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub ltl_states_out: u64,
    pub hoa_bytes_in: u64,
    pub interned_states_in: u64,
    pub interned_states_out: u64,
    pub compiled_steps: u64,
    pub antichain_final: u64,
    pub antichain_attempts: u64,
    pub journal_bytes: u64,
}

enum Backend {
    Compiled { fleet: usize, slot: usize },
    Nfa(Monitor),
}

struct SessionMirror {
    target: String,
    source: Arc<Buchi>,
    alphabet: Alphabet,
    backend: Backend,
}

/// The tracer's mirrors of the daemon state its layer calls need.
struct Tracer {
    log: SpanLog,
    quotients: QuotientCache,
    queries: QueryCache,
    checks: HashSet<String>,
    registry: HashMap<String, Arc<Buchi>>,
    sessions: HashMap<String, SessionMirror>,
    fleets: Vec<(Arc<Buchi>, MonitorFleet)>,
    persist: Option<Persist>,
    tally: Tally,
}

/// The traced replay's output.
pub struct Traced {
    pub replay: Replay,
    pub spans: Vec<Span>,
    pub summary: SpanSummary,
    pub tally: Tally,
    /// Answers (other than `stats`) that differ from `sld`'s.
    pub mismatched: usize,
    /// Client round trip minus in-process `handle_line`, µs.
    pub transport_us: Vec<f64>,
}

/// The traced single-threaded replay of `total` requests.
pub fn replay_traced<'a>(
    sent: impl Iterator<Item = Sent<'a>>,
    total: usize,
    persist_dirs: Option<(&Path, &Path)>,
) -> Result<Traced, String> {
    let svc = service(persist_dirs.map(|d| d.0))?;
    let persist = match persist_dirs {
        Some((_, mirror)) => {
            let _ = fs::remove_dir_all(mirror);
            let (p, _) = Persist::open(&PersistConfig {
                dir: mirror.to_path_buf(),
                snapshot_every: SNAPSHOT_EVERY,
            })
            .map_err(|e| format!("tracer journal: {e}"))?;
            Some(p)
        }
        None => None,
    };
    let mut tracer = Tracer {
        log: SpanLog {
            epoch: Instant::now(),
            next_id: 0,
            current: Vec::new(),
            kept: Vec::new(),
            keep_every: total.div_ceil(WRITTEN_REQUESTS).max(1) as u32,
            summary: SpanSummary::default(),
        },
        quotients: QuotientCache::new(),
        queries: QueryCache::new(CACHE_CAP),
        checks: HashSet::new(),
        registry: HashMap::new(),
        sessions: HashMap::new(),
        fleets: Vec::new(),
        persist,
        tally: Tally::default(),
    };
    let before = read_counters(&svc)?;
    let mut busy = Duration::ZERO;
    let mut mismatched = 0;
    let mut transport_us = Vec::with_capacity(total);
    for (i, s) in sent.enumerate() {
        let start = Instant::now();
        let req = i as u32 + 1;
        let line = tracer.request(&svc, &s.req.line, req);
        tracer.log.finish(req);
        busy += start.elapsed();
        let handle_ns = *tracer.log.summary.handle_ns.last().expect("just pushed");
        transport_us.push((s.record.rtt_ns() as f64 - handle_ns) / 1e3);
        if !matches!(s.req.expect, Expect::Stats) && Resp::new(&line) != s.record.resp {
            mismatched += 1;
        }
    }
    let counts = deltas(&before, &read_counters(&svc)?);
    Ok(Traced {
        replay: Replay {
            busy_s: busy.as_secs_f64(),
            counts,
        },
        spans: tracer.log.kept,
        summary: tracer.log.summary,
        tally: tracer.tally,
        mismatched,
        transport_us,
    })
}

fn operand(body: &Json, key: &str) -> Option<String> {
    body.get(key).and_then(Json::as_str).map(str::to_string)
}

impl Tracer {
    fn request(&mut self, svc: &Service, line: &str, req: u32) -> String {
        let start = self.log.now();
        let reply = svc.handle_line(line);
        let end = self.log.now();
        let parent = self.log.push(req, 0, "engine.handle_line", start, end);
        self.tally.request_bytes.push(line.len() as f64);
        self.tally.response_bytes.push(reply.line.len() as f64);
        let ok = reply.line.contains("\"ok\":true");
        if let Ok(doc) = self
            .log
            .timed(req, parent, "json.parse", || json::parse(line))
        {
            let request = self
                .log
                .timed(req, parent, "proto.request", || request_from_value(doc));
            if let (Ok(request), true) = (request, ok) {
                self.layers(req, parent, line, &request);
            }
        }
        if let Ok(response) = json::parse(&reply.line) {
            self.log
                .timed(req, parent, "json.render", || response.render());
        }
        reply.line
    }

    fn layers(&mut self, req: u32, parent: u32, line: &str, request: &Request) {
        let body = &request.body;
        match request.verb {
            Verb::Define => self.define(req, parent, body),
            Verb::Decompose => {
                if let Some(target) =
                    operand(body, "target").and_then(|n| self.registry.get(&n).cloned())
                {
                    self.log.timed(req, parent, "decompose", || {
                        decompose(&target).check_sampled(&target, 2, 2)
                    });
                }
            }
            Verb::Include | Verb::Equivalent | Verb::Universal | Verb::Classify => {
                if let Some(job) = self.job(request) {
                    if self.probe(&job) {
                        self.compute(req, parent, job);
                    }
                }
            }
            Verb::Batch => {
                // The daemon probes every item in order, then computes
                // and stores the misses in order.
                let items = body.get("requests").and_then(Json::as_arr).unwrap_or(&[]);
                let jobs: Vec<Job> = items
                    .iter()
                    .filter_map(|item| request_from_value(item.clone()).ok())
                    .filter_map(|item| self.job(&item))
                    .collect();
                let misses: Vec<Job> = jobs.into_iter().filter(|j| self.probe(j)).collect();
                for job in misses {
                    self.compute(req, parent, job);
                }
            }
            Verb::MonitorStep => self.step(req, parent, body),
            Verb::Check => self.check(req, parent, body),
            Verb::Stats | Verb::Shutdown | Verb::Quit => {}
        }
        if matches!(
            request.verb,
            Verb::Define | Verb::Decompose | Verb::MonitorStep
        ) {
            self.journal(req, parent, line);
        }
    }

    fn define(&mut self, req: u32, parent: u32, body: &Json) {
        let Some(name) = operand(body, "name") else {
            return;
        };
        let automaton = if let Some(formula) = body.get("ltl").and_then(Json::as_str) {
            let letters: Vec<&str> = body
                .get("alphabet")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
                .collect();
            let sigma = Alphabet::new(&letters);
            let Ok(parsed) = self
                .log
                .timed(req, parent, "ltl.parse", || sl_ltl::parse(&sigma, formula))
            else {
                return;
            };
            let b = self.log.timed(req, parent, "ltl.translate", || {
                sl_ltl::translate(&sigma, &parsed)
            });
            self.tally.ltl_states_out += b.num_states() as u64;
            b
        } else if let Some(text) = body.get("hoa").and_then(Json::as_str) {
            self.tally.hoa_bytes_in += text.len() as u64;
            match self
                .log
                .timed(req, parent, "hoa.from_hoa", || hoa::from_hoa(text))
            {
                Ok(b) => b,
                Err(_) => return,
            }
        } else {
            return;
        };
        self.tally.interned_states_in += automaton.num_states() as u64;
        let quotients = &self.quotients;
        match self.registry.get(&name) {
            Some(old) => {
                self.log.timed(req, parent, "interned.advance", || {
                    quotients.advance(old, &automaton)
                });
            }
            None => {
                self.log.timed(req, parent, "interned.quotient", || {
                    quotients.quotient(&automaton)
                });
            }
        }
        self.tally.interned_states_out += quotients.quotient(&automaton).num_states() as u64;
        self.registry.insert(name, Arc::new(automaton));
    }

    fn job(&self, request: &Request) -> Option<Job> {
        let body = &request.body;
        let (kind, left_key, right_key) = match request.verb {
            Verb::Classify => (QueryKind::Classify, "target", None),
            Verb::Universal => (QueryKind::Universal, "target", None),
            Verb::Include => (QueryKind::Include, "left", Some("right")),
            Verb::Equivalent => (QueryKind::Equivalent, "left", Some("right")),
            _ => return None,
        };
        let left = self.registry.get(&operand(body, left_key)?)?.clone();
        let right = match right_key {
            Some(key) => Some(self.registry.get(&operand(body, key)?)?.clone()),
            None => None,
        };
        Some(Job { kind, left, right })
    }

    /// Mirrors the daemon's query-cache probe; true on a miss.
    fn probe(&self, job: &Job) -> bool {
        self.queries
            .probe(job.kind, &job.left, job.right.as_ref())
            .is_none()
    }

    fn compute(&mut self, req: u32, parent: u32, job: Job) {
        match job.kind {
            QueryKind::Include => {
                let right = job.right.as_deref().expect("binary");
                self.search(req, parent, &job.left, right);
            }
            QueryKind::Equivalent => {
                let right = job.right.as_deref().expect("binary");
                if self.search(req, parent, &job.left, right) {
                    self.search(req, parent, right, &job.left);
                }
            }
            QueryKind::Universal => {
                let all = Buchi::universal(job.left.alphabet().clone());
                self.search(req, parent, &all, &job.left);
            }
            QueryKind::Classify => {
                let b = &job.left;
                let _ = self.log.timed(req, parent, "classify", || classify(b));
            }
        }
        self.queries
            .store(job.kind, job.left, job.right, Json::Null);
    }

    /// One on-the-fly antichain search; true when inclusion holds.
    fn search(&mut self, req: u32, parent: u32, a: &Buchi, b: &Buchi) -> bool {
        let before = antichain_stats();
        let quotients = &self.quotients;
        let outcome = self.log.timed(req, parent, "antichain.search", || {
            included_onthefly_with_cache(quotients, a, b)
        });
        let delta = antichain_stats().delta_since(&before);
        self.tally.antichain_final += delta.final_antichain;
        self.tally.antichain_attempts += delta.insert_attempts;
        matches!(outcome, Ok(Inclusion::Holds))
    }

    fn step(&mut self, req: u32, parent: u32, body: &Json) {
        let Some(name) = operand(body, "monitor") else {
            return;
        };
        if !self.sessions.contains_key(&name) {
            let Some(target_name) = operand(body, "target") else {
                return;
            };
            let Some(target) = self.registry.get(&target_name).cloned() else {
                return;
            };
            let backend = self.backend(&target);
            self.sessions.insert(
                name.clone(),
                SessionMirror {
                    target: target_name,
                    alphabet: target.alphabet().clone(),
                    source: target,
                    backend,
                },
            );
        }
        let session = self.sessions.get_mut(&name).expect("inserted above");
        let symbols: Vec<Symbol> = body
            .get("symbols")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .map(|s| session.alphabet.symbol(s).unwrap_or(Symbol(u16::MAX)))
            .collect();
        let reset = body.get("reset").and_then(Json::as_bool) == Some(true);
        match &mut session.backend {
            Backend::Compiled { fleet, slot } => {
                let fleet = &mut self.fleets[*fleet].1;
                if reset {
                    fleet.reset(*slot);
                }
                let slot = *slot;
                self.log.timed(req, parent, "compiled.step", || {
                    symbols
                        .iter()
                        .map(|&s| fleet.step(slot, s) as u32)
                        .sum::<u32>()
                });
                self.tally.compiled_steps += symbols.len() as u64;
            }
            Backend::Nfa(monitor) => {
                if reset {
                    monitor.reset();
                }
                self.log.timed(req, parent, "monitor.step", || {
                    symbols.iter().map(|&s| monitor.step(s) as u32).sum::<u32>()
                });
            }
        }
    }

    /// The daemon's backend choice: safety targets share a compiled
    /// fleet per automaton, everything else gets an NFA-set monitor.
    fn backend(&mut self, target: &Arc<Buchi>) -> Backend {
        if matches!(is_safety(target), Ok(true)) {
            if let Some(i) = self.fleets.iter().position(|(s, _)| Arc::ptr_eq(s, target)) {
                let slot = self.fleets[i].1.spawn();
                return Backend::Compiled { fleet: i, slot };
            }
            if let Ok(compiled) = CompiledMonitor::new(target) {
                let mut fleet = MonitorFleet::new(&compiled);
                let slot = fleet.spawn();
                self.fleets.push((Arc::clone(target), fleet));
                return Backend::Compiled {
                    fleet: self.fleets.len() - 1,
                    slot,
                };
            }
        }
        Backend::Nfa(Monitor::new(target))
    }

    fn check(&mut self, req: u32, parent: u32, body: &Json) {
        let (Some(mode), Some(model)) = (operand(body, "mode"), body.get("model")) else {
            return;
        };
        let bad_json = body.get("bad").cloned().unwrap_or(Json::Arr(Vec::new()));
        let key = format!("{mode}|{}|{}", model.render(), bad_json.render());
        if self.checks.contains(&key) {
            return;
        }
        let index = |v: &Json| v.as_u64().map(|i| i as usize);
        let succ: Vec<Vec<usize>> = model
            .get("succ")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|row| {
                row.as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(index)
                    .collect()
            })
            .collect();
        let bad: Vec<usize> = bad_json
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(index)
            .collect();
        let initial = model.get("initial").and_then(index).unwrap_or(0);
        let sigma = Alphabet::ab();
        let (a, b) = (
            sigma.symbol("a").expect("ab"),
            sigma.symbol("b").expect("ab"),
        );
        let labels = (0..succ.len())
            .map(|s| if bad.contains(&s) { b } else { a })
            .collect();
        let kripke = Kripke::new(sigma, labels, succ, initial);
        let budget = sl_support::Budget::unlimited();
        if mode == "liveness" {
            let _ = self.log.timed(req, parent, "pdr.liveness", || {
                sl_pdr::check_liveness(&kripke, &bad, &budget).is_ok()
            });
        } else {
            let _ = self.log.timed(req, parent, "pdr.safety", || {
                sl_pdr::check_safety(&kripke, &bad, &budget).is_ok()
            });
        }
        if self.checks.len() >= CACHE_CAP {
            self.checks.clear();
        }
        self.checks.insert(key);
    }

    /// Mirrors the write-ahead append (and the snapshot it triggers
    /// every `SNAPSHOT_EVERY` records) on the tracer's own journal.
    fn journal(&mut self, req: u32, parent: u32, line: &str) {
        let Some(persist) = self.persist.as_mut() else {
            return;
        };
        let before = persist.stats().journal_bytes;
        let _ = self
            .log
            .timed(req, parent, "persist.append", || persist.append(line));
        self.tally.journal_bytes += persist.stats().journal_bytes.saturating_sub(before);
        if persist.should_snapshot() {
            let (registry, sessions) = (&self.registry, &self.sessions);
            let _ = self.log.timed(req, parent, "persist.snapshot", || {
                let mut reg: Vec<(String, String)> = registry
                    .iter()
                    .map(|(name, b)| (name.clone(), hoa::to_hoa(b, name)))
                    .collect();
                reg.sort_unstable();
                let mut snaps: Vec<SessionSnap> = sessions
                    .iter()
                    .map(|(name, s)| SessionSnap {
                        name: name.clone(),
                        target: s.target.clone(),
                        hoa: hoa::to_hoa(&s.source, &s.target),
                        state: 0,
                    })
                    .collect();
                snaps.sort_unstable_by(|a, b| a.name.cmp(&b.name));
                persist.write_snapshot(reg, snaps)
            });
        }
    }
}

struct Job {
    kind: QueryKind,
    left: Arc<Buchi>,
    right: Option<Arc<Buchi>>,
}

/// `define-under-load` lock wait, per reader request in milliseconds:
/// the time from the request's due time until its `handle_line`
/// returned while the writer's stream ran beside it on a second thread
/// (both paced by their recorded send times, so a read waits on the
/// mutation lock directly or in line behind one that does, as in the
/// end-to-end run), minus the same request's `handle_line` on a daemon
/// with no writer.
pub fn lock_wait_ms(
    workload: Workload,
    seed: u64,
    setup: &[drive::Record],
    window: &Window,
    dirs: (&Path, &Path),
) -> Result<Vec<f64>, String> {
    let setup_lines: Vec<String> = crate::gen::plan(workload, seed)
        .setup
        .into_iter()
        .take(setup.len())
        .map(|r| r.line)
        .collect();
    let beside_svc = service(Some(dirs.0))?;
    for line in &setup_lines {
        beside_svc.handle_line(line);
    }
    let epoch = Instant::now();
    let pace = |due: u64| {
        let now = epoch.elapsed().as_nanos() as u64;
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
    };
    let beside: Vec<u64> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            crate::affinity::pin_current(0);
            for (req, record) in drive::conn_requests(workload, seed, window, 0) {
                pace(record.sent);
                beside_svc.handle_line(&req.line);
            }
        });
        let times = drive::conn_requests(workload, seed, window, 1)
            .map(|(req, record)| {
                pace(record.scheduled);
                beside_svc.handle_line(&req.line);
                (epoch.elapsed().as_nanos() as u64).saturating_sub(record.scheduled)
            })
            .collect();
        let _ = writer.join();
        times
    });
    let solo_svc = service(Some(dirs.1))?;
    for line in &setup_lines {
        solo_svc.handle_line(line);
    }
    let solo: Vec<u64> = drive::conn_requests(workload, seed, window, 1)
        .map(|(req, _)| {
            let t = Instant::now();
            solo_svc.handle_line(&req.line);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    drop((beside_svc, solo_svc));
    for dir in [dirs.0, dirs.1] {
        let _ = fs::remove_dir_all(dir);
    }
    Ok(beside
        .iter()
        .zip(&solo)
        .map(|(&b, &s)| b.saturating_sub(s) as f64 / 1e6)
        .collect())
}

/// Writes the kept spans (one JSON object a line) and the per-layer
/// time table over every request next to them. Returns the two paths.
pub fn write_spans(
    out_dir: &Path,
    stem: &str,
    spans: &[Span],
    summary: &SpanSummary,
) -> Result<(PathBuf, PathBuf), String> {
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    fs::create_dir_all(out_dir).map_err(|e| io(out_dir, e))?;
    let spans_path = out_dir.join(format!("spans-{stem}.jsonl"));
    let file = fs::File::create(&spans_path).map_err(|e| io(&spans_path, e))?;
    let mut w = BufWriter::new(file);
    for s in spans {
        writeln!(
            w,
            "{{\"req\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.id, s.parent, s.name, s.start, s.end
        )
        .map_err(|e| io(&spans_path, e))?;
    }
    w.flush().map_err(|e| io(&spans_path, e))?;
    let layers_path = out_dir.join(format!("layers-{stem}.json"));
    let mut names: Vec<&&str> = summary.by_name.keys().collect();
    names.sort();
    let mut rows = vec![format!(
        "  \"engine.handle_line\": {{\"spans\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
        summary.handle_ns.len(),
        summary.handle_ns.iter().sum::<f64>() / 1e6,
        summary.self_ns.iter().sum::<f64>() / 1e6
    )];
    for name in names {
        let v = &summary.by_name[*name];
        // Child spans are leaves: their self time is their duration.
        rows.push(format!(
            "  \"{name}\": {{\"spans\": {}, \"total_ms\": {}, \"self_ms\": {}, \"mean_us\": {}}}",
            v.len(),
            v.iter().sum::<f64>() / 1e6,
            v.iter().sum::<f64>() / 1e6,
            mean(v) / 1e3
        ));
    }
    fs::write(&layers_path, format!("{{\n{}\n}}\n", rows.join(",\n")))
        .map_err(|e| io(&layers_path, e))?;
    Ok((spans_path, layers_path))
}
