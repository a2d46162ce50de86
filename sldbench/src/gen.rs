//! Seeded workload generation: the set-up script, the request stream
//! each connection sends, and what the correctness gate needs to check
//! every answer. The daemon only ever sees the generated lines.

use sl_buchi::{hoa, random_buchi, Buchi, BuchiBuilder, RandomConfig};
use sl_omega::Alphabet;
use sl_support::SplitMix;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryMix,
    MonitorFleet,
    DefineUnderLoad,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "query-mix" => Some(Workload::QueryMix),
            "monitor-fleet" => Some(Workload::MonitorFleet),
            "define-under-load" => Some(Workload::DefineUnderLoad),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryMix => "query-mix",
            Workload::MonitorFleet => "monitor-fleet",
            Workload::DefineUnderLoad => "define-under-load",
        }
    }
}

/// The reader connection's send rate on `define-under-load`.
pub const READER_RPS: f64 = 200.0;

/// The writer's think time on `define-under-load`: it sends its next
/// request this long after the previous answer, so the mutation lock
/// is held for about a quarter of the run rather than all of it.
pub const WRITER_THINK: std::time::Duration = std::time::Duration::from_millis(20);

/// An inline Kripke structure carried by a `check` request.
#[derive(Debug)]
pub struct Model {
    pub succ: Vec<Vec<usize>>,
    pub initial: usize,
    pub bad: Vec<usize>,
    pub liveness: bool,
}

/// The four cacheable query verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryVerb {
    Include,
    Equivalent,
    Universal,
    Classify,
}

impl QueryVerb {
    fn wire(self) -> &'static str {
        match self {
            QueryVerb::Include => "include",
            QueryVerb::Equivalent => "equivalent",
            QueryVerb::Universal => "universal",
            QueryVerb::Classify => "classify",
        }
    }
}

/// What the correctness gate checks one response against.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `define`; the state count when the generator knows it (HOA).
    Define {
        states: Option<usize>,
    },
    /// `decompose`; its sampled self-check must read `ok`.
    Decompose,
    /// A query over names whose automata the plan records.
    Query {
        verb: QueryVerb,
        left: Arc<str>,
        right: Option<Arc<str>>,
    },
    Check(Arc<Model>),
    Step {
        session: Arc<str>,
        /// Symbol `i` of the target's alphabet as `i`; an
        /// out-of-alphabet symbol as [`FOREIGN_INDEX`].
        symbols: Box<[u8]>,
        reset: bool,
    },
    Stats,
    Batch(Vec<Expect>),
}

/// One request line and its expectation.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub expect: Expect,
}

/// Produces a connection's requests on demand (streams are unbounded;
/// a run sends as many as its window allows).
pub trait Source: Send {
    fn next_req(&mut self) -> Req;
}

/// Everything a run needs: the set-up script (sent on one connection
/// before the timed window), the two connections' streams, and the
/// automata behind every name the gate checks answers about.
pub struct Plan {
    pub workload: Workload,
    pub setup: Vec<Req>,
    pub sources: Vec<Box<dyn Source>>,
    /// Automata the daemon holds under stable names.
    pub names: HashMap<Arc<str>, Arc<Buchi>>,
    /// The target automaton of every monitor session.
    pub sessions: HashMap<Arc<str>, Arc<Buchi>>,
    /// Whether `sld` runs with `--persist`.
    pub persist: bool,
}

/// Mixes the run seed with a stream label, so every stream gets its own
/// well-separated generator.
fn sub_seed(seed: u64, label: u64) -> u64 {
    SplitMix::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn with_id(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}")
}

/// The id of a generated request line.
pub fn id_of(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn hoa_define(id: u64, name: &str, b: &Buchi) -> Req {
    let body = format!(
        "\"verb\":\"define\",\"name\":{},\"hoa\":{}",
        quote(name),
        quote(&hoa::to_hoa(b, name))
    );
    Req {
        line: with_id(id, &body),
        expect: Expect::Define {
            states: Some(b.num_states()),
        },
    }
}

fn ltl_define(id: u64, name: &str, formula: &str, alphabet: &[&str]) -> Req {
    let letters: Vec<String> = alphabet.iter().map(|s| quote(s)).collect();
    let body = format!(
        "\"verb\":\"define\",\"name\":{},\"ltl\":{},\"alphabet\":[{}]",
        quote(name),
        quote(formula),
        letters.join(",")
    );
    Req {
        line: with_id(id, &body),
        expect: Expect::Define { states: None },
    }
}

fn translate(formula: &str, alphabet: &[&str]) -> Buchi {
    let sigma = Alphabet::new(alphabet);
    let parsed = sl_ltl::parse(&sigma, formula).expect("benchmark formulas parse");
    sl_ltl::translate(&sigma, &parsed)
}

fn query_body(verb: QueryVerb, left: &str, right: Option<&str>) -> String {
    match (verb, right) {
        (QueryVerb::Include | QueryVerb::Equivalent, Some(r)) => format!(
            "\"verb\":\"{}\",\"left\":{},\"right\":{}",
            verb.wire(),
            quote(left),
            quote(r)
        ),
        _ => format!("\"verb\":\"{}\",\"target\":{}", verb.wire(), quote(left)),
    }
}

fn query_expect(verb: QueryVerb, left: &str, right: Option<&str>) -> Expect {
    Expect::Query {
        verb,
        left: left.into(),
        right: right.map(Into::into),
    }
}

fn step_body(session: &str, target: Option<&str>, symbols: &[&str], reset: bool) -> String {
    let mut body = format!("\"verb\":\"monitor-step\",\"monitor\":{}", quote(session));
    if let Some(t) = target {
        body.push_str(&format!(",\"target\":{}", quote(t)));
    }
    if reset {
        body.push_str(",\"reset\":true");
    }
    let syms: Vec<String> = symbols.iter().map(|s| quote(s)).collect();
    body.push_str(&format!(",\"symbols\":[{}]", syms.join(",")));
    body
}

fn session_open(id: u64, session: &str, target: &str) -> Req {
    Req {
        line: with_id(id, &step_body(session, Some(target), &[], false)),
        expect: Expect::Step {
            session: session.into(),
            symbols: Box::new([]),
            reset: false,
        },
    }
}

/// Request ids are unique per run: set-up lines count from 0, each
/// connection from its own billion.
fn first_id(conn: usize) -> u64 {
    (conn as u64 + 1) * 1_000_000_000
}

pub fn plan(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::QueryMix => query_mix(seed),
        Workload::MonitorFleet => monitor_fleet(seed),
        Workload::DefineUnderLoad => define_under_load(seed),
    }
}

// ---- query-mix --------------------------------------------------------

/// Small candidates (prefixes `c`, `rc`) or larger specifications
/// (any other prefix) — E12's shapes over `{a, b}`.
fn corpus(seed: u64, prefix: &str, count: usize) -> Vec<(String, Buchi)> {
    let sigma = Alphabet::ab();
    let mut rng = SplitMix::new(sub_seed(seed, 11));
    let mut out = Vec::new();
    for i in 0..count {
        let cfg = match prefix {
            "c" | "rc" => RandomConfig {
                states: 4 + i % 5,
                density_percent: 55,
                accepting_percent: 40,
            },
            _ => RandomConfig {
                states: 8 + i % 9,
                density_percent: 55,
                accepting_percent: 10,
            },
        };
        let salt = rng.next_u64();
        out.push((format!("{prefix}{i}"), random_buchi(&sigma, salt, cfg)));
    }
    out
}

/// The seed of `query-mix`'s candidates and specifications, the same
/// for every run (the run seed draws the query streams and the `check`
/// models). Drawn from the run seed, the corpus decided how hard a run
/// was: whether one of its 26-state automata happened to be slow to
/// classify moved the peak RSS between about 7 and 12.5 MB and the
/// throughput by a quarter from seed to seed.
const QUERY_CORPUS_SEED: u64 = 2003;

/// `random_buchi` salts of the eight 26-state classify-heavy automata
/// (55% density, 20% accepting): a stratified sample of 64 such
/// automata drawn from `SplitMix::new(2003)`, ranked by the antichain
/// insert attempts `sl_buchi::classify` made on them when the
/// benchmark was written, taking the middle one of each eighth (ranks
/// 4, 12, …, 60 from the lightest; 1, 1, 1, 10, 22, 58, 120 and 714
/// attempts). Listed rather than recomputed, so that a change to the
/// engine cannot change the workload it is measured on.
const HEAVY_SALTS: [u64; 8] = [
    0x25B8_8979_9130_DB37,
    0x72FF_2D60_03A2_17F8,
    0xE80F_C1D2_CC96_15F0,
    0x649E_2E59_EDC3_9E8B,
    0xFB5D_D53D_9692_E0C4,
    0x04A0_6A28_1F62_5215,
    0xF87B_AAE4_EF94_5785,
    0xDC6F_E75E_E6AE_5ADB,
];

fn heavy_corpus() -> Vec<(String, Buchi)> {
    let cfg = RandomConfig {
        states: 26,
        density_percent: 55,
        accepting_percent: 20,
    };
    HEAVY_SALTS
        .iter()
        .enumerate()
        .map(|(i, &salt)| (format!("h{i}"), random_buchi(&Alphabet::ab(), salt, cfg)))
        .collect()
}

fn query_mix(seed: u64) -> Plan {
    let mut setup = Vec::new();
    let mut names: HashMap<Arc<str>, Arc<Buchi>> = HashMap::new();
    let mut groups: Vec<Vec<Arc<str>>> = Vec::new();
    let drawn = |prefix: &str, count: usize| {
        let label = prefix.len() as u64 * 7 + count as u64;
        corpus(sub_seed(QUERY_CORPUS_SEED, label), prefix, count)
    };
    for automata in [drawn("c", 24), drawn("s", 16), heavy_corpus()] {
        let mut group = Vec::new();
        for (name, b) in automata {
            setup.push(hoa_define(setup.len() as u64, &name, &b));
            let name: Arc<str> = name.into();
            names.insert(Arc::clone(&name), Arc::new(b));
            group.push(name);
        }
        groups.push(group);
    }
    let corpus = Arc::new(QueryCorpus {
        cands: groups[0].clone(),
        specs: groups[1].clone(),
        heavy: groups[2].clone(),
    });
    let sources: Vec<Box<dyn Source>> = (0..2)
        .map(|conn| {
            Box::new(QueryStream {
                rng: SplitMix::new(sub_seed(seed, 100 + conn as u64)),
                next_id: first_id(conn),
                corpus: Arc::clone(&corpus),
                recent: VecDeque::new(),
            }) as Box<dyn Source>
        })
        .collect();
    Plan {
        workload: Workload::QueryMix,
        setup,
        sources,
        names,
        sessions: HashMap::new(),
        persist: false,
    }
}

struct QueryCorpus {
    cands: Vec<Arc<str>>,
    specs: Vec<Arc<str>>,
    heavy: Vec<Arc<str>>,
}

/// A closed-loop query connection: about half its requests repeat one
/// of its last 64 (cache hits), the rest are fresh draws.
struct QueryStream {
    rng: SplitMix,
    next_id: u64,
    corpus: Arc<QueryCorpus>,
    recent: VecDeque<(String, Expect)>,
}

const RECENT: usize = 64;

impl QueryStream {
    fn pick<'a>(&mut self, from: &'a [Arc<str>]) -> &'a str {
        &from[self.rng.below(from.len())]
    }

    /// One fresh include/equivalent/universal/classify draw.
    fn fresh_query(&mut self) -> (String, Expect) {
        let corpus = Arc::clone(&self.corpus);
        let r = self.rng.below(57);
        let (verb, left, right) = if r < 30 {
            let l = self.pick(&corpus.cands);
            (QueryVerb::Include, l, Some(self.pick(&corpus.specs)))
        } else if r < 40 {
            let pool = if self.rng.flip() {
                &corpus.specs
            } else {
                &corpus.cands
            };
            let l = self.pick(pool);
            (QueryVerb::Equivalent, l, Some(self.pick(pool)))
        } else if r < 47 {
            let pool = if self.rng.chance(70) {
                &corpus.specs
            } else {
                &corpus.heavy
            };
            (QueryVerb::Universal, self.pick(pool), None)
        } else {
            let pool = match self.rng.below(3) {
                0 => &corpus.cands,
                1 => &corpus.specs,
                _ => &corpus.heavy,
            };
            (QueryVerb::Classify, self.pick(pool), None)
        };
        (
            query_body(verb, left, right),
            query_expect(verb, left, right),
        )
    }

    fn fresh(&mut self) -> (String, Expect) {
        let r = self.rng.percent();
        if r < 77 {
            self.fresh_query()
        } else if r < 85 {
            let n = 4 + self.rng.below(5);
            let mut bodies: Vec<String> = Vec::new();
            let mut expects = Vec::new();
            while bodies.len() < n {
                let (body, expect) = self.fresh_query();
                if !bodies.contains(&body) {
                    bodies.push(body);
                    expects.push(expect);
                }
            }
            let items: Vec<String> = bodies
                .iter()
                .enumerate()
                .map(|(i, b)| format!("{{\"id\":{i},{b}}}"))
                .collect();
            (
                format!("\"verb\":\"batch\",\"requests\":[{}]", items.join(",")),
                Expect::Batch(expects),
            )
        } else {
            let model = random_model(&mut self.rng);
            (check_body(&model), Expect::Check(Arc::new(model)))
        }
    }
}

impl Source for QueryStream {
    fn next_req(&mut self) -> Req {
        let (body, expect) = if !self.recent.is_empty() && self.rng.flip() {
            self.recent[self.rng.below(self.recent.len())].clone()
        } else {
            let drawn = self.fresh();
            if self.recent.len() == RECENT {
                self.recent.pop_front();
            }
            self.recent.push_back(drawn.clone());
            drawn
        };
        let id = self.next_id;
        self.next_id += 1;
        Req {
            line: with_id(id, &body),
            expect,
        }
    }
}

/// A random total Kripke structure: a transient prefix path from the
/// initial state into a reachable, densely cross-linked core cycle,
/// plus an unreachable island. Bad states land in any of the three, so
/// verdicts mix unsafe/safe and lasso/live. Safety models have 64–512
/// states and 1–3 bad states; liveness models, whose k-liveness sweep
/// grows with both, 64–256 states and 1–2 bad states.
fn random_model(rng: &mut SplitMix) -> Model {
    let liveness = rng.flip();
    let (max_states, max_bad) = if liveness { (256, 2) } else { (512, 3) };
    let n = 64 + rng.below(max_states - 63);
    let prefix = n / 8;
    let core = n / 2;
    let island = n - prefix - core;
    let mut succ = vec![Vec::new(); n];
    for (i, row) in succ.iter_mut().enumerate().take(prefix) {
        row.push(i + 1);
        if rng.chance(30) {
            row.push(i + 1 + rng.below(prefix - i));
        }
    }
    for i in 0..core {
        let s = prefix + i;
        succ[s].push(prefix + (i + 1) % core);
        for _ in 0..2 + rng.below(3) {
            succ[s].push(prefix + rng.below(core));
        }
    }
    for i in 0..island {
        let s = prefix + core + i;
        succ[s].push(prefix + core + (i + 1) % island);
        if rng.chance(50) {
            succ[s].push(rng.below(n));
        }
    }
    for row in &mut succ {
        row.sort_unstable();
        row.dedup();
    }
    let mut bad: Vec<usize> = (0..1 + rng.below(max_bad))
        .map(|_| match rng.below(3) {
            0 => 1 + rng.below(prefix - 1),
            1 => prefix + rng.below(core),
            _ => prefix + core + rng.below(island),
        })
        .collect();
    bad.sort_unstable();
    bad.dedup();
    Model {
        succ,
        initial: 0,
        bad,
        liveness,
    }
}

fn check_body(model: &Model) -> String {
    let rows: Vec<String> = model
        .succ
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(usize::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let bad: Vec<String> = model.bad.iter().map(usize::to_string).collect();
    format!(
        "\"verb\":\"check\",\"mode\":\"{}\",\"model\":{{\"succ\":[{}],\"initial\":{}}},\"bad\":[{}]",
        if model.liveness { "liveness" } else { "safety" },
        rows.join(","),
        model.initial,
        bad.join(",")
    )
}

// ---- monitor-fleet ----------------------------------------------------

const FLEET_ALPHABET: [&str; 3] = ["a", "b", "c"];

/// Eight safety targets (compiled into dense-table fleets) and one
/// liveness target (served by the NFA-set monitor).
const FLEET_TARGETS: [&str; 9] = [
    "G !c",
    "G (a -> X b)",
    "G (a -> X X b)",
    "G (b -> X (a | c))",
    "G (c -> X !c)",
    "G (a -> X (b | c))",
    "G ((a | b) -> X !a)",
    "G (c -> X X !c)",
    "G F a",
];

const FLEET_SESSIONS: usize = 1000;

/// Out-of-alphabet symbol: the session turns sticky `unknown`.
const FOREIGN: &str = "zz";

/// [`FOREIGN`] in an [`Expect::Step`].
pub const FOREIGN_INDEX: u8 = u8::MAX;

fn monitor_fleet(seed: u64) -> Plan {
    let mut setup = Vec::new();
    let mut names = HashMap::new();
    for (i, formula) in FLEET_TARGETS.iter().enumerate() {
        let name = format!("t{i}");
        setup.push(ltl_define(
            setup.len() as u64,
            &name,
            formula,
            &FLEET_ALPHABET,
        ));
        names.insert(name.into(), Arc::new(translate(formula, &FLEET_ALPHABET)));
    }
    let mut sessions = HashMap::new();
    let mut owned: Vec<Vec<Arc<str>>> = vec![Vec::new(), Vec::new()];
    for k in 0..FLEET_SESSIONS {
        let target = format!("t{}", k % FLEET_TARGETS.len());
        let session: Arc<str> = format!("m{k}").into();
        setup.push(session_open(setup.len() as u64, &session, &target));
        sessions.insert(Arc::clone(&session), Arc::clone(&names[target.as_str()]));
        owned[k % 2].push(session);
    }
    let sources: Vec<Box<dyn Source>> = owned
        .into_iter()
        .enumerate()
        .map(|(conn, sessions)| {
            Box::new(FleetStream {
                rng: SplitMix::new(sub_seed(seed, 200 + conn as u64)),
                next_id: first_id(conn),
                sessions,
                max_symbols: 64,
                alphabet: &FLEET_ALPHABET,
                foreign_percent: 1,
            }) as Box<dyn Source>
        })
        .collect();
    Plan {
        workload: Workload::MonitorFleet,
        setup,
        sources,
        names,
        sessions,
        persist: false,
    }
}

/// Steps one seeded session per request by 1..=`max_symbols` symbols;
/// 2% of requests reset first, `foreign_percent`% carry one
/// out-of-alphabet symbol.
struct FleetStream {
    rng: SplitMix,
    next_id: u64,
    sessions: Vec<Arc<str>>,
    max_symbols: usize,
    alphabet: &'static [&'static str],
    foreign_percent: u32,
}

impl FleetStream {
    fn step(&mut self) -> (String, Expect) {
        let session = Arc::clone(&self.sessions[self.rng.below(self.sessions.len())]);
        let n = 1 + self.rng.below(self.max_symbols);
        let mut symbols: Vec<u8> = (0..n)
            .map(|_| self.rng.below(self.alphabet.len()) as u8)
            .collect();
        if self.rng.chance(self.foreign_percent) {
            let at = self.rng.below(n);
            symbols[at] = FOREIGN_INDEX;
        }
        let names: Vec<&str> = symbols
            .iter()
            .map(|&i| {
                self.alphabet
                    .get(usize::from(i))
                    .copied()
                    .unwrap_or(FOREIGN)
            })
            .collect();
        let reset = self.rng.chance(2);
        (
            step_body(&session, None, &names, reset),
            Expect::Step {
                session,
                symbols: symbols.into(),
                reset,
            },
        )
    }
}

impl Source for FleetStream {
    fn next_req(&mut self) -> Req {
        let (body, expect) = self.step();
        let id = self.next_id;
        self.next_id += 1;
        Req {
            line: with_id(id, &body),
            expect,
        }
    }
}

// ---- define-under-load ------------------------------------------------

const AB: [&str; 2] = ["a", "b"];

const READER_TARGETS: [&str; 4] = [
    "G (a -> X b)",
    "G (b -> X a)",
    "G (a -> X X b)",
    "G !(a & X a)",
];

const READER_SESSIONS: usize = 64;

fn define_under_load(seed: u64) -> Plan {
    let mut setup = Vec::new();
    let mut names = HashMap::new();
    for (i, formula) in READER_TARGETS.iter().enumerate() {
        let name = format!("r{i}");
        setup.push(ltl_define(setup.len() as u64, &name, formula, &AB));
        names.insert(name.into(), Arc::new(translate(formula, &AB)));
    }
    let cands = corpus(sub_seed(seed, 31), "rc", 4);
    let specs = corpus(sub_seed(seed, 32), "rs", 4);
    for (name, b) in cands.iter().chain(specs.iter()) {
        setup.push(hoa_define(setup.len() as u64, name, b));
        names.insert(name.as_str().into(), Arc::new(b.clone()));
    }
    let mut pairs: Vec<String> = Vec::new();
    let mut pair_expects = Vec::new();
    for (c, _) in &cands {
        for (s, _) in &specs {
            let body = query_body(QueryVerb::Include, c, Some(s));
            // Warm the pair so the reader's includes are cache hits.
            setup.push(Req {
                line: with_id(setup.len() as u64, &body),
                expect: query_expect(QueryVerb::Include, c, Some(s)),
            });
            pairs.push(body);
            pair_expects.push(query_expect(QueryVerb::Include, c, Some(s)));
        }
    }
    let mut sessions = HashMap::new();
    let mut reader_sessions = Vec::new();
    for k in 0..READER_SESSIONS {
        let target = format!("r{}", k % READER_TARGETS.len());
        let session: Arc<str> = format!("rm{k}").into();
        setup.push(session_open(setup.len() as u64, &session, &target));
        sessions.insert(Arc::clone(&session), Arc::clone(&names[target.as_str()]));
        reader_sessions.push(session);
    }
    let writer = WriterStream {
        rng: SplitMix::new(sub_seed(seed, 300)),
        next_id: first_id(0),
        cursor: (seed % WRITER_CYCLE.len() as u64) as usize,
        hoa_names: Vec::new(),
        ltl_names: Vec::new(),
        defined: HashMap::new(),
        serial: 0,
    };
    let reader = ReaderStream {
        steps: FleetStream {
            rng: SplitMix::new(sub_seed(seed, 301)),
            next_id: 0,
            sessions: reader_sessions,
            max_symbols: 16,
            alphabet: &AB,
            foreign_percent: 0,
        },
        pairs,
        pair_expects,
        next_id: first_id(1),
        count: 0,
    };
    Plan {
        workload: Workload::DefineUnderLoad,
        setup,
        sources: vec![Box::new(writer), Box::new(reader)],
        names,
        sessions,
        persist: true,
    }
}

/// One writer operation; sizes are part of the cycle so every seed
/// gets the same mix of critical-section lengths.
#[derive(Debug, Clone, Copy)]
enum WriteOp {
    Chain(usize),
    Random(usize),
    /// One-edge edit of an automaton the writer defined before
    /// (the incremental `advance` path).
    Redefine,
    /// `X^n a`.
    Next(usize),
    /// A small formula for `decompose` to split.
    Formula,
    Decompose,
}

const WRITER_CYCLE: [WriteOp; 14] = [
    WriteOp::Chain(40),
    WriteOp::Next(30),
    WriteOp::Random(80),
    WriteOp::Redefine,
    WriteOp::Chain(160),
    WriteOp::Formula,
    WriteOp::Decompose,
    WriteOp::Random(240),
    WriteOp::Next(90),
    WriteOp::Redefine,
    WriteOp::Chain(320),
    WriteOp::Next(120),
    WriteOp::Random(320),
    WriteOp::Redefine,
];

const DECOMPOSABLE: [&str; 5] = [
    "G (a -> F b)",
    "F G b",
    "G F a & G (b -> X a)",
    "a U (G b)",
    "G (a -> X (b U a))",
];

/// The closed-loop writer of `define-under-load`: HOA chains and
/// random automata of 40–320 states, one-edge redefines, `X^n a`
/// (n ≤ 120) and small LTL defines, and `decompose`, in a fixed cycle.
struct WriterStream {
    rng: SplitMix,
    next_id: u64,
    cursor: usize,
    /// Names last defined from HOA (redefine candidates).
    hoa_names: Vec<String>,
    /// Names last defined from a decomposable formula.
    ltl_names: Vec<String>,
    defined: HashMap<String, Buchi>,
    serial: usize,
}

impl WriterStream {
    fn chain(&mut self, n: usize) -> Buchi {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").expect("ab");
        let b = sigma.symbol("b").expect("ab");
        let mut builder = BuchiBuilder::new(sigma);
        for i in 0..n {
            builder.add_state(i % 7 == 0);
        }
        for i in 0..n {
            builder.add_transition(i, a, (i + 1) % n);
            if self.rng.chance(30) {
                builder.add_transition(i, b, self.rng.below(n));
            }
        }
        builder.build(0)
    }

    /// `b` with one transition added (or, if the drawn edge exists,
    /// one state's acceptance flipped).
    fn edit(&mut self, b: &Buchi) -> Buchi {
        let sigma = b.alphabet().clone();
        let syms: Vec<_> = sigma.symbols().collect();
        let n = b.num_states();
        let (from, sym, to) = (
            self.rng.below(n),
            syms[self.rng.below(syms.len())],
            self.rng.below(n),
        );
        let exists = b.successors(from, sym).contains(&to);
        let mut builder = BuchiBuilder::new(sigma);
        for q in 0..n {
            builder.add_state(b.is_accepting(q) != (exists && q == from));
        }
        for q in 0..n {
            for &s in &syms {
                for &t in b.successors(q, s) {
                    builder.add_transition(q, s, t);
                }
            }
        }
        if !exists {
            builder.add_transition(from, sym, to);
        }
        builder.build(b.initial())
    }

    fn define_hoa(&mut self, id: u64, prefix: &str, b: Buchi) -> Req {
        let name = format!("{prefix}{}", self.serial % 6);
        self.serial += 1;
        let req = hoa_define(id, &name, &b);
        self.hoa_names.retain(|n| *n != name);
        self.hoa_names.push(name.clone());
        self.defined.insert(name, b);
        req
    }
}

impl Source for WriterStream {
    fn next_req(&mut self) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        let op = WRITER_CYCLE[self.cursor % WRITER_CYCLE.len()];
        self.cursor += 1;
        match op {
            WriteOp::Chain(n) => {
                let b = self.chain(n);
                self.define_hoa(id, "wc", b)
            }
            WriteOp::Random(n) => {
                let cfg = RandomConfig {
                    states: n,
                    density_percent: 55,
                    accepting_percent: 20,
                };
                let salt = self.rng.next_u64();
                let b = random_buchi(&Alphabet::ab(), salt, cfg);
                self.define_hoa(id, "wr", b)
            }
            WriteOp::Redefine => {
                let Some(name) = self.hoa_names.last().cloned() else {
                    let b = self.chain(40);
                    return self.define_hoa(id, "wc", b);
                };
                let edited = self.edit(&self.defined[&name].clone());
                let req = hoa_define(id, &name, &edited);
                self.defined.insert(name, edited);
                req
            }
            WriteOp::Next(n) => {
                let formula = format!("{}a", "X ".repeat(n));
                ltl_define(id, &format!("wx{n}"), &formula, &AB)
            }
            WriteOp::Formula => {
                let formula = DECOMPOSABLE[self.rng.below(DECOMPOSABLE.len())];
                let name = format!("wf{}", self.ltl_names.len() % 4);
                self.ltl_names.push(name.clone());
                ltl_define(id, &name, formula, &AB)
            }
            WriteOp::Decompose => match self.ltl_names.last() {
                Some(name) => Req {
                    line: with_id(
                        id,
                        &format!("\"verb\":\"decompose\",\"target\":{}", quote(name)),
                    ),
                    expect: Expect::Decompose,
                },
                None => {
                    let name = "wf0".to_string();
                    self.ltl_names.push(name.clone());
                    ltl_define(id, &name, DECOMPOSABLE[0], &AB)
                }
            },
        }
    }
}

/// The open-loop reader of `define-under-load`: `monitor-step` (1–16
/// symbols) on its own sessions, warm `include` over the pre-asked
/// pairs, and `stats` every 50th request.
struct ReaderStream {
    steps: FleetStream,
    pairs: Vec<String>,
    pair_expects: Vec<Expect>,
    next_id: u64,
    count: u64,
}

impl Source for ReaderStream {
    fn next_req(&mut self) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        self.count += 1;
        let (body, expect) = if self.count.is_multiple_of(50) {
            ("\"verb\":\"stats\"".to_string(), Expect::Stats)
        } else if self.steps.rng.chance(60) {
            self.steps.step()
        } else {
            let i = self.steps.rng.below(self.pairs.len());
            (self.pairs[i].clone(), self.pair_expects[i].clone())
        };
        Req {
            line: with_id(id, &body),
            expect,
        }
    }
}
