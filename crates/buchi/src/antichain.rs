//! The on-the-fly antichain engine: [`included`] (and through it
//! [`crate::incl::equivalent`] and [`crate::incl::universal`]) — the
//! complement-free inclusion search.
//!
//! The rank-based oracle in [`crate::incl`] decides `L(A) ⊆ L(B)` by
//! materializing the Kupferman–Vardi complement of `B` — exponential
//! even when the answer is an easy "no". This engine decides the same
//! question *without ever constructing `¬B`*, by searching directly for
//! a counterexample lasso `u·v^ω ∈ L(A) \ L(B)`:
//!
//! * Every finite word `w` induces a **word-graph** `g_w` over `B`'s
//!   states: an arc `q → q'` iff `B` can go from `q` to `q'` reading
//!   `w`, flagged *accepting* iff some such path visits `F_B`
//!   (endpoints included). Word-graphs compose exactly
//!   (`g_{w1·w2} = g_{w1} ∘ g_{w2}`) and are backed by
//!   [`sl_lattice::Bitset`] rows, so composition and comparison are
//!   word-parallel `u64` operations.
//! * The search enumerates elements `(p, q, f, g_w)` — "`A` can go from
//!   `p` to `q` on `w` (visiting `F_A` iff `f`), and `w` acts on `B` as
//!   `g_w`" — closing the set under right-composition with single
//!   letters. A counterexample exists iff some *stem* element
//!   `(init_A, p, ·, g_u)` meets a *period* element `(p, p, 1, g_v)`
//!   such that the exact lasso test on `(g_u, g_v)` says `u·v^ω ∉ L(B)`.
//! * **Antichain subsumption** keeps only the most-promising elements:
//!   `x` subsumes `y` (same endpoints) iff `x.f ≥ y.f` and `x`'s graph
//!   has pointwise *fewer* arcs. `B`-acceptance of a lasso is monotone
//!   in the graphs' arcs and composition is monotone in both arguments,
//!   so dropping `y` never loses a counterexample: whenever `y`'s
//!   descendants reject, `x`'s reject too — and `x` carries its own
//!   genuinely `A`-realized witness word. This is the subsumption
//!   invariant; see DESIGN.md § "Inclusion engines".
//! * Both operands are first trimmed and quotiented by direct
//!   simulation through a [`QuotientCache`], which preserves the
//!   language — so counterexamples found on the quotients are valid for
//!   the originals — and memoizes the quotients across queries.
//! * Macro-states are expanded lazily: an `A`-state is seeded only once
//!   the search reaches it, and a candidate is committed only after it
//!   survives subsumption, so a counterexample found early exits before
//!   most of the space is touched.
//!
//! The search is exact: it agrees with the rank-based oracle on every
//! instance (the differential suite in `tests/inclusion_engines.rs` and
//! the `incl`/`incl3` conform oracles enforce this). The rank-based path
//! is still *required* when the caller needs the complement automaton
//! itself as an artifact (e.g. [`crate::decompose()`]'s liveness part) —
//! this engine only answers queries.

use crate::automaton::{Buchi, StateId};
use crate::graph::{tarjan, Graph};
use crate::incl::Inclusion;
use crate::interned::QuotientCache;
use sl_lattice::Bitset;
use sl_omega::{LassoWord, Symbol, Word};
use sl_support::{fault, Budget, SlError};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Default cap on antichain insertion attempts for unbudgeted
/// searches, mirroring
/// [`crate::complement::DEFAULT_COMPLEMENT_BUDGET`].
pub const DEFAULT_ANTICHAIN_BUDGET: usize = 1 << 17;

/// Budget phase and fault site of the search.
const PHASE: &str = "buchi.incl.antichain";

/// Test-only engine sabotage, used by the conformance fuzzer to prove
/// the differential oracles catch a real engine bug. Not part of the
/// public API; never enabled outside dedicated drill tests.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAK_SUBSUMPTION: AtomicBool = AtomicBool::new(false);

    /// When enabled, the antichain subsumption check compares only the
    /// accepting bit and skips the word-graph domination test — so the
    /// search wrongly discards unsubsumed elements and can report
    /// "Holds" for non-inclusions. The rank oracle is untouched, which
    /// is exactly the disagreement `slfuzz --sabotage
    /// antichain-subsumption` must detect and shrink.
    pub fn set_break_subsumption(on: bool) {
        BREAK_SUBSUMPTION.store(on, Ordering::Relaxed);
    }

    /// Whether the drill flag is currently set.
    #[must_use]
    pub fn subsumption_broken() -> bool {
        BREAK_SUBSUMPTION.load(Ordering::Relaxed)
    }
}

/// How many subsumption comparisons amortize one budget evaluation in
/// budgeted searches (see `BudgetMeter::tick_every`).
const SCAN_STRIDE: u64 = 64;

/// Monotone counters describing the antichain engine's work on the
/// current thread, snapshot via [`antichain_stats`]. Counters accumulate per thread for
/// the life of the thread; callers interested in one query's cost take
/// a snapshot before and after and diff with
/// [`AntichainStats::delta_since`] — that is how the `sld` daemon
/// attributes work to requests even when queries run on pooled sweep
/// workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntichainStats {
    /// Fixpoint searches started (one per inclusion direction; a
    /// universality query is one search, an equivalence up to two).
    pub searches: u64,
    /// Antichain insertion attempts across all searches — the
    /// engine's primary work unit (what budgets meter).
    pub insert_attempts: u64,
    /// Pairwise subsumption comparisons — the hot inner loop.
    pub subsumption_scans: u64,
    /// Searches that ended with a counterexample lasso.
    pub counterexamples: u64,
    /// High-water mark, over this thread's searches, of macro-states
    /// committed past subsumption in one search — a gauge, not a
    /// counter: the memory-regression test in `tests/interned_core.rs`
    /// pins a padded pair's peak against its trimmed twin's through it.
    pub peak_macro_states: u64,
    /// Live antichain size when the most recent search returned (a
    /// gauge).
    pub final_antichain: u64,
}

impl AntichainStats {
    /// The counter increments since `earlier` (saturating, so a stale
    /// or cross-thread snapshot never underflows). The two gauges —
    /// `peak_macro_states`, `final_antichain` — are levels, not
    /// counters, and are carried over as-is.
    #[must_use]
    pub fn delta_since(&self, earlier: &AntichainStats) -> AntichainStats {
        AntichainStats {
            searches: self.searches.saturating_sub(earlier.searches),
            insert_attempts: self.insert_attempts.saturating_sub(earlier.insert_attempts),
            subsumption_scans: self.subsumption_scans.saturating_sub(earlier.subsumption_scans),
            counterexamples: self.counterexamples.saturating_sub(earlier.counterexamples),
            peak_macro_states: self.peak_macro_states,
            final_antichain: self.final_antichain,
        }
    }

    /// Accumulates another delta into this total; the gauges take the
    /// maximum (a high-water mark across threads is more informative
    /// than a meaningless sum of levels).
    pub fn absorb(&mut self, delta: &AntichainStats) {
        self.searches += delta.searches;
        self.insert_attempts += delta.insert_attempts;
        self.subsumption_scans += delta.subsumption_scans;
        self.counterexamples += delta.counterexamples;
        self.peak_macro_states = self.peak_macro_states.max(delta.peak_macro_states);
        self.final_antichain = self.final_antichain.max(delta.final_antichain);
    }
}

thread_local! {
    static STATS: std::cell::Cell<AntichainStats> =
        const { std::cell::Cell::new(AntichainStats {
            searches: 0,
            insert_attempts: 0,
            subsumption_scans: 0,
            counterexamples: 0,
            peak_macro_states: 0,
            final_antichain: 0,
        }) };
}

/// This thread's antichain counters since thread start.
#[must_use]
pub fn antichain_stats() -> AntichainStats {
    STATS.with(std::cell::Cell::get)
}

/// Space usage of one search, tallied as it runs: `peak` is the number
/// of macro-states ever committed past subsumption (monotone — the
/// arena high-water mark), `live` the elements currently in the
/// antichain (commits minus subsumption evictions).
#[derive(Debug, Clone, Copy, Default)]
struct SearchGauges {
    peak: u64,
    live: u64,
}

/// Folds one finished search into the thread counters. Called once per
/// search (not per step), so the hot loops stay counter-free: [`included`]
/// tallies attempts/scans in locals it already owns for budgeting and
/// flushes here.
fn record_search(attempts: u64, scans: u64, found_counterexample: bool, gauges: SearchGauges) {
    STATS.with(|cell| {
        let mut stats = cell.get();
        stats.searches += 1;
        stats.insert_attempts += attempts;
        stats.subsumption_scans += scans;
        stats.counterexamples += u64::from(found_counterexample);
        stats.peak_macro_states = stats.peak_macro_states.max(gauges.peak);
        stats.final_antichain = gauges.live;
        cell.set(stats);
    });
}

/// The word-graph of a finite word over `B`'s state set: `reach[q]` is
/// the set of states reachable from `q` reading the word, `acc[q]` the
/// subset reachable via a path that visits `F_B` (endpoints included).
/// `acc[q] ⊆ reach[q]` by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WordGraph {
    reach: Vec<Bitset>,
    acc: Vec<Bitset>,
}

impl WordGraph {
    /// The graph of the empty word: identity arcs, accepting at
    /// accepting states.
    fn identity(b: &Buchi) -> WordGraph {
        let n = b.num_states();
        let mut reach = Vec::with_capacity(n);
        let mut acc = Vec::with_capacity(n);
        for q in 0..n {
            let mut row = Bitset::empty(n);
            row.insert(q);
            acc.push(if b.is_accepting(q) {
                row.clone()
            } else {
                Bitset::empty(n)
            });
            reach.push(row);
        }
        WordGraph { reach, acc }
    }

    /// The graph of a single letter.
    fn letter(b: &Buchi, sym: Symbol) -> WordGraph {
        let n = b.num_states();
        let mut reach = Vec::with_capacity(n);
        let mut acc = Vec::with_capacity(n);
        for q in 0..n {
            let succs = b.successors(q, sym);
            let row = Bitset::from_indices(n, succs);
            let acc_row = if b.is_accepting(q) {
                row.clone()
            } else {
                let flagged: Vec<StateId> = succs
                    .iter()
                    .copied()
                    .filter(|&s| b.is_accepting(s))
                    .collect();
                Bitset::from_indices(n, &flagged)
            };
            reach.push(row);
            acc.push(acc_row);
        }
        WordGraph { reach, acc }
    }

    /// Exact composition: `self` then `other`. A composite path visits
    /// `F_B` iff one of its halves does, which is exactly the union
    /// below — so word-graphs of concatenations are computed, not
    /// approximated.
    fn compose(&self, other: &WordGraph) -> WordGraph {
        let n = self.reach.len();
        let mut reach = Vec::with_capacity(n);
        let mut acc = Vec::with_capacity(n);
        for q in 0..n {
            let mut out_reach = Bitset::empty(n);
            let mut out_acc = Bitset::empty(n);
            for m in self.reach[q].iter() {
                out_reach.union_in_place(&other.reach[m]);
                out_acc.union_in_place(&other.acc[m]);
            }
            for m in self.acc[q].iter() {
                out_acc.union_in_place(&other.reach[m]);
            }
            reach.push(out_reach);
            acc.push(out_acc);
        }
        WordGraph { reach, acc }
    }

    /// Pointwise arc inclusion: `self` has at most the arcs of `other`.
    /// A smaller graph admits fewer `B`-runs, hence rejects at least as
    /// many lassos — the heart of the subsumption order.
    fn le(&self, other: &WordGraph) -> bool {
        self.reach
            .iter()
            .zip(&other.reach)
            .all(|(a, b)| a.is_subset(b))
            && self.acc.iter().zip(&other.acc).all(|(a, b)| a.is_subset(b))
    }
}

/// Exact lasso membership from word-graphs: whether `u·v^ω ∈ L(B)`,
/// where `g_u`, `g_v` are the word-graphs of `u` and `v` over `B`.
///
/// `B` accepts iff from some state in `g_u.reach[init_B]` a `g_v`-path
/// leads into a strongly connected component of the `g_v.reach` digraph
/// that contains an internal accepting arc — such a component yields a
/// `v`-segment cycle visiting `F_B`, traversed forever; conversely an
/// accepting run, sampled every `|v|` letters, eventually settles into
/// exactly such a component.
fn lasso_in_b(b: &Buchi, g_u: &WordGraph, g_v: &WordGraph) -> bool {
    let n = b.num_states();
    let graph = Graph {
        n,
        succ: Box::new(|q| Cow::Owned(g_v.reach[q].iter().collect())),
    };
    let scc = tarjan(&graph);
    let mut good = vec![false; scc.count];
    for x in 0..n {
        for y in g_v.acc[x].iter() {
            if scc.component[x] == scc.component[y] {
                good[scc.component[x]] = true;
            }
        }
    }
    // Forward reachability (zero or more g_v arcs) from the states B
    // can be in after reading u.
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for q in g_u.reach[b.initial()].iter() {
        seen[q] = true;
        stack.push(q);
    }
    while let Some(q) = stack.pop() {
        if good[scc.component[q]] {
            return true;
        }
        for s in g_v.reach[q].iter() {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    false
}

/// A search element: `A` goes `from → to` on `word` (some path visits
/// `F_A` iff `acc`), and `word` acts on `B` as `g`.
#[derive(Debug, Clone)]
struct Elem {
    acc: bool,
    g: WordGraph,
    word: Vec<Symbol>,
}

/// Work units reported to the charge hook: one per insertion attempt
/// (the macro-step of the fixpoint loop) and one per subsumption
/// comparison (the hot inner loop, amortized in budgeted runs).
enum Step {
    Attempt,
    Scan,
}

type Charge<'c> = dyn FnMut(Step) -> Result<(), SlError> + 'c;

/// Work items of the on-the-fly search: discover a product row (seed
/// the single-letter elements out of an `A`-state the search has
/// actually reached) or right-extend a committed arena element.
enum Task {
    Seed(usize),
    Extend(usize, u32),
}

/// The on-the-fly fixpoint search. Returns a counterexample in
/// `L(a) \ L(b)` or proves inclusion; `gauges` is updated as elements
/// commit and evict, so it is meaningful even on an early (budget or
/// counterexample) exit.
///
/// * Operand quotients come from `cache` ([`QuotientCache`]) — trimmed
///   first, memoized across queries, incrementally maintained across
///   `redefine`.
/// * Letter word-graphs of `B` are built on first use, not up front.
/// * `A`-states are seeded lazily from the initial state's successor
///   closure: a `(p, σ, r)` single-letter element exists only once the
///   search has discovered `p`. Elements whose source is unreachable
///   could never take part in a lasso verdict anyway — stems are
///   anchored at the initial state and periods only pair with stems.
/// * Elements live in an append-only arena; the chains hold indices,
///   and a candidate is composed in scratch and committed only after
///   surviving subsumption — `gauges.peak` (the arena length) is
///   exactly the number of macro-states ever materialized.
fn search(
    a: &Buchi,
    b: &Buchi,
    cache: &QuotientCache,
    gauges: &mut SearchGauges,
    charge: &mut Charge<'_>,
) -> Result<Inclusion, SlError> {
    assert_eq!(
        a.alphabet(),
        b.alphabet(),
        "inclusion requires a common alphabet"
    );
    let a = cache.quotient(a);
    let b = cache.quotient(b);
    let na = a.num_states();
    let sigma = a.alphabet().clone();
    let mut letters: Vec<Option<WordGraph>> = vec![None; sigma.len()];
    let identity = WordGraph::identity(&b);
    let init = a.initial();

    let mut arena: Vec<Elem> = Vec::new();
    let mut alive: Vec<bool> = Vec::new();
    let mut chains: Vec<Vec<u32>> = vec![Vec::new(); na * na];
    let mut work: VecDeque<Task> = VecDeque::new();
    let mut discovered = vec![false; na];
    discovered[init] = true;
    work.push_back(Task::Seed(init));

    // Commits a candidate that survives subsumption into the arena,
    // maintaining the index chains, queueing the extension, and running
    // the stem/period lasso tests it enables.
    let insert = |from: usize,
                  to: usize,
                  cand: Elem,
                  arena: &mut Vec<Elem>,
                  alive: &mut Vec<bool>,
                  chains: &mut Vec<Vec<u32>>,
                  work: &mut VecDeque<Task>,
                  gauges: &mut SearchGauges,
                  charge: &mut Charge<'_>|
     -> Result<Option<LassoWord>, SlError> {
        charge(Step::Attempt)?;
        let key = from * na + to;
        let broken = sabotage::subsumption_broken();
        for &idx in &chains[key] {
            charge(Step::Scan)?;
            let kept = &arena[idx as usize];
            if kept.acc >= cand.acc && (broken || kept.g.le(&cand.g)) {
                return Ok(None); // subsumed: never materialized
            }
        }
        let mut i = 0;
        while i < chains[key].len() {
            charge(Step::Scan)?;
            let old = chains[key][i] as usize;
            if cand.acc >= arena[old].acc && cand.g.le(&arena[old].g) {
                alive[old] = false;
                chains[key].swap_remove(i);
                gauges.live -= 1;
            } else {
                i += 1;
            }
        }
        let idx = u32::try_from(arena.len()).expect("arena outgrew u32 indices");
        arena.push(cand);
        alive.push(true);
        chains[key].push(idx);
        gauges.live += 1;
        gauges.peak += 1;
        work.push_back(Task::Extend(key, idx));
        let elem = &arena[idx as usize];

        if from == init {
            let p = to;
            for &pid in &chains[p * na + p] {
                let period = &arena[pid as usize];
                if period.acc && !lasso_in_b(&b, &elem.g, &period.g) {
                    return Ok(Some(LassoWord::new(
                        &Word::new(&elem.word),
                        &Word::new(&period.word),
                    )));
                }
            }
        }
        if from == to && elem.acc {
            let p = from;
            if p == init && !lasso_in_b(&b, &identity, &elem.g) {
                return Ok(Some(LassoWord::new(
                    &Word::empty(),
                    &Word::new(&elem.word),
                )));
            }
            for &sid in &chains[init * na + p] {
                // Skip self-pairing: handled above when the element was
                // tested as a stem (same graphs, same verdict).
                let stem = &arena[sid as usize];
                if sid != idx && !lasso_in_b(&b, &stem.g, &elem.g) {
                    return Ok(Some(LassoWord::new(
                        &Word::new(&stem.word),
                        &Word::new(&elem.word),
                    )));
                }
            }
        }
        Ok(None)
    };

    while let Some(task) = work.pop_front() {
        match task {
            Task::Seed(p) => {
                for sym in sigma.symbols() {
                    let si = sym.index();
                    if letters[si].is_none() {
                        letters[si] = Some(WordGraph::letter(&b, sym));
                    }
                    for &r in a.successors(p, sym) {
                        let cand = Elem {
                            acc: a.is_accepting(p) || a.is_accepting(r),
                            g: letters[si].as_ref().expect("just built").clone(),
                            word: vec![sym],
                        };
                        if let Some(w) = insert(
                            p, r, cand, &mut arena, &mut alive, &mut chains, &mut work,
                            gauges, charge,
                        )? {
                            return Ok(Inclusion::CounterExample(w));
                        }
                        if !discovered[r] {
                            discovered[r] = true;
                            work.push_back(Task::Seed(r));
                        }
                    }
                }
            }
            Task::Extend(key, idx) => {
                if !alive[idx as usize] {
                    continue; // evicted after queueing; its subsumer regenerates
                }
                let elem = arena[idx as usize].clone();
                let (from, to) = (key / na, key % na);
                for sym in sigma.symbols() {
                    let si = sym.index();
                    if letters[si].is_none() {
                        letters[si] = Some(WordGraph::letter(&b, sym));
                    }
                    for &r in a.successors(to, sym) {
                        let cand = Elem {
                            acc: elem.acc || a.is_accepting(r),
                            g: elem.g.compose(letters[si].as_ref().expect("just built")),
                            word: {
                                let mut w = elem.word.clone();
                                w.push(sym);
                                w
                            },
                        };
                        if let Some(w) = insert(
                            from, r, cand, &mut arena, &mut alive, &mut chains, &mut work,
                            gauges, charge,
                        )? {
                            return Ok(Inclusion::CounterExample(w));
                        }
                    }
                }
            }
        }
    }
    Ok(Inclusion::Holds)
}

/// Decides `L(a) ⊆ L(b)` with the on-the-fly antichain search, taking
/// operand quotients from `cache` (pass
/// [`crate::interned::shared_quotient_cache`] when no private cache is
/// at hand) and folding the search's work into this thread's
/// [`antichain_stats`]. Counterexamples are valid for the raw operands.
///
/// Without a budget the search is capped at [`DEFAULT_ANTICHAIN_BUDGET`]
/// insertion attempts and consults no fault site. With one, every
/// insertion attempt ticks the meter and consults the process-wide
/// fault plan, and subsumption comparisons — the hot inner loop —
/// charge through `BudgetMeter::tick_every`, amortizing the limit
/// evaluation.
///
/// # Errors
///
/// Without a budget: [`SlError::BudgetExceeded`] at phase
/// `"buchi.incl.antichain"` once the search spends more than
/// [`DEFAULT_ANTICHAIN_BUDGET`] insertion attempts (`spent` counts the
/// refused one). With a budget: whatever the budget reports
/// ([`SlError::BudgetExceeded`] / [`SlError::Cancelled`]) or
/// [`SlError::FaultInjected`] when the fault plan fires at site
/// `"buchi.incl.antichain"`.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn included(
    a: &Buchi,
    b: &Buchi,
    cache: &QuotientCache,
    budget: Option<&Budget>,
) -> Result<Inclusion, SlError> {
    let mut attempts: u64 = 0;
    let mut scans: u64 = 0;
    let mut gauges = SearchGauges::default();
    let outcome = match budget {
        None => search(a, b, cache, &mut gauges, &mut |step| {
            match step {
                Step::Attempt => {
                    attempts += 1;
                    if attempts > DEFAULT_ANTICHAIN_BUDGET as u64 {
                        // `spent` counts the refused attempt, as a
                        // `BudgetMeter` would.
                        return Err(SlError::BudgetExceeded {
                            phase: PHASE,
                            spent: attempts,
                        });
                    }
                }
                Step::Scan => scans += 1,
            }
            Ok(())
        }),
        Some(budget) => {
            let mut meter = budget.meter(PHASE);
            let plan = fault::global();
            search(a, b, cache, &mut gauges, &mut |step| match step {
                Step::Attempt => {
                    meter.tick()?;
                    attempts += 1;
                    plan.inject_error(PHASE, attempts)
                }
                Step::Scan => {
                    scans += 1;
                    meter.tick_every(SCAN_STRIDE)
                }
            })
        }
    };
    record_search(
        attempts,
        scans,
        matches!(outcome, Ok(Inclusion::CounterExample(_))),
        gauges,
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::incl::{included_rank, universal_rank};
    use crate::random::{random_buchi, RandomConfig};
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn inf_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        builder.build(q0)
    }

    fn only_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        builder.add_transition(q0, a, q0);
        builder.build(q0)
    }

    fn unbudgeted(a: &Buchi, b: &Buchi) -> Inclusion {
        included(a, b, &QuotientCache::new(), None).unwrap()
    }

    #[test]
    fn word_graphs_compose_exactly() {
        let s = sigma();
        let m = inf_a(&s);
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let ga = WordGraph::letter(&m, a);
        let gb = WordGraph::letter(&m, b);
        // (g_a ∘ g_b) ∘ g_a == g_a ∘ (g_b ∘ g_a): associativity on a
        // concrete instance.
        let left = ga.compose(&gb).compose(&ga);
        let right = ga.compose(&gb.compose(&ga));
        assert_eq!(left, right);
        // Identity is neutral.
        let id = WordGraph::identity(&m);
        assert_eq!(id.compose(&ga), ga);
        assert_eq!(ga.compose(&id), ga);
    }

    #[test]
    fn lasso_test_matches_membership() {
        let s = sigma();
        let m = inf_a(&s);
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let ga = WordGraph::letter(&m, a);
        let gb = WordGraph::letter(&m, b);
        // b (a b)^ω ∈ GF a; b b^ω ∉ GF a.
        let gab = ga.compose(&gb);
        assert!(lasso_in_b(&m, &gb, &gab));
        assert!(!lasso_in_b(&m, &gb, &gb));
        // ε stem: (a)^ω ∈, (b)^ω ∉.
        let id = WordGraph::identity(&m);
        assert!(lasso_in_b(&m, &id, &ga));
        assert!(!lasso_in_b(&m, &id, &gb));
    }

    #[test]
    fn inclusion_holds_for_subset() {
        let s = sigma();
        assert!(unbudgeted(&only_a(&s), &inf_a(&s)).holds());
    }

    #[test]
    fn counterexample_is_genuine() {
        let s = sigma();
        match unbudgeted(&inf_a(&s), &only_a(&s)) {
            Inclusion::CounterExample(w) => {
                assert!(inf_a(&s).accepts(&w), "accepted by the left operand");
                assert!(!only_a(&s).accepts(&w), "rejected by the right operand");
            }
            Inclusion::Holds => panic!("GF a ⊄ a^ω"),
        }
    }

    #[test]
    fn empty_language_is_included_in_everything() {
        let s = sigma();
        let empty = Buchi::empty_language(s.clone());
        assert!(unbudgeted(&empty, &only_a(&s)).holds());
        assert!(unbudgeted(&empty, &empty).holds());
    }

    #[test]
    fn nothing_nonempty_is_included_in_empty() {
        let s = sigma();
        let empty = Buchi::empty_language(s.clone());
        match unbudgeted(&inf_a(&s), &empty) {
            Inclusion::CounterExample(w) => assert!(inf_a(&s).accepts(&w)),
            Inclusion::Holds => panic!("GF a is nonempty"),
        }
    }

    #[test]
    fn budgeted_run_respects_step_limit_and_matches_unbudgeted() {
        let s = sigma();
        let cache = QuotientCache::new();
        let strict = Budget::unlimited().with_steps(1);
        let err = included(&inf_a(&s), &only_a(&s), &cache, Some(&strict)).unwrap_err();
        assert!(
            err.root().is_budget_exceeded() || err.root().is_fault_injected(),
            "{err}"
        );
        match included(&only_a(&s), &inf_a(&s), &cache, Some(&Budget::unlimited())) {
            Ok(inc) => assert_eq!(inc, unbudgeted(&only_a(&s), &inf_a(&s))),
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }

    #[test]
    fn search_gauges_are_recorded() {
        let s = sigma();
        let before = antichain_stats();
        assert!(unbudgeted(&only_a(&s), &inf_a(&s)).holds());
        let after = antichain_stats();
        assert!(
            after.peak_macro_states > 0,
            "a completed search commits at least one macro-state"
        );
        assert!(
            after.final_antichain > 0 && after.final_antichain <= after.peak_macro_states,
            "the live antichain is bounded by the commit high-water mark: {after:?}"
        );
        assert_eq!(after.searches, before.searches + 1);
        assert_eq!(after.counterexamples, before.counterexamples);
        assert!(!unbudgeted(&inf_a(&s), &only_a(&s)).holds());
        assert_eq!(antichain_stats().counterexamples, before.counterexamples + 1);
    }

    #[test]
    fn agrees_with_rank_oracle_on_random_corpus() {
        let s = sigma();
        let config = RandomConfig {
            states: 5,
            density_percent: 55,
            accepting_percent: 35,
        };
        let cache = QuotientCache::new();
        let all = Buchi::universal(s.clone());
        for seed in 0..40u64 {
            let a = random_buchi(&s, seed, config);
            let b = random_buchi(&s, seed + 2000, config);
            let fast = included(&a, &b, &cache, None).unwrap();
            let slow = included_rank(&a, &b).unwrap();
            assert_eq!(
                fast.holds(),
                slow.holds(),
                "seed {seed}: engine and oracle disagree on inclusion"
            );
            if let Inclusion::CounterExample(w) = &fast {
                assert!(a.accepts(w), "seed {seed}: cex not accepted by a");
                assert!(!b.accepts(w), "seed {seed}: cex not rejected by b");
            }
            assert_eq!(
                included(&all, &a, &cache, None).unwrap().holds(),
                universal_rank(&a).unwrap().is_ok(),
                "seed {seed}: universality differs"
            );
        }
        // Repeat queries went through the cache: far fewer quotient
        // computations than lookups.
        let stats = cache.stats();
        assert!(
            stats.cache.hits > 0,
            "repeated operands should hit the quotient cache: {stats:?}"
        );
    }
}
