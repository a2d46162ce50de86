//! The differential / metamorphic oracle registry.
//!
//! Each oracle takes a [`Case`] and returns an [`Outcome`]:
//!
//! * `Pass` — every law held;
//! * `Accepted(reason)` — a `Budget` ran out or a fault drill fired;
//!   degradation is allowed, a wrong answer never is;
//! * `Fail(message)` — a law was violated; the runner shrinks the case
//!   and records a reproducer.
//!
//! The laws are the paper's universally-quantified theorems plus the
//! engine-equivalence contracts the workspace already promises:
//! the on-the-fly inclusion engine and the rank oracle agree (with
//! validated witnesses),
//! classify/decompose satisfy Theorems 2/3/5/6/7 on every generated
//! lattice, `to_hoa ∘ from_hoa` is the identity with stable
//! diagnostics, monitor verdict prefixes match an independent
//! set-stepper over the safety closure, the compiled dense-table
//! monitor matches both the subset-construction `Monitor` and that
//! set-stepper verdict-for-verdict (with minimization proven
//! language-preserving per case), and daemon sessions replay
//! equivalently across thread counts and cache configurations.

use crate::case::{
    Case, CrashCase, HoaCase, Incl3Case, InclCase, LatticeCase, MonitorCase, PdrCase, SessionCase,
};
use sl_buchi::{
    accepts, closure, equivalent, equivalent_rank, hoa, included, included_rank, live_states,
    scratch_quotient, shared_quotient_cache, universal, universal_rank, Buchi, BuchiBuilder,
    CompiledMonitor, Inclusion, Monitor, QuotientCache, Verdict,
};
use sl_lattice::{
    classify, decompose, decompose_pair_checked, no_decomposition_exists, theorem5_applies,
    theorem6_strongest_safety, theorem7_weakest_liveness, verify_decomposition, Bitset,
    LatticeError,
};
use sl_ltl::classify_formula;
use sl_omega::{Alphabet, LassoWord, Symbol, Word};
use sl_pdr::{bmc_lasso, bmc_safety, check_liveness, check_safety, LivenessVerdict, SafetyVerdict};
use sl_service::{Json, PersistConfig, Service, ServiceConfig, Verb};
use sl_support::{fault, Budget, FaultPlan, SlError, SplitMix};
use sl_trees::{counter_product, Kripke};

/// All oracle names, in registry order.
pub const ORACLES: [&str; 9] = [
    "incl", "incl3", "lattice", "hoa", "monitor", "compiled", "session", "crash", "pdr",
];

/// The result of judging one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every law held.
    Pass,
    /// A budget or fault-drill degradation; never wrong, so accepted.
    Accepted(&'static str),
    /// A law was violated.
    Fail(String),
}

/// Judges `case` with the oracle named by its tag.
#[must_use]
pub fn check(case: &Case) -> Outcome {
    match case {
        Case::Incl(c) => check_incl(c),
        Case::Incl3(c) => check_incl3(c),
        Case::Lattice(c) => check_lattice(c),
        Case::Hoa(c) => check_hoa(c),
        Case::Monitor(c) => check_monitor(c),
        Case::Compiled(c) => check_compiled(c),
        Case::Session(c) => check_session(c),
        Case::Crash(c) => check_crash(c),
        Case::Pdr(c) => check_pdr(c),
    }
}

macro_rules! fail {
    ($($fmt:tt)*) => { return Outcome::Fail(format!($($fmt)*)) };
}

/// Extracts the declared state count from HOA text (for weight
/// reporting without a full parse).
#[must_use]
pub fn parse_states(text: &str) -> usize {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("States:") {
            if let Ok(n) = rest.trim().parse::<usize>() {
                return n;
            }
        }
    }
    text.lines().filter(|l| l.starts_with("State:")).count()
}

// ---------------------------------------------------------------------
// Oracle 1: on-the-fly engine vs rank oracle
// ---------------------------------------------------------------------

fn parse_pair(left: &str, right: &str) -> Result<(Buchi, Buchi), Outcome> {
    let left = hoa::from_hoa(left)
        .map_err(|e| Outcome::Fail(format!("case corrupt: left HOA does not parse: {e}")))?;
    let right = hoa::from_hoa(right)
        .map_err(|e| Outcome::Fail(format!("case corrupt: right HOA does not parse: {e}")))?;
    if left.alphabet() != right.alphabet() {
        return Err(Outcome::Fail("case corrupt: alphabet mismatch".into()));
    }
    Ok((left, right))
}

/// Validates an inclusion counterexample: accepted by `a`, rejected by
/// `b` — checked against *both* original automata, so neither engine
/// can launder a bogus witness.
fn valid_cex(a: &Buchi, b: &Buchi, w: &LassoWord) -> Result<(), String> {
    if !accepts(a, w) {
        return Err(format!("counterexample {w:?} is not accepted by the left automaton"));
    }
    if accepts(b, w) {
        return Err(format!("counterexample {w:?} is accepted by the right automaton"));
    }
    Ok(())
}

fn check_incl(c: &InclCase) -> Outcome {
    let (a, b) = match parse_pair(&c.left, &c.right) {
        Ok(pair) => pair,
        Err(outcome) => return outcome,
    };
    // A fresh quotient cache per case, so every case runs the full
    // trim + quotient + search pipeline on its own.
    let cache = QuotientCache::new();
    // Differential: engine vs oracle on a ⊆ b.
    let fast = included(&a, &b, &cache, None);
    let slow = included_rank(&a, &b);
    match (&fast, &slow) {
        (Ok(fa), Ok(sl)) => {
            let (fh, sh) = (
                matches!(fa, Inclusion::Holds),
                matches!(sl, Inclusion::Holds),
            );
            if fh != sh {
                fail!("engines disagree on inclusion: onthefly={fa:?} rank={sl:?}");
            }
            if let Inclusion::CounterExample(w) = fa {
                if let Err(msg) = valid_cex(&a, &b, w) {
                    fail!("onthefly {msg}");
                }
            }
            if let Inclusion::CounterExample(w) = sl {
                if let Err(msg) = valid_cex(&a, &b, w) {
                    fail!("rank {msg}");
                }
            }
        }
        _ => return Outcome::Accepted("inclusion budget exceeded"),
    }
    // Differential: engine vs oracle on universality of a.
    match (universal(&a, &cache, None), universal_rank(&a)) {
        (Ok(fa), Ok(sl)) => {
            if fa.is_ok() != sl.is_ok() {
                fail!("engines disagree on universality: onthefly={fa:?} rank={sl:?}");
            }
            for w in [fa.err(), sl.err()].into_iter().flatten() {
                if accepts(&a, &w) {
                    fail!("universality witness {w:?} is accepted (not a rejection)");
                }
            }
        }
        _ => return Outcome::Accepted("inclusion budget exceeded"),
    }
    // Differential: engine vs oracle on equivalence.
    match (equivalent(&a, &b, &cache, None), equivalent_rank(&a, &b)) {
        (Ok(fa), Ok(sl)) => {
            if fa.is_ok() != sl.is_ok() {
                fail!("engines disagree on equivalence: onthefly={fa:?} rank={sl:?}");
            }
            for w in [fa.err(), sl.err()].into_iter().flatten() {
                if accepts(&a, &w) == accepts(&b, &w) {
                    fail!("equivalence separator {w:?} does not separate the languages");
                }
            }
        }
        _ => return Outcome::Accepted("inclusion budget exceeded"),
    }
    // Budgeted run: a successful budgeted search must agree with the
    // unbudgeted one; exhaustion and injected faults are accepted.
    if let Some(steps) = c.budget {
        let budget = Budget::unlimited().with_steps(steps);
        match (included(&a, &b, &cache, Some(&budget)), &fast) {
            (Ok(bud), Ok(unb)) => {
                if matches!(bud, Inclusion::Holds) != matches!(unb, Inclusion::Holds) {
                    fail!("budgeted onthefly disagrees with unbudgeted: {bud:?} vs {unb:?}");
                }
                if let Inclusion::CounterExample(w) = &bud {
                    if let Err(msg) = valid_cex(&a, &b, w) {
                        fail!("budgeted onthefly {msg}");
                    }
                }
            }
            (Err(e), _) if e.is_budget_exceeded() || e.is_fault_injected() => {
                return Outcome::Accepted("step budget exhausted");
            }
            (Err(e), _) => fail!("budgeted onthefly returned a non-budget error: {e}"),
            (Ok(_), Err(_)) => {}
        }
    }
    Outcome::Pass
}

// ---------------------------------------------------------------------
// Oracle 1b: engine vs oracle on bigger pairs + incremental quotient drill
// ---------------------------------------------------------------------

/// The editable shape of an automaton for the seeded mutation drill:
/// acceptance bits plus the per-(state, symbol-index) successor lists.
/// Mutations edit this and rebuild, since [`Buchi`] is immutable.
struct Shape {
    accepting: Vec<bool>,
    succ: Vec<Vec<Vec<usize>>>,
}

fn shape_of(b: &Buchi) -> Shape {
    let n = b.num_states();
    Shape {
        accepting: (0..n).map(|q| b.is_accepting(q)).collect(),
        succ: (0..n)
            .map(|q| {
                b.alphabet()
                    .symbols()
                    .map(|sym| b.successors(q, sym).to_vec())
                    .collect()
            })
            .collect(),
    }
}

fn build_shape(sigma: &Alphabet, shape: &Shape) -> Buchi {
    let mut builder = BuchiBuilder::new(sigma.clone());
    let ids: Vec<usize> = shape.accepting.iter().map(|&acc| builder.add_state(acc)).collect();
    for (q, by_sym) in shape.succ.iter().enumerate() {
        for (s, sym) in sigma.symbols().enumerate() {
            for &r in &by_sym[s] {
                builder.add_transition(ids[q], sym, ids[r]);
            }
        }
    }
    builder.build(ids[0])
}

/// One seeded random edit: toggle an acceptance bit, add or remove a
/// transition, or graft a fresh state reachable from an existing one.
fn mutate_shape(sigma: &Alphabet, shape: &mut Shape, rng: &mut SplitMix) {
    let n = shape.accepting.len();
    let nsyms = sigma.len();
    match rng.below(5) {
        0 => {
            let q = rng.below(n);
            shape.accepting[q] = !shape.accepting[q];
        }
        1 | 2 => {
            let (q, s, r) = (rng.below(n), rng.below(nsyms), rng.below(n));
            if !shape.succ[q][s].contains(&r) {
                shape.succ[q][s].push(r);
                shape.succ[q][s].sort_unstable();
            }
        }
        3 => {
            let (q, s) = (rng.below(n), rng.below(nsyms));
            if !shape.succ[q][s].is_empty() {
                let at = rng.below(shape.succ[q][s].len());
                shape.succ[q][s].remove(at);
            }
        }
        _ => {
            let from = rng.below(n);
            let s = rng.below(nsyms);
            let back = rng.below(n);
            shape.accepting.push(rng.flip());
            shape.succ.push(vec![Vec::new(); nsyms]);
            let fresh = shape.accepting.len() - 1;
            if !shape.succ[from][s].contains(&fresh) {
                shape.succ[from][s].push(fresh);
                shape.succ[from][s].sort_unstable();
            }
            shape.succ[fresh][s].push(back);
        }
    }
}

/// Engine-vs-oracle differential (on-the-fly / rank) on inclusion,
/// universality, and equivalence over pairs bigger than `incl`'s,
/// followed by the incremental-quotient drill: `steps` seeded edits of
/// the left automaton, each `advance`d through a fresh [`QuotientCache`] and
/// checked bit-for-bit against a from-scratch quotient. The dirty-SCC
/// invalidation sabotage drill must be caught here.
fn check_incl3(c: &Incl3Case) -> Outcome {
    let (a, b) = match parse_pair(&c.left, &c.right) {
        Ok(pair) => pair,
        Err(outcome) => return outcome,
    };
    // The engine is polynomial per macro-state and must answer; the
    // rank oracle joins on every pair small enough for its complement
    // to stay cheap (incl3 pairs run bigger than the rank-friendly
    // `incl` sizes, and even a budget-aborted rank run pays for the
    // exploration up to the abort).
    let rank_feasible = a.num_states().max(b.num_states()) <= 6;
    let cache = shared_quotient_cache();
    let Ok(of) = included(&a, &b, cache, None) else {
        return Outcome::Accepted("inclusion budget exceeded");
    };
    if let Inclusion::CounterExample(w) = &of {
        if let Err(msg) = valid_cex(&a, &b, w) {
            fail!("onthefly {msg}");
        }
    }
    if rank_feasible {
        if let Ok(rk) = included_rank(&a, &b) {
            if rk.holds() != of.holds() {
                fail!("engines disagree on inclusion: onthefly={of:?} rank={rk:?}");
            }
            if let Inclusion::CounterExample(w) = &rk {
                if let Err(msg) = valid_cex(&a, &b, w) {
                    fail!("rank {msg}");
                }
            }
        }
    }
    // Universality of a, both ways.
    let Ok(of_univ) = universal(&a, cache, None) else {
        return Outcome::Accepted("inclusion budget exceeded");
    };
    let mut witnesses = vec![of_univ.clone().err()];
    if rank_feasible {
        if let Ok(rk) = universal_rank(&a) {
            if rk.is_ok() != of_univ.is_ok() {
                fail!("engines disagree on universality: onthefly={of_univ:?} rank={rk:?}");
            }
            witnesses.push(rk.err());
        }
    }
    for w in witnesses.into_iter().flatten() {
        if accepts(&a, &w) {
            fail!("universality witness {w:?} is accepted (not a rejection)");
        }
    }
    // Equivalence, both ways.
    let Ok(of_eq) = equivalent(&a, &b, cache, None) else {
        return Outcome::Accepted("inclusion budget exceeded");
    };
    let mut separators = vec![of_eq.clone().err()];
    if rank_feasible {
        if let Ok(rk) = equivalent_rank(&a, &b) {
            if rk.is_ok() != of_eq.is_ok() {
                fail!("engines disagree on equivalence: onthefly={of_eq:?} rank={rk:?}");
            }
            separators.push(rk.err());
        }
    }
    for w in separators.into_iter().flatten() {
        if accepts(&a, &w) == accepts(&b, &w) {
            fail!("equivalence separator {w:?} does not separate the languages");
        }
    }
    // Budgeted run through an explicit quotient cache; a successful run
    // must agree, exhaustion and faults are accepted.
    if let Some(steps) = c.budget {
        let budget = Budget::unlimited().with_steps(steps);
        match included(&a, &b, &QuotientCache::new(), Some(&budget)) {
            Ok(bud) => {
                if bud.holds() != of.holds() {
                    fail!("budgeted onthefly disagrees with unbudgeted: {bud:?} vs {of:?}");
                }
                if let Inclusion::CounterExample(w) = &bud {
                    if let Err(msg) = valid_cex(&a, &b, w) {
                        fail!("budgeted onthefly {msg}");
                    }
                }
            }
            Err(e) if e.is_budget_exceeded() || e.is_fault_injected() => {
                return Outcome::Accepted("step budget exhausted");
            }
            Err(e) => fail!("budgeted onthefly returned a non-budget error: {e}"),
        }
    }
    // Incremental-vs-scratch quotient drill: the greatest simulation
    // fixpoint is unique, so after every advance the interned node's
    // quotient must be bit-identical to a from-scratch computation.
    let sigma = a.alphabet().clone();
    let mut rng = SplitMix::new(c.seed);
    let cache = QuotientCache::new();
    let mut prev = a;
    cache.quotient(&prev);
    let mut shape = shape_of(&prev);
    for step in 0..c.steps {
        mutate_shape(&sigma, &mut shape, &mut rng);
        let next = build_shape(&sigma, &shape);
        cache.advance(&prev, &next);
        let Some(node) = cache.node(&next) else {
            fail!("advance did not intern the mutated automaton at step {step}");
        };
        let incremental = node.quotient();
        let scratch = scratch_quotient(&next);
        if *incremental != scratch {
            fail!(
                "incremental quotient diverged from scratch at step {step}: \
                 {} vs {} states (stale dirty-SCC seeding?)",
                incremental.num_states(),
                scratch.num_states()
            );
        }
        prev = next;
    }
    Outcome::Pass
}

// ---------------------------------------------------------------------
// Oracle 2: Theorems 2/3/5/6/7 on generated lattices
// ---------------------------------------------------------------------

fn check_lattice(c: &LatticeCase) -> Outcome {
    let (lattice, cl1, cl2) = c.build();
    if !lattice.is_modular() || !lattice.is_complemented() {
        fail!("recipe invariant broken: product of b*/m3 factors must be modular and complemented");
    }
    if !cl1.pointwise_leq(&lattice, &cl2) {
        fail!("recipe invariant broken: cl1 <= cl2 must hold by construction");
    }
    let distributive = lattice.is_distributive();
    let top = lattice.top();
    for a in 0..lattice.len() {
        // Theorem 2 (single closure) and Theorem 3 (closure pair):
        // the decomposition exists and verifies.
        match decompose(&lattice, &cl2, a) {
            Ok(d) => {
                if !verify_decomposition(&lattice, &cl2, &cl2, &a, &d) {
                    fail!("Theorem 2 decomposition of {a} does not verify: {d:?}");
                }
            }
            Err(e) => fail!("Theorem 2 decomposition of {a} failed: {e:?}"),
        }
        let pair = match decompose_pair_checked(&lattice, &cl1, &cl2, a) {
            Ok(d) => {
                if lattice.meet(d.safety, d.liveness) != a {
                    fail!("Theorem 3 identity broken at {a}: {d:?}");
                }
                if cl1.apply(d.safety) != d.safety {
                    fail!("Theorem 3 safety part of {a} is not a cl1 fixpoint: {d:?}");
                }
                if cl2.apply(d.liveness) != top {
                    fail!("Theorem 3 liveness part of {a} is not cl2-live: {d:?}");
                }
                d
            }
            Err(e) => fail!("Theorem 3 decomposition of {a} failed on a modular complemented lattice: {e:?}"),
        };
        // Classification is definitional — check it agrees with the
        // closure's own fixpoint structure.
        let class = classify(&lattice, &cl2, a);
        let is_safe = cl2.apply(a) == a;
        let is_live = cl2.apply(a) == top;
        let matches_def = match class {
            sl_lattice::decompose::Classification::Both => is_safe && is_live,
            sl_lattice::decompose::Classification::Safety => is_safe && !is_live,
            sl_lattice::decompose::Classification::Liveness => is_live && !is_safe,
            sl_lattice::decompose::Classification::Neither => !is_safe && !is_live,
        };
        if !matches_def {
            fail!("classify({a}) = {class:?} contradicts cl2.{a} = {}", cl2.apply(a));
        }
        // Theorem 5: when cl2.a = 1 and cl1.a < 1, no decomposition
        // into a cl2-safety and cl1-liveness element exists.
        if theorem5_applies(&lattice, &cl1, &cl2, a)
            && !no_decomposition_exists(&lattice, &cl2, &cl1, a)
        {
            fail!("Theorem 5 violated at {a}: hypotheses hold but a decomposition exists");
        }
        // Theorem 6: the strongest safety part is exactly cl1.a.
        match theorem6_strongest_safety(&lattice, &cl1, &cl2, a) {
            Ok(s) => {
                if s != cl1.apply(a) {
                    fail!("Theorem 6 returned {s}, expected cl1.{a} = {}", cl1.apply(a));
                }
                if s != pair.safety {
                    fail!("Theorem 6 strongest safety {s} differs from the Theorem 3 part {}", pair.safety);
                }
            }
            Err(e) => fail!("Theorem 6 failed at {a}: {e:?}"),
        }
        // Theorem 7: in a distributive lattice the weakest liveness
        // part is a ∨ b; in a non-distributive one (an M3 factor) the
        // typed refusal is the required negative control.
        match theorem7_weakest_liveness(&lattice, &cl1, &cl2, a) {
            Ok(w) => {
                if !distributive {
                    fail!("Theorem 7 accepted a non-distributive lattice at {a}");
                }
                if !lattice.leq(pair.liveness, w) {
                    fail!("Theorem 7 weakest liveness {w} is not above the Theorem 3 part {}", pair.liveness);
                }
                if lattice.meet(cl1.apply(a), w) != a {
                    fail!("Theorem 7 weakest part {w} does not re-decompose {a}");
                }
            }
            Err(LatticeError::HypothesisViolated("distributivity")) => {
                if distributive {
                    fail!("Theorem 7 refused a distributive lattice at {a}");
                }
            }
            Err(LatticeError::NoComplement(_)) => {
                fail!("Theorem 7 found no complement in a complemented lattice at {a}");
            }
            Err(e) => fail!("Theorem 7 failed at {a}: {e:?}"),
        }
    }
    Outcome::Pass
}

// ---------------------------------------------------------------------
// Oracle 3: HOA round-trip and diagnostic stability
// ---------------------------------------------------------------------

fn check_hoa(c: &HoaCase) -> Outcome {
    let attempt = || -> Result<Buchi, SlError> { hoa::from_hoa(&c.text) };
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt));
    let first = match first {
        Ok(result) => result,
        Err(_) => fail!("from_hoa panicked on untrusted input"),
    };
    // Diagnostic stability: re-parsing yields the identical outcome.
    let second = hoa::from_hoa(&c.text);
    match (&first, &second) {
        (Ok(a), Ok(b)) => {
            if a != b {
                fail!("from_hoa is nondeterministic: two parses differ");
            }
            // Round-trip: render and re-parse is the identity on the
            // parsed automaton.
            let rendered = hoa::to_hoa(a, "roundtrip");
            match hoa::from_hoa(&rendered) {
                Ok(back) => {
                    if &back != a {
                        fail!("to_hoa ∘ from_hoa is not the identity:\n{rendered}");
                    }
                }
                Err(e) => fail!("to_hoa output does not re-parse: {e}\n{rendered}"),
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                fail!("parse diagnostics are unstable: `{a}` vs `{b}`");
            }
        }
        _ => fail!("from_hoa flip-flops between Ok and Err on the same input"),
    }
    Outcome::Pass
}

// ---------------------------------------------------------------------
// Oracle 4: monitor verdict prefixes vs offline classification
// ---------------------------------------------------------------------

/// An independent reference for the monitor: a nondeterministic
/// set-stepper over the live states of the safety closure. Same
/// building blocks (`closure`, `live_states`), no subset construction,
/// no memo table — so a determinization bug cannot hide.
struct SetStepper {
    cls: Buchi,
    live: Vec<bool>,
    current: Vec<usize>,
    unknown: bool,
}

impl SetStepper {
    fn new(policy: &Buchi) -> Self {
        let cls = closure(policy);
        let live = live_states(&cls);
        let current = if cls.num_states() > 0 && live.get(cls.initial()) == Some(&true) {
            vec![cls.initial()]
        } else {
            Vec::new()
        };
        SetStepper {
            cls,
            live,
            current,
            unknown: false,
        }
    }

    fn step(&mut self, sym: Symbol) -> Verdict {
        if self.current.is_empty() {
            return Verdict::Violation;
        }
        if self.unknown {
            return Verdict::Unknown;
        }
        if sym.index() >= self.cls.alphabet().len() {
            self.unknown = true;
            return Verdict::Unknown;
        }
        let mut next: Vec<usize> = self
            .current
            .iter()
            .flat_map(|&q| self.cls.successors(q, sym).iter().copied())
            .filter(|&q| self.live[q])
            .collect();
        next.sort_unstable();
        next.dedup();
        self.current = next;
        if self.current.is_empty() {
            Verdict::Violation
        } else {
            Verdict::Ok
        }
    }
}

fn check_monitor(c: &MonitorCase) -> Outcome {
    let policy = match hoa::from_hoa(&c.policy) {
        Ok(b) => b,
        Err(e) => fail!("case corrupt: policy HOA does not parse: {e}"),
    };
    let alphabet = policy.alphabet().clone();
    // Out-of-alphabet names map to an impossible symbol index, the same
    // convention the daemon uses for untrusted monitor-step requests.
    let symbols: Vec<Symbol> = c
        .trace
        .iter()
        .map(|name| alphabet.symbol(name).unwrap_or(Symbol(u16::MAX)))
        .collect();
    let mut monitor = Monitor::new(&policy);
    let mut reference = SetStepper::new(&policy);
    let mut verdicts = Vec::with_capacity(symbols.len());
    for (i, &sym) in symbols.iter().enumerate() {
        let got = monitor.step(sym);
        let want = reference.step(sym);
        if got != want {
            fail!(
                "verdict prefix diverges at step {i} on {:?}: monitor={got:?} reference={want:?}",
                c.trace.get(i)
            );
        }
        if got != monitor.verdict() {
            fail!("step() return and verdict() disagree at step {i}: {got:?} vs {:?}", monitor.verdict());
        }
        verdicts.push(got);
    }
    // Verdict stickiness: once settled, later verdicts never change.
    for pair in verdicts.windows(2) {
        if pair[0] != Verdict::Ok && pair[1] != pair[0] {
            fail!("settled verdict {:?} drifted to {:?}", pair[0], pair[1]);
        }
    }
    // run() over the whole word agrees with the final stepped verdict.
    let word = Word::new(&symbols);
    let (final_verdict, consumed) = monitor.run(&word);
    let expected_final = verdicts.last().copied().unwrap_or_else(|| {
        let mut fresh = Monitor::new(&policy);
        fresh.reset();
        fresh.verdict()
    });
    if !symbols.is_empty() && final_verdict != expected_final {
        fail!("run() verdict {final_verdict:?} disagrees with stepped prefix {expected_final:?}");
    }
    if consumed > symbols.len() {
        fail!("run() consumed {consumed} symbols of a {}-symbol trace", symbols.len());
    }
    // Budgeted twin: enough budget must agree; exhaustion is accepted.
    if let Some(steps) = c.budget {
        let budget = Budget::unlimited().with_steps(steps);
        match monitor.run_with_budget(&word, &budget) {
            Ok((v, n)) => {
                if (v, n) != (final_verdict, consumed) {
                    fail!("budgeted run ({v:?}, {n}) disagrees with unbudgeted ({final_verdict:?}, {consumed})");
                }
            }
            Err(e) if e.is_budget_exceeded() || e.is_fault_injected() => {
                return Outcome::Accepted("monitor budget exhausted");
            }
            Err(e) => fail!("budgeted run returned a non-budget error: {e}"),
        }
    }
    Outcome::Pass
}

// ---------------------------------------------------------------------
// Oracle 5: compiled dense-table monitor vs Monitor vs NFA-set stepper
// ---------------------------------------------------------------------

fn check_compiled(c: &MonitorCase) -> Outcome {
    let policy = match hoa::from_hoa(&c.policy) {
        Ok(b) => b,
        Err(e) => fail!("case corrupt: policy HOA does not parse: {e}"),
    };
    let alphabet = policy.alphabet().clone();
    let symbols: Vec<Symbol> = c
        .trace
        .iter()
        .map(|name| alphabet.symbol(name).unwrap_or(Symbol(u16::MAX)))
        .collect();
    let mut compiled = match CompiledMonitor::new(&policy) {
        Ok(m) => m,
        Err(e) => fail!("compile failed on a {}-state policy: {e}", policy.num_states()),
    };
    // Minimization correctness: the minimized table is no larger than
    // the raw subset-construction DFA and language-equivalent to it.
    match CompiledMonitor::without_minimization(&policy) {
        Ok(raw) => {
            if compiled.num_states() > raw.num_states() {
                fail!(
                    "minimized table has {} states, the raw DFA only {}",
                    compiled.num_states(),
                    raw.num_states()
                );
            }
            if !compiled.agrees_with(&raw) {
                fail!("minimization changed the verdict language");
            }
        }
        Err(e) => fail!("unminimized compile failed: {e}"),
    }
    // Three-way step differential: compiled vs subset-construction
    // Monitor vs the independent NFA-set reference, verdict for
    // verdict (including out-of-alphabet and post-violation symbols).
    let mut monitor = Monitor::new(&policy);
    let mut reference = SetStepper::new(&policy);
    let mut verdicts = Vec::with_capacity(symbols.len());
    for (i, &sym) in symbols.iter().enumerate() {
        let got = compiled.step(sym);
        let subset = monitor.step(sym);
        let want = reference.step(sym);
        if got != subset {
            fail!(
                "compiled diverges from Monitor at step {i} on {:?}: compiled={got:?} monitor={subset:?}",
                c.trace.get(i)
            );
        }
        if got != want {
            fail!(
                "compiled diverges from the NFA-set reference at step {i} on {:?}: compiled={got:?} reference={want:?}",
                c.trace.get(i)
            );
        }
        if got != compiled.verdict() {
            fail!("step() return and verdict() disagree at step {i}: {got:?} vs {:?}", compiled.verdict());
        }
        verdicts.push(got);
    }
    for pair in verdicts.windows(2) {
        if pair[0] != Verdict::Ok && pair[1] != pair[0] {
            fail!("settled verdict {:?} drifted to {:?}", pair[0], pair[1]);
        }
    }
    // run() twins: same verdict AND same settle position as Monitor.
    let word = Word::new(&symbols);
    let (final_verdict, consumed) = compiled.run(&word);
    let (monitor_verdict, monitor_consumed) = monitor.run(&word);
    if (final_verdict, consumed) != (monitor_verdict, monitor_consumed) {
        fail!(
            "compiled run ({final_verdict:?}, {consumed}) disagrees with Monitor run ({monitor_verdict:?}, {monitor_consumed})"
        );
    }
    let expected_final = verdicts.last().copied().unwrap_or_else(|| {
        CompiledMonitor::new(&policy).expect("compiled above").verdict()
    });
    if !symbols.is_empty() && final_verdict != expected_final {
        fail!("run() verdict {final_verdict:?} disagrees with stepped prefix {expected_final:?}");
    }
    if consumed > symbols.len() {
        fail!("run() consumed {consumed} symbols of a {}-symbol trace", symbols.len());
    }
    // Budgeted twin: both implementations under the same budget either
    // agree on the result or both exhaust.
    if let Some(steps) = c.budget {
        let budget = Budget::unlimited().with_steps(steps);
        let ours = compiled.run_with_budget(&word, &budget);
        let theirs = monitor.run_with_budget(&word, &budget);
        match (ours, theirs) {
            (Ok(a), Ok(b)) => {
                if a != b {
                    fail!("budgeted compiled run {a:?} disagrees with budgeted Monitor run {b:?}");
                }
                if a != (final_verdict, consumed) {
                    fail!("budgeted run {a:?} disagrees with unbudgeted ({final_verdict:?}, {consumed})");
                }
            }
            (Err(e1), Err(e2))
                if (e1.is_budget_exceeded() || e1.is_fault_injected())
                    && (e2.is_budget_exceeded() || e2.is_fault_injected()) =>
            {
                return Outcome::Accepted("monitor budget exhausted");
            }
            (Err(e), _) if !e.is_budget_exceeded() && !e.is_fault_injected() => {
                fail!("budgeted compiled run returned a non-budget error: {e}");
            }
            (a, b) => fail!("budget exhaustion asymmetry: compiled={a:?} monitor={b:?}"),
        }
    }
    Outcome::Pass
}

// ---------------------------------------------------------------------
// Oracle 6: daemon replay equivalence
// ---------------------------------------------------------------------

/// Error kinds that a budget, cancellation, or fault drill can
/// legitimately produce on one configuration but not another.
const DEGRADED_KINDS: [&str; 3] = ["budget_exceeded", "cancelled", "fault_injected"];

fn is_degraded(line: &str) -> bool {
    let Ok(doc) = sl_service::json::parse(line) else {
        return false;
    };
    let kind = doc
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    match kind {
        Some(kind) => DEGRADED_KINDS.contains(&kind),
        None => {
            // A batch reply is degraded if any item is.
            doc.get("result")
                .and_then(|r| r.get("items"))
                .and_then(Json::as_arr)
                .is_some_and(|items| {
                    items.iter().any(|item| {
                        item.get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                            .is_some_and(|k| DEGRADED_KINDS.contains(&k))
                    })
                })
        }
    }
}

fn replay(c: &SessionCase, threads: usize, cache_cap: usize) -> Vec<String> {
    let service = Service::new(ServiceConfig {
        fault: *fault::global(),
        threads,
        max_line: 1 << 20,
        cache_cap,
        ..ServiceConfig::default()
    });
    c.lines
        .iter()
        .map(|line| service.handle_line(line).line)
        .collect()
}

/// Whether a process-wide fault drill is running (the verify.sh
/// fault-injection stage sets `SL_FAULT_RATE` for the whole suite).
fn drill_active() -> bool {
    fault::global().is_enabled()
}

fn check_session(c: &SessionCase) -> Outcome {
    let baseline = replay(c, 1, 256);
    if baseline.len() != c.lines.len() {
        fail!(
            "daemon produced {} replies for {} requests",
            baseline.len(),
            c.lines.len()
        );
    }
    // Thread-count invariance and cache-on/off/cap-and-clear
    // equivalence. A line may differ only when one side degraded
    // (budget/cancel/fault) — a cache hit legitimately dodges a budget
    // that a recomputation blows.
    let drill_active = drill_active();
    // cache_cap 1 is "cache off": split over the caches' 8 stripes it
    // leaves each stripe a cap of 0, so nothing is stored and nothing
    // is ever served warm.
    for (threads, cache_cap) in [(2usize, 256usize), (4, 256), (2, 1)] {
        let variant = replay(c, threads, cache_cap);
        if variant.len() != baseline.len() {
            fail!(
                "variant (threads={threads}, cache_cap={cache_cap}) reply count {} != baseline {}",
                variant.len(),
                baseline.len()
            );
        }
        let same_cache = cache_cap == 256;
        for (i, (base, var)) in baseline.iter().zip(&variant).enumerate() {
            if base == var {
                continue;
            }
            let excusable = if same_cache {
                // Same cache shape, different thread count: replies are
                // contractually byte-identical unless a fault drill is
                // active (worker-indexed fault sites move with the
                // schedule).
                drill_active && (is_degraded(base) || is_degraded(var))
            } else {
                is_degraded(base) || is_degraded(var)
            };
            if !excusable {
                fail!(
                    "variant (threads={threads}, cache_cap={cache_cap}) differs at line {i}:\n  base: {base}\n  var:  {var}"
                );
            }
        }
    }
    // Metamorphic link back to the offline engine: classify replies
    // for LTL-defined targets must match `classify_formula`.
    if let Some(msg) = cross_check_classify(c, &baseline) {
        return Outcome::Fail(msg);
    }
    Outcome::Pass
}

/// Cross-checks every successful `classify` reply whose target was
/// defined via LTL against the offline `classify_formula`.
fn cross_check_classify(c: &SessionCase, replies: &[String]) -> Option<String> {
    let mut defined: Vec<(String, Alphabet, sl_ltl::Ltl)> = Vec::new();
    for (line, reply) in c.lines.iter().zip(replies) {
        let Ok(doc) = sl_service::json::parse(line) else {
            continue;
        };
        let verb = doc.get("verb").and_then(Json::as_str);
        if verb == Some("define") {
            let (Some(name), Some(ltl), Some(alpha)) = (
                doc.get("name").and_then(Json::as_str),
                doc.get("ltl").and_then(Json::as_str),
                doc.get("alphabet").and_then(Json::as_arr),
            ) else {
                continue;
            };
            // Only index definitions the daemon actually accepted.
            let Ok(reply_doc) = sl_service::json::parse(reply) else {
                continue;
            };
            if reply_doc.get("ok").and_then(Json::as_bool) != Some(true) {
                continue;
            }
            let names: Vec<&str> = alpha.iter().filter_map(Json::as_str).collect();
            let alphabet = Alphabet::new(&names);
            let Ok(formula) = sl_ltl::parse(&alphabet, ltl) else {
                continue;
            };
            defined.retain(|(n, _, _)| n != name);
            defined.push((name.to_string(), alphabet, formula));
            continue;
        }
        if verb != Some("classify") {
            continue;
        }
        let Some(target) = doc.get("target").and_then(Json::as_str) else {
            continue;
        };
        let Some((_, alphabet, formula)) = defined.iter().find(|(n, _, _)| n == target) else {
            continue;
        };
        let Ok(reply_doc) = sl_service::json::parse(reply) else {
            continue;
        };
        let Some(got) = reply_doc
            .get("result")
            .and_then(|r| r.get("class"))
            .and_then(Json::as_str)
        else {
            continue; // error reply (budget, fault, …): nothing to diff
        };
        let want = match classify_formula(alphabet, formula) {
            sl_buchi::Classification::Safety => "safety",
            sl_buchi::Classification::Liveness => "liveness",
            sl_buchi::Classification::Both => "both",
            sl_buchi::Classification::Neither => "neither",
        };
        if got != want {
            return Some(format!(
                "daemon classified `{target}` as {got}, offline classify_formula says {want}"
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Oracle 7: crash-recovery equivalence
// ---------------------------------------------------------------------

/// Whether the daemon journals this request line ahead of dispatch.
/// Mirrors the engine's rule exactly: the line must build a [`Request`]
/// (malformed lines are answered, never journaled) and carry a
/// state-mutating verb.
fn is_journaled_line(line: &str) -> bool {
    match sl_service::parse_request(line) {
        Ok(req) => matches!(req.verb, Verb::Define | Verb::Decompose | Verb::MonitorStep),
        Err(_) => false,
    }
}

/// A fresh scratch directory for one recovery. The process id plus a
/// process-wide counter keeps parallel test binaries and drill
/// iterations apart.
fn fresh_dir(tag: &str) -> Result<std::path::PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sl-crash-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Chops one byte off the highest-epoch journal in `dir`, forging the
/// on-disk signature of a crash mid-`write`.
fn truncate_active_journal(dir: &std::path::Path) -> Result<(), String> {
    let mut active: Option<(u64, std::path::PathBuf)> = None;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let epoch = name
            .strip_prefix("journal-")
            .and_then(|rest| rest.strip_suffix(".slj"))
            .and_then(|g| g.parse::<u64>().ok());
        if let Some(g) = epoch {
            if active.as_ref().is_none_or(|(best, _)| g > *best) {
                active = Some((g, entry.path()));
            }
        }
    }
    let (_, path) = active.ok_or("no journal file to truncate")?;
    let len = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    if len == 0 {
        return Err(format!("journal {} is unexpectedly empty", path.display()));
    }
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_len(len - 1))
        .map_err(|e| format!("cannot truncate {}: {e}", path.display()))
}

/// The deterministic crash drill behind the `crash` oracle (public so
/// the repo-level recovery test drives 200+-request sessions through
/// it).
///
/// An uninterrupted non-persistent twin answers every line first. Then
/// for every journal record boundary `k` the drill runs a persistent
/// daemon over the prefix holding `k` records, drops it cold (no
/// drain — the write-ahead journal is all that survives), recovers a
/// successor from the directory, and requires the successor's answers
/// for the remaining lines to be byte-identical to the twin's. A
/// second pass re-runs every kill point with the journal truncated
/// mid-record: the damaged record's request must be lost (unless a
/// snapshot already absorbed it) and everything before it kept.
///
/// # Errors
///
/// A human-readable divergence description naming the kill point and
/// the first differing line.
pub fn crash_drill(lines: &[String], snapshot_every: u64) -> Result<(), String> {
    let config = || ServiceConfig {
        fault: FaultPlan::disabled(),
        ..ServiceConfig::default()
    };
    let twin = Service::new(config());
    let twin_replies: Vec<String> = lines.iter().map(|l| twin.handle_line(l).line).collect();
    let muts: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, line)| is_journaled_line(line))
        .map(|(i, _)| i)
        .collect();

    // Pass 1: kill at every record boundary (k journal records on
    // disk, the journal file otherwise intact).
    for k in 0..=muts.len() {
        let cut = if k == muts.len() { lines.len() } else { muts[k] };
        let dir = fresh_dir("boundary")?;
        let persist = PersistConfig {
            dir: dir.clone(),
            snapshot_every,
        };
        let result = (|| {
            let doomed = Service::with_persistence(config(), &persist)
                .map_err(|e| format!("boundary {k}: first open failed: {e}"))?;
            for (i, line) in lines[..cut].iter().enumerate() {
                let got = doomed.handle_line(line).line;
                if got != twin_replies[i] {
                    return Err(format!(
                        "boundary {k}: persistent daemon diverges from twin at line {i} before any crash:\n  twin: {}\n  got:  {got}",
                        twin_replies[i]
                    ));
                }
            }
            drop(doomed); // crash: journal only, no drain
            let recovered = Service::with_persistence(config(), &persist)
                .map_err(|e| format!("boundary {k}: recovery failed: {e}"))?;
            for (i, line) in lines[cut..].iter().enumerate() {
                let got = recovered.handle_line(line).line;
                if got != twin_replies[cut + i] {
                    return Err(format!(
                        "boundary {k}: recovered daemon diverges at line {}:\n  twin: {}\n  got:  {got}",
                        cut + i,
                        twin_replies[cut + i]
                    ));
                }
            }
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }

    // Pass 2: kill mid-record. The daemon journaled record k+1 and
    // dispatched it, but the record's tail never hit the disk: the
    // recovered daemon must have forgotten exactly that request —
    // unless a snapshot rotation already absorbed it, in which case
    // chopping a byte only grazes the fresh journal's magic.
    for (k, &mutation) in muts.iter().enumerate() {
        let cut = mutation + 1;
        let absorbed = snapshot_every > 0 && (k as u64 + 1) % snapshot_every == 0;
        let resume = if absorbed { cut } else { mutation };
        let dir = fresh_dir("midrec")?;
        let persist = PersistConfig {
            dir: dir.clone(),
            snapshot_every,
        };
        let result = (|| {
            let doomed = Service::with_persistence(config(), &persist)
                .map_err(|e| format!("midrec {k}: first open failed: {e}"))?;
            for line in &lines[..cut] {
                doomed.handle_line(line);
            }
            drop(doomed);
            truncate_active_journal(&dir).map_err(|e| format!("midrec {k}: {e}"))?;
            let recovered = Service::with_persistence(config(), &persist)
                .map_err(|e| format!("midrec {k}: recovery failed: {e}"))?;
            let notes = recovered.take_recovery_notes();
            if !absorbed && !notes.iter().any(|n| n.contains("truncated")) {
                return Err(format!(
                    "midrec {k}: a truncated journal recovered without a truncation note: {notes:?}"
                ));
            }
            for (i, line) in lines[resume..].iter().enumerate() {
                let got = recovered.handle_line(line).line;
                if got != twin_replies[resume + i] {
                    return Err(format!(
                        "midrec {k}: recovered daemon diverges at line {}:\n  twin: {}\n  got:  {got}",
                        resume + i,
                        twin_replies[resume + i]
                    ));
                }
            }
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
    Ok(())
}

fn check_crash(c: &CrashCase) -> Outcome {
    let clients = c.clients.max(1) as usize;
    if clients > 1 {
        // Transcript independence: the interleaved run (one shared
        // daemon answering line i for client i mod k) must give each
        // client exactly the replies a solo run of its sub-session
        // gives — concurrent clients over disjoint names cannot
        // observe each other. This is the multi-client half of the
        // tentpole guarantee; the crash drill below then holds the
        // *interleaved journal* to recovery byte-identity.
        let config = || ServiceConfig {
            fault: FaultPlan::disabled(),
            ..ServiceConfig::default()
        };
        let shared = Service::new(config());
        let interleaved: Vec<String> =
            c.lines.iter().map(|l| shared.handle_line(l).line).collect();
        for j in 0..clients {
            let solo = Service::new(config());
            for (i, line) in c.lines.iter().enumerate() {
                if i % clients != j {
                    continue;
                }
                let got = solo.handle_line(line).line;
                if got != interleaved[i] {
                    fail!(
                        "client {j} of {clients}: interleaved reply at line {i} differs from a solo run:\n  solo:        {got}\n  interleaved: {}",
                        interleaved[i]
                    );
                }
            }
        }
    }
    match crash_drill(&c.lines, c.snapshot_every) {
        Ok(()) => Outcome::Pass,
        Err(msg) => Outcome::Fail(msg),
    }
}

// ---------------------------------------------------------------------
// Oracle 8: LT-PDR vs exact reachability / direct lasso search
// ---------------------------------------------------------------------

/// Edge membership over raw successor lists — the oracle's certificate
/// replay deliberately never touches the engine's lattice ops or the
/// `Kripke` accessors it was handed.
fn pdr_edge(succ: &[Vec<usize>], s: usize, t: usize) -> bool {
    s < succ.len() && succ[s].contains(&t)
}

/// Replays a Safe invariant over raw successor lists: contains the
/// initial state, closed under every edge, disjoint from bad.
fn pdr_replay_invariant(
    succ: &[Vec<usize>],
    initial: usize,
    bad: &[usize],
    invariant: &Bitset,
) -> Result<(), String> {
    if invariant.universe() != succ.len() {
        return Err(format!(
            "invariant universe {} does not match {} states",
            invariant.universe(),
            succ.len()
        ));
    }
    if !invariant.contains(initial) {
        return Err(format!("invariant misses the initial state {initial}"));
    }
    for s in invariant.iter() {
        for &t in &succ[s] {
            if !invariant.contains(t) {
                return Err(format!("invariant not closed under edge {s} -> {t}"));
            }
        }
    }
    for &b in bad {
        if invariant.contains(b) {
            return Err(format!("invariant contains bad state {b}"));
        }
    }
    Ok(())
}

/// Replays an Unsafe trace over raw successor lists: starts at the
/// initial state, every step is an edge, ends bad.
fn pdr_replay_trace(
    succ: &[Vec<usize>],
    initial: usize,
    bad: &[usize],
    trace: &[usize],
) -> Result<(), String> {
    let Some(&first) = trace.first() else {
        return Err("empty trace".into());
    };
    if first != initial {
        return Err(format!("trace starts at {first}, not the initial state"));
    }
    for w in trace.windows(2) {
        if !pdr_edge(succ, w[0], w[1]) {
            return Err(format!("no edge {} -> {}", w[0], w[1]));
        }
    }
    let last = *trace.last().expect("nonempty");
    if !bad.contains(&last) {
        return Err(format!("trace ends at {last}, which is not bad"));
    }
    Ok(())
}

/// Replays a lasso over raw successor lists: the stem runs from the
/// initial state to the loop entry, the loop continues from the
/// entry's successor back to the entry and visits a bad state.
fn pdr_replay_lasso(
    succ: &[Vec<usize>],
    initial: usize,
    bad: &[usize],
    stem: &[usize],
    looping: &[usize],
) -> Result<(), String> {
    let Some(&first) = stem.first() else {
        return Err("empty stem".into());
    };
    if first != initial {
        return Err(format!("stem starts at {first}, not the initial state"));
    }
    for w in stem.windows(2) {
        if !pdr_edge(succ, w[0], w[1]) {
            return Err(format!("no stem edge {} -> {}", w[0], w[1]));
        }
    }
    let entry = *stem.last().expect("nonempty");
    let Some(&loop_head) = looping.first() else {
        return Err("empty loop".into());
    };
    if !pdr_edge(succ, entry, loop_head) {
        return Err(format!("no edge {entry} -> {loop_head} into the loop"));
    }
    for w in looping.windows(2) {
        if !pdr_edge(succ, w[0], w[1]) {
            return Err(format!("no loop edge {} -> {}", w[0], w[1]));
        }
    }
    if *looping.last().expect("nonempty") != entry {
        return Err(format!("loop does not return to its entry {entry}"));
    }
    if !looping.iter().any(|s| bad.contains(s)) {
        return Err("loop visits no bad state".into());
    }
    Ok(())
}

/// The LT-PDR oracle. Differential: the engine's `AG !bad` verdict
/// must match exact BFS reachability ([`bmc_safety`]) and its
/// `FG !bad` verdict the direct lasso search ([`bmc_lasso`]) — neither
/// reference shares a line of code with the frame/obligation engine.
/// Every certificate is then replayed here over the raw successor
/// lists, so a verdict can only pass with a machine-checked witness.
/// Budget exhaustion (and injected faults) are accepted; a wrong
/// answer never is.
fn check_pdr(c: &PdrCase) -> Outcome {
    let n = c.succ.len();
    if n == 0 {
        fail!("case corrupt: no states");
    }
    for (s, outs) in c.succ.iter().enumerate() {
        if outs.is_empty() {
            fail!("case corrupt: state {s} has no successor (relation must be total)");
        }
    }
    // Indices are interpreted modulo the state count, so shrinking the
    // state set never invalidates a case.
    let succ: Vec<Vec<usize>> = c
        .succ
        .iter()
        .map(|outs| outs.iter().map(|&t| t % n).collect())
        .collect();
    let initial = c.initial % n;
    let mut bad: Vec<usize> = c.bad.iter().map(|&b| b % n).collect();
    bad.sort_unstable();
    bad.dedup();
    let sigma = Alphabet::ab();
    let a_sym = sigma.symbol("a").expect("in alphabet");
    let b_sym = sigma.symbol("b").expect("in alphabet");
    let labels: Vec<Symbol> = (0..n)
        .map(|s| if bad.binary_search(&s).is_ok() { b_sym } else { a_sym })
        .collect();
    let kripke = Kripke::new(sigma, labels, succ.clone(), initial);
    let budget = c.budget.map_or_else(Budget::unlimited, |steps| {
        Budget::unlimited().with_steps(steps)
    });
    if c.liveness {
        let run = match check_liveness(&kripke, &bad, &budget) {
            Ok(run) => run,
            Err(e) if e.is_budget_exceeded() || e.is_fault_injected() => {
                return Outcome::Accepted("pdr budget exhausted");
            }
            Err(e) => fail!("k-liveness returned a non-budget error: {e}"),
        };
        let reference = bmc_lasso(&kripke, &bad);
        match run.verdict {
            LivenessVerdict::Live { k, invariant } => {
                if let Some((stem, looping)) = reference {
                    fail!(
                        "engines disagree on FG !bad: pdr=Live at k={k}, lasso search found stem {stem:?} loop {looping:?}"
                    );
                }
                if k > bad.len() {
                    fail!("k bound {k} exceeds the pigeonhole bound {}", bad.len());
                }
                // The Live certificate lives on the counter-augmented
                // product; rebuild it and replay inductiveness there.
                let product = counter_product(&kripke, &bad, k + 1);
                let psucc: Vec<Vec<usize>> = (0..product.kripke.len())
                    .map(|s| product.kripke.successors(s).to_vec())
                    .collect();
                if let Err(msg) = pdr_replay_invariant(
                    &psucc,
                    product.kripke.initial(),
                    &product.bad,
                    &invariant,
                ) {
                    fail!("Live certificate fails product replay at k={k}: {msg}");
                }
            }
            LivenessVerdict::Lasso { stem, looping } => {
                if reference.is_none() {
                    fail!(
                        "engines disagree on FG !bad: pdr found lasso stem {stem:?} loop {looping:?}, direct search says live"
                    );
                }
                if let Err(msg) = pdr_replay_lasso(&succ, initial, &bad, &stem, &looping) {
                    fail!("Lasso certificate fails replay: {msg}");
                }
            }
        }
    } else {
        let run = match check_safety(&kripke, &bad, &budget) {
            Ok(run) => run,
            Err(e) if e.is_budget_exceeded() || e.is_fault_injected() => {
                return Outcome::Accepted("pdr budget exhausted");
            }
            Err(e) => fail!("pdr returned a non-budget error: {e}"),
        };
        let reference = bmc_safety(&kripke, &bad);
        let pdr_safe = matches!(run.verdict, SafetyVerdict::Safe { .. });
        let bmc_safe = matches!(reference, SafetyVerdict::Safe { .. });
        if pdr_safe != bmc_safe {
            fail!(
                "engines disagree on AG !bad: pdr says {}, exact BFS says {}",
                if pdr_safe { "safe" } else { "unsafe" },
                if bmc_safe { "safe" } else { "unsafe" }
            );
        }
        match run.verdict {
            SafetyVerdict::Safe { invariant } => {
                if let Err(msg) = pdr_replay_invariant(&succ, initial, &bad, &invariant) {
                    fail!("Safe certificate fails replay: {msg}");
                }
            }
            SafetyVerdict::Unsafe { trace } => {
                if let Err(msg) = pdr_replay_trace(&succ, initial, &bad, &trace) {
                    fail!("Unsafe certificate fails replay: {msg}");
                }
            }
        }
    }
    Outcome::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use sl_support::prop::case_rng;

    /// A small smoke sweep: every oracle passes (or budget-accepts) its
    /// own generated cases.
    #[test]
    fn oracles_accept_generated_cases() {
        for oracle in ORACLES {
            for case in 0..12u32 {
                let c = gen::gen_case(oracle, &mut case_rng(2003, oracle, case));
                match check(&c) {
                    Outcome::Fail(msg) => {
                        panic!("oracle {oracle} rejected its own case {case}: {msg}\n{}", c.to_line())
                    }
                    Outcome::Pass | Outcome::Accepted(_) => {}
                }
            }
        }
    }

    #[test]
    fn incl_oracle_validates_counterexamples() {
        // Σ^ω ⊆ (only a)^ω must yield a counterexample both engines
        // validate.
        let sigma = Alphabet::ab();
        let mut all = sl_buchi::BuchiBuilder::new(sigma.clone());
        let q = all.add_state(true);
        for sym in sigma.symbols() {
            all.add_transition(q, sym, q);
        }
        let all = all.build(q);
        let mut only_a = sl_buchi::BuchiBuilder::new(sigma.clone());
        let p = only_a.add_state(true);
        only_a.add_transition(p, sigma.symbol("a").unwrap(), p);
        let only_a = only_a.build(p);
        let case = InclCase {
            left: hoa::to_hoa(&all, "all"),
            right: hoa::to_hoa(&only_a, "onlya"),
            budget: None,
        };
        assert_eq!(check_incl(&case), Outcome::Pass);
    }

    #[test]
    fn lattice_oracle_accepts_figure_shapes_in_recipes() {
        // An M3 factor exercises the Theorem 7 refusal path.
        let case = LatticeCase {
            factors: vec![crate::case::Factor::M3],
            fix2: vec![1],
            extra1: vec![2],
        };
        assert_eq!(check_lattice(&case), Outcome::Pass);
        // A purely Boolean recipe exercises the distributive path.
        let case = LatticeCase {
            factors: vec![crate::case::Factor::Boolean(3)],
            fix2: vec![5],
            extra1: vec![3],
        };
        assert_eq!(check_lattice(&case), Outcome::Pass);
    }

    #[test]
    fn monitor_oracle_rejects_nothing_on_handwritten_traces() {
        let sigma = Alphabet::ab();
        let mut b = sl_buchi::BuchiBuilder::new(sigma.clone());
        let q = b.add_state(true);
        b.add_transition(q, sigma.symbol("a").unwrap(), q);
        let b = b.build(q); // safety: a^ω
        let case = MonitorCase {
            policy: hoa::to_hoa(&b, "ga"),
            trace: vec!["a".into(), "b".into(), "a".into(), "zz".into()],
            budget: Some(100),
        };
        assert_eq!(check_monitor(&case), Outcome::Pass);
    }

    #[test]
    fn compiled_oracle_accepts_handwritten_traces() {
        let sigma = Alphabet::ab();
        let mut b = sl_buchi::BuchiBuilder::new(sigma.clone());
        let q = b.add_state(true);
        b.add_transition(q, sigma.symbol("a").unwrap(), q);
        let b = b.build(q); // safety: a^ω
        let case = MonitorCase {
            policy: hoa::to_hoa(&b, "ga"),
            trace: vec!["a".into(), "zz".into(), "b".into(), "a".into()],
            budget: Some(100),
        };
        assert_eq!(check_compiled(&case), Outcome::Pass);
    }

    #[test]
    fn crash_oracle_accepts_a_handwritten_session() {
        let lines: Vec<String> = [
            r#"{"id":1,"verb":"define","name":"p0","ltl":"G a","alphabet":["a","b"]}"#,
            r#"{"id":2,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["a","a"]}"#,
            r#"{"id":3,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["b"]}"#,
            r#"{"id":4,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["a"]}"#,
            r#"{"id":5,"verb":"decompose","target":"p0"}"#,
            r#"{"id":6,"verb":"classify","target":"p0.safety"}"#,
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        // The violation at line 3 must stay sticky across every kill
        // point, including restarts landing between lines 3 and 4.
        for snapshot_every in [0u64, 1, 2] {
            crash_drill(&lines, snapshot_every).unwrap();
        }
    }

    #[test]
    fn crash_drill_names_the_kill_point_on_divergence() {
        // A `stats` line makes recovered and twin replies legitimately
        // differ (the recovered daemon reports persistence metrics), so
        // the drill must fail — proving it actually diffs bytes.
        let lines: Vec<String> = vec![
            r#"{"id":1,"verb":"define","name":"p0","ltl":"G a","alphabet":["a","b"]}"#.to_string(),
            r#"{"id":2,"verb":"stats"}"#.to_string(),
        ];
        let err = crash_drill(&lines, 0).unwrap_err();
        assert!(err.contains("boundary"), "{err}");
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn pdr_oracle_judges_handwritten_cases() {
        // Safe: 0 <-> 1 with a fenced bad state 2.
        let safe = PdrCase {
            succ: vec![vec![1], vec![0], vec![2]],
            initial: 0,
            bad: vec![2],
            liveness: false,
            budget: None,
        };
        assert_eq!(check_pdr(&safe), Outcome::Pass);
        // Unsafe: bad sink one step away.
        let falsified = PdrCase {
            succ: vec![vec![1], vec![1]],
            initial: 0,
            bad: vec![1],
            liveness: false,
            budget: None,
        };
        assert_eq!(check_pdr(&falsified), Outcome::Pass);
        // Liveness refuted by a reachable bad cycle.
        let lasso = PdrCase {
            succ: vec![vec![1], vec![2], vec![1]],
            initial: 0,
            bad: vec![2],
            liveness: true,
            budget: None,
        };
        assert_eq!(check_pdr(&lasso), Outcome::Pass);
        // A one-step budget exhausts without a verdict: accepted.
        let budgeted = PdrCase {
            succ: vec![vec![1], vec![2], vec![3], vec![4], vec![4]],
            initial: 0,
            bad: vec![4],
            liveness: false,
            budget: Some(1),
        };
        assert!(matches!(check_pdr(&budgeted), Outcome::Accepted(_)));
    }

    #[test]
    fn session_oracle_handles_malformed_lines() {
        let case = SessionCase {
            lines: vec![
                "{not json".into(),
                "{\"id\":1,\"verb\":\"classify\",\"target\":\"ghost\"}".into(),
            ],
        };
        assert_eq!(check_session(&case), Outcome::Pass);
    }
}
