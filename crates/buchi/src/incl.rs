//! Language inclusion, equivalence, and universality.
//!
//! One production engine and one independent oracle decide all three
//! questions:
//!
//! * [`included`] (defined in [`crate::antichain`]), [`equivalent`], and
//!   [`universal`] run the on-the-fly antichain search: it looks for a
//!   counterexample lasso over word-graphs of the right operand,
//!   expanding macro-states lazily, with operand quotients taken from
//!   the caller's [`QuotientCache`]. A budget is a plain parameter: with
//!   `None` the search is capped at
//!   [`crate::DEFAULT_ANTICHAIN_BUDGET`] insertion attempts and consults
//!   no fault site; with `Some` it is metered (and fault-drillable) at
//!   phase `"buchi.incl.antichain"`.
//! * [`included_rank`], [`equivalent_rank`], and [`universal_rank`] are
//!   the oracle: they reduce to emptiness through rank-based
//!   complementation (`L(A) ⊆ L(B)` iff `L(A) ∩ ¬L(B) = ∅`), uncached,
//!   so the differential suites compare the engine against a
//!   construction that shares none of its machinery. When `B` is
//!   all-accepting the cheap subset-construction complement is used
//!   automatically. [`included_with_complement`] serves callers that
//!   already hold a complement automaton.

use crate::antichain::included;
use crate::automaton::Buchi;
use crate::complement::{complement, ComplementBudgetExceeded};
use crate::empty::{find_accepted_word, is_empty};
use crate::interned::QuotientCache;
use crate::ops::intersection;
use sl_omega::LassoWord;
use sl_support::{Budget, SlError};

/// The outcome of an inclusion check: either inclusion holds, or a
/// counterexample word in `L(A) \ L(B)` is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inclusion {
    /// `L(A) ⊆ L(B)`.
    Holds,
    /// A word accepted by `A` but not by `B`.
    CounterExample(LassoWord),
}

impl Inclusion {
    /// Whether inclusion holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, Inclusion::Holds)
    }
}

/// `included(a, b, cache, None)` with the cache first — kept because
/// the `sldbench` load generator calls it by this name.
///
/// # Errors
///
/// As for [`included`] without a budget.
pub fn included_onthefly_with_cache(
    cache: &QuotientCache,
    a: &Buchi,
    b: &Buchi,
) -> Result<Inclusion, SlError> {
    included(a, b, cache, None)
}

/// Decides `L(a) = L(b)`, returning a word on which they differ if not.
/// Short-circuits: a counterexample to the first inclusion settles the
/// question before the second direction runs. One `budget` is shared
/// across both directions.
///
/// # Errors
///
/// Whatever [`included`] reports for either direction.
pub fn equivalent(
    a: &Buchi,
    b: &Buchi,
    cache: &QuotientCache,
    budget: Option<&Budget>,
) -> Result<Result<(), LassoWord>, SlError> {
    if let Inclusion::CounterExample(w) = included(a, b, cache, budget)? {
        return Ok(Err(w));
    }
    if let Inclusion::CounterExample(w) = included(b, a, cache, budget)? {
        return Ok(Err(w));
    }
    Ok(Ok(()))
}

/// Decides `L(b) = Σ^ω`, returning a rejected word if not.
///
/// # Errors
///
/// As for [`included`].
pub fn universal(
    b: &Buchi,
    cache: &QuotientCache,
    budget: Option<&Budget>,
) -> Result<Result<(), LassoWord>, SlError> {
    let all = Buchi::universal(b.alphabet().clone());
    Ok(match included(&all, b, cache, budget)? {
        Inclusion::Holds => Ok(()),
        Inclusion::CounterExample(w) => Err(w),
    })
}

/// The oracle for [`included`]: complement `b` with the rank-based
/// construction and test `L(a) ∩ ¬L(b)` for emptiness.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`] if complementing `b` blows
/// up.
pub fn included_rank(a: &Buchi, b: &Buchi) -> Result<Inclusion, ComplementBudgetExceeded> {
    Ok(included_with_complement(a, &complement(b)?))
}

/// Decides `L(a) ⊆ L(b)` given an automaton `not_b` for the complement
/// of `b`: inclusion holds iff `L(a) ∩ L(not_b) = ∅`. This sidesteps
/// the exponential complementation when the caller has a cheap
/// complement (negated formula, subset-construction complement of a
/// safety automaton, ...).
#[must_use]
pub fn included_with_complement(a: &Buchi, not_b: &Buchi) -> Inclusion {
    match find_accepted_word(&intersection(a, not_b)) {
        None => Inclusion::Holds,
        Some(w) => Inclusion::CounterExample(w),
    }
}

/// The oracle for [`equivalent`]; short-circuits on the first
/// counterexample, so `¬a` is never built when `L(a) ⊄ L(b)`.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn equivalent_rank(
    a: &Buchi,
    b: &Buchi,
) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    if let Inclusion::CounterExample(w) = included_rank(a, b)? {
        return Ok(Err(w));
    }
    if let Inclusion::CounterExample(w) = included_rank(b, a)? {
        return Ok(Err(w));
    }
    Ok(Ok(()))
}

/// The oracle for [`universal`]: complement and test for emptiness.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn universal_rank(b: &Buchi) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    Ok(match find_accepted_word(&complement(b)?) {
        None => Ok(()),
        Some(w) => Err(w),
    })
}

/// Convenience: emptiness re-exported next to its siblings.
#[must_use]
pub fn empty(b: &Buchi) -> bool {
    is_empty(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antichain::DEFAULT_ANTICHAIN_BUDGET;
    use crate::automaton::BuchiBuilder;
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

    /// Accepts a^ω only.
    fn only_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        builder.add_transition(q0, a, q0);
        builder.build(q0)
    }

    #[test]
    fn inclusion_holds_for_subset() {
        let s = sigma();
        // a^ω ⊆ GF a.
        let inc = included(&only_a(&s), &inf_a(&s), &QuotientCache::new(), None).unwrap();
        assert!(inc.holds());
    }

    #[test]
    fn inclusion_counterexample_is_genuine() {
        let s = sigma();
        // GF a ⊄ {a^ω}: counterexample must be accepted by GF a, not a^ω.
        let inc = included(&inf_a(&s), &only_a(&s), &QuotientCache::new(), None).unwrap();
        match inc {
            Inclusion::CounterExample(w) => {
                assert!(inf_a(&s).accepts(&w));
                assert!(!only_a(&s).accepts(&w));
            }
            Inclusion::Holds => panic!("inclusion should fail"),
        }
    }

    #[test]
    fn equivalence_of_identical_machines() {
        let s = sigma();
        let cache = QuotientCache::new();
        assert!(equivalent(&inf_a(&s), &inf_a(&s), &cache, None).unwrap().is_ok());
    }

    #[test]
    fn equivalence_failure_produces_separator() {
        let s = sigma();
        let all = Buchi::universal(s.clone());
        let w = equivalent(&inf_a(&s), &all, &QuotientCache::new(), None)
            .unwrap()
            .unwrap_err();
        // The separator is accepted by exactly one of the two.
        assert_ne!(inf_a(&s).accepts(&w), all.accepts(&w));
    }

    #[test]
    fn universality() {
        let s = sigma();
        let cache = QuotientCache::new();
        assert!(universal(&Buchi::universal(s.clone()), &cache, None)
            .unwrap()
            .is_ok());
        let rejected = universal(&inf_a(&s), &cache, None).unwrap().unwrap_err();
        assert!(!inf_a(&s).accepts(&rejected));
    }

    #[test]
    fn empty_helper() {
        let s = sigma();
        assert!(empty(&Buchi::empty_language(s.clone())));
        assert!(!empty(&Buchi::universal(s)));
    }

    #[test]
    fn engine_agrees_with_rank_oracle() {
        let s = sigma();
        let (a, b) = (only_a(&s), inf_a(&s));
        let cache = QuotientCache::new();
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(
                included(x, y, &cache, None).unwrap().holds(),
                included_rank(x, y).unwrap().holds()
            );
            assert_eq!(
                equivalent(x, y, &cache, None).unwrap().is_ok(),
                equivalent_rank(x, y).unwrap().is_ok()
            );
            assert_eq!(
                universal(x, &cache, None).unwrap().is_ok(),
                universal_rank(x).unwrap().is_ok()
            );
        }
    }

    #[test]
    fn equivalent_rank_short_circuits_on_first_counterexample() {
        // Σ^ω on a 65-state cycle: one state past what the rank-based
        // complement accepts, so complementing it panics. L(big) ⊄
        // L(inf_a), and the first direction only complements inf_a; the
        // call returns a separator only if it stops there.
        let s = sigma();
        let mut builder = BuchiBuilder::new(s.clone());
        let ids: Vec<usize> = (0..65).map(|_| builder.add_state(true)).collect();
        for q in 0..65 {
            for sym in s.symbols() {
                builder.add_transition(ids[q], sym, ids[(q + 1) % 65]);
            }
        }
        let big = builder.build(ids[0]);
        assert_eq!(big.num_states(), 65);
        let w = equivalent_rank(&big, &inf_a(&s)).unwrap().unwrap_err();
        assert!(big.accepts(&w) && !inf_a(&s).accepts(&w));
    }

    /// `states` states in an `a`-cycle, `b` jumping from every state to
    /// every state, only state 0 accepting. No state simulates another
    /// (following `a` from distinct states reaches the accepting state
    /// at distinct times), so the quotient keeps every state and every
    /// `(from, to)` pair carries its own antichain.
    fn counter_with_jumps(s: &Alphabet, states: usize) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let ids: Vec<usize> = (0..states).map(|q| builder.add_state(q == 0)).collect();
        for q in 0..states {
            builder.add_transition(ids[q], a, ids[(q + 1) % states]);
            for &r in &ids {
                builder.add_transition(ids[q], b, r);
            }
        }
        builder.build(ids[0])
    }

    #[test]
    fn unbudgeted_search_past_the_default_cap_reports_phase_and_spend() {
        // Each of the 64² committed (from, to) elements extends over 65
        // successors — ~266k insertion attempts, twice the default cap.
        let s = sigma();
        let a = counter_with_jumps(&s, 64);
        let cache = QuotientCache::new();
        assert_eq!(cache.quotient(&a).num_states(), 64, "simulation must not collapse it");
        let err = included(&a, &Buchi::universal(s.clone()), &cache, None).unwrap_err();
        assert_eq!(
            err,
            SlError::BudgetExceeded {
                phase: "buchi.incl.antichain",
                spent: DEFAULT_ANTICHAIN_BUDGET as u64 + 1,
            }
        );
        assert_eq!(
            err.to_string(),
            "budget exceeded in buchi.incl.antichain after 131073 steps"
        );
    }

    #[test]
    fn budgeted_inclusion_matches_unbudgeted() {
        let s = sigma();
        let (a, b) = (only_a(&s), inf_a(&s));
        let cache = QuotientCache::new();
        match included(&a, &b, &cache, Some(&Budget::unlimited())) {
            Ok(inc) => assert_eq!(inc, included(&a, &b, &cache, None).unwrap()),
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }

    #[test]
    fn budgeted_inclusion_respects_step_limit() {
        let s = sigma();
        let strict = Budget::unlimited().with_steps(1);
        let err = included(&only_a(&s), &inf_a(&s), &QuotientCache::new(), Some(&strict))
            .unwrap_err();
        assert!(
            err.root().is_budget_exceeded() || err.root().is_fault_injected(),
            "{err}"
        );
    }

    #[test]
    fn budgeted_equivalence_finds_separator() {
        let s = sigma();
        let all = Buchi::universal(s.clone());
        let budget = Budget::unlimited();
        match equivalent(&inf_a(&s), &all, &QuotientCache::new(), Some(&budget)) {
            Ok(verdict) => {
                let w = verdict.unwrap_err();
                assert_ne!(inf_a(&s).accepts(&w), all.accepts(&w));
            }
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }
}
