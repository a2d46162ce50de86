//! State-space reduction by direct simulation.
//!
//! Direct simulation for Büchi automata: `q ≤ r` iff (`q` accepting
//! implies `r` accepting) and every `σ`-successor of `q` is simulated by
//! some `σ`-successor of `r`. Quotienting by mutual direct simulation
//! (`q ≤ r ≤ q`) preserves the language, and pruning transitions to
//! simulation-dominated successors preserves it too. Reduction keeps
//! the closure/complement constructions downstream small — which
//! matters, since their costs are exponential in the state count.

use crate::automaton::{Buchi, BuchiBuilder, StateId};
use sl_lattice::Bitset;
use sl_omega::Symbol;

/// Per-(state, symbol) successor sets, fixed for the whole refinement.
pub(crate) fn successor_sets(b: &Buchi) -> Vec<Vec<Bitset>> {
    let n = b.num_states();
    let syms: Vec<Symbol> = b.alphabet().symbols().collect();
    (0..n)
        .map(|q| {
            syms.iter()
                .map(|&sym| Bitset::from_indices(n, b.successors(q, sym)))
                .collect()
        })
        .collect()
}

/// The acceptance-consistent complete relation — the top element of
/// the refinement: `rows[q] = F_B` for accepting `q`, everything
/// otherwise.
pub(crate) fn initial_rows(b: &Buchi) -> Vec<Bitset> {
    let n = b.num_states();
    let accepting = Bitset::from_indices(
        n,
        &(0..n).filter(|&q| b.is_accepting(q)).collect::<Vec<_>>(),
    );
    let full = Bitset::full(n);
    (0..n)
        .map(|q| {
            if b.is_accepting(q) {
                accepting.clone()
            } else {
                full.clone()
            }
        })
        .collect()
}

/// Refines `rows[q] = { r | q ≤ r }` in place to the greatest fixpoint
/// of the direct-simulation operator. The starting relation may be any
/// set between the fixpoint and [`initial_rows`]: removals only ever
/// drop pairs that fail against a superset of the fixpoint (so no true
/// pair is lost), and the stable relation is a post-fixpoint, hence
/// *the* greatest fixpoint — which is what lets
/// [`crate::interned::QuotientCache::advance`] seed the loop with stale
/// verdicts from a previous automaton version and still land on a
/// bit-identical result.
pub(crate) fn refine_rows(succ: &[Vec<Bitset>], rows: &mut [Bitset]) {
    let n = rows.len();
    let nsyms = if n == 0 { 0 } else { succ[0].len() };
    loop {
        let mut changed = false;
        for q in 0..n {
            // A pair failing the check against the current (over-
            // approximate) rows fails against every smaller relation, so
            // removals in any order converge to the greatest fixpoint.
            let dropped: Vec<usize> = rows[q]
                .iter()
                .filter(|&r| {
                    !(0..nsyms)
                        .all(|s| succ[q][s].iter().all(|qs| rows[qs].intersects(&succ[r][s])))
                })
                .collect();
            for r in dropped {
                rows[q].remove(r);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// The greatest-fixpoint simulation as one [`Bitset`] row per state.
pub(crate) fn simulation_rows(b: &Buchi) -> Vec<Bitset> {
    let succ = successor_sets(b);
    let mut rows = initial_rows(b);
    refine_rows(&succ, &mut rows);
    rows
}

/// The direct-simulation preorder as a boolean matrix:
/// `result[q * n + r]` iff `q` is (direct-)simulated by `r`.
///
/// Internally the relation is refined as one [`Bitset`] row per state, so
/// the inner "some `σ`-successor of `r` simulates `qs`" test is a
/// word-parallel [`Bitset::intersects`] over `u64` blocks instead of a
/// nested scan.
#[must_use]
pub fn direct_simulation(b: &Buchi) -> Vec<bool> {
    let n = b.num_states();
    let rows = simulation_rows(b);
    let mut sim = vec![false; n * n];
    for (q, row) in rows.iter().enumerate() {
        for r in row.iter() {
            sim[q * n + r] = true;
        }
    }
    sim
}

/// Quotients the automaton by mutual direct simulation and prunes
/// transitions whose target is strictly dominated by a sibling target.
/// The result recognizes the same language with at most as many states.
#[must_use]
pub fn reduce(b: &Buchi) -> Buchi {
    quotient_from_rows(b, &simulation_rows(b))
}

/// The quotient-and-prune half of [`reduce`], over an already-computed
/// greatest-fixpoint simulation (`rows[q] = { r | q ≤ r }`). Because
/// the fixpoint is unique, any two routes to `rows` — from-scratch
/// refinement or the incremental seeding in [`crate::interned`] — yield
/// bit-identical quotients here.
pub(crate) fn quotient_from_rows(b: &Buchi, rows: &[Bitset]) -> Buchi {
    let n = b.num_states();
    let le = |q: usize, r: usize| rows[q].contains(r);
    // Representative of each mutual-simulation class: smallest index.
    let rep: Vec<usize> = (0..n)
        .map(|q| {
            (0..=q)
                .find(|&r| le(q, r) && le(r, q))
                .expect("q is equivalent to itself")
        })
        .collect();
    let mut builder = BuchiBuilder::new(b.alphabet().clone());
    let mut new_id = vec![usize::MAX; n];
    for q in 0..n {
        if rep[q] == q {
            new_id[q] = builder.add_state(b.is_accepting(q));
        }
    }
    for q in 0..n {
        if rep[q] != q {
            continue;
        }
        for sym in b.alphabet().symbols() {
            // Keep only simulation-maximal successors (by class rep).
            let succs: Vec<StateId> = b.successors(q, sym).to_vec();
            for &t in &succs {
                let dominated = succs.iter().any(|&u| rep[u] != rep[t] && le(t, u));
                if !dominated {
                    builder.add_transition(new_id[q], sym, new_id[rep[t]]);
                }
            }
        }
    }
    builder.build(new_id[rep[b.initial()]]).trim_unreachable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::random::{random_buchi, RandomConfig};
    use sl_omega::{all_lassos, Alphabet};

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    #[test]
    fn simulation_is_reflexive_and_respects_acceptance() {
        let s = sigma();
        let m = random_buchi(&s, 3, RandomConfig::default());
        let n = m.num_states();
        let sim = direct_simulation(&m);
        for q in 0..n {
            assert!(sim[q * n + q], "reflexivity at {q}");
            for r in 0..n {
                if sim[q * n + r] && m.is_accepting(q) {
                    assert!(m.is_accepting(r));
                }
            }
        }
    }

    #[test]
    fn simulation_is_transitive() {
        let s = sigma();
        for seed in 0..10 {
            let m = random_buchi(&s, seed, RandomConfig::default());
            let n = m.num_states();
            let sim = direct_simulation(&m);
            for a in 0..n {
                for b in 0..n {
                    for c in 0..n {
                        if sim[a * n + b] && sim[b * n + c] {
                            assert!(sim[a * n + c], "seed {seed}: {a} <= {b} <= {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_states_collapse() {
        // Two identical accepting states looping on a.
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(s.clone());
        let q0 = b.add_state(false);
        let q1 = b.add_state(true);
        let q2 = b.add_state(true);
        b.add_transition(q0, a, q1);
        b.add_transition(q0, a, q2);
        b.add_transition(q1, a, q1);
        b.add_transition(q2, a, q2);
        let m = b.build(q0);
        let r = reduce(&m);
        assert!(r.num_states() < m.num_states());
        for w in all_lassos(&s, 2, 2) {
            assert_eq!(m.accepts(&w), r.accepts(&w), "{w}");
        }
    }

    #[test]
    fn reduction_preserves_language_on_random_corpus() {
        let s = sigma();
        for seed in 0..60 {
            let m = random_buchi(
                &s,
                seed,
                RandomConfig {
                    states: 6,
                    density_percent: 70,
                    accepting_percent: 40,
                },
            );
            let r = reduce(&m);
            assert!(r.num_states() <= m.num_states());
            for w in all_lassos(&s, 2, 3) {
                assert_eq!(m.accepts(&w), r.accepts(&w), "seed {seed} on {w}");
            }
        }
    }

    #[test]
    fn reduction_is_idempotent_on_language() {
        let s = sigma();
        let m = random_buchi(&s, 11, RandomConfig::default());
        let r1 = reduce(&m);
        let r2 = reduce(&r1);
        assert!(r2.num_states() <= r1.num_states());
        for w in all_lassos(&s, 2, 2) {
            assert_eq!(r1.accepts(&w), r2.accepts(&w));
        }
    }

    #[test]
    fn universal_reduces_to_one_state() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b_sym = s.symbol("b").unwrap();
        // A bloated universal automaton.
        let mut b = BuchiBuilder::new(s.clone());
        let q0 = b.add_state(true);
        let q1 = b.add_state(true);
        for sym in [a, b_sym] {
            b.add_transition(q0, sym, q1);
            b.add_transition(q1, sym, q0);
            b.add_transition(q0, sym, q0);
            b.add_transition(q1, sym, q1);
        }
        let m = b.build(q0);
        let r = reduce(&m);
        assert_eq!(r.num_states(), 1);
    }
}
