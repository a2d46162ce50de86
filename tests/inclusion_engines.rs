//! Differential verification of the inclusion engine against its
//! oracle: the on-the-fly antichain search (quotient-cached, lazily
//! expanded) and the rank-based complementation construction.
//!
//! Both are exact, so on every query they must return the same verdict,
//! and every counterexample either produces must be *genuine* (accepted
//! by the left operand, rejected by the right — checked on the *raw*
//! operands, so the engine's internal quotienting cannot mask a bad
//! witness). The sweep compares them over 500+ random automaton pairs
//! drawn from a pool of 120 distinct machines; rank-side
//! complement-budget blowups are skipped (and bounded), never treated
//! as disagreements.
//!
//! The tests stay green under an environment fault drill
//! (`SL_FAULT_RATE` > 0): unbudgeted searches consult no
//! error-injection site, and the quotient cache's site
//! (`"buchi.quotient_cache"`) only forces behavior-preserving
//! recomputations.

use safety_liveness::buchi::{
    equivalent, equivalent_rank, included, included_rank, random_buchi, shared_quotient_cache,
    universal, universal_rank, Buchi, Inclusion, RandomConfig,
};
use safety_liveness::omega::Alphabet;
use sl_support::prop;
use sl_support::prop_assert_eq;

/// A pool of 120 structurally diverse automata: three shape classes
/// (sparse 3-state, mid-density 4-state, dense 5-state) with 40
/// deterministic seeds each. Small enough that the rank oracle's
/// complement stays feasible in debug builds, large enough that pairs
/// exercise inclusion, non-inclusion, emptiness, and universality.
fn pool() -> Vec<Buchi> {
    let sigma = Alphabet::ab();
    let configs = [
        RandomConfig {
            states: 3,
            density_percent: 50,
            accepting_percent: 40,
        },
        RandomConfig {
            states: 4,
            density_percent: 60,
            accepting_percent: 30,
        },
        RandomConfig {
            states: 5,
            density_percent: 45,
            accepting_percent: 50,
        },
    ];
    let mut machines = Vec::with_capacity(120);
    for (class, cfg) in configs.iter().enumerate() {
        for seed in 0..40u64 {
            machines.push(random_buchi(&sigma, class as u64 * 1009 + seed, *cfg));
        }
    }
    machines
}

/// A counterexample to `L(a) ⊆ L(b)` must lie in `L(a) \ L(b)`.
fn assert_genuine(engine: &str, verdict: &Inclusion, a: &Buchi, b: &Buchi, pair: (usize, usize)) {
    if let Inclusion::CounterExample(w) = verdict {
        assert!(
            a.accepts(w),
            "{engine} counterexample {w} for pair {pair:?} not accepted by the left operand"
        );
        assert!(
            !b.accepts(w),
            "{engine} counterexample {w} for pair {pair:?} accepted by the right operand"
        );
    }
}

#[test]
fn engines_agree_on_inclusion_over_500_pairs() {
    let machines = pool();
    let cache = shared_quotient_cache();
    let n = machines.len() as u64;
    let mut compared = 0usize;
    let mut rank_skips = 0usize;
    for k in 0..520u64 {
        // Deterministic quasi-random pair selection (covers i == j too).
        let i = (k.wrapping_mul(7919).wrapping_add(3) % n) as usize;
        let j = (k.wrapping_mul(104_729).wrapping_add(11) % n) as usize;
        let (a, b) = (&machines[i], &machines[j]);
        let of = included(a, b, cache, None)
            .expect("on-the-fly budget must not blow on a ≤5-state pair");
        assert_genuine("onthefly", &of, a, b, (i, j));
        let Ok(rk) = included_rank(a, b) else {
            rank_skips += 1;
            continue;
        };
        assert_eq!(
            of.holds(),
            rk.holds(),
            "engine and oracle disagree on pair ({i}, {j}): onthefly {of:?} vs rank {rk:?}"
        );
        assert_genuine("rank", &rk, a, b, (i, j));
        compared += 1;
    }
    assert!(
        compared >= 500,
        "only {compared} pairs compared ({rank_skips} rank-side budget skips)"
    );
}

#[test]
fn engines_agree_on_universality() {
    let machines = pool();
    let cache = shared_quotient_cache();
    let mut rank_skips = 0usize;
    for (i, b) in machines.iter().enumerate() {
        let of = universal(b, cache, None).expect("on-the-fly universality budget");
        if let Err(w) = &of {
            assert!(!b.accepts(w), "onthefly non-universality witness {w} accepted");
        }
        let Ok(rk) = universal_rank(b) else {
            rank_skips += 1;
            continue;
        };
        assert_eq!(
            of.is_ok(),
            rk.is_ok(),
            "universality verdicts disagree on pool[{i}]"
        );
        if let Err(w) = &rk {
            assert!(!b.accepts(w), "rank non-universality witness {w} accepted");
        }
    }
    assert!(rank_skips <= 5, "{rank_skips} rank-side universality skips");
}

#[test]
fn engines_agree_on_equivalence() {
    let machines = pool();
    let cache = shared_quotient_cache();
    let n = machines.len();
    for k in 0..60usize {
        let i = (k * 13 + 1) % n;
        let j = (k * 29 + 7) % n;
        let (a, b) = (&machines[i], &machines[j]);
        let of = equivalent(a, b, cache, None).expect("on-the-fly equivalence budget");
        // A separating word must lie in the symmetric difference.
        if let Err(w) = &of {
            assert_ne!(a.accepts(w), b.accepts(w), "onthefly separator {w} separates nothing");
        }
        let Ok(rk) = equivalent_rank(a, b) else {
            continue;
        };
        assert_eq!(
            of.is_ok(),
            rk.is_ok(),
            "equivalence verdicts disagree on pair ({i}, {j})"
        );
        if let Err(w) = &rk {
            assert_ne!(a.accepts(w), b.accepts(w), "rank separator {w} separates nothing");
        }
    }
}

#[test]
fn prop_engines_agree_on_random_pairs() {
    prop::check(
        "prop_engines_agree_on_random_pairs",
        &(0u64..500, 0u64..500),
        |&(seed1, seed2)| {
            let sigma = Alphabet::ab();
            let cfg = RandomConfig {
                states: 4,
                density_percent: 55,
                accepting_percent: 40,
            };
            let a = random_buchi(&sigma, seed1, cfg);
            let b = random_buchi(&sigma, seed2, cfg);
            let of = included(&a, &b, shared_quotient_cache(), None)
                .map_err(|e| format!("onthefly budget: {e}"))?;
            if let Inclusion::CounterExample(w) = &of {
                prop_assert_eq!(a.accepts(w), true);
                prop_assert_eq!(b.accepts(w), false);
            }
            if let Ok(rk) = included_rank(&a, &b) {
                prop_assert_eq!(of.holds(), rk.holds());
                if let Inclusion::CounterExample(w) = &rk {
                    prop_assert_eq!(a.accepts(w), true);
                    prop_assert_eq!(b.accepts(w), false);
                }
            }
            Ok(())
        },
    );
}
