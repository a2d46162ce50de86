//! Acceptance tests for the interned automaton core
//! (`sl_buchi::interned`): incremental simulation maintenance must be
//! *bit-identical* to from-scratch computation over long seeded
//! mutation sequences, on-the-fly counterexamples must replay on the
//! raw (unquotiented) operands, and the lazy macro-state arena must
//! not scale with dead padding — the memory-regression gate for the
//! 10^4-state tier.

use safety_liveness::buchi::{
    antichain_stats, included, random_buchi, scratch_quotient, shared_quotient_cache, Buchi,
    BuchiBuilder, Inclusion, QuotientCache, RandomConfig,
};
use safety_liveness::omega::Alphabet;
use sl_support::rng::SplitMix;

/// The editable shape of an automaton: acceptance bits plus the
/// per-(state, symbol-index) successor lists. Mutations edit this and
/// rebuild, since [`Buchi`] itself is immutable.
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

fn build(sigma: &Alphabet, shape: &Shape) -> Buchi {
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
fn mutate(sigma: &Alphabet, shape: &mut Shape, rng: &mut SplitMix) {
    let n = shape.accepting.len();
    let nsyms = sigma.len();
    match rng.below(5) {
        0 => {
            let q = rng.below(n);
            shape.accepting[q] = !shape.accepting[q];
        }
        1 | 2 => {
            // Add a transition (idempotent if it already exists).
            let (q, s, r) = (rng.below(n), rng.below(nsyms), rng.below(n));
            if !shape.succ[q][s].contains(&r) {
                shape.succ[q][s].push(r);
                shape.succ[q][s].sort_unstable();
            }
        }
        3 => {
            // Remove a transition if one exists at the drawn slot.
            let (q, s) = (rng.below(n), rng.below(nsyms));
            if !shape.succ[q][s].is_empty() {
                let at = rng.below(shape.succ[q][s].len());
                shape.succ[q][s].remove(at);
            }
        }
        _ => {
            // Graft a fresh state with one incoming and one outgoing
            // edge, keeping the mutation sequence from shrinking the
            // automaton into triviality.
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

/// The tentpole invariant: after every `advance`, the incrementally
/// maintained quotient (and the simulation rows behind it) must be
/// bit-for-bit what a from-scratch computation produces — the
/// greatest fixpoint is unique, and dirty-SCC seeding must converge to
/// exactly it. 3 seeds x 55 mutations, every step checked.
#[test]
fn incremental_quotient_is_bit_identical_to_scratch_over_mutation_sequences() {
    let sigma = Alphabet::ab();
    for seed in 0..3u64 {
        let mut rng = SplitMix::new(0x1117 + seed);
        let cache = QuotientCache::new();
        let mut prev = random_buchi(
            &sigma,
            seed,
            RandomConfig {
                states: 6,
                density_percent: 55,
                accepting_percent: 40,
            },
        );
        cache.quotient(&prev);
        let mut shape = shape_of(&prev);
        for step in 0..55u32 {
            mutate(&sigma, &mut shape, &mut rng);
            let next = build(&sigma, &shape);
            cache.advance(&prev, &next);
            let node = cache.node(&next).expect("advance interns the new version");
            let incremental = node.quotient();
            assert_eq!(
                *incremental,
                scratch_quotient(&next),
                "seed {seed} step {step}: incremental quotient != scratch"
            );
            // The rows themselves — not just the quotient built from
            // them — must land on the unique greatest fixpoint.
            let fresh = QuotientCache::new();
            fresh.quotient(&next);
            assert_eq!(
                cache.node(&next).expect("still interned").rows(),
                fresh.node(&next).expect("just interned").rows(),
                "seed {seed} step {step}: incremental rows != scratch rows"
            );
            prev = next;
        }
        let stats = cache.stats();
        assert_eq!(stats.advances, 55, "seed {seed}: every step advanced");
        assert!(
            stats.clean_sccs > 0,
            "seed {seed}: no mutation ever carried a clean SCC over — \
             the incremental path was never actually exercised"
        );
    }
}

/// On-the-fly counterexamples are found in the *quotiented* product
/// but must replay on the raw automata: the quotient preserves the
/// language, so a lasso separating the quotients separates the
/// originals.
#[test]
fn onthefly_counterexamples_replay_on_raw_automata() {
    let sigma = Alphabet::ab();
    let cfg = RandomConfig {
        states: 8,
        density_percent: 45,
        accepting_percent: 35,
    };
    let mut counterexamples = 0usize;
    for seed in 0..60u64 {
        let a = random_buchi(&sigma, 2 * seed, cfg);
        let b = random_buchi(&sigma, 2 * seed + 1, cfg);
        match included(&a, &b, shared_quotient_cache(), None)
            .expect("8-state pairs stay within budget")
        {
            Inclusion::Holds => {}
            Inclusion::CounterExample(w) => {
                counterexamples += 1;
                assert!(a.accepts(&w), "seed {seed}: witness {w} not accepted by the raw left");
                assert!(!b.accepts(&w), "seed {seed}: witness {w} accepted by the raw right");
            }
        }
    }
    assert!(counterexamples >= 10, "only {counterexamples} counterexamples in the sweep");
}

/// A small live core drowned in `padding` unreachable, successor-free
/// states. An engine that refined simulation over the raw operands
/// would pay for the padding; the on-the-fly engine trims first and
/// never sees it.
fn padded(sigma: &Alphabet, seed: u64, padding: usize) -> Buchi {
    let core = random_buchi(
        sigma,
        seed,
        RandomConfig {
            states: 15,
            density_percent: 55,
            accepting_percent: 40,
        },
    );
    let mut shape = shape_of(&core);
    for _ in 0..padding {
        shape.accepting.push(false);
        shape.succ.push(vec![Vec::new(); sigma.len()]);
    }
    build(sigma, &shape)
}

/// One inclusion search on a thread of its own, returning the verdict
/// and the search's macro-state arena high-water mark. The gauge is a
/// per-thread maximum, so a fresh thread isolates it to this search.
fn isolated_peak(a: &Buchi, b: &Buchi) -> (bool, u64) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let holds = included(a, b, &QuotientCache::new(), None)
                    .expect("the live 15-state core stays within budget")
                    .holds();
                (holds, antichain_stats().peak_macro_states)
            })
            .join()
            .expect("search thread panicked")
    })
}

/// The memory-regression gate: deciding inclusion over a 10^4-state
/// padded pair must materialize exactly the macro-states the same
/// search materializes on the trimmed twins. The arena gauge
/// (`peak_macro_states`) counts every macro-state ever created, so
/// unreachable-driven blowup cannot hide behind subsumption.
#[test]
fn lazy_search_peak_macro_states_ignores_dead_padding() {
    let sigma = Alphabet::ab();
    // An inclusion that HOLDS, so the search runs to exhaustion (the
    // worst case for the arena) instead of stopping at a witness.
    let a = padded(&sigma, 77, 10_000);
    let b = padded(&sigma, 77, 10_001);

    // Yardstick: the trimmed twins, where there is no padding to pay
    // for.
    let (a_trim, b_trim) = (a.trim_unreachable(), b.trim_unreachable());
    assert!(a_trim.num_states() <= 15 && b_trim.num_states() <= 15);
    let (trim_holds, trim_peak) = isolated_peak(&a_trim, &b_trim);
    assert!(trim_holds, "identical cores: inclusion must hold");
    assert!(trim_peak > 0, "the trimmed search recorded no arena growth");

    let (padded_holds, padded_peak) = isolated_peak(&a, &b);
    assert!(padded_holds, "padding must not change the verdict");
    assert_eq!(
        padded_peak, trim_peak,
        "the arena is scaling with the 10^4-state padding"
    );
}
