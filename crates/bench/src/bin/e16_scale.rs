//! E16 (perf) — the interned, quotient-first core at scale: on-the-fly
//! inclusion on padded automata, and incremental quotient maintenance
//! vs from-scratch recomputation under a redefine workload.
//!
//! Three sweeps, one artifact (`BENCH_scale.json`):
//!
//! 1. **Random family** — an 8-state random live core drowned in
//!    10^3..10^5 dead states on both operands. The engine
//!    ([`included_onthefly_with_cache`]) trims first, quotients the
//!    core (6 states), and runs the antichain search over live
//!    macro-states, so its cost tracks the `O(n)` trim, not the
//!    padding. An engine that refined simulation over the *raw*
//!    operands would scan the full n×n candidate relation every pass
//!    (dead rows never shrink) — an `Ω(n³/64)` bill per pass.
//! 2. **Structured family** — a 2-state total core (accepting `A`,
//!    rejecting `B`, every symbol to both) padded asymmetrically
//!    (left `N`, right `N/10`).
//!
//!    Both series carry scaling gates a cubic-per-pass engine would
//!    fail: under 100× per decade on the structured series, under 100×
//!    across the random series' two decades.
//! 3. **Redefine sweep** — a 1000-state chain of 200 five-state SCC
//!    blocks, edited eight times in the *source* block (the one no
//!    other SCC reaches). From-scratch recomputation pays the full
//!    simulation fixpoint per edit; the quotient cache's
//!    [`QuotientCache::advance`] re-derives only the dirty SCC and
//!    must carry the other 199 blocks over unchanged.
//!
//! Every sweep asserts exactness (the known verdict, bit-identical
//! quotients) before its timings count.

use sl_bench::{header, Scoreboard};
use sl_buchi::{
    included_onthefly_with_cache, random_buchi, scratch_quotient, Buchi, BuchiBuilder,
    QuotientCache, RandomConfig,
};
use sl_omega::Alphabet;
use sl_support::bench::{black_box, Bench};
use std::process::ExitCode;
use std::time::Duration;

/// A live core drowned in `padding` unreachable, successor-free
/// states — the same family as the memory-regression acceptance test
/// in `tests/interned_core.rs`, sized up for wall-clock measurement.
fn pad(core: &Buchi, padding: usize) -> Buchi {
    let sigma = core.alphabet().clone();
    let mut builder = BuchiBuilder::new(sigma.clone());
    let n = core.num_states();
    let ids: Vec<usize> = (0..n).map(|q| builder.add_state(core.is_accepting(q))).collect();
    for q in 0..n {
        for sym in sigma.symbols() {
            for &r in core.successors(q, sym) {
                builder.add_transition(ids[q], sym, ids[r]);
            }
        }
    }
    for _ in 0..padding {
        builder.add_state(false);
    }
    builder.build(ids[core.initial()])
}

/// The random core: 8 states, direct-simulation quotient 6 — small
/// enough that the identical-core antichain search stays far inside
/// the budget, large enough that the search is exercised.
fn random_core(sigma: &Alphabet) -> Buchi {
    random_buchi(
        sigma,
        21,
        RandomConfig {
            states: 8,
            density_percent: 120,
            accepting_percent: 40,
        },
    )
}

/// The structured core: accepting `A`, rejecting `B`, every symbol
/// from either to both. Simulation refines in one changing pass
/// (quotient 2).
fn struct_core(sigma: &Alphabet) -> Buchi {
    let mut builder = BuchiBuilder::new(sigma.clone());
    let a = builder.add_state(true);
    let b = builder.add_state(false);
    for sym in sigma.symbols() {
        for &src in &[a, b] {
            builder.add_transition(src, sym, a);
            builder.add_transition(src, sym, b);
        }
    }
    builder.build(a)
}

/// A chain of `blocks` strongly connected 5-state cycles, each linked
/// to the next: `blocks` separate SCCs, so an edit in the source block
/// leaves every downstream block's simulation rows clean.
fn scc_chain(sigma: &Alphabet, blocks: usize, accepting_mask: u32) -> Buchi {
    const BLOCK: usize = 5;
    let mut builder = BuchiBuilder::new(sigma.clone());
    let a = sigma.symbols().next().expect("nonempty alphabet");
    let b = sigma.symbols().nth(1).expect("two-symbol alphabet");
    let mut ids = Vec::with_capacity(blocks * BLOCK);
    for block in 0..blocks {
        for i in 0..BLOCK {
            // The mask edits acceptance bits in the source block only.
            let accepting = if block == 0 {
                accepting_mask & (1 << i) != 0
            } else {
                (block + i) % 3 == 0
            };
            ids.push(builder.add_state(accepting));
        }
    }
    for block in 0..blocks {
        let base = block * BLOCK;
        for i in 0..BLOCK {
            builder.add_transition(ids[base + i], a, ids[base + (i + 1) % BLOCK]);
        }
        if block + 1 < blocks {
            builder.add_transition(ids[base], b, ids[base + BLOCK]);
        } else {
            builder.add_transition(ids[base], b, ids[base]);
        }
    }
    builder.build(ids[0])
}

fn lazy_holds(a: &Buchi, b: &Buchi) -> bool {
    // A fresh cache per call: the measurement covers the full
    // trim + quotient + search pipeline, not a cache hit.
    included_onthefly_with_cache(&QuotientCache::new(), a, b)
        .expect("lazy antichain budget")
        .holds()
}

fn main() -> ExitCode {
    header(
        "E16",
        "Interned core at scale: on-the-fly inclusion, incremental vs scratch quotients",
    );
    let sigma = Alphabet::ab();
    let mut board = Scoreboard::new();
    let mut bench = Bench::from_env();
    let ratio = |num: Duration, den: Duration| num.as_nanos() as f64 / den.as_nanos().max(1) as f64;

    // -- Random family ------------------------------------------------
    // Identical cores on both sides (padding differs by one state): the
    // inclusion HOLDS, so the search never exits early on a
    // counterexample.
    let rcore = random_core(&sigma);
    let rand_pairs: Vec<(usize, Buchi, Buchi)> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|n| (n, pad(&rcore, n), pad(&rcore, n + 1)))
        .collect();
    board.claim(
        "random family: the engine answers HOLDS at every size",
        rand_pairs.iter().all(|(_, a, b)| lazy_holds(a, b)),
    );
    let mut rand_lazy = Vec::new();
    for (n, a, b) in &rand_pairs {
        rand_lazy.push(bench.measure(&format!("incl/lazy/rand/{n}"), || {
            black_box(lazy_holds(a, b));
        }));
    }

    // -- Structured family --------------------------------------------
    let score = struct_core(&sigma);
    let (sa1k, sb1k) = (pad(&score, 1_000), pad(&score, 100));
    let (sa10k, sb10k) = (pad(&score, 10_000), pad(&score, 1_000));
    board.claim(
        "structured family: the engine answers HOLDS at 10^3 and 10^4",
        lazy_holds(&sa1k, &sb1k) && lazy_holds(&sa10k, &sb10k),
    );
    let struct_lazy_1k = bench.measure("incl/lazy/struct/1000", || {
        black_box(lazy_holds(&sa1k, &sb1k));
    });
    let struct_lazy_10k = bench.measure("incl/lazy/struct/10000", || {
        black_box(lazy_holds(&sa10k, &sb10k));
    });

    // Scaling gates. Under 100x over one decade rules out cubic-per-pass
    // growth (1000x per decade) on the structured series; a quadratic
    // engine with any fixed cost would still pass it. Under 100x over
    // the random series' two decades also rules out quadratic growth
    // (10000x over two decades).
    let struct_growth = ratio(struct_lazy_10k, struct_lazy_1k);
    let rand_growth = ratio(rand_lazy[2], rand_lazy[0]);
    println!("\non-the-fly cost growth with raw state count:");
    println!("  structured family, 10^3 -> 10^4: {struct_growth:.1}x");
    println!("  random family,     10^3 -> 10^5: {rand_growth:.1}x");
    board.claim(
        "structured family: under 100x per decade (10^3 -> 10^4)",
        struct_growth < 100.0,
    );
    board.claim(
        "random family: under 100x over two decades (10^3 -> 10^5)",
        rand_growth < 100.0,
    );

    // -- Redefine sweep -----------------------------------------------
    // Eight acceptance edits in the source block of a 200-block chain.
    let versions: Vec<Buchi> = (0..9u32)
        .map(|i| scc_chain(&sigma, 200, 0b10101 ^ i))
        .collect();
    // Exactness first: every advance must land bit-identically on the
    // from-scratch quotient, with the downstream blocks carried clean.
    let cache = QuotientCache::new();
    cache.quotient(&versions[0]);
    let mut exact = true;
    let mut clean_total = 0u64;
    for w in versions.windows(2) {
        let report = cache.advance(&w[0], &w[1]);
        clean_total += report.clean_sccs as u64;
        let node = cache.node(&w[1]).expect("advance interns the new version");
        exact &= *node.quotient() == scratch_quotient(&w[1]);
    }
    board.claim("every advance is bit-identical to a scratch quotient", exact);
    board.claim(
        "edits in the source block carry downstream SCCs over clean",
        clean_total > 0,
    );

    let scratch = bench.measure("redefine/scratch/chain1000", || {
        for next in &versions[1..] {
            black_box(scratch_quotient(next).num_states());
        }
    });
    let incremental = bench.measure("redefine/incremental/chain1000", || {
        let cache = QuotientCache::new();
        cache.quotient(&versions[0]);
        for w in versions.windows(2) {
            black_box(cache.advance(&w[0], &w[1]).dirty_sccs);
        }
    });
    let redefine_speedup = ratio(scratch, incremental);
    println!("\nredefine chain (8 edits, 1000-state chain of 200 SCC blocks):");
    println!("  scratch     : {scratch:?}");
    println!("  incremental : {incremental:?} ({redefine_speedup:.1}x)");
    board.claim(
        "incremental redefines beat from-scratch recomputation",
        incremental < scratch,
    );

    bench.finish("scale");
    board.finish()
}
