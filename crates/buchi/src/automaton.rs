//! Nondeterministic Büchi automata.
//!
//! Following the paper's Section 2.4, a Büchi automaton is a 5-tuple
//! `(Σ, Q, q0, δ, F)`; a run on an ω-word is accepting iff it visits `F`
//! infinitely often. [`Buchi`] stores the transition relation densely by
//! `(state, symbol)` and is built through [`BuchiBuilder`].

use sl_lattice::Bitset;
use sl_omega::{Alphabet, Symbol};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A state index in a [`Buchi`] automaton.
pub type StateId = usize;

/// A nondeterministic Büchi automaton over an interned [`Alphabet`].
///
/// # Examples
///
/// ```
/// use sl_buchi::BuchiBuilder;
/// use sl_omega::{Alphabet, LassoWord};
///
/// // Accepts words with infinitely many a's (Rem's p5, GF a).
/// let sigma = Alphabet::ab();
/// let a = sigma.symbol("a").unwrap();
/// let b = sigma.symbol("b").unwrap();
/// let mut builder = BuchiBuilder::new(sigma.clone());
/// let q0 = builder.add_state(false);
/// let qa = builder.add_state(true);
/// builder.add_transition(q0, b, q0);
/// builder.add_transition(q0, a, qa);
/// builder.add_transition(qa, b, q0);
/// builder.add_transition(qa, a, qa);
/// let automaton = builder.build(q0);
/// assert!(automaton.accepts(&LassoWord::parse(&sigma, "b", "a b")));
/// assert!(!automaton.accepts(&LassoWord::parse(&sigma, "a", "b")));
/// ```
#[derive(Debug, Clone)]
pub struct Buchi {
    alphabet: Alphabet,
    accepting: Vec<bool>,
    /// `delta[state][symbol]` is the sorted list of successors.
    delta: Vec<Vec<Vec<StateId>>>,
    initial: StateId,
    /// Per-state successors over any symbol, sorted and deduplicated —
    /// precomputed once in [`BuchiBuilder::build`] so the graph
    /// algorithms never re-sort on the hot path.
    all_succ: Vec<Vec<StateId>>,
    /// The same successor sets as packed bitsets, for word-parallel
    /// membership and intersection tests.
    succ_sets: Vec<Bitset>,
}

// Equality, like hashing, is over the defining 5-tuple only; the
// derived successor caches are a function of `delta` and must not
// (and structurally cannot meaningfully) participate.
impl PartialEq for Buchi {
    fn eq(&self, other: &Self) -> bool {
        self.alphabet == other.alphabet
            && self.accepting == other.accepting
            && self.delta == other.delta
            && self.initial == other.initial
    }
}

impl Eq for Buchi {}

impl Hash for Buchi {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.alphabet.hash(state);
        self.accepting.hash(state);
        self.delta.hash(state);
        self.initial.hash(state);
    }
}

/// Incremental constructor for [`Buchi`].
#[derive(Debug, Clone)]
pub struct BuchiBuilder {
    alphabet: Alphabet,
    accepting: Vec<bool>,
    delta: Vec<Vec<Vec<StateId>>>,
}

impl BuchiBuilder {
    /// Starts a builder over the alphabet.
    #[must_use]
    pub fn new(alphabet: Alphabet) -> Self {
        BuchiBuilder {
            alphabet,
            accepting: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.accepting.push(accepting);
        self.delta.push(vec![Vec::new(); self.alphabet.len()]);
        self.accepting.len() - 1
    }

    /// Adds a transition `from --sym--> to`. Duplicates are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a state id or symbol is out of range.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        assert!(from < self.delta.len(), "from-state out of range");
        assert!(to < self.delta.len(), "to-state out of range");
        assert!(sym.index() < self.alphabet.len(), "symbol out of range");
        let succs = &mut self.delta[from][sym.index()];
        if let Err(pos) = succs.binary_search(&to) {
            succs.insert(pos, to);
        }
    }

    /// Finishes the automaton with the given initial state.
    ///
    /// # Panics
    ///
    /// Panics if the builder has no states or `initial` is out of range.
    #[must_use]
    pub fn build(self, initial: StateId) -> Buchi {
        assert!(!self.accepting.is_empty(), "automaton needs states");
        assert!(initial < self.accepting.len(), "initial out of range");
        let n = self.accepting.len();
        let mut all_succ = Vec::with_capacity(n);
        let mut succ_sets = Vec::with_capacity(n);
        for row in &self.delta {
            let mut merged: Vec<StateId> = row.iter().flatten().copied().collect();
            merged.sort_unstable();
            merged.dedup();
            succ_sets.push(Bitset::from_indices(n, &merged));
            all_succ.push(merged);
        }
        Buchi {
            alphabet: self.alphabet,
            accepting: self.accepting,
            delta: self.delta,
            initial,
            all_succ,
            succ_sets,
        }
    }
}

impl Buchi {
    /// An automaton with the empty language over the alphabet.
    #[must_use]
    pub fn empty_language(alphabet: Alphabet) -> Buchi {
        let mut b = BuchiBuilder::new(alphabet);
        let q = b.add_state(false);
        b.build(q)
    }

    /// An automaton accepting all of `Σ^ω`.
    #[must_use]
    pub fn universal(alphabet: Alphabet) -> Buchi {
        let mut b = BuchiBuilder::new(alphabet.clone());
        let q = b.add_state(true);
        for sym in alphabet.symbols() {
            b.add_transition(q, sym, q);
        }
        b.build(q)
    }

    /// The alphabet.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// Total number of transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.delta
            .iter()
            .map(|row| row.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether the state is accepting.
    #[must_use]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    /// The accepting states.
    #[must_use]
    pub fn accepting_states(&self) -> Vec<StateId> {
        (0..self.num_states())
            .filter(|&q| self.accepting[q])
            .collect()
    }

    /// Successors of `q` on `sym`.
    #[must_use]
    pub fn successors(&self, q: StateId, sym: Symbol) -> &[StateId] {
        &self.delta[q][sym.index()]
    }

    /// All successors of `q` over any symbol (deduplicated, sorted).
    /// Precomputed at build time — calling this in a loop is free.
    #[must_use]
    pub fn all_successors(&self, q: StateId) -> &[StateId] {
        &self.all_succ[q]
    }

    /// The successors of `q` over any symbol as a packed bitset over
    /// `{0..num_states}`, for word-parallel membership and intersection
    /// tests. Precomputed at build time.
    #[must_use]
    pub fn successor_bitset(&self, q: StateId) -> &Bitset {
        &self.succ_sets[q]
    }

    /// A deterministic 64-bit hash of the defining 5-tuple (alphabet,
    /// states, initial, transitions, acceptance). Equal automata hash
    /// equally across processes and runs — unlike `std`'s randomized
    /// `DefaultHasher` — so the value can key caches and appear in
    /// reproducible logs. Collisions are possible; callers that need
    /// exactness must confirm with `==` (see `QuotientCache`).
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        // FNV-1a over a canonical u64 stream, with length prefixes so
        // differently-shaped automata cannot alias by concatenation.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(PRIME);
        let mut h = OFFSET;
        h = mix(h, self.alphabet.len() as u64);
        for sym in self.alphabet.symbols() {
            let name = self.alphabet.name(sym);
            h = mix(h, name.len() as u64);
            for byte in name.bytes() {
                h = mix(h, u64::from(byte));
            }
        }
        h = mix(h, self.num_states() as u64);
        h = mix(h, self.initial as u64);
        for (q, &acc) in self.accepting.iter().enumerate() {
            h = mix(h, (q as u64) << 1 | u64::from(acc));
        }
        for row in &self.delta {
            for succs in row {
                h = mix(h, succs.len() as u64);
                for &t in succs {
                    h = mix(h, t as u64);
                }
            }
        }
        h
    }

    /// States reachable from the initial state.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![self.initial];
        seen[self.initial] = true;
        while let Some(q) = stack.pop() {
            for &succ in self.all_successors(q) {
                if !seen[succ] {
                    seen[succ] = true;
                    stack.push(succ);
                }
            }
        }
        seen
    }

    /// Restricts the automaton to the states where `keep` is true,
    /// preserving the language *of the kept part*. If the initial state
    /// is dropped, the result has the empty language.
    #[must_use]
    pub fn restrict(&self, keep: &[bool]) -> Buchi {
        assert_eq!(keep.len(), self.num_states(), "keep mask size mismatch");
        if !keep[self.initial] {
            return Buchi::empty_language(self.alphabet.clone());
        }
        let mut remap = vec![usize::MAX; self.num_states()];
        let mut builder = BuchiBuilder::new(self.alphabet.clone());
        for q in 0..self.num_states() {
            if keep[q] {
                remap[q] = builder.add_state(self.accepting[q]);
            }
        }
        for q in 0..self.num_states() {
            if !keep[q] {
                continue;
            }
            for sym in self.alphabet.symbols() {
                for &succ in self.successors(q, sym) {
                    if keep[succ] {
                        builder.add_transition(remap[q], sym, remap[succ]);
                    }
                }
            }
        }
        builder.build(remap[self.initial])
    }

    /// Drops unreachable states.
    #[must_use]
    pub fn trim_unreachable(&self) -> Buchi {
        self.restrict(&self.reachable())
    }

    /// Returns a copy with every state accepting (the second half of the
    /// paper's closure construction).
    #[must_use]
    pub fn with_all_accepting(&self) -> Buchi {
        let mut out = self.clone();
        for flag in &mut out.accepting {
            *flag = true;
        }
        out
    }

    /// Returns a copy rooted at a different initial state — the paper's
    /// `B(q)` notation (Section 4.4 uses it for Rabin automata; it is
    /// just as useful here).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn rooted_at(&self, q: StateId) -> Buchi {
        assert!(q < self.num_states(), "state out of range");
        let mut out = self.clone();
        out.initial = q;
        out
    }
}

impl fmt::Display for Buchi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Buchi({} states, {} transitions, initial {})",
            self.num_states(),
            self.num_transitions(),
            self.initial
        )?;
        for q in 0..self.num_states() {
            let marker = if self.accepting[q] { "*" } else { " " };
            for sym in self.alphabet.symbols() {
                for succ in self.successors(q, sym) {
                    writeln!(f, "  {marker}{q} --{}--> {succ}", self.alphabet.name(sym))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gfa() -> (Alphabet, Buchi) {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(sigma.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        (sigma, builder.build(q0))
    }

    #[test]
    fn builder_basics() {
        let (_, m) = gfa();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_transitions(), 4);
        assert_eq!(m.initial(), 0);
        assert!(!m.is_accepting(0));
        assert!(m.is_accepting(1));
        assert_eq!(m.accepting_states(), vec![1]);
    }

    #[test]
    fn duplicate_transitions_ignored() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(sigma);
        let q = b.add_state(true);
        b.add_transition(q, a, q);
        b.add_transition(q, a, q);
        assert_eq!(b.build(q).num_transitions(), 1);
    }

    #[test]
    fn successors_sorted() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(sigma);
        let q0 = b.add_state(false);
        let q1 = b.add_state(false);
        let q2 = b.add_state(false);
        b.add_transition(q0, a, q2);
        b.add_transition(q0, a, q1);
        let m = b.build(q0);
        assert_eq!(m.successors(q0, a), &[q1, q2]);
        assert_eq!(m.all_successors(q0), vec![q1, q2]);
    }

    #[test]
    fn reachable_and_trim() {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let mut b = BuchiBuilder::new(sigma);
        let q0 = b.add_state(false);
        let q1 = b.add_state(true);
        let _orphan = b.add_state(true);
        b.add_transition(q0, a, q1);
        b.add_transition(q1, a, q1);
        let m = b.build(q0);
        assert_eq!(m.reachable(), vec![true, true, false]);
        let t = m.trim_unreachable();
        assert_eq!(t.num_states(), 2);
        assert_eq!(t.num_transitions(), 2);
    }

    #[test]
    fn restrict_dropping_initial_empties() {
        let (_, m) = gfa();
        let out = m.restrict(&[false, true]);
        assert_eq!(out.num_states(), 1);
        assert_eq!(out.num_transitions(), 0);
    }

    #[test]
    fn rooted_at_changes_start() {
        let (_, m) = gfa();
        let r = m.rooted_at(1);
        assert_eq!(r.initial(), 1);
        assert_eq!(r.num_states(), m.num_states());
    }

    #[test]
    fn with_all_accepting() {
        let (_, m) = gfa();
        let c = m.with_all_accepting();
        assert!(c.is_accepting(0) && c.is_accepting(1));
    }

    #[test]
    fn canned_automata() {
        let sigma = Alphabet::ab();
        let empty = Buchi::empty_language(sigma.clone());
        assert_eq!(empty.num_transitions(), 0);
        let univ = Buchi::universal(sigma);
        assert_eq!(univ.num_states(), 1);
        assert_eq!(univ.num_transitions(), 2);
    }

    #[test]
    fn display_shows_structure() {
        let (_, m) = gfa();
        let text = m.to_string();
        assert!(text.contains("2 states"));
        assert!(text.contains("--a-->"));
    }

    #[test]
    fn successor_bitset_matches_list() {
        let (_, m) = gfa();
        for q in 0..m.num_states() {
            let set = m.successor_bitset(q);
            assert_eq!(set.universe(), m.num_states());
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                m.all_successors(q).to_vec(),
                "state {q}"
            );
        }
    }

    #[test]
    fn structural_hash_is_stable_and_separates() {
        let (sigma, m) = gfa();
        // Equal automata hash equally; a rebuilt clone is equal.
        let (_, m2) = gfa();
        assert_eq!(m, m2);
        assert_eq!(m.structural_hash(), m2.structural_hash());
        // Changing any tuple component changes the automaton; the hash
        // should separate these simple variants (not guaranteed in
        // general, but a fixed collision here would be a bug magnet).
        let rooted = m.rooted_at(1);
        assert_ne!(m.structural_hash(), rooted.structural_hash());
        let all_acc = m.with_all_accepting();
        assert_ne!(m.structural_hash(), all_acc.structural_hash());
        assert_ne!(
            m.structural_hash(),
            Buchi::universal(sigma).structural_hash()
        );
    }

    #[test]
    #[should_panic(expected = "initial out of range")]
    fn build_checks_initial() {
        let sigma = Alphabet::ab();
        let mut b = BuchiBuilder::new(sigma);
        b.add_state(false);
        let _ = b.build(7);
    }
}
