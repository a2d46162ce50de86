//! Deciding safety and liveness of ω-regular languages.
//!
//! With the closure operator of [`crate::closure()`] in hand, the paper's
//! definitions become decision procedures:
//!
//! * `L(B)` is a **safety** property iff `L(cl B) = L(B)`, and since
//!   `L(B) ⊆ L(cl B)` always holds, iff `L(cl B) ⊆ L(B)`.
//! * `L(B)` is a **liveness** property iff `L(cl B) = Σ^ω`, decided by a
//!   cheap subset-construction universality check on the closure.
//!
//! Exactly the four-way classification of [`sl_lattice::Classification`]
//! falls out, instantiating the lattice-theoretic trichotomy on the
//! Boolean algebra of ω-regular languages — the case that neither the
//! topological characterization nor Gumm's σ-complete framework covers
//! (the lattice of ω-regular languages is not σ-complete).

use crate::automaton::Buchi;
use crate::closure::closure;
use crate::antichain::included;
use crate::incl::universal;
use crate::interned::shared_quotient_cache;
pub use sl_lattice::Classification;
use sl_support::SlError;

/// Whether `L(b)` is a safety property (`lcl L = L`).
///
/// # Errors
///
/// Propagates the inclusion search's [`SlError::BudgetExceeded`].
pub fn is_safety(b: &Buchi) -> Result<bool, SlError> {
    Ok(included(&closure(b), b, shared_quotient_cache(), None)?.holds())
}

/// Whether `L(b)` is a liveness property (`lcl L = Σ^ω`).
///
/// # Errors
///
/// Propagates the universality search's [`SlError::BudgetExceeded`].
pub fn is_liveness(b: &Buchi) -> Result<bool, SlError> {
    Ok(universal(&closure(b), shared_quotient_cache(), None)?.is_ok())
}

/// Classifies `L(b)` into the paper's trichotomy (with "both" for
/// `Σ^ω`, the only property that is both safe and live).
///
/// # Errors
///
/// Propagates [`SlError::BudgetExceeded`] from either check.
pub fn classify(b: &Buchi) -> Result<Classification, SlError> {
    let safe = is_safety(b)?;
    let live = is_liveness(b)?;
    Ok(match (safe, live) {
        (true, true) => Classification::Both,
        (true, false) => Classification::Safety,
        (false, true) => Classification::Liveness,
        (false, false) => Classification::Neither,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn first_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        let q1 = builder.add_state(true);
        builder.add_transition(q0, a, q1);
        builder.add_transition(q1, a, q1);
        builder.add_transition(q1, b, q1);
        builder.build(q0)
    }

    /// a ∧ F ¬a — Rem's p3, neither safe nor live.
    fn p3(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let wait = builder.add_state(false);
        let done = builder.add_state(true);
        builder.add_transition(q0, a, wait);
        builder.add_transition(wait, a, wait);
        builder.add_transition(wait, b, done);
        builder.add_transition(done, a, done);
        builder.add_transition(done, b, done);
        builder.build(q0)
    }

    #[test]
    fn gfa_is_liveness_not_safety() {
        let s = sigma();
        let m = inf_a(&s);
        assert!(!is_safety(&m).unwrap());
        assert!(is_liveness(&m).unwrap());
        assert_eq!(classify(&m).unwrap(), Classification::Liveness);
    }

    #[test]
    fn first_a_is_safety_not_liveness() {
        let s = sigma();
        let m = first_a(&s);
        assert!(is_safety(&m).unwrap());
        assert!(!is_liveness(&m).unwrap());
        assert_eq!(classify(&m).unwrap(), Classification::Safety);
    }

    #[test]
    fn p3_is_neither() {
        let s = sigma();
        assert_eq!(classify(&p3(&s)).unwrap(), Classification::Neither);
    }

    #[test]
    fn universal_is_both() {
        let s = sigma();
        assert_eq!(
            classify(&Buchi::universal(s)).unwrap(),
            Classification::Both
        );
    }

    #[test]
    fn empty_is_safety() {
        // ∅ is closed (lcl ∅ = ∅) and not dense.
        let s = sigma();
        assert_eq!(
            classify(&Buchi::empty_language(s)).unwrap(),
            Classification::Safety
        );
    }
}
