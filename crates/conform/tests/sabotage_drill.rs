//! The acceptance drills for the conformance fuzzer itself:
//! deliberately break an engine (the test-only flags in
//! `sl_buchi::antichain::sabotage` and `sl_pdr::engine::sabotage`) and
//! prove the matching oracle catches the bug and shrinks it to a tiny
//! reproducer. The subsumption flag breaks the on-the-fly inclusion
//! search, which the `incl` oracle checks against the rank oracle.
//!
//! This lives in its own integration-test binary so the process-global
//! sabotage flags cannot leak into any other test. The two drills
//! toggle disjoint flags and fuzz disjoint oracles, so they may run
//! concurrently within the binary.

use sl_buchi::antichain::sabotage;
use sl_conform::run::{fuzz, FuzzOptions};
use sl_conform::{check, Outcome};

#[test]
fn broken_subsumption_is_caught_and_shrunk_small() {
    sabotage::set_break_subsumption(true);
    let report = fuzz(&FuzzOptions {
        seed: 2003,
        cases: 64,
        oracles: vec!["incl"],
        only_case: None,
        max_seconds: None,
    });
    sabotage::set_break_subsumption(false);

    let findings = report.findings();
    assert!(
        !findings.is_empty(),
        "the incl oracle must catch a broken subsumption check within 64 cases"
    );
    // Acceptance bound: the shrunk reproducer has at most 8 automaton
    // states (summed over both operands).
    let smallest = findings.iter().map(|f| f.shrunk.weight()).min().unwrap();
    assert!(
        smallest <= 8,
        "smallest shrunk reproducer has weight {smallest}, want <= 8"
    );
    for finding in &findings {
        assert!(
            finding.repro.starts_with("slfuzz --seed 2003 --oracle incl --case "),
            "repro command malformed: {}",
            finding.repro
        );
        // The shrunk case must still fail under sabotage and pass with
        // the engine healthy — i.e. it reproduces the injected bug, not
        // some shrinking artifact.
        sabotage::set_break_subsumption(true);
        let broken = check(&finding.shrunk);
        sabotage::set_break_subsumption(false);
        assert!(
            matches!(broken, Outcome::Fail(_)),
            "shrunk case no longer reproduces under sabotage: {}",
            finding.shrunk.to_line()
        );
        let healthy = check(&finding.shrunk);
        assert!(
            matches!(healthy, Outcome::Pass | Outcome::Accepted(_)),
            "shrunk case fails even with the engine healthy: {healthy:?}"
        );
    }
}

#[test]
fn broken_relative_induction_is_caught_and_shrunk_small() {
    use sl_pdr::engine::sabotage as pdr_sabotage;
    pdr_sabotage::set_break_relative_induction(true);
    let report = fuzz(&FuzzOptions {
        seed: 2003,
        cases: 64,
        oracles: vec!["pdr"],
        only_case: None,
        max_seconds: None,
    });
    pdr_sabotage::set_break_relative_induction(false);

    let findings = report.findings();
    assert!(
        !findings.is_empty(),
        "the pdr oracle must catch a broken relative-induction check within 64 cases"
    );
    // Acceptance bound: the shrunk reproducer has at most 10 units of
    // weight (states + edges + bad states).
    let smallest = findings.iter().map(|f| f.shrunk.weight()).min().unwrap();
    assert!(
        smallest <= 10,
        "smallest shrunk reproducer has weight {smallest}, want <= 10"
    );
    for finding in &findings {
        assert!(
            finding.repro.starts_with("slfuzz --seed 2003 --oracle pdr --case "),
            "repro command malformed: {}",
            finding.repro
        );
        // The shrunk case must still fail under sabotage and pass with
        // the engine healthy.
        pdr_sabotage::set_break_relative_induction(true);
        let broken = check(&finding.shrunk);
        pdr_sabotage::set_break_relative_induction(false);
        assert!(
            matches!(broken, Outcome::Fail(_)),
            "shrunk case no longer reproduces under sabotage: {}",
            finding.shrunk.to_line()
        );
        let healthy = check(&finding.shrunk);
        assert!(
            matches!(healthy, Outcome::Pass | Outcome::Accepted(_)),
            "shrunk case fails even with the engine healthy: {healthy:?}"
        );
    }
}
