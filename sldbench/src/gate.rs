//! The correctness gate, run after the timed window against the
//! oracles the repository ships:
//!
//! * every response is `ok` and echoes its request's id;
//! * every `counterexample` / `separator` / `rejected` lasso is checked
//!   with `sl_buchi::accepts` against the operands;
//! * a seeded sample of positive inclusion, equivalence and
//!   universality answers is re-decided by the rank-based engine
//!   (`ComplementBudgetExceeded` is counted and skipped);
//! * `check` verdicts are compared with the `sl_pdr` BMC references,
//!   and their certificates replayed;
//! * every monitor verdict stream is replayed through the NFA-set
//!   `sl_buchi::Monitor`;
//! * repeated questions get byte-identical answers (the cache must be
//!   invisible except in the clock).

use crate::drive::{Resp, Sent, VERDICTS};
use crate::gen::{self, Expect, Model, Plan, QueryVerb, Req, FOREIGN_INDEX};
use sl_buchi::{accepts, equivalent_rank, included_rank, universal_rank, Buchi, Monitor};
use sl_omega::{LassoWord, Symbol, Word};
use sl_pdr::{bmc_lasso, bmc_safety, validate_lasso, validate_trace, SafetyVerdict};
use sl_service::json::{self, Json};
use sl_support::SplitMix;
use sl_trees::Kripke;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How many positive answers the rank oracle re-decides per run.
const RANK_SAMPLE: usize = 24;

#[derive(Debug, Default)]
pub struct GateReport {
    pub checked: u64,
    pub failed: u64,
    pub rank_checked: u64,
    pub rank_skipped: u64,
    /// `(connection, index)` of every window record that failed.
    pub failed_records: HashSet<(usize, usize)>,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl GateReport {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

type QueryKey = (QueryVerb, Arc<str>, Option<Arc<str>>);

struct Gate<'a> {
    plan: &'a Plan,
    monitors: HashMap<Arc<str>, Monitor>,
    answers: HashMap<QueryKey, String>,
    positives: Vec<QueryKey>,
}

/// Checks every answer of the run, in send order (monitor sessions
/// never cross connections, so that is each session's own order).
pub fn check<'a>(plan: &Plan, sent: impl Iterator<Item = Sent<'a>>, seed: u64) -> GateReport {
    let mut gate = Gate {
        plan,
        monitors: HashMap::new(),
        answers: HashMap::new(),
        positives: Vec::new(),
    };
    let mut report = GateReport::default();
    for s in sent {
        report.checked += 1;
        if let Err(e) = gate.record(&s.req, &s.record.resp) {
            report.fail(format!("{e}: {} -> {:?}", clip(&s.req.line), s.record.resp));
            if let Some(at) = s.at {
                report.failed_records.insert(at);
            }
        }
    }
    gate.rank_sample(seed, &mut report);
    report
}

fn clip(s: &str) -> String {
    if s.len() <= 160 {
        s.to_string()
    } else {
        let mut end = 160;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

fn parse_lasso(b: &Buchi, text: &str) -> Result<LassoWord, String> {
    let body = text
        .strip_suffix(")^w")
        .ok_or_else(|| format!("not a lasso: {text}"))?;
    let (stem, cycle) = body
        .rsplit_once('(')
        .ok_or_else(|| format!("not a lasso: {text}"))?;
    let sigma = b.alphabet();
    for name in stem.split_whitespace().chain(cycle.split_whitespace()) {
        if sigma.symbol(name).is_none() {
            return Err(format!("lasso names unknown symbol `{name}`"));
        }
    }
    if cycle.split_whitespace().next().is_none() {
        return Err(format!("lasso with empty cycle: {text}"));
    }
    Ok(LassoWord::new(
        &Word::parse(sigma, stem.trim()),
        &Word::parse(sigma, cycle.trim()),
    ))
}

fn flag(result: &Json, key: &str) -> Result<bool, String> {
    result
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("result lacks boolean `{key}`"))
}

fn text<'j>(result: &'j Json, key: &str) -> Result<&'j str, String> {
    result
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("result lacks string `{key}`"))
}

fn indices(result: &Json, key: &str) -> Result<Vec<usize>, String> {
    result
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("result lacks array `{key}`"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|i| i as usize)
                .ok_or_else(|| format!("`{key}` holds a non-index"))
        })
        .collect()
}

fn kripke(model: &Model) -> Kripke {
    let sigma = sl_omega::Alphabet::ab();
    let a = sigma.symbol("a").expect("ab");
    let b = sigma.symbol("b").expect("ab");
    let labels = (0..model.succ.len())
        .map(|s| if model.bad.contains(&s) { b } else { a })
        .collect();
    Kripke::new(sigma, labels, model.succ.clone(), model.initial)
}

impl Gate<'_> {
    fn record(&mut self, req: &Req, resp: &Resp) -> Result<(), String> {
        let want_id = gen::id_of(&req.line);
        match resp {
            Resp::Steps { id, verdicts, last } => {
                if Some(*id) != want_id {
                    return Err("response id does not match the request".into());
                }
                match &req.expect {
                    Expect::Step {
                        session,
                        symbols,
                        reset,
                    } => self.step(session, symbols, *reset, verdicts, *last),
                    _ => Err("a monitor-step answer to another verb".into()),
                }
            }
            Resp::Line(line) => {
                let doc = json::parse(line).map_err(|e| format!("unparsable response ({e})"))?;
                if doc.get("id").and_then(Json::as_u64) != want_id {
                    return Err("response id does not match the request".into());
                }
                self.item(&req.expect, &doc)
            }
        }
    }

    fn automaton(&self, name: &str) -> Result<Arc<Buchi>, String> {
        self.plan
            .names
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no automaton recorded for `{name}`"))
    }

    /// Checks one response object (a top-level line or a batch item).
    fn item(&mut self, expect: &Expect, doc: &Json) -> Result<(), String> {
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("response is not ok".into());
        }
        let result = doc.get("result").ok_or("ok response without result")?;
        match expect {
            Expect::Define { states } => {
                if let Some(n) = states {
                    let got = result.get("states").and_then(Json::as_u64);
                    if got != Some(*n as u64) {
                        return Err(format!("define reported {got:?} states, expected {n}"));
                    }
                }
                Ok(())
            }
            Expect::Decompose => match text(result, "check_sampled")? {
                "ok" => Ok(()),
                other => Err(format!("decompose self-check: {other}")),
            },
            Expect::Stats => result
                .get("requests")
                .map(|_| ())
                .ok_or_else(|| "stats without request counters".into()),
            Expect::Batch(items) => {
                let got = result
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("batch without results")?;
                if got.len() != items.len() {
                    return Err(format!(
                        "batch answered {} of {} items",
                        got.len(),
                        items.len()
                    ));
                }
                for (expect, doc) in items.iter().zip(got) {
                    self.item(expect, doc)?;
                }
                Ok(())
            }
            Expect::Query { verb, left, right } => self.query(*verb, left, right.as_ref(), result),
            Expect::Check(model) => self.check_verdict(model, result),
            Expect::Step {
                session,
                symbols,
                reset,
            } => {
                let code = |v: &Json| {
                    v.as_str()
                        .and_then(|name| VERDICTS.iter().position(|n| *n == name))
                        .map(|i| i as u8)
                        .ok_or_else(|| format!("unknown verdict {v:?}"))
                };
                let verdicts: Vec<u8> = result
                    .get("verdicts")
                    .and_then(Json::as_arr)
                    .ok_or("monitor-step without verdicts")?
                    .iter()
                    .map(code)
                    .collect::<Result<_, _>>()?;
                let last = code(
                    result
                        .get("verdict")
                        .ok_or("monitor-step without verdict")?,
                )?;
                self.step(session, symbols, *reset, &verdicts, last)
            }
        }
    }

    fn query(
        &mut self,
        verb: QueryVerb,
        left: &Arc<str>,
        right: Option<&Arc<str>>,
        result: &Json,
    ) -> Result<(), String> {
        let key: QueryKey = (verb, Arc::clone(left), right.cloned());
        let rendered = result.render();
        match self.answers.get(&key) {
            Some(first) if *first != rendered => {
                return Err(format!("answer differs from an earlier one: {first}"));
            }
            Some(_) => return Ok(()),
            None => {}
        }
        let a = self.automaton(left)?;
        let b = match right {
            Some(r) => Some(self.automaton(r)?),
            None => None,
        };
        let positive = match verb {
            QueryVerb::Include => {
                let b = b.as_ref().ok_or("include without right operand")?;
                let holds = flag(result, "holds")?;
                if !holds {
                    let w = parse_lasso(&a, text(result, "counterexample")?)?;
                    if !accepts(&a, &w) || accepts(b, &w) {
                        return Err("counterexample is not in L(left) \\ L(right)".into());
                    }
                }
                holds
            }
            QueryVerb::Equivalent => {
                let b = b.as_ref().ok_or("equivalent without right operand")?;
                let same = flag(result, "equivalent")?;
                if !same {
                    let w = parse_lasso(&a, text(result, "separator")?)?;
                    if accepts(&a, &w) == accepts(b, &w) {
                        return Err("separator does not separate the operands".into());
                    }
                }
                same
            }
            QueryVerb::Universal => {
                let all = flag(result, "universal")?;
                if !all {
                    let w = parse_lasso(&a, text(result, "rejected")?)?;
                    if accepts(&a, &w) {
                        return Err("the `rejected` word is accepted".into());
                    }
                }
                all
            }
            QueryVerb::Classify => {
                let class = text(result, "class")?;
                if !["safety", "liveness", "both", "neither"].contains(&class) {
                    return Err(format!("unknown class `{class}`"));
                }
                false
            }
        };
        if positive {
            self.positives.push(key.clone());
        }
        self.answers.insert(key, rendered);
        Ok(())
    }

    fn check_verdict(&self, model: &Model, result: &Json) -> Result<(), String> {
        let k = kripke(model);
        let verdict = text(result, "verdict")?;
        let expected = if model.liveness {
            bmc_lasso(&k, &model.bad).is_some()
        } else {
            matches!(bmc_safety(&k, &model.bad), SafetyVerdict::Unsafe { .. })
        };
        let (good, bad) = if model.liveness {
            ("live", "lasso")
        } else {
            ("safe", "unsafe")
        };
        let want = if expected { bad } else { good };
        if verdict != want {
            return Err(format!("check verdict `{verdict}`, BMC says `{want}`"));
        }
        match verdict {
            "unsafe" => validate_trace(&k, &model.bad, &indices(result, "trace")?),
            "lasso" => validate_lasso(
                &k,
                &model.bad,
                &indices(result, "stem")?,
                &indices(result, "loop")?,
            ),
            _ => Ok(()),
        }
    }

    fn step(
        &mut self,
        session: &Arc<str>,
        symbols: &[u8],
        reset: bool,
        got: &[u8],
        last: u8,
    ) -> Result<(), String> {
        let target = self
            .plan
            .sessions
            .get(session)
            .ok_or_else(|| format!("no target recorded for session `{session}`"))?;
        let monitor = self
            .monitors
            .entry(Arc::clone(session))
            .or_insert_with(|| Monitor::new(target));
        if reset {
            monitor.reset();
        }
        if got.len() != symbols.len() {
            return Err("one verdict per symbol expected".into());
        }
        for (&index, verdict) in symbols.iter().zip(got) {
            // Alphabets are built in the order the define listed them,
            // so symbol `i` of the generator's list is `Symbol(i)`.
            let sym = if index == FOREIGN_INDEX {
                Symbol(u16::MAX)
            } else {
                Symbol(u16::from(index))
            };
            let want = verdict_name(monitor.step(sym));
            if VERDICTS[usize::from(*verdict)] != want {
                return Err(format!(
                    "a verdict differs from the NFA-set monitor (`{want}`)"
                ));
            }
        }
        let want = verdict_name(monitor.verdict());
        if VERDICTS[usize::from(last)] != want {
            return Err(format!(
                "final verdict differs from the NFA-set monitor (`{want}`)"
            ));
        }
        Ok(())
    }

    /// Re-decides a seeded sample of positive answers with the
    /// rank-based engine.
    fn rank_sample(&self, seed: u64, report: &mut GateReport) {
        let mut pool = self.positives.clone();
        let mut rng = SplitMix::new(seed ^ 0x05EE_D0F0_AC1E);
        let mut picked = 0;
        while picked < RANK_SAMPLE && !pool.is_empty() {
            let (verb, left, right) = pool.swap_remove(rng.below(pool.len()));
            picked += 1;
            let (Ok(a), b) = (
                self.automaton(&left),
                right.as_ref().map(|r| self.automaton(r)),
            ) else {
                continue;
            };
            let b = match b {
                Some(Ok(b)) => Some(b),
                Some(Err(_)) => continue,
                None => None,
            };
            let verdict = match (verb, b) {
                (QueryVerb::Include, Some(b)) => included_rank(&a, &b).map(|r| r.holds()),
                (QueryVerb::Equivalent, Some(b)) => equivalent_rank(&a, &b).map(|r| r.is_ok()),
                (QueryVerb::Universal, None) => universal_rank(&a).map(|r| r.is_ok()),
                _ => continue,
            };
            match verdict {
                Ok(true) => report.rank_checked += 1,
                Ok(false) => {
                    report.rank_checked += 1;
                    report.fail(format!(
                        "rank oracle refutes a positive {verb:?} answer on {left} {right:?}"
                    ));
                }
                Err(_) => report.rank_skipped += 1,
            }
        }
    }
}

fn verdict_name(verdict: sl_buchi::Verdict) -> &'static str {
    match verdict {
        sl_buchi::Verdict::Ok => "ok",
        sl_buchi::Verdict::Violation => "violation",
        sl_buchi::Verdict::Unknown => "unknown",
    }
}
