//! `sldbench` — the `sld` benchmark: one workload per run against the
//! real `sld --tcp` binary, driven from this single process over at
//! most two TCP connections and two threads.
//!
//! ```text
//! sldbench --sld PATH --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Workloads: `query-mix`, `monitor-fleet`, `define-under-load` (see
//! `sldbench/README.md`). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the same window, then replays the recorded stream
//! in-process with spans around each layer and prints the per-layer
//! metrics, writing the spans under `--out` (default `.bench_out`).
//! Every answer passes the correctness gate or the run fails: the last
//! stdout line is the JSON result, and the exit code is 1 when
//! `correct` is false.

mod affinity;
mod drive;
mod gate;
mod gen;
mod report;
mod trace;

use drive::{Conn, Record, Sld, Window};
use gen::{Plan, Workload};
use report::{mean, percentile, ratio, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// The open-loop read deadline behind `read_within_limit_ratio`.
const READ_LIMIT_MS: f64 = 10.0;

/// End-to-end timings are computed per round of this length (the
/// window's seconds, by send time) and reported as the median over
/// rounds.
const ROUND_NS: u64 = 1_000_000_000;

/// The traced run replays at most this many requests of the recorded
/// stream (set-up first, then in send order), which keeps a traced
/// `monitor-fleet` run — over a million requests — within minutes.
const REPLAYED: usize = 50_000;

/// Generator lag (p99) beyond which a run is flagged: the load
/// generator, not `sld`, fell behind its schedule.
const LAG_FLAG_MS: f64 = 2.0;

struct Args {
    sld: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut sld = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--sld" => sld = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        sld: sld.ok_or("--sld is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// Starts `sld`, sends the set-up script, and returns the daemon with
/// the set-up records and the time it took (spawn until it accepts,
/// plus the set-up requests).
fn set_up(args: &Args, plan: &Plan, k: usize) -> Result<(Sld, Vec<Record>, f64), String> {
    let tag = format!("{}-{}-{k}", args.workload.name(), args.seed);
    let start = Instant::now();
    let sld = Sld::start(&args.sld, &args.out, &tag, plan.persist)?;
    let mut conn = Conn::open(sld.addr)?;
    let records = drive::run_setup(&mut conn, &plan.setup, start)?;
    Ok((sld, records, start.elapsed().as_secs_f64()))
}

/// The end-to-end metrics. On `define-under-load` the `write_*`
/// metrics are connection 0's (the writer) and the `read_*` metrics
/// connection 1's (the open-loop reader). On the closed-loop workloads
/// the two connections run the same kind of stream and every metric
/// covers both: split by connection, the figures measured the CPU each
/// connection was pinned to as much as `sld` (in some runs one
/// connection's median round trip was a quarter above the other's,
/// and which one changed between repeats of a seed).
///
/// Each latency is computed per round — each second of the window, by
/// send time — and reported as the median over rounds, so one burst
/// of interference on a shared machine moves a few rounds, not the
/// result. A percentile per round also depends on the typical second
/// rather than on the window's few most extreme requests: on
/// `define-under-load` the reads' p99 is set by the writer's longest
/// critical sections, and the median over seconds of each second's p99
/// spread about half as much from run to run as one p99 over the
/// window.
fn end_to_end(
    window: &Window,
    seconds: u64,
    open_loop: bool,
    gate: &gate::GateReport,
    setup_s: f64,
    peak_rss_mb: f64,
    metrics: &mut Metrics,
) {
    let both: &[usize] = &[0, 1];
    let (writer, reader): (&[usize], &[usize]) = if open_loop {
        (&[0], &[1])
    } else {
        (both, both)
    };
    let count = seconds as usize;
    // rounds[r][c]: records of connection c sent in round r.
    let mut rounds = vec![vec![Vec::new(), Vec::new()]; count];
    for (c, records) in window.conns.iter().enumerate() {
        for r in records {
            let round = ((r.sent / ROUND_NS) as usize).min(count - 1);
            rounds[round][c].push(r);
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    // The p-th percentile of `f` over the requests of `conns` sent in
    // each round, as the median over rounds.
    let per_round = |conns: &[usize], f: fn(&Record) -> u64, p: f64| {
        let each: Vec<f64> = rounds
            .iter()
            .map(|round| {
                let v: Vec<f64> = conns
                    .iter()
                    .flat_map(|&c| &round[c])
                    .map(|r| ms(f(r)))
                    .collect();
                percentile(&v, p)
            })
            .collect();
        percentile(&each, 50.0)
    };
    // Throughput is counted over the whole window, from its start to
    // its last answer: a per-round count is a whole number, and on
    // `define-under-load`, paced by the reader's schedule and the
    // writer's think time, its median would read the same in most runs.
    let rate = |conns: &[usize]| {
        let answered: usize = conns.iter().map(|&c| window.conns[c].len()).sum();
        let end = conns
            .iter()
            .filter_map(|&c| window.conns[c].last())
            .map(|r| r.received)
            .max()
            .unwrap_or(0);
        ratio(answered as f64, end as f64 / 1e9)
    };
    metrics.add("setup_s", setup_s, "s");
    metrics.add("throughput_rps", rate(both), "req/s");
    metrics.add(
        "latency_p50_ms",
        per_round(both, Record::rtt_ns, 50.0),
        "ms",
    );
    metrics.add(
        "latency_p99_ms",
        per_round(both, Record::rtt_ns, 99.0),
        "ms",
    );
    metrics.add("write_throughput_rps", rate(writer), "req/s");
    metrics.add(
        "write_latency_p50_ms",
        per_round(writer, Record::rtt_ns, 50.0),
        "ms",
    );
    metrics.add(
        "read_latency_p50_ms",
        per_round(reader, Record::latency_ns, 50.0),
        "ms",
    );
    metrics.add(
        "read_latency_p99_ms",
        per_round(reader, Record::latency_ns, 99.0),
        "ms",
    );
    // Over the whole window too: a share of one second's 200 reads
    // moves in steps of 0.005.
    let (mut within, mut reads) = (0, 0);
    for &c in reader {
        for (i, r) in window.conns[c].iter().enumerate() {
            reads += 1;
            if ms(r.latency_ns()) <= READ_LIMIT_MS && !gate.failed_records.contains(&(c, i)) {
                within += 1;
            }
        }
    }
    metrics.add(
        "read_within_limit_ratio",
        ratio(f64::from(within), f64::from(reads)),
        "ratio",
    );
    metrics.add("peak_rss_mb", peak_rss_mb, "MB");
}

/// How late the open-loop sender ran, per request (see
/// [`Record::lag`]).
fn generator_lag_ms(reads: &[Record]) -> Vec<f64> {
    reads.iter().map(|r| r.lag as f64 / 1e6).collect()
}

/// The traced run's per-layer metrics; returns whether its own checks
/// (identical counts in the untraced and traced replays, identical
/// answers to the end-to-end run) passed.
fn per_layer(
    args: &Args,
    plan: &Plan,
    setup: &[Record],
    window: &Window,
    lag: f64,
    metrics: &mut Metrics,
) -> Result<bool, String> {
    let (workload, seed) = (args.workload, args.seed);
    let total = (setup.len() + window.conns.iter().map(Vec::len).sum::<usize>()).min(REPLAYED);
    let sent = || drive::in_send_order(workload, seed, setup, window).take(total);
    let stem = format!("{}-{}", workload.name(), seed);
    let dir = |name: &str| args.out.join(format!("replay-{stem}-{name}"));
    let persist = plan.persist;
    let (dir_a, dir_b, dir_m) = (dir("plain"), dir("traced"), dir("mirror"));
    let plain = trace::replay_plain(sent(), persist.then_some(dir_a.as_path()))?;
    let traced = trace::replay_traced(
        sent(),
        total,
        persist.then_some((dir_b.as_path(), dir_m.as_path())),
    )?;
    for d in [&dir_a, &dir_b, &dir_m] {
        let _ = std::fs::remove_dir_all(d);
    }
    let mut ok = true;
    if plain.counts != traced.replay.counts {
        ok = false;
        eprintln!("sldbench: untraced and traced replays report different counts:");
        for ((name, a), (_, b)) in plain.counts.iter().zip(&traced.replay.counts) {
            if a != b {
                eprintln!("  {name}: {a} vs {b}");
            }
        }
    }
    if traced.mismatched > 0 {
        ok = false;
        eprintln!(
            "sldbench: {} in-process answers differ from sld's",
            traced.mismatched
        );
    }
    let s = &traced.summary;
    let (spans_path, layers_path) = trace::write_spans(&args.out, &stem, &traced.spans, s)?;
    eprintln!(
        "sldbench: {} spans in {}, time per layer in {}",
        traced.spans.len(),
        spans_path.display(),
        layers_path.display()
    );
    let lock_wait = if workload == Workload::DefineUnderLoad {
        let dirs = (dir("beside"), dir("solo"));
        let waits = trace::lock_wait_ms(workload, seed, setup, window, (&dirs.0, &dirs.1))?;
        percentile(&waits, 99.0)
    } else {
        0.0
    };

    let c = |name: &str| trace::count(&traced.replay.counts, name);
    let t = &traced.tally;
    let transport_us = &traced.transport_us;
    let us = |v: &[f64], p: f64| percentile(v, p) / 1e3;
    let compiled_ns = s
        .by_name
        .get("compiled.step")
        .map_or(0.0, |v| v.iter().sum());
    let snapshots = s
        .by_name
        .get("persist.snapshot")
        .cloned()
        .unwrap_or_default();

    metrics.add(
        "server.transport_us_p50",
        percentile(transport_us, 50.0),
        "us",
    );
    metrics.add("json.parse_us_p50", s.p50_us("json.parse"), "us");
    metrics.add("json.render_us_p50", s.p50_us("json.render"), "us");
    metrics.add("json.request_bytes_mean", mean(&t.request_bytes), "bytes");
    metrics.add("json.response_bytes_mean", mean(&t.response_bytes), "bytes");
    metrics.add("proto.request_us_p50", s.p50_us("proto.request"), "us");
    metrics.add("engine.handle_line_us_p50", us(&s.handle_ns, 50.0), "us");
    metrics.add("engine.handle_line_us_p99", us(&s.handle_ns, 99.0), "us");
    metrics.add("engine.self_us_p50", us(&s.self_ns, 50.0), "us");
    metrics.add("engine.lock_wait_ms_p99", lock_wait, "ms");
    metrics.add(
        "cache.hit_ratio",
        ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
        "ratio",
    );
    metrics.add("cache.clears", c("cache.clears"), "count");
    metrics.add(
        "check_cache.hit_ratio",
        ratio(
            c("check.cache.hits"),
            c("check.cache.hits") + c("check.cache.misses"),
        ),
        "ratio",
    );
    metrics.add("ltl.parse_us_total", s.total_us("ltl.parse"), "us");
    metrics.add("ltl.translate_ms_total", s.total_ms("ltl.translate"), "ms");
    metrics.add("ltl.states_out", t.ltl_states_out as f64, "count");
    metrics.add("hoa.from_hoa_ms_total", s.total_ms("hoa.from_hoa"), "ms");
    metrics.add("hoa.bytes_in", t.hoa_bytes_in as f64, "bytes");
    metrics.add(
        "interned.quotient_ms_total",
        s.total_ms("interned.quotient"),
        "ms",
    );
    metrics.add(
        "interned.advance_ms_total",
        s.total_ms("interned.advance"),
        "ms",
    );
    metrics.add(
        "interned.dirty_sccs",
        c("engine.quotient_cache.dirty_sccs"),
        "count",
    );
    metrics.add(
        "interned.clean_sccs",
        c("engine.quotient_cache.clean_sccs"),
        "count",
    );
    metrics.add("interned.states_in", t.interned_states_in as f64, "count");
    metrics.add("interned.states_out", t.interned_states_out as f64, "count");
    metrics.add(
        "interned.hit_ratio",
        ratio(
            c("engine.quotient_cache.hits"),
            c("engine.quotient_cache.hits") + c("engine.quotient_cache.misses"),
        ),
        "ratio",
    );
    metrics.add(
        "antichain.search_ms_total",
        s.total_ms("antichain.search"),
        "ms",
    );
    metrics.add(
        "antichain.searches",
        c("engine.antichain.searches"),
        "count",
    );
    metrics.add(
        "antichain.insert_attempts",
        c("engine.antichain.insert_attempts"),
        "count",
    );
    metrics.add(
        "antichain.subsumption_scans",
        c("engine.antichain.subsumption_scans"),
        "count",
    );
    metrics.add(
        "antichain.peak_macro_states",
        c("engine.antichain.peak_macro_states"),
        "count",
    );
    metrics.add(
        "antichain.useful_ratio",
        ratio(t.antichain_final as f64, t.antichain_attempts as f64),
        "ratio",
    );
    metrics.add("classify.ms_total", s.total_ms("classify"), "ms");
    metrics.add(
        "complement_cache.hit_ratio",
        ratio(
            c("engine.complement_cache.hits"),
            c("engine.complement_cache.hits") + c("engine.complement_cache.misses"),
        ),
        "ratio",
    );
    metrics.add(
        "compiled.step_ns",
        ratio(compiled_ns, t.compiled_steps as f64),
        "ns",
    );
    metrics.add("compiled.steps", t.compiled_steps as f64, "count");
    metrics.add("pdr.safety_ms_total", s.total_ms("pdr.safety"), "ms");
    metrics.add("pdr.liveness_ms_total", s.total_ms("pdr.liveness"), "ms");
    metrics.add("pdr.frames", c("check.frames"), "count");
    metrics.add("pdr.obligations", c("check.obligations"), "count");
    metrics.add("pdr.generalizations", c("check.generalizations"), "count");
    metrics.add("pdr.k_reached", c("check.k_reached"), "count");
    metrics.add("persist.append_us_p50", s.p50_us("persist.append"), "us");
    metrics.add(
        "persist.snapshot_ms_p50",
        percentile(&snapshots, 50.0) / 1e6,
        "ms",
    );
    metrics.add("persist.snapshots", c("persist.snapshots_taken"), "count");
    metrics.add("persist.journal_bytes", t.journal_bytes as f64, "bytes");
    metrics.add("loadgen.lag_p99_ms", lag, "ms");
    metrics.add(
        "trace.overhead_ratio",
        ratio(traced.replay.busy_s, plain.busy_s),
        "ratio",
    );
    Ok(ok)
}

fn run(args: &Args) -> Result<(Metrics, Metrics, bool, u64, u64), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    // The main thread drives set-up and connection 1 throughout.
    affinity::pin_current(1);
    let mut plan = gen::plan(args.workload, args.seed);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut extra_failed = 0;
    let mut kept = None;
    for k in 0..SETUPS {
        let (sld, records, secs) = set_up(args, &plan, k)?;
        setup_times.push(secs);
        if k + 1 < SETUPS {
            extra_failed += records
                .iter()
                .filter(|r| match &r.resp {
                    drive::Resp::Steps { .. } => false,
                    drive::Resp::Line(line) => !line.contains("\"ok\":true"),
                })
                .count() as u64;
            sld.stop()?;
        } else {
            kept = Some((sld, records));
        }
    }
    let (sld, setup) = kept.expect("at least one set-up");
    let window = drive::run_window(&mut plan, &sld, args.seconds)?;
    let peak_rss_mb = sld.peak_rss_mb()?;
    sld.stop()?;

    let sent = drive::in_send_order(args.workload, args.seed, &setup, &window);
    let gate = gate::check(&plan, sent, args.seed);
    let failed = gate.failed + extra_failed;
    let attempted = gate.checked + (SETUPS as u64 - 1) * plan.setup.len() as u64;
    for note in &gate.notes {
        eprintln!("sldbench: wrong answer: {note}");
    }
    eprintln!(
        "sldbench: gate checked {} answers ({} re-decided by the rank oracle, {} skipped over budget), {} failed",
        gate.checked, gate.rank_checked, gate.rank_skipped, gate.failed
    );

    let mut e2e = Metrics::default();
    end_to_end(
        &window,
        args.seconds,
        plan.workload == Workload::DefineUnderLoad,
        &gate,
        percentile(&setup_times, 50.0),
        peak_rss_mb,
        &mut e2e,
    );
    let lag = if plan.workload == Workload::DefineUnderLoad {
        percentile(&generator_lag_ms(&window.conns[1]), 99.0)
    } else {
        0.0
    };
    if lag > LAG_FLAG_MS {
        eprintln!(
            "sldbench: FLAG: the load generator fell behind its open-loop schedule \
             (lag p99 {lag:.3} ms > {LAG_FLAG_MS} ms); read latencies overstate sld's"
        );
    }
    let mut correct = failed == 0;
    let mut layers = Metrics::default();
    if args.trace {
        correct &= per_layer(args, &plan, &setup, &window, lag, &mut layers)?;
    }
    Ok((e2e, layers, correct, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sldbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.sld).is_file() {
        eprintln!("sldbench: no sld binary at {}", args.sld.display());
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok((e2e, layers, correct, attempted, failed)) => {
            let name = args.workload.name();
            print!("{}", e2e.table(name));
            println!(
                "{name:<18} {:<28} {:>14.6} ratio",
                "error_rate",
                ratio(failed as f64, attempted as f64)
            );
            let shown = if args.trace {
                print!("{}", layers.table(name));
                &layers
            } else {
                &e2e
            };
            println!("{}", shown.result_line(correct, attempted, failed));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sldbench: {e}");
            ExitCode::from(2)
        }
    }
}
