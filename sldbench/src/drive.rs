//! The end-to-end side: start the real `sld --tcp` as a child process,
//! drive it over at most two TCP connections from at most two threads,
//! and record every request with its response and timestamps.

use crate::affinity;
use crate::gen::{self, Plan, Req, Source, Workload, READER_RPS, WRITER_THINK};
use std::collections::HashSet;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `sld` child.
pub struct Sld {
    child: Child,
    pub addr: SocketAddr,
    log: PathBuf,
    persist_dir: Option<PathBuf>,
}

/// Environment knobs `sld` reads; the benchmark runs it at defaults.
const SLD_ENV: [&str; 6] = [
    "SL_THREADS",
    "SL_INCL_ENGINE",
    "SL_FAULT_SEED",
    "SL_FAULT_RATE",
    "SL_SNAPSHOT_EVERY",
    "SL_PROP_SEED",
];

impl Sld {
    /// Starts `sld --tcp 127.0.0.1:0` (plus `--persist` into a fresh
    /// directory under `out_dir`) and waits until it accepts a
    /// connection. The daemon's stderr goes to a log file, so nothing
    /// has to drain a pipe while the benchmark runs.
    pub fn start(bin: &Path, out_dir: &Path, tag: &str, persist: bool) -> Result<Sld, String> {
        let log = out_dir.join(format!("sld-{tag}.log"));
        let stderr = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        // Started through `taskset` on every usable CPU: the calling
        // thread may be pinned, and `sld` must not inherit that.
        let mut cmd = match affinity::all_cpus() {
            Some(cpus) => {
                let mut cmd = Command::new("taskset");
                cmd.arg("-c").arg(cpus).arg(bin);
                cmd
            }
            None => Command::new(bin),
        };
        cmd.args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        for var in SLD_ENV {
            cmd.env_remove(var);
        }
        // glibc otherwise gives threads their own malloc arenas as it
        // sees fit (up to 8 per CPU), which alone moves `peak_rss_mb`
        // by a quarter from run to run. Four arenas leave one each to
        // the main thread, the set-up connection and the two window
        // connections: over five `query-mix` seeds the peak ranged over
        // 7.7–8.9 MB with two arenas and 8.9–9.2 MB with four, and one
        // arena, contended by both connections, halved the throughput.
        cmd.env("MALLOC_ARENA_MAX", "4");
        let persist_dir = if persist {
            let dir = out_dir.join(format!("persist-{tag}"));
            let _ = fs::remove_dir_all(&dir);
            cmd.arg("--persist").arg(&dir);
            Some(dir)
        } else {
            None
        };
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut sld = Sld {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log,
            persist_dir,
        };
        sld.addr = sld.wait_for_banner()?;
        Ok(sld)
    }

    /// Polls the log for the `sld: serving ADDR` banner.
    fn wait_for_banner(&mut self) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(&self.log).unwrap_or_default();
            // stderr is unbuffered, so the banner may land in pieces:
            // only a newline-terminated line is complete.
            let banner = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix("sld: serving "));
            if let Some(rest) = banner {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|e| format!("bad sld banner address `{addr}`: {e}"));
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("sld exited before serving ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("sld did not start serving within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn tasks(&self) -> HashSet<String> {
        fs::read_dir(format!("/proc/{}/task", self.pid()))
            .map(|dir| {
                dir.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Opens connection `index` and pins the `sld` thread that serves
    /// it (the one task the connection adds) next to the generator
    /// thread that drives it.
    pub fn open_pinned(&self, index: usize) -> Result<Conn, String> {
        let before = self.tasks();
        let conn = Conn::open(self.addr)?;
        if !affinity::available() {
            return Ok(conn);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let added: Vec<String> = self.tasks().difference(&before).cloned().collect();
            match added.as_slice() {
                [tid] => {
                    affinity::pin_task(tid, index);
                    return Ok(conn);
                }
                [] if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                _ => {
                    eprintln!(
                        "sldbench: no single sld thread serves connection {index}; left unpinned"
                    );
                    return Ok(conn);
                }
            }
        }
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb = text
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path} has no VmHWM line"))?;
        Ok(kb / 1024.0)
    }

    /// Drains the daemon with `shutdown` and waits for it to exit
    /// (killing it if it does not within 10 s), then removes its
    /// persistence directory and log.
    pub fn stop(mut self) -> Result<(), String> {
        let drained = Conn::open(self.addr).and_then(|mut c| {
            // A connection that ends while the drain is under way
            // shuts every live socket, this one included, possibly
            // before the `shutdown` answer is written; so wait until
            // the benchmark's earlier connections are gone.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !c
                .call("{\"id\":\"bench-sessions\",\"verb\":\"stats\"}")?
                .contains("\"active_sessions\":1,")
            {
                if Instant::now() > deadline {
                    return Err("earlier connections did not close within 10 s".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            c.call("{\"id\":\"bench-shutdown\",\"verb\":\"shutdown\"}")
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut exited = false;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(dir) = self.persist_dir.take() {
            let _ = fs::remove_dir_all(dir);
        }
        let _ = fs::remove_file(&self.log);
        match drained {
            Ok(reply) if reply.contains("\"bye\":true") && exited => Ok(()),
            Ok(reply) => Err(format!("sld did not drain cleanly: {reply}")),
            Err(e) => Err(format!("shutdown failed: {e}")),
        }
    }
}

impl Drop for Sld {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection: one line out, one line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns its response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("sld closed the connection".into());
        }
        Ok(self.buf.trim_end().to_string())
    }
}

/// A response as the benchmark keeps it. `monitor-step` answers — the
/// bulk of `monitor-fleet`, hundreds of thousands a run — are kept as
/// their id and one verdict code per symbol; anything that does not
/// have exactly that shape is kept verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resp {
    Steps {
        id: u64,
        verdicts: Box<[u8]>,
        last: u8,
    },
    Line(Box<str>),
}

/// Verdict codes of [`Resp::Steps`].
pub const VERDICTS: [&str; 3] = ["ok", "violation", "unknown"];

fn verdict_code(quoted: &str) -> Option<u8> {
    let name = quoted.strip_prefix('"')?.strip_suffix('"')?;
    VERDICTS.iter().position(|v| *v == name).map(|i| i as u8)
}

fn compact_steps(line: &str) -> Option<Resp> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let id = rest[..digits].parse().ok()?;
    let rest = rest[digits..].strip_prefix(",\"ok\":true,\"result\":{\"monitor\":")?;
    let (_, rest) = rest.split_once(",\"verdicts\":[")?;
    let (list, tail) = rest.split_once(']')?;
    let last = verdict_code(tail.strip_prefix(",\"verdict\":")?.strip_suffix("}}")?)?;
    let verdicts = if list.is_empty() {
        Vec::new()
    } else {
        list.split(',')
            .map(verdict_code)
            .collect::<Option<Vec<u8>>>()?
    };
    Some(Resp::Steps {
        id,
        verdicts: verdicts.into(),
        last,
    })
}

impl Resp {
    pub fn new(line: &str) -> Resp {
        compact_steps(line).unwrap_or_else(|| Resp::Line(line.into()))
    }
}

/// One request as the client saw it: its response and timestamps
/// (nanoseconds since the run's epoch). `scheduled` is when an
/// open-loop request was due (equal to `sent` in a closed loop). The
/// request itself is regenerated from the seed when needed (see
/// [`in_send_order`]), so a run keeps no request text.
pub struct Record {
    pub resp: Resp,
    pub scheduled: u64,
    pub sent: u64,
    pub received: u64,
    /// How late the generator itself sent an open-loop request: the
    /// send time minus the later of its due time and the previous
    /// answer (a wait for the previous answer is `sld`'s doing, a late
    /// timer wakeup the generator's). 0 in a closed loop.
    pub lag: u64,
}

impl Record {
    pub fn rtt_ns(&self) -> u64 {
        self.received - self.sent
    }

    /// Latency as the user of an open loop sees it: from when the
    /// request was due until its answer arrived, less the generator's
    /// own lateness. A request that waited for the previous answer
    /// counts from its due time; one the generator sent late while
    /// `sld` was idle counts its round trip.
    pub fn latency_ns(&self) -> u64 {
        (self.received - self.scheduled).saturating_sub(self.lag)
    }
}

/// The outcome of the timed window.
pub struct Window {
    /// Per connection, in send order.
    pub conns: Vec<Vec<Record>>,
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn send(conn: &mut Conn, line: &str, scheduled: u64, epoch: Instant) -> Result<Record, String> {
    let sent = ns_since(epoch);
    let response = conn.call(line)?;
    let received = ns_since(epoch);
    Ok(Record {
        resp: Resp::new(&response),
        scheduled: scheduled.min(sent),
        sent,
        received,
        lag: 0,
    })
}

/// Closed loop: each request is sent once the previous answer is in
/// and `think` has passed.
fn closed_loop(
    conn: &mut Conn,
    source: &mut dyn Source,
    epoch: Instant,
    stop: u64,
    think: Duration,
) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    loop {
        let req = source.next_req();
        if !out.is_empty() && !think.is_zero() {
            std::thread::sleep(think);
        }
        if ns_since(epoch) >= stop {
            return Ok(out);
        }
        out.push(send(conn, &req.line, u64::MAX, epoch)?);
    }
}

/// How long before an open-loop request's due time the sender stops
/// sleeping and spins.
const SPIN_NS: u64 = 1_000_000;

/// Open loop at `rps` on one connection: request k is due at
/// `k / rps`. A request is sent when due or, if the previous answer is
/// still outstanding, as soon as it arrives; its latency counts from
/// when it was due, so a stall is charged to every request behind it.
/// What the sender itself is late by is recorded as the request's
/// `lag` and left out of its latency.
fn open_loop(
    conn: &mut Conn,
    source: &mut dyn Source,
    epoch: Instant,
    stop: u64,
    rps: f64,
) -> Result<Vec<Record>, String> {
    let period = 1e9 / rps;
    let mut out: Vec<Record> = Vec::new();
    for k in 0u64.. {
        let scheduled = (k as f64 * period) as u64;
        if scheduled >= stop {
            break;
        }
        let req = source.next_req();
        // Sleep to within a millisecond of the due time, then spin:
        // a timer wakeup alone overshoots by a noisy tens of µs, and
        // by milliseconds now and then on a shared virtual machine.
        let now = ns_since(epoch);
        if now + SPIN_NS < scheduled {
            std::thread::sleep(Duration::from_nanos(scheduled - SPIN_NS - now));
        }
        while ns_since(epoch) < scheduled {
            std::hint::spin_loop();
        }
        let ready = scheduled.max(out.last().map_or(0, |r| r.received));
        let mut record = send(conn, &req.line, scheduled, epoch)?;
        record.lag = record.sent.saturating_sub(ready);
        out.push(record);
    }
    Ok(out)
}

/// Sends the plan's set-up script on one connection, recording each
/// request like the timed window does.
pub fn run_setup(conn: &mut Conn, setup: &[Req], epoch: Instant) -> Result<Vec<Record>, String> {
    setup
        .iter()
        .map(|req| send(conn, &req.line, u64::MAX, epoch))
        .collect()
}

/// Runs the timed window: connection 0 closed loop, connection 1
/// closed loop too, except on `define-under-load` where it is the
/// open-loop reader. Two threads, two connections.
pub fn run_window(plan: &mut Plan, sld: &Sld, seconds: u64) -> Result<Window, String> {
    let mut conns = [sld.open_pinned(0)?, sld.open_pinned(1)?];
    let open = plan.workload == Workload::DefineUnderLoad;
    let stop = seconds * 1_000_000_000;
    let epoch = Instant::now();
    let [c0, c1] = &mut conns;
    let (s0, rest) = plan.sources.split_at_mut(1);
    let (first, second) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            affinity::pin_current(0);
            let think = if open { WRITER_THINK } else { Duration::ZERO };
            closed_loop(c0, s0[0].as_mut(), epoch, stop, think)
        });
        affinity::pin_current(1);
        let second = if open {
            open_loop(c1, rest[0].as_mut(), epoch, stop, READER_RPS)
        } else {
            closed_loop(c1, rest[0].as_mut(), epoch, stop, Duration::ZERO)
        };
        let first = handle
            .join()
            .unwrap_or_else(|_| Err("connection 0 thread panicked".into()));
        (first, second)
    });
    Ok(Window {
        conns: vec![first?, second?],
    })
}

/// One sent request, regenerated, with what the client recorded for
/// it. `at` is `(connection, index)` for window requests, `None` for
/// set-up.
pub struct Sent<'a> {
    pub at: Option<(usize, usize)>,
    pub req: Req,
    pub record: &'a Record,
}

/// The run's requests regenerated from the seed, in the order they
/// were sent: set-up first, then both connections merged by send time
/// (each connection keeps its own order).
pub fn in_send_order<'a>(
    workload: Workload,
    seed: u64,
    setup: &'a [Record],
    window: &'a Window,
) -> impl Iterator<Item = Sent<'a>> + 'a {
    let Plan {
        setup: setup_reqs,
        mut sources,
        ..
    } = gen::plan(workload, seed);
    let head = setup_reqs.into_iter().zip(setup).map(|(req, record)| Sent {
        at: None,
        req,
        record,
    });
    let mut next = vec![0; window.conns.len()];
    let tail = std::iter::from_fn(move || {
        let c = (0..window.conns.len())
            .filter(|&c| next[c] < window.conns[c].len())
            .min_by_key(|&c| window.conns[c][next[c]].sent)?;
        let i = next[c];
        next[c] += 1;
        Some(Sent {
            at: Some((c, i)),
            req: sources[c].next_req(),
            record: &window.conns[c][i],
        })
    });
    head.chain(tail)
}

/// One connection's requests regenerated from the seed, with their
/// records.
pub fn conn_requests(
    workload: Workload,
    seed: u64,
    window: &Window,
    conn: usize,
) -> impl Iterator<Item = (Req, &Record)> {
    let mut source = gen::plan(workload, seed).sources.swap_remove(conn);
    window.conns[conn]
        .iter()
        .map(move |record| (source.next_req(), record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_step_answers_compact_losslessly_enough() {
        let line = r#"{"id":7,"ok":true,"result":{"monitor":"m1","target":"t1","verdicts":["ok","violation","unknown"],"verdict":"unknown"}}"#;
        assert_eq!(
            Resp::new(line),
            Resp::Steps {
                id: 7,
                verdicts: vec![0, 1, 2].into(),
                last: 2
            }
        );
        let empty = r#"{"id":8,"ok":true,"result":{"monitor":"m1","target":"t1","verdicts":[],"verdict":"ok"}}"#;
        assert!(matches!(Resp::new(empty), Resp::Steps { last: 0, .. }));
        for other in [
            r#"{"id":9,"ok":false,"error":{"kind":"parse","message":"x"}}"#,
            r#"{"id":9,"ok":true,"result":{"monitor":"m1","target":"t1","verdicts":["maybe"],"verdict":"ok"}}"#,
            r#"{"id":9,"ok":true,"result":{"holds":true}}"#,
        ] {
            assert_eq!(Resp::new(other), Resp::Line(other.into()));
        }
    }
}
