//! Load-generator thread placement.
//!
//! Each of the generator's two threads is pinned to its own CPU, and
//! so is the `sld` thread serving that connection, so a connection's
//! request/response handoff does not bounce between CPUs at the
//! scheduler's whim (on a 2-CPU machine that alone swings the
//! `monitor-fleet` throughput by a factor of two from one second to
//! the next), and one connection's compute never queues the other's
//! requests behind it on one CPU. The rest of `sld` is started on
//! every CPU the benchmark may use (threads a connection thread
//! spawns, such as `batch` workers, inherit its CPU).
//!
//! Pinning goes through `taskset` (util-linux), since the standard
//! library has no affinity call; without it the generator runs
//! unpinned and says so once.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// The CPUs this process may run on, when `taskset` is usable.
fn cpus() -> Option<&'static [usize]> {
    static CPUS: OnceLock<Option<Vec<usize>>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
            .trim()
            .to_string();
        let cpus = parse_list(&list)?;
        let usable = Command::new("taskset")
            .arg("-V")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !usable {
            eprintln!("sldbench: taskset not found; load-generator threads run unpinned");
            return None;
        }
        Some(cpus)
    })
    .as_deref()
}

/// Parses a kernel CPU list such as `0-1,4`.
fn parse_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The `taskset -c` list of every CPU the benchmark may use, for
/// starting `sld` unpinned whatever thread starts it.
pub fn all_cpus() -> Option<String> {
    cpus().map(|c| c.iter().map(usize::to_string).collect::<Vec<_>>().join(","))
}

/// Whether threads can be pinned at all.
pub fn available() -> bool {
    cpus().is_some()
}

/// Pins thread `tid` (of any process) to the CPU of connection `conn`.
pub fn pin_task(tid: &str, conn: usize) {
    let Some(cpus) = cpus() else { return };
    let cpu = cpus[conn % cpus.len()];
    let _ = Command::new("taskset")
        .args(["-pc", &cpu.to_string(), tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Pins the calling thread to the CPU of connection `conn`.
pub fn pin_current(conn: usize) {
    if let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|link| link.file_name().map(|t| t.to_string_lossy().into_owned()))
    {
        pin_task(&tid, conn);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_list;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_list("0,2-3"), Some(vec![0, 2, 3]));
        assert_eq!(parse_list("x"), None);
    }
}
