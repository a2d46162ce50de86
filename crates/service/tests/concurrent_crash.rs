//! The concurrent crash drill against the real binary: SIGKILL a
//! persistent `sld --tcp` daemon while several live connections are
//! mid-flight, and hold it to the tentpole guarantees —
//!
//! 1. every client's received response stream is a byte-prefix of a
//!    solo twin running the same script (concurrency and the kill
//!    never change *what* a client was told, only how far it got);
//! 2. the interleaved multi-client journal the kill leaves behind
//!    recovers (a torn tail is a crash signature, not corruption);
//! 3. every mutation a client saw acknowledged survives recovery (the
//!    write-ahead append hits the file before the response line does).

use sl_service::{PersistConfig, Service, ServiceConfig};
use sl_support::FaultPlan;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sl-cc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quiet() -> ServiceConfig {
    ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        ..ServiceConfig::default()
    }
}

/// Client `j`'s script: one namespaced define, then a long run of
/// journaled monitor-steps (every line a journal record, so the kill
/// always lands between or inside records of several interleaved
/// sessions).
fn client_script(j: usize) -> Vec<String> {
    let ns = format!("c{j}_");
    let mut lines = vec![format!(
        "{{\"id\":1,\"verb\":\"define\",\"name\":\"{ns}p0\",\"ltl\":\"G a\",\"alphabet\":[\"a\",\"b\"]}}"
    )];
    for i in 0..60usize {
        let sym = if (i + j) % 5 == 4 { "b" } else { "a" };
        lines.push(format!(
            "{{\"id\":{},\"verb\":\"monitor-step\",\"monitor\":\"{ns}m0\",\"target\":\"{ns}p0\",\"symbols\":[\"{sym}\"]}}",
            i + 2
        ));
    }
    lines
}

#[test]
fn sigkill_with_three_live_connections_recovers_every_acknowledged_mutation() {
    let dir = temp_dir("sigkill");
    // The daemon must run fault-free like its `quiet()` twins, even when
    // the suite itself runs under an environment fault drill.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sld"))
        .args(["--tcp", "127.0.0.1:0", "--persist"])
        .arg(&dir)
        .env_remove("SL_FAULT_RATE")
        .env_remove("SL_FAULT_SEED")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sld");
    // The banner carries the resolved address (the daemon bound port 0).
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).unwrap() == 0 {
            panic!("daemon exited before printing its banner");
        }
        if let Some(rest) = line.strip_prefix("sld: serving ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stderr so the daemon can never block on the pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut stderr, &mut sink);
    });

    // One reply counter per client: the kill waits until *every*
    // connection is past its define and several steps deep.
    let progress: Arc<Vec<AtomicU64>> =
        Arc::new((0..CLIENTS).map(|_| AtomicU64::new(0)).collect());
    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|j| {
                let progress = Arc::clone(&progress);
                let addr = addr.clone();
                scope.spawn(move || {
                    let stream = TcpStream::connect(&addr).expect("connect");
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut received = Vec::new();
                    for line in client_script(j) {
                        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                            break;
                        }
                        let mut reply = String::new();
                        match reader.read_line(&mut reply) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                        if !reply.ends_with('\n') {
                            break; // the kill tore this response mid-write
                        }
                        received.push(reply.trim_end().to_string());
                        progress[j].fetch_add(1, Ordering::SeqCst);
                    }
                    received
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while progress.iter().any(|p| p.load(Ordering::SeqCst) < 4) {
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("clients never reached the kill threshold");
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        child.kill().expect("SIGKILL the daemon");
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    child.wait().unwrap();

    // (1) Byte-prefix independence: each transcript against its twin.
    for (j, transcript) in transcripts.iter().enumerate() {
        assert!(transcript.len() >= 4, "client {j} stalled before the kill");
        let twin = Service::new(quiet());
        let expected: Vec<String> = client_script(j)
            .iter()
            .map(|l| twin.handle_line(l).line)
            .collect();
        assert!(transcript.len() <= expected.len());
        for (i, got) in transcript.iter().enumerate() {
            assert_eq!(
                got, &expected[i],
                "client {j}: reply {i} differs from the solo twin"
            );
        }
    }

    // (2) The interleaved journal recovers; a torn final record at
    // most costs an *unacknowledged* request.
    let recovered = Service::with_persistence(
        quiet(),
        &PersistConfig {
            dir: dir.clone(),
            snapshot_every: 0,
        },
    )
    .expect("multi-client journal left by SIGKILL must recover");

    // (3) Acknowledged mutations survived: every client saw its define
    // and at least three monitor-steps answered, so the recovered
    // daemon knows each name and each monitor session.
    for j in 0..CLIENTS {
        let classify = recovered
            .handle_line(&format!(
                "{{\"id\":90,\"verb\":\"classify\",\"target\":\"c{j}_p0\"}}"
            ))
            .line;
        assert!(
            classify.contains("\"class\":\"safety\""),
            "client {j}'s acknowledged define lost in recovery: {classify}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
