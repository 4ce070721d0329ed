//! `SIGTERM`, `SIGKILL` and restarts against a real `sbs serve` process.
//!
//! The signal latch is process-wide and a signal goes to a whole
//! process, so these tests have a binary of their own and the daemon
//! under test is a child.  `SIGTERM` interrupts the loop's readiness
//! wait (`EINTR`); the daemon must persist its state and exit zero.
//! `SIGKILL` gives it no say: what survives is what the auto-snapshot
//! cadence already put on disk.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A child `sbs serve`, killed when dropped still running, so a failed
/// assertion leaves no daemon behind.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort cleanup after a failed test"
            )]
            let _ = self.0.kill();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort cleanup after a failed test"
            )]
            let _ = self.0.wait();
        }
    }
}

/// Starts `sbs serve` on an ephemeral port with a virtual clock, a
/// 4-node machine and FCFS-backfill, plus `extra` flags; returns the
/// child, its banner and the address the banner ends with.
fn spawn_serve(extra: &[&str], snapshot_dir: &Path) -> (Served, String, String) {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sbs"))
        .args([
            "serve",
            "--port",
            "0",
            "--capacity",
            "4",
            "--policy",
            "fcfs-bf",
            "--virtual-clock",
        ])
        .args(extra)
        .arg("--snapshot-dir")
        .arg(snapshot_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sbs serve");
    // "<label> listening on <addr>" is the first line on stderr.
    let mut banner = String::new();
    BufReader::new(daemon.stderr.take().expect("piped stderr"))
        .read_line(&mut banner)
        .expect("banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("address")
        .to_string();
    (Served(daemon), banner, addr)
}

/// One protocol round trip on a fresh connection.
fn request(addr: &str, line: &str) -> serde_json::Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{line}").expect("write");
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).expect("read");
    serde_json::from_str(answer.trim()).expect("json")
}

/// Submits one job running and one waiting on the 4-node machine,
/// without naming a cluster.
fn submit_two(addr: &str) {
    for (id, nodes) in [(0, 4), (1, 2)] {
        let v = request(
            addr,
            &format!(r#"{{"op":"submit","nodes":{nodes},"runtime":3600,"submit":10}}"#),
        );
        assert_eq!(v["id"].as_u64(), Some(id), "{v}");
    }
}

/// Sends `signal` to the child and waits (bounded) for it to exit.
fn signal_and_wait(Served(daemon): &mut Served, signal: &str) -> std::process::ExitStatus {
    let sent = Command::new("kill")
        .args([signal, &daemon.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success());
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds how long the test waits for the daemon to exit"
    )]
    let sent = Instant::now();
    loop {
        if let Some(status) = daemon.try_wait().expect("wait") {
            return status;
        }
        assert!(
            sent.elapsed() < Duration::from_secs(1),
            "the daemon was still running 1 s after {signal}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sigterm_stops_the_daemon_cleanly_and_leaves_a_readable_snapshot() {
    let dir = std::env::temp_dir().join(format!("sbs-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (mut daemon, _, addr) = spawn_serve(&[], &dir);
    submit_two(&addr);

    let status = signal_and_wait(&mut daemon, "-TERM");
    assert!(status.success(), "exit status {status}");

    let saved = std::fs::read_to_string(dir.join("cluster-default.json"))
        .expect("snapshot written at shutdown");
    let saved: serde_json::Value = serde_json::from_str(&saved).expect("snapshot is JSON");
    assert_eq!(saved["running"][0]["id"].as_u64(), Some(0), "{saved}");
    assert_eq!(saved["waiting"][0]["id"].as_u64(), Some(1), "{saved}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn sigkill_loses_nothing_the_snapshot_cadence_wrote() {
    let dir = std::env::temp_dir().join(format!("sbs-sigkill-{}", std::process::id()));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort cleanup of a prior run's fixture"
    )]
    let _ = std::fs::remove_dir_all(&dir);
    let (mut daemon, _, addr) = spawn_serve(&["--snapshot-every", "1"], &dir);
    submit_two(&addr);
    let before = request(&addr, r#"{"op":"queue"}"#);

    // No shutdown path runs: the per-decision snapshots are all there
    // is.
    let status = signal_and_wait(&mut daemon, "-KILL");
    assert!(!status.success(), "SIGKILL is not a clean exit: {status}");

    let (mut daemon, banner, addr) = spawn_serve(&["--snapshot-every", "1"], &dir);
    // `default`'s snapshot file names it before any request touches it.
    assert!(banner.contains("(1 clusters recovered)"), "{banner}");
    let after = request(&addr, r#"{"op":"queue"}"#);
    for key in ["now", "queue", "running"] {
        assert_eq!(after[key], before[key], "{key}: {after} vs {before}");
    }
    assert_eq!(after["running"][0]["id"].as_u64(), Some(0), "{after}");
    assert_eq!(after["queue"][0]["id"].as_u64(), Some(1), "{after}");
    let v = request(&addr, r#"{"op":"shutdown"}"#);
    assert_eq!(v["ok"], true, "{v}");
    assert!(daemon.0.wait().expect("wait").success());
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn a_restart_on_the_same_trace_dir_mints_fresh_correlation_ids() {
    let dir = std::env::temp_dir().join(format!("sbs-corr-{}", std::process::id()));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort cleanup of a prior run's fixture"
    )]
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    let traces_flag = traces.to_str().expect("UTF-8 temp path");
    let mut answered = Vec::new();
    for run in 0..2 {
        let (mut daemon, _, addr) = spawn_serve(&["--trace-dir", traces_flag], &dir);
        for i in 0..3 {
            let at = 10 + 10 * (3 * run + i);
            let v = request(
                &addr,
                &format!(r#"{{"op":"submit","nodes":1,"runtime":3600,"submit":{at}}}"#),
            );
            answered.push(v["corr"].as_u64().expect("corr"));
        }
        let v = request(&addr, r#"{"op":"shutdown"}"#);
        assert_eq!(v["ok"], true, "{v}");
        assert!(daemon.0.wait().expect("wait").success());
    }
    let mut distinct = answered.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 6, "{answered:?}");
    // The appended decision log names each request once.
    let log = std::fs::read_to_string(traces.join("trace-default.jsonl")).expect("trace log");
    let mut logged: Vec<u64> = log
        .lines()
        .map(|l| serde_json::from_str::<serde_json::Value>(l).expect("JSONL"))
        .filter_map(|v| v["corr"].as_u64())
        .collect();
    logged.sort_unstable();
    assert_eq!(logged, distinct, "{log}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
