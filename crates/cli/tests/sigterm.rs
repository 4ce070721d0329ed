//! `SIGTERM` against a real `sbs serve` process.
//!
//! The signal latch is process-wide and a signal goes to a whole
//! process, so this test has a binary of its own and the daemon under
//! test is a child.  `SIGTERM` interrupts the loop's readiness wait
//! (`EINTR`); the daemon must persist its state and exit zero.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn sigterm_stops_the_daemon_cleanly_and_leaves_a_readable_snapshot() {
    let dir = std::env::temp_dir().join(format!("sbs-sigterm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("state.json");
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
            "--snapshot",
        ])
        .arg(&snapshot)
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

    // One job running, one waiting.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut answers = BufReader::new(stream.try_clone().expect("clone"));
    for (id, nodes) in [(0, 4), (1, 2)] {
        writeln!(
            stream,
            r#"{{"op":"submit","nodes":{nodes},"runtime":3600,"submit":10}}"#
        )
        .expect("write");
        let mut answer = String::new();
        answers.read_line(&mut answer).expect("read");
        let v: serde_json::Value = serde_json::from_str(answer.trim()).expect("json");
        assert_eq!(v["id"].as_u64(), Some(id), "{v}");
    }

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds how long the test waits for the daemon to exit"
    )]
    let sent = Instant::now();
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("wait") {
            break status;
        }
        if sent.elapsed() > Duration::from_secs(1) {
            // Leave no daemon behind a failed test.
            daemon.kill().expect("kill");
            panic!("the daemon was still running 1 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "exit status {status}");

    let saved = std::fs::read_to_string(&snapshot).expect("snapshot written at shutdown");
    let saved: serde_json::Value = serde_json::from_str(&saved).expect("snapshot is JSON");
    assert_eq!(saved["running"][0]["id"].as_u64(), Some(0), "{saved}");
    assert_eq!(saved["waiting"][0]["id"].as_u64(), Some(1), "{saved}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
