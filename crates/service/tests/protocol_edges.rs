//! Protocol edge cases against the live readiness loop: malformed
//! lines, oversized batches, mid-batch disconnects, and over-long
//! requests must each produce a typed error (or a clean close) without
//! wedging the loop for other clients; a client that floods the loop or
//! never reads its answers is bounded in what it can make the server
//! buffer; and the loop wakes on an arrival, not on a timer.

use sbs_core::PolicySpec;
use sbs_service::{Daemon, Server, ServiceConfig, VirtualClock};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn start_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    start_server_with(8)
}

fn start_server_with(
    capacity: u32,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let daemon = Daemon::fresh(ServiceConfig::new(capacity, PolicySpec::FcfsBackfill));
    let server = Server::new(daemon, VirtualClock::default());
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run(listener));
    (addr, handle)
}

/// One connection kept open across requests.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        // A loop that stops answering fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn send(&mut self, bytes: &str) {
        self.writer.write_all(bytes.as_bytes()).expect("write");
    }

    fn answer_text(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        response
    }

    fn answer(&mut self) -> serde_json::Value {
        serde_json::from_str(self.answer_text().trim()).expect("json response")
    }

    fn round_trip(&mut self, line: &str) -> serde_json::Value {
        self.send(&format!("{line}\n"));
        self.answer()
    }
}

fn send_line(addr: std::net::SocketAddr, line: &str) -> serde_json::Value {
    Client::connect(addr).round_trip(line)
}

fn shut_down(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let v = send_line(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(v["ok"], true);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn malformed_lines_get_typed_errors_and_the_loop_survives() {
    let (addr, handle) = start_server();
    for line in [
        "{",
        "not json at all",
        r#"{"op":"warp"}"#,
        r#"{"op":"submit"}"#,
        r#"{"op":"submit","nodes":0,"runtime":60}"#,
        r#"{"op":"submit_batch","jobs":[]}"#,
        r#"{"op":"submit_batch","jobs":"nope"}"#,
    ] {
        let v = send_line(addr, line);
        assert_eq!(v["ok"], false, "{line} should be rejected");
        assert!(v["error"].as_str().is_some(), "{line} carries an error");
    }
    // The loop still serves well-formed requests afterwards.
    let v = send_line(addr, r#"{"op":"submit","nodes":2,"runtime":60,"submit":5}"#);
    assert_eq!(v["ok"], true);
    shut_down(addr, handle);
}

#[test]
fn oversized_batches_are_rejected_whole() {
    let (addr, handle) = start_server();
    let huge = format!(
        r#"{{"op":"submit_batch","jobs":[{}]}}"#,
        vec![r#"{"nodes":1,"runtime":1}"#; sbs_service::protocol::MAX_BATCH + 1].join(",")
    );
    let v = send_line(addr, &huge);
    assert_eq!(v["ok"], false);
    assert!(
        v["error"]
            .as_str()
            .unwrap_or_default()
            .contains("batch cap"),
        "{v}"
    );
    // No job from the oversized batch was admitted.
    let v = send_line(addr, r#"{"op":"queue"}"#);
    assert_eq!(v["queue"].as_array().map(Vec::len), Some(0));
    assert_eq!(v["running"].as_array().map(Vec::len), Some(0));
    shut_down(addr, handle);
}

#[test]
fn mid_batch_disconnect_does_not_wedge_other_clients() {
    let (addr, handle) = start_server();
    // A client starts a (valid) batch line but disconnects before the
    // newline: the partial line must simply be discarded.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, r#"{{"op":"submit_batch","jobs":[{{"nodes":1,"#).expect("write");
        // Dropped here: no newline ever arrives.
    }
    // Another client flushes half a batch, then shuts its write side
    // down before disconnecting.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            r#"{{"op":"submit_batch","jobs":[{{"nodes":1,"runtime":9"#
        )
        .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
    }
    let v = send_line(
        addr,
        r#"{"op":"submit_batch","jobs":[{"nodes":2,"runtime":60},{"nodes":2,"runtime":60}]}"#,
    );
    assert_eq!(v["ok"], true);
    assert_eq!(v["accepted"].as_u64(), Some(2));
    shut_down(addr, handle);
}

#[test]
fn over_long_lines_are_cut_off_with_an_error() {
    let (addr, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Stream > MAX_LINE_BYTES of junk with no newline; the server must
    // answer with an error and close rather than buffer forever.
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= sbs_service::server::MAX_LINE_BYTES {
        if stream.write_all(&chunk).is_err() {
            break; // server already closed on us — that's fine too
        }
        sent += chunk.len();
    }
    let mut response = String::new();
    // A typed error is best; a clean close (empty read) is acceptable.
    if BufReader::new(stream).read_line(&mut response).is_ok() && !response.trim().is_empty() {
        let v: serde_json::Value = serde_json::from_str(response.trim()).expect("json");
        assert_eq!(v["ok"], false);
        assert!(
            v["error"].as_str().unwrap_or_default().contains("exceeds"),
            "{v}"
        );
    }
    // The loop still answers the next client.
    let v = send_line(addr, r#"{"op":"queue"}"#);
    assert_eq!(v["ok"], true);
    shut_down(addr, handle);
}

#[test]
fn a_legal_line_then_junk_without_a_newline_is_cut_off_and_starves_nobody() {
    let (addr, handle) = start_server();
    let mut bystander = Client::connect(addr);
    assert_eq!(bystander.round_trip(r#"{"op":"queue"}"#)["ok"], true);

    // One line just under the cap, its newline, then junk that never
    // ends.  The cap is on the unterminated tail, so the newline earlier
    // in the buffer must not switch it off.
    const LIMIT: usize = 16 << 20;
    let (flowing, junk_flowing) = mpsc::channel();
    let flooder = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut line = vec![b'x'; 1_000_000];
        line.push(b'\n');
        stream.write_all(&line).expect("the legal line is accepted");
        let chunk = vec![b'y'; 64 * 1024];
        let mut sent = 0usize;
        while sent < LIMIT && stream.write_all(&chunk).is_ok() {
            sent += chunk.len();
            if sent == 4 * chunk.len() {
                flowing.send(()).expect("main thread waits");
            }
        }
        sent
    });
    junk_flowing.recv().expect("the flood started");
    // Another client is answered while the flood is on: a connection
    // gets one read budget per sweep, not the loop.
    assert_eq!(bystander.round_trip(r#"{"op":"queue"}"#)["ok"], true);
    let sent = flooder.join().expect("flooder");
    assert!(
        sent < LIMIT,
        "the server swallowed {sent} bytes of an unterminated line"
    );
    assert_eq!(bystander.round_trip(r#"{"op":"queue"}"#)["ok"], true);
    drop(bystander);
    shut_down(addr, handle);
}

#[test]
fn a_client_that_never_reads_is_held_back_not_buffered_without_limit() {
    // 2,000 running jobs make every `queue` answer ~125 KB.
    let (addr, handle) = start_server_with(2_048);
    let batch = format!(
        r#"{{"op":"submit_batch","jobs":[{}]}}"#,
        vec![r#"{"nodes":1,"runtime":1000000}"#; 1_000].join(",")
    );
    let mut bystander = Client::connect(addr);
    for _ in 0..2 {
        assert_eq!(
            bystander.round_trip(&batch)["accepted"].as_u64(),
            Some(1_000)
        );
    }

    // 300 submit/queue pairs in one write, ~37 MB of answers, and nobody
    // reading them: far more than the socket buffers between the two
    // ends can hold.
    const PAIRS: usize = 300;
    let mut pipeliner = Client::connect(addr);
    pipeliner.send(
        &[
            r#"{"op":"submit","nodes":1,"runtime":1000000}"#,
            r#"{"op":"queue"}"#,
            "",
        ]
        .join("\n")
        .repeat(PAIRS),
    );
    // Other clients are served meanwhile, and the server has stopped
    // dispatching the pipeliner's lines instead of queueing every answer
    // in memory: not all of its submits have happened yet.
    std::thread::sleep(Duration::from_millis(300));
    bystander.send("{\"op\":\"queue\"}\n");
    // Running and queued jobs in a `queue` answer, one `"id"` each.
    let jobs = |view: String| view.matches(r#""id":"#).count();
    assert!(
        jobs(bystander.answer_text()) < 2_000 + PAIRS,
        "every pipelined request was dispatched with nobody reading the answers"
    );
    // Once the client reads, every answer arrives, in order.
    for pair in 0..PAIRS {
        let submitted = pipeliner.answer();
        assert_eq!(submitted["id"].as_u64(), Some((2_000 + pair) as u64));
        assert_eq!(
            jobs(pipeliner.answer_text()),
            2_001 + pair,
            "queue answer {pair}"
        );
    }
    drop(pipeliner);
    drop(bystander);
    shut_down(addr, handle);
}

// Off unix the loop has no readiness wait and sleeps between sweeps.
#[cfg(unix)]
#[test]
fn a_quiet_server_answers_when_the_request_arrives() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(addr);
    let mut took: Vec<Duration> = (0..200)
        .map(|_| {
            // Each request finds the loop with nothing to do.
            std::thread::sleep(Duration::from_millis(3));
            let sent = Instant::now();
            assert_eq!(client.round_trip(r#"{"op":"queue"}"#)["ok"], true);
            sent.elapsed()
        })
        .collect();
    took.sort();
    // A loop that sleeps 2 ms when idle has a median of 1-2 ms here.
    assert!(
        took[100] < Duration::from_millis(1),
        "median round trip {:?}",
        took[100]
    );
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn split_and_pipelined_lines_are_each_answered_once_in_order() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(addr);
    // One line in three writes, with pauses long enough for a sweep each.
    for part in [r#"{"op":"sub"#, r#"mit","nodes":1,"#, "\"runtime\":60}\n"] {
        client.send(part);
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client.answer()["id"].as_u64(), Some(0));
    // 64 lines in one write, the last one left unterminated.
    client.send(&"{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}\n".repeat(64));
    client.send(r#"{"op":"queue""#);
    for id in 1..=64 {
        assert_eq!(client.answer()["id"].as_u64(), Some(id));
    }
    client.send("}\n");
    let view = client.answer();
    assert_eq!(view["ok"], true);
    assert!(view["queue"].as_array().is_some(), "{view}");
    drop(client);
    shut_down(addr, handle);
}
