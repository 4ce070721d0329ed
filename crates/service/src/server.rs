//! The TCP front end: newline-delimited JSON plus HTTP probes.
//!
//! One listener serves both protocols on the same port.  A connection
//! whose first line starts with `GET ` is treated as an HTTP probe —
//! routed by path ([`ServerHandler::http_get`], the one router) to
//! `/metrics` (Prometheus exposition), `/healthz` (liveness/readiness)
//! or `/statusz` (operational JSON); unknown paths fall back to the
//! metrics text for compatibility with path-blind scrapers.  Anything else is the JSON protocol, one request and one
//! response per line.
//!
//! The loop is **event-driven on std only**: a nonblocking listener and
//! nonblocking connections are swept in one readiness loop — accept
//! what's pending, read what's readable into per-connection buffers,
//! dispatch every complete line, flush what's writable — with a short
//! sleep only when a full sweep found nothing to do.  No thread per
//! connection: the connection count is bounded ([`MAX_CONNS`]), lines
//! are bounded ([`MAX_LINE_BYTES`]), and connections idle for too many
//! sweeps are dropped, so one stuck client cannot wedge the daemon.
//!
//! The loop serves anything implementing [`ServerHandler`]: the
//! single-tenant [`Daemon`] here, or the multi-tenant fleet front end in
//! `sbs-fleet`.
//!
//! `SIGTERM` (and the in-protocol `shutdown` op) drains gracefully:
//! admissions stop, the handler persists its state, and pending
//! responses are flushed before the loop exits.

use crate::clock::Clock;
use crate::cluster::Cluster;
use crate::daemon::Daemon;
use crate::protocol::{error_response, parse_request};
use sbs_workload::time::Time;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Most simultaneous connections the readiness loop will hold open;
/// extras are answered with a typed error and closed.
pub const MAX_CONNS: usize = 256;

/// Longest accepted request line (bytes).  A connection that buffers
/// more than this without a newline is answered with an error and
/// closed — a malformed client cannot grow server memory unboundedly.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Idle sweeps (each ending in a short sleep) before a silent
/// connection is dropped.  Sweeps only count as idle when the *whole*
/// loop found nothing to do, so a busy server never expires clients.
const IDLE_TICK_LIMIT: u64 = 30_000;

/// Sleep between sweeps when nothing was accepted, read, or written.
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Locks the handler, recovering from mutex poisoning.
///
/// A poisoned lock means some thread panicked mid-request.  Scheduler
/// state is transition-consistent (every mutation in `SchedulerCore`
/// completes or panics before touching state), so the daemon must keep
/// serving rather than cascade the panic into the accept loop.
fn lock_handler<H>(handler: &Mutex<H>) -> MutexGuard<'_, H> {
    handler
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Process-wide SIGTERM latch (signal handlers cannot capture state).
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm() {
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    // sbs-lint: allow(forbid-unsafe): libc signal(2) registration has no safe std equivalent; the handler only stores a SeqCst atomic flag, which is async-signal-safe
    unsafe {
        signal(SIGTERM, on_term);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

/// One HTTP probe answer: status line, content type and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// HTTP status code (`200` or `503`).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpReply {
    /// A `200 OK` Prometheus exposition reply.
    pub fn metrics(body: String) -> Self {
        HttpReply {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// A JSON reply; `ok = false` answers `503 Service Unavailable`
    /// so load balancers treat the endpoint as not ready.
    pub fn json(ok: bool, body: String) -> Self {
        HttpReply {
            status: if ok { 200 } else { 503 },
            content_type: "application/json",
            body,
        }
    }
}

/// What the readiness loop needs from the thing it serves.
///
/// [`Daemon`] implements this for the single-tenant protocol; the fleet
/// daemon implements it with `cluster`-routed dispatch.  All methods
/// run under the server's handler lock.
pub trait ServerHandler: Send {
    /// Advances background state (departure replay) to time `at`.
    fn poll_to(&mut self, at: Time);

    /// Handles one protocol line at time `at`.  Returns the response
    /// value and whether the server should shut down.
    fn handle_line(&mut self, line: &str, at: Time) -> (Value, bool);

    /// Scheduler time after the last operation, used to keep a steered
    /// (virtual) clock in step with the scheduler.
    fn now(&self) -> Time;

    /// The `/metrics` text for HTTP probes, as of the last poll.
    fn metrics_scrape(&mut self) -> String;

    /// Liveness/readiness JSON for `GET /healthz`; `"ok": false`
    /// answers `503`.
    fn healthz(&mut self) -> Value;

    /// Operational JSON for `GET /statusz`, with the captured incidents
    /// inlined on `?incidents=1`.
    fn statusz(&mut self, with_incidents: bool) -> Value;

    /// Answers one HTTP probe for `path` (including any query string),
    /// current as of `at`: `/healthz`, `/statusz`, and the metrics text
    /// for every other path (path-blind scrapers keep working).
    fn http_get(&mut self, path: &str, at: Time) -> HttpReply {
        self.poll_to(at);
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        match route {
            "/healthz" => {
                let v = self.healthz();
                let ok = v.get("ok") == Some(&Value::Bool(true));
                HttpReply::json(ok, render_json(&v))
            }
            "/statusz" => {
                let with_incidents = query.split('&').any(|kv| kv == "incidents=1");
                HttpReply::json(true, render_json(&self.statusz(with_incidents)))
            }
            _ => HttpReply::metrics(self.metrics_scrape()),
        }
    }

    /// Reports the measured wall time of one `handle_line` call, along
    /// with the raw request line that produced it, so the handler can
    /// track submit latency.
    fn observe_request_ns(&mut self, line: &str, ns: u64);

    /// Best-effort persistence (snapshot, trace flush) at shutdown.
    fn on_shutdown(&mut self);
}

impl ServerHandler for Daemon {
    fn poll_to(&mut self, at: Time) {
        Daemon::poll_to(self, at);
    }

    fn handle_line(&mut self, line: &str, at: Time) -> (Value, bool) {
        match parse_request(line) {
            Ok(req) => self.handle(req, at),
            Err(e) => (error_response(&e), false),
        }
    }

    fn now(&self) -> Time {
        Cluster::now(self)
    }

    fn metrics_scrape(&mut self) -> String {
        self.metrics_text()
    }

    fn healthz(&mut self) -> Value {
        self.healthz_value()
    }

    fn statusz(&mut self, with_incidents: bool) -> Value {
        self.statusz_value(with_incidents)
    }

    fn observe_request_ns(&mut self, line: &str, ns: u64) {
        self.observe_submit_ns(line, ns);
    }

    fn on_shutdown(&mut self) {
        // sbs-lint: allow(result-dropped): proven best-effort path — shutdown must complete even when the final snapshot write fails
        let _ = self.save_snapshot();
        // sbs-lint: allow(result-dropped): proven best-effort path — a trace-sink flush failure must not block shutdown
        let _ = self.flush_traces();
        self.flush_events();
    }
}

/// Renders a probe body, degrading to an error object rather than
/// panicking inside the serve loop.
fn render_json(v: &Value) -> String {
    serde_json::to_string(v)
        .unwrap_or_else(|_| r#"{"ok":false,"error":"internal: render failed"}"#.to_string())
}

/// One client connection's readiness-loop state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet forming a complete line.
    inbuf: Vec<u8>,
    /// Bytes queued for writing (responses survive `WouldBlock`).
    outbuf: Vec<u8>,
    /// Consecutive whole-loop-idle sweeps with no traffic here.
    idle_ticks: u64,
    /// Close once `outbuf` drains (EOF seen or HTTP probe answered).
    closing: bool,
    /// Drop immediately (I/O error or fully flushed after `closing`).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            idle_ticks: 0,
            closing: false,
            dead: false,
        }
    }
}

fn retriable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The daemon's TCP server: one readiness loop over a [`ServerHandler`].
pub struct Server<H: ServerHandler = Daemon> {
    handler: Arc<Mutex<H>>,
    clock: Arc<dyn Clock + Sync>,
    shutdown: Arc<AtomicBool>,
}

impl<H: ServerHandler> Server<H> {
    /// Wraps `handler` with the given time source.
    pub fn new(handler: H, clock: impl Clock + Sync + 'static) -> Self {
        Server {
            handler: Arc::new(Mutex::new(handler)),
            clock: Arc::new(clock),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Shared handle to the handler (tests inspect state through this).
    pub fn daemon(&self) -> Arc<Mutex<H>> {
        Arc::clone(&self.handler)
    }

    /// Shared stop flag; storing `true` ends [`Server::run`].
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves `listener` until shutdown (in-protocol, via the flag, or
    /// SIGTERM).  The handler persists its state on the way out.
    pub fn run(&self, listener: TcpListener) -> std::io::Result<()> {
        install_sigterm();
        listener.set_nonblocking(true)?;
        let mut conns: Vec<Conn> = Vec::new();
        while !self.stopping() {
            {
                let mut h = lock_handler(&self.handler);
                h.poll_to(self.clock.now());
            }
            let mut active = self.accept_ready(&listener, &mut conns)?;
            for conn in &mut conns {
                if self.service_conn(conn) {
                    active = true;
                    conn.idle_ticks = 0;
                }
            }
            conns.retain(|c| !c.dead && c.idle_ticks < IDLE_TICK_LIMIT);
            if !active {
                for conn in &mut conns {
                    conn.idle_ticks += 1;
                }
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let mut h = lock_handler(&self.handler);
            h.on_shutdown();
        }
        // Flush pending responses (the in-protocol `shutdown` reply in
        // particular) with a bounded blocking write per connection.
        for conn in &mut conns {
            if conn.outbuf.is_empty() {
                continue;
            }
            // sbs-lint: allow(result-dropped): proven best-effort path — a client gone at shutdown must not fail the drain
            let _ = conn.stream.set_nonblocking(false);
            // sbs-lint: allow(result-dropped): proven best-effort path — see above
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(250)));
            // sbs-lint: allow(result-dropped): proven best-effort path — see above
            let _ = conn.stream.write_all(&conn.outbuf);
        }
        Ok(())
    }

    /// Drains the listener's accept queue.  Returns whether anything
    /// arrived.
    fn accept_ready(&self, listener: &TcpListener, conns: &mut Vec<Conn>) -> std::io::Result<bool> {
        let mut active = false;
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    active = true;
                    if conns.len() >= MAX_CONNS {
                        reject_overloaded(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_ok() {
                        // One-line request/response: Nagle + delayed ACK
                        // would add ~40ms per round trip.
                        // sbs-lint: allow(result-dropped): nodelay is a latency hint; serving without it is still correct
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                    }
                }
                Err(e) if retriable(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => break,
                Err(e) => return Err(e),
            }
        }
        Ok(active)
    }

    /// One sweep over a connection: read what's there, dispatch complete
    /// lines, flush what fits.  Returns whether any I/O happened.
    fn service_conn(&self, conn: &mut Conn) -> bool {
        let mut active = false;
        let mut scratch = [0u8; 8192];
        while !conn.closing && !conn.dead {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.closing = true;
                }
                Ok(n) => {
                    active = true;
                    conn.inbuf
                        .extend_from_slice(scratch.get(..n).unwrap_or(&[]));
                    if conn.inbuf.len() > MAX_LINE_BYTES && !conn.inbuf.contains(&b'\n') {
                        queue_response(
                            conn,
                            &error_response(&format!(
                                "request line exceeds {MAX_LINE_BYTES} bytes"
                            )),
                        );
                        conn.inbuf.clear();
                        conn.closing = true;
                    }
                }
                Err(e) if retriable(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                }
            }
        }
        while let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = conn.inbuf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes);
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            active = true;
            if text.starts_with("GET ") {
                let path = text.split_whitespace().nth(1).unwrap_or("/metrics");
                let reply = {
                    let mut h = lock_handler(&self.handler);
                    h.http_get(path, self.clock.now())
                };
                conn.outbuf
                    .extend_from_slice(http_response(&reply).as_bytes());
                conn.inbuf.clear();
                conn.closing = true;
                break;
            }
            let (response, stop) = {
                let mut h = lock_handler(&self.handler);
                // sbs-lint: allow(wall-clock): request latency measurement at the protocol edge; the duration feeds an operator histogram, never scheduler state
                let began = std::time::Instant::now();
                let out = h.handle_line(text, self.clock.now());
                let spent = began.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                h.observe_request_ns(text, spent);
                // Keep a steered (virtual) clock in step with the
                // scheduler so later requests see consistent time.
                self.clock.advance_to(h.now());
                out
            };
            queue_response(conn, &response);
            if stop {
                self.shutdown.store(true, Ordering::SeqCst);
                break;
            }
        }
        if flush_out(conn) {
            active = true;
        }
        active
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || TERM.load(Ordering::SeqCst)
    }
}

/// Serializes `response` onto the connection's write queue.
fn queue_response(conn: &mut Conn, response: &Value) {
    // Serializing a response value cannot fail today, but a daemon never
    // bets its life on "cannot": fall back to a hand-built error line.
    let rendered = serde_json::to_string(response).unwrap_or_else(|_| {
        r#"{"ok":false,"error":"internal: response serialization failed"}"#.to_string()
    });
    conn.outbuf.extend_from_slice(rendered.as_bytes());
    conn.outbuf.push(b'\n');
}

/// Writes as much of the out-buffer as the socket accepts right now.
fn flush_out(conn: &mut Conn) -> bool {
    let mut active = false;
    while !conn.outbuf.is_empty() && !conn.dead {
        match conn.stream.write(&conn.outbuf) {
            Ok(0) => conn.dead = true,
            Ok(n) => {
                active = true;
                conn.outbuf.drain(..n);
            }
            Err(e) if retriable(&e) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => conn.dead = true,
        }
    }
    if conn.closing && conn.outbuf.is_empty() {
        conn.dead = true;
    }
    active
}

/// Answers an over-capacity connection with a typed error, blocking at
/// most briefly, then drops it.
fn reject_overloaded(mut stream: TcpStream) {
    // sbs-lint: allow(result-dropped): proven best-effort path — the overload notice is a courtesy; dropping the connection is the point
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    // sbs-lint: allow(result-dropped): proven best-effort path — see above
    let _ = stream.write_all(b"{\"ok\":false,\"error\":\"server at connection capacity\"}\n");
}

/// Renders one [`HttpReply`] as a plain HTTP/1.0 response.
fn http_response(reply: &HttpReply) -> String {
    let status = match reply.status {
        200 => "200 OK",
        _ => "503 Service Unavailable",
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        reply.content_type,
        reply.body.len(),
        reply.body
    )
}
