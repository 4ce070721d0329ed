//! The TCP front end: newline-delimited JSON plus HTTP probes.
//!
//! One listener serves both protocols on the same port.  A connection
//! whose first line starts with `GET ` is treated as an HTTP probe —
//! routed by path ([`ServerHandler::http_get`], the one router) to
//! `/metrics` (Prometheus exposition; `?cluster=ID` for one tenant's),
//! `/healthz` (liveness/readiness) or `/statusz` (operational JSON);
//! unknown paths fall back to the metrics text for compatibility with
//! path-blind scrapers.  Anything else is the JSON protocol, one request
//! and one response per line.
//!
//! The loop is **one readiness loop on one thread**: every sweep
//! starts by blocking in a single `poll(2)` over the nonblocking
//! listener and every nonblocking connection, for at most `MAX_WAIT`,
//! and then services only what the kernel reported ready — accept when
//! the listener is readable, read a readable connection into its
//! buffer, dispatch every complete line, flush queued output.  An
//! arrival wakes the loop; an idle connection costs no system call.  No
//! thread per connection, and every per-client resource is bounded: the
//! connection count ([`MAX_CONNS`]), a request line
//! ([`MAX_LINE_BYTES`]), what one connection may read per sweep
//! (`READ_BUDGET`, so its input buffer never holds more than a line
//! plus a budget), and its unread responses (past [`MAX_LINE_BYTES`] of
//! queued output a connection is neither read nor dispatched until the
//! client drains it).  Connections idle for too many timed-out waits are
//! dropped, so one stuck client cannot wedge the daemon.
//!
//! The loop serves anything implementing [`ServerHandler`]; the one
//! implementation is the fleet front end in `sbs-fleet`, which is what
//! `sbs serve` runs.
//!
//! `SIGTERM` (and the in-protocol `shutdown` op) drains gracefully:
//! admissions stop, the handler persists its state, and pending
//! responses are flushed before the loop exits.

use crate::clock::Clock;
use crate::protocol::error_response;
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

/// Most bytes one connection may read in one sweep; the loop then
/// dispatches what is complete and moves on to the next connection, so
/// a client that writes without pause gets its turn and no more.
const READ_BUDGET: usize = 64 * 1024;

/// Idle sweeps (each after a wait that ran its full `MAX_WAIT`)
/// before a silent connection is dropped: 60 s.  Sweeps only count as
/// idle when the *whole* loop found nothing to do, so a busy server
/// never expires clients.
const IDLE_TICK_LIMIT: u64 = 30_000;

/// Longest one readiness wait may block.  Readiness ends the wait at
/// once; the bound is for what the kernel cannot report: the stop flag
/// ([`Server::shutdown_flag`], stored from another thread) and the
/// departure replay each sweep starts with.
const MAX_WAIT: Duration = Duration::from_millis(2);

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

/// What the loop needs from the operating system and `std` does not
/// offer: `SIGTERM` registration and a readiness wait.  The only
/// `unsafe` in `sbs-service` is here, each foreign call behind a safe
/// function.
#[cfg(unix)]
mod sys {
    use std::io::{Error, ErrorKind};
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_short};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    /// Data can be read (or a connection accepted) without blocking.
    pub const POLLIN: c_short = 0x001;
    /// Data can be written without blocking.
    pub const POLLOUT: c_short = 0x004;
    /// Reported whether asked for or not: socket error (`POLLERR`),
    /// peer gone (`POLLHUP`), descriptor not open (`POLLNVAL`).
    pub const POLLFAIL: c_short = 0x008 | 0x010 | 0x020;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::os::raw::c_uint;

    /// One `struct pollfd`: a descriptor, the events asked about, and
    /// the events the last [`wait_ready`] reported.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub fn new(socket: &impl AsRawFd, events: c_short) -> Self {
            PollFd {
                fd: socket.as_raw_fd(),
                events,
                revents: 0,
            }
        }

        /// What the last wait reported; 0 when it timed out.
        pub fn ready(&self) -> c_short {
            self.revents
        }
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: c_int) -> c_int;
    }

    /// Latches `SIGTERM` into [`super::TERM`].
    #[expect(
        unsafe_code,
        reason = "libc signal(2) registration has no safe std equivalent; the handler only stores an atomic flag"
    )]
    pub fn install_sigterm() {
        extern "C" fn on_term(_signum: c_int) {
            super::TERM.store(true, Ordering::SeqCst);
        }
        const SIGTERM: c_int = 15;
        // SAFETY: `on_term` has the signature signal(2) expects and only
        // stores a SeqCst atomic flag, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    /// Blocks until a descriptor in `fds` is ready, a signal arrives
    /// (`EINTR` is a normal wake-up: nothing is reported ready and the
    /// caller looks at its stop flags), or `timeout` passes.
    #[expect(
        unsafe_code,
        reason = "std has no readiness wait; poll(2) touches only the slice passed to it"
    )]
    pub fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        let nfds = NfdsT::try_from(fds.len()).map_err(|_| Error::from(ErrorKind::InvalidInput))?;
        let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // pollfd records and `nfds` is its length, so poll(2) reads and
        // writes only memory this call owns; a descriptor that has been
        // closed is reported as POLLNVAL, not dereferenced.
        let reported = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
        if reported < 0 {
            let e = Error::last_os_error();
            for fd in fds.iter_mut() {
                fd.revents = 0;
            }
            if e.kind() != ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// No `poll(2)` binding off unix: sleep out the bound, then report
/// every descriptor ready for what it asked about and let the sweep's
/// nonblocking calls find out.
#[cfg(not(unix))]
mod sys {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLFAIL: i16 = 0x008 | 0x010 | 0x020;

    pub struct PollFd {
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn new<S>(_socket: &S, events: i16) -> Self {
            PollFd { events, revents: 0 }
        }

        pub fn ready(&self) -> i16 {
            self.revents
        }
    }

    pub fn install_sigterm() {}

    #[expect(
        unsafe_code,
        reason = "std has no readiness wait; poll(2) touches only the slice passed to it"
    )]
    pub fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        std::thread::sleep(timeout);
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(())
    }
}

/// One HTTP probe answer: status line, content type and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// HTTP status code (`200`, `404` or `503`).
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

    /// A JSON reply with `status`, degrading to an error object rather
    /// than panicking inside the serve loop.
    pub fn json(status: u16, v: &Value) -> Self {
        HttpReply {
            status,
            content_type: "application/json",
            body: serde_json::to_string(v).unwrap_or_else(|_| {
                r#"{"ok":false,"error":"internal: render failed"}"#.to_string()
            }),
        }
    }
}

/// What the readiness loop needs from the thing it serves.
///
/// The fleet front end in `sbs-fleet` implements it with
/// `cluster`-routed dispatch.  All methods run under the server's
/// handler lock.
pub trait ServerHandler: Send {
    /// Advances background state (departure replay) to time `at`.
    fn poll_to(&mut self, at: Time);

    /// Handles one protocol line at time `at`.  Returns the response
    /// value and whether the server should shut down.
    fn handle_line(&mut self, line: &str, at: Time) -> (Value, bool);

    /// Scheduler time after the last operation, used to keep a steered
    /// (virtual) clock in step with the scheduler.
    fn now(&self) -> Time;

    /// Answers one HTTP probe for `path` (including any query string),
    /// current as of `at`: the one router for `/healthz`, `/statusz`
    /// and the metrics text, which every other path gets (path-blind
    /// scrapers keep working).
    fn http_get(&mut self, path: &str, at: Time) -> HttpReply;

    /// Reports the measured wall time of one `handle_line` call, along
    /// with the raw request line that produced it, so the handler can
    /// track submit latency.
    fn observe_request_ns(&mut self, line: &str, ns: u64);

    /// Best-effort persistence (snapshot, trace flush) at shutdown.
    fn on_shutdown(&mut self);
}

/// One client connection's readiness-loop state.
struct Conn {
    stream: TcpStream,
    /// Bytes read and not yet dispatched.  Between sweeps it starts at
    /// the first undispatched line.
    inbuf: Vec<u8>,
    /// How much of `inbuf` has been searched for a newline: nothing
    /// before this offset is searched again.  Short of `inbuf.len()`
    /// only when a sweep stopped dispatching with lines still buffered.
    scanned: usize,
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
            scanned: 0,
            outbuf: Vec::new(),
            idle_ticks: 0,
            closing: false,
            dead: false,
        }
    }

    /// The client is not reading its responses: until it drains them
    /// the connection is neither read nor dispatched, so `outbuf` stops
    /// growing one response past [`MAX_LINE_BYTES`].
    fn backpressured(&self) -> bool {
        self.outbuf.len() > MAX_LINE_BYTES
    }

    /// Buffered input the dispatcher has not looked at yet.
    fn has_unscanned(&self) -> bool {
        self.scanned < self.inbuf.len()
    }

    /// Has work that needs no readiness event: buffered lines whose
    /// responses now have room.
    fn runnable(&self) -> bool {
        self.has_unscanned() && !self.backpressured()
    }

    /// Reads only once everything buffered has been dispatched, which
    /// keeps `inbuf` within a line's unterminated tail plus one
    /// [`READ_BUDGET`].
    fn wants_read(&self) -> bool {
        !self.closing && !self.backpressured() && !self.has_unscanned()
    }

    /// The events this connection waits for.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if self.wants_read() {
            events |= sys::POLLIN;
        }
        if !self.outbuf.is_empty() {
            events |= sys::POLLOUT;
        }
        events
    }
}

fn retriable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The daemon's TCP server: one readiness loop over a [`ServerHandler`].
pub struct Server<H: ServerHandler> {
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
        sys::install_sigterm();
        listener.set_nonblocking(true)?;
        let mut conns: Vec<Conn> = Vec::new();
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut scratch = vec![0u8; READ_BUDGET];
        while !self.stopping() {
            // Wait for the kernel, holding no lock; only buffered work
            // that needs no event skips the wait.
            fds.clear();
            fds.push(sys::PollFd::new(&listener, sys::POLLIN));
            fds.extend(
                conns
                    .iter()
                    .map(|c| sys::PollFd::new(&c.stream, c.interest())),
            );
            let timeout = if conns.iter().any(Conn::runnable) {
                Duration::ZERO
            } else {
                MAX_WAIT
            };
            sys::wait_ready(&mut fds, timeout)?;
            {
                let mut h = lock_handler(&self.handler);
                h.poll_to(self.clock.now());
            }
            // Service what was reported ready.  Connections accepted in
            // this sweep have no report yet and wait for the next.
            let mut ready = fds.iter().map(sys::PollFd::ready);
            let mut active = false;
            if ready.next().is_some_and(|listening| listening != 0) {
                active = self.accept_ready(&listener, &mut conns)?;
            }
            for (conn, ready) in conns.iter_mut().zip(ready) {
                if (ready != 0 || conn.runnable()) && self.service_conn(conn, ready, &mut scratch) {
                    active = true;
                    conn.idle_ticks = 0;
                }
            }
            conns.retain(|c| !c.dead && c.idle_ticks < IDLE_TICK_LIMIT);
            if !active {
                for conn in &mut conns {
                    conn.idle_ticks += 1;
                }
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
            #[expect(
                clippy::let_underscore_must_use,
                reason = "proven best-effort path — a client gone at shutdown must not fail the drain"
            )]
            let _ = conn.stream.set_nonblocking(false);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "proven best-effort path — a client gone at shutdown must not fail the drain"
            )]
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(250)));
            #[expect(
                clippy::let_underscore_must_use,
                reason = "proven best-effort path — a client gone at shutdown must not fail the drain"
            )]
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
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "nodelay is a latency hint; serving without it is still correct"
                        )]
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

    /// One sweep over a connection the wait reported `ready` (or that
    /// has buffered lines to resume): read once if it is readable,
    /// dispatch complete lines, flush what fits.  Returns whether any
    /// I/O happened.
    fn service_conn(&self, conn: &mut Conn, ready: i16, scratch: &mut [u8]) -> bool {
        let mut active = false;
        // A failed socket is read as well: the read returns the error.
        if ready & (sys::POLLIN | sys::POLLFAIL) != 0 && conn.wants_read() {
            active |= read_once(conn, scratch);
        }
        active |= self.dispatch_lines(conn);
        if !conn.outbuf.is_empty() {
            active |= flush_out(conn);
        }
        if conn.closing && conn.outbuf.is_empty() && !conn.has_unscanned() {
            conn.dead = true;
        }
        active
    }

    /// Dispatches the complete lines in `inbuf` as borrowed slices,
    /// stopping early only at the output bound, then compacts the
    /// buffer once.  Returns whether any line was answered.
    fn dispatch_lines(&self, conn: &mut Conn) -> bool {
        let mut active = false;
        // Start of the first line not dispatched yet.
        let mut consumed = 0;
        while !conn.dead && !conn.backpressured() {
            let unscanned = conn.inbuf.get(conn.scanned..).unwrap_or(&[]);
            let newline = unscanned.iter().position(|&b| b == b'\n');
            let end = conn.scanned + newline.unwrap_or(unscanned.len());
            let line = conn.inbuf.get(consumed..end).unwrap_or(&[]);
            conn.scanned = end;
            // The cap is on the line — terminated or still growing —
            // not on the buffer, which may hold lines before it.
            if line.len() > MAX_LINE_BYTES {
                queue_response(
                    &mut conn.outbuf,
                    &error_response(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
                );
                consumed = conn.inbuf.len();
                conn.closing = true;
                break;
            }
            if newline.is_none() {
                break;
            }
            conn.scanned = end + 1;
            consumed = end + 1;
            let line = String::from_utf8_lossy(line);
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
                consumed = conn.inbuf.len();
                conn.closing = true;
                break;
            }
            let (response, stop) = {
                let mut h = lock_handler(&self.handler);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "request latency measurement at the protocol edge; the duration feeds an operator histogram, never scheduler state"
                )]
                let began = std::time::Instant::now();
                let out = h.handle_line(text, self.clock.now());
                let spent = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
                h.observe_request_ns(text, spent);
                // Keep a steered (virtual) clock in step with the
                // scheduler so later requests see consistent time.
                self.clock.advance_to(h.now());
                out
            };
            queue_response(&mut conn.outbuf, &response);
            if stop {
                self.shutdown.store(true, Ordering::SeqCst);
                break;
            }
        }
        conn.inbuf.drain(..consumed);
        conn.scanned = conn.scanned.saturating_sub(consumed);
        active
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || TERM.load(Ordering::SeqCst)
    }
}

/// Reads what one sweep may ([`READ_BUDGET`], the length of `scratch`)
/// in a single call: the wait said the socket is readable, and whatever
/// is left makes the next wait return at once.
fn read_once(conn: &mut Conn, scratch: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => conn.closing = true,
            Ok(n) => {
                conn.inbuf
                    .extend_from_slice(scratch.get(..n).unwrap_or(&[]));
                return true;
            }
            Err(e) if retriable(&e) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => conn.dead = true,
        }
        return false;
    }
}

/// Serializes `response` onto a connection's write queue.
fn queue_response(outbuf: &mut Vec<u8>, response: &Value) {
    // Serializing a response value cannot fail today, but a daemon never
    // bets its life on "cannot": fall back to a hand-built error line.
    let rendered = serde_json::to_string(response).unwrap_or_else(|_| {
        r#"{"ok":false,"error":"internal: response serialization failed"}"#.to_string()
    });
    outbuf.extend_from_slice(rendered.as_bytes());
    outbuf.push(b'\n');
}

/// Writes as much of the out-buffer as the socket accepts right now,
/// then drops what was sent in one move.
fn flush_out(conn: &mut Conn) -> bool {
    let mut sent = 0;
    while !conn.dead {
        let rest = conn.outbuf.get(sent..).unwrap_or(&[]);
        if rest.is_empty() {
            break;
        }
        match conn.stream.write(rest) {
            Ok(0) => conn.dead = true,
            Ok(n) => sent += n,
            Err(e) if retriable(&e) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => conn.dead = true,
        }
    }
    conn.outbuf.drain(..sent);
    sent > 0
}

/// Answers an over-capacity connection with a typed error, blocking at
/// most briefly, then drops it.
#[expect(
    clippy::let_underscore_must_use,
    reason = "proven best-effort path — the overload notice is a courtesy; dropping the connection is the point"
)]
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(b"{\"ok\":false,\"error\":\"server at connection capacity\"}\n");
}

/// Renders one [`HttpReply`] as a plain HTTP/1.0 response.
fn http_response(reply: &HttpReply) -> String {
    let status = match reply.status {
        200 => "200 OK",
        404 => "404 Not Found",
        _ => "503 Service Unavailable",
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        reply.content_type,
        reply.body.len(),
        reply.body
    )
}
