//! `serve-tcp`: the fleet behind its real front end, over loopback.
//!
//! One server thread runs `Server<Fleet>` on a virtual clock; one
//! generator thread multiplexes non-blocking connections and sends
//! single-`submit` lines in three phases: `sparse` and `busy` are open
//! loops (a request is due on a schedule whether or not earlier ones
//! were answered, and is timed from its due time), `sat` is a closed
//! loop with a fixed number of requests outstanding per connection.
//! This is the only workload through `parse_routed`, the readiness
//! loop, line buffering, serialisation and sockets.

use crate::env::{pinned, pinned_f64, pinned_u64, scaled};
use crate::inputs::{fnv1a, submit_line, tcp_lines, TcpInputs, CAPACITY};
use crate::openloop::{due_count, due_ns, latency_from_due_ns, lateness_ns};
use crate::probes::median_of;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{quantile, quantile_us};
use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig};
use sbs_service::{parse_routed, Server, ServerHandler, VirtualClock};
use serde_json::Value;
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NAME: &str = "serve-tcp";

/// A phase that has not finished after this long is abandoned and its
/// unanswered requests are counted as failed.
const PHASE_TIMEOUT: Duration = Duration::from_secs(90);

/// Longest the generator sleeps waiting for a response before it looks
/// at the clock again (phase time-outs).
///
/// The generator sleeps in `ppoll` until a response arrives or the next
/// request is due; it must not spin.  The box's two cores are a CPU
/// quota shared with the server thread: a generator burning one of them
/// gets the whole VM throttled, and the server's loop answers every
/// stall with a 2 ms idle sleep (measured: 22K instead of 85K
/// requests/s, flipping between runs).  Polling on a timer is no better:
/// at ten thousand wake-ups a second the timer interrupts take a third
/// of the server's core.
const MAX_WAIT: Duration = Duration::from_millis(20);

/// Request counts and rates of one run, after scaling.
struct Plan {
    tenants: u64,
    connections: usize,
    warm: usize,
    sparse: usize,
    sparse_rate: u64,
    busy: usize,
    busy_rate: u64,
    sat: usize,
    sat_window: usize,
}

impl Plan {
    fn new(spec: &Value, scale: f64) -> Self {
        let tenants = pinned_u64(spec, NAME, "tenants");
        Plan {
            tenants,
            connections: pinned_u64(spec, NAME, "connections") as usize,
            warm: (pinned_u64(spec, NAME, "warmup_per_tenant") * tenants) as usize,
            sparse: scaled(spec, NAME, "sparse_requests", scale, 40) as usize,
            sparse_rate: pinned_u64(spec, NAME, "sparse_rate"),
            busy: scaled(spec, NAME, "busy_requests", scale, 400) as usize,
            busy_rate: pinned_u64(spec, NAME, "busy_rate"),
            sat: scaled(spec, NAME, "sat_requests", scale, 1_000) as usize,
            sat_window: pinned_u64(spec, NAME, "sat_window") as usize,
        }
    }

    fn total(&self) -> usize {
        self.warm + self.sparse + self.busy + self.sat
    }

    fn sparse_range(&self) -> Range<usize> {
        self.warm..self.warm + self.sparse
    }

    fn busy_range(&self) -> Range<usize> {
        self.sparse_range().end..self.sparse_range().end + self.busy
    }

    fn sat_range(&self) -> Range<usize> {
        self.busy_range().end..self.total()
    }
}

fn fleet(tenants: u64) -> Fleet {
    Fleet::new(
        FleetConfig::new(CAPACITY, PolicySpec::FcfsBackfill).with_max_clusters(tenants as usize),
    )
    .expect("fleet config is valid")
}

/// The server under test: its thread, its stop flag and its handler.
struct Running {
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    stop: Arc<AtomicBool>,
    handler: Option<Arc<Mutex<Fleet>>>,
    addr: SocketAddr,
}

fn start_server(tenants: u64) -> Running {
    let server = Server::new(fleet(tenants), VirtualClock::default());
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    Running {
        stop: server.shutdown_flag(),
        handler: Some(server.daemon()),
        addr,
        thread: Some(std::thread::spawn(move || {
            // The generator takes core 0, the server core 1.
            crate::env::pin_current_thread(1);
            server.run(listener)
        })),
    }
}

impl Running {
    /// Stops the loop and waits for the thread to end.
    fn join(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take().map(std::thread::JoinHandle::join) {
            None | Some(Ok(Ok(()))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server loop: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }

    /// Stops the server and returns the fleet it served.
    fn stop(mut self) -> Result<Fleet, String> {
        self.join()?;
        let mutex = self
            .handler
            .take()
            .and_then(Arc::into_inner)
            .ok_or("the server kept a handler reference")?;
        Ok(mutex.into_inner().unwrap_or_else(|p| p.into_inner()))
    }
}

impl Drop for Running {
    /// A server dropped without `stop` (a discarded set-up repeat) is
    /// still stopped and waited for.
    fn drop(&mut self) {
        // Errors cannot leave a destructor; `stop` reports them.
        let _ = self.join();
    }
}

/// One non-blocking client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes handed to `send` that the socket has not accepted yet.
    pending: Vec<u8>,
    inbuf: Vec<u8>,
    /// Requests awaiting a response, oldest first: line index and the
    /// time (ns on the generator's clock) latency is counted from.
    inflight: VecDeque<(usize, u64)>,
}

/// The load generator: connections, per-tenant expectations, tallies.
struct Generator {
    inputs: Arc<TcpInputs>,
    conns: Vec<Conn>,
    /// The job id the next response for each tenant must carry.
    next_id: Vec<u64>,
    clock: Instant,
    failed: u64,
    responses: u64,
    tracer: Option<Tracer>,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    /// Response latency per request, nanoseconds.
    lat: Vec<u64>,
    /// Generator lateness per request, nanoseconds (open loops).
    late: Vec<u64>,
    /// Most requests due or sent but unanswered at once (open loops).
    backlog_max: u64,
}

impl Generator {
    fn connect(inputs: Arc<TcpInputs>, addr: SocketAddr, connections: usize, trace: bool) -> Self {
        let conns = (0..connections)
            .map(|_| {
                let stream = TcpStream::connect(addr).expect("connect to the server under test");
                stream.set_nodelay(true).expect("nodelay");
                stream.set_nonblocking(true).expect("nonblocking");
                Conn {
                    stream,
                    pending: Vec::new(),
                    inbuf: Vec::new(),
                    inflight: VecDeque::new(),
                }
            })
            .collect();
        let clock = Instant::now();
        Generator {
            next_id: vec![0; inputs.tenants.len()],
            inputs,
            conns,
            clock,
            failed: 0,
            responses: 0,
            tracer: trace.then(|| Tracer::new(clock, crate::SPAN_CAP)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// The connection a tenant's requests travel on (fixed, so a
    /// tenant's requests are answered in the order they were sent).
    fn conn_of(&self, line: usize) -> usize {
        self.inputs.tenant_of[line] as usize % self.conns.len()
    }

    fn send(&mut self, line: usize, from_ns: u64) {
        let c = self.conn_of(line);
        self.conns[c]
            .pending
            .extend_from_slice(self.inputs.line(line));
        self.conns[c].inflight.push_back((line, from_ns));
    }

    /// Writes what the sockets accept and reads what they hold; every
    /// complete response line is checked and passed to `done` with the
    /// time its latency counts from and the time it was read.
    fn pump(&mut self, mut done: impl FnMut(u64, u64)) {
        let mut scratch = [0u8; 16 * 1024];
        for c in 0..self.conns.len() {
            let conn = &mut self.conns[c];
            while !conn.pending.is_empty() {
                match conn.stream.write(&conn.pending) {
                    Ok(0) => break,
                    Ok(n) => drop(conn.pending.drain(..n)),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(n) => conn.inbuf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            let mut consumed = 0;
            while let Some(pos) = self.conns[c].inbuf[consumed..]
                .iter()
                .position(|b| *b == b'\n')
            {
                let now = self.now_ns();
                let end = consumed + pos;
                let Some((line, from_ns)) = self.conns[c].inflight.pop_front() else {
                    self.failed += 1; // a response nobody asked for
                    consumed = end + 1;
                    continue;
                };
                let tenant = self.inputs.tenant_of[line] as usize;
                let ok = std::str::from_utf8(&self.conns[c].inbuf[consumed..end])
                    .ok()
                    .and_then(|text| serde_json::from_str::<Value>(text).ok())
                    .is_some_and(|v| {
                        v["ok"] == true && v["id"].as_u64() == Some(self.next_id[tenant])
                    });
                self.next_id[tenant] += 1;
                self.failed += u64::from(!ok);
                self.responses += 1;
                if let Some(t) = self.tracer.as_mut() {
                    let name = t.name("tcp.request");
                    t.leaf(name, line as u64, from_ns, now);
                }
                done(from_ns, now);
                consumed = end + 1;
            }
            self.conns[c].inbuf.drain(..consumed);
        }
    }

    /// Sleeps until a connection is readable or `timeout` passes; returns
    /// at once while any request bytes are still unsent.
    fn wait(&self, timeout: Duration) {
        if self.conns.iter().all(|c| c.pending.is_empty()) {
            let fds: Vec<i32> = self.conns.iter().map(|c| c.stream.as_raw_fd()).collect();
            crate::env::wait_readable(&fds, timeout);
        }
    }

    /// Open loop: request `i` of `lines` is due `i / rate` seconds
    /// after the phase starts and its latency counts from then.
    fn open_loop(&mut self, lines: Range<usize>, rate: u64) -> Phase {
        let total = lines.len() as u64;
        let mut phase = Phase::default();
        let start = self.now_ns();
        let (mut sent, mut answered) = (0u64, 0u64);
        while answered < total {
            let now = self.now_ns();
            let due = due_count(now - start, rate, total);
            phase.backlog_max = phase.backlog_max.max(due - answered);
            while sent < due {
                let due_at = start + due_ns(sent, rate);
                phase.late.push(lateness_ns(now, due_at));
                self.send(lines.start + sent as usize, due_at);
                sent += 1;
            }
            let before = answered;
            self.pump(|due_at, read_at| {
                phase.lat.push(latency_from_due_ns(read_at, due_at));
                answered += 1;
            });
            if answered == before {
                // Nothing arrived: sleep until something does, but not
                // past the next due time.
                let until_due = match sent < total {
                    true => Duration::from_nanos(
                        (start + due_ns(sent, rate)).saturating_sub(self.now_ns()),
                    ),
                    false => MAX_WAIT,
                };
                self.wait(until_due.min(MAX_WAIT));
            }
            if Duration::from_nanos(now - start) > PHASE_TIMEOUT {
                self.failed += total - answered;
                break;
            }
        }
        phase.wall_s = (self.now_ns() - start) as f64 / 1e9;
        phase
    }

    /// Closed loop: each connection keeps `window` requests outstanding
    /// until its share of `lines` is answered; latency counts from the
    /// send.
    fn closed_loop(&mut self, lines: Range<usize>, window: usize) -> Phase {
        let total = lines.len() as u64;
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); self.conns.len()];
        for line in lines {
            queues[self.conn_of(line)].push_back(line);
        }
        let mut phase = Phase::default();
        let start = self.now_ns();
        let mut answered = 0u64;
        while answered < total {
            let now = self.now_ns();
            for (c, queue) in queues.iter_mut().enumerate() {
                while self.conns[c].inflight.len() < window {
                    let Some(line) = queue.pop_front() else { break };
                    self.send(line, now);
                }
            }
            let before = answered;
            self.pump(|sent_at, read_at| {
                phase.lat.push(read_at.saturating_sub(sent_at));
                answered += 1;
            });
            if answered == before {
                self.wait(MAX_WAIT);
            }
            if Duration::from_nanos(now - start) > PHASE_TIMEOUT {
                self.failed += total - answered;
                break;
            }
        }
        phase.wall_s = (self.now_ns() - start) as f64 / 1e9;
        phase
    }
}

/// Lines, a running server, connected clients, tenants created.
struct Ready {
    server: Running,
    gen: Generator,
}

fn ready(inputs: &Arc<TcpInputs>, plan: &Plan, trace: bool) -> Ready {
    let server = start_server(plan.tenants);
    let mut gen = Generator::connect(Arc::clone(inputs), server.addr, plan.connections, trace);
    gen.closed_loop(0..plan.warm, plan.sat_window);
    Ready { server, gen }
}

/// The three measured phases.
struct Phases {
    sparse: Phase,
    busy: Phase,
    sat: Phase,
    failed: u64,
    responses: u64,
    tracer: Option<Tracer>,
    fleet: Result<Fleet, String>,
}

fn measure(ready: Ready, plan: &Plan) -> Phases {
    let Ready { server, mut gen } = ready;
    let sparse = gen.open_loop(plan.sparse_range(), plan.sparse_rate);
    let busy = gen.open_loop(plan.busy_range(), plan.busy_rate);
    let sat = gen.closed_loop(plan.sat_range(), plan.sat_window);
    let Generator {
        conns,
        failed,
        responses,
        tracer,
        ..
    } = gen;
    drop(conns);
    Phases {
        sparse,
        busy,
        sat,
        failed,
        responses,
        tracer,
        fleet: server.stop(),
    }
}

/// The fixed-seed canary: pinned lines through `handle_line` (parse,
/// route, answer, serialise) in process; the digest of the answers is
/// pinned in `workloads.json`, whatever `--seed` says.
pub fn canary_value(spec: &Value) -> Value {
    let pin = pinned(spec, NAME, "oracle");
    let tenants = pin["tenants"].as_u64().expect("oracle.tenants");
    let inputs = tcp_lines(
        pin["seed"].as_u64().expect("oracle.seed"),
        tenants,
        pin["requests"].as_u64().expect("oracle.requests") as usize,
        pinned_f64(spec, NAME, "rho"),
    );
    let mut fleet = fleet(tenants);
    let mut answers = Vec::new();
    for i in 0..inputs.len() {
        let at = Fleet::now(&fleet);
        let (mut v, _) = fleet.handle_line(inputs.text(i), at);
        if let Value::Object(map) = &mut v {
            map.remove("corr");
        }
        answers.extend_from_slice(v.to_string().as_bytes());
        answers.push(b'\n');
    }
    Value::from(format!("{:016x}", fnv1a(&answers)))
}

/// Runs the workload.
pub fn run(spec: &Value, seed: u64, scale: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::new(spec, scale);
    if !crate::env::pin_current_thread(0) {
        out.notes
            .push("threads could not be pinned; generator and server may share a core".into());
    }
    let rho = pinned_f64(spec, NAME, "rho");
    // Set-up: lines from the seed, a server, connections, tenants
    // created by the warm-up requests.
    let mut gen_s = Vec::new();
    let ((inputs, up), setup_s) = crate::timed_setup(|| {
        let t0 = Instant::now();
        let inputs = Arc::new(tcp_lines(seed, plan.tenants, plan.total(), rho));
        gen_s.push(t0.elapsed().as_secs_f64());
        let up = ready(&inputs, &plan, false);
        (inputs, up)
    });
    out.set("setup_s", setup_s);
    out.set(
        "workload.generator.us_per_kjob",
        crate::stats::median(&gen_s) * 1e6 / (inputs.len() as f64 / 1e3),
    );

    let base = measure(up, &plan);
    let sent = (plan.sparse + plan.busy + plan.sat) as u64;
    out.attempted = sent;
    out.failed = base.failed;
    if base.responses != plan.total() as u64 {
        out.error(format!(
            "{} requests sent, {} responses read",
            plan.total(),
            base.responses
        ));
    }
    let mut sparse = base.sparse.lat.clone();
    let mut busy = base.busy.lat.clone();
    out.set("ops_per_s", plan.sat as f64 / base.sat.wall_s);
    out.set_n(
        "op_p50_us",
        quantile_us(&mut sparse, 0.50),
        plan.sparse as u64,
    );
    out.set_n("op_p95_us", quantile_us(&mut busy, 0.95), plan.busy as u64);
    out.notes.push(format!(
        "sparse {}/s x {}: p50 {:.0} p99 {:.0} us; busy {}/s x {}: p50 {:.0} p99 {:.0} p999 {:.0} us; sat {} in {:.3} s",
        plan.sparse_rate,
        plan.sparse,
        quantile(&sparse, 0.50) as f64 / 1e3,
        quantile(&sparse, 0.99) as f64 / 1e3,
        plan.busy_rate,
        plan.busy,
        quantile(&busy, 0.50) as f64 / 1e3,
        quantile(&busy, 0.99) as f64 / 1e3,
        quantile(&busy, 0.999) as f64 / 1e3,
        plan.sat,
        base.sat.wall_s
    ));
    match &base.fleet {
        Ok(fleet) => {
            let status = fleet.statusz_value(false);
            if status["submitted"].as_u64() != Some(plan.total() as u64) {
                out.error(format!(
                    "the fleet admitted {} jobs, {} were sent",
                    status["submitted"],
                    plan.total()
                ));
            }
        }
        Err(e) => out.error(e.clone()),
    }
    let expect = &pinned(spec, NAME, "oracle")["expect"];
    let got = canary_value(spec);
    if *expect != got {
        out.error(format!(
            "protocol canary digest {got} differs from the pinned {expect}"
        ));
    }

    if traced {
        layer_metrics(&inputs, &plan, &base, &mut out);
    }
    out.set("peak_rss_mb", crate::env::peak_rss_mb());
    out
}

/// Cost of the same lines handled in process, per phase.
struct InProcess {
    /// Per-line parse + handle + serialise, nanoseconds, sparse phase.
    sparse_ns: Vec<u64>,
    /// Mean nanoseconds per sat-phase line: parse, handle, serialise.
    sat_hops: [f64; 3],
    responses: Vec<Value>,
    fleet: Fleet,
}

/// Replays every line in process on a fresh fleet — `parse_routed`,
/// `Fleet::handle_routed`, `serde_json::to_string`, one span each —
/// and returns what the server's loop would have spent on them anyway.
fn in_process(inputs: &TcpInputs, plan: &Plan, tracer: &mut Tracer) -> InProcess {
    let fleet = fleet(plan.tenants);
    let names = [
        tracer.name("inproc.request"),
        tracer.name("service.protocol.parse_routed"),
        tracer.name("fleet.handle_routed"),
        tracer.name("service.protocol.serialize"),
    ];
    let mut out = InProcess {
        sparse_ns: Vec::with_capacity(plan.sparse),
        sat_hops: [0.0; 3],
        responses: Vec::new(),
        fleet,
    };
    let (sparse, sat) = (plan.sparse_range(), plan.sat_range());
    for i in 0..inputs.len() {
        let text = inputs.text(i);
        let at = out.fleet.now();
        let t0 = tracer.now_ns();
        let (cluster, req) = parse_routed(text).expect("generated lines parse");
        let t1 = tracer.now_ns();
        let (v, _) = out.fleet.handle_routed(cluster.as_deref(), req, at);
        let t2 = tracer.now_ns();
        black_box(serde_json::to_string(&v).expect("responses serialise"));
        let t3 = tracer.now_ns();
        tracer.enter_at(names[0], i as u64, t0);
        tracer.leaf(names[1], i as u64, t0, t1);
        tracer.leaf(names[2], i as u64, t1, t2);
        tracer.leaf(names[3], i as u64, t2, t3);
        tracer.exit_at(t3);
        if sparse.contains(&i) {
            out.sparse_ns.push(t3 - t0);
        }
        if sat.contains(&i) {
            for (sum, d) in out.sat_hops.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                *sum += d as f64 / plan.sat as f64;
            }
            if out.responses.len() < 20_000 {
                out.responses.push(v);
            }
        }
    }
    out
}

fn layer_metrics(inputs: &Arc<TcpInputs>, plan: &Plan, base: &Phases, out: &mut Outcome) {
    // The same phases again with one span per request.
    let traced = measure(ready(inputs, plan, true), plan);
    out.failed += traced.failed;
    out.set("trace.overhead_ratio", traced.sat.wall_s / base.sat.wall_s);
    let mut tracer = traced.tracer.expect("the traced pass carries a tracer");
    let inproc = in_process(inputs, plan, &mut tracer);
    crate::write_trace(NAME, &tracer, out);

    let mut sparse = base.sparse.lat.clone();
    let mut busy = base.busy.lat.clone();
    let mut sat = base.sat.lat.clone();
    let mut late = base.busy.late.clone();
    let sparse_p50 = quantile_us(&mut sparse, 0.50);
    out.set_n(
        "service.server.sparse_p99_us",
        quantile_us(&mut sparse, 0.99),
        plan.sparse as u64,
    );
    out.set_n(
        "service.server.busy_p50_us",
        quantile_us(&mut busy, 0.50),
        plan.busy as u64,
    );
    out.set_n(
        "service.server.busy_p99_us",
        quantile_us(&mut busy, 0.99),
        plan.busy as u64,
    );
    out.set_n(
        "service.server.sat_p99_us",
        quantile_us(&mut sat, 0.99),
        plan.sat as u64,
    );
    out.set_n(
        "gen.late_p99_us",
        quantile_us(&mut late, 0.99),
        plan.busy as u64,
    );
    out.set(
        "gen.backlog_max",
        base.sparse.backlog_max.max(base.busy.backlog_max) as f64,
    );

    // Hop sum on the saturated phase: parse + handle + serialise + what
    // is left for the server's loop equals 1e6 / ops_per_s by
    // construction; the shares say where a request's time goes.
    let per_request_us = base.sat.wall_s * 1e6 / plan.sat as f64;
    let [parse, handle, serialize] = inproc.sat_hops.map(|ns| ns / 1e3);
    let inproc_us = parse + handle + serialize;
    out.set("service.server.inproc_request_us", inproc_us);
    out.set("service.server.per_request_us", per_request_us - inproc_us);
    out.set("hop.parse_share", parse / per_request_us);
    out.set("hop.handle_share", handle / per_request_us);
    out.set("hop.serialize_share", serialize / per_request_us);
    out.notes.push(format!(
        "sat hop sum: {per_request_us:.2} us/request = parse {parse:.2} + handle_routed {handle:.2} + serialize {serialize:.2} + server loop and sockets {:.2}",
        per_request_us - inproc_us
    ));
    let mut inproc_sparse = inproc.sparse_ns.clone();
    out.set(
        "service.server.wake_p50_us",
        sparse_p50 - quantile_us(&mut inproc_sparse, 0.50),
    );

    // Protocol probes on the generated lines and the replica's answers.
    let sample = inputs.len().min(20_000);
    out.set_n(
        "service.protocol.parse_ns",
        median_of(|| {
            let t0 = Instant::now();
            for i in 0..sample {
                black_box(parse_routed(inputs.text(i)).expect("generated lines parse"));
            }
            t0.elapsed().as_nanos() as f64 / sample as f64
        }),
        sample as u64,
    );
    let batches: Vec<String> = inputs.jobs[..sample]
        .chunks_exact(16)
        .map(|jobs| {
            let specs: Vec<String> = jobs
                .iter()
                .map(|j| submit_line("x", j).replacen(r#""op":"submit","cluster":"x","#, "", 1))
                .collect();
            format!(
                r#"{{"op":"submit_batch","cluster":"t000","jobs":[{}]}}"#,
                specs.join(",")
            )
        })
        .collect();
    out.set_n(
        "service.protocol.parse_batch16_ns",
        median_of(|| {
            let t0 = Instant::now();
            for line in &batches {
                black_box(parse_routed(line).expect("generated batches parse"));
            }
            t0.elapsed().as_nanos() as f64 / batches.len().max(1) as f64
        }),
        batches.len() as u64,
    );
    out.set_n(
        "service.protocol.serialize_ns",
        median_of(|| {
            let t0 = Instant::now();
            for v in &inproc.responses {
                black_box(serde_json::to_string(v).expect("responses serialise"));
            }
            t0.elapsed().as_nanos() as f64 / inproc.responses.len().max(1) as f64
        }),
        inproc.responses.len() as u64,
    );
    // What the server's loop pays on every sweep, and a status read.
    let now = inproc.fleet.now();
    out.set(
        "fleet.poll_all_us",
        median_of(|| {
            let t0 = Instant::now();
            for _ in 0..100 {
                inproc.fleet.poll_all(now);
            }
            t0.elapsed().as_secs_f64() * 1e6 / 100.0
        }),
    );
    out.set(
        "fleet.statusz_us",
        median_of(|| {
            let t0 = Instant::now();
            black_box(inproc.fleet.statusz_value(false));
            t0.elapsed().as_secs_f64() * 1e6
        }),
    );
}
