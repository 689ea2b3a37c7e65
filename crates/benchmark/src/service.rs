//! The `service-steady` and `service-evict` workloads: TCP traffic into
//! `cealc --serve` (or, in smoke mode, an in-process `TcpFrontend`).
//!
//! The load generator is this process's two threads, one per TCP
//! connection; each connection owns half the sessions, so per-session
//! order holds. The machine has two cores and the server runs two shard
//! workers plus one frontend thread per connection, so more client
//! threads or connections would measure scheduler contention instead of
//! the service.
//!
//! Each round starts a fresh server, opens every session (set-up), then
//! runs a closed loop (64 requests in flight per connection, giving
//! throughput) and an open loop (seeded Poisson arrivals at a fixed
//! rate, each request timed from when it was due). The client keeps a
//! replica of every session's list and checks every reply against it.
//!
//! The traced run replays its traced rounds' requests in-process through
//! deeper public entry points — `parse_request` → `Service::call` →
//! `Reply` formatting, and a lockstep `Shard::handle` routed by
//! `route_key` — and reports the TCP time those parts do not cover as
//! the frontend residual.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ceal_runtime::prng::Prng;
use ceal_runtime::Value;
use ceal_service::wire::{format_request, parse_request};
use ceal_service::{
    route_key, EditOp, FrontendConfig, PolicyArg, ProgramCache, Request, Service, ServiceConfig,
    ServiceCounters, Session, SessionSpec, Shard, ShardConfig, TcpFrontend, TelemetryConfig,
    Workload,
};
use ceal_suite::input::random_ints;

use crate::metrics::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Ledger, Span, Tracer};
use crate::{peak_rss_mb, Config};

/// One service workload's traffic shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Sessions opened per round.
    pub sessions: usize,
    /// Input-list length per session.
    pub n: u32,
    /// Per-shard memory budget, bytes (`--mem-budget-mb`).
    pub budget_bytes: usize,
    /// Share of `edit` requests; the rest are `observe`.
    pub edit_share: f64,
    /// Zipf exponent of session popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// Open-loop arrival rate, requests per second (both connections).
    pub rate: f64,
}

/// 256 sessions under a budget nothing outgrows: wire, frontend,
/// admission and sockets dominate; the snapshot layer is idle.
pub const STEADY: Spec = Spec {
    sessions: 256,
    n: 64,
    budget_bytes: 1024 << 20,
    edit_share: 0.75,
    zipf: None,
    rate: 2000.0,
};

/// 1,024 Zipf-popular sessions over a budget that holds only part of
/// them: eviction and `Session::restore` replay dominate.
pub const EVICT: Spec = Spec {
    sessions: 1024,
    n: 64,
    budget_bytes: 2 << 20,
    edit_share: 0.25,
    zipf: Some(0.9),
    rate: 1000.0,
};

const SHARDS: usize = 2;
const CONNS: usize = 2;
/// Closed-loop requests in flight per connection.
const WINDOW: usize = 64;
/// How long the client waits for outstanding replies after a phase.
const DRAIN: Duration = Duration::from_secs(10);

impl Spec {
    fn smoke(self) -> Spec {
        Spec {
            sessions: self.sessions / 16,
            rate: 300.0,
            budget_bytes: self.budget_bytes / 16,
            ..self
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Session `i`: sum and min alternate, every fourth session demand.
fn session_spec(seed: u64, i: usize, n: u32) -> SessionSpec {
    SessionSpec {
        workload: if i % 2 == 0 {
            Workload::Sum
        } else {
            Workload::Min
        },
        n,
        seed: splitmix(seed ^ i as u64),
        policy: if i % 4 == 3 {
            PolicyArg::Demand
        } else {
            PolicyArg::Eager
        },
    }
}

/// The client's copy of a session's list.
struct Replica {
    sum: bool,
    data: Vec<i64>,
    live: Vec<bool>,
}

impl Replica {
    fn new(s: &SessionSpec) -> Replica {
        Replica {
            sum: s.workload == Workload::Sum,
            data: random_ints(s.n as usize, s.seed),
            live: vec![true; s.n as usize],
        }
    }

    /// Sum or minimum of the live elements; nil when none is live.
    fn value(&self) -> Value {
        let live = self.data.iter().zip(&self.live).filter(|(_, &l)| l);
        let vals = live.map(|(&x, _)| x);
        let v = if self.sum {
            vals.fold(None, |a: Option<i64>, x| Some(a.unwrap_or(0) + x))
        } else {
            vals.min()
        };
        v.map_or(Value::Nil, Value::Int)
    }

    /// Applies an edit batch; returns `(applied, elided)`.
    fn apply(&mut self, ops: &[EditOp]) -> (u32, u32) {
        let (mut applied, mut elided) = (0, 0);
        for op in ops {
            let (i, want) = match *op {
                EditOp::Delete(i) => (i as usize, false),
                EditOp::Restore(i) => (i as usize, true),
            };
            if self.live[i] == want {
                elided += 1;
            } else {
                self.live[i] = want;
                applied += 1;
            }
        }
        (applied, elided)
    }
}

/// Chooses sessions with fixed weights (uniform or Zipf).
struct Picker {
    ids: Vec<usize>,
    cdf: Vec<f64>,
}

impl Picker {
    /// Sessions `ids`, weighted by the Zipf rank each holds in a seeded
    /// permutation of all sessions (so popular sessions spread over
    /// connections and shards).
    fn new(spec: &Spec, seed: u64, ids: Vec<usize>) -> Picker {
        let mut rank: Vec<usize> = (0..spec.sessions).collect();
        Prng::seed_from_u64(seed ^ 0x21FF).shuffle(&mut rank);
        let mut acc = 0.0;
        let cdf = ids
            .iter()
            .map(|&i| {
                acc += spec
                    .zipf
                    .map_or(1.0, |s| 1.0 / ((rank[i] + 1) as f64).powf(s));
                acc
            })
            .collect();
        Picker { ids, cdf }
    }

    fn pick(&self, rng: &mut Prng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let x = rng.gen_f64() * total;
        let k = self.cdf.partition_point(|&c| c <= x);
        self.ids[k.min(self.ids.len() - 1)]
    }
}

/// Draws a request against session `i`: an edit of two random
/// delete/restore ops, or an observe.
fn draw(spec: &Spec, rng: &mut Prng, sids: &[String], i: usize) -> Request {
    let sid = sids[i].clone();
    if rng.gen_bool(spec.edit_share) {
        let ops = (0..2)
            .map(|_| {
                let idx = rng.gen_range(0..spec.n);
                if rng.gen_bool(0.5) {
                    EditOp::Delete(idx)
                } else {
                    EditOp::Restore(idx)
                }
            })
            .collect();
        Request::Edit { sid, ops }
    } else {
        Request::Observe { sid }
    }
}

/// The reply a request must get, given the replicas at send time.
enum Expect {
    Line(String),
    Prefix(String),
}

impl Expect {
    fn of(req: &Request, replica: &mut Replica) -> Expect {
        match req {
            Request::Open { .. } => Expect::Line(format!("ok opened value={}", replica.value())),
            Request::Edit { ops, .. } => {
                let (a, e) = replica.apply(ops);
                Expect::Prefix(format!("ok edited applied={a} elided={e} "))
            }
            _ => Expect::Prefix(format!("ok value={} restored=", replica.value())),
        }
    }

    fn holds(&self, line: &str) -> bool {
        match self {
            Expect::Line(l) => line == l,
            Expect::Prefix(p) => line.starts_with(p.as_str()),
        }
    }
}

struct Pending {
    seq: u64,
    due: Instant,
    expect: Expect,
}

/// Waits until `s` has data to read (true) or `timeout` passes. `ppoll`
/// keeps the open loop's send schedule at timer-slack precision; socket
/// read timeouts round up to whole scheduler ticks.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_readable(s: &TcpStream, timeout: Duration) -> bool {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            tmo: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: s.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as Linux's 64-bit
    // `struct pollfd` and `struct timespec` for the whole call, `nfds`
    // is 1 to match the single `pollfd`, and a null sigmask leaves the
    // signal mask unchanged. An error (EINTR) just ends the wait early.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}

/// Elsewhere a read timeout bounds the wait (to whole ticks).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_readable(s: &TcpStream, timeout: Duration) -> bool {
    s.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
        .is_ok()
}

/// One client connection with its outstanding requests.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: VecDeque<Pending>,
}

/// What one connection saw in one round.
#[derive(Default)]
struct ConnStats {
    sent: u64,
    failed: u64,
    problems: Vec<String>,
    open_us: Vec<f64>,
    closed_ok: u64,
    /// From the closed loop's start to its last counted reply.
    closed_s: f64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    backlog_max: usize,
    /// Requests in send order, per phase (traced rounds only).
    opens: Vec<Request>,
    closed: Vec<Request>,
    open_loop: Vec<(u64, Request)>,
}

impl ConnStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The client's own writes go out at once; the server side is
        // measured as shipped.
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Reads what has arrived within `timeout` and hands every complete
    /// reply line, with its request and arrival time, to `on`. Replies
    /// may arrive split across reads; partial lines wait for the rest.
    fn pump(
        &mut self,
        timeout: Duration,
        st: &mut ConnStats,
        on: &mut dyn FnMut(&mut ConnStats, Pending, bool, Instant),
    ) -> std::io::Result<()> {
        if !wait_readable(&self.stream, timeout) {
            return Ok(());
        }
        let mut chunk = [0u8; 1 << 16];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        let at = Instant::now();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        while let Some(k) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.buf[start..start + k]).into_owned();
            start += k + 1;
            match self.pending.pop_front() {
                Some(p) => {
                    let ok = p.expect.holds(&line);
                    if !ok {
                        st.fail(format!("seq {}: unexpected reply `{line}`", p.seq));
                    }
                    on(st, p, ok, at);
                }
                None => st.fail(format!("reply without a request: `{line}`")),
            }
        }
        self.buf.drain(..start);
        Ok(())
    }

    /// Sends `reqs` in one write, registering what each must get back.
    fn send(
        &mut self,
        reqs: Vec<(u64, Instant, Request)>,
        replicas: &mut [Replica],
        st: &mut ConnStats,
    ) -> std::io::Result<()> {
        let mut text = String::new();
        for (seq, due, req) in reqs {
            text.push_str(&format_request(&req));
            text.push('\n');
            self.pending.push_back(Pending {
                seq,
                due,
                expect: Expect::of(&req, &mut replicas[sid_index(&req)]),
            });
            st.sent += 1;
        }
        st.backlog_max = st.backlog_max.max(self.pending.len());
        self.stream.write_all(text.as_bytes())
    }

    /// Waits for every outstanding reply (up to [`DRAIN`]); each one
    /// still missing then counts as a failure.
    fn drain(
        &mut self,
        st: &mut ConnStats,
        on: &mut dyn FnMut(&mut ConnStats, Pending, bool, Instant),
    ) {
        let until = Instant::now() + DRAIN;
        while !self.pending.is_empty() && Instant::now() < until {
            if let Err(e) = self.pump(Duration::from_millis(20), st, on) {
                st.fail(format!("connection lost: {e}"));
                break;
            }
        }
        for p in std::mem::take(&mut self.pending) {
            st.fail(format!("seq {}: no reply", p.seq));
            on(st, p, false, Instant::now());
        }
    }
}

/// The session index in a workload request's `s<index>` key.
fn sid_index(req: &Request) -> usize {
    let sid = req.sid().expect("workload requests name a session");
    sid[1..].parse().expect("sids are s<index>")
}

/// A server to drive: the `cealc` child process or, in smoke mode, an
/// in-process frontend over the same `Service`.
enum Server {
    Child(Child),
    InProcess(Service, Option<TcpFrontend>),
}

impl Server {
    fn start(spec: &Spec, cfg: &Config) -> std::io::Result<(Server, SocketAddr)> {
        if cfg.smoke {
            let svc = Service::start(service_config(spec));
            let fe = TcpFrontend::spawn_with(
                svc.clone(),
                "127.0.0.1:0",
                FrontendConfig { read_timeout: None },
            )?;
            let addr = fe.addr();
            return Ok((Server::InProcess(svc, Some(fe)), addr));
        }
        let budget_mb = (spec.budget_bytes >> 20).max(1).to_string();
        let mut child = Command::new(&cfg.cealc)
            .args(["--serve", "--addr", "127.0.0.1:0", "--shards", "2"])
            .args(["--idle-timeout-s", "0", "--mem-budget-mb", &budget_mb])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        // cealc prints its bound address and nothing more.
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line)?;
        let addr = line
            .split("serving on ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let server = Server::Child(child);
        match addr {
            Some(a) => Ok((server, a)),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("cealc did not report its address: `{}`", line.trim()),
            )),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        match self {
            Server::Child(c) => peak_rss_mb(Some(c.id())),
            Server::InProcess(..) => peak_rss_mb(None),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        match self {
            Server::Child(c) => {
                let _ = c.kill();
                let _ = c.wait();
            }
            Server::InProcess(svc, fe) => {
                if let Some(fe) = fe.take() {
                    fe.stop();
                }
                svc.shutdown();
            }
        }
    }
}

/// The service configuration `cealc --serve` builds from this
/// workload's flags, minus the slow-request log line.
fn service_config(spec: &Spec) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        mem_budget_bytes: spec.budget_bytes,
        telemetry: telemetry(),
        ..ServiceConfig::default()
    }
}

fn telemetry() -> TelemetryConfig {
    TelemetryConfig {
        slow_log: false,
        ..TelemetryConfig::default()
    }
}

/// Inputs shared by both connection threads of a round.
struct RoundPlan<'a> {
    spec: &'a Spec,
    seed: u64,
    round: u64,
    sids: &'a [String],
    specs: &'a [SessionSpec],
    closed_for: Duration,
    /// Open-loop arrivals per connection: (offset, seq, request).
    arrivals: [Vec<(Duration, u64, Request)>; CONNS],
    record: bool,
    barrier: Barrier,
}

/// One connection's part of a round. Returns its stats; the instant
/// set-up ended is read by the caller after the first barrier.
fn conn_round(
    plan: &RoundPlan<'_>,
    c: usize,
    addr: SocketAddr,
    tracer: &mut Tracer,
    setup_done: &mut Option<Instant>,
) -> ConnStats {
    let mut st = ConnStats::default();
    let mut replicas: Vec<Replica> = plan.specs.iter().map(Replica::new).collect();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => Some(conn),
        Err(e) => {
            st.fail(format!("connect: {e}"));
            None
        }
    };
    let mine: Vec<usize> = (0..plan.sids.len()).filter(|i| i % CONNS == c).collect();

    // Set-up: open this connection's sessions, WINDOW at a time.
    if let Some(conn) = conn.as_mut() {
        let opens: Vec<Request> = mine
            .iter()
            .map(|&i| {
                let s = plan.specs[i];
                Request::Open {
                    sid: plan.sids[i].clone(),
                    workload: s.workload,
                    n: s.n,
                    seed: s.seed,
                    policy: s.policy,
                }
            })
            .collect();
        if plan.record {
            st.opens = opens.clone();
        }
        let mut on = |st: &mut ConnStats, p: Pending, ok: bool, at: Instant| {
            if ok {
                st.open_us.push((at - p.due).as_secs_f64() * 1e6);
            }
        };
        let mut queue = opens.into_iter();
        loop {
            let room = WINDOW - conn.pending.len();
            let now = Instant::now();
            let batch: Vec<_> = queue.by_ref().take(room).map(|r| (0, now, r)).collect();
            if !batch.is_empty() {
                if let Err(e) = conn.send(batch, &mut replicas, &mut st) {
                    st.fail(format!("send: {e}"));
                    break;
                }
            }
            if conn.pending.is_empty() {
                break;
            }
            if let Err(e) = conn.pump(Duration::from_millis(50), &mut st, &mut on) {
                st.fail(format!("connection lost: {e}"));
                break;
            }
        }
        conn.drain(&mut st, &mut on);
    }
    plan.barrier.wait();
    *setup_done = Some(Instant::now());

    // Closed loop: WINDOW requests in flight until the deadline.
    let begin = Instant::now();
    let deadline = begin + plan.closed_for;
    if let Some(conn) = conn.as_mut() {
        let picker = Picker::new(plan.spec, plan.seed, mine.clone());
        let mut rng = Prng::seed_from_u64(splitmix(plan.seed ^ (plan.round << 8) ^ c as u64));
        let mut on = |st: &mut ConnStats, _p: Pending, ok: bool, at: Instant| {
            if ok && at <= deadline {
                st.closed_ok += 1;
                st.closed_s = (at - begin).as_secs_f64();
            }
        };
        loop {
            let now = Instant::now();
            if now < deadline {
                let room = WINDOW - conn.pending.len();
                let batch: Vec<_> = (0..room)
                    .map(|_| {
                        let i = picker.pick(&mut rng);
                        (0, now, draw(plan.spec, &mut rng, plan.sids, i))
                    })
                    .collect();
                if plan.record {
                    st.closed.extend(batch.iter().map(|(_, _, r)| r.clone()));
                }
                if !batch.is_empty() {
                    if let Err(e) = conn.send(batch, &mut replicas, &mut st) {
                        st.fail(format!("send: {e}"));
                        break;
                    }
                }
            } else {
                break;
            }
            let wait = deadline
                .saturating_duration_since(now)
                .min(Duration::from_millis(50));
            if let Err(e) = conn.pump(wait, &mut st, &mut on) {
                st.fail(format!("connection lost: {e}"));
                break;
            }
        }
        conn.drain(&mut st, &mut on);
    }
    plan.barrier.wait();

    // Open loop: send each arrival when due, whatever is outstanding.
    if let Some(conn) = conn.as_mut() {
        let start = Instant::now() + Duration::from_millis(2);
        let arrivals = &plan.arrivals[c];
        let mut on = |st: &mut ConnStats, p: Pending, ok: bool, at: Instant| {
            let us = if ok {
                (at - p.due).as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            };
            st.latency_us.push(us);
            tracer.leaf("tcp.request", p.seq, p.due, at);
        };
        let mut next = 0;
        while next < arrivals.len() {
            let now = Instant::now();
            let mut batch = Vec::new();
            while next < arrivals.len() && start + arrivals[next].0 <= now {
                let (off, seq, req) = &arrivals[next];
                let due = start + *off;
                st.late_us.push((now - due).as_secs_f64() * 1e6);
                batch.push((*seq, due, req.clone()));
                if plan.record {
                    st.open_loop.push((*seq, req.clone()));
                }
                next += 1;
            }
            if !batch.is_empty() {
                if let Err(e) = conn.send(batch, &mut replicas, &mut st) {
                    st.fail(format!("send: {e}"));
                    break;
                }
            }
            let wait = match arrivals.get(next) {
                Some((off, _, _)) => (start + *off).saturating_duration_since(Instant::now()),
                None => break,
            };
            if let Err(e) = conn.pump(wait, &mut st, &mut on) {
                st.fail(format!("connection lost: {e}"));
                break;
            }
        }
        conn.drain(&mut st, &mut on);
    }
    st
}

/// Seeded Poisson arrivals at `spec.rate` for `dur`, split by the
/// connection owning each request's session.
fn arrivals(
    spec: &Spec,
    seed: u64,
    round: u64,
    dur: Duration,
    sids: &[String],
) -> [Vec<(Duration, u64, Request)>; CONNS] {
    let picker = Picker::new(spec, seed, (0..spec.sessions).collect());
    let mut rng = Prng::seed_from_u64(splitmix(seed ^ 0x0A11 ^ (round << 16)));
    let mut out: [Vec<_>; CONNS] = Default::default();
    let mut t = 0.0;
    let mut k = 0u64;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / spec.rate;
        if t >= dur.as_secs_f64() {
            return out;
        }
        k += 1;
        let i = picker.pick(&mut rng);
        let req = draw(spec, &mut rng, sids, i);
        out[i % CONNS].push((Duration::from_secs_f64(t), round * 10_000_000 + k, req));
    }
}

/// Sends `stats` on a fresh connection and returns the `admitted` count.
fn admitted(addr: SocketAddr) -> std::io::Result<u64> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(b"stats\n")?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix("admitted="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad stats reply `{}`", line.trim()),
            )
        })
}

/// Per-layer totals from the in-process replays of traced rounds.
#[derive(Default)]
struct Layers {
    requests: u64,
    parse_ns: f64,
    call_ns: f64,
    format_ns: f64,
    handle_ns: f64,
    restore_handle_ns: f64,
    tcp_ns: f64,
    delta: ServiceCounters,
    max_live: usize,
}

/// Replays a traced round's requests (in send order per connection,
/// connections interleaved) through `Service::call` and a lockstep pair
/// of `Shard`s. Only the open-loop requests (`seq > 0`) are timed.
fn replay(
    spec: &Spec,
    order: &[(u64, Request)],
    tracers: &mut [Tracer; 2],
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let svc = Service::start(service_config(spec));
    for (seq, req) in order {
        let line = format_request(req);
        let t0 = Instant::now();
        let parsed = parse_request(&line);
        let t1 = Instant::now();
        let reply = match parsed {
            Ok(r) => svc.call(r),
            Err(e) => {
                out.fail(format!("replay: `{line}` does not parse: {e}"));
                continue;
            }
        };
        let t2 = Instant::now();
        let text = reply.to_string();
        let t3 = Instant::now();
        if !reply.is_ok() {
            out.fail(format!("replay: `{line}` -> `{text}`"));
        }
        if *seq > 0 {
            let tr = &mut tracers[0];
            tr.open("replay.request", *seq, t0);
            tr.leaf("wire.parse", *seq, t0, t1);
            tr.leaf("service.call", *seq, t1, t2);
            tr.leaf("wire.format", *seq, t2, t3);
            tr.close(t3);
            layers.requests += 1;
            layers.parse_ns += (t1 - t0).as_secs_f64() * 1e9;
            layers.call_ns += (t2 - t1).as_secs_f64() * 1e9;
            layers.format_ns += (t3 - t2).as_secs_f64() * 1e9;
        }
    }
    svc.shutdown();

    let cfg = ShardConfig {
        mem_budget_bytes: spec.budget_bytes,
        telemetry: telemetry(),
        ..ShardConfig::default()
    };
    let mut shards: Vec<Shard> = (0..SHARDS).map(|_| Shard::new(cfg)).collect();
    for (seq, req) in order {
        let sid = req.sid().expect("workload requests name a session");
        let s = route_key(sid, SHARDS);
        let before = *shards[s].counters();
        let t0 = Instant::now();
        let reply = shards[s].handle(req);
        let t1 = Instant::now();
        if !reply.is_ok() {
            out.fail(format!("lockstep: {req:?} -> {reply}"));
        }
        layers.max_live = layers
            .max_live
            .max(shards.iter().map(Shard::live_bytes).sum());
        if *seq > 0 {
            let tr = &mut tracers[1];
            tr.open("lockstep.request", *seq, t0);
            tr.leaf("shard.handle", *seq, t0, t1);
            tr.close(t1);
            let after = *shards[s].counters();
            let ns = (t1 - t0).as_secs_f64() * 1e9;
            layers.handle_ns += ns;
            if after.restored > before.restored {
                layers.restore_handle_ns += ns;
            }
            let d = &mut layers.delta;
            d.restored += after.restored - before.restored;
            d.evicted += after.evicted - before.evicted;
            d.replayed_ops += after.replayed_ops - before.replayed_ops;
            d.snapshot_bytes += after.snapshot_bytes - before.snapshot_bytes;
            d.engine_reexec += after.engine_reexec - before.engine_reexec;
        }
    }
}

/// Runs one service workload.
pub fn run(spec: &Spec, cfg: &Config) -> (Outcome, Vec<Span>, Ledger) {
    let spec = if cfg.smoke { spec.smoke() } else { *spec };
    let origin = Instant::now();
    // Five rounds of a 5% closed loop and a 14% open loop: medians over
    // rounds shrug off one round that meets a noisy neighbour.
    let rounds = if cfg.smoke { 2 } else { 5 };
    let closed_for = Duration::from_secs_f64(cfg.seconds * 0.05);
    let open_for = Duration::from_secs_f64(cfg.seconds * 0.14);
    let sids: Vec<String> = (0..spec.sessions).map(|i| format!("s{i}")).collect();
    let specs: Vec<SessionSpec> = (0..spec.sessions)
        .map(|i| session_spec(cfg.seed, i, spec.n))
        .collect();

    let mut out = Outcome::default();
    let (mut setup_s, mut rss, mut tput, mut open_ms) = (vec![], vec![], vec![], vec![]);
    let (mut p50, mut p99) = (vec![], vec![]);
    let (mut late, mut backlog) = (vec![], 0usize);
    let (mut traced_lat, mut untraced_lat) = (vec![], vec![]);
    let mut trace = Tracer::new(false, origin, 0);
    let mut layers = Layers::default();
    for round in 0..rounds {
        let traced = cfg.trace && round % 2 == 1;
        let t0 = Instant::now();
        let (server, addr) = match Server::start(&spec, cfg) {
            Ok(s) => s,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("round {round}: server did not start: {e}"));
                continue;
            }
        };
        let plan = RoundPlan {
            spec: &spec,
            seed: cfg.seed,
            round,
            sids: &sids,
            specs: &specs,
            closed_for,
            arrivals: arrivals(&spec, cfg.seed, round, open_for, &sids),
            record: traced,
            barrier: Barrier::new(CONNS),
        };
        let mut tracers = [
            Tracer::new(traced, origin, 1),
            Tracer::new(traced, origin, 2),
        ];
        let (t_a, t_b) = tracers.split_at_mut(1);
        let mut ready = None;
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| conn_round(&plan, 1, addr, &mut t_b[0], &mut None));
            let a = conn_round(&plan, 0, addr, &mut t_a[0], &mut ready);
            (a, other.join().expect("connection thread panicked"))
        });
        if let Some(done) = ready {
            setup_s.push((done - t0).as_secs_f64());
        }
        let sent = a.sent + b.sent;
        out.attempted += sent;
        match admitted(addr) {
            Ok(n) if n == sent => {}
            Ok(n) => out.fail(format!(
                "round {round}: server admitted {n} requests, client sent {sent}"
            )),
            Err(e) => out.fail(format!("round {round}: stats: {e}")),
        }
        rss.push(server.peak_rss_mb());
        drop(server);
        let rate = |st: &ConnStats| st.closed_ok as f64 / st.closed_s.max(1e-9);
        tput.push(rate(&a) + rate(&b));
        let round_lat: Vec<f64> = a.latency_us.iter().chain(&b.latency_us).copied().collect();
        if traced {
            traced_lat.extend_from_slice(&round_lat);
        } else {
            untraced_lat.extend_from_slice(&round_lat);
        }
        let round_lat = sorted(&round_lat);
        p50.push(percentile(&round_lat, 50.0));
        p99.push(percentile(&round_lat, 99.0));
        let opens: Vec<f64> = a.open_us.iter().chain(&b.open_us).copied().collect();
        open_ms.push(median(&opens) / 1e3);
        for st in [&a, &b] {
            late.extend_from_slice(&st.late_us);
            backlog = backlog.max(st.backlog_max);
            out.failed += st.failed;
            out.problems.extend(st.problems.iter().cloned());
        }
        if traced {
            for t in tracers {
                layers.tcp_ns += t.spans().iter().map(|s| s.dur_ns() as f64).sum::<f64>();
                trace.absorb(t);
            }
            let mut rt = [Tracer::new(true, origin, 3), Tracer::new(true, origin, 4)];
            replay(&spec, &replay_order(a, b), &mut rt, &mut layers, &mut out);
            for t in rt {
                trace.absorb(t);
            }
        }
    }

    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", median(&rss));
    out.set("from_scratch_ms", median(&open_ms));
    out.set("latency_p50_us", median(&p50));
    out.set("latency_p99_us", median(&p99));
    out.set("throughput_per_s", median(&tput));

    let mut ledger = Ledger::default();
    if cfg.trace {
        let late = sorted(&late);
        out.set("loadgen.late_p99_us", percentile(&late, 99.0));
        out.set("loadgen.late_max_us", late.last().copied().unwrap_or(0.0));
        out.set("loadgen.backlog_max", backlog as f64);
        let (t, u) = (median(&traced_lat), median(&untraced_lat));
        if t.is_finite() && u > 0.0 && u.is_finite() {
            out.set("trace.overhead_pct", (t / u - 1.0) * 100.0);
        }
        scratch_cost(&specs, &mut out);
        ledger = set_layers(&layers, &mut out);
    }
    (out, trace.into_spans(), ledger)
}

/// Interleaves the two connections' recorded requests phase by phase:
/// per-session order is preserved because a session lives on one
/// connection. Open-loop requests keep their arrival order and seq.
fn replay_order(a: ConnStats, b: ConnStats) -> Vec<(u64, Request)> {
    let mut order = Vec::new();
    for (x, y) in [(a.opens, b.opens), (a.closed, b.closed)] {
        let (mut x, mut y) = (x.into_iter(), y.into_iter());
        loop {
            match (x.next(), y.next()) {
                (None, None) => break,
                (p, q) => order.extend(p.into_iter().chain(q).map(|r| (0, r))),
            }
        }
    }
    let mut open: Vec<(u64, Request)> = a.open_loop.into_iter().chain(b.open_loop).collect();
    open.sort_by_key(|(seq, _)| *seq);
    order.extend(open);
    order
}

/// `runtime.scratch_ns_per_op` for the service: every session's
/// `Session::open` (input build plus from-scratch run) over the engine
/// work it does.
fn scratch_cost(specs: &[SessionSpec], out: &mut Outcome) {
    let mut cache = ProgramCache::default();
    let (mut ns, mut ops) = (0.0, 0u64);
    for s in specs {
        let t0 = Instant::now();
        let session = Session::open(*s, &mut cache);
        ns += t0.elapsed().as_secs_f64() * 1e9;
        let c = session.counters();
        ops += c.reads_created + c.writes_created + c.allocs_created;
    }
    out.set("runtime.scratch_ns_per_op", ns / ops.max(1) as f64);
}

/// Per-layer service metrics and the ledger: the TCP total, the
/// replayed parts, and the residual nothing in-process covers.
fn set_layers(l: &Layers, out: &mut Outcome) -> Ledger {
    let n = l.requests.max(1) as f64;
    let per_k = |v: u64| v as f64 * 1000.0 / n;
    out.set("wire.parse_ns", l.parse_ns / n);
    out.set("wire.format_ns", l.format_ns / n);
    out.set("service.call_us", l.call_ns / n / 1e3);
    out.set("shard.handle_us", l.handle_ns / n / 1e3);
    out.set("service.queue_hop_us", (l.call_ns - l.handle_ns) / n / 1e3);
    let residual = l.tcp_ns - l.parse_ns - l.call_ns - l.format_ns;
    out.set("frontend.residual_us", residual / n / 1e3);
    out.set(
        "frontend.residual_share",
        if l.tcp_ns > 0.0 {
            residual / l.tcp_ns
        } else {
            0.0
        },
    );
    out.set(
        "shard.restore_share",
        if l.handle_ns > 0.0 {
            l.restore_handle_ns / l.handle_ns
        } else {
            0.0
        },
    );
    out.set("shard.restores_per_1k", per_k(l.delta.restored));
    out.set("shard.evictions_per_1k", per_k(l.delta.evicted));
    out.set(
        "shard.replayed_ops_per_restore",
        l.delta.replayed_ops as f64 / l.delta.restored.max(1) as f64,
    );
    out.set(
        "shard.snapshot_bytes_per_evict",
        l.delta.snapshot_bytes as f64 / l.delta.evicted.max(1) as f64,
    );
    out.set(
        "runtime.reexec_per_request",
        l.delta.engine_reexec as f64 / n,
    );
    out.set("runtime.max_live_mb", l.max_live as f64 / (1 << 20) as f64);
    Ledger {
        roots: vec!["tcp.request".into()],
        total_ns: l.tcp_ns,
        parts: vec![
            ("wire.parse".into(), l.parse_ns),
            ("wire.format".into(), l.format_ns),
            ("shard.handle".into(), l.handle_ns),
            ("service.queue_hop".into(), l.call_ns - l.handle_ns),
        ],
        residual_ns: residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_tracks_edits_and_empty_lists() {
        let spec = session_spec(7, 0, 4);
        let mut r = Replica::new(&spec);
        let all: i64 = r.data.iter().sum();
        assert_eq!(r.value(), Value::Int(all));
        assert_eq!(r.apply(&[EditOp::Delete(1), EditOp::Delete(1)]), (1, 1));
        assert_eq!(r.value(), Value::Int(all - r.data[1]));
        r.apply(&[EditOp::Delete(0), EditOp::Delete(2), EditOp::Delete(3)]);
        assert_eq!(r.value(), Value::Nil);
        assert_eq!(r.apply(&[EditOp::Restore(3)]), (1, 0));
        assert_eq!(r.value(), Value::Int(r.data[3]));
    }

    #[test]
    fn zipf_picker_favours_low_ranks_and_covers_its_ids() {
        let picker = Picker::new(&EVICT, 1, (0..EVICT.sessions).collect());
        let mut rng = Prng::seed_from_u64(3);
        let mut hits = vec![0u32; EVICT.sessions];
        for _ in 0..20_000 {
            hits[picker.pick(&mut rng)] += 1;
        }
        let mut sorted_hits = hits.clone();
        sorted_hits.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = sorted_hits[..10].iter().sum();
        assert!(top > 2_000, "top 10 of 1024 sessions got {top} of 20000");
        let odd = Picker::new(&STEADY, 1, vec![1, 3, 5]);
        assert!((0..100).all(|_| [1, 3, 5].contains(&odd.pick(&mut rng))));
    }

    #[test]
    fn arrivals_are_seeded_and_split_by_connection() {
        let sids: Vec<String> = (0..STEADY.sessions).map(|i| format!("s{i}")).collect();
        let a = arrivals(&STEADY, 5, 0, Duration::from_millis(500), &sids);
        let b = arrivals(&STEADY, 5, 0, Duration::from_millis(500), &sids);
        assert_eq!(a[0].len(), b[0].len());
        let total = a[0].len() + a[1].len();
        assert!((800..1200).contains(&total), "{total} arrivals at 2000/s");
        for (c, reqs) in a.iter().enumerate() {
            assert!(reqs.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(reqs.iter().all(|(_, _, r)| sid_index(r) % CONNS == c));
        }
    }
}
