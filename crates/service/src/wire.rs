//! The service wire format: one request per line, one reply per line.
//!
//! The protocol is deliberately a plain ASCII line protocol (the kind
//! you can drive from `nc`): the interesting engineering in this tier
//! is the shard/ownership model and the snapshot lifecycle, not the
//! framing, and a text protocol keeps the example client and the CI
//! smoke job dependency-free. The parse/format pair below round-trips
//! exactly, so the in-process load generator and the TCP frontend
//! exercise the same `Request` values.
//!
//! ```text
//! open <sid> <workload> <n> <seed> [eager|demand]   open a session
//! edit <sid> <op>...        ops: d<idx> (delete) | r<idx> (restore)
//! observe <sid>             demand-clean (if needed) and read the output
//! close <sid>               drop the session and its snapshot
//! stats                     service-level counters + per-shard gauges
//! metrics                   one-line JSON metrics snapshot (all shards)
//! ping                      liveness probe
//! ```
//!
//! Replies: `ok <k>=<v>...` or `err <kind> <detail>`. Edit/observe
//! replies carry the per-session [`OpCounters`] delta of the request
//! (`reexec=`, `props=`, ...), extending the observability layer to the
//! service tier: a client can see what an edit *cost*.

use std::fmt;

use ceal_runtime::{OpCounters, Value};

/// Maximum accepted line length (DoS guard for the TCP frontend).
pub const MAX_LINE: usize = 64 * 1024;

/// One structural edit against a session's input list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Unlink element `i` (idempotent: deleting a dead element elides).
    Delete(u32),
    /// Relink element `i` (idempotent symmetrically).
    Restore(u32),
}

/// The self-adjusting program a session hosts. All v1 workloads fold an
/// editable integer list; they differ in the combine function, which is
/// enough to give sessions distinct traces and costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Randomized-pairing list sum (§8.2 `sum`).
    Sum,
    /// Randomized-pairing list minimum (§8.2 `minimum`).
    Min,
}

impl Workload {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sum => "sum",
            Workload::Min => "min",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "sum" => Some(Workload::Sum),
            "min" => Some(Workload::Min),
            _ => None,
        }
    }

    /// Stable tag for the snapshot body.
    pub fn tag(self) -> u8 {
        match self {
            Workload::Sum => 0,
            Workload::Min => 1,
        }
    }

    /// Inverse of [`Workload::tag`].
    pub fn from_tag(t: u8) -> Option<Workload> {
        match t {
            0 => Some(Workload::Sum),
            1 => Some(Workload::Min),
            _ => None,
        }
    }
}

/// Propagation policy selector carried on `open`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyArg {
    /// Eager change propagation (the default).
    Eager,
    /// Demand-driven propagation (edits defer until `observe`).
    Demand,
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Create session `sid` hosting `workload` over an `n`-element list
    /// seeded with `seed`.
    Open {
        /// Session key (also the routing key).
        sid: String,
        /// Hosted program.
        workload: Workload,
        /// Input-list length.
        n: u32,
        /// Input-data seed.
        seed: u64,
        /// Propagation policy.
        policy: PolicyArg,
    },
    /// Apply a batch of structural edits as one transaction.
    Edit {
        /// Session key.
        sid: String,
        /// The batched ops, applied in order.
        ops: Vec<EditOp>,
    },
    /// Observe the session's output modifiable.
    Observe {
        /// Session key.
        sid: String,
    },
    /// Close the session, dropping live state and snapshots.
    Close {
        /// Session key.
        sid: String,
    },
    /// Service-level counters.
    Stats,
    /// A one-line JSON snapshot of the telemetry metrics (DESIGN.md
    /// §17) — the wire twin of the HTTP `GET /metrics.json` surface.
    Metrics,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// The routing key, if this request addresses a session.
    pub fn sid(&self) -> Option<&str> {
        match self {
            Request::Open { sid, .. }
            | Request::Edit { sid, .. }
            | Request::Observe { sid }
            | Request::Close { sid } => Some(sid),
            Request::Stats | Request::Metrics | Request::Ping => None,
        }
    }
}

/// Failure classes reported on the wire and by [`crate::Service`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrKind {
    /// The request line did not parse.
    Parse,
    /// The session key is not open on this shard.
    UnknownSession,
    /// `open` for a key that is already open.
    SessionExists,
    /// An edit index is outside the session's list.
    BadIndex,
    /// The shard's admission queue is full — retry later (load shed).
    Shed,
    /// A snapshot failed to decode on restore.
    Snapshot,
    /// The shard would exceed its session capacity.
    Capacity,
    /// The service is shutting down.
    Shutdown,
    /// The connection sat idle past the frontend's read timeout and is
    /// being closed (sent as a courtesy line before the close).
    IdleTimeout,
}

impl ErrKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrKind::Parse => "parse",
            ErrKind::UnknownSession => "unknown-session",
            ErrKind::SessionExists => "session-exists",
            ErrKind::BadIndex => "bad-index",
            ErrKind::Shed => "shed",
            ErrKind::Snapshot => "snapshot",
            ErrKind::Capacity => "capacity",
            ErrKind::Shutdown => "shutdown",
            ErrKind::IdleTimeout => "idle-timeout",
        }
    }
}

/// The per-request slice of the engine's deterministic counters
/// returned to clients (the full 23-counter view stays available via
/// the observability layer; the wire carries the ones a tenant can act
/// on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterDelta {
    /// Reads re-executed by this request's propagation.
    pub reads_reexecuted: u64,
    /// Propagation passes run (0 for deferred demand edits).
    pub propagations: u64,
    /// Memo hits during re-execution.
    pub memo_hits: u64,
    /// Dirty marks recorded (demand policy).
    pub dirty_marks: u64,
    /// Demand-clean passes run by `observe`.
    pub demand_cleans: u64,
}

impl CounterDelta {
    /// Extracts the wire slice from a full counter delta.
    pub fn from_counters(d: &OpCounters) -> CounterDelta {
        CounterDelta {
            reads_reexecuted: d.reads_reexecuted,
            propagations: d.propagations,
            memo_hits: d.memo_hits,
            dirty_marks: d.dirty_marks,
            demand_cleans: d.demand_cleans,
        }
    }

    fn fmt_fields(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            " reexec={} props={} memo={} marks={} cleans={}",
            self.reads_reexecuted,
            self.propagations,
            self.memo_hits,
            self.dirty_marks,
            self.demand_cleans
        )
    }
}

/// Deterministic service-tier counters, aggregated across shards by
/// [`crate::Service::stats`] and gated in CI like the runtime counter
/// golden (wall clock excluded; every one of these is a pure function
/// of the request schedule in lockstep mode). A read-out of the shard
/// registries ([`crate::ShardTelemetry::counters`]), which are the only
/// place these facts are counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Requests admitted into a shard queue.
    pub admitted: u64,
    /// Requests refused because a shard queue was full.
    pub shed: u64,
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed.
    pub closed: u64,
    /// Edit batches applied.
    pub edit_batches: u64,
    /// Individual edit ops applied (delete/restore that changed state).
    pub edit_ops: u64,
    /// Edit ops elided (already in the requested state).
    pub elided_ops: u64,
    /// Observations served.
    pub observes: u64,
    /// Sessions evicted to snapshot bytes under memory pressure.
    pub evicted: u64,
    /// Sessions restored from snapshot bytes on access.
    pub restored: u64,
    /// Total snapshot bytes written by evictions.
    pub snapshot_bytes: u64,
    /// History operations replayed by restores.
    pub replayed_ops: u64,
    /// Sum of per-request `reads_reexecuted` engine deltas.
    pub engine_reexec: u64,
    /// Sum of per-request `propagations` engine deltas.
    pub engine_props: u64,
    /// Sum of per-request `memo_hits` engine deltas.
    pub engine_memo_hits: u64,
    /// Sum of per-request `dirty_marks` engine deltas.
    pub engine_dirty_marks: u64,
    /// Sum of per-request `demand_cleans` engine deltas.
    pub engine_demand_cleans: u64,
}

impl ServiceCounters {
    /// Counter names in [`ServiceCounters::values`] order (the gate's
    /// flattening order).
    pub const NAMES: [&'static str; 17] = [
        "admitted",
        "shed",
        "opened",
        "closed",
        "edit_batches",
        "edit_ops",
        "elided_ops",
        "observes",
        "evicted",
        "restored",
        "snapshot_bytes",
        "replayed_ops",
        "engine_reexec",
        "engine_props",
        "engine_memo_hits",
        "engine_dirty_marks",
        "engine_demand_cleans",
    ];

    /// Values in [`ServiceCounters::NAMES`] order.
    pub fn values(&self) -> [u64; 17] {
        [
            self.admitted,
            self.shed,
            self.opened,
            self.closed,
            self.edit_batches,
            self.edit_ops,
            self.elided_ops,
            self.observes,
            self.evicted,
            self.restored,
            self.snapshot_bytes,
            self.replayed_ops,
            self.engine_reexec,
            self.engine_props,
            self.engine_memo_hits,
            self.engine_dirty_marks,
            self.engine_demand_cleans,
        ]
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &ServiceCounters) {
        let mut v = self.values();
        for (a, b) in v.iter_mut().zip(other.values()) {
            *a += b;
        }
        let [admitted, shed, opened, closed, edit_batches, edit_ops, elided_ops, observes, evicted, restored, snapshot_bytes, replayed_ops, engine_reexec, engine_props, engine_memo_hits, engine_dirty_marks, engine_demand_cleans] =
            v;
        *self = ServiceCounters {
            admitted,
            shed,
            opened,
            closed,
            edit_batches,
            edit_ops,
            elided_ops,
            observes,
            evicted,
            restored,
            snapshot_bytes,
            replayed_ops,
            engine_reexec,
            engine_props,
            engine_memo_hits,
            engine_dirty_marks,
            engine_demand_cleans,
        };
    }
}

/// One shard's live gauges, reported in the `stats` reply so an
/// operator can see skew (hot shards, parked sessions) that the
/// service-wide aggregate hides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Shard index.
    pub shard: u32,
    /// Requests currently queued for the shard.
    pub queue_depth: u64,
    /// Live (un-evicted) sessions.
    pub live_sessions: u64,
    /// Sessions parked as snapshot bytes.
    pub evicted_sessions: u64,
    /// Estimated resident session bytes.
    pub live_bytes: u64,
}

impl ShardStat {
    fn fmt_fields(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shard;
        write!(
            f,
            " shard{s}.queue={} shard{s}.live={} shard{s}.evicted={} shard{s}.bytes={}",
            self.queue_depth, self.live_sessions, self.evicted_sessions, self.live_bytes
        )
    }
}

/// A reply, rendered as one `ok ...` / `err ...` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Session opened; carries the initial output value.
    Opened {
        /// Output value after the from-scratch run.
        value: Value,
    },
    /// Edit batch applied.
    Edited {
        /// Ops that changed state.
        applied: u32,
        /// Ops elided (already in the requested state).
        elided: u32,
        /// Engine cost of the request.
        counters: CounterDelta,
    },
    /// Observation result.
    Observed {
        /// The output value.
        value: Value,
        /// Engine cost of the request (demand-clean work, if any).
        counters: CounterDelta,
        /// Whether the session was restored from a snapshot to serve
        /// this request.
        restored: bool,
    },
    /// Session closed.
    Closed,
    /// Service counters plus per-shard breakdown (empty when a single
    /// shard answers for itself, populated by the service-wide
    /// aggregation).
    Stats {
        /// Aggregated deterministic counters.
        counters: ServiceCounters,
        /// Per-shard live gauges, in shard order.
        shards: Vec<ShardStat>,
    },
    /// Telemetry metrics snapshot as one line of compact JSON
    /// (`ceal-metrics/v1`).
    Metrics(String),
    /// Liveness reply.
    Pong,
    /// Typed failure.
    Err(ErrKind, String),
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Opened { value } => write!(f, "ok opened value={value}"),
            Reply::Edited {
                applied,
                elided,
                counters,
            } => {
                write!(f, "ok edited applied={applied} elided={elided}")?;
                counters.fmt_fields(f)
            }
            Reply::Observed {
                value,
                counters,
                restored,
            } => {
                write!(f, "ok value={value} restored={}", u8::from(*restored))?;
                counters.fmt_fields(f)
            }
            Reply::Closed => write!(f, "ok closed"),
            Reply::Stats { counters, shards } => {
                write!(f, "ok stats")?;
                for (name, v) in ServiceCounters::NAMES.iter().zip(counters.values()) {
                    write!(f, " {name}={v}")?;
                }
                for s in shards {
                    s.fmt_fields(f)?;
                }
                Ok(())
            }
            Reply::Metrics(json) => write!(f, "ok metrics {json}"),
            Reply::Pong => write!(f, "ok pong"),
            Reply::Err(kind, detail) => {
                if detail.is_empty() {
                    write!(f, "err {}", kind.name())
                } else {
                    write!(f, "err {} {detail}", kind.name())
                }
            }
        }
    }
}

impl Reply {
    /// `true` for `ok ...` replies.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Err(..))
    }

    /// Convenience constructor for typed failures.
    pub fn err(kind: ErrKind, detail: impl Into<String>) -> Reply {
        Reply::Err(kind, detail.into())
    }
}

fn valid_sid(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable description of the first problem; the
/// frontend wraps it in [`ErrKind::Parse`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut it = line.split_ascii_whitespace();
    let verb = it.next().ok_or("empty request")?;
    let req = match verb {
        "open" => {
            let sid = it.next().ok_or("open: missing session id")?;
            if !valid_sid(sid) {
                return Err(format!("open: invalid session id `{sid}`"));
            }
            let w = it.next().ok_or("open: missing workload")?;
            let workload =
                Workload::parse(w).ok_or_else(|| format!("open: unknown workload `{w}`"))?;
            let n: u32 = it
                .next()
                .ok_or("open: missing n")?
                .parse()
                .map_err(|_| "open: n must be a u32".to_string())?;
            let seed: u64 = it
                .next()
                .ok_or("open: missing seed")?
                .parse()
                .map_err(|_| "open: seed must be a u64".to_string())?;
            let policy = match it.next() {
                None | Some("eager") => PolicyArg::Eager,
                Some("demand") => PolicyArg::Demand,
                Some(p) => return Err(format!("open: unknown policy `{p}`")),
            };
            Request::Open {
                sid: sid.to_string(),
                workload,
                n,
                seed,
                policy,
            }
        }
        "edit" => {
            let sid = it.next().ok_or("edit: missing session id")?;
            let mut ops = Vec::new();
            for tok in it.by_ref() {
                // Split after the first character, not the first byte:
                // a multi-byte first character must not panic the parser.
                let (kind, idx) = tok.split_at(tok.chars().next().map_or(0, char::len_utf8));
                let idx: u32 = idx
                    .parse()
                    .map_err(|_| format!("edit: bad op index in `{tok}`"))?;
                match kind {
                    "d" => ops.push(EditOp::Delete(idx)),
                    "r" => ops.push(EditOp::Restore(idx)),
                    _ => return Err(format!("edit: unknown op `{tok}` (want dN or rN)")),
                }
            }
            if ops.is_empty() {
                return Err("edit: at least one op required".into());
            }
            Request::Edit {
                sid: sid.to_string(),
                ops,
            }
        }
        "observe" => Request::Observe {
            sid: it.next().ok_or("observe: missing session id")?.to_string(),
        },
        "close" => Request::Close {
            sid: it.next().ok_or("close: missing session id")?.to_string(),
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "ping" => Request::Ping,
        other => return Err(format!("unknown verb `{other}`")),
    };
    if let Some(extra) = it.next() {
        return Err(format!("trailing token `{extra}`"));
    }
    Ok(req)
}

/// Renders a request as its wire line (inverse of [`parse_request`]).
pub fn format_request(req: &Request) -> String {
    match req {
        Request::Open {
            sid,
            workload,
            n,
            seed,
            policy,
        } => {
            let p = match policy {
                PolicyArg::Eager => "eager",
                PolicyArg::Demand => "demand",
            };
            format!("open {sid} {} {n} {seed} {p}", workload.name())
        }
        Request::Edit { sid, ops } => {
            let mut s = format!("edit {sid}");
            for op in ops {
                match op {
                    EditOp::Delete(i) => s.push_str(&format!(" d{i}")),
                    EditOp::Restore(i) => s.push_str(&format!(" r{i}")),
                }
            }
            s
        }
        Request::Observe { sid } => format!("observe {sid}"),
        Request::Close { sid } => format!("close {sid}"),
        Request::Stats => "stats".into(),
        Request::Metrics => "metrics".into(),
        Request::Ping => "ping".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::Open {
                sid: "tenant-1".into(),
                workload: Workload::Sum,
                n: 64,
                seed: 42,
                policy: PolicyArg::Demand,
            },
            Request::Edit {
                sid: "tenant-1".into(),
                ops: vec![EditOp::Delete(3), EditOp::Restore(3), EditOp::Delete(0)],
            },
            Request::Observe { sid: "t".into() },
            Request::Close { sid: "t".into() },
            Request::Stats,
            Request::Metrics,
            Request::Ping,
        ];
        for r in reqs {
            assert_eq!(parse_request(&format_request(&r)).unwrap(), r);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "frobnicate x",
            "open",
            "open s",
            "open s sum",
            "open s sum 10",
            "open s nope 10 1",
            "open s sum ten 1",
            "open s sum 10 1 lazy",
            "open bad!sid sum 10 1",
            "edit s",
            "edit s x3",
            "edit s d",
            "edit s é3",
            "observe",
            "ping extra",
        ] {
            assert!(parse_request(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn replies_render_one_line() {
        let r = Reply::Observed {
            value: Value::Int(17),
            counters: CounterDelta {
                reads_reexecuted: 3,
                ..Default::default()
            },
            restored: true,
        };
        let s = r.to_string();
        assert!(s.starts_with("ok value=17 restored=1"));
        assert!(s.contains("reexec=3"));
        assert!(!s.contains('\n'));
        let e = Reply::err(ErrKind::Shed, "queue full");
        assert_eq!(e.to_string(), "err shed queue full");
        assert!(!e.is_ok());
        assert_eq!(
            Reply::err(ErrKind::IdleTimeout, "60s").to_string(),
            "err idle-timeout 60s"
        );
    }

    #[test]
    fn stats_reply_renders_per_shard_breakdown() {
        let r = Reply::Stats {
            counters: ServiceCounters {
                admitted: 9,
                ..Default::default()
            },
            shards: vec![
                ShardStat {
                    shard: 0,
                    queue_depth: 2,
                    live_sessions: 5,
                    evicted_sessions: 1,
                    live_bytes: 4096,
                },
                ShardStat {
                    shard: 1,
                    ..Default::default()
                },
            ],
        };
        let s = r.to_string();
        assert!(s.starts_with("ok stats admitted=9"), "{s}");
        assert!(s.contains("shard0.queue=2 shard0.live=5 shard0.evicted=1 shard0.bytes=4096"));
        assert!(s.contains("shard1.queue=0"));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn metrics_reply_is_one_line() {
        let r = Reply::Metrics("{\"schema\": \"ceal-metrics/v1\", \"series\": []}".into());
        let s = r.to_string();
        assert!(s.starts_with("ok metrics {"), "{s}");
        assert!(!s.contains('\n'));
    }

    #[test]
    fn service_counters_add_componentwise() {
        let mut a = ServiceCounters {
            admitted: 1,
            evicted: 2,
            ..Default::default()
        };
        let b = ServiceCounters {
            admitted: 10,
            restored: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.admitted, 11);
        assert_eq!(a.evicted, 2);
        assert_eq!(a.restored, 5);
    }
}
