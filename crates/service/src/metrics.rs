//! Service-tier telemetry: per-shard metric registries, request
//! tracing configuration, and the slow-request surface (DESIGN.md §17).
//!
//! One [`ShardTelemetry`] per shard, created by [`crate::Service`] and
//! owned (via `Arc`) by both the shard worker and the service handle:
//! the worker is the only *writer* on the request path (admission
//! writes only `shed` and `queue_depth`), so the atomics in
//! [`crate::telemetry`] never bounce between cores; the service
//! handle reads them only at scrape time, merging all shards' snapshots
//! into one exposition ([`crate::Service::metrics_snapshot`]).
//!
//! The registry is the only store for every service count, so two
//! kinds of series live here on purpose:
//!
//! * **Deterministic counts and gauges** — every [`ServiceCounters`]
//!   fact, request totals by kind, errors, and the session and queue
//!   gauges. They are kept whatever [`TelemetryConfig::enabled`] says;
//!   in the lockstep bench they are pure functions of the schedule and
//!   are gated against `service_golden.json`.
//! * **Wall-clock series** — queue-wait / handle / restore / reply
//!   histograms, the engine-segment timer and slow-request records.
//!   Recorded only when telemetry is enabled. Reported, never gated.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Registry, SlowRequestRecord};
use crate::wire::{CounterDelta, Request, ServiceCounters, ShardStat};

/// How many slow-request records each shard retains for inspection
/// (`metrics.json` exposes them; the log line is the durable artifact).
pub const SLOW_RING_CAP: usize = 8;

/// Top-k sites reported in slow records. With telemetry enabled every
/// session carries per-request engine profiling and the
/// [`ceal_runtime::SiteTally`] hook.
pub const TOP_SITES: usize = 3;

/// Telemetry configuration, carried in [`crate::ShardConfig`] and
/// [`crate::ServiceConfig`].
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Master switch for the timed half of telemetry. Off means no
    /// clocks, histograms, slow-request records or engine profiling
    /// (the baseline the overhead gate compares against); counts and
    /// gauges are kept either way.
    pub enabled: bool,
    /// Requests whose queue-wait + handle time reaches this many
    /// microseconds emit a [`SlowRequestRecord`]. `0` marks every
    /// request slow (deterministic — the lockstep gate uses it);
    /// `u64::MAX` disables slow tracking.
    pub slow_threshold_us: u64,
    /// Whether slow-request records are written to stderr as structured
    /// one-liners (they always enter the in-memory ring).
    pub slow_log: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            slow_threshold_us: 250_000,
            slow_log: true,
        }
    }
}

impl TelemetryConfig {
    /// Everything off — the overhead-gate baseline.
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            slow_threshold_us: u64::MAX,
            slow_log: false,
        }
    }
}

/// Request kinds the telemetry layer distinguishes. `stats` and
/// `metrics` are service-level aggregation reads, answered without
/// touching a session; they are deliberately *not* counted here so the
/// scrape consistency check (`requests_total` vs client round trip)
/// stays exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// `open` — from-scratch session build.
    Open,
    /// `edit` — batched structural edits.
    Edit,
    /// `observe` — output read (demand-clean under demand policy).
    Observe,
    /// `close` — session teardown.
    Close,
    /// `ping` — liveness probe.
    Ping,
}

/// All kinds, in label order.
pub const REQ_KINDS: [ReqKind; 5] = [
    ReqKind::Open,
    ReqKind::Edit,
    ReqKind::Observe,
    ReqKind::Close,
    ReqKind::Ping,
];

impl ReqKind {
    /// Label value / wire verb.
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Open => "open",
            ReqKind::Edit => "edit",
            ReqKind::Observe => "observe",
            ReqKind::Close => "close",
            ReqKind::Ping => "ping",
        }
    }

    /// The kind of a request, `None` for the service-level aggregation
    /// verbs (`stats`, `metrics`).
    pub fn of(req: &Request) -> Option<ReqKind> {
        match req {
            Request::Open { .. } => Some(ReqKind::Open),
            Request::Edit { .. } => Some(ReqKind::Edit),
            Request::Observe { .. } => Some(ReqKind::Observe),
            Request::Close { .. } => Some(ReqKind::Close),
            Request::Ping => Some(ReqKind::Ping),
            Request::Stats | Request::Metrics => None,
        }
    }

    fn index(self) -> usize {
        match self {
            ReqKind::Open => 0,
            ReqKind::Edit => 1,
            ReqKind::Observe => 2,
            ReqKind::Close => 3,
            ReqKind::Ping => 4,
        }
    }
}

/// Per-request metadata stamped at admission and carried to the shard:
/// the monotonic request id and the measured queue wait.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReqMeta {
    /// Monotonic id assigned by the service frontend (0 when the shard
    /// is driven directly, e.g. lockstep or unit tests).
    pub id: u64,
    /// Microseconds spent in the shard's admission queue (0 when driven
    /// directly).
    pub queue_us: u64,
}

/// One shard's metric handles. Registration happens once at
/// construction; everything on the request path is an `Arc`'d atomic.
/// Besides requests, errors and slow requests it holds one counter per
/// [`ServiceCounters`] fact; the registry is the only store of each.
pub struct ShardTelemetry {
    cfg: TelemetryConfig,
    index: usize,
    registry: Registry,

    requests: [Arc<Counter>; 5],
    /// Typed-error replies (any [`crate::wire::ErrKind`]).
    pub errors: Arc<Counter>,
    /// Requests at or over the slow threshold (telemetry enabled only).
    pub slow_requests: Arc<Counter>,

    /// Requests the shard handled.
    pub admitted: Arc<Counter>,
    /// Admission rejections for this shard (written by the frontend —
    /// shed requests never reach the worker).
    pub shed: Arc<Counter>,
    /// Sessions opened.
    pub opened: Arc<Counter>,
    /// Sessions closed.
    pub closed: Arc<Counter>,
    /// Edit batches applied.
    pub edit_batches: Arc<Counter>,
    /// Edit ops that changed state.
    pub edit_ops: Arc<Counter>,
    /// Edit ops elided (already in the requested state).
    pub elided_ops: Arc<Counter>,
    /// Observations served.
    pub observes: Arc<Counter>,
    /// Sessions evicted to snapshot bytes.
    pub evicted: Arc<Counter>,
    /// Sessions restored from snapshot bytes.
    pub restored: Arc<Counter>,
    /// Snapshot bytes written by evictions.
    pub snapshot_bytes: Arc<Counter>,
    /// History ops replayed by restores.
    pub replayed_ops: Arc<Counter>,
    /// Engine reads re-executed.
    pub engine_reexec: Arc<Counter>,
    /// Engine propagation passes.
    pub engine_props: Arc<Counter>,
    /// Engine memo hits.
    pub engine_memo_hits: Arc<Counter>,
    /// Engine dirty marks (demand policy).
    pub engine_dirty_marks: Arc<Counter>,
    /// Engine demand-clean passes.
    pub engine_demand_cleans: Arc<Counter>,

    /// Requests currently queued for this shard.
    pub queue_depth: Arc<Gauge>,
    /// Live (un-evicted) sessions.
    pub live_sessions: Arc<Gauge>,
    /// Sessions parked as snapshot bytes.
    pub evicted_sessions: Arc<Gauge>,
    /// Estimated resident session bytes.
    pub live_bytes: Arc<Gauge>,

    request_us: [Arc<Histogram>; 5],
    /// Queue-wait segment (µs).
    pub queue_wait_us: Arc<Histogram>,
    /// Shard-handler segment (µs).
    pub handle_us: Arc<Histogram>,
    /// Snapshot-restore segment (µs), recorded only when a restore ran.
    pub restore_us: Arc<Histogram>,
    /// Engine segment — the session op itself (µs).
    pub engine_us: Arc<Histogram>,
    /// Reply-delivery segment (µs), recorded by the worker.
    pub reply_us: Arc<Histogram>,

    slow_ring: Mutex<VecDeque<SlowRequestRecord>>,
}

impl std::fmt::Debug for ShardTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardTelemetry(shard {}, {:?})", self.index, self.cfg)
    }
}

impl ShardTelemetry {
    /// Builds the metric family for shard `index`.
    pub fn new(index: usize, cfg: TelemetryConfig) -> ShardTelemetry {
        let r = Registry::new();
        let shard = ("shard", index.to_string());
        let base = [shard.clone()];
        let kind_labels = |k: ReqKind| [shard.clone(), ("kind", k.name().to_string())];
        let requests = REQ_KINDS.map(|k| {
            r.counter(
                "ceal_requests_total",
                "Requests handled, by kind (service-level stats/metrics excluded)",
                &kind_labels(k),
            )
        });
        let request_us = REQ_KINDS.map(|k| {
            r.histogram(
                "ceal_request_us",
                "End-to-end request latency (queue wait + handler), microseconds",
                &kind_labels(k),
            )
        });
        let count = |name: &str, help: &str| r.counter(name, help, &base);
        ShardTelemetry {
            requests,
            request_us,
            errors: count("ceal_errors_total", "Typed error replies"),
            slow_requests: count(
                "ceal_slow_requests_total",
                "Requests at or over the slow threshold",
            ),
            admitted: count("ceal_admitted_total", "Requests handled by the shard"),
            shed: count(
                "ceal_shed_total",
                "Requests refused at admission (queue full)",
            ),
            opened: count("ceal_opened_total", "Sessions opened"),
            closed: count("ceal_closed_total", "Sessions closed"),
            edit_batches: count("ceal_edit_batches_total", "Edit batches applied"),
            edit_ops: count("ceal_edit_ops_total", "Edit ops that changed state"),
            elided_ops: count("ceal_elided_ops_total", "Edit ops elided (no change)"),
            observes: count("ceal_observes_total", "Observations served"),
            evicted: count(
                "ceal_sessions_evicted_total",
                "Sessions evicted to snapshot bytes",
            ),
            restored: count(
                "ceal_sessions_restored_total",
                "Sessions restored from snapshot bytes",
            ),
            snapshot_bytes: count(
                "ceal_snapshot_bytes_total",
                "Snapshot bytes written by evictions",
            ),
            replayed_ops: count(
                "ceal_replayed_ops_total",
                "History ops replayed by restores",
            ),
            engine_reexec: count("ceal_engine_reexec_total", "Engine reads re-executed"),
            engine_props: count("ceal_engine_props_total", "Engine propagation passes"),
            engine_memo_hits: count("ceal_engine_memo_hits_total", "Engine memo hits"),
            engine_dirty_marks: count("ceal_engine_dirty_marks_total", "Engine dirty marks"),
            engine_demand_cleans: count(
                "ceal_engine_demand_cleans_total",
                "Engine demand-clean passes",
            ),
            queue_depth: r.gauge("ceal_queue_depth", "Requests queued for this shard", &base),
            live_sessions: r.gauge("ceal_live_sessions", "Live (un-evicted) sessions", &base),
            evicted_sessions: r.gauge(
                "ceal_evicted_sessions",
                "Sessions parked as snapshot bytes",
                &base,
            ),
            live_bytes: r.gauge("ceal_live_bytes", "Estimated resident session bytes", &base),
            queue_wait_us: r.histogram(
                "ceal_queue_wait_us",
                "Admission-queue wait, microseconds",
                &base,
            ),
            handle_us: r.histogram("ceal_handle_us", "Shard handler time, microseconds", &base),
            restore_us: r.histogram(
                "ceal_restore_us",
                "Snapshot-restore time, microseconds",
                &base,
            ),
            engine_us: r.histogram(
                "ceal_engine_us",
                "Engine segment (session op) time, microseconds",
                &base,
            ),
            reply_us: r.histogram("ceal_reply_us", "Reply-delivery time, microseconds", &base),
            slow_ring: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAP)),
            cfg,
            index,
            registry: r,
        }
    }

    /// Adds one request's engine work to the five `engine_*` counters.
    pub fn add_engine(&self, d: &CounterDelta) {
        self.engine_reexec.add(d.reads_reexecuted);
        self.engine_props.add(d.propagations);
        self.engine_memo_hits.add(d.memo_hits);
        self.engine_dirty_marks.add(d.dirty_marks);
        self.engine_demand_cleans.add(d.demand_cleans);
    }

    /// Reads the [`ServiceCounters`] facts out of the registry. Relaxed
    /// loads: exact once traffic has stopped, and never torn per field
    /// while it runs.
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            admitted: self.admitted.get(),
            shed: self.shed.get(),
            opened: self.opened.get(),
            closed: self.closed.get(),
            edit_batches: self.edit_batches.get(),
            edit_ops: self.edit_ops.get(),
            elided_ops: self.elided_ops.get(),
            observes: self.observes.get(),
            evicted: self.evicted.get(),
            restored: self.restored.get(),
            snapshot_bytes: self.snapshot_bytes.get(),
            replayed_ops: self.replayed_ops.get(),
            engine_reexec: self.engine_reexec.get(),
            engine_props: self.engine_props.get(),
            engine_memo_hits: self.engine_memo_hits.get(),
            engine_dirty_marks: self.engine_dirty_marks.get(),
            engine_demand_cleans: self.engine_demand_cleans.get(),
        }
    }

    /// This shard's gauges as a `stats` reply row.
    pub fn stat(&self) -> ShardStat {
        ShardStat {
            shard: self.index as u32,
            queue_depth: self.queue_depth.get(),
            live_sessions: self.live_sessions.get(),
            evicted_sessions: self.evicted_sessions.get(),
            live_bytes: self.live_bytes.get(),
        }
    }

    /// The configuration this telemetry was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Shard index (also the `shard` label on every series).
    pub fn shard_index(&self) -> usize {
        self.index
    }

    /// `true` when the request path should record. One branch.
    #[inline]
    pub fn on(&self) -> bool {
        self.cfg.enabled
    }

    /// Request counter for `kind`.
    pub fn requests(&self, kind: ReqKind) -> &Counter {
        &self.requests[kind.index()]
    }

    /// End-to-end latency histogram for `kind`.
    pub fn request_hist(&self, kind: ReqKind) -> &Histogram {
        &self.request_us[kind.index()]
    }

    /// Records a slow request: counter, ring, and (if configured) the
    /// structured stderr line.
    pub fn note_slow(&self, rec: SlowRequestRecord) {
        self.slow_requests.inc();
        if self.cfg.slow_log {
            eprintln!("{}", rec.render_line());
        }
        let mut ring = self.slow_ring.lock().expect("slow ring poisoned");
        if ring.len() == SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// The retained slow-request records, oldest first.
    pub fn slow_records(&self) -> Vec<SlowRequestRecord> {
        self.slow_ring
            .lock()
            .expect("slow ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// A point-in-time snapshot of this shard's registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Merges per-shard snapshots into one exposition-ready snapshot
/// (counters add, gauges add, histograms merge bucket-wise).
pub fn merge_shards(tels: &[Arc<ShardTelemetry>]) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for t in tels {
        out.merge(&t.snapshot());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_mapping_is_total_over_routed_requests() {
        assert_eq!(ReqKind::of(&Request::Ping), Some(ReqKind::Ping));
        assert_eq!(ReqKind::of(&Request::Stats), None);
        assert_eq!(ReqKind::of(&Request::Metrics), None);
        for k in REQ_KINDS {
            assert_eq!(REQ_KINDS[k.index()], k);
        }
    }

    #[test]
    fn shard_label_appears_on_every_series() {
        let t = ShardTelemetry::new(3, TelemetryConfig::default());
        t.requests(ReqKind::Edit).inc();
        t.queue_depth.set(5);
        let snap = t.snapshot();
        assert!(!snap.series.is_empty());
        for s in &snap.series {
            assert!(
                s.labels.iter().any(|(k, v)| k == "shard" && v == "3"),
                "series {} missing shard label",
                s.name
            );
        }
        assert_eq!(
            snap.counter_with_label("ceal_requests_total", "kind", "edit"),
            1
        );
    }

    #[test]
    fn slow_ring_is_bounded() {
        let t = ShardTelemetry::new(
            0,
            TelemetryConfig {
                slow_log: false,
                ..Default::default()
            },
        );
        for i in 0..(SLOW_RING_CAP as u64 + 5) {
            t.note_slow(SlowRequestRecord {
                id: i,
                kind: "edit",
                ..Default::default()
            });
        }
        let recs = t.slow_records();
        assert_eq!(recs.len(), SLOW_RING_CAP);
        assert_eq!(recs[0].id, 5, "oldest records evicted first");
        assert_eq!(t.slow_requests.get(), SLOW_RING_CAP as u64 + 5);
    }

    #[test]
    fn merge_shards_adds_across_registries() {
        let a = Arc::new(ShardTelemetry::new(0, TelemetryConfig::default()));
        let b = Arc::new(ShardTelemetry::new(1, TelemetryConfig::default()));
        a.requests(ReqKind::Open).inc();
        b.requests(ReqKind::Open).add(2);
        let snap = merge_shards(&[a, b]);
        assert_eq!(snap.counter_total("ceal_requests_total"), 3);
        // Distinct shard labels stay distinct series.
        assert_eq!(
            snap.counter_with_label("ceal_requests_total", "shard", "1"),
            2
        );
    }
}
