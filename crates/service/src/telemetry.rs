//! Production telemetry: a lock-free metrics registry, deterministic
//! log-bucketed integer histograms, and structured slow-request records
//! (DESIGN.md §17).
//!
//! The observability layer of DESIGN.md §10 answers "what did this
//! *deterministic* run do" — counters that are pure functions of the
//! request schedule, gateable in CI. A production service needs the
//! operational complement: live counters, gauges and latency histograms
//! that many threads read while one thread writes, scraped over HTTP
//! without pausing the hot path. This module is that layer:
//!
//! * [`Counter`] / [`Gauge`] — single atomic words. Writers use relaxed
//!   RMW ops; readers snapshot at scrape time. No locks anywhere near
//!   the request path.
//! * [`Histogram`] — a fixed array of atomic buckets with
//!   **deterministic log-spaced integer boundaries** (8 sub-buckets per
//!   power of two, ≤12.5 % relative width). Because the boundaries are
//!   a pure function of the bucket index — not of the data — any two
//!   histograms are mergeable by bucket-wise addition, and exact
//!   p50/p99/p999 *bounds* fall out of integer rank arithmetic with no
//!   floating point (see [`HistogramSnapshot::quantile_bounds`]).
//! * [`Registry`] — names, help strings and label sets for a set of
//!   metric handles, snapshotted into [`MetricsSnapshot`] and rendered
//!   as Prometheus text exposition or JSON. The intended topology is
//!   **one registry per shard** (each shard's worker is the only
//!   writer, so the atomics never bounce between cores) with snapshots
//!   merged at scrape time by [`MetricsSnapshot::merge`].
//! * [`SlowRequestRecord`] — the structured record a service emits for
//!   requests over its slow threshold: segment timings plus the
//!   engine-phase breakdown from the [`ceal_runtime::obs::Profiler`] and top-k
//!   [`SiteId`](ceal_runtime::SiteId) attribution from the
//!   [`ceal_runtime::SiteTally`] hook.
//!
//! Wall-clock values recorded here are *reported, never gated*; the
//! deterministic counter subset (request totals, shed/evict/restore,
//! slow-request counts at threshold 0) is what the service golden
//! gates — see `crates/service`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ceal_runtime::PhaseCost;

// ---------------------------------------------------------------------------
// Bucket math
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two (so the relative bucket width is
/// `1/SUB_BUCKETS` = 12.5 %). Changing this changes every boundary and
/// therefore the meaning of recorded data; it is a format constant.
pub const SUB_BUCKETS: u64 = 8;
const LOG_SUB: u32 = 3; // log2(SUB_BUCKETS)

/// Total number of histogram buckets covering all of `u64`.
/// `SUB_BUCKETS` exact unit buckets for values `< SUB_BUCKETS`, then
/// `SUB_BUCKETS` log-spaced buckets per octave up to `2^64`.
pub const NUM_BUCKETS: usize = (SUB_BUCKETS + (64 - LOG_SUB as u64) * SUB_BUCKETS) as usize;

/// The bucket index a value lands in. Deterministic, total, and
/// monotone: `a <= b` implies `bucket_index(a) <= bucket_index(b)`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= LOG_SUB
        let octave = msb - LOG_SUB;
        let sub = (v >> octave) - SUB_BUCKETS; // 0..SUB_BUCKETS
        (u64::from(octave) * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        i
    } else {
        let octave = (i - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << octave
    }
}

/// Inclusive upper bound of bucket `i` (the largest value that maps to
/// it). For the last bucket this is `u64::MAX`.
pub fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1) - 1
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge (an instantaneous level: queue depth,
/// live sessions, resident bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments the level.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the level, saturating at zero (a racy decrement below
    /// zero would otherwise wrap to 2^64-1 and poison every scrape).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram over `u64` samples with deterministic
/// log-spaced integer buckets (see the module docs for the bucket
/// scheme). ~4 KB of atomics per instance.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        let mut v = Vec::with_capacity(NUM_BUCKETS);
        v.resize_with(NUM_BUCKETS, AtomicU64::default);
        Histogram {
            buckets: v.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample: three relaxed `fetch_add`s, no branches
    /// beyond the bucket computation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Concurrent writers may land
    /// between the bucket reads and the count read; the snapshot
    /// normalizes `count` to the bucket total so it is always
    /// internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`NUM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total samples (always the bucket sum).
    pub count: u64,
    /// Sum of sample values (approximate under concurrent snapshots,
    /// exact when writers are quiescent).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An all-zero snapshot (the merge identity).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket-wise addition. Associative and commutative (tested in
    /// `tests/telemetry_hist.rs`), which is what makes per-shard
    /// histograms a sharding-transparent representation.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        // Wrapping on purpose: `Histogram::record` accumulates the sum
        // with a wrapping atomic add, and merge must agree with what a
        // single histogram fed all the samples would report.
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The exact `[lo, hi]` value bounds of the sample at rank
    /// `ceil(count * num / den)` (1-based), i.e. the `num/den`-quantile
    /// under the "smallest value with cumulative count ≥ rank"
    /// convention. Pure integer arithmetic; `None` on an empty
    /// snapshot.
    ///
    /// Guarantee: if the recorded samples were sorted, the sample at
    /// that rank lies in `[lo, hi]` — the bounds *bracket* the exact
    /// order statistic (property-tested against adversarial
    /// distributions).
    pub fn quantile_bounds(&self, num: u64, den: u64) -> Option<(u64, u64)> {
        if self.count == 0 || den == 0 {
            return None;
        }
        // rank = ceil(count * num / den), clamped to [1, count].
        let rank =
            (self.count.saturating_mul(num).saturating_add(den - 1) / den).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some((bucket_lo(i), bucket_hi(i)));
            }
        }
        None // unreachable: count is the bucket sum
    }

    /// Upper bound of the median.
    pub fn p50(&self) -> u64 {
        self.quantile_bounds(1, 2).map_or(0, |(_, hi)| hi)
    }

    /// Upper bound of the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_bounds(99, 100).map_or(0, |(_, hi)| hi)
    }

    /// Upper bound of the 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile_bounds(999, 1000).map_or(0, |(_, hi)| hi)
    }

    /// Indices of non-empty buckets (exposition renders only these plus
    /// the cumulative structure).
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The kind of a registered metric (drives the Prometheus `# TYPE`
/// line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Log-bucketed histogram.
    Histogram,
}

impl MetricKind {
    /// Prometheus type name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// Names, help strings and label sets for a family of metric handles.
///
/// Registration takes a mutex (cold path, typically once at startup);
/// the handles it returns are plain `Arc`s over atomics, so *recording*
/// never touches the lock — the hot path is lock-free by construction.
/// [`Registry::snapshot`] (the scrape path) takes the same mutex
/// briefly to walk the entry list.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "Registry({n} metrics)")
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, String)], handle: Handle) {
        self.entries.lock().expect("registry poisoned").push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            handle,
        });
    }

    /// Registers and returns a counter. By Prometheus convention the
    /// name should end in `_total`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, String)]) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push(name, help, labels, Handle::Counter(Arc::clone(&c)));
        c
    }

    /// Registers and returns a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, String)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, labels, Handle::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers and returns a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, String)]) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, labels, Handle::Histogram(Arc::clone(&h)));
        h
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        MetricsSnapshot {
            series: entries
                .iter()
                .map(|e| Series {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.handle {
                        Handle::Counter(c) => SeriesValue::Counter(c.get()),
                        Handle::Gauge(g) => SeriesValue::Gauge(g.get()),
                        Handle::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One snapshotted series: a named, labeled value.
#[derive(Clone, Debug)]
pub struct Series {
    /// Metric name (family key).
    pub name: String,
    /// Help text (first registration wins at render time).
    pub help: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The snapshotted value.
    pub value: SeriesValue,
}

/// A snapshotted metric value.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl SeriesValue {
    fn kind(&self) -> MetricKind {
        match self {
            SeriesValue::Counter(_) => MetricKind::Counter,
            SeriesValue::Gauge(_) => MetricKind::Gauge,
            SeriesValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A mergeable point-in-time view of one or more registries — the unit
/// the scrape endpoint renders.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Every snapshotted series, in registration order (merge appends
    /// or combines same-name same-label series).
    pub series: Vec<Series>,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: series with identical name *and*
    /// label set combine (counters and gauges add, histograms merge
    /// bucket-wise); everything else appends. This is how per-shard
    /// registries become one service-wide scrape without the shards
    /// ever sharing a cache line.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for s in &other.series {
            if let Some(mine) = self
                .series
                .iter_mut()
                .find(|m| m.name == s.name && m.labels == s.labels)
            {
                match (&mut mine.value, &s.value) {
                    (SeriesValue::Counter(a), SeriesValue::Counter(b)) => *a += b,
                    (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) => *a += b,
                    (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
                    _ => {} // kind clash: keep ours (registration bug)
                }
            } else {
                self.series.push(s.clone());
            }
        }
    }

    /// Sum of every counter series named `name` (across all label
    /// sets). Zero when absent.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => *v,
                SeriesValue::Histogram(h) => h.count,
            })
            .sum()
    }

    /// Sum of counter series named `name` whose label set contains
    /// `(key, value)`.
    pub fn counter_with_label(&self, name: &str, key: &str, value: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == value))
            .map(|s| match &s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => *v,
                SeriesValue::Histogram(h) => h.count,
            })
            .sum()
    }

    /// The bucket-wise merge of every histogram series named `name`
    /// whose labels satisfy `filter` (e.g. all shards, one kind).
    pub fn merged_histogram(
        &self,
        name: &str,
        mut filter: impl FnMut(&[(String, String)]) -> bool,
    ) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for s in &self.series {
            if s.name == name && filter(&s.labels) {
                if let SeriesValue::Histogram(h) = &s.value {
                    out.merge(h);
                }
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, histograms as
    /// cumulative `_bucket{le="..."}` series plus `_sum` / `_count`.
    /// Only occupied buckets get an explicit `le` boundary (plus the
    /// mandatory `+Inf`), keeping scrapes compact; cumulative counts
    /// are still exact because `le` boundaries are inclusive and our
    /// samples are integers.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.series {
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
                let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind().name());
                // Emit every series of this family here, grouped.
                for t in self.series.iter().filter(|t| t.name == s.name) {
                    render_series(&mut out, t);
                }
            }
        }
        out
    }

    /// Renders the snapshot as JSON (hand-written: the workspace has no
    /// JSON dependency). With `compact`, no newlines — suitable for the
    /// one-line `metrics` wire reply.
    pub fn to_json(&self, compact: bool) -> String {
        let (nl, pad) = if compact { ("", "") } else { ("\n", "  ") };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{{nl}{pad}\"schema\": \"ceal-metrics/v1\",{nl}{pad}\"series\": ["
        );
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{nl}{pad}{pad}{{\"name\": \"{}\"",
                json_escape(&s.name)
            );
            if !s.labels.is_empty() {
                out.push_str(", \"labels\": {");
                for (j, (k, v)) in s.labels.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
                }
                out.push('}');
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = write!(out, ", \"type\": \"counter\", \"value\": {v}");
                }
                SeriesValue::Gauge(v) => {
                    let _ = write!(out, ", \"type\": \"gauge\", \"value\": {v}");
                }
                SeriesValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ", \"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                         \"p50_hi\": {}, \"p99_hi\": {}, \"p999_hi\": {}, \"buckets\": [",
                        h.count,
                        h.sum,
                        h.p50(),
                        h.p99(),
                        h.p999()
                    );
                    for (j, (idx, c)) in h.occupied().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(
                            out,
                            "{{\"lo\": {}, \"hi\": {}, \"count\": {c}}}",
                            bucket_lo(idx),
                            bucket_hi(idx)
                        );
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        let _ = write!(out, "{nl}{pad}]{nl}}}");
        if !compact {
            out.push('\n');
        }
        out
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

fn render_series(out: &mut String, s: &Series) {
    match &s.value {
        SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
            out.push_str(&s.name);
            render_labels(out, &s.labels, None);
            let _ = writeln!(out, " {v}");
        }
        SeriesValue::Histogram(h) => {
            let mut cum = 0u64;
            for (idx, c) in h.occupied() {
                cum += c;
                let hi = bucket_hi(idx);
                let le = hi.to_string();
                let _ = write!(out, "{}_bucket", s.name);
                render_labels(out, &s.labels, Some(("le", &le)));
                let _ = writeln!(out, " {cum}");
            }
            let _ = write!(out, "{}_bucket", s.name);
            render_labels(out, &s.labels, Some(("le", "+Inf")));
            let _ = writeln!(out, " {}", h.count);
            out.push_str(&s.name);
            out.push_str("_sum");
            render_labels(out, &s.labels, None);
            let _ = writeln!(out, " {}", h.sum);
            out.push_str(&s.name);
            out.push_str("_count");
            render_labels(out, &s.labels, None);
            let _ = writeln!(out, " {}", h.count);
        }
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Slow-request records
// ---------------------------------------------------------------------------

/// The structured record emitted for a request that exceeded the
/// service's slow threshold: wall-clock segments, the engine's
/// per-phase breakdown for exactly this request (profiler phases
/// drained per request), and the top-k program points that burned the
/// propagation work (from the [`ceal_runtime::SiteTally`] hook; empty
/// when site tracing is off).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowRequestRecord {
    /// Monotonic request id assigned at admission.
    pub id: u64,
    /// Session key (empty for keyless requests).
    pub sid: String,
    /// Request kind (`open`, `edit`, `observe`, ...).
    pub kind: &'static str,
    /// End-to-end time from admission to reply, microseconds.
    pub total_us: u64,
    /// Time spent queued before the shard worker picked it up.
    pub queue_us: u64,
    /// Time inside the shard handler (engine + bookkeeping).
    pub handle_us: u64,
    /// Snapshot-restore time, if the request hit an evicted session.
    pub restore_us: u64,
    /// Time spent delivering the reply.
    pub reply_us: u64,
    /// Whether a snapshot restore ran.
    pub restored: bool,
    /// Engine phase breakdown for this request (aggregated by kind).
    pub phases: Vec<PhaseCost>,
    /// Top-k sites by attributed event count, `(site name, events)`.
    pub top_sites: Vec<(String, u64)>,
}

impl SlowRequestRecord {
    /// One-line structured log format: space-separated `key=value`
    /// pairs (greppable, splittable), phases as
    /// `phase:<count>:<reexec>:<memo>` and sites as `site:<events>`.
    pub fn render_line(&self) -> String {
        let mut s = format!(
            "slow-request id={} sid={} kind={} total_us={} queue_us={} handle_us={} \
             restore_us={} reply_us={} restored={}",
            self.id,
            if self.sid.is_empty() { "-" } else { &self.sid },
            self.kind,
            self.total_us,
            self.queue_us,
            self.handle_us,
            self.restore_us,
            self.reply_us,
            u8::from(self.restored)
        );
        for p in &self.phases {
            let _ = write!(
                s,
                " phase.{}={}:{}:{}",
                p.phase, p.count, p.reads_reexecuted, p.memo_hits
            );
        }
        for (name, n) in &self.top_sites {
            let _ = write!(s, " site.{}={}", name.replace(' ', "_"), n);
        }
        s
    }

    /// JSON rendering (for `metrics.json`-adjacent tooling and tests).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"id\": {}, \"sid\": \"{}\", \"kind\": \"{}\", \"total_us\": {}, \
             \"queue_us\": {}, \"handle_us\": {}, \"restore_us\": {}, \"reply_us\": {}, \
             \"restored\": {}, \"phases\": [",
            self.id,
            json_escape(&self.sid),
            self.kind,
            self.total_us,
            self.queue_us,
            self.handle_us,
            self.restore_us,
            self.reply_us,
            self.restored
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"phase\": \"{}\", \"count\": {}, \"reads_reexecuted\": {}, \
                 \"memo_hits\": {}, \"queue_pops\": {}}}",
                p.phase, p.count, p.reads_reexecuted, p.memo_hits, p.queue_pops
            );
        }
        s.push_str("], \"top_sites\": [");
        for (i, (name, n)) in self.top_sites.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"site\": \"{}\", \"events\": {n}}}",
                json_escape(name)
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_total_and_monotone() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16); // first 2-wide bucket
        assert_eq!(bucket_index(17), 16);
        let mut prev = 0;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [v.saturating_sub(1), v, v.saturating_add(1)] {
                let i = bucket_index(probe);
                assert!(i >= prev || probe < (1u64 << shift) - 1);
                assert!(
                    bucket_lo(i) <= probe && probe <= bucket_hi(i),
                    "v={probe} i={i}"
                );
                prev = bucket_index(v.saturating_sub(1));
            }
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
        assert_eq!(bucket_hi(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_width_bound() {
        // Relative width ≤ 1/SUB_BUCKETS for every non-unit bucket.
        for i in SUB_BUCKETS as usize..NUM_BUCKETS - 1 {
            let lo = bucket_lo(i);
            let hi = bucket_hi(i);
            assert!(hi - lo <= lo / SUB_BUCKETS, "bucket {i}: [{lo},{hi}]");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 100, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5201);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets[bucket_index(100)], 2);
        let (lo, hi) = s.quantile_bounds(1, 2).unwrap();
        assert!(lo <= 100 && 100 <= hi);
    }

    #[test]
    fn quantile_bounds_edge_ranks() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.quantile_bounds(999, 1000), s.quantile_bounds(1, 2));
        assert!(HistogramSnapshot::empty().quantile_bounds(1, 2).is_none());
    }

    #[test]
    fn registry_snapshot_merge_and_render() {
        let r0 = Registry::new();
        let r1 = Registry::new();
        let shard = |i: usize| vec![("shard", i.to_string())];
        let c0 = r0.counter("ceal_requests_total", "requests", &shard(0));
        let c1 = r1.counter("ceal_requests_total", "requests", &shard(1));
        let h0 = r0.histogram("ceal_request_us", "latency", &shard(0));
        let h1 = r1.histogram("ceal_request_us", "latency", &shard(1));
        c0.add(3);
        c1.add(4);
        h0.record(10);
        h1.record(1000);
        let mut snap = r0.snapshot();
        snap.merge(&r1.snapshot());
        assert_eq!(snap.counter_total("ceal_requests_total"), 7);
        assert_eq!(
            snap.counter_with_label("ceal_requests_total", "shard", "1"),
            4
        );
        let merged = snap.merged_histogram("ceal_request_us", |_| true);
        assert_eq!(merged.count, 2);
        assert_eq!(merged.sum, 1010);

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE ceal_requests_total counter"));
        assert!(text.contains("ceal_requests_total{shard=\"0\"} 3"));
        assert!(text.contains("ceal_request_us_bucket{shard=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("ceal_request_us_sum{shard=\"1\"} 1000"));
        // HELP/TYPE emitted once per family.
        assert_eq!(text.matches("# TYPE ceal_requests_total").count(), 1);

        let j = snap.to_json(true);
        assert!(!j.contains('\n'));
        assert!(j.contains("\"ceal_requests_total\""));
    }

    #[test]
    fn merge_combines_same_label_series() {
        let a = Registry::new();
        let b = Registry::new();
        let ca = a.counter("x_total", "x", &[]);
        let cb = b.counter("x_total", "x", &[]);
        ca.add(2);
        cb.add(5);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.series.len(), 1);
        assert_eq!(s.counter_total("x_total"), 7);
    }

    #[test]
    fn gauge_dec_saturates() {
        let g = Gauge::new();
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn slow_record_renders_structured_line() {
        let rec = SlowRequestRecord {
            id: 7,
            sid: "tenant-1".into(),
            kind: "edit",
            total_us: 12000,
            queue_us: 9000,
            handle_us: 3000,
            restore_us: 0,
            reply_us: 10,
            restored: false,
            phases: vec![PhaseCost {
                phase: "batch",
                count: 1,
                reads_reexecuted: 17,
                memo_hits: 4,
                queue_pops: 20,
            }],
            top_sites: vec![("sum@L3:read".into(), 17)],
        };
        let line = rec.render_line();
        assert!(line.starts_with("slow-request id=7 sid=tenant-1 kind=edit"));
        assert!(line.contains("total_us=12000"));
        assert!(line.contains("phase.batch=1:17:4"));
        assert!(line.contains("site.sum@L3:read=17"));
        assert!(!line.contains('\n'));
        let j = rec.to_json();
        assert!(j.contains("\"phase\": \"batch\""));
    }
}
