//! Engine observability: event hooks, per-phase counter scoping, and
//! paper-style profiles (DESIGN.md §10).
//!
//! The paper's evaluation (§8, Tables 1–2) is built on measuring what
//! change propagation *does* — trace size, re-executed reads, memo
//! matches, live memory — not just how long it takes. This module is
//! the lens for that: it scopes the engine's lifetime [`Stats`](crate::stats::Stats)
//! counters to *phases* (the initial run, each propagation, a full
//! trace purge) and hands the result out as a [`Profile`];
//! `crates/bench` renders profiles as JSON reports and tables.
//!
//! Because every counter is a deterministic function of (program,
//! input seed, edit script), profiles double as a noise-free CI
//! regression signal: `crates/bench` gates on golden profiles where
//! wall-clock gating would drown in runner noise.
//!
//! Three layers, cheapest first:
//!
//! 1. **Lifetime counters** ([`Stats`](crate::stats::Stats)) — always on; the engine
//!    already maintains them.
//! 2. **Phase scoping** ([`Profiler`]) — opt-in per engine
//!    ([`crate::engine::Engine::enable_profiling`]); costs one counter
//!    snapshot (a few dozen loads) per `run_core`/`propagate` call,
//!    nothing in the per-read hot path.
//! 3. **Event hooks** ([`EventHook`]) — opt-in per engine; the engine
//!    reports individual re-executions, memo probes, trace node
//!    creation/purging and order-maintenance work as they happen.

use crate::stats::OpCounters;
use crate::value::SiteId;
use std::fmt::Write as _;

/// What kind of trace record an [`Event::TraceCreated`] /
/// [`Event::TracePurged`] refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A bare timestamp (interval boundaries of the core run).
    Plain,
    /// Start of a read interval.
    Read,
    /// End of a read interval.
    ReadEnd,
    /// A write record.
    Write,
    /// An allocation record.
    Alloc,
}

impl TraceKind {
    /// Short lowercase name, used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Plain => "plain",
            TraceKind::Read => "read",
            TraceKind::ReadEnd => "read_end",
            TraceKind::Write => "write",
            TraceKind::Alloc => "alloc",
        }
    }

    fn tag(self) -> u64 {
        match self {
            TraceKind::Plain => 0,
            TraceKind::Read => 1,
            TraceKind::ReadEnd => 2,
            TraceKind::Write => 3,
            TraceKind::Alloc => 4,
        }
    }
}

/// One engine event, delivered to an installed [`EventHook`].
///
/// Record indices (`read`, `alloc`, `index`) are engine-internal slot
/// numbers: stable for the lifetime of the record (a `TracePurged`
/// carries the same index as its `TraceCreated`, closing the record's
/// lifecycle), but reused after the record is purged. The durable
/// identifier is the [`SiteId`]: the compiler-attributed program point
/// that produced the record, resolvable against the program's
/// [`crate::program::SiteTable`]. Records created outside any
/// attributed program point (hand-written natives, meta-level inputs)
/// carry [`SiteId::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Change propagation re-executes a dirty read.
    ReadReexecuted {
        /// Engine slot index of the read.
        read: u32,
        /// The read's program point.
        site: SiteId,
    },
    /// A re-executed read matched a trace segment in the discarded
    /// window; the segment was spliced in instead of re-executing.
    MemoHit {
        /// Engine slot index of the matched read.
        read: u32,
        /// Program point of the probing read.
        site: SiteId,
    },
    /// A read performed during re-execution probed the memo table and
    /// found nothing reusable.
    MemoMiss {
        /// Program point of the probing read.
        site: SiteId,
    },
    /// A keyed allocation stole a matching block from the discarded
    /// window, preserving location identity.
    AllocStolen {
        /// Engine slot index of the stolen allocation record.
        alloc: u32,
        /// Program point of the stealing allocation.
        site: SiteId,
    },
    /// A trace record was created.
    TraceCreated {
        /// The record's kind.
        kind: TraceKind,
        /// Engine slot index of the record (`u32::MAX` for
        /// [`TraceKind::Plain`] records, which have no slot).
        index: u32,
        /// Program point that created the record.
        site: SiteId,
        /// Raw timestamp index of the interval boundary the record was
        /// appended under. Interval ids are *representation context*,
        /// not semantics: they are excluded from the recorder digest,
        /// which covers only the record-level stream (DESIGN.md §13).
        interval: u32,
    },
    /// A trace record was purged ("trashed"). Carries the same `index`
    /// (and `site`) as the corresponding [`Event::TraceCreated`].
    TracePurged {
        /// The record's kind.
        kind: TraceKind,
        /// Engine slot index of the record (`u32::MAX` for
        /// [`TraceKind::Plain`] records).
        index: u32,
        /// Program point that created the record.
        site: SiteId,
        /// Raw timestamp index of the interval boundary the record was
        /// purged from (excluded from the digest, like
        /// [`Event::TraceCreated::interval`]).
        interval: u32,
    },
    /// An engine phase (a `run_core`, `propagate`, batch commit or
    /// `clear_core` call) began. Phases never nest.
    PhaseBegin {
        /// The phase's kind.
        kind: PhaseKind,
    },
    /// The open engine phase ended. Always paired with the preceding
    /// [`Event::PhaseBegin`] of the same kind.
    PhaseEnd {
        /// The phase's kind.
        kind: PhaseKind,
    },
    /// Order-maintenance work performed since the last report
    /// (delivered at the end of each `run_core`/`propagate`, with
    /// deltas of the timestamp list's internal counters).
    OrderMaintenance {
        /// Top-level group relabel passes.
        relabels: u64,
        /// Within-group label renumberings.
        renumbers: u64,
        /// Full-group splits.
        splits: u64,
        /// Sparse-group merges.
        merges: u64,
    },
}

/// A sink for engine events, installed with
/// [`crate::engine::Engine::set_event_hook`].
///
/// Implementations should be cheap: hooks run synchronously inside the
/// engine's hot paths. When no hook is installed the per-event cost is
/// one predictable branch.
///
/// Hooks are `Send`: they live inside
/// [`RegionState`](crate::engine::RegionState), and the leased
/// [`RegionCx`](crate::engine::RegionCx) is `Send` (DESIGN.md §16).
pub trait EventHook: Send {
    /// Called for every engine event, in program order.
    fn on_event(&mut self, ev: Event);
}

/// What a profiled phase was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// A `run_core` call (from-scratch execution of a core).
    InitialRun,
    /// A `propagate` call (change propagation after edits).
    Propagate,
    /// An `EditBatch::commit` call: staged writes applied and a single
    /// propagation pass over everything they dirtied (DESIGN.md §11).
    Batch,
    /// A `clear_core` call (full trace purge).
    Purge,
    /// A demand-clean pass: an [`crate::engine::Engine::observe`] call
    /// found pending dirty marks under the demand policy and ran a
    /// coalesced propagation pass before dereferencing (DESIGN.md §14).
    /// Never emitted under the eager policy, so eager-mode event
    /// digests are unaffected by the variant's existence.
    DemandClean,
}

impl PhaseKind {
    /// Short lowercase name, used in reports and golden-profile keys.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::InitialRun => "init",
            PhaseKind::Propagate => "propagate",
            PhaseKind::Batch => "batch",
            PhaseKind::Purge => "purge",
            PhaseKind::DemandClean => "demand",
        }
    }

    fn tag(self) -> u64 {
        match self {
            PhaseKind::InitialRun => 0,
            PhaseKind::Propagate => 1,
            PhaseKind::Batch => 2,
            PhaseKind::Purge => 3,
            PhaseKind::DemandClean => 4,
        }
    }
}

/// The counters scoped to one engine phase, plus end-of-phase gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// What the phase was.
    pub kind: PhaseKind,
    /// Zero-based sequence number among phases of the same kind.
    pub seq: u32,
    /// Work done during the phase: the delta of the lifetime counters
    /// across it. Summing every phase of a profile reproduces the
    /// engine's lifetime totals exactly (tested in
    /// `tests/stats_invariants.rs`).
    pub counters: OpCounters,
    /// Live trace timestamps when the phase ended.
    pub trace_len: u64,
    /// Accounted live bytes when the phase ended.
    pub live_bytes: u64,
}

/// Per-phase counter scoping for one engine.
///
/// The profiler records nothing in per-read hot paths: the engine
/// snapshots its lifetime counters at phase boundaries and the profiler
/// stores the deltas. Each phase's baseline is the snapshot taken at
/// the *end of the previous phase* (zero for the first), so counter
/// activity between phases — e.g. the queue pushes performed while
/// staging edits before a propagation — is attributed to the phase
/// that consumes it. This is what makes "phase counters sum to
/// lifetime totals" an identity rather than a best-effort invariant.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    phases: Vec<Phase>,
    open: Option<PhaseKind>,
    floor: OpCounters,
    init_runs: u32,
    propagations: u32,
    batches: u32,
    purges: u32,
    demand_cleans: u32,
}

impl Profiler {
    /// Marks the start of a phase.
    pub(crate) fn begin(&mut self, kind: PhaseKind) {
        debug_assert!(self.open.is_none(), "nested profile phases");
        self.open = Some(kind);
    }

    /// Marks the end of the open phase with a fresh counter snapshot.
    pub(crate) fn end(&mut self, at: OpCounters, trace_len: u64, live_bytes: u64) {
        let Some(kind) = self.open.take() else {
            return;
        };
        let start = std::mem::replace(&mut self.floor, at);
        let seq = match kind {
            PhaseKind::InitialRun => {
                self.init_runs += 1;
                self.init_runs - 1
            }
            PhaseKind::Propagate => {
                self.propagations += 1;
                self.propagations - 1
            }
            PhaseKind::Batch => {
                self.batches += 1;
                self.batches - 1
            }
            PhaseKind::Purge => {
                self.purges += 1;
                self.purges - 1
            }
            PhaseKind::DemandClean => {
                self.demand_cleans += 1;
                self.demand_cleans - 1
            }
        };
        self.phases.push(Phase {
            kind,
            seq,
            counters: at.delta(&start),
            trace_len,
            live_bytes,
        });
    }

    /// The recorded phases, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Drains the recorded phases (used by
    /// [`crate::engine::Engine::take_profile`]).
    pub(crate) fn take_phases(&mut self) -> Vec<Phase> {
        std::mem::take(&mut self.phases)
    }
}

/// Forwarding impl so several owners can share one hook state
/// (`Arc<Mutex<H>>` is the common test pattern: keep a clone, install
/// the other in the engine). The mutex is uncontended in
/// today's single-region engine; it exists so hook state stays `Send`
/// across the region seam.
impl<H: EventHook> EventHook for std::sync::Arc<std::sync::Mutex<H>> {
    fn on_event(&mut self, ev: Event) {
        self.lock().expect("event hook poisoned").on_event(ev);
    }
}

/// Records the full engine event stream for post-hoc inspection:
/// timelines, per-site attribution and a deterministic digest
/// (DESIGN.md §12).
///
/// Install a shared handle with
/// [`crate::engine::Engine::set_event_hook`]:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use ceal_runtime::prelude::*;
/// use ceal_runtime::obs::TraceRecorder;
///
/// let mut b = ProgramBuilder::new();
/// let noop = b.native("noop", |_e, _a| Tail::Done);
/// let mut e = Engine::new(b.build());
/// let rec = Arc::new(Mutex::new(TraceRecorder::new()));
/// e.set_event_hook(Box::new(Arc::clone(&rec)));
/// e.run_core(noop, &[]);
/// assert!(!rec.lock().unwrap().is_empty());
/// ```
///
/// The recorder is an append-only arena of [`Event`]s (which are
/// `Copy`, so recording is one `Vec` push) plus a running digest folded
/// at record time — exporting mid-run reads `&self` and cannot perturb
/// subsequent recording. Because every event is a deterministic
/// function of (program, inputs, edit script), the digest is a
/// cross-executor oracle: two executors of the same program must
/// produce bit-identical digests (asserted by `diffcheck`).
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    events: Vec<Event>,
    digest: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

fn mix(h: u64, x: u64) -> u64 {
    let h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

/// Folds one event into the recorder digest.
///
/// The fold deliberately covers only *semantic* stream content: record
/// kinds, slot indices and sites. Two representation-level channels are
/// excluded so the digest is independent of how the trace is stored:
///
/// - the `interval` context on [`Event::TraceCreated`] /
///   [`Event::TracePurged`] (interval boundary ids depend on span
///   coalescing and splitting, not on what the program did);
/// - [`Event::OrderMaintenance`] deltas (how much relabeling the
///   timestamp list needed is a property of the boundary layout).
///
/// This is what lets diffcheck assert digest equality across executors
/// *and* across trace representations (DESIGN.md §13).
fn fold_event(h: u64, ev: &Event) -> u64 {
    let site = |s: SiteId| s.0 as u64;
    match *ev {
        Event::ReadReexecuted { read, site: s } => mix(mix(mix(h, 1), read as u64), site(s)),
        Event::MemoHit { read, site: s } => mix(mix(mix(h, 2), read as u64), site(s)),
        Event::MemoMiss { site: s } => mix(mix(h, 3), site(s)),
        Event::AllocStolen { alloc, site: s } => mix(mix(mix(h, 4), alloc as u64), site(s)),
        Event::TraceCreated {
            kind,
            index,
            site: s,
            ..
        } => mix(mix(mix(mix(h, 5), kind.tag()), index as u64), site(s)),
        Event::TracePurged {
            kind,
            index,
            site: s,
            ..
        } => mix(mix(mix(mix(h, 6), kind.tag()), index as u64), site(s)),
        Event::PhaseBegin { kind } => mix(mix(h, 7), kind.tag()),
        Event::PhaseEnd { kind } => mix(mix(h, 8), kind.tag()),
        Event::OrderMaintenance { .. } => h,
    }
}

impl EventHook for TraceRecorder {
    fn on_event(&mut self, ev: Event) {
        self.digest = fold_event(self.digest, &ev);
        self.events.push(ev);
    }
}

impl TraceRecorder {
    /// Digest seed (nonzero so an empty stream has a recognizable
    /// digest distinct from `0`).
    const SEED: u64 = 0xCEA1_7ACE;

    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder {
            events: Vec::new(),
            digest: Self::SEED,
        }
    }

    /// A shared handle suitable for both keeping and installing:
    /// `Arc<Mutex<TraceRecorder>>` implements [`EventHook`] through
    /// the forwarding impl, so clone one end into
    /// [`crate::engine::Engine::set_event_hook`] and keep the other.
    pub fn shared() -> std::sync::Arc<std::sync::Mutex<TraceRecorder>> {
        std::sync::Arc::new(std::sync::Mutex::new(TraceRecorder::new()))
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The running digest: a deterministic fold over every event
    /// recorded so far, computed at record time.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The digest as a fixed-width hex string (the form CI artifacts
    /// and the diffcheck oracle compare).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// Exports the recorded stream as Chrome trace-event JSON, loadable
    /// in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
    ///
    /// Engine phases become duration spans (`ph: "B"`/`"E"`); sparse
    /// propagation events (re-executions, memo probes, steals, order
    /// maintenance) become instants attributed to their site names.
    /// Per-record `TraceCreated`/`TracePurged` events are aggregated
    /// into per-phase counts on the span-end event to keep timelines
    /// compact. Timestamps are event sequence numbers, not wall-clock
    /// microseconds: the exported timeline is deterministic.
    pub fn chrome_trace_json(&self, sites: &crate::program::SiteTable) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        let mut rows: Vec<String> = Vec::new();
        // Created/purged tallies for the currently open phase (or the
        // gaps between phases, flushed as standalone instants).
        let mut created: u64 = 0;
        let mut purged: u64 = 0;
        let flush_gap = |rows: &mut Vec<String>, ts: usize, created: &mut u64, purged: &mut u64| {
            if *created != 0 || *purged != 0 {
                rows.push(format!(
                    "{{\"name\":\"unphased_trace_ops\",\"ph\":\"i\",\"ts\":{ts},\"pid\":1,\
                     \"tid\":1,\"s\":\"t\",\"args\":{{\"trace_created\":{},\
                     \"trace_purged\":{}}}}}",
                    created, purged
                ));
                *created = 0;
                *purged = 0;
            }
        };
        for (ts, ev) in self.events.iter().enumerate() {
            match *ev {
                Event::PhaseBegin { kind } => {
                    flush_gap(&mut rows, ts, &mut created, &mut purged);
                    rows.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":1}}",
                        kind.name()
                    ));
                }
                Event::PhaseEnd { kind } => {
                    rows.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":1,\
                         \"args\":{{\"trace_created\":{created},\"trace_purged\":{purged}}}}}",
                        kind.name()
                    ));
                    created = 0;
                    purged = 0;
                }
                Event::TraceCreated { .. } => created += 1,
                Event::TracePurged { .. } => purged += 1,
                Event::ReadReexecuted { read, site } => {
                    rows.push(instant_row("reexec", ts, Some(read), site, sites));
                }
                Event::MemoHit { read, site } => {
                    rows.push(instant_row("memo_hit", ts, Some(read), site, sites));
                }
                Event::MemoMiss { site } => {
                    rows.push(instant_row("memo_miss", ts, None, site, sites));
                }
                Event::AllocStolen { alloc, site } => {
                    rows.push(instant_row("steal", ts, Some(alloc), site, sites));
                }
                Event::OrderMaintenance {
                    relabels,
                    renumbers,
                    splits,
                    merges,
                } => {
                    rows.push(format!(
                        "{{\"name\":\"order_maintenance\",\"ph\":\"i\",\"ts\":{ts},\"pid\":1,\
                         \"tid\":1,\"s\":\"t\",\"args\":{{\"relabels\":{relabels},\
                         \"renumbers\":{renumbers},\"splits\":{splits},\"merges\":{merges}}}}}"
                    ));
                }
            }
        }
        flush_gap(&mut rows, self.events.len(), &mut created, &mut purged);
        s.push_str(&rows.join(",\n"));
        s.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"digest\":\"");
        s.push_str(&self.digest_hex());
        s.push_str("\"}}\n");
        s
    }

    /// Aggregates the recorded stream into a per-site attribution
    /// report resolved against the program's site table.
    pub fn attribution(&self, sites: &crate::program::SiteTable) -> Attribution {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<u32, SiteRow> = BTreeMap::new();
        // Pre-seed every registered site so the report names all
        // program points, active or not.
        for (id, site) in sites.iter() {
            map.insert(
                id.0,
                SiteRow {
                    site: id,
                    name: site.name.clone(),
                    kind: Some(site.kind),
                    ..SiteRow::new(id)
                },
            );
        }
        fn bump<'a>(
            map: &'a mut BTreeMap<u32, SiteRow>,
            sites: &crate::program::SiteTable,
            s: SiteId,
        ) -> &'a mut SiteRow {
            map.entry(s.0).or_insert_with(|| {
                let mut r = SiteRow::new(s);
                r.name = sites.name(s).to_string();
                r
            })
        }
        for ev in &self.events {
            match *ev {
                Event::ReadReexecuted { site, .. } => bump(&mut map, sites, site).reexecs += 1,
                Event::MemoHit { site, .. } => bump(&mut map, sites, site).memo_hits += 1,
                Event::MemoMiss { site } => bump(&mut map, sites, site).memo_misses += 1,
                Event::AllocStolen { site, .. } => bump(&mut map, sites, site).steals += 1,
                Event::TraceCreated { site, .. } => bump(&mut map, sites, site).created += 1,
                Event::TracePurged { site, .. } => bump(&mut map, sites, site).purged += 1,
                Event::PhaseBegin { .. }
                | Event::PhaseEnd { .. }
                | Event::OrderMaintenance { .. } => {}
            }
        }
        Attribution {
            rows: map.into_values().collect(),
            digest_hex: self.digest_hex(),
        }
    }
}

/// Minimal JSON string escaping for site/function names.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One instant row of the Chrome trace export.
fn instant_row(
    name: &str,
    ts: usize,
    slot: Option<u32>,
    site: SiteId,
    sites: &crate::program::SiteTable,
) -> String {
    let mut args = format!("\"site\":\"{}\"", json_escape(sites.name(site)));
    if let Some(i) = slot {
        let _ = write!(args, ",\"slot\":{i}");
    }
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":1,\"tid\":1,\"s\":\"t\",\
         \"args\":{{{args}}}}}"
    )
}

/// Per-site event tallies in an [`Attribution`] report.
#[derive(Clone, Debug)]
pub struct SiteRow {
    /// The site this row aggregates (possibly [`SiteId::NONE`]).
    pub site: SiteId,
    /// Resolved site name (`"<unattributed>"` for untracked sites).
    pub name: String,
    /// The registered site kind, `None` for unregistered sites.
    pub kind: Option<crate::program::SiteKind>,
    /// `ReadReexecuted` events attributed here.
    pub reexecs: u64,
    /// `MemoHit` events attributed here.
    pub memo_hits: u64,
    /// `MemoMiss` events attributed here.
    pub memo_misses: u64,
    /// `AllocStolen` events attributed here.
    pub steals: u64,
    /// Trace records created by this site.
    pub created: u64,
    /// Trace records purged that this site had created.
    pub purged: u64,
}

impl SiteRow {
    fn new(site: SiteId) -> SiteRow {
        SiteRow {
            site,
            name: String::new(),
            kind: None,
            reexecs: 0,
            memo_hits: 0,
            memo_misses: 0,
            steals: 0,
            created: 0,
            purged: 0,
        }
    }

    /// Memo hit rate as `(hits, probes)`.
    pub fn memo_rate(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_hits + self.memo_misses)
    }

    fn is_quiet(&self) -> bool {
        self.reexecs == 0
            && self.memo_hits == 0
            && self.memo_misses == 0
            && self.steals == 0
            && self.created == 0
            && self.purged == 0
    }
}

/// A per-site attribution report: which program points burned
/// propagation work, with memo and steal effectiveness per site —
/// rendered like [`Profile`] as JSON plus a human table.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// One row per site, in [`SiteId`] order (the [`SiteId::NONE`]
    /// bucket sorts last).
    pub rows: Vec<SiteRow>,
    /// Digest of the recorded stream this report was computed from.
    pub digest_hex: String,
}

impl Attribution {
    /// The machine-readable JSON report (integer-only, hand-written:
    /// the workspace deliberately has no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"ceal-trace-attribution/v1\",\n");
        let _ = writeln!(s, "  \"digest\": \"{}\",", self.digest_hex);
        s.push_str("  \"sites\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let id = if r.site == SiteId::NONE {
                -1
            } else {
                r.site.0 as i64
            };
            let _ = write!(
                s,
                "    {{\"id\": {id}, \"name\": \"{}\", \"kind\": \"{}\", \"reexecs\": {}, \
                 \"memo_hits\": {}, \"memo_misses\": {}, \"steals\": {}, \"created\": {}, \
                 \"purged\": {}}}",
                json_escape(&r.name),
                r.kind.map_or("none", |k| k.name()),
                r.reexecs,
                r.memo_hits,
                r.memo_misses,
                r.steals,
                r.created,
                r.purged,
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// A human-readable table, one row per site that saw any activity.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "per-site attribution (digest {})", self.digest_hex);
        let _ = writeln!(
            s,
            "  {:<40} {:>8} {:>9} {:>10} {:>7} {:>9} {:>9} {:>9}",
            "site", "reexecs", "memo_hit", "memo_miss", "hit%", "steals", "created", "purged"
        );
        for r in &self.rows {
            if r.is_quiet() {
                continue;
            }
            let (hits, probes) = r.memo_rate();
            let rate = if probes == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * hits as f64 / probes as f64)
            };
            let _ = writeln!(
                s,
                "  {:<40} {:>8} {:>9} {:>10} {:>7} {:>9} {:>9} {:>9}",
                r.name, r.reexecs, r.memo_hits, r.memo_misses, rate, r.steals, r.created, r.purged
            );
        }
        s
    }
}

/// The aggregate cost of the phases of one kind within a profiled
/// window — the compact per-request form of [`Phase`] that goes into
/// the service's `SlowRequestRecord` (DESIGN.md §17). Where
/// [`Profile`] keeps every phase with its full [`OpCounters`], a slow
/// log line wants one row per phase kind with the three counters that
/// explain propagation time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Phase kind name ([`PhaseKind::name`]).
    pub phase: &'static str,
    /// Number of phases of this kind in the window.
    pub count: u64,
    /// Dirty reads re-executed across them.
    pub reads_reexecuted: u64,
    /// Memo hits (trace reuse) across them.
    pub memo_hits: u64,
    /// Propagation queue pops across them.
    pub queue_pops: u64,
}

impl PhaseCost {
    /// Aggregates drained profiler phases by kind, in first-seen order.
    /// Feed it the slice from
    /// [`Engine::profiled_phases`](crate::engine::Engine::profiled_phases)
    /// (or the phases of a [`Profile`]) scoped to one request.
    pub fn aggregate(phases: &[Phase]) -> Vec<PhaseCost> {
        let mut out: Vec<PhaseCost> = Vec::new();
        for p in phases {
            let name = p.kind.name();
            let row = match out.iter_mut().find(|r| r.phase == name) {
                Some(r) => r,
                None => {
                    out.push(PhaseCost {
                        phase: name,
                        ..PhaseCost::default()
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.reads_reexecuted += p.counters.reads_reexecuted;
            row.memo_hits += p.counters.memo_hits;
            row.queue_pops += p.counters.queue_pops;
        }
        out
    }
}

/// An [`EventHook`] that tallies *work events* (re-executions, memo
/// probes, steals) per [`SiteId`] into a dense array — the cheap
/// always-on sibling of the full [`TraceRecorder`]: one bounds check
/// and one add per event, no event stream retained.
///
/// The service installs one per session (shared as
/// `Arc<Mutex<SiteTally>>` via the forwarding [`EventHook`] impl) and
/// drains it per request to attribute a slow request's propagation work
/// to the top-k program points.
#[derive(Clone, Debug, Default)]
pub struct SiteTally {
    counts: Vec<u64>,
    unattributed: u64,
    total: u64,
}

impl SiteTally {
    /// Creates an empty tally.
    pub fn new() -> SiteTally {
        SiteTally::default()
    }

    /// Total work events since the last [`SiteTally::drain`].
    pub fn total(&self) -> u64 {
        self.total
    }

    fn bump(&mut self, site: SiteId) {
        self.total += 1;
        if site == SiteId::NONE {
            self.unattributed += 1;
            return;
        }
        let i = site.0 as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Returns the top-`k` sites by event count as `(name, events)` —
    /// resolved against `sites`, ties broken by [`SiteId`] for
    /// determinism — and resets the tally for the next request window.
    pub fn drain(&mut self, sites: &crate::program::SiteTable, k: usize) -> Vec<(String, u64)> {
        let mut rows: Vec<(usize, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        let mut out: Vec<(String, u64)> = rows
            .into_iter()
            .map(|(i, c)| (sites.name(SiteId(i as u32)).to_string(), c))
            .collect();
        if self.unattributed != 0 && out.len() < k {
            out.push(("<unattributed>".to_string(), self.unattributed));
        }
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.unattributed = 0;
        self.total = 0;
        out
    }
}

impl EventHook for SiteTally {
    fn on_event(&mut self, ev: Event) {
        match ev {
            Event::ReadReexecuted { site, .. }
            | Event::MemoHit { site, .. }
            | Event::MemoMiss { site }
            | Event::AllocStolen { site, .. } => self.bump(site),
            Event::TraceCreated { .. }
            | Event::TracePurged { .. }
            | Event::PhaseBegin { .. }
            | Event::PhaseEnd { .. }
            | Event::OrderMaintenance { .. } => {}
        }
    }
}

/// A complete profile of one engine session: per-phase counters plus
/// lifetime totals and space gauges — the report the paper's Tables 1–2
/// are made of, per benchmark.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Label for reports (typically the benchmark name).
    pub name: String,
    /// Recorded phases, in execution order.
    pub phases: Vec<Phase>,
    /// Lifetime counter totals at the time the profile was taken.
    pub lifetime: OpCounters,
    /// Live trace timestamps at the time the profile was taken.
    pub trace_len: u64,
    /// Accounted live bytes at the time the profile was taken.
    pub live_bytes: u64,
    /// High-water mark of accounted live bytes ("Max Live", Table 1).
    pub max_live_bytes: u64,
}

impl Profile {
    /// Aggregated counters over every phase of `kind`.
    pub fn total(&self, kind: PhaseKind) -> (u32, OpCounters) {
        let mut n = 0;
        let mut sum = OpCounters::default();
        for p in &self.phases {
            if p.kind == kind {
                n += 1;
                sum.add(&p.counters);
            }
        }
        (n, sum)
    }
}
