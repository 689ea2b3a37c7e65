//! Run-time statistics: operation counters and live-space accounting.
//!
//! The paper's Table 1 reports "Max Live" — the maximum live memory over
//! a from-scratch run plus the test-mutator run. We account for every
//! run-time structure (heap words, modifiable metadata, trace nodes,
//! timestamps, closure environments) with fixed per-record costs that
//! mirror the C implementation's record sizes.

/// Approximate byte costs of run-time records, used for live-space
/// accounting. These mirror the field counts of the C RTS records.
///
/// Since the interval-coalesced trace representation (DESIGN.md §13),
/// order-maintenance timestamps exist per *interval boundary* only:
/// each boundary costs [`cost::TIME_NODE`] + [`cost::SPAN_HEADER`],
/// while each trace action inside an interval costs one packed
/// [`cost::SPAN_SLOT`] on top of its record. Trace records no longer
/// carry timestamps or a cached memo hash, which is what shrinks
/// [`cost::READ_NODE`], [`cost::WRITE_NODE`] and [`cost::ALLOC_NODE`]
/// relative to the node-per-action representation.
pub mod cost {
    /// One order-maintenance timestamp (label + two links), paid per
    /// interval boundary.
    pub const TIME_NODE: usize = 24;
    /// A span header (slot buffer pointer + length + capacity), paid
    /// per interval boundary.
    pub const SPAN_HEADER: usize = 16;
    /// One packed span slot (tag + record index in a `u32`).
    pub const SPAN_SLOT: usize = 4;
    /// A read trace node: modref, closure, last value, start/end
    /// positions, reader-list links, site and flags. The argument
    /// vector is accounted separately at [`ARG_WORD`] per word.
    pub const READ_NODE: usize = 48;
    /// A write trace node: modref, value, position, write-list links.
    pub const WRITE_NODE: usize = 28;
    /// An allocation trace node: key hash, shape (words/init), position,
    /// location, site. Key arguments accounted at [`ARG_WORD`] per word.
    pub const ALLOC_NODE: usize = 40;
    /// Modifiable metadata (base value + four list ends + owner).
    pub const META: usize = 48;
    /// One heap word.
    pub const WORD: usize = 8;
    /// Per closure-argument word (boxed environments).
    pub const ARG_WORD: usize = 8;
}

/// Counters exposed by [`crate::engine::Engine::stats`].
///
/// The operation counters live in [`Stats::ops`]; the remaining fields
/// are the simulated-GC tallies and the byte accounting. All counters
/// are cumulative over the engine's lifetime except `live_bytes`, which
/// tracks the current footprint, and `interval_bytes`, its interval
/// share; `max_live_bytes` is the high-water mark of `live_bytes`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// The deterministic operation counters.
    pub ops: OpCounters,
    /// Simulated-GC runs (SML simulation only).
    pub gc_runs: u64,
    /// Total objects marked by the simulated GC.
    pub gc_marked: u64,
    /// Current accounted footprint in bytes.
    pub live_bytes: usize,
    /// High-water mark of `live_bytes`.
    pub max_live_bytes: usize,
    /// The portion of `live_bytes` spent on the interval structure
    /// itself: boundary timestamps, span headers and live span slots.
    pub interval_bytes: usize,
}

/// The deterministic operation counters of an engine, held in
/// [`Stats::ops`]: everything except the byte-accounting fields, whose
/// values depend on argument-vector sizes and are therefore excluded
/// from cross-executor comparisons (see `crates/diffcheck`).
///
/// For a fixed program, input seed and edit script these counters are
/// bit-for-bit reproducible across runs and machines, which is what
/// makes them suitable for CI gating where wall-clock time is not
/// (DESIGN.md §10). `Copy`, so a snapshot is `e.stats().ops`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Read trace nodes created (initial run + re-executions).
    pub reads_created: u64,
    /// Write trace nodes created.
    pub writes_created: u64,
    /// Allocation trace nodes created (fresh blocks).
    pub allocs_created: u64,
    /// Allocations satisfied by stealing a matching block from the
    /// re-execution window (keyed allocation, §6.1 / ISMM'08).
    pub allocs_stolen: u64,
    /// Memoization hits: a read matched in the window and its subtrace
    /// was spliced in instead of re-executing.
    pub memo_hits: u64,
    /// Memoization misses: a read performed during re-execution probed
    /// the memo table and found no reusable subtrace.
    pub memo_misses: u64,
    /// Reads re-executed by change propagation.
    pub reads_reexecuted: u64,
    /// Reads popped from the queue but skipped (already purged, or value
    /// unchanged after intervening writes).
    pub reads_skipped: u64,
    /// Trace nodes purged ("trashed") during change propagation.
    pub nodes_purged: u64,
    /// Blocks collected when their allocation node was purged.
    pub blocks_collected: u64,
    /// Interval boundaries created in the trace (cumulative; one
    /// order-maintenance timestamp plus one span arena each).
    pub trace_intervals: u64,
    /// Intervals split because a re-execution landed strictly inside
    /// them (the tail of the span moves to a fresh boundary).
    pub interval_splits: u64,
    /// Calls to `propagate`.
    pub propagations: u64,
    /// Reads pushed into the propagation priority queue (dirtied by a
    /// meta-level modify or by a core write during re-execution).
    pub queue_pushes: u64,
    /// Entries removed from the propagation priority queue, including
    /// zombie entries whose read was purged while queued.
    pub queue_pops: u64,
    /// Non-empty [`EditBatch`](crate::batch::EditBatch) commits (an
    /// empty or fully elided batch leaves every counter untouched).
    pub batch_commits: u64,
    /// Effective writes applied by batch commits, after last-write-wins
    /// coalescing and no-op elision.
    pub batch_writes: u64,
    /// Reads newly marked dirty by meta-level writes under the demand
    /// policy (distinct clean→dirty transitions only; re-marking an
    /// already-dirty read is idempotent and not counted). Always zero
    /// under the eager policy.
    pub dirty_marks: u64,
    /// Demand-clean passes triggered by
    /// [`Engine::observe`](crate::engine::Engine::observe) finding
    /// pending dirty marks. Always zero under the eager policy.
    pub demand_cleans: u64,
    /// Order maintenance: top-level group relabel passes.
    pub order_group_relabels: u64,
    /// Order maintenance: within-group label renumber passes.
    pub order_local_renumbers: u64,
    /// Order maintenance: group splits (full group at insertion point).
    pub order_group_splits: u64,
    /// Order maintenance: sparse-group merges on deletion.
    pub order_group_merges: u64,
}

impl OpCounters {
    /// Counter names, in the order [`OpCounters::values`] returns them.
    pub const NAMES: [&'static str; 23] = [
        "reads_created",
        "writes_created",
        "allocs_created",
        "allocs_stolen",
        "memo_hits",
        "memo_misses",
        "reads_reexecuted",
        "reads_skipped",
        "nodes_purged",
        "blocks_collected",
        "trace_intervals",
        "interval_splits",
        "propagations",
        "queue_pushes",
        "queue_pops",
        "batch_commits",
        "batch_writes",
        "dirty_marks",
        "demand_cleans",
        "order_group_relabels",
        "order_local_renumbers",
        "order_group_splits",
        "order_group_merges",
    ];

    /// Counter values, in the order of [`OpCounters::NAMES`].
    pub fn values(&self) -> [u64; 23] {
        [
            self.reads_created,
            self.writes_created,
            self.allocs_created,
            self.allocs_stolen,
            self.memo_hits,
            self.memo_misses,
            self.reads_reexecuted,
            self.reads_skipped,
            self.nodes_purged,
            self.blocks_collected,
            self.trace_intervals,
            self.interval_splits,
            self.propagations,
            self.queue_pushes,
            self.queue_pops,
            self.batch_commits,
            self.batch_writes,
            self.dirty_marks,
            self.demand_cleans,
            self.order_group_relabels,
            self.order_local_renumbers,
            self.order_group_splits,
            self.order_group_merges,
        ]
    }

    /// `(name, value)` pairs, for report generators and delta tables.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let vals = self.values();
        Self::NAMES.into_iter().zip(vals)
    }

    /// The counter-by-counter difference `self - earlier`. All counters
    /// are monotone over an engine's lifetime, so a later snapshot
    /// minus an earlier one is the work done in between.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is not actually an earlier
    /// snapshot of the same engine.
    pub fn delta(&self, earlier: &OpCounters) -> OpCounters {
        let a = self.values();
        let b = earlier.values();
        let mut out = OpCounters::default();
        let fields = out.values_mut();
        for (i, f) in fields.into_iter().enumerate() {
            debug_assert!(a[i] >= b[i], "counter {} went backwards", Self::NAMES[i]);
            *f = a[i].saturating_sub(b[i]);
        }
        out
    }

    /// Adds `other` into `self`, counter by counter.
    pub fn add(&mut self, other: &OpCounters) {
        let vals = other.values();
        for (i, f) in self.values_mut().into_iter().enumerate() {
            *f += vals[i];
        }
    }

    fn values_mut(&mut self) -> [&mut u64; 23] {
        [
            &mut self.reads_created,
            &mut self.writes_created,
            &mut self.allocs_created,
            &mut self.allocs_stolen,
            &mut self.memo_hits,
            &mut self.memo_misses,
            &mut self.reads_reexecuted,
            &mut self.reads_skipped,
            &mut self.nodes_purged,
            &mut self.blocks_collected,
            &mut self.trace_intervals,
            &mut self.interval_splits,
            &mut self.propagations,
            &mut self.queue_pushes,
            &mut self.queue_pops,
            &mut self.batch_commits,
            &mut self.batch_writes,
            &mut self.dirty_marks,
            &mut self.demand_cleans,
            &mut self.order_group_relabels,
            &mut self.order_local_renumbers,
            &mut self.order_group_splits,
            &mut self.order_group_merges,
        ]
    }
}

impl Stats {
    /// Returns [`Stats::ops`]; kept for `crates/benchmark`, which calls it.
    pub fn op_counters(&self) -> OpCounters {
        self.ops
    }

    /// Adds `n` bytes to the live footprint, updating the high-water mark.
    #[inline]
    pub(crate) fn grow(&mut self, n: usize) {
        self.live_bytes += n;
        if self.live_bytes > self.max_live_bytes {
            self.max_live_bytes = self.live_bytes;
        }
    }

    /// Removes `n` bytes from the live footprint.
    #[inline]
    pub(crate) fn shrink(&mut self, n: usize) {
        debug_assert!(self.live_bytes >= n, "live-byte accounting underflow");
        self.live_bytes = self.live_bytes.saturating_sub(n);
    }

    /// Adds `n` bytes of interval structure (boundary timestamps, span
    /// headers, span slots); feeds `live_bytes` like any other record.
    #[inline]
    pub(crate) fn grow_interval(&mut self, n: usize) {
        self.interval_bytes += n;
        self.grow(n);
    }

    /// Removes `n` bytes of interval structure.
    #[inline]
    pub(crate) fn shrink_interval(&mut self, n: usize) {
        debug_assert!(self.interval_bytes >= n, "interval-byte underflow");
        self.interval_bytes = self.interval_bytes.saturating_sub(n);
        self.shrink(n);
    }

    /// Resets the high-water mark to the current footprint (used by
    /// harnesses that measure phases separately).
    pub fn reset_max_live(&mut self) {
        self.max_live_bytes = self.live_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counter_snapshot_delta_and_sum() {
        let mut s = Stats::default();
        s.ops.reads_created = 10;
        s.ops.memo_hits = 3;
        s.ops.order_group_splits = 2;
        let early = s.op_counters();
        s.ops.reads_created = 25;
        s.ops.memo_hits = 3;
        s.ops.reads_reexecuted = 7;
        let late = s.op_counters();
        let d = late.delta(&early);
        assert_eq!(d.reads_created, 15);
        assert_eq!(d.memo_hits, 0);
        assert_eq!(d.reads_reexecuted, 7);
        assert_eq!(d.order_group_splits, 0);
        let mut sum = early;
        sum.add(&d);
        // early + (late - early) == late, counter by counter.
        assert_eq!(sum, late);
        // NAMES and values stay in lockstep.
        assert_eq!(OpCounters::NAMES.len(), late.values().len());
        assert_eq!(
            late.entries()
                .find(|(n, _)| *n == "reads_created")
                .map(|(_, v)| v),
            Some(25)
        );
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let mut s = Stats::default();
        s.grow(100);
        s.grow(50);
        s.shrink(120);
        assert_eq!(s.live_bytes, 30);
        assert_eq!(s.max_live_bytes, 150);
        s.reset_max_live();
        assert_eq!(s.max_live_bytes, 30);
    }
}
