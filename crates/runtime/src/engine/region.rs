//! The per-region half of the split engine: all trace, heap and
//! propagation state ([`RegionState`]) plus the leased execution
//! context ([`RegionCx`]) that pairs it with the shared
//! [`EngineCore`].
//!
//! The ownership split is the seam for parallel change propagation
//! (DESIGN.md §16): everything a re-execution mutates lives in
//! `RegionState`, everything it only reads lives in `EngineCore`, and
//! `RegionCx` is the `Send` lease that carries one affected region's
//! work — trace arena windows, queue segment, heap cursor, memo-bucket
//! access and a private counter baseline whose delta merges
//! deterministically (by addition) on completion.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use super::core::{EngineCore, PropagationPolicy};
use crate::heap::{BlockKind, Heap, NIL};
use crate::obs::{Event, EventHook, PhaseKind, Profiler, TraceKind};
use crate::order::{OrderList, OrderStats, Time};
use crate::program::{ArgVec, Program, Tail};
use crate::stats::{cost, OpCounters, Stats};
use crate::value::{FuncId, Loc, ModRef, SiteId, StrId, Value};

#[derive(Debug)]
pub(crate) struct ReadNode {
    modref: ModRef,
    func: FuncId,
    /// Closure environment *without* the substituted value.
    args: ArgVec,
    /// The value observed at the last (re-)execution.
    last_value: Value,
    start: Pos,
    end: Pos,
    prev_reader: u32,
    next_reader: u32,
    queued: bool,
    live: bool,
    /// Program point that performed the read ([`SiteId::NONE`] for
    /// hand-written natives).
    site: SiteId,
}

#[derive(Debug)]
pub(crate) struct WriteNode {
    modref: ModRef,
    value: Value,
    pos: Pos,
    prev_write: u32,
    next_write: u32,
    live: bool,
}

#[derive(Debug)]
pub(crate) struct AllocNode {
    /// Hash of (words, init, args): the allocation key.
    key_hash: u64,
    words: u32,
    init: FuncId,
    args: Box<[Value]>,
    loc: Loc,
    pos: Pos,
    live: bool,
    /// Program point that performed the allocation.
    site: SiteId,
}

// ----------------------------------------------------------------------
// Interval-coalesced trace storage (DESIGN.md §13).
//
// The trace is a sequence of *intervals*: only interval boundaries own
// order-maintenance timestamps; the actions inside an interval live in
// a contiguous span of packed slots, addressed by `(boundary, offset)`.
// Two positions compare by boundary timestamp first, offset second, so
// the trace keeps a total order while paying one timestamp per
// `SPAN_CAP` actions instead of one per action.
// ----------------------------------------------------------------------

/// A position in the trace: the owning interval boundary's timestamp
/// plus a 1-based offset into the boundary's span. Offset `0` is the
/// boundary itself (used for sentinels and freshly opened intervals);
/// the slot at 0-based index `i` has offset `i + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pos {
    anchor: Time,
    off: u32,
}

impl Pos {
    const NONE: Pos = Pos {
        anchor: Time::NONE,
        off: 0,
    };

    fn is_none(self) -> bool {
        self.anchor.is_none()
    }
}

/// Actions per interval before a fresh boundary is opened. Bounds both
/// the worst-case split cost and the slot memory a purged record can
/// pin (tombstones are reclaimed when their span is disposed or split).
const SPAN_CAP: usize = 64;

/// Extra live-slot moves a donating front split is allowed over the
/// back split: a boundary (order-maintenance timestamp + span header +
/// later disposal, plus slower cross-interval position compares while
/// it lives) costs roughly this many slot moves.
const SPLIT_BOUNDARY_BIAS: usize = 8;

/// One interval's packed action slots. Slot `i` lives at offset
/// `i + 1` under the interval's boundary; offset 0 names the boundary
/// itself. Slots never shift: front splits leave tombstone padding in
/// place instead of draining, so every stored offset survives until
/// its slot moves and is explicitly rewritten.
#[derive(Debug, Default)]
pub(crate) struct Span {
    /// Packed slots: 3-bit tag in the top bits, record index below.
    slots: Vec<u32>,
    /// Index of the first possibly-live slot: everything below is
    /// tombstone padding. Purge and donation walks start here —
    /// without it, every walk over a span whose head is consumed
    /// front-to-back (the cascade pattern) would re-skip the whole
    /// tomb prefix, quadratic per span.
    head: u32,
    /// Number of non-tombstone slots.
    live: u32,
}

/// `span_of` value for timestamps that own no span (sentinels).
const SPAN_NONE: u32 = u32::MAX;

/// Slot tags. `TAG_TOMB` marks a purged slot whose storage has not been
/// reclaimed yet (reclaimed when the span is disposed or split).
const TAG_TOMB: u32 = 0;
const TAG_READ: u32 = 1;
const TAG_READ_END: u32 = 2;
const TAG_WRITE: u32 = 3;
const TAG_ALLOC: u32 = 4;

const SLOT_TAG_SHIFT: u32 = 29;
const SLOT_IDX_MASK: u32 = (1 << SLOT_TAG_SHIFT) - 1;

#[inline]
fn pack_slot(tag: u32, idx: u32) -> u32 {
    debug_assert!(idx <= SLOT_IDX_MASK, "record index overflows slot packing");
    (tag << SLOT_TAG_SHIFT) | idx
}

#[inline]
fn slot_tag(s: u32) -> u32 {
    s >> SLOT_TAG_SHIFT
}

#[inline]
fn slot_idx(s: u32) -> u32 {
    s & SLOT_IDX_MASK
}

/// The [`TraceKind`] reported to event hooks for a slot tag.
fn tag_trace_kind(tag: u32) -> TraceKind {
    match tag {
        TAG_READ => TraceKind::Read,
        TAG_READ_END => TraceKind::ReadEnd,
        TAG_WRITE => TraceKind::Write,
        TAG_ALLOC => TraceKind::Alloc,
        _ => TraceKind::Plain,
    }
}

/// Reserved initializer id used by [`RegionCx::modref`]; never dispatched.
const MODREF_INIT: FuncId = FuncId(u32::MAX - 1);

/// One live trace record handed to `RegionState::walk_ddg`'s visitor.
/// Positions (`start`/`end`/`at`) are dense indices in the trace walk;
/// `parent` is the innermost enclosing read, if any.
enum DdgRecord<'a> {
    Read {
        read: u32,
        node: &'a ReadNode,
        start: u64,
        end: u64,
        parent: Option<u32>,
    },
    Write {
        write: u32,
        node: &'a WriteNode,
        at: u64,
        parent: Option<u32>,
    },
    Alloc {
        alloc: u32,
        node: &'a AllocNode,
        at: u64,
        parent: Option<u32>,
    },
}

/// Escapes `s` for a double-quoted DOT label.
fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Escapes `s` for a double-quoted JSON string (names and rendered
/// values here are ASCII identifiers; control characters do not occur).
fn dquote_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Memo and allocation tables are keyed by values that are already
/// hashes; pass them through unchanged instead of re-hashing.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher is only used with u64 keys")
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type KeyMap = HashMap<u64, Bucket, BuildHasherDefault<IdentityHasher>>;

/// A memo/alloc-table bucket packed into one word. Nearly every key
/// hash maps to exactly one record, stored inline; colliding records
/// spill into a shared side arena ([`Spill`]) referenced by index.
/// Keeping table slots at 16 bytes (key + bucket) matters: the memo
/// table holds one entry per live read, so its resident size — and the
/// cache misses every probe and rehash takes — scales with the trace.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bucket(u64);

/// Tag bit marking a spilled (multi-record) bucket.
const MANY: u64 = 1 << 63;

/// Side arena for the rare multi-record buckets; freed lists keep their
/// capacity and are reused.
#[derive(Debug, Default)]
pub(crate) struct Spill {
    lists: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Spill {
    fn alloc2(&mut self, a: u32, b: u32) -> u64 {
        if let Some(i) = self.free.pop() {
            let v = &mut self.lists[i as usize];
            v.clear();
            v.push(a);
            v.push(b);
            i as u64
        } else {
            self.lists.push(vec![a, b]);
            (self.lists.len() - 1) as u64
        }
    }
}

impl Bucket {
    /// The bucket's records. `scratch` backs the inline single-record
    /// case so the result is always a slice.
    #[inline]
    fn records<'a>(self, spill: &'a Spill, scratch: &'a mut [u32; 1]) -> &'a [u32] {
        if self.0 & MANY == 0 {
            scratch[0] = self.0 as u32;
            &scratch[..]
        } else {
            &spill.lists[(self.0 & !MANY) as usize]
        }
    }

    /// Adds `x` to the bucket for `key`, creating it if absent.
    fn add(map: &mut KeyMap, spill: &mut Spill, key: u64, x: u32) {
        use std::collections::hash_map::Entry;
        match map.entry(key) {
            Entry::Occupied(mut e) => {
                let b = e.get().0;
                if b & MANY == 0 {
                    let li = spill.alloc2(b as u32, x);
                    e.insert(Bucket(MANY | li));
                } else {
                    spill.lists[(b & !MANY) as usize].push(x);
                }
            }
            Entry::Vacant(e) => {
                e.insert(Bucket(x as u64));
            }
        }
    }

    /// Removes `x` from the bucket for `key` (if present), dropping the
    /// bucket when it empties and un-spilling it when one record is
    /// left.
    fn remove(map: &mut KeyMap, spill: &mut Spill, key: u64, x: u32) {
        let Some(b) = map.get(&key).copied() else {
            return;
        };
        if b.0 & MANY == 0 {
            if b.0 as u32 == x {
                map.remove(&key);
            }
            return;
        }
        let li = (b.0 & !MANY) as usize;
        let v = &mut spill.lists[li];
        if let Some(pos) = v.iter().position(|&y| y == x) {
            v.swap_remove(pos);
        }
        if v.len() == 1 {
            let last = v[0];
            spill.free.push(li as u32);
            map.insert(key, Bucket(last as u64));
        } else if v.is_empty() {
            spill.free.push(li as u32);
            map.remove(&key);
        }
    }
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let h = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

fn hash_key(tag: u64, a: u64, b: u64, vals: &[Value], extra: Option<Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    struct Fx(u64);
    impl Hasher for Fx {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = mix(self.0, b as u64);
            }
        }
        fn write_u8(&mut self, v: u8) {
            self.0 = mix(self.0, v as u64);
        }
        fn write_u64(&mut self, v: u64) {
            self.0 = mix(self.0, v);
        }
    }
    let mut h = Fx(mix(mix(tag, a), b));
    for v in vals {
        v.hash(&mut h);
    }
    if let Some(v) = extra {
        v.hash(&mut h);
    }
    let mut out = h.0;
    out = mix(out, vals.len() as u64);
    out
}

/// The mutable, per-region half of a split [`Engine`](super::Engine):
/// span arenas, order-maintenance timestamps, the heap, record nodes,
/// memo/alloc tables, the dirty queue and the statistics counters.
///
/// `RegionState` holds no `Rc` and no interior mutability, so a leased
/// [`RegionCx`] over it is `Send`; the structurally-shared, read-only
/// state (program, config, interner) lives in
/// [`EngineCore`] instead.
pub struct RegionState {
    pub(crate) ord: OrderList,
    /// Span arenas, one per live interval boundary (plus pooled spares
    /// in `free_spans`; capacity is kept across `clear_core`).
    pub(crate) spans: Vec<Span>,
    /// Pooled span indices available for reuse.
    pub(crate) free_spans: Vec<u32>,
    /// Span index owned by each boundary timestamp, indexed by
    /// [`Time::index`] (`SPAN_NONE` for sentinels / dead timestamps).
    pub(crate) span_of: Vec<u32>,
    /// Non-tombstone slots across all spans — the live trace length.
    pub(crate) live_slots: usize,
    pub(crate) heap: Heap,

    pub(crate) reads: Vec<ReadNode>,
    pub(crate) free_reads: Vec<u32>,
    pub(crate) writes: Vec<WriteNode>,
    pub(crate) free_writes: Vec<u32>,
    pub(crate) allocs: Vec<AllocNode>,
    pub(crate) free_allocs: Vec<u32>,

    /// Memo table: read key hash → read node indices.
    pub(crate) memo_table: KeyMap,
    /// Keyed-allocation table: alloc key hash → alloc node indices.
    pub(crate) alloc_table: KeyMap,
    /// Shared arena for multi-record memo/alloc buckets.
    pub(crate) spill: Spill,

    /// Change-propagation priority queue: read indices, heap-ordered by
    /// start timestamp.
    pub(crate) queue: Vec<u32>,
    /// Stack of reads whose intervals are currently open.
    pub(crate) open: Vec<u32>,

    /// Current insertion point in the trace.
    pub(crate) cur: Pos,
    /// The read whose interval is the current re-execution window
    /// (`None` during initial runs). The window's end position is
    /// re-derived from the read node on every use: splits may relocate
    /// the end slot, so a saved [`Pos`] would go stale.
    pub(crate) window_read: Option<u32>,
    /// Blocks currently being initialized (write-once enforcement).
    pub(crate) init_stack: Vec<Loc>,
    /// Blocks whose allocation record was purged; freed at the end of
    /// `propagate`.
    pub(crate) pending_free: Vec<Loc>,

    /// SML-simulation state: boxed garbage awaiting collection.
    pub(crate) sim_garbage: Vec<Box<[u64]>>,
    pub(crate) sim_since_gc: usize,

    pub(crate) core_ran: bool,
    pub(crate) executing: bool,
    pub(crate) stats: Stats,
    /// Per-phase counter scoping; `None` until
    /// [`Engine::enable_profiling`](super::Engine::enable_profiling).
    pub(crate) profiler: Option<Profiler>,
    /// Installed event sink; every hook site is behind one predictable
    /// branch.
    pub(crate) hook: Option<Box<dyn EventHook>>,
    /// When set, logs every trace operation to stderr (small inputs
    /// only; used by the engine's own debugging sessions and tests).
    pub debug_log: bool,
}

impl RegionState {
    /// Fresh, empty region state (no trace, nothing run).
    pub(crate) fn new() -> Self {
        let ord = OrderList::new();
        let cur = Pos {
            anchor: ord.first(),
            off: 0,
        };
        RegionState {
            ord,
            spans: Vec::new(),
            free_spans: Vec::new(),
            span_of: Vec::new(),
            live_slots: 0,
            heap: Heap::new(),
            reads: Vec::new(),
            free_reads: Vec::new(),
            writes: Vec::new(),
            free_writes: Vec::new(),
            allocs: Vec::new(),
            free_allocs: Vec::new(),
            memo_table: KeyMap::default(),
            alloc_table: KeyMap::default(),
            spill: Spill::default(),
            queue: Vec::new(),
            open: Vec::new(),
            cur,
            window_read: None,
            init_stack: Vec::new(),
            pending_free: Vec::new(),
            sim_garbage: Vec::new(),
            sim_since_gc: 0,
            core_ran: false,
            executing: false,
            stats: Stats::default(),
            profiler: None,
            hook: None,
            debug_log: false,
        }
    }

    /// Delivers `ev` to the installed hook, if any.
    #[inline]
    fn emit(&mut self, ev: Event) {
        if let Some(h) = &mut self.hook {
            h.on_event(ev);
        }
    }

    /// Opens a profile phase: syncs order stats and returns the
    /// order-stats baseline for `RegionState::finish_phase`'s hook delta.
    /// The profiler's counter baseline is the snapshot taken when the
    /// previous phase finished, so work staged between phases (batch
    /// edits dirtying reads, say) is attributed to the phase that
    /// consumes it.
    fn begin_phase(&mut self, kind: PhaseKind) -> OrderStats {
        self.sync_order_stats();
        let base = self.ord.stats();
        if let Some(p) = &mut self.profiler {
            p.begin(kind);
        }
        self.emit(Event::PhaseBegin { kind });
        base
    }

    /// Closes the open profile phase and reports order-maintenance
    /// deltas to the event hook.
    fn finish_phase(&mut self, kind: PhaseKind, order_base: OrderStats) {
        self.sync_order_stats();
        let os = self.ord.stats();
        let relabels = os.group_relabels - order_base.group_relabels;
        let renumbers = os.local_renumbers - order_base.local_renumbers;
        let splits = os.group_splits - order_base.group_splits;
        let merges = os.group_merges - order_base.group_merges;
        if relabels | renumbers | splits | merges != 0 {
            self.emit(Event::OrderMaintenance {
                relabels,
                renumbers,
                splits,
                merges,
            });
        }
        if let Some(p) = &mut self.profiler {
            let snap = self.stats.ops;
            let trace_len = self.live_slots as u64;
            let live_bytes = self.stats.live_bytes as u64;
            p.end(snap, trace_len, live_bytes);
        }
        self.emit(Event::PhaseEnd { kind });
    }

    /// Mirrors the order-maintenance structure's internal counters into
    /// [`Stats`]. Called after each run/propagation so `stats()` always
    /// reflects the timestamp list's maintenance work.
    fn sync_order_stats(&mut self) {
        let os = self.ord.stats();
        self.stats.ops.order_group_relabels = os.group_relabels;
        self.stats.ops.order_local_renumbers = os.local_renumbers;
        self.stats.ops.order_group_splits = os.group_splits;
        self.stats.ops.order_group_merges = os.group_merges;
    }

    // ------------------------------------------------------------------
    // Meta (mutator) operations — §2 "The Meta Language".
    // ------------------------------------------------------------------

    /// Creates a modifiable at the meta level (`modref` in the paper).
    pub(crate) fn meta_modref(&mut self) -> ModRef {
        self.stats.grow(cost::META);
        self.heap.alloc_meta(Value::Nil, None)
    }

    /// Allocates an untraced block (`alloc` in the meta language). Must
    /// be freed explicitly with [`Engine::kill`](super::Engine::kill).
    pub(crate) fn meta_alloc(&mut self, words: usize) -> Loc {
        self.stats.grow(words * cost::WORD);
        self.heap.alloc_block(words, BlockKind::Meta)
    }

    /// Creates a modifiable inside a meta-level block slot, so mutators
    /// can build linked structures whose links the core reads.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not a meta-level block.
    pub(crate) fn meta_modref_in(&mut self, loc: Loc, off: usize) -> ModRef {
        assert_eq!(
            self.heap.kind(loc),
            BlockKind::Meta,
            "meta_modref_in on core block"
        );
        let m = self.heap.alloc_meta(Value::Nil, Some(loc));
        self.stats.grow(cost::META);
        self.heap.store(loc, off, Value::ModRef(m));
        m
    }

    /// Stores into a meta-level block (mutator-owned memory is not
    /// write-once).
    pub(crate) fn meta_store(&mut self, loc: Loc, off: usize, v: Value) {
        assert_eq!(
            self.heap.kind(loc),
            BlockKind::Meta,
            "meta_store on core block"
        );
        self.heap.store(loc, off, v);
    }

    /// Reads the current contents of a modifiable (`deref`).
    ///
    /// This is a raw peek at the trace: it never triggers propagation.
    /// Under [`PropagationPolicy::Eager`] the mutator keeps the trace
    /// consistent itself (`propagate` after edits), so a peek between
    /// rounds is exact. Under [`PropagationPolicy::Demand`] dirty marks
    /// may be pending; use [`Engine::observe`](super::Engine::observe) to get the value a fully
    /// propagated trace would hold.
    pub(crate) fn deref(&self, m: ModRef) -> Value {
        let meta = self.heap.meta(m);
        if meta.writes_tail == NIL {
            meta.base
        } else {
            self.writes[meta.writes_tail as usize].value
        }
    }

    /// Reads a block slot (untracked: non-modifiable core memory is
    /// write-once, §4.2, so no dependence needs recording).
    #[inline]
    pub fn load(&self, loc: Loc, off: usize) -> Value {
        self.heap.load(loc, off)
    }

    // ------------------------------------------------------------------
    // Interval-coalesced trace storage (DESIGN.md §13).
    // ------------------------------------------------------------------

    /// Slot count of the span owned by `t` (0 for sentinels, which own
    /// no span).
    fn span_len(&self, t: Time) -> u32 {
        match self.span_of.get(t.index()) {
            Some(&si) if si != SPAN_NONE => self.spans[si as usize].slots.len() as u32,
            _ => 0,
        }
    }

    /// First possibly-live slot index of the span owned by `t` (0 for
    /// sentinels).
    fn span_head(&self, t: Time) -> u32 {
        match self.span_of.get(t.index()) {
            Some(&si) if si != SPAN_NONE => self.spans[si as usize].head,
            _ => 0,
        }
    }

    /// Offset of the last slot under `t` — the cursor offset that
    /// appends at the interval's tail (0 for sentinels).
    fn span_end_off(&self, t: Time) -> u32 {
        self.span_len(t)
    }

    /// Total order on trace positions: boundary timestamps compare
    /// first, offsets within an interval second.
    fn pos_lt(&self, a: Pos, b: Pos) -> bool {
        if a.anchor == b.anchor {
            a.off < b.off
        } else {
            self.ord.lt(a.anchor, b.anchor)
        }
    }

    fn pos_le(&self, a: Pos, b: Pos) -> bool {
        !self.pos_lt(b, a)
    }

    /// End position of the current re-execution window, re-derived from
    /// the window read's node (splits may relocate the end slot).
    fn window_end_pos(&self) -> Option<Pos> {
        self.window_read.map(|r| self.reads[r as usize].end)
    }

    /// Opens a fresh interval boundary immediately after `after`: one
    /// order-maintenance timestamp plus a span from the pool (created
    /// if the pool is empty). Boundaries are representation, not
    /// records, so no `TraceCreated` is emitted for them.
    fn new_boundary_after(&mut self, after: Time) -> Time {
        let b = self.ord.insert_after(after);
        let si = match self.free_spans.pop() {
            Some(si) => si,
            None => {
                self.spans.push(Span::default());
                (self.spans.len() - 1) as u32
            }
        };
        debug_assert!(self.spans[si as usize].slots.is_empty());
        self.spans[si as usize].head = 0;
        if b.index() >= self.span_of.len() {
            self.span_of.resize(b.index() + 1, SPAN_NONE);
        }
        self.span_of[b.index()] = si;
        self.stats.ops.trace_intervals += 1;
        self.stats
            .grow_interval(cost::TIME_NODE + cost::SPAN_HEADER);
        b
    }

    /// Points the record named by slot `s` back at position `p`. Every
    /// slot move (split or donation) must rewrite the stored position
    /// so the record and its slot stay in bijection.
    fn rewrite_slot_pos(&mut self, s: u32, p: Pos) {
        let idx = slot_idx(s) as usize;
        match slot_tag(s) {
            TAG_READ => self.reads[idx].start = p,
            TAG_READ_END => self.reads[idx].end = p,
            TAG_WRITE => self.writes[idx].pos = p,
            TAG_ALLOC => self.allocs[idx].pos = p,
            _ => unreachable!("invalid slot tag"),
        }
    }

    /// Splits the interval anchored at `a` at slot index `at`: the
    /// slots `at..` move — keeping their order — to a fresh boundary
    /// inserted right after `a`, and the records they name get their
    /// stored positions rewritten. Because the moved block stays
    /// contiguous and lands directly after its old location, the
    /// relative order of all positions (including queued reads' start
    /// keys) is preserved. Tombstones are dropped instead of moved;
    /// when only tombstones lie past the split point no boundary is
    /// created at all.
    fn split_back(&mut self, a: Time, at: usize) {
        let si = self.span_of[a.index()] as usize;
        let movers = self.spans[si].slots.split_off(at);
        let live_moved = movers.iter().filter(|&&s| slot_tag(s) != TAG_TOMB).count() as u32;
        self.spans[si].live -= live_moved;
        self.spans[si].head = self.spans[si].head.min(at as u32);
        if live_moved == 0 {
            return;
        }
        let b = self.new_boundary_after(a);
        self.stats.ops.interval_splits += 1;
        let bi = self.span_of[b.index()] as usize;
        for s in movers {
            if slot_tag(s) == TAG_TOMB {
                continue;
            }
            self.spans[bi].slots.push(s);
            self.spans[bi].live += 1;
            let p = Pos {
                anchor: b,
                off: self.spans[bi].slots.len() as u32,
            };
            self.rewrite_slot_pos(s, p);
        }
    }

    /// The mirror split: the prefix `..at` moves out in front and the
    /// suffix stays put — the vacated slots remain as tombstone
    /// padding, so the suffix offsets (and every stored position naming
    /// them) survive unchanged. The prefix lands on the predecessor's
    /// span tail when
    /// it fits (no new boundary, and successive re-execution windows
    /// re-fill spans densely front-to-back), else on a fresh boundary
    /// inserted right before `a`. Returns the prefix's new anchor,
    /// which becomes the cursor's anchor. Chosen over
    /// [`Self::split_back`] when the prefix is the smaller side:
    /// re-execution windows split at their start, so a cascade of
    /// adjacent windows would otherwise move each span's tail once per
    /// window — quadratic in the span length.
    fn split_front(&mut self, a: Time, at: usize, live_prefix: usize) -> Time {
        let si = self.span_of[a.index()] as usize;
        let prev = self.ord.prev(a);
        let target = match self.span_of.get(prev.index()).copied() {
            Some(pi)
                if pi != SPAN_NONE
                    && self.spans[pi as usize].slots.len() + live_prefix <= SPAN_CAP =>
            {
                prev
            }
            _ => self.new_boundary_after(prev),
        };
        self.stats.ops.interval_splits += 1;
        let bi = self.span_of[target.index()] as usize;
        for k in self.spans[si].head as usize..at {
            let s = self.spans[si].slots[k];
            if slot_tag(s) == TAG_TOMB {
                continue;
            }
            self.spans[bi].slots.push(s);
            self.spans[bi].live += 1;
            let p = Pos {
                anchor: target,
                off: self.spans[bi].slots.len() as u32,
            };
            self.rewrite_slot_pos(s, p);
            // The vacated slot stays behind as tombstone padding: no
            // suffix shift, no offset rewrites. It is reclaimed when
            // the span is disposed or back-split, like a purge tomb.
            self.spans[si].slots[k] = pack_slot(TAG_TOMB, 0);
        }
        self.spans[si].live -= live_prefix as u32;
        self.spans[si].head = self.spans[si].head.max(at as u32);
        target
    }

    /// Appends a record slot at the cursor, returning its position and
    /// advancing the cursor past it. An interior cursor first splits
    /// its interval — peeling off whichever side is smaller (the tail
    /// must stay ordered after the new record); a full span opens a
    /// fresh boundary. Emits `TraceCreated`.
    fn append_record(&mut self, tag: u32, idx: u32, kind: TraceKind, site: SiteId) -> Pos {
        let Pos { mut anchor, off } = self.cur;
        let si = self
            .span_of
            .get(anchor.index())
            .copied()
            .unwrap_or(SPAN_NONE);
        if si == SPAN_NONE {
            // Sentinel anchor: open the trace's first interval.
            anchor = self.new_boundary_after(anchor);
        } else {
            let len = self.spans[si as usize].slots.len();
            let at = off as usize;
            if at < len {
                // Peel off whichever side is cheaper. Costs count LIVE
                // slots moved — moved tombstones are dropped, so
                // physical lengths (inflated by tomb padding) would
                // misjudge — plus a charge for the boundary a split
                // creates. A donating front split creates none, so it
                // wins even when the prefix is somewhat bigger: that
                // bias is what re-coalesces spans — without it, a
                // cascade's window ends always pick the 1-slot back
                // split and shatter the trace into 3-slot spans.
                let head = self.spans[si as usize].head as usize;
                let live_prefix = self.spans[si as usize].slots[head.min(at)..at]
                    .iter()
                    .filter(|&&s| slot_tag(s) != TAG_TOMB)
                    .count();
                let live_suffix = self.spans[si as usize].live as usize - live_prefix;
                let front = if live_suffix == 0 {
                    // All-tomb suffix: the back split is a free
                    // truncation, no boundary.
                    false
                } else {
                    let prev = self.ord.prev(anchor);
                    let donate_fits = match self.span_of.get(prev.index()).copied() {
                        Some(pi) if pi != SPAN_NONE => {
                            self.spans[pi as usize].slots.len() + live_prefix <= SPAN_CAP
                        }
                        _ => false,
                    };
                    if donate_fits {
                        live_prefix <= live_suffix + SPLIT_BOUNDARY_BIAS
                    } else {
                        live_prefix < live_suffix
                    }
                };
                if front {
                    anchor = self.split_front(anchor, at, live_prefix);
                } else {
                    self.split_back(anchor, at);
                }
            }
            let si = self.span_of[anchor.index()] as usize;
            if self.spans[si].slots.len() >= SPAN_CAP {
                anchor = self.new_boundary_after(anchor);
            }
        }
        let si = self.span_of[anchor.index()] as usize;
        self.spans[si].slots.push(pack_slot(tag, idx));
        self.spans[si].live += 1;
        self.live_slots += 1;
        self.stats.grow_interval(cost::SPAN_SLOT);
        let pos = Pos {
            anchor,
            off: self.spans[si].slots.len() as u32,
        };
        self.cur = pos;
        self.emit(Event::TraceCreated {
            kind,
            index: idx,
            site,
            interval: anchor.index() as u32,
        });
        pos
    }

    /// Tombstones the slot at index `i` of span `si`, releasing its
    /// accounted bytes. The slot storage itself is reclaimed when the
    /// span is split or disposed.
    fn tomb_slot(&mut self, si: usize, i: usize) {
        debug_assert_ne!(slot_tag(self.spans[si].slots[i]), TAG_TOMB);
        self.spans[si].slots[i] = pack_slot(TAG_TOMB, 0);
        self.spans[si].live -= 1;
        self.live_slots -= 1;
        self.stats.shrink_interval(cost::SPAN_SLOT);
        // Keep `head` past the contiguous tomb prefix so later walks
        // skip it wholesale.
        let span = &mut self.spans[si];
        if i as u32 == span.head {
            let len = span.slots.len() as u32;
            while span.head < len && slot_tag(span.slots[span.head as usize]) == TAG_TOMB {
                span.head += 1;
            }
        }
    }

    /// Tombstones the slot at position `p`.
    fn tomb_at(&mut self, p: Pos) {
        let si = self.span_of[p.anchor.index()] as usize;
        debug_assert!(p.off > 0, "cannot tombstone a boundary");
        let i = (p.off - 1) as usize;
        self.tomb_slot(si, i);
    }

    /// Disposes boundary `b` if its span holds no live slots — unless
    /// it is a sentinel or the cursor's anchor (still addressed). The
    /// timestamp is deleted in O(1) and the span returns to the pool
    /// with its capacity intact, so repeated rebuild sessions stop
    /// paying realloc churn.
    fn maybe_dispose(&mut self, b: Time) {
        if b == self.ord.first() || b == self.ord.last() || b == self.cur.anchor {
            return;
        }
        let Some(&si) = self.span_of.get(b.index()) else {
            return;
        };
        if si == SPAN_NONE || self.spans[si as usize].live != 0 {
            return;
        }
        self.span_of[b.index()] = SPAN_NONE;
        self.spans[si as usize].slots.clear();
        self.spans[si as usize].head = 0;
        self.free_spans.push(si);
        self.ord.delete(b);
        self.stats
            .shrink_interval(cost::TIME_NODE + cost::SPAN_HEADER);
    }

    fn maybe_free_read_slot(&mut self, r: u32) {
        let node = &self.reads[r as usize];
        if !node.live && !node.queued && node.start.is_none() && node.end.is_none() {
            let bytes_args = std::mem::take(&mut self.reads[r as usize].args);
            drop(bytes_args);
            self.free_reads.push(r);
        }
    }

    // ------------------------------------------------------------------
    // Modifiable read/write lists and value lookup.
    // ------------------------------------------------------------------

    /// The latest write of `m` at or before position `p` (`NIL` if `p`
    /// precedes every write, in which case the base value governs).
    ///
    /// Lookups during propagation and re-execution are temporally local,
    /// so the walk starts from the per-modifiable `cache_write` hint —
    /// the write found by the previous lookup — and moves at most the
    /// temporal distance between consecutive lookups, instead of
    /// scanning from the tail of the whole write list every time.
    /// Starting anywhere live is sound: every write before the hint has
    /// a smaller position and every write after it a larger one, so
    /// walking backward past all writes `> p` and then forward over
    /// writes `<= p` lands on the governing write from any starting
    /// point.
    fn find_write_at(&mut self, m: ModRef, p: Pos) -> u32 {
        let meta = self.heap.meta(m);
        let hint = meta.cache_write;
        let mut w = if hint != NIL { hint } else { meta.writes_tail };
        while w != NIL && self.pos_lt(p, self.writes[w as usize].pos) {
            w = self.writes[w as usize].prev_write;
        }
        if w != NIL {
            loop {
                let n = self.writes[w as usize].next_write;
                if n != NIL && self.pos_le(self.writes[n as usize].pos, p) {
                    w = n;
                } else {
                    break;
                }
            }
            // Store only on change: most lookups confirm the hint, and an
            // unconditional store would dirty every meta line touched.
            if w != hint {
                self.heap.meta_mut(m).cache_write = w;
            }
        }
        w
    }

    /// The value a read at position `p` observes: the latest write at
    /// or before `p`, else the mutator's base value.
    fn value_at(&mut self, m: ModRef, p: Pos) -> Value {
        let w = self.find_write_at(m, p);
        if w == NIL {
            self.heap.meta(m).base
        } else {
            self.writes[w as usize].value
        }
    }

    fn value_at_cur_for(&mut self, m: ModRef) -> Value {
        self.value_at(m, self.cur)
    }

    /// Splices write node `idx` into `m`'s write list immediately after
    /// `after` (`NIL` = new head). The caller has already located the
    /// position, typically via `RegionState::find_write_at`.
    fn link_write_after(&mut self, m: ModRef, idx: u32, after: u32) {
        let before = if after == NIL {
            self.heap.meta(m).writes_head
        } else {
            self.writes[after as usize].next_write
        };
        self.writes[idx as usize].prev_write = after;
        self.writes[idx as usize].next_write = before;
        if after == NIL {
            self.heap.meta_mut(m).writes_head = idx;
        } else {
            self.writes[after as usize].next_write = idx;
        }
        if before == NIL {
            self.heap.meta_mut(m).writes_tail = idx;
        } else {
            self.writes[before as usize].prev_write = idx;
        }
    }

    fn unlink_write(&mut self, w: u32) {
        let m = self.writes[w as usize].modref;
        let prev = self.writes[w as usize].prev_write;
        let next = self.writes[w as usize].next_write;
        // Keep the lookup hint pointing at a live write: fall back to
        // the predecessor, which is the governing write for the same
        // neighborhood (and a perfect hint for the value_at call that
        // trash_write issues right after unlinking).
        if self.heap.meta(m).cache_write == w {
            self.heap.meta_mut(m).cache_write = prev;
        }
        if prev == NIL {
            self.heap.meta_mut(m).writes_head = next;
        } else {
            self.writes[prev as usize].next_write = next;
        }
        if next == NIL {
            self.heap.meta_mut(m).writes_tail = prev;
        } else {
            self.writes[next as usize].prev_write = prev;
        }
    }

    fn link_reader_sorted(&mut self, m: ModRef, idx: u32) {
        let p = self.reads[idx as usize].start;
        let meta = self.heap.meta(m);
        let reads_head = meta.reads_head;
        let mut after = meta.reads_tail;
        while after != NIL {
            let node = &self.reads[after as usize];
            if !self.pos_lt(p, node.start) {
                break;
            }
            after = node.prev_reader;
        }
        let before = if after == NIL {
            reads_head
        } else {
            self.reads[after as usize].next_reader
        };
        self.reads[idx as usize].prev_reader = after;
        self.reads[idx as usize].next_reader = before;
        if after == NIL {
            self.heap.meta_mut(m).reads_head = idx;
        } else {
            self.reads[after as usize].next_reader = idx;
        }
        if before == NIL {
            self.heap.meta_mut(m).reads_tail = idx;
        } else {
            self.reads[before as usize].prev_reader = idx;
        }
    }

    fn unlink_reader(&mut self, r: u32) {
        let m = self.reads[r as usize].modref;
        let prev = self.reads[r as usize].prev_reader;
        let next = self.reads[r as usize].next_reader;
        if prev == NIL {
            self.heap.meta_mut(m).reads_head = next;
        } else {
            self.reads[prev as usize].next_reader = next;
        }
        if next == NIL {
            self.heap.meta_mut(m).reads_tail = prev;
        } else {
            self.reads[next as usize].prev_reader = prev;
        }
        self.reads[r as usize].prev_reader = NIL;
        self.reads[r as usize].next_reader = NIL;
    }

    /// Removes `r` from the memo table. The key is recomputed from the
    /// node instead of stored: `last_value` still holds the memoized
    /// value here (re-execution updates it only after this call), so
    /// the recomputed hash matches the one the entry was added under.
    fn memo_remove(&mut self, r: u32) {
        let key = {
            let node = &self.reads[r as usize];
            hash_key(
                0x5EAD,
                node.modref.0 as u64,
                node.func.0 as u64,
                &node.args,
                Some(node.last_value),
            )
        };
        Bucket::remove(&mut self.memo_table, &mut self.spill, key, r);
    }

    // ------------------------------------------------------------------
    // Slot allocation.
    // ------------------------------------------------------------------

    fn alloc_read_slot(&mut self) -> u32 {
        if let Some(i) = self.free_reads.pop() {
            i
        } else {
            self.reads.push(ReadNode {
                modref: ModRef(0),
                func: FuncId(0),
                args: ArgVec::new(),
                last_value: Value::Nil,
                start: Pos::NONE,
                end: Pos::NONE,
                prev_reader: NIL,
                next_reader: NIL,
                queued: false,
                live: false,
                site: SiteId::NONE,
            });
            (self.reads.len() - 1) as u32
        }
    }

    fn alloc_write_slot(&mut self) -> u32 {
        if let Some(i) = self.free_writes.pop() {
            i
        } else {
            self.writes.push(WriteNode {
                modref: ModRef(0),
                value: Value::Nil,
                pos: Pos::NONE,
                prev_write: NIL,
                next_write: NIL,
                live: false,
            });
            (self.writes.len() - 1) as u32
        }
    }

    fn alloc_alloc_slot(&mut self) -> u32 {
        if let Some(i) = self.free_allocs.pop() {
            i
        } else {
            self.allocs.push(AllocNode {
                key_hash: 0,
                words: 0,
                init: FuncId(0),
                args: Box::new([]),
                loc: Loc(0),
                pos: Pos::NONE,
                live: false,
                site: SiteId::NONE,
            });
            (self.allocs.len() - 1) as u32
        }
    }

    // ------------------------------------------------------------------
    // Priority queue (binary heap over read start positions).
    // ------------------------------------------------------------------

    fn queue_push(&mut self, r: u32) {
        if self.reads[r as usize].queued {
            return;
        }
        self.stats.ops.queue_pushes += 1;
        self.reads[r as usize].queued = true;
        self.queue.push(r);
        self.sift_up(self.queue.len() - 1);
    }

    fn queue_pop(&mut self) -> Option<u32> {
        loop {
            if self.queue.is_empty() {
                return None;
            }
            let last = self.queue.len() - 1;
            self.queue.swap(0, last);
            let r = self.queue.pop().expect("queue non-empty");
            self.stats.ops.queue_pops += 1;
            if !self.queue.is_empty() {
                self.sift_down(0);
            }
            self.reads[r as usize].queued = false;
            if self.reads[r as usize].live {
                return Some(r);
            }
            // A purged zombie: release its deferred start slot (kept
            // live while queued so the heap order stays valid) and, if
            // its interval is now empty, the boundary holding it.
            let start = self.reads[r as usize].start;
            if !start.is_none() {
                self.tomb_at(start);
                self.reads[r as usize].start = Pos::NONE;
                self.maybe_dispose(start.anchor);
            }
            let end = self.reads[r as usize].end;
            if !end.is_none() {
                self.tomb_at(end);
                self.reads[r as usize].end = Pos::NONE;
                self.maybe_dispose(end.anchor);
            }
            self.maybe_free_read_slot(r);
        }
    }

    #[inline]
    fn queue_less(&self, a: u32, b: u32) -> bool {
        self.pos_lt(self.reads[a as usize].start, self.reads[b as usize].start)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.queue_less(self.queue[i], self.queue[parent]) {
                self.queue.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.queue.len() && self.queue_less(self.queue[l], self.queue[smallest]) {
                smallest = l;
            }
            if r < self.queue.len() && self.queue_less(self.queue[r], self.queue[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.queue.swap(i, smallest);
            i = smallest;
        }
    }

    // ------------------------------------------------------------------
    // Test/debug support.
    // ------------------------------------------------------------------

    /// Walks every non-tombstone slot of the trace in position order,
    /// handing `(tag, record index)` to `visit`. Shared traversal
    /// behind the trace/DDG renderers.
    fn walk_slots(&self, mut visit: impl FnMut(u32, u32)) {
        let mut t = self.ord.next(self.ord.first());
        while t != self.ord.last() {
            if let Some(&si) = self.span_of.get(t.index()) {
                if si != SPAN_NONE {
                    for &s in &self.spans[si as usize].slots {
                        if slot_tag(s) != TAG_TOMB {
                            visit(slot_tag(s), slot_idx(s));
                        }
                    }
                }
            }
            t = self.ord.next(t);
        }
    }

    /// Renders the current trace (the dynamic dependence graph, §1) as
    /// text: one line per record in trace order, with read intervals,
    /// their closures, and write/alloc records. Intended for debugging
    /// and teaching; size is O(trace), so use on small computations.
    pub(crate) fn dump_trace_with(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut depth = 0usize;
        self.walk_slots(|tag, idx| {
            let pad = |d: usize| "  ".repeat(d);
            match tag {
                TAG_READ => {
                    let rd = &self.reads[idx as usize];
                    if rd.live {
                        let _ = writeln!(
                            out,
                            "{}read {:?} -> {} = {:?}{}",
                            pad(depth),
                            rd.modref,
                            program.name(rd.func),
                            rd.last_value,
                            if rd.queued { "  [dirty]" } else { "" },
                        );
                        depth += 1;
                    }
                }
                TAG_READ_END => {
                    if self.reads[idx as usize].live {
                        depth = depth.saturating_sub(1);
                    }
                }
                TAG_WRITE => {
                    let wr = &self.writes[idx as usize];
                    let _ = writeln!(out, "{}write {:?} := {:?}", pad(depth), wr.modref, wr.value);
                }
                TAG_ALLOC => {
                    let al = &self.allocs[idx as usize];
                    let _ = writeln!(
                        out,
                        "{}alloc {:?} ({} words, init {})",
                        pad(depth),
                        al.loc,
                        al.words,
                        if al.init == MODREF_INIT {
                            "modref"
                        } else {
                            program.name(al.init)
                        },
                    );
                }
                _ => unreachable!("invalid slot tag"),
            }
        });
        out
    }

    /// Walks the live trace once, handing every record to `visit` as a
    /// [`DdgRecord`] — the shared traversal behind [`Engine::ddg_dot`](super::Engine::ddg_dot)
    /// and [`Engine::ddg_json`](super::Engine::ddg_json). Sequence numbers are positions in the
    /// trace walk (dense, deterministic), read intervals are
    /// `[start, end]` in those positions, and `parent` is the innermost
    /// read whose interval contains the record (`None` at top level).
    fn walk_ddg(&self, mut visit: impl FnMut(DdgRecord<'_>)) {
        // Open stack: (read, start seq), for closing intervals.
        let mut open: Vec<(u32, u64)> = Vec::new();
        let mut seq = 0u64;
        self.walk_slots(|tag, idx| {
            seq += 1;
            let parent = open.last().map(|&(r, _)| r);
            match tag {
                TAG_READ => {
                    if self.reads[idx as usize].live {
                        open.push((idx, seq));
                    }
                }
                TAG_READ_END => {
                    if self.reads[idx as usize].live {
                        let (rr, start) = open.pop().expect("DDG read intervals must nest");
                        debug_assert_eq!(rr, idx, "DDG read intervals must nest");
                        let rd = &self.reads[idx as usize];
                        visit(DdgRecord::Read {
                            read: idx,
                            node: rd,
                            start,
                            end: seq,
                            parent: open.last().map(|&(p, _)| p),
                        });
                    }
                }
                TAG_WRITE => {
                    visit(DdgRecord::Write {
                        write: idx,
                        node: &self.writes[idx as usize],
                        at: seq,
                        parent,
                    });
                }
                TAG_ALLOC => {
                    visit(DdgRecord::Alloc {
                        alloc: idx,
                        node: &self.allocs[idx as usize],
                        at: seq,
                        parent,
                    });
                }
                _ => unreachable!("invalid slot tag"),
            }
        });
        debug_assert!(open.is_empty(), "unclosed read interval in DDG walk");
    }

    /// Renders the live dynamic dependence graph as Graphviz DOT:
    /// modifiables (ellipses) → reads (boxes, labelled with closure,
    /// site and timestamp interval) → writes (diamonds) → modifiables,
    /// with dotted containment edges from each read to the records its
    /// interval contains. Deterministic; size is O(trace).
    pub(crate) fn ddg_dot_with(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let sites = program.sites();
        let mut out = String::from(
            "digraph ddg {\n  rankdir=LR;\n  node [fontname=\"monospace\" fontsize=10];\n",
        );
        let mut modrefs: Vec<u32> = Vec::new();
        let mention = |out: &mut String, m: ModRef, modrefs: &mut Vec<u32>| {
            if !modrefs.contains(&m.0) {
                modrefs.push(m.0);
                let _ = writeln!(out, "  m{} [label=\"m{}\" shape=ellipse];", m.0, m.0);
            }
        };
        self.walk_ddg(|rec| match rec {
            DdgRecord::Read {
                read,
                node,
                start,
                end,
                parent,
            } => {
                mention(&mut out, node.modref, &mut modrefs);
                let _ = writeln!(
                    out,
                    "  r{read} [label=\"read {}\\n{} @ {}\\n[{start},{end}]{}\" shape=box];",
                    node.modref.0,
                    dot_escape(program.name(node.func)),
                    dot_escape(sites.name(node.site)),
                    if node.queued { "\\ndirty" } else { "" },
                );
                let _ = writeln!(out, "  m{} -> r{read};", node.modref.0);
                if let Some(p) = parent {
                    let _ = writeln!(out, "  r{p} -> r{read} [style=dotted];");
                }
            }
            DdgRecord::Write {
                write,
                node,
                parent,
                ..
            } => {
                mention(&mut out, node.modref, &mut modrefs);
                let _ = writeln!(
                    out,
                    "  w{write} [label=\"write {:?}\" shape=diamond];",
                    node.value
                );
                let _ = writeln!(out, "  w{write} -> m{};", node.modref.0);
                if let Some(p) = parent {
                    let _ = writeln!(out, "  r{p} -> w{write};");
                }
            }
            DdgRecord::Alloc {
                alloc,
                node,
                parent,
                ..
            } => {
                let init = if node.init == MODREF_INIT {
                    "modref"
                } else {
                    program.name(node.init)
                };
                let _ = writeln!(
                    out,
                    "  a{alloc} [label=\"alloc {:?} ({}w, {})\\n{}\" shape=note];",
                    node.loc,
                    node.words,
                    dot_escape(init),
                    dot_escape(sites.name(node.site)),
                );
                if let Some(p) = parent {
                    let _ = writeln!(out, "  r{p} -> a{alloc};");
                }
            }
        });
        out.push_str("}\n");
        out
    }

    /// The live dynamic dependence graph as JSON (schema
    /// `ceal-ddg/v1`): arrays of read, write and allocation records
    /// with trace-walk positions as timestamp intervals, plus the
    /// modifiable → read and read → write/alloc edges implied by the
    /// fields. Deterministic; pairs with [`Engine::ddg_dot`](super::Engine::ddg_dot).
    pub(crate) fn ddg_json_with(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let sites = program.sites();
        let mut reads = String::new();
        let mut writes = String::new();
        let mut allocs = String::new();
        let parent_json = |p: Option<u32>| match p {
            Some(p) => p as i64,
            None => -1,
        };
        self.walk_ddg(|rec| match rec {
            DdgRecord::Read {
                read,
                node,
                start,
                end,
                parent,
            } => {
                if !reads.is_empty() {
                    reads.push(',');
                }
                let _ = write!(
                    reads,
                    "{{\"id\":{read},\"modref\":{},\"func\":\"{}\",\"site\":\"{}\",\
                     \"start\":{start},\"end\":{end},\"parent\":{},\"dirty\":{}}}",
                    node.modref.0,
                    dquote_escape(program.name(node.func)),
                    dquote_escape(sites.name(node.site)),
                    parent_json(parent),
                    node.queued,
                );
            }
            DdgRecord::Write {
                write,
                node,
                at,
                parent,
            } => {
                if !writes.is_empty() {
                    writes.push(',');
                }
                let _ = write!(
                    writes,
                    "{{\"id\":{write},\"modref\":{},\"value\":\"{}\",\"at\":{at},\"parent\":{}}}",
                    node.modref.0,
                    dquote_escape(&format!("{:?}", node.value)),
                    parent_json(parent),
                );
            }
            DdgRecord::Alloc {
                alloc,
                node,
                at,
                parent,
            } => {
                if !allocs.is_empty() {
                    allocs.push(',');
                }
                let init = if node.init == MODREF_INIT {
                    "modref"
                } else {
                    program.name(node.init)
                };
                let _ = write!(
                    allocs,
                    "{{\"id\":{alloc},\"loc\":{},\"words\":{},\"init\":\"{}\",\
                     \"site\":\"{}\",\"at\":{at},\"parent\":{}}}",
                    node.loc.0,
                    node.words,
                    dquote_escape(init),
                    dquote_escape(sites.name(node.site)),
                    parent_json(parent),
                );
            }
        });
        format!(
            "{{\"schema\":\"ceal-ddg/v1\",\"reads\":[{reads}],\
             \"writes\":[{writes}],\"allocs\":[{allocs}]}}"
        )
    }

    /// Checks internal invariants (test support): order-list linkage,
    /// interval/span consistency (spans disjoint, covering the trace,
    /// with exact live counts and byte accounting), reader/writer list
    /// sorting and membership, memo-table liveness, and queue flags.
    pub(crate) fn check_invariants(&self) {
        self.ord.check_invariants();
        // Spans: every non-sentinel boundary owns exactly one span, no
        // span is owned twice (disjointness), live counts match slot
        // contents, and every record slot's stored position points back
        // at its slot (the spans cover the trace: a record is reachable
        // from exactly the boundary its position names).
        let mut seen_spans = vec![false; self.spans.len()];
        let mut live_total = 0usize;
        let mut boundaries = 0usize;
        let mut t = self.ord.next(self.ord.first());
        while t != self.ord.last() {
            boundaries += 1;
            let si = self.span_of.get(t.index()).copied().unwrap_or(SPAN_NONE);
            assert_ne!(si, SPAN_NONE, "boundary {t:?} owns no span");
            assert!(!seen_spans[si as usize], "span owned by two boundaries");
            seen_spans[si as usize] = true;
            let span = &self.spans[si as usize];
            assert!(span.slots.len() <= SPAN_CAP, "span overflows SPAN_CAP");
            assert!(
                span.head as usize <= span.slots.len(),
                "span head past its length"
            );
            assert!(
                span.slots[..span.head as usize]
                    .iter()
                    .all(|&s| slot_tag(s) == TAG_TOMB),
                "live slot below span head"
            );
            let mut live_here = 0usize;
            for (i, &s) in span.slots.iter().enumerate() {
                let pos = Pos {
                    anchor: t,
                    off: (i + 1) as u32,
                };
                let idx = slot_idx(s);
                match slot_tag(s) {
                    TAG_TOMB => continue,
                    TAG_READ => {
                        let rd = &self.reads[idx as usize];
                        assert_eq!(rd.start, pos, "read r{idx} start mismatch");
                        assert!(
                            rd.live || rd.queued,
                            "trace contains a dead, unqueued read r{idx}"
                        );
                    }
                    TAG_READ_END => {
                        let rd = &self.reads[idx as usize];
                        assert_eq!(rd.end, pos, "read r{idx} end mismatch");
                        assert!(rd.live, "end marker for dead read r{idx}");
                    }
                    TAG_WRITE => {
                        let wr = &self.writes[idx as usize];
                        assert!(wr.live, "trace contains dead write w{idx}");
                        assert_eq!(wr.pos, pos, "write w{idx} position mismatch");
                    }
                    TAG_ALLOC => {
                        let al = &self.allocs[idx as usize];
                        assert!(al.live, "trace contains dead alloc a{idx}");
                        assert_eq!(al.pos, pos, "alloc a{idx} position mismatch");
                        assert!(self.heap.is_live(al.loc), "alloc a{idx} block freed");
                    }
                    _ => panic!("invalid slot tag"),
                }
                live_here += 1;
            }
            assert_eq!(live_here, span.live as usize, "span live count drifted");
            live_total += live_here;
            t = self.ord.next(t);
        }
        assert_eq!(live_total, self.live_slots, "live slot total drifted");
        for &si in &self.free_spans {
            assert!(!seen_spans[si as usize], "pooled span still owned");
            let span = &self.spans[si as usize];
            assert!(span.slots.is_empty(), "pooled span not empty");
            assert_eq!(span.live, 0, "pooled span has live slots");
            seen_spans[si as usize] = true;
        }
        assert!(
            seen_spans.iter().all(|&b| b),
            "span neither owned by a boundary nor pooled"
        );
        assert_eq!(
            self.stats.interval_bytes,
            boundaries * (cost::TIME_NODE + cost::SPAN_HEADER) + self.live_slots * cost::SPAN_SLOT,
            "interval byte accounting drifted"
        );
        // Reads: intervals well-formed.
        for (i, rd) in self.reads.iter().enumerate() {
            if rd.live {
                assert!(
                    !rd.start.is_none() && self.ord.is_live(rd.start.anchor),
                    "live read r{i} has dead start"
                );
                assert!(
                    self.heap.meta_is_live(rd.modref),
                    "live read r{i} on dead modref {:?}",
                    rd.modref
                );
                if !rd.end.is_none() {
                    assert!(
                        self.ord.is_live(rd.end.anchor),
                        "live read r{i} has dead end"
                    );
                    assert!(self.pos_lt(rd.start, rd.end), "read r{i} interval inverted");
                }
            }
        }
        // Reader and writer lists: sorted by position, members live.
        for (ri, rd) in self.reads.iter().enumerate() {
            if !rd.live {
                continue;
            }
            // The read must be in its modref's reader list.
            let mut found = false;
            let mut r = self.heap.meta(rd.modref).reads_head;
            let mut prev: Option<Pos> = None;
            while r != crate::heap::NIL {
                let node = &self.reads[r as usize];
                assert!(node.live, "reader list contains dead read r{r}");
                if let Some(p) = prev {
                    assert!(self.pos_lt(p, node.start), "reader list unsorted");
                }
                prev = Some(node.start);
                if r as usize == ri {
                    found = true;
                }
                r = node.next_reader;
            }
            assert!(found, "live read r{ri} missing from its reader list");
        }
        for (wi, wr) in self.writes.iter().enumerate() {
            if !wr.live {
                continue;
            }
            let mut found = false;
            let mut w = self.heap.meta(wr.modref).writes_head;
            let mut prev: Option<Pos> = None;
            while w != crate::heap::NIL {
                let node = &self.writes[w as usize];
                assert!(node.live, "write list contains dead write w{w}");
                if let Some(p) = prev {
                    assert!(self.pos_lt(p, node.pos), "write list unsorted");
                }
                prev = Some(node.pos);
                if w as usize == wi {
                    found = true;
                }
                w = node.next_write;
            }
            assert!(found, "live write w{wi} missing from its write list");
        }
        // Memo table entries point at live reads whose recomputed keys
        // match their bucket.
        for (&h, &entries) in &self.memo_table {
            let mut scratch = [0u32; 1];
            for &r in entries.records(&self.spill, &mut scratch) {
                let rd = &self.reads[r as usize];
                assert!(rd.live, "memo table holds dead read r{r}");
                let key = hash_key(
                    0x5EAD,
                    rd.modref.0 as u64,
                    rd.func.0 as u64,
                    &rd.args,
                    Some(rd.last_value),
                );
                assert_eq!(key, h, "memo hash mismatch for r{r}");
            }
        }
        for (&h, &entries) in &self.alloc_table {
            let mut scratch = [0u32; 1];
            for &a in entries.records(&self.spill, &mut scratch) {
                let al = &self.allocs[a as usize];
                assert!(al.live, "alloc table holds dead alloc a{a}");
                assert_eq!(al.key_hash, h, "alloc hash mismatch for a{a}");
            }
        }
        for &q in &self.queue {
            assert!(self.reads[q as usize].queued, "queue entry not flagged");
            let start = self.reads[q as usize].start;
            assert!(
                !start.is_none() && self.ord.is_live(start.anchor),
                "queued read start slot missing"
            );
        }
    }
}

/// A leased re-execution context: one region's exclusive, mutable
/// grip on the engine.
///
/// A `RegionCx` pairs a shared, structurally-immutable
/// [`EngineCore`] (program, config, interner,
/// site tables — everything invocation needs but never mutates) with
/// exclusive ownership of a [`RegionState`] (span arenas, propagation
/// queue, heap cursor, memo buckets) and a private [`OpCounters`]
/// baseline captured at lease time. All core-execution entry points —
/// [`RegionCx::write`], [`RegionCx::alloc`], [`RegionCx::call`], the
/// trampoline behind [`RegionCx::run_core`] and
/// [`RegionCx::propagate`] — take `&mut RegionCx`, never the whole
/// [`Engine`](super::Engine); native function bodies receive exactly
/// this type.
///
/// `RegionCx` dereferences to its [`RegionState`], so region state
/// reads ([`RegionState::load`], queue length, statistics) work
/// directly on a leased context.
///
/// The lease is the compile-time seam for parallel change propagation:
/// a `RegionCx` holds no `Rc` and no interior mutability, so it is
/// `Send` and a future scheduler can hand disjoint regions to worker
/// threads without API churn. Pinned here:
///
/// ```
/// fn assert_send<T: Send>() {}
/// assert_send::<ceal_runtime::RegionCx<'static>>();
/// ```
pub struct RegionCx<'a> {
    pub(crate) core: &'a EngineCore,
    pub(crate) state: &'a mut RegionState,
    /// Counter snapshot taken when the lease was created;
    /// [`RegionCx::counters_delta`] reports work relative to it.
    pub(crate) baseline: OpCounters,
}

impl std::ops::Deref for RegionCx<'_> {
    type Target = RegionState;
    #[inline]
    fn deref(&self) -> &RegionState {
        self.state
    }
}

impl std::ops::DerefMut for RegionCx<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut RegionState {
        self.state
    }
}

impl<'a> RegionCx<'a> {
    pub(crate) fn new(
        core: &'a EngineCore,
        state: &'a mut RegionState,
        baseline: OpCounters,
    ) -> Self {
        RegionCx {
            core,
            state,
            baseline,
        }
    }

    /// The shared half of the engine this context was leased from.
    pub fn core(&self) -> &EngineCore {
        self.core
    }

    /// The operation counters accumulated since this context was
    /// leased: the region's private counter delta. Region deltas merge
    /// deterministically by addition ([`OpCounters::add`]) — the merge
    /// rule the future parallel scheduler relies on (DESIGN.md §16).
    pub fn counters_delta(&self) -> OpCounters {
        self.state.stats.ops.delta(&self.baseline)
    }

    /// Compares two interned strings by content (read-only access to
    /// the shared interner; cores may compare but never intern).
    pub fn str_cmp(&self, a: StrId, b: StrId) -> std::cmp::Ordering {
        self.core.interner.cmp(a, b)
    }

    /// Frees a mutator allocation (`kill` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not a live meta-level block.
    pub(crate) fn kill(&mut self, loc: Loc) {
        assert_eq!(
            self.heap.kind(loc),
            BlockKind::Meta,
            "kill of a core allocation"
        );
        self.state
            .stats
            .shrink(self.state.heap.block_len(loc) * cost::WORD);
        self.free_block_and_metas(loc);
    }

    /// Reads `m` through the propagation policy: the demand-driven
    /// observation surface.
    ///
    /// Under [`PropagationPolicy::Demand`], if any dirty marks are
    /// pending this first runs a *demand clean* — one coalesced
    /// propagation pass over the whole dirty set, reusing the same
    /// trace-order loop as [`Engine::propagate`](super::Engine::propagate) — and then reads the
    /// (now consistent) value. The pass is counted in
    /// [`OpCounters::demand_cleans`](crate::stats::OpCounters::demand_cleans) and
    /// recorded as a [`PhaseKind::DemandClean`] profile phase. An
    /// observation with no pending dirt is exactly a [`Engine::deref`](super::Engine::deref):
    /// no phase, no counters.
    ///
    /// Under [`PropagationPolicy::Eager`] this is always exactly
    /// [`Engine::deref`](super::Engine::deref) — eager mutators flush explicitly.
    ///
    /// The pass cleans the *entire* dirty set, not a slice feeding `m`:
    /// re-execution can write modifiables its old trace never touched
    /// (a branch flip), so no graph reachable from `m`'s producers
    /// over the stale trace bounds the repair soundly. Deferral and
    /// coalescing, not slicing, are where demand mode wins
    /// (DESIGN.md §14).
    pub fn observe(&mut self, m: ModRef) -> Value {
        if self.core.config.policy == PropagationPolicy::Demand
            && self.core_ran
            && !self.queue.is_empty()
        {
            let order_base = self.begin_phase(PhaseKind::DemandClean);
            self.stats.ops.demand_cleans += 1;
            self.propagate_loop();
            self.finish_phase(PhaseKind::DemandClean, order_base);
        }
        self.deref(m)
    }

    /// The body of [`Engine::modify`](super::Engine::modify): applies one mutator write,
    /// dirtying governed readers. Returns `false` when the write is a
    /// no-op (the base value already equals `v`), which
    /// `RegionCx::commit_batch` uses to count effective batch writes.
    pub(crate) fn apply_modify(&mut self, m: ModRef, v: Value) -> bool {
        // One meta lookup serves the no-op check and both list heads.
        let meta = self.heap.meta(m);
        if meta.base == v {
            return false;
        }
        let first_write = meta.writes_head;
        let reads_head = meta.reads_head;
        self.heap.meta_mut(m).base = v;
        // Dirty the reads governed by the base value: those that precede
        // every core write of `m`.
        let bound = if first_write == NIL {
            None
        } else {
            Some(self.writes[first_write as usize].pos)
        };
        let demand = self.core.config.policy == PropagationPolicy::Demand;
        let mut r = reads_head;
        while r != NIL {
            let next = self.reads[r as usize].next_reader;
            let rd = &self.reads[r as usize];
            let governed = match bound {
                None => true,
                Some(p) => self.pos_lt(rd.start, p),
            };
            if governed && rd.last_value != v {
                // Under the demand policy this push is a *dirty mark*:
                // nothing re-executes until an observation (or explicit
                // propagate) drains the set. Marking is idempotent — an
                // already-queued read is not re-marked — so
                // `dirty_marks` counts distinct dirty transitions.
                if demand && !self.reads[r as usize].queued {
                    self.stats.ops.dirty_marks += 1;
                }
                self.queue_push(r);
            } else if governed {
                // value restored before propagation: nothing to do
            } else {
                break; // readers are sorted by start; rest are past bound
            }
            r = next;
        }
        true
    }

    /// Runs core function `f` with `args` from scratch (`run_core`).
    ///
    /// May be called more than once: each call creates an additional
    /// self-adjusting core whose trace is appended after the existing
    /// ones, all updated by the same [`Engine::propagate`](super::Engine::propagate) — the richer
    /// multi-core interface the paper's actual language offers
    /// (footnote 1). Cores may share inputs and even read each other's
    /// output modifiables, as long as a later core only *reads* what an
    /// earlier core wrote (trace order is update order).
    pub fn run_core(&mut self, f: FuncId, args: &[Value]) {
        let order_base = self.begin_phase(PhaseKind::InitialRun);
        self.core_ran = true;
        self.executing = true;
        // Append after all existing trace (before the end sentinel):
        // position at the tail of the last interval, or on the start
        // sentinel when the trace is empty (sentinels own no spans, so
        // the first append opens a fresh interval after it).
        let last_b = self.ord.prev(self.ord.last());
        self.cur = Pos {
            anchor: last_b,
            off: self.span_end_off(last_b),
        };
        self.window_read = None;
        self.run_chain(f, ArgVec::from_slice(args));
        self.executing = false;
        self.finish_phase(PhaseKind::InitialRun, order_base);
    }

    /// Propagates all pending modifications (`propagate`), re-executing
    /// dirty reads in trace order until the computation is consistent
    /// with the modified data.
    ///
    /// Equivalent to committing the edits staged since the last
    /// propagation as one [`EditBatch`](crate::batch::EditBatch) —
    /// [`Engine::batch`](super::Engine::batch) + `commit()` is the same pass over the same
    /// queue, with the staging (and its write coalescing) done up
    /// front.
    ///
    /// Works identically under both propagation policies: under
    /// [`PropagationPolicy::Demand`] it is the explicit flush, draining
    /// every pending dirty mark (the same pass [`Engine::observe`](super::Engine::observe)
    /// would run on demand).
    pub fn propagate(&mut self) {
        assert!(self.core_ran, "propagate before run_core");
        let order_base = self.begin_phase(PhaseKind::Propagate);
        self.stats.ops.propagations += 1;
        self.propagate_loop();
        self.finish_phase(PhaseKind::Propagate, order_base);
    }

    /// The propagation pass shared by [`Engine::propagate`](super::Engine::propagate) and
    /// `RegionCx::commit_batch`: drains the dirty queue in trace order,
    /// then frees blocks whose allocations were purged. The caller owns
    /// the surrounding profile phase (the profiler rejects nested
    /// phases, so a batch commit must not open a second one here).
    fn propagate_loop(&mut self) {
        self.executing = true;
        // Park the cursor on the start sentinel: a stale cursor from the
        // previous run would pin its interval against disposal.
        self.cur = Pos {
            anchor: self.ord.first(),
            off: 0,
        };
        while let Some(r) = self.queue_pop() {
            let rd = &self.reads[r as usize];
            let (m, start) = (rd.modref, rd.start);
            let v = self.value_at(m, start);
            if v == self.reads[r as usize].last_value {
                self.stats.ops.reads_skipped += 1;
                continue;
            }
            self.re_execute(r, v);
        }
        self.executing = false;
        self.flush_pending_free();
    }

    /// Applies a staged edit batch: every write dirties its readers
    /// first, then one propagation pass updates the computation, then
    /// staged kills run against the propagated trace. Called by
    /// [`EditBatch::commit`](crate::batch::EditBatch::commit); `writes`
    /// arrive already coalesced (at most one per modifiable).
    ///
    /// Under [`PropagationPolicy::Demand`] the pass is deferred: the
    /// commit stages coalesced dirty marks and returns, and the next
    /// [`Engine::observe`](super::Engine::observe) (or explicit [`Engine::propagate`](super::Engine::propagate)) pays for
    /// the repair — unless the batch stages kills, which force the
    /// pass so freed blocks cannot be left with dangling dirty
    /// readers.
    ///
    /// A commit whose writes are all no-ops (each value equals the
    /// current contents) and which stages no kills returns before
    /// touching any counter or opening a profile phase, so an empty
    /// commit is invisible to [`OpCounters`].
    pub(crate) fn commit_batch(&mut self, writes: &[(ModRef, Value)], kills: &[Loc]) {
        let any_effective = writes.iter().any(|&(m, v)| self.heap.meta(m).base != v);
        if !any_effective && kills.is_empty() {
            return;
        }
        let order_base = self.begin_phase(PhaseKind::Batch);
        self.stats.ops.batch_commits += 1;
        for &(m, v) in writes {
            if self.apply_modify(m, v) {
                self.stats.ops.batch_writes += 1;
            }
        }
        // Under the demand policy a commit only coalesces and stages
        // the dirty marks — the pass is deferred to the next
        // observation. EXCEPT when kills are staged: freeing a block
        // asserts its modifiables have no surviving readers, which
        // only the propagation pass (re-executing past the unlinking
        // writes) guarantees. A kill-carrying commit therefore cleans
        // first in either policy, so staged kills can never leave
        // dangling dirty edges into freed blocks.
        if self.core_ran {
            let defer = self.core.config.policy == PropagationPolicy::Demand && kills.is_empty();
            if !defer {
                self.stats.ops.propagations += 1;
                self.propagate_loop();
            }
        }
        // Kills run after propagation: unlinking writes have already
        // re-executed (and purged) the readers of the doomed blocks'
        // modifiables, which collection asserts.
        for &loc in kills {
            self.kill(loc);
        }
        self.finish_phase(PhaseKind::Batch, order_base);
    }

    /// Purges the entire core trace, returning the engine to its
    /// pre-[`Engine::run_core`](super::Engine::run_core) state: every trace record is trashed,
    /// core allocations (and the modifiables they own) are collected,
    /// and the dirty queue is drained. Meta-level state — mutator
    /// modifiables, meta allocations, the interner — survives, so
    /// `live_bytes` returns to its pre-run floor (tested in
    /// `tests/stats_invariants.rs`) and a fresh core can be run against
    /// the same inputs.
    ///
    /// When several cores coexist (repeated `run_core`), all of their
    /// traces are purged together.
    ///
    /// # Panics
    ///
    /// Panics if called during core execution.
    pub fn clear_core(&mut self) {
        assert!(!self.executing, "clear_core during core execution");
        let order_base = self.begin_phase(PhaseKind::Purge);
        let (first, last) = (self.ord.first(), self.ord.last());
        // Park the cursor on the start sentinel *before* trashing: a
        // cursor inside the trace would pin its interval's boundary
        // against disposal, and the walk below disposes every interval.
        self.cur = Pos {
            anchor: first,
            off: 0,
        };
        self.trash(
            self.cur,
            Pos {
                anchor: last,
                off: 0,
            },
        );
        // Every read is dead now; one pop drains the queued zombies and
        // releases their deferred slots (and the spans they pinned).
        let drained = self.queue_pop();
        debug_assert!(drained.is_none(), "live read survived a full trace purge");
        self.flush_pending_free();
        debug_assert_eq!(self.ord.len(), 0, "trace not empty after clear_core");
        debug_assert_eq!(self.live_slots, 0, "live slots after clear_core");
        self.window_read = None;
        self.core_ran = false;
        self.finish_phase(PhaseKind::Purge, order_base);
    }

    // ------------------------------------------------------------------
    // Core operations — §2 "The Core Language" / Fig. 11 RTS interface.
    // ------------------------------------------------------------------

    /// Writes `v` into modifiable `m` (`write` / `modref_write`).
    /// Creates a write trace record and dirties downstream reads whose
    /// observed value changed.
    ///
    /// # Panics
    ///
    /// Panics if called outside core execution.
    pub fn write(&mut self, m: ModRef, v: Value) {
        assert!(self.executing, "core write outside core execution");
        self.sim_op();
        // One walk of the write list finds both the previous value at
        // the cursor and the insertion position: the new record's time
        // is immediately after the cursor, so no write lies between.
        let cur = self.state.cur;
        let after = self.find_write_at(m, cur);
        let prev = if after == NIL {
            self.heap.meta(m).base
        } else {
            self.writes[after as usize].value
        };
        let idx = self.alloc_write_slot();
        let p = self.append_record(TAG_WRITE, idx, TraceKind::Write, SiteId::NONE);
        let node = &mut self.writes[idx as usize];
        node.modref = m;
        node.value = v;
        node.pos = p;
        node.live = true;
        self.stats.ops.writes_created += 1;
        self.stats.grow(cost::WRITE_NODE);
        self.link_write_after(m, idx, after);
        self.heap.meta_mut(m).cache_write = idx;
        if self.debug_log && prev != v {
            eprintln!("  WRITE {m:?} := {v:?} (was {prev:?})");
        }
        if prev != v {
            // Dirty reads in (p, next write); they observed `prev`.
            let next_bound = {
                let nw = self.writes[idx as usize].next_write;
                if nw == NIL {
                    None
                } else {
                    Some(self.writes[nw as usize].pos)
                }
            };
            let mut r = self.heap.meta(m).reads_head;
            while r != NIL {
                let next = self.reads[r as usize].next_reader;
                let rd = &self.reads[r as usize];
                if self.pos_lt(p, rd.start) {
                    match next_bound {
                        Some(b) if !self.pos_lt(rd.start, b) => break,
                        _ => {
                            if rd.last_value != v {
                                self.queue_push(r);
                            }
                        }
                    }
                }
                r = next;
            }
        }
    }

    /// Creates a standalone modifiable in the core (`modref()`).
    /// Implemented as a keyed allocation of a one-slot block holding the
    /// modifiable, so that re-executions reuse the same location.
    ///
    /// All un-keyed modifiables share one allocation key; programs that
    /// create many should use [`RegionCx::modref_keyed`] so reuse lookups
    /// stay fast and re-executions re-pair with "their" modifiable.
    pub fn modref(&mut self) -> ModRef {
        self.modref_keyed_at(SiteId::NONE, &[])
    }

    /// Creates a standalone modifiable whose allocation is keyed by
    /// `key` (typically the data the modifiable is "about"), exactly
    /// like the key arguments of [`RegionCx::alloc`].
    pub fn modref_keyed(&mut self, key: &[Value]) -> ModRef {
        self.modref_keyed_at(SiteId::NONE, key)
    }

    /// [`RegionCx::modref_keyed`] with an explicit program-point
    /// attribution; the executors (VM, clvm) route every compiled
    /// `modref`/`modref_keyed` command through here so event hooks see
    /// the originating site. The site never enters the allocation key.
    pub fn modref_keyed_at(&mut self, site: SiteId, key: &[Value]) -> ModRef {
        let loc = self.alloc_at(site, 1, MODREF_INIT, key);
        self.heap.load(loc, 0).modref()
    }

    /// Stores into a block currently being initialized. CL's
    /// correct-usage restriction 1 (§4.2): arrays are side-effected only
    /// during initialization.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not under initialization.
    pub fn store(&mut self, loc: Loc, off: usize, v: Value) {
        assert!(
            self.init_stack.contains(&loc),
            "store to {loc:?} outside its initializer (write-once violation)"
        );
        self.heap.store(loc, off, v);
    }

    /// Creates a modifiable in slot `off` of a block being initialized
    /// (`modref_init` placed via `allocate`, Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not under initialization.
    pub fn modref_init(&mut self, loc: Loc, off: usize) -> ModRef {
        assert!(
            self.init_stack.contains(&loc),
            "modref_init on {loc:?} outside its initializer"
        );
        let m = self.heap.alloc_meta(Value::Nil, Some(loc));
        if self.debug_log {
            eprintln!("  META {m:?} owner={loc:?} slot={off}");
        }
        self.stats.grow(cost::META);
        self.heap.store(loc, off, Value::ModRef(m));
        m
    }

    /// Allocates a `words`-slot block and initializes it by running
    /// `init(loc, args...)` (`allocate`, Fig. 11).
    ///
    /// During re-execution with keyed allocation enabled, a matching
    /// allocation in the discarded window is *stolen*: the same location
    /// is returned (initialization is skipped — contents are a function
    /// of the key) and the allocation record moves to the new trace.
    ///
    /// # Panics
    ///
    /// Panics if called outside core execution.
    pub fn alloc(&mut self, words: usize, init: FuncId, args: &[Value]) -> Loc {
        self.alloc_at(SiteId::NONE, words, init, args)
    }

    /// [`RegionCx::alloc`] with an explicit program-point attribution.
    /// The site is carried on the allocation record and reported in
    /// every event the record produces (create, steal, purge); it is
    /// deliberately excluded from the allocation key, so attributed and
    /// unattributed runs make identical stealing decisions.
    pub fn alloc_at(&mut self, site: SiteId, words: usize, init: FuncId, args: &[Value]) -> Loc {
        assert!(self.executing, "core alloc outside core execution");
        self.sim_op();
        let key_hash = hash_key(0xA110C, words as u64, init.0 as u64, args, None);
        if self.core.config.keyed_alloc && self.window_read.is_some() {
            if let Some(idx) = self.find_stealable(key_hash, words, init, args) {
                return self.steal_alloc(idx, site);
            }
        }
        let loc = self.heap.alloc_block(words, BlockKind::Core);
        self.stats.grow(words * cost::WORD);
        let idx = self.alloc_alloc_slot();
        let p = self.append_record(TAG_ALLOC, idx, TraceKind::Alloc, site);
        let node = &mut self.allocs[idx as usize];
        node.key_hash = key_hash;
        node.words = words as u32;
        node.init = init;
        node.args = args.into();
        node.loc = loc;
        node.pos = p;
        node.live = true;
        node.site = site;
        self.stats.ops.allocs_created += 1;
        self.stats
            .grow(cost::ALLOC_NODE + args.len() * cost::ARG_WORD);
        Bucket::add(
            &mut self.state.alloc_table,
            &mut self.state.spill,
            key_hash,
            idx,
        );
        if self.debug_log {
            eprintln!(
                "  FRESH-ALLOC a{idx} loc={loc:?} key_args={args:?} at@{}",
                self.ord.label(p.anchor)
            );
        }
        // Run the initializer.
        if init == MODREF_INIT {
            let m = self.heap.alloc_meta(Value::Nil, Some(loc));
            if self.debug_log {
                eprintln!("  META {m:?} owner={loc:?} (standalone modref)");
            }
            self.stats.grow(cost::META);
            self.heap.store(loc, 0, Value::ModRef(m));
        } else {
            self.init_stack.push(loc);
            let init_args = ArgVec::prepend(Value::Ptr(loc), args);
            self.run_init_chain(init, init_args);
            let popped = self.init_stack.pop();
            debug_assert_eq!(popped, Some(loc));
        }
        loc
    }

    /// Runs an initializer's tail-call chain. Initializers may allocate
    /// and store, but §4.2's correct-usage restriction 2 forbids them
    /// from reading or writing modifiables — reads are rejected here
    /// (writes are already impossible before `modref_init`, and traced
    /// writes inside initializers would corrupt the allocation's
    /// reuse contract).
    ///
    /// # Panics
    ///
    /// Panics if the initializer performs a read.
    fn run_init_chain(&mut self, f: FuncId, args: ArgVec) {
        let core = self.core;
        let mut f = f;
        let mut args = args;
        loop {
            match core.program.invoke(f, self, &args) {
                Tail::Done => return,
                Tail::Call(g, a) => {
                    f = g;
                    args = a;
                }
                Tail::Read(..) => {
                    panic!(
                        "initializer `{}` performed a read (violates §4.2 restriction 2)",
                        core.program.name(f)
                    )
                }
            }
        }
    }

    /// Performs a (non-tail) call of core function `f`: a fresh
    /// trampoline runs `f`'s tail-call chain to completion (the CL
    /// `call` command; translated as `closure_run(f(x))`, Fig. 12).
    pub fn call(&mut self, f: FuncId, args: &[Value]) {
        assert!(self.executing, "core call outside core execution");
        self.run_chain(f, ArgVec::from_slice(args));
    }

    /// SML-simulation hook: allocate boxing garbage and, when the heap
    /// headroom is exhausted, run a mark pass over the live trace.
    #[inline]
    fn sim_op(&mut self) {
        let Some(sim) = self.core.config.sml_sim else {
            return;
        };
        let bytes = sim.box_words * 8 * sim.boxes_per_op;
        for _ in 0..sim.boxes_per_op {
            self.sim_garbage
                .push(vec![0u64; sim.box_words].into_boxed_slice());
        }
        self.sim_since_gc += bytes;
        self.stats.grow(bytes);
        let live = self.stats.live_bytes - self.sim_since_gc.min(self.stats.live_bytes);
        let headroom = match sim.heap_limit {
            Some(limit) => limit.saturating_sub(live).max(4 * 1024),
            None => 8 << 20,
        };
        if self.sim_since_gc >= headroom {
            self.sim_gc();
        }
    }

    /// A tracing collection: mark cost proportional to the live trace,
    /// then the garbage is dropped (swept).
    fn sim_gc(&mut self) {
        self.stats.gc_runs += 1;
        // Mark: walk every interval boundary and its live records.
        let mut t = self.ord.first();
        let mut marked = 0u64;
        while !t.is_none() {
            marked += 1;
            if let Some(&si) = self.span_of.get(t.index()) {
                if si != SPAN_NONE {
                    marked += self.spans[si as usize].live as u64;
                }
            }
            if t == self.ord.last() {
                break;
            }
            t = self.ord.next(t);
        }
        self.stats.gc_marked += marked;
        let garbage = self.state.sim_since_gc;
        self.state.stats.shrink(garbage);
        self.sim_since_gc = 0;
        self.sim_garbage.clear();
    }

    // ------------------------------------------------------------------
    // Trampoline and trace construction.
    // ------------------------------------------------------------------

    fn run_chain(&mut self, f: FuncId, args: ArgVec) {
        let base = self.open.len();
        let core = self.core;
        let mut f = f;
        // One buffer carries the chain's arguments; the read step
        // reuses it instead of building a fresh list per link.
        let mut args = args;
        loop {
            let tail = core.program.invoke(f, self, &args);
            match tail {
                Tail::Done => break,
                Tail::Call(g, a) => {
                    f = g;
                    args = a;
                }
                Tail::Read(m, g, a, site) => {
                    // The memo probe already resolves the current value
                    // and memo key; hand both to `new_read` on a miss so
                    // the write-list walk and hash run once per step.
                    let mut pre = None;
                    if self.core.config.memo && self.window_read.is_some() {
                        let v = self.value_at_cur_for(m);
                        let key_hash = hash_key(0x5EAD, m.0 as u64, g.0 as u64, &a, Some(v));
                        if let Some(hit) = self.find_memo_match(m, g, &a, v, key_hash) {
                            self.splice_to(hit, site);
                            break;
                        }
                        self.stats.ops.memo_misses += 1;
                        self.emit(Event::MemoMiss { site });
                        pre = Some((v, key_hash));
                    }
                    let (r, v) = self.new_read(m, g, a, pre, site);
                    self.open.push(r);
                    args.clear();
                    args.push(v);
                    args.extend_from_slice(&self.reads[r as usize].args);
                    f = g;
                }
            }
        }
        // Close the intervals of reads opened by this chain, innermost
        // first, so intervals nest properly.
        while self.open.len() > base {
            let r = self.open.pop().expect("open stack underflow");
            let site = self.reads[r as usize].site;
            let p = self.append_record(TAG_READ_END, r, TraceKind::ReadEnd, site);
            self.reads[r as usize].end = p;
        }
    }

    /// `pre` carries the `(value, memo key)` pair when the caller's memo
    /// probe already resolved them; no write can land between the probe
    /// and the read's fresh timestamp, so the pair stays valid.
    fn new_read(
        &mut self,
        m: ModRef,
        f: FuncId,
        args: ArgVec,
        pre: Option<(Value, u64)>,
        site: SiteId,
    ) -> (u32, Value) {
        self.sim_op();
        if self.debug_log {
            eprintln!(
                "  NEW-READ {m:?} func={} args={args:?} cur@{}",
                self.core.program.name(f),
                self.ord.label(self.cur.anchor)
            );
        }
        let idx = self.alloc_read_slot();
        let p = self.append_record(TAG_READ, idx, TraceKind::Read, site);
        if self.debug_log {
            eprintln!(
                "    (new read id r{idx} at {p:?}@{})",
                self.ord.label(p.anchor)
            );
        }
        let (v, key_hash) = match pre {
            Some(p) => p,
            None => {
                let v = self.value_at(m, p);
                (v, hash_key(0x5EAD, m.0 as u64, f.0 as u64, &args, Some(v)))
            }
        };
        let arg_bytes = args.len() * cost::ARG_WORD;
        let node = &mut self.reads[idx as usize];
        node.modref = m;
        node.func = f;
        node.args = args;
        node.last_value = v;
        node.start = p;
        node.end = Pos::NONE;
        node.queued = false;
        node.live = true;
        node.site = site;
        self.stats.ops.reads_created += 1;
        self.stats.grow(cost::READ_NODE + arg_bytes);
        self.link_reader_sorted(m, idx);
        Bucket::add(
            &mut self.state.memo_table,
            &mut self.state.spill,
            key_hash,
            idx,
        );
        (idx, v)
    }

    /// Searches the memo table for a read in the current window matching
    /// (m, f, args, current value). Returns the earliest match.
    fn find_memo_match(
        &mut self,
        m: ModRef,
        f: FuncId,
        args: &[Value],
        v: Value,
        key_hash: u64,
    ) -> Option<u32> {
        let wend = self.window_end_pos()?;
        let b = self.memo_table.get(&key_hash).copied()?;
        let mut scratch = [0u32; 1];
        let cands = b.records(&self.spill, &mut scratch);
        let mut best: Option<u32> = None;
        for &idx in cands {
            let rd = &self.reads[idx as usize];
            if !rd.live
                || rd.modref != m
                || rd.func != f
                || rd.last_value != v
                || rd.args.as_slice() != args
            {
                continue;
            }
            if rd.end.is_none() {
                continue; // a read opened by the current chain
            }
            // Strictly inside the window: start after the insertion
            // point, whole interval before the window end.
            if self.pos_lt(self.cur, rd.start)
                && self.pos_lt(rd.start, wend)
                && self.pos_lt(rd.end, wend)
            {
                match best {
                    None => best = Some(idx),
                    Some(b) if self.pos_lt(rd.start, self.reads[b as usize].start) => {
                        best = Some(idx)
                    }
                    _ => {}
                }
            }
        }
        best
    }

    /// Reuses read `hit`'s subtrace: purge the old trace between the
    /// insertion point and `hit`, then continue after `hit`'s interval.
    fn splice_to(&mut self, hit: u32, site: SiteId) {
        if self.debug_log {
            eprintln!(
                "  MEMO-HIT r{hit} func={} modref={:?} seg=({}..{}) cur@{}",
                self.core.program.name(self.reads[hit as usize].func),
                self.reads[hit as usize].modref,
                self.ord.label(self.reads[hit as usize].start.anchor),
                self.ord.label(self.reads[hit as usize].end.anchor),
                self.ord.label(self.cur.anchor)
            );
        }
        self.stats.ops.memo_hits += 1;
        self.emit(Event::MemoHit { read: hit, site });
        let start = self.reads[hit as usize].start;
        let old_anchor = self.cur.anchor;
        self.trash(self.cur, start);
        self.cur = self.reads[hit as usize].end;
        self.maybe_dispose(old_anchor);
    }

    fn re_execute(&mut self, r: u32, v: Value) {
        debug_assert!(self.reads[r as usize].live);
        let saved_cur = self.cur;
        let saved_window = self.window_read;
        let start = self.reads[r as usize].start;
        let end = self.reads[r as usize].end;
        self.cur = start;
        self.window_read = Some(r);
        // Refresh the read's memo identity under the new value. The
        // removal hashes the *old* last_value, so it must run first.
        self.memo_remove(r);
        self.reads[r as usize].last_value = v;
        let key_hash = {
            let node = &self.reads[r as usize];
            hash_key(
                0x5EAD,
                node.modref.0 as u64,
                node.func.0 as u64,
                &node.args,
                Some(v),
            )
        };
        Bucket::add(
            &mut self.state.memo_table,
            &mut self.state.spill,
            key_hash,
            r,
        );
        self.stats.ops.reads_reexecuted += 1;
        let site = self.reads[r as usize].site;
        self.emit(Event::ReadReexecuted { read: r, site });

        let f = self.reads[r as usize].func;
        let args = ArgVec::prepend(v, &self.reads[r as usize].args);
        if self.debug_log {
            eprintln!(
                "REEXEC r{r} func={} modref={:?} v={:?} args={:?} window=({:?}@{},{:?}@{})",
                self.core.program.name(f),
                self.reads[r as usize].modref,
                v,
                &args[1..],
                start,
                self.ord.label(start.anchor),
                end,
                self.ord.label(end.anchor)
            );
        }
        self.run_chain(f, args);
        // Splits during re-execution may have relocated the window end;
        // re-derive it from the read node.
        let wend = self.reads[r as usize].end;
        debug_assert!(!wend.is_none(), "window vanished");
        self.trash(self.cur, wend);
        self.cur = saved_cur;
        self.window_read = saved_window;
    }

    // ------------------------------------------------------------------
    // Keyed allocation.
    // ------------------------------------------------------------------

    fn find_stealable(
        &self,
        key_hash: u64,
        words: usize,
        init: FuncId,
        args: &[Value],
    ) -> Option<u32> {
        let wend = self.window_end_pos()?;
        let b = self.alloc_table.get(&key_hash).copied()?;
        let mut scratch = [0u32; 1];
        let cands = b.records(&self.spill, &mut scratch);
        let mut best: Option<u32> = None;
        for &idx in cands {
            let a = &self.allocs[idx as usize];
            if !a.live || a.words as usize != words || a.init != init || a.args.as_ref() != args {
                continue;
            }
            if self.pos_lt(self.cur, a.pos) && self.pos_lt(a.pos, wend) {
                match best {
                    None => best = Some(idx),
                    Some(b) if self.pos_lt(a.pos, self.allocs[b as usize].pos) => best = Some(idx),
                    _ => {}
                }
            }
        }
        best
    }

    /// Reuses allocation record `idx` from the discarded region,
    /// keeping its block (and the modifiables inside) alive with the
    /// same identity.
    ///
    /// Reuse is *monotone*, exactly like memo reuse: the trace between
    /// the insertion point and the stolen record is purged and the
    /// insertion point advances past it. (A non-monotone steal could
    /// pluck a block out of a region that a later memo match reuses,
    /// leaving that reused segment reading the block in its old role
    /// while the block serves a new one.)
    fn steal_alloc(&mut self, idx: u32, site: SiteId) -> Loc {
        if self.debug_log {
            eprintln!(
                "  STEAL a{idx} loc={:?} key_args={:?} at@{} cur@{}",
                self.allocs[idx as usize].loc,
                self.allocs[idx as usize].args,
                self.ord.label(self.allocs[idx as usize].pos.anchor),
                self.ord.label(self.cur.anchor)
            );
        }
        self.stats.ops.allocs_stolen += 1;
        self.emit(Event::AllocStolen { alloc: idx, site });
        self.allocs[idx as usize].site = site;
        let p = self.allocs[idx as usize].pos;
        let old_anchor = self.cur.anchor;
        self.trash(self.cur, p);
        // Re-read: the merge at the end of the purge can relocate the
        // alloc's slot.
        self.cur = self.allocs[idx as usize].pos;
        self.maybe_dispose(old_anchor);
        self.allocs[idx as usize].loc
    }

    // ------------------------------------------------------------------
    // Trace purging.
    // ------------------------------------------------------------------

    /// Purges the trace strictly between positions `from` and `to`:
    /// removes every record the new execution did not reuse, undoing
    /// its effects (reader registrations, memo entries, writes,
    /// allocations). Fully purged intermediate intervals are disposed
    /// whole — O(1) storage reclamation per interval; the record
    /// finalizers walk the packed slots of each span contiguously.
    fn trash(&mut self, from: Pos, to: Pos) {
        // All walks start no earlier than the span's `head`: the slots
        // below it are tombstones, already purged and reported.
        if from.anchor == to.anchor {
            let head = self.span_head(from.anchor) as usize;
            let start = (from.off as usize).max(head);
            for i in start..(to.off as usize).saturating_sub(1) {
                self.purge_slot(from.anchor, i);
            }
            return;
        }
        // Tail of the from-interval (slots strictly after `from`).
        let from_len = self.span_len(from.anchor) as usize;
        let from_head = self.span_head(from.anchor) as usize;
        for i in (from.off as usize).max(from_head)..from_len {
            self.purge_slot(from.anchor, i);
        }
        // Whole intermediate intervals.
        let mut b = self.ord.next(from.anchor);
        while b != to.anchor {
            debug_assert!(!b.is_none(), "trash ran past the trace end");
            let next = self.ord.next(b);
            let len = self.span_len(b) as usize;
            for i in self.span_head(b) as usize..len {
                self.purge_slot(b, i);
            }
            self.maybe_dispose(b);
            b = next;
        }
        // Head of the to-interval (slots strictly before `to`).
        for i in self.span_head(to.anchor) as usize..(to.off as usize).saturating_sub(1) {
            self.purge_slot(to.anchor, i);
        }
    }

    /// Purges one span slot (0-based index `i` under boundary `a`):
    /// runs the record's purge effects, tombstones the slot and reports
    /// `TracePurged`. Tombstoned slots are skipped silently — their
    /// record was already purged and reported. A dead-but-queued read
    /// keeps its start slot live until popped (the queue orders by it)
    /// and is re-reported by every covering purge walk, matching the
    /// node-per-action trace event stream exactly.
    fn purge_slot(&mut self, a: Time, i: usize) {
        let si = self.span_of[a.index()] as usize;
        let s = self.spans[si].slots[i];
        let tag = slot_tag(s);
        let idx = slot_idx(s);
        match tag {
            TAG_TOMB => return,
            TAG_READ => {
                let r = idx;
                if self.reads[r as usize].live {
                    self.trash_read(r);
                }
                if !self.reads[r as usize].queued {
                    self.tomb_slot(si, i);
                    self.reads[r as usize].start = Pos::NONE;
                    self.maybe_free_read_slot(r);
                }
            }
            TAG_READ_END => {
                let r = idx;
                debug_assert!(
                    !self.reads[r as usize].live,
                    "interval end purged before its start"
                );
                self.tomb_slot(si, i);
                self.reads[r as usize].end = Pos::NONE;
                self.maybe_free_read_slot(r);
            }
            TAG_WRITE => {
                self.trash_write(idx);
                self.tomb_slot(si, i);
            }
            TAG_ALLOC => {
                self.trash_alloc(idx);
                self.tomb_slot(si, i);
            }
            _ => unreachable!("invalid slot tag"),
        }
        self.stats.ops.nodes_purged += 1;
        // Record fields survive the purge (record slots are recycled,
        // not cleared), so the site is still readable here.
        let site = match tag {
            TAG_READ | TAG_READ_END => self.reads[idx as usize].site,
            TAG_ALLOC => self.allocs[idx as usize].site,
            _ => SiteId::NONE,
        };
        self.emit(Event::TracePurged {
            kind: tag_trace_kind(tag),
            index: idx,
            site,
            interval: a.index() as u32,
        });
    }

    fn trash_read(&mut self, r: u32) {
        if self.debug_log {
            eprintln!(
                "  PURGE-READ r{r} func={} modref={:?} interval=({:?}@{},{:?})",
                self.core.program.name(self.reads[r as usize].func),
                self.reads[r as usize].modref,
                self.reads[r as usize].start,
                self.ord.label(self.reads[r as usize].start.anchor),
                self.reads[r as usize].end
            );
        }
        debug_assert!(self.reads[r as usize].live);
        self.unlink_reader(r);
        self.memo_remove(r);
        let node = &mut self.reads[r as usize];
        node.live = false;
        let bytes = cost::READ_NODE + node.args.len() * cost::ARG_WORD;
        self.stats.shrink(bytes);
    }

    fn trash_write(&mut self, w: u32) {
        debug_assert!(self.writes[w as usize].live);
        let m = self.writes[w as usize].modref;
        let wpos = self.writes[w as usize].pos;
        let wvalue = self.writes[w as usize].value;
        let next_write = self.writes[w as usize].next_write;
        self.unlink_write(w);
        // Reads in (wpos, next write) were governed by this write; they
        // are now governed by whatever precedes. Dirty those whose value
        // changes.
        let newval = self.value_at(m, wpos);
        if newval != wvalue {
            let bound = if next_write == NIL {
                None
            } else {
                Some(self.writes[next_write as usize].pos)
            };
            let mut r = self.heap.meta(m).reads_head;
            while r != NIL {
                let next = self.reads[r as usize].next_reader;
                let rd = &self.reads[r as usize];
                if self.pos_lt(wpos, rd.start) {
                    match bound {
                        Some(b) if !self.pos_lt(rd.start, b) => break,
                        _ => {
                            if rd.last_value != newval {
                                self.queue_push(r);
                            }
                        }
                    }
                }
                r = next;
            }
        }
        self.writes[w as usize].live = false;
        self.free_writes.push(w);
        self.stats.shrink(cost::WRITE_NODE);
    }

    fn trash_alloc(&mut self, a: u32) {
        if self.debug_log {
            eprintln!(
                "  PURGE-ALLOC a{a} loc={:?} key_args={:?}",
                self.allocs[a as usize].loc, self.allocs[a as usize].args
            );
        }
        debug_assert!(self.allocs[a as usize].live);
        let node = &mut self.allocs[a as usize];
        node.live = false;
        let key = node.key_hash;
        let loc = node.loc;
        let bytes = cost::ALLOC_NODE + node.args.len() * cost::ARG_WORD;
        Bucket::remove(&mut self.state.alloc_table, &mut self.state.spill, key, a);
        self.free_allocs.push(a);
        self.stats.shrink(bytes);
        self.stats.ops.blocks_collected += 1;
        self.pending_free.push(loc);
    }

    /// Frees blocks whose allocations were purged, together with the
    /// modifiables they own. Deferred to the end of propagation so that
    /// later purge steps can still unlink their trace records.
    fn flush_pending_free(&mut self) {
        while let Some(loc) = self.pending_free.pop() {
            self.state
                .stats
                .shrink(self.state.heap.block_len(loc) * cost::WORD);
            self.free_block_and_metas(loc);
        }
    }

    fn free_block_and_metas(&mut self, loc: Loc) {
        let metas: Vec<ModRef> = self
            .heap
            .block_slots(loc)
            .filter_map(|v| v.as_modref())
            .filter(|&m| self.heap.meta_is_live(m) && self.heap.meta(m).owner == Some(loc))
            .collect();
        for m in metas {
            #[cfg(debug_assertions)]
            {
                let r = self.heap.meta(m).reads_head;
                if r != NIL {
                    let rd = &self.reads[r as usize];
                    let lb = if self.ord.is_live(rd.start.anchor) {
                        self.ord.label(rd.start.anchor)
                    } else {
                        0
                    };
                    panic!(
                        "collected modifiable {m:?} still has reader r{r}: func={} live={} queued={} last_value={:?} interval=({:?}@{lb},{:?})",
                        self.core.program.name(rd.func),
                        rd.live,
                        rd.queued,
                        rd.last_value,
                        rd.start,
                        rd.end
                    );
                }
            }
            debug_assert_eq!(self.heap.meta(m).writes_head, NIL);
            if self.debug_log {
                eprintln!("  FREE-META {m:?} owner={loc:?}");
            }
            self.heap.free_meta(m);
            self.stats.shrink(cost::META);
        }
        self.heap.free_block(loc);
    }
}

#[cfg(test)]
mod bucket_tests {
    //! Collision-path tests for the packed memo/alloc bucket and its
    //! spill arena. The inline single-record fast path dominates in
    //! real traces, so the spill transitions (1→2 records, un-spill
    //! back to 1, arena slot reuse) get little incidental coverage —
    //! they are pinned here against a straightforward `HashMap<u64,
    //! Vec<u32>>` model.

    use super::{Bucket, KeyMap, Spill, MANY};
    use crate::prng::Prng;
    use std::collections::HashMap;

    fn records(map: &KeyMap, spill: &Spill, key: u64) -> Vec<u32> {
        let mut scratch = [0u32; 1];
        match map.get(&key) {
            None => Vec::new(),
            Some(b) => {
                let mut v = b.records(spill, &mut scratch).to_vec();
                v.sort_unstable();
                v
            }
        }
    }

    #[test]
    fn single_record_stays_inline() {
        let mut map = KeyMap::default();
        let mut spill = Spill::default();
        Bucket::add(&mut map, &mut spill, 42, 7);
        assert_eq!(map[&42].0 & MANY, 0, "single record must not spill");
        assert!(spill.lists.is_empty());
        assert_eq!(records(&map, &spill, 42), vec![7]);
        Bucket::remove(&mut map, &mut spill, 42, 7);
        assert!(map.is_empty());
    }

    #[test]
    fn collision_spills_and_unspills() {
        let mut map = KeyMap::default();
        let mut spill = Spill::default();
        Bucket::add(&mut map, &mut spill, 1, 10);
        Bucket::add(&mut map, &mut spill, 1, 11);
        assert_ne!(map[&1].0 & MANY, 0, "second record must spill");
        assert_eq!(records(&map, &spill, 1), vec![10, 11]);

        // Removing back to one record must fold the bucket inline and
        // recycle the arena slot.
        Bucket::remove(&mut map, &mut spill, 1, 10);
        assert_eq!(map[&1].0 & MANY, 0, "one record left: must un-spill");
        assert_eq!(records(&map, &spill, 1), vec![11]);
        assert_eq!(spill.free.len(), 1, "arena slot must be freed");

        // The freed slot is reused by the next collision (any key).
        Bucket::add(&mut map, &mut spill, 2, 20);
        Bucket::add(&mut map, &mut spill, 2, 21);
        assert_eq!(spill.lists.len(), 1, "freed slot must be reused, not grown");
        assert!(spill.free.is_empty());
        assert_eq!(records(&map, &spill, 2), vec![20, 21]);
    }

    #[test]
    fn remove_missing_record_is_noop() {
        let mut map = KeyMap::default();
        let mut spill = Spill::default();
        Bucket::remove(&mut map, &mut spill, 5, 1); // absent key
        Bucket::add(&mut map, &mut spill, 5, 1);
        Bucket::remove(&mut map, &mut spill, 5, 99); // wrong record, inline
        assert_eq!(records(&map, &spill, 5), vec![1]);
        Bucket::add(&mut map, &mut spill, 5, 2);
        Bucket::remove(&mut map, &mut spill, 5, 99); // wrong record, spilled
        assert_eq!(records(&map, &spill, 5), vec![1, 2]);
    }

    #[test]
    fn randomized_against_model() {
        let mut rng = Prng::seed_from_u64(0xB0C4);
        let mut map = KeyMap::default();
        let mut spill = Spill::default();
        let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
        // Few keys and records, so collisions and empty-removals are
        // common; 10k steps cover every transition many times over.
        for _ in 0..10_000 {
            let key = rng.gen_range(0u64..8);
            let x = rng.gen_range(0u32..6);
            if rng.gen_bool(0.55) {
                // The real structure allows duplicate records per key
                // only if callers never add the same (key, x) twice —
                // mirror that contract here.
                if !model.entry(key).or_default().contains(&x) {
                    model.get_mut(&key).unwrap().push(x);
                    Bucket::add(&mut map, &mut spill, key, x);
                }
            } else {
                if let Some(v) = model.get_mut(&key) {
                    v.retain(|&y| y != x);
                    if v.is_empty() {
                        model.remove(&key);
                    }
                }
                Bucket::remove(&mut map, &mut spill, key, x);
            }
            for k in 0u64..8 {
                let mut want = model.get(&k).cloned().unwrap_or_default();
                want.sort_unstable();
                assert_eq!(records(&map, &spill, k), want, "key {k} diverged");
            }
        }
        // Arena bookkeeping: every list index is either live under a
        // MANY bucket or on the free list, exactly once.
        let live: Vec<usize> = map
            .values()
            .filter(|b| b.0 & MANY != 0)
            .map(|b| (b.0 & !MANY) as usize)
            .collect();
        let mut seen: Vec<usize> = live
            .iter()
            .copied()
            .chain(spill.free.iter().map(|&i| i as usize))
            .collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..spill.lists.len()).collect();
        assert_eq!(seen, expect, "spill arena slot leaked or double-tracked");
    }
}
