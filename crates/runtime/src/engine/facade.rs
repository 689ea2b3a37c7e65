//! The mutator-facing [`Engine`] facade over the core/region split.
//!
//! `Engine` owns one [`EngineCore`] and one [`RegionState`] and keeps
//! the public mutator API of the pre-split engine — `modify`,
//! `observe`, `propagate`, `run_core`, batching, profiling — as thin
//! drivers that lease a [`RegionCx`] internally and run it to
//! completion. Code that executes *inside* a core (native function
//! bodies, the VM's runtime entry points) never sees this type; it
//! receives the leased `&mut RegionCx` instead.

use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use super::core::{EngineConfig, EngineCore, PropagationPolicy};
use super::region::{RegionCx, RegionState};
use crate::error::CealError;
use crate::obs::{EventHook, Profile};
use crate::program::Program;
use crate::stats::{OpCounters, Stats};
use crate::value::{FuncId, Interner, Loc, ModRef, StrId, Value};

/// The self-adjusting computation engine.
///
/// An `Engine` hosts one or more core computations: the mutator
/// constructs inputs with the meta-level operations
/// ([`Engine::meta_modref`], [`Engine::meta_alloc`], [`Engine::modify`],
/// [`Engine::deref`]), runs cores with [`Engine::run_core`] (multiple
/// cores may coexist — the paper's footnote 1), and thereafter
/// alternates [`Engine::modify`] and [`Engine::propagate`] (§2, Fig. 3).
///
/// Internally the engine is split (DESIGN.md §16) into a shared
/// [`EngineCore`] (program, config, interner — never mutated during
/// execution) and a [`RegionState`] (trace arenas, queue, heap — all
/// the mutable state); every driver method leases a [`RegionCx`] over
/// the pair. [`Engine::lease_region`] exposes the same lease to
/// callers that want to drive propagation region-by-region.
///
/// `Engine` itself stays single-threaded (`!Send`): leases hand out
/// `&mut` state, and the mutator API is not synchronized. The `Send`
/// seam is [`RegionCx`].
///
/// # Examples
///
/// ```
/// use ceal_runtime::api::{Engine, ProgramBuilder, Tail, Value};
///
/// // Core: copy the input modifiable into the output modifiable.
/// let mut b = ProgramBuilder::new();
/// let body = b.native("copy_body", |e, args| {
///     let out = args[1].modref();
///     e.write(out, args[0]);
///     Tail::Done
/// });
/// let copy = b.native("copy", move |_e, args| {
///     Tail::read(args[0].modref(), body, &args[1..])
/// });
///
/// let mut e = Engine::new(b.build());
/// let inp = e.meta_modref();
/// let out = e.meta_modref();
/// e.modify(inp, Value::Int(1));
/// e.run_core(copy, &[Value::ModRef(inp), Value::ModRef(out)]);
/// assert_eq!(e.deref(out), Value::Int(1));
///
/// e.modify(inp, Value::Int(7));
/// e.propagate();
/// assert_eq!(e.deref(out), Value::Int(7));
/// ```
pub struct Engine {
    pub(crate) core: EngineCore,
    pub(crate) state: RegionState,
    /// The facade is deliberately `!Send`: a leased region borrows
    /// state exclusively, and the mutator surface is unsynchronized.
    /// (The service crate's session sharding relies on this staying a
    /// compile error; see its `compile_fail` doctest.)
    _not_send: PhantomData<Rc<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("trace_len", &self.state.live_slots)
            .field("queue", &self.state.queue.len())
            .field("stats", &self.state.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an engine for `program` with the default configuration.
    pub fn new(program: Arc<Program>) -> Self {
        Self::with_config(program, EngineConfig::default()).expect("default config is valid")
    }

    /// Creates an engine with explicit feature switches (for ablations).
    ///
    /// # Errors
    ///
    /// Returns [`CealError::InvalidConfig`] when `config` fails
    /// [`EngineConfig::validate`] (for example an SML simulation with
    /// zero-sized boxes). Internal engine invariants remain panics —
    /// this boundary only validates user-supplied inputs.
    pub fn with_config(program: Arc<Program>, config: EngineConfig) -> Result<Self, CealError> {
        config.validate()?;
        Ok(Engine {
            core: EngineCore {
                program,
                config,
                interner: Interner::new(),
            },
            state: RegionState::new(),
            _not_send: PhantomData,
        })
    }

    /// Leases the internal region context without touching the counter
    /// baseline: the zero-cost lease every facade driver uses.
    #[inline]
    pub(crate) fn cx(&mut self) -> RegionCx<'_> {
        RegionCx::new(&self.core, &mut self.state, OpCounters::default())
    }

    /// Leases this engine's single region as an explicit [`RegionCx`],
    /// capturing an [`OpCounters`] baseline so the lease can report its
    /// private counter delta ([`RegionCx::counters_delta`]) when the
    /// region completes.
    ///
    /// The lease borrows the engine exclusively, so exactly one region
    /// context exists at a time; drive it with [`RegionCx::propagate`]
    /// (or [`RegionCx::run_core`]) and drop it to return control to the
    /// facade. Re-executing two disjoint dirty regions through two
    /// sequential leases produces the same trace, values and merged
    /// counter deltas as one combined pass — the determinism rule the
    /// future parallel scheduler builds on (DESIGN.md §16).
    pub fn lease_region(&mut self) -> RegionCx<'_> {
        let baseline = OpCounters::from_stats(&self.state.stats);
        RegionCx::new(&self.core, &mut self.state, baseline)
    }

    /// The shared half of the engine: program, configuration, interner.
    pub fn core(&self) -> &EngineCore {
        &self.core
    }

    // ------------------------------------------------------------------
    // Observability (DESIGN.md §10): profiling phases and event hooks.
    // ------------------------------------------------------------------

    /// Turns on per-phase counter scoping: from now on every
    /// [`Engine::run_core`], [`Engine::propagate`] and
    /// [`Engine::clear_core`] records the counter work it did as one
    /// [`crate::obs::Phase`]. Costs one counter snapshot per phase,
    /// nothing in per-read hot paths.
    ///
    /// Enable before the first `run_core` if you want phase counters to
    /// sum to the lifetime totals (they are deltas of the same
    /// counters, so enabling from the start makes the sum an identity).
    pub fn enable_profiling(&mut self) {
        if self.state.profiler.is_none() {
            self.state.profiler = Some(Default::default());
        }
    }

    /// Whether [`Engine::enable_profiling`] has been called.
    pub fn profiling_enabled(&self) -> bool {
        self.state.profiler.is_some()
    }

    /// The recorded phases so far (empty slice when profiling is off).
    pub fn profiled_phases(&self) -> &[crate::obs::Phase] {
        self.state
            .profiler
            .as_ref()
            .map(|p| p.phases())
            .unwrap_or(&[])
    }

    /// Drains the recorded phases into a [`Profile`] report labelled
    /// `name`, together with the lifetime counters and space gauges.
    /// Profiling stays enabled; subsequent phases start a new profile.
    pub fn take_profile(&mut self, name: &str) -> Profile {
        let phases = self
            .state
            .profiler
            .as_mut()
            .map(|p| p.take_phases())
            .unwrap_or_default();
        Profile {
            name: name.to_string(),
            phases,
            lifetime: self.state.stats.op_counters(),
            trace_len: self.state.live_slots as u64,
            live_bytes: self.state.stats.live_bytes as u64,
            max_live_bytes: self.state.stats.max_live_bytes as u64,
        }
    }

    /// Drains the recorded phases without building a [`Profile`] — the
    /// per-request form used by the service telemetry layer, which
    /// aggregates the slice into [`crate::obs::PhaseCost`] rows and
    /// must not pay a report allocation on every request. Profiling
    /// stays enabled; returns an empty vec when it never was.
    pub fn drain_phases(&mut self) -> Vec<crate::obs::Phase> {
        self.state
            .profiler
            .as_mut()
            .map(|p| p.take_phases())
            .unwrap_or_default()
    }

    /// Installs an event sink called synchronously at read
    /// re-execution, memo hit/miss, allocation stealing, trace
    /// create/purge, and order-maintenance sites. Replaces any
    /// previously installed hook.
    pub fn set_event_hook(&mut self, hook: Box<dyn EventHook>) {
        self.state.hook = Some(hook);
    }

    /// Removes and returns the installed event hook, if any.
    pub fn clear_event_hook(&mut self) -> Option<Box<dyn EventHook>> {
        self.state.hook.take()
    }

    /// Run-time statistics (counters and live-space accounting).
    pub fn stats(&self) -> &Stats {
        &self.state.stats
    }

    /// The engine's propagation policy (from its [`EngineConfig`]).
    pub fn policy(&self) -> PropagationPolicy {
        self.core.config.policy
    }

    /// Restarts the live-space high-water mark at the current live
    /// size, so a subsequent phase's peak is measured on its own. The
    /// monotone operation counters are left untouched — the profiler's
    /// phase deltas and the counter gate depend on them never going
    /// backwards.
    pub fn reset_stats(&mut self) {
        self.state.stats.max_live_bytes = self.state.stats.live_bytes;
    }

    /// The engine's string interner.
    pub fn interner(&self) -> &Interner {
        &self.core.interner
    }

    /// Interns a string, returning a `Value::Str`. Interning is a
    /// mutator-level operation: it mutates the shared [`EngineCore`],
    /// so it cannot run while a region lease is outstanding (the
    /// borrow checker enforces exactly that).
    pub fn intern(&mut self, s: &str) -> Value {
        Value::Str(self.core.interner.intern(s))
    }

    /// Compares two interned strings by content.
    pub fn str_cmp(&self, a: StrId, b: StrId) -> std::cmp::Ordering {
        self.core.interner.cmp(a, b)
    }

    /// Number of live trace records (diagnostics). Counts non-tombstone
    /// span slots: a live read contributes its start and end, a write
    /// or allocation one slot each — the same count the node-per-action
    /// representation reported as live timestamps.
    pub fn trace_len(&self) -> usize {
        self.state.live_slots
    }

    /// Number of live interval boundaries in the trace (diagnostics).
    /// Each owns one order-maintenance timestamp and one span arena.
    pub fn interval_count(&self) -> usize {
        self.state.ord.len()
    }

    /// Number of pooled span arenas available for reuse (diagnostics;
    /// `clear_core` returns every span here with capacity intact).
    pub fn pooled_spans(&self) -> usize {
        self.state.free_spans.len()
    }

    /// Number of dirty reads awaiting propagation.
    pub fn queue_len(&self) -> usize {
        self.state.queue.len()
    }

    /// Turns per-operation stderr trace logging on or off (small
    /// inputs only; used by the engine's own debugging sessions).
    pub fn set_debug_log(&mut self, on: bool) {
        self.state.debug_log = on;
    }

    // ------------------------------------------------------------------
    // Meta (mutator) operations — §2 "The Meta Language".
    // ------------------------------------------------------------------

    /// Creates a modifiable at the meta level (`modref` in the paper).
    pub fn meta_modref(&mut self) -> ModRef {
        self.state.meta_modref()
    }

    /// Allocates an untraced block (`alloc` in the meta language). Must
    /// be freed explicitly with [`Engine::kill`].
    pub fn meta_alloc(&mut self, words: usize) -> Loc {
        self.state.meta_alloc(words)
    }

    /// Frees a mutator allocation (`kill` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not a live meta-level block.
    pub fn kill(&mut self, loc: Loc) {
        self.cx().kill(loc);
    }

    /// Creates a modifiable inside a meta-level block slot, so mutators
    /// can build linked structures whose links the core reads.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not a meta-level block.
    pub fn meta_modref_in(&mut self, loc: Loc, off: usize) -> ModRef {
        self.state.meta_modref_in(loc, off)
    }

    /// Stores into a meta-level block (mutator-owned memory is not
    /// write-once).
    pub fn meta_store(&mut self, loc: Loc, off: usize, v: Value) {
        self.state.meta_store(loc, off, v);
    }

    /// Reads a block slot (untracked: non-modifiable core memory is
    /// write-once, §4.2, so no dependence needs recording).
    #[inline]
    pub fn load(&self, loc: Loc, off: usize) -> Value {
        self.state.load(loc, off)
    }

    /// Reads the current contents of a modifiable (`deref`).
    ///
    /// This is a raw peek at the trace: it never triggers propagation.
    /// Under [`PropagationPolicy::Eager`] the mutator keeps the trace
    /// consistent itself (`propagate` after edits), so a peek between
    /// rounds is exact. Under [`PropagationPolicy::Demand`] dirty marks
    /// may be pending; use [`Engine::observe`] to get the value a fully
    /// propagated trace would hold, or [`Engine::checked_deref`] to
    /// make the staleness hazard a typed error.
    pub fn deref(&self, m: ModRef) -> Value {
        self.state.deref(m)
    }

    /// [`Engine::deref`] that refuses to return a possibly-stale value.
    ///
    /// Under [`PropagationPolicy::Demand`] a raw `deref` while dirty
    /// marks are pending reads the unpropagated trace — a correct peek,
    /// but almost always a bug when the caller meant `observe`. This
    /// variant closes the `deref`/`observe` asymmetry: it returns
    /// [`CealError::StaleRead`] in exactly that situation (demand
    /// policy, a core has run, and the dirty set is non-empty) and the
    /// raw peek otherwise. It takes `&self` and never propagates; call
    /// [`Engine::observe`] to clean on demand instead.
    ///
    /// # Errors
    ///
    /// Returns [`CealError::StaleRead`] when pending demand-mode dirty
    /// marks could make the raw value stale.
    pub fn checked_deref(&self, m: ModRef) -> Result<Value, CealError> {
        if self.core.config.policy == PropagationPolicy::Demand
            && self.state.core_ran
            && !self.state.queue.is_empty()
        {
            return Err(CealError::StaleRead {
                modref: m.0,
                pending: self.state.queue.len(),
            });
        }
        Ok(self.state.deref(m))
    }

    /// Reads `m` through the propagation policy: the demand-driven
    /// observation surface. See [`RegionCx::observe`] for the policy
    /// semantics (this facade leases a region and delegates).
    pub fn observe(&mut self, m: ModRef) -> Value {
        self.cx().observe(m)
    }

    /// Modifies the contents of `m` (`modify`), dirtying the reads that
    /// observed the previous value so the next [`Engine::propagate`]
    /// updates the computation.
    ///
    /// Equivalent to staging the single write in an
    /// [`EditBatch`](crate::batch::EditBatch) without committing:
    /// `modify` + [`Engine::propagate`] is the one-element special case
    /// of [`Engine::batch`] + `commit()`, kept as the convenient
    /// interface for sparse edits.
    pub fn modify(&mut self, m: ModRef, v: Value) {
        self.cx().apply_modify(m, v);
    }

    /// Runs core function `f` with `args` from scratch (`run_core`);
    /// leases a region and delegates to [`RegionCx::run_core`].
    pub fn run_core(&mut self, f: FuncId, args: &[Value]) {
        self.cx().run_core(f, args);
    }

    /// Propagates all pending modifications (`propagate`); leases a
    /// region and delegates to [`RegionCx::propagate`].
    ///
    /// # Panics
    ///
    /// Panics if no core has been run yet.
    pub fn propagate(&mut self) {
        self.cx().propagate();
    }

    /// Applies a staged edit batch (see [`RegionCx::commit_batch`]).
    /// Called by [`EditBatch::commit`](crate::batch::EditBatch::commit).
    pub(crate) fn commit_batch(&mut self, writes: &[(ModRef, Value)], kills: &[Loc]) {
        self.cx().commit_batch(writes, kills);
    }

    /// Purges the entire core trace (see [`RegionCx::clear_core`]).
    ///
    /// # Panics
    ///
    /// Panics if called during core execution.
    pub fn clear_core(&mut self) {
        self.cx().clear_core();
    }

    // ------------------------------------------------------------------
    // Test/debug support.
    // ------------------------------------------------------------------

    /// Renders the current trace (the dynamic dependence graph, §1) as
    /// text: one line per record in trace order, with read intervals,
    /// their closures, and write/alloc records. Intended for debugging
    /// and teaching; size is O(trace), so use on small computations.
    pub fn dump_trace(&self) -> String {
        self.state.dump_trace_with(&self.core.program)
    }

    /// The program's site table (program points for event attribution;
    /// empty for hand-assembled native programs).
    pub fn sites(&self) -> &crate::program::SiteTable {
        self.core.program.sites()
    }

    /// Renders the live dynamic dependence graph as Graphviz DOT:
    /// modifiables (ellipses) → reads (boxes, labelled with closure,
    /// site and timestamp interval) → writes (diamonds) → modifiables,
    /// with dotted containment edges from each read to the records its
    /// interval contains. Deterministic; size is O(trace).
    pub fn ddg_dot(&self) -> String {
        self.state.ddg_dot_with(&self.core.program)
    }

    /// The live dynamic dependence graph as JSON (schema
    /// `ceal-ddg/v1`): arrays of read, write and allocation records
    /// with trace-walk positions as timestamp intervals, plus the
    /// modifiable → read and read → write/alloc edges implied by the
    /// fields. Deterministic; pairs with [`Engine::ddg_dot`].
    pub fn ddg_json(&self) -> String {
        self.state.ddg_json_with(&self.core.program)
    }

    /// Checks internal invariants (test support): order-list linkage,
    /// interval/span consistency (spans disjoint, covering the trace,
    /// with exact live counts and byte accounting), reader/writer list
    /// sorting and membership, memo-table liveness, and queue flags.
    pub fn check_invariants(&self) {
        self.state.check_invariants();
    }
}
