//! Observability invariants (DESIGN.md §10): phase counters are exact
//! deltas of the lifetime counters, space gauges behave like gauges,
//! full trace purges return the footprint to its pre-run floor, and
//! turning the profiler/event hooks on does not perturb execution.

use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;

/// f(x) = x/3 + x/7 + x/9, the paper's map function (§8.2).
fn paper_map_fn(x: i64) -> i64 {
    x / 3 + x / 7 + x / 9
}

/// The `map` core program in normalized trampolined form (same shape as
/// `tests/lists.rs`; small enough to run many sessions).
fn build_map() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let init_cell = b.native("init_cell", |e, args| {
        let loc = args[0].ptr();
        e.store(loc, 0, args[1]);
        e.modref_init(loc, 1);
        Tail::Done
    });
    let map_body = b.declare("map_body");
    let map = b.declare("map");
    b.define_native(map, move |_e, args| {
        Tail::read(args[0].modref(), map_body, &args[1..])
    });
    b.define_native(map_body, move |e, args| {
        let out_m = args[1].modref();
        match args[0] {
            Value::Nil => {
                e.write(out_m, Value::Nil);
                Tail::Done
            }
            v => {
                let cell = v.ptr();
                let h = e.load(cell, 0).int();
                let next_in = e.load(cell, 1).modref();
                let out_cell = e.alloc(
                    2,
                    init_cell,
                    &[Value::Int(paper_map_fn(h)), Value::Ptr(cell)],
                );
                e.write(out_m, Value::Ptr(out_cell));
                let next_out = e.load(out_cell, 1).modref();
                Tail::read(next_in, map_body, &[Value::ModRef(next_out)])
            }
        }
    });
    (b.build(), map)
}

struct InputList {
    head: ModRef,
    cells: Vec<(Value, ModRef)>,
}

fn build_input(e: &mut Engine, data: &[i64]) -> InputList {
    let head = e.meta_modref();
    let mut cells = Vec::with_capacity(data.len());
    let mut slot = head;
    for &x in data {
        let c = e.meta_alloc(2);
        e.meta_store(c, 0, Value::Int(x));
        let next = e.meta_modref_in(c, 1);
        e.modify(slot, Value::Ptr(c));
        cells.push((Value::Ptr(c), slot));
        slot = next;
    }
    e.modify(slot, Value::Nil);
    InputList { head, cells }
}

fn collect_output(e: &Engine, head: ModRef) -> Vec<i64> {
    let mut out = Vec::new();
    let mut v = e.deref(head);
    while let Value::Ptr(c) = v {
        out.push(e.load(c, 0).int());
        v = e.deref(e.load(c, 1).modref());
    }
    assert_eq!(v, Value::Nil);
    out
}

/// Runs a deterministic map session — build input, run the core, 2×
/// `edits` delete/insert propagations — against a pre-built engine.
/// Returns the output after the last propagation.
fn drive_session(e: &mut Engine, map: FuncId, n: usize, edits: usize, seed: u64) -> Vec<i64> {
    drive_session_with(e, map, n, edits, seed, |_| {})
}

/// [`drive_session`] with a read-only observation callback invoked at
/// the halfway point of the edit script — the hook for testing that
/// mid-run exports do not perturb the session.
fn drive_session_with(
    e: &mut Engine,
    map: FuncId,
    n: usize,
    edits: usize,
    seed: u64,
    mut mid: impl FnMut(&Engine),
) -> Vec<i64> {
    let mut rng = Prng::seed_from_u64(seed);
    let data: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
    let input = build_input(e, &data);
    let out_head = e.meta_modref();
    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);
    for k in 0..edits {
        let i = rng.gen_range(0..n as u64) as usize;
        let (cell, slot) = input.cells[i];
        let after = e.deref(e.load(cell.ptr(), 1).modref());
        e.modify(slot, after);
        e.propagate();
        e.modify(slot, cell);
        e.propagate();
        if k == edits / 2 {
            mid(e);
        }
    }
    collect_output(e, out_head)
}

/// A full trace purge returns `live_bytes` exactly to the pre-run floor:
/// everything the core built (trace nodes, core blocks, closure
/// environments) is collected, everything the mutator built survives.
#[test]
fn live_bytes_returns_to_floor_after_clear_core() {
    let (prog, map) = build_map();
    let mut e = Engine::new(prog);
    let mut rng = Prng::seed_from_u64(7);
    let data: Vec<i64> = (0..200).map(|_| rng.gen_range(0..1_000_000)).collect();
    let input = build_input(&mut e, &data);
    let out_head = e.meta_modref();

    let floor = e.stats().live_bytes;
    let trace_floor = e.trace_len();
    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);
    assert!(e.stats().live_bytes > floor, "core run accounted no space");

    // A few propagations so the purge also covers re-executed trace.
    for i in [3usize, 50, 120] {
        let (cell, slot) = input.cells[i];
        let after = e.deref(e.load(cell.ptr(), 1).modref());
        e.modify(slot, after);
        e.propagate();
        e.modify(slot, cell);
        e.propagate();
    }

    e.clear_core();
    e.check_invariants();
    assert_eq!(e.stats().live_bytes, floor, "purge missed core space");
    assert_eq!(e.trace_len(), trace_floor, "purge left trace records");
    assert_eq!(e.interval_count(), 0, "purge left interval boundaries");
    // Span arenas are pooled, not freed: the next session reuses them.
    let pooled = e.pooled_spans();
    assert!(pooled > 0, "clear_core pooled no span arenas");

    // The engine is reusable: a fresh core run produces the right output.
    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);
    let expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    assert_eq!(collect_output(&e, out_head), expect);
    assert!(
        e.pooled_spans() < pooled,
        "rebuild session did not draw spans from the pool"
    );

    // A rebuild cycle is allocation-neutral: the second purge returns
    // every span to the pool, growing it by nothing.
    e.clear_core();
    e.check_invariants();
    assert_eq!(
        e.stats().live_bytes,
        floor,
        "second purge missed core space"
    );
    assert_eq!(
        e.pooled_spans(),
        pooled,
        "rebuild session allocated fresh span arenas instead of reusing the pool"
    );
}

/// `max_live_bytes` is a high-water mark: it never decreases and always
/// dominates `live_bytes`, across runs, propagations and purges.
#[test]
fn max_live_is_monotone_and_dominates_live() {
    let (prog, map) = build_map();
    let mut e = Engine::new(prog);
    let mut rng = Prng::seed_from_u64(11);
    let data: Vec<i64> = (0..150).map(|_| rng.gen_range(0..1_000_000)).collect();
    let input = build_input(&mut e, &data);
    let out_head = e.meta_modref();

    let mut last_max = e.stats().max_live_bytes;
    let mut check = |e: &Engine, what: &str| {
        let s = e.stats();
        assert!(s.max_live_bytes >= s.live_bytes, "{what}: max below live");
        assert!(s.max_live_bytes >= last_max, "{what}: high-water mark fell");
        last_max = s.max_live_bytes;
    };

    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);
    check(&e, "after run_core");
    for k in 0..20 {
        let i = rng.gen_range(0..150) as usize;
        let (cell, slot) = input.cells[i];
        let after = e.deref(e.load(cell.ptr(), 1).modref());
        e.modify(slot, after);
        e.propagate();
        check(&e, "after delete-propagate");
        e.modify(slot, cell);
        e.propagate();
        check(&e, "after insert-propagate");
        if k == 9 {
            e.clear_core();
            check(&e, "after clear_core");
            e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);
            check(&e, "after re-run");
        }
    }
}

/// With profiling enabled from engine creation, the per-phase counters
/// sum (counter by counter) to the lifetime totals — the deltas
/// partition the engine's whole history.
#[test]
fn phase_counters_sum_to_lifetime_totals() {
    let (prog, map) = build_map();
    let mut e = Engine::new(prog);
    e.enable_profiling();
    assert!(e.profiling_enabled());
    drive_session(&mut e, map, 250, 40, 21);
    e.clear_core();

    let profile = e.take_profile("map");
    assert!(!profile.phases.is_empty());
    let mut summed = OpCounters::default();
    for p in &profile.phases {
        summed.add(&p.counters);
    }
    assert_eq!(
        summed, profile.lifetime,
        "phase deltas do not partition the lifetime"
    );
    assert_eq!(profile.lifetime, e.stats().op_counters());

    // Phase bookkeeping: one init run, 80 propagations, one purge, and
    // per-kind sequence numbers count each kind separately.
    let (ni, _) = profile.total(PhaseKind::InitialRun);
    let (np, prop) = profile.total(PhaseKind::Propagate);
    let (nu, _) = profile.total(PhaseKind::Purge);
    assert_eq!((ni, np, nu), (1, 80, 1));
    assert_eq!(prop.propagations, 80);
    assert_eq!(profile.phases.last().unwrap().kind, PhaseKind::Purge);
    assert_eq!(profile.phases.last().unwrap().trace_len, 0);

    // take_profile drained the phases; the next phase starts fresh.
    assert!(e.profiled_phases().is_empty());
}

/// The event hook sees exactly the operations the lifetime counters
/// count: the tallies of a [`CountingHook`] match the corresponding
/// [`Stats`] deltas.
#[test]
fn event_hook_tallies_match_stats() {
    use std::sync::{Arc, Mutex};

    use ceal_runtime::obs::CountingHook;

    let (prog, map) = build_map();
    let mut e = Engine::new(prog);
    let hook = Arc::new(Mutex::new(CountingHook::default()));
    e.set_event_hook(Box::new(Arc::clone(&hook)));

    drive_session(&mut e, map, 200, 30, 33);
    e.clear_core();

    let s = e.stats().clone();
    let h = hook.lock().unwrap();
    assert_eq!(h.reads_reexecuted, s.reads_reexecuted);
    assert_eq!(h.memo_hits, s.memo_hits);
    assert_eq!(h.memo_misses, s.memo_misses);
    assert_eq!(h.allocs_stolen, s.allocs_stolen);
    assert_eq!(h.trace_purged, s.nodes_purged);
    assert!(h.memo_hits > 0, "session exercised no memo hits");
    assert!(h.allocs_stolen > 0, "session exercised no keyed stealing");
    // Every trace record ever created was purged by the final
    // clear_core, and trace creations dominate purges at all times.
    assert_eq!(h.trace_created, h.trace_purged);
    drop(h);

    // clear_event_hook returns the sink and stops deliveries.
    let taken = e.clear_event_hook();
    assert!(taken.is_some());
}

/// Profiling and event hooks are observers: running the same session
/// with both enabled produces bit-identical outputs and statistics.
#[test]
fn observers_do_not_perturb_execution() {
    let (prog, map) = build_map();
    let mut plain = Engine::new(prog);
    let out_plain = drive_session(&mut plain, map, 180, 25, 55);

    let (prog2, map2) = build_map();
    let mut observed = Engine::new(prog2);
    observed.enable_profiling();
    observed.set_event_hook(Box::new(ceal_runtime::obs::CountingHook::default()));
    let out_observed = drive_session(&mut observed, map2, 180, 25, 55);

    assert_eq!(out_plain, out_observed);
    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.trace_len(), observed.trace_len());
}

/// The [`TraceRecorder`] is a pure observer even when its exporters run
/// *mid-session*: a recorded run — with the Perfetto timeline, the
/// attribution table and both DDG snapshots exported halfway through
/// the edit script — produces byte-identical outputs, [`OpCounters`]
/// and full [`Stats`] to an unobserved run.
#[test]
fn trace_recorder_does_not_perturb_execution() {
    use std::sync::Arc;

    let (prog, map) = build_map();
    let mut plain = Engine::new(prog);
    let out_plain = drive_session(&mut plain, map, 180, 25, 55);
    plain.clear_core();

    let (prog2, map2) = build_map();
    let mut traced = Engine::new(prog2);
    let rec = TraceRecorder::shared();
    traced.set_event_hook(Box::new(Arc::clone(&rec)));
    let rec_mid = Arc::clone(&rec);
    let out_traced = drive_session_with(&mut traced, map2, 180, 25, 55, |e| {
        // Every exporter is read-only; run them all mid-session.
        let r = rec_mid.lock().unwrap();
        assert!(!r.chrome_trace_json(e.sites()).is_empty());
        assert!(!r.attribution(e.sites()).render_table().is_empty());
        assert!(!e.ddg_dot().is_empty());
        assert!(!e.ddg_json().is_empty());
    });
    traced.clear_core();

    assert_eq!(out_plain, out_traced);
    assert_eq!(
        plain.stats().op_counters(),
        traced.stats().op_counters(),
        "recording perturbed the deterministic operation counters"
    );
    assert_eq!(plain.stats(), traced.stats());
    assert_eq!(plain.trace_len(), traced.trace_len());

    // The recorded stream is non-trivial and its digest is reproducible:
    // replaying the identical session yields the identical digest.
    assert!(!rec.lock().unwrap().is_empty());
    let (prog3, map3) = build_map();
    let mut replay = Engine::new(prog3);
    let rec2 = TraceRecorder::shared();
    replay.set_event_hook(Box::new(Arc::clone(&rec2)));
    drive_session(&mut replay, map3, 180, 25, 55);
    replay.clear_core();
    let (rec, rec2) = (rec.lock().unwrap(), rec2.lock().unwrap());
    assert_eq!(rec.digest(), rec2.digest());
    assert_eq!(rec.events(), rec2.events());
}
