//! Modifiable lists: the substrate of the paper's list benchmarks
//! (§8.2). Tests that structural edits (delete/insert of a cell, as the
//! paper's test mutator performs) propagate correctly and in O(1)
//! amortized trace work, thanks to memoization + keyed allocation.

use ceal_runtime::prelude::*;

/// f(x) = x/3 + x/7 + x/9, the paper's map function (§8.2).
fn paper_map_fn(x: i64) -> i64 {
    x / 3 + x / 7 + x / 9
}

/// Builds the `map` core program in normalized trampolined form.
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
                // Keyed allocation: key carries the mapped value and the
                // source cell, so locations are stable across updates.
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

/// Mutator-side list: meta blocks `[data, next]`, head in a modifiable.
struct InputList {
    head: ModRef,
    /// For each element: (cell pointer, the modifiable holding it).
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

/// Walks an output list built of core cells `[data, next]`.
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

fn run_map_session(config: EngineConfig) {
    use ceal_runtime::prng::Prng;
    let mut rng = Prng::seed_from_u64(13);

    let (prog, map) = build_map();
    let mut e = Engine::with_config(prog, config).expect("test engine config is valid");

    let n = 300;
    let data: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
    let input = build_input(&mut e, &data);
    let out_head = e.meta_modref();
    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);

    let expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    assert_eq!(collect_output(&e, out_head), expect);

    // The paper's test mutator: for each element, delete it, propagate,
    // insert it back, propagate (§8.1). We sample positions randomly.
    let mut order: Vec<usize> = (0..n as usize).collect();
    rng.shuffle(&mut order);
    for &i in order.iter().take(60) {
        let (cell, slot) = input.cells[i];
        // Delete: point the predecessor's modifiable past cell i.
        let next_val = e.deref(e.load(cell.ptr(), 1).modref());
        let after = {
            // e.load of a meta block slot 1 gives the modref; its current
            // value is the successor pointer.
            let m = e.load(cell.ptr(), 1).modref();
            e.deref(m)
        };
        assert_eq!(next_val, after);
        e.modify(slot, after);
        e.propagate();
        let mut exp = expect.clone();
        exp.remove(i);
        // Elements after i that were previously deleted... none: we
        // restore after each step, so only i is missing.
        assert_eq!(
            collect_output(&e, out_head),
            exp,
            "after deleting index {i}"
        );

        // Insert it back.
        e.modify(slot, cell);
        e.propagate();
        assert_eq!(
            collect_output(&e, out_head),
            expect,
            "after re-inserting index {i}"
        );
        e.check_invariants();
    }
}

#[test]
fn map_delete_insert_round_trips() {
    run_map_session(EngineConfig::default());
}

#[test]
fn map_correct_without_memo() {
    run_map_session(EngineConfig {
        memo: false,
        keyed_alloc: true,
        sml_sim: None,
        policy: PropagationPolicy::Eager,
    });
}

#[test]
fn map_correct_without_keyed_alloc() {
    run_map_session(EngineConfig {
        memo: true,
        keyed_alloc: false,
        sml_sim: None,
        policy: PropagationPolicy::Eager,
    });
}

#[test]
fn map_correct_without_either() {
    run_map_session(EngineConfig {
        memo: false,
        keyed_alloc: false,
        sml_sim: None,
        policy: PropagationPolicy::Eager,
    });
}

/// With memoization and keyed allocation on, each edit re-executes O(1)
/// reads — this is the paper's central performance claim applied to map
/// (Table 1 reports ~1.6µs updates on 10M elements, i.e. constant).
#[test]
fn map_updates_touch_constant_trace() {
    use ceal_runtime::prng::Prng;
    let mut rng = Prng::seed_from_u64(99);

    let (prog, map) = build_map();
    let mut e = Engine::new(prog);

    let n = 2_000usize;
    let data: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
    let input = build_input(&mut e, &data);
    let out_head = e.meta_modref();
    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);

    let trace_after_run = e.trace_len();
    let before = e.stats().clone();
    let edits = 200usize;
    for _ in 0..edits {
        let i = rng.gen_range(0..n);
        let (cell, slot) = input.cells[i];
        let after = e.deref(e.load(cell.ptr(), 1).modref());
        e.modify(slot, after);
        e.propagate();
        e.modify(slot, cell);
        e.propagate();
    }
    let after_stats = e.stats().clone();
    let reexecs = after_stats.ops.reads_reexecuted - before.ops.reads_reexecuted;
    let per_edit = reexecs as f64 / (2 * edits) as f64;
    assert!(
        per_edit < 4.0,
        "expected O(1) re-executions per edit, measured {per_edit:.2}"
    );
    // The trace does not leak: size returns to the from-scratch size.
    assert!(
        (e.trace_len() as i64 - trace_after_run as i64).unsigned_abs() as usize
            <= trace_after_run / 50 + 16,
        "trace leaked: {} vs {}",
        e.trace_len(),
        trace_after_run
    );
    // Live memory is back near its post-run level too.
    assert!(
        after_stats.live_bytes <= before.live_bytes + before.live_bytes / 50 + 4096,
        "live bytes leaked: {} vs {}",
        after_stats.live_bytes,
        before.live_bytes
    );
}
