//! Transactional edit batches: coalescing, no-op elision, and the
//! consistency contract that a committed batch produces the same final
//! state as applying its effective writes one at a time, each followed
//! by a propagation (DESIGN.md §11).

use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;

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

fn fresh_map_session(n: usize, seed: u64) -> (Engine, InputList, ModRef, Vec<i64>) {
    let mut rng = Prng::seed_from_u64(seed);
    let (prog, map) = build_map();
    let mut e = Engine::new(prog);
    let data: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
    let input = build_input(&mut e, &data);
    let out_head = e.meta_modref();
    e.run_core(map, &[Value::ModRef(input.head), Value::ModRef(out_head)]);
    (e, input, out_head, data)
}

/// Several staged writes to one modifiable coalesce to the last value:
/// committing dirties each governed read once, exactly like a single
/// `modify` of the final value would.
#[test]
fn coalescing_last_write_wins() {
    let (mut e, input, out_head, data) = fresh_map_session(40, 3);
    let (_, slot) = input.cells[10];
    let after = e.deref(e.load(input.cells[10].0.ptr(), 1).modref());

    let before = e.stats().op_counters();
    let mut b = e.batch();
    b.modify(slot, Value::Nil); // overwritten below
    b.modify(slot, after); // delete element 10
    assert_eq!(b.len(), 1, "writes to one modref must coalesce");
    b.commit();
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(d.batch_commits, 1);
    assert_eq!(d.batch_writes, 1, "coalesced batch applies one write");
    assert_eq!(d.propagations, 1, "one pass per commit");
    assert_eq!(
        d.queue_pushes, 1,
        "one governed read dirtied by the single effective write"
    );

    let mut expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    expect.remove(10);
    assert_eq!(collect_output(&e, out_head), expect);
    e.check_invariants();
}

/// Writes that restate a modifiable's current value are dropped at
/// commit: nothing is dirtied and no propagation pass runs.
#[test]
fn noop_writes_are_elided() {
    let (mut e, input, out_head, data) = fresh_map_session(40, 4);
    let (_, slot) = input.cells[7];
    let current = e.deref(slot);

    let before = e.stats().op_counters();
    let mut b = e.batch();
    b.modify(slot, current);
    b.commit();
    assert_eq!(
        e.stats().op_counters(),
        before,
        "a fully elided batch must leave every counter untouched"
    );

    let expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    assert_eq!(collect_output(&e, out_head), expect);
}

/// Committing an empty batch touches no counters at all.
#[test]
fn empty_batch_commit_is_noop() {
    let (mut e, _input, _out_head, _data) = fresh_map_session(20, 5);
    let before = e.stats().op_counters();
    let b = e.batch();
    assert!(b.is_empty());
    b.commit();
    assert_eq!(e.stats().op_counters(), before);
}

/// `discard` applies nothing: staged writes vanish without a trace.
#[test]
fn discard_leaves_state_untouched() {
    let (mut e, input, out_head, data) = fresh_map_session(20, 6);
    let (_, slot) = input.cells[3];
    let before = e.stats().op_counters();
    let mut b = e.batch();
    b.modify(slot, Value::Nil);
    b.discard();
    assert_eq!(e.stats().op_counters(), before);
    let expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    assert_eq!(collect_output(&e, out_head), expect);
}

/// A committed batch of writes to distinct modifiables reaches the same
/// final output as applying them one at a time with a propagation after
/// each (the consistency contract), on the map-over-lists workload.
#[test]
fn commit_equals_sequential_on_lists() {
    let n = 120usize;
    // Delete a spread of pairwise non-adjacent elements so each edit's
    // successor value is independent of the others.
    let victims: Vec<usize> = (0..n).step_by(7).collect();

    // Route A: one modify + propagate per edit.
    let (mut ea, ia, oa, data) = fresh_map_session(n, 11);
    for &i in &victims {
        let after = ea.deref(ea.load(ia.cells[i].0.ptr(), 1).modref());
        ea.modify(ia.cells[i].1, after);
        ea.propagate();
    }

    // Route B: all edits staged in one batch, one commit.
    let (mut eb, ib, ob, data_b) = fresh_map_session(n, 11);
    assert_eq!(data, data_b, "same seed must give the same input");
    let mut b = eb.batch();
    for &i in &victims {
        let after = b.deref(b.load(ib.cells[i].0.ptr(), 1).modref());
        b.modify(ib.cells[i].1, after);
    }
    assert_eq!(b.len(), victims.len());
    b.commit();

    let out_a = collect_output(&ea, oa);
    let out_b = collect_output(&eb, ob);
    let expect: Vec<i64> = data
        .iter()
        .enumerate()
        .filter(|(i, _)| !victims.contains(i))
        .map(|(_, &x)| paper_map_fn(x))
        .collect();
    assert_eq!(out_a, expect);
    assert_eq!(out_b, expect, "batched route diverged from sequential");
    ea.check_invariants();
    eb.check_invariants();

    // The batched route needs only one propagation pass for the lot.
    assert_eq!(eb.stats().ops.propagations, 1, "one pass per commit");
    assert_eq!(
        ea.stats().ops.propagations as usize,
        victims.len(),
        "sequential route pays one pass per edit"
    );
}

const LEAF: i64 = 0;
const NODE: i64 = 1;
const PLUS: i64 = 0;
const MINUS: i64 = 1;

/// Builds the §3 expression-tree evaluator in trampolined form.
fn build_eval() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let eval = b.declare("eval");
    let read_r = b.declare("eval_read_r");
    let read_a = b.declare("eval_read_a");
    let read_b = b.declare("eval_read_b");
    b.define_native(eval, move |_e, args| {
        Tail::read(args[0].modref(), read_r, &args[1..])
    });
    b.define_native(read_r, move |e, args| {
        let t = args[0].ptr();
        let res = args[1].modref();
        if e.load(t, 0).int() == LEAF {
            e.write(res, e.load(t, 1));
            Tail::Done
        } else {
            let m_a = e.modref();
            let m_b = e.modref();
            let op = e.load(t, 1);
            e.call(eval, &[e.load(t, 2), Value::ModRef(m_a)]);
            e.call(eval, &[e.load(t, 3), Value::ModRef(m_b)]);
            Tail::read(m_a, read_a, &[Value::ModRef(res), op, Value::ModRef(m_b)])
        }
    });
    b.define_native(read_a, move |_e, args| {
        Tail::read(args[3].modref(), read_b, &[args[1], args[2], args[0]])
    });
    b.define_native(read_b, move |e, args| {
        let bval = args[0].int();
        let res = args[1].modref();
        let op = args[2].int();
        let a = args[3].int();
        let out = if op == PLUS { a + bval } else { a - bval };
        e.write(res, Value::Int(out));
        Tail::Done
    });
    (b.build(), eval)
}

fn make_leaf(e: &mut Engine, n: i64) -> Value {
    let t = e.meta_alloc(2);
    e.meta_store(t, 0, Value::Int(LEAF));
    e.meta_store(t, 1, Value::Int(n));
    Value::Ptr(t)
}

/// Complete binary tree of the given depth; returns the root value and
/// the leaf-holding modifiables.
fn make_tree(e: &mut Engine, depth: u32, leaf_slots: &mut Vec<ModRef>, rng: &mut Prng) -> Value {
    if depth == 0 {
        return make_leaf(e, rng.gen_range(-50..50));
    }
    let op = if rng.gen_bool(0.5) { PLUS } else { MINUS };
    let t = e.meta_alloc(4);
    e.meta_store(t, 0, Value::Int(NODE));
    e.meta_store(t, 1, Value::Int(op));
    let lm = e.meta_modref_in(t, 2);
    let rm = e.meta_modref_in(t, 3);
    let lv = make_tree(e, depth - 1, leaf_slots, rng);
    let rv = make_tree(e, depth - 1, leaf_slots, rng);
    e.modify(lm, lv);
    e.modify(rm, rv);
    if depth == 1 {
        leaf_slots.push(lm);
        leaf_slots.push(rm);
    }
    Value::Ptr(t)
}

/// The same consistency contract on the expression-tree workload: a
/// batch swapping many leaves at once matches the sequential route.
#[test]
fn commit_equals_sequential_on_exptrees() {
    let depth = 6u32;
    let run = |batched: bool| -> (i64, u64) {
        let mut rng = Prng::seed_from_u64(23);
        let (prog, eval) = build_eval();
        let mut e = Engine::new(prog);
        let mut slots = Vec::new();
        let tv = make_tree(&mut e, depth, &mut slots, &mut rng);
        let root = e.meta_modref();
        e.modify(root, tv);
        let result = e.meta_modref();
        e.run_core(eval, &[Value::ModRef(root), Value::ModRef(result)]);

        // Swap every fourth leaf for a fresh one.
        let edits: Vec<(ModRef, Value)> = slots
            .iter()
            .step_by(4)
            .map(|&s| {
                let v = rng.gen_range(-50..50);
                let leaf = make_leaf(&mut e, v);
                (s, leaf)
            })
            .collect();
        if batched {
            let mut b = e.batch();
            for &(s, v) in &edits {
                b.modify(s, v);
            }
            b.commit();
        } else {
            for &(s, v) in &edits {
                e.modify(s, v);
                e.propagate();
            }
        }
        e.check_invariants();
        (e.deref(result).int(), e.stats().ops.propagations)
    };
    let (seq_val, seq_props) = run(false);
    let (bat_val, bat_props) = run(true);
    assert_eq!(seq_val, bat_val, "batched route diverged on exptrees");
    assert!(bat_props < seq_props, "batching must merge passes");
}

/// Staged kills run after the propagation pass, once the dead block's
/// governed reads have been purged — so a delete-and-free of a list
/// cell is safe in one transaction.
#[test]
fn staged_kill_runs_after_propagation() {
    let (mut e, input, out_head, data) = fresh_map_session(30, 9);
    let i = 12usize;
    let (cell, slot) = input.cells[i];
    let after = e.deref(e.load(cell.ptr(), 1).modref());

    let mut b = e.batch();
    b.modify(slot, after);
    b.kill(cell.ptr());
    b.commit();

    let mut expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    expect.remove(i);
    assert_eq!(collect_output(&e, out_head), expect);
    e.check_invariants();
}

/// The deprecated per-edit surface still works and is exactly a
/// one-element batch: same output, same counter deltas.
#[test]
fn modify_propagate_is_a_one_element_batch() {
    let (mut e, input, out_head, data) = fresh_map_session(50, 14);
    let (mut e2, input2, out_head2, _) = fresh_map_session(50, 14);
    let i = 21usize;

    let before = e.stats().op_counters();
    let after = e.deref(e.load(input.cells[i].0.ptr(), 1).modref());
    e.modify(input.cells[i].1, after);
    e.propagate();
    let d_legacy = e.stats().op_counters().delta(&before);

    let before2 = e2.stats().op_counters();
    let after2 = e2.deref(e2.load(input2.cells[i].0.ptr(), 1).modref());
    let mut b = e2.batch();
    b.modify(input2.cells[i].1, after2);
    b.commit();
    let d_batch = e2.stats().op_counters().delta(&before2);

    let mut expect: Vec<i64> = data.iter().map(|&x| paper_map_fn(x)).collect();
    expect.remove(i);
    assert_eq!(collect_output(&e, out_head), expect);
    assert_eq!(collect_output(&e2, out_head2), expect);

    // Identical propagation work; only the batch bookkeeping differs.
    assert_eq!(d_legacy.reads_reexecuted, d_batch.reads_reexecuted);
    assert_eq!(d_legacy.queue_pushes, d_batch.queue_pushes);
    assert_eq!(d_legacy.queue_pops, d_batch.queue_pops);
    assert_eq!(d_legacy.propagations, d_batch.propagations);
    assert_eq!(d_batch.batch_commits, 1);
    assert_eq!(d_legacy.batch_commits, 0);
}
