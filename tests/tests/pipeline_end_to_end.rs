//! End-to-end tests of the whole CEAL system: surface source → lower →
//! normalize → translate → VM execution on the self-adjusting engine,
//! cross-checked against (a) the conventional CL reference interpreter
//! and (b) from-scratch oracles under mutator edits.

use ceal_compiler::pipeline::compile;
use ceal_ir::interp::{IValue, Machine};
use ceal_ir::validate::{is_normal, validate};
use ceal_lang::{benchmarks, frontend};
use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;
use ceal_vm::{load, VmOptions};

/// Compile a CEAL source and set up an engine running it.
fn setup(
    src: &str,
    opts: VmOptions,
) -> (
    Engine,
    ceal_compiler::target::TProgram,
    ceal_vm::LoadedProgram,
) {
    let (cl, _) = frontend(src).expect("frontend");
    validate(&cl).expect("valid CL");
    let out = compile(&cl).expect("cealc pipeline");
    assert!(is_normal(&out.normalized));
    validate(&out.normalized).expect("normalized CL is valid");
    let mut b = ProgramBuilder::new();
    let loaded = load(&out.target, &mut b, opts).expect("target validates");
    (Engine::new(b.build()), out.target, loaded)
}

// ---------------------------------------------------------------------
// exptrees.ceal: run the compiled evaluator, edit leaves, compare.
// ---------------------------------------------------------------------

const LEAF: i64 = 0;
const NODE: i64 = 1;

fn build_tree_engine(
    e: &mut Engine,
    rng: &mut Prng,
    depth: u32,
    slots: &mut Vec<(ModRef, Value, Value)>,
    slot: Option<ModRef>,
) -> Value {
    if depth == 0 {
        let v: f64 = rng.gen_range(-100.0..100.0);
        let mk = |e: &mut Engine, v: f64| {
            let t = e.meta_alloc(2);
            e.meta_store(t, 0, Value::Int(LEAF));
            e.meta_store(t, 1, Value::Float(v));
            Value::Ptr(t)
        };
        let leaf = mk(e, v);
        let alt = mk(e, v + 3.0);
        if let Some(s) = slot {
            slots.push((s, leaf, alt));
        }
        leaf
    } else {
        let t = e.meta_alloc(4);
        e.meta_store(t, 0, Value::Int(NODE));
        e.meta_store(t, 1, Value::Int(if rng.gen_bool(0.5) { 0 } else { 1 }));
        let lm = e.meta_modref_in(t, 2);
        let rm = e.meta_modref_in(t, 3);
        let lv = build_tree_engine(e, rng, depth - 1, slots, Some(lm));
        let rv = build_tree_engine(e, rng, depth - 1, slots, Some(rm));
        e.modify(lm, lv);
        e.modify(rm, rv);
        Value::Ptr(t)
    }
}

fn eval_oracle(e: &Engine, v: Value) -> f64 {
    let t = v.ptr();
    if e.load(t, 0).int() == LEAF {
        e.load(t, 1).float()
    } else {
        let l = eval_oracle(e, e.deref(e.load(t, 2).modref()));
        let r = eval_oracle(e, e.deref(e.load(t, 3).modref()));
        if e.load(t, 1).int() == 0 {
            l + r
        } else {
            l - r
        }
    }
}

fn exptrees_session(opts: VmOptions) {
    let (mut e, t, loaded) = setup(benchmarks::EXPTREES, opts);
    let eval = loaded.entry(&t, "eval").expect("eval entry");
    let mut rng = Prng::seed_from_u64(11);
    let mut slots = Vec::new();
    let tree = build_tree_engine(&mut e, &mut rng, 6, &mut slots, None);
    let root = e.meta_modref();
    e.modify(root, tree);
    let res = e.meta_modref();
    e.run_core(eval, &[Value::ModRef(root), Value::ModRef(res)]);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    assert!(
        close(e.deref(res).float(), eval_oracle(&e, tree)),
        "initial run"
    );

    for _ in 0..40 {
        let i = rng.gen_range(0..slots.len());
        let (slot, leaf, alt) = slots[i];
        e.modify(slot, alt);
        e.propagate();
        assert!(
            close(e.deref(res).float(), eval_oracle(&e, tree)),
            "after swap"
        );
        e.modify(slot, leaf);
        e.propagate();
        assert!(
            close(e.deref(res).float(), eval_oracle(&e, tree)),
            "after swap back"
        );
    }
    e.check_invariants();
}

#[test]
fn compiled_exptrees_self_adjusts() {
    exptrees_session(VmOptions {
        read_trampoline: true,
        ..VmOptions::default()
    });
}

#[test]
fn compiled_exptrees_basic_trampoline() {
    exptrees_session(VmOptions {
        read_trampoline: false,
        ..VmOptions::default()
    });
}

/// A leaf edit in the compiled evaluator re-executes O(depth) reads.
#[test]
fn compiled_exptrees_updates_are_path_sized() {
    let (mut e, t, loaded) = setup(benchmarks::EXPTREES, VmOptions::default());
    let eval = loaded.entry(&t, "eval").unwrap();
    let mut rng = Prng::seed_from_u64(13);
    let mut slots = Vec::new();
    let depth = 10;
    let tree = build_tree_engine(&mut e, &mut rng, depth, &mut slots, None);
    let root = e.meta_modref();
    e.modify(root, tree);
    let res = e.meta_modref();
    e.run_core(eval, &[Value::ModRef(root), Value::ModRef(res)]);
    let before = e.stats().ops.reads_reexecuted;
    let (slot, _, alt) = slots[0];
    e.modify(slot, alt);
    e.propagate();
    let reexecs = e.stats().ops.reads_reexecuted - before;
    assert!(
        reexecs <= 4 * depth as u64,
        "expected O(depth) re-execution, got {reexecs}"
    );
}

// ---------------------------------------------------------------------
// map from list.ceal: compiled output vs conventional interpreter and
// under structural edits.
// ---------------------------------------------------------------------

fn paper_f(x: i64) -> i64 {
    x / 3 + x / 7 + x / 9
}

#[test]
fn compiled_map_matches_interpreter_and_self_adjusts() {
    let (mut e, t, loaded) = setup(benchmarks::LIST, VmOptions::default());
    let map = loaded.entry(&t, "map").unwrap();
    let data: Vec<i64> = {
        let mut rng = Prng::seed_from_u64(17);
        (0..200).map(|_| rng.gen_range(0..1_000_000)).collect()
    };

    // Conventional oracle via the CL reference interpreter.
    let (cl, names) = frontend(benchmarks::LIST).unwrap();
    let mut machine = Machine::with_fuel(2_000_000);
    // Mutator-side list in the interpreter machine.
    let head = machine.alloc_modref(IValue::Nil);
    let mut slot = head;
    for &x in &data {
        let cell = machine.alloc_block(2);
        let next = machine.alloc_modref(IValue::Nil);
        if let (IValue::Ptr(b), IValue::ModRef(s)) = (cell, slot) {
            machine.blocks[b][0] = IValue::Int(x);
            machine.blocks[b][1] = next;
            machine.modrefs[s] = cell;
        }
        slot = next;
    }
    let out_m = machine.alloc_modref(IValue::Nil);
    machine.run(&cl, names["map"], &[head, out_m]).unwrap();
    let mut interp_out = Vec::new();
    let mut v = machine.deref(out_m).unwrap();
    while let IValue::Ptr(b) = v {
        interp_out.push(match machine.blocks[b][0] {
            IValue::Int(i) => i,
            other => panic!("bad cell {other:?}"),
        });
        v = machine.deref(machine.blocks[b][1]).unwrap();
    }
    let expect: Vec<i64> = data.iter().map(|&x| paper_f(x)).collect();
    assert_eq!(
        interp_out, expect,
        "reference interpreter agrees with the spec"
    );

    // Engine-side list + compiled self-adjusting run.
    let vals: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
    let l = ceal_suite::input::build_list(&mut e, &vals);
    let out = e.meta_modref();
    e.run_core(map, &[Value::ModRef(l.head), Value::ModRef(out)]);
    let got: Vec<i64> = ceal_suite::input::collect_list(&e, out)
        .into_iter()
        .map(|v| v.int())
        .collect();
    assert_eq!(got, expect, "compiled self-adjusting run agrees");

    // Structural edits.
    let mut rng = Prng::seed_from_u64(18);
    for _ in 0..25 {
        let i = rng.gen_range(0..data.len());
        l.delete(&mut e, i);
        e.propagate();
        let mut exp = expect.clone();
        exp.remove(i);
        let got: Vec<i64> = ceal_suite::input::collect_list(&e, out)
            .into_iter()
            .map(|v| v.int())
            .collect();
        assert_eq!(got, exp, "after delete {i}");
        l.insert(&mut e, i);
        e.propagate();
    }
    e.check_invariants();
}

// ---------------------------------------------------------------------
// quicksort.ceal under edits.
// ---------------------------------------------------------------------

#[test]
fn compiled_quicksort_sorts_and_self_adjusts() {
    let (mut e, t, loaded) = setup(benchmarks::QUICKSORT, VmOptions::default());
    let qs = loaded.entry(&t, "quicksort").unwrap();
    let mut rng = Prng::seed_from_u64(23);
    let data: Vec<i64> = (0..150).map(|_| rng.gen_range(0..10_000)).collect();
    let vals: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
    let l = ceal_suite::input::build_list(&mut e, &vals);
    let out = e.meta_modref();
    e.run_core(qs, &[Value::ModRef(l.head), Value::ModRef(out)]);
    let sorted = |d: &[i64]| {
        let mut d = d.to_vec();
        d.sort_unstable();
        d
    };
    let got = |e: &Engine| -> Vec<i64> {
        ceal_suite::input::collect_list(e, out)
            .into_iter()
            .map(|v| v.int())
            .collect()
    };
    assert_eq!(got(&e), sorted(&data), "initial sort");

    for _ in 0..20 {
        let i = rng.gen_range(0..data.len());
        l.delete(&mut e, i);
        e.propagate();
        let mut d = data.clone();
        d.remove(i);
        assert_eq!(got(&e), sorted(&d), "after delete {i}");
        l.insert(&mut e, i);
        e.propagate();
        assert_eq!(got(&e), sorted(&data), "after insert {i}");
    }
    e.check_invariants();
}

// ---------------------------------------------------------------------
// tcon.ceal: contraction through the compiler.
// ---------------------------------------------------------------------

#[test]
fn compiled_tcon_counts_nodes_under_edits() {
    let (mut e, t, loaded) = setup(benchmarks::TCON, VmOptions::default());
    let tcon = loaded.entry(&t, "tcon").unwrap();
    let tree = ceal_suite::sac::tcon::build_tree(&mut e, 60, 31);
    let res = e.meta_modref();
    e.run_core(tcon, &[Value::ModRef(tree.root), Value::ModRef(res)]);
    assert_eq!(e.deref(res), Value::Int(60));

    let mut rng = Prng::seed_from_u64(32);
    for _ in 0..20 {
        let i = rng.gen_range(0..tree.edges.len());
        if !tree.delete_edge(&mut e, i) {
            continue;
        }
        e.propagate();
        let expect = ceal_suite::sac::tcon::count_reachable(&e, tree.root);
        assert_eq!(e.deref(res).int(), expect, "after deleting edge {i}");
        tree.insert_edge(&mut e, i);
        e.propagate();
        assert_eq!(e.deref(res), Value::Int(60), "after re-inserting edge {i}");
    }
    e.check_invariants();
}

// ---------------------------------------------------------------------
// quickhull.ceal: hull size matches the conventional implementation.
// ---------------------------------------------------------------------

#[test]
fn compiled_quickhull_matches_conventional() {
    let (mut e, t, loaded) = setup(benchmarks::QUICKHULL, VmOptions::default());
    let qh = loaded.entry(&t, "quickhull").unwrap();
    let pts = ceal_suite::input::random_points_unit_square(120, 41);
    let l = ceal_suite::input::build_point_list(&mut e, &pts);
    let hull_m = e.meta_modref();
    e.run_core(qh, &[Value::ModRef(l.head), Value::ModRef(hull_m)]);
    let hull_pts = |e: &Engine| -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut v = e.deref(hull_m);
        while let Value::Ptr(c) = v {
            let p = e.load(c, 0).ptr();
            out.push((
                e.load(p, 0).float().to_bits(),
                e.load(p, 1).float().to_bits(),
            ));
            v = e.deref(e.load(c, 1).modref());
        }
        out.sort_unstable();
        out
    };
    let conv: Vec<(u64, u64)> = {
        let mut h: Vec<(u64, u64)> = ceal_suite::conv::quickhull(&pts)
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        h.sort_unstable();
        h
    };
    assert_eq!(hull_pts(&e), conv, "initial hull");

    let mut rng = Prng::seed_from_u64(42);
    for _ in 0..10 {
        let i = rng.gen_range(0..pts.len());
        l.delete(&mut e, i);
        e.propagate();
        let mut d = pts.clone();
        d.remove(i);
        let mut conv_d: Vec<(u64, u64)> = ceal_suite::conv::quickhull(&d)
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        conv_d.sort_unstable();
        assert_eq!(hull_pts(&e), conv_d, "after delete {i}");
        l.insert(&mut e, i);
        e.propagate();
    }
    e.check_invariants();
}

// ---------------------------------------------------------------------
// Theorem 3 bounds over all benchmark sources.
// ---------------------------------------------------------------------

#[test]
fn normalization_size_bounds_hold_for_all_benchmarks() {
    for (name, src) in benchmarks::all() {
        let (cl, _) = frontend(src).unwrap();
        let out = compile(&cl).unwrap();
        let s = &out.stats.normalize;
        // Theorem 3: block count preserved (minus dropped unreachable),
        // and at most one new function per block.
        assert_eq!(
            s.blocks_out,
            s.blocks_in - s.unreachable_dropped,
            "{name}: block count changed"
        );
        assert!(
            s.funcs_out - s.funcs_in <= s.blocks_in,
            "{name}: more fresh functions than blocks"
        );
        // Representation growth O(m + n * ML): generous constant 8.
        let bound = out.stats.input_words + 8 * s.blocks_in * (s.max_live + 1);
        assert!(
            ceal_ir::cl::Program::repr_words(&out.normalized) <= bound,
            "{name}: normalized size {} exceeds O(m + n*ML) bound {bound}",
            out.normalized.repr_words()
        );
    }
}
