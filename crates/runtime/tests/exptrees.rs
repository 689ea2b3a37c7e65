//! End-to-end test of the paper's running example (§3, Figs. 1–4): a
//! self-adjusting expression-tree evaluator, with mutator edits updating
//! the result through change propagation.

use ceal_runtime::prelude::*;

const LEAF: i64 = 0;
const NODE: i64 = 1;
const PLUS: i64 = 0;
const MINUS: i64 = 1;

/// Builds the core program of Fig. 2, in the normalized, trampolined
/// form the compiler produces (Fig. 5): `eval` reads the root, `read_r`
/// dispatches on the node, `read_a`/`read_b` consume the sub-results.
fn build_eval() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let eval = b.declare("eval");
    let read_r = b.declare("eval_read_r");
    let read_a = b.declare("eval_read_a");
    let read_b = b.declare("eval_read_b");

    // eval(root, res) = t := read root; tail read_r(t, res)
    b.define_native(eval, move |_e, args| {
        Tail::read(args[0].modref(), read_r, &args[1..])
    });

    // read_r(t, res): leaf => write res; node => eval children, read m_a.
    b.define_native(read_r, move |e, args| {
        let t = args[0].ptr();
        let res = args[1].modref();
        // layout: [kind, op|num, left, right]
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

    // read_a(a, res, op, m_b) = b := read m_b; tail read_b(b, res, op, a)
    b.define_native(read_a, move |_e, args| {
        let a = args[0];
        let res = args[1];
        let op = args[2];
        let m_b = args[3].modref();
        Tail::read(m_b, read_b, &[res, op, a])
    });

    // read_b(b, res, op, a): combine and write.
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

/// Mutator-side expression-tree builder (meta-level blocks: inputs are
/// owned by the mutator, as in Fig. 3).
struct TreeBuilder;

impl TreeBuilder {
    fn leaf(e: &mut Engine, n: i64) -> Value {
        let t = e.meta_alloc(2);
        e.meta_store(t, 0, Value::Int(LEAF));
        e.meta_store(t, 1, Value::Int(n));
        Value::Ptr(t)
    }

    fn node(e: &mut Engine, op: i64, l: Value, r: Value) -> (Value, ModRef, ModRef) {
        let t = e.meta_alloc(4);
        e.meta_store(t, 0, Value::Int(NODE));
        e.meta_store(t, 1, Value::Int(op));
        let lm = e.meta_modref_in(t, 2);
        let rm = e.meta_modref_in(t, 3);
        e.modify(lm, l);
        e.modify(rm, r);
        (Value::Ptr(t), lm, rm)
    }
}

/// The example of §3.1: exp = (3 + 4) - (1 - 2) + (5 - 6), with the
/// mutation replacing leaf "k" (the 6) by the subtree (6 + 7).
#[test]
fn paper_example_updates_to_new_value() {
    let (prog, eval) = build_eval();
    let mut e = Engine::new(prog);

    let d = TreeBuilder::leaf(&mut e, 3);
    let ee = TreeBuilder::leaf(&mut e, 4);
    let (c, _, _) = TreeBuilder::node(&mut e, PLUS, d, ee);
    let g = TreeBuilder::leaf(&mut e, 1);
    let h = TreeBuilder::leaf(&mut e, 2);
    let (f, _, _) = TreeBuilder::node(&mut e, MINUS, g, h);
    let (bnode, _, _) = TreeBuilder::node(&mut e, MINUS, c, f);
    let j = TreeBuilder::leaf(&mut e, 5);
    let k = TreeBuilder::leaf(&mut e, 6);
    let (i, _, k_slot) = TreeBuilder::node(&mut e, MINUS, j, k);
    let (a, _, _) = TreeBuilder::node(&mut e, PLUS, bnode, i);

    let root = e.meta_modref();
    e.modify(root, a);
    let result = e.meta_modref();
    e.run_core(eval, &[Value::ModRef(root), Value::ModRef(result)]);
    // ((3+4) - (1-2)) + (5-6) = 7 - (-1) + (-1) = 7
    assert_eq!(e.deref(result), Value::Int(7));

    // Substitute (6 + 7) for leaf k and propagate: ((3+4)-(1-2)) + (5-13) = 0.
    let six = TreeBuilder::leaf(&mut e, 6);
    let seven = TreeBuilder::leaf(&mut e, 7);
    let (sub, _, _) = TreeBuilder::node(&mut e, PLUS, six, seven);
    e.modify(k_slot, sub);
    e.propagate();
    assert_eq!(e.deref(result), Value::Int(0));
    e.check_invariants();
}

/// Propagation after a leaf change touches a path, not the whole tree:
/// the number of re-executed reads stays O(depth).
#[test]
fn leaf_change_reexecutes_a_path() {
    let (prog, eval) = build_eval();
    let mut e = Engine::new(prog);

    // A complete binary tree of depth 10 over PLUS, leaves all 1.
    let depth = 10u32;
    let mut leaf_slots: Vec<ModRef> = Vec::new();
    fn build(e: &mut Engine, d: u32, slots: &mut Vec<ModRef>) -> Value {
        if d == 0 {
            TreeBuilder::leaf(e, 1)
        } else {
            let l = build(e, d - 1, slots);
            let r = build(e, d - 1, slots);
            let (v, lm, rm) = TreeBuilder::node(e, PLUS, l, r);
            if d == 1 {
                slots.push(lm);
                slots.push(rm);
            }
            v
        }
    }
    let t = build(&mut e, depth, &mut leaf_slots);
    let root = e.meta_modref();
    e.modify(root, t);
    let result = e.meta_modref();
    e.run_core(eval, &[Value::ModRef(root), Value::ModRef(result)]);
    assert_eq!(e.deref(result), Value::Int(1 << depth));

    let before = e.stats().ops.reads_reexecuted;
    // Replace one leaf by a 41-leaf.
    let new_leaf = TreeBuilder::leaf(&mut e, 41);
    e.modify(leaf_slots[0], new_leaf);
    e.propagate();
    assert_eq!(e.deref(result), Value::Int((1 << depth) + 40));
    let reexecs = e.stats().ops.reads_reexecuted - before;
    assert!(
        reexecs <= 4 * depth as u64,
        "expected O(depth) re-executions, got {reexecs} for depth {depth}"
    );
    e.check_invariants();
}

/// Repeated modifications keep the computation consistent with a
/// from-scratch oracle.
#[test]
fn random_edits_match_oracle() {
    use ceal_runtime::prng::Prng;
    let mut rng = Prng::seed_from_u64(7);

    // Build a random tree; keep a mutator-side mirror for the oracle.
    #[derive(Clone)]
    enum Mirror {
        Leaf(i64),
        Node(i64, Box<Mirror>, Box<Mirror>),
    }
    fn eval_mirror(m: &Mirror) -> i64 {
        match m {
            Mirror::Leaf(n) => *n,
            Mirror::Node(op, l, r) => {
                let (a, b) = (eval_mirror(l), eval_mirror(r));
                if *op == PLUS {
                    a + b
                } else {
                    a - b
                }
            }
        }
    }

    let (prog, eval) = build_eval();
    let mut e = Engine::new(prog);

    // Random full binary tree with `n` internal nodes, collecting the
    // modrefs that hold each leaf so we can mutate them.
    let mut slots: Vec<(ModRef, usize)> = Vec::new(); // (slot, mirror index)
    let mut mirror_leaves: Vec<i64> = Vec::new();

    fn build_rand(
        e: &mut Engine,
        rng: &mut Prng,
        size: usize,
        slots: &mut Vec<(ModRef, usize)>,
        leaves: &mut Vec<i64>,
        parent_slot: Option<ModRef>,
    ) -> (Value, Mirror) {
        if size == 0 {
            let n = rng.gen_range(-50..50);
            let v = TreeBuilder::leaf(e, n);
            if let Some(s) = parent_slot {
                slots.push((s, leaves.len()));
            }
            leaves.push(n);
            (v, Mirror::Leaf(n))
        } else {
            let ls = rng.gen_range(0..size);
            let op = if rng.gen_bool(0.5) { PLUS } else { MINUS };
            let t = e.meta_alloc(4);
            e.meta_store(t, 0, Value::Int(NODE));
            e.meta_store(t, 1, Value::Int(op));
            let lm = e.meta_modref_in(t, 2);
            let rm = e.meta_modref_in(t, 3);
            let (lv, lmir) = build_rand(e, rng, ls, slots, leaves, Some(lm));
            let (rv, rmir) = build_rand(e, rng, size - 1 - ls, slots, leaves, Some(rm));
            e.modify(lm, lv);
            e.modify(rm, rv);
            (
                Value::Ptr(t),
                Mirror::Node(op, Box::new(lmir), Box::new(rmir)),
            )
        }
    }

    let (tv, mut mirror) = build_rand(&mut e, &mut rng, 60, &mut slots, &mut mirror_leaves, None);
    let root = e.meta_modref();
    e.modify(root, tv);
    let result = e.meta_modref();
    e.run_core(eval, &[Value::ModRef(root), Value::ModRef(result)]);
    assert_eq!(e.deref(result).int(), eval_mirror(&mirror));

    // Apply 40 random leaf replacements, checking after each.
    fn replace_mirror_leaf(m: &mut Mirror, idx: usize, val: i64, counter: &mut usize) -> bool {
        match m {
            Mirror::Leaf(n) => {
                if *counter == idx {
                    *n = val;
                    return true;
                }
                *counter += 1;
                false
            }
            Mirror::Node(_, l, r) => {
                replace_mirror_leaf(l, idx, val, counter)
                    || replace_mirror_leaf(r, idx, val, counter)
            }
        }
    }

    for _ in 0..40 {
        if slots.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..slots.len());
        let (slot, mirror_idx) = slots[pick];
        let nv = rng.gen_range(-50..50);
        let leaf = TreeBuilder::leaf(&mut e, nv);
        e.modify(slot, leaf);
        let mut counter = 0;
        assert!(replace_mirror_leaf(
            &mut mirror,
            mirror_idx,
            nv,
            &mut counter
        ));
        e.propagate();
        assert_eq!(
            e.deref(result).int(),
            eval_mirror(&mirror),
            "divergence after edit"
        );
    }
    e.check_invariants();
}
