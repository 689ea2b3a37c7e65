//! The `exptrees` benchmark (§3, §8.2): a self-adjusting expression-tree
//! evaluator over floats, in the normalized form of Fig. 5.
//!
//! The mutator builds random balanced trees of `+`/`-` nodes with float
//! leaves and performs modifications by swapping leaves (§8.2), which
//! change propagation turns into root-to-leaf path updates (§3.1).

use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;

/// Node block layout: `[kind, op|num, left_m, right_m]`.
pub const ND_KIND: usize = 0;
/// Slot holding the operator (nodes) or the float payload (leaves).
pub const ND_PAYLOAD: usize = 1;
/// Left child modifiable (nodes only).
pub const ND_LEFT: usize = 2;
/// Right child modifiable (nodes only).
pub const ND_RIGHT: usize = 3;

/// `kind` for leaves.
pub const KIND_LEAF: i64 = 0;
/// `kind` for internal nodes.
pub const KIND_NODE: i64 = 1;
/// `op` code for addition.
pub const OP_PLUS: i64 = 0;
/// `op` code for subtraction.
pub const OP_MINUS: i64 = 1;

/// Builds the expression-tree evaluator (Fig. 5's normalized structure).
/// Entry arguments: `[root_m, res_m]`.
pub fn build_exptrees(b: &mut ProgramBuilder) -> FuncId {
    let eval = b.declare("exptrees_eval");
    let read_r = b.declare("exptrees_read_r");
    let read_a = b.declare("exptrees_read_a");
    let read_b = b.declare("exptrees_read_b");

    b.define_native(eval, move |_e, args| {
        Tail::read(args[0].modref(), read_r, &args[1..])
    });

    b.define_native(read_r, move |e, args| {
        let t = args[0].ptr();
        let res = args[1].modref();
        if e.load(t, ND_KIND).int() == KIND_LEAF {
            e.write(res, e.load(t, ND_PAYLOAD));
            Tail::Done
        } else {
            let m_a = e.modref_keyed(&[args[0], Value::Int(0)]);
            let m_b = e.modref_keyed(&[args[0], Value::Int(1)]);
            let op = e.load(t, ND_PAYLOAD);
            e.call(eval, &[e.load(t, ND_LEFT), Value::ModRef(m_a)]);
            e.call(eval, &[e.load(t, ND_RIGHT), Value::ModRef(m_b)]);
            Tail::read(m_a, read_a, &[args[1], op, Value::ModRef(m_b)])
        }
    });

    // read_a(a, res, op, m_b) = b := read m_b; tail read_b(b, res, op, a)
    b.define_native(read_a, move |_e, args| {
        Tail::read(args[3].modref(), read_b, &[args[1], args[2], args[0]])
    });

    // read_b(b, res, op, a)
    b.define_native(read_b, move |e, args| {
        let bv = args[0].float();
        let res = args[1].modref();
        let op = args[2].int();
        let av = args[3].float();
        let out = if op == OP_PLUS { av + bv } else { av - bv };
        e.write(res, Value::Float(out));
        Tail::Done
    });

    eval
}

/// Builds the standalone exptrees program.
pub fn exptrees_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let f = build_exptrees(&mut b);
    (b.build(), f)
}

/// A mutator-owned random balanced expression tree with the handles
/// needed by the test mutator (leaf replacement).
#[derive(Debug)]
pub struct ExpTree {
    /// Modifiable holding the root pointer.
    pub root: ModRef,
    /// For each leaf: (the modifiable holding it, its current value, a
    /// pre-built replacement leaf with a different value).
    pub leaves: Vec<(ModRef, f64, Value, Value)>,
}

/// Builds a complete binary tree with `n_leaves` (rounded up to a power
/// of two) random float leaves and random `+`/`-` operators.
pub fn build_exptree(e: &mut Engine, n_leaves: usize, seed: u64) -> ExpTree {
    let mut rng = Prng::seed_from_u64(seed ^ 0xE897);
    let depth = (n_leaves.max(2) as f64).log2().ceil() as u32;
    let mut leaves = Vec::new();
    let root_val = build_level(e, &mut rng, depth, &mut leaves, None);
    let root = e.meta_modref();
    e.modify(root, root_val);
    ExpTree { root, leaves }
}

fn make_leaf(e: &mut Engine, v: f64) -> Value {
    let t = e.meta_alloc(2);
    e.meta_store(t, ND_KIND, Value::Int(KIND_LEAF));
    e.meta_store(t, ND_PAYLOAD, Value::Float(v));
    Value::Ptr(t)
}

fn build_level(
    e: &mut Engine,
    rng: &mut Prng,
    depth: u32,
    leaves: &mut Vec<(ModRef, f64, Value, Value)>,
    slot: Option<ModRef>,
) -> Value {
    if depth == 0 {
        let v: f64 = rng.gen_range(-100.0..100.0);
        let leaf = make_leaf(e, v);
        let alt = make_leaf(e, v + 1.0);
        if let Some(s) = slot {
            leaves.push((s, v, leaf, alt));
        }
        leaf
    } else {
        let t = e.meta_alloc(4);
        e.meta_store(t, ND_KIND, Value::Int(KIND_NODE));
        let op = if rng.gen_bool(0.5) { OP_PLUS } else { OP_MINUS };
        e.meta_store(t, ND_PAYLOAD, Value::Int(op));
        let lm = e.meta_modref_in(t, ND_LEFT);
        let rm = e.meta_modref_in(t, ND_RIGHT);
        let lv = build_level(e, rng, depth - 1, leaves, Some(lm));
        let rv = build_level(e, rng, depth - 1, leaves, Some(rm));
        e.modify(lm, lv);
        e.modify(rm, rv);
        Value::Ptr(t)
    }
}

/// Conventional evaluation of the same tree shape (oracle / baseline):
/// walks the mutator structure directly.
pub fn eval_conventional(e: &Engine, root: Value) -> f64 {
    match root {
        Value::Ptr(t) => {
            if e.load(t, ND_KIND).int() == KIND_LEAF {
                e.load(t, ND_PAYLOAD).float()
            } else {
                let l = eval_conventional(e, e.deref(e.load(t, ND_LEFT).modref()));
                let r = eval_conventional(e, e.deref(e.load(t, ND_RIGHT).modref()));
                if e.load(t, ND_PAYLOAD).int() == OP_PLUS {
                    l + r
                } else {
                    l - r
                }
            }
        }
        other => panic!("malformed tree node {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_conventional_under_leaf_swaps() {
        let (p, eval) = exptrees_program();
        let mut e = Engine::new(p);
        let tree = build_exptree(&mut e, 64, 3);
        let res = e.meta_modref();
        e.run_core(eval, &[Value::ModRef(tree.root), Value::ModRef(res)]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let oracle = eval_conventional(&e, e.deref(tree.root));
        assert!(close(e.deref(res).float(), oracle));

        let mut rng = Prng::seed_from_u64(4);
        for _ in 0..50 {
            let i = rng.gen_range(0..tree.leaves.len());
            let (slot, _, leaf, alt) = tree.leaves[i];
            // Swap in the replacement leaf, propagate, check; swap back.
            e.modify(slot, alt);
            e.propagate();
            let oracle = eval_conventional(&e, e.deref(tree.root));
            assert!(close(e.deref(res).float(), oracle), "after swap {i}");
            e.modify(slot, leaf);
            e.propagate();
            let oracle = eval_conventional(&e, e.deref(tree.root));
            assert!(close(e.deref(res).float(), oracle), "after swap back {i}");
        }
        e.check_invariants();
    }

    #[test]
    fn updates_touch_a_path_only() {
        let (p, eval) = exptrees_program();
        let mut e = Engine::new(p);
        let tree = build_exptree(&mut e, 1024, 5);
        let res = e.meta_modref();
        e.run_core(eval, &[Value::ModRef(tree.root), Value::ModRef(res)]);
        let before = e.stats().ops.reads_reexecuted;
        let (slot, _, leaf, alt) = tree.leaves[0];
        e.modify(slot, alt);
        e.propagate();
        e.modify(slot, leaf);
        e.propagate();
        let reexecs = e.stats().ops.reads_reexecuted - before;
        // Depth is 10; each level re-executes O(1) reads per swap.
        assert!(
            reexecs <= 2 * 3 * 11,
            "expected path-sized update, got {reexecs}"
        );
    }
}
