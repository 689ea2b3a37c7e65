//! Quickstart: the paper's running example (§3, Figs. 1–4).
//!
//! Builds the expression tree of Fig. 4 for
//! `(3 + 4) - (1 - 2) + (5 - 6)`, evaluates it self-adjustingly,
//! then — like the mutator of Fig. 3 — substitutes the subtree
//! `(6 + 7)` for the leaf `6` and updates the result by change
//! propagation instead of re-evaluating.
//!
//! Run with: `cargo run --release -p ceal-examples --bin quickstart`

use ceal_runtime::prelude::*;

const LEAF: i64 = 0;
const NODE: i64 = 1;
const PLUS: i64 = 0;
const MINUS: i64 = 1;

/// Fig. 5's normalized evaluator, expressed directly against the RTS:
/// exactly the code `cealc` produces for Fig. 2.
fn build_eval(b: &mut ProgramBuilder) -> FuncId {
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
            let m_a = e.modref_keyed(&[args[0], Value::Int(0)]);
            let m_b = e.modref_keyed(&[args[0], Value::Int(1)]);
            let op = e.load(t, 1);
            e.call(eval, &[e.load(t, 2), Value::ModRef(m_a)]);
            e.call(eval, &[e.load(t, 3), Value::ModRef(m_b)]);
            Tail::read(m_a, read_a, &[args[1], op, Value::ModRef(m_b)])
        }
    });
    b.define_native(read_a, move |_e, args| {
        Tail::read(args[3].modref(), read_b, &[args[1], args[2], args[0]])
    });
    b.define_native(read_b, move |e, args| {
        let (bv, res, op, av) = (
            args[0].int(),
            args[1].modref(),
            args[2].int(),
            args[3].int(),
        );
        e.write(res, Value::Int(if op == PLUS { av + bv } else { av - bv }));
        Tail::Done
    });
    eval
}

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

fn main() {
    let mut b = ProgramBuilder::new();
    let eval = build_eval(&mut b);
    let mut e = Engine::new(b.build());

    // exp = (3 +c 4) -b (1 -f 2) +a (5 -i 6)   (Fig. 4, left)
    let (c, _, _) = {
        let d = leaf(&mut e, 3);
        let l4 = leaf(&mut e, 4);
        node(&mut e, PLUS, d, l4)
    };
    let (f, _, _) = {
        let g = leaf(&mut e, 1);
        let h = leaf(&mut e, 2);
        node(&mut e, MINUS, g, h)
    };
    let (bnode, _, _) = node(&mut e, MINUS, c, f);
    let j = leaf(&mut e, 5);
    let k = leaf(&mut e, 6);
    let (i, _, k_slot) = node(&mut e, MINUS, j, k);
    let (a, _, _) = node(&mut e, PLUS, bnode, i);

    let root = e.meta_modref();
    e.modify(root, a);
    let result = e.meta_modref();

    // Initial run (run_core in Fig. 3).
    e.run_core(eval, &[Value::ModRef(root), Value::ModRef(result)]);
    println!("(3 + 4) - (1 - 2) + (5 - 6)          = {}", e.deref(result));

    // The mutation of Fig. 4: k <- (6 + 7); then change propagation.
    let six = leaf(&mut e, 6);
    let seven = leaf(&mut e, 7);
    let (sub, _, _) = node(&mut e, PLUS, six, seven);
    let before = e.stats().ops.reads_reexecuted;
    e.modify(k_slot, sub);
    e.propagate();
    println!("(3 + 4) - (1 - 2) + (5 - (6 + 7))    = {}", e.deref(result));
    println!(
        "change propagation re-executed {} reads (path to the root), not the whole tree",
        e.stats().ops.reads_reexecuted - before
    );
}
