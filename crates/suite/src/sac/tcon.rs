//! The `tcon` benchmark: Miller–Reif tree contraction (§8.2).
//!
//! Tree contraction proceeds in rounds (Miller & Reif \[28\]): each round
//! *rakes* leaves into their parents and *compresses* chains by
//! splicing out unary nodes chosen by per-(node, round) coin flips,
//! producing a geometrically smaller tree; after an expected O(log n)
//! rounds a single node remains. The paper runs a generalized
//! contraction with no application-specific data; to make outputs
//! checkable we carry the canonical application — every node has
//! weight 1 and contraction computes the total weight (size) of the
//! tree reachable from the root, maintained under edge
//! deletions/insertions (§8.2's test mutator iterates over edges).
//!
//! Self-adjusting structure: each round maps the previous round's tree
//! onto fresh core nodes `[left_m, right_m, val_m]` keyed by
//! (source node, round). A structural edit perturbs O(1) nodes per
//! round, so change propagation costs O(log n) expected rather than
//! re-contracting — the shape of Fig. 13.

use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;

/// Tree node layout: left child modifiable.
pub const TN_LEFT: usize = 0;
/// Right child modifiable.
pub const TN_RIGHT: usize = 1;
/// Weight: a plain slot in input nodes, a modifiable in round outputs.
pub const TN_VAL: usize = 2;

const LAYOUT_PLAIN: i64 = 0;
const LAYOUT_MOD: i64 = 1;

#[inline]
fn coin(cell: Value, rk: i64) -> bool {
    let x = (cell.ptr().0 as u64) ^ (rk as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) & 1 == 0
}

/// Builds the tree-contraction benchmark. Entry: `[root_m, res_m]` —
/// writes the total weight (an `Int`) of the tree under `root_m` into
/// `res_m`, or `Nil` for an empty tree.
pub fn build_tcon(b: &mut ProgramBuilder) -> FuncId {
    // Contraction nodes: all three slots are modifiables, so any output
    // node can be reused (stolen) for its (source, round) key no matter
    // which contraction case produced it.
    let init_node = b.native("tcon_init_node", |e, args| {
        let loc = args[0].ptr();
        e.modref_init(loc, TN_LEFT);
        e.modref_init(loc, TN_RIGHT);
        e.modref_init(loc, TN_VAL);
        Tail::Done
    });

    let cr = b.declare("tcon_cr");
    let cr_l = b.declare("tcon_cr_l");
    let cr_lr = b.declare("tcon_cr_lr");
    let set_val = b.declare("tcon_set_val");
    let sum2_a = b.declare("tcon_sum2_a");
    let sum2_b = b.declare("tcon_sum2_b");
    let sum3_a = b.declare("tcon_sum3_a");
    let sum3_b = b.declare("tcon_sum3_b");
    let sum3_c = b.declare("tcon_sum3_c");
    let un_probe_l = b.declare("tcon_un_probe_l");
    let un_probe_r = b.declare("tcon_un_probe_r");
    let un_go = b.declare("tcon_un_go");
    let splice_val = b.declare("tcon_splice_val");
    let splice_w = b.declare("tcon_splice_w");
    let splice_bump = b.declare("tcon_splice_bump");
    let bin_ll = b.declare("tcon_bin_ll");
    let bin_lr = b.declare("tcon_bin_lr");
    let bin_mid = b.declare("tcon_bin_mid");
    let bin_rl = b.declare("tcon_bin_rl");
    let bin_rr = b.declare("tcon_bin_rr");
    let bin_go = b.declare("tcon_bin_go");
    let level = b.declare("tcon_level");
    let level_body = b.declare("tcon_level_body");
    let level_l = b.declare("tcon_level_l");
    let level_lr = b.declare("tcon_level_lr");
    let level_res = b.declare("tcon_level_res");
    let level_round = b.declare("tcon_level_round");
    let entry = b.declare("tcon");

    // ------------------------------------------------------------------
    // Weight writers (shared tails of the contraction cases).
    // ------------------------------------------------------------------

    // set_val(w, out_ptr, out_m): out.val := w; out_m := out_ptr.
    b.define_native(set_val, move |e, args| {
        let out = args[1].ptr();
        e.write(e.load(out, TN_VAL).modref(), args[0]);
        e.write(args[2].modref(), args[1]);
        Tail::Done
    });

    // sum2_a(w1, m2, out_ptr, out_m): read m2, then set w1+w2.
    b.define_native(sum2_a, move |_e, args| {
        Tail::read(args[1].modref(), sum2_b, &[args[0], args[2], args[3]])
    });
    // sum2_b(w2, w1, out_ptr, out_m)
    b.define_native(sum2_b, move |_e, args| {
        let w = Value::Int(args[0].int() + args[1].int());
        Tail::call(set_val, &[w, args[2], args[3]])
    });

    // sum3_a(w1, m2, m3, out_ptr, out_m)
    b.define_native(sum3_a, move |_e, args| {
        Tail::read(
            args[1].modref(),
            sum3_b,
            &[args[0], args[2], args[3], args[4]],
        )
    });
    // sum3_b(w2, w1, m3, out_ptr, out_m)
    b.define_native(sum3_b, move |_e, args| {
        let w = Value::Int(args[0].int() + args[1].int());
        Tail::read(args[2].modref(), sum3_c, &[w, args[3], args[4]])
    });
    // sum3_c(w3, w12, out_ptr, out_m)
    b.define_native(sum3_c, move |_e, args| {
        let w = Value::Int(args[0].int() + args[1].int());
        Tail::call(set_val, &[w, args[2], args[3]])
    });

    // ------------------------------------------------------------------
    // One contraction round, structurally recursive.
    // ------------------------------------------------------------------

    // cr(v, rk, layout, out_m): contract subtree v for round rk.
    b.define_native(cr, move |e, args| {
        let v = args[0];
        if v == Value::Nil {
            e.write(args[3].modref(), Value::Nil);
            return Tail::Done;
        }
        let left_m = e.load(v.ptr(), TN_LEFT).modref();
        Tail::read(left_m, cr_l, args)
    });

    // cr_l(lv, v, rk, layout, out_m)
    b.define_native(cr_l, move |e, args| {
        let v = args[1];
        let right_m = e.load(v.ptr(), TN_RIGHT).modref();
        Tail::read(right_m, cr_lr, args)
    });

    // cr_lr(rv, lv, v, rk, layout, out_m)
    b.define_native(cr_lr, move |e, args| {
        let (rv, lv, v) = (args[0], args[1], args[2]);
        let (rk, layout, out_m) = (args[3], args[4], args[5]);
        match (lv, rv) {
            (Value::Nil, Value::Nil) => {
                // Leaf: copy; the weight flows through.
                let out = e.alloc(3, init_node, &[v, rk]);
                e.write(e.load(out, TN_LEFT).modref(), Value::Nil);
                e.write(e.load(out, TN_RIGHT).modref(), Value::Nil);
                if layout.int() == LAYOUT_PLAIN {
                    let w = e.load(v.ptr(), TN_VAL);
                    Tail::call(set_val, &[w, Value::Ptr(out), out_m])
                } else {
                    let val_m = e.load(v.ptr(), TN_VAL).modref();
                    Tail::read(val_m, set_val, &[Value::Ptr(out), out_m])
                }
            }
            (c, Value::Nil) | (Value::Nil, c) => {
                // Unary: probe whether the child is a leaf.
                let cl_m = e.load(c.ptr(), TN_LEFT).modref();
                let rest = [c, v, rk, layout, out_m];
                Tail::read(cl_m, un_probe_l, &rest)
            }
            (_, _) => {
                // Binary: probe both children's leafness.
                let ll_m = e.load(lv.ptr(), TN_LEFT).modref();
                let rest = [lv, rv, v, rk, layout, out_m];
                Tail::read(ll_m, bin_ll, &rest)
            }
        }
    });

    // un_probe_l(clv, c, v, rk, layout, out_m)
    b.define_native(un_probe_l, move |e, args| {
        if args[0] != Value::Nil {
            let a = [Value::Int(0), args[1], args[2], args[3], args[4], args[5]];
            return Tail::Call(un_go, a.as_slice().into());
        }
        let c = args[1];
        let cr_m = e.load(c.ptr(), TN_RIGHT).modref();
        Tail::read(cr_m, un_probe_r, &args[1..])
    });

    // un_probe_r(crv, c, v, rk, layout, out_m)
    b.define_native(un_probe_r, move |_e, args| {
        let leaf = i64::from(args[0] == Value::Nil);
        let a = [
            Value::Int(leaf),
            args[1],
            args[2],
            args[3],
            args[4],
            args[5],
        ];
        Tail::Call(un_go, a.as_slice().into())
    });

    // un_go(child_is_leaf, c, v, rk, layout, out_m)
    b.define_native(un_go, move |e, args| {
        let (is_leaf, c, v) = (args[0].int() == 1, args[1], args[2]);
        let (rk, layout, out_m) = (args[3], args[4], args[5]);
        if is_leaf {
            // Rake the leaf child: out is a leaf of weight w(v) + w(c).
            let out = e.alloc(3, init_node, &[v, rk]);
            e.write(e.load(out, TN_LEFT).modref(), Value::Nil);
            e.write(e.load(out, TN_RIGHT).modref(), Value::Nil);
            if layout.int() == LAYOUT_PLAIN {
                let w = e.load(v.ptr(), TN_VAL).int() + e.load(c.ptr(), TN_VAL).int();
                Tail::call(set_val, &[Value::Int(w), Value::Ptr(out), out_m])
            } else {
                let v_val = e.load(v.ptr(), TN_VAL).modref();
                let c_val = e.load(c.ptr(), TN_VAL);
                let rest = [c_val, Value::Ptr(out), out_m];
                Tail::read(v_val, sum2_a, &rest)
            }
        } else if coin(v, rk.int()) {
            // Compress: splice v out; add v's weight to the contracted
            // child's root value.
            let tmp_m = e.modref_keyed(&[v, rk]);
            e.call(cr, &[c, rk, layout, Value::ModRef(tmp_m)]);
            let rest = [v, layout, out_m];
            Tail::read(tmp_m, splice_val, &rest)
        } else {
            // Keep v as a unary node over the contracted child.
            let out = e.alloc(3, init_node, &[v, rk]);
            let out_left = e.load(out, TN_LEFT);
            e.call(cr, &[c, rk, layout, out_left]);
            e.write(e.load(out, TN_RIGHT).modref(), Value::Nil);
            if layout.int() == LAYOUT_PLAIN {
                let w = e.load(v.ptr(), TN_VAL);
                Tail::call(set_val, &[w, Value::Ptr(out), out_m])
            } else {
                let val_m = e.load(v.ptr(), TN_VAL).modref();
                Tail::read(val_m, set_val, &[Value::Ptr(out), out_m])
            }
        }
    });

    // splice_val(cc, v, layout, out_m): v was spliced; cc is the
    // contracted child. Bump cc.val by w(v).
    b.define_native(splice_val, move |e, args| {
        let cc = args[0];
        let (v, layout, out_m) = (args[1], args[2], args[3]);
        debug_assert!(cc != Value::Nil, "spliced child contracted to nothing");
        e.write(out_m.modref(), cc);
        let cv_m = e.load(cc.ptr(), TN_VAL).modref();
        if layout.int() == LAYOUT_PLAIN {
            let w = e.load(v.ptr(), TN_VAL);
            Tail::read(cv_m, splice_bump, &[w, Value::ModRef(cv_m)])
        } else {
            let val_m = e.load(v.ptr(), TN_VAL).modref();
            Tail::read(val_m, splice_w, &[Value::ModRef(cv_m)])
        }
    });

    // splice_w(w, cv_m): have v's weight; read the child's value.
    b.define_native(splice_w, move |_e, args| {
        Tail::read(args[1].modref(), splice_bump, &[args[0], args[1]])
    });

    // splice_bump(cur, w, cv_m): cv := cur + w.
    //
    // Note the child's val modifiable is written twice in this round's
    // trace (once by the child's own contraction, once here); the later
    // write governs later reads, which is exactly the imperative
    // multi-write semantics of §7.
    b.define_native(splice_bump, move |e, args| {
        e.write(args[2].modref(), Value::Int(args[0].int() + args[1].int()));
        Tail::Done
    });

    // bin_ll(llv, lv, rv, v, rk, layout, out_m)
    b.define_native(bin_ll, move |e, args| {
        if args[0] != Value::Nil {
            let a = [
                Value::Int(0),
                args[1],
                args[2],
                args[3],
                args[4],
                args[5],
                args[6],
            ];
            return Tail::Call(bin_mid, a.as_slice().into());
        }
        let lv = args[1];
        let lr_m = e.load(lv.ptr(), TN_RIGHT).modref();
        Tail::read(lr_m, bin_lr, &args[1..])
    });

    // bin_lr(lrv, lv, rv, v, rk, layout, out_m)
    b.define_native(bin_lr, move |_e, args| {
        let lf = i64::from(args[0] == Value::Nil);
        let a = [
            Value::Int(lf),
            args[1],
            args[2],
            args[3],
            args[4],
            args[5],
            args[6],
        ];
        Tail::Call(bin_mid, a.as_slice().into())
    });

    // bin_mid(lf, lv, rv, v, rk, layout, out_m)
    b.define_native(bin_mid, move |e, args| {
        let rv = args[2];
        let rl_m = e.load(rv.ptr(), TN_LEFT).modref();
        Tail::read(rl_m, bin_rl, args)
    });

    // bin_rl(rlv, lf, lv, rv, v, rk, layout, out_m)
    b.define_native(bin_rl, move |e, args| {
        if args[0] != Value::Nil {
            let a = [
                args[1],
                Value::Int(0),
                args[2],
                args[3],
                args[4],
                args[5],
                args[6],
                args[7],
            ];
            return Tail::Call(bin_go, a.as_slice().into());
        }
        let rv = args[3];
        let rr_m = e.load(rv.ptr(), TN_RIGHT).modref();
        Tail::read(rr_m, bin_rr, &args[1..])
    });

    // bin_rr(rrv, lf, lv, rv, v, rk, layout, out_m)
    b.define_native(bin_rr, move |_e, args| {
        let rf = i64::from(args[0] == Value::Nil);
        let a = [
            args[1],
            Value::Int(rf),
            args[2],
            args[3],
            args[4],
            args[5],
            args[6],
            args[7],
        ];
        Tail::Call(bin_go, a.as_slice().into())
    });

    // bin_go(lf, rf, lv, rv, v, rk, layout, out_m)
    b.define_native(bin_go, move |e, args| {
        let (lf, rf) = (args[0].int() == 1, args[1].int() == 1);
        let (lv, rv, v) = (args[2], args[3], args[4]);
        let (rk, layout, out_m) = (args[5], args[6], args[7]);
        let plain = layout.int() == LAYOUT_PLAIN;
        let out = e.alloc(3, init_node, &[v, rk]);
        match (lf, rf) {
            (true, true) => {
                // Rake both children: out is a leaf of the summed weight.
                e.write(e.load(out, TN_LEFT).modref(), Value::Nil);
                e.write(e.load(out, TN_RIGHT).modref(), Value::Nil);
                if plain {
                    let w = e.load(v.ptr(), TN_VAL).int()
                        + e.load(lv.ptr(), TN_VAL).int()
                        + e.load(rv.ptr(), TN_VAL).int();
                    Tail::call(set_val, &[Value::Int(w), Value::Ptr(out), out_m])
                } else {
                    let v_val = e.load(v.ptr(), TN_VAL).modref();
                    let l_val = e.load(lv.ptr(), TN_VAL);
                    let r_val = e.load(rv.ptr(), TN_VAL);
                    let rest = [l_val, r_val, Value::Ptr(out), out_m];
                    Tail::read(v_val, sum3_a, &rest)
                }
            }
            (true, false) | (false, true) => {
                // Rake the leaf child; keep a unary node over the other.
                let (leaf, other) = if lf { (lv, rv) } else { (rv, lv) };
                let out_left = e.load(out, TN_LEFT);
                e.call(cr, &[other, rk, layout, out_left]);
                e.write(e.load(out, TN_RIGHT).modref(), Value::Nil);
                if plain {
                    let w = e.load(v.ptr(), TN_VAL).int() + e.load(leaf.ptr(), TN_VAL).int();
                    Tail::call(set_val, &[Value::Int(w), Value::Ptr(out), out_m])
                } else {
                    let v_val = e.load(v.ptr(), TN_VAL).modref();
                    let leaf_val = e.load(leaf.ptr(), TN_VAL);
                    let rest = [leaf_val, Value::Ptr(out), out_m];
                    Tail::read(v_val, sum2_a, &rest)
                }
            }
            (false, false) => {
                // Both children survive: contract each in place.
                let out_left = e.load(out, TN_LEFT);
                let out_right = e.load(out, TN_RIGHT);
                e.call(cr, &[lv, rk, layout, out_left]);
                e.call(cr, &[rv, rk, layout, out_right]);
                if plain {
                    let w = e.load(v.ptr(), TN_VAL);
                    Tail::call(set_val, &[w, Value::Ptr(out), out_m])
                } else {
                    let val_m = e.load(v.ptr(), TN_VAL).modref();
                    Tail::read(val_m, set_val, &[Value::Ptr(out), out_m])
                }
            }
        }
    });

    // ------------------------------------------------------------------
    // The round loop.
    // ------------------------------------------------------------------

    // entry(root_m, res_m)
    b.define_native(entry, move |_e, args| {
        Tail::call(
            level,
            &[args[0], args[1], Value::Int(0), Value::Int(LAYOUT_PLAIN)],
        )
    });

    // level(t_m, res_m, rk, layout)
    b.define_native(level, move |_e, args| {
        Tail::read(args[0].modref(), level_body, &args[1..])
    });

    // level_body(v, res_m, rk, layout)
    b.define_native(level_body, move |e, args| match args[0] {
        Value::Nil => {
            e.write(args[1].modref(), Value::Nil);
            Tail::Done
        }
        v => {
            let left_m = e.load(v.ptr(), TN_LEFT).modref();
            Tail::read(left_m, level_l, args)
        }
    });

    // level_l(lv, v, res_m, rk, layout)
    b.define_native(level_l, move |e, args| {
        if args[0] != Value::Nil {
            let a = [args[1], args[2], args[3], args[4]];
            return Tail::Call(level_round, a.as_slice().into());
        }
        let v = args[1];
        let right_m = e.load(v.ptr(), TN_RIGHT).modref();
        Tail::read(right_m, level_lr, &args[1..])
    });

    // level_lr(rv, v, res_m, rk, layout)
    b.define_native(level_lr, move |e, args| {
        let (v, res_m, layout) = (args[1], args[2], args[4]);
        if args[0] == Value::Nil {
            // A single leaf remains: its weight is the answer.
            if layout.int() == LAYOUT_PLAIN {
                e.write(res_m.modref(), e.load(v.ptr(), TN_VAL));
                Tail::Done
            } else {
                let val_m = e.load(v.ptr(), TN_VAL).modref();
                Tail::read(val_m, level_res, &[res_m])
            }
        } else {
            let a = [args[1], args[2], args[3], args[4]];
            Tail::Call(level_round, a.as_slice().into())
        }
    });

    // level_res(w, res_m)
    b.define_native(level_res, move |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });

    // level_round(v, res_m, rk, layout): run one round, recurse.
    b.define_native(level_round, move |e, args| {
        let (v, res_m, rk, layout) = (args[0], args[1], args[2].int(), args[3]);
        let out_m = e.modref_keyed(&[v, args[2]]);
        e.call(cr, &[v, args[2], layout, Value::ModRef(out_m)]);
        Tail::call(
            level,
            &[
                Value::ModRef(out_m),
                res_m,
                Value::Int(rk + 1),
                Value::Int(LAYOUT_MOD),
            ],
        )
    });

    entry
}

/// Builds the standalone tcon program.
pub fn tcon_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let f = build_tcon(&mut b);
    (b.build(), f)
}

/// A mutator-owned random binary tree with per-edge handles for the
/// test mutator.
#[derive(Debug)]
pub struct InputTree {
    /// Modifiable holding the root pointer.
    pub root: ModRef,
    /// Every edge: (the child-slot modifiable, the child pointer).
    /// Edge `i` attaches node `i + 1` (creation order) to its parent.
    pub edges: Vec<(ModRef, Value)>,
    /// Parent index per node (`u32::MAX` for the root, node 0) — the
    /// same tree in plain form, for the hand-optimized comparison.
    pub parents: Vec<u32>,
    /// Number of nodes.
    pub n: usize,
}

impl InputTree {
    /// Detaches the subtree under edge `i`. Returns `false` if already
    /// detached.
    pub fn delete_edge(&self, e: &mut impl Mutator, i: usize) -> bool {
        let (slot, child) = self.edges[i];
        if e.deref(slot) != child {
            return false;
        }
        e.modify(slot, Value::Nil);
        true
    }

    /// Re-attaches the subtree under edge `i`.
    pub fn insert_edge(&self, e: &mut impl Mutator, i: usize) {
        let (slot, child) = self.edges[i];
        e.modify(slot, child);
    }
}

/// Builds a random binary tree with `n` nodes by attaching each new
/// node to a uniformly random free child slot.
pub fn build_tree(e: &mut Engine, n: usize, seed: u64) -> InputTree {
    let mut rng = Prng::seed_from_u64(seed ^ 0x7C09);
    let root = e.meta_modref();
    let mut edges = Vec::new();
    let mut parents: Vec<u32> = Vec::new();
    if n == 0 {
        e.modify(root, Value::Nil);
        return InputTree {
            root,
            edges,
            parents,
            n,
        };
    }
    let mk = |e: &mut Engine| -> (Value, ModRef, ModRef) {
        let t = e.meta_alloc(3);
        let lm = e.meta_modref_in(t, TN_LEFT);
        let rm = e.meta_modref_in(t, TN_RIGHT);
        e.modify(lm, Value::Nil);
        e.modify(rm, Value::Nil);
        e.meta_store(t, TN_VAL, Value::Int(1));
        (Value::Ptr(t), lm, rm)
    };
    let (rv, rl, rr) = mk(e);
    e.modify(root, rv);
    parents.push(u32::MAX);
    // Free slots available for attachment, with their owning node.
    let mut free: Vec<(ModRef, u32)> = vec![(rl, 0), (rr, 0)];
    for i in 1..n {
        let pick = rng.gen_range(0..free.len());
        let (slot, owner) = free.swap_remove(pick);
        let (cv, cl, cr) = mk(e);
        e.modify(slot, cv);
        edges.push((slot, cv));
        parents.push(owner);
        free.push((cl, i as u32));
        free.push((cr, i as u32));
    }
    InputTree {
        root,
        edges,
        parents,
        n,
    }
}

/// Conventional oracle: the number of nodes reachable from the root in
/// the mutator structure.
pub fn count_reachable(e: &Engine, root: ModRef) -> i64 {
    fn go(e: &Engine, v: Value) -> i64 {
        match v {
            Value::Nil => 0,
            Value::Ptr(t) => {
                1 + go(e, e.deref(e.load(t, TN_LEFT).modref()))
                    + go(e, e.deref(e.load(t, TN_RIGHT).modref()))
            }
            other => panic!("malformed tree value {other:?}"),
        }
    }
    go(e, e.deref(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contraction_computes_tree_size() {
        let (p, tcon) = tcon_program();
        let mut e = Engine::new(p);
        let tree = build_tree(&mut e, 100, 1);
        let res = e.meta_modref();
        e.run_core(tcon, &[Value::ModRef(tree.root), Value::ModRef(res)]);
        assert_eq!(e.deref(res), Value::Int(100));
    }

    #[test]
    fn tiny_trees() {
        for n in 0..5usize {
            let (p, tcon) = tcon_program();
            let mut e = Engine::new(p);
            let tree = build_tree(&mut e, n, 2);
            let res = e.meta_modref();
            e.run_core(tcon, &[Value::ModRef(tree.root), Value::ModRef(res)]);
            let expect = if n == 0 {
                Value::Nil
            } else {
                Value::Int(n as i64)
            };
            assert_eq!(e.deref(res), expect, "n={n}");
        }
    }

    #[test]
    fn edge_deletions_update_the_size() {
        let (p, tcon) = tcon_program();
        let mut e = Engine::new(p);
        let tree = build_tree(&mut e, 80, 3);
        let res = e.meta_modref();
        e.run_core(tcon, &[Value::ModRef(tree.root), Value::ModRef(res)]);
        assert_eq!(e.deref(res), Value::Int(80));

        let mut rng = Prng::seed_from_u64(4);
        for _ in 0..40 {
            let i = rng.gen_range(0..tree.edges.len());
            if !tree.delete_edge(&mut e, i) {
                continue;
            }
            e.propagate();
            let expect = count_reachable(&e, tree.root);
            assert_eq!(e.deref(res).int(), expect, "after deleting edge {i}");
            tree.insert_edge(&mut e, i);
            e.propagate();
            assert_eq!(e.deref(res).int(), 80, "after re-inserting edge {i}");
        }
        e.check_invariants();
    }

    /// Contraction updates should be polylogarithmic: compare per-edit
    /// trace work at two sizes.
    #[test]
    fn updates_are_sublinear() {
        let mut work = Vec::new();
        for &n in &[64usize, 1024] {
            let (p, tcon) = tcon_program();
            let mut e = Engine::new(p);
            let tree = build_tree(&mut e, n, 5);
            let res = e.meta_modref();
            e.run_core(tcon, &[Value::ModRef(tree.root), Value::ModRef(res)]);
            let mut rng = Prng::seed_from_u64(6);
            let base = e.stats().ops.reads_reexecuted + e.stats().ops.memo_hits;
            let edits = 40;
            for _ in 0..edits {
                let i = rng.gen_range(0..tree.edges.len());
                if tree.delete_edge(&mut e, i) {
                    e.propagate();
                    tree.insert_edge(&mut e, i);
                    e.propagate();
                }
            }
            work.push(
                (e.stats().ops.reads_reexecuted + e.stats().ops.memo_hits - base) as f64
                    / (2.0 * edits as f64),
            );
        }
        let ratio = work[1] / work[0];
        // n grew 16x; polylog update work should grow far less than 8x.
        assert!(
            ratio < 8.0,
            "tcon update work not sublinear: {work:?} ratio {ratio:.2}"
        );
    }
}
