//! Self-adjusting list reduction: `minimum` and `sum` (§8.2), plus the
//! parameterized reductions the geometry benchmarks use.
//!
//! A straight left-to-right fold would make every update O(n): changing
//! element 0 re-executes the whole chain. Instead we use the standard
//! self-adjusting-computation technique of *randomized pairing rounds*:
//! each round partitions the list into runs delimited by "survivor"
//! cells (chosen by a hash of the cell identity and the round number)
//! and folds each run into one cell of a half-length intermediate list;
//! after an expected O(log n) rounds a single value remains. A
//! structural edit then perturbs O(1) runs per round, so change
//! propagation costs O(log n) expected — matching the update-time curves
//! of Fig. 13 / Table 1.
//!
//! Intermediate cells hold their data in modifiables (written after
//! allocation) so keyed allocation keeps their identity — and therefore
//! the next round's memo keys — stable across updates.

use ceal_runtime::prelude::*;

use crate::input::{CELL_DATA, CELL_NEXT};

/// Binary combination; `params` are the trailing entry arguments.
pub type CombineFn = fn(&mut RegionCx<'_>, Value, Value, &[Value]) -> Value;

/// Input-list layout: data stored directly in slot 0.
const LAYOUT_PLAIN: i64 = 0;
/// Intermediate-list layout: slot 0 is a modifiable holding the data.
const LAYOUT_MOD: i64 = 1;

#[inline]
fn survivor(cell: Value, rk: i64) -> bool {
    let x = (cell.ptr().0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    let h =
        (x ^ (rk as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (h >> 32) & 1 == 0
}

/// Entries produced by [`build_reduce`].
#[derive(Clone, Copy, Debug)]
pub struct ReduceFns {
    /// Entry for plain-data lists (`[data, next]` cells): arguments
    /// `[in_m, res_m, params...]`.
    pub entry: FuncId,
    /// Entry for modifiable-data lists (`[data_m, next_m]` cells), as
    /// produced by other self-adjusting passes.
    pub entry_mod: FuncId,
}

/// Builds `reduce combine`: writes the reduction of the (possibly
/// empty) input list into `res_m` — `Value::Nil` for an empty list.
pub fn build_reduce(b: &mut ProgramBuilder, name: &str, combine: CombineFn) -> ReduceFns {
    // Initializer for intermediate cells: both slots are modifiables.
    let init2m = b.native(&format!("{name}_init2m"), |e, args| {
        let loc = args[0].ptr();
        e.modref_init(loc, CELL_DATA);
        e.modref_init(loc, CELL_NEXT);
        Tail::Done
    });

    let level = b.declare(&format!("{name}_level"));
    let body = b.declare(&format!("{name}_body"));
    let check = b.declare(&format!("{name}_check"));
    let single = b.declare(&format!("{name}_single"));
    let emit = b.declare(&format!("{name}_emit"));
    let acc0 = b.declare(&format!("{name}_acc0"));
    let walk = b.declare(&format!("{name}_walk"));
    let fold = b.declare(&format!("{name}_fold"));
    let entry = b.declare(name);
    let entry_mod = b.declare(&format!("{name}_mod"));

    // entry(in_m, res_m, params...) -> level(in_m, res_m, layout=0, rk=0, params)
    b.define_native(entry, move |_e, args| {
        let mut a = vec![args[0], args[1], Value::Int(LAYOUT_PLAIN), Value::Int(0)];
        a.extend_from_slice(&args[2..]);
        Tail::Call(level, a.into())
    });

    b.define_native(entry_mod, move |_e, args| {
        let mut a = vec![args[0], args[1], Value::Int(LAYOUT_MOD), Value::Int(0)];
        a.extend_from_slice(&args[2..]);
        Tail::Call(level, a.into())
    });

    // level(in_m, res_m, layout, rk, params): v := read in_m; tail body
    b.define_native(level, move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });

    // body(v, res_m, layout, rk, params)
    b.define_native(body, move |e, args| {
        let res_m = args[1].modref();
        match args[0] {
            Value::Nil => {
                e.write(res_m, Value::Nil);
                Tail::Done
            }
            v => {
                // Peek at the tail to detect the single-element case.
                let next_m = e.load(v.ptr(), CELL_NEXT).modref();
                let mut a = vec![v];
                a.extend_from_slice(&args[1..]);
                Tail::Read(next_m, check, a.into(), SiteId::NONE)
            }
        }
    });

    // check(nv, c, res_m, layout, rk, params)
    b.define_native(check, move |e, args| {
        let nv = args[0];
        let c = args[1];
        let res_m = args[2].modref();
        let layout = args[3].int();
        let rk = args[4].int();
        if nv == Value::Nil {
            // Single element: its value is the result.
            if layout == LAYOUT_PLAIN {
                e.write(res_m, e.load(c.ptr(), CELL_DATA));
                Tail::Done
            } else {
                let data_m = e.load(c.ptr(), CELL_DATA).modref();
                Tail::read(data_m, single, &[args[2]])
            }
        } else {
            // One pairing round into mid, then recurse on mid.
            let mid = e.modref_keyed(&[c, Value::Int(rk)]);
            let mut ra = vec![c, Value::ModRef(mid)];
            ra.extend_from_slice(&args[3..]);
            // emit(c, out_m, layout, rk, params) runs the round.
            e.call(emit, &ra);
            let mut la = vec![
                Value::ModRef(mid),
                args[2],
                Value::Int(LAYOUT_MOD),
                Value::Int(rk + 1),
            ];
            la.extend_from_slice(&args[5..]);
            Tail::Call(level, la.into())
        }
    });

    // single(dv, res_m)
    b.define_native(single, move |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });

    // emit(c, out_m, layout, rk, params): start a run with survivor c.
    b.define_native(emit, move |e, args| {
        let c = args[0];
        let out_m = args[1].modref();
        let layout = args[2].int();
        let rk = args[3].int();
        let out_cell = e.alloc(2, init2m, &[c, Value::Int(rk)]);
        e.write(out_m, Value::Ptr(out_cell));
        if layout == LAYOUT_PLAIN {
            let acc = e.load(c.ptr(), CELL_DATA);
            let next_m = e.load(c.ptr(), CELL_NEXT).modref();
            let mut a = vec![acc, Value::Ptr(out_cell)];
            a.extend_from_slice(&args[2..]);
            Tail::Read(next_m, walk, a.into(), SiteId::NONE)
        } else {
            let data_m = e.load(c.ptr(), CELL_DATA).modref();
            let mut a = vec![c, Value::Ptr(out_cell)];
            a.extend_from_slice(&args[2..]);
            Tail::Read(data_m, acc0, a.into(), SiteId::NONE)
        }
    });

    // acc0(dv, c, out_cell, layout, rk, params)
    b.define_native(acc0, move |e, args| {
        let c = args[1];
        let next_m = e.load(c.ptr(), CELL_NEXT).modref();
        let mut a = vec![args[0], args[2]];
        a.extend_from_slice(&args[3..]);
        Tail::Read(next_m, walk, a.into(), SiteId::NONE)
    });

    // walk(nv, acc, out_cell, layout, rk, params)
    b.define_native(walk, move |e, args| {
        let acc = args[1];
        let out_cell = args[2].ptr();
        let layout = args[3].int();
        let rk = args[4].int();
        match args[0] {
            Value::Nil => {
                let data_m = e.load(out_cell, CELL_DATA).modref();
                let next_m = e.load(out_cell, CELL_NEXT).modref();
                e.write(data_m, acc);
                e.write(next_m, Value::Nil);
                Tail::Done
            }
            d => {
                if survivor(d, rk) {
                    // Close the current run; d starts the next one.
                    let data_m = e.load(out_cell, CELL_DATA).modref();
                    let next_m = e.load(out_cell, CELL_NEXT).modref();
                    e.write(data_m, acc);
                    let mut a = vec![d, Value::ModRef(next_m)];
                    a.extend_from_slice(&args[3..]);
                    Tail::Call(emit, a.into())
                } else if layout == LAYOUT_PLAIN {
                    let dv = e.load(d.ptr(), CELL_DATA);
                    let acc2 = combine(e, acc, dv, &args[5..]);
                    let next_m = e.load(d.ptr(), CELL_NEXT).modref();
                    let mut a = vec![acc2, args[2]];
                    a.extend_from_slice(&args[3..]);
                    Tail::Read(next_m, walk, a.into(), SiteId::NONE)
                } else {
                    let data_m = e.load(d.ptr(), CELL_DATA).modref();
                    let mut a = vec![acc, d, args[2]];
                    a.extend_from_slice(&args[3..]);
                    Tail::Read(data_m, fold, a.into(), SiteId::NONE)
                }
            }
        }
    });

    // fold(dv, acc, d, out_cell, layout, rk, params)
    b.define_native(fold, move |e, args| {
        let acc2 = combine(e, args[1], args[0], &args[6..]);
        let next_m = e.load(args[2].ptr(), CELL_NEXT).modref();
        let mut a = vec![acc2, args[3]];
        a.extend_from_slice(&args[4..]);
        Tail::Read(next_m, walk, a.into(), SiteId::NONE)
    });

    ReduceFns { entry, entry_mod }
}

/// Builds the standalone `minimum` benchmark program.
pub fn minimum_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let f = build_reduce(&mut b, "minimum", |_e, a, b, _p| {
        Value::Int(a.int().min(b.int()))
    });
    (b.build(), f.entry)
}

/// Builds the standalone `sum` benchmark program.
pub fn sum_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let f = build_reduce(&mut b, "sum", |_e, a, b, _p| Value::Int(a.int() + b.int()));
    (b.build(), f.entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{build_list, int_list};

    fn run_reduce_session(prog: std::sync::Arc<Program>, entry: FuncId, oracle: fn(&[i64]) -> i64) {
        use ceal_runtime::prng::Prng;
        let mut rng = Prng::seed_from_u64(21);
        let mut e = Engine::new(prog);
        let n = 200;
        let l = int_list(&mut e, n, 31);
        let data: Vec<i64> = l
            .cells
            .iter()
            .map(|c| e.load(c.ptr(), CELL_DATA).int())
            .collect();
        let res = e.meta_modref();
        e.run_core(entry, &[Value::ModRef(l.head), Value::ModRef(res)]);
        assert_eq!(e.deref(res).int(), oracle(&data));

        for _ in 0..60 {
            let i = rng.gen_range(0..n);
            l.delete(&mut e, i);
            e.propagate();
            let mut d = data.clone();
            d.remove(i);
            assert_eq!(e.deref(res).int(), oracle(&d), "after delete {i}");
            l.insert(&mut e, i);
            e.propagate();
            assert_eq!(e.deref(res).int(), oracle(&data), "after insert {i}");
        }
        e.check_invariants();
    }

    #[test]
    fn minimum_matches_oracle_under_edits() {
        let (p, f) = minimum_program();
        run_reduce_session(p, f, |d| *d.iter().min().unwrap());
    }

    #[test]
    fn sum_matches_oracle_under_edits() {
        let (p, f) = sum_program();
        run_reduce_session(p, f, |d| d.iter().sum());
    }

    #[test]
    fn reduce_of_empty_and_singleton() {
        let (p, f) = sum_program();
        let mut e = Engine::new(p);
        let l = build_list(&mut e, &[]);
        let res = e.meta_modref();
        e.run_core(f, &[Value::ModRef(l.head), Value::ModRef(res)]);
        assert_eq!(e.deref(res), Value::Nil);

        let (p, f) = sum_program();
        let mut e = Engine::new(p);
        let l = build_list(&mut e, &[Value::Int(42)]);
        let res = e.meta_modref();
        e.run_core(f, &[Value::ModRef(l.head), Value::ModRef(res)]);
        assert_eq!(e.deref(res), Value::Int(42));
    }

    /// Updates should be polylogarithmic, not linear: compare trace work
    /// per edit at two sizes — it should grow far slower than n.
    #[test]
    fn reduce_updates_are_sublinear() {
        use ceal_runtime::prng::Prng;
        let mut work_per_edit = Vec::new();
        for &n in &[256usize, 4096] {
            let (p, f) = minimum_program();
            let mut e = Engine::new(p);
            let mut rng = Prng::seed_from_u64(77);
            let l = int_list(&mut e, n, 78);
            let res = e.meta_modref();
            e.run_core(f, &[Value::ModRef(l.head), Value::ModRef(res)]);
            let base = e.stats().ops.reads_reexecuted + e.stats().ops.memo_hits;
            let edits = 50;
            for _ in 0..edits {
                let i = rng.gen_range(0..n);
                l.delete(&mut e, i);
                e.propagate();
                l.insert(&mut e, i);
                e.propagate();
            }
            let total = e.stats().ops.reads_reexecuted + e.stats().ops.memo_hits - base;
            work_per_edit.push(total as f64 / (2.0 * edits as f64));
        }
        let ratio = work_per_edit[1] / work_per_edit[0];
        // n grew 16x; polylog work should grow by far less than 4x.
        assert!(
            ratio < 4.0,
            "update work should be polylog: {:?} (ratio {ratio:.2})",
            work_per_edit
        );
    }
}
