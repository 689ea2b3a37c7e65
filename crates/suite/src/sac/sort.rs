//! Self-adjusting sorting: `quicksort` and `mergesort` (§8.2), run on
//! lists of random 32-character strings as in the paper.
//!
//! Quicksort partitions around the head pivot; mergesort splits by
//! per-cell coin flips (hashed from the cell identity and the recursion
//! depth, so splits are stable under structural edits) and merges
//! sorted halves. Both allocate output cells keyed by (data, source
//! cell, context), so keyed allocation + memoization confine an edit's
//! damage to the O(log n) recursion path through the sort.

use ceal_runtime::prelude::*;

use crate::input::{CELL_DATA, CELL_NEXT};

/// Total order on sortable values (ints, floats, interned strings).
pub fn value_le<V: ReadView>(e: &V, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x <= y,
        (Value::Float(x), Value::Float(y)) => x <= y,
        (Value::Str(x), Value::Str(y)) => e.str_cmp(x, y) != std::cmp::Ordering::Greater,
        _ => panic!("incomparable values {a:?} vs {b:?}"),
    }
}

#[inline]
fn coin(cell: Value, depth: i64) -> bool {
    let x = (cell.ptr().0 as u64) ^ (depth as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let h = x.wrapping_mul(0xA0761D6478BD642F);
    (h >> 33) & 1 == 0
}

/// Builds `quicksort`: entry arguments `[in_m, out_m]`.
pub fn build_quicksort(b: &mut ProgramBuilder, name: &str) -> FuncId {
    let init_cell = b.native(&format!("{name}_init"), |e, args| {
        let loc = args[0].ptr();
        e.store(loc, CELL_DATA, args[1]);
        e.modref_init(loc, CELL_NEXT);
        Tail::Done
    });

    let qs = b.declare(&format!("{name}_qs"));
    let qs_body = b.declare(&format!("{name}_qs_body"));
    let part = b.declare(&format!("{name}_part"));
    let part_body = b.declare(&format!("{name}_part_body"));
    let entry = b.declare(name);

    // entry(in_m, out_m) = qs(in_m, out_m, rest = Nil)
    b.define_native(entry, move |_e, args| {
        Tail::call(qs, &[args[0], args[1], Value::Nil])
    });

    // qs(l_m, d_m, rest): v := read l_m; tail qs_body(v, d_m, rest)
    b.define_native(qs, move |_e, args| {
        Tail::read(args[0].modref(), qs_body, &args[1..])
    });

    // qs_body(v, d_m, rest)
    b.define_native(qs_body, move |e, args| {
        let d_m = args[1].modref();
        let rest = args[2];
        match args[0] {
            Value::Nil => {
                e.write(d_m, rest);
                Tail::Done
            }
            v => {
                let c = v.ptr();
                let pivot = e.load(c, CELL_DATA);
                let le_m = e.modref_keyed(&[v, Value::Int(0)]);
                let gt_m = e.modref_keyed(&[v, Value::Int(1)]);
                let tail_m = e.load(c, CELL_NEXT);
                e.call(
                    part,
                    &[tail_m, pivot, Value::ModRef(le_m), Value::ModRef(gt_m)],
                );
                // The pivot's output cell sits between the halves.
                let pcell = e.alloc(2, init_cell, &[pivot, v]);
                let pnext = e.load(pcell, CELL_NEXT);
                // Sort the greater side into the pivot's tail...
                e.call(qs, &[Value::ModRef(gt_m), pnext, rest]);
                // ...and the less-or-equal side into the destination.
                Tail::call(qs, &[Value::ModRef(le_m), args[1], Value::Ptr(pcell)])
            }
        }
    });

    // part(l_m, pivot, le_m, gt_m)
    b.define_native(part, move |_e, args| {
        Tail::read(args[0].modref(), part_body, &args[1..])
    });

    // part_body(v, pivot, le_m, gt_m)
    b.define_native(part_body, move |e, args| {
        let pivot = args[1];
        let le_m = args[2].modref();
        let gt_m = args[3].modref();
        match args[0] {
            Value::Nil => {
                e.write(le_m, Value::Nil);
                e.write(gt_m, Value::Nil);
                Tail::Done
            }
            v => {
                let c = v.ptr();
                let h = e.load(c, CELL_DATA);
                // Keyed by (data, source cell) only — NOT the pivot: when
                // a deleted element was the pivot, the repartition under
                // the new pivot can then still steal every cell whose
                // side is unchanged, and memo-match the unchanged runs.
                let ncell = e.alloc(2, init_cell, &[h, v]);
                let nnext = e.load(ncell, CELL_NEXT);
                let next_in = e.load(c, CELL_NEXT).modref();
                if value_le(e, h, pivot) {
                    e.write(le_m, Value::Ptr(ncell));
                    Tail::read(next_in, part_body, &[pivot, nnext, args[3]])
                } else {
                    e.write(gt_m, Value::Ptr(ncell));
                    Tail::read(next_in, part_body, &[pivot, args[2], nnext])
                }
            }
        }
    });

    entry
}

/// Builds `mergesort`: entry arguments `[in_m, out_m]`.
pub fn build_mergesort(b: &mut ProgramBuilder, name: &str) -> FuncId {
    // Separate initializers so split cells, merge cells and singleton
    // copies never collide in the keyed-allocation table.
    let init_split = b.native(&format!("{name}_init_split"), |e, args| {
        let loc = args[0].ptr();
        e.store(loc, CELL_DATA, args[1]);
        e.modref_init(loc, CELL_NEXT);
        Tail::Done
    });
    let init_merge = b.native(&format!("{name}_init_merge"), |e, args| {
        let loc = args[0].ptr();
        e.store(loc, CELL_DATA, args[1]);
        e.modref_init(loc, CELL_NEXT);
        Tail::Done
    });
    let init_single = b.native(&format!("{name}_init_single"), |e, args| {
        let loc = args[0].ptr();
        e.store(loc, CELL_DATA, args[1]);
        e.modref_init(loc, CELL_NEXT);
        Tail::Done
    });

    let ms = b.declare(&format!("{name}_ms"));
    let ms_body = b.declare(&format!("{name}_ms_body"));
    let ms_check = b.declare(&format!("{name}_ms_check"));
    let split_body = b.declare(&format!("{name}_split_body"));
    let merge = b.declare(&format!("{name}_merge"));
    let mg_start = b.declare(&format!("{name}_mg_start"));
    let mg_step = b.declare(&format!("{name}_mg_step"));
    let entry = b.declare(name);

    b.define_native(entry, move |_e, args| {
        Tail::call(ms, &[args[0], args[1], Value::Int(0)])
    });

    // ms(l_m, d_m, depth)
    b.define_native(ms, move |_e, args| {
        Tail::read(args[0].modref(), ms_body, &args[1..])
    });

    // ms_body(v, d_m, depth)
    b.define_native(ms_body, move |e, args| {
        let d_m = args[1].modref();
        match args[0] {
            Value::Nil => {
                e.write(d_m, Value::Nil);
                Tail::Done
            }
            v => {
                let next_m = e.load(v.ptr(), CELL_NEXT).modref();
                let rest = [v, args[1], args[2]];
                Tail::read(next_m, ms_check, &rest)
            }
        }
    });

    // ms_check(nv, c, d_m, depth)
    b.define_native(ms_check, move |e, args| {
        let c = args[1];
        let d_m = args[2].modref();
        let depth = args[3].int();
        if args[0] == Value::Nil {
            // Singleton: copy the cell (the input cell's tail points
            // into the unsorted rest, so it cannot be shared).
            let h = e.load(c.ptr(), CELL_DATA);
            let out = e.alloc(2, init_single, &[h, c, Value::Int(depth)]);
            let out_next = e.load(out, CELL_NEXT).modref();
            e.write(out_next, Value::Nil);
            e.write(d_m, Value::Ptr(out));
            Tail::Done
        } else {
            let a_m = e.modref_keyed(&[c, Value::Int(depth), Value::Int(0)]);
            let b_m = e.modref_keyed(&[c, Value::Int(depth), Value::Int(1)]);
            e.call(
                split_body,
                &[c, Value::Int(depth), Value::ModRef(a_m), Value::ModRef(b_m)],
            );
            let sa = e.modref_keyed(&[c, Value::Int(depth), Value::Int(2)]);
            let sb = e.modref_keyed(&[c, Value::Int(depth), Value::Int(3)]);
            e.call(
                ms,
                &[Value::ModRef(a_m), Value::ModRef(sa), Value::Int(depth + 1)],
            );
            e.call(
                ms,
                &[Value::ModRef(b_m), Value::ModRef(sb), Value::Int(depth + 1)],
            );
            Tail::call(
                merge,
                &[
                    Value::ModRef(sa),
                    Value::ModRef(sb),
                    args[2],
                    Value::Int(depth),
                ],
            )
        }
    });

    // split_body(v, depth, a_m, b_m): cons v's cell onto the side chosen
    // by a coin on (cell, depth), then continue with the tail.
    b.define_native(split_body, move |e, args| {
        let depth = args[1].int();
        match args[0] {
            Value::Nil => {
                e.write(args[2].modref(), Value::Nil);
                e.write(args[3].modref(), Value::Nil);
                Tail::Done
            }
            v => {
                let c = v.ptr();
                let h = e.load(c, CELL_DATA);
                let ncell = e.alloc(2, init_split, &[h, v, Value::Int(depth)]);
                let nnext = e.load(ncell, CELL_NEXT);
                let next_in = e.load(c, CELL_NEXT).modref();
                let (a2, b2) = if coin(v, depth) {
                    e.write(args[2].modref(), Value::Ptr(ncell));
                    (nnext, args[3])
                } else {
                    e.write(args[3].modref(), Value::Ptr(ncell));
                    (args[2], nnext)
                };
                Tail::read(next_in, split_body, &[Value::Int(depth), a2, b2])
            }
        }
    });

    // merge(sa_m, sb_m, d_m, depth)
    b.define_native(merge, move |_e, args| {
        Tail::read(args[0].modref(), mg_start, &args[1..])
    });

    // mg_start(va, sb_m, d_m, depth)
    b.define_native(mg_start, move |_e, args| {
        let rest = [args[0], args[2], args[3]];
        Tail::read(args[1].modref(), mg_step, &rest)
    });

    // mg_step(x, y, d_m, depth): x freshly read, y the other list's head.
    b.define_native(mg_step, move |e, args| {
        let x = args[0];
        let y = args[1];
        let d_m = args[2].modref();
        let depth = args[3].int();
        if x == Value::Nil {
            e.write(d_m, y);
            return Tail::Done;
        }
        if y == Value::Nil {
            e.write(d_m, x);
            return Tail::Done;
        }
        let hx = e.load(x.ptr(), CELL_DATA);
        let hy = e.load(y.ptr(), CELL_DATA);
        let (w, l) = if value_le(e, hx, hy) { (x, y) } else { (y, x) };
        let hw = e.load(w.ptr(), CELL_DATA);
        let out = e.alloc(2, init_merge, &[hw, w, Value::Int(depth)]);
        e.write(d_m, Value::Ptr(out));
        let out_next = e.load(out, CELL_NEXT);
        let w_next = e.load(w.ptr(), CELL_NEXT).modref();
        Tail::read(w_next, mg_step, &[l, out_next, args[3]])
    });

    entry
}

/// Builds the standalone `quicksort` benchmark program.
pub fn quicksort_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let f = build_quicksort(&mut b, "quicksort");
    (b.build(), f)
}

/// Builds the standalone `mergesort` benchmark program.
pub fn mergesort_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let f = build_mergesort(&mut b, "mergesort");
    (b.build(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{build_list, collect_list, int_list, str_list};
    use ceal_runtime::prng::Prng;

    fn check_sort_session(
        make: fn() -> (std::sync::Arc<Program>, FuncId),
        n: usize,
        strings: bool,
        seed: u64,
    ) {
        let (p, sort) = make();
        let mut e = Engine::new(p);
        let l = if strings {
            str_list(&mut e, n, seed)
        } else {
            int_list(&mut e, n, seed)
        };
        let data: Vec<Value> = l.cells.iter().map(|c| e.load(c.ptr(), CELL_DATA)).collect();
        let out = e.meta_modref();
        e.run_core(sort, &[Value::ModRef(l.head), Value::ModRef(out)]);

        let oracle = |e: &Engine, d: &[Value]| {
            let mut d = d.to_vec();
            d.sort_by(|&a, &b| match (a, b) {
                (Value::Int(x), Value::Int(y)) => x.cmp(&y),
                (Value::Str(x), Value::Str(y)) => e.str_cmp(x, y),
                _ => unreachable!(),
            });
            d
        };
        assert_eq!(collect_list(&e, out), oracle(&e, &data), "initial sort");

        let mut rng = Prng::seed_from_u64(seed ^ 1);
        for _ in 0..25 {
            let i = rng.gen_range(0..n);
            l.delete(&mut e, i);
            e.propagate();
            let mut d = data.clone();
            d.remove(i);
            assert_eq!(collect_list(&e, out), oracle(&e, &d), "after delete {i}");
            l.insert(&mut e, i);
            e.propagate();
            assert_eq!(collect_list(&e, out), oracle(&e, &data), "after insert {i}");
        }
        e.check_invariants();
    }

    #[test]
    fn quicksort_ints_matches_oracle() {
        check_sort_session(quicksort_program, 120, false, 41);
    }

    #[test]
    fn quicksort_strings_matches_oracle() {
        check_sort_session(quicksort_program, 80, true, 42);
    }

    #[test]
    fn mergesort_ints_matches_oracle() {
        check_sort_session(mergesort_program, 120, false, 43);
    }

    #[test]
    fn mergesort_strings_matches_oracle() {
        check_sort_session(mergesort_program, 80, true, 44);
    }

    #[test]
    fn sorts_handle_tiny_lists() {
        for make in [
            quicksort_program as fn() -> _,
            mergesort_program as fn() -> _,
        ] {
            for k in 0..4usize {
                let (p, sort) = make();
                let mut e = Engine::new(p);
                let vals: Vec<Value> = (0..k).map(|i| Value::Int((k - i) as i64)).collect();
                let l = build_list(&mut e, &vals);
                let out = e.meta_modref();
                e.run_core(sort, &[Value::ModRef(l.head), Value::ModRef(out)]);
                let mut exp = vals.clone();
                exp.sort_by_key(|v| v.int());
                assert_eq!(collect_list(&e, out), exp, "size {k}");
            }
        }
    }

    #[test]
    fn duplicate_keys_are_preserved() {
        let (p, sort) = quicksort_program();
        let mut e = Engine::new(p);
        let vals: Vec<Value> = [3, 1, 3, 1, 2, 2, 3]
            .iter()
            .map(|&x| Value::Int(x))
            .collect();
        let l = build_list(&mut e, &vals);
        let out = e.meta_modref();
        e.run_core(sort, &[Value::ModRef(l.head), Value::ModRef(out)]);
        let got = collect_list(&e, out);
        assert_eq!(
            got,
            vec![1, 1, 2, 2, 3, 3, 3]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        );
    }

    /// Update work should grow sublinearly in n (the paper measures
    /// ~n^0 to polylog update times for the sorts).
    #[test]
    fn quicksort_updates_are_sublinear() {
        let mut work = Vec::new();
        for &n in &[128usize, 2048] {
            let (p, sort) = quicksort_program();
            let mut e = Engine::new(p);
            let l = int_list(&mut e, n, 45);
            let out = e.meta_modref();
            e.run_core(sort, &[Value::ModRef(l.head), Value::ModRef(out)]);
            let mut rng = Prng::seed_from_u64(46);
            let base = e.stats().ops.reads_reexecuted + e.stats().ops.memo_hits;
            let edits = 40;
            for _ in 0..edits {
                let i = rng.gen_range(0..n);
                l.delete(&mut e, i);
                e.propagate();
                l.insert(&mut e, i);
                e.propagate();
            }
            work.push(
                (e.stats().ops.reads_reexecuted + e.stats().ops.memo_hits - base) as f64
                    / (2.0 * edits as f64),
            );
        }
        let ratio = work[1] / work[0];
        // n grew 16x; polylog update work should grow much less than 8x.
        assert!(
            ratio < 8.0,
            "quicksort update work not sublinear: {work:?} ratio {ratio:.2}"
        );
    }
}
