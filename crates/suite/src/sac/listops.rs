//! Self-adjusting list primitives: `map`, `filter`, `reverse` (§8.2).
//!
//! These are written exactly in the form `cealc` produces after
//! normalization and translation (Fig. 5 / Fig. 12): straight-line
//! bodies that end in `Tail::Read`/`Tail::Call`/`Tail::Done`, with every
//! read immediately followed by a tail call. Output cells are allocated
//! with *keys* containing the source cell, so keyed allocation keeps
//! locations stable across updates.
//!
//! The builders are generic over the per-element function, so the same
//! code serves the standalone benchmarks and the composite geometry
//! benchmarks (which use parameterized filters).

use ceal_runtime::prelude::*;

use crate::input::{CELL_DATA, CELL_NEXT};

/// Per-element transformation; `params` are the trailing arguments given
/// to the pass entry (empty for the standalone benchmarks).
pub type ElemFn = fn(&mut RegionCx<'_>, Value, &[Value]) -> Value;

/// Per-element predicate for `filter`.
pub type PredFn = fn(&mut RegionCx<'_>, Value, &[Value]) -> bool;

/// Builds the shared output-cell initializer: `init(loc, data, ..key)`
/// stores `data` and creates the `next` modifiable. Extra arguments are
/// key components only.
pub fn build_init_cell(b: &mut ProgramBuilder) -> FuncId {
    b.native("init_cell", |e, args| {
        let loc = args[0].ptr();
        e.store(loc, CELL_DATA, args[1]);
        e.modref_init(loc, CELL_NEXT);
        Tail::Done
    })
}

/// Builds `map f`: entry arguments `[in_m, out_m, params...]`.
pub fn build_map(b: &mut ProgramBuilder, name: &str, init_cell: FuncId, f: ElemFn) -> FuncId {
    let body = b.declare(&format!("{name}_body"));
    let entry = b.declare(name);
    b.define_native(entry, move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    b.define_native(body, move |e, args| {
        let out_m = args[1].modref();
        match args[0] {
            Value::Nil => {
                e.write(out_m, Value::Nil);
                Tail::Done
            }
            v => {
                let c = v.ptr();
                let h = e.load(c, CELL_DATA);
                let mv = f(e, h, &args[2..]);
                // Key: mapped value + source cell + params.
                let mut key = vec![mv, v];
                key.extend_from_slice(&args[2..]);
                let out_cell = e.alloc(2, init_cell, &key);
                e.write(out_m, Value::Ptr(out_cell));
                let next_in = e.load(c, CELL_NEXT).modref();
                let next_out = e.load(out_cell, CELL_NEXT);
                let mut rest = vec![next_out];
                rest.extend_from_slice(&args[2..]);
                Tail::read(next_in, body, &rest)
            }
        }
    });
    entry
}

/// Builds `filter p`: entry arguments `[in_m, out_m, params...]`.
pub fn build_filter(b: &mut ProgramBuilder, name: &str, init_cell: FuncId, p: PredFn) -> FuncId {
    let body = b.declare(&format!("{name}_body"));
    let entry = b.declare(name);
    b.define_native(entry, move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    b.define_native(body, move |e, args| {
        let out_m = args[1].modref();
        match args[0] {
            Value::Nil => {
                e.write(out_m, Value::Nil);
                Tail::Done
            }
            v => {
                let c = v.ptr();
                let h = e.load(c, CELL_DATA);
                let next_in = e.load(c, CELL_NEXT).modref();
                if p(e, h, &args[2..]) {
                    let mut key = vec![h, v];
                    key.extend_from_slice(&args[2..]);
                    let out_cell = e.alloc(2, init_cell, &key);
                    e.write(out_m, Value::Ptr(out_cell));
                    let next_out = e.load(out_cell, CELL_NEXT);
                    let mut rest = vec![next_out];
                    rest.extend_from_slice(&args[2..]);
                    Tail::read(next_in, body, &rest)
                } else {
                    // Skip: keep writing into the same destination.
                    Tail::read(next_in, body, &args[1..])
                }
            }
        }
    });
    entry
}

/// Builds `reverse`: entry arguments `[in_m, out_m]`. Output cells hold
/// their tails in modifiables written *after* allocation, so a
/// structural edit leaves every output location (and hence the memo
/// keys downstream) intact — the key trick of keyed allocation.
pub fn build_reverse(b: &mut ProgramBuilder, name: &str, init_cell: FuncId) -> FuncId {
    let body = b.declare(&format!("{name}_body"));
    let entry = b.declare(name);
    b.define_native(entry, move |_e, args| {
        // acc starts Nil
        let rest = [Value::Nil, args[1]];
        Tail::read(args[0].modref(), body, &rest)
    });
    b.define_native(body, move |e, args| {
        let acc = args[1];
        let out_m = args[2].modref();
        match args[0] {
            Value::Nil => {
                e.write(out_m, acc);
                Tail::Done
            }
            v => {
                let c = v.ptr();
                let h = e.load(c, CELL_DATA);
                let out_cell = e.alloc(2, init_cell, &[h, v]);
                let next_m = e.load(out_cell, CELL_NEXT).modref();
                e.write(next_m, acc);
                let next_in = e.load(c, CELL_NEXT).modref();
                Tail::read(next_in, body, &[Value::Ptr(out_cell), args[2]])
            }
        }
    });
    entry
}

/// The paper's map function: f(x) = ⌊x/3⌋ + ⌊x/7⌋ + ⌊x/9⌋ (§8.2).
pub fn paper_map_fn(x: i64) -> i64 {
    x / 3 + x / 7 + x / 9
}

/// The paper's filter predicate: keep x iff f(x) is even (§8.2 filters
/// *out* when f(x) is odd).
pub fn paper_filter_keep(x: i64) -> bool {
    paper_map_fn(x) % 2 == 0
}

/// Convenience: build the standalone `map` benchmark program.
pub fn map_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let init = build_init_cell(&mut b);
    let f = build_map(&mut b, "map", init, |_e, v, _p| {
        Value::Int(paper_map_fn(v.int()))
    });
    (b.build(), f)
}

/// Convenience: build the standalone `filter` benchmark program.
pub fn filter_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let init = build_init_cell(&mut b);
    let f = build_filter(&mut b, "filter", init, |_e, v, _p| {
        paper_filter_keep(v.int())
    });
    (b.build(), f)
}

/// Convenience: build the standalone `reverse` benchmark program.
pub fn reverse_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let init = build_init_cell(&mut b);
    let f = build_reverse(&mut b, "reverse", init);
    (b.build(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{build_list, collect_list, int_list};

    #[test]
    fn map_matches_oracle_under_edits() {
        let (p, map) = map_program();
        let mut e = Engine::new(p);
        let l = int_list(&mut e, 64, 11);
        let data: Vec<i64> = l
            .cells
            .iter()
            .map(|c| e.load(c.ptr(), CELL_DATA).int())
            .collect();
        let out = e.meta_modref();
        e.run_core(map, &[Value::ModRef(l.head), Value::ModRef(out)]);
        let expect: Vec<Value> = data.iter().map(|&x| Value::Int(paper_map_fn(x))).collect();
        assert_eq!(collect_list(&e, out), expect);

        for i in [0usize, 31, 63, 10] {
            l.delete(&mut e, i);
            e.propagate();
            let mut exp = expect.clone();
            exp.remove(i);
            assert_eq!(collect_list(&e, out), exp, "delete {i}");
            l.insert(&mut e, i);
            e.propagate();
            assert_eq!(collect_list(&e, out), expect, "insert {i}");
        }
    }

    #[test]
    fn filter_matches_oracle_under_edits() {
        let (p, filter) = filter_program();
        let mut e = Engine::new(p);
        let l = int_list(&mut e, 64, 12);
        let data: Vec<i64> = l
            .cells
            .iter()
            .map(|c| e.load(c.ptr(), CELL_DATA).int())
            .collect();
        let out = e.meta_modref();
        e.run_core(filter, &[Value::ModRef(l.head), Value::ModRef(out)]);
        let oracle = |d: &[i64]| -> Vec<Value> {
            d.iter()
                .filter(|&&x| paper_filter_keep(x))
                .map(|&x| Value::Int(x))
                .collect()
        };
        assert_eq!(collect_list(&e, out), oracle(&data));

        for i in [5usize, 0, 63, 40] {
            l.delete(&mut e, i);
            e.propagate();
            let mut d = data.clone();
            d.remove(i);
            assert_eq!(collect_list(&e, out), oracle(&d), "delete {i}");
            l.insert(&mut e, i);
            e.propagate();
            assert_eq!(collect_list(&e, out), oracle(&data), "insert {i}");
        }
    }

    #[test]
    fn reverse_matches_oracle_under_edits() {
        let (p, rev) = reverse_program();
        let mut e = Engine::new(p);
        let l = int_list(&mut e, 50, 13);
        let data: Vec<Value> = l.cells.iter().map(|c| e.load(c.ptr(), CELL_DATA)).collect();
        let out = e.meta_modref();
        e.run_core(rev, &[Value::ModRef(l.head), Value::ModRef(out)]);
        let mut expect = data.clone();
        expect.reverse();
        assert_eq!(collect_list(&e, out), expect);

        for i in [49usize, 0, 25] {
            l.delete(&mut e, i);
            e.propagate();
            let mut d = data.clone();
            d.remove(i);
            d.reverse();
            assert_eq!(collect_list(&e, out), d, "delete {i}");
            l.insert(&mut e, i);
            e.propagate();
            assert_eq!(collect_list(&e, out), expect, "insert {i}");
        }
    }

    #[test]
    fn empty_lists_work() {
        let (p, map) = map_program();
        let mut e = Engine::new(p);
        let l = build_list(&mut e, &[]);
        let out = e.meta_modref();
        e.run_core(map, &[Value::ModRef(l.head), Value::ModRef(out)]);
        assert_eq!(collect_list(&e, out), Vec::<Value>::new());
    }

    #[test]
    fn reverse_edits_are_constant_work() {
        use ceal_runtime::prng::Prng;
        let mut rng = Prng::seed_from_u64(5);
        let (p, rev) = reverse_program();
        let mut e = Engine::new(p);
        let l = int_list(&mut e, 1_000, 14);
        let out = e.meta_modref();
        e.run_core(rev, &[Value::ModRef(l.head), Value::ModRef(out)]);
        let base = e.stats().ops.reads_reexecuted;
        let edits = 100;
        for _ in 0..edits {
            let i = rng.gen_range(0..l.len());
            l.delete(&mut e, i);
            e.propagate();
            l.insert(&mut e, i);
            e.propagate();
        }
        let per = (e.stats().ops.reads_reexecuted - base) as f64 / (2.0 * edits as f64);
        assert!(per < 4.0, "reverse edits should be O(1): measured {per:.2}");
    }
}
