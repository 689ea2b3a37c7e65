//! Interval-coalesced trace storage invariants (DESIGN.md §13): spans
//! stay disjoint and cover the trace, splits preserve the trace order
//! and the byte accounting, and the representation actually coalesces —
//! boundary counts stay far below live record counts.
//!
//! The structural checks (span disjointness, position bijection, live
//! counts, `interval_bytes` arithmetic, tombstone prefixes behind each
//! span head) live in `Engine::check_invariants`; these tests drive
//! workloads that exercise every split path and call it at each step.

use ceal_runtime::prelude::*;

/// A 64-stage copy chain: `chain[k+1] = chain[k]` for each window, each
/// stage traced by its own `run_core`. Editing `chain[0]` cascades one
/// re-execution window per stage — the workload whose window-start
/// splits and purge walks exercise front splits, donation, and span
/// disposal on every propagation.
fn build_chain(stages: usize) -> (Engine, Vec<ModRef>) {
    let mut b = ProgramBuilder::new();
    let body = b.native("copy_body", |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });
    let copy = b.native("copy", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    let mut e = Engine::new(b.build());
    let chain: Vec<_> = (0..=stages).map(|_| e.meta_modref()).collect();
    e.modify(chain[0], Value::Int(0));
    for w in chain.windows(2) {
        e.run_core(copy, &[Value::ModRef(w[0]), Value::ModRef(w[1])]);
    }
    (e, chain)
}

/// Every propagation round leaves the span structure fully consistent,
/// the cascade exercises interval splits, and the trace stays
/// coalesced: the boundary count remains a small fraction of the live
/// record count instead of degenerating to one boundary per record.
#[test]
fn propagation_keeps_spans_consistent_and_coalesced() {
    let (mut e, chain) = build_chain(64);
    e.check_invariants();

    let splits_before = e.stats().ops.interval_splits;
    for k in 1..=40i64 {
        e.modify(chain[0], Value::Int(k));
        e.propagate();
        e.check_invariants();
        assert_eq!(e.deref(chain[64]), Value::Int(k));
        assert!(
            e.interval_count() <= 16,
            "trace fragmented: {} boundaries for {} live records",
            e.interval_count(),
            e.trace_len()
        );
    }
    assert!(
        e.stats().ops.interval_splits > splits_before,
        "cascade exercised no interval splits"
    );
    // 64 windows × (read start, write, read end) = 192 live slots.
    assert_eq!(e.trace_len(), 192);
}

/// A write landing strictly inside an interval forces a split there —
/// and only re-executes the windows it reaches: the records before the
/// split point survive untouched, and the split is visible in the
/// `interval_splits` counter.
#[test]
fn mid_interval_write_splits_and_localizes() {
    // `chain[k+1] = chain[k] + aux[k]` with a meta input `aux[k]` per
    // stage, so a mid-trace window can be dirtied directly.
    let mut b = ProgramBuilder::new();
    let add_body = b.native("add_body", |e, args| {
        e.write(args[2].modref(), Value::Int(args[1].int() + args[0].int()));
        Tail::Done
    });
    let sum_body = b.native("sum_body", move |_e, args| {
        Tail::read(args[1].modref(), add_body, &[args[0], args[2]])
    });
    let sum = b.native("sum", move |_e, args| {
        Tail::read(args[0].modref(), sum_body, &args[1..])
    });
    let mut e = Engine::new(b.build());
    let chain: Vec<_> = (0..=64).map(|_| e.meta_modref()).collect();
    let aux: Vec<_> = (0..64).map(|_| e.meta_modref()).collect();
    e.modify(chain[0], Value::Int(0));
    for a in &aux {
        e.modify(*a, Value::Int(0));
    }
    for k in 0..64 {
        e.run_core(
            sum,
            &[
                Value::ModRef(chain[k]),
                Value::ModRef(aux[k]),
                Value::ModRef(chain[k + 1]),
            ],
        );
    }
    e.check_invariants();

    let created_before = e.stats().ops.writes_created;
    let splits_before = e.stats().ops.interval_splits;
    let reexec_before = e.stats().ops.reads_reexecuted;

    // aux[32] is read mid-trace; its window is interior to a span.
    e.modify(aux[32], Value::Int(500));
    e.propagate();
    e.check_invariants();
    assert_eq!(e.deref(chain[64]), Value::Int(500));

    assert!(
        e.stats().ops.interval_splits > splits_before,
        "mid-trace write did not split its interval"
    );
    // Only stage 32's inner read and the 31 downstream stages whose
    // carried value changed re-execute — not the 32 upstream stages.
    let reexec = e.stats().ops.reads_reexecuted - reexec_before;
    assert_eq!(reexec, 32, "split failed to localize re-execution");
    assert_eq!(
        e.stats().ops.writes_created - created_before,
        32,
        "re-execution created records outside its windows"
    );
}

/// `clear_core` drops every interval whole: boundaries and their
/// accounted bytes go to zero, the span arenas move to the reuse pool,
/// and a following session rebuilds an equivalent trace from the pool.
#[test]
fn clear_core_drops_spans_whole_and_pools_them() {
    let (mut e, chain) = build_chain(64);
    for k in 1..=5i64 {
        e.modify(chain[0], Value::Int(k));
        e.propagate();
    }
    let intervals_live = e.interval_count();
    assert!(intervals_live > 0);
    assert!(e.stats().interval_bytes > 0);

    e.clear_core();
    e.check_invariants();
    assert_eq!(e.interval_count(), 0, "clear_core left boundaries");
    assert_eq!(e.trace_len(), 0, "clear_core left live slots");
    assert_eq!(e.stats().interval_bytes, 0, "interval bytes not released");
    assert!(
        e.pooled_spans() >= intervals_live,
        "cleared spans were not pooled"
    );
}
