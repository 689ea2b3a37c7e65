//! The region-lease seam (DESIGN.md §16): re-executing two disjoint
//! dirty regions through two sequentially leased [`RegionCx`]s must be
//! indistinguishable — same values, same trace work, same event stream
//! up to phase boundaries — from one combined propagation pass. This is
//! the determinism rule a future parallel scheduler builds on: region
//! counter deltas merge by addition, in any order, to the same totals.

use ceal_runtime::prelude::*;

/// Two independent copy chains in one core: `outA := inA`, `outB :=
/// inB`. The reads do not share modifiables, so dirtying `inA` and
/// `inB` creates two disjoint affected regions.
fn pair_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let body = b.native("copy_body", |e, args| {
        let out = args[1].modref();
        e.write(out, args[0]);
        Tail::Done
    });
    let copy_a = b.native("copy_a", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..2])
    });
    let copy_b = b.native("copy_b", move |_e, args| {
        Tail::read(args[2].modref(), body, &args[3..4])
    });
    let pair = b.native("pair", move |e, args| {
        e.call(copy_a, args);
        e.call(copy_b, args);
        Tail::Done
    });
    (b.build(), pair)
}

struct Session {
    e: Engine,
    ins: [ModRef; 2],
    outs: [ModRef; 2],
    rec: std::sync::Arc<std::sync::Mutex<TraceRecorder>>,
}

fn start() -> Session {
    let (p, pair) = pair_program();
    let mut e = Engine::new(p);
    let rec = TraceRecorder::shared();
    e.set_event_hook(Box::new(std::sync::Arc::clone(&rec)));
    let ins = [e.meta_modref(), e.meta_modref()];
    let outs = [e.meta_modref(), e.meta_modref()];
    e.modify(ins[0], Value::Int(10));
    e.modify(ins[1], Value::Int(20));
    let args: Vec<Value> = [ins[0], outs[0], ins[1], outs[1]]
        .iter()
        .map(|&m| Value::ModRef(m))
        .collect();
    e.run_core(pair, &args);
    Session { e, ins, outs, rec }
}

/// The non-phase event stream: phase boundaries depend on how many
/// propagation passes the driver chose to run, not on what trace work
/// happened inside them.
fn work_events(s: &Session) -> Vec<Event> {
    s.rec
        .lock()
        .unwrap()
        .events()
        .iter()
        .copied()
        .filter(|ev| !matches!(ev, Event::PhaseBegin { .. } | Event::PhaseEnd { .. }))
        .collect()
}

#[test]
fn two_region_leases_match_one_combined_pass() {
    // Combined: both edits staged, one propagation pass over both
    // affected regions.
    let mut combined = start();
    let base_combined = OpCounters::from_stats(combined.e.stats());
    combined.e.modify(combined.ins[0], Value::Int(11));
    combined.e.modify(combined.ins[1], Value::Int(21));
    combined.e.propagate();
    let delta_combined = OpCounters::from_stats(combined.e.stats()).delta(&base_combined);

    // Region-by-region: each edit propagated through its own leased
    // RegionCx. Each lease reports its private counter delta; together
    // with the mutator-side staging deltas (the `modify` calls run
    // outside any lease) the pieces partition the whole history, and
    // merging is plain addition in schedule order.
    let mut leased = start();
    let mut merged = OpCounters::default();
    for (i, v) in [(0usize, 11i64), (1, 21)] {
        let staged = OpCounters::from_stats(leased.e.stats());
        leased.e.modify(leased.ins[i], Value::Int(v));
        merged.add(&OpCounters::from_stats(leased.e.stats()).delta(&staged));
        let mut cx = leased.e.lease_region();
        cx.propagate();
        let lease_delta = cx.counters_delta();
        assert!(
            lease_delta.reads_reexecuted > 0,
            "lease {i} re-executed nothing"
        );
        merged.add(&lease_delta);
    }

    // Same outputs.
    for s in [&combined, &leased] {
        assert_eq!(s.e.deref(s.outs[0]), Value::Int(11));
        assert_eq!(s.e.deref(s.outs[1]), Value::Int(21));
    }

    // Same trace work: every counter agrees except the pass count
    // itself (two leases ran two propagation passes).
    let mut expected = delta_combined;
    expected.propagations = 2;
    assert_eq!(
        merged, expected,
        "merged per-region counter deltas diverge from the combined pass"
    );

    // Lifetime totals line up too: the two engines did the same work,
    // one propagation pass apart.
    assert_eq!(
        OpCounters::from_stats(leased.e.stats()).propagations,
        OpCounters::from_stats(combined.e.stats()).propagations + 1,
    );

    // Same event stream modulo phase boundaries, and therefore the
    // same digest once phases are excluded.
    let a = work_events(&combined);
    let b = work_events(&leased);
    assert!(!a.is_empty(), "smoke test exercised no events");
    assert_eq!(a, b, "work events diverge between lease schedules");

    // Both engines pass the full invariant audit afterwards.
    combined.e.check_invariants();
    leased.e.check_invariants();
}

#[test]
fn lease_delta_is_zero_without_work() {
    let mut s = start();
    let cx = s.e.lease_region();
    assert_eq!(
        cx.counters_delta(),
        OpCounters::default(),
        "an idle lease must report a zero delta"
    );
}
