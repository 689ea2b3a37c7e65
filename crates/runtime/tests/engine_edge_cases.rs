//! Edge-case behavior of the engine: usage-discipline enforcement
//! (§4.2's correct-usage restrictions), multi-write modifiables (§7),
//! value-restoration skipping, and the meta/core boundary (§2).

use ceal_runtime::prelude::*;

fn copy_program() -> (std::sync::Arc<Program>, FuncId) {
    let mut b = ProgramBuilder::new();
    let body = b.native("copy_body", |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });
    let copy = b.native("copy", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    (b.build(), copy)
}

/// Footnote 1: the real interface supports multiple simultaneous
/// cores. Two cores share an input; a third consumes the output of the
/// first; one propagate updates all of them.
#[test]
fn multiple_cores_share_and_chain() {
    let (p, copy) = copy_program();
    let mut e = Engine::new(p);
    let input = e.meta_modref();
    let (o1, o2, o3) = (e.meta_modref(), e.meta_modref(), e.meta_modref());
    e.modify(input, Value::Int(5));
    e.run_core(copy, &[Value::ModRef(input), Value::ModRef(o1)]);
    e.run_core(copy, &[Value::ModRef(input), Value::ModRef(o2)]);
    // A chained core: reads what the first core wrote.
    e.run_core(copy, &[Value::ModRef(o1), Value::ModRef(o3)]);
    assert_eq!(e.deref(o1), Value::Int(5));
    assert_eq!(e.deref(o2), Value::Int(5));
    assert_eq!(e.deref(o3), Value::Int(5));

    e.modify(input, Value::Int(42));
    e.propagate();
    assert_eq!(e.deref(o1), Value::Int(42));
    assert_eq!(e.deref(o2), Value::Int(42));
    assert_eq!(
        e.deref(o3),
        Value::Int(42),
        "the chained core saw o1's new value"
    );
    e.check_invariants();
}

#[test]
#[should_panic(expected = "propagate before run_core")]
fn propagate_before_run_core_panics() {
    let (p, _) = copy_program();
    let mut e = Engine::new(p);
    e.propagate();
}

#[test]
#[should_panic(expected = "write-once violation")]
fn store_outside_initializer_panics() {
    let mut b = ProgramBuilder::new();
    let init = b.native("init", |_e, _a| Tail::Done);
    let bad = b.native("bad", move |e, _a| {
        let loc = e.alloc(2, init, &[]);
        // Initialization is over; §4.2 restriction 1 forbids this.
        e.store(loc, 0, Value::Int(1));
        Tail::Done
    });
    let mut e = Engine::new(b.build());
    e.run_core(bad, &[]);
}

#[test]
#[should_panic(expected = "kill of a core allocation")]
fn kill_core_block_panics() {
    let mut b = ProgramBuilder::new();
    let init = b.native("init", |_e, _a| Tail::Done);
    let mk = b.native("mk", move |e, args| {
        let loc = e.alloc(1, init, &[]);
        e.write(args[0].modref(), Value::Ptr(loc));
        Tail::Done
    });
    let mut e = Engine::new(b.build());
    let out = e.meta_modref();
    e.run_core(mk, &[Value::ModRef(out)]);
    let loc = e.deref(out).ptr();
    e.kill(loc);
}

#[test]
#[should_panic(expected = "outside core execution")]
fn core_write_from_mutator_panics() {
    let (p, _) = copy_program();
    let mut e = Engine::new(p);
    let m = e.meta_modref();
    // `write` is a core-side operation: it now lives on the leased
    // region context, and still panics outside core execution.
    e.lease_region().write(m, Value::Int(1));
}

#[test]
fn modify_to_same_value_is_free() {
    let (p, copy) = copy_program();
    let mut e = Engine::new(p);
    let (i, o) = (e.meta_modref(), e.meta_modref());
    e.modify(i, Value::Int(5));
    e.run_core(copy, &[Value::ModRef(i), Value::ModRef(o)]);
    let before = e.stats().ops.reads_reexecuted;
    e.modify(i, Value::Int(5)); // unchanged
    e.propagate();
    assert_eq!(e.stats().ops.reads_reexecuted, before);
}

#[test]
fn restored_value_before_propagate_skips_work() {
    let (p, copy) = copy_program();
    let mut e = Engine::new(p);
    let (i, o) = (e.meta_modref(), e.meta_modref());
    e.modify(i, Value::Int(5));
    e.run_core(copy, &[Value::ModRef(i), Value::ModRef(o)]);
    let before = e.stats().ops.reads_reexecuted;
    // Change and change back before propagating: the pop-time value
    // check skips the re-execution.
    e.modify(i, Value::Int(9));
    e.modify(i, Value::Int(5));
    e.propagate();
    assert_eq!(e.stats().ops.reads_reexecuted, before);
    assert!(e.stats().ops.reads_skipped >= 1);
    assert_eq!(e.deref(o), Value::Int(5));
}

/// Multi-write modifiables (§7): the core writes the same modifiable
/// twice; readers between the writes see the first value, readers after
/// see the second, and the mutator's deref sees the last.
#[test]
fn multi_write_modifiable_semantics() {
    let mut b = ProgramBuilder::new();
    let after_second = b.native("after_second", |e, args| {
        e.write(args[2].modref(), args[0]);
        Tail::Done
    });
    let between = b.declare("between");
    b.define_native(between, move |e, args| {
        // args: [v_between, m, out_between, out_after]
        e.write(args[2].modref(), args[0]);
        let m = args[1].modref();
        e.write(m, Value::Int(200));
        Tail::read(m, after_second, &[args[1], args[3]])
    });
    let main = b.native("main", move |e, args| {
        let m = e.modref();
        e.write(m, Value::Int(100));
        Tail::read(m, between, &[Value::ModRef(m), args[0], args[1]])
    });
    let mut e = Engine::new(b.build());
    let (o1, o2) = (e.meta_modref(), e.meta_modref());
    e.run_core(main, &[Value::ModRef(o1), Value::ModRef(o2)]);
    assert_eq!(e.deref(o1), Value::Int(100), "read between the writes");
    assert_eq!(e.deref(o2), Value::Int(200), "read after the second write");
}

/// Batch modifications: several inputs changed before one propagate.
#[test]
fn batch_modifications_propagate_once() {
    let mut b = ProgramBuilder::new();
    let c2 = b.native("c2", |e, args| {
        e.write(args[2].modref(), Value::Int(args[0].int() + args[1].int()));
        Tail::Done
    });
    let c1 = b.declare("c1");
    b.define_native(c1, move |_e, args| {
        Tail::read(args[1].modref(), c2, &[args[0], args[2]])
    });
    let sum2 = b.native("sum2", move |_e, args| {
        Tail::read(args[0].modref(), c1, &[args[1], args[2]])
    });
    let mut e = Engine::new(b.build());
    let (a, bb, o) = (e.meta_modref(), e.meta_modref(), e.meta_modref());
    e.modify(a, Value::Int(1));
    e.modify(bb, Value::Int(2));
    e.run_core(
        sum2,
        &[Value::ModRef(a), Value::ModRef(bb), Value::ModRef(o)],
    );
    assert_eq!(e.deref(o), Value::Int(3));
    e.modify(a, Value::Int(10));
    e.modify(bb, Value::Int(20));
    e.propagate();
    assert_eq!(e.deref(o), Value::Int(30));
    assert_eq!(e.stats().ops.propagations, 1);
}

#[test]
fn interner_is_engine_scoped() {
    let (p, _) = copy_program();
    let mut e = Engine::new(p);
    let a = e.intern("hello");
    let b2 = e.intern("hello");
    assert_eq!(a, b2);
    let c = e.intern("world");
    assert_ne!(a, c);
    assert_eq!(e.str_cmp(a.str_id(), c.str_id()), std::cmp::Ordering::Less);
}

#[test]
fn meta_alloc_and_kill_account_space() {
    let (p, _) = copy_program();
    let mut e = Engine::new(p);
    let live0 = e.stats().live_bytes;
    let b = e.meta_alloc(100);
    assert!(e.stats().live_bytes >= live0 + 800);
    e.kill(b);
    assert_eq!(e.stats().live_bytes, live0);
}

/// An empty core (writes nothing, reads nothing) runs and propagates.
#[test]
fn trivial_core_is_fine() {
    let mut b = ProgramBuilder::new();
    let noop = b.native("noop", |_e, _a| Tail::Done);
    let mut e = Engine::new(b.build());
    e.run_core(noop, &[]);
    e.propagate();
    e.check_invariants();
    assert_eq!(e.stats().ops.reads_created, 0);
}

/// Reading an unwritten modifiable yields Nil (C's uninitialized
/// pointer discipline, defined here).
#[test]
fn unwritten_modifiable_reads_nil() {
    let (p, copy) = copy_program();
    let mut e = Engine::new(p);
    let (i, o) = (e.meta_modref(), e.meta_modref());
    e.run_core(copy, &[Value::ModRef(i), Value::ModRef(o)]);
    assert_eq!(e.deref(o), Value::Nil);
    e.modify(i, Value::Int(3));
    e.propagate();
    assert_eq!(e.deref(o), Value::Int(3));
}

#[test]
#[should_panic(expected = "violates §4.2 restriction 2")]
fn reading_initializer_panics() {
    let mut b = ProgramBuilder::new();
    let after = b.native("after", |_e, _a| Tail::Done);
    let bad_init = b.native("bad_init", move |_e, args| {
        // args[1] is a modifiable smuggled into the initializer.
        Tail::read(args[1].modref(), after, &[])
    });
    let main = b.native("main", move |e, args| {
        let _ = e.alloc(1, bad_init, &[args[0]]);
        Tail::Done
    });
    let mut e = Engine::new(b.build());
    let m = e.meta_modref();
    e.run_core(main, &[Value::ModRef(m)]);
}

#[test]
fn dump_trace_shows_the_ddg() {
    let (p, copy) = copy_program();
    let mut e = Engine::new(p);
    let (i, o) = (e.meta_modref(), e.meta_modref());
    e.modify(i, Value::Int(7));
    e.run_core(copy, &[Value::ModRef(i), Value::ModRef(o)]);
    let dump = e.dump_trace();
    assert!(dump.contains("read"), "{dump}");
    assert!(dump.contains("copy_body"), "{dump}");
    assert!(dump.contains("write"), "{dump}");
    // Dirty marker appears after an un-propagated modification.
    e.modify(i, Value::Int(9));
    assert!(e.dump_trace().contains("[dirty]"), "{}", e.dump_trace());
    e.propagate();
    assert!(!e.dump_trace().contains("[dirty]"));
}
