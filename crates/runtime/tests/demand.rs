//! Demand-driven propagation policy: dirty-mark invariants, the
//! kill-then-observe ordering fix, and the sparse-observation counter
//! claim (DESIGN.md §14).
//!
//! Under [`PropagationPolicy::Demand`] mutator writes only *mark*
//! their governed reads dirty (the position-ordered propagation queue
//! is the dirty set); re-execution is deferred until an
//! [`Engine::observe`] demands an up-to-date value. These tests pin the
//! marking discipline (idempotent, persistent across unobserved
//! rounds, fully cleared by one demand-clean pass or by `clear_core`)
//! and the policy's payoff: strictly fewer re-executions than eager
//! propagation when only a fraction of rounds observe an output.

use ceal_runtime::prelude::*;

/// A chain of `n` copy stages `m[i+1] := m[i]`, built under `policy`.
/// Returns the engine and the chain's modifiables (`chain[0]` is the
/// input, `chain[n]` the output).
fn chain_session(n: usize, policy: PropagationPolicy) -> (Engine, Vec<ModRef>) {
    let mut b = ProgramBuilder::new();
    let body = b.native("copy_body", |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });
    let copy = b.native("copy", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    let mut e = Engine::with_config(b.build(), EngineConfig::default().policy(policy))
        .expect("valid config");
    let chain: Vec<ModRef> = (0..=n).map(|_| e.meta_modref()).collect();
    e.modify(chain[0], Value::Int(0));
    for w in chain.windows(2) {
        e.run_core(copy, &[Value::ModRef(w[0]), Value::ModRef(w[1])]);
    }
    (e, chain)
}

/// Marking is idempotent: re-dirtying an already-dirty read is free.
/// `dirty_marks` counts only distinct clean→dirty transitions, and the
/// eager policy never marks at all.
#[test]
fn marking_is_idempotent() {
    let (mut e, chain) = chain_session(4, PropagationPolicy::Demand);
    assert_eq!(e.policy(), PropagationPolicy::Demand);
    let out = *chain.last().unwrap();

    assert_eq!(e.stats().ops.dirty_marks, 0);
    e.modify(chain[0], Value::Int(10));
    assert_eq!(e.stats().ops.dirty_marks, 1, "first write marks the reader");
    e.modify(chain[0], Value::Int(20));
    e.modify(chain[0], Value::Int(30));
    assert_eq!(
        e.stats().ops.dirty_marks,
        1,
        "re-marking a dirty read must not count"
    );

    assert_eq!(e.observe(out), Value::Int(30));
    e.modify(chain[0], Value::Int(40));
    assert_eq!(
        e.stats().ops.dirty_marks,
        2,
        "after a clean the next write is a fresh transition"
    );

    // Writing back the read's currently-traced value while dirty still
    // leaves it dirty (the queue entry survives; value-skip elides the
    // re-execution at clean time instead).
    e.modify(chain[0], Value::Int(30));
    assert_eq!(e.observe(out), Value::Int(30));
    e.check_invariants();

    // The eager policy never takes the marking path.
    let (mut e, chain) = chain_session(4, PropagationPolicy::Eager);
    e.modify(chain[0], Value::Int(7));
    e.propagate();
    assert_eq!(e.stats().ops.dirty_marks, 0);
    assert_eq!(e.stats().ops.demand_cleans, 0);
}

/// Unobserved dirty reads stay dirty across rounds: no re-execution
/// happens until something is observed, and the deferred rounds then
/// coalesce into one pass.
#[test]
fn unobserved_dirt_persists_across_rounds() {
    let (mut e, chain) = chain_session(8, PropagationPolicy::Demand);
    let out = *chain.last().unwrap();
    assert_eq!(e.deref(out), Value::Int(0));

    let before = e.stats().op_counters();
    for k in 1..=5 {
        e.modify(chain[0], Value::Int(k));
        // Raw deref peeks at the stale trace: still the initial value.
        assert_eq!(e.deref(out), Value::Int(0), "round {k} must stay stale");
    }
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(
        d.reads_reexecuted, 0,
        "unobserved rounds re-execute nothing"
    );
    assert_eq!(d.demand_cleans, 0);
    assert_eq!(d.propagations, 0);

    // One observation pays for all five rounds at once.
    assert_eq!(e.observe(out), Value::Int(5));
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(d.demand_cleans, 1, "five rounds coalesce into one pass");
    e.check_invariants();
}

/// A demand-clean pass clears the entire dirty set: after one observe
/// the queue is drained, so further observations (of any output) find
/// nothing to clean and re-execute nothing.
#[test]
fn cleaning_clears_the_dirty_set() {
    let (mut e, chain) = chain_session(6, PropagationPolicy::Demand);
    let out = *chain.last().unwrap();

    e.modify(chain[0], Value::Int(42));
    assert_eq!(e.observe(out), Value::Int(42));
    let after_clean = e.stats().op_counters();

    // Observing again — the same output, an intermediate stage, and the
    // input itself — is pure dereferencing: no pass, no re-execution.
    assert_eq!(e.observe(out), Value::Int(42));
    assert_eq!(e.observe(chain[3]), Value::Int(42));
    assert_eq!(e.observe(chain[0]), Value::Int(42));
    let d = e.stats().op_counters().delta(&after_clean);
    assert_eq!(d.demand_cleans, 0, "clean state must not re-clean");
    assert_eq!(d.reads_reexecuted, 0);
    assert_eq!(d.queue_pops, 0);
    e.check_invariants();
}

/// `clear_core` resets the dirty state along with the trace: pending
/// marks die with their reads, and a fresh core run starts clean.
#[test]
fn clear_core_resets_dirty_state() {
    let (mut e, chain) = chain_session(5, PropagationPolicy::Demand);
    let out = *chain.last().unwrap();

    e.modify(chain[0], Value::Int(9));
    assert_eq!(
        e.stats().ops.dirty_marks,
        1,
        "mark pending before the purge"
    );
    e.clear_core();

    // The dirty set is gone: observing triggers no pass and sees the
    // base value of the input (outputs were written by the purged core).
    let before = e.stats().op_counters();
    assert_eq!(e.observe(chain[0]), Value::Int(9));
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(d.demand_cleans, 0, "clear_core must drain every mark");
    assert_eq!(d.reads_reexecuted, 0);
    let _ = out;
    e.check_invariants();
}

/// Regression (kill-then-observe): an `EditBatch` that stages kills in
/// demand mode must run its propagation pass at commit — deferring it
/// would free blocks whose readers are still queued dirty, leaving the
/// dirty set dangling into freed storage. The commit therefore cleans
/// eagerly, and a later observe finds nothing pending.
#[test]
fn batched_kill_then_observe_is_clean() {
    // Mutator list [10, 20, 30] mapped through a copy of its head
    // element; delete the head cell and free it in one batch.
    let mut b = ProgramBuilder::new();
    let body = b.native("head_body", |e, args| {
        // args: [head_value, out]
        let out = args[1].modref();
        match args[0] {
            Value::Ptr(c) => {
                let v = e.load(c, 0);
                e.write(out, v);
            }
            _ => e.write(out, Value::Int(-1)),
        }
        Tail::Done
    });
    let head = b.native("head", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    let mut e = Engine::with_config(
        b.build(),
        EngineConfig::default().policy(PropagationPolicy::Demand),
    )
    .expect("valid config");

    let hd = e.meta_modref();
    let c0 = e.meta_alloc(2);
    let c1 = e.meta_alloc(2);
    e.meta_store(c0, 0, Value::Int(10));
    let n0 = e.meta_modref_in(c0, 1);
    e.meta_store(c1, 0, Value::Int(20));
    let n1 = e.meta_modref_in(c1, 1);
    e.modify(hd, Value::Ptr(c0));
    e.modify(n0, Value::Ptr(c1));
    e.modify(n1, Value::Nil);

    let out = e.meta_modref();
    e.run_core(head, &[Value::ModRef(hd), Value::ModRef(out)]);
    assert_eq!(e.deref(out), Value::Int(10));

    // Dirt from an earlier, unobserved round is still pending when the
    // killing batch commits — the pass must drain it too.
    e.modify(hd, Value::Ptr(c1));
    let before = e.stats().op_counters();
    let mut batch = e.batch();
    batch.modify(hd, Value::Ptr(c0));
    batch.modify(n0, Value::Nil); // unlink c1, then free it
    batch.kill(c1);
    batch.commit();
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(
        d.propagations, 1,
        "a kill-carrying commit must not defer its pass"
    );

    assert_eq!(e.observe(out), Value::Int(10));
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(d.demand_cleans, 0, "the commit left nothing dirty");
    e.check_invariants();

    // A kill-free batch in demand mode does defer.
    let before = e.stats().op_counters();
    let mut batch = e.batch();
    batch.modify(hd, Value::Nil);
    batch.commit();
    let d = e.stats().op_counters().delta(&before);
    assert_eq!(d.propagations, 0, "kill-free demand commit defers");
    assert_eq!(d.batch_commits, 1);
    assert_eq!(e.observe(out), Value::Int(-1));
    assert_eq!(
        e.stats().op_counters().delta(&before).demand_cleans,
        1,
        "the deferred commit is cleaned by the next observe"
    );
    e.check_invariants();
}

/// Deferred cleaning stays correct across control flow that invalidates
/// naive dirty-slicing: re-executing a read can write modifiables its
/// old trace never touched (a branch flip), so the demand pass must
/// cover the whole dirty set, not a slice feeding the observed modref.
#[test]
fn branch_flip_observed_values_match_recompute() {
    let mut b = ProgramBuilder::new();
    let copy_body = b.native("copy_body", |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });
    let pick_body = b.native("pick_body", move |_e, args| {
        // args: [cond_value, a, b, out] — copy the selected input.
        let src = if args[0].int() != 0 {
            args[1].modref()
        } else {
            args[2].modref()
        };
        Tail::read(src, copy_body, &[args[3]])
    });
    let pick = b.native("pick", move |_e, args| {
        Tail::read(args[0].modref(), pick_body, &args[1..])
    });
    let mut e = Engine::with_config(
        b.build(),
        EngineConfig::default().policy(PropagationPolicy::Demand),
    )
    .expect("valid config");

    let (c, a, bm, out) = (
        e.meta_modref(),
        e.meta_modref(),
        e.meta_modref(),
        e.meta_modref(),
    );
    e.modify(c, Value::Int(1));
    e.modify(a, Value::Int(100));
    e.modify(bm, Value::Int(200));
    e.run_core(
        pick,
        &[
            Value::ModRef(c),
            Value::ModRef(a),
            Value::ModRef(bm),
            Value::ModRef(out),
        ],
    );

    // Interleave edits to the condition and both branches, observing
    // only occasionally; every observation must match the from-scratch
    // semantics of the current inputs.
    let script: &[(i64, i64, i64, bool)] = &[
        (0, 100, 200, true),  // flip to b
        (0, 101, 200, false), // edit dead branch, no observe
        (1, 101, 200, true),  // flip back: must see the edit from the
        (1, 102, 201, false), // round nobody observed
        (1, 103, 201, true),
        (0, 103, 202, true),
    ];
    for &(cv, av, bv, look) in script {
        e.modify(c, Value::Int(cv));
        e.modify(a, Value::Int(av));
        e.modify(bm, Value::Int(bv));
        if look {
            let expect = if cv != 0 { av } else { bv };
            assert_eq!(e.observe(out), Value::Int(expect), "script step diverged");
        }
    }
    e.check_invariants();
}

/// The policy's payoff, in deterministic counters: on a chain where
/// only every fourth round observes the output, demand mode re-executes
/// strictly fewer reads (and runs strictly fewer passes) than eager
/// propagation — the unobserved rounds coalesce.
#[test]
fn demand_reexecutes_fewer_on_sparse_observation() {
    const ROUNDS: i64 = 8;
    const OBSERVE_EVERY: i64 = 4;

    let run = |policy: PropagationPolicy| -> (OpCounters, Vec<Value>) {
        let (mut e, chain) = chain_session(32, policy);
        let out = *chain.last().unwrap();
        let before = e.stats().op_counters();
        let mut seen = Vec::new();
        for k in 1..=ROUNDS {
            e.modify(chain[0], Value::Int(k));
            match policy {
                PropagationPolicy::Eager => {
                    e.propagate();
                    if k % OBSERVE_EVERY == 0 {
                        seen.push(e.observe(out));
                    }
                }
                PropagationPolicy::Demand => {
                    if k % OBSERVE_EVERY == 0 {
                        seen.push(e.observe(out));
                    }
                }
            }
        }
        e.check_invariants();
        (e.stats().op_counters().delta(&before), seen)
    };

    let (eager, seen_eager) = run(PropagationPolicy::Eager);
    let (demand, seen_demand) = run(PropagationPolicy::Demand);

    assert_eq!(seen_eager, seen_demand, "observed values must agree");
    assert_eq!(eager.propagations, ROUNDS as u64);
    assert_eq!(demand.demand_cleans, (ROUNDS / OBSERVE_EVERY) as u64);
    assert!(
        demand.reads_reexecuted < eager.reads_reexecuted,
        "demand must re-execute strictly fewer reads ({} vs {})",
        demand.reads_reexecuted,
        eager.reads_reexecuted
    );
    assert!(
        eager.reads_reexecuted >= 2 * demand.reads_reexecuted,
        "sparse observation should save at least 2x ({} vs {})",
        eager.reads_reexecuted,
        demand.reads_reexecuted
    );
}

/// In eager mode `observe` is exactly `deref`: no phase, no counters.
#[test]
fn eager_observe_is_plain_deref() {
    let (mut e, chain) = chain_session(4, PropagationPolicy::Eager);
    let out = *chain.last().unwrap();
    e.modify(chain[0], Value::Int(5));
    e.propagate();
    let before = e.stats().op_counters();
    assert_eq!(e.observe(out), Value::Int(5));
    assert_eq!(e.deref(out), Value::Int(5));
    assert_eq!(e.stats().op_counters(), before);
}

/// `checked_deref` closes the `deref`/`observe` asymmetry: while
/// demand-mode dirty marks are pending it returns a typed
/// [`CealError::StaleRead`] instead of the raw (possibly stale) peek,
/// and reverts to a plain `deref` once the dirt is cleaned.
#[test]
fn checked_deref_flags_pending_demand_dirt() {
    let (mut e, chain) = chain_session(3, PropagationPolicy::Demand);
    let out = *chain.last().unwrap();

    // Clean trace: checked_deref is just deref.
    assert_eq!(e.observe(out), Value::Int(0));
    assert_eq!(e.checked_deref(out), Ok(Value::Int(0)));

    // A mutator write defers re-execution under demand; the raw peek
    // now reads the unpropagated trace, and checked_deref says so.
    e.modify(chain[0], Value::Int(7));
    assert_eq!(e.deref(out), Value::Int(0), "raw peek is stale");
    match e.checked_deref(out) {
        Err(CealError::StaleRead { modref, pending }) => {
            assert_eq!(modref, out.0);
            assert!(pending > 0, "StaleRead must report pending dirt");
        }
        other => panic!("expected StaleRead, got {other:?}"),
    }

    // Observing cleans on demand; checked_deref succeeds again.
    assert_eq!(e.observe(out), Value::Int(7));
    assert_eq!(e.checked_deref(out), Ok(Value::Int(7)));
}

/// Eager sessions keep the trace consistent at propagation boundaries,
/// so checked_deref never errs there — even right after a modify (the
/// eager policy cleans inside `modify` itself).
#[test]
fn checked_deref_is_infallible_under_eager() {
    let (mut e, chain) = chain_session(3, PropagationPolicy::Eager);
    let out = *chain.last().unwrap();
    e.modify(chain[0], Value::Int(9));
    e.propagate();
    assert_eq!(e.checked_deref(out), Ok(Value::Int(9)));
}
