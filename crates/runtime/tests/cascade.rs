//! Deterministic cascade measurements behind the batch and demand
//! claims in EXPERIMENTS.md and DESIGN.md §11/§14: how many queue
//! operations a batched commit saves on a dense edit round, and how
//! many re-executed reads the demand policy saves when the output is
//! observed only now and then. Every number is a counter delta, so the
//! tests pin the exact counts the docs quote.

use ceal_runtime::prelude::*;

/// Number of cascade stages — one edit per stage per round, so this is
/// also the dense-edit round width.
const CASCADE_STAGES: usize = 64;

/// Rounds of the sparse-observation workload: one input edit per round.
const DEMAND_ROUNDS: u64 = 16;
/// Only every fourth round observes the output.
const DEMAND_OBSERVE_EVERY: u64 = 4;

/// Builds the dense-edit workload under `policy`: a prefix-sum cascade
/// `s_i = s_{i-1} + x_i` of [`CASCADE_STAGES`] dependent adder stages
/// over modifiable inputs. Editing input `x_i` re-executes every stage
/// downstream of `i`, so a round that edits all inputs one propagation
/// at a time pays O(stages²) queue traffic, while a batch commit
/// dirties everything first and each stage re-executes once. Returns
/// the engine, the inputs and the last stage's output.
fn build_cascade_with(policy: PropagationPolicy) -> (Engine, Vec<ModRef>, ModRef) {
    let mut b = ProgramBuilder::new();
    let add_c = b.native("add2_c", |e, args| {
        // args: [b, out, a]
        let sum = args[2].int() + args[0].int();
        e.write(args[1].modref(), Value::Int(sum));
        Tail::Done
    });
    let add_b = b.native("add2_b", move |_e, args| {
        // args: [a, m_b, out] — read m_b, then combine.
        Tail::read(args[1].modref(), add_c, &[args[2], args[0]])
    });
    let add = b.native("add2", move |_e, args| {
        // args: [m_a, m_b, out] — read m_a first.
        Tail::read(args[0].modref(), add_b, &args[1..])
    });

    let mut e = Engine::with_config(b.build(), EngineConfig::default().policy(policy))
        .expect("valid cascade config");
    let xs: Vec<ModRef> = (0..CASCADE_STAGES).map(|_| e.meta_modref()).collect();
    let ss: Vec<ModRef> = (0..CASCADE_STAGES).map(|_| e.meta_modref()).collect();
    for (i, &x) in xs.iter().enumerate() {
        e.modify(x, Value::Int(i as i64));
    }
    let zero = e.meta_modref();
    e.modify(zero, Value::Int(0));
    let mut prev = zero;
    for i in 0..CASCADE_STAGES {
        e.run_core(
            add,
            &[
                Value::ModRef(prev),
                Value::ModRef(xs[i]),
                Value::ModRef(ss[i]),
            ],
        );
        prev = ss[i];
    }
    let expect: i64 = (0..CASCADE_STAGES as i64).sum();
    assert_eq!(e.deref(prev), Value::Int(expect), "cascade initial sum");
    (e, xs, prev)
}

/// Queue traffic (`queue_pushes + queue_pops`) of one dense round that
/// sets every input to `1000 + i`, on a fresh eager engine: either 64
/// modify/propagate pairs, or the same 64 edits staged on one
/// [`EditBatch`] and committed. Checks the round's sum either way.
fn measure_cascade_queue_ops(batched: bool) -> u64 {
    let (mut e, xs, out) = build_cascade_with(PropagationPolicy::Eager);
    let before = e.stats().op_counters();
    if batched {
        let mut b = e.batch();
        for (i, &x) in xs.iter().enumerate() {
            b.modify(x, Value::Int(1000 + i as i64));
        }
        b.commit();
    } else {
        for (i, &x) in xs.iter().enumerate() {
            e.modify(x, Value::Int(1000 + i as i64));
            e.propagate();
        }
    }
    let d = e.stats().op_counters().delta(&before);
    let expect: i64 = (0..CASCADE_STAGES as i64).map(|i| 1000 + i).sum();
    assert_eq!(
        e.deref(out),
        Value::Int(expect),
        "round sum (batched={batched})"
    );
    d.queue_pushes + d.queue_pops
}

/// The cold-session sparse-observation workload on the cascade under
/// `policy`: [`DEMAND_ROUNDS`] single-input edits, the output observed
/// every [`DEMAND_OBSERVE_EVERY`] rounds. The eager route pays a full
/// propagation per edit; the demand route defers, so the unobserved
/// rounds coalesce into the next observation's single pass. Returns
/// the counter delta and the observed values.
fn measure_demand_sparse(policy: PropagationPolicy) -> (OpCounters, Vec<Value>) {
    let (mut e, xs, out) = build_cascade_with(policy);
    let before = e.stats().op_counters();
    let mut seen = Vec::new();
    for k in 1..=DEMAND_ROUNDS {
        e.modify(xs[0], Value::Int(1000 + k as i64));
        if policy == PropagationPolicy::Eager {
            e.propagate();
        }
        if k % DEMAND_OBSERVE_EVERY == 0 {
            seen.push(e.observe(out));
        }
    }
    (e.stats().op_counters().delta(&before), seen)
}

/// On the dense cascade (64 dependent edits per round) the batched
/// route performs 16x fewer propagation-queue operations than
/// per-edit propagation.
#[test]
fn batched_route_cuts_queue_ops() {
    assert_eq!(measure_cascade_queue_ops(false), 4160, "per-edit route");
    assert_eq!(measure_cascade_queue_ops(true), 254, "batched route");
}

/// With only every fourth round observed, the demand route observes
/// the same values as eager while re-executing 4x fewer reads in 4x
/// fewer passes.
#[test]
fn demand_route_cuts_reexecution() {
    let (eager, seen_eager) = measure_demand_sparse(PropagationPolicy::Eager);
    let (demand, seen_demand) = measure_demand_sparse(PropagationPolicy::Demand);
    assert_eq!(
        seen_eager, seen_demand,
        "policies observed different values"
    );
    assert_eq!(
        (eager.reads_reexecuted, demand.reads_reexecuted),
        (1024, 256),
        "reads re-executed, eager vs demand"
    );
    assert_eq!(
        (eager.trace_intervals, demand.trace_intervals),
        (80, 20),
        "interval boundaries, eager vs demand"
    );
    assert_eq!(
        (eager.propagations, demand.demand_cleans),
        (16, 4),
        "passes: one eager propagation per round, one demand clean per observation"
    );
}
