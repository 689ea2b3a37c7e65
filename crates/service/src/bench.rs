//! The deterministic load generator behind the `service-bench` binary
//! and the `service-smoke` CI gate (`BENCH_service.json`).
//!
//! One pass, **lockstep**, over a splitmix64-seeded open-loop schedule:
//! a single-threaded simulation of the shard scheduler. Per tick,
//! arrivals enter bounded per-shard queues (overflow sheds), then each
//! shard drains a fixed number of requests via the *same*
//! [`Shard::handle`] the threaded service runs. Every service-tier
//! counter — admitted, shed, evicted, restored, snapshot bytes, replayed
//! ops, aggregated engine deltas — is a pure function of the schedule,
//! so the flattened counters are diffed against
//! `crates/service/baselines/service_golden.json` exactly like the
//! runtime counter gate (wall clock excluded, same rationale: shared
//! runners can perturb time, not arithmetic). The gate spec is fixed
//! (512 sessions, 4 shards) and deliberately tight enough to force shed
//! *and* eviction/restore cycles every run.
//!
//! The one wall-clock figure here is [`overhead_probe`], which prices
//! the telemetry instrumentation on the lockstep schedule. Service
//! latency and throughput under real TCP traffic are measured by the
//! `ceal-benchmark` workloads `service-steady` and `service-evict`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ceal_bench::prng::Prng;
use ceal_runtime::telemetry::MetricsSnapshot;
use ceal_runtime::Value;

use crate::metrics::{merge_shards, ShardTelemetry, TelemetryConfig, REQ_KINDS};
use crate::service::route_key;
use crate::shard::{Shard, ShardConfig};
use crate::wire::{EditOp, PolicyArg, Reply, Request, ServiceCounters, Workload};

/// A load-generation spec: sessions, shape of the request stream, and
/// the scheduler limits that create backpressure.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Distinct sessions driven.
    pub sessions: usize,
    /// Shards (fixed — the deterministic counters depend on it).
    pub shards: usize,
    /// Input-list length per session.
    pub n: u32,
    /// Edit rounds after all opens.
    pub rounds: usize,
    /// Ops per edit batch.
    pub batch_size: usize,
    /// Probability a session is active in a round (storm rounds force
    /// 100%).
    pub activity: f64,
    /// Every `observe_every`-th active round also observes.
    pub observe_every: usize,
    /// Round index whose tick fires an edit from *every* session at
    /// once (forces deterministic shed in lockstep).
    pub storm_round: usize,
    /// Opens enqueued per tick during the ramp-up phase.
    pub opens_per_tick: usize,
    /// Bounded per-shard queue depth.
    pub queue_cap: usize,
    /// Requests each shard drains per lockstep tick.
    pub drain_per_tick: usize,
    /// Per-shard memory budget (drives eviction/restore).
    pub mem_budget_bytes: usize,
    /// Schedule seed.
    pub seed: u64,
}

/// The fixed gate spec: every value here is load-bearing for the
/// committed golden — change one and the golden must be re-blessed.
pub const GATE_SPEC: LoadSpec = LoadSpec {
    sessions: 512,
    shards: 4,
    n: 16,
    rounds: 6,
    batch_size: 2,
    activity: 0.35,
    observe_every: 2,
    storm_round: 3,
    opens_per_tick: 64,
    queue_cap: 48,
    drain_per_tick: 24,
    mem_budget_bytes: 512 << 10,
    seed: 0xCEA1_5E55,
};

fn sid(i: usize) -> String {
    format!("s{i}")
}

fn session_workload(i: usize) -> Workload {
    if i % 2 == 0 {
        Workload::Sum
    } else {
        Workload::Min
    }
}

fn session_policy(i: usize) -> PolicyArg {
    // A deterministic mix: every fourth session runs demand-driven, so
    // the gate covers both propagation policies.
    if i % 4 == 3 {
        PolicyArg::Demand
    } else {
        PolicyArg::Eager
    }
}

/// Builds the open-loop arrival schedule: one `Vec<Request>` per tick.
pub fn build_schedule(spec: &LoadSpec) -> Vec<Vec<Request>> {
    let mut rng = Prng::seed_from_u64(spec.seed);
    let mut ticks: Vec<Vec<Request>> = Vec::new();

    // Ramp-up: open sessions in slabs.
    let mut i = 0;
    while i < spec.sessions {
        let mut tick = Vec::new();
        for _ in 0..spec.opens_per_tick.min(spec.sessions - i) {
            tick.push(Request::Open {
                sid: sid(i),
                workload: session_workload(i),
                n: spec.n,
                seed: spec.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                policy: session_policy(i),
            });
            i += 1;
        }
        ticks.push(tick);
    }

    // Steady state: per round, a pseudo-random subset of sessions
    // submits an edit batch (everyone during the storm round), and
    // observers follow on the next tick.
    for round in 0..spec.rounds {
        let storm = round == spec.storm_round;
        let mut edits = Vec::new();
        let mut observes = Vec::new();
        for s in 0..spec.sessions {
            let active = storm || rng.gen_bool(spec.activity);
            if !active {
                continue;
            }
            let mut ops = Vec::with_capacity(spec.batch_size);
            for _ in 0..spec.batch_size {
                let idx = rng.gen_range(0..spec.n);
                if rng.gen_bool(0.5) {
                    ops.push(EditOp::Delete(idx));
                } else {
                    ops.push(EditOp::Restore(idx));
                }
            }
            edits.push(Request::Edit { sid: sid(s), ops });
            if round % spec.observe_every == 0 {
                observes.push(Request::Observe { sid: sid(s) });
            }
        }
        ticks.push(edits);
        if !observes.is_empty() {
            ticks.push(observes);
        }
    }
    ticks
}

/// Lockstep result: the gated deterministic counters plus the shape of
/// the run.
#[derive(Clone, Debug)]
pub struct LockstepResult {
    /// Aggregated deterministic service counters.
    pub counters: ServiceCounters,
    /// Ticks simulated (ramp + steady + final drain).
    pub ticks: u64,
    /// Requests generated by the schedule.
    pub generated: u64,
    /// Deterministic telemetry counter rows (`telemetry/<name>`), gated
    /// alongside the service counters: the metrics registry must count
    /// the same world the service counters do, on every platform.
    pub telemetry: Vec<(String, u64)>,
}

/// The telemetry config the gated lockstep pass runs under: everything
/// on, slow threshold zero (every handled request takes the slow path,
/// so the gate exercises phase/site attribution), logging off (the gate
/// compares counters, not stderr).
pub const GATE_TELEMETRY: TelemetryConfig = TelemetryConfig {
    enabled: true,
    slow_threshold_us: 0,
    slow_log: false,
    top_sites: 3,
};

/// Extracts the gateable (count-only, deterministic) telemetry rows
/// from a merged snapshot. Wall-clock series (histogram sums of
/// microseconds) are deliberately absent — time is never gated.
pub fn telemetry_rows(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for kind in REQ_KINDS {
        rows.push((
            format!("telemetry/requests_{}", kind.name()),
            snap.counter_with_label("ceal_requests_total", "kind", kind.name()),
        ));
    }
    for (row, metric) in [
        ("shed", "ceal_shed_total"),
        ("errors", "ceal_errors_total"),
        ("slow_requests", "ceal_slow_requests_total"),
        ("evicted", "ceal_sessions_evicted_total"),
        ("restored", "ceal_sessions_restored_total"),
        ("replayed_ops", "ceal_replayed_ops_total"),
    ] {
        rows.push((format!("telemetry/{row}"), snap.counter_total(metric)));
    }
    rows
}

/// Runs the schedule through the deterministic lockstep scheduler.
///
/// # Panics
///
/// Panics on any reply that is neither `ok` nor an expected typed
/// error — the load generator doubles as an end-to-end semantics
/// check (an unknown-session reply here means a lost open that was
/// *not* shed, i.e. a scheduler bug).
pub fn run_lockstep(spec: &LoadSpec) -> LockstepResult {
    run_lockstep_cfg(spec, GATE_TELEMETRY)
}

/// [`run_lockstep`] with an explicit telemetry config (the overhead
/// gate runs the same schedule with telemetry off to price the
/// instrumentation).
pub fn run_lockstep_cfg(spec: &LoadSpec, telemetry: TelemetryConfig) -> LockstepResult {
    let schedule = build_schedule(spec);
    let generated: u64 = schedule.iter().map(|t| t.len() as u64).sum();
    let shard_cfg = ShardConfig {
        mem_budget_bytes: spec.mem_budget_bytes,
        max_sessions: usize::MAX,
        telemetry,
    };
    let tels: Vec<Arc<ShardTelemetry>> = (0..spec.shards)
        .map(|i| Arc::new(ShardTelemetry::new(i, telemetry)))
        .collect();
    let mut shards: Vec<Shard> = tels
        .iter()
        .map(|t| Shard::with_telemetry(shard_cfg, t.clone()))
        .collect();
    let mut queues: Vec<VecDeque<Request>> = (0..spec.shards).map(|_| VecDeque::new()).collect();
    // Sessions whose open was shed: their later requests legitimately
    // answer unknown-session, everything else must be ok.
    let mut lost_opens = std::collections::HashSet::new();
    let mut shed = 0u64;
    let mut ticks = 0u64;

    let drain = |shards: &mut Vec<Shard>,
                 queues: &mut Vec<VecDeque<Request>>,
                 lost: &std::collections::HashSet<String>,
                 budget: Option<usize>| {
        for (s, q) in queues.iter_mut().enumerate() {
            let k = budget.unwrap_or(q.len()).min(q.len());
            for _ in 0..k {
                let req = q.pop_front().unwrap();
                let known = match req.sid() {
                    Some(id) => !lost.contains(id),
                    None => true,
                };
                let reply = shards[s].handle(&req);
                match &reply {
                    Reply::Err(kind, detail) if known => {
                        panic!("lockstep: unexpected error {kind:?} {detail} for {req:?}")
                    }
                    _ => {}
                }
            }
        }
    };

    for tick in &schedule {
        ticks += 1;
        for req in tick {
            let target = route_key(req.sid().expect("schedule requests are keyed"), spec.shards);
            if queues[target].len() >= spec.queue_cap {
                shed += 1;
                // Lockstep sheds happen driver-side (the queue is
                // simulated); mirror them into the target shard's
                // telemetry exactly as `Service::try_call` does.
                if tels[target].on() {
                    tels[target].shed.inc();
                }
                if let Request::Open { sid, .. } = req {
                    lost_opens.insert(sid.clone());
                }
            } else {
                queues[target].push_back(req.clone());
            }
        }
        drain(
            &mut shards,
            &mut queues,
            &lost_opens,
            Some(spec.drain_per_tick),
        );
    }
    // Final drain: completion of everything admitted.
    while queues.iter().any(|q| !q.is_empty()) {
        ticks += 1;
        drain(&mut shards, &mut queues, &lost_opens, None);
    }

    let mut counters = ServiceCounters::default();
    for s in &shards {
        counters.add(s.counters());
    }
    counters.shed = shed;
    let telemetry = telemetry_rows(&merge_shards(&tels));
    LockstepResult {
        counters,
        ticks,
        generated,
        telemetry,
    }
}

/// Prices the instrumentation: best-of-`trials` lockstep wall clock
/// with telemetry off versus on at the *production* default config
/// (250 ms slow threshold — nothing in lockstep is slow, so this
/// measures the always-on hot-path cost, not the slow-path cost).
/// Returns `(off_best_s, on_best_s)`.
pub fn overhead_probe(spec: &LoadSpec, trials: usize) -> (f64, f64) {
    let prod = TelemetryConfig {
        slow_log: false,
        ..TelemetryConfig::default()
    };
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..trials.max(1) {
        let t = Instant::now();
        let off = run_lockstep_cfg(spec, TelemetryConfig::disabled());
        best_off = best_off.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let on = run_lockstep_cfg(spec, prod);
        best_on = best_on.min(t.elapsed().as_secs_f64());
        assert_eq!(
            off.counters, on.counters,
            "telemetry must not perturb deterministic counters"
        );
    }
    (best_off, best_on)
}

/// Flattens the lockstep counters into gate rows (`service/<name>`).
/// The `/`-shaped keys let [`ceal_bench::profile::parse_golden`] read
/// the service golden with the same parser as the runtime golden.
pub fn flatten_counters(c: &ServiceCounters) -> Vec<(String, u64)> {
    ServiceCounters::NAMES
        .iter()
        .zip(c.values())
        .map(|(name, v)| (format!("service/{name}"), v))
        .collect()
}

/// Renders `BENCH_service.json`: the gate spec and the deterministic
/// lockstep counters, nothing wall-clock.
pub fn render_json(lockstep: &LockstepResult) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ceal-service-bench/v3\",\n");
    let _ = writeln!(
        s,
        "  \"gate_spec\": {{ \"sessions\": {}, \"shards\": {}, \"n\": {}, \"rounds\": {}, \"seed\": {} }},",
        GATE_SPEC.sessions, GATE_SPEC.shards, GATE_SPEC.n, GATE_SPEC.rounds, GATE_SPEC.seed
    );
    let _ = writeln!(
        s,
        "  \"lockstep\": {{ \"ticks\": {}, \"generated\": {}, \"counters\": {{",
        lockstep.ticks, lockstep.generated
    );
    let mut flat = flatten_counters(&lockstep.counters);
    flat.extend(lockstep.telemetry.iter().cloned());
    for (i, (k, v)) in flat.iter().enumerate() {
        let comma = if i + 1 < flat.len() { "," } else { "" };
        let _ = writeln!(s, "    \"{k}\": {v}{comma}");
    }
    s.push_str("  } }\n}\n");
    s
}

/// Renders the service golden file (same line-diff-friendly shape as
/// the runtime profile golden, service schema string).
pub fn render_golden(flat: &[(String, u64)]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ceal-service-golden/v1\",\n  \"counters\": {\n");
    for (i, (k, v)) in flat.iter().enumerate() {
        let _ = write!(s, "    \"{k}\": {v}");
        s.push_str(if i + 1 < flat.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// The checked-in service golden, next to the crate sources.
pub fn golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/service_golden.json"
    ))
}

/// A tiny sanity probe used by tests: the sum-session oracle for the
/// first generated session.
pub fn expected_open_value(spec: &LoadSpec, i: usize) -> Value {
    let seed = spec.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
    let data = ceal_suite::input::random_ints(spec.n as usize, seed);
    match session_workload(i) {
        Workload::Sum => Value::Int(data.iter().sum()),
        Workload::Min => Value::Int(*data.iter().min().expect("n > 0")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let a = build_schedule(&GATE_SPEC);
        let b = build_schedule(&GATE_SPEC);
        assert_eq!(a, b);
        let total: usize = a.iter().map(|t| t.len()).sum();
        assert!(total > GATE_SPEC.sessions, "schedule must outnumber opens");
    }

    #[test]
    fn lockstep_counters_are_reproducible_and_exercise_the_lifecycle() {
        let r1 = run_lockstep(&GATE_SPEC);
        let r2 = run_lockstep(&GATE_SPEC);
        assert_eq!(r1.counters, r2.counters, "lockstep must be deterministic");
        let c = &r1.counters;
        assert!(
            c.opened >= 500,
            "gate drives ≥500 sessions, got {}",
            c.opened
        );
        assert!(c.shed > 0, "storm round must shed");
        assert!(c.evicted > 0, "budget must evict");
        assert!(c.restored > 0, "evicted sessions must come back");
        assert!(c.snapshot_bytes > 0);
        assert!(c.replayed_ops > 0);
        assert_eq!(c.admitted + c.shed, r1.generated);
        assert_eq!(
            r1.telemetry, r2.telemetry,
            "telemetry rows must be deterministic"
        );
    }

    #[test]
    fn lockstep_telemetry_agrees_with_service_counters() {
        let r = run_lockstep(&GATE_SPEC);
        let rows: std::collections::HashMap<&str, u64> =
            r.telemetry.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let c = &r.counters;
        assert_eq!(rows["telemetry/requests_open"], c.opened);
        assert_eq!(rows["telemetry/shed"], c.shed);
        assert_eq!(rows["telemetry/evicted"], c.evicted);
        assert_eq!(rows["telemetry/restored"], c.restored);
        assert_eq!(rows["telemetry/replayed_ops"], c.replayed_ops);
        // Every handled request is routed in lockstep (no stats probes),
        // and the gate threshold is zero, so the slow counter covers all
        // of them.
        let handled: u64 = ["open", "edit", "observe", "close", "ping"]
            .iter()
            .map(|k| rows[format!("telemetry/requests_{k}").as_str()])
            .sum();
        assert_eq!(handled, c.admitted);
        assert_eq!(rows["telemetry/slow_requests"], handled);
    }

    #[test]
    fn telemetry_off_matches_on_counters() {
        // The overhead probe's correctness half, on a small spec: the
        // deterministic counters are identical with telemetry on or off.
        let spec = LoadSpec {
            sessions: 64,
            rounds: 3,
            ..GATE_SPEC
        };
        let on = run_lockstep_cfg(&spec, GATE_TELEMETRY);
        let off = run_lockstep_cfg(&spec, TelemetryConfig::disabled());
        assert_eq!(on.counters, off.counters);
        assert!(
            off.telemetry.iter().all(|(_, v)| *v == 0),
            "disabled telemetry must record nothing"
        );
    }
}
