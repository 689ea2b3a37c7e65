//! Cross-executor determinism at the service tier: the threaded
//! [`Service`] and a directly-driven set of [`Shard`]s produce the
//! *same* deterministic counters for the same request sequence. This is
//! the property that makes the lockstep bench golden representative of
//! the real server — `Shard::handle` is the shared implementation, and
//! routing is the same stable hash on both sides.

use ceal_service::metrics::TelemetryConfig;
use ceal_service::service::{route_key, Service, ServiceConfig};
use ceal_service::shard::{Shard, ShardConfig};
use ceal_service::wire::{EditOp, PolicyArg, Reply, Request, ServiceCounters, ShardStat, Workload};

fn traffic(sessions: u64) -> Vec<Request> {
    let mut reqs = Vec::new();
    for s in 0..sessions {
        reqs.push(Request::Open {
            sid: format!("t{s}"),
            workload: if s % 2 == 0 {
                Workload::Sum
            } else {
                Workload::Min
            },
            n: 12,
            seed: s,
            policy: if s % 3 == 0 {
                PolicyArg::Demand
            } else {
                PolicyArg::Eager
            },
        });
    }
    for round in 0..3u32 {
        for s in 0..sessions {
            let idx = (round + s as u32) % 12;
            reqs.push(Request::Edit {
                sid: format!("t{s}"),
                ops: vec![EditOp::Delete(idx), EditOp::Restore(idx / 2)],
            });
            reqs.push(Request::Observe {
                sid: format!("t{s}"),
            });
        }
    }
    for s in 0..sessions / 2 {
        reqs.push(Request::Close {
            sid: format!("t{s}"),
        });
    }
    reqs
}

#[test]
fn threaded_service_matches_directly_driven_shards() {
    // Counts and session gauges are kept whatever the telemetry switch
    // says, so the equality must hold with it on and off.
    check_against_direct_shards(TelemetryConfig::default());
    check_against_direct_shards(TelemetryConfig::disabled());
}

fn check_against_direct_shards(telemetry: TelemetryConfig) {
    const SHARDS: usize = 3;
    // Budget small enough to force evict/restore traffic through both
    // executors — the equality must hold for the whole lifecycle.
    let budget = 60_000;
    let reqs = traffic(24);

    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|_| {
            Shard::new(ShardConfig {
                mem_budget_bytes: budget,
                max_sessions: 1000,
                telemetry,
            })
        })
        .collect();
    let mut direct_replies = Vec::new();
    for req in &reqs {
        let shard = route_key(req.sid().expect("keyed"), SHARDS);
        direct_replies.push(shards[shard].handle(req));
    }
    let mut direct = ServiceCounters::default();
    for s in &shards {
        direct.add(s.counters());
    }

    let svc = Service::start(ServiceConfig {
        shards: SHARDS,
        queue_cap: 64,
        mem_budget_bytes: budget,
        max_sessions: 1000,
        telemetry,
    });
    let mut threaded_replies = Vec::new();
    for req in &reqs {
        threaded_replies.push(svc.call(req.clone()));
    }
    let (threaded, rows) = svc.stats_detailed();
    svc.shutdown();

    assert_eq!(direct_replies, threaded_replies, "reply streams diverge");
    assert_eq!(direct, threaded, "deterministic counters diverge");
    let sessions = |r: ShardStat| (r.live_sessions, r.evicted_sessions);
    let direct_rows: Vec<_> = shards.iter().map(|s| sessions(s.stat())).collect();
    let threaded_rows: Vec<_> = rows.into_iter().map(sessions).collect();
    assert_eq!(
        direct_rows, threaded_rows,
        "per-shard session gauges diverge"
    );
    assert!(
        direct.evicted > 0,
        "oracle vacuous: no evictions under budget"
    );
    assert!(
        direct.restored > 0,
        "oracle vacuous: no restores under budget"
    );
    assert!(
        !direct_replies.iter().any(|r| matches!(r, Reply::Err(..))),
        "clean traffic errored"
    );
}
