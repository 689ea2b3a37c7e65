//! The service's own latency histogram agrees with an external
//! stopwatch: every edit/observe the client times lands in
//! `ceal_request_us` exactly once, and the client-side p50/p99 fall
//! inside the histogram's quantile buckets.
//!
//! The histogram clock runs from admission to the end of handling, so
//! the client's clock (which also covers the enqueue and the reply hop)
//! can only read higher. The upper bound allows one bucket width
//! (12.5%) plus 500 µs for that hop.

use std::time::Instant;

use ceal_service::metrics::TelemetryConfig;
use ceal_service::service::{Service, ServiceConfig};
use ceal_service::wire::{EditOp, PolicyArg, Request, Workload};

const SESSIONS: u32 = 16;
const ROUNDS: u32 = 8;
const N: u32 = 16;

#[test]
fn request_histogram_agrees_with_external_stopwatch() {
    let svc = Service::start(ServiceConfig {
        // The stderr slow-request log is noise in a test.
        telemetry: TelemetryConfig {
            slow_log: false,
            ..TelemetryConfig::default()
        },
        ..ServiceConfig::default()
    });
    for s in 0..SESSIONS {
        let reply = svc.call(Request::Open {
            sid: format!("h{s}"),
            workload: if s % 2 == 0 {
                Workload::Sum
            } else {
                Workload::Min
            },
            n: N,
            seed: u64::from(s),
            policy: if s % 4 == 3 {
                PolicyArg::Demand
            } else {
                PolicyArg::Eager
            },
        });
        assert!(reply.is_ok(), "open failed: {reply}");
    }

    let mut calls_us: Vec<u64> = Vec::new();
    for round in 0..ROUNDS {
        for s in 0..SESSIONS {
            let idx = (round * 5 + s) % N;
            let edit = Request::Edit {
                sid: format!("h{s}"),
                ops: vec![EditOp::Delete(idx), EditOp::Restore((idx + 7) % N)],
            };
            let observe = Request::Observe {
                sid: format!("h{s}"),
            };
            for req in [edit, observe] {
                let t = Instant::now();
                let reply = svc.call(req);
                calls_us.push(t.elapsed().as_micros() as u64);
                assert!(reply.is_ok(), "request failed: {reply}");
            }
        }
    }

    let hist = svc
        .metrics_snapshot()
        .merged_histogram("ceal_request_us", |labels| {
            labels
                .iter()
                .any(|(k, v)| k == "kind" && (v == "edit" || v == "observe"))
        });
    svc.shutdown();

    let n = calls_us.len() as u64;
    assert!(n >= 200, "only {n} timed calls");
    assert_eq!(hist.count, n, "histogram count differs from calls made");
    calls_us.sort_unstable();
    for (num, den) in [(1u64, 2u64), (99, 100)] {
        let rank = (n * num).div_ceil(den).clamp(1, n);
        let ext = calls_us[rank as usize - 1];
        let (lo, hi) = hist
            .quantile_bounds(num, den)
            .expect("histogram is non-empty");
        assert!(
            ext >= lo && ext <= hi + hi / 8 + 500,
            "external q{num}/{den} = {ext}us outside histogram bucket [{lo}, {hi}]us"
        );
    }
}
