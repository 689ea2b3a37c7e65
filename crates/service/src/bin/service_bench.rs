//! `service-bench` — the service load generator and its counter gate.
//!
//! ```text
//! service-bench [--gate] [--overhead-gate] [--out BENCH_service.json]
//! ```
//!
//! Always runs the fixed deterministic lockstep pass and prints its
//! counters as `BENCH_service.json` (to stdout, or to `--out`):
//!
//! * `--gate`   — additionally diff the lockstep counters against
//!   `crates/service/baselines/service_golden.json`; bless deliberate
//!   changes with `UPDATE_GOLDEN=1`.
//! * `--overhead-gate` — price the telemetry instrumentation: run the
//!   lockstep schedule with telemetry off and on (production config)
//!   and fail if the instrumented hot path costs more than 5% (plus a
//!   small absolute floor for timer noise on tiny runs).
//! * `--out`    — write `BENCH_service.json`.
//!
//! Service latency and throughput are not measured here: the
//! `service-steady` and `service-evict` workloads of `ceal-benchmark`
//! time real TCP traffic against `cealc --serve`.

use std::process::ExitCode;

use ceal_bench::profile::{diff_counters, parse_golden};
use ceal_bench::Opts;
use ceal_service::bench::{
    flatten_counters, golden_path, overhead_probe, render_golden, render_json, run_lockstep,
    GATE_SPEC,
};

fn main() -> ExitCode {
    let (sub, opts) = Opts::from_env();
    // No subcommands: tolerate the binary name's args starting at the
    // first `--flag` (Opts treats the first arg as a subcommand slot).
    let gate = opts.has("gate") || sub.as_deref() == Some("--gate");
    let overhead_gate = opts.has("overhead-gate") || sub.as_deref() == Some("--overhead-gate");

    eprintln!(
        "service-bench: lockstep gate pass ({} sessions, {} shards)",
        GATE_SPEC.sessions, GATE_SPEC.shards
    );
    let lockstep = run_lockstep(&GATE_SPEC);
    let c = &lockstep.counters;
    eprintln!(
        "  admitted={} shed={} opened={} evicted={} restored={} replayed_ops={}",
        c.admitted, c.shed, c.opened, c.evicted, c.restored, c.replayed_ops
    );

    if overhead_gate {
        // Best-of-3 each way; the absolute floor keeps sub-second runs
        // from failing on scheduler jitter alone.
        let (off_s, on_s) = overhead_probe(&GATE_SPEC, 3);
        let budget = off_s * 1.05 + 0.030;
        eprintln!(
            "service-bench: telemetry overhead — off={:.3}s on={:.3}s budget={:.3}s ({:+.1}%)",
            off_s,
            on_s,
            budget,
            (on_s / off_s - 1.0) * 100.0
        );
        if on_s > budget {
            eprintln!("service-bench: telemetry hot-path overhead exceeds 5% gate");
            return ExitCode::FAILURE;
        }
        eprintln!("service-bench: overhead gate OK");
    }

    if gate {
        let mut flat = flatten_counters(c);
        flat.extend(lockstep.telemetry.iter().cloned());
        let path = golden_path();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            let rendered = render_golden(&flat);
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("service-bench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("service-bench: blessed {}", path.display());
        } else {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!(
                        "service-bench: cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            let golden = match parse_golden(&text) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("service-bench: bad golden: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(table) = diff_counters(&flat, &golden) {
                eprintln!("service-bench: deterministic counters drifted from golden:\n{table}");
                eprintln!("If the change is deliberate, bless with UPDATE_GOLDEN=1.");
                return ExitCode::FAILURE;
            }
            eprintln!("service-bench: counter gate OK ({} counters)", flat.len());
        }
    }

    let json = render_json(&lockstep);
    if let Some(out) = opts.get("out") {
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("service-bench: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("service-bench: wrote {out}");
    } else {
        println!("{json}");
    }
    ExitCode::SUCCESS
}
