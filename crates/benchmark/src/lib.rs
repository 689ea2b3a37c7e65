//! # ceal-benchmark — one benchmark for the whole system
//!
//! Four workloads, each stressing different layers:
//!
//! * `sac-native` — hand-written `ceal_suite::sac` programs on the
//!   runtime (only `runtime` works);
//! * `sac-compiled` — the same algorithms compiled by `cealc` and run by
//!   `ceal-vm` on the runtime;
//! * `service-steady` — TCP traffic into `cealc --serve` with every
//!   session resident;
//! * `service-evict` — the same server under a memory budget that makes
//!   a third to two thirds of requests restore a session from snapshot.
//!
//! A run measures one workload for a fixed time and returns an
//! [`Outcome`]: end-to-end metrics, or with tracing the per-layer
//! ledger, plus how many operations were attempted and how many failed
//! their output checks. Every layer is reached only through its public
//! functions. See the README for every metric's definition.

#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod metrics;
pub mod sac;
pub mod service;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

pub use metrics::Outcome;

/// Run length when none is given (`BENCHMARK.json`'s `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hand-written SAC programs on the runtime.
    SacNative,
    /// `cealc`-compiled programs on the VM and runtime.
    SacCompiled,
    /// TCP service traffic, every session resident.
    ServiceSteady,
    /// TCP service traffic under eviction and restore.
    ServiceEvict,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SacNative,
        Workload::SacCompiled,
        Workload::ServiceSteady,
        Workload::ServiceEvict,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SacNative => "sac-native",
            Workload::SacCompiled => "sac-compiled",
            Workload::ServiceSteady => "service-steady",
            Workload::ServiceEvict => "service-evict",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How to run a workload.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a trace file.
    pub trace: bool,
    /// Tiny sizes; the service runs in-process instead of as `cealc`.
    pub smoke: bool,
    /// The `cealc` binary the service workloads start (ignored in
    /// smoke mode).
    pub cealc: PathBuf,
    /// Where the traced run writes `<workload>.json`.
    pub trace_dir: PathBuf,
}

/// Runs one workload; with `cfg.trace` also writes its trace file.
///
/// # Errors
///
/// Only writing the trace file can fail.
pub fn run(w: Workload, cfg: &Config) -> std::io::Result<Outcome> {
    let (out, spans, ledger) = match w {
        Workload::SacNative => sac::run(false, cfg),
        Workload::SacCompiled => sac::run(true, cfg),
        Workload::ServiceSteady => service::run(&service::STEADY, cfg),
        Workload::ServiceEvict => service::run(&service::EVICT, cfg),
    };
    if cfg.trace {
        std::fs::create_dir_all(&cfg.trace_dir)?;
        let path = cfg.trace_dir.join(format!("{}.json", w.name()));
        std::fs::write(path, trace::chrome_json(w.name(), &spans, &ledger))?;
    }
    Ok(out)
}

/// Peak resident set (`VmHWM`) of a process, in MB; `None` means this
/// process. 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
