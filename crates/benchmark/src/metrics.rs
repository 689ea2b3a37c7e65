//! The metric catalogue (mirrored by `BENCHMARK.json`, which a test
//! keeps in step) and the per-run outcome every workload returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{num, quote};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one; each family's definition is in the README.
pub const END_TO_END: &[MetricSpec] = &[
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
    lo("from_scratch_ms", "ms"),
    lo("latency_p50_us", "us"),
    lo("latency_p99_us", "us"),
    hi("throughput_per_s", "1/s"),
];

/// Per-layer metrics from the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // runtime: Engine, EditBatch, order maintenance
    lo("runtime.stage_us", "us"),
    lo("runtime.commit_us", "us"),
    lo("runtime.commit_ns_per_reexec", "ns"),
    lo("runtime.reexec_per_update", "count"),
    hi("runtime.memo_hit_ratio", "ratio"),
    hi("runtime.alloc_reuse_ratio", "ratio"),
    lo("runtime.queue_ops_per_update", "count"),
    lo("runtime.order_ops_per_update", "count"),
    lo("runtime.purged_per_update", "count"),
    lo("runtime.interval_splits_per_update", "count"),
    lo("runtime.scratch_ns_per_op", "ns"),
    lo("runtime.max_live_mb", "MB"),
    lo("runtime.reexec_per_request", "count"),
    // runtime: the per-update cost model (unit cost per counter)
    lo("runtime.model_residual_share", "ratio"),
    lo("runtime.cost_ns.commit", "ns"),
    lo("runtime.cost_ns.reads_reexecuted", "ns"),
    lo("runtime.cost_ns.reads_created", "ns"),
    lo("runtime.cost_ns.writes_created", "ns"),
    lo("runtime.cost_ns.allocs_created", "ns"),
    lo("runtime.cost_ns.allocs_stolen", "ns"),
    lo("runtime.cost_ns.memo_hits", "ns"),
    lo("runtime.cost_ns.memo_misses", "ns"),
    lo("runtime.cost_ns.nodes_purged", "ns"),
    lo("runtime.cost_ns.queue_ops", "ns"),
    lo("runtime.cost_ns.interval_splits", "ns"),
    lo("runtime.cost_ns.order_ops", "ns"),
    lo("runtime.cost_ns.vm_steps", "ns"),
    // suite: input builders and the conventional baselines
    lo("suite.input_build_ms", "ms"),
    lo("baseline.conv_ms", "ms"),
    lo("baseline.overhead_x", "x"),
    hi("baseline.speedup_x", "x"),
    // per-program Table 1 rows
    lo("minimum.from_scratch_ms", "ms"),
    lo("minimum.update_us", "us"),
    lo("minimum.overhead_x", "x"),
    lo("sum.from_scratch_ms", "ms"),
    lo("sum.update_us", "us"),
    lo("sum.overhead_x", "x"),
    lo("map.from_scratch_ms", "ms"),
    lo("map.update_us", "us"),
    lo("map.overhead_x", "x"),
    lo("quicksort.from_scratch_ms", "ms"),
    lo("quicksort.update_us", "us"),
    lo("quicksort.overhead_x", "x"),
    lo("exptrees.from_scratch_ms", "ms"),
    lo("exptrees.update_us", "us"),
    lo("exptrees.overhead_x", "x"),
    lo("tcon.from_scratch_ms", "ms"),
    lo("tcon.update_us", "us"),
    lo("tcon.overhead_x", "x"),
    // lang, compiler, vm
    lo("lang.frontend_ms", "ms"),
    lo("compiler.normalize_ms", "ms"),
    lo("compiler.inline_ms", "ms"),
    lo("compiler.translate_ms", "ms"),
    lo("compiler.emit_c_ms", "ms"),
    lo("compiler.compile_ms", "ms"),
    lo("compiler.target_words", "words"),
    lo("compiler.c_bytes", "bytes"),
    lo("vm.load_ms", "ms"),
    lo("vm.steps_per_update", "count"),
    lo("vm.steps_scratch", "count"),
    lo("vm.ns_per_step", "ns"),
    // service: wire, frontend, Service admission, Shard, Session
    lo("wire.parse_ns", "ns"),
    lo("wire.format_ns", "ns"),
    lo("service.call_us", "us"),
    lo("shard.handle_us", "us"),
    lo("service.queue_hop_us", "us"),
    lo("frontend.residual_us", "us"),
    lo("frontend.residual_share", "ratio"),
    lo("shard.restore_share", "ratio"),
    lo("shard.restores_per_1k", "count"),
    lo("shard.evictions_per_1k", "count"),
    lo("shard.replayed_ops_per_restore", "count"),
    lo("shard.snapshot_bytes_per_evict", "bytes"),
    // the load generator's own health
    lo("loadgen.late_p99_us", "us"),
    lo("loadgen.late_max_us", "us"),
    lo("loadgen.backlog_max", "count"),
    // the cost of tracing itself
    lo("trace.overhead_pct", "%"),
];

/// Looks a metric up in either catalogue.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// What one workload run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, updates and runs made).
    pub attempted: u64,
    /// Operations whose output or reply was wrong, refused or missing.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Measured values by metric name (both catalogues).
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a value for a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec(name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
        self.values.insert(spec.name, value);
    }

    /// Counts one failed operation, keeping its description if there
    /// are not many yet.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the catalogue chosen by `traced` (0 where this
    /// workload measured nothing).
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in catalogue.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = self.values.get(m.name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(v),
                quote(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for m in all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let v = crate::json::parse(&o.result_json(false)).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(true)));
        let m = v.get("metrics").unwrap().obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[0].1.get("value").unwrap().num(), Some(0.5));
        o.fail("x");
        let v = crate::json::parse(&o.result_json(true)).unwrap();
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(false)));
        assert_eq!(
            v.get("metrics").unwrap().obj().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
