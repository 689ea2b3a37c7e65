//! Deterministic propagation profiles behind `tables gate`,
//! `tables profile` and `tables trace` (DESIGN.md §10).
//!
//! Wall-clock numbers are useless as a CI regression gate on shared
//! runners, but the engine's operation counters are a *deterministic*
//! function of (program, input seed, edit script): the same build
//! performs exactly the same reads, memo probes and purges on every
//! machine. This module runs a fixed set of profile workloads with
//! [`Engine::enable_profiling`]. `tables gate` diffs the flattened
//! counters against the checked-in golden file
//! `crates/bench/baselines/profile_golden.json`, failing with a
//! per-counter delta table on any drift; `tables profile` writes the
//! per-phase reports as `BENCH_profile.json` (generated, not
//! committed: the golden is the one committed copy of the counters).
//!
//! Blessing a deliberate change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo run --release -p ceal-bench --bin tables -- gate
//! ```
//!
//! Workload sizes are fixed, so golden counters are identical in every
//! configuration that runs them.

use crate::Opts;
use ceal_runtime::prelude::*;
use ceal_runtime::prng::Prng;
use ceal_suite::input;
use ceal_suite::sac::{exptrees, listops, sort, tcon};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Per-workload trace artifacts captured by `tables trace`.
pub struct WorkloadTrace {
    /// Workload name (matches the [`Profile`] name).
    pub name: String,
    /// Chrome trace-event JSON (Perfetto-loadable timeline).
    pub trace_json: String,
    /// Per-site attribution table as JSON.
    pub attribution_json: String,
    /// Per-site attribution as a human-readable table.
    pub attribution_table: String,
    /// Deterministic event-stream digest (16 hex digits).
    pub digest_hex: String,
    /// Total events recorded.
    pub events: usize,
}

/// Collects [`WorkloadTrace`]s while the profile workloads run. Passing
/// `Some(sink)` to [`collect_profiles_traced`] installs a
/// [`TraceRecorder`] on every workload engine; the recorded streams are
/// exported here. Recording is observation-only: the engine makes
/// identical decisions either way, so the emitted [`Profile`] counters
/// are byte-identical to an untraced run (asserted by tests).
#[derive(Default)]
pub struct TraceSink {
    /// Captured traces, in workload order.
    pub traces: Vec<WorkloadTrace>,
}

fn attach_recorder(e: &mut Engine) -> Arc<Mutex<TraceRecorder>> {
    let rec = TraceRecorder::shared();
    e.set_event_hook(Box::new(Arc::clone(&rec)));
    rec
}

impl TraceSink {
    fn capture(&mut self, name: &str, rec: &Arc<Mutex<TraceRecorder>>, e: &Engine) {
        let r = rec.lock().unwrap();
        let sites = e.sites();
        let attr = r.attribution(sites);
        self.traces.push(WorkloadTrace {
            name: name.to_string(),
            trace_json: r.chrome_trace_json(sites),
            attribution_json: attr.to_json(),
            attribution_table: attr.render_table(),
            digest_hex: r.digest_hex(),
            events: r.len(),
        });
    }
}

/// The profile edit schedule: same shuffle as the Table 1 harness.
fn edit_positions(n: usize, max_edits: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Prng::seed_from_u64(seed ^ 0xED17);
    rng.shuffle(&mut order);
    order.truncate(max_edits.min(n));
    order
}

/// A 64-deep copy chain driven through modify/propagate, then a full
/// purge.
fn profile_chain64(sink: Option<&mut TraceSink>) -> Profile {
    let mut b = ProgramBuilder::new();
    let body = b.native("copy_body", |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });
    let copy = b.native("copy", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    let mut e = Engine::new(b.build());
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let chain: Vec<_> = (0..65).map(|_| e.meta_modref()).collect();
    e.modify(chain[0], Value::Int(0));
    for w in chain.windows(2) {
        e.run_core(copy, &[Value::ModRef(w[0]), Value::ModRef(w[1])]);
    }
    for k in 1..=20i64 {
        e.modify(chain[0], Value::Int(k));
        e.propagate();
        assert_eq!(
            e.deref(chain[64]),
            Value::Int(k),
            "chain64 propagated wrong value"
        );
    }
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("engine_chain64", r, &e);
    }
    e.take_profile("engine_chain64")
}

/// List map at n=4096 with 25 delete/insert propagation round trips.
fn profile_map(sink: Option<&mut TraceSink>) -> Profile {
    let (n, seed) = (4096usize, 42u64);
    let (p, f) = listops::map_program();
    let mut e = Engine::new(p);
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let data = input::random_ints(n, seed);
    let vals: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
    let l = input::build_list(&mut e, &vals);
    let out = e.meta_modref();
    e.run_core(f, &[Value::ModRef(l.head), Value::ModRef(out)]);
    let expect: Vec<Value> = data
        .iter()
        .map(|&x| Value::Int(listops::paper_map_fn(x)))
        .collect();
    assert_eq!(
        input::collect_list(&e, out),
        expect,
        "map_4k initial output wrong"
    );
    for &i in &edit_positions(n, 25, seed) {
        if l.delete(&mut e, i) {
            e.propagate();
            l.insert(&mut e, i);
            e.propagate();
        }
    }
    assert_eq!(
        input::collect_list(&e, out),
        expect,
        "map_4k output wrong after edits"
    );
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("map_4k", r, &e);
    }
    e.take_profile("map_4k")
}

/// Quicksort on 1000 random strings with 10 delete/insert round trips.
fn profile_quicksort(sink: Option<&mut TraceSink>) -> Profile {
    let (n, seed) = (1000usize, 42u64);
    let (p, f) = sort::quicksort_program();
    let mut e = Engine::new(p);
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let strings = input::random_strings(n, seed);
    let vals: Vec<Value> = strings.iter().map(|s| e.intern(s)).collect();
    let l = input::build_list(&mut e, &vals);
    let out = e.meta_modref();
    e.run_core(f, &[Value::ModRef(l.head), Value::ModRef(out)]);
    let sorted = |e: &Engine| {
        let got = input::collect_list(e, out);
        got.len() == n && got.windows(2).all(|w| sort::value_le(e, w[0], w[1]))
    };
    assert!(sorted(&e), "quicksort_1k initial output not sorted");
    for &i in &edit_positions(n, 10, seed) {
        if l.delete(&mut e, i) {
            e.propagate();
            l.insert(&mut e, i);
            e.propagate();
        }
    }
    assert!(sorted(&e), "quicksort_1k output not sorted after edits");
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("quicksort_1k", r, &e);
    }
    e.take_profile("quicksort_1k")
}

/// Expression-tree evaluation over 4096 leaves with 25 leaf toggles.
fn profile_exptrees(sink: Option<&mut TraceSink>) -> Profile {
    let (n, seed) = (4096usize, 42u64);
    let (p, eval) = exptrees::exptrees_program();
    let mut e = Engine::new(p);
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let tree = exptrees::build_exptree(&mut e, n, seed);
    let res = e.meta_modref();
    e.run_core(eval, &[Value::ModRef(tree.root), Value::ModRef(res)]);
    let expect = exptrees::eval_conventional(&e, e.deref(tree.root));
    let close = |a: Value, b: f64| (a.float() - b).abs() < 1e-6 * (1.0 + b.abs());
    assert!(
        close(e.deref(res), expect),
        "exptrees_4k initial value wrong"
    );
    for &i in &edit_positions(tree.leaves.len(), 25, seed) {
        let (slot, _, leaf, alt) = tree.leaves[i];
        e.modify(slot, alt);
        e.propagate();
        e.modify(slot, leaf);
        e.propagate();
    }
    assert!(
        close(e.deref(res), expect),
        "exptrees_4k value wrong after edits"
    );
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("exptrees_4k", r, &e);
    }
    e.take_profile("exptrees_4k")
}

/// Tree contraction at n=2000 with 10 edge delete/insert round trips —
/// the fig13 anchor workload in counter form.
fn profile_tcon(sink: Option<&mut TraceSink>) -> Profile {
    let (n, seed) = (2000usize, 42u64);
    let (p, f) = tcon::tcon_program();
    let mut e = Engine::new(p);
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let tree = tcon::build_tree(&mut e, n, seed);
    let res = e.meta_modref();
    e.run_core(f, &[Value::ModRef(tree.root), Value::ModRef(res)]);
    assert_eq!(
        e.deref(res),
        Value::Int(n as i64),
        "tcon_2k initial count wrong"
    );
    for &i in &edit_positions(tree.edges.len(), 10, seed) {
        if tree.delete_edge(&mut e, i) {
            e.propagate();
            tree.insert_edge(&mut e, i);
            e.propagate();
        }
    }
    assert_eq!(
        e.deref(res),
        Value::Int(n as i64),
        "tcon_2k count wrong after edits"
    );
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("tcon_2k", r, &e);
    }
    e.take_profile("tcon_2k")
}

/// Dense transactional editing: list map at n=512 driven by rounds of
/// 64 deletes staged on one [`EditBatch`] and committed in a single
/// pass, then 64 restores the same way. Exercises the `batch` phase
/// counters (coalesced queue traffic, per-commit propagation) that the
/// per-edit workloads above never produce.
fn profile_batch_dense(sink: Option<&mut TraceSink>) -> Profile {
    let (n, seed, round) = (512usize, 42u64, 64usize);
    let (p, f) = listops::map_program();
    let mut e = Engine::new(p);
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let data = input::random_ints(n, seed);
    let vals: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
    let mut l = input::EditList::build(&mut e, &vals);
    let out = e.meta_modref();
    e.run_core(f, &[Value::ModRef(l.head), Value::ModRef(out)]);
    let mapped = |live: Vec<Value>| -> Vec<Value> {
        live.iter()
            .map(|v| Value::Int(listops::paper_map_fn(v.int())))
            .collect()
    };
    assert_eq!(
        input::collect_list(&e, out),
        mapped(l.live_data()),
        "batch_dense_512 initial output wrong"
    );
    for r in 0..3u64 {
        let picks = edit_positions(n, round, seed ^ (r + 1));
        let mut b = e.batch();
        for &i in &picks {
            l.delete(&mut b, i);
        }
        b.commit();
        assert_eq!(
            input::collect_list(&e, out),
            mapped(l.live_data()),
            "batch_dense_512 output wrong after delete round {r}"
        );
        let mut b = e.batch();
        for &i in &picks {
            l.restore(&mut b, i);
        }
        b.commit();
        assert_eq!(
            input::collect_list(&e, out),
            mapped(l.live_data()),
            "batch_dense_512 output wrong after restore round {r}"
        );
    }
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("batch_dense_512", r, &e);
    }
    e.take_profile("batch_dense_512")
}

/// Cold-session sparse observation under the demand policy: the same
/// 64-deep copy chain as `engine_chain64`, but with
/// [`PropagationPolicy::Demand`] and only every fifth edit round
/// observing the output. The unobserved rounds mark dirt without
/// re-executing anything; each `observe` runs one coalesced
/// demand-clean pass. Exercises the `demand` phase counters and the
/// `dirty_marks`/`demand_cleans` pair that every eager workload leaves
/// at zero (DESIGN.md §14).
fn profile_demand_sparse(sink: Option<&mut TraceSink>) -> Profile {
    let mut b = ProgramBuilder::new();
    let body = b.native("copy_body", |e, args| {
        e.write(args[1].modref(), args[0]);
        Tail::Done
    });
    let copy = b.native("copy", move |_e, args| {
        Tail::read(args[0].modref(), body, &args[1..])
    });
    let mut e = Engine::with_config(
        b.build(),
        EngineConfig::default().policy(PropagationPolicy::Demand),
    )
    .expect("valid demand config");
    e.enable_profiling();
    let rec = sink.is_some().then(|| attach_recorder(&mut e));
    let chain: Vec<_> = (0..65).map(|_| e.meta_modref()).collect();
    e.modify(chain[0], Value::Int(0));
    for w in chain.windows(2) {
        e.run_core(copy, &[Value::ModRef(w[0]), Value::ModRef(w[1])]);
    }
    for k in 1..=20i64 {
        e.modify(chain[0], Value::Int(k));
        if k % 5 == 0 {
            assert_eq!(
                e.observe(chain[64]),
                Value::Int(k),
                "demand_sparse observed wrong value"
            );
        }
    }
    e.clear_core();
    if let (Some(s), Some(r)) = (sink, &rec) {
        s.capture("demand_sparse_chain64", r, &e);
    }
    e.take_profile("demand_sparse_chain64")
}

/// Runs every profile workload and returns the reports, in a fixed
/// order.
pub fn collect_profiles() -> Vec<Profile> {
    collect_profiles_traced(&mut None)
}

/// Like [`collect_profiles`], but with `Some(sink)` additionally
/// records every workload's event stream and exports trace artifacts
/// into the sink (`tables trace`).
pub fn collect_profiles_traced(sink: &mut Option<TraceSink>) -> Vec<Profile> {
    vec![
        profile_chain64(sink.as_mut()),
        profile_map(sink.as_mut()),
        profile_quicksort(sink.as_mut()),
        profile_exptrees(sink.as_mut()),
        profile_tcon(sink.as_mut()),
        profile_batch_dense(sink.as_mut()),
        profile_demand_sparse(sink.as_mut()),
    ]
}

/// Reads re-executed per propagation, as an exact rational
/// `(total, propagations)` so report consumers stay float-free
/// (floats would make golden comparisons formatting-sensitive).
fn reads_per_update(p: &Profile) -> (u64, u32) {
    let (n, prop) = p.total(PhaseKind::Propagate);
    (prop.reads_reexecuted, n)
}

/// Memo hit rate over all propagations, as `(hits, probes)`.
fn memo_hit_rate(p: &Profile) -> (u64, u64) {
    let (_, prop) = p.total(PhaseKind::Propagate);
    (prop.memo_hits, prop.memo_hits + prop.memo_misses)
}

/// One profile's JSON report: summary gauges, aggregated per-kind
/// counters, and the full per-phase breakdown (counters that are zero
/// are omitted from phase rows to keep reports readable; summaries
/// always carry every counter).
fn profile_json(p: &Profile, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut s = String::new();
    let _ = writeln!(s, "{pad}{{");
    let _ = writeln!(s, "{pad}  \"name\": {:?},", p.name);
    let _ = writeln!(s, "{pad}  \"trace_len\": {},", p.trace_len);
    let _ = writeln!(s, "{pad}  \"live_bytes\": {},", p.live_bytes);
    let _ = writeln!(s, "{pad}  \"max_live_bytes\": {},", p.max_live_bytes);
    let (rr, nprop) = reads_per_update(p);
    let (hits, probes) = memo_hit_rate(p);
    let _ = writeln!(s, "{pad}  \"propagations\": {nprop},");
    let _ = writeln!(s, "{pad}  \"reads_reexecuted_total\": {rr},");
    let _ = writeln!(s, "{pad}  \"memo_hits_total\": {hits},");
    let _ = writeln!(s, "{pad}  \"memo_probes_total\": {probes},");
    for kind in PHASE_KINDS {
        let (n, sum) = p.total(kind);
        if n == 0
            && matches!(
                kind,
                PhaseKind::Purge | PhaseKind::Batch | PhaseKind::DemandClean
            )
        {
            continue;
        }
        let _ = writeln!(s, "{pad}  \"{}\": {{", kind.name());
        let _ = writeln!(s, "{pad}    \"phases\": {n},");
        let entries: Vec<String> = sum
            .entries()
            .map(|(k, v)| format!("{pad}    \"{k}\": {v}"))
            .collect();
        s.push_str(&entries.join(",\n"));
        let _ = writeln!(s, "\n{pad}  }},");
    }
    let _ = writeln!(s, "{pad}  \"phase_list\": [");
    for (i, ph) in p.phases.iter().enumerate() {
        let nz: Vec<String> = ph
            .counters
            .entries()
            .filter(|&(_, v)| v != 0)
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(
            s,
            "{pad}    {{\"phase\": \"{}#{}\", \"trace_len\": {}, \"live_bytes\": {}{}{}}}",
            ph.kind.name(),
            ph.seq,
            ph.trace_len,
            ph.live_bytes,
            if nz.is_empty() { "" } else { ", " },
            nz.join(", ")
        );
        s.push_str(if i + 1 < p.phases.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(s, "{pad}  ]");
    let _ = write!(s, "{pad}}}");
    s
}

/// Phase kinds in report order.
const PHASE_KINDS: [PhaseKind; 5] = [
    PhaseKind::InitialRun,
    PhaseKind::Propagate,
    PhaseKind::Batch,
    PhaseKind::Purge,
    PhaseKind::DemandClean,
];

/// The flat `key → value` view used for golden-profile gating: every
/// key is `<name>/<section>/<counter>` and every value an integer, so
/// comparisons are exact and diffable per counter.
fn flat_counters(p: &Profile) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for kind in PHASE_KINDS {
        let (n, sum) = p.total(kind);
        if n == 0 {
            continue;
        }
        out.push((format!("{}/{}/phases", p.name, kind.name()), n as u64));
        for (k, v) in sum.entries() {
            out.push((format!("{}/{}/{}", p.name, kind.name(), k), v));
        }
    }
    out.push((format!("{}/final/trace_len", p.name), p.trace_len));
    out.push((format!("{}/final/live_bytes", p.name), p.live_bytes));
    out.push((format!("{}/final/max_live_bytes", p.name), p.max_live_bytes));
    out
}

/// A human-readable table of one profile: one row per counter, one
/// column per phase kind (aggregated), plus the gauges.
fn render_table(p: &Profile) -> String {
    let mut s = String::new();
    let (ni, init) = p.total(PhaseKind::InitialRun);
    let (np, prop) = p.total(PhaseKind::Propagate);
    let (nb, batch) = p.total(PhaseKind::Batch);
    let (nu, purge) = p.total(PhaseKind::Purge);
    let (nd, demand) = p.total(PhaseKind::DemandClean);
    let _ = writeln!(s, "profile: {}", p.name);
    let _ = writeln!(
        s,
        "  {:<24} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "counter",
        format!("init({ni})"),
        format!("propagate({np})"),
        format!("batch({nb})"),
        format!("purge({nu})"),
        format!("demand({nd})")
    );
    for (i, (name, iv)) in init.entries().enumerate() {
        let pv = prop.values()[i];
        let bv = batch.values()[i];
        let uv = purge.values()[i];
        let dv = demand.values()[i];
        if iv == 0 && pv == 0 && bv == 0 && uv == 0 && dv == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {name:<24} {iv:>14} {pv:>14} {bv:>14} {uv:>14} {dv:>14}"
        );
    }
    let _ = writeln!(s, "  {:<24} {:>14}", "trace_len (final)", p.trace_len);
    let _ = writeln!(s, "  {:<24} {:>14}", "live_bytes (final)", p.live_bytes);
    let _ = writeln!(s, "  {:<24} {:>14}", "max_live_bytes", p.max_live_bytes);
    let (rr, n) = reads_per_update(p);
    if n > 0 {
        let _ = writeln!(
            s,
            "  {:<24} {:>14.2}",
            "reads reexec / update",
            rr as f64 / n as f64
        );
    }
    let (hits, probes) = memo_hit_rate(p);
    if probes > 0 {
        let _ = writeln!(
            s,
            "  {:<24} {:>13.1}%",
            "memo hit rate",
            100.0 * hits as f64 / probes as f64
        );
    }
    s
}

/// Per-workload memory summary rows for the `"memory"` section of
/// `BENCH_profile.json` and the `tables profile` console table: the
/// high-water mark (`max_live_bytes`, the paper's "Max Live" column),
/// the peak live footprint observed at any phase boundary, and the
/// post-purge floor. Deterministic — the byte accounting is a cost
/// model over counted records, not allocator measurements — so these
/// rows gate exactly like the operation counters.
pub fn memory_rows(profiles: &[Profile]) -> Vec<(String, u64, u64, u64)> {
    profiles
        .iter()
        .map(|p| {
            let peak_phase = p.phases.iter().map(|ph| ph.live_bytes).max().unwrap_or(0);
            (p.name.clone(), p.max_live_bytes, peak_phase, p.live_bytes)
        })
        .collect()
}

/// The memory table printed by `tables profile`.
pub fn render_memory_table(profiles: &[Profile]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "memory (accounted bytes):\n  {:<20} {:>16} {:>16} {:>16}",
        "workload", "max_live_bytes", "peak_phase_live", "final_live"
    );
    for (name, max_live, peak_phase, fin) in memory_rows(profiles) {
        let _ = writeln!(s, "  {name:<20} {max_live:>16} {peak_phase:>16} {fin:>16}");
    }
    s
}

/// The `BENCH_profile.json` document for a set of profiles.
pub fn profiles_json(profiles: &[Profile]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"ceal-bench-profile/v1\",\n  \"memory\": [\n");
    let rows = memory_rows(profiles);
    for (i, (name, max_live, peak_phase, fin)) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": {name:?}, \"max_live_bytes\": {max_live}, \
             \"peak_phase_live_bytes\": {peak_phase}, \"final_live_bytes\": {fin}}}"
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"profiles\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        s.push_str(&profile_json(p, 4));
        s.push_str(if i + 1 < profiles.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Flattens profiles to sorted `key → value` pairs for gating.
pub fn flatten(profiles: &[Profile]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = profiles.iter().flat_map(flat_counters).collect();
    out.sort();
    out
}

/// The checked-in golden profile next to the crate sources, so the
/// gate works from any working directory.
pub fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/baselines/profile_golden.json"
    ))
}

/// Renders flattened counters as a golden file with the given schema
/// string: valid JSON, one counter per line, so drift reviews are
/// plain line diffs. The runtime profile golden and the service golden
/// share this shape and [`parse_golden`].
pub fn render_golden(schema: &str, flat: &[(String, u64)]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\n  \"schema\": \"{schema}\",\n  \"counters\": {{\n");
    for (i, (k, v)) in flat.iter().enumerate() {
        let _ = write!(s, "    \"{k}\": {v}");
        s.push_str(if i + 1 < flat.len() { ",\n" } else { "\n" });
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses a golden file back to `key → value` pairs. Counter keys are
/// recognized by their `bench/section/counter` shape, so no general
/// JSON parser is needed (the workspace deliberately has none).
pub fn parse_golden(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if !key.contains('/') {
            continue;
        }
        let val: u64 = val
            .trim()
            .parse()
            .map_err(|e| format!("golden line `{line}`: bad counter value ({e})"))?;
        out.push((key.to_string(), val));
    }
    if out.is_empty() {
        return Err("golden file contains no counters".to_string());
    }
    out.sort();
    Ok(out)
}

/// Compares current counters against the golden set. `None` means they
/// match exactly; `Some` carries the per-counter delta table.
pub fn diff_counters(current: &[(String, u64)], golden: &[(String, u64)]) -> Option<String> {
    use std::collections::BTreeMap;
    let cur: BTreeMap<&str, u64> = current.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let gold: BTreeMap<&str, u64> = golden.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut rows = Vec::new();
    for (k, &g) in &gold {
        match cur.get(k) {
            Some(&c) if c == g => {}
            Some(&c) => rows.push(format!(
                "  {k:<44} {g:>12} {c:>12} {:>+12}",
                c as i128 - g as i128
            )),
            None => rows.push(format!("  {k:<44} {g:>12} {:>12} {:>12}", "-", "missing")),
        }
    }
    for (k, &c) in &cur {
        if !gold.contains_key(k) {
            rows.push(format!("  {k:<44} {:>12} {c:>12} {:>12}", "-", "new"));
        }
    }
    if rows.is_empty() {
        return None;
    }
    let mut t = String::from("counter gate FAILED: deterministic counters drifted from golden\n");
    let _ = writeln!(
        t,
        "  {:<44} {:>12} {:>12} {:>12}",
        "counter", "golden", "current", "delta"
    );
    for r in rows {
        let _ = writeln!(t, "{r}");
    }
    Some(t)
}

/// `tables profile`: run the workloads, print the tables, and write
/// the JSON report to `--out FILE` (default `BENCH_profile.json`).
pub fn run_profile(opts: &Opts) {
    let out_path = opts.get("out").unwrap_or("BENCH_profile.json");
    let profiles = collect_profiles();
    println!();
    for p in &profiles {
        println!("{}", render_table(p));
    }
    println!("{}", render_memory_table(&profiles));
    std::fs::write(out_path, profiles_json(&profiles)).expect("write profile json");
    println!("profiles written to {out_path}");
}

/// `tables trace`: run the profile workloads with a [`TraceRecorder`]
/// installed and write per-workload trace artifacts into `--out DIR`
/// (default `trace-artifacts/`):
///
/// * `{name}.trace.json` — Chrome trace-event timeline (Perfetto),
/// * `{name}.sites.json` / `{name}.sites.txt` — per-site attribution,
/// * `digests.json` — every workload's deterministic stream digest.
pub fn run_trace(opts: &Opts) {
    let dir = PathBuf::from(opts.get("out").unwrap_or("trace-artifacts"));
    std::fs::create_dir_all(&dir).expect("create trace output dir");
    let mut sink = Some(TraceSink::default());
    let profiles = collect_profiles_traced(&mut sink);
    let sink = sink.expect("sink survives collection");
    assert_eq!(sink.traces.len(), profiles.len(), "one trace per workload");

    let mut digests = String::from("{\n  \"schema\": \"ceal-trace-digests/v1\",\n");
    digests.push_str("  \"digests\": {\n");
    for (i, t) in sink.traces.iter().enumerate() {
        std::fs::write(dir.join(format!("{}.trace.json", t.name)), &t.trace_json)
            .expect("write trace json");
        std::fs::write(
            dir.join(format!("{}.sites.json", t.name)),
            &t.attribution_json,
        )
        .expect("write attribution json");
        std::fs::write(
            dir.join(format!("{}.sites.txt", t.name)),
            &t.attribution_table,
        )
        .expect("write attribution table");
        let _ = write!(digests, "    \"{}\": \"{}\"", t.name, t.digest_hex);
        digests.push_str(if i + 1 < sink.traces.len() {
            ",\n"
        } else {
            "\n"
        });
        println!(
            "trace: {:<18} {:>9} events, digest {}",
            t.name, t.events, t.digest_hex
        );
    }
    digests.push_str("  }\n}\n");
    std::fs::write(dir.join("digests.json"), digests).expect("write digests json");
    println!("trace artifacts written to {}", dir.display());
}

/// `tables gate`: run the workloads and compare against the
/// golden file (or re-bless it when `UPDATE_GOLDEN=1`). Returns the
/// process exit code.
pub fn run_gate(opts: &Opts) -> i32 {
    let profiles = collect_profiles();
    let current = flatten(&profiles);
    let path = opts
        .get("golden")
        .map(PathBuf::from)
        .unwrap_or_else(golden_path);

    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, render_golden("ceal-profile-golden/v1", &current))
            .expect("write golden profile");
        println!(
            "counter gate: blessed {} counters into {}",
            current.len(),
            path.display()
        );
        return 0;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "counter gate: cannot read golden {} ({e}); bless one with \
                 UPDATE_GOLDEN=1 `tables gate`",
                path.display()
            );
            return 1;
        }
    };
    let golden = match parse_golden(&text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("counter gate: malformed golden {}: {e}", path.display());
            return 1;
        }
    };
    match diff_counters(&current, &golden) {
        None => {
            println!(
                "counter gate: {} counters across {} workloads match golden",
                current.len(),
                profiles.len()
            );
            0
        }
        Some(table) => {
            eprintln!("{table}");
            eprintln!(
                "If this change is intended, re-bless with:\n  UPDATE_GOLDEN=1 cargo run \
                 --release -p ceal-bench --bin tables -- gate"
            );
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceal_runtime::obs::Phase;

    fn sample_profile() -> Profile {
        let c1 = OpCounters {
            reads_created: 10,
            writes_created: 4,
            ..OpCounters::default()
        };
        let c2 = OpCounters {
            reads_reexecuted: 3,
            memo_hits: 2,
            memo_misses: 2,
            propagations: 1,
            ..OpCounters::default()
        };
        Profile {
            name: "sample".into(),
            phases: vec![
                Phase {
                    kind: PhaseKind::InitialRun,
                    seq: 0,
                    counters: c1,
                    trace_len: 30,
                    live_bytes: 2_000,
                },
                Phase {
                    kind: PhaseKind::Propagate,
                    seq: 0,
                    counters: c2,
                    trace_len: 30,
                    live_bytes: 2_000,
                },
                Phase {
                    kind: PhaseKind::Propagate,
                    seq: 1,
                    counters: c2,
                    trace_len: 30,
                    live_bytes: 2_000,
                },
            ],
            lifetime: {
                let mut l = c1;
                l.add(&c2);
                l.add(&c2);
                l
            },
            trace_len: 30,
            live_bytes: 2_000,
            max_live_bytes: 2_500,
        }
    }

    #[test]
    fn totals_and_rates() {
        let p = sample_profile();
        let (n, prop) = p.total(PhaseKind::Propagate);
        assert_eq!(n, 2);
        assert_eq!(prop.reads_reexecuted, 6);
        assert_eq!(reads_per_update(&p), (6, 2));
        assert_eq!(memo_hit_rate(&p), (4, 8));
    }

    #[test]
    fn flat_counters_cover_phases_and_gauges() {
        let p = sample_profile();
        let flat = flat_counters(&p);
        let get = |k: &str| flat.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
        assert_eq!(get("sample/init/reads_created"), Some(10));
        assert_eq!(get("sample/propagate/phases"), Some(2));
        assert_eq!(get("sample/propagate/reads_reexecuted"), Some(6));
        assert_eq!(get("sample/final/max_live_bytes"), Some(2_500));
        // No purge phase recorded → no purge keys.
        assert!(!flat.iter().any(|(n, _)| n.contains("/purge/")));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let p = sample_profile();
        let j = profile_json(&p, 0);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\": \"sample\""));
        assert!(j.contains("\"propagate\""));
        assert!(j.contains("\"phase\": \"propagate#1\""));
        // Zero counters are dropped from phase rows.
        assert!(!j.contains(
            "\"phase\": \"init#0\", \"trace_len\": 30, \"live_bytes\": 2000, \"memo_hits\""
        ));
        let table = render_table(&p);
        assert!(table.contains("memo hit rate"));
        assert!(table.contains("reads reexec / update"));
    }

    #[test]
    fn golden_round_trips_and_diffs() {
        let flat = vec![
            ("a/init/reads_created".to_string(), 10u64),
            ("a/propagate/memo_hits".to_string(), 3),
            ("b/final/trace_len".to_string(), 0),
        ];
        let text = render_golden("ceal-profile-golden/v1", &flat);
        assert!(text.starts_with('{') && text.ends_with("}\n"));
        let parsed = parse_golden(&text).unwrap();
        assert_eq!(parsed, flat);
        assert!(diff_counters(&flat, &parsed).is_none());

        // A drifted counter produces a delta row naming it.
        let mut drifted = flat.clone();
        drifted[1].1 = 5;
        let table = diff_counters(&drifted, &parsed).expect("drift detected");
        assert!(table.contains("a/propagate/memo_hits"));
        assert!(table.contains("+2"));
        // Added/removed counters are reported too.
        let extra = vec![("c/init/writes_created".to_string(), 1u64)]
            .into_iter()
            .chain(flat.clone());
        let mut extra: Vec<_> = extra.collect();
        extra.sort();
        let table = diff_counters(&extra, &parsed).expect("new counter detected");
        assert!(table.contains("c/init/writes_created") && table.contains("new"));
    }
}
