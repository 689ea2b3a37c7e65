//! `cealc` — the CEAL compiler driver.
//!
//! ```text
//! cealc FILE.ceal                # compile, report statistics
//! cealc FILE.ceal --emit-cl      # print the lowered CL
//! cealc FILE.ceal --emit-norm    # print the normalized CL (§5)
//! cealc FILE.ceal --emit-c       # print the generated C (§6, Fig. 12)
//! cealc FILE.ceal --run ENTRY --in 1,2,3 [--edit SLOT=VAL ...] [--batch]
//!                                # execute: inputs become modifiables,
//!                                # one output modifiable is printed;
//!                                # each --edit modifies an input and
//!                                # propagates, printing the new output.
//!                                # With --batch, all edits are staged in
//!                                # one transaction and committed with a
//!                                # single coalesced propagation pass.
//!                                # With --policy demand, edits only mark
//!                                # dirty and the pass runs on demand when
//!                                # the output is observed (DESIGN.md §14).
//! cealc FILE.ceal --run ENTRY --in 1,2,3 --trace-out DIR
//!                                # additionally record the attributed
//!                                # event stream and write trace
//!                                # artifacts into DIR: a Perfetto
//!                                # timeline (trace.json), per-site
//!                                # attribution (sites.json/sites.txt),
//!                                # the final DDG (ddg.dot/ddg.json) and
//!                                # the stream digest (digest.txt).
//! cealc --serve --addr 127.0.0.1:7077 [--shards N]
//!                                # run the sharded incremental-session
//!                                # service (ceal-service): many engine
//!                                # sessions behind a line-protocol TCP
//!                                # frontend. See README "Running as a
//!                                # service" and examples/service_client.
//!                                # --metrics-addr H:P additionally
//!                                # serves GET /metrics (Prometheus) and
//!                                # /metrics.json; --slow-ms sets the
//!                                # slow-request log threshold and
//!                                # --idle-timeout-s the client idle
//!                                # timeout (0 disables). See README
//!                                # "Monitoring".
//! ```

use ceal_compiler::pipeline::compile;
use ceal_runtime::prelude::*;
use ceal_vm::{load, VmOptions};
use std::process::ExitCode;

/// Writes the `--trace-out` artifact set: the Perfetto timeline, the
/// per-site attribution (JSON + table), the live DDG snapshot (DOT +
/// JSON) and the deterministic stream digest.
fn write_trace_artifacts(
    dir: &std::path::Path,
    rec: &TraceRecorder,
    e: &Engine,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let sites = e.sites();
    let attr = rec.attribution(sites);
    std::fs::write(dir.join("trace.json"), rec.chrome_trace_json(sites))?;
    std::fs::write(dir.join("sites.json"), attr.to_json())?;
    std::fs::write(dir.join("sites.txt"), attr.render_table())?;
    std::fs::write(dir.join("ddg.dot"), e.ddg_dot())?;
    std::fs::write(dir.join("ddg.json"), e.ddg_json())?;
    std::fs::write(dir.join("digest.txt"), format!("{}\n", rec.digest_hex()))?;
    Ok(())
}

/// `cealc --serve`: boot the sharded session service and block until
/// the process is killed (the container/runner owns the lifetime).
fn serve(args: &[String]) -> ExitCode {
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let addr = get("--addr").unwrap_or("127.0.0.1:7077");
    let mut cfg = ceal_service::ServiceConfig::default();
    if let Some(s) = get("--shards") {
        match s.parse() {
            Ok(n) if n >= 1 => cfg.shards = n,
            _ => {
                eprintln!("cealc: --shards wants a positive integer, got {s}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(m) = get("--mem-budget-mb") {
        match m.parse::<usize>() {
            Ok(mb) if mb >= 1 => cfg.mem_budget_bytes = mb << 20,
            _ => {
                eprintln!("cealc: --mem-budget-mb wants a positive integer, got {m}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(ms) = get("--slow-ms") {
        match ms.parse::<u64>() {
            Ok(ms) => cfg.telemetry.slow_threshold_us = ms.saturating_mul(1000),
            Err(_) => {
                eprintln!("cealc: --slow-ms wants an integer, got {ms}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut fe_cfg = ceal_service::FrontendConfig::default();
    if let Some(s) = get("--idle-timeout-s") {
        match s.parse::<u64>() {
            Ok(0) => fe_cfg.read_timeout = None,
            Ok(secs) => fe_cfg.read_timeout = Some(std::time::Duration::from_secs(secs)),
            Err(_) => {
                eprintln!("cealc: --idle-timeout-s wants an integer (0 disables), got {s}");
                return ExitCode::FAILURE;
            }
        }
    }
    let svc = ceal_service::Service::start(cfg);
    let metrics = match get("--metrics-addr") {
        Some(maddr) => match ceal_service::MetricsServer::spawn(svc.clone(), maddr) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("cealc: cannot bind metrics address {maddr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let frontend = match ceal_service::TcpFrontend::spawn_with(svc, addr, fe_cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cealc: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The bound addresses go to stdout (and flush) so scripts that
    // pass port 0 can scrape the ephemeral ports.
    println!(
        "cealc: serving on {} ({} shards)",
        frontend.addr(),
        cfg.shards
    );
    if let Some(m) = &metrics {
        println!("cealc: metrics on http://{}/metrics", m.addr());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serve") {
        return serve(&args);
    }
    let Some(path) = args.first() else {
        eprintln!("usage: cealc FILE.ceal [--emit-cl|--emit-norm|--emit-c]");
        eprintln!(
            "       cealc FILE.ceal --run ENTRY --in 1,2,3 [--edit IDX=VAL ...] \
             [--batch] [--policy eager|demand] [--trace-out DIR]"
        );
        eprintln!(
            "       cealc --serve [--addr HOST:PORT] [--shards N] [--mem-budget-mb M] \
             [--metrics-addr HOST:PORT] [--slow-ms MS] [--idle-timeout-s S]"
        );
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cealc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ast = match ceal_lang::parser::parse(&src) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cealc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (cl, _names) = match ceal_lang::lower::lower(&ast) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cealc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = ceal_ir::validate::validate(&cl) {
        eprintln!("cealc: internal: lowered program invalid: {e}");
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--emit-cl") {
        print!("{}", ceal_ir::print::print_program(&cl));
        return ExitCode::SUCCESS;
    }
    let out = match compile(&cl) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cealc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--emit-norm") {
        print!("{}", ceal_ir::print::print_program(&out.normalized));
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--emit-c") {
        print!("{}", out.c_code);
        return ExitCode::SUCCESS;
    }

    if let Some(pos) = args.iter().position(|a| a == "--run") {
        let Some(entry_name) = args.get(pos + 1) else {
            eprintln!("cealc: --run needs an entry function name");
            return ExitCode::FAILURE;
        };
        let ins: Vec<i64> = args
            .iter()
            .position(|a| a == "--in")
            .and_then(|i| args.get(i + 1))
            .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
            .unwrap_or_default();
        let mut b = ProgramBuilder::new();
        let loaded = match load(&out.target, &mut b, VmOptions::default()) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cealc: {e}");
                return ExitCode::FAILURE;
            }
        };
        let entry = match loaded.require_entry(&out.target, entry_name) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cealc: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace_dir = args
            .iter()
            .position(|a| a == "--trace-out")
            .and_then(|i| args.get(i + 1))
            .map(std::path::PathBuf::from);
        let policy = match args
            .iter()
            .position(|a| a == "--policy")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
        {
            None | Some("eager") => PropagationPolicy::Eager,
            Some("demand") => PropagationPolicy::Demand,
            Some(other) => {
                eprintln!("cealc: unknown --policy {other} (expected eager or demand)");
                return ExitCode::FAILURE;
            }
        };
        let config = EngineConfig::default().policy(policy);
        let mut e = match Engine::with_config(b.build(), config) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("cealc: {err}");
                return ExitCode::FAILURE;
            }
        };
        let recorder = trace_dir.as_ref().map(|_| {
            let rec = TraceRecorder::shared();
            e.set_event_hook(Box::new(std::sync::Arc::clone(&rec)));
            rec
        });
        let in_mods: Vec<ModRef> = ins
            .iter()
            .map(|&v| {
                let m = e.meta_modref();
                e.modify(m, Value::Int(v));
                m
            })
            .collect();
        let res = e.meta_modref();
        let mut run_args: Vec<Value> = in_mods.iter().map(|&m| Value::ModRef(m)).collect();
        run_args.push(Value::ModRef(res));
        e.run_core(entry, &run_args);
        println!("{entry_name}({ins:?}) = {}", e.deref(res));
        let demand = policy == PropagationPolicy::Demand;
        // Collect edits: --edit IDX=VAL, in order.
        let mut edits: Vec<(usize, i64)> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--edit" {
                if let Some(spec) = it.next() {
                    if let Some((i, v)) = spec.split_once('=') {
                        let (Ok(i), Ok(v)) = (i.parse::<usize>(), v.parse::<i64>()) else {
                            eprintln!("cealc: bad --edit {spec}");
                            return ExitCode::FAILURE;
                        };
                        if i >= in_mods.len() {
                            eprintln!("cealc: --edit index {i} out of range");
                            return ExitCode::FAILURE;
                        }
                        edits.push((i, v));
                    }
                }
            }
        }
        if args.iter().any(|a| a == "--batch") && !edits.is_empty() {
            // All edits staged in one transaction: coalesced, one pass.
            let before = e.stats().ops.reads_reexecuted;
            let mut batch = e.batch();
            for &(i, v) in &edits {
                batch.modify(in_mods[i], Value::Int(v));
            }
            batch.commit();
            // Under the demand policy the commit defers: the observe
            // below triggers the (single) demand-clean pass.
            let val = e.observe(res);
            println!(
                "after batch of {}: {val} ({} reads re-executed)",
                edits.len(),
                e.stats().ops.reads_reexecuted - before
            );
        } else {
            for (i, v) in edits {
                let before = e.stats().ops.reads_reexecuted;
                let mut batch = e.batch();
                batch.modify(in_mods[i], Value::Int(v));
                batch.commit();
                let val = e.observe(res);
                println!(
                    "after in[{i}] := {v}: {val} ({} reads re-executed)",
                    e.stats().ops.reads_reexecuted - before
                );
            }
        }
        if demand {
            println!(
                "demand policy: {} dirty marks, {} demand-clean passes",
                e.stats().ops.dirty_marks,
                e.stats().ops.demand_cleans
            );
        }
        if let (Some(dir), Some(rec)) = (&trace_dir, &recorder) {
            if let Err(err) = write_trace_artifacts(dir, &rec.lock().unwrap(), &e) {
                eprintln!("cealc: cannot write trace artifacts: {err}");
                return ExitCode::FAILURE;
            }
            println!(
                "trace artifacts written to {} (digest {})",
                dir.display(),
                rec.lock().unwrap().digest_hex()
            );
        }
        return ExitCode::SUCCESS;
    }

    // Default: statistics report.
    println!("cealc: {path}");
    let s = &out.stats;
    println!(
        "  frontend: {} functions, {} blocks, {} words",
        s.normalize.funcs_in, s.normalize.blocks_in, s.input_words
    );
    println!(
        "  normalize: +{} unit functions, ML = {}, {:.1} ms ({} trivial tails inlined)",
        s.normalize.funcs_out - s.normalize.funcs_in,
        s.normalize.max_live,
        s.normalize_s * 1e3,
        s.inline.tails_inlined
    );
    println!(
        "  translate: {} instructions, {} read sites, {} closure arities, {:.1} ms",
        out.target.stats.instrs,
        out.target.stats.read_sites,
        out.target.stats.mono_instances,
        s.translate_s * 1e3
    );
    println!("  emit C: {} bytes, {:.1} ms", s.c_bytes, s.emit_s * 1e3);
    ExitCode::SUCCESS
}
