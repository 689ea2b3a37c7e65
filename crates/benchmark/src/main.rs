//! `ceal-benchmark` — one benchmark for the whole system.
//!
//! ```text
//! ceal-benchmark run [--seed N] [--seconds S] [--trace] [--smoke]
//!                    [--workload NAME]... [--out DIR]
//!     run workloads (default: all four), each in its own process, and
//!     print every metric with its unit; exits non-zero if any output
//!     check failed
//! ceal-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--out DIR] [--trace-dir DIR]
//!     run one workload in this process; the last stdout line is the
//!     result: {"correct", "attempted", "failed", "metrics"}
//! ceal-benchmark compare PARENT CHANGE [--spec BENCHMARK.json]
//!     judge two result sets (directories written by --out); exits
//!     non-zero on a regression
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ceal_benchmark::{compare, json, Config, Workload, DEFAULT_SECONDS};

const USAGE: &str = "usage: ceal-benchmark run [--seed N] [--seconds S] [--trace] [--smoke] [--workload NAME]... [--out DIR]
       ceal-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--trace-dir DIR]
       ceal-benchmark compare PARENT CHANGE [--spec BENCHMARK.json]
workloads: sac-native sac-compiled service-steady service-evict";

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    workloads: Vec<Workload>,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
    spec: PathBuf,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        workloads: Vec::new(),
        out: None,
        trace_dir: PathBuf::from(".bench_out/trace"),
        spec: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad --seconds `{v}`"))?,
                );
            }
            "--trace" => {
                // `--trace 0|1` (single-workload form) or a bare `--trace`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--workload" => {
                let v = value("--workload")?;
                a.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--trace-dir" => a.trace_dir = PathBuf::from(value("--trace-dir")?),
            "--spec" => a.spec = PathBuf::from(value("--spec")?),
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => a.positional.push(other.to_string()),
        }
    }
    // Smoke runs are short unless told otherwise.
    a.seconds = seconds.unwrap_or(if a.smoke { 1.0 } else { DEFAULT_SECONDS });
    Ok(a)
}

/// `cealc` next to this executable (both come out of one `cargo build`).
fn sibling_cealc() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.with_file_name(format!("cealc{}", std::env::consts::EXE_SUFFIX))
}

fn result_path(dir: &Path, w: Workload, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { ".trace" } else { "" };
    dir.join(format!("{}.s{seed}{kind}.json", w.name()))
}

/// The single-workload form, in this process.
fn run_one(a: &Args) -> ExitCode {
    let [w] = a.workloads[..] else {
        eprintln!("ceal-benchmark: give exactly one --workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        cealc: sibling_cealc(),
        trace_dir: a.trace_dir.clone(),
    };
    let out = match ceal_benchmark::run(w, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ceal-benchmark: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    for p in &out.problems {
        eprintln!("ceal-benchmark: {}: {p}", w.name());
    }
    let line = out.result_json(a.trace);
    if let Some(dir) = &a.out {
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(result_path(dir, w, a.seed, a.trace), &line));
        if let Err(e) = written {
            eprintln!(
                "ceal-benchmark: cannot write result to {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// `run`: every requested workload in its own child process (so peak
/// RSS describes one workload), then one table.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ceal-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    let mut ok = true;
    println!("{:<16} {:<36} {:>16} unit", "workload", "metric", "value");
    for w in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&a.trace_dir)
            .stderr(Stdio::inherit());
        if a.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &a.out {
            cmd.arg("--out").arg(dir);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ceal-benchmark: {}: cannot start: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout
            .lines()
            .last()
            .ok_or_else(|| "no output".to_string())
            .and_then(json::parse);
        let v = match (output.status.success(), parsed) {
            (true, Ok(v)) => v,
            (_, Err(e)) => {
                eprintln!("ceal-benchmark: {}: {e} ({})", w.name(), output.status);
                ok = false;
                continue;
            }
            (false, _) => {
                eprintln!("ceal-benchmark: {}: {}", w.name(), output.status);
                ok = false;
                continue;
            }
        };
        let num = |k: &str| v.get(k).and_then(json::Json::num).unwrap_or(0.0);
        for (name, m) in v
            .get("metrics")
            .and_then(json::Json::obj)
            .unwrap_or_default()
        {
            let value = m.get("value").and_then(json::Json::num).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(json::Json::str).unwrap_or("?");
            println!("{:<16} {name:<36} {value:>16.4} {unit}", w.name());
        }
        let (attempted, failed) = (num("attempted"), num("failed"));
        println!(
            "{:<16} {:<36} {:>16.4} fraction ({failed} of {attempted} operations)",
            w.name(),
            "error_rate",
            failed / attempted.max(1.0)
        );
        if v.get("correct") != Some(&json::Json::Bool(true)) {
            eprintln!("ceal-benchmark: {}: output checks failed", w.name());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Args) -> ExitCode {
    let [_, parent, change] = &a.positional[..] else {
        eprintln!("ceal-benchmark: compare needs PARENT and CHANGE\n{USAGE}");
        return ExitCode::from(2);
    };
    let loaded = std::fs::read_to_string(&a.spec)
        .map_err(|e| format!("{}: {e}", a.spec.display()))
        .and_then(|s| compare::read_bounds(&s))
        .and_then(|b| {
            Ok((
                b,
                compare::read_set(Path::new(parent))?,
                compare::read_set(Path::new(change))?,
            ))
        });
    let (bounds, p, c) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ceal-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, regressed) = compare::compare(&p, &c, &bounds);
    print!("{report}");
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ceal-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match a.positional.first().map(String::as_str) {
        Some("run") => run_all(&a),
        Some("compare") => run_compare(&a),
        Some("help") | None if a.workloads.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        None => run_one(&a),
        Some(other) => {
            eprintln!("ceal-benchmark: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
