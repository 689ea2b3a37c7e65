//! # ceal-bench — harness regenerating the paper's tables and figures
//!
//! The `tables` binary reproduces every table and figure of §8:
//!
//! * `tables table1` — Table 1 (benchmark summary),
//! * `tables table2` — Table 2 (CEAL vs the SaSML-like engine),
//! * `tables table3` — Table 3 (compiler time / code size vs baseline),
//! * `tables fig13`  — Fig. 13 (tcon: from-scratch, update, speedup vs n),
//! * `tables fig14`  — Fig. 14 (propagation slowdown under heap limits),
//! * `tables fig15`  — Fig. 15 (compile time vs generated code size),
//! * `tables ablation` — the DESIGN.md §6 ablations (memo / keyed alloc).
//!
//! * `tables bench`  — the hermetic perf harness: micro-benchmarks of
//!   the run-time primitives plus a fig13-style tcon run, written as
//!   machine-readable `BENCH_runtime.json` (perf trajectory across PRs).
//!   Its micro-benchmarks self-time through [`timer`] (no external
//!   harness).

pub mod prng;
pub mod profile;
pub mod runtime_bench;
pub mod timer;

/// Formats seconds like the paper's tables: scientific for sub-second
/// quantities (e.g. `2.1e-6`), fixed-point otherwise.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s < 0.1 {
        format!("{s:.1e}")
    } else {
        format!("{s:.2}")
    }
}

/// Formats a ratio (overhead / speedup): scientific above 10⁴.
pub fn fmt_ratio(r: f64) -> String {
    if r >= 10_000.0 {
        format!("{r:.1e}")
    } else if r >= 10.0 {
        format!("{r:.0}")
    } else {
        format!("{r:.1}")
    }
}

/// Formats bytes in the paper's style (e.g. `3017.2M` for megabytes).
pub fn fmt_bytes(b: usize) -> String {
    format!("{:.1}M", b as f64 / 1e6)
}

/// Formats an input size (`10.0M`, `100.0K`, ...).
pub fn fmt_n(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        format!("{n}")
    }
}

/// Minimal CLI option scanning: `--key value` pairs after a subcommand.
pub struct Opts {
    args: Vec<String>,
}

impl Opts {
    /// Parses `std::env::args` after the subcommand position.
    pub fn from_env() -> (Option<String>, Opts) {
        let mut it = std::env::args().skip(1);
        let sub = it.next();
        (sub, Opts { args: it.collect() })
    }

    /// Integer option `--name v` with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| v.parse().unwrap_or(default))
            .unwrap_or(default)
    }

    /// Float option.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .map(|v| v.parse().unwrap_or(default))
            .unwrap_or(default)
    }

    /// Raw option lookup.
    pub fn get(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        self.args
            .windows(2)
            .find(|w| w[0] == key)
            .map(|w| w[1].as_str())
    }

    /// Presence of a bare flag.
    pub fn has(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.args.iter().any(|a| a == &key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(2.1e-6), "2.1e-6");
        assert_eq!(fmt_secs(1.25), "1.25");
        assert_eq!(fmt_ratio(14.2), "14");
        assert_eq!(fmt_ratio(240_000.0), "2.4e5");
        assert_eq!(fmt_ratio(6.4), "6.4");
        assert_eq!(fmt_n(10_000_000), "10.0M");
        assert_eq!(fmt_n(100_000), "100.0K");
        assert_eq!(fmt_bytes(3_017_200_000), "3017.2M");
    }

    #[test]
    fn opts_parse() {
        let o = Opts {
            args: vec!["--n".into(), "42".into(), "--quick".into()],
        };
        assert_eq!(o.get_usize("n", 7), 42);
        assert_eq!(o.get_usize("m", 7), 7);
        assert!(o.has("quick"));
        assert!(!o.has("slow"));
    }
}
