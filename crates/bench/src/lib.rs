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
//! * `tables ablation` — the DESIGN.md §6 ablations (memo / keyed alloc),
//! * `tables handopt` — the §8.3 comparison against hand-optimised tcon.
//!
//! It also owns the deterministic counter gate over the [`profile`]
//! workloads, which times nothing:
//!
//! * `tables gate [--golden F]` — diff the counters against the golden,
//! * `tables profile [--out F]` — write the per-phase counter report,
//! * `tables trace [--out DIR]` — write Perfetto timelines, per-site
//!   attribution and stream digests.

pub mod profile;

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

/// `--name value` options after a subcommand, checked against the
/// flags that subcommand reads.
pub struct Opts {
    pairs: Vec<(String, String)>,
}

impl Opts {
    /// Parses `--name value` pairs. Every name must be one of `known`
    /// and carry a value; otherwise the error names the offending flag.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or_else(|| format!("unknown option `{arg}`"))?;
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("option `{arg}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Opts { pairs })
    }

    /// Integer option `--name v` with a default. Panics on a value that
    /// does not parse, rather than silently running with the default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|e| panic!("--{name}: cannot parse `{v}` as an integer ({e})"))
        })
    }

    /// Raw option lookup; the last occurrence wins.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
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

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opts_parse() {
        let o = Opts::parse(&args(&["--n", "42", "--n", "43"]), &["n", "m"]).unwrap();
        assert_eq!(o.get_usize("n", 7), 43);
        assert_eq!(o.get_usize("m", 7), 7);
        let unknown = Opts::parse(&args(&["--n", "1", "--quick", "1"]), &["n"]);
        assert_eq!(unknown.err().unwrap(), "unknown option `--quick`");
        let bare = Opts::parse(&args(&["5"]), &["n"]);
        assert_eq!(bare.err().unwrap(), "unknown option `5`");
        for missing in [&["--n"][..], &["--n", "--m", "1"]] {
            let e = Opts::parse(&args(missing), &["n", "m"]).err().unwrap();
            assert_eq!(e, "option `--n` needs a value");
        }
    }

    #[test]
    #[should_panic(expected = "--edits: cannot parse `1k`")]
    fn opts_reject_unparsable_integers() {
        let o = Opts::parse(&args(&["--edits", "1k"]), &["edits"]).unwrap();
        o.get_usize("edits", 250);
    }
}
