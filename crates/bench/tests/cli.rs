//! The `tables` command line: the usage text lists every subcommand
//! that `main` dispatches, and unknown subcommands (including the
//! removed `bench`), unknown flags and flags without a value exit with
//! code 2.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run tables")
}

/// The subcommands `main` dispatches, read from its `match` arms.
fn dispatched() -> Vec<&'static str> {
    let src = include_str!("../src/bin/tables.rs");
    let main = &src[src.find("fn main()").expect("main")..];
    let main = &main[..main.find("\n}\n").expect("end of main")];
    main.split("Some(\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect()
}

#[test]
fn bare_tables_prints_usage_naming_every_subcommand() {
    let subs = dispatched();
    assert!(subs.len() >= 12, "too few subcommands parsed: {subs:?}");
    let out = tables(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    let words: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || "<|>".contains(c))
        .collect();
    for sub in subs {
        assert!(words.contains(&sub), "usage omits `{sub}`:\n{usage}");
    }
}

#[test]
fn removed_bench_subcommand_is_rejected() {
    let out = tables(&["bench", "--gate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}

/// Runs `tables` in a fresh temporary directory, so a subcommand that
/// wrongly runs cannot write its report into the source tree.
fn tables_in_temp_dir(name: &str, args: &[&str]) -> (std::process::Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tables-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run tables");
    (out, dir)
}

#[test]
fn flag_without_value_is_rejected() {
    let (out, dir) = tables_in_temp_dir("novalue", &["gate", "--golden"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--golden` needs a value"), "{err}");
}

#[test]
fn unknown_flag_is_rejected_before_any_work() {
    let (out, dir) = tables_in_temp_dir("unknown", &["profile", "--profile-out", "x.json"]);
    let wrote: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--profile-out`"), "{err}");
    assert!(wrote.is_empty(), "profile wrote {wrote:?}");
}
