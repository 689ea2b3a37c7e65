//! Mutation fuzz of the wire parser: no request line, however mangled,
//! may panic `parse_request`, and every line it accepts must survive a
//! `format_request` → `parse_request` round trip unchanged.
//!
//! Mutants come from one valid line per request verb: every truncation,
//! and every replacement of one byte by a byte from a small splitmix-
//! seeded alphabet or by a two-byte UTF-8 character. Only mutants that
//! are valid UTF-8 reach the parser, as on the wire.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ceal_runtime::prng::Prng;
use ceal_service::wire::{format_request, parse_request};

/// One valid line per request verb.
const LINES: [&str; 7] = [
    "open tenant-1 sum 64 42 demand",
    "edit tenant-1 d3 r3 d0",
    "observe tenant-1",
    "close tenant-1",
    "stats",
    "metrics",
    "ping",
];

/// Bytes that steer the parser into its branches, plus `random` draws.
fn alphabet(rng: &mut Prng, random: usize) -> Vec<u8> {
    let mut a = b" \t\n0 9-drx".to_vec();
    a.extend((0..random).map(|_| rng.gen_range(0..256u32) as u8));
    a
}

fn mutants(line: &str, alphabet: &[u8]) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|k| bytes[..k].to_vec()).collect();
    for i in 0..bytes.len() {
        for &b in alphabet {
            let mut m = bytes.to_vec();
            m[i] = b;
            out.push(m);
        }
        let mut m = bytes.to_vec();
        m.splice(i..=i, "é".bytes());
        out.push(m);
    }
    out.into_iter()
        .filter_map(|m| String::from_utf8(m).ok())
        .collect()
}

#[test]
fn mutated_request_lines_never_panic_and_accepted_ones_round_trip() {
    let (mut tried, mut accepted) = (0, 0);
    for seed in 0..8 {
        let mut rng = Prng::seed_from_u64(seed);
        let alphabet = alphabet(&mut rng, 6);
        for line in LINES {
            for m in mutants(line, &alphabet) {
                tried += 1;
                let parsed = catch_unwind(AssertUnwindSafe(|| parse_request(&m)))
                    .unwrap_or_else(|_| panic!("parse_request panicked on {m:?}"));
                if let Ok(req) = parsed {
                    accepted += 1;
                    let line = format_request(&req);
                    assert_eq!(
                        parse_request(&line),
                        Ok(req),
                        "{m:?} re-formats to {line:?}, which parses differently"
                    );
                }
            }
        }
    }
    // The mutants reach both outcomes, so neither assertion is vacuous.
    assert!(
        accepted > 0 && accepted < tried,
        "{accepted} of {tried} accepted"
    );
}
