//! The counter gate, exercised as tests: profile workloads are
//! deterministic, the checked-in golden matches what this build
//! produces, and a drifted counter demonstrably fails the gate with a
//! delta table naming it.

use ceal_bench::profile::{collect_profiles, diff_counters, flatten, golden_path, parse_golden};

#[test]
fn workloads_match_golden_and_detect_drift() {
    let profiles = collect_profiles();
    let current = flatten(&profiles);

    // Every workload contributes counters, and totals partition
    // lifetimes (per-phase sums were checked inside the runtime; here
    // just sanity-check the flattened shape).
    assert_eq!(profiles.len(), 7);
    assert!(current
        .iter()
        .any(|(k, _)| k == "tcon_2k/propagate/reads_reexecuted"));
    assert!(current
        .iter()
        .any(|(k, _)| k == "map_4k/purge/nodes_purged"));
    assert!(current
        .iter()
        .any(|(k, v)| k == "batch_dense_512/batch/batch_commits" && *v > 0));
    assert!(current
        .iter()
        .any(|(k, v)| k == "demand_sparse_chain64/demand/demand_cleans" && *v > 0));

    // The gate passes against the checked-in golden: these counters are
    // a deterministic function of the code, not of the machine or the
    // build profile running this test.
    let text = std::fs::read_to_string(golden_path())
        .expect("golden profile missing; bless with UPDATE_GOLDEN=1 `tables gate`");
    let golden = parse_golden(&text).expect("golden parses");
    if let Some(table) = diff_counters(&current, &golden) {
        panic!("{table}\n(if this drift is intended, re-bless the golden profile)");
    }

    // A single drifted counter fails the gate, and the failure output
    // names the counter with its golden/current values and delta.
    let mut drifted = golden.clone();
    let idx = drifted
        .iter()
        .position(|(k, _)| k == "tcon_2k/propagate/reads_reexecuted")
        .expect("tcon counter in golden");
    drifted[idx].1 += 7;
    let table = diff_counters(&current, &drifted).expect("drift must be detected");
    assert!(table.contains("tcon_2k/propagate/reads_reexecuted"));
    assert!(table.contains("-7"), "delta column missing from:\n{table}");

    // A removed counter is reported as missing rather than ignored.
    let mut truncated = golden.clone();
    truncated.push(("zzz_bench/init/reads_created".to_string(), 1));
    let table = diff_counters(&current, &truncated).expect("missing counter detected");
    assert!(table.contains("zzz_bench/init/reads_created") && table.contains("missing"));
}

#[test]
fn profiles_are_deterministic_across_runs() {
    let a = flatten(&collect_profiles());
    let b = flatten(&collect_profiles());
    assert_eq!(
        a, b,
        "profile workloads produced different counters on a re-run"
    );
}
