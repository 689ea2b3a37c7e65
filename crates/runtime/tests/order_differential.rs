//! Differential testing of the two-level order-maintenance list
//! against the original single-level implementation (`naive`).
//!
//! Both structures expose the same API and the naive one is simple
//! enough to trust by inspection, so driving them through identical
//! operation sequences and comparing every observable answer gives a
//! strong correctness argument for the two-level rewrite — exactly the
//! role the conventional interpreter plays for the compiler pipeline.

mod naive;

use ceal_runtime::order::OrderList;
use ceal_runtime::prng::Prng;
use std::cmp::Ordering;

/// Handles for the same logical timestamp in both structures.
struct Pair {
    new: ceal_runtime::order::Time,
    old: naive::Time,
}

/// Drives 100k random insert/delete/cmp operations through both
/// implementations in lockstep; every comparison, neighbor query and
/// liveness answer must agree, and the two-level invariants must hold
/// throughout.
#[test]
fn lockstep_100k_random_ops() {
    let mut rng = Prng::seed_from_u64(0xD1FF);
    let mut ord = OrderList::new();
    let mut nai = naive::OrderList::new();
    // `live[i]` are the current timestamps, in insertion order (not
    // trace order) — deletions pick arbitrary victims.
    let mut live: Vec<Pair> = Vec::new();

    for step in 0..100_000u32 {
        let roll = rng.gen_f64();
        if live.is_empty() || roll < 0.55 {
            // Insert after a random live timestamp (or the sentinel).
            let (after_new, after_old) = if live.is_empty() || rng.gen_bool(0.05) {
                (ord.first(), nai.first())
            } else {
                let p = &live[rng.gen_range(0..live.len())];
                (p.new, p.old)
            };
            live.push(Pair {
                new: ord.insert_after(after_new),
                old: nai.insert_after(after_old),
            });
        } else if roll < 0.8 {
            // Delete a random timestamp.
            let p = live.swap_remove(rng.gen_range(0..live.len()));
            ord.delete(p.new);
            nai.delete(p.old);
            assert!(!ord.is_live(p.new));
            assert!(!nai.is_live(p.old));
        } else {
            // Compare a random pair; both structures must agree.
            let a = &live[rng.gen_range(0..live.len())];
            let b = &live[rng.gen_range(0..live.len())];
            assert_eq!(
                ord.cmp(a.new, b.new),
                nai.cmp(a.old, b.old),
                "cmp disagreement at step {step}"
            );
            assert_eq!(ord.lt(a.new, b.new), nai.lt(a.old, b.old));
            assert_eq!(ord.le(a.new, b.new), nai.le(a.old, b.old));
        }
        assert_eq!(ord.len(), nai.len(), "length diverged at step {step}");
        if step % 8_192 == 0 {
            ord.check_invariants();
            nai.check_invariants();
        }
    }
    ord.check_invariants();
    nai.check_invariants();

    // Full-order agreement: walking both lists front to back visits
    // the paired handles in the same sequence.
    let seq_new = ord.collect_between(ord.first(), ord.last());
    let seq_old = nai.collect_between(nai.first(), nai.last());
    assert_eq!(seq_new.len(), seq_old.len());
    let index_of_old: std::collections::HashMap<usize, usize> = seq_old
        .iter()
        .enumerate()
        .map(|(i, t)| (t.index(), i))
        .collect();
    for (i, t) in seq_new.iter().enumerate() {
        let p = live
            .iter()
            .find(|p| p.new == *t)
            .expect("unknown live handle");
        assert_eq!(
            index_of_old[&p.old.index()],
            i,
            "order diverged at position {i}"
        );
    }

    // Neighbor queries agree along the whole list.
    for (i, t) in seq_new.iter().enumerate() {
        let nxt = ord.next(*t);
        if i + 1 < seq_new.len() {
            assert_eq!(nxt, seq_new[i + 1]);
        } else {
            assert_eq!(nxt, ord.last());
        }
    }
}

/// Adversarial workload: every insertion lands at the same point, which
/// is the densest possible label pressure. The structure must stay
/// consistent, and the number of maintenance passes must stay linear
/// with a small constant — the two-level design does O(1) amortized
/// work here, unlike a single-level list whose relabel windows grow.
#[test]
fn adversarial_dense_same_point_insertion() {
    let n = 50_000u64;
    let mut ord = OrderList::new();
    let anchor = ord.insert_after(ord.first());
    let mut newest = ord.insert_after(anchor);
    for i in 0..n {
        let t = ord.insert_after(anchor);
        // Each insert lands strictly between the anchor and everything
        // inserted before it.
        assert_eq!(ord.cmp(anchor, t), Ordering::Less);
        assert_eq!(ord.cmp(t, newest), Ordering::Less);
        newest = t;
        if i % 10_000 == 0 {
            ord.check_invariants();
        }
    }
    ord.check_invariants();

    let stats = ord.stats();
    assert!(stats.group_splits > 0, "dense insertion must split groups");
    // Splits move half a group, so there can be at most ~n/(CAP/2) of
    // them; renumbers are bounded by local-gap halvings per group
    // generation. Both are linear in n with small constants — the
    // point of the two-level structure. The bounds here are loose
    // (4x the analytical limit) to stay robust across tuning.
    let cap = ceal_runtime::order::GROUP_CAP as u64;
    assert!(
        stats.group_splits <= 4 * n / (cap / 2),
        "too many splits: {} for {} inserts",
        stats.group_splits,
        n
    );
    assert!(
        ord.relabel_count() <= n / 4,
        "maintenance passes not O(1) amortized: {} for {} inserts",
        ord.relabel_count(),
        n
    );

    // The whole prefix structure is still correct: anchor first, then
    // all inserts in reverse insertion order.
    let seq = ord.collect_between(ord.first(), ord.last());
    assert_eq!(seq.len(), n as usize + 2);
    assert_eq!(seq[0], anchor);
    for w in seq[1..].windows(2) {
        assert_eq!(ord.cmp(w[0], w[1]), Ordering::Less);
    }
}

/// Trace-purge lockstep: dense insertion bursts at random hot points
/// interleaved with contiguous range deletions, the access pattern of
/// change propagation (re-execution inserts a dense run of new
/// timestamps; revoking a stale trace interval deletes a contiguous
/// run). Bursts force group splits, purges force merges of the emptied
/// neighbors, and every observable answer is pinned against
/// `naive` throughout both paths.
#[test]
fn lockstep_dense_bursts_and_range_purges() {
    let mut rng = Prng::seed_from_u64(0x9E37_79B9);
    let mut ord = OrderList::new();
    let mut nai = naive::OrderList::new();
    // Live pairs kept in trace order so a purge can take a contiguous
    // interval, exactly like revoking a subtree of the trace.
    let mut live: Vec<Pair> = Vec::new();

    for round in 0..600u32 {
        if live.is_empty() || rng.gen_bool(0.6) {
            // Dense burst: 20–200 inserts at one random point, each
            // landing right after the previous (newest-first run).
            let at = if live.is_empty() {
                0
            } else {
                rng.gen_range(0..live.len())
            };
            let burst = rng.gen_range(20usize..=200);
            let (base, mut after_new, mut after_old) = if live.is_empty() {
                (0, ord.first(), nai.first())
            } else {
                (at + 1, live[at].new, live[at].old)
            };
            for k in 0..burst {
                let pair = Pair {
                    new: ord.insert_after(after_new),
                    old: nai.insert_after(after_old),
                };
                after_new = pair.new;
                after_old = pair.old;
                live.insert(base + k, pair);
            }
        } else {
            // Purge: delete a contiguous interval of the trace order.
            let start = rng.gen_range(0..live.len());
            let len = rng.gen_range(1..=(live.len() - start).min(300));
            for p in live.drain(start..start + len) {
                ord.delete(p.new);
                nai.delete(p.old);
                assert!(!ord.is_live(p.new));
            }
        }

        assert_eq!(ord.len(), nai.len(), "length diverged at round {round}");
        // Spot-check comparisons every round; full-order check is at
        // the end (and periodically, to catch transient corruption).
        for _ in 0..20 {
            if live.len() < 2 {
                break;
            }
            let a = &live[rng.gen_range(0..live.len())];
            let b = &live[rng.gen_range(0..live.len())];
            assert_eq!(
                ord.cmp(a.new, b.new),
                nai.cmp(a.old, b.old),
                "cmp disagreement at round {round}"
            );
        }
        if round % 64 == 0 {
            ord.check_invariants();
            nai.check_invariants();
            let seq_new = ord.collect_between(ord.first(), ord.last());
            assert_eq!(
                seq_new.len(),
                live.len(),
                "walk length diverged at round {round}"
            );
            for (i, t) in seq_new.iter().enumerate() {
                assert_eq!(
                    live[i].new, *t,
                    "trace order diverged at round {round} pos {i}"
                );
            }
        }
    }
    ord.check_invariants();
    nai.check_invariants();

    // The workload must actually have pushed the structure through both
    // maintenance paths, or the lockstep proves nothing about them.
    let stats = ord.stats();
    assert!(stats.group_splits > 0, "bursts never split a group");
    assert!(stats.group_merges > 0, "purges never merged groups");

    // Final full-order agreement, position by position.
    let seq_new = ord.collect_between(ord.first(), ord.last());
    let seq_old = nai.collect_between(nai.first(), nai.last());
    assert_eq!(seq_new.len(), live.len());
    assert_eq!(seq_old.len(), live.len());
    for (i, p) in live.iter().enumerate() {
        assert_eq!(seq_new[i], p.new, "new order wrong at {i}");
        assert_eq!(
            seq_old[i].index(),
            p.old.index(),
            "naive order wrong at {i}"
        );
    }
}

/// The same dense workload, but alternating with deletions of the
/// previously inserted timestamp — churn at one point must not leak
/// groups or labels.
#[test]
fn dense_churn_does_not_leak_groups() {
    let mut ord = OrderList::new();
    let anchor = ord.insert_after(ord.first());
    let mut spine = Vec::new();
    // Small persistent spine so the churn point sits mid-list.
    let mut t = anchor;
    for _ in 0..200 {
        t = ord.insert_after(t);
        spine.push(t);
    }
    let baseline_groups = ord.group_count();
    let mut pending = None;
    for _ in 0..50_000 {
        if let Some(p) = pending.take() {
            ord.delete(p);
        }
        pending = Some(ord.insert_after(anchor));
    }
    ord.check_invariants();
    // At most one churn timestamp outstanding: group population must
    // not have grown beyond a constant over the baseline.
    assert!(
        ord.group_count() <= baseline_groups + 2,
        "group leak: {} -> {}",
        baseline_groups,
        ord.group_count()
    );
    assert_eq!(ord.len(), spine.len() + 2);
}
