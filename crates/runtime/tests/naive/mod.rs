//! The original single-level order-maintenance list, kept as a
//! reference implementation.
//!
//! This is the straightforward list-labeling structure the engine
//! shipped with before the two-level rewrite in
//! `ceal_runtime::order`: one
//! doubly-linked list of nodes carrying `u64` labels, with local label
//! redistribution when an insertion finds no gap. Dense insertion at a
//! single point relabels an ever-growing window, which is exactly the
//! pattern change propagation produces while rebuilding a trace
//! segment — the two-level structure fixes that.
//!
//! It lives with the tests as the oracle for differential testing: the
//! property suite drives both implementations through identical
//! operation sequences and asserts every comparison agrees (see
//! `order_differential.rs`, which includes this module).

use std::cmp::Ordering;

/// A timestamp: a handle into an [`OrderList`].
///
/// `Time` is `Copy` and cheap; all operations go through the owning
/// [`OrderList`]. A `Time` must not be used after it has been deleted
/// (debug builds assert liveness).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Time(u32);

impl Time {
    /// Sentinel meaning "no timestamp".
    pub const NONE: Time = Time(u32::MAX);

    /// Returns `true` if this is the [`Time::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Time::NONE
    }

    /// Raw slot index (for diagnostics only).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for Time {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "t(none)")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

const NIL: u32 = u32::MAX;

/// Initial gap between appended labels. Large enough that pure appends
/// never trigger redistribution until ~2^26 nodes, and interior
/// insertions almost always find a gap.
const APPEND_GAP: u64 = 1 << 38;

#[derive(Clone)]
struct Node {
    label: u64,
    prev: u32,
    next: u32,
    live: bool,
}

/// A doubly-linked list of totally ordered timestamps with O(1)
/// comparison and amortized-cheap insertion anywhere.
///
/// The list always contains two sentinel nodes, [`OrderList::first`] and
/// [`OrderList::last`]; user timestamps live strictly between them.
pub struct OrderList {
    nodes: Vec<Node>,
    free: Vec<u32>,
    len: usize,
    /// Number of relabeling passes performed (diagnostics).
    relabels: u64,
}

impl Default for OrderList {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderList {
    /// Creates a list containing only the two sentinels.
    pub fn new() -> Self {
        let head = Node {
            label: 0,
            prev: NIL,
            next: 1,
            live: true,
        };
        let tail = Node {
            label: u64::MAX,
            prev: 0,
            next: NIL,
            live: true,
        };
        OrderList {
            nodes: vec![head, tail],
            free: Vec::new(),
            len: 0,
            relabels: 0,
        }
    }

    /// The before-everything sentinel.
    #[inline]
    pub fn first(&self) -> Time {
        Time(0)
    }

    /// The after-everything sentinel.
    #[inline]
    pub fn last(&self) -> Time {
        Time(1)
    }

    /// Number of live, non-sentinel timestamps.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no user timestamps exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of relabel passes performed so far (diagnostics).
    #[inline]
    pub fn relabel_count(&self) -> u64 {
        self.relabels
    }

    #[inline]
    fn node(&self, t: Time) -> &Node {
        &self.nodes[t.0 as usize]
    }

    /// Returns whether `t` is currently a live timestamp.
    #[inline]
    pub fn is_live(&self, t: Time) -> bool {
        !t.is_none() && (t.0 as usize) < self.nodes.len() && self.node(t).live
    }

    /// The timestamp immediately after `t`, or [`Time::NONE`] past the end.
    #[inline]
    pub fn next(&self, t: Time) -> Time {
        debug_assert!(self.is_live(t), "next() of dead timestamp {t:?}");
        Time(self.node(t).next)
    }

    /// The timestamp immediately before `t`, or [`Time::NONE`] before the start.
    #[inline]
    pub fn prev(&self, t: Time) -> Time {
        debug_assert!(self.is_live(t), "prev() of dead timestamp {t:?}");
        Time(self.node(t).prev)
    }

    /// Compares two live timestamps by trace order.
    #[inline]
    pub fn cmp(&self, a: Time, b: Time) -> Ordering {
        debug_assert!(self.is_live(a) && self.is_live(b));
        self.node(a).label.cmp(&self.node(b).label)
    }

    /// `true` iff `a` is strictly before `b`.
    #[inline]
    pub fn lt(&self, a: Time, b: Time) -> bool {
        self.cmp(a, b) == Ordering::Less
    }

    /// `true` iff `a` is before or equal to `b`.
    #[inline]
    pub fn le(&self, a: Time, b: Time) -> bool {
        self.cmp(a, b) != Ordering::Greater
    }

    fn alloc_node(&mut self, n: Node) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = n;
            i
        } else {
            self.nodes.push(n);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Creates and returns a fresh timestamp immediately after `t`.
    ///
    /// `t` may be the [`OrderList::first`] sentinel but not
    /// [`OrderList::last`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is dead or is the trailing sentinel.
    pub fn insert_after(&mut self, t: Time) -> Time {
        assert!(self.is_live(t), "insert_after dead timestamp {t:?}");
        assert!(
            t != self.last(),
            "cannot insert after the trailing sentinel"
        );
        let next = self.node(t).next;
        let la = self.node(t).label;
        let lb = self.nodes[next as usize].label;
        debug_assert!(la < lb);
        let label = if lb - la >= 2 {
            // Prefer a fixed gap after `t` so that repeated appends leave
            // room for future interior insertions.
            la + (lb - la).min(2 * APPEND_GAP) / 2
        } else {
            self.relabel_around(t);
            let next = self.node(t).next;
            let la = self.node(t).label;
            let lb = self.nodes[next as usize].label;
            debug_assert!(lb - la >= 2, "relabeling failed to open a gap");
            la + (lb - la).min(2 * APPEND_GAP) / 2
        };
        let next = self.node(t).next;
        let idx = self.alloc_node(Node {
            label,
            prev: t.0,
            next,
            live: true,
        });
        self.nodes[t.0 as usize].next = idx;
        self.nodes[next as usize].prev = idx;
        self.len += 1;
        Time(idx)
    }

    /// Deletes timestamp `t`. `t` must not be a sentinel.
    ///
    /// # Panics
    ///
    /// Panics if `t` is a sentinel or already dead.
    pub fn delete(&mut self, t: Time) {
        assert!(self.is_live(t), "delete of dead timestamp {t:?}");
        assert!(
            t != self.first() && t != self.last(),
            "cannot delete a sentinel"
        );
        let Node { prev, next, .. } = *self.node(t);
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        let n = &mut self.nodes[t.0 as usize];
        n.live = false;
        self.free.push(t.0);
        self.len -= 1;
    }

    /// Opens label space around `t` by redistributing a neighborhood.
    ///
    /// Walks forward from `t` until the observed label range is sparse
    /// enough (range > 4 * count^2 heuristic, as in practical
    /// implementations of Bender et al.), then spreads the collected
    /// nodes evenly over that range.
    fn relabel_around(&mut self, t: Time) {
        self.relabels += 1;
        // Collect a window [start, stop] of nodes around `t` whose label
        // range is large relative to its population.
        let mut count: u64 = 2;
        let mut lo = t.0;
        let mut hi = self.node(t).next;
        loop {
            let lo_label = self.nodes[lo as usize].label;
            let hi_label = self.nodes[hi as usize].label;
            let range = hi_label - lo_label;
            if range / count >= 2 * count.max(16) {
                break;
            }
            // Expand the window on whichever side is available, favoring
            // forward (appends cluster at the back).
            let can_fwd = self.nodes[hi as usize].next != NIL;
            let can_bwd = self.nodes[lo as usize].prev != NIL;
            if can_fwd {
                hi = self.nodes[hi as usize].next;
            } else if can_bwd {
                lo = self.nodes[lo as usize].prev;
            } else {
                // Whole list collected; u64 space exhausted would require
                // 2^63 timestamps, which is unreachable in practice.
                panic!("order-maintenance label space exhausted");
            }
            count += 1;
        }
        // Evenly redistribute labels of the *interior* nodes of the window.
        let lo_label = self.nodes[lo as usize].label;
        let hi_label = self.nodes[hi as usize].label;
        let step = (hi_label - lo_label) / count;
        debug_assert!(step >= 2);
        let mut cur = self.nodes[lo as usize].next;
        let mut label = lo_label;
        while cur != hi {
            label += step;
            self.nodes[cur as usize].label = label;
            cur = self.nodes[cur as usize].next;
        }
        debug_assert!(label < hi_label);
    }

    /// Walks the list from `a` (exclusive) to `b` (exclusive), returning
    /// the handles in between. For tests and diagnostics.
    pub fn collect_between(&self, a: Time, b: Time) -> Vec<Time> {
        let mut out = Vec::new();
        let mut cur = self.next(a);
        while cur != b {
            assert!(!cur.is_none(), "collect_between: b not reachable from a");
            out.push(cur);
            cur = self.next(cur);
        }
        out
    }

    /// Asserts internal invariants (test support): linkage is consistent
    /// and labels strictly increase.
    pub fn check_invariants(&self) {
        let mut cur = 0u32;
        let mut prev_label = None;
        let mut seen = 0usize;
        loop {
            let n = &self.nodes[cur as usize];
            assert!(n.live, "dead node reachable");
            if let Some(p) = prev_label {
                assert!(n.label > p, "labels not strictly increasing");
            }
            prev_label = Some(n.label);
            if n.next == NIL {
                break;
            }
            assert_eq!(self.nodes[n.next as usize].prev, cur, "broken back-link");
            cur = n.next;
            seen += 1;
        }
        assert_eq!(seen + 1, self.len + 2, "length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_ordered() {
        let ord = OrderList::new();
        assert_eq!(ord.cmp(ord.first(), ord.last()), Ordering::Less);
        assert!(ord.is_empty());
    }

    #[test]
    fn insert_after_lands_between() {
        let mut ord = OrderList::new();
        let a = ord.insert_after(ord.first());
        let c = ord.insert_after(a);
        let b = ord.insert_after(a); // between a and c
        assert_eq!(ord.cmp(a, b), Ordering::Less);
        assert_eq!(ord.cmp(b, c), Ordering::Less);
    }

    #[test]
    fn append_many_preserves_order() {
        let mut ord = OrderList::new();
        let mut ts = vec![ord.first()];
        for _ in 0..10_000 {
            let prev = *ts.last().unwrap();
            ts.push(ord.insert_after(prev));
        }
        for w in ts.windows(2) {
            assert_eq!(ord.cmp(w[0], w[1]), Ordering::Less);
        }
        ord.check_invariants();
    }

    #[test]
    fn dense_front_insertion_relabels() {
        let mut ord = OrderList::new();
        let anchor = ord.insert_after(ord.first());
        // Repeatedly insert right after the same node: exhausts the local
        // gap and forces relabeling, many times.
        let mut ts = vec![anchor];
        for _ in 0..5_000 {
            ts.push(ord.insert_after(anchor));
        }
        // anchor < every inserted node; later inserts come earlier.
        for w in ts[1..].windows(2) {
            assert_eq!(
                ord.cmp(w[1], w[0]),
                Ordering::Less,
                "later insert sorts before earlier"
            );
        }
        assert!(ord.relabel_count() > 0, "expected at least one relabel");
        ord.check_invariants();
    }

    #[test]
    fn delete_and_reuse() {
        let mut ord = OrderList::new();
        let a = ord.insert_after(ord.first());
        let b = ord.insert_after(a);
        let c = ord.insert_after(b);
        ord.delete(b);
        assert_eq!(ord.next(a), c);
        assert_eq!(ord.prev(c), a);
        assert!(!ord.is_live(b));
        let d = ord.insert_after(a);
        assert!(ord.is_live(d));
        assert_eq!(ord.cmp(a, d), Ordering::Less);
        assert_eq!(ord.cmp(d, c), Ordering::Less);
        ord.check_invariants();
    }

    #[test]
    fn collect_between_walks() {
        let mut ord = OrderList::new();
        let a = ord.insert_after(ord.first());
        let b = ord.insert_after(a);
        let c = ord.insert_after(b);
        let d = ord.insert_after(c);
        assert_eq!(ord.collect_between(a, d), vec![b, c]);
        assert_eq!(ord.collect_between(a, b), Vec::<Time>::new());
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn delete_sentinel_panics() {
        let mut ord = OrderList::new();
        let first = ord.first();
        ord.delete(first);
    }

    #[test]
    fn random_interleaving_matches_reference() {
        use ceal_runtime::prng::Prng;
        let mut rng = Prng::seed_from_u64(42);
        let mut ord = OrderList::new();
        // Reference: a Vec of handles in true order.
        let mut reference: Vec<Time> = Vec::new();
        for step in 0..20_000 {
            if reference.is_empty() || rng.gen_bool(0.7) {
                let pos = if reference.is_empty() {
                    0
                } else {
                    rng.gen_range(0..=reference.len())
                };
                let after = if pos == 0 {
                    ord.first()
                } else {
                    reference[pos - 1]
                };
                let t = ord.insert_after(after);
                reference.insert(pos, t);
            } else {
                let pos = rng.gen_range(0..reference.len());
                let t = reference.remove(pos);
                ord.delete(t);
            }
            if step % 4_096 == 0 {
                ord.check_invariants();
            }
        }
        // Order agrees with the reference everywhere.
        for w in reference.windows(2) {
            assert_eq!(ord.cmp(w[0], w[1]), Ordering::Less);
        }
        assert_eq!(ord.len(), reference.len());
    }
}
