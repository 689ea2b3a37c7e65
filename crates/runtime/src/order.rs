//! Order-maintenance list for trace timestamps.
//!
//! Change propagation (paper §1, §6.1) needs to (a) create a timestamp
//! after an arbitrary existing one, (b) compare two timestamps in O(1),
//! and (c) delete timestamps, all while the trace is edited in place.
//! This is the classic *order maintenance* problem (Dietz–Sleator;
//! Bender et al.).
//!
//! # Two-level structure
//!
//! Timestamps (entries) live in a doubly-linked list that is
//! partitioned into contiguous *groups* of at most [`GROUP_CAP`]
//! entries. Groups form a second doubly-linked list carrying `u64`
//! labels maintained by local redistribution — the same list-labeling
//! scheme the single-level implementation used, but over `n /
//! GROUP_CAP` nodes instead of `n`. Within a group, entries carry
//! *local* `u64` labels that order them; renumbering a group touches at
//! most [`GROUP_CAP`] entries and never involves its neighbors.
//!
//! A timestamp's sort key is the pair *(group label, local label)*.
//! Each entry mirrors its group's label (`glabel`), so a comparison is
//! two `u64` compares against fields of the two entries — no pointer
//! chase through the group table on the hot path. Relabeling a group
//! rewrites the mirrors of its members (≤ [`GROUP_CAP`] writes).
//!
//! The payoff is insertion cost: a full group *splits* in O(GROUP_CAP)
//! no matter how the rest of the list looks, and label pressure
//! propagates to the group level only once per ~GROUP_CAP/2
//! insertions. Dense insertion at one point — the pattern change
//! propagation produces while rebuilding a trace segment — costs O(1)
//! amortized instead of relabeling an ever-growing window.
//!
//! Relabeling never changes the *relative order* of live timestamps,
//! so structures that only rely on comparisons (e.g. the propagation
//! priority queue) remain consistent across relabelings.
//!
//! The previous single-level implementation is preserved, as the
//! oracle for differential tests, in `crates/runtime/tests/naive/`.

use std::cmp::Ordering;

/// A timestamp: a handle into an [`OrderList`].
///
/// `Time` is `Copy` and cheap; all operations go through the owning
/// [`OrderList`]. A `Time` must not be used after it has been deleted
/// (debug builds assert liveness). Handles are dense slot indices and
/// survive relabeling unchanged.
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

/// Maximum number of entries per group. Splits move `GROUP_CAP / 2`
/// entries, so this bounds the constant behind every insertion; 64
/// keeps a split within a few cache lines of entry data.
pub const GROUP_CAP: usize = 64;

/// Boundary insertions (appending at a group's tail or prepending at
/// the next group's head) stop filling a group at this population and
/// open a fresh group instead; only interior insertions fill a group
/// all the way to [`GROUP_CAP`]. Bulk appends — a from-scratch trace —
/// therefore leave every group a quarter slack, so the interior
/// insertions of the *next* propagation land in existing gaps instead
/// of paying a split at nearly every re-execution site.
const SOFT_CAP: usize = GROUP_CAP - GROUP_CAP / 4;

/// A group at or below this population tries to merge with a
/// neighbor after a deletion, keeping the group list dense.
const MERGE_AT: u32 = GROUP_CAP as u32 / 8;

/// Merging only happens when the combined group stays at most half
/// full, so a merge is never immediately followed by a split.
const MERGE_MAX: u32 = GROUP_CAP as u32 / 2;

/// Initial gap between appended *group* labels. Large enough that pure
/// appends never trigger redistribution until ~2^26 groups, and
/// interior group creation almost always finds a gap.
const APPEND_GAP: u64 = 1 << 38;

/// Bounded gap claimed by local-label allocation: a new entry takes
/// `min(gap, 2 * LOCAL_STEP) / 2` of the available space, so a run of
/// insertions marching behind a cursor — the pattern trace re-execution
/// produces — consumes label space linearly instead of halving the one
/// gap it started in.
const LOCAL_STEP: u64 = 1 << 32;

/// The two sentinel groups: fixed labels 0 and `u64::MAX`, each
/// permanently holding one sentinel entry.
const FIRST_G: u32 = 0;
const LAST_G: u32 = 1;

#[derive(Clone)]
struct Entry {
    /// Mirror of `groups[group].label`; kept in the entry so `cmp`
    /// never touches the group table.
    glabel: u64,
    local: u64,
    group: u32,
    prev: u32,
    next: u32,
    live: bool,
}

impl Entry {
    /// The full sort key as one integer (group label major).
    #[inline]
    fn key(&self) -> u128 {
        ((self.glabel as u128) << 64) | self.local as u128
    }
}

#[derive(Clone)]
struct Group {
    label: u64,
    prev: u32,
    next: u32,
    /// First member entry, in timestamp order.
    head: u32,
    count: u32,
    live: bool,
}

/// Counters describing the maintenance work an [`OrderList`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderStats {
    /// Top-level relabel passes over the group list.
    pub group_relabels: u64,
    /// Within-group local-label renumberings.
    pub local_renumbers: u64,
    /// Full-group splits.
    pub group_splits: u64,
    /// Sparse-group merges.
    pub group_merges: u64,
}

/// A doubly-linked list of totally ordered timestamps with O(1)
/// comparison and O(1) amortized insertion anywhere.
///
/// The list always contains two sentinel timestamps,
/// [`OrderList::first`] and [`OrderList::last`]; user timestamps live
/// strictly between them.
///
/// # Examples
///
/// ```
/// use ceal_runtime::order::OrderList;
/// use std::cmp::Ordering;
///
/// let mut ord = OrderList::new();
/// let a = ord.insert_after(ord.first());
/// let c = ord.insert_after(a);
/// let b = ord.insert_after(a); // between a and c
/// assert_eq!(ord.cmp(a, b), Ordering::Less);
/// assert_eq!(ord.cmp(b, c), Ordering::Less);
/// ```
pub struct OrderList {
    entries: Vec<Entry>,
    groups: Vec<Group>,
    free_entries: Vec<u32>,
    free_groups: Vec<u32>,
    len: usize,
    stats: OrderStats,
}

impl Default for OrderList {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderList {
    /// Creates a list containing only the two sentinels.
    pub fn new() -> Self {
        let first = Entry {
            glabel: 0,
            local: 0,
            group: FIRST_G,
            prev: NIL,
            next: 1,
            live: true,
        };
        let last = Entry {
            glabel: u64::MAX,
            local: 0,
            group: LAST_G,
            prev: 0,
            next: NIL,
            live: true,
        };
        let g_first = Group {
            label: 0,
            prev: NIL,
            next: LAST_G,
            head: 0,
            count: 1,
            live: true,
        };
        let g_last = Group {
            label: u64::MAX,
            prev: FIRST_G,
            next: NIL,
            head: 1,
            count: 1,
            live: true,
        };
        OrderList {
            entries: vec![first, last],
            groups: vec![g_first, g_last],
            free_entries: Vec::new(),
            free_groups: Vec::new(),
            len: 0,
            stats: OrderStats::default(),
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

    /// The group label of a live timestamp (diagnostics only; labels
    /// change under relabeling and timestamps in the same group share
    /// one).
    pub fn label(&self, t: Time) -> u64 {
        self.entry(t).glabel
    }

    /// Number of label-maintenance passes performed so far (group
    /// relabels plus local renumberings; diagnostics).
    #[inline]
    pub fn relabel_count(&self) -> u64 {
        self.stats.group_relabels + self.stats.local_renumbers
    }

    /// Maintenance counters (relabels, renumbers, splits, merges).
    #[inline]
    pub fn stats(&self) -> OrderStats {
        self.stats
    }

    /// Number of live groups, including the two sentinel groups
    /// (diagnostics; bounds the label-pressure the top level sees).
    pub fn group_count(&self) -> usize {
        self.groups.len() - self.free_groups.len()
    }

    #[inline]
    fn entry(&self, t: Time) -> &Entry {
        &self.entries[t.0 as usize]
    }

    /// Returns whether `t` is currently a live timestamp.
    #[inline]
    pub fn is_live(&self, t: Time) -> bool {
        !t.is_none() && (t.0 as usize) < self.entries.len() && self.entry(t).live
    }

    /// The timestamp immediately after `t`, or [`Time::NONE`] past the end.
    #[inline]
    pub fn next(&self, t: Time) -> Time {
        debug_assert!(self.is_live(t), "next() of dead timestamp {t:?}");
        Time(self.entry(t).next)
    }

    /// The timestamp immediately before `t`, or [`Time::NONE`] before the start.
    #[inline]
    pub fn prev(&self, t: Time) -> Time {
        debug_assert!(self.is_live(t), "prev() of dead timestamp {t:?}");
        Time(self.entry(t).prev)
    }

    /// Compares two live timestamps by trace order. The (group label,
    /// local label) pair is compared as one 128-bit key, which stays
    /// branchless — comparisons sit in the propagation queue's inner
    /// loop, where both outcomes are equally likely.
    #[inline]
    pub fn cmp(&self, a: Time, b: Time) -> Ordering {
        debug_assert!(self.is_live(a) && self.is_live(b));
        self.entries[a.0 as usize]
            .key()
            .cmp(&self.entries[b.0 as usize].key())
    }

    /// `true` iff `a` is strictly before `b`.
    #[inline]
    pub fn lt(&self, a: Time, b: Time) -> bool {
        debug_assert!(self.is_live(a) && self.is_live(b));
        self.entries[a.0 as usize].key() < self.entries[b.0 as usize].key()
    }

    /// `true` iff `a` is before or equal to `b`.
    #[inline]
    pub fn le(&self, a: Time, b: Time) -> bool {
        debug_assert!(self.is_live(a) && self.is_live(b));
        self.entries[a.0 as usize].key() <= self.entries[b.0 as usize].key()
    }

    fn alloc_entry(&mut self, e: Entry) -> u32 {
        if let Some(i) = self.free_entries.pop() {
            self.entries[i as usize] = e;
            i
        } else {
            self.entries.push(e);
            (self.entries.len() - 1) as u32
        }
    }

    fn alloc_group(&mut self, g: Group) -> u32 {
        if let Some(i) = self.free_groups.pop() {
            self.groups[i as usize] = g;
            i
        } else {
            self.groups.push(g);
            (self.groups.len() - 1) as u32
        }
    }

    /// Creates and returns a fresh timestamp immediately after `t`.
    ///
    /// `t` may be the [`OrderList::first`] sentinel but not
    /// [`OrderList::last`]. O(1) amortized: the slow paths are a local
    /// renumber or a split of one bounded group, plus (rarely) a
    /// relabel pass over the much shorter group list.
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
        loop {
            let ti = t.0;
            let e = &self.entries[ti as usize];
            let (nx, tg, la) = (e.next, e.group, e.local);
            let ng = self.entries[nx as usize].group;
            if tg == ng {
                // Between two entries of one group.
                if (self.groups[tg as usize].count as usize) >= GROUP_CAP {
                    self.split_group_after(tg, ti);
                    continue;
                }
                let lb = self.entries[nx as usize].local;
                if lb - la >= 2 {
                    return self.link_entry(tg, ti, nx, la + (lb - la).min(2 * LOCAL_STEP) / 2);
                }
                self.renumber_group(tg);
                continue;
            }
            // `t` is the tail of its group and `nx` heads the next one.
            if tg != FIRST_G && (self.groups[tg as usize].count as usize) < SOFT_CAP {
                if u64::MAX - la >= 2 {
                    let local = la + (u64::MAX - la).min(2 * LOCAL_STEP) / 2;
                    return self.link_entry(tg, ti, nx, local);
                }
                self.renumber_group(tg);
                continue;
            }
            if ng != LAST_G && (self.groups[ng as usize].count as usize) < SOFT_CAP {
                let lb = self.entries[nx as usize].local;
                if lb >= 2 {
                    let local = lb - lb.min(2 * LOCAL_STEP) / 2;
                    return self.link_entry(ng, ti, nx, local);
                }
                self.renumber_group(ng);
                continue;
            }
            // Both sides are sentinels or full: open a fresh group.
            let g = self.new_group_between(tg, ng);
            return self.link_entry(g, ti, nx, u64::MAX / 2);
        }
    }

    /// Links a fresh entry with the given local label into group `g`
    /// between adjacent entries `prev` and `next`.
    fn link_entry(&mut self, g: u32, prev: u32, next: u32, local: u64) -> Time {
        let glabel = self.groups[g as usize].label;
        let idx = self.alloc_entry(Entry {
            glabel,
            local,
            group: g,
            prev,
            next,
            live: true,
        });
        self.entries[prev as usize].next = idx;
        self.entries[next as usize].prev = idx;
        let grp = &mut self.groups[g as usize];
        grp.count += 1;
        // A new first member (prepend, or sole member of a new group)
        // becomes the head.
        if grp.count == 1 || grp.head == next {
            grp.head = idx;
        }
        self.len += 1;
        Time(idx)
    }

    /// Deletes timestamp `t`. `t` must not be a sentinel.
    ///
    /// Empty groups are freed immediately; sparse groups merge with a
    /// neighbor so group count stays proportional to `len`.
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
        let Entry {
            prev,
            next,
            group: g,
            ..
        } = *self.entry(t);
        self.entries[prev as usize].next = next;
        self.entries[next as usize].prev = prev;
        self.entries[t.0 as usize].live = false;
        self.free_entries.push(t.0);
        self.len -= 1;

        let grp = &mut self.groups[g as usize];
        grp.count -= 1;
        if grp.count == 0 {
            let (gp, gn) = (grp.prev, grp.next);
            grp.live = false;
            self.groups[gp as usize].next = gn;
            self.groups[gn as usize].prev = gp;
            self.free_groups.push(g);
            return;
        }
        if grp.head == t.0 {
            grp.head = next;
        }
        if grp.count <= MERGE_AT {
            let (gp, gn) = (self.groups[g as usize].prev, self.groups[g as usize].next);
            if gn != LAST_G
                && self.groups[g as usize].count + self.groups[gn as usize].count <= MERGE_MAX
            {
                self.merge_into_neighbor(g, gn, true);
            } else if gp != FIRST_G
                && self.groups[gp as usize].count + self.groups[g as usize].count <= MERGE_MAX
            {
                self.merge_into_neighbor(g, gp, false);
            }
        }
    }

    /// Spreads group `g`'s local labels evenly over the `u64` range.
    fn renumber_group(&mut self, g: u32) {
        self.stats.local_renumbers += 1;
        let count = self.groups[g as usize].count as u64;
        let step = u64::MAX / (count + 1);
        let mut cur = self.groups[g as usize].head;
        let mut local = 0u64;
        for _ in 0..count {
            local += step;
            self.entries[cur as usize].local = local;
            cur = self.entries[cur as usize].next;
        }
    }

    /// Splits a full group at the insertion point: the suffix after
    /// entry `ti` moves to a fresh successor group, while `ti` and its
    /// predecessors keep their labels untouched. The caller's insertion
    /// then lands on a group boundary right after `ti`, so a burst of
    /// insertions at one spot — the pattern change propagation produces
    /// — pays one suffix move and thereafter appends into label space
    /// the split just opened.
    fn split_group_after(&mut self, g: u32, ti: u32) {
        self.stats.group_splits += 1;
        debug_assert_eq!(self.entries[ti as usize].group, g);
        let count = self.groups[g as usize].count;
        // Count the moved suffix first; the walk warms the lines the
        // relabel pass below writes.
        let mut moved = 0u32;
        let mut cur = self.entries[ti as usize].next;
        while self.entries[cur as usize].group == g {
            moved += 1;
            cur = self.entries[cur as usize].next;
        }
        debug_assert!(
            moved >= 1 && moved < count,
            "split must move a proper suffix"
        );
        // Create the successor group before re-homing: its label
        // allocation may relabel the group list, and at that point
        // every entry still consistently belongs to `g`.
        let g2 = self.new_group_between(g, self.groups[g as usize].next);
        let g2_label = self.groups[g2 as usize].label;
        let step = u64::MAX / (moved as u64 + 1);
        let mut cur = self.entries[ti as usize].next;
        self.groups[g2 as usize].head = cur;
        self.groups[g2 as usize].count = moved;
        self.groups[g as usize].count = count - moved;
        let mut local = 0u64;
        for _ in 0..moved {
            local += step;
            let e = &mut self.entries[cur as usize];
            e.group = g2;
            e.glabel = g2_label;
            e.local = local;
            cur = e.next;
        }
    }

    /// Folds sparse group `g`'s members into neighbor `h` — `g`'s
    /// successor when `succ` is true, else its predecessor — and frees
    /// `g`. Only `g`'s few members are rewritten: they squeeze into the
    /// label space below `h`'s head (resp. above its tail). Falls back
    /// to renumbering the merged group only if that space is exhausted.
    fn merge_into_neighbor(&mut self, g: u32, h: u32, succ: bool) {
        self.stats.group_merges += 1;
        let k = self.groups[g as usize].count;
        let h_label = self.groups[h as usize].label;
        let g_head = self.groups[g as usize].head;

        // Re-home g's members; local labels are assigned below.
        let mut cur = g_head;
        for _ in 0..k {
            let e = &mut self.entries[cur as usize];
            e.group = h;
            e.glabel = h_label;
            cur = e.next;
        }
        // Unlink and free `g` before any renumber fallback sees it.
        let (gp, gn) = (self.groups[g as usize].prev, self.groups[g as usize].next);
        self.groups[gp as usize].next = gn;
        self.groups[gn as usize].prev = gp;
        self.groups[g as usize].live = false;
        self.free_groups.push(g);
        self.groups[h as usize].count += k;

        if succ {
            // g's members become h's new head prefix, below h's old head.
            debug_assert_eq!(self.groups[g as usize].next, h);
            let h0 = self.entries[self.groups[h as usize].head as usize].local;
            self.groups[h as usize].head = g_head;
            let step = h0 / (k as u64 + 1);
            if step == 0 {
                self.renumber_group(h);
                return;
            }
            let mut cur = g_head;
            let mut local = 0u64;
            for _ in 0..k {
                local += step;
                self.entries[cur as usize].local = local;
                cur = self.entries[cur as usize].next;
            }
        } else {
            // g's members become h's new tail, above h's old tail. The
            // old tail is the entry preceding g's former head.
            debug_assert_eq!(self.groups[h as usize].next, gn);
            let tail_local = self.entries[self.entries[g_head as usize].prev as usize].local;
            let room = u64::MAX - tail_local;
            let step = (room / (k as u64 + 1)).min(LOCAL_STEP);
            if step == 0 {
                self.renumber_group(h);
                return;
            }
            let mut cur = g_head;
            let mut local = tail_local;
            for _ in 0..k {
                local += step;
                self.entries[cur as usize].local = local;
                cur = self.entries[cur as usize].next;
            }
        }
    }

    /// Creates an empty group between adjacent groups `a` and `b`,
    /// relabeling the group list if no label gap remains.
    fn new_group_between(&mut self, a: u32, b: u32) -> u32 {
        debug_assert_eq!(self.groups[a as usize].next, b);
        let la = self.groups[a as usize].label;
        let lb = self.groups[b as usize].label;
        debug_assert!(la < lb);
        let label = if lb - la >= 2 {
            // Prefer a fixed gap after `a` so that repeated appends
            // leave room for future interior group creation.
            la + (lb - la).min(2 * APPEND_GAP) / 2
        } else {
            self.relabel_groups_around(a);
            let la = self.groups[a as usize].label;
            let lb = self.groups[b as usize].label;
            debug_assert!(lb - la >= 2, "group relabeling failed to open a gap");
            la + (lb - la).min(2 * APPEND_GAP) / 2
        };
        let idx = self.alloc_group(Group {
            label,
            prev: a,
            next: b,
            head: NIL,
            count: 0,
            live: true,
        });
        self.groups[a as usize].next = idx;
        self.groups[b as usize].prev = idx;
        idx
    }

    /// Opens label space around group `a` by redistributing a
    /// neighborhood of the group list — the same density heuristic the
    /// single-level structure applied per timestamp (walk outward until
    /// range > 4 * count^2-ish, then spread evenly), but over groups.
    /// Rewrites the `glabel` mirror of every member of a relabeled
    /// group.
    fn relabel_groups_around(&mut self, a: u32) {
        self.stats.group_relabels += 1;
        let mut count: u64 = 2;
        let mut lo = a;
        let mut hi = self.groups[a as usize].next;
        loop {
            let lo_label = self.groups[lo as usize].label;
            let hi_label = self.groups[hi as usize].label;
            let range = hi_label - lo_label;
            if range / count >= 2 * count.max(16) {
                break;
            }
            // Expand on whichever side is available, favoring forward
            // (appends cluster at the back).
            let can_fwd = self.groups[hi as usize].next != NIL;
            let can_bwd = self.groups[lo as usize].prev != NIL;
            if can_fwd {
                hi = self.groups[hi as usize].next;
            } else if can_bwd {
                lo = self.groups[lo as usize].prev;
            } else {
                // Whole group list collected; exhausting u64 label space
                // would require ~2^63 groups, unreachable in practice.
                panic!("order-maintenance group label space exhausted");
            }
            count += 1;
        }
        let lo_label = self.groups[lo as usize].label;
        let hi_label = self.groups[hi as usize].label;
        let step = (hi_label - lo_label) / count;
        debug_assert!(step >= 2);
        let mut cur = self.groups[lo as usize].next;
        let mut label = lo_label;
        while cur != hi {
            label += step;
            let grp = &mut self.groups[cur as usize];
            grp.label = label;
            let (mut e, n) = (grp.head, grp.count);
            for _ in 0..n {
                let entry = &mut self.entries[e as usize];
                entry.glabel = label;
                e = entry.next;
            }
            cur = self.groups[cur as usize].next;
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

    /// Asserts internal invariants (test support): entry and group
    /// linkage is consistent, groups partition the entry list into
    /// contiguous runs within capacity, labels strictly increase at
    /// both levels, and every `glabel` mirror is accurate.
    pub fn check_invariants(&self) {
        // Group list: starts at FIRST_G, ends at LAST_G, labels strictly
        // increasing, member runs contiguous and correctly counted.
        let mut g = FIRST_G;
        let mut prev_g = NIL;
        let mut prev_label = None;
        let mut total = 0usize;
        let mut groups_seen = 0usize;
        let mut expected_entry = 0u32; // entry 0 is the first sentinel
        loop {
            let grp = &self.groups[g as usize];
            assert!(grp.live, "dead group g{g} reachable");
            assert_eq!(grp.prev, prev_g, "broken group back-link at g{g}");
            if let Some(p) = prev_label {
                assert!(grp.label > p, "group labels not strictly increasing");
            }
            prev_label = Some(grp.label);
            assert!(grp.count >= 1, "empty group g{g} persisted");
            let cap_ok = g == FIRST_G || g == LAST_G || grp.count as usize <= GROUP_CAP;
            assert!(cap_ok, "group g{g} over capacity: {}", grp.count);
            assert_eq!(grp.head, expected_entry, "group g{g} head out of place");
            // Walk the member run.
            let mut e = grp.head;
            let mut prev_local = None;
            for i in 0..grp.count {
                let entry = &self.entries[e as usize];
                assert!(entry.live, "dead entry reachable");
                assert_eq!(entry.group, g, "entry in wrong group");
                assert_eq!(entry.glabel, grp.label, "stale glabel mirror");
                if let Some(p) = prev_local {
                    assert!(entry.local > p, "locals not strictly increasing");
                }
                prev_local = Some(entry.local);
                if entry.next != NIL {
                    assert_eq!(
                        self.entries[entry.next as usize].prev, e,
                        "broken entry back-link"
                    );
                }
                total += 1;
                if i + 1 < grp.count || grp.next != NIL {
                    assert!(entry.next != NIL, "entry list ends inside group chain");
                }
                let last_member = i + 1 == grp.count;
                if !last_member {
                    e = entry.next;
                } else {
                    expected_entry = entry.next;
                }
            }
            groups_seen += 1;
            prev_g = g;
            if grp.next == NIL {
                assert_eq!(g, LAST_G, "group list does not end at the sentinel");
                break;
            }
            g = grp.next;
        }
        assert_eq!(expected_entry, NIL, "entries extend past the last group");
        assert_eq!(total, self.len + 2, "length mismatch");
        assert_eq!(groups_seen, self.group_count(), "group count mismatch");
        // Sentinel groups never change shape.
        assert_eq!(self.groups[FIRST_G as usize].count, 1);
        assert_eq!(self.groups[LAST_G as usize].count, 1);
        assert_eq!(self.groups[FIRST_G as usize].label, 0);
        assert_eq!(self.groups[LAST_G as usize].label, u64::MAX);
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
        // Repeatedly insert right after the same node: exhausts local
        // gaps and forces splits and renumberings, many times.
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
        assert!(
            ord.stats().group_splits > 0,
            "dense insertion must split groups"
        );
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
    fn groups_merge_after_deletions() {
        use crate::prng::Prng;
        let mut ord = OrderList::new();
        let mut ts = Vec::new();
        let mut t = ord.first();
        for _ in 0..1_000 {
            t = ord.insert_after(t);
            ts.push(t);
        }
        let peak_groups = ord.group_count();
        // Thin the list out uniformly: every group goes sparse, so
        // adjacent sparse groups must merge.
        let mut rng = Prng::seed_from_u64(3);
        rng.shuffle(&mut ts);
        for &t in &ts[..900] {
            ord.delete(t);
        }
        ord.check_invariants();
        assert_eq!(ord.len(), 100);
        assert!(ord.stats().group_merges > 0, "sparse groups never merged");
        assert!(
            ord.group_count() < peak_groups,
            "group count did not shrink: {} -> {}",
            peak_groups,
            ord.group_count()
        );
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
        use crate::prng::Prng;
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
        ord.check_invariants();
    }
}
