//! The free-node availability profile ("skyline").
//!
//! A piecewise-constant function from future time to the number of free
//! nodes, built from the predicted completion times of running jobs and
//! any planned reservations.  Backfill (a priority job's reservation, a
//! candidate's start) and the search policies (place the jobs of an
//! ordering one by one, undo on backtrack) share one first-fit scan:
//! [`AvailabilityProfile::fit`] finds the earliest feasible start and the
//! segment window a reservation there rewrites, and
//! [`AvailabilityProfile::commit`] carves that window in place.
//! `reserve`/`release` are left for starts the caller already knows.
//!
//! The search has two undo mechanisms, one per access pattern:
//!
//! * **the journal** ([`UndoLog`]): [`AvailabilityProfile::place`] saves
//!   the segment window it rewrites and [`AvailabilityProfile::unplace`]
//!   puts it back.  Probe nodes above the discrepancy depth use it,
//!   because a parent undoes one child to try the next.
//! * **the checkpoint** ([`Checkpoint`]): one copy of the whole profile,
//!   then any number of [`AvailabilityProfile::place_unjournalled`]
//!   edits, undone together by [`AvailabilityProfile::rewind`].  A
//!   heuristic tail (the leaf-ward run below the last discrepancy) is
//!   always undone as a unit, so it pays one copy instead of a window
//!   save and restore per node.
//!
//! Copying the whole profile on every descend was measured no faster
//! than the journal, so neither mechanism replaces the other.
//!
//! The first-fit scan relies on one invariant: **the last segment is
//! all-free** (`free == capacity`).  Every reservation is finite (its end
//! saturates at `Time::MAX`, which is still a boundary), so past the last
//! boundary nothing is held, and a scan for a feasible segment always
//! finds one.  Every edit also keeps the profile canonical:
//! segment starts strictly increase and no two neighbours share a free
//! count.

use sbs_workload::time::Time;

/// One step of the skyline: `free` nodes from `start` until the next
/// segment (the last segment extends to infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    start: Time,
    free: u32,
}

/// Undo journal for [`AvailabilityProfile::place`] /
/// [`AvailabilityProfile::unplace`].
///
/// Each `place` pushes one frame recording the segment window it
/// rewrote together with the window's previous contents; `unplace` pops
/// the newest frame and copies the old segments back — an exact,
/// allocation-free (steady-state) restore that needs no binary search
/// and no re-merging.  Frames must be undone in LIFO order against the
/// same profile, which is precisely the discipline of a backtracking
/// tree search.
#[derive(Debug, Default, Clone)]
pub struct UndoLog {
    /// Saved pre-op segments, all frames concatenated (newest at tail).
    saved: Vec<Segment>,
    frames: Vec<UndoFrame>,
}

#[derive(Debug, Clone, Copy)]
struct UndoFrame {
    /// First index of the rewritten window.
    lo: usize,
    /// Window length before the op (number of saved segments at tail).
    old_len: usize,
    /// Window length after the op.
    new_len: usize,
}

impl UndoLog {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of un-undone `place` frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

/// A saved copy of a profile's segments, taken by
/// [`AvailabilityProfile::checkpoint`] and put back by
/// [`AvailabilityProfile::rewind`].
///
/// Reusable: rewinding swaps buffers instead of copying, so one
/// checkpoint allocates only while the profile is still growing.
#[derive(Debug, Default, Clone)]
pub struct Checkpoint {
    segs: Vec<Segment>,
}

impl Checkpoint {
    /// An empty checkpoint (nothing to rewind to yet).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The answer of [`AvailabilityProfile::fit`]: the earliest feasible
/// start, and the segment window a reservation there rewrites.  Valid
/// only against the unedited profile it came from: any edit in between
/// may move the window ([`AvailabilityProfile::commit`] checks this in
/// debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Fit {
    /// The earliest feasible start.
    pub start: Time,
    /// `start + duration`, saturated.
    end: Time,
    nodes: u32,
    /// The window: segment `a` holds `start`, segment `b` holds `end`.
    a: usize,
    b: usize,
}

/// Piecewise-constant free-node profile over `[base, infinity)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityProfile {
    capacity: u32,
    segs: Vec<Segment>,
}

impl AvailabilityProfile {
    /// An all-free machine of `capacity` nodes from time `base` on.
    pub fn new(base: Time, capacity: u32) -> Self {
        assert!(capacity > 0);
        AvailabilityProfile {
            capacity,
            segs: vec![Segment {
                start: base,
                free: capacity,
            }],
        }
    }

    /// Builds the profile at time `base` from running jobs given as
    /// `(predicted_end, nodes)` pairs.
    ///
    /// Predicted ends in the past (a job has overrun its prediction —
    /// possible when the scheduler plans with requested runtimes) are
    /// treated as "frees at `base + 1`": the scheduler knows the job must
    /// end imminently but cannot use its nodes *now*.
    ///
    /// Cost: one pass, O(R) for R jobs, when the pairs come in
    /// non-decreasing end order (as [`crate::SchedContext::running`] and
    /// [`crate::Cluster::profile`] hand them over); any other order pays
    /// one `sort_unstable` of the segment list.  Either way the result is
    /// the same canonical profile, built in the one `Vec` it returns.
    pub fn from_running(
        base: Time,
        capacity: u32,
        running: impl IntoIterator<Item = (Time, u32)>,
    ) -> Self {
        let running = running.into_iter();
        let floor = base.saturating_add(1);
        // First the nodes each distinct end releases (segment 0 releases
        // none), then one prefix sum turns releases into free counts.
        let mut segs = Vec::with_capacity(1 + running.size_hint().0);
        segs.push(Segment {
            start: base,
            free: 0,
        });
        let (mut held, mut sorted) = (0u32, true);
        for (pred_end, nodes) in running {
            if nodes == 0 {
                continue;
            }
            held += nodes;
            let end = pred_end.max(floor);
            let last = segs.last_mut().expect("segment 0 is always present");
            if end == last.start {
                last.free += nodes;
            } else {
                sorted &= end > last.start;
                segs.push(Segment {
                    start: end,
                    free: nodes,
                });
            }
        }
        if !sorted {
            segs[1..].sort_unstable_by_key(|s| s.start);
            segs.dedup_by(|later, kept| {
                let same = later.start == kept.start;
                if same {
                    kept.free += later.free;
                }
                same
            });
        }
        debug_assert!(held <= capacity, "running set exceeds the machine");
        // Every later segment releases at least one node, so neighbours
        // differ (canonical) and the last segment is all-free.
        let mut free = capacity - held;
        for seg in &mut segs {
            free += seg.free;
            seg.free = free;
        }
        AvailabilityProfile { capacity, segs }
    }

    /// The machine size.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The profile's base time (its left edge).
    pub fn base(&self) -> Time {
        self.segs[0].start
    }

    /// Free nodes at time `t` (`t >= base`).  O(1) when `t` lies in the
    /// first segment, which holds the base (backfill asks at `now`).
    pub fn free_at(&self, t: Time) -> u32 {
        debug_assert!(t >= self.base());
        match self.segs.get(1) {
            Some(next) if next.start <= t => {
                self.segs[self.segs.partition_point(|s| s.start <= t) - 1].free
            }
            _ => self.segs[0].free,
        }
    }

    /// Earliest time `t >= from.max(base)` at which `nodes` nodes are
    /// continuously free for `duration` seconds: [`Self::fit`]'s start.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the capacity or `duration == 0`.
    pub fn earliest_start(&self, nodes: u32, duration: Time, from: Time) -> Time {
        self.fit(nodes, duration, from).start
    }

    /// The first-fit scan: the earliest start at or after
    /// `from.max(base)` with `nodes` free for `duration`, and the segment
    /// window a reservation there rewrites, for [`Self::commit`].  One
    /// pass: the walk that proves the run of feasible segments long
    /// enough stops on the segment that closes the window.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the capacity or `duration == 0`.
    pub fn fit(&self, nodes: u32, duration: Time, from: Time) -> Fit {
        assert!(nodes <= self.capacity, "request exceeds machine size");
        assert!(duration > 0, "zero-length reservation");
        let segs = &self.segs[..];
        let from = from.max(segs[0].start);
        let mut a = 0;
        while a + 1 < segs.len() && segs[a + 1].start <= from {
            a += 1;
        }
        loop {
            a += segs[a..]
                .iter()
                .position(|s| s.free >= nodes)
                .expect("the last segment is all-free");
            let start = segs[a].start.max(from);
            let end = start.saturating_add(duration);
            // Extend the run until a segment begins at or past `end`
            // (found) or is too full (too short: retry past it).
            let b = match segs[a + 1..]
                .iter()
                .position(|s| s.start >= end || s.free < nodes)
            {
                None => segs.len() - 1,
                Some(k) if segs[a + 1 + k].start == end => a + 1 + k,
                Some(k) if segs[a + 1 + k].start > end => a + k,
                Some(k) => {
                    a += 1 + k;
                    continue;
                }
            };
            break Fit {
                start,
                end,
                nodes,
                a,
                b,
            };
        }
    }

    /// Reserves what `fit` found, rewriting only its window in place.
    /// `fit` must come from [`Self::fit`] on this profile with no edit
    /// since; debug builds check that its window still matches.
    pub fn commit(&mut self, fit: Fit) {
        // Segment `a` still holds the start and segment `b` the end.
        let holds = |i: usize, t: Time| {
            self.segs.get(i).is_some_and(|s| s.start <= t)
                && self.segs.get(i + 1).is_none_or(|s| s.start > t)
        };
        debug_assert!(
            holds(fit.a, fit.start) && holds(fit.b, fit.end),
            "stale fit: the profile changed"
        );
        self.carve(fit.a, fit.b, fit.start, fit.end, fit.nodes);
    }

    /// Subtracts `nodes` free nodes over `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the interval does not have `nodes`
    /// free throughout — callers must only reserve what
    /// [`Self::earliest_start`] said was available.
    pub fn reserve(&mut self, start: Time, duration: Time, nodes: u32) {
        self.adjust(start, duration, nodes, true);
    }

    /// Reverses a [`Self::reserve`] with identical arguments.
    pub fn release(&mut self, start: Time, duration: Time, nodes: u32) {
        self.adjust(start, duration, nodes, false);
    }

    /// Reserves `nodes` for `duration` at the earliest feasible start at
    /// or after `from`, journalling the edit to `log`; returns the start.
    ///
    /// Equivalent to [`Self::earliest_start`] followed by
    /// [`Self::reserve`], but in a single pass: [`Self::fit`] then
    /// [`Self::commit`], saving the window in between.  This is the tree
    /// search's descend primitive; [`Self::unplace`] is its exact
    /// inverse.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the capacity or `duration == 0`.
    pub fn place(&mut self, nodes: u32, duration: Time, from: Time, log: &mut UndoLog) -> Time {
        let fit = self.fit(nodes, duration, from);
        log.saved.extend_from_slice(&self.segs[fit.a..=fit.b]);
        let new_len = self.carve(fit.a, fit.b, fit.start, fit.end, fit.nodes);
        log.frames.push(UndoFrame {
            lo: fit.a,
            old_len: fit.b - fit.a + 1,
            new_len,
        });
        fit.start
    }

    /// [`Self::place`] without the journal: the edit can only be undone
    /// by [`Self::rewind`] to a [`Checkpoint`] taken before it.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the capacity or `duration == 0`.
    pub fn place_unjournalled(&mut self, nodes: u32, duration: Time, from: Time) -> Time {
        let fit = self.fit(nodes, duration, from);
        self.commit(fit);
        fit.start
    }

    /// Reverses the most recent un-undone [`Self::place`] exactly: one
    /// move of the segments after the window, one copy of the journalled
    /// window back in.  No searches, no merging — and byte-exact: the
    /// segment list is restored verbatim, not just the free function.
    ///
    /// # Panics
    ///
    /// Panics if `log` has no frame (more `unplace`s than `place`s).
    pub fn unplace(&mut self, log: &mut UndoLog) {
        let f = log.frames.pop().expect("unplace without a matching place");
        let saved = log.saved.len() - f.old_len;
        self.move_tail(f.lo + f.new_len, f.lo + f.old_len);
        self.segs[f.lo..f.lo + f.old_len].copy_from_slice(&log.saved[saved..]);
        log.saved.truncate(saved);
    }

    /// Saves the whole segment list into `into`, for [`Self::rewind`].
    pub fn checkpoint(&self, into: &mut Checkpoint) {
        into.segs.clear();
        into.segs.extend_from_slice(&self.segs);
    }

    /// Restores the profile saved by the last [`Self::checkpoint`] into
    /// `from`, undoing every [`Self::place_unjournalled`] since in one
    /// buffer swap.  Journalled edits made after the checkpoint must have
    /// been undone first.  Spends the checkpoint: rewinding again needs a
    /// fresh one.
    pub fn rewind(&mut self, from: &mut Checkpoint) {
        debug_assert!(!from.segs.is_empty(), "rewind without a checkpoint");
        std::mem::swap(&mut self.segs, &mut from.segs);
        from.segs.clear();
    }

    /// Subtracts `nodes` over `[start, end)` inside the window `a..=b`
    /// found by [`Self::fit`], in place, and returns the window's new
    /// length.  Segments before `a` are untouched and those after `b`
    /// move once.
    fn carve(&mut self, a: usize, b: usize, start: Time, end: Time, nodes: u32) -> usize {
        let old_len = b - a + 1;
        // Nothing to hold: zero nodes, or a start saturated at Time::MAX.
        if nodes == 0 || start == end {
            return old_len;
        }
        let head = self.segs[a];
        let end_free = self.segs[b].free;
        // A boundary is added at `start` if it falls inside segment `a`,
        // and at `end` if it falls inside segment `b`; otherwise segment
        // `b` begins at `end` and keeps its count.
        let front_split = head.start < start;
        let end_split = self.segs[b].start < end;
        let reserved = if end_split { a..=b } else { a..=b - 1 };
        for seg in &mut self.segs[reserved] {
            debug_assert!(seg.free >= nodes, "over-reserving segment at {}", seg.start);
            seg.free -= nodes;
        }
        // Canonical form, as in `adjust`: every reserved segment moved by
        // the same delta, so only the two boundary pairs can coincide.
        let front_merge = !front_split && a > 0 && self.segs[a - 1].free == self.segs[a].free;
        let end_merge = !end_split && self.segs[b - 1].free == end_free;
        let new_len = old_len + usize::from(front_split) + usize::from(end_split)
            - usize::from(front_merge)
            - usize::from(end_merge);
        let (old_end, new_end) = (b + 1, a + new_len);
        if new_end > old_end {
            self.move_tail(old_end, new_end);
        }
        // The window body (through `b`, unless `b` merged away) shifts
        // one right past a split-off head, or one left over a merged-away
        // first piece.
        let body_end = if end_merge { b } else { b + 1 };
        if front_split {
            self.segs.copy_within(a..body_end, a + 1);
            self.segs[a] = head;
            self.segs[a + 1].start = start;
        } else if front_merge {
            self.segs.copy_within(a + 1..body_end, a);
        }
        if new_end < old_end {
            self.move_tail(old_end, new_end);
        }
        if end_split {
            self.segs[new_end - 1] = Segment {
                start: end,
                free: end_free,
            };
        }
        new_len
    }

    /// Moves the segments from index `from` on so they begin at `to`,
    /// growing or shrinking the list: the one tail move of a
    /// [`Self::place`] or [`Self::unplace`].
    fn move_tail(&mut self, from: usize, to: usize) {
        let len = self.segs.len();
        if to > from {
            let filler = self.segs[len - 1];
            self.segs.resize(len + (to - from), filler);
            self.segs.copy_within(from..len, to);
        } else if to < from {
            self.segs.copy_within(from..len, to);
            self.segs.truncate(len - (from - to));
        }
    }

    fn adjust(&mut self, start: Time, duration: Time, nodes: u32, take: bool) {
        assert!(duration > 0, "zero-length reservation");
        if nodes == 0 {
            return;
        }
        let start = start.max(self.base());
        let end = start.saturating_add(duration);
        let lo = self.split_at(start);
        let hi = self.split_at(end);
        for seg in &mut self.segs[lo..hi] {
            if take {
                debug_assert!(seg.free >= nodes, "over-reserving segment at {}", seg.start);
                seg.free -= nodes;
            } else {
                debug_assert!(
                    seg.free + nodes <= self.capacity,
                    "over-releasing segment at {}",
                    seg.start
                );
                seg.free += nodes;
            }
        }
        // Merge adjacent equal segments so profiles stay canonical (and
        // small) across long reserve/release sequences.  The profile was
        // canonical before and every segment in [lo, hi) moved by the
        // same delta, so interior pairs stayed distinct: only the two
        // boundary pairs can newly coincide — no full-vector dedup pass.
        if self.segs[hi - 1].free == self.segs[hi].free {
            self.segs.remove(hi);
        }
        if lo > 0 && self.segs[lo - 1].free == self.segs[lo].free {
            self.segs.remove(lo);
        }
    }

    /// Ensures a segment boundary exists at `t`, returning the index of
    /// the segment starting at `t`.
    fn split_at(&mut self, t: Time) -> usize {
        match self.segs.binary_search_by_key(&t, |s| s.start) {
            Ok(i) => i,
            Err(i) => {
                let free = self.segs[i - 1].free;
                self.segs.insert(i, Segment { start: t, free });
                i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_machine_starts_immediately() {
        let p = AvailabilityProfile::new(100, 8);
        assert_eq!(p.earliest_start(8, 3600, 100), 100);
        assert_eq!(p.earliest_start(1, 1, 250), 250);
    }

    #[test]
    fn reservation_blocks_and_release_restores() {
        let mut p = AvailabilityProfile::new(0, 8);
        let before = p.clone();
        p.reserve(0, 100, 6);
        assert_eq!(p.free_at(0), 2);
        assert_eq!(p.free_at(100), 8);
        assert_eq!(p.earliest_start(4, 50, 0), 100);
        assert_eq!(p.earliest_start(2, 50, 0), 0);
        p.release(0, 100, 6);
        assert_eq!(p, before);
    }

    #[test]
    fn gap_too_short_is_skipped() {
        let mut p = AvailabilityProfile::new(0, 8);
        p.reserve(0, 100, 8); // busy until 100
        p.reserve(150, 100, 8); // busy again 150..250
                                // 4 nodes for 50s fits in the gap [100,150).
        assert_eq!(p.earliest_start(4, 50, 0), 100);
        // ... but 60s does not: must wait for 250.
        assert_eq!(p.earliest_start(4, 60, 0), 250);
    }

    #[test]
    fn from_running_reflects_predicted_ends() {
        let p = AvailabilityProfile::from_running(1000, 16, [(4000, 8), (2000, 4)]);
        assert_eq!(p.free_at(1000), 4);
        assert_eq!(p.free_at(2000), 8);
        assert_eq!(p.free_at(4000), 16);
        assert_eq!(p.earliest_start(16, 10, 1000), 4000);
        assert_eq!(p.earliest_start(6, 10, 1000), 2000);
    }

    #[test]
    fn overdue_predictions_free_just_after_base() {
        // A job predicted to end in the past still occupies nodes now.
        let p = AvailabilityProfile::from_running(1000, 4, [(900, 4)]);
        assert_eq!(p.free_at(1000), 0);
        assert_eq!(p.earliest_start(4, 10, 1000), 1001);
    }

    #[test]
    fn earliest_start_respects_from() {
        let p = AvailabilityProfile::new(0, 8);
        assert_eq!(p.earliest_start(1, 10, 500), 500);
    }

    #[test]
    fn place_matches_earliest_start_and_unplace_restores_exactly() {
        let mut p = AvailabilityProfile::new(0, 8);
        p.reserve(0, 100, 8);
        p.reserve(150, 100, 6);
        let before = p.clone();
        let mut log = UndoLog::new();
        // Fits only the [100, 150) gap at 2 nodes... no: 4 nodes for
        // 40 s fits at 100; 4 nodes for 60 s must skip to 150? 150..250
        // has 2 free, so it waits until 250.
        assert_eq!(p.place(4, 40, 0, &mut log), 100);
        assert_eq!(p.place(4, 60, 0, &mut log), 250);
        assert_eq!(log.depth(), 2);
        p.unplace(&mut log);
        p.unplace(&mut log);
        assert_eq!(p, before, "segment lists must be restored verbatim");
        assert_eq!(log.depth(), 0);
    }

    #[test]
    fn place_merges_boundaries_like_reserve() {
        // Reserving flush against an existing reservation must keep the
        // profile canonical (merged), exactly as reserve does.
        let mut a = AvailabilityProfile::new(0, 8);
        let mut b = a.clone();
        a.reserve(0, 100, 3);
        b.reserve(0, 100, 3);
        let mut log = UndoLog::new();
        let at = a.place(3, 50, 100, &mut log);
        assert_eq!(at, 100);
        b.reserve(100, 50, 3);
        assert_eq!(a, b);
        // [0,150) at 5 free merged into one segment, then all-free tail.
        assert_eq!(a.segs.len(), 2);
        a.unplace(&mut log);
        b.release(100, 50, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn overflowing_durations_saturate_instead_of_wrapping() {
        // [2000, 2100) fully busy.  A near-u64::MAX duration must wait
        // for the window to pass, not wrap its end to before its start
        // (which used to report start 1000 and corrupt the segment free
        // counts — or panic on the add in debug builds).
        let mut p = AvailabilityProfile::new(1000, 8);
        p.reserve(2000, 100, 8);
        let before = p.clone();
        let huge = u64::MAX - 500;
        assert_eq!(p.earliest_start(4, huge, 1000), 2100);
        let mut log = UndoLog::new();
        assert_eq!(p.place(4, huge, 1000, &mut log), 2100);
        assert_eq!(p.free_at(2100), 4);
        assert_eq!(p.free_at(u64::MAX), 8, "the last segment stays all-free");
        for w in p.segs.windows(2) {
            assert!(w[0].start < w[1].start && w[0].free != w[1].free);
        }
        assert!(p.segs.iter().all(|s| s.free <= 8));
        p.unplace(&mut log);
        assert_eq!(p, before);
        let mut cp = Checkpoint::new();
        p.checkpoint(&mut cp);
        assert_eq!(p.place_unjournalled(4, huge, 1000), 2100);
        p.rewind(&mut cp);
        assert_eq!(p, before);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale fit")]
    fn committing_a_stale_fit_is_caught() {
        let mut p = AvailabilityProfile::new(0, 8);
        let stale = p.fit(4, 100, 50);
        p.reserve(0, 10, 2);
        p.commit(stale);
    }

    /// Reference model: free nodes sampled at every second over a small
    /// horizon.
    #[derive(Clone)]
    struct NaiveProfile {
        base: Time,
        free: Vec<u32>, // indexed by t - base, beyond horizon = capacity
        capacity: u32,
    }

    impl NaiveProfile {
        fn new(base: Time, capacity: u32, horizon: usize) -> Self {
            NaiveProfile {
                base,
                free: vec![capacity; horizon],
                capacity,
            }
        }
        fn reserve(&mut self, start: Time, duration: Time, nodes: u32) {
            for t in start..start + duration {
                let i = (t - self.base) as usize;
                if i < self.free.len() {
                    self.free[i] -= nodes;
                }
            }
        }
        fn release(&mut self, start: Time, duration: Time, nodes: u32) {
            for t in start..start + duration {
                let i = (t - self.base) as usize;
                if i < self.free.len() {
                    self.free[i] += nodes;
                }
            }
        }
        fn earliest_start(&self, nodes: u32, duration: Time, from: Time) -> Time {
            let mut t = from.max(self.base);
            loop {
                let blocked = (t..t + duration).find(|&u| {
                    let i = (u - self.base) as usize;
                    self.free.get(i).copied().unwrap_or(self.capacity) < nodes
                });
                match blocked {
                    Some(u) => t = u + 1,
                    None => return t,
                }
            }
        }
    }

    /// `from_running` as it was before the one-pass build: one `reserve`
    /// per running job.  The reference the build is checked against.
    fn reference_from_running(
        base: Time,
        capacity: u32,
        running: &[(Time, u32)],
    ) -> AvailabilityProfile {
        let mut p = AvailabilityProfile::new(base, capacity);
        for &(pred_end, nodes) in running {
            let end = pred_end.max(base.saturating_add(1));
            p.reserve(base, end.saturating_sub(base), nodes);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass build leaves exactly the segment list the old
        /// reserve loop did, whatever the order of its input: sorted by
        /// end (the core's order), reversed, or shuffled.  Ends include
        /// overdue ones (clamped to `base + 1`), ties, `base + 1` itself
        /// and `Time::MAX`; some entries hold zero nodes, and a drawn set
        /// can fill the machine.
        #[test]
        fn from_running_matches_the_reserve_loop(
            capacity in 1u32..65,
            raw in proptest::collection::vec((0u64..24, 0u32..65), 0..24),
            order in 0u8..3,
            shuffle in proptest::collection::vec(0u32..1_000, 24..25),
        ) {
            let base: Time = 1_000;
            let mut busy = 0;
            let mut running: Vec<(Time, u32)> = Vec::new();
            for &(slot, raw_nodes) in &raw {
                let nodes = (raw_nodes % (capacity + 1)).min(capacity - busy);
                busy += nodes;
                let end = match slot {
                    0 => Time::MAX,
                    1..=4 => base - 5 + slot, // 996..=999: overdue
                    5 | 6 => base + slot - 5, // base (overdue) and base + 1
                    _ => base + 100 * (slot / 3), // coarse, so ends tie
                };
                running.push((end, nodes));
            }
            match order {
                0 => running.sort_by_key(|&(end, _)| end),
                1 => running.sort_by_key(|&(end, _)| std::cmp::Reverse(end)),
                _ => {
                    let mut keyed: Vec<_> = running.iter().copied().zip(&shuffle).collect();
                    keyed.sort_by_key(|&(_, &k)| k);
                    running = keyed.into_iter().map(|(r, _)| r).collect();
                }
            }
            let want = reference_from_running(base, capacity, &running);
            let got = AvailabilityProfile::from_running(base, capacity, running.iter().copied());
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        /// The skyline agrees with a second-by-second reference model
        /// under random feasible reserve/release/query sequences.
        #[test]
        fn matches_naive_model(ops in proptest::collection::vec(
            (0u64..400, 1u64..80, 1u32..8, 0u64..400), 1..40,
        )) {
            let capacity = 8u32;
            let mut fast = AvailabilityProfile::new(0, capacity);
            let mut slow = NaiveProfile::new(0, capacity, 1200);
            let mut held: Vec<(Time, Time, u32)> = Vec::new();
            for (start_seed, duration, nodes, from) in ops {
                // Only apply feasible reservations: place at the earliest
                // feasible point at-or-after the seed.
                let start = fast.earliest_start(nodes, duration, start_seed);
                prop_assert_eq!(start, slow.earliest_start(nodes, duration, start_seed));
                fast.reserve(start, duration, nodes);
                slow.reserve(start, duration, nodes);
                held.push((start, duration, nodes));
                // Cross-check an arbitrary query.
                let q = fast.earliest_start(nodes, duration, from);
                prop_assert_eq!(q, slow.earliest_start(nodes, duration, from));
                // Occasionally release the oldest reservation.
                if held.len() > 3 {
                    let (s, d, n) = held.remove(0);
                    fast.release(s, d, n);
                    slow.release(s, d, n);
                }
            }
            for t in (0..1200).step_by(7) {
                prop_assert_eq!(fast.free_at(t), slow.free[t as usize]);
            }
        }

        /// `place` picks the same start as `earliest_start` + `reserve`
        /// and as `commit(fit(..))`, and all three leave identical
        /// segment lists; a LIFO sequence of
        /// `unplace`s then restores the starting profile *verbatim*
        /// (segment-list equality, not just the free function), and the
        /// canonical-form invariants hold at every step: segment starts
        /// strictly increasing, free in [0, capacity], no two adjacent
        /// segments with equal free counts.
        #[test]
        fn place_is_reserve_and_unplace_is_exact(
            setup in proptest::collection::vec((0u64..300, 1u64..50, 1u32..6), 0..6),
            ops in proptest::collection::vec((0u64..400, 1u64..60, 1u32..8), 1..24,
        )) {
            let capacity = 8u32;
            let mut fast = AvailabilityProfile::new(0, capacity);
            // Arbitrary feasible baseline from plain reserves.
            for (s, d, n) in setup {
                let at = fast.earliest_start(n, d, s);
                fast.reserve(at, d, n);
            }
            let mut twin = fast.clone();
            let mut committed = fast.clone();
            let snapshot = fast.clone();
            let mut log = UndoLog::new();
            for &(from, duration, nodes) in &ops {
                let at = fast.place(nodes, duration, from, &mut log);
                let expect = twin.earliest_start(nodes, duration, from);
                prop_assert_eq!(at, expect);
                twin.reserve(at, duration, nodes);
                prop_assert_eq!(&fast, &twin);
                let fit = committed.fit(nodes, duration, from);
                prop_assert_eq!(fit.start, at);
                committed.commit(fit);
                prop_assert_eq!(&committed.segs, &fast.segs);
                for w in fast.segs.windows(2) {
                    prop_assert!(w[0].start < w[1].start, "segments out of order");
                    prop_assert!(w[0].free != w[1].free, "profile not canonical");
                }
                for seg in &fast.segs {
                    prop_assert!(seg.free <= capacity);
                }
            }
            for _ in &ops {
                fast.unplace(&mut log);
            }
            prop_assert_eq!(fast, snapshot);
            prop_assert_eq!(log.depth(), 0);
        }

        /// A checkpoint, then `k` unjournalled placements, then a rewind
        /// restores the segment list verbatim; every unjournalled start
        /// equals the start the journalled `place` picks on a twin, and
        /// the two leave identical profiles at every step.
        #[test]
        fn checkpoint_rewind_undoes_unjournalled_placements(
            setup in proptest::collection::vec((0u64..300, 1u64..50, 1u32..6), 0..6),
            ops in proptest::collection::vec((0u64..400, 1u64..60, 1u32..8), 1..24),
            k in 0usize..24,
        ) {
            let capacity = 8u32;
            let mut fast = AvailabilityProfile::new(0, capacity);
            for (s, d, n) in setup {
                let at = fast.earliest_start(n, d, s);
                fast.reserve(at, d, n);
            }
            let snapshot = fast.clone();
            let mut twin = fast.clone();
            let mut log = UndoLog::new();
            let mut cp = Checkpoint::new();
            fast.checkpoint(&mut cp);
            for &(from, duration, nodes) in ops.iter().take(k) {
                let at = fast.place_unjournalled(nodes, duration, from);
                prop_assert_eq!(at, twin.place(nodes, duration, from, &mut log));
                prop_assert_eq!(&fast, &twin);
                prop_assert_eq!(fast.segs.last().map(|s| s.free), Some(capacity));
            }
            fast.rewind(&mut cp);
            prop_assert_eq!(&fast, &snapshot);
            // The spent checkpoint is reusable.
            fast.checkpoint(&mut cp);
            for &(from, duration, nodes) in &ops {
                fast.place_unjournalled(nodes, duration, from);
            }
            fast.rewind(&mut cp);
            prop_assert_eq!(fast, snapshot);
        }

        /// reserve followed by release is always the identity.
        #[test]
        fn reserve_release_round_trip(
            seeds in proptest::collection::vec((0u64..300, 1u64..50, 1u32..6), 1..12,
        )) {
            let mut p = AvailabilityProfile::new(0, 8);
            // Build an arbitrary feasible baseline.
            for &(s, d, n) in seeds.iter().take(4) {
                let at = p.earliest_start(n, d, s);
                p.reserve(at, d, n);
            }
            let snapshot = p.clone();
            let mut undo = Vec::new();
            for &(s, d, n) in &seeds {
                let at = p.earliest_start(n, d, s);
                p.reserve(at, d, n);
                undo.push((at, d, n));
            }
            for (at, d, n) in undo.into_iter().rev() {
                p.release(at, d, n);
            }
            // The profile is kept canonical (adjacent equal-free
            // segments merged) and the canonical form of a free
            // function is unique, so the round trip must restore the
            // segment list verbatim — not merely the free function.
            for t in 0..600 {
                prop_assert_eq!(p.free_at(t), snapshot.free_at(t));
            }
            prop_assert_eq!(p, snapshot);
        }
    }
}
