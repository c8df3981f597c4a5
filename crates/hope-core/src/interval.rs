//! Intervals and per-process execution histories (paper, §5 and Fig. 9).
//!
//! An **interval** is the stretch of a user process's execution between two
//! `guess` points: the smallest granularity of rollback. Each interval
//! carries the dependency sets of Figures 10/15:
//!
//! * `IDO` — *I Depend On*: the assumptions this interval is contingent on,
//! * `UDO` — *Used to Depend On*: assumptions replaced away; Algorithm 2
//!   compares incoming replacements against it to break dependency cycles,
//! * `IHA` — *I Have Affirmed*: AIDs speculatively affirmed within the
//!   interval (finalize sends them unconditional affirms),
//! * `IHD` — *I Have Denied*: AIDs whose denies are buffered until the
//!   interval is definite (optional policy; see [`DenyPolicy`]).
//!
//! A new interval inherits its predecessor's cumulative `IDO` plus the
//! newly guessed assumption. The paper's §6 formulation re-registers with
//! every inherited AID — the source of the quadratic cost §6 promises to
//! analyze. This implementation substitutes *delta registration* (DESIGN.md
//! §6): the inherited prefix is shared copy-on-write ([`IdSet`] keeps large
//! sets behind an `Arc`), and a `Guess` is sent only for assumptions the
//! process is not already registered for — the earliest live interval
//! holding an AID is its registrant, which preserves every rollback floor
//! because rolling back the registrant also discards all later intervals.
//!
//! [`DenyPolicy`]: crate::config::DenyPolicy
//! [`IdSet`]: hope_types::IdSet

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hope_types::{AidId, IdoSet, IntervalId, ProcessId};

/// How an interval came to exist, which determines what rollback does at
/// its boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalOrigin {
    /// The initial interval of a process; never rolled back.
    Root,
    /// Opened by an explicit `guess` — the operation-log index of the
    /// `Guess` entry. Rollback re-runs the guess with outcome `false`.
    ExplicitGuess {
        /// Index of the `Guess` entry in the process's operation log.
        op: usize,
    },
    /// Opened implicitly by receiving a tagged message — the log index of
    /// the `Receive` entry. Rollback discards the message and blocks for a
    /// fresh one.
    ImplicitReceive {
        /// Index of the `Receive` entry in the process's operation log.
        op: usize,
    },
}

/// Why [`History::truncate_from`] refused to truncate. Distinguishing the
/// two lets callers treat an unknown id as a stale protocol message while
/// surfacing a rollback aimed at the root interval — which a correct
/// protocol never produces — as the bug it would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateError {
    /// The id names the root interval, which is definite by construction
    /// and can never roll back.
    RootInterval,
    /// The id does not name a live interval (already truncated, or never
    /// existed): the request is stale and safely ignorable.
    UnknownInterval,
}

impl fmt::Display for TruncateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncateError::RootInterval => write!(f, "cannot roll back the root interval"),
            TruncateError::UnknownInterval => write!(f, "interval is not live (stale rollback)"),
        }
    }
}

impl std::error::Error for TruncateError {}

/// One interval of a process history, with its dependency sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntervalRecord {
    /// Identity (process + monotone index; indices are never reused, so
    /// stale protocol messages for discarded intervals are harmless).
    pub id: IntervalId,
    /// How this interval started.
    pub origin: IntervalOrigin,
    /// The assumptions this interval *newly* guessed at its opening (the
    /// explicit guess, or the message tag of an implicit one) — as opposed
    /// to inherited or replacement-acquired dependencies. Used to decide
    /// whether a rollback's cause was this interval's own assumption.
    pub trigger: IdoSet,
    /// I Depend On.
    pub ido: IdoSet,
    /// Used to Depend On (Algorithm 2 cycle detection).
    pub udo: IdoSet,
    /// I Have Affirmed (speculative affirms awaiting finalize).
    pub iha: IdoSet,
    /// I Have Denied (buffered denies awaiting finalize).
    pub ihd: IdoSet,
    /// True once finalized: the interval can no longer roll back.
    pub definite: bool,
}

impl IntervalRecord {
    fn root(process: ProcessId) -> Self {
        IntervalRecord {
            id: IntervalId::new(process, 0),
            origin: IntervalOrigin::Root,
            trigger: IdoSet::new(),
            ido: IdoSet::new(),
            udo: IdoSet::new(),
            iha: IdoSet::new(),
            ihd: IdoSet::new(),
            definite: true,
        }
    }
}

/// Work counters a [`History`] reports into, shared by every history of
/// one environment through [`HopeMetrics::history`](crate::HopeMetrics).
#[derive(Debug, Default)]
pub struct HistoryCounters {
    /// Interval records (or index entries standing for one) examined by
    /// history lookups and walks: a deterministic measure of the CPU work
    /// dependency tracking costs, gated for linear growth by E-perf.
    pub records_visited: AtomicU64,
    /// High-water mark of speculative (non-definite) intervals any one
    /// history held at once.
    pub max_live_intervals: AtomicU64,
    /// Substitutions `Replace` applications computed: one per run of
    /// holders sharing their dependency sets, not one per holder.
    pub substitutions: AtomicU64,
}

/// What [`History::replace`] did, for the caller to act on.
#[derive(Debug, Default)]
pub(crate) struct ReplaceOutcome {
    /// `Guess` registrations owed, in application order: each names the
    /// interval that became the registrant of a newly acquired AID.
    pub registrations: Vec<(IntervalId, AidId)>,
    /// Replacement members discarded because they would close a
    /// dependency cycle (Algorithm 2's `UDO` check).
    pub cycles_broken: u64,
}

/// The execution history of one user process: an ordered list of intervals,
/// of which a (possibly empty) suffix is speculative.
///
/// The history maintains its own index so that no lookup walks it
/// (DESIGN.md S7):
///
/// * **definite-prefix cursor** — finalize goes oldest-first and rollback
///   truncates a suffix, so `intervals[..definite]` are definite and every
///   later interval is speculative;
/// * **registrant map** — for every AID a speculative interval holds, the
///   position of the earliest such interval (its single registrant);
/// * **id → position** — interval indices are monotone and never reused,
///   so a binary search on them finds any live interval.
///
/// Every mutation of an interval's dependency sets goes through a
/// `History` method, which keeps the index exact.
#[derive(Debug, Clone)]
pub struct History {
    process: ProcessId,
    intervals: Vec<IntervalRecord>,
    next_index: u32,
    definite: usize,
    registrant: HashMap<AidId, usize>,
    counters: Arc<HistoryCounters>,
}

impl History {
    /// A fresh history containing only the definite root interval, with
    /// counters of its own.
    pub fn new(process: ProcessId) -> Self {
        History::with_counters(process, Arc::default())
    }

    /// A fresh history reporting its work into `counters`.
    pub fn with_counters(process: ProcessId, counters: Arc<HistoryCounters>) -> Self {
        History {
            process,
            intervals: vec![IntervalRecord::root(process)],
            next_index: 1,
            definite: 1,
            registrant: HashMap::new(),
            counters,
        }
    }

    /// The owning process.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The work counters this history reports into.
    pub fn counters(&self) -> &HistoryCounters {
        &self.counters
    }

    fn visit(&self, records: u64) {
        self.counters
            .records_visited
            .fetch_add(records, Ordering::Relaxed);
    }

    /// All live intervals, oldest first.
    pub fn intervals(&self) -> &[IntervalRecord] {
        &self.intervals
    }

    /// The speculative (non-definite) intervals, oldest first: the suffix
    /// after the definite prefix.
    pub fn speculative(&self) -> &[IntervalRecord] {
        &self.intervals[self.definite..]
    }

    /// Position of a live interval in the history, oldest first.
    pub(crate) fn position_of(&self, id: IntervalId) -> Option<usize> {
        if id.process() != self.process {
            return None;
        }
        self.search(0, id.index()).ok()
    }

    /// Binary search for interval index `index` among the positions from
    /// `from` on (indices increase along the history): `Ok` with its
    /// position, or `Err` with the position of the first larger index.
    fn search(&self, from: usize, index: u32) -> Result<usize, usize> {
        let mut probes = 0;
        let found = self.intervals[from..].binary_search_by(|r| {
            probes += 1;
            r.id.index().cmp(&index)
        });
        self.visit(probes);
        found.map(|p| from + p).map_err(|p| from + p)
    }

    /// True when a live interval strictly older than position `pos` holds
    /// `y` in its IDO — i.e. this process is already registered with `y`
    /// at a rollback floor at or below `pos`, so acquiring `y` at `pos`
    /// needs no new `Guess` (delta registration, DESIGN.md S7). One
    /// registrant-map lookup: definite intervals hold nothing, and the
    /// registrant is the oldest speculative holder.
    pub(crate) fn held_before(&self, pos: usize, y: &AidId) -> bool {
        self.visit(1);
        self.registrant.get(y).is_some_and(|&r| r < pos)
    }

    /// The youngest (current) interval.
    pub fn current(&self) -> &IntervalRecord {
        self.intervals.last().expect("history never empty")
    }

    /// Looks up a live interval by id.
    pub fn get(&self, id: IntervalId) -> Option<&IntervalRecord> {
        self.position_of(id).map(|pos| &self.intervals[pos])
    }

    /// The oldest speculative interval, if any: the first interval past
    /// the definite prefix.
    pub fn first_speculative(&self) -> Option<&IntervalRecord> {
        self.intervals.get(self.definite)
    }

    /// True if every live interval is definite.
    pub fn fully_definite(&self) -> bool {
        self.definite == self.intervals.len()
    }

    /// The cumulative dependency set of the process right now (the tag to
    /// attach to outgoing messages).
    pub fn current_deps(&self) -> &IdoSet {
        &self.current().ido
    }

    /// Opens a new interval that inherits the current cumulative `IDO`
    /// plus `extra` assumptions. Returns its id; the caller is responsible
    /// for sending `Guess` registrations for the members no older live
    /// interval holds (see [`held_before`](History::held_before)).
    pub fn open_interval(
        &mut self,
        origin: IntervalOrigin,
        extra: impl IntoIterator<Item = AidId>,
    ) -> IntervalId {
        let id = IntervalId::new(self.process, self.next_index);
        self.next_index += 1;
        let pos = self.intervals.len();
        let trigger: IdoSet = extra.into_iter().collect();
        // Inherited members already have an older registrant; only the
        // trigger can name an AID no speculative interval holds yet.
        for &y in trigger.iter() {
            self.registrant.entry(y).or_insert(pos);
        }
        // O(1): large cumulative sets are Arc-shared until a mutation, and
        // an extend that adds nothing keeps the sharing.
        let mut ido = self.current().ido.clone();
        ido.extend(trigger.iter().copied());
        self.intervals.push(IntervalRecord {
            id,
            origin,
            trigger,
            ido,
            udo: IdoSet::new(),
            iha: IdoSet::new(),
            ihd: IdoSet::new(),
            definite: false,
        });
        self.counters
            .max_live_intervals
            .fetch_max(self.speculative().len() as u64, Ordering::Relaxed);
        id
    }

    /// Records a speculative affirm of `aid` in the current interval's
    /// `IHA`, to be sent unconditionally when the interval finalizes.
    pub fn record_affirm(&mut self, aid: AidId) {
        self.current_record().iha.insert(aid);
    }

    /// Buffers a deny of `aid` in the current interval's `IHD` until the
    /// interval finalizes.
    pub fn record_deny(&mut self, aid: AidId) {
        self.current_record().ihd.insert(aid);
    }

    fn current_record(&mut self) -> &mut IntervalRecord {
        self.intervals.last_mut().expect("history never empty")
    }

    /// The interval a rollback with floor `floor` truncates from: the
    /// oldest speculative interval whose index is at least `floor`.
    pub(crate) fn rollback_target(&self, floor: u32) -> Option<IntervalId> {
        let (Ok(pos) | Err(pos)) = self.search(self.definite, floor);
        self.intervals.get(pos).map(|r| r.id)
    }

    /// Applies an AID's `Replace` (Figure 15; Figure 10 without
    /// `cycle_detection`): the `replacement` set substitutes `sender` in
    /// interval `iid` and in every later live interval holding `sender`
    /// (delta registration, DESIGN.md S7). Returns `None` when `iid` is
    /// stale or definite.
    ///
    /// The substitution runs once per *run*: consecutive holders whose
    /// `IDO` and `UDO` are [`same_as`](hope_types::IdSet::same_as) the
    /// run's first interval's would all compute the same result, so they
    /// take a clone of it (DESIGN.md S7, run-wise `Replace`).
    pub(crate) fn replace(
        &mut self,
        iid: IntervalId,
        sender: AidId,
        replacement: &IdoSet,
        cycle_detection: bool,
    ) -> Option<ReplaceOutcome> {
        let target = self.position_of(iid)?;
        if target < self.definite {
            return None;
        }
        let mut out = ReplaceOutcome::default();
        let end = self.intervals.len();
        let mut pos = target;
        while pos < end {
            let rec = &self.intervals[pos];
            let holds = rec.ido.contains(&sender);
            // The registrant applies the substitution unconditionally;
            // later intervals only when they inherited the sender.
            if pos > target && !holds {
                pos += 1;
                continue;
            }
            // Find the run before mutating its first interval, so that
            // uniquely owned sets stay unique and mutate in place. A
            // target without the sender is a run of one: later intervals
            // sharing its sets do not hold the sender either.
            let run_end = if holds {
                let same = |later: &&IntervalRecord| {
                    later.ido.same_as(&rec.ido) && later.udo.same_as(&rec.udo)
                };
                pos + 1 + self.intervals[pos + 1..].iter().take_while(same).count()
            } else {
                pos + 1
            };
            let rec = &mut self.intervals[pos];
            let mut cycles = 0;
            for &y in replacement.iter() {
                if cycle_detection && rec.udo.contains(&y) {
                    // The interval already escaped Y once: this replacement
                    // closes a dependency cycle. Discard it (Figure 15).
                    cycles += 1;
                    continue;
                }
                if !rec.ido.insert(y) {
                    continue;
                }
                let registrant = self.registrant.entry(y).or_insert(pos);
                if *registrant >= pos {
                    // No older interval holds Y: this one becomes its
                    // registrant and owes the AID a `Guess`. Later run
                    // members acquire Y too but now have an older holder.
                    *registrant = pos;
                    out.registrations.push((rec.id, y));
                }
            }
            rec.ido.remove(&sender);
            rec.udo.insert(sender);
            out.cycles_broken += cycles * (run_end - pos) as u64;
            self.counters.substitutions.fetch_add(1, Ordering::Relaxed);
            // A result equal to the predecessor's sets takes its storage,
            // so a suffix that a wave made equal shares one set again. The
            // root is definite, so `pos` always has a predecessor.
            let (prev, rec) = (&self.intervals[pos - 1], &self.intervals[pos]);
            let reshare =
                |set: &IdoSet, prev: &IdoSet| if set == prev { prev } else { set }.clone();
            let (ido, udo) = (reshare(&rec.ido, &prev.ido), reshare(&rec.udo, &prev.udo));
            for member in &mut self.intervals[pos..run_end] {
                member.ido = ido.clone();
                member.udo = udo.clone();
            }
            pos = run_end;
        }
        self.visit((end - target) as u64);
        // No holder of the sender remains at or after the target; it stays
        // registered only through an older holder.
        if self.registrant.get(&sender).is_some_and(|&r| r >= target) {
            self.registrant.remove(&sender);
        }
        Some(out)
    }

    /// Discards interval `id` and every later interval, returning the
    /// discarded records (newest last). Refuses with a typed
    /// [`TruncateError`] distinguishing a stale id
    /// ([`UnknownInterval`](TruncateError::UnknownInterval)) from an
    /// attempt to roll back the definite root interval
    /// ([`RootInterval`](TruncateError::RootInterval)) — the latter can
    /// only come from a protocol bug and must not masquerade as a stale
    /// message.
    ///
    /// Interval indices are *not* reused afterwards, so protocol messages
    /// addressed to discarded intervals are recognizably stale.
    pub fn truncate_from(&mut self, id: IntervalId) -> Result<Vec<IntervalRecord>, TruncateError> {
        let pos = self.position_of(id).ok_or(TruncateError::UnknownInterval)?;
        if pos == 0 {
            return Err(TruncateError::RootInterval);
        }
        self.definite = self.definite.min(pos);
        self.registrant.retain(|_, r| *r < pos);
        Ok(self.intervals.split_off(pos))
    }

    /// Marks every finalizable interval definite, oldest-first: an interval
    /// finalizes when its `IDO` is empty, its predecessor is definite, and
    /// no pending rollback dooms it. Returns the finalized records' ids
    /// along with their drained `IHA`/`IHD` sets (for the finalize
    /// messages of Figure 11). Starts at the definite-prefix cursor.
    pub fn finalize_ready(
        &mut self,
        rollback_floor: Option<u32>,
    ) -> Vec<(IntervalId, IdoSet, IdoSet)> {
        let mut out = Vec::new();
        let mut visited = 0;
        while let Some(rec) = self.intervals.get_mut(self.definite) {
            visited += 1;
            let doomed = rollback_floor.is_some_and(|f| rec.id.index() >= f);
            if doomed || !rec.ido.is_empty() {
                break;
            }
            // An empty IDO holds nothing, so no registrant entry names it.
            rec.definite = true;
            let iha = std::mem::take(&mut rec.iha);
            let ihd = std::mem::take(&mut rec.ihd);
            out.push((rec.id, iha, ihd));
            self.definite += 1;
        }
        self.visit(visited);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(pid(100 + n))
    }

    #[test]
    fn new_history_has_definite_root() {
        let h = History::new(pid(1));
        assert_eq!(h.intervals().len(), 1);
        assert!(h.current().definite);
        assert!(h.current().ido.is_empty());
        assert!(h.fully_definite());
        assert_eq!(h.current().id.index(), 0);
    }

    #[test]
    fn open_interval_inherits_deps() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        assert_eq!(a.index(), 1);
        assert_eq!(h.current().ido.as_slice(), &[aid(1)]);
        let b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 5 }, [aid(2)]);
        assert_eq!(b.index(), 2);
        assert_eq!(h.current().ido.len(), 2, "inherits aid(1) plus aid(2)");
        assert!(!h.fully_definite());
    }

    #[test]
    fn truncate_discards_suffix_and_never_reuses_indices() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let _b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        let dropped = h.truncate_from(a).unwrap();
        assert_eq!(dropped.len(), 2);
        assert_eq!(h.intervals().len(), 1);
        let c = h.open_interval(IntervalOrigin::ExplicitGuess { op: 2 }, [aid(3)]);
        assert_eq!(c.index(), 3, "indices keep increasing after truncation");
        assert!(h.get(a).is_none(), "stale ids do not resolve");
    }

    #[test]
    fn truncate_refuses_root_with_typed_error() {
        let mut h = History::new(pid(1));
        let root = h.current().id;
        assert_eq!(h.truncate_from(root), Err(TruncateError::RootInterval));
    }

    #[test]
    fn truncate_unknown_id_is_distinguishable_from_root_refusal() {
        let mut h = History::new(pid(1));
        assert_eq!(
            h.truncate_from(IntervalId::new(pid(1), 42)),
            Err(TruncateError::UnknownInterval)
        );
    }

    #[test]
    fn open_interval_shares_inherited_ido_storage() {
        let mut h = History::new(pid(1));
        // A cumulative set large enough to live in shared storage.
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, (0..16).map(aid));
        let b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, []);
        let (ra, rb) = (h.get(a).unwrap(), h.get(b).unwrap());
        assert!(
            ra.ido.same_as(&rb.ido),
            "inheritance must be copy-on-write, not a deep clone"
        );
    }

    #[test]
    fn held_before_sees_only_older_live_intervals() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        assert!(h.held_before(2, &aid(1)), "inherited from interval a");
        assert!(!h.held_before(1, &aid(2)), "aid(2) only appears later");
        assert!(!h.held_before(0, &aid(1)), "nothing precedes the root");
        // A definite interval's registration is spent: it no longer counts.
        h.replace(a, aid(1), &IdoSet::new(), true).unwrap();
        assert_eq!(h.finalize_ready(None).len(), 1);
        assert!(h.get(a).unwrap().definite);
        assert!(!h.held_before(2, &aid(1)));
    }

    #[test]
    fn finalize_ready_in_order_only() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        // Empty b's IDO but not a's: nothing may finalize (predecessor rule).
        h.replace(b, aid(1), &IdoSet::new(), true).unwrap();
        h.replace(b, aid(2), &IdoSet::new(), true).unwrap();
        assert!(h.get(b).unwrap().ido.is_empty());
        assert!(h.finalize_ready(None).is_empty());
        // Now empty a's too: both finalize, oldest first.
        h.replace(a, aid(1), &IdoSet::new(), true).unwrap();
        let done = h.finalize_ready(None);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, a);
        assert_eq!(done[1].0, b);
        assert!(h.fully_definite());
    }

    #[test]
    fn finalize_respects_rollback_floor() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        h.replace(a, aid(1), &IdoSet::new(), true).unwrap();
        // A pending rollback at or below a's index dooms it.
        assert!(h.finalize_ready(Some(a.index())).is_empty());
        assert_eq!(h.finalize_ready(None).len(), 1);
    }

    #[test]
    fn finalize_drains_iha_ihd() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        h.record_affirm(aid(5));
        h.record_deny(aid(6));
        h.replace(a, aid(1), &IdoSet::new(), true).unwrap();
        let done = h.finalize_ready(None);
        assert_eq!(done.len(), 1);
        let (_, iha, ihd) = &done[0];
        assert!(iha.contains(&aid(5)));
        assert!(ihd.contains(&aid(6)));
        assert!(h.get(a).unwrap().iha.is_empty(), "sets drained");
    }

    #[test]
    fn lookups_under_deep_speculation_visit_constant_records() {
        const LATER: usize = 4096;
        let mut h = History::new(pid(1));
        let oldest = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(0)]);
        let second = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(1)]);
        for op in 2..LATER {
            h.open_interval(IntervalOrigin::ImplicitReceive { op }, [aid(op as u64)]);
        }
        // Release aid(0) everywhere but the oldest interval: it is then
        // held only at the bottom of 4k later speculative intervals, the
        // worst case of a newest-first scan.
        h.replace(second, aid(0), &IdoSet::new(), true).unwrap();
        assert!(h.intervals()[2..].iter().all(|r| !r.ido.contains(&aid(0))));
        let top = h.intervals().len();
        let visited = || h.counters().records_visited.load(Ordering::Relaxed);
        for y in [aid(0), aid(1), aid(LATER as u64 + 7)] {
            let before = visited();
            let naive = h.intervals()[..top]
                .iter()
                .any(|r| !r.definite && r.ido.contains(&y));
            assert_eq!(h.held_before(top, &y), naive);
            assert_eq!(visited() - before, 1, "one registrant-map lookup");
        }
        let before = visited();
        assert_eq!(h.get(oldest).map(|r| r.id), Some(oldest));
        let probes = visited() - before;
        assert!(probes <= 14, "binary search, not a scan: {probes} probes");
        assert_eq!(
            h.counters().max_live_intervals.load(Ordering::Relaxed),
            LATER as u64
        );
    }

    /// The unindexed history the index must agree with: a plain record
    /// list driven by the linear scans the index replaces.
    struct NaiveHistory {
        intervals: Vec<IntervalRecord>,
        next_index: u32,
    }

    impl NaiveHistory {
        fn new(process: ProcessId) -> Self {
            NaiveHistory {
                intervals: vec![IntervalRecord::root(process)],
                next_index: 1,
            }
        }

        fn held_before(&self, pos: usize, y: &AidId) -> bool {
            self.intervals[..pos]
                .iter()
                .any(|r| !r.definite && r.ido.contains(y))
        }

        fn position_of(&self, id: IntervalId) -> Option<usize> {
            self.intervals.iter().position(|r| r.id == id)
        }

        fn open(&mut self, process: ProcessId, trigger: &[AidId]) {
            let trigger: IdoSet = trigger.iter().copied().collect();
            let mut ido = self.intervals.last().unwrap().ido.clone();
            ido.extend(trigger.iter().copied());
            self.intervals.push(IntervalRecord {
                id: IntervalId::new(process, self.next_index),
                origin: IntervalOrigin::ExplicitGuess { op: 0 },
                trigger,
                ido,
                udo: IdoSet::new(),
                iha: IdoSet::new(),
                ihd: IdoSet::new(),
                definite: false,
            });
            self.next_index += 1;
        }

        fn replace(
            &mut self,
            iid: IntervalId,
            sender: AidId,
            replacement: &IdoSet,
            cycle_detection: bool,
        ) -> Option<(Vec<(IntervalId, AidId)>, u64)> {
            let target = self.position_of(iid)?;
            if self.intervals[target].definite {
                return None;
            }
            let (mut registrations, mut cycles) = (Vec::new(), 0);
            for pos in target..self.intervals.len() {
                let rec = &self.intervals[pos];
                if rec.definite || (pos > target && !rec.ido.contains(&sender)) {
                    continue;
                }
                for &y in replacement.iter() {
                    let rec = &self.intervals[pos];
                    if cycle_detection && rec.udo.contains(&y) {
                        cycles += 1;
                        continue;
                    }
                    if rec.ido.contains(&y) {
                        continue;
                    }
                    if !self.held_before(pos, &y) {
                        registrations.push((rec.id, y));
                    }
                    self.intervals[pos].ido.insert(y);
                }
                let rec = &mut self.intervals[pos];
                rec.ido.remove(&sender);
                rec.udo.insert(sender);
            }
            Some((registrations, cycles))
        }

        fn truncate(&mut self, id: IntervalId) -> Result<usize, TruncateError> {
            let pos = self.position_of(id).ok_or(TruncateError::UnknownInterval)?;
            if pos == 0 {
                return Err(TruncateError::RootInterval);
            }
            Ok(self.intervals.split_off(pos).len())
        }

        fn finalize(&mut self, floor: Option<u32>) -> Vec<IntervalId> {
            let mut out = Vec::new();
            let mut prev_definite = true;
            for rec in &mut self.intervals {
                if rec.definite {
                    prev_definite = true;
                    continue;
                }
                let doomed = floor.is_some_and(|f| rec.id.index() >= f);
                if !prev_definite || doomed || !rec.ido.is_empty() {
                    break;
                }
                rec.definite = true;
                out.push(rec.id);
            }
            out
        }
    }

    /// Every indexed lookup agrees with the naive scan over the same
    /// records, for every position, AID and interval index in range.
    fn assert_index_matches(h: &History, naive: &NaiveHistory, universe: u64) {
        assert_eq!(h.intervals(), naive.intervals.as_slice());
        for pos in 0..=h.intervals().len() {
            for y in (0..universe).map(aid) {
                assert_eq!(
                    h.held_before(pos, &y),
                    naive.held_before(pos, &y),
                    "held_before({pos}, {y:?})"
                );
            }
        }
        for index in 0..=naive.next_index {
            for owner in [pid(1), pid(2)] {
                let id = IntervalId::new(owner, index);
                assert_eq!(h.position_of(id), naive.position_of(id), "{id}");
                assert_eq!(
                    h.get(id),
                    naive.position_of(id).map(|p| &naive.intervals[p])
                );
            }
        }
        let first_spec = naive.intervals.iter().position(|r| !r.definite);
        assert_eq!(
            h.first_speculative(),
            first_spec.map(|p| &naive.intervals[p])
        );
        assert_eq!(h.fully_definite(), first_spec.is_none());
        assert!(
            h.speculative().iter().all(|r| !r.definite),
            "definite intervals form a prefix"
        );
        for floor in 0..=naive.next_index {
            let expected = naive
                .intervals
                .iter()
                .find(|r| r.id.index() >= floor && !r.definite)
                .map(|r| r.id);
            assert_eq!(h.rollback_target(floor), expected, "floor {floor}");
        }
    }

    /// One random step applied to both histories: `(kind, pick, sender,
    /// set, flag)`. Kinds 0–3 open with `set` as trigger, 4–6 replace
    /// `sender` by `set` (empty: a release), 7 truncates, 8–9 finalize,
    /// and 10 and above open with an empty trigger, the step that grows
    /// long runs of intervals sharing one set.
    type Step = (u8, u8, u8, Vec<u8>, bool);

    fn apply_step(h: &mut History, naive: &mut NaiveHistory, step: Step) {
        let (kind, pick, sender, set, flag) = step;
        let set: Vec<AidId> = set.into_iter().map(u64::from).map(aid).collect();
        // Any index up to one past the newest: live, discarded and
        // never-issued ids alike.
        let id = IntervalId::new(pid(1), u32::from(pick) % (naive.next_index + 1));
        match kind {
            // Open: an explicit guess or a tagged receive.
            0..=3 => {
                h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, set.iter().copied());
                naive.open(pid(1), &set);
            }
            // Acquire (non-empty replacement) or release (empty).
            4..=6 => {
                let replacement: IdoSet = set.iter().copied().collect();
                let sender = aid(u64::from(sender));
                let indexed = h
                    .replace(id, sender, &replacement, flag)
                    .map(|o| (o.registrations, o.cycles_broken));
                assert_eq!(indexed, naive.replace(id, sender, &replacement, flag));
            }
            7 => {
                let indexed = h.truncate_from(id).map(|d| d.len());
                assert_eq!(indexed, naive.truncate(id));
            }
            8 | 9 => {
                let floor = flag.then_some(id.index());
                let indexed: Vec<IntervalId> = h
                    .finalize_ready(floor)
                    .into_iter()
                    .map(|(i, _, _)| i)
                    .collect();
                assert_eq!(indexed, naive.finalize(floor));
            }
            _ => {
                h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, []);
                naive.open(pid(1), &[]);
            }
        }
    }

    const UNIVERSE: u64 = 6;
    /// Enough AIDs, and large enough sets, that most dependency sets
    /// leave the inline tier for shared storage.
    const WIDE_UNIVERSE: u64 = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn index_agrees_with_naive_scans(
            steps in proptest::collection::vec(
                (
                    0u8..10,
                    any::<u8>(),
                    0u8..UNIVERSE as u8,
                    proptest::collection::vec(0u8..UNIVERSE as u8, 0..3),
                    any::<bool>(),
                ),
                1..48,
            )
        ) {
            let mut h = History::new(pid(1));
            let mut naive = NaiveHistory::new(pid(1));
            for step in steps {
                apply_step(&mut h, &mut naive, step);
                assert_index_matches(&h, &naive, UNIVERSE + 1);
            }
        }

        /// Run-wise `Replace` against the per-holder reference, with
        /// shared-storage sets and long runs of empty-trigger opens: after
        /// every step the records, registrations and `cycles_broken` (both
        /// checked in `apply_step`) and every index lookup agree.
        #[test]
        fn runwise_replace_agrees_with_per_holder_reference(
            steps in proptest::collection::vec(
                (
                    0u8..14,
                    any::<u8>(),
                    0u8..WIDE_UNIVERSE as u8,
                    proptest::collection::vec(0u8..WIDE_UNIVERSE as u8, 0..9),
                    any::<bool>(),
                ),
                1..64,
            )
        ) {
            let mut h = History::new(pid(1));
            let mut naive = NaiveHistory::new(pid(1));
            for step in steps {
                apply_step(&mut h, &mut naive, step);
                assert_index_matches(&h, &naive, WIDE_UNIVERSE + 1);
            }
        }
    }

    fn substitutions(h: &History) -> u64 {
        h.counters().substitutions.load(Ordering::Relaxed)
    }

    #[test]
    fn target_without_sender_leaves_successors_sharing_its_sets_unchanged() {
        let mut h = History::new(pid(1));
        let mut naive = NaiveHistory::new(pid(1));
        let deps: Vec<AidId> = (0..6).map(aid).collect();
        let target = h.open_interval(
            IntervalOrigin::ExplicitGuess { op: 0 },
            deps.iter().copied(),
        );
        naive.open(pid(1), &deps);
        for _ in 0..3 {
            h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, []);
            naive.open(pid(1), &[]);
        }
        let records = h.intervals();
        assert!(records[2..].iter().all(|r| r.ido.same_as(&records[1].ido)));
        let successors = records[2..].to_vec();
        // The target does not hold aid(9), and neither do the successors
        // sharing its IDO: only the target is substituted.
        let replacement: IdoSet = [aid(7), aid(8)].into_iter().collect();
        let out = h.replace(target, aid(9), &replacement, true).unwrap();
        assert_eq!(
            Some((out.registrations, out.cycles_broken)),
            naive.replace(target, aid(9), &replacement, true)
        );
        assert_eq!(h.intervals(), naive.intervals.as_slice());
        assert!(h.intervals()[1].ido.contains(&aid(7)));
        assert_eq!(&h.intervals()[2..], successors.as_slice());
        assert_eq!(substitutions(&h), 1);
    }

    /// The runs a `Replace` of `sender` at a `target` holding it meets:
    /// maximal groups of consecutive holders with equal `IDO` and `UDO`,
    /// counted on the per-holder reference.
    fn value_runs(naive: &NaiveHistory, target: usize, sender: &AidId) -> u64 {
        let mut runs = 0;
        let mut prev: Option<&IntervalRecord> = None;
        for (pos, rec) in naive.intervals.iter().enumerate().skip(target) {
            if pos > target && !rec.ido.contains(sender) {
                prev = None;
                continue;
            }
            if !prev.is_some_and(|p| p.ido == rec.ido && p.udo == rec.udo) {
                runs += 1;
            }
            prev = Some(rec);
        }
        runs
    }

    #[test]
    fn stream_wave_substitutes_once_per_run_and_reshares_the_suffix() {
        // The perfbench `stream` shape: 64 guesses spread over 2048
        // tagged receives, then one `Replace` per assumption substituting
        // the same set.
        const GUESSES: u64 = 64;
        const OPENS: u64 = 2048;
        let mut h = History::new(pid(1));
        let mut naive = NaiveHistory::new(pid(1));
        let stride = OPENS / GUESSES;
        for op in 0..OPENS {
            let trigger: Vec<AidId> = (op % stride == 0)
                .then(|| aid(op / stride))
                .into_iter()
                .collect();
            h.open_interval(
                IntervalOrigin::ExplicitGuess { op: 0 },
                trigger.iter().copied(),
            );
            naive.open(pid(1), &trigger);
        }
        let replacement: IdoSet = (100..108).map(aid).collect();
        let mut runs = 0;
        for sender in (0..GUESSES).map(aid) {
            let target = naive
                .intervals
                .iter()
                .position(|r| r.ido.contains(&sender))
                .unwrap();
            runs += value_runs(&naive, target, &sender);
            let iid = naive.intervals[target].id;
            let out = h.replace(iid, sender, &replacement, true).unwrap();
            assert_eq!(
                Some((out.registrations, out.cycles_broken)),
                naive.replace(iid, sender, &replacement, true)
            );
            assert_eq!(h.intervals(), naive.intervals.as_slice());
        }
        assert_eq!(substitutions(&h), runs);
        assert_eq!(
            runs,
            (1..=GUESSES).sum::<u64>(),
            "64 - k runs hold the k-th AID"
        );
        let holders = &h.intervals()[1..];
        assert!(
            holders.iter().all(|r| r.ido.same_as(&holders[0].ido)),
            "the wave made every IDO equal: they share one storage again"
        );
    }

    #[test]
    fn current_deps_is_cumulative_tag() {
        let mut h = History::new(pid(1));
        assert!(h.current_deps().is_empty());
        h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1), aid(2)]);
        assert_eq!(h.current_deps().len(), 2);
    }
}
