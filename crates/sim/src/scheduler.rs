//! Warp schedulers: GTO, LRR, Two-Level (TL), and Fetch-Group.
//!
//! Each SM has `num_schedulers` scheduler instances; warp slot `s` belongs
//! to scheduler `s % num_schedulers` (the usual striped assignment). Every
//! cycle the SM asks each scheduler for the order of its candidates, a
//! [`Walk`], and issues to the first ready warps. The SM lends each
//! scheduler its live warps in age order and its per-slot issue masks as a
//! [`WarpSet`] (see [`WarpScheduler::prioritize`]).

use std::collections::VecDeque;
use std::fmt;

use crate::config::SchedulerPolicy;

/// A set of warp slots, one bit per slot in `u64` words. The SM sizes its
/// masks once from `max_warps_per_sm`, so updates never allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMask {
    words: Vec<u64>,
}

impl SlotMask {
    /// An empty set over `slots` warp slots.
    pub fn new(slots: usize) -> Self {
        SlotMask {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Adds `slot` to the set (`on`) or removes it.
    pub fn set(&mut self, slot: usize, on: bool) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if on {
            self.words[word] |= bit;
        } else {
            self.words[word] &= !bit;
        }
    }

    /// True when `slot` is in the set.
    pub fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// True when no slot is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The set as `u64` words, slot `s` at bit `s % 64` of word `s / 64`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The lowest slot in `from..end` that is in both `self` and `other`.
    fn first_common(&self, other: &SlotMask, from: usize, end: usize) -> Option<usize> {
        let end = end.min(self.words.len() * 64);
        let mut word = from / 64;
        let mut from_bit = !0u64 << (from % 64);
        while word * 64 < end {
            let bits = self.words[word] & other.words[word] & from_bit;
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            word += 1;
            from_bit = !0;
        }
        None
    }
}

/// The slots set in one mask word, ascending.
struct SetBits {
    bits: u64,
    base: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let slot = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(slot)
    }
}

/// What a scheduler reads on its turn, borrowed from the SM: its own live
/// warps in age order and the SM's issue masks. The masks cover every
/// warp slot of the SM and are kept current by the SM at the events that
/// change them, so a turn builds nothing per warp.
#[derive(Debug, Clone, Copy)]
pub struct WarpSet<'a> {
    /// This scheduler's live warps oldest first, as `(dispatch_cycle,
    /// slot)`: by the cycle the warp became resident, then by slot.
    pub ages: &'a [(u64, usize)],
    /// The warp slots this scheduler owns.
    pub owned: &'a SlotMask,
    /// Live warps that are eligible (not at a barrier) and not blocked by
    /// their scoreboard.
    pub issuable: &'a SlotMask,
    /// Resident warps with lanes left to run, barrier-blocked ones
    /// included.
    pub live: &'a SlotMask,
    /// Live warps whose next instruction is blocked by the scoreboard
    /// while they have loads outstanding: the two-level demotion trigger
    /// and the fetch-group rotation trigger. Barrier-blocked warps keep
    /// their next instruction, so they can be in this set too.
    pub long_latency: &'a SlotMask,
    /// Live warps waiting at a CTA barrier — also a two-level demotion
    /// trigger (a barrier-blocked warp must not pin an active-pool slot,
    /// or the warps that could release it never get promoted).
    pub barrier: &'a SlotMask,
}

impl<'a> WarpSet<'a> {
    /// The slots of `mask` this scheduler owns, in slot order.
    pub fn owned_in(&self, mask: &'a SlotMask) -> impl Iterator<Item = usize> + 'a {
        let words = mask.words.iter().zip(&self.owned.words).enumerate();
        words.flat_map(|(word, (&bits, &mine))| SetBits {
            bits: bits & mine,
            base: word * 64,
        })
    }
}

/// The order in which the SM tries a scheduler's warps on one turn, named
/// by [`WarpScheduler::prioritize`] and walked on demand: the SM asks for
/// one candidate at a time ([`Walk::next`]) with the masks as they stand
/// at that moment, and stops once the scheduler's issue width is used.
///
/// An on-demand walk (every form but [`Walk::List`]) yields only warps
/// whose `issuable` bit is set when they are reached. That is the order a
/// list built at the start of the turn and then filtered by the live mask
/// would give, because no warp's bit goes from clear to set during an
/// issue stage: issuing changes only the issuing warp, and each warp is
/// reached at most once per turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// The list `prioritize` filled, from entry `next` on.
    List {
        /// The next list entry to yield.
        next: usize,
    },
    /// GTO: the turn's greedy warp first, then the scheduler's live warps
    /// oldest first, the greedy warp left out.
    Oldest {
        /// The greedy warp when the turn began. Issuing moves the
        /// scheduler's greedy warp, but not this turn's.
        greedy: Option<usize>,
        /// The greedy warp is still to be tried.
        greedy_pending: bool,
        /// The next entry of the age order to look at.
        at: usize,
        /// The warp last yielded from the age order, at entry `at - 1`.
        /// If its last lane exited since, it left the age order and the
        /// entries after it moved down one.
        last: Option<usize>,
    },
    /// LRR: the scheduler's slots in slot order, from `from` up to `end`,
    /// then from 0 up to `wrap`.
    Slots {
        /// The next slot to look at.
        from: usize,
        /// Where the current run of slots ends (exclusive).
        end: usize,
        /// Where the wrapped run ends; 0 once it has begun, or when the
        /// walk began at slot 0.
        wrap: usize,
    },
}

impl Walk {
    /// The list `prioritize` filled, in order.
    pub fn list() -> Self {
        Walk::List { next: 0 }
    }

    /// `greedy` first, then the live warps oldest first.
    pub fn greedy_then_oldest(greedy: Option<usize>) -> Self {
        Walk::Oldest {
            greedy,
            greedy_pending: true,
            at: 0,
            last: None,
        }
    }

    /// The slots after `last` in slot order, wrapping round to `last`.
    pub fn after(last: Option<usize>) -> Self {
        let start = last.map_or(0, |slot| slot + 1);
        Walk::Slots {
            from: start,
            end: usize::MAX,
            wrap: start,
        }
    }

    /// True for [`Walk::List`], the one form whose `prioritize` may change
    /// scheduler state or emit events.
    pub fn is_list(&self) -> bool {
        matches!(self, Walk::List { .. })
    }

    /// The next candidate: from `list` for [`Walk::List`], else the next
    /// warp of the walk that `warps.issuable` holds now.
    pub fn next(&mut self, list: &[usize], warps: &WarpSet<'_>) -> Option<usize> {
        match self {
            Walk::List { next } => {
                let slot = *list.get(*next)?;
                *next += 1;
                Some(slot)
            }
            Walk::Oldest {
                greedy,
                greedy_pending,
                at,
                last,
            } => {
                if std::mem::take(greedy_pending) {
                    if let Some(g) = *greedy {
                        if warps.issuable.contains(g) {
                            return Some(g);
                        }
                    }
                }
                if let Some(slot) = last.take() {
                    if warps.ages.get(*at - 1).is_none_or(|&(_, s)| s != slot) {
                        *at -= 1;
                    }
                }
                while let Some(&(_, slot)) = warps.ages.get(*at) {
                    *at += 1;
                    if warps.issuable.contains(slot) && Some(slot) != *greedy {
                        *last = Some(slot);
                        return Some(slot);
                    }
                }
                None
            }
            Walk::Slots { from, end, wrap } => loop {
                if let Some(slot) = warps.issuable.first_common(warps.owned, *from, *end) {
                    *from = slot + 1;
                    return Some(slot);
                }
                if *wrap == 0 {
                    return None;
                }
                (*from, *end, *wrap) = (0, *wrap, 0);
            },
        }
    }
}

/// Events a scheduler can emit for the SM to act on (e.g. the RFC must
/// flush entries of warps demoted from the active pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// A warp was demoted from the active pool.
    Deactivated {
        /// The demoted warp's slot.
        slot: usize,
    },
}

/// A warp scheduler for one scheduler lane of an SM.
///
/// `Send` is a supertrait so whole simulations (SMs own their schedulers)
/// can move to worker threads of the parallel experiment engine.
pub trait WarpScheduler: fmt::Debug + Send {
    /// Names the order of this turn's candidates. The SM walks it on
    /// demand (see [`Walk`]) and issues to the ready warps.
    ///
    /// `warps` lends the scheduler its live warps in age order and the
    /// SM's slot masks (see [`WarpSet`]); a policy reads only what it
    /// needs. GTO and LRR read nothing and fill no list: they return
    /// [`Walk::greedy_then_oldest`] and [`Walk::after`] from their own
    /// state, so their `prioritize` changes no state and emits no events.
    /// Two-level and fetch-group fill `out` in priority order and return
    /// [`Walk::list`]: two-level tests only its active pool against the
    /// masks, and fetch-group takes its live slots in slot order, so
    /// neither sorts.
    fn prioritize(&mut self, warps: &WarpSet<'_>, cycle: u64, out: &mut Vec<usize>) -> Walk;

    /// Notifies the scheduler that `slot` issued an instruction.
    fn on_issue(&mut self, slot: usize, cycle: u64);

    /// Notifies the scheduler that a warp became resident.
    fn on_warp_start(&mut self, slot: usize);

    /// Notifies the scheduler that a warp finished.
    fn on_warp_finish(&mut self, slot: usize);

    /// Drains pending events (pool demotions).
    fn drain_events(&mut self, out: &mut Vec<SchedulerEvent>) {
        let _ = out;
    }

    /// Policy name.
    fn name(&self) -> &'static str;
}

/// Builds the scheduler instance for one scheduler lane.
pub fn build_scheduler(policy: SchedulerPolicy) -> Box<dyn WarpScheduler> {
    match policy {
        SchedulerPolicy::Gto => Box::new(GtoScheduler::new()),
        SchedulerPolicy::Lrr => Box::new(LrrScheduler::new()),
        SchedulerPolicy::TwoLevel {
            active_per_scheduler,
        } => Box::new(TwoLevelScheduler::new(active_per_scheduler)),
        SchedulerPolicy::FetchGroup { group_size } => {
            Box::new(FetchGroupScheduler::new(group_size))
        }
    }
}

// ---------------------------------------------------------------------
// GTO
// ---------------------------------------------------------------------

/// Greedy-then-oldest: keep issuing from the last-issued warp; when it
/// cannot issue, fall back to the oldest (earliest-dispatched) warp.
#[derive(Debug, Default)]
pub struct GtoScheduler {
    greedy: Option<usize>,
}

impl GtoScheduler {
    /// New GTO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for GtoScheduler {
    fn prioritize(&mut self, _warps: &WarpSet<'_>, _cycle: u64, _out: &mut Vec<usize>) -> Walk {
        Walk::greedy_then_oldest(self.greedy)
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        self.greedy = Some(slot);
    }

    fn on_warp_start(&mut self, _slot: usize) {}

    fn on_warp_finish(&mut self, slot: usize) {
        if self.greedy == Some(slot) {
            self.greedy = None;
        }
    }

    fn name(&self) -> &'static str {
        "GTO"
    }
}

// ---------------------------------------------------------------------
// LRR
// ---------------------------------------------------------------------

/// Loose round-robin: rotate priority one past the last issued warp.
#[derive(Debug, Default)]
pub struct LrrScheduler {
    last: Option<usize>,
}

impl LrrScheduler {
    /// New LRR scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for LrrScheduler {
    fn prioritize(&mut self, _warps: &WarpSet<'_>, _cycle: u64, _out: &mut Vec<usize>) -> Walk {
        Walk::after(self.last)
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        self.last = Some(slot);
    }

    fn on_warp_start(&mut self, _slot: usize) {}

    fn on_warp_finish(&mut self, _slot: usize) {}

    fn name(&self) -> &'static str {
        "LRR"
    }
}

// ---------------------------------------------------------------------
// Two-level
// ---------------------------------------------------------------------

/// Two-level scheduler (Gebhart et al., ISCA 2011).
///
/// A bounded *active pool* of warps competes for issue (round-robin); all
/// other resident warps wait in a pending queue. When an active warp is
/// blocked on a long-latency operation it is demoted and the head of the
/// pending queue promoted. Demotion events are exported so the RFC model
/// can flush the demoted warp's cache entries — the key interaction that
/// makes a small RFC viable in the original paper.
#[derive(Debug)]
pub struct TwoLevelScheduler {
    active_size: usize,
    active: Vec<usize>,
    pending: VecDeque<usize>,
    rr: usize,
    events: Vec<SchedulerEvent>,
}

impl TwoLevelScheduler {
    /// New two-level scheduler with the given active-pool capacity.
    pub fn new(active_size: usize) -> Self {
        TwoLevelScheduler {
            active_size: active_size.max(1),
            active: Vec::new(),
            pending: VecDeque::new(),
            rr: 0,
            events: Vec::new(),
        }
    }

    /// Current active pool (for tests/inspection).
    pub fn active_pool(&self) -> &[usize] {
        &self.active
    }

    fn promote(&mut self) {
        while self.active.len() < self.active_size {
            match self.pending.pop_front() {
                Some(s) => self.active.push(s),
                None => break,
            }
        }
    }
}

impl WarpScheduler for TwoLevelScheduler {
    fn prioritize(&mut self, warps: &WarpSet<'_>, _cycle: u64, out: &mut Vec<usize>) -> Walk {
        out.clear();
        // Demote blocked active warps; drop those no longer live.
        let mut i = 0;
        while i < self.active.len() {
            let slot = self.active[i];
            let live = warps.live.contains(slot);
            if live && !warps.long_latency.contains(slot) && !warps.barrier.contains(slot) {
                i += 1;
                continue;
            }
            self.active.remove(i);
            if live {
                self.pending.push_back(slot);
                self.events.push(SchedulerEvent::Deactivated { slot });
            }
        }
        self.promote();
        if self.active.is_empty() {
            return Walk::list();
        }
        // Round-robin within the active pool.
        let n = self.active.len();
        let start = self.rr % n;
        out.extend(
            self.active[start..]
                .iter()
                .chain(self.active[..start].iter()),
        );
        Walk::list()
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        if let Some(pos) = self.active.iter().position(|&s| s == slot) {
            self.rr = (pos + 1) % self.active.len().max(1);
        }
    }

    fn on_warp_start(&mut self, slot: usize) {
        if self.active.len() < self.active_size {
            self.active.push(slot);
        } else {
            self.pending.push_back(slot);
        }
    }

    fn on_warp_finish(&mut self, slot: usize) {
        self.active.retain(|&s| s != slot);
        self.pending.retain(|&s| s != slot);
        self.promote();
    }

    fn drain_events(&mut self, out: &mut Vec<SchedulerEvent>) {
        out.append(&mut self.events);
    }

    fn name(&self) -> &'static str {
        "TL"
    }
}

// ---------------------------------------------------------------------
// Fetch-group
// ---------------------------------------------------------------------

/// Fetch-group scheduling (Narasiman et al., MICRO 2011): warps are grouped
/// by slot; the current group has priority until all of its warps are
/// blocked, then priority rotates to the next group.
#[derive(Debug)]
pub struct FetchGroupScheduler {
    group_size: usize,
    current_group: usize,
}

impl FetchGroupScheduler {
    /// New fetch-group scheduler with the given warps-per-group.
    pub fn new(group_size: usize) -> Self {
        FetchGroupScheduler {
            group_size: group_size.max(1),
            current_group: 0,
        }
    }
}

impl WarpScheduler for FetchGroupScheduler {
    fn prioritize(&mut self, warps: &WarpSet<'_>, _cycle: u64, out: &mut Vec<usize>) -> Walk {
        out.clear();
        // Group g is the g-th run of `group_size` live slots in slot order.
        out.extend(warps.owned_in(warps.live));
        if out.is_empty() {
            return Walk::list();
        }
        let num_groups = out.len().div_ceil(self.group_size);
        let cur = self.current_group % num_groups;
        // If every warp of the current group is long-latency blocked, rotate.
        let cur_blocked = out[cur * self.group_size..]
            .iter()
            .take(self.group_size)
            .all(|&slot| warps.long_latency.contains(slot));
        if cur_blocked {
            self.current_group = (cur + 1) % num_groups;
        }
        // The current group first, then the following ones, wrapping.
        out.rotate_left((self.current_group % num_groups) * self.group_size);
        Walk::list()
    }

    fn on_issue(&mut self, _slot: usize, _cycle: u64) {}

    fn on_warp_start(&mut self, _slot: usize) {}

    fn on_warp_finish(&mut self, _slot: usize) {}

    fn name(&self) -> &'static str {
        "FG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How a test warp stands for issue.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        /// Eligible and not blocked.
        Ready,
        /// Blocked by its scoreboard on a register of no outstanding load.
        AluBlocked,
        /// Blocked by its scoreboard with loads outstanding.
        MemBlocked,
        /// Waiting at a barrier.
        Barrier,
        /// Waiting at a barrier, its next instruction blocked with loads
        /// outstanding.
        BarrierMem,
    }

    /// Owned storage behind a test [`WarpSet`]: one scheduler owning all
    /// 64 slots of an SM.
    struct Masks {
        ages: Vec<(u64, usize)>,
        owned: SlotMask,
        issuable: SlotMask,
        live: SlotMask,
        long_latency: SlotMask,
        barrier: SlotMask,
    }

    impl Masks {
        /// Live warps oldest first, with their states.
        fn new(warps: &[(usize, State)]) -> Self {
            let mut m = Masks {
                ages: Vec::new(),
                owned: SlotMask::new(64),
                issuable: SlotMask::new(64),
                live: SlotMask::new(64),
                long_latency: SlotMask::new(64),
                barrier: SlotMask::new(64),
            };
            for slot in 0..64 {
                m.owned.set(slot, true);
            }
            for (age, &(slot, state)) in warps.iter().enumerate() {
                m.ages.push((age as u64, slot));
                m.live.set(slot, true);
                m.issuable.set(slot, state == State::Ready);
                m.long_latency
                    .set(slot, matches!(state, State::MemBlocked | State::BarrierMem));
                m.barrier
                    .set(slot, matches!(state, State::Barrier | State::BarrierMem));
            }
            m
        }

        /// Live warps oldest first; `true` marks a memory-blocked one.
        fn mem(warps: &[(usize, bool)]) -> Self {
            let states: Vec<(usize, State)> = warps
                .iter()
                .map(|&(slot, mem)| (slot, if mem { State::MemBlocked } else { State::Ready }))
                .collect();
            Self::new(&states)
        }

        fn set(&self) -> WarpSet<'_> {
            WarpSet {
                ages: &self.ages,
                owned: &self.owned,
                issuable: &self.issuable,
                live: &self.live,
                long_latency: &self.long_latency,
                barrier: &self.barrier,
            }
        }
    }

    /// Every candidate `walk` yields while the masks stay as they are.
    fn drain(mut walk: Walk, list: &[usize], warps: &WarpSet<'_>) -> Vec<usize> {
        std::iter::from_fn(|| walk.next(list, warps)).collect()
    }

    /// The candidates of one turn of `s`, in order, with no warp issuing.
    fn order(s: &mut dyn WarpScheduler, warps: &WarpSet<'_>, cycle: u64) -> Vec<usize> {
        let mut list = Vec::new();
        let walk = s.prioritize(warps, cycle, &mut list);
        drain(walk, &list, warps)
    }

    #[test]
    fn owned_slots_come_in_slot_order_across_words() {
        let mut owned = SlotMask::new(130);
        let mut mask = SlotMask::new(130);
        for slot in (1..130).step_by(2) {
            owned.set(slot, true);
        }
        for slot in [129, 3, 64, 65, 2, 127, 63] {
            mask.set(slot, true);
        }
        let empty = SlotMask::new(130);
        let set = WarpSet {
            ages: &[],
            owned: &owned,
            issuable: &empty,
            live: &empty,
            long_latency: &empty,
            barrier: &empty,
        };
        assert_eq!(
            set.owned_in(&mask).collect::<Vec<_>>(),
            vec![3, 63, 65, 127, 129]
        );
        assert!(empty.is_empty() && !mask.is_empty());
    }

    #[test]
    fn gto_prefers_greedy_then_oldest() {
        let mut s = GtoScheduler::new();
        // Warps in age order: slot 4 is the oldest warp, slot 0 the
        // youngest.
        let m = Masks::mem(&[(4, false), (8, false), (0, false)]);
        // No greedy yet: oldest first.
        assert_eq!(order(&mut s, &m.set(), 0), vec![4, 8, 0]);
        s.on_issue(8, 1);
        assert_eq!(order(&mut s, &m.set(), 2), vec![8, 4, 0]);
        s.on_warp_finish(8);
        assert_eq!(order(&mut s, &m.set(), 3)[0], 4);
    }

    #[test]
    fn lrr_rotates_past_last_issued() {
        let mut s = LrrScheduler::new();
        let m = Masks::mem(&[(0, false), (4, false), (8, false)]);
        assert_eq!(order(&mut s, &m.set(), 0), vec![0, 4, 8]);
        s.on_issue(0, 0);
        assert_eq!(order(&mut s, &m.set(), 1), vec![4, 8, 0]);
        s.on_issue(8, 1);
        assert_eq!(order(&mut s, &m.set(), 2), vec![0, 4, 8]);
    }

    #[test]
    fn two_level_caps_active_pool() {
        let mut s = TwoLevelScheduler::new(2);
        for slot in [0, 4, 8, 12] {
            s.on_warp_start(slot);
        }
        assert_eq!(s.active_pool(), &[0, 4]);
        let m = Masks::mem(&[(0, false), (4, false), (8, false), (12, false)]);
        let mut out = Vec::new();
        s.prioritize(&m.set(), 0, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&0) && out.contains(&4));
    }

    #[test]
    fn two_level_demotes_blocked_warps_and_emits_event() {
        let mut s = TwoLevelScheduler::new(2);
        for slot in [0, 4, 8] {
            s.on_warp_start(slot);
        }
        // Warp 0 blocks on memory.
        let m = Masks::mem(&[(0, true), (4, false), (8, false)]);
        let mut out = Vec::new();
        s.prioritize(&m.set(), 0, &mut out);
        assert!(!out.contains(&0), "blocked warp must leave the pool");
        assert!(out.contains(&8), "pending warp must be promoted");
        let mut ev = Vec::new();
        s.drain_events(&mut ev);
        assert_eq!(ev, vec![SchedulerEvent::Deactivated { slot: 0 }]);
        // Events drain once.
        let mut ev2 = Vec::new();
        s.drain_events(&mut ev2);
        assert!(ev2.is_empty());
    }

    #[test]
    fn two_level_demotes_barrier_blocked_warps() {
        let mut s = TwoLevelScheduler::new(1);
        s.on_warp_start(0);
        s.on_warp_start(4);
        let m = Masks::new(&[(0, State::Barrier), (4, State::Ready)]);
        let mut out = Vec::new();
        s.prioritize(&m.set(), 0, &mut out);
        assert_eq!(
            out,
            vec![4],
            "warp 4 must be promoted so it can reach the barrier"
        );
    }

    /// One warp as the schedulers saw it before they read the SM's masks.
    #[derive(Debug, Clone, Copy)]
    struct WarpView {
        slot: usize,
        long_latency_pending: bool,
        barrier_waiting: bool,
    }

    /// The two-level scheduler as it read before the masks: one view per
    /// live warp of the scheduler, and one search of the views per active
    /// warp.
    #[derive(Debug, Default)]
    struct TwoLevelByViews {
        active: Vec<usize>,
        pending: VecDeque<usize>,
        rr: usize,
        events: Vec<SchedulerEvent>,
    }

    impl TwoLevelByViews {
        fn promote(&mut self, active_size: usize) {
            while self.active.len() < active_size {
                match self.pending.pop_front() {
                    Some(s) => self.active.push(s),
                    None => break,
                }
            }
        }

        fn prioritize(&mut self, active_size: usize, warps: &[WarpView], out: &mut Vec<usize>) {
            out.clear();
            let mut i = 0;
            while i < self.active.len() {
                let slot = self.active[i];
                let view = warps.iter().find(|w| w.slot == slot);
                if view.is_none_or(|w| w.long_latency_pending || w.barrier_waiting) {
                    self.active.remove(i);
                    if view.is_some() {
                        self.pending.push_back(slot);
                        self.events.push(SchedulerEvent::Deactivated { slot });
                    }
                } else {
                    i += 1;
                }
            }
            self.promote(active_size);
            if self.active.is_empty() {
                return;
            }
            let n = self.active.len();
            let start = self.rr % n;
            out.extend(
                self.active[start..]
                    .iter()
                    .chain(self.active[..start].iter()),
            );
        }

        fn on_issue(&mut self, slot: usize) {
            if let Some(pos) = self.active.iter().position(|&s| s == slot) {
                self.rr = (pos + 1) % self.active.len().max(1);
            }
        }

        fn on_warp_start(&mut self, active_size: usize, slot: usize) {
            if self.active.len() < active_size {
                self.active.push(slot);
            } else {
                self.pending.push_back(slot);
            }
        }
    }

    #[test]
    fn two_level_masks_match_the_view_search() {
        // Twelve warps over a pool of four, for 200 calls: each call sees
        // the live warps in a rotated age order, some ready, some blocked
        // on an ALU result, some on memory, some at a barrier (with and
        // without a load outstanding), and some no longer live (an exited
        // warp whose slot is still occupied), which drops them from the
        // pool. The reference reads views derived from the same state.
        let slots: Vec<usize> = (0..12).map(|i| i * 4 + 1).collect();
        let mut s = TwoLevelScheduler::new(4);
        let mut reference = TwoLevelByViews::default();
        for &slot in &slots {
            s.on_warp_start(slot);
            reference.on_warp_start(4, slot);
        }
        let mut h = 0x2545_F491u32;
        let mut seen = [false; 6];
        for cycle in 0..200u64 {
            let mut warps = Vec::new();
            for k in 0..slots.len() {
                let slot = slots[(k + cycle as usize) % slots.len()];
                h ^= h << 13;
                h ^= h >> 17;
                h ^= h << 5;
                let state = match h % 10 {
                    0 => None,
                    1 => Some(State::MemBlocked),
                    2 => Some(State::Barrier),
                    3 => Some(State::BarrierMem),
                    4 => Some(State::AluBlocked),
                    _ => Some(State::Ready),
                };
                seen[(h % 10).min(5) as usize] = true;
                if let Some(state) = state {
                    warps.push((slot, state));
                }
            }
            let m = Masks::new(&warps);
            let views: Vec<WarpView> = m
                .ages
                .iter()
                .map(|&(_, slot)| WarpView {
                    slot,
                    long_latency_pending: m.long_latency.contains(slot),
                    barrier_waiting: m.barrier.contains(slot),
                })
                .collect();
            let (mut out, mut want) = (Vec::new(), Vec::new());
            assert!(s.prioritize(&m.set(), cycle, &mut out).is_list());
            reference.prioritize(4, &views, &mut want);
            assert_eq!(out, want, "cycle {cycle}");
            assert_eq!(s.active, reference.active, "cycle {cycle}");
            assert_eq!(s.pending, reference.pending, "cycle {cycle}");
            let mut events = Vec::new();
            s.drain_events(&mut events);
            assert_eq!(events, reference.events, "cycle {cycle}");
            reference.events.clear();
            if let Some(&slot) = out.iter().find(|&&slot| m.issuable.contains(slot)) {
                s.on_issue(slot, cycle);
                reference.on_issue(slot);
            }
            // A warp dropped for not being live is gone from both lists; a
            // new warp takes its slot.
            for &slot in &slots {
                if !s.active.contains(&slot) && !s.pending.contains(&slot) {
                    s.on_warp_start(slot);
                    reference.on_warp_start(4, slot);
                }
            }
        }
        assert_eq!(seen, [true; 6]);
    }

    #[test]
    fn two_level_finish_promotes_pending() {
        let mut s = TwoLevelScheduler::new(1);
        s.on_warp_start(0);
        s.on_warp_start(4);
        assert_eq!(s.active_pool(), &[0]);
        s.on_warp_finish(0);
        assert_eq!(s.active_pool(), &[4]);
    }

    #[test]
    fn fetch_group_prioritizes_current_group() {
        let mut s = FetchGroupScheduler::new(2);
        let m = Masks::mem(&[(0, false), (4, false), (8, false), (12, false)]);
        let mut out = Vec::new();
        s.prioritize(&m.set(), 0, &mut out);
        assert_eq!(out, vec![0, 4, 8, 12]);
    }

    #[test]
    fn fetch_group_rotates_when_group_blocked() {
        let mut s = FetchGroupScheduler::new(2);
        // Age order differs from slot order; groups follow slot order, and
        // a barrier-blocked warp with a load outstanding counts as blocked.
        let m = Masks::new(&[
            (8, State::Ready),
            (4, State::MemBlocked),
            (12, State::Ready),
            (0, State::BarrierMem),
            (16, State::Barrier),
        ]);
        let mut out = Vec::new();
        s.prioritize(&m.set(), 0, &mut out);
        assert_eq!(out, vec![8, 12, 16, 0, 4]);
        // The rotation sticks while group 1 has a warp free to run.
        s.prioritize(&m.set(), 1, &mut out);
        assert_eq!(out, vec![8, 12, 16, 0, 4]);
    }

    #[test]
    fn gto_and_lrr_order_any_subset_as_within_the_full_list() {
        // Age order differs from slot order; slot 4 is not live. Each
        // subset is the issuable set; the others are blocked. This is what
        // makes the on-demand walk exact: filtering the full order by any
        // later (smaller) issuable set gives the walk of that set.
        let ages = [5, 2, 7, 0, 3, 6];
        let all = Masks::mem(&ages.map(|slot| (slot, false)));
        for policy in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            for last in [None, Some(0), Some(3), Some(4), Some(5), Some(7)] {
                let mut s = build_scheduler(policy);
                if let Some(slot) = last {
                    s.on_issue(slot, 0);
                }
                let full = order(s.as_mut(), &all.set(), 1);
                for subset in 0u32..1 << ages.len() {
                    let sub = Masks::new(&ages.map(|slot| {
                        let at = ages.iter().position(|&s| s == slot).unwrap();
                        let state = if subset & (1 << at) != 0 {
                            State::Ready
                        } else {
                            State::AluBlocked
                        };
                        (slot, state)
                    }));
                    let mut list = Vec::new();
                    let walk = s.prioritize(&sub.set(), 1, &mut list);
                    assert!(!walk.is_list() && list.is_empty(), "{policy:?}");
                    let want: Vec<usize> = full
                        .iter()
                        .copied()
                        .filter(|&slot| sub.issuable.contains(slot))
                        .collect();
                    assert_eq!(
                        drain(walk, &list, &sub.set()),
                        want,
                        "{policy:?} last {last:?} subset {subset:#b}"
                    );
                    let mut events = Vec::new();
                    s.drain_events(&mut events);
                    assert!(events.is_empty(), "{policy:?}");
                }
                // The subset turns changed no state the order depends on.
                assert_eq!(
                    order(s.as_mut(), &all.set(), 2),
                    full,
                    "{policy:?} last {last:?}"
                );
            }
        }
        for policy in [
            SchedulerPolicy::TwoLevel {
                active_per_scheduler: 2,
            },
            SchedulerPolicy::FetchGroup { group_size: 2 },
        ] {
            let walk = build_scheduler(policy).prioritize(&all.set(), 0, &mut Vec::new());
            assert!(walk.is_list(), "{policy:?}");
        }
    }

    #[test]
    fn walks_resume_after_an_exited_warp_and_cross_mask_words() {
        // 130 slots; the scheduler owns the odd ones. GTO: slot 99 is
        // greedy, and each yielded warp is then treated by the test as the
        // SM would after an issue: it leaves `issuable`, and every third
        // one exits and leaves the age order too.
        let mut owned = SlotMask::new(130);
        let mut issuable = SlotMask::new(130);
        let empty = SlotMask::new(130);
        let mut ages = Vec::new();
        for (age, slot) in (1..130).step_by(2).rev().enumerate() {
            owned.set(slot, true);
            issuable.set(slot, slot % 5 != 0);
            ages.push((age as u64 / 3, slot));
        }
        ages.sort_unstable();
        let want: Vec<usize> = std::iter::once(99)
            .chain(
                ages.iter()
                    .map(|&(_, slot)| slot)
                    .filter(|&slot| slot % 5 != 0 && slot != 99),
            )
            .collect();
        let mut walk = Walk::greedy_then_oldest(Some(99));
        let mut got = Vec::new();
        loop {
            let set = WarpSet {
                ages: &ages,
                owned: &owned,
                issuable: &issuable,
                live: &empty,
                long_latency: &empty,
                barrier: &empty,
            };
            let Some(slot) = walk.next(&[], &set) else {
                break;
            };
            got.push(slot);
            issuable.set(slot, false);
            if got.len() % 3 == 0 {
                ages.retain(|&(_, s)| s != slot);
            }
        }
        assert_eq!(got, want);

        // LRR after slot 63: the owned issuable slots above 63 in slot
        // order, across the word boundary, then the wrapped ones from 1.
        let issuable = {
            let mut m = SlotMask::new(130);
            for slot in [1, 3, 63, 65, 127, 129] {
                m.set(slot, true);
            }
            m.set(64, true); // not owned
            m
        };
        let set = WarpSet {
            ages: &[],
            owned: &owned,
            issuable: &issuable,
            live: &empty,
            long_latency: &empty,
            barrier: &empty,
        };
        assert_eq!(
            drain(Walk::after(Some(63)), &[], &set),
            vec![65, 127, 129, 1, 3, 63]
        );
        assert_eq!(
            drain(Walk::after(Some(129)), &[], &set),
            vec![1, 3, 63, 65, 127, 129]
        );
        assert_eq!(
            drain(Walk::after(None), &[], &set),
            vec![1, 3, 63, 65, 127, 129]
        );
        assert!(drain(
            Walk::after(Some(0)),
            &[],
            &WarpSet {
                issuable: &empty,
                ..set
            }
        )
        .is_empty());
    }

    #[test]
    fn build_scheduler_dispatches_policy() {
        assert_eq!(build_scheduler(SchedulerPolicy::Gto).name(), "GTO");
        assert_eq!(build_scheduler(SchedulerPolicy::Lrr).name(), "LRR");
        assert_eq!(
            build_scheduler(SchedulerPolicy::TwoLevel {
                active_per_scheduler: 6
            })
            .name(),
            "TL"
        );
        assert_eq!(
            build_scheduler(SchedulerPolicy::FetchGroup { group_size: 8 }).name(),
            "FG"
        );
    }
}
