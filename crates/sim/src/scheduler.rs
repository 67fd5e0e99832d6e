//! Warp schedulers: GTO, LRR, Two-Level (TL), and Fetch-Group.
//!
//! Each SM has `num_schedulers` scheduler instances; warp slot `s` belongs
//! to scheduler `s % num_schedulers` (the usual striped assignment). Every
//! cycle the SM asks each scheduler for a priority-ordered candidate list
//! and issues to the first ready warps. The SM hands each scheduler its
//! live warps, or only its issuable ones, already in age order (see
//! [`WarpScheduler::prioritize`]).

use std::collections::VecDeque;
use std::fmt;

use crate::config::SchedulerPolicy;

/// Read-only per-warp information a scheduler may consult.
#[derive(Debug, Clone, Copy)]
pub struct WarpView {
    /// Hardware warp slot.
    pub slot: usize,
    /// The warp is blocked on a long-latency dependence (memory load
    /// outstanding) — the demotion trigger for the two-level scheduler.
    pub long_latency_pending: bool,
    /// The warp is waiting at a CTA barrier — also a two-level demotion
    /// trigger (a barrier-blocked warp must not pin an active-pool slot,
    /// or the warps that could release it never get promoted).
    pub barrier_waiting: bool,
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
    /// Returns the candidate warp slots in priority order for this cycle.
    /// The SM tries them in order and issues to the ready ones.
    ///
    /// `warps` holds views in age order: by the cycle the warp became
    /// resident, then by slot. A policy that wants oldest-first (GTO) uses
    /// that order as is; one that orders by slot (LRR, fetch-group) sorts.
    /// Which warps are viewed depends on
    /// [`WarpScheduler::issuable_views_suffice`]: when it is true, only the
    /// scheduler's issuable warps (eligible and not blocked by their
    /// scoreboard, so both view flags are false), and no call at all on a
    /// turn with none; otherwise one view per live warp of this scheduler
    /// (resident, with lanes left to run; barrier-blocked warps included).
    fn prioritize(&mut self, warps: &[WarpView], cycle: u64, out: &mut Vec<usize>);

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

    /// True when [`WarpScheduler::prioritize`] leaves the scheduler's
    /// observable state unchanged and orders any subset of its warps as it
    /// orders them within the full list. The SM then hands such a
    /// scheduler views of its issuable warps only, and skips its turn, with
    /// no views and no `prioritize` call, when none can issue: the issue
    /// loop passes over a warp that cannot issue before it changes
    /// anything, so the issued sequence is the same. GTO and LRR mutate
    /// state only in `on_issue`; the two-level scheduler demotes/promotes
    /// and the fetch-group scheduler rotates inside `prioritize` itself,
    /// reading the views of blocked warps, so those two always see every
    /// live warp.
    fn issuable_views_suffice(&self) -> bool {
        false
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
    fn prioritize(&mut self, warps: &[WarpView], _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        if let Some(g) = self.greedy {
            if warps.iter().any(|w| w.slot == g) {
                out.push(g);
            }
        }
        // The views arrive oldest first.
        out.extend(
            warps
                .iter()
                .map(|w| w.slot)
                .filter(|&slot| Some(slot) != self.greedy),
        );
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

    fn issuable_views_suffice(&self) -> bool {
        true
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
    /// Scratch reused across cycles.
    slots: Vec<usize>,
}

impl LrrScheduler {
    /// New LRR scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for LrrScheduler {
    fn prioritize(&mut self, warps: &[WarpView], _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        self.slots.clear();
        self.slots.extend(warps.iter().map(|w| w.slot));
        self.slots.sort_unstable();
        if self.slots.is_empty() {
            return;
        }
        let start = match self.last {
            Some(l) => self.slots.iter().position(|&s| s > l).unwrap_or(0),
            None => 0,
        };
        out.extend(self.slots[start..].iter().chain(self.slots[..start].iter()));
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        self.last = Some(slot);
    }

    fn on_warp_start(&mut self, _slot: usize) {}

    fn on_warp_finish(&mut self, _slot: usize) {}

    fn issuable_views_suffice(&self) -> bool {
        true
    }

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
    /// Scratch reused across `prioritize` calls: per warp slot, what this
    /// call's views say of it. Reset to `Absent` before the call returns.
    viewed: Vec<Viewed>,
}

/// What one `prioritize` call's views say of a warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Viewed {
    /// No view: the warp is no longer live.
    Absent,
    /// Viewed and free to stay in the active pool.
    Keep,
    /// Viewed and blocked (long latency or barrier): demote it.
    Demote,
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
            viewed: Vec::new(),
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
    fn prioritize(&mut self, warps: &[WarpView], _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        for w in warps {
            if w.slot >= self.viewed.len() {
                self.viewed.resize(w.slot + 1, Viewed::Absent);
            }
            self.viewed[w.slot] = if w.long_latency_pending || w.barrier_waiting {
                Viewed::Demote
            } else {
                Viewed::Keep
            };
        }
        // Demote blocked active warps; drop those no longer viewed.
        let mut i = 0;
        while i < self.active.len() {
            let slot = self.active[i];
            let viewed = self.viewed.get(slot).copied().unwrap_or(Viewed::Absent);
            if viewed == Viewed::Keep {
                i += 1;
                continue;
            }
            self.active.remove(i);
            if viewed == Viewed::Demote {
                self.pending.push_back(slot);
                self.events.push(SchedulerEvent::Deactivated { slot });
            }
        }
        for w in warps {
            self.viewed[w.slot] = Viewed::Absent;
        }
        self.promote();
        if self.active.is_empty() {
            return;
        }
        // Round-robin within the active pool.
        let n = self.active.len();
        let start = self.rr % n;
        out.extend(
            self.active[start..]
                .iter()
                .chain(self.active[..start].iter()),
        );
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
    /// Scratch reused across cycles: (slot, long_latency_pending).
    slots: Vec<(usize, bool)>,
}

impl FetchGroupScheduler {
    /// New fetch-group scheduler with the given warps-per-group.
    pub fn new(group_size: usize) -> Self {
        FetchGroupScheduler {
            group_size: group_size.max(1),
            current_group: 0,
            slots: Vec::new(),
        }
    }
}

impl WarpScheduler for FetchGroupScheduler {
    fn prioritize(&mut self, warps: &[WarpView], _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        self.slots.clear();
        self.slots
            .extend(warps.iter().map(|w| (w.slot, w.long_latency_pending)));
        if self.slots.is_empty() {
            return;
        }
        self.slots.sort_unstable();
        let num_groups = self.slots.len().div_ceil(self.group_size);
        let cur = self.current_group % num_groups;
        // If every warp of the current group is long-latency blocked, rotate.
        let cur_blocked = self
            .slots
            .iter()
            .skip(cur * self.group_size)
            .take(self.group_size)
            .all(|&(_, long)| long);
        if cur_blocked {
            self.current_group = (cur + 1) % num_groups;
        }
        let cur = self.current_group % num_groups;
        for g in 0..num_groups {
            out.extend(
                self.slots
                    .iter()
                    .skip(((cur + g) % num_groups) * self.group_size)
                    .take(self.group_size)
                    .map(|&(slot, _)| slot),
            );
        }
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

    fn views(slots: &[(usize, bool)]) -> Vec<WarpView> {
        slots
            .iter()
            .map(|&(slot, mem)| WarpView {
                slot,
                long_latency_pending: mem,
                barrier_waiting: false,
            })
            .collect()
    }

    #[test]
    fn gto_prefers_greedy_then_oldest() {
        let mut s = GtoScheduler::new();
        // Views arrive in age order (the `prioritize` contract): slot 4
        // is the oldest warp, slot 0 the youngest.
        let w = views(&[(4, false), (8, false), (0, false)]);
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
        // No greedy yet: oldest first.
        assert_eq!(out, vec![4, 8, 0]);
        s.on_issue(8, 1);
        s.prioritize(&w, 2, &mut out);
        assert_eq!(out, vec![8, 4, 0]);
        s.on_warp_finish(8);
        s.prioritize(&w, 3, &mut out);
        assert_eq!(out[0], 4);
    }

    #[test]
    fn lrr_rotates_past_last_issued() {
        let mut s = LrrScheduler::new();
        let w = views(&[(0, false), (4, false), (8, false)]);
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
        assert_eq!(out, vec![0, 4, 8]);
        s.on_issue(0, 0);
        s.prioritize(&w, 1, &mut out);
        assert_eq!(out, vec![4, 8, 0]);
        s.on_issue(8, 1);
        s.prioritize(&w, 2, &mut out);
        assert_eq!(out, vec![0, 4, 8]);
    }

    #[test]
    fn two_level_caps_active_pool() {
        let mut s = TwoLevelScheduler::new(2);
        for slot in [0, 4, 8, 12] {
            s.on_warp_start(slot);
        }
        assert_eq!(s.active_pool(), &[0, 4]);
        let w = views(&[(0, false), (4, false), (8, false), (12, false)]);
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
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
        let w = views(&[(0, true), (4, false), (8, false)]);
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
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
        let w = vec![
            WarpView {
                slot: 0,
                long_latency_pending: false,
                barrier_waiting: true,
            },
            WarpView {
                slot: 4,
                long_latency_pending: false,
                barrier_waiting: false,
            },
        ];
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
        assert_eq!(
            out,
            vec![4],
            "warp 4 must be promoted so it can reach the barrier"
        );
    }

    /// The two-level demotion pass as it read before the per-slot table:
    /// one search of the views per active warp.
    fn two_level_reference(
        active: &mut Vec<usize>,
        pending: &mut VecDeque<usize>,
        warps: &[WarpView],
    ) -> Vec<usize> {
        let mut demoted = Vec::new();
        let mut i = 0;
        while i < active.len() {
            let slot = active[i];
            let view = warps.iter().find(|w| w.slot == slot);
            if view.is_none_or(|w| w.long_latency_pending || w.barrier_waiting) {
                active.remove(i);
                if view.is_some() {
                    pending.push_back(slot);
                    demoted.push(slot);
                }
            } else {
                i += 1;
            }
        }
        demoted
    }

    #[test]
    fn two_level_slot_table_matches_the_view_search() {
        // Twelve live warps over a pool of four, for 200 calls: each call
        // views the live warps in a rotated order, some blocked on memory,
        // some at a barrier, and some unviewed (an exited warp whose slot
        // is still occupied), which drops them from the pool.
        let slots: Vec<usize> = (0..12).map(|i| i * 4 + 1).collect();
        let mut s = TwoLevelScheduler::new(4);
        for &slot in &slots {
            s.on_warp_start(slot);
        }
        let (mut active, mut pending) = (s.active.clone(), s.pending.clone());
        let mut h = 0x2545_F491u32;
        let mut seen = (false, false, false);
        for cycle in 0..200u64 {
            let mut views = Vec::new();
            for k in 0..slots.len() {
                let slot = slots[(k + cycle as usize) % slots.len()];
                h ^= h << 13;
                h ^= h >> 17;
                h ^= h << 5;
                match h % 8 {
                    0 => {
                        seen.0 = true;
                        continue;
                    }
                    1 => seen.1 = true,
                    2 => seen.2 = true,
                    _ => {}
                }
                views.push(WarpView {
                    slot,
                    long_latency_pending: h % 8 == 1,
                    barrier_waiting: h % 8 == 2,
                });
            }
            let mut out = Vec::new();
            s.prioritize(&views, cycle, &mut out);
            let demoted = two_level_reference(&mut active, &mut pending, &views);
            while active.len() < 4 {
                match pending.pop_front() {
                    Some(slot) => active.push(slot),
                    None => break,
                }
            }
            assert_eq!(s.active, active, "cycle {cycle}");
            assert_eq!(s.pending, pending, "cycle {cycle}");
            let mut events = Vec::new();
            s.drain_events(&mut events);
            let want: Vec<SchedulerEvent> = demoted
                .into_iter()
                .map(|slot| SchedulerEvent::Deactivated { slot })
                .collect();
            assert_eq!(events, want, "cycle {cycle}");
            if let Some(&slot) = out.first() {
                s.on_issue(slot, cycle);
            }
            // A warp dropped for want of a view is gone from both lists; a
            // new warp takes its slot.
            for &slot in &slots {
                if !active.contains(&slot) && !pending.contains(&slot) {
                    s.on_warp_start(slot);
                    if active.len() < 4 {
                        active.push(slot);
                    } else {
                        pending.push_back(slot);
                    }
                }
            }
        }
        assert_eq!(seen, (true, true, true));
        assert!(s.viewed.iter().all(|&v| v == Viewed::Absent));
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
        let w = views(&[(0, false), (4, false), (8, false), (12, false)]);
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
        assert_eq!(out, vec![0, 4, 8, 12]);
    }

    #[test]
    fn fetch_group_rotates_when_group_blocked() {
        let mut s = FetchGroupScheduler::new(2);
        let w = views(&[(0, true), (4, true), (8, false), (12, false)]);
        let mut out = Vec::new();
        s.prioritize(&w, 0, &mut out);
        assert_eq!(out, vec![8, 12, 0, 4]);
    }

    #[test]
    fn gto_and_lrr_order_any_subset_as_within_the_full_list() {
        // Age order differs from slot order; slot 4 is not live.
        let all = views(&[5, 2, 7, 0, 3, 6].map(|slot| (slot, false)));
        for policy in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            for last in [None, Some(0), Some(3), Some(4), Some(5), Some(7)] {
                let mut s = build_scheduler(policy);
                assert!(s.issuable_views_suffice(), "{policy:?}");
                if let Some(slot) = last {
                    s.on_issue(slot, 0);
                }
                let mut full = Vec::new();
                s.prioritize(&all, 1, &mut full);
                let mut got = Vec::new();
                for subset in 0u32..1 << all.len() {
                    let sub: Vec<WarpView> = (0..all.len())
                        .filter(|i| subset & (1 << i) != 0)
                        .map(|i| all[i])
                        .collect();
                    s.prioritize(&sub, 1, &mut got);
                    let want: Vec<usize> = full
                        .iter()
                        .copied()
                        .filter(|&slot| sub.iter().any(|v| v.slot == slot))
                        .collect();
                    assert_eq!(got, want, "{policy:?} last {last:?} subset {subset:#b}");
                }
                // The subset calls changed no state the order depends on.
                s.prioritize(&all, 2, &mut got);
                assert_eq!(got, full, "{policy:?} last {last:?}");
            }
        }
        for policy in [
            SchedulerPolicy::TwoLevel {
                active_per_scheduler: 2,
            },
            SchedulerPolicy::FetchGroup { group_size: 2 },
        ] {
            assert!(!build_scheduler(policy).issuable_views_suffice());
        }
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
