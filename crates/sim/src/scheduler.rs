//! Warp schedulers: GTO, LRR, Two-Level (TL), and Fetch-Group.
//!
//! Each SM has `num_schedulers` scheduler instances; warp slot `s` belongs
//! to scheduler `s % num_schedulers` (the usual striped assignment). Every
//! cycle the SM asks each scheduler for a priority-ordered candidate list
//! and issues to the first ready warps. The SM hands each scheduler its
//! live warps already in age order (see [`WarpScheduler::prioritize`]).

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
    /// `warps` holds one view per live warp of this scheduler (resident,
    /// with lanes left to run; barrier-blocked warps included), in age
    /// order: by the cycle the warp became resident, then by slot. A
    /// policy that wants oldest-first (GTO) uses that order as is; one
    /// that orders by slot (LRR, fetch-group) sorts.
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

    /// True when calling [`WarpScheduler::prioritize`] on a cycle where no
    /// warp issues leaves the scheduler's observable state unchanged. The
    /// SM then skips the turn of a scheduler none of whose warps can
    /// issue, building no views and calling no `prioritize`. GTO and LRR
    /// mutate state only in `on_issue`; the two-level scheduler
    /// demotes/promotes and the fetch-group scheduler rotates inside
    /// `prioritize` itself, so those two always take their turn.
    fn idle_prioritize_is_noop(&self) -> bool {
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

    fn idle_prioritize_is_noop(&self) -> bool {
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

    fn idle_prioritize_is_noop(&self) -> bool {
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
    fn prioritize(&mut self, warps: &[WarpView], _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        // Demote blocked active warps.
        let mut i = 0;
        while i < self.active.len() {
            let slot = self.active[i];
            let view = warps.iter().find(|w| w.slot == slot);
            let demote = view.is_none_or(|w| w.long_latency_pending || w.barrier_waiting);
            if demote {
                self.active.remove(i);
                if view.is_some() {
                    self.pending.push_back(slot);
                    self.events.push(SchedulerEvent::Deactivated { slot });
                }
            } else {
                i += 1;
            }
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
