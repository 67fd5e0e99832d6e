//! Operand collectors and the register-file bank arbiter.
//!
//! An issued instruction allocates a collector unit, which then competes —
//! operand by operand — for RF banks. A bank services one access per grant
//! and stays busy for the access latency that the
//! [`crate::rf::RegisterFileModel`] resolved for the access; this is how
//! the FRF/SRF latency difference turns into pipeline back-pressure.
//! Writebacks go through the same arbiter with priority over reads, as in
//! GPGPU-Sim.
//!
//! Accesses arrive *pre-resolved*: the SM calls
//! [`RegisterFileModel::resolve`](crate::rf::RegisterFileModel::resolve)
//! exactly once per access (reads at issue, writes when the writeback is
//! requested), so stateful models — the RFC allocates and evicts cache
//! entries inside `resolve` — observe each access exactly once.

use std::collections::VecDeque;

use prf_isa::Reg;

use crate::rf::{AccessKind, ResolvedAccess, RfPartition};

/// A pending source-operand read inside a collector.
#[derive(Debug, Clone, Copy)]
struct PendingRead {
    access: ResolvedAccess,
    /// Cycle the data arrives, once granted; `None` while waiting for a
    /// bank grant.
    ready_at: Option<u64>,
}

/// What should happen when the collector finishes gathering operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectDest {
    /// Dispatch to an execution pipeline with the given result latency;
    /// `writeback` tells whether a destination register write follows.
    Execute {
        /// Result latency in cycles.
        latency: u32,
        /// Destination register to write at completion, if any.
        writeback: Option<Reg>,
    },
    /// Hand to the load/store unit (memory instructions).
    Memory,
}

/// An instruction resident in a collector unit.
#[derive(Debug, Clone)]
pub struct CollectorEntry {
    /// Warp slot that issued the instruction.
    pub warp_slot: usize,
    /// Pending and completed source reads.
    reads: Vec<PendingRead>,
    /// Where the instruction goes after collection.
    pub dest: CollectDest,
    /// Monotonic sequence number for age-ordered arbitration.
    pub seq: u64,
    /// Opaque token the SM uses to track the instruction.
    pub token: u64,
}

/// A writeback request waiting for its bank.
#[derive(Debug, Clone, Copy)]
pub struct WritebackRequest {
    /// Warp slot whose register is written.
    pub warp_slot: usize,
    /// Destination (architected) register, for scoreboard release.
    pub reg: Reg,
    /// The resolved physical access.
    pub access: ResolvedAccess,
    /// Sequence number (age priority).
    pub seq: u64,
    /// Token returned to the SM when the write completes.
    pub token: u64,
}

/// A completed writeback notification.
#[derive(Debug, Clone, Copy)]
pub struct CompletedWrite {
    /// Warp slot whose register was written.
    pub warp_slot: usize,
    /// Architected register written.
    pub reg: Reg,
    /// Token from the originating request.
    pub token: u64,
    /// Partition that serviced the write.
    pub partition: RfPartition,
}

/// An instruction that finished collecting operands this cycle.
#[derive(Debug, Clone)]
pub struct CollectedInstr {
    /// Warp slot.
    pub warp_slot: usize,
    /// Dispatch destination.
    pub dest: CollectDest,
    /// Token.
    pub token: u64,
}

/// The operand-collector array plus bank arbiter for one SM.
#[derive(Debug)]
pub struct OperandCollector {
    units: Vec<Option<CollectorEntry>>,
    /// Indices of the occupied units in allocation order, which is `seq`
    /// (age) order: arbitration walks this list oldest first.
    occupied: Vec<usize>,
    /// Cycle until which each bank is busy (exclusive).
    bank_busy_until: Vec<u64>,
    writeback_queue: VecDeque<WritebackRequest>,
    /// Writes in flight: (completion cycle, completed-write record).
    inflight_writes: Vec<(u64, CompletedWrite)>,
    next_seq: u64,
    /// Stat: grants denied because the bank was busy or already granted.
    pub bank_conflict_waits: u64,
    pipelined: bool,
    /// Scratch reused across ticks: per-bank granted flags.
    granted_scratch: Vec<bool>,
    /// Scratch reused across ticks: units fully collected this cycle.
    ready_scratch: Vec<usize>,
    /// Scratch reused across ticks: writebacks denied this cycle.
    wb_scratch: VecDeque<WritebackRequest>,
    /// Recycled `reads` vectors of released entries, so steady-state
    /// allocation performs no heap allocation.
    reads_pool: Vec<Vec<PendingRead>>,
}

impl OperandCollector {
    /// Creates a collector array with `num_units` units over `num_banks`
    /// banks.
    ///
    /// With `pipelined` set (the default configuration), a bank accepts a
    /// new request every cycle and a multi-cycle access only delays its
    /// *data* — the GPGPU-Sim-style model under which the paper's 3-cycle
    /// SRF costs latency, not throughput. With `pipelined` clear, a bank
    /// stays busy for the access's full latency (an ablation that shows
    /// why an unpipelined NTV array would be catastrophic).
    pub fn new(num_units: usize, num_banks: usize, pipelined: bool) -> Self {
        OperandCollector {
            units: (0..num_units).map(|_| None).collect(),
            occupied: Vec::with_capacity(num_units),
            bank_busy_until: vec![0; num_banks],
            writeback_queue: VecDeque::new(),
            inflight_writes: Vec::new(),
            next_seq: 0,
            bank_conflict_waits: 0,
            pipelined,
            granted_scratch: vec![false; num_banks],
            ready_scratch: Vec::with_capacity(num_units),
            wb_scratch: VecDeque::new(),
            reads_pool: Vec::with_capacity(num_units),
        }
    }

    fn occupancy(&self, latency: u32) -> u64 {
        if self.pipelined {
            1
        } else {
            u64::from(latency.max(1))
        }
    }

    /// Number of free collector units.
    pub fn free_units(&self) -> usize {
        self.units.len() - self.occupied.len()
    }

    /// True if at least one unit is free.
    pub fn has_free_unit(&self) -> bool {
        self.occupied.len() < self.units.len()
    }

    /// Allocates a unit for an issued instruction.
    ///
    /// `reads` lists the pre-resolved source accesses to fetch. Returns
    /// `false` (and allocates nothing) when no unit is free.
    pub fn allocate(
        &mut self,
        warp_slot: usize,
        reads: &[ResolvedAccess],
        dest: CollectDest,
        token: u64,
    ) -> bool {
        let Some(slot) = self.units.iter().position(|u| u.is_none()) else {
            return false;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut pending = self.reads_pool.pop().unwrap_or_default();
        pending.clear();
        pending.extend(reads.iter().map(|&access| PendingRead {
            access,
            ready_at: None,
        }));
        self.units[slot] = Some(CollectorEntry {
            warp_slot,
            reads: pending,
            dest,
            seq,
            token,
        });
        self.occupied.push(slot);
        true
    }

    /// Enqueues a pre-resolved writeback request (from an execution pipe
    /// or the LSU).
    pub fn request_writeback(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        access: ResolvedAccess,
        token: u64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.writeback_queue.push_back(WritebackRequest {
            warp_slot,
            reg,
            access,
            seq,
            token,
        });
    }

    /// Advances the collector by one cycle.
    ///
    /// Arbitration: for each bank, the oldest writeback wins first, then
    /// the oldest pending collector read. `on_access` fires once per
    /// *granted* access with the full resolved access (partition for
    /// energy accounting, repair for fault accounting). Returns the
    /// instructions that finished collection and the writes that completed
    /// this cycle.
    pub fn tick(
        &mut self,
        cycle: u64,
        on_access: impl FnMut(ResolvedAccess, AccessKind),
    ) -> (Vec<CollectedInstr>, Vec<CompletedWrite>) {
        let mut collected = Vec::new();
        let mut done_writes = Vec::new();
        self.tick_into(cycle, on_access, &mut collected, &mut done_writes);
        (collected, done_writes)
    }

    /// The allocation-free form of [`OperandCollector::tick`]: appends the
    /// released instructions and completed writes to caller-provided
    /// buffers (cleared here) and reuses internal scratch for arbitration.
    pub fn tick_into(
        &mut self,
        cycle: u64,
        mut on_access: impl FnMut(ResolvedAccess, AccessKind),
        collected: &mut Vec<CollectedInstr>,
        done_writes: &mut Vec<CompletedWrite>,
    ) {
        collected.clear();
        done_writes.clear();

        // 1. Completed writes.
        self.inflight_writes.retain(|(done_at, w)| {
            if *done_at <= cycle {
                done_writes.push(*w);
                false
            } else {
                true
            }
        });

        // 2. Bank arbitration. One grant per bank per cycle.
        let num_banks = self.bank_busy_until.len();
        let mut granted_bank = std::mem::take(&mut self.granted_scratch);
        granted_bank.clear();
        granted_bank.resize(num_banks, false);

        // 2a. Writebacks (age order, priority over reads).
        let mut remaining = std::mem::take(&mut self.wb_scratch);
        remaining.clear();
        while let Some(req) = self.writeback_queue.pop_front() {
            let bank = req.access.bank % num_banks;
            if !granted_bank[bank] && self.bank_busy_until[bank] <= cycle {
                granted_bank[bank] = true;
                let lat = u64::from(req.access.latency.max(1));
                self.bank_busy_until[bank] = cycle + self.occupancy(req.access.latency);
                on_access(req.access, AccessKind::Write);
                self.inflight_writes.push((
                    cycle + lat,
                    CompletedWrite {
                        warp_slot: req.warp_slot,
                        reg: req.reg,
                        token: req.token,
                        partition: req.access.partition,
                    },
                ));
            } else {
                self.bank_conflict_waits += 1;
                remaining.push_back(req);
            }
        }
        self.wb_scratch = std::mem::replace(&mut self.writeback_queue, remaining);

        // 2b. Collector reads, oldest entry first.
        let pipelined = self.pipelined;
        let occupancy = |latency: u32| -> u64 {
            if pipelined {
                1
            } else {
                u64::from(latency.max(1))
            }
        };
        // An entry is fully collected once every read's data has arrived;
        // a read granted this cycle arrives at `cycle + lat` with lat >= 1,
        // so readiness can be judged in the same walk.
        let mut ready = std::mem::take(&mut self.ready_scratch);
        ready.clear();
        for &i in &self.occupied {
            let entry = self.units[i]
                .as_mut()
                .expect("occupied unit holds an entry");
            let mut all_ready = true;
            for pr in entry.reads.iter_mut() {
                match pr.ready_at {
                    Some(t) => all_ready &= t <= cycle,
                    None => {
                        let bank = pr.access.bank % num_banks;
                        if !granted_bank[bank] && self.bank_busy_until[bank] <= cycle {
                            granted_bank[bank] = true;
                            let lat = u64::from(pr.access.latency.max(1));
                            self.bank_busy_until[bank] = cycle + occupancy(pr.access.latency);
                            pr.ready_at = Some(cycle + lat);
                            on_access(pr.access, AccessKind::Read);
                        } else {
                            self.bank_conflict_waits += 1;
                        }
                        all_ready = false;
                    }
                }
            }
            if all_ready {
                ready.push(i);
            }
        }
        self.granted_scratch = granted_bank;

        // 3. Release fully-collected entries in unit-index order (the order
        // the SM turns them into execution completions).
        if !ready.is_empty() {
            ready.sort_unstable();
            for &i in &ready {
                let mut e = self.units[i].take().expect("ready unit holds an entry");
                collected.push(CollectedInstr {
                    warp_slot: e.warp_slot,
                    dest: e.dest,
                    token: e.token,
                });
                e.reads.clear();
                self.reads_pool.push(e.reads);
            }
            let units = &self.units;
            self.occupied.retain(|&i| units[i].is_some());
        }
        self.ready_scratch = ready;
    }

    /// The next cycle (strictly after `cycle`) at which ticking the
    /// collector could have an observable effect, or `None` when idle.
    ///
    /// Conservative: any state still subject to arbitration (an un-granted
    /// read, a queued writeback, an entry whose reads are all ready) pins
    /// the horizon to `cycle + 1`; only work waiting purely on known data
    /// latencies (granted reads in flight, writes draining) reports its
    /// real completion time. An early wake-up is always safe — the skipped
    /// span is exactly the cycles where `tick` provably does nothing.
    pub fn next_event(&self, cycle: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut merge = |t: u64| {
            let t = t.max(cycle + 1);
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        if !self.writeback_queue.is_empty() {
            return Some(cycle + 1);
        }
        for &(done_at, _) in &self.inflight_writes {
            merge(done_at);
        }
        for &i in &self.occupied {
            let entry = self.units[i]
                .as_ref()
                .expect("occupied unit holds an entry");
            let mut all_ready_now = true;
            for r in &entry.reads {
                match r.ready_at {
                    // Still competing for a bank: retry next cycle.
                    None => return Some(cycle + 1),
                    Some(t) => {
                        if t > cycle {
                            merge(t);
                            all_ready_now = false;
                        }
                    }
                }
            }
            if all_ready_now {
                // Fully collected: the entry releases on the next tick.
                return Some(cycle + 1);
            }
        }
        next
    }

    /// True when no instruction or write is outstanding.
    pub fn is_idle(&self) -> bool {
        self.occupied.is_empty()
            && self.writeback_queue.is_empty()
            && self.inflight_writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(bank: usize, latency: u32, partition: RfPartition) -> ResolvedAccess {
        ResolvedAccess {
            bank,
            latency,
            partition,
            phys_reg: bank,
            repair: None,
        }
    }

    fn stv(bank: usize) -> ResolvedAccess {
        acc(bank, 1, RfPartition::MrfStv)
    }

    fn run_cycles(
        oc: &mut OperandCollector,
        from: u64,
        to: u64,
    ) -> (Vec<CollectedInstr>, Vec<CompletedWrite>) {
        let mut all_c = Vec::new();
        let mut all_w = Vec::new();
        for cyc in from..to {
            let (c, w) = oc.tick(cyc, |_, _| {});
            all_c.extend(c);
            all_w.extend(w);
        }
        (all_c, all_w)
    }

    #[test]
    fn allocate_until_full() {
        let mut oc = OperandCollector::new(2, 24, true);
        assert!(oc.has_free_unit());
        assert!(oc.allocate(0, &[stv(0)], CollectDest::Memory, 1));
        assert!(oc.allocate(1, &[stv(1)], CollectDest::Memory, 2));
        assert!(!oc.allocate(2, &[stv(2)], CollectDest::Memory, 3));
        assert_eq!(oc.free_units(), 0);
    }

    #[test]
    fn single_read_completes_after_latency() {
        let mut oc = OperandCollector::new(4, 24, true);
        oc.allocate(
            0,
            &[stv(3)],
            CollectDest::Execute {
                latency: 4,
                writeback: Some(Reg(5)),
            },
            7,
        );
        // Cycle 0: read granted, ready at 1. Cycle 1: entry releases.
        let (c0, _) = oc.tick(0, |_, _| {});
        assert!(c0.is_empty());
        let (c1, _) = oc.tick(1, |_, _| {});
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].token, 7);
        assert!(oc.is_idle());
    }

    #[test]
    fn zero_read_instruction_releases_immediately() {
        let mut oc = OperandCollector::new(4, 24, true);
        oc.allocate(
            0,
            &[],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            9,
        );
        let (c, _) = oc.tick(0, |_, _| {});
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pipelined_bank_accepts_back_to_back_slow_reads() {
        // Pipelined banks (the default): two 3-cycle SRF reads to the same
        // bank are granted on consecutive cycles; data still takes 3 cycles.
        let mut oc = OperandCollector::new(4, 24, true);
        let slow = acc(0, 3, RfPartition::Srf);
        oc.allocate(
            0,
            &[slow],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            1,
        );
        oc.allocate(
            0,
            &[slow],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            2,
        );
        // Grants at cycles 0 and 1; data at 3 and 4; releases at 3 and 4.
        let (c, _) = run_cycles(&mut oc, 0, 4);
        assert_eq!(c.len(), 1);
        let (c, _) = run_cycles(&mut oc, 4, 5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bank_conflict_serialises_reads() {
        let mut oc = OperandCollector::new(4, 24, true);
        // Two reads to the same bank -> serialised grants.
        oc.allocate(
            0,
            &[stv(0), stv(0)],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            1,
        );
        let (c, _) = run_cycles(&mut oc, 0, 2);
        assert!(c.is_empty(), "needs two grants over two cycles");
        let (c, _) = run_cycles(&mut oc, 2, 3);
        assert_eq!(c.len(), 1);
        assert!(oc.bank_conflict_waits > 0);
    }

    #[test]
    fn slow_access_holds_bank_longer() {
        // Unpipelined banks (the ablation mode): the SRF access occupies
        // its bank for the full 3 cycles.
        let mut oc = OperandCollector::new(4, 24, false);
        let slow = acc(0, 3, RfPartition::Srf); // SRF: 3-cycle access
        oc.allocate(
            0,
            &[slow],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            1,
        );
        oc.allocate(
            0,
            &[slow],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            2,
        );
        // First read: granted cycle 0, data at 3; second read can only be
        // granted at cycle 3, data at 6.
        let (c, _) = run_cycles(&mut oc, 0, 6);
        assert_eq!(
            c.len(),
            1,
            "only the first instruction should finish by cycle 5"
        );
        let (c, _) = run_cycles(&mut oc, 6, 7);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn writeback_has_priority_over_reads() {
        let mut oc = OperandCollector::new(4, 24, true);
        // Read and write targeting the same bank.
        oc.allocate(
            0,
            &[stv(0)],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            1,
        );
        oc.request_writeback(0, Reg(0), stv(0), 99);
        let mut kinds = Vec::new();
        let (_, w) = oc.tick(0, |_, k| kinds.push(k));
        assert!(w.is_empty());
        assert_eq!(kinds, vec![AccessKind::Write], "write must win the bank");
        let (_, w) = oc.tick(1, |_, _| {});
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].token, 99);
        assert_eq!(w[0].partition, RfPartition::MrfStv);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut oc = OperandCollector::new(4, 24, true);
        oc.allocate(0, &[stv(0), stv(1), stv(2)], CollectDest::Memory, 5);
        let (c, _) = oc.tick(0, |_, _| {});
        assert!(c.is_empty());
        let (c, _) = oc.tick(1, |_, _| {});
        assert_eq!(c.len(), 1, "three reads to three banks complete together");
        assert_eq!(oc.bank_conflict_waits, 0);
    }

    #[test]
    fn access_callback_reports_partition_once_per_grant() {
        let mut oc = OperandCollector::new(2, 24, true);
        let srf = acc(4, 3, RfPartition::Srf);
        oc.allocate(0, &[srf], CollectDest::Memory, 1);
        let mut seen = Vec::new();
        for cyc in 0..5 {
            oc.tick(cyc, |a, k| seen.push((a.partition, k)));
        }
        assert_eq!(seen, vec![(RfPartition::Srf, AccessKind::Read)]);
    }

    #[test]
    fn next_event_is_conservative_and_tracks_data_return() {
        let mut oc = OperandCollector::new(4, 24, true);
        assert_eq!(oc.next_event(0), None, "idle collector has no horizon");
        let slow = acc(0, 3, RfPartition::Srf);
        oc.allocate(
            0,
            &[slow],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            1,
        );
        // Un-granted read: must retry next cycle.
        assert_eq!(oc.next_event(0), Some(1));
        oc.tick(0, |_, _| {}); // grant at 0, data ready at 3
        assert_eq!(oc.next_event(0), Some(3), "waiting purely on data return");
        let (c, _) = oc.tick(3, |_, _| {});
        assert_eq!(c.len(), 1);
        assert_eq!(oc.next_event(3), None);
        // A queued writeback pins the horizon to the next cycle.
        oc.request_writeback(0, Reg(0), stv(0), 9);
        assert_eq!(oc.next_event(3), Some(4));
    }

    #[test]
    fn mixed_partition_reads() {
        // An FRF read (1 cycle) and an SRF read (3 cycles) on different
        // banks: the instruction waits for the slower one.
        let mut oc = OperandCollector::new(2, 24, true);
        oc.allocate(
            0,
            &[acc(0, 1, RfPartition::FrfHigh), acc(1, 3, RfPartition::Srf)],
            CollectDest::Execute {
                latency: 1,
                writeback: None,
            },
            1,
        );
        let (c, _) = run_cycles(&mut oc, 0, 3);
        assert!(c.is_empty());
        let (c, _) = run_cycles(&mut oc, 3, 4);
        assert_eq!(c.len(), 1);
    }
}
