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
//!
//! The bookkeeping is on `u64` masks, which is why a collector holds at
//! most [`MAX_COLLECTORS`] units over at most [`MAX_RF_BANKS`] banks. A
//! `free` mask names the vacant units (the lowest bit is the next one
//! allocated); units still waiting for a grant sit in an age-ordered list;
//! units whose every read is granted are bits of a `gathered` mask and
//! release, in unit-index order, once their data has arrived. The banks
//! granted in a cycle are one `taken` mask. Writebacks wait in one
//! age-ordered queue, arbitrated in place.

use prf_isa::Reg;

use crate::rf::{AccessKind, ResolvedAccess, RfPartition};
use crate::validate::{MAX_COLLECTORS, MAX_RF_BANKS};

/// Most register sources one instruction reads: `Instruction::srcs` has
/// three slots, so a collector entry holds its reads inline.
pub const MAX_READS: usize = 3;

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
#[derive(Debug, Clone, Copy)]
struct CollectorEntry {
    /// Warp slot that issued the instruction.
    warp_slot: usize,
    /// Source reads; bit `i` of `ungranted` tells whether `reads[i]` still
    /// waits for a bank, and slots past the live reads are never set.
    reads: [ResolvedAccess; MAX_READS],
    /// `reads[i].bank` reduced modulo the bank count, once, at allocation.
    banks: [u8; MAX_READS],
    /// One bit per read not yet granted a bank.
    ungranted: u8,
    /// Cycle by which the data of every granted read has arrived.
    data_at: u64,
    /// Where the instruction goes after collection.
    dest: CollectDest,
    /// Opaque token the SM uses to track the instruction.
    token: u64,
}

/// The contents of a vacant unit; overwritten at allocation.
const VACANT: CollectorEntry = CollectorEntry {
    warp_slot: 0,
    reads: [ResolvedAccess {
        bank: 0,
        latency: 0,
        partition: RfPartition::MrfStv,
        phys_reg: 0,
        repair: None,
    }; MAX_READS],
    banks: [0; MAX_READS],
    ungranted: 0,
    data_at: 0,
    dest: CollectDest::Memory,
    token: 0,
};

/// A writeback request waiting for its bank.
#[derive(Debug, Clone, Copy)]
struct WritebackRequest {
    /// Warp slot whose register is written.
    warp_slot: usize,
    /// Destination (architected) register, for scoreboard release.
    reg: Reg,
    /// The resolved physical access.
    access: ResolvedAccess,
    /// `access.bank` reduced modulo the bank count, once, at request.
    bank: u8,
    /// Token returned to the SM when the write completes.
    token: u64,
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
    units: Vec<CollectorEntry>,
    /// Vacant units, one bit each.
    free: u64,
    /// Units with a read still waiting for a bank, in allocation (age)
    /// order: arbitration walks this list oldest first.
    gathering: Vec<u8>,
    /// Units whose every read is granted, waiting for the data.
    gathered: u64,
    num_banks: usize,
    /// Unpipelined banks only: cycle until which each bank is busy
    /// (exclusive), and the banks busy past the last tick.
    bank_busy_until: Vec<u64>,
    busy: u64,
    /// Writebacks waiting for a bank, oldest first.
    writeback_queue: Vec<WritebackRequest>,
    /// Writes in flight, in grant order: (completion cycle, record).
    inflight_writes: Vec<(u64, CompletedWrite)>,
    /// Stat: grants denied because the bank was busy or already granted.
    pub bank_conflict_waits: u64,
    pipelined: bool,
}

/// A mask of the low `n` bits, `n <= 64`.
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
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
    ///
    /// # Panics
    ///
    /// Panics if `num_units` exceeds [`MAX_COLLECTORS`] or `num_banks` is
    /// zero or exceeds [`MAX_RF_BANKS`] (`check_config` rejects both).
    pub fn new(num_units: usize, num_banks: usize, pipelined: bool) -> Self {
        assert!(
            num_units <= MAX_COLLECTORS,
            "{num_units} collector units: at most {MAX_COLLECTORS}"
        );
        assert!(
            (1..=MAX_RF_BANKS).contains(&num_banks),
            "{num_banks} RF banks: 1 to {MAX_RF_BANKS}"
        );
        OperandCollector {
            units: vec![VACANT; num_units],
            free: low_bits(num_units),
            gathering: Vec::with_capacity(num_units),
            gathered: 0,
            num_banks,
            bank_busy_until: if pipelined {
                Vec::new()
            } else {
                vec![0; num_banks]
            },
            busy: 0,
            writeback_queue: Vec::new(),
            inflight_writes: Vec::new(),
            bank_conflict_waits: 0,
            pipelined,
        }
    }

    /// Number of free collector units.
    pub fn free_units(&self) -> usize {
        self.free.count_ones() as usize
    }

    /// True if at least one unit is free.
    pub fn has_free_unit(&self) -> bool {
        self.free != 0
    }

    /// Allocates a unit for an issued instruction.
    ///
    /// `reads` lists the pre-resolved source accesses to fetch, at most
    /// [`MAX_READS`] (an instruction has three source slots). Returns
    /// `false` (and allocates nothing) when no unit is free.
    ///
    /// # Panics
    ///
    /// Panics if `reads` holds more than [`MAX_READS`] accesses.
    pub fn allocate(
        &mut self,
        warp_slot: usize,
        reads: &[ResolvedAccess],
        dest: CollectDest,
        token: u64,
    ) -> bool {
        assert!(
            reads.len() <= MAX_READS,
            "an instruction reads at most {MAX_READS} registers, got {}",
            reads.len()
        );
        if self.free == 0 {
            return false;
        }
        let unit = self.free.trailing_zeros() as usize;
        self.free &= self.free - 1;
        let entry = &mut self.units[unit];
        *entry = CollectorEntry {
            warp_slot,
            ungranted: (1u8 << reads.len()) - 1,
            data_at: 0,
            dest,
            token,
            ..VACANT
        };
        for (i, &access) in reads.iter().enumerate() {
            entry.reads[i] = access;
            entry.banks[i] = (access.bank % self.num_banks) as u8;
        }
        if reads.is_empty() {
            self.gathered |= 1 << unit;
        } else {
            self.gathering.push(unit as u8);
        }
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
        self.writeback_queue.push(WritebackRequest {
            warp_slot,
            reg,
            access,
            bank: (access.bank % self.num_banks) as u8,
            token,
        });
    }

    /// Advances the collector by one cycle.
    ///
    /// Arbitration: for each bank, the oldest writeback wins first, then
    /// the oldest pending collector read. `on_access` fires once per
    /// *granted* access with the full resolved access (partition for
    /// energy accounting, repair for fault accounting). Fills `collected`
    /// with the instructions that finished collection and `done_writes`
    /// with the writes that completed this cycle (both cleared here).
    pub fn tick_into(
        &mut self,
        cycle: u64,
        mut on_access: impl FnMut(ResolvedAccess, AccessKind),
        collected: &mut Vec<CollectedInstr>,
        done_writes: &mut Vec<CompletedWrite>,
    ) {
        collected.clear();
        done_writes.clear();
        let OperandCollector {
            units,
            free,
            gathering,
            gathered,
            bank_busy_until,
            busy,
            writeback_queue,
            inflight_writes,
            bank_conflict_waits,
            pipelined,
            ..
        } = self;
        let pipelined = *pipelined;

        // 1. Completed writes, in grant order.
        if !inflight_writes.is_empty() {
            inflight_writes.retain(|(done_at, w)| {
                let done = *done_at <= cycle;
                if done {
                    done_writes.push(*w);
                }
                !done
            });
        }

        // 2. Release the fully-granted units whose data has arrived, in
        // unit-index order (the order the SM turns them into execution
        // completions). Releasing before this cycle's grants changes
        // nothing: a read granted now arrives at `cycle + 1` or later.
        let mut pending = *gathered;
        while pending != 0 {
            let unit = pending.trailing_zeros() as usize;
            let bit = pending & pending.wrapping_neg();
            pending ^= bit;
            let e = &units[unit];
            if e.data_at <= cycle {
                *gathered ^= bit;
                *free |= bit;
                collected.push(CollectedInstr {
                    warp_slot: e.warp_slot,
                    dest: e.dest,
                    token: e.token,
                });
            }
        }

        // 3. Bank arbitration: one grant per bank per cycle. A pipelined
        // bank granted at `c` takes a new request at `c + 1`, so only an
        // unpipelined bank stays busy past its grant cycle.
        if !pipelined && *busy != 0 {
            let mut still = *busy;
            while still != 0 {
                let bank = still.trailing_zeros() as usize;
                let bit = still & still.wrapping_neg();
                still ^= bit;
                if bank_busy_until[bank] <= cycle {
                    *busy ^= bit;
                }
            }
        }
        let mut taken = *busy;
        let mut grant = |bank: u8, latency: u32| -> Option<u64> {
            let bit = 1u64 << bank;
            if taken & bit != 0 {
                *bank_conflict_waits += 1;
                return None;
            }
            taken |= bit;
            let lat = u64::from(latency.max(1));
            if !pipelined {
                bank_busy_until[usize::from(bank)] = cycle + lat;
                *busy |= bit;
            }
            Some(cycle + lat)
        };

        // 3a. Writebacks (age order, priority over reads).
        if !writeback_queue.is_empty() {
            writeback_queue.retain(|req| match grant(req.bank, req.access.latency) {
                Some(done_at) => {
                    on_access(req.access, AccessKind::Write);
                    inflight_writes.push((
                        done_at,
                        CompletedWrite {
                            warp_slot: req.warp_slot,
                            reg: req.reg,
                            token: req.token,
                            partition: req.access.partition,
                        },
                    ));
                    false
                }
                None => true,
            });
        }

        // 3b. Collector reads, oldest unit first, each unit's ungranted
        // reads in operand order; a unit whose last read is granted leaves
        // the list for `gathered`.
        let mut kept = 0;
        for k in 0..gathering.len() {
            let unit = gathering[k];
            let e = &mut units[usize::from(unit)];
            let mut waiting = e.ungranted;
            while waiting != 0 {
                let i = waiting.trailing_zeros() as usize;
                waiting &= waiting - 1;
                if let Some(data_at) = grant(e.banks[i], e.reads[i].latency) {
                    e.ungranted &= !(1 << i);
                    e.data_at = e.data_at.max(data_at);
                    on_access(e.reads[i], AccessKind::Read);
                }
            }
            if e.ungranted == 0 {
                *gathered |= 1 << unit;
            } else {
                gathering[kept] = unit;
                kept += 1;
            }
        }
        gathering.truncate(kept);
    }

    /// True when no instruction or write is outstanding.
    pub fn is_idle(&self) -> bool {
        self.gathering.is_empty()
            && self.gathered == 0
            && self.writeback_queue.is_empty()
            && self.inflight_writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

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

    /// One [`OperandCollector::tick_into`] into fresh buffers.
    fn tick(
        oc: &mut OperandCollector,
        cycle: u64,
        on_access: impl FnMut(ResolvedAccess, AccessKind),
    ) -> (Vec<CollectedInstr>, Vec<CompletedWrite>) {
        let (mut collected, mut done_writes) = (Vec::new(), Vec::new());
        oc.tick_into(cycle, on_access, &mut collected, &mut done_writes);
        (collected, done_writes)
    }

    fn run_cycles(
        oc: &mut OperandCollector,
        from: u64,
        to: u64,
    ) -> (Vec<CollectedInstr>, Vec<CompletedWrite>) {
        let mut all_c = Vec::new();
        let mut all_w = Vec::new();
        for cyc in from..to {
            let (c, w) = tick(oc, cyc, |_, _| {});
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
        let (c0, _) = tick(&mut oc, 0, |_, _| {});
        assert!(c0.is_empty());
        let (c1, _) = tick(&mut oc, 1, |_, _| {});
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
        let (c, _) = tick(&mut oc, 0, |_, _| {});
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
        let (_, w) = tick(&mut oc, 0, |_, k| kinds.push(k));
        assert!(w.is_empty());
        assert_eq!(kinds, vec![AccessKind::Write], "write must win the bank");
        let (_, w) = tick(&mut oc, 1, |_, _| {});
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].token, 99);
        assert_eq!(w[0].partition, RfPartition::MrfStv);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut oc = OperandCollector::new(4, 24, true);
        oc.allocate(0, &[stv(0), stv(1), stv(2)], CollectDest::Memory, 5);
        let (c, _) = tick(&mut oc, 0, |_, _| {});
        assert!(c.is_empty());
        let (c, _) = tick(&mut oc, 1, |_, _| {});
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
            tick(&mut oc, cyc, |a, k| seen.push((a.partition, k)));
        }
        assert_eq!(seen, vec![(RfPartition::Srf, AccessKind::Read)]);
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

    /// `(warp_slot, reads with their data-arrival cycle once granted,
    /// dest, token)`.
    type ReferenceEntry = (usize, Vec<(ResolvedAccess, Option<u64>)>, CollectDest, u64);

    /// The per-read walk the collector used before entries kept their
    /// reads inline: every read of every occupied unit is visited each
    /// cycle, banks are reduced per visit, and released units are dropped
    /// from `occupied` by re-reading `units`. The differential test below
    /// holds [`OperandCollector`] to it.
    struct ReferenceCollector {
        units: Vec<Option<ReferenceEntry>>,
        occupied: Vec<usize>,
        bank_busy_until: Vec<u64>,
        writeback_queue: VecDeque<(usize, Reg, ResolvedAccess, u64)>,
        inflight_writes: Vec<(u64, CompletedWrite)>,
        bank_conflict_waits: u64,
        pipelined: bool,
    }

    impl ReferenceCollector {
        fn new(num_units: usize, num_banks: usize, pipelined: bool) -> Self {
            ReferenceCollector {
                units: vec![None; num_units],
                occupied: Vec::new(),
                bank_busy_until: vec![0; num_banks],
                writeback_queue: VecDeque::new(),
                inflight_writes: Vec::new(),
                bank_conflict_waits: 0,
                pipelined,
            }
        }

        fn occupancy(&self, latency: u32) -> u64 {
            if self.pipelined {
                1
            } else {
                u64::from(latency.max(1))
            }
        }

        fn allocate(
            &mut self,
            warp_slot: usize,
            reads: &[ResolvedAccess],
            dest: CollectDest,
            token: u64,
        ) -> bool {
            let Some(slot) = self.units.iter().position(Option::is_none) else {
                return false;
            };
            let pending = reads.iter().map(|&a| (a, None)).collect();
            self.units[slot] = Some((warp_slot, pending, dest, token));
            self.occupied.push(slot);
            true
        }

        fn tick(
            &mut self,
            cycle: u64,
            on_access: &mut impl FnMut(ResolvedAccess, AccessKind),
        ) -> (Vec<(usize, CollectDest, u64)>, Vec<CompletedWrite>) {
            let mut done_writes = Vec::new();
            self.inflight_writes.retain(|(done_at, w)| {
                let done = *done_at <= cycle;
                if done {
                    done_writes.push(*w);
                }
                !done
            });
            let num_banks = self.bank_busy_until.len();
            let mut granted_bank = vec![false; num_banks];
            let mut remaining = VecDeque::new();
            while let Some((warp_slot, reg, access, token)) = self.writeback_queue.pop_front() {
                let bank = access.bank % num_banks;
                if !granted_bank[bank] && self.bank_busy_until[bank] <= cycle {
                    granted_bank[bank] = true;
                    self.bank_busy_until[bank] = cycle + self.occupancy(access.latency);
                    on_access(access, AccessKind::Write);
                    let write = CompletedWrite {
                        warp_slot,
                        reg,
                        token,
                        partition: access.partition,
                    };
                    let at = cycle + u64::from(access.latency.max(1));
                    self.inflight_writes.push((at, write));
                } else {
                    self.bank_conflict_waits += 1;
                    remaining.push_back((warp_slot, reg, access, token));
                }
            }
            self.writeback_queue = remaining;
            let mut ready = Vec::new();
            for &i in &self.occupied {
                let occupancy = |latency: u32| -> u64 {
                    if self.pipelined {
                        1
                    } else {
                        u64::from(latency.max(1))
                    }
                };
                let entry = self.units[i].as_mut().expect("occupied");
                let mut all_ready = true;
                for (access, ready_at) in entry.1.iter_mut() {
                    match *ready_at {
                        Some(t) => all_ready &= t <= cycle,
                        None => {
                            let bank = access.bank % num_banks;
                            if !granted_bank[bank] && self.bank_busy_until[bank] <= cycle {
                                granted_bank[bank] = true;
                                self.bank_busy_until[bank] = cycle + occupancy(access.latency);
                                *ready_at = Some(cycle + u64::from(access.latency.max(1)));
                                on_access(*access, AccessKind::Read);
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
            ready.sort_unstable();
            let mut collected = Vec::new();
            for &i in &ready {
                let (warp_slot, _, dest, token) = self.units[i].take().expect("ready");
                collected.push((warp_slot, dest, token));
            }
            let units = &self.units;
            self.occupied.retain(|&i| units[i].is_some());
            (collected, done_writes)
        }

        fn free_units(&self) -> usize {
            self.units.iter().filter(|u| u.is_none()).count()
        }

        fn is_idle(&self) -> bool {
            self.occupied.is_empty()
                && self.writeback_queue.is_empty()
                && self.inflight_writes.is_empty()
        }
    }

    /// A small xorshift generator: the test needs reproducible draws, not
    /// statistical quality.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn inline_reads_match_the_per_read_walk() {
        let partitions = [
            RfPartition::MrfStv,
            RfPartition::FrfHigh,
            RfPartition::Srf,
            RfPartition::MrfNtv,
        ];
        for (seed, pipelined) in [(1u64, true), (2, false), (3, true), (4, false)] {
            let (units, banks) = (6, 4);
            let mut oc = OperandCollector::new(units, banks, pipelined);
            let mut reference = ReferenceCollector::new(units, banks, pipelined);
            let mut draw = Draw(0x9E37_79B9_7F4A_7C15 ^ seed);
            let access = |draw: &mut Draw| ResolvedAccess {
                // Banks past `banks` exercise the reduction at allocation.
                bank: draw.below(2 * banks as u64) as usize,
                latency: draw.below(4) as u32,
                partition: partitions[draw.below(4) as usize],
                phys_reg: draw.below(256) as usize,
                repair: None,
            };
            let (mut collected, mut writes) = (Vec::new(), Vec::new());
            let mut token = 0u64;
            let mut released = 0usize;
            for cycle in 0..2_000u64 {
                for _ in 0..draw.below(3) {
                    let reads: Vec<ResolvedAccess> =
                        (0..draw.below(4)).map(|_| access(&mut draw)).collect();
                    let dest = if draw.below(2) == 0 {
                        CollectDest::Memory
                    } else {
                        CollectDest::Execute {
                            latency: draw.below(5) as u32,
                            writeback: Some(Reg(draw.below(63) as u8)),
                        }
                    };
                    let slot = draw.below(48) as usize;
                    let got = oc.allocate(slot, &reads, dest, token);
                    let want = reference.allocate(slot, &reads, dest, token);
                    assert_eq!(got, want, "seed {seed} cycle {cycle} allocate");
                    token += 1;
                }
                if draw.below(3) == 0 {
                    let (slot, reg, a) = (draw.below(48) as usize, Reg(3), access(&mut draw));
                    oc.request_writeback(slot, reg, a, token);
                    reference.writeback_queue.push_back((slot, reg, a, token));
                    token += 1;
                }
                let mut got_accesses = Vec::new();
                oc.tick_into(
                    cycle,
                    |a, k| got_accesses.push((a, k)),
                    &mut collected,
                    &mut writes,
                );
                let mut want_accesses = Vec::new();
                let (want_collected, want_writes) =
                    reference.tick(cycle, &mut |a, k| want_accesses.push((a, k)));
                let at = format!("seed {seed} cycle {cycle}");
                assert_eq!(got_accesses, want_accesses, "{at} grants");
                let got: Vec<_> = collected
                    .iter()
                    .map(|c| (c.warp_slot, c.dest, c.token))
                    .collect();
                assert_eq!(got, want_collected, "{at} released");
                let key = |w: &CompletedWrite| (w.warp_slot, w.reg, w.token, w.partition);
                let got: Vec<_> = writes.iter().map(key).collect();
                let want: Vec<_> = want_writes.iter().map(key).collect();
                assert_eq!(got, want, "{at} completed writes");
                assert_eq!(
                    oc.bank_conflict_waits, reference.bank_conflict_waits,
                    "{at} bank conflict waits"
                );
                released += collected.len();
            }
            assert!(released > 1_000, "seed {seed}: only {released} released");
            assert!(oc.bank_conflict_waits > 0, "seed {seed}");
        }
    }

    /// The masks at full width: 64 units over 64 banks, long and uneven
    /// latencies so the array fills, then a drain to idle. Besides grants,
    /// releases, completed writes and conflict counts, every cycle compares
    /// the unit count and idleness, which a shift by 64 would break.
    #[test]
    fn full_width_masks_match_the_per_read_walk() {
        const WIDTH: usize = 64;
        for (seed, pipelined) in [(11u64, true), (12, false)] {
            let mut oc = OperandCollector::new(WIDTH, WIDTH, pipelined);
            let mut reference = ReferenceCollector::new(WIDTH, WIDTH, pipelined);
            let mut draw = Draw(0xD1B5_4A32_D192_ED03 ^ seed);
            let access = |draw: &mut Draw| ResolvedAccess {
                bank: draw.below(2 * WIDTH as u64) as usize,
                latency: draw.below(32) as u32,
                partition: RfPartition::Srf,
                phys_reg: draw.below(256) as usize,
                repair: None,
            };
            let (mut collected, mut writes) = (Vec::new(), Vec::new());
            let (mut token, mut released) = (0u64, 0usize);
            let (mut saw_full, mut top_bank_reads) = (false, 0usize);
            let (issue_until, drain_until) = (3_000u64, 3_400u64);
            for cycle in 0..drain_until {
                let at = format!("seed {seed} cycle {cycle}");
                if cycle < issue_until {
                    for _ in 0..draw.below(10) {
                        let reads: Vec<ResolvedAccess> =
                            (0..draw.below(4)).map(|_| access(&mut draw)).collect();
                        let dest = CollectDest::Execute {
                            latency: 1,
                            writeback: None,
                        };
                        let slot = draw.below(64) as usize;
                        let got = oc.allocate(slot, &reads, dest, token);
                        let want = reference.allocate(slot, &reads, dest, token);
                        assert_eq!(got, want, "{at} allocate");
                        token += 1;
                    }
                    for _ in 0..draw.below(3) {
                        let (slot, reg, a) = (draw.below(64) as usize, Reg(7), access(&mut draw));
                        oc.request_writeback(slot, reg, a, token);
                        reference.writeback_queue.push_back((slot, reg, a, token));
                        token += 1;
                    }
                }
                let mut got_accesses = Vec::new();
                oc.tick_into(
                    cycle,
                    |a, k| got_accesses.push((a, k)),
                    &mut collected,
                    &mut writes,
                );
                let mut want_accesses = Vec::new();
                let (want_collected, want_writes) =
                    reference.tick(cycle, &mut |a, k| want_accesses.push((a, k)));
                assert_eq!(got_accesses, want_accesses, "{at} grants");
                let got: Vec<_> = collected
                    .iter()
                    .map(|c| (c.warp_slot, c.dest, c.token))
                    .collect();
                assert_eq!(got, want_collected, "{at} released");
                let key = |w: &CompletedWrite| (w.warp_slot, w.reg, w.token, w.partition);
                let got: Vec<_> = writes.iter().map(key).collect();
                let want: Vec<_> = want_writes.iter().map(key).collect();
                assert_eq!(got, want, "{at} completed writes");
                assert_eq!(
                    oc.bank_conflict_waits, reference.bank_conflict_waits,
                    "{at} bank conflict waits"
                );
                assert_eq!(oc.free_units(), reference.free_units(), "{at} free units");
                assert_eq!(
                    oc.has_free_unit(),
                    reference.free_units() > 0,
                    "{at} has a free unit"
                );
                assert_eq!(oc.is_idle(), reference.is_idle(), "{at} idle");
                saw_full |= !oc.has_free_unit();
                top_bank_reads += got_accesses
                    .iter()
                    .filter(|(a, k)| a.bank % WIDTH == WIDTH - 1 && *k == AccessKind::Read)
                    .count();
                released += collected.len();
            }
            assert!(saw_full, "seed {seed}: the 64 units never filled");
            assert!(top_bank_reads > 0, "seed {seed}: bank 63 never read");
            assert!(released > 3_000, "seed {seed}: only {released} released");
            assert!(oc.is_idle(), "seed {seed}: not idle after the drain");
            assert_eq!(oc.free_units(), WIDTH, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn allocate_rejects_a_fourth_read() {
        let mut oc = OperandCollector::new(2, 24, true);
        oc.allocate(0, &[stv(0); 4], CollectDest::Memory, 1);
    }
}
