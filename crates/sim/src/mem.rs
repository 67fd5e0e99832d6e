//! Memory system: functional global/shared memory, a small L1 model, and
//! the load/store unit with warp-level coalescing.

use std::collections::{HashMap, VecDeque};

/// Words per [`GlobalMemory`] page (4 KB).
pub const PAGE_WORDS: usize = 1024;

/// Functional global memory: 32-bit words with wrapping addressing
/// (addresses are word indices masked to the memory size).
///
/// Storage is paged and allocated lazily: a page that was never written
/// reads as zero and costs no memory, so a 16 MB address space touched in
/// a few pages stays a few pages big.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    pages: Vec<Option<Box<[u32]>>>,
    /// Words per page: [`PAGE_WORDS`], or the whole memory if smaller.
    page_words: usize,
    page_shift: u32,
    mask: usize,
}

impl GlobalMemory {
    /// Creates `num_words` (must be a power of two) zeroed words.
    ///
    /// # Panics
    ///
    /// Panics if `num_words` is not a power of two.
    pub fn new(num_words: usize) -> Self {
        assert!(
            num_words.is_power_of_two(),
            "memory size must be a power of two"
        );
        let page_words = PAGE_WORDS.min(num_words);
        GlobalMemory {
            pages: vec![None; num_words / page_words],
            page_words,
            page_shift: page_words.trailing_zeros(),
            mask: num_words - 1,
        }
    }

    /// Reads the word at `addr` (word address, wraps).
    pub fn read(&self, addr: u32) -> u32 {
        let a = addr as usize & self.mask;
        match &self.pages[a >> self.page_shift] {
            Some(page) => page[a & (self.page_words - 1)],
            None => 0,
        }
    }

    /// Writes the word at `addr` (word address, wraps).
    pub fn write(&mut self, addr: u32, value: u32) {
        let a = addr as usize & self.mask;
        let page_words = self.page_words;
        let page = self.pages[a >> self.page_shift]
            .get_or_insert_with(|| vec![0; page_words].into_boxed_slice());
        page[a & (page_words - 1)] = value;
    }

    /// Bulk-initialises memory starting at `base` from `data`.
    pub fn load(&mut self, base: u32, data: &[u32]) {
        for (i, &v) in data.iter().enumerate() {
            self.write(base.wrapping_add(i as u32), v);
        }
    }

    /// Size in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mask + 1
    }

    /// True when the memory holds zero words — never the case in practice,
    /// since [`GlobalMemory::new`] rejects sizes that are not a power of
    /// two (and zero is not one); kept alongside [`len`] for API
    /// completeness.
    ///
    /// [`len`]: GlobalMemory::len
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages that have been written (and so hold storage).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// The non-zero words as `(address, value)` in address order: the
    /// memory image without the zeros it reads everywhere else, visiting
    /// only the written pages.
    pub fn nonzero_words(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let page_words = self.page_words;
        self.pages
            .iter()
            .enumerate()
            .filter_map(move |(i, page)| Some((i * page_words, page.as_deref()?)))
            .flat_map(|(base, page)| {
                page.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(move |(off, &v)| ((base + off) as u32, v))
            })
    }
}

/// A per-SM, per-cycle view of global memory: reads see the cycle-start
/// state plus this SM's own earlier writes of the same cycle; writes are
/// buffered and committed by the GPU driver in SM-id order at the end of
/// the cycle.
///
/// This two-phase execute/commit scheme makes the order in which SMs step
/// within a cycle irrelevant: an SM's view of memory depends only on the
/// committed state and its own write log, never on which other SMs have
/// already stepped the cycle. The one semantic difference from
/// stepping SMs in-place is that an SM no longer observes a *same-cycle*
/// write from a lower-numbered SM; cross-SM communication at single-cycle
/// granularity is not representable in the CTA programming model (there is
/// no inter-CTA barrier), so no workload can depend on it.
#[derive(Debug)]
pub struct GmemView<'a> {
    base: &'a GlobalMemory,
    /// Masked (address, value) writes in program order.
    writes: &'a mut Vec<(u32, u32)>,
}

impl<'a> GmemView<'a> {
    /// A view over `base` logging writes into `writes` (not cleared here:
    /// the log accumulates for the cycle and is drained at commit).
    pub fn new(base: &'a GlobalMemory, writes: &'a mut Vec<(u32, u32)>) -> Self {
        GmemView { base, writes }
    }

    /// Reads the word at `addr`, observing this view's own earlier writes.
    pub fn read(&self, addr: u32) -> u32 {
        let key = (addr as usize & self.base.mask) as u32;
        // The log is short (at most one cycle's stores); scan newest-first.
        for &(a, v) in self.writes.iter().rev() {
            if a == key {
                return v;
            }
        }
        self.base.read(key)
    }

    /// Buffers a write of `value` to `addr`.
    pub fn write(&mut self, addr: u32, value: u32) {
        let key = (addr as usize & self.base.mask) as u32;
        self.writes.push((key, value));
    }
}

/// Per-CTA shared memory (word-addressed, wraps).
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<u32>,
}

impl SharedMemory {
    /// Allocates `num_words` zeroed words.
    pub fn new(num_words: usize) -> Self {
        SharedMemory {
            words: vec![0; num_words.max(1)],
        }
    }

    /// Zeroes the memory in place, resizing to `num_words` if the CTA's
    /// requirement changed. Equivalent to `*self = SharedMemory::new(..)`
    /// without giving up the existing buffer.
    pub fn reset(&mut self, num_words: usize) {
        let n = num_words.max(1);
        self.words.clear();
        self.words.resize(n, 0);
    }

    /// Reads the word at `addr` (wraps).
    pub fn read(&self, addr: u32) -> u32 {
        let n = self.words.len();
        self.words[addr as usize % n]
    }

    /// Writes the word at `addr` (wraps).
    pub fn write(&mut self, addr: u32, value: u32) {
        let n = self.words.len();
        self.words[addr as usize % n] = value;
    }
}

/// Words per coalescing segment / cache line (128 bytes).
pub const LINE_WORDS: u32 = 32;

/// A tiny fully-associative LRU cache over 128-byte lines, standing in for
/// the per-SM L1.
///
/// Lookups are indexed by a line→stamp map; recency order lives in a lazy
/// queue whose stale entries (a line re-accessed after the entry was
/// pushed) are skipped at eviction time and swept once the queue grows to
/// twice the live set. The old implementation scanned a `VecDeque` on
/// every access — O(capacity), 256 entries at the default `l1_lines`, on
/// the hot path of every global-memory instruction; the index makes the
/// access amortised O(1). End-to-end fig12 wall clock (before/after in
/// EXPERIMENTS.md) is parity-or-better under heavy run-to-run noise, and
/// figure output is bit-identical; the equivalence test below pins the
/// exact hit/miss behaviour to the naive scan.
#[derive(Debug, Clone)]
pub struct L1Cache {
    /// Resident lines, each mapped to the stamp of its latest access.
    stamps: HashMap<u32, u64>,
    /// (stamp, line) in access order, oldest first. An entry is live only
    /// if its stamp matches `stamps[line]`.
    order: VecDeque<(u64, u32)>,
    next_stamp: u64,
    capacity: usize,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl L1Cache {
    /// Creates a cache with `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        L1Cache {
            stamps: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(2 * capacity),
            next_stamp: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing word address `addr`; returns `true` on
    /// hit. Misses allocate (LRU eviction).
    pub fn access(&mut self, addr: u32) -> bool {
        let line = addr / LINE_WORDS;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let hit = if let Some(s) = self.stamps.get_mut(&line) {
            *s = stamp;
            self.hits += 1;
            true
        } else {
            if self.stamps.len() == self.capacity {
                self.evict_lru();
            }
            self.stamps.insert(line, stamp);
            self.misses += 1;
            false
        };
        self.order.push_back((stamp, line));
        // Each hit strands one stale queue entry; sweep them before the
        // queue outgrows twice the live set so eviction stays amortised
        // O(1) and memory stays bounded.
        if self.order.len() > 2 * self.capacity {
            let stamps = &self.stamps;
            self.order.retain(|&(s, l)| stamps.get(&l) == Some(&s));
        }
        hit
    }

    /// Removes the least-recently-used resident line, skipping queue
    /// entries superseded by a later access to the same line.
    fn evict_lru(&mut self) {
        while let Some((s, l)) = self.order.pop_front() {
            if self.stamps.get(&l) == Some(&s) {
                self.stamps.remove(&l);
                return;
            }
        }
        unreachable!("a resident line must have a live queue entry");
    }
}

/// A memory request being processed by the LSU.
#[derive(Debug, Clone, Copy)]
struct LsuOp {
    token: u64,
    finish_at: u64,
}

/// The load/store unit for one SM.
///
/// Accepts one warp memory instruction per cycle; each instruction's
/// latency is `base latency + (transactions - 1)` cycles, where
/// transactions is the number of distinct 128-byte segments touched by the
/// active lanes (coalescing). Completion tokens are returned to the SM,
/// which performs the register writeback via the operand collector.
#[derive(Debug)]
pub struct LoadStoreUnit {
    inflight: Vec<LsuOp>,
    accept_queue: VecDeque<(u64, u32)>, // (token, latency)
    /// Total coalesced transactions issued.
    pub transactions: u64,
    /// Warp-level memory instructions processed.
    pub instructions: u64,
}

impl LoadStoreUnit {
    /// New, idle LSU.
    pub fn new() -> Self {
        LoadStoreUnit {
            inflight: Vec::new(),
            accept_queue: VecDeque::new(),
            transactions: 0,
            instructions: 0,
        }
    }

    /// Counts coalesced transactions for a set of word addresses.
    pub fn coalesce(addrs: &[u32]) -> u32 {
        let mut segs = Vec::new();
        Self::coalesce_into(addrs, &mut segs);
        segs.len() as u32
    }

    /// Fills `segs` with the sorted, deduplicated 128-byte segments touched
    /// by `addrs` (the allocation-free form of [`LoadStoreUnit::coalesce`];
    /// the hot path reuses one scratch buffer across instructions).
    pub fn coalesce_into(addrs: &[u32], segs: &mut Vec<u32>) {
        segs.clear();
        segs.extend(addrs.iter().map(|a| a / LINE_WORDS));
        segs.sort_unstable();
        segs.dedup();
    }

    /// Submits a warp memory instruction. `latency` is the full service
    /// latency (hit/miss decided by the caller via the L1 model);
    /// `transactions` adds serialisation cycles.
    pub fn submit(&mut self, token: u64, latency: u32, transactions: u32) {
        self.transactions += u64::from(transactions);
        self.instructions += 1;
        let serialised = latency + transactions.saturating_sub(1);
        self.accept_queue.push_back((token, serialised));
    }

    /// Advances one cycle; returns tokens of completed operations.
    pub fn tick(&mut self, cycle: u64) -> Vec<u64> {
        let mut done = Vec::new();
        self.tick_into(cycle, &mut done);
        done
    }

    /// Advances one cycle, appending tokens of completed operations to
    /// `done` (the allocation-free form of [`LoadStoreUnit::tick`]).
    pub fn tick_into(&mut self, cycle: u64, done: &mut Vec<u64>) {
        // One instruction enters service per cycle.
        if let Some((token, lat)) = self.accept_queue.pop_front() {
            self.inflight.push(LsuOp {
                token,
                finish_at: cycle + u64::from(lat),
            });
        }
        self.inflight.retain(|op| {
            if op.finish_at <= cycle {
                done.push(op.token);
                false
            } else {
                true
            }
        });
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.accept_queue.is_empty()
    }
}

impl Default for LoadStoreUnit {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_memory_wraps() {
        let mut m = GlobalMemory::new(1024);
        m.write(5, 42);
        assert_eq!(m.read(5), 42);
        m.write(1024 + 5, 7); // wraps to 5
        assert_eq!(m.read(5), 7);
        assert_eq!(m.len(), 1024);
        assert!(!m.is_empty());
    }

    #[test]
    fn untouched_global_memory_reads_zero_without_storage() {
        let mut m = GlobalMemory::new(1 << 22);
        assert_eq!(m.resident_pages(), 0);
        for addr in [0, 1, 1023, 1024, (1 << 22) - 1, u32::MAX] {
            assert_eq!(m.read(addr), 0, "addr {addr}");
        }
        m.write(5000, 9);
        assert_eq!(m.resident_pages(), 1);
        // Neighbours on the freshly allocated page are still zero.
        assert_eq!(m.read(4999), 0);
        assert_eq!(m.read(5001), 0);
        assert_eq!(m.read(5000), 9);
        m.write(3, 4);
        m.write(5001, 0); // a written zero is not listed
        assert_eq!(m.nonzero_words().collect::<Vec<_>>(), [(3, 4), (5000, 9)]);
    }

    #[test]
    fn paged_global_memory_wraps_across_the_address_space() {
        let mut m = GlobalMemory::new(1 << 12);
        m.write(u32::MAX, 1); // wraps to the last word
        assert_eq!(m.read((1 << 12) - 1), 1);
        m.write(1 << 12, 2); // wraps to word 0
        assert_eq!(m.read(0), 2);
        assert_eq!(m.read(3 << 12), 2);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn global_memory_smaller_than_a_page() {
        let mut m = GlobalMemory::new(64);
        assert_eq!(m.len(), 64);
        m.write(63, 7);
        m.write(64 + 3, 8); // wraps to 3
        assert_eq!(m.read(63), 7);
        assert_eq!(m.read(3), 8);
        assert_eq!(m.read(127), 7);
        assert_eq!(m.resident_pages(), 1);
        let one = GlobalMemory::new(1);
        assert_eq!(one.read(12345), 0);
    }

    #[test]
    fn gmem_view_reads_through_untouched_pages() {
        let mut base = GlobalMemory::new(1 << 16);
        base.write(2048, 5);
        let mut log = Vec::new();
        let mut v = GmemView::new(&base, &mut log);
        assert_eq!(v.read(2048), 5, "committed word on a resident page");
        assert_eq!(v.read(40_000), 0, "absent page reads zero");
        v.write(40_000, 6);
        assert_eq!(v.read(40_000), 6, "staged write shadows the absent page");
        assert_eq!(v.read(40_000 + (1 << 16)), 6, "aliased address too");
        assert_eq!(base.resident_pages(), 1, "staging allocates no page");
    }

    #[test]
    fn global_memory_bulk_load() {
        let mut m = GlobalMemory::new(256);
        m.load(10, &[1, 2, 3]);
        assert_eq!(m.read(10), 1);
        assert_eq!(m.read(12), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn global_memory_requires_pow2() {
        GlobalMemory::new(1000);
    }

    #[test]
    fn shared_memory_read_write() {
        let mut s = SharedMemory::new(128);
        s.write(3, 9);
        assert_eq!(s.read(3), 9);
        s.write(128 + 3, 11);
        assert_eq!(s.read(3), 11);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut c = L1Cache::new(4);
        assert!(!c.access(0));
        assert!(c.access(5)); // same 32-word line
        assert!(!c.access(32)); // next line
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn l1_lru_eviction() {
        let mut c = L1Cache::new(2);
        c.access(0); // line 0
        c.access(32); // line 1
        c.access(64); // line 2, evicts line 0
        assert!(!c.access(0), "line 0 was evicted");
        assert!(c.access(64));
    }

    #[test]
    fn l1_hit_refreshes_recency() {
        let mut c = L1Cache::new(2);
        c.access(0); // line 0
        c.access(32); // line 1
        assert!(c.access(0)); // line 0 now MRU
        c.access(64); // evicts line 1, not line 0
        assert!(c.access(0), "refreshed line must survive");
        assert!(!c.access(32), "line 1 was the LRU victim");
    }

    #[test]
    fn l1_indexed_lru_matches_naive_scan_reference() {
        // The lazy stamp queue must be observationally identical to the
        // textbook scan-and-reorder LRU it replaced, including across many
        // sweeps of the stale-entry compaction.
        let mut fast = L1Cache::new(4);
        let mut naive: VecDeque<u32> = VecDeque::new();
        let mut state = 0x2468_ace1u32;
        for _ in 0..10_000 {
            // Deterministic xorshift over a footprint ~3x the capacity.
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let addr = state % (12 * LINE_WORDS);
            let line = addr / LINE_WORDS;
            let expect_hit = if let Some(pos) = naive.iter().position(|&l| l == line) {
                naive.remove(pos);
                naive.push_back(line);
                true
            } else {
                if naive.len() == 4 {
                    naive.pop_front();
                }
                naive.push_back(line);
                false
            };
            assert_eq!(fast.access(addr), expect_hit, "addr {addr}");
        }
        assert!(fast.hits > 0 && fast.misses > 0);
    }

    #[test]
    fn coalescing_counts_segments() {
        // All 32 lanes in one segment.
        let addrs: Vec<u32> = (0..32).collect();
        assert_eq!(LoadStoreUnit::coalesce(&addrs), 1);
        // Stride-32: every lane its own segment.
        let addrs: Vec<u32> = (0..32).map(|i| i * 32).collect();
        assert_eq!(LoadStoreUnit::coalesce(&addrs), 32);
        // Two segments.
        let addrs = vec![0, 1, 40, 41];
        assert_eq!(LoadStoreUnit::coalesce(&addrs), 2);
    }

    #[test]
    fn lsu_completes_after_latency() {
        let mut lsu = LoadStoreUnit::new();
        lsu.submit(1, 10, 1);
        let mut done = Vec::new();
        for cyc in 0..=10 {
            done.extend(lsu.tick(cyc));
        }
        assert_eq!(done, vec![1]);
        assert!(lsu.is_idle());
        assert_eq!(lsu.instructions, 1);
    }

    #[test]
    fn lsu_serialises_extra_transactions() {
        let mut lsu = LoadStoreUnit::new();
        lsu.submit(1, 10, 4); // +3 cycles
        let mut finish = None;
        for cyc in 0..=20 {
            if lsu.tick(cyc).contains(&1) {
                finish = Some(cyc);
                break;
            }
        }
        assert_eq!(finish, Some(13));
        assert_eq!(lsu.transactions, 4);
    }

    #[test]
    fn coalesce_ignores_inactive_lanes() {
        // exec.rs only pushes addresses for lanes set in the exec mask, so
        // transaction counts must follow the *active* footprint. Model a
        // stride-32 access (worst case: one segment per lane) under a
        // divergent mask with only lanes 0..4 active.
        let all_lanes: Vec<u32> = (0..32u32).map(|lane| lane * 32).collect();
        assert_eq!(LoadStoreUnit::coalesce(&all_lanes), 32);
        let mask: u32 = 0b1111;
        let active: Vec<u32> = all_lanes
            .iter()
            .enumerate()
            .filter(|&(lane, _)| mask & (1 << lane) != 0)
            .map(|(_, &a)| a)
            .collect();
        assert_eq!(LoadStoreUnit::coalesce(&active), 4);
        // Masked unit-stride lanes still coalesce into one segment.
        let unit: Vec<u32> = (0..32u32).filter(|l| mask & (1 << l) != 0).collect();
        assert_eq!(LoadStoreUnit::coalesce(&unit), 1);
    }

    #[test]
    fn inverted_latencies_complete_out_of_order_and_release_cleanly() {
        // Two in-flight ops with inverted latencies: the younger, faster op
        // completes first. The SM releases each destination register only
        // when its own token completes, so the scoreboard must stay
        // coherent through the out-of-order writeback.
        use crate::scoreboard::Scoreboard;
        use prf_isa::{KernelBuilder, Reg};

        let mut kb = KernelBuilder::new("two-loads");
        kb.ldg(Reg(1), Reg(0), 0); // token 1, slow
        kb.ldg(Reg(2), Reg(0), 4); // token 2, fast
        kb.iadd(Reg(3), Reg(1), Reg(2)); // consumer of both
        kb.exit();
        let k = kb.build().unwrap();
        let (slow, fast, consumer) = (k.fetch(0), k.fetch(1), k.fetch(2));

        let mut lsu = LoadStoreUnit::new();
        let mut sb = Scoreboard::new();
        let mut token_reg = std::collections::HashMap::new();
        sb.reserve(slow);
        lsu.submit(1, 20, 1);
        token_reg.insert(1u64, Reg(1));
        sb.reserve(fast);
        lsu.submit(2, 3, 1);
        token_reg.insert(2u64, Reg(2));
        assert_eq!(sb.pending_count(), 2);

        let mut completions = Vec::new();
        for cycle in 0..=30u64 {
            for token in lsu.tick(cycle) {
                sb.release_reg(token_reg[&token]);
                completions.push(token);
                // Release order is completion order: after the fast op
                // alone, only the slow op's destination still blocks.
                if completions == [2] {
                    assert_eq!(sb.pending_count(), 1);
                    assert!(sb.blocked(consumer), "r1 still pending");
                }
            }
        }
        assert_eq!(
            completions,
            vec![2, 1],
            "inverted latencies invert completion"
        );
        assert!(sb.is_clear(), "every reserve matched by a release");
        assert!(!sb.blocked(consumer));
        assert!(lsu.is_idle());
    }

    #[test]
    fn gmem_view_buffers_writes_and_serves_own_reads() {
        let mut base = GlobalMemory::new(1024);
        base.write(7, 70);
        let mut log = Vec::new();
        {
            let mut v = GmemView::new(&base, &mut log);
            assert_eq!(v.read(7), 70, "reads fall through to base");
            v.write(7, 71);
            v.write(9, 90);
            assert_eq!(v.read(7), 71, "own write visible");
            v.write(7, 72);
            assert_eq!(v.read(7), 72, "newest own write wins");
            // Wrapping: 1024+9 aliases 9.
            assert_eq!(v.read(1024 + 9), 90);
            v.write(1024 + 5, 55);
            assert_eq!(v.read(5), 55);
        }
        assert_eq!(base.read(7), 70, "base untouched until commit");
        for (a, val) in log {
            base.write(a, val);
        }
        assert_eq!(base.read(7), 72);
        assert_eq!(base.read(9), 90);
        assert_eq!(base.read(5), 55);
    }

    #[test]
    fn coalesce_into_matches_coalesce() {
        let addrs = vec![0, 1, 40, 41, 999];
        let mut segs = vec![123, 456]; // stale scratch must be cleared
        LoadStoreUnit::coalesce_into(&addrs, &mut segs);
        assert_eq!(segs.len() as u32, LoadStoreUnit::coalesce(&addrs));
        assert_eq!(segs, vec![0, 1, 31]);
    }

    #[test]
    fn lsu_accepts_one_per_cycle() {
        let mut lsu = LoadStoreUnit::new();
        lsu.submit(1, 5, 1);
        lsu.submit(2, 5, 1);
        // token 1 enters at cycle 0 (done 5), token 2 at cycle 1 (done 6).
        let mut done = Vec::new();
        for cyc in 0..=6 {
            done.extend(lsu.tick(cyc));
        }
        assert_eq!(done, vec![1, 2]);
    }
}
