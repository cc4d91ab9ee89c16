//! Banked word-addressed memory with locking and access statistics.

use crate::fastdiv::Divisor;

/// How word addresses map onto banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankMapping {
    /// Contiguous blocks: `bank = addr / (words / banks)`. This is the
    /// platform's layout — each core's private data region (and the single
    /// SPMD kernel image) lives inside one bank, so lockstep cores hit the
    /// *same* bank at the *same* address and broadcast, while divergent
    /// cores serialize.
    Blocked,
    /// Word-interleaved: `bank = addr % banks`. Used by the A1 ablation to
    /// quantify how much of the slowdown is bank serialization.
    Interleaved,
}

impl BankMapping {
    /// The bank `addr` belongs to in a memory of `banks` banks of
    /// `bank_words` words each (addresses wrap modulo the memory size).
    /// This is the reference address-to-bank computation, for
    /// bank-attribution code outside the memory.
    /// [`BankedMemory::bank_of`] computes the same bank without divisions;
    /// a test checks the two agree on every address.
    #[inline]
    pub fn bank_of(self, addr: u16, banks: usize, bank_words: usize) -> usize {
        let a = addr as usize % (banks * bank_words);
        match self {
            BankMapping::Blocked => a / bank_words,
            BankMapping::Interleaved => a % banks,
        }
    }
}

/// Physical access counters of one [`BankedMemory`].
///
/// A plain `Copy` bundle of counters, so per-run statistics collection
/// copies it instead of cloning heap state. Per-bank access counts live on
/// the memory itself ([`BankedMemory::per_bank_accesses`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Physical bank read operations (one per served address-group).
    pub bank_reads: u64,
    /// Physical bank write operations.
    pub bank_writes: u64,
    /// Requesters served on top of the first one by a broadcast read
    /// (i.e. accesses *saved* by broadcasting).
    pub broadcast_extra: u64,
}

impl MemStats {
    /// Total physical bank accesses.
    pub fn total_accesses(&self) -> u64 {
        self.bank_reads + self.bank_writes
    }

    /// Adds another memory's counters into this one (multi-run
    /// aggregates, e.g. summing shard statistics). Kept next to the
    /// fields so a new counter cannot be forgotten here.
    pub fn merge(&mut self, other: &MemStats) {
        self.bank_reads += other.bank_reads;
        self.bank_writes += other.bank_writes;
        self.broadcast_extra += other.broadcast_extra;
    }
}

/// The complete mutable state of one [`BankedMemory`], exported by
/// [`BankedMemory::save`] and re-applied by [`BankedMemory::load_snapshot`].
/// Plain data with public fields: the platform's checkpoint layer owns the
/// byte-level encoding, this crate only defines *what* the state is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Every word of the memory, in address order.
    pub words: Vec<u16>,
    /// Currently locked words (synchronizer RMWs in flight), in lock order.
    pub locked: Vec<u16>,
    /// Aggregate physical access counters.
    pub stats: MemStats,
    /// Per-bank physical access counts, indexed by bank.
    pub per_bank: Vec<u64>,
}

/// A word-addressed memory divided into equally sized banks.
///
/// Reads and writes through [`BankedMemory::read`]/[`BankedMemory::write`]
/// count as physical bank accesses; `peek`/`poke` are free backdoors for
/// loaders and tests. Words can be locked (the synchronization ISE's *lock*
/// output) to serialize non-synchronous accesses during the synchronizer's
/// read-modify-write (Section IV-B-c of the paper).
///
/// # Example
///
/// ```
/// use ulp_mem::{BankedMemory, BankMapping};
///
/// let mut dm = BankedMemory::new(32 * 1024, 16, BankMapping::Blocked);
/// assert_eq!(dm.bank_of(0), 0);
/// assert_eq!(dm.bank_of(2048), 1);
/// dm.write(5, 0xABCD);
/// assert_eq!(dm.read(5), 0xABCD);
/// assert_eq!(dm.stats().total_accesses(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BankedMemory {
    words: Vec<u16>,
    banks: usize,
    mapping: BankMapping,
    /// Reciprocal of the word count: the address wrap.
    len_div: Divisor,
    /// Reciprocal of the second step of the mapping: `bank_words` for
    /// [`BankMapping::Blocked`], `banks` for [`BankMapping::Interleaved`].
    bank_div: Divisor,
    /// Currently locked words. A plain vector (not a set): at most a
    /// handful of words are locked at once (one per in-flight synchronizer
    /// RMW), and lock/unlock must not allocate in steady state.
    locked: Vec<u16>,
    stats: MemStats,
    per_bank: Vec<u64>,
}

impl BankedMemory {
    /// Creates a zero-initialized memory of `words` words in `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `banks` is zero or `banks` does not divide
    /// `words`.
    pub fn new(words: usize, banks: usize, mapping: BankMapping) -> BankedMemory {
        assert!(words > 0, "at least one word");
        assert!(banks > 0, "at least one bank");
        assert_eq!(words % banks, 0, "banks must divide the word count");
        BankedMemory {
            words: vec![0; words],
            banks,
            mapping,
            len_div: Divisor::new(words),
            bank_div: Divisor::new(match mapping {
                BankMapping::Blocked => words / banks,
                BankMapping::Interleaved => banks,
            }),
            locked: Vec::new(),
            stats: MemStats::default(),
            per_bank: vec![0; banks],
        }
    }

    /// Memory size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words (never true for a valid instance).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// The configured address-to-bank mapping.
    pub fn mapping(&self) -> BankMapping {
        self.mapping
    }

    /// The bank an address belongs to: [`BankMapping::bank_of`], computed
    /// with precomputed reciprocals instead of divisions.
    #[inline]
    pub fn bank_of(&self, addr: u16) -> usize {
        let a = self.len_div.rem(addr);
        usize::from(match self.mapping {
            BankMapping::Blocked => self.bank_div.div(a),
            BankMapping::Interleaved => self.bank_div.rem(a),
        })
    }

    #[inline]
    fn index(&self, addr: u16) -> usize {
        usize::from(self.len_div.rem(addr))
    }

    /// Physical read (counted).
    pub fn read(&mut self, addr: u16) -> u16 {
        let bank = self.bank_of(addr);
        self.stats.bank_reads += 1;
        self.per_bank[bank] += 1;
        self.words[self.index(addr)]
    }

    /// Physical read serving `requesters` cores at once (broadcast).
    ///
    /// Counts a single bank access; the `requesters - 1` saved accesses are
    /// recorded in [`MemStats::broadcast_extra`].
    pub fn read_broadcast(&mut self, addr: u16, requesters: usize) -> u16 {
        self.count_broadcasts(self.bank_of(addr), requesters, 1);
        self.words[self.index(addr)]
    }

    /// Counts `reads` [`BankedMemory::read_broadcast`]s of words in
    /// `bank`, each to `requesters` cores, without reading them: I-Xbar
    /// grants, which know the bank; their caller reads the words itself.
    #[inline]
    pub(crate) fn count_broadcasts(&mut self, bank: usize, requesters: usize, reads: u64) {
        debug_assert!(requesters >= 1);
        self.stats.bank_reads += reads;
        self.stats.broadcast_extra += reads * requesters.saturating_sub(1) as u64;
        self.per_bank[bank] += reads;
    }

    /// Physical write (counted).
    pub fn write(&mut self, addr: u16, value: u16) {
        let bank = self.bank_of(addr);
        self.stats.bank_writes += 1;
        self.per_bank[bank] += 1;
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// Backdoor read without access accounting (loaders, tests, traces).
    pub fn peek(&self, addr: u16) -> u16 {
        self.words[self.index(addr)]
    }

    /// Backdoor write without access accounting.
    pub fn poke(&mut self, addr: u16, value: u16) {
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// Bulk backdoor load starting at `base`.
    pub fn load(&mut self, base: u16, data: &[u16]) {
        for (i, w) in data.iter().enumerate() {
            self.poke(base.wrapping_add(i as u16), *w);
        }
    }

    /// Locks a word against ordinary accesses (synchronizer RMW in flight).
    pub fn lock_word(&mut self, addr: u16) {
        if !self.locked.contains(&addr) {
            self.locked.push(addr);
        }
    }

    /// Releases a word lock.
    pub fn unlock_word(&mut self, addr: u16) {
        self.locked.retain(|&a| a != addr);
    }

    /// Whether a word is currently locked.
    pub fn is_locked(&self, addr: u16) -> bool {
        self.locked.contains(&addr)
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Per-bank physical access counts (reads + writes), indexed by bank.
    pub fn per_bank_accesses(&self) -> &[u64] {
        &self.per_bank
    }

    /// Resets the access statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.per_bank.fill(0);
    }

    /// Zeroes every word, releases all locks and resets the statistics,
    /// keeping the allocation — so a platform can be reused for another
    /// run without reallocating its memories.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.locked.clear();
        self.reset_stats();
    }

    /// Exports the memory's complete mutable state (contents, locks,
    /// counters) for checkpointing. Geometry (banks, mapping) is not part
    /// of the snapshot — it belongs to the platform configuration the
    /// checkpoint carries separately.
    pub fn save(&self) -> MemSnapshot {
        let mut snapshot = MemSnapshot::default();
        self.save_into(&mut snapshot);
        snapshot
    }

    /// [`BankedMemory::save`] into an existing snapshot, reusing its
    /// allocations.
    pub fn save_into(&self, snapshot: &mut MemSnapshot) {
        snapshot.words.clone_from(&self.words);
        snapshot.locked.clone_from(&self.locked);
        snapshot.stats = self.stats;
        snapshot.per_bank.clone_from(&self.per_bank);
    }

    /// Re-applies a snapshot taken by [`BankedMemory::save`] onto a memory
    /// of the *same geometry*, reusing the existing allocations. Returns
    /// `false` (leaving the memory untouched) when the snapshot's word or
    /// bank count does not match this memory.
    pub fn load_snapshot(&mut self, snapshot: &MemSnapshot) -> bool {
        if snapshot.words.len() != self.words.len() || snapshot.per_bank.len() != self.banks {
            return false;
        }
        self.words.copy_from_slice(&snapshot.words);
        self.locked.clear();
        self.locked.extend_from_slice(&snapshot.locked);
        self.stats = snapshot.stats;
        self.per_bank.copy_from_slice(&snapshot.per_bank);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_mapping() {
        let m = BankedMemory::new(32 * 1024, 16, BankMapping::Blocked);
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(2047), 0);
        assert_eq!(m.bank_of(2048), 1);
        assert_eq!(m.bank_of(32767), 15);
    }

    #[test]
    fn interleaved_mapping() {
        let m = BankedMemory::new(32, 4, BankMapping::Interleaved);
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(1), 1);
        assert_eq!(m.bank_of(5), 1);
        assert_eq!(m.bank_of(7), 3);
    }

    /// The division-free `bank_of` and word index agree with the reference
    /// formulas on every 16-bit address: the paper IM and DM geometries
    /// under both mappings, and a geometry whose sizes are not powers of
    /// two.
    #[test]
    fn division_free_mapping_matches_the_reference_on_every_address() {
        for (words, banks) in [(49_152, 8), (32 * 1024, 16), (30_000, 6)] {
            for mapping in [BankMapping::Blocked, BankMapping::Interleaved] {
                let mut m = BankedMemory::new(words, banks, mapping);
                let mut snap = m.save();
                for (i, w) in snap.words.iter_mut().enumerate() {
                    *w = i as u16;
                }
                assert!(m.load_snapshot(&snap));
                for addr in 0..=u16::MAX {
                    assert_eq!(
                        m.bank_of(addr),
                        mapping.bank_of(addr, banks, words / banks),
                        "bank of {addr} in {words}/{banks} {mapping:?}"
                    );
                    assert_eq!(
                        m.peek(addr) as usize,
                        addr as usize % words,
                        "word of {addr} in {words}/{banks} {mapping:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn counting_vs_backdoor() {
        let mut m = BankedMemory::new(64, 4, BankMapping::Blocked);
        m.poke(3, 42);
        assert_eq!(m.peek(3), 42);
        assert_eq!(m.stats().total_accesses(), 0, "backdoor is free");
        assert_eq!(m.read(3), 42);
        m.write(4, 1);
        assert_eq!(m.stats().bank_reads, 1);
        assert_eq!(m.stats().bank_writes, 1);
        assert_eq!(m.per_bank_accesses()[0], 2);
    }

    #[test]
    fn broadcast_counts_once() {
        let mut m = BankedMemory::new(64, 4, BankMapping::Blocked);
        m.poke(10, 9);
        assert_eq!(m.read_broadcast(10, 8), 9);
        assert_eq!(m.stats().bank_reads, 1, "single physical access");
        assert_eq!(m.stats().broadcast_extra, 7, "seven accesses saved");
    }

    #[test]
    fn word_locks() {
        let mut m = BankedMemory::new(64, 4, BankMapping::Blocked);
        assert!(!m.is_locked(7));
        m.lock_word(7);
        assert!(m.is_locked(7));
        assert!(!m.is_locked(8));
        m.unlock_word(7);
        assert!(!m.is_locked(7));
    }

    #[test]
    fn bulk_load_and_wraparound() {
        let mut m = BankedMemory::new(16, 4, BankMapping::Blocked);
        m.load(14, &[1, 2, 3]);
        assert_eq!(m.peek(14), 1);
        assert_eq!(m.peek(15), 2);
        assert_eq!(m.peek(0), 3, "wraps modulo size");
    }

    #[test]
    #[should_panic(expected = "banks must divide")]
    fn invalid_geometry_panics() {
        let _ = BankedMemory::new(10, 3, BankMapping::Blocked);
    }

    #[test]
    fn reset_stats() {
        let mut m = BankedMemory::new(16, 4, BankMapping::Blocked);
        m.read(0);
        m.reset_stats();
        assert_eq!(m.stats().total_accesses(), 0);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut m = BankedMemory::new(16, 4, BankMapping::Blocked);
        m.write(3, 7);
        m.read(3);
        m.lock_word(9);
        let snap = m.save();

        let mut other = BankedMemory::new(16, 4, BankMapping::Blocked);
        assert!(other.load_snapshot(&snap));
        assert_eq!(other.peek(3), 7);
        assert!(other.is_locked(9));
        assert_eq!(other.stats(), m.stats());
        assert_eq!(other.per_bank_accesses(), m.per_bank_accesses());
        assert_eq!(other.save(), snap);
    }

    #[test]
    fn snapshot_rejects_geometry_mismatch() {
        let m = BankedMemory::new(16, 4, BankMapping::Blocked);
        let snap = m.save();
        let mut bigger = BankedMemory::new(32, 4, BankMapping::Blocked);
        bigger.poke(0, 5);
        assert!(!bigger.load_snapshot(&snap));
        assert_eq!(bigger.peek(0), 5, "failed load leaves state untouched");
    }
}
