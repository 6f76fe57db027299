//! Fully associative cache tag store with O(1) LRU replacement.
//!
//! The paper's configuration (Table 5) is a 16 KB fully-associative data
//! cache with 8-byte blocks — 2048 lines in one set — which is the default
//! produced by [`CacheConfig::paper_default`]. The model is a tag/state
//! store only: block *contents* live with the workload driver, and
//! coherence metadata (tree children, list pointers) lives with the
//! protocol.
//!
//! The one set keeps an intrusive doubly-linked LRU list (index-based) plus
//! a lazy stack of invalidated slots, so `touch` and `allocate` are O(1)
//! even at the paper's 2048-way associativity — the victim walk only skips
//! the rare transient line.
//!
//! The tag index is a table indexed by block address
//! ([`dirtree_sim::BlockTable`]), not a hash map: one load finds a line.
//! That rests on block addresses being dense — `Alloc` hands them out from
//! 0 — and costs 4 bytes times the highest block address this cache ever
//! allocated (rounded up to a power of two), per cache; [`Cache::allocate`]
//! panics on an address of 2³² or more rather than attempt the allocation.

use crate::types::{Addr, LineState};
use dirtree_sim::BlockTable;

/// Geometry of one processor's cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total lines in the cache, all in one set.
    pub lines: usize,
}

impl CacheConfig {
    /// Table 5: 16 KB, 8-byte blocks, fully associative → 2048 lines.
    pub fn paper_default() -> Self {
        Self { lines: 2048 }
    }
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Line {
    addr: Addr,
    state: LineState,
    /// Intrusive LRU links (slot indices within the set).
    prev: u32,
    next: u32,
}

/// The outcome of allocating a line for `addr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The address already had a resident tag (any state).
    AlreadyResident,
    /// A free (or invalid) slot was used; nothing was displaced.
    Fresh,
    /// A valid victim was displaced; the caller must run the protocol's
    /// replacement action for it. The victim's state is returned.
    Evicted { victim: Addr, state: LineState },
    /// No line could be allocated: every candidate is in a transient state.
    /// Callers must retry later (only possible in pathological tiny-cache
    /// configurations).
    Stalled,
}

/// The cache's one set: slots + MRU/LRU list + lazy invalid stack.
struct Set {
    slots: Vec<Line>,
    mru: u32,
    lru: u32,
    /// Slots whose line was invalidated (validated lazily on pop).
    invalid: Vec<u32>,
}

impl Set {
    fn new(lines: usize) -> Self {
        Self {
            slots: Vec::with_capacity(lines),
            mru: NIL,
            lru: NIL,
            invalid: Vec::new(),
        }
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = {
            let l = &self.slots[i as usize];
            (l.prev, l.next)
        };
        if p != NIL {
            self.slots[p as usize].next = n;
        } else {
            self.mru = n;
        }
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.lru = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.mru;
        {
            let l = &mut self.slots[i as usize];
            l.prev = NIL;
            l.next = old;
        }
        if old != NIL {
            self.slots[old as usize].prev = i;
        } else {
            self.lru = i;
        }
        self.mru = i;
    }

    fn touch(&mut self, i: u32) {
        if self.mru != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Set slot `i`'s state, returning the one it had.
    fn set_state(&mut self, i: u32, state: LineState) -> LineState {
        let old = std::mem::replace(&mut self.slots[i as usize].state, state);
        if state == LineState::Iv && old != LineState::Iv {
            self.invalid.push(i);
        }
        old
    }

    /// The slot a full set re-binds next: a (still-)invalid one from the
    /// lazy stack, else the least-recently-used stable line — the walk
    /// from the tail skips transient lines (rare). `None` if every line is
    /// transient.
    fn pick_victim(&mut self) -> Option<u32> {
        while let Some(i) = self.invalid.pop() {
            if self.slots[i as usize].state == LineState::Iv {
                return Some(i);
            }
            // revalidated since; stale stack entry
        }
        let mut i = self.lru;
        while i != NIL {
            if matches!(self.slots[i as usize].state, LineState::V | LineState::E) {
                return Some(i);
            }
            i = self.slots[i as usize].prev;
        }
        None
    }
}

/// One processor's cache.
pub struct Cache {
    set: Set,
    /// Capacity in lines.
    lines: usize,
    /// Tag index: `index[addr]` is the line's slot plus one, 0 (or no row)
    /// when `addr` is not resident.
    index: BlockTable<u32>,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.lines > 0 && config.lines < NIL as usize);
        Self {
            set: Set::new(config.lines),
            lines: config.lines,
            index: BlockTable::new(),
        }
    }

    /// The one tag lookup: the slot of a resident `addr`.
    #[inline]
    fn find(&self, addr: Addr) -> Option<u32> {
        match self.index.get(addr) {
            None | Some(0) => None,
            Some(&tag) => Some(tag - 1),
        }
    }

    /// State of `addr`, or `NotPresent`.
    pub fn state(&self, addr: Addr) -> LineState {
        match self.find(addr) {
            Some(i) => self.set.slots[i as usize].state,
            None => LineState::NotPresent,
        }
    }

    /// A processor access, through one lookup: the state of `addr`, marked
    /// most-recently-used iff the access hits (readable for a read,
    /// writable for a write). A miss leaves the LRU order alone — the
    /// caller allocates or upgrades, which marks the line itself.
    pub fn access(&mut self, addr: Addr, write: bool) -> LineState {
        let Some(i) = self.find(addr) else {
            return LineState::NotPresent;
        };
        let state = self.set.slots[i as usize].state;
        let hit = if write {
            state.writable()
        } else {
            state.readable()
        };
        if hit {
            self.set.touch(i);
        }
        state
    }

    /// Set the state of a resident line; returns the state it had.
    ///
    /// # Panics
    /// Panics if the tag is not resident — protocols must only touch lines
    /// that exist (invalidations for evicted lines are handled before this).
    pub fn set_state(&mut self, addr: Addr, state: LineState) -> LineState {
        let i = self.find_resident(addr);
        self.set.set_state(i, state)
    }

    /// [`Cache::set_state`] plus [`Cache::touch`] through one lookup: what
    /// starting a miss does to its line.
    pub fn set_state_mru(&mut self, addr: Addr, state: LineState) -> LineState {
        let i = self.find_resident(addr);
        self.set.touch(i);
        self.set.set_state(i, state)
    }

    fn find_resident(&self, addr: Addr) -> u32 {
        self.find(addr)
            .unwrap_or_else(|| panic!("set_state on non-resident line {addr:#x}"))
    }

    /// Mark `addr` most-recently-used (on every processor access).
    pub fn touch(&mut self, addr: Addr) {
        if let Some(i) = self.find(addr) {
            self.set.touch(i);
        }
    }

    /// Ensure a tag exists for `addr`, evicting an LRU victim if the cache
    /// is full. New lines start in `Iv`; the caller transitions them.
    /// Victims are never transient lines.
    ///
    /// # Panics
    /// Panics if `addr >= 2^32`: the tag index is a table indexed by block
    /// address (see the module docs).
    pub fn allocate(&mut self, addr: Addr) -> AllocOutcome {
        let set = &mut self.set;
        // Growing the index up front makes binding the tag, on either path
        // below, a plain store.
        let tag = self.index.get_mut_or_grow(addr);
        if *tag != 0 {
            set.touch(*tag - 1);
            return AllocOutcome::AlreadyResident;
        }

        // Free capacity: grow the set.
        if set.slots.len() < self.lines {
            let slot = set.slots.len() as u32;
            set.slots.push(Line {
                addr,
                state: LineState::Iv,
                prev: NIL,
                next: NIL,
            });
            set.push_front(slot);
            // The new line is invalid until the caller transitions it, so
            // it is itself a legal victim for a subsequent allocation.
            set.invalid.push(slot);
            *tag = slot + 1;
            return AllocOutcome::Fresh;
        }

        let Some(i) = set.pick_victim() else {
            return AllocOutcome::Stalled;
        };
        let line = &mut set.slots[i as usize];
        let (victim, state) = (line.addr, line.state);
        line.addr = addr;
        line.state = LineState::Iv;
        set.touch(i);
        set.invalid.push(i); // still invalid until transitioned
        *tag = i + 1;
        *self
            .index
            .get_mut(victim)
            .expect("a resident line has an index row") = 0;
        if state == LineState::Iv {
            AllocOutcome::Fresh
        } else {
            AllocOutcome::Evicted { victim, state }
        }
    }

    /// All resident `(addr, state)` pairs (for verification).
    pub fn resident(&self) -> impl Iterator<Item = (Addr, LineState)> + '_ {
        self.set.slots.iter().map(|l| (l.addr, l.state))
    }

    /// Number of resident tags (slots ever filled: a slot is re-bound,
    /// never freed).
    pub fn len(&self) -> usize {
        self.set.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set.slots.is_empty()
    }
}

/// The hash-indexed cache this module had before the block-indexed tag
/// table, kept (renamed; the two accessors no test calls dropped, and cut
/// to one set with the set-associative geometry) as the reference the
/// block-indexed [`Cache`] is driven against in lock step. Test-only: it
/// shares `Set`/`Line` with the real cache, so the differential test
/// isolates the tag index and the calls built on it.
#[cfg(test)]
mod reference {
    use super::{AllocOutcome, CacheConfig, Line, Set, NIL};
    use crate::types::{Addr, LineState};
    use dirtree_sim::FxHashMap;

    pub struct HashCache {
        lines: usize,
        set: Set,
        index: FxHashMap<Addr, u32>,
    }

    impl HashCache {
        pub fn new(config: CacheConfig) -> Self {
            assert!(config.lines > 0 && config.lines < NIL as usize);
            Self {
                lines: config.lines,
                set: Set::new(config.lines),
                index: FxHashMap::default(),
            }
        }

        /// State of `addr`, or `NotPresent`.
        pub fn state(&self, addr: Addr) -> LineState {
            match self.index.get(&addr) {
                Some(&i) => self.set.slots[i as usize].state,
                None => LineState::NotPresent,
            }
        }

        /// Set the state of a resident line.
        ///
        /// # Panics
        /// Panics if the tag is not resident — protocols must only touch lines
        /// that exist (invalidations for evicted lines are handled before this).
        pub fn set_state(&mut self, addr: Addr, state: LineState) {
            let &i = self
                .index
                .get(&addr)
                .unwrap_or_else(|| panic!("set_state on non-resident line {addr:#x}"));
            let set = &mut self.set;
            let was_invalid = set.slots[i as usize].state == LineState::Iv;
            set.slots[i as usize].state = state;
            if state == LineState::Iv && !was_invalid {
                set.invalid.push(i);
            }
        }

        /// Mark `addr` most-recently-used (on every processor access).
        pub fn touch(&mut self, addr: Addr) {
            if let Some(&i) = self.index.get(&addr) {
                self.set.touch(i);
            }
        }

        /// Ensure a tag exists for `addr`, evicting an LRU victim if the set is
        /// full. New lines start in `Iv`; the caller transitions them. Victims
        /// are never transient lines.
        pub fn allocate(&mut self, addr: Addr) -> AllocOutcome {
            if self.index.contains_key(&addr) {
                self.touch(addr);
                return AllocOutcome::AlreadyResident;
            }
            let set = &mut self.set;

            // Free capacity: grow the set.
            if set.slots.len() < self.lines {
                let slot = set.slots.len() as u32;
                set.slots.push(Line {
                    addr,
                    state: LineState::Iv,
                    prev: NIL,
                    next: NIL,
                });
                set.push_front(slot);
                // The new line is invalid until the caller transitions it, so
                // it is itself a legal victim for a subsequent allocation.
                set.invalid.push(slot);
                self.index.insert(addr, slot);
                return AllocOutcome::Fresh;
            }

            // Prefer a (still-)invalid slot from the lazy stack.
            while let Some(i) = set.invalid.pop() {
                if set.slots[i as usize].state != LineState::Iv {
                    continue; // revalidated since; stale stack entry
                }
                let victim_addr = set.slots[i as usize].addr;
                self.index.remove(&victim_addr);
                set.slots[i as usize] = Line {
                    addr,
                    state: LineState::Iv,
                    prev: set.slots[i as usize].prev,
                    next: set.slots[i as usize].next,
                };
                set.touch(i);
                set.invalid.push(i); // still invalid until transitioned
                self.index.insert(addr, i);
                return AllocOutcome::Fresh;
            }

            // LRU walk from the tail, skipping transient lines (rare).
            let mut i = set.lru;
            while i != NIL {
                let state = set.slots[i as usize].state;
                if matches!(state, LineState::V | LineState::E) {
                    let victim_addr = set.slots[i as usize].addr;
                    self.index.remove(&victim_addr);
                    set.slots[i as usize].addr = addr;
                    set.slots[i as usize].state = LineState::Iv;
                    set.touch(i);
                    set.invalid.push(i); // still invalid until transitioned
                    self.index.insert(addr, i);
                    return AllocOutcome::Evicted {
                        victim: victim_addr,
                        state,
                    };
                }
                i = set.slots[i as usize].prev;
            }
            AllocOutcome::Stalled
        }

        /// All resident `(addr, state)` pairs (for verification).
        pub fn resident(&self) -> impl Iterator<Item = (Addr, LineState)> + '_ {
            self.set.slots.iter().map(|l| (l.addr, l.state))
        }

        /// Number of resident tags.
        pub fn len(&self) -> usize {
            self.index.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { lines: 4 })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.state(10), LineState::NotPresent);
        assert_eq!(c.allocate(10), AllocOutcome::Fresh);
        assert_eq!(c.state(10), LineState::Iv);
        c.set_state(10, LineState::V);
        assert!(c.state(10).readable());
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = small();
        for a in 0..4 {
            c.allocate(a);
            c.set_state(a, LineState::V);
        }
        // Touch 0 so 1 becomes LRU.
        c.touch(0);
        match c.allocate(100) {
            AllocOutcome::Evicted { victim, state } => {
                assert_eq!(victim, 1);
                assert_eq!(state, LineState::V);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.state(1), LineState::NotPresent);
        assert_eq!(c.state(100), LineState::Iv);
    }

    #[test]
    fn invalid_lines_are_preferred_victims() {
        let mut c = small();
        for a in 0..4 {
            c.allocate(a);
            c.set_state(a, LineState::V);
        }
        c.set_state(2, LineState::Iv);
        assert_eq!(c.allocate(100), AllocOutcome::Fresh);
        assert_eq!(c.state(2), LineState::NotPresent);
        assert_eq!(c.state(0), LineState::V);
    }

    #[test]
    fn revalidated_lines_are_not_reclaimed() {
        let mut c = small();
        for a in 0..4 {
            c.allocate(a);
            c.set_state(a, LineState::V);
        }
        // Invalidate 2, then revalidate it (e.g. refetched in place).
        c.set_state(2, LineState::Iv);
        c.set_state(2, LineState::V);
        c.touch(2);
        match c.allocate(100) {
            // Must evict the true LRU (0), not the revalidated 2.
            AllocOutcome::Evicted { victim, .. } => assert_eq!(victim, 0),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.state(2), LineState::V);
    }

    #[test]
    fn transient_lines_are_never_evicted() {
        let mut c = small();
        for a in 0..4 {
            c.allocate(a);
            c.set_state(a, LineState::RmIp);
        }
        assert_eq!(c.allocate(100), AllocOutcome::Stalled);
        c.set_state(3, LineState::V);
        match c.allocate(100) {
            AllocOutcome::Evicted { victim, .. } => assert_eq!(victim, 3),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn allocate_existing_is_already_resident() {
        let mut c = small();
        c.allocate(7);
        assert_eq!(c.allocate(7), AllocOutcome::AlreadyResident);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn resident_iterates_all_lines() {
        let mut c = small();
        c.allocate(1);
        c.allocate(2);
        c.set_state(2, LineState::E);
        let mut v: Vec<_> = c.resident().collect();
        v.sort_by_key(|&(a, _)| a);
        assert_eq!(v, vec![(1, LineState::Iv), (2, LineState::E)]);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_requires_residency() {
        let mut c = small();
        c.set_state(99, LineState::V);
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = CacheConfig::paper_default();
        assert_eq!(cfg.lines, 2048);
    }

    #[test]
    fn streaming_far_beyond_capacity_is_stable() {
        // O(1) replacement must keep the books straight over many epochs.
        let mut c = Cache::new(CacheConfig { lines: 64 });
        let mut evictions = 0;
        for a in 0..10_000u64 {
            match c.allocate(a) {
                AllocOutcome::Fresh => {}
                AllocOutcome::Evicted { .. } => evictions += 1,
                other => panic!("unexpected {other:?}"),
            }
            c.set_state(a, LineState::V);
        }
        assert_eq!(c.len(), 64);
        assert_eq!(evictions, 10_000 - 64);
        // The survivors are exactly the last 64 addresses.
        for a in 10_000 - 64..10_000 {
            assert_eq!(c.state(a), LineState::V, "addr {a}");
        }
    }

    #[test]
    fn lru_order_respected_under_mixed_touch_patterns() {
        let mut c = small();
        for a in 0..4 {
            c.allocate(a);
            c.set_state(a, LineState::V);
        }
        c.touch(1);
        c.touch(3);
        c.touch(0);
        // LRU order now: 2 (oldest), 1, 3, 0.
        for (new_addr, expected_victim) in [(10u64, 2u64), (11, 1), (12, 3)] {
            match c.allocate(new_addr) {
                AllocOutcome::Evicted { victim, .. } => assert_eq!(victim, expected_victim),
                other => panic!("{other:?}"),
            }
            c.set_state(new_addr, LineState::V);
        }
    }

    #[test]
    fn access_marks_mru_only_on_a_hit() {
        let mut c = small();
        for a in 0..4 {
            c.allocate(a);
            c.set_state(a, LineState::V);
        }
        assert_eq!(c.access(9, false), LineState::NotPresent);
        // A read hit on 0 makes 1 the LRU; a write to V line 1 is a miss
        // (not writable) and must leave it there.
        assert_eq!(c.access(0, false), LineState::V);
        assert_eq!(c.access(1, true), LineState::V);
        match c.allocate(100) {
            AllocOutcome::Evicted { victim, .. } => assert_eq!(victim, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn set_state_returns_the_previous_state() {
        let mut c = small();
        c.allocate(3);
        assert_eq!(c.set_state(3, LineState::RmIp), LineState::Iv);
        assert_eq!(c.set_state(3, LineState::V), LineState::RmIp);
        assert_eq!(c.set_state_mru(3, LineState::WmIp), LineState::V);
        assert_eq!(c.state(3), LineState::WmIp);
    }

    #[test]
    #[should_panic(expected = "block addresses are dense: `Alloc` hands them out from 0")]
    fn sparse_block_address_is_refused() {
        small().allocate(1 << 32);
    }

    /// Drive the block-indexed cache and the hash-indexed reference in lock
    /// step over a seeded random call sequence; every observable must agree
    /// after every call.
    fn lock_step(config: CacheConfig, addrs: u64, steps: usize, seed: u64) {
        use dirtree_sim::SimRng;
        const STATES: [LineState; 5] = [
            LineState::V,
            LineState::E,
            LineState::Iv,
            LineState::RmIp,
            LineState::WmIp,
        ];
        let mut new = Cache::new(config);
        let mut old = reference::HashCache::new(config);
        let mut rng = SimRng::new(seed);
        for step in 0..steps {
            let a = rng.gen_range(addrs);
            let at = format!("step {step}, addr {a}, {config:?}");
            match rng.gen_range(8) {
                // Weighted towards allocate so a full cache keeps rebinding.
                0..=2 => assert_eq!(new.allocate(a), old.allocate(a), "allocate at {at}"),
                3 | 4 if old.state(a) != LineState::NotPresent => {
                    let to = STATES[rng.gen_index(STATES.len())];
                    let was = old.state(a);
                    old.set_state(a, to);
                    if rng.gen_bool(0.5) {
                        assert_eq!(new.set_state(a, to), was, "set_state at {at}");
                    } else {
                        old.touch(a);
                        assert_eq!(new.set_state_mru(a, to), was, "set_state_mru at {at}");
                    }
                }
                5 => {
                    new.touch(a);
                    old.touch(a);
                }
                6 => {
                    // `access` against what `issue_access` used to do:
                    // `state()`, then `touch()` iff the access hits.
                    let write = rng.gen_bool(0.3);
                    let was = old.state(a);
                    let hit = if write {
                        was.writable()
                    } else {
                        was.readable()
                    };
                    if hit {
                        old.touch(a);
                    }
                    assert_eq!(new.access(a, write), was, "access at {at}");
                }
                _ => assert_eq!(new.state(a), old.state(a), "state at {at}"),
            }
            assert_eq!(new.len(), old.len(), "len at {at}");
            // The whole address space every few steps (every step would be
            // quadratic at the paper's geometry), and always at the end.
            if step % 64 == 0 || step + 1 == steps {
                for b in 0..addrs {
                    assert_eq!(new.state(b), old.state(b), "state({b}) at {at}");
                }
                let sorted = |mut v: Vec<(Addr, LineState)>| {
                    v.sort_by_key(|&(b, st)| (b, st as u8));
                    v
                };
                assert_eq!(
                    sorted(new.resident().collect()),
                    sorted(old.resident().collect()),
                    "resident at {at}"
                );
            }
        }
    }

    #[test]
    fn block_index_matches_the_hash_index_in_lock_step() {
        for seed in [1996, 31337, 7] {
            lock_step(CacheConfig { lines: 4 }, 12, 4_000, seed);
            lock_step(CacheConfig { lines: 8 }, 40, 4_000, seed);
        }
        // The paper's geometry, with more addresses than lines so it evicts.
        lock_step(CacheConfig::paper_default(), 3_000, 60_000, 1996);
    }
}
