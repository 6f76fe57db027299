//! A table indexed by block address, grown on demand.
//!
//! Block addresses in this repository are dense small integers: the
//! workload allocator (`Alloc`) hands them out from 0 and a block's home
//! is `addr % nodes`. State the machine keeps *per block* — a cache's tag
//! index, the per-block message counts, the readable-copy count — therefore
//! needs no hash: row `addr` of a `Vec` is the entry, and a row still at
//! `T::default()` means "nothing recorded". The table costs
//! `size_of::<T>()` times the highest address ever written (rounded up to a
//! power of two), which is what bounds the assumption: a write at an
//! address of 2³² or more panics instead of attempting the allocation.

/// Rows of `T` indexed by block address; absent rows read as `None` and
/// are created as `T::default()` on first mutable access.
#[derive(Clone, Debug, Default)]
pub struct BlockTable<T> {
    rows: Vec<T>,
}

impl<T: Default> BlockTable<T> {
    pub fn new() -> Self {
        Self { rows: Vec::new() }
    }

    /// The row of `addr`, if the table ever grew that far.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<&T> {
        self.rows.get(usize::try_from(addr).ok()?)
    }

    /// The row of `addr` without growing the table.
    #[inline]
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut T> {
        self.rows.get_mut(usize::try_from(addr).ok()?)
    }

    /// The row of `addr`, growing the table (to a power of two, so a
    /// rising address sweep reallocates O(log n) times) to hold it.
    ///
    /// # Panics
    /// Panics if `addr >= 2^32`: see the module docs.
    #[inline]
    pub fn get_mut_or_grow(&mut self, addr: u64) -> &mut T {
        if addr >= self.rows.len() as u64 {
            self.grow(addr);
        }
        &mut self.rows[addr as usize]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, addr: u64) {
        assert!(
            addr < 1 << 32,
            "block address {addr:#x} is out of range: block addresses are dense: \
             `Alloc` hands them out from 0, and per-block tables are indexed by them"
        );
        self.rows
            .resize_with((addr as usize + 1).next_power_of_two(), T::default);
    }
}

impl<T> BlockTable<T> {
    /// The table with every row, default ones included, mapped through
    /// `f` at the same address.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> BlockTable<U> {
        BlockTable {
            rows: self.rows.iter().map(f).collect(),
        }
    }
}

impl<T: Default + PartialEq> BlockTable<T> {
    /// `(addr, row)` for every row that differs from `T::default()`, in
    /// ascending address order.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let empty = T::default();
        self.rows
            .iter()
            .enumerate()
            .filter(move |(_, row)| **row != empty)
            .map(|(addr, row)| (addr as u64, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_rows_read_as_none_and_grow_as_default() {
        let mut t: BlockTable<u32> = BlockTable::new();
        assert_eq!(t.get(5), None);
        assert_eq!(t.get_mut(5), None);
        *t.get_mut_or_grow(5) += 3;
        assert_eq!(t.get(5), Some(&3));
        // Grown to the next power of two: neighbours exist and are default.
        assert_eq!(t.get(7), Some(&0));
        assert_eq!(t.get(8), None);
        *t.get_mut(7).unwrap() = 1;
        assert_eq!(t.get(7), Some(&1));
        // A power-of-two address needs the next size up.
        *t.get_mut_or_grow(8) = 9;
        assert_eq!(t.get(15), Some(&0));
        assert_eq!(t.get(16), None);
    }

    #[test]
    fn iter_nonempty_skips_default_rows_in_address_order() {
        let mut t: BlockTable<u32> = BlockTable::new();
        *t.get_mut_or_grow(9) = 2;
        *t.get_mut_or_grow(3) = 7;
        *t.get_mut_or_grow(4) = 1;
        *t.get_mut_or_grow(4) = 0; // back to default: skipped
        let got: Vec<(u64, u32)> = t.iter_nonempty().map(|(a, v)| (a, *v)).collect();
        assert_eq!(got, vec![(3, 7), (9, 2)]);
    }

    #[test]
    fn map_keeps_every_row_at_its_address() {
        let mut t: BlockTable<u32> = BlockTable::new();
        *t.get_mut_or_grow(2) = 5;
        let doubled = t.map(|v| v * 2);
        assert_eq!(doubled.get(2), Some(&10));
        assert_eq!(doubled.get(3), Some(&0));
        assert_eq!(doubled.get(4), None);
    }

    #[test]
    #[should_panic(expected = "block addresses are dense")]
    fn sparse_address_is_refused_not_allocated() {
        let mut t: BlockTable<u32> = BlockTable::new();
        t.get_mut_or_grow(1 << 32);
    }
}
