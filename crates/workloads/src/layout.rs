//! Shared address-space layout helpers.
//!
//! The machine's shared memory is block-granular (8-byte blocks = one
//! 64-bit word per block, Table 5), so an address is a word index. The
//! [`Alloc`] bump allocator hands out contiguous word ranges; home nodes
//! are interleaved word-by-word across the machine (`addr % nodes`), like
//! the paper's address-determined home modules.

use dirtree_core::types::Addr;

/// A bump allocator over the shared word-addressed space.
#[derive(Debug, Default)]
pub struct Alloc {
    next: Addr,
}

impl Alloc {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `words` consecutive shared words.
    pub fn array(&mut self, words: u64) -> SharedArray {
        let base = self.next;
        self.next += words;
        SharedArray { base, len: words }
    }

    /// Allocate a 2-D row-major matrix.
    pub fn matrix(&mut self, rows: u64, cols: u64) -> SharedMatrix {
        SharedMatrix {
            data: self.array(rows * cols),
            cols,
        }
    }

    /// Words allocated so far.
    pub fn used(&self) -> u64 {
        self.next
    }
}

/// A contiguous range of shared words.
#[derive(Clone, Copy, Debug)]
pub struct SharedArray {
    pub base: Addr,
    pub len: u64,
}

impl SharedArray {
    #[inline]
    pub fn at(&self, i: u64) -> Addr {
        debug_assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.base + i
    }
}

/// A row-major 2-D view.
#[derive(Clone, Copy, Debug)]
pub struct SharedMatrix {
    pub data: SharedArray,
    pub cols: u64,
}

impl SharedMatrix {
    #[inline]
    pub fn at(&self, r: u64, c: u64) -> Addr {
        debug_assert!(c < self.cols);
        self.data.at(r * self.cols + c)
    }

    pub fn rows(&self) -> u64 {
        self.data.len / self.cols
    }
}

/// Fixed-point helpers: the machine stores raw `u64` words, applications
/// compute on `f64`. Bit-casting keeps exact roundtrips.
#[inline]
pub fn f2w(x: f64) -> u64 {
    x.to_bits()
}

#[inline]
pub fn w2f(w: u64) -> f64 {
    f64::from_bits(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_contiguous_and_disjoint() {
        let mut a = Alloc::new();
        let x = a.array(10);
        let y = a.array(5);
        assert_eq!(x.base, 0);
        assert_eq!(y.base, 10);
        assert_eq!(a.used(), 15);
        assert_eq!(x.at(9), 9);
        assert_eq!(y.at(0), 10);
    }

    #[test]
    fn matrix_is_row_major() {
        let mut a = Alloc::new();
        let m = a.matrix(3, 4);
        assert_eq!(m.at(0, 0), 0);
        assert_eq!(m.at(0, 3), 3);
        assert_eq!(m.at(1, 0), 4);
        assert_eq!(m.at(2, 3), 11);
        assert_eq!(m.rows(), 3);
    }

    // The bound is a `debug_assert!`: there is nothing to catch in release.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_checked_in_debug() {
        let mut a = Alloc::new();
        let x = a.array(3);
        let _ = x.at(3);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for x in [0.0, -1.5, std::f64::consts::PI, 1e300, -0.0] {
            assert_eq!(w2f(f2w(x)).to_bits(), x.to_bits());
        }
    }
}
