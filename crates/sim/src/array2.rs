//! Halo-extended 2-D integer arrays.
//!
//! The paper's kernels read cells like `e[i-2][j-1]` at `i = 0`: boundary
//! reads outside the computed region. [`Array2`] therefore covers
//! `[-halo, n+halo] x [-halo, m+halo]` and fills the whole extent with a
//! deterministic, position-dependent initial pattern. Boundary reads then
//! return stable non-trivial values — so a transformation that misaligns a
//! boundary access changes the output and is caught by the equivalence
//! checks, instead of silently reading a zero.

use std::ops::Range;

/// A dense 2-D `i64` array with a (possibly negative) origin.
#[derive(Debug, PartialEq, Eq)]
pub struct Array2 {
    lo_i: i64,
    lo_j: i64,
    rows: i64,
    cols: i64,
    data: Vec<i64>,
}

impl Clone for Array2 {
    fn clone(&self) -> Self {
        Array2 {
            data: self.data.clone(),
            ..*self
        }
    }

    /// Copies `source` into this array's buffer, reusing its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.lo_i = source.lo_i;
        self.lo_j = source.lo_j;
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

/// The deterministic initial value of cell `(i, j)` of array `k`: a cheap
/// integer mix so that distinct (array, position) triples get distinct,
/// reproducible values.
pub fn init_value(k: usize, i: i64, j: i64) -> i64 {
    let mut h = (k as i64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)
        .wrapping_add(i.wrapping_mul(0x0100_0000_01B3))
        .wrapping_add(j.wrapping_mul(0x5851_F42D_4C95_7F2D_u64 as i64));
    h ^= h >> 33;
    // Keep magnitudes small so chained arithmetic stays far from overflow
    // even after thousands of wrapping adds/multiplies.
    h % 1000
}

/// The initial values of row `i` of array `k` over the columns `j`, in
/// column order: [`init_value`] for each cell. Every engine builds its
/// initial memory image from this, one row at a time.
pub fn init_row(k: usize, i: i64, j: Range<i64>) -> impl Iterator<Item = i64> {
    j.map(move |j| init_value(k, i, j))
}

impl Array2 {
    /// Allocates the array covering `[lo_i, hi_i] x [lo_j, hi_j]`
    /// (inclusive), initializing every cell with [`init_value`] for array
    /// index `k`.
    pub fn new(k: usize, lo_i: i64, hi_i: i64, lo_j: i64, hi_j: i64) -> Self {
        assert!(lo_i <= hi_i && lo_j <= hi_j, "empty array extent");
        let rows = hi_i - lo_i + 1;
        let cols = hi_j - lo_j + 1;
        let mut data = Vec::with_capacity((rows * cols) as usize);
        for i in lo_i..=hi_i {
            data.extend(init_row(k, i, lo_j..hi_j + 1));
        }
        Array2 {
            lo_i,
            lo_j,
            rows,
            cols,
            data,
        }
    }

    #[inline]
    fn index(&self, i: i64, j: i64) -> usize {
        debug_assert!(
            self.in_bounds(i, j),
            "access ({i},{j}) outside [{}..{}]x[{}..{}]",
            self.lo_i,
            self.lo_i + self.rows - 1,
            self.lo_j,
            self.lo_j + self.cols - 1
        );
        ((i - self.lo_i) * self.cols + (j - self.lo_j)) as usize
    }

    /// Cells in the allocated extent.
    pub fn cells(&self) -> usize {
        self.data.len()
    }

    /// `true` when `(i, j)` lies in the allocated extent.
    pub fn in_bounds(&self, i: i64, j: i64) -> bool {
        i >= self.lo_i && i < self.lo_i + self.rows && j >= self.lo_j && j < self.lo_j + self.cols
    }

    /// Reads a cell.
    #[inline]
    pub fn get(&self, i: i64, j: i64) -> i64 {
        self.data[self.index(i, j)]
    }

    /// Writes a cell.
    #[inline]
    pub fn set(&mut self, i: i64, j: i64, v: i64) {
        let idx = self.index(i, j);
        self.data[idx] = v;
    }

    /// The inclusive extent `((lo_i, hi_i), (lo_j, hi_j))`.
    pub fn extent(&self) -> ((i64, i64), (i64, i64)) {
        (
            (self.lo_i, self.lo_i + self.rows - 1),
            (self.lo_j, self.lo_j + self.cols - 1),
        )
    }

    /// A content fingerprint (order-dependent FNV fold) for cheap
    /// whole-array comparisons in benchmarks.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &v in &self.data {
            h ^= v as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic_and_position_dependent() {
        let a = Array2::new(0, -2, 5, -2, 5);
        let b = Array2::new(0, -2, 5, -2, 5);
        assert_eq!(a, b);
        assert_eq!(a.get(-2, -1), init_value(0, -2, -1));
        // Different arrays get different patterns.
        let c = Array2::new(1, -2, 5, -2, 5);
        assert_ne!(a.get(0, 0), c.get(0, 0));
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let mut src = Array2::new(1, -2, 5, -2, 5);
        src.set(3, 3, 42);
        let mut dst = Array2::new(0, -2, 5, -2, 5);
        let buffer = dst.data.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.data.as_ptr(), buffer, "the buffer is reused");
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = Array2::new(3, -1, 4, -1, 4);
        a.set(-1, 4, 42);
        a.set(4, -1, -7);
        assert_eq!(a.get(-1, 4), 42);
        assert_eq!(a.get(4, -1), -7);
    }

    #[test]
    fn extent_and_bounds() {
        let a = Array2::new(0, -2, 7, -3, 9);
        assert_eq!(a.extent(), ((-2, 7), (-3, 9)));
        assert!(a.in_bounds(-2, -3));
        assert!(a.in_bounds(7, 9));
        assert!(!a.in_bounds(8, 0));
        assert!(!a.in_bounds(0, -4));
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let mut a = Array2::new(0, 0, 3, 0, 3);
        let f0 = a.fingerprint();
        a.set(2, 2, a.get(2, 2) + 1);
        assert_ne!(f0, a.fingerprint());
    }

    #[test]
    #[should_panic(expected = "empty array extent")]
    fn empty_extent_panics() {
        Array2::new(0, 3, 2, 0, 1);
    }

    #[test]
    fn init_values_are_small() {
        for k in 0..4 {
            for i in -5..5 {
                for j in -5..5 {
                    assert!(init_value(k, i, j).abs() < 1000);
                }
            }
        }
    }
}
