//! Dense flat memory for compiled kernels.
//!
//! `mdf_sim::Memory` stores one halo-extended [`mdf_sim::Array2`] per
//! array, and every access re-derives `(i - lo_i) * cols + (j - lo_j)`
//! behind a bounds `debug_assert`. The kernel instead allocates **one**
//! contiguous `Vec<i64>` holding every array plane back to back, all with
//! the same extent, so a compiled instruction reaches any cell of any
//! array as `data[cursor + delta]` for a `delta` precomputed at lowering
//! time.
//!
//! The layout is bit-for-bit the same as the interpreter's — same halo
//! rule (`max_offset`), same row-major plane order, same deterministic
//! [`init_value`](mdf_sim::array2::init_value) boundary pattern — so
//! [`KernelMemory::fingerprint`] returns **exactly** the value
//! `mdf_sim::Memory::fingerprint` returns for an equal memory image.
//! That equality is the kernel's differential oracle contract, enforced
//! by `tests/` and the fuzzer.
//!
//! Filling the image is part of every run, and at 1024² it is a large
//! one: tens of megabytes, most of the cost first-touch page faults. An
//! image of at least [`BANDED_FILL_CELLS`] cells driven by more than one
//! worker is therefore filled in row bands on the worker pool; smaller
//! images, and every 1-worker run, fill serially. Both produce the same
//! bits. Before its first write, either fill asks Linux to back the
//! buffer's whole 2 MiB-aligned pages with transparent huge pages, so each
//! such page takes one fault instead of 512 (DESIGN.md §18).

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use mdf_ir::ast::Program;
use mdf_sim::array2::init_row;
use rayon::prelude::*;

/// Cell count from which [`KernelMemory::with_threads`] fills an image
/// in row bands on the worker pool (given more than one worker). Fixed,
/// so whether a run dispatches its fill depends only on the layout and
/// the worker count, never on timing; it sits above every 24² service
/// layout (at most 24 arrays of 29² cells, about 20k), so no service
/// request dispatches one.
pub const BANDED_FILL_CELLS: usize = 1 << 17;

/// Row bands a banded fill cuts the image into: a fixed count, many more
/// than workers, so that claiming balances the bands across the pool.
const FILL_BANDS: usize = 64;

/// Size of a transparent huge page on x86-64 and aarch64 (4 KiB base
/// pages).
const HUGE_PAGE: usize = 2 << 20;

/// The shared shape of every array plane in a kernel's flat buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Number of arrays (= number of planes).
    pub arrays: usize,
    /// Halo width; planes cover `[-halo, n+halo] x [-halo, m+halo]`.
    pub halo: i64,
    /// Rows per plane (`n + 2*halo + 1`).
    pub rows: i64,
    /// Columns per plane (`m + 2*halo + 1`).
    pub cols: i64,
}

impl Layout {
    /// The layout the interpreter would use for `p` at bounds `(n, m)`
    /// (same halo rule as `mdf_sim::Memory::for_program`).
    pub fn for_program(p: &Program, n: i64, m: i64) -> Layout {
        let halo = p.max_offset();
        Layout {
            arrays: p.arrays.len(),
            halo,
            rows: n + 2 * halo + 1,
            cols: m + 2 * halo + 1,
        }
    }

    /// Cells per plane.
    pub fn plane(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    /// Total cells across all planes.
    pub fn cells(&self) -> usize {
        self.arrays * self.plane()
    }

    /// The *cursor* of cell `(i, j)`: its linear index within a plane.
    /// Compiled code adds per-reference deltas (plane base + subscript
    /// offset) to a cursor instead of calling this per access.
    pub fn cursor(&self, i: i64, j: i64) -> usize {
        debug_assert!(
            i >= -self.halo
                && i < self.rows - self.halo
                && j >= -self.halo
                && j < self.cols - self.halo,
            "cursor ({i},{j}) outside layout"
        );
        ((i + self.halo) * self.cols + (j + self.halo)) as usize
    }

    /// The linear delta a reference to array `k` at subscript offset
    /// `(di, dj)` adds to the accessing statement's cursor.
    pub fn delta(&self, k: usize, di: i64, dj: i64) -> isize {
        (k as i64 * self.rows * self.cols + di * self.cols + dj) as isize
    }
}

/// The flat memory image of one kernel execution.
#[derive(Debug, PartialEq, Eq)]
pub struct KernelMemory {
    layout: Layout,
    data: Vec<i64>,
}

impl Clone for KernelMemory {
    fn clone(&self) -> Self {
        KernelMemory {
            layout: self.layout,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this image's buffer, reusing its allocation
    /// (the supervisor's checkpoint copies).
    fn clone_from(&mut self, source: &Self) {
        self.layout = source.layout;
        self.data.clone_from(&source.data);
    }
}

impl KernelMemory {
    /// [`KernelMemory::with_threads`] with the current worker count.
    pub fn new(layout: Layout) -> KernelMemory {
        KernelMemory::with_threads(layout, rayon::current_num_threads())
    }

    /// Allocates memory for `layout` and fills every cell with the
    /// interpreter's deterministic boundary pattern. With more than one
    /// worker, an image of at least [`BANDED_FILL_CELLS`] cells is filled
    /// in row bands on the worker pool; the image is the same either way.
    pub fn with_threads(layout: Layout, threads: usize) -> KernelMemory {
        let data = if threads > 1 && layout.cells() >= BANDED_FILL_CELLS {
            fill_banded(layout)
        } else {
            let mut data = Vec::with_capacity(layout.cells());
            advise_huge_pages(data.spare_capacity_mut());
            for k in 0..layout.arrays {
                for i in -layout.halo..layout.rows - layout.halo {
                    data.extend(init_row(k, i, -layout.halo..layout.cols - layout.halo));
                }
            }
            data
        };
        KernelMemory { layout, data }
    }

    /// The layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Reads array `k` at `(i, j)` (tests and reporting; compiled code
    /// never calls this).
    pub fn get(&self, k: usize, i: i64, j: i64) -> i64 {
        self.data[(self.layout.cursor(i, j) as isize + self.layout.delta(k, 0, 0)) as usize]
    }

    /// The whole buffer, for the execution engine.
    pub(crate) fn data_mut(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Fingerprint of the whole memory image — **identical** to
    /// `mdf_sim::Memory::fingerprint` on an equal image: the same
    /// per-plane FNV fold (`Array2::fingerprint`) combined the same way.
    pub fn fingerprint(&self) -> u64 {
        let plane = self.layout.plane();
        let mut h: u64 = 14695981039346656037;
        for k in 0..self.layout.arrays {
            let mut a: u64 = 0xcbf2_9ce4_8422_2325;
            for &v in &self.data[k * plane..(k + 1) * plane] {
                a ^= v as u64;
                a = a.wrapping_mul(0x100_0000_01b3);
            }
            h ^= a;
            h = h.wrapping_mul(1099511628211);
        }
        h
    }
}

/// The whole [`HUGE_PAGE`]-aligned pages inside the `len` bytes at
/// `addr`, as an address range; empty when there are none.
fn huge_pages_within(addr: usize, len: usize) -> Range<usize> {
    let start = addr.next_multiple_of(HUGE_PAGE);
    let end = (addr + len) / HUGE_PAGE * HUGE_PAGE;
    start..end.max(start)
}

/// Asks Linux to back the whole huge pages inside `buf` with transparent
/// huge pages (`madvise(MADV_HUGEPAGE)`), so that each takes one fault
/// and stays one TLB entry. Called before the buffer's first write. A
/// buffer holding no such page, every small image, is not advised. The
/// result is ignored: with THP off the call fails with `EINVAL` and the
/// pages stay 4 KiB; on other targets this is a no-op.
fn advise_huge_pages<T>(buf: &mut [T]) {
    let pages = huge_pages_within(buf.as_mut_ptr() as usize, std::mem::size_of_val(buf));
    if pages.is_empty() {
        return;
    }
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::ffi::{c_int, c_void};
        /// `MADV_HUGEPAGE` in `<sys/mman.h>` on these targets.
        const MADV_HUGEPAGE: c_int = 14;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        // SAFETY: `pages` lies inside `buf`, which this exclusive borrow
        // keeps allocated for the call. The advice changes only how the
        // range's pages are backed, never their contents, so no Rust
        // value is read or written.
        unsafe {
            madvise(pages.start as *mut c_void, pages.len(), MADV_HUGEPAGE);
        }
    }
}

/// The banded fill: a zeroed allocation, which above glibc's mmap
/// threshold maps fresh pages, so the fill is their first touch and the
/// page faults run on the pool too; then [`FILL_BANDS`] bands of whole
/// rows, claimed by index. The bands sit in a stack array, so the
/// dispatch allocates nothing (`tests/fill_allocations.rs`). Out of line,
/// so that this branch cannot change how the serial fill beside it
/// compiles.
#[inline(never)]
fn fill_banded(layout: Layout) -> Vec<i64> {
    let mut data = vec![0; layout.cells()];
    advise_huge_pages(&mut data);
    let (rows, cols) = (layout.rows as usize, layout.cols as usize);
    // Band `b` starts at buffer row `first_row(b)`, counting the rows of
    // all planes back to back.
    let first_row = |b: usize| b * layout.arrays * rows / FILL_BANDS;
    let mut rest = data.as_mut_slice();
    let bands: [Mutex<&mut [i64]>; FILL_BANDS] = std::array::from_fn(|b| {
        let len = (first_row(b + 1) - first_row(b)) * cols;
        let (band, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        Mutex::new(band)
    });
    (0..FILL_BANDS).into_par_iter().for_each(|b| {
        // Each index is claimed once, so the lock is never contended.
        let band = std::mem::take(&mut *bands[b].lock().unwrap_or_else(PoisonError::into_inner));
        for (g, row) in (first_row(b)..).zip(band.chunks_exact_mut(cols)) {
            let i = (g % rows) as i64 - layout.halo;
            let values = init_row(g / rows, i, -layout.halo..layout.cols - layout.halo);
            for (cell, v) in row.iter_mut().zip(values) {
                *cell = v;
            }
        }
    });
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_ir::samples::figure2_program;
    use mdf_sim::array2::init_value;
    use mdf_sim::Memory;

    #[test]
    fn layout_matches_interpreter_extents() {
        let p = figure2_program();
        let (n, m) = (10, 7);
        let layout = Layout::for_program(&p, n, m);
        let mem = Memory::for_program(&p, n, m, 0);
        let ((lo_i, hi_i), (lo_j, hi_j)) = mem.array(0).extent();
        assert_eq!(lo_i, -layout.halo);
        assert_eq!(hi_i, layout.rows - layout.halo - 1);
        assert_eq!(lo_j, -layout.halo);
        assert_eq!(hi_j, layout.cols - layout.halo - 1);
        assert_eq!(layout.arrays, p.arrays.len());
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let layout = Layout::for_program(&figure2_program(), 6, 5);
        let mut src = KernelMemory::with_threads(layout, 1);
        src.data_mut()[7] = 42;
        let mut dst = KernelMemory::with_threads(layout, 1);
        let buffer = dst.data.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.data.as_ptr(), buffer, "the buffer is reused");
    }

    #[test]
    fn fresh_memory_fingerprint_equals_interpreter_fingerprint() {
        // The whole oracle contract in one assert: untouched kernel memory
        // and untouched interpreter memory hash identically.
        let p = figure2_program();
        for (n, m) in [(0, 0), (3, 5), (12, 9)] {
            let layout = Layout::for_program(&p, n, m);
            let kmem = KernelMemory::new(layout);
            let imem = Memory::for_program(&p, n, m, 0);
            assert_eq!(kmem.fingerprint(), imem.fingerprint(), "bounds ({n},{m})");
        }
    }

    #[test]
    fn cursor_delta_arithmetic_reaches_the_right_cells() {
        let p = figure2_program();
        let layout = Layout::for_program(&p, 6, 6);
        let kmem = KernelMemory::new(layout);
        // a[i-2][j+1] of array 3 from iteration (2, 3), via cursor + delta.
        let cur = layout.cursor(2, 3) as isize;
        let d = layout.delta(3, -2, 1);
        assert_eq!(kmem.data[(cur + d) as usize], init_value(3, 0, 4));
        assert_eq!(kmem.get(3, 0, 4), init_value(3, 0, 4));
    }

    #[test]
    fn huge_pages_within_keeps_only_whole_aligned_pages() {
        const H: usize = HUGE_PAGE;
        let cases = [
            // Shorter than a huge page, aligned or not: nothing.
            (H, H - 8, H..H),
            (H + 16, 4096, 2 * H..2 * H),
            // Unaligned start: the head up to the next boundary is cut.
            (H + 16, 3 * H, 2 * H..4 * H),
            // Aligned start, end inside a huge page: the tail is cut.
            (H, 2 * H + 8, H..3 * H),
            // Aligned start, an exact multiple of 2 MiB: all of it.
            (3 * H, 4 * H, 3 * H..7 * H),
            // One huge page long, but unaligned: nothing.
            (H + 16, H, 2 * H..2 * H),
        ];
        for (addr, len, want) in cases {
            assert_eq!(huge_pages_within(addr, len), want, "{addr:#x}+{len:#x}");
        }
    }

    #[test]
    fn every_worker_count_fills_the_same_image() {
        let layout = |arrays, rows, cols| Layout {
            arrays,
            halo: 2,
            rows,
            cols,
        };
        // Three planes of 1024² cells (24 MiB): an image whose whole huge
        // pages are advised, filled serially and in bands.
        let advised = mdf_ir::parse_program(
            "program advised { arrays a, b, c; do i { doall A: j { c[i][j] = a[i-2][j] + b[i][j+2]; } } }",
        )
        .unwrap();
        let (n, m) = (1019, 1019);
        let big = Layout::for_program(&advised, n, m);
        assert_eq!(big, layout(3, 1024, 1024));
        let cases = [
            // Below, at and above the cutoff; the fourth leaves 633 rows
            // to cut into 64 bands, the one before leaves most bands
            // empty.
            (layout(1, 1, BANDED_FILL_CELLS as i64 - 1), false),
            (layout(2, 256, 256), true),
            (layout(1, 3, 43_691), true),
            (layout(3, 211, 211), true),
            (big, true),
        ];
        for (layout, banded) in cases {
            assert_eq!(layout.cells() >= BANDED_FILL_CELLS, banded, "{layout:?}");
            let serial = KernelMemory::with_threads(layout, 1);
            for t in 1..=4 {
                let mem = rayon::with_workers(t, || KernelMemory::with_threads(layout, t));
                for k in 0..layout.arrays {
                    for i in -layout.halo..layout.rows - layout.halo {
                        for j in -layout.halo..layout.cols - layout.halo {
                            assert_eq!(mem.get(k, i, j), init_value(k, i, j), "{layout:?} t={t}");
                        }
                    }
                }
                assert!(mem == serial, "{layout:?} t={t}");
            }
        }
        let want = Memory::for_program(&advised, n, m, 0).fingerprint();
        for t in [1, 2] {
            let mem = rayon::with_workers(t, || KernelMemory::with_threads(big, t));
            assert_eq!(mem.fingerprint(), want, "t={t}");
        }
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let p = figure2_program();
        let layout = Layout::for_program(&p, 4, 4);
        let mut kmem = KernelMemory::new(layout);
        let f0 = kmem.fingerprint();
        let idx = (layout.cursor(1, 1) as isize + layout.delta(2, 0, 0)) as usize;
        kmem.data_mut()[idx] ^= 1;
        assert_ne!(f0, kmem.fingerprint());
    }
}
