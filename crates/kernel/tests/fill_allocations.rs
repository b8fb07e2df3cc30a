//! Allocation count of a kernel memory fill.
//!
//! A fill must allocate its buffer and nothing else; in particular the
//! banded fill's dispatch must not build a heap list of its bands, and
//! the huge-page advice must not allocate (DESIGN.md §18). A counting
//! global allocator pins that. This binary holds a single test, so no
//! other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use mdf_kernel::memory::{Layout, BANDED_FILL_CELLS};
use mdf_kernel::KernelMemory;
use rayon::prelude::*;

/// The system allocator, counting every allocation made on any thread.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Dispatches on a 2-worker pool until an item has run on a pool thread,
/// so the pool's threads exist and have started before anything counts.
fn warm_up_pool() {
    let caller = thread::current().id();
    let elsewhere = AtomicBool::new(false);
    for _ in 0..1000 {
        rayon::with_workers(2, || {
            (0..64usize).into_par_iter().for_each(|_| {
                if thread::current().id() != caller {
                    elsewhere.store(true, Ordering::Relaxed);
                }
                thread::yield_now();
            })
        });
        if elsewhere.load(Ordering::Relaxed) {
            return;
        }
    }
}

#[test]
fn a_fill_allocates_only_its_buffer() {
    // 24 MiB: large enough that both fills advise whole huge pages, so
    // the count covers the advice too.
    let layout = Layout {
        arrays: 3,
        halo: 2,
        rows: 1024,
        cols: 1024,
    };
    assert!(layout.cells() >= BANDED_FILL_CELLS);
    warm_up_pool();
    // One worker fills serially, two fill in bands on the pool.
    for threads in [1, 2] {
        let allocations = rayon::with_workers(threads, || {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let mem = KernelMemory::with_threads(layout, threads);
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            drop(mem);
            after - before
        });
        assert_eq!(allocations, 1, "fill with {threads} worker(s)");
    }
}
