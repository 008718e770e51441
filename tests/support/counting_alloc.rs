//! The allocation walls' one counting allocator.
//!
//! Included by each wall with `#[path]` (`mod counting_alloc;`), it
//! installs itself as the test binary's global allocator, delegates every
//! operation to `System`, and counts the calls that hand out memory
//! (`alloc`, `alloc_zeroed`, `realloc`) twice: per thread, for a wall that
//! runs everything it measures on its own thread (nothing the harness
//! does beside it lands in the window), and per process, for a wall whose
//! measured code runs on spawned pool threads too.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocator calls made by this thread (const-initialised and
    /// `Drop`-free, so reading it never allocates).
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator calls made by the process.
static PROCESS_CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocator calls made so far by the calling thread.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// Allocator calls made so far by the whole process.
pub fn process_calls() -> u64 {
    PROCESS_CALLS.load(Ordering::Relaxed)
}

fn count() {
    PROCESS_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counters
// are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
