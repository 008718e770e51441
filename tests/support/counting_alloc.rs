//! The allocation walls' one counting allocator.
//!
//! Included by each wall with `#[path]` (`mod counting_alloc;`), it
//! installs itself as the test binary's global allocator, delegates every
//! operation to `System`, and counts the calls that hand out memory
//! (`alloc`, `alloc_zeroed`, `realloc`) twice: per thread, for a wall that
//! runs everything it measures on its own thread (nothing the harness
//! does beside it lands in the window), and per process, for a wall whose
//! measured code runs on spawned pool threads too. Per thread it also adds
//! up the bytes those calls asked for (a `realloc` its new size), the
//! benchmark's `alloc_kb_per_tick` measure, and the bytes it holds: what
//! it was handed less what it gave back.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocator calls made by this thread (const-initialised and
    /// `Drop`-free, so reading it never allocates).
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (same).
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread was handed less those it freed (same).
    static THREAD_HELD: Cell<i64> = const { Cell::new(0) };
}

/// Allocator calls made by the process.
static PROCESS_CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocator calls made so far by the calling thread.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// Bytes the calling thread's allocator calls have asked for so far.
pub fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Bytes the calling thread has been handed and not freed: a difference
/// of two readings is what the code between them kept.
pub fn thread_held() -> i64 {
    THREAD_HELD.with(Cell::get)
}

/// Allocator calls made so far by the whole process.
pub fn process_calls() -> u64 {
    PROCESS_CALLS.load(Ordering::Relaxed)
}

fn count(bytes: usize) {
    PROCESS_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn hold(bytes: isize) {
    let _ = THREAD_HELD.try_with(|c| c.set(c.get() + bytes as i64));
}

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counters
// are side-effect-only.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as isize - layout.size() as isize);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
