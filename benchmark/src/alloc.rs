//! Counting global allocator.
//!
//! Both binaries install [`CountingAlloc`], so every heap allocation the
//! simulator makes inside a measured window is counted. Each
//! (workload, repetition) runs in a fresh child process, which makes the
//! counters per repetition. The counters are process-wide: allocations by
//! `chlm-par` worker threads land in whichever window the load-generating
//! thread has open, which is what a per-tick budget wants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting wrapper around the system allocator.
pub struct CountingAlloc;

// Relaxed: the counters are statistics and publish no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counters
// are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and bytes requested, either since process start (a
/// [`snapshot`]) or over a window (the difference of two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl Sub for AllocCount {
    type Output = AllocCount;
    fn sub(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::Add for AllocCount {
    type Output = AllocCount;
    fn add(self, other: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl std::iter::Sum for AllocCount {
    fn sum<I: Iterator<Item = AllocCount>>(iter: I) -> AllocCount {
        iter.fold(AllocCount::default(), |a, b| a + b)
    }
}

/// The counters now.
pub fn snapshot() -> AllocCount {
    AllocCount {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_deltas_sum_to_the_enclosing_window() {
        // Arbitrary snapshots of a monotone counter: adjacent windows
        // must add up to the window that spans them.
        let marks = [
            AllocCount {
                calls: 3,
                bytes: 40,
            },
            AllocCount {
                calls: 3,
                bytes: 40,
            },
            AllocCount {
                calls: 10,
                bytes: 900,
            },
            AllocCount {
                calls: 11,
                bytes: 908,
            },
        ];
        let parts: AllocCount = marks.windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(parts, marks[3] - marks[0]);
        assert_eq!(
            parts,
            AllocCount {
                calls: 8,
                bytes: 868
            }
        );
    }
}
