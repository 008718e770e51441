//! Deterministic intra-tick parallelism.
//!
//! Every parallel hot path in the simulator (the batched BFS rows of
//! `Graph::fill_hops`, Verlet-list topology maintenance, the sharded
//! packet backend) fans work out through one [`WorkerPool`] and merges results with one of
//! two order-preserving shapes:
//!
//! * [`WorkerPool::run_indexed`] — `count` independent jobs claimed off a
//!   lock-free ticket counter; results come back **in job-index order**
//!   regardless of which thread ran which job or in what order they
//!   finished.
//! * [`WorkerPool::for_each_mut`] — each element of a slice mutated
//!   independently in place; contiguous chunks per worker, no output to
//!   merge.
//!
//! Both collapse to the plain serial loop when the pool has one thread, so
//! `threads == 1` is byte-for-byte the pre-parallel code path. Determinism
//! across thread counts is then a *merge discipline*, not a scheduling
//! property: callers must make each job's output independent of every
//! other job (no shared accumulators, no RNG draws keyed on thread
//! identity), and must keep any job-count that seeds RNG streams fixed
//! (the packet backend's shard count, for example) rather than derived
//! from the thread count. The `no-step-path-nondeterminism` lint
//! (`cargo xtask lint`) polices the reduction side of that contract.
//!
//! The thread budget is one knob for the whole workspace: `CHLM_THREADS`
//! overrides, `available_parallelism` is the default — see
//! [`thread_budget`]. Nested pools (replication fan-out around intra-tick
//! fan-out) divide the same budget instead of multiplying it; see
//! `chlm_sim::budget_split`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Name of the single thread-budget environment variable shared by the
/// experiment runner, the `benchmark/` harness, and every intra-tick pool.
pub const THREADS_ENV: &str = "CHLM_THREADS";

/// Name of the schedule-fuzz environment variable. Test-only: when set to
/// an integer seed, every multi-threaded pool call deterministically
/// permutes job claim order ([`WorkerPool::run_indexed`]) and chunk spawn
/// order ([`WorkerPool::for_each_mut`]), emulating an adversarial
/// scheduler. The merge discipline means results must be byte-identical
/// with or without it — the variable exists so tests can try to falsify
/// that contract, not to change behavior.
pub const SHUFFLE_ENV: &str = "CHLM_SHUFFLE_MERGE";

/// The schedule-fuzz seed, if the env var is set to an integer.
fn shuffle_seed() -> Option<u64> {
    std::env::var(SHUFFLE_ENV).ok()?.parse::<u64>().ok()
}

/// Seeded Fisher–Yates permutation of `0..len` over a splitmix64 stream
/// (self-contained so the pool stays dependency-free; quality is ample
/// for schedule fuzzing).
fn permutation(len: usize, mut state: u64) -> Vec<usize> {
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut p: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Reorder `items` so position `i` holds the element that was at
/// `perm[i]`.
fn apply_permutation<T>(items: Vec<T>, perm: &[usize]) -> Vec<T> {
    debug_assert_eq!(items.len(), perm.len());
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    perm.iter()
        // audit: infallible because perm is a permutation of 0..len, so every slot is taken exactly once
        .map(|&i| slots[i].take().expect("permutation index reused"))
        .collect()
}

/// The workspace-wide thread budget: `CHLM_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism (falling back to
/// 4 when that cannot be queried).
pub fn thread_budget() -> usize {
    match std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(t) if t >= 1 => t,
        _ => std::thread::available_parallelism().map_or(4, |p| p.get()),
    }
}

/// A fixed-width pool of scoped worker threads. Copyable config, not a
/// thread handle: threads are spawned per call via `crossbeam::scope` and
/// joined before the call returns, so borrowing the caller's buffers is
/// free and there is no cross-call state to poison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(thread_budget())
    }
}

impl WorkerPool {
    /// Pool with exactly `threads` workers (≥ 1; 1 = serial execution).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        WorkerPool { threads }
    }

    /// Configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool executes serially (single thread).
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Run `count` independent jobs and return their results **in job
    /// order**. Jobs are claimed off a shared ticket counter
    /// (`fetch_add`), each worker keeps `(index, result)` pairs, and the
    /// joined lists are scattered into an index-addressed output — so the
    /// result vector is identical for every thread count as long as
    /// `f(i)` depends only on `i` and shared read-only state.
    pub fn run_indexed<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || count <= 1 {
            return (0..count).map(f).collect();
        }
        // Schedule fuzz: remap ticket -> job through a seeded permutation
        // so workers claim jobs in adversarial order. The scatter below
        // must erase the difference.
        let claim_order = shuffle_seed().map(|s| permutation(count, s));
        // AUDIT: the ticket counter only hands out job *indices*; results
        // are scattered into index-addressed slots below, so claim order
        // never reaches the output.
        let next = AtomicUsize::new(0);
        let f = &f;
        let finished = crossbeam::scope(|scope| {
            let workers: Vec<_> = (0..self.threads.min(count))
                .map(|_| {
                    scope.spawn(|_| {
                        let mut mine: Vec<(usize, T)> = Vec::new();
                        loop {
                            // AUDIT: relaxed RMW only partitions indices
                            // across workers; each job computes f(idx).
                            let ticket = next.fetch_add(1, Ordering::Relaxed);
                            if ticket >= count {
                                break;
                            }
                            let idx = match &claim_order {
                                Some(p) => p[ticket],
                                None => ticket,
                            };
                            mine.push((idx, f(idx)));
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                // audit: infallible because join() only errs on a worker panic, already fatal here
                .flat_map(|w| w.join().expect("pool worker panicked"))
                .collect::<Vec<_>>()
        })
        // audit: infallible because scope() only errs on a worker panic, already fatal here
        .expect("pool worker panicked");

        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (idx, value) in finished {
            debug_assert!(slots[idx].is_none(), "job index claimed twice");
            slots[idx] = Some(value);
        }
        slots
            .into_iter()
            // audit: infallible because the ticket counter covers every index exactly once
            .map(|s| s.expect("missing job result"))
            .collect()
    }

    /// Mutate every element of `items` in place, independently. Workers
    /// take contiguous chunks; since each element is touched by exactly
    /// one closure call and the closure sees nothing but that element plus
    /// shared read-only state, the final slice contents cannot depend on
    /// the thread count.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            for item in items {
                f(item);
            }
            return;
        }
        let chunk = items.len().div_ceil(workers);
        let f = &f;
        // Schedule fuzz: spawn the chunks in a seeded shuffled order.
        // Chunks are disjoint, so spawn order must be unobservable.
        let mut parts: Vec<&mut [T]> = items.chunks_mut(chunk).collect();
        if let Some(seed) = shuffle_seed() {
            let perm = permutation(parts.len(), seed);
            parts = apply_permutation(parts, &perm);
        }
        crossbeam::scope(|scope| {
            for part in parts {
                scope.spawn(move |_| {
                    for item in part {
                        f(item);
                    }
                });
            }
        })
        // audit: infallible because scope() only errs on a worker panic, already fatal here
        .expect("pool worker panicked");
    }
}

/// Split `0..len` into exactly `parts` contiguous ranges (some possibly
/// empty), as evenly as possible, first ranges largest. The split depends
/// only on `(len, parts)` — callers that key RNG streams or merge order on
/// the part index get thread-count-independent results for free as long as
/// `parts` itself is a constant.
pub fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts >= 1);
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_orders_results() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let got = pool.run_indexed(37, |i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn run_indexed_empty_and_single() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn for_each_mut_matches_serial() {
        let init: Vec<u64> = (0..101).collect();
        let mut serial = init.clone();
        WorkerPool::new(1).for_each_mut(&mut serial, |x| *x = *x * 3 + 1);
        for threads in [2, 4, 9] {
            let mut par = init.clone();
            WorkerPool::new(threads).for_each_mut(&mut par, |x| *x = *x * 3 + 1);
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (len, parts) in [(0usize, 3usize), (5, 8), (16, 4), (17, 4), (1000, 7)] {
            let ranges = split_ranges(len, parts);
            assert_eq!(ranges.len(), parts);
            let mut expect = 0usize;
            for r in &ranges {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
            assert_eq!(expect, len);
            // Even: sizes differ by at most one, larger ones first.
            let sizes: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
            for w in sizes.windows(2) {
                assert!(w[0] >= w[1]);
                assert!(w[0] - w[1] <= 1);
            }
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        for (len, seed) in [(0usize, 1u64), (1, 2), (7, 3), (64, 0), (64, 1)] {
            let p = permutation(len, seed);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            let want: Vec<usize> = (0..len).collect();
            assert_eq!(sorted, want, "len {len} seed {seed}");
            // Deterministic for a fixed seed.
            assert_eq!(p, permutation(len, seed));
        }
        // Different seeds give different orders (overwhelmingly likely).
        assert_ne!(permutation(64, 1), permutation(64, 2));
    }

    #[test]
    fn apply_permutation_reorders() {
        let items = vec!['a', 'b', 'c', 'd'];
        let got = apply_permutation(items, &[2, 0, 3, 1]);
        assert_eq!(got, vec!['c', 'a', 'd', 'b']);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn budget_is_positive() {
        assert!(thread_budget() >= 1);
    }
}
