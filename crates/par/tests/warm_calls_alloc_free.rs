//! A warm pool call makes no allocator call: once a pool's workers have
//! started, `for_each_mut` and `for_each` at width 2 and 3 hand out their
//! parts, wake the workers and wait for them without touching the heap.
//!
//! One `#[test]` in its own binary. The counter is process-wide, because
//! the shares run on the pool's workers too; nothing else runs beside the
//! test.

use chlm_par::{split_ranges, WorkerPool};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[test]
fn warm_calls_do_not_allocate() {
    // The schedule fuzz permutes a collected copy of the parts, so it
    // allocates by design; this pins the production path.
    std::env::remove_var(chlm_par::SHUFFLE_ENV);
    for threads in [2, 3] {
        let pool = WorkerPool::new(threads);
        let mut items = vec![0u64; 1000];
        let mut sums = vec![0u64; threads];
        // The first call starts the workers.
        pool.for_each_mut(&mut items, |x| *x += 1);
        let before = counting_alloc::process_calls();
        for _ in 0..50 {
            pool.for_each_mut(&mut items, |x| *x += 1);
            pool.for_each(
                split_ranges(1000, threads).zip(sums.iter_mut()),
                |(r, sum)| {
                    *sum = r.map(|i| i as u64).sum();
                },
            );
        }
        let calls = counting_alloc::process_calls() - before;
        assert_eq!(
            calls, 0,
            "width {threads}: {calls} allocator calls over 50 warm calls"
        );
        assert!(items.iter().all(|&x| x == 51));
        assert_eq!(sums.iter().sum::<u64>(), 999 * 1000 / 2);
    }
}
