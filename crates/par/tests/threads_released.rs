//! A pool's workers live exactly as long as the pool: 64 pools of width
//! 3, each created, used and dropped in turn, leave the process with the
//! threads it started with.
//!
//! One `#[test]` in its own binary, so no other test's threads come and
//! go while it reads `Threads:` in `/proc/self/status`.

use chlm_par::WorkerPool;
use std::time::{Duration, Instant};

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
// Miri runs the workers as threads of its own, not of the process.
#[cfg_attr(miri, ignore)]
fn dropped_pools_leave_no_thread_behind() {
    if !std::path::Path::new("/proc/self/status").exists() {
        eprintln!("no /proc/self/status: nothing to count");
        return;
    }
    let start = threads();
    for round in 0..64 {
        let pool = WorkerPool::new(3);
        let mut items: Vec<usize> = (0..30).collect();
        pool.for_each_mut(&mut items, |x| *x += round);
        assert_eq!(items, (round..30 + round).collect::<Vec<_>>());
        // Both workers started, and no more.
        assert!(threads() <= start + 2 * (round + 1), "round {round}");
    }
    // A joined thread can still be counted for a moment while the kernel
    // finishes its exit; give it a second.
    let deadline = Instant::now() + Duration::from_secs(1);
    while threads() != start && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), start, "threads before the pools: {start}");
}
