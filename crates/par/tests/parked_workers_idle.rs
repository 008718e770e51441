//! A parked worker burns no CPU: after a warm call, a pool of width 3
//! whose caller sleeps for 300 ms costs the process almost no CPU time
//! (a worker spinning between calls would cost about as much as the
//! sleep).
//!
//! One `#[test]` in its own binary, so no other test's work lands in the
//! process's CPU time while it reads `/proc/self/stat`.

use chlm_par::WorkerPool;
use std::time::Duration;

/// The process's user + system CPU time so far, in clock ticks (fields 14
/// and 15 of `/proc/self/stat`, after the parenthesised command name).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (_, rest) = stat.rsplit_once(')').expect("a command name");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (the state).
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[test]
// Miri runs the workers as threads of its own, not of the process.
#[cfg_attr(miri, ignore)]
fn parked_workers_burn_no_cpu() {
    if !std::path::Path::new("/proc/self/stat").exists() {
        eprintln!("no /proc/self/stat: nothing to measure");
        return;
    }
    let pool = WorkerPool::new(3);
    let mut items: Vec<u64> = (0..3000).collect();
    for _ in 0..10 {
        pool.for_each_mut(&mut items, |x| *x = x.wrapping_mul(3) + 1);
    }
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_millis(300));
    let spent = cpu_ticks() - before;
    // Clock ticks are usually 10 ms: two spinning workers would spend
    // about 60 here.
    assert!(
        spent <= 5,
        "{spent} clock ticks of CPU while the pool was idle"
    );
    // The pool still works after its nap.
    pool.for_each_mut(&mut items, |x| *x = 0);
    assert!(items.iter().all(|&x| x == 0));
}
