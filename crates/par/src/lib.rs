//! Deterministic intra-tick parallelism.
//!
//! Every parallel hot path in the simulator (the batched BFS rows of
//! `Graph::fill_hops`, Verlet-list topology maintenance, the LM walk, the
//! sharded packet backend) fans work out through one [`WorkerPool`] and
//! merges results with one of two order-preserving shapes:
//!
//! * [`WorkerPool::run_indexed`] — `count` independent jobs claimed one at
//!   a time; results come back **in job-index order** regardless of which
//!   thread ran which job or in what order they finished.
//! * [`WorkerPool::for_each_mut`] — each element of a slice mutated
//!   independently in place; contiguous chunks, one participant each, no
//!   output to merge. [`WorkerPool::for_each`] is the same over any
//!   sized iterator of disjoint parts.
//!
//! Both collapse to the plain serial loop when the pool has one thread, so
//! `threads == 1` is byte-for-byte the pre-parallel code path and starts no
//! thread. Determinism across thread counts is then a *merge discipline*,
//! not a scheduling property: callers must make each job's output
//! independent of every other job (no shared accumulators, no RNG draws
//! keyed on thread identity), and must keep any job-count that seeds RNG
//! streams fixed (the packet backend's shard count, for example) rather
//! than derived from the thread count. The `no-step-path-nondeterminism`
//! lint (`cargo xtask lint`) polices the reduction side of that contract.
//!
//! A pool of width `t` owns `t − 1` parked worker threads, started at its
//! first parallel call and joined when its last clone drops; the calling
//! thread is the `t`-th participant. A parked worker sleeps on a condition
//! variable (no spinning), and a call on a warm pool makes no allocator
//! call, so a per-tick fan-out costs a wake-up and a rendezvous, not a
//! thread spawn.
//!
//! The thread budget is one knob for the whole workspace: `CHLM_THREADS`
//! overrides, `available_parallelism` is the default — see
//! [`thread_budget`]. Nested pools (replication fan-out around intra-tick
//! fan-out) divide the same budget instead of multiplying it; see
//! `chlm_sim::budget_split`.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Name of the single thread-budget environment variable shared by the
/// experiment runner, the `benchmark/` harness, and every intra-tick pool.
pub const THREADS_ENV: &str = "CHLM_THREADS";

/// Name of the schedule-fuzz environment variable. Test-only: when set to
/// an integer seed, every multi-threaded pool call deterministically
/// permutes the order its jobs ([`WorkerPool::run_indexed`]) or chunks
/// ([`WorkerPool::for_each_mut`]) are claimed in, emulating an adversarial
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

/// A fixed-width worker pool: a handle to `threads − 1` parked workers
/// that every call shares with the calling thread.
///
/// The workers start at the pool's first parallel call; [`Clone`] shares
/// them (two stages handed clones of one pool keep one set of workers),
/// and they are joined when the last clone drops. A call borrows the
/// caller's buffers for its duration only and returns after every
/// participant has left them; a warm call allocates nothing.
///
/// A call made while the pool is already running one — nested inside a
/// job, or from another thread — runs all of its items on its own caller,
/// which the merge discipline makes indistinguishable. A panic in any
/// participant's share is re-raised in the caller once every participant
/// has left the call; the pool stays usable.
#[derive(Clone)]
pub struct WorkerPool {
    threads: usize,
    /// The workers; `None` at width 1, which never starts a thread.
    crew: Option<Arc<Crew>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(thread_budget())
    }
}

impl WorkerPool {
    /// Pool with exactly `threads` participants (≥ 1; 1 = serial
    /// execution): the caller and `threads − 1` workers, started on first
    /// use.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "worker pool needs at least one thread");
        WorkerPool {
            threads,
            crew: (threads > 1).then(|| Arc::new(Crew::new(threads - 1))),
        }
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
    /// order**. Participants claim jobs one at a time and record each
    /// result with its index; the results are scattered into an
    /// index-addressed output — so the result vector is identical for
    /// every thread count as long as `f(i)` depends only on `i` and shared
    /// read-only state.
    pub fn run_indexed<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || count <= 1 {
            return (0..count).map(f).collect();
        }
        // AUDIT: the lock only collects `(index, result)` pairs; they are
        // scattered into index-addressed slots below, so the order they
        // were pushed in never reaches the output.
        let finished = Mutex::new(Vec::with_capacity(count));
        self.for_each(0..count, |idx| {
            let value = f(idx);
            // AUDIT: see `finished`; the push order is erased below.
            lock(&finished).push((idx, value));
        });
        let finished = finished
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);

        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (idx, value) in finished {
            debug_assert!(slots[idx].is_none(), "job index claimed twice");
            slots[idx] = Some(value);
        }
        slots
            .into_iter()
            // audit: infallible because every index of 0..count is claimed exactly once
            .map(|s| s.expect("missing job result"))
            .collect()
    }

    /// Mutate every element of `items` in place, independently. The slice
    /// is cut into `min(threads, len)` contiguous chunks of
    /// `len.div_ceil(min(threads, len))` elements, each run by one
    /// participant; since each element is touched by exactly one closure
    /// call and the closure sees nothing but that element plus shared
    /// read-only state, the final slice contents cannot depend on the
    /// thread count.
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
        self.for_each(items.chunks_mut(chunk), |part| {
            for item in part {
                f(item);
            }
        });
    }

    /// Hand every item of `parts` to `f` once, on up to `threads`
    /// participants at a time. Items are claimed one at a time in `parts`'
    /// order (a seeded permutation of it under [`SHUFFLE_ENV`]); which
    /// participant runs which item must not be observable, so `f` may
    /// write only through its item.
    pub fn for_each<I, F>(&self, parts: I, f: F)
    where
        I: ExactSizeIterator + Send,
        I::Item: Send,
        F: Fn(I::Item) + Sync,
    {
        let len = parts.len();
        let crew = match &self.crew {
            Some(crew) if len > 1 => crew,
            _ => return parts.for_each(f),
        };
        // Schedule fuzz: claim the parts in a seeded shuffled order. They
        // are disjoint, so claim order must be unobservable.
        let parts = match shuffle_seed() {
            Some(seed) => Claims::Shuffled(
                apply_permutation(parts.collect(), &permutation(len, seed)).into_iter(),
            ),
            None => Claims::InOrder(parts),
        };
        // AUDIT: the lock hands each part out once; the part is `f`'s
        // only output, so who claims it first is invisible.
        let parts = Mutex::new(parts);
        crew.run(len.min(self.threads) - 1, &|| loop {
            // AUDIT: see `parts`; the guard drops before `f` runs.
            let next = lock(&parts).next();
            match next {
                Some(part) => f(part),
                None => break,
            }
        });
    }
}

/// The order [`WorkerPool::for_each`] hands its parts out in.
enum Claims<I: Iterator> {
    InOrder(I),
    Shuffled(std::vec::IntoIter<I::Item>),
}

impl<I: Iterator> Iterator for Claims<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        match self {
            Claims::InOrder(parts) => parts.next(),
            Claims::Shuffled(parts) => parts.next(),
        }
    }
}

/// Lock `m`, ignoring poison: nothing in this crate panics while it holds
/// a lock (every job runs outside one), so a poisoned lock still guards
/// consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // AUDIT: lock acquisition only; each caller argues its own data.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job as the workers see it: the caller's share closure, its lifetime
/// erased by [`Crew::run`] for the duration of the call.
type Job = &'static (dyn Fn() + Sync);

/// The workers behind every clone of one [`WorkerPool`].
struct Crew {
    /// Workers to start: the pool's width less the caller.
    size: usize,
    /// Set while a call runs on the crew; a call that finds it set runs
    /// its share alone.
    busy: AtomicBool,
    shared: Arc<Shared>,
    /// The workers, started at the first parallel call.
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

/// What a crew's caller and its workers meet over.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Parked workers wait here for a job (or shutdown).
    wake: Condvar,
    /// The caller waits here for its helpers to leave the job.
    done: Condvar,
}

#[derive(Default)]
struct State {
    /// The job on offer; `None` between calls.
    job: Option<Job>,
    /// Bumped per job, so a worker joins each job at most once.
    epoch: u64,
    /// Workers that may still join the job on offer.
    seats: usize,
    /// Workers inside a job; they hold a copy of it until they leave.
    active: usize,
    /// The first panic a worker caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

impl Crew {
    fn new(size: usize) -> Self {
        Crew {
            size,
            // AUDIT: the busy flag only decides whether a call may use
            // the workers; a call refused them runs the same share alone.
            busy: AtomicBool::new(false),
            shared: Arc::default(),
            // AUDIT: set once, by the call holding `busy`.
            handles: OnceLock::new(),
        }
    }

    /// Run `share` on the calling thread and on up to `helpers` workers at
    /// once, and return once every participant has left it, re-raising
    /// the first panic any of them hit (the caller's own first). `share`
    /// must split its work by claiming, so that any number of
    /// participants — the caller alone included — does all of it.
    fn run(&self, helpers: usize, share: &(dyn Fn() + Sync)) {
        // AUDIT: acquire pairs with the release below, so one call's
        // writes to the state are seen by the next; a refused call never
        // touches the state.
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return share();
        }
        // AUDIT: see `handles`; only the holder of `busy` gets here.
        self.handles.get_or_init(|| {
            (0..self.size)
                .map(|_| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || shared.work())
                })
                .collect()
        });
        #[allow(unsafe_code)]
        // SAFETY: the workers see `job` only while this call runs. A
        // worker copies it out of the state only while `state.job` holds
        // it, and counts itself into `state.active` under the same lock;
        // it drops its copy before it counts itself out. Below, this call
        // withdraws the job and waits, under the lock, until `active` is
        // 0, before it returns or unwinds: the caller's own share runs
        // under `catch_unwind`, and nothing else between here and the
        // wait can panic (`lock` ignores poison; a condvar neither
        // allocates nor panics). So every use of `job` ends before the
        // borrow of `share` does.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(share) };
        let seats = helpers.min(self.size);
        {
            // AUDIT: the state only carries the job and the rendezvous
            // counts; no result passes through it.
            let mut state = self.shared.lock();
            state.job = Some(job);
            state.epoch += 1;
            state.seats = seats;
        }
        for _ in 0..seats {
            self.shared.wake.notify_one();
        }
        let mine = catch_unwind(AssertUnwindSafe(share));
        let theirs = {
            // AUDIT: withdraw the job and wait out its helpers (see
            // SAFETY above).
            let mut state = self.shared.lock();
            state.job = None;
            state.seats = 0;
            while state.active > 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.panic.take()
        };
        // AUDIT: see the acquire above.
        self.busy.store(false, Ordering::Release);
        if let Err(panic) = mine {
            resume_unwind(panic);
        }
        if let Some(panic) = theirs {
            resume_unwind(panic);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        let Some(handles) = self.handles.take() else {
            return;
        };
        // AUDIT: shutdown is read only by the parked workers.
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for handle in handles {
            // A worker catches every panic of its jobs, so it can only
            // return normally.
            let _ = handle.join();
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        lock(&self.state)
    }

    /// A worker's life: park until a job it has not joined has a seat,
    /// run its share, report back; return at shutdown.
    fn work(&self) {
        let mut seen = 0;
        // AUDIT: the state only carries the job and the rendezvous counts.
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return;
            }
            match state.job {
                Some(job) if state.epoch != seen && state.seats > 0 => {
                    seen = state.epoch;
                    state.seats -= 1;
                    state.active += 1;
                    drop(state);
                    let result = catch_unwind(AssertUnwindSafe(job));
                    // AUDIT: count out of the job; the first panic wins,
                    // and it is re-raised, not merged.
                    state = self.lock();
                    state.active -= 1;
                    if let Err(panic) = result {
                        state.panic.get_or_insert(panic);
                    }
                    if state.active == 0 {
                        self.done.notify_one();
                    }
                }
                _ => {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// Split `0..len` into exactly `parts` contiguous ranges (some possibly
/// empty), as evenly as possible, first ranges largest. The split depends
/// only on `(len, parts)` — callers that key RNG streams or merge order on
/// the part index get thread-count-independent results for free as long as
/// `parts` itself is a constant. Nothing is allocated.
pub fn split_ranges(
    len: usize,
    parts: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    assert!(parts >= 1);
    let (base, rem) = (len / parts, len % parts);
    (0..parts).map(move |i| {
        let start = i * base + i.min(rem);
        start..start + base + usize::from(i < rem)
    })
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
            let ranges: Vec<Range<usize>> = split_ranges(len, parts).collect();
            assert_eq!(ranges.len(), parts);
            assert_eq!(split_ranges(len, parts).len(), parts);
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

    /// Run two items at width 2, each held until both have started, so
    /// the caller runs one and the worker the other; `panic_on_caller`
    /// picks which of them panics, if either.
    fn both_participate(pool: &WorkerPool, panic_on_caller: Option<bool>) {
        use std::sync::atomic::AtomicUsize;
        let caller = std::thread::current().id();
        let entered = AtomicUsize::new(0);
        let mut items = [0u8; 2];
        pool.for_each_mut(&mut items, |item| {
            entered.fetch_add(1, Ordering::SeqCst);
            while entered.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let on_caller = std::thread::current().id() == caller;
            if panic_on_caller == Some(on_caller) {
                panic!("share panicked (caller: {on_caller})");
            }
            *item = 1;
        });
        assert_eq!(items, [1, 1]);
    }

    fn message(panic: Box<dyn Any + Send>) -> String {
        match panic.downcast::<String>() {
            Ok(text) => *text,
            Err(_) => String::from("<not a string>"),
        }
    }

    #[test]
    fn a_panic_in_any_share_reaches_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        for on_caller in [false, true, false] {
            let got = catch_unwind(AssertUnwindSafe(|| {
                both_participate(&pool, Some(on_caller));
            }));
            let text = message(got.expect_err("the share's panic was swallowed"));
            assert_eq!(text, format!("share panicked (caller: {on_caller})"));
            // The worker is still there and still joins calls.
            both_participate(&pool, None);
            assert_eq!(pool.run_indexed(9, |i| i + 1), (1..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_nested_call_runs_serially_on_its_caller() {
        let pool = WorkerPool::new(3);
        let mut outer: Vec<(usize, bool)> = vec![(0, false); 6];
        pool.for_each_mut(&mut outer, |(sum, alone)| {
            let me = std::thread::current().id();
            let inner = pool.run_indexed(5, |i| (i * 10, std::thread::current().id()));
            *sum = inner.iter().map(|&(v, _)| v).sum();
            *alone = inner.iter().all(|&(_, id)| id == me);
            let mut deeper = [1u32, 2, 3, 4];
            pool.for_each_mut(&mut deeper, |x| *x *= 3);
            *sum += deeper.iter().sum::<u32>() as usize;
        });
        assert_eq!(outer, vec![(100 + 30, true); 6]);
    }

    #[test]
    fn a_call_from_another_thread_runs_alone_while_the_pool_is_busy() {
        use std::sync::atomic::AtomicUsize;
        let pool = WorkerPool::new(2);
        let entered = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut items = [0u8; 2];
                pool.for_each_mut(&mut items, |_| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            // Both participants are inside the first call.
            while entered.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let me = std::thread::current().id();
            let got = pool.run_indexed(8, |i| (i, std::thread::current().id()));
            release.store(true, Ordering::SeqCst);
            assert_eq!(
                got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..8).collect::<Vec<_>>()
            );
            assert!(got.iter().all(|&(_, id)| id == me));
        });
    }

    #[test]
    fn fewer_items_than_workers() {
        let pool = WorkerPool::new(8);
        for len in [0usize, 1, 2, 3, 7] {
            let mut items: Vec<usize> = (0..len).collect();
            pool.for_each_mut(&mut items, |x| *x = *x * 2 + 1);
            assert_eq!(
                items,
                (0..len).map(|x| x * 2 + 1).collect::<Vec<_>>(),
                "len {len}"
            );
            assert_eq!(
                pool.run_indexed(len, |i| i * i),
                (0..len).map(|i| i * i).collect::<Vec<_>>()
            );
            let mut parts = vec![0u32; len];
            pool.for_each(parts.iter_mut().enumerate(), |(i, p)| *p = i as u32 + 5);
            assert_eq!(parts, (0..len as u32).map(|i| i + 5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clones_share_one_crew() {
        let pool = WorkerPool::new(2);
        let twin = pool.clone();
        assert!(Arc::ptr_eq(
            pool.crew.as_ref().unwrap(),
            twin.crew.as_ref().unwrap()
        ));
        both_participate(&pool, None);
        both_participate(&twin, None);
        drop(pool);
        assert_eq!(twin.run_indexed(4, |i| i), vec![0, 1, 2, 3]);
        assert_eq!(format!("{twin:?}"), "WorkerPool { threads: 2 }");
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
