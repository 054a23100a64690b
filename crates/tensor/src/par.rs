//! The workspace's one threading primitive: an ordered fork-join
//! [`map`] and the nesting guard it shares a thread-local with.
//!
//! The simulator parallelises at two levels. In a collaborative round,
//! one job per sampled device (the in-process arm of
//! `NebulaStrategy::single_round`, the tracked cohort of its
//! `adaptation_step`, `core::net::Loopback`, which every dense-baseline
//! round goes through, and the shard fan-out of `ShardedWorld`). While it
//! synthesises data, one job per 64-row block of already-planned datasets
//! (`Synthesizer::fill`; a world build or a drift slot fills the whole
//! device population in one region). A round's job is tens of
//! milliseconds of training and a block a few hundred microseconds, so a
//! region spawns its threads and joins them again
//! ([`std::thread::scope`]) — one spawn per region is microseconds
//! against the region's work, and nothing persistent has to be shut
//! down, sized or shared. The tensor kernels do not fork: the products a
//! round issues are 10–300 µs each, far below what a thread spawn costs.
//!
//! Every job runs inside the same per-thread region flag [`sequential`]
//! sets, and a `map` called from inside a region (a shard whose devices
//! go through `Loopback`, a driver that wraps its work in [`sequential`])
//! runs inline on the calling thread, so regions never nest-fork.
//!
//! Determinism: `map` returns results in input order whatever thread ran
//! which job, and the call sites hand every job its own pre-forked RNG
//! stream (a synthesis block: a saved copy of the stream where it
//! starts), so a round's outcome is bit-identical for any thread budget —
//! the budget is purely a scheduling decision.
//!
//! Memory: a worker thread allocates from its own malloc arena, and what
//! it returns pins that arena after the region. Call sites therefore hand
//! jobs buffers the calling thread allocated (see
//! `EdgeClient::make_update_reusing`, and the dataset buffers a
//! `SamplePlan` is made with) rather than returning fresh ones,
//! and every job in flight is one more live model, so per-model scratch
//! is per thread where it can be (`nebula_nn`'s `dW` buffer).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    static SEQ_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Process-wide thread budget; `0` means "as many as the host has cores".
/// Lazily seeded from `NEBULA_THREADS`.
fn budget() -> &'static AtomicUsize {
    static CELL: OnceLock<AtomicUsize> = OnceLock::new();
    CELL.get_or_init(|| {
        let initial = std::env::var("NEBULA_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
        AtomicUsize::new(initial)
    })
}

/// Caps the threads a [`map`] region uses, process-wide; `0` restores the
/// default, [`std::thread::available_parallelism`].
///
/// A budget of `1` runs every region inline — the co-location knob behind
/// `nebula-node worker --threads 1`, so workers sharing a host don't
/// oversubscribe cores. A budget above the core count is honoured as
/// given (the default never exceeds it). Results are bit-identical at any
/// budget; see the module docs. The initial budget can be forced from the
/// environment: `NEBULA_THREADS=n`, read once on first use.
pub fn set_max_threads(n: usize) {
    budget().store(n, Ordering::SeqCst);
}

/// How many threads a [`map`] region may use: the budget set by
/// [`set_max_threads`] / `NEBULA_THREADS`, or the host's core count.
pub fn max_threads() -> usize {
    match budget().load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// RAII guard for a region; created by [`sequential`] and around every
/// [`map`] job.
struct SequentialScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SequentialScope {
    fn enter() -> Self {
        SEQ_DEPTH.with(|d| d.set(d.get() + 1));
        Self { _not_send: std::marker::PhantomData }
    }
}

impl Drop for SequentialScope {
    fn drop(&mut self) {
        SEQ_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` with forking disabled on this thread: every [`map`] it
/// reaches runs inline.
///
/// For a caller that wants single-thread work whatever the budget (a
/// benchmark driver timing per-core cost). Scopes may nest; forking
/// resumes when the outermost scope ends.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SequentialScope::enter();
    f()
}

/// True while the current thread is inside a [`sequential`] scope or a
/// [`map`] job.
fn in_sequential_scope() -> bool {
    SEQ_DEPTH.with(|d| d.get() > 0)
}

/// Applies `f` to every item on up to [`max_threads`] threads and returns
/// the results in input order.
///
/// The calling thread works alongside the threads it spawns; all of them
/// pull the next item from one shared queue, so uneven jobs balance
/// without a schedule. With one thread, one item, or a caller already
/// inside a region, the items run inline, in order. A panicking job's
/// payload is re-raised on the caller once every thread has stopped.
pub fn map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    map_on(max_threads(), items, f)
}

/// [`map`] with the costliest items handed out first; results still come
/// back in input order.
///
/// The shared queue balances uneven jobs only until it runs dry: if the
/// last item pulled is a long one, the other threads idle for up to its
/// whole length. A round's devices hold 1–12 modules per layer over
/// differently sized datasets, so their jobs differ severalfold; queueing
/// them by descending `cost` (ties in input order) leaves the short ones
/// to fill the end. The order is a pure function of the costs, and what a
/// job computes does not depend on when it runs, so results are the same
/// as [`map`]'s at any budget.
pub fn map_longest_first<T: Send, R: Send>(
    items: Vec<T>,
    cost: impl Fn(&T) -> u64,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut queued: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    // Stable, so equal costs keep input order.
    queued.sort_by_cached_key(|(_, item)| std::cmp::Reverse(cost(item)));
    let mut done = map(queued, |(index, item)| (index, f(item)));
    done.sort_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// [`map`] with the thread count passed in, so tests need not touch the
/// process-wide budget.
fn map_on<T: Send, R: Send>(threads: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 || in_sequential_scope() {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let _region = SequentialScope::enter();
        let mut done = Vec::new();
        loop {
            // The guard is a temporary of this statement: the lock is
            // never held while a job runs, so a panicking job cannot
            // poison it.
            let next = queue.lock().expect("the queue lock is not held across a job").next();
            let Some((index, item)) = next else { break };
            done.push((index, f(item)));
        }
        done
    };
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        // If the caller's own job panics, `scope` joins the workers and
        // then resumes that unwind.
        let mut done = work();
        for worker in workers {
            match worker.join() {
                Ok(theirs) => done.extend(theirs),
                // Not scope's generic "a scoped thread panicked": the
                // job's own payload.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (index, result) in done {
            slots[index] = Some(result);
        }
    });
    slots.into_iter().map(|r| r.expect("every queued item was run exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn scope_nests_and_unwinds() {
        assert!(!in_sequential_scope());
        sequential(|| {
            assert!(in_sequential_scope());
            sequential(|| assert!(in_sequential_scope()));
            assert!(in_sequential_scope());
        });
        assert!(!in_sequential_scope());
    }

    #[test]
    fn scope_returns_closure_value() {
        assert_eq!(sequential(|| 7), 7);
    }

    #[test]
    fn thread_budget_of_one_pins_sequential() {
        let me = thread::current().id();
        let order = Mutex::new(Vec::new());
        let out = map_on(1, vec![3, 1, 2], |x| {
            assert_eq!(thread::current().id(), me, "a budget of one spawns nothing");
            order.lock().unwrap().push(x);
            x * 10
        });
        assert_eq!(out, vec![30, 10, 20]);
        assert_eq!(*order.lock().unwrap(), vec![3, 1, 2], "inline jobs run in input order");
        assert!(max_threads() >= 1);
    }

    #[test]
    fn map_preserves_order_over_uneven_jobs() {
        // Job lengths differ by three orders of magnitude, longest first,
        // so completion order is nothing like input order.
        let spin = |n: u64| (0..n).fold(0u64, |acc, i| std::hint::black_box(acc ^ i.wrapping_mul(0x9E37)));
        let items: Vec<u64> = (0..25).map(|i| i + if i % 3 == 0 { 200_000 } else { 200 }).collect();
        for threads in [2, 3, 4] {
            let out = map_on(threads, items.clone(), |n| (n, spin(n)));
            let want: Vec<(u64, u64)> = items.iter().map(|&n| (n, spin(n))).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    #[test]
    fn longest_first_runs_by_descending_cost_and_returns_input_order() {
        // Inline (inside a region) the queue order is the run order.
        let ran = Mutex::new(Vec::new());
        let out = sequential(|| {
            map_longest_first(
                vec![3u64, 9, 3, 1, 9],
                |&c| c,
                |c| {
                    ran.lock().unwrap().push(c);
                    c * 10
                },
            )
        });
        assert_eq!(out, vec![30, 90, 30, 10, 90]);
        assert_eq!(*ran.lock().unwrap(), vec![9, 9, 3, 3, 1]);
        // Ties keep input order.
        let out = sequential(|| {
            map_longest_first(vec![(1u64, 'a'), (1, 'b'), (2, 'c')], |&(c, _)| c, |(_, name)| name)
        });
        assert_eq!(out, vec!['a', 'b', 'c']);
        assert_eq!(map_longest_first(Vec::<u64>::new(), |&c| c, |c| c), Vec::<u64>::new());
    }

    #[test]
    fn two_jobs_run_at_the_same_time() {
        // Each job waits for the other: this returns only if both are in
        // flight at once, i.e. on two real threads.
        let barrier = Barrier::new(2);
        let ids = map_on(2, vec![(), ()], |()| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&thread::current().id()), "the caller works too");
    }

    #[test]
    fn nested_map_runs_inline_on_the_same_thread() {
        let barrier = Barrier::new(2);
        let out = map_on(2, vec![10, 20], |base| {
            barrier.wait();
            assert!(in_sequential_scope(), "a job runs inside the region flag");
            let outer = thread::current().id();
            map_on(2, vec![1, 2, 3], |x| {
                assert_eq!(thread::current().id(), outer, "a nested map must not fork");
                base + x
            })
        });
        assert_eq!(out, vec![vec![11, 12, 13], vec![21, 22, 23]]);
        assert!(!in_sequential_scope(), "the caller's region flag is cleared again");

        let me = thread::current().id();
        let inline = sequential(|| map_on(2, vec![1, 2], |x| (x, thread::current().id())));
        assert_eq!(inline, vec![(1, me), (2, me)]);
    }

    #[test]
    fn empty_and_single_item_inputs_spawn_nothing() {
        let me = thread::current().id();
        assert_eq!(map_on(4, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        let one = map_on(4, vec![5], |x| {
            assert!(!in_sequential_scope(), "a lone job leaves forking to what it calls");
            (x, thread::current().id())
        });
        assert_eq!(one, vec![(5, me)]);
    }

    /// Counts its drops, so a leaked result shows.
    struct Tracked<'a>(&'a AtomicUsize);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    #[should_panic(expected = "device 5 failed to train")]
    fn a_panicking_job_surfaces_its_own_message_and_leaks_nothing() {
        let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_on(2, (0..8).collect(), |i: usize| {
                if i == 5 {
                    panic!("device {i} failed to train");
                }
                made.fetch_add(1, Ordering::SeqCst);
                Tracked(&dropped)
            })
        }));
        let payload = caught.err().expect("the job's panic reaches the caller");
        assert!(made.load(Ordering::SeqCst) >= 1, "some other job finished");
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            made.load(Ordering::SeqCst),
            "the finished jobs' results are dropped"
        );
        std::panic::resume_unwind(payload);
    }
}
