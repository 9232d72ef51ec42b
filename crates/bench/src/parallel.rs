//! Deterministic parallel execution of independent work items.
//!
//! The harness fans per-circuit synthesis jobs (Tables 1/2/4, Figure 8)
//! and per-configuration brute-force batches (Table 3, the ablations)
//! across worker threads. Two rules keep every table byte-identical
//! regardless of `--jobs`:
//!
//! 1. **Index-keyed results.** Workers pull items from a shared counter
//!    (work stealing), but each result is placed by its item index, so the
//!    output order is that of the input list, never of the scheduler.
//! 2. **One RNG per work item.** Every item derives its own seed from the
//!    master seed via [`item_seed`]; no RNG is ever shared across items,
//!    so the streams are independent of how items land on threads.
//!
//! Built on `std::thread::scope` — the workspace builds offline, so no
//! external thread-pool crate is used.
//!
//! When tracing is enabled (`--profile` / `--trace-out`), the harness is
//! itself observable: every worker inherits the spawning thread's span
//! path via [`hwm_trace::thread_scope`], so spans recorded inside work
//! items aggregate on the same paths whether the item ran inline
//! (`--jobs 1`) or on a worker — the foundation of the "identical span
//! tree for every `--jobs`" guarantee. Scheduler overhead is reported as
//! gauges (`parallel_queue_wait_ns`, `parallel_peak_workers`), which are
//! scheduling-dependent and therefore excluded from the determinism
//! contract; the deterministic item/batch counts are counters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of worker threads to use when `--jobs` is absent: the machine's
/// available parallelism, or 1 when that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses the uniform `--jobs N` flag, falling back to [`default_jobs`].
/// `--jobs 0` is treated as "auto" (the default) rather than an error.
pub fn jobs_from_args() -> usize {
    crate::num_arg::<usize>("--jobs")
        .filter(|&n| n > 0)
        .unwrap_or_else(default_jobs)
}

/// Derives the seed of work item `index` from the experiment's master
/// seed. The golden-ratio multiply spreads consecutive indices across the
/// whole 64-bit space before `SeedableRng::seed_from_u64`'s own SplitMix
/// diffusion, so neighbouring items get decorrelated streams.
pub fn item_seed(master: u64, index: u64) -> u64 {
    master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Evaluates `f(0..count)` on up to `jobs` threads and returns the results
/// in index order. `f` must be pure up to its index (any randomness must
/// come from a per-index seed) — then the output is identical for every
/// `jobs` value, which is the harness's determinism guarantee.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    hwm_trace::counter("parallel_batches", 1);
    hwm_trace::counter("parallel_items", count as u64);
    if jobs <= 1 {
        return (0..count).map(f).collect();
    }
    let tracing = hwm_trace::enabled();
    let base = hwm_trace::current_path();
    let workers_used = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let shards: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    // Inherit the spawning thread's span path so per-item
                    // spans merge onto the same paths as a serial run.
                    let _trace = hwm_trace::thread_scope(&base);
                    let mut local = Vec::new();
                    let mut did_work = false;
                    // Per-item queue wait: time between finishing one item
                    // and starting the next (plus thread spin-up for the
                    // first), i.e. everything that is scheduler, not work.
                    let mut wait_ns = 0u64;
                    let mut idle_since = tracing.then(Instant::now);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        if let Some(t) = idle_since {
                            wait_ns += t.elapsed().as_nanos() as u64;
                        }
                        did_work = true;
                        local.push((i, f(i)));
                        idle_since = tracing.then(Instant::now);
                    }
                    if tracing {
                        if let Some(t) = idle_since {
                            wait_ns += t.elapsed().as_nanos() as u64;
                        }
                        hwm_trace::gauge_add("parallel_queue_wait_ns", wait_ns);
                    }
                    if did_work {
                        workers_used.fetch_add(1, Ordering::Relaxed);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    hwm_trace::gauge_max("parallel_peak_workers", workers_used.load(Ordering::Relaxed) as u64);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for shard in shards {
        for (i, value) in shard {
            debug_assert!(slots[i].is_none(), "item {i} computed twice");
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// [`run_indexed`] for fallible items. All items are evaluated; the
/// *lowest-indexed* error is returned, so the reported failure is also
/// independent of scheduling.
///
/// # Errors
///
/// Returns the first (by index) error any item produced.
pub fn try_run_indexed<T, E, F>(jobs: usize, count: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let results = run_indexed(jobs, count, f);
    let mut out = Vec::with_capacity(count);
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for jobs in [1, 2, 4, 7] {
            let v = run_indexed(jobs, 100, |i| i * i);
            assert_eq!(v, (0..100).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_exceeding_items_is_fine() {
        assert_eq!(run_indexed(16, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn seeded_work_is_jobs_invariant() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let work = |i: usize| {
            let mut rng = StdRng::seed_from_u64(item_seed(42, i as u64));
            (0..8).fold(0u64, |acc, _| acc.wrapping_add(rng.random::<u64>()))
        };
        let serial = run_indexed(1, 32, work);
        let parallel = run_indexed(6, 32, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn errors_pick_lowest_index() {
        let r: Result<Vec<usize>, usize> =
            try_run_indexed(4, 10, |i| if i % 3 == 2 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(2));
    }

    #[test]
    fn item_seeds_differ() {
        let a = item_seed(7, 0);
        let b = item_seed(7, 1);
        let c = item_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
