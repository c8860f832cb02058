//! The parallel cell runner behind the figure panels.
//!
//! A panel is a list of independent simulated runs ("cells"), one per
//! (configuration, run kind, seed); each builds its own `World` and engine
//! and shares nothing with the others. [`run_cells`] runs them on every
//! available core and hands the results back in panel order, so a panel's
//! merge, and every byte it prints, is the same for any worker count. One
//! worker runs the same code path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One worker per available core.
pub(crate) fn workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `run` on every job on `workers` scoped threads, which pull jobs
/// from a shared next-job counter; returns the results in job order. A
/// panic in a worker is re-raised on the calling thread.
pub(crate) fn run_cells<J, R, F>(workers: usize, jobs: &[J], run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers.clamp(1, jobs.len().max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // `Relaxed`: the counter only hands out indices; jobs
                        // are shared before the spawn, results via `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            break done;
                        };
                        done.push((i, run(job)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        let jobs: Vec<usize> = (0..50).collect();
        let want: Vec<usize> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8] {
            // The first `workers` jobs meet at a barrier, so each worker
            // holds one of them and every worker's results interleave.
            let barrier = Barrier::new(workers);
            let got = run_cells(workers, &jobs, |&j| {
                if j < workers {
                    barrier.wait();
                }
                j * j
            });
            assert_eq!(got, want, "{workers} workers");
        }
        assert!(run_cells(4, &[] as &[u64], |j| *j).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell 7 failed")]
    fn a_worker_panic_reaches_the_caller() {
        let jobs: Vec<u64> = (0..16).collect();
        run_cells(2, &jobs, |&j| {
            assert!(j != 7, "cell {j} failed");
            j
        });
    }
}
