//! The deterministic parallel sweep engine.
//!
//! Design-space exploration sweeps (Figure 5's iteration × P grid,
//! Figure 7's N × NB grid) and fault-campaign trials evaluate many
//! independent points, each on its own co-simulator. [`parallel_map`]
//! spreads those points over scoped worker threads and returns results
//! **in input order**, so any text or table rendered from them is
//! byte-identical to a serial evaluation — the property the committed
//! `tables_output.txt` record and its CI gate rely on. No work items
//! are shared between threads; determinism follows from each point
//! being a pure function of its input plus the merge order being the
//! input order, independent of thread scheduling.
//!
//! Panics are isolated per item: a point whose evaluation panics does
//! not tear down its worker or discard the rest of the plan.
//! [`parallel_map`] finishes the whole sweep first and only then
//! re-raises the first panic, with the item's panic message.

use softsim_resilience::{panic_message, positive_int_from_env, EnvConfigError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Evaluates `f` over `items` on up to `workers` scoped threads and
/// returns the results in input order.
///
/// Items are dealt to workers in contiguous chunks; each worker writes
/// its results straight into the matching output slots, so the merge is
/// position-preserving by construction. `workers` is clamped to
/// `1..=items.len()`; with one worker (or one item) this degenerates to
/// a plain serial map on the calling thread.
///
/// # Panics
/// If `f` panics on any item, every *other* item still completes (each
/// evaluation is isolated with `catch_unwind`), and the first panic is
/// re-raised on the calling thread once the sweep has drained — not
/// mid-plan, and never as a worker-thread abort that silently drops the
/// remaining slice.
pub fn parallel_map<T, R>(items: Vec<T>, workers: usize, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let guarded = |item: T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let results: Vec<Result<R, String>> = if workers == 1 {
        items.into_iter().map(guarded).collect()
    } else {
        let chunk = n.div_ceil(workers);
        let mut out: Vec<Option<Result<R, String>>> =
            std::iter::repeat_with(|| None).take(n).collect();
        let mut items = items;
        std::thread::scope(|scope| {
            let guarded = &guarded;
            for slots in out.chunks_mut(chunk) {
                let chunk_items: Vec<T> = items.drain(..slots.len()).collect();
                scope.spawn(move || {
                    for (slot, item) in slots.iter_mut().zip(chunk_items) {
                        *slot = Some(guarded(item));
                    }
                });
            }
        });
        out.into_iter().map(|r| r.expect("worker filled every slot")).collect()
    };
    results
        .into_iter()
        .collect::<Result<Vec<R>, String>>()
        .unwrap_or_else(|msg| panic!("sweep item panicked: {msg}"))
}

/// The environment variable overriding the sweep worker count.
pub const SWEEP_WORKERS_ENV: &str = "SOFTSIM_SWEEP_WORKERS";

/// Reads [`SWEEP_WORKERS_ENV`] with
/// [`softsim_resilience::positive_int_from_env`]: `Ok(None)` when unset,
/// `Ok(Some(n))` for a positive integer, and a typed error for anything
/// else (including `0`). An unparseable worker count used to fall back
/// silently to the machine default, which turned a CI typo into a
/// wrong-but-green byte-diff.
pub fn sweep_workers_from_env() -> Result<Option<usize>, EnvConfigError> {
    Ok(positive_int_from_env(SWEEP_WORKERS_ENV)?.map(|n| n as usize))
}

/// Worker-thread count for the parallel runners: the machine's
/// available parallelism, capped so small CI runners are not
/// oversubscribed. The `SOFTSIM_SWEEP_WORKERS` environment variable
/// overrides it (CI sets it to 1 to produce the serial record it diffs
/// the parallel one against).
///
/// # Panics
/// Panics on a malformed override; entry points that want an orderly
/// exit validate [`sweep_workers_from_env`] eagerly instead.
pub fn default_workers() -> usize {
    match sweep_workers_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
        Err(e) => panic!("configuration error: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 5, 64] {
            let squares = parallel_map(items.clone(), workers, |x| x * x);
            assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_sweeps_work() {
        assert_eq!(parallel_map(Vec::<u32>::new(), 8, |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![9], 8, |x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_map_reraises_after_draining() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1, 3, 8] {
            let evaluated = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map((0..23u32).collect(), workers, |x| {
                    evaluated.fetch_add(1, Ordering::SeqCst);
                    assert!(x != 11, "poison item");
                    x
                })
            }));
            let payload = result.expect_err("the panic still propagates");
            let msg = panic_message(payload);
            assert!(msg.contains("poison item"), "panic message preserved: {msg}");
            assert_eq!(
                evaluated.load(Ordering::SeqCst),
                23,
                "every item was evaluated before the re-raise ({workers} workers)"
            );
        }
    }
}
