//! The workspace-wide parallel compute layer.
//!
//! Every hot path in the workspace — GEMM row blocks, `Conv1d` batches,
//! ROCKET's kernel transform, DTW distance matrices, the experiment
//! grid — funnels through this module instead of hand-rolling threads.
//! Design rules:
//!
//! * **Determinism.** Work is split into contiguous index ranges and
//!   every unit writes a disjoint output slice; there are no
//!   atomics-based reductions and no work stealing. Results are
//!   therefore bit-identical for *any* thread count, which the
//!   determinism tests in `tsda-classify`/`tsda-neuro` assert.
//! * **One knob.** The worker count resolves, in order: an explicit
//!   [`ThreadLimit::set`] override, the `TSDA_THREADS` environment
//!   variable, then [`std::thread::available_parallelism`]. The last
//!   two are read once per process.
//! * **No oversubscription.** A pool call made from inside another pool
//!   worker runs serially on that worker; nesting (e.g. the bench grid
//!   parallelising cells whose classifiers parallelise batches) can
//!   never multiply thread counts.
//! * **Serial on request.** [`serial`] runs a closure as pool work on
//!   the calling thread, so every pool call inside it runs there too and
//!   spawns nothing. For work smaller than a spawn: the serving layer's
//!   batch calls, where a batch of one or two requests takes 10–300 µs
//!   and the spawns of a two-chunk call about 45–120 µs (2 vCPUs,
//!   EXPERIMENTS.md).
//!
//! Threads are scoped ([`std::thread::scope`]), so borrowed data flows
//! in without `'static` bounds and panics propagate to the caller.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit global worker-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The default worker count — `TSDA_THREADS`, else available
/// parallelism — resolved once at first use: querying the OS re-reads
/// cgroup files, which costs tens of microseconds per pool call.
static DEFAULT_LIMIT: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// True on threads spawned by a [`Pool`] and inside [`serial`];
    /// nested calls go serial.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` on the calling thread as pool work: every pool call inside
/// it sees one worker and runs its chunks in order on this thread.
/// Outputs are those of any worker count (the determinism rule above).
///
/// ```
/// use tsda_core::parallel::{serial, Pool};
/// let squares = serial(|| Pool::with_threads(4).par_map_indexed(3, |i| i * i));
/// assert_eq!(squares, vec![0, 1, 4]);
/// assert_eq!(Pool::with_threads(4).threads(), 4);
/// ```
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the flag back as it was, also when `f` unwinds; a pool
    /// worker calling `serial` stays a worker.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_POOL_WORKER.with(|w| w.replace(true)));
    f()
}

/// The process-wide worker-count configuration.
///
/// ```
/// use tsda_core::parallel::ThreadLimit;
/// ThreadLimit::set(2);
/// assert_eq!(ThreadLimit::get(), 2);
/// ThreadLimit::clear();
/// ```
pub struct ThreadLimit;

impl ThreadLimit {
    /// Force the default worker count for all subsequent pool work
    /// (clamped to at least 1). Tests use this to pin thread counts.
    pub fn set(threads: usize) {
        OVERRIDE.store(threads.max(1), Ordering::SeqCst);
    }

    /// Remove an explicit override, falling back to `TSDA_THREADS` /
    /// available parallelism.
    pub fn clear() {
        OVERRIDE.store(0, Ordering::SeqCst);
    }

    /// The resolved default worker count.
    pub fn get() -> usize {
        let over = OVERRIDE.load(Ordering::SeqCst);
        if over != 0 {
            return over;
        }
        *DEFAULT_LIMIT.get_or_init(|| {
            std::env::var("TSDA_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        })
    }
}

/// A scoped worker pool with a fixed worker budget.
///
/// Pools are cheap value types — no threads live between calls; each
/// parallel method spawns scoped workers for its own duration.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// The shared pool: worker budget from [`ThreadLimit::get`].
    pub fn global() -> Pool {
        Pool { threads: 0 }
    }

    /// A pool with an explicit budget; `0` defers to the global limit.
    pub fn with_threads(threads: usize) -> Pool {
        Pool { threads }
    }

    /// The worker budget this pool would use right now (1 when called
    /// from inside another pool worker or inside [`serial`]).
    pub fn threads(&self) -> usize {
        if IN_POOL_WORKER.with(Cell::get) {
            return 1;
        }
        if self.threads != 0 {
            self.threads
        } else {
            ThreadLimit::get()
        }
    }

    /// Run `f(chunk_index, chunk)` over `data.chunks_mut(chunk_size)`,
    /// chunks distributed contiguously across workers.
    ///
    /// Chunk indices match a serial `chunks_mut` enumeration, so output
    /// is independent of the worker count.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = data.len().div_ceil(chunk_size);
        let workers = self.threads().min(n_chunks);
        if workers <= 1 {
            for (i, c) in data.chunks_mut(chunk_size).enumerate() {
                f(i, c);
            }
            return;
        }
        let stride = n_chunks.div_ceil(workers) * chunk_size;
        let f = &f;
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut first_chunk = 0usize;
            while !rest.is_empty() {
                let take = stride.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let start = first_chunk;
                first_chunk += head.len().div_ceil(chunk_size);
                scope.spawn(move || {
                    IN_POOL_WORKER.with(|w| w.set(true));
                    for (i, c) in head.chunks_mut(chunk_size).enumerate() {
                        f(start + i, c);
                    }
                });
            }
        });
    }

    /// Run `f(index, &mut item)` for every element, elements distributed
    /// contiguously across workers.
    pub fn par_for_each_indexed<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let workers = self.threads().max(1);
        let chunk = items.len().div_ceil(workers).max(1);
        self.par_chunks_mut(items, chunk, |chunk_idx, slice| {
            for (off, item) in slice.iter_mut().enumerate() {
                f(chunk_idx * chunk + off, item);
            }
        });
    }

    /// Collect `(0..n).map(f)` in index order, evaluated in parallel.
    pub fn par_map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.par_for_each_indexed(&mut slots, |i, slot| *slot = Some(f(i)));
        slots
            .into_iter()
            .map(|s| s.expect("pool worker filled every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_matches_serial_enumeration() {
        let mut serial: Vec<usize> = vec![0; 103];
        for (i, c) in serial.chunks_mut(10).enumerate() {
            for v in c.iter_mut() {
                *v = i;
            }
        }
        for threads in [1, 2, 5, 64] {
            let mut par = vec![0usize; 103];
            Pool::with_threads(threads).par_chunks_mut(&mut par, 10, |i, c| {
                for v in c.iter_mut() {
                    *v = i;
                }
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_for_each_sees_every_index_once() {
        let mut items = vec![0usize; 1001];
        Pool::with_threads(7).par_for_each_indexed(&mut items, |i, v| *v = i * 3);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn par_map_preserves_order() {
        let out = Pool::with_threads(4).par_map_indexed(57, |i| i * i);
        assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let mut empty: Vec<u8> = Vec::new();
        Pool::global().par_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks"));
        assert!(Pool::with_threads(8).par_map_indexed(0, |_| 0u8).is_empty());
        let one = Pool::with_threads(8).par_map_indexed(1, |i| i + 1);
        assert_eq!(one, vec![1]);
    }

    #[test]
    fn nested_calls_degrade_to_serial_without_deadlock() {
        let mut outer = vec![0usize; 16];
        Pool::with_threads(4).par_for_each_indexed(&mut outer, |i, v| {
            // Inside a worker the pool reports a single thread and the
            // nested call runs inline.
            assert_eq!(Pool::global().threads(), 1);
            let inner = Pool::with_threads(4).par_map_indexed(8, |j| j + i);
            *v = inner.iter().sum();
        });
        assert_eq!(outer[0], (0..8).sum::<usize>());
    }

    #[test]
    fn serial_runs_every_chunk_on_the_calling_thread() {
        let me = std::thread::current().id();
        let mut expected = vec![0usize; 60];
        for (i, c) in expected.chunks_mut(10).enumerate() {
            c.fill(i);
        }
        for threads in [2, 4, 64] {
            let pool = Pool::with_threads(threads);
            let ran_on = std::sync::Mutex::new(Vec::new());
            let mut out = vec![0usize; 60];
            let squares = serial(|| {
                assert_eq!(pool.threads(), 1);
                pool.par_chunks_mut(&mut out, 10, |i, c| {
                    c.fill(i);
                    ran_on.lock().unwrap().push(std::thread::current().id());
                });
                pool.par_map_indexed(57, |i| i * i)
            });
            assert_eq!(out, expected, "threads = {threads}");
            assert_eq!(ran_on.into_inner().unwrap(), vec![me; 6], "threads = {threads}");
            assert_eq!(squares, (0..57).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(pool.threads(), threads, "the flag is cleared on return");
        }
    }

    #[test]
    fn serial_puts_the_flag_back_after_a_panic_and_inside_a_worker() {
        let panicked = std::panic::catch_unwind(|| serial(|| panic!("batch call panics")));
        assert!(panicked.is_err());
        assert_eq!(Pool::with_threads(4).threads(), 4, "the unwind cleared the flag");
        let mut items = vec![0usize; 8];
        Pool::with_threads(4).par_for_each_indexed(&mut items, |i, v| {
            *v = serial(|| i + 1);
            assert_eq!(Pool::with_threads(4).threads(), 1, "a worker stays a worker");
        });
        assert_eq!(items, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn thread_limit_override_wins() {
        ThreadLimit::set(3);
        assert_eq!(ThreadLimit::get(), 3);
        assert_eq!(Pool::global().threads(), 3);
        assert_eq!(Pool::with_threads(2).threads(), 2);
        ThreadLimit::clear();
        assert!(ThreadLimit::get() >= 1);
    }
}
