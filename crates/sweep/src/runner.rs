//! The sweep runner: jobs in, memoized ordered results out.
//!
//! A [`SweepRunner`] ties the three mechanisms together: it derives each
//! job's content address (fingerprint of the job plus an engine-version
//! tag plus a per-sweep scope label), answers what it can from the
//! [`ResultCache`], and fans the rest out over the ordered worker pool.
//! The returned `Vec` is always in submission order and bit-identical
//! whether `workers` is 1 or 100, cold cache or warm.

use crate::cache::ResultCache;
use crate::cancel::{interrupt_unwind, CancelSignal, Interrupted};
use crate::pool::{default_chunk_size, run_chunked_cancellable};
use crate::record::{Cacheable, Record};
use axcc_core::fingerprint::{Digest, Fingerprint, Fingerprinter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bump when an engine change (simulator semantics, metric definitions,
/// protocol dynamics) invalidates previously cached results. The
/// revision is mixed into every job digest, so old cache entries are
/// simply never addressed again.
pub const ENGINE_REVISION: u32 = 2;

/// Default engine tag: crate version + engine revision.
fn default_engine_tag() -> String {
    format!("axcc-{}+r{}", env!("CARGO_PKG_VERSION"), ENGINE_REVISION)
}

/// How an experiment evaluates its scenarios. There is one way: each
/// engine step folds straight into the axiom accumulators. The tag stays
/// in job fingerprints as a constant so every job keeps the content
/// address earlier builds gave it — warm stores stay warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Single-pass accumulator evaluation.
    #[default]
    Streaming,
}

impl Fingerprint for EvalMode {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("EvalMode");
        fp.write_u8(match self {
            EvalMode::Streaming => 0,
        });
    }
}

/// One unit of sweep work: a fingerprintable input (scenario + protocol
/// + metric budget) that evaluates to a cacheable scored result.
///
/// The fingerprint must cover *everything* `run` depends on; anything
/// left out becomes a stale-cache bug. Conversely `run` must be
/// deterministic — equal fingerprints are assumed to mean equal results.
pub trait SweepJob: Fingerprint + Sync {
    /// The scored result this job produces.
    type Output: Cacheable + Send;

    /// Evaluate the job. Must be deterministic and must not read
    /// ambient state (wall-clock, environment, global RNGs).
    fn run(&self) -> Self::Output;
}

/// Cumulative job statistics for one runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Jobs actually evaluated.
    pub executed: u64,
}

impl SweepStats {
    /// Total jobs submitted.
    pub fn jobs(&self) -> u64 {
        self.cache_hits + self.executed
    }

    /// Fraction of jobs answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs() > 0 {
            self.cache_hits as f64 / self.jobs() as f64
        } else {
            0.0
        }
    }
}

/// Callback invoked on the sweeping thread after a cancellation drains,
/// before the sweep unwinds (see [`SweepRunner::with_interrupt_hook`]).
pub type InterruptHook = Box<dyn Fn(&Interrupted) + Send + Sync>;

/// Orchestrates sweeps: content addressing + cache + ordered pool.
pub struct SweepRunner {
    workers: usize,
    cache: Option<Arc<ResultCache>>,
    engine_tag: String,
    cancel: Option<CancelSignal>,
    interrupt_hook: Option<InterruptHook>,
    chunk_size: Option<usize>,
    hits: AtomicU64,
    executed: AtomicU64,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("workers", &self.workers)
            .field("caching", &self.cache.is_some())
            .field("engine_tag", &self.engine_tag)
            .field("cancellable", &self.cancel.is_some())
            .finish()
    }
}

impl SweepRunner {
    fn with_cache_opt(workers: usize, cache: Option<Arc<ResultCache>>) -> Self {
        SweepRunner {
            workers: resolve_workers(workers),
            cache,
            engine_tag: default_engine_tag(),
            cancel: None,
            interrupt_hook: None,
            chunk_size: None,
            hits: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    /// Runner with `workers` threads and an in-memory cache.
    /// `workers == 0` selects the host's available parallelism.
    pub fn new(workers: usize) -> Self {
        Self::with_cache_opt(workers, Some(Arc::new(ResultCache::in_memory())))
    }

    /// The serial reference runner: one worker, in-memory cache. Parallel
    /// runners must reproduce its results bit for bit.
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// Runner whose cache persists under `dir`, in the sharded segment
    /// store of [`ResultCache::with_disk`].
    pub fn with_disk_cache(workers: usize, dir: PathBuf) -> Self {
        Self::with_cache_opt(workers, Some(Arc::new(ResultCache::with_disk(dir))))
    }

    /// Runner over an existing shared cache. This is how a long-running
    /// service gives every request its own runner (own cancellation
    /// signal, own statistics) while all requests share one
    /// content-addressed store.
    pub fn with_cache_handle(workers: usize, cache: Arc<ResultCache>) -> Self {
        Self::with_cache_opt(workers, Some(cache))
    }

    /// Runner with caching disabled entirely (`--no-cache`).
    pub fn without_cache(workers: usize) -> Self {
        Self::with_cache_opt(workers, None)
    }

    /// Override the engine tag (tests use this to prove that an
    /// engine-parameter change re-addresses every job).
    pub fn with_engine_tag(mut self, tag: &str) -> Self {
        self.engine_tag = tag.to_string();
        self
    }

    /// Attach a cancellation signal. The runner polls it before every job
    /// claim; when it is raised, in-flight jobs finish (and their results
    /// reach the cache), no further jobs start, and the sweep unwinds
    /// with an [`Interrupted`] payload — see [`crate::cancel`] for the
    /// contract and the sanctioned unwind boundaries.
    pub fn with_cancel(mut self, signal: CancelSignal) -> Self {
        self.cancel = Some(signal);
        self
    }

    /// Install a hook that runs (on the sweeping thread) after a
    /// cancellation drains but before the sweep unwinds. The CLI uses it
    /// to print a partial report and exit the process cleanly; a hook
    /// that returns lets the unwind proceed to a `catch_unwind` boundary.
    pub fn with_interrupt_hook(mut self, hook: InterruptHook) -> Self {
        self.interrupt_hook = Some(hook);
        self
    }

    /// Override the dispatch chunk size (`--chunk-size`). `0` restores
    /// the automatic choice, `max(1, jobs / (8·workers))` clamped — see
    /// [`default_chunk_size`]. The chunk size never affects results
    /// (that is the pool's ordering invariant), only how claim and flush
    /// traffic amortizes.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = if chunk == 0 { None } else { Some(chunk) };
        self
    }

    /// The shared cache handle, for wiring further runners to the same
    /// store (see [`with_cache_handle`](Self::with_cache_handle)).
    pub fn cache_handle(&self) -> Option<Arc<ResultCache>> {
        self.cache.clone()
    }

    /// Number of worker threads this runner fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether a result cache is attached.
    pub fn caching(&self) -> bool {
        self.cache.is_some()
    }

    /// Cumulative statistics since construction (or the last
    /// [`take_stats`](Self::take_stats)).
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
        }
    }

    /// Read and reset the statistics — lets a driver report per-phase
    /// numbers from one shared runner.
    pub fn take_stats(&self) -> SweepStats {
        SweepStats {
            cache_hits: self.hits.swap(0, Ordering::Relaxed),
            executed: self.executed.swap(0, Ordering::Relaxed),
        }
    }

    /// The content address the runner will use for `input` in `scope`.
    /// Exposed so tests can assert fingerprint sensitivity.
    pub fn job_digest<I: Fingerprint>(&self, scope: &str, input: &I) -> Digest {
        let mut fp = Fingerprinter::new();
        fp.write_str(&self.engine_tag);
        fp.write_str(scope);
        input.fingerprint(&mut fp);
        fp.finish()
    }

    /// Worker count actually used for a batch of `jobs` jobs. Two
    /// fallbacks, neither of which can affect results (that is the
    /// pool's ordering invariant):
    ///
    /// * the configured count is clamped to the host's available
    ///   parallelism — oversubscribing a smaller host buys nothing but
    ///   scheduling overhead (before the clamp, 4 workers measured a
    ///   0.95x total "speedup" on a 1-core container);
    /// * batches too small to amortize thread spawn + claim traffic run
    ///   inline on the calling thread (0.93–0.96x for table1/table2-sized
    ///   batches before this fallback).
    fn effective_workers(&self, jobs: usize) -> usize {
        let workers = self.workers.min(host_parallelism());
        if jobs < 2 * workers {
            1
        } else {
            workers
        }
    }

    /// Chunk size used for a sweep of `jobs` jobs over `workers` workers:
    /// the explicit override if one was set, otherwise the automatic
    /// choice.
    fn chunk_size_for(&self, jobs: usize, workers: usize) -> usize {
        self.chunk_size
            .unwrap_or_else(|| default_chunk_size(jobs, workers))
    }

    /// Run `eval` over every input, in parallel, answering repeated
    /// inputs from the cache. Results come back in input order and are
    /// bit-identical to a serial, uncached run.
    ///
    /// `scope` namespaces the digests (two experiments hashing the same
    /// tuple type must not share addresses unless they share semantics).
    pub fn sweep<I, T, F>(&self, scope: &str, inputs: &[I], eval: F) -> Vec<T>
    where
        I: Fingerprint + Sync,
        T: Cacheable + Send,
        F: Fn(&I) -> T + Sync,
    {
        let workers = self.effective_workers(inputs.len());
        let chunk = self.chunk_size_for(inputs.len(), workers);
        // Everything per-job lives inside the chunk processor, on the
        // worker: digests are fingerprinted off the submission thread,
        // cache writes and hit/executed counters batch up per chunk and
        // flush once.
        let outcome = run_chunked_cancellable(
            workers,
            inputs.len(),
            chunk,
            |range, out| {
                let mut writes: Vec<(Digest, Record)> = Vec::new();
                let mut hits = 0u64;
                let mut executed = 0u64;
                for idx in range {
                    if self.cancel.as_ref().is_some_and(CancelSignal::is_raised) {
                        break;
                    }
                    let input = &inputs[idx];
                    let digest = self.job_digest(scope, input);
                    if let Some(cache) = &self.cache {
                        if let Some(hit) = cache.get(&digest).and_then(|r| T::from_record(&r)) {
                            hits += 1;
                            out.push(hit);
                            continue;
                        }
                    }
                    let result = eval(input);
                    executed += 1;
                    if self.cache.is_some() {
                        writes.push((digest, result.to_record()));
                    }
                    out.push(result);
                }
                if let Some(cache) = &self.cache {
                    cache.put_batch(writes);
                }
                self.hits.fetch_add(hits, Ordering::Relaxed);
                self.executed.fetch_add(executed, Ordering::Relaxed);
            },
            self.cancel.as_ref(),
        );
        match outcome {
            Ok(results) => results,
            Err(completed) => {
                let info = Interrupted {
                    completed,
                    total: inputs.len(),
                };
                if let Some(hook) = &self.interrupt_hook {
                    hook(&info);
                }
                interrupt_unwind(info)
            }
        }
    }

    /// Evaluate one job on the calling thread, answering it from the
    /// cache when possible. This is the service fast path: a request that
    /// maps to a single evaluation needs content addressing and the
    /// shared store, not a worker fan-out, and `FnOnce` lets the caller
    /// move non-`Sync` state (e.g. a freshly resolved `Box<dyn Protocol>`)
    /// into the evaluation.
    pub fn run_cached<I, T, F>(&self, scope: &str, input: &I, eval: F) -> T
    where
        I: Fingerprint,
        T: Cacheable,
        F: FnOnce() -> T,
    {
        let digest = self.job_digest(scope, input);
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.get(&digest).and_then(|r| T::from_record(&r)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        let out = eval();
        self.executed.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            cache.put(digest, out.to_record());
        }
        out
    }

    /// Run a slice of self-contained [`SweepJob`]s.
    pub fn run_jobs<J: SweepJob>(&self, scope: &str, jobs: &[J]) -> Vec<J::Output> {
        self.sweep(scope, jobs, J::run)
    }
}

/// `0` means "ask the host"; anything else is taken literally.
fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        return workers;
    }
    host_parallelism()
}

/// The host's available parallelism (1 if the host won't say). Public so
/// benchmarks and capacity reports can record the hardware context a
/// speedup was measured under.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Square(f64);

    impl Fingerprint for Square {
        fn fingerprint(&self, fp: &mut Fingerprinter) {
            fp.write_str("Square");
            fp.write_f64(self.0);
        }
    }

    impl SweepJob for Square {
        type Output = f64;
        fn run(&self) -> f64 {
            self.0 * self.0
        }
    }

    #[test]
    fn run_jobs_returns_input_order() {
        let runner = SweepRunner::new(4);
        let jobs: Vec<Square> = (0..20).map(|i| Square(i as f64)).collect();
        let out = runner.run_jobs("square", &jobs);
        assert_eq!(out, (0..20).map(|i| (i * i) as f64).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_inputs_hit_the_cache() {
        let runner = SweepRunner::serial();
        let evals = AtomicUsize::new(0);
        let inputs = vec![1.0f64, 2.0, 1.0, 2.0, 1.0];
        let out = runner.sweep("double", &inputs, |&x| {
            evals.fetch_add(1, Ordering::Relaxed);
            x * 2.0
        });
        assert_eq!(out, vec![2.0, 4.0, 2.0, 4.0, 2.0]);
        assert_eq!(evals.load(Ordering::Relaxed), 2);
        let stats = runner.stats();
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn without_cache_always_evaluates() {
        let runner = SweepRunner::without_cache(1);
        let evals = AtomicUsize::new(0);
        let inputs = vec![1.0f64, 1.0, 1.0];
        runner.sweep("noop", &inputs, |&x| {
            evals.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(evals.load(Ordering::Relaxed), 3);
        assert_eq!(runner.stats().cache_hits, 0);
    }

    #[test]
    fn scope_and_engine_tag_separate_addresses() {
        let runner = SweepRunner::serial();
        let a = runner.job_digest("scope-a", &1.0f64);
        let b = runner.job_digest("scope-b", &1.0f64);
        assert_ne!(a, b);
        let retagged = SweepRunner::serial().with_engine_tag("axcc-0.1.0+r999");
        assert_ne!(retagged.job_digest("scope-a", &1.0f64), a);
    }

    #[test]
    fn take_stats_resets() {
        let runner = SweepRunner::serial();
        runner.sweep("x", &[1.0f64, 1.0], |&x| x);
        let first = runner.take_stats();
        assert_eq!(first.jobs(), 2);
        assert_eq!(runner.stats().jobs(), 0);
    }

    #[test]
    fn auto_workers_is_at_least_one() {
        assert!(SweepRunner::new(0).workers() >= 1);
    }

    #[test]
    fn tiny_batches_fall_back_to_serial() {
        let runner = SweepRunner::new(4);
        // The configured count is clamped to the host, so compute the
        // thresholds against what this machine can actually do.
        let w = 4.min(host_parallelism());
        // Fewer than 2×w jobs: run inline.
        assert_eq!(runner.effective_workers((2 * w).saturating_sub(1)), 1);
        // 2×w jobs or more: fan out to the clamped count.
        assert_eq!(runner.effective_workers(2 * w), w);
        // A serial runner is unaffected.
        assert_eq!(SweepRunner::serial().effective_workers(1000), 1);
        // …and the fallback never changes results.
        let jobs: Vec<Square> = (0..7).map(|i| Square(i as f64)).collect();
        assert_eq!(
            runner.run_jobs("square", &jobs),
            SweepRunner::serial().run_jobs("square", &jobs)
        );
    }

    #[test]
    fn chunk_size_override_never_changes_results() {
        let jobs: Vec<Square> = (0..40).map(|i| Square(i as f64)).collect();
        let reference = SweepRunner::serial().run_jobs("square", &jobs);
        // Chunk 1, a ragged chunk, and one chunk bigger than the sweep.
        for chunk in [1, 7, 1000] {
            let runner = SweepRunner::new(4).with_chunk_size(chunk);
            assert_eq!(runner.run_jobs("square", &jobs), reference, "chunk={chunk}");
        }
        // `0` restores the automatic choice.
        let auto = SweepRunner::new(4).with_chunk_size(3).with_chunk_size(0);
        assert_eq!(auto.run_jobs("square", &jobs), reference);
    }

    #[test]
    fn shared_cache_handle_is_shared_across_runners() {
        let a = SweepRunner::serial();
        let cache = a.cache_handle().unwrap();
        a.sweep("shared", &[1.0f64, 2.0], |&x| x * 3.0);
        let b = SweepRunner::with_cache_handle(1, cache);
        let evals = AtomicUsize::new(0);
        let out = b.sweep("shared", &[1.0f64, 2.0], |&x| {
            evals.fetch_add(1, Ordering::Relaxed);
            x * 3.0
        });
        assert_eq!(out, vec![3.0, 6.0]);
        assert_eq!(evals.load(Ordering::Relaxed), 0, "all answered from cache");
        assert_eq!(b.stats().cache_hits, 2);
    }

    #[test]
    fn run_cached_hits_like_sweep() {
        let runner = SweepRunner::serial();
        let first = runner.run_cached("single", &2.0f64, || 4.0);
        assert_eq!(first, 4.0);
        // Same address: answered from cache, eval not called.
        let second = runner.run_cached("single", &2.0f64, || -> f64 { unreachable!() });
        assert_eq!(second, 4.0);
        let stats = runner.stats();
        assert_eq!((stats.cache_hits, stats.executed), (1, 1));
        // And the sweep path shares the address space.
        let via_sweep = runner.sweep("single", &[2.0f64], |_| -> f64 { unreachable!() });
        assert_eq!(via_sweep, vec![4.0]);
    }

    #[test]
    fn cancelled_sweep_unwinds_with_typed_payload_after_hook() {
        use crate::cancel::interrupted_payload;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let flag = Arc::new(AtomicBool::new(false));
        let hook_ran = Arc::new(AtomicBool::new(false));
        let hook_flag = hook_ran.clone();
        let runner = SweepRunner::serial()
            .with_cancel(CancelSignal::from_flag(flag.clone()))
            .with_interrupt_hook(Box::new(move |info| {
                assert_eq!(info.total, 6);
                hook_flag.store(true, Ordering::SeqCst);
            }));
        let inputs = vec![0.0f64, 1.0, 2.0, 3.0, 4.0, 5.0];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.sweep("cancelme", &inputs, |&x| {
                if x == 1.0 {
                    flag.store(true, Ordering::SeqCst);
                }
                x * 10.0
            })
        }))
        .unwrap_err();
        let info = interrupted_payload(payload.as_ref()).expect("typed Interrupted payload");
        assert_eq!((info.completed, info.total), (2, 6));
        assert!(hook_ran.load(Ordering::SeqCst), "hook runs before unwind");
        // Completed jobs were written through to the cache: with the
        // signal lowered, the same runner re-executes only the remaining
        // four.
        flag.store(false, Ordering::SeqCst);
        let evals = AtomicUsize::new(0);
        let out = runner.sweep("cancelme", &inputs, |&x| {
            evals.fetch_add(1, Ordering::Relaxed);
            x * 10.0
        });
        assert_eq!(out, vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(evals.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn evaluation_tag_fingerprint_bytes_are_stable() {
        // Jobs write the tag into their digests; its bytes must never
        // change, or every stored result loses its address.
        let mut tagged = Fingerprinter::new();
        EvalMode::Streaming.fingerprint(&mut tagged);
        let mut expected = Fingerprinter::new();
        expected.write_str("EvalMode");
        expected.write_u8(0);
        assert_eq!(tagged.finish(), expected.finish());
    }
}
