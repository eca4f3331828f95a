//! The batched, multi-threaded, order-preserving map engine with
//! overlapped IO.
//!
//! [`MapEngine`] is the production driver around
//! [`SegramMapper`](crate::SegramMapper): it consumes a stream of reads,
//! groups them into fixed-size batches, fans the batches out to
//! `std::thread::scope` workers through a bounded work queue (so an
//! arbitrarily long input stream never piles up in memory), and emits
//! per-read outcomes to a sink **in input order**, whatever the worker
//! interleaving. Per-stage [`MapStats`] are aggregated across all workers.
//!
//! Mapping workers never touch IO. On the input side,
//! [`MapEngine::map_raw_stream`] accepts *undecoded* items plus a decode
//! function that runs in the worker stage (timed into
//! [`MapStats::decode`]), so the producer thread only slices raw record
//! boundaries (e.g. `segram_io::FastqFramer`). On the output side, the
//! reorder buffer never calls the sink under its lock: released batches
//! are handed — still strictly in input order — over a bounded channel to
//! a dedicated writer thread, the only thread that runs the sink. A shared
//! [`CancelToken`] in [`EngineConfig`] stops the producer *and* the
//! workers promptly when either end fails (sink write error, input stream
//! error) instead of mapping every queued batch first.
//!
//! Ordering guarantee: batches are numbered by the producer and the
//! reorder buffer releases them to the writer strictly sequentially, so
//! the output of `threads = N` is byte-identical to `threads = 1` for any
//! `N` (the mapper itself is deterministic). `ci.sh` enforces this end to
//! end, including through the overlapped framer+decode path.
//!
//! The engine is generic over [`ReadMapper`], so the same driver runs the
//! monolithic [`SegramMapper`] and the coordinate-range
//! [`ShardedIndex`](crate::ShardedIndex). Every worker pops from the one
//! shared queue and maps each read against the whole (possibly sharded)
//! index. Both bounded queues expose depth/wait counters ([`QueueStats`])
//! to locate the producer-vs-worker-vs-writer bottleneck.
//!
//! Failure model: the first panic anywhere in the pipeline (decode,
//! mapper, sink) is captured, the run is cancelled, and the original
//! payload is re-raised once from the calling thread — not buried under
//! the poisoned-lock panic cascade every other worker would otherwise die
//! with.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use segram_graph::DnaSeq;
use segram_sim::Strand;

use crate::mapper::{MapStats, Mapping, ReadMapper, SegramMapper};

/// A shared cooperative stop flag: cloning yields handles onto the same
/// flag, so the CLI (or any engine embedder) can hand one clone to the
/// engine via [`EngineConfig`] and keep another to pull when its sink or
/// input stream fails. Once cancelled, the engine's producer stops
/// consuming input and workers drop still-queued batches unmapped —
/// instead of faithfully mapping a stream whose output already failed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag on every clone of this token. Idempotent.
    ///
    /// Sequentially consistent so that anything stored before the cancel
    /// (e.g. the engine's decode-failure flag, or an embedder's error
    /// slot) is visible to every thread that observes the cancellation.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Tuning knobs of a [`MapEngine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker thread count (clamped to at least 1).
    pub threads: usize,
    /// Reads per work item; batching amortizes queue synchronization.
    pub batch_size: usize,
    /// Bounded work-queue capacity in batches (0 = `2 × threads`). Bounds
    /// how far the producer can run ahead of the workers, and doubles as
    /// the capacity of the ordered channel to the writer thread.
    pub queue_depth: usize,
    /// Map each read on both strands and keep the better mapping.
    pub both_strands: bool,
    /// Shared stop flag: cancel it (from the sink, the input stream, or
    /// anywhere else holding a clone) and the run winds down promptly.
    pub cancel: CancelToken,
    /// Adaptive batch sizing: when set, the producer observes the live
    /// queue imbalance at each refill and grows/shrinks the batch size
    /// within these bounds (see [`BatchBounds`]); `batch_size` is then
    /// only the starting point. `None` keeps batches fixed.
    pub adaptive_batch: Option<BatchBounds>,
}

/// Bounds for adaptive batch sizing ([`EngineConfig::adaptive_batch`]).
///
/// The producer doubles the batch when the workers look starved (empty
/// queue, or worker waits grew since the last refill) and halves it when
/// it is itself the backlog (full queue, or producer waits grew) — a
/// small batch keeps latency and reorder memory low, a large batch
/// amortizes queue synchronization when the producer is the bottleneck.
/// Output bytes are invariant to the trajectory: batch size only changes
/// where batch boundaries fall, and the reorder buffer restores input
/// order regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchBounds {
    /// Smallest batch the controller will shrink to (clamped to >= 1).
    pub min: usize,
    /// Largest batch the controller will grow to.
    pub max: usize,
}

impl EngineConfig {
    /// A configuration with `threads` workers and default batching.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Returns a copy with both-strand mapping enabled or disabled.
    pub fn both_strands(mut self, enabled: bool) -> Self {
        self.both_strands = enabled;
        self
    }

    /// Returns a copy sharing the given cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Every available core: the thread count a zero `threads` option means.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            batch_size: 16,
            queue_depth: 0,
            both_strands: false,
            cancel: CancelToken::new(),
            adaptive_batch: None,
        }
    }
}

/// The one builder for engine tuning knobs, shared by both engines in
/// the workspace: the single-stream [`MapEngine`] (via its
/// [`EngineConfig`]) and the serve-mode [`MultiEngine`](super::MultiEngine)
/// both accept it. Knobs an engine does not have are ignored:
/// `max_queued` by [`MapEngine`] (admission is a multi-request concept),
/// and `batch_size`, `cancel` and `adaptive_batch` by the multi-request
/// engine (the daemon batches on the wire and cancels per request).
///
/// # Examples
///
/// ```
/// use segram_core::{EngineConfig, EngineOptions};
///
/// let options = EngineOptions::new().threads(4).queue_depth(8).both_strands(true);
/// let single: EngineConfig = options.into();
/// assert_eq!(single.threads, 4);
/// assert_eq!(single.queue_depth, 8);
/// assert!(single.both_strands);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    pub(crate) threads: usize,
    batch_size: usize,
    pub(crate) queue_depth: usize,
    pub(crate) max_queued: usize,
    pub(crate) both_strands: bool,
    cancel: CancelToken,
    adaptive_batch: Option<BatchBounds>,
}

impl EngineOptions {
    /// Default options: all available cores, default batching, derived
    /// queue depths (each engine derives its own zero-value defaults).
    pub fn new() -> Self {
        Self {
            threads: 0,
            batch_size: 0,
            queue_depth: 0,
            max_queued: 0,
            both_strands: false,
            cancel: CancelToken::new(),
            adaptive_batch: None,
        }
    }

    /// Worker thread count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Reads per work item (0 = the engine default; multi-request engines
    /// batch on the wire and ignore this).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Bounded input-queue capacity in batches (0 = `2 × threads`;
    /// per-request for the multi-request engine).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Multi-request admission limit in total queued batches
    /// (0 = `4 ×` queue depth; single-stream engines ignore this).
    pub fn max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Map each read on both strands and keep the better mapping.
    pub fn both_strands(mut self, enabled: bool) -> Self {
        self.both_strands = enabled;
        self
    }

    /// Shared stop flag for single-stream engines (the multi-request
    /// engine is per-request-cancelled and ignores this).
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enables adaptive batch sizing within `[min, max]` ([`MapEngine`]
    /// only; the multi-request engine ignores it — see
    /// [`EngineConfig::adaptive_batch`]).
    pub fn adaptive_batch(mut self, min: usize, max: usize) -> Self {
        self.adaptive_batch = Some(BatchBounds { min, max });
        self
    }
}

impl From<EngineOptions> for EngineConfig {
    fn from(options: EngineOptions) -> Self {
        let defaults = EngineConfig::default();
        Self {
            threads: if options.threads == 0 {
                defaults.threads
            } else {
                options.threads
            },
            batch_size: if options.batch_size == 0 {
                defaults.batch_size
            } else {
                options.batch_size
            },
            queue_depth: options.queue_depth,
            both_strands: options.both_strands,
            cancel: options.cancel,
            adaptive_batch: options.adaptive_batch,
        }
    }
}

/// Poison-tolerant lock: a panicking thread is already captured by the
/// engine's first-failure slot, so other threads keep the lock usable
/// instead of dying on the poison flag (the cascade this replaces).
/// Crate-visible because the multi-request engine shares the failure
/// model.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The first panic payload captured from any pipeline stage; later
/// failures (usually knock-on effects of the first) are dropped.
#[derive(Default)]
struct FirstFailure {
    slot: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl FirstFailure {
    fn record(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = relock(&self.slot);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take(&self) -> Option<Box<dyn Any + Send + 'static>> {
        relock(&self.slot).take()
    }
}

/// The engine's per-read result: the mapping (if any), the strand it was
/// found on, and this read's per-stage statistics (the inputs SAM/GAF
/// rendering needs, e.g. for MAPQ estimation).
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The winning mapping, if the read mapped.
    pub mapping: Option<Mapping>,
    /// Strand the mapping was found on ([`Strand::Forward`] unless
    /// [`EngineConfig::both_strands`] found a better reverse mapping).
    pub strand: Strand,
    /// This read's pipeline statistics.
    pub stats: MapStats,
}

/// Aggregate of one engine run.
#[derive(Clone, Copy, Debug)]
pub struct EngineReport {
    /// The backend that produced this run
    /// ([`ReadMapper::backend_name`]), so reports and artifacts always
    /// name the mapper behind the numbers.
    pub backend: &'static str,
    /// Reads consumed from the input stream.
    pub reads: usize,
    /// Reads that produced a mapping.
    pub mapped: usize,
    /// Batches the workers actually mapped — counted at worker
    /// completion, not at producer enqueue, so a cancelled run reports
    /// the work that happened rather than the work that was queued.
    pub batches: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Per-stage statistics summed over every read and worker.
    pub stats: MapStats,
    /// Work-queue depth and wait counters for this run.
    pub queue: QueueStats,
    /// The batch-size trajectory the producer actually used (fixed runs
    /// record their one size; adaptive runs record the bounds explored).
    pub batching: BatchTrajectory,
}

impl Default for EngineReport {
    fn default() -> Self {
        Self {
            backend: "segram",
            reads: 0,
            mapped: 0,
            batches: 0,
            threads: 0,
            stats: MapStats::default(),
            queue: QueueStats::default(),
            batching: BatchTrajectory::default(),
        }
    }
}

/// The batch sizes an engine run actually used
/// ([`EngineReport::batching`]): with adaptive sizing enabled the
/// producer's grow/shrink decisions are surfaced here, so reports can
/// show where within `[min, max]` the controller settled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTrajectory {
    /// Whether adaptive sizing was enabled for the run.
    pub adaptive: bool,
    /// Batch size of the first batch.
    pub initial: usize,
    /// Batch size in effect when the stream ended.
    pub last: usize,
    /// Smallest batch size used.
    pub min_used: usize,
    /// Largest batch size used.
    pub max_used: usize,
    /// Times the controller doubled the batch (worker starvation).
    pub grows: u64,
    /// Times the controller halved the batch (producer backlog).
    pub shrinks: u64,
}

/// Depth/wait counters of the engine's two bounded queues — the
/// backpressure observability that locates the bottleneck at high thread
/// counts: the producer side (input queue, producer vs workers) and the
/// writer side (ordered output channel, workers vs the writer thread),
/// each with symmetric push/pop accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// High-water mark of queued input batches.
    pub max_depth: usize,
    /// Times the producer blocked on a full input queue.
    pub producer_waits: u64,
    /// Total time the producer spent blocked on a full input queue.
    pub producer_wait: Duration,
    /// Times a worker blocked on an empty input queue (excluding the
    /// final end-of-stream drain).
    pub worker_waits: u64,
    /// Total time workers spent blocked on an empty input queue.
    pub worker_wait: Duration,
    /// High-water mark of released batches queued to the writer thread.
    pub output_max_depth: usize,
    /// Times a worker blocked handing a released batch to the full
    /// output channel (the writer is the bottleneck).
    pub output_stall_waits: u64,
    /// Total time workers spent blocked on the full output channel.
    pub output_stall_wait: Duration,
    /// Times the writer thread blocked on an empty output channel
    /// (mapping is the bottleneck; excludes the end-of-stream drain).
    pub writer_waits: u64,
    /// Total time the writer thread spent blocked on an empty channel.
    pub writer_wait: Duration,
    /// Times a worker genuinely parked on a full reorder buffer (ran too
    /// far ahead of a slow batch). One parked period counts once, however
    /// many 50 ms cancellation-poll wakeups it spans — so the counter
    /// stays an honest backpressure signal for admission control.
    pub park_waits: u64,
    /// Total time workers spent parked on a full reorder buffer.
    pub park_wait: Duration,
}

/// A bounded single-producer / multi-consumer batch queue (Mutex +
/// Condvar; no external dependencies). `push` blocks while the queue is
/// full, `pop` blocks while it is empty, and `close` wakes everyone so
/// drained workers observe end-of-stream. The engine runs one as its
/// input queue and one as its ordered channel to the writer thread, and
/// the CLI's split SAM+GAF emission runs one per output file as a bounded
/// writer channel (hence public).
pub struct WorkQueue<T> {
    // Missing-Debug note: Debug is implemented manually below (the
    // items themselves need no Debug bound).
    inner: Mutex<WorkQueueInner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    // Wait accounting lives outside the mutex so blocked-time bookkeeping
    // never extends the critical section.
    producer_waits: AtomicU64,
    producer_wait_ns: AtomicU64,
    worker_waits: AtomicU64,
    worker_wait_ns: AtomicU64,
}

impl<T> std::fmt::Debug for WorkQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkQueue")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

struct WorkQueueInner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
    /// High-water mark of `items.len()`.
    max_depth: usize,
}

impl<T> WorkQueue<T> {
    /// A queue holding at most `capacity` items (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(WorkQueueInner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            producer_waits: AtomicU64::new(0),
            producer_wait_ns: AtomicU64::new(0),
            worker_waits: AtomicU64::new(0),
            worker_wait_ns: AtomicU64::new(0),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Pushing onto a
    /// closed queue silently drops the item — the consumer has already
    /// decided the stream is over.
    pub fn push(&self, item: T) {
        let mut inner = relock(&self.inner);
        if inner.items.len() >= inner.capacity && !inner.closed {
            let blocked = Instant::now();
            while inner.items.len() >= inner.capacity && !inner.closed {
                inner = self
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.producer_waits.fetch_add(1, Ordering::Relaxed);
            self.producer_wait_ns
                .fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if inner.closed {
            return;
        }
        inner.items.push_back(item);
        inner.max_depth = inner.max_depth.max(inner.items.len());
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Dequeues the next item, blocking while the queue is empty;
    /// `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = relock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            // One blocked period counts as one wait, however many
            // (possibly spurious) wakeups it takes — mirroring the
            // producer-side accounting so the two columns compare.
            // End-of-stream wakeups (close with no work) are not
            // starvation and are not counted.
            let blocked = Instant::now();
            while inner.items.is_empty() && !inner.closed {
                inner = self
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if !inner.items.is_empty() {
                self.worker_waits.fetch_add(1, Ordering::Relaxed);
                self.worker_wait_ns
                    .fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Current queued-item count — the live depth signal the adaptive
    /// batch controller reads at each refill.
    pub fn len(&self) -> usize {
        relock(&self.inner).items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the queue's depth/wait counters (push side reported as
    /// `producer_*`, pop side as `worker_*`; callers remap for the output
    /// channel).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            max_depth: relock(&self.inner).max_depth,
            producer_waits: self.producer_waits.load(Ordering::Relaxed),
            producer_wait: Duration::from_nanos(self.producer_wait_ns.load(Ordering::Relaxed)),
            worker_waits: self.worker_waits.load(Ordering::Relaxed),
            worker_wait: Duration::from_nanos(self.worker_wait_ns.load(Ordering::Relaxed)),
            ..QueueStats::default()
        }
    }

    /// Closes the queue: wakes every blocked producer and consumer so
    /// they observe end-of-stream. Idempotent.
    pub fn close(&self) {
        // Closing must succeed even after a worker panicked while holding
        // the lock — liveness beats the poison flag here (relock).
        relock(&self.inner).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue when dropped — including during a panic unwind. Both
/// the producer and every worker hold one, so a panic anywhere (input
/// iterator, sink, pipeline) releases the threads blocked on the queue
/// and lets `std::thread::scope` propagate the panic instead of
/// deadlocking.
struct CloseOnDrop<'a, T>(&'a WorkQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The in-order release side: completed batches park in `pending` until
/// every earlier batch has been handed — still in input order — to the
/// bounded channel feeding the writer thread. The lock covers only this
/// bookkeeping; rendering and IO happen on the writer thread, outside it.
struct Reorder<T> {
    next: usize,
    pending: BTreeMap<usize, Vec<(T, ReadOutcome)>>,
    report: EngineReport,
}

/// The result of decoding one raw input unit in the worker stage, for
/// [`MapEngine::map_block_stream`]: a raw unit may decode to *several*
/// reads (a BGZF block inflates to a span of FASTQ records) or to none
/// (a block whose bytes all belong to records completed by neighbouring
/// blocks). `inflate` is the decompression share of the decode time,
/// reported separately in [`MapStats::inflate`].
#[derive(Clone, Debug)]
pub struct DecodedBlock<T> {
    /// The decoded items, in input order.
    pub items: Vec<T>,
    /// Time spent decompressing (zero for uncompressed paths).
    pub inflate: Duration,
}

impl<T> DecodedBlock<T> {
    /// A single-item block with no decompression share — what a plain
    /// one-record decode returns.
    pub fn one(item: T) -> Self {
        Self {
            items: vec![item],
            inflate: Duration::ZERO,
        }
    }
}

/// The batched, multi-threaded, order-preserving mapping engine, generic
/// over the [`ReadMapper`] it drives (the monolithic [`SegramMapper`] or
/// the coordinate-range [`ShardedIndex`](crate::ShardedIndex)).
///
/// # Examples
///
/// ```
/// use segram_core::{EngineConfig, MapEngine, SegramConfig, SegramMapper};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
/// let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2));
/// let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// let (outcomes, report) = engine.map_batch(&reads);
/// assert_eq!(outcomes.len(), reads.len());
/// assert_eq!(report.reads, reads.len());
/// assert!(report.mapped > 0);
/// ```
#[derive(Debug)]
pub struct MapEngine<'m, M: ReadMapper = SegramMapper> {
    mapper: &'m M,
    config: EngineConfig,
}

impl<'m, M: ReadMapper> MapEngine<'m, M> {
    /// Binds the engine to a mapper. Accepts an [`EngineConfig`] or the
    /// shared [`EngineOptions`] builder.
    pub fn new(mapper: &'m M, config: impl Into<EngineConfig>) -> Self {
        Self {
            mapper,
            config: config.into(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Maps one read according to the engine's strand policy.
    fn map_one(&self, read: &DnaSeq) -> ReadOutcome {
        if self.config.both_strands {
            let (best, stats) = self.mapper.map_read_both(read);
            let (mapping, strand) = match best {
                Some((mapping, strand)) => (Some(mapping), strand),
                None => (None, Strand::Forward),
            };
            ReadOutcome {
                mapping,
                strand,
                stats,
            }
        } else {
            let (mapping, stats) = self.mapper.map_read(read);
            ReadOutcome {
                mapping,
                strand: Strand::Forward,
                stats,
            }
        }
    }

    /// Streams `reads` through the engine, calling `sink(item, outcome)`
    /// once per read **in input order** — already-decoded items, the
    /// trivial-decode special case of [`map_raw_stream`](Self::map_raw_stream).
    pub fn map_stream<T, R, F>(
        &self,
        reads: impl Iterator<Item = T>,
        read_of: R,
        sink: F,
    ) -> EngineReport
    where
        T: Send,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        self.map_raw_stream(reads, Some, read_of, sink)
    }

    /// Streams *undecoded* items through the engine: `decode` runs in the
    /// worker stage ahead of seeding (timed into [`MapStats::decode`]),
    /// and `sink(item, outcome)` is called once per read **in input
    /// order** on a dedicated writer thread — the only thread that ever
    /// runs the sink — so neither input parsing nor output rendering/IO
    /// blocks a mapping worker.
    ///
    /// `raw` is consumed incrementally on the calling thread (the
    /// producer), which ideally only slices record boundaries (e.g.
    /// `segram_io::FastqFramer`). `read_of` projects the sequence out of
    /// the decoded item. A worker that runs too far ahead of a slow batch
    /// parks until the reorder buffer drains, and released batches flow
    /// through a bounded channel to the writer, so at most
    /// `3 × queue_depth + 2 × threads` batches exist at any moment —
    /// memory stays bounded for arbitrarily long streams.
    ///
    /// Cancellation: when [`EngineConfig::cancel`] is cancelled — by the
    /// sink, the input iterator, anyone holding a clone — the producer
    /// stops consuming `raw` and workers drop still-queued batches
    /// unmapped. `decode` returning `None` cancels the run the same way
    /// (the decoder is expected to have recorded its error out of band).
    /// [`EngineReport::batches`] counts batches that were actually
    /// mapped, so a cancelled run's report stays truthful.
    ///
    /// # Panics
    ///
    /// If decode, the mapper, or the sink panics, the run is cancelled
    /// and the **first** panic payload is re-raised from this call once
    /// every thread has wound down.
    pub fn map_raw_stream<Q, T, D, R, F>(
        &self,
        raw: impl Iterator<Item = Q>,
        decode: D,
        read_of: R,
        sink: F,
    ) -> EngineReport
    where
        Q: Send,
        T: Send,
        D: Fn(Q) -> Option<T> + Sync,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        self.map_block_stream(
            raw,
            move |q| decode(q).map(DecodedBlock::one),
            read_of,
            sink,
        )
    }

    /// The many-reads-per-raw-unit generalization of
    /// [`map_raw_stream`](Self::map_raw_stream): `decode` turns one raw
    /// unit into a [`DecodedBlock`] of zero or more reads. This is the
    /// compressed input path — the producer slices still-compressed BGZF
    /// blocks, and workers inflate + splice + FASTQ-decode them here (the
    /// decompression share is timed into [`MapStats::inflate`], the rest
    /// into [`MapStats::decode`]). A block completing no record is legal;
    /// its decode time is carried onto the next decoded read of the same
    /// batch.
    ///
    /// Ordering, cancellation, settle-on-decode-failure and panic
    /// semantics are exactly those of `map_raw_stream` (this is the one
    /// implementation; `map_raw_stream` wraps every item in a singleton
    /// block). With [`EngineConfig::adaptive_batch`] set, the producer
    /// additionally retunes its batch size at each refill from the live
    /// queue imbalance; the trajectory lands in
    /// [`EngineReport::batching`].
    pub fn map_block_stream<Q, T, D, R, F>(
        &self,
        mut raw: impl Iterator<Item = Q>,
        decode: D,
        read_of: R,
        sink: F,
    ) -> EngineReport
    where
        Q: Send,
        T: Send,
        D: Fn(Q) -> Option<DecodedBlock<T>> + Sync,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        let threads = self.config.threads.max(1);
        let batch_size = self.config.batch_size.max(1);
        let queue_depth = if self.config.queue_depth == 0 {
            threads * 2
        } else {
            self.config.queue_depth
        };
        let cancel = &self.config.cancel;
        let queue: WorkQueue<(usize, Vec<Q>)> = WorkQueue::new(queue_depth);
        // The ordered handoff to the writer thread: released batches enter
        // in input order (pushes happen under the reorder lock) and the
        // bound makes a slow sink back-pressure the workers.
        let out_queue: WorkQueue<Vec<(T, ReadOutcome)>> = WorkQueue::new(queue_depth);
        // The reorder buffer is bounded too: a worker whose finished batch
        // is further than this ahead of the next-to-release batch parks
        // until the slow batch releases, so one pathological read cannot
        // make `pending` absorb the rest of the stream.
        let max_ahead = queue_depth + threads;
        let reorder: Mutex<Reorder<T>> = Mutex::new(Reorder {
            next: 0,
            pending: BTreeMap::new(),
            report: EngineReport::default(),
        });
        let released = Condvar::new();
        let failure = FirstFailure::default();
        let mapped_batches = AtomicUsize::new(0);
        // Raised (before `cancel`, which is SeqCst) when a decode failure
        // stopped the run. Workers that observe the cancellation then
        // *settle* still-queued batches decode-only instead of dropping
        // them blind, so the decoder's error recording deterministically
        // covers every record up to and including the file's first
        // malformed one — whatever the worker interleaving.
        let decode_failed = AtomicBool::new(false);
        // Reorder-park accounting (one count per genuine parked period;
        // see `QueueStats::park_waits`).
        let park_waits = AtomicU64::new(0);
        let park_wait_ns = AtomicU64::new(0);
        let decode = &decode;
        let read_of = &read_of;
        let mut produced = 0usize;
        let mut trajectory = BatchTrajectory::default();

        std::thread::scope(|scope| {
            // The writer: drains ordered batches and runs the sink. A sink
            // panic is captured as the run's failure, the run is
            // cancelled, and both queues close so no thread stays blocked.
            let writer_handle = {
                let out_queue = &out_queue;
                let queue = &queue;
                let failure = &failure;
                let released = &released;
                let mut sink = sink;
                scope.spawn(move || {
                    while let Some(batch) = out_queue.pop() {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            for (item, outcome) in batch {
                                sink(item, outcome);
                            }
                        }));
                        if let Err(payload) = result {
                            failure.record(payload);
                            cancel.cancel();
                            out_queue.close();
                            queue.close();
                            // Wake workers parked on the reorder buffer so
                            // they observe the cancellation now instead of
                            // at the next 50 ms poll.
                            released.notify_all();
                            break;
                        }
                    }
                })
            };

            let worker_handles: Vec<_> = (0..threads)
                .map(|_worker| {
                    let queue = &queue;
                    let out_queue = &out_queue;
                    let reorder = &reorder;
                    let released = &released;
                    let failure = &failure;
                    let mapped_batches = &mapped_batches;
                    let decode_failed = &decode_failed;
                    let park_waits = &park_waits;
                    let park_wait_ns = &park_wait_ns;
                    scope.spawn(move || {
                        // Unblocks the producer and fellow workers if this
                        // worker dies in a way `catch_unwind` cannot see.
                        // Note: no such guard on `out_queue` — the first
                        // worker to finish must not close the channel
                        // under peers that are still releasing batches;
                        // the producer closes it after joining every
                        // worker (and the explicit failure path closes it
                        // eagerly).
                        let _close_guard = CloseOnDrop(queue);
                        while let Some((index, raws)) = queue.pop() {
                            if cancel.is_cancelled() {
                                // Drain path: the producer is already
                                // stopping and queued batches are not
                                // mapped. If the stop was a decode
                                // failure, settle the batch decode-only —
                                // the decoder records errors out of band,
                                // and the producer pushed batches in file
                                // order, so settling every queued batch
                                // guarantees the earliest recorded error
                                // is the file's *first* malformed record.
                                if decode_failed.load(Ordering::SeqCst) {
                                    let result = catch_unwind(AssertUnwindSafe(|| {
                                        for raw in raws {
                                            let _ = decode(raw);
                                        }
                                    }));
                                    if let Err(payload) = result {
                                        failure.record(payload);
                                    }
                                }
                                continue;
                            }
                            // `true` = batch released; `false` = run
                            // cancelled mid-batch (batch abandoned).
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                // Decode + map: the parallel stage.
                                let mut outcomes: Vec<(T, ReadOutcome)> =
                                    Vec::with_capacity(raws.len());
                                let mut settling = false;
                                // Transport time of raw units that
                                // completed no record, carried onto the
                                // batch's next decoded read so the sums
                                // stay truthful.
                                let mut carry_decode = Duration::ZERO;
                                let mut carry_inflate = Duration::ZERO;
                                for raw in raws {
                                    if !settling && cancel.is_cancelled() {
                                        if decode_failed.load(Ordering::SeqCst) {
                                            // Another worker hit a decode
                                            // failure: finish this batch
                                            // decode-only (see the drain
                                            // path above) so error
                                            // reporting stays
                                            // deterministic.
                                            settling = true;
                                        } else {
                                            return false;
                                        }
                                    }
                                    if settling {
                                        let _ = decode(raw);
                                        continue;
                                    }
                                    let started = Instant::now();
                                    let Some(decoded) = decode(raw) else {
                                        // The decoder records its own
                                        // error; stopping the run is the
                                        // engine's job. Everything after
                                        // this record is later in the
                                        // file, so nothing here needs
                                        // settling.
                                        decode_failed.store(true, Ordering::SeqCst);
                                        cancel.cancel();
                                        return false;
                                    };
                                    let inflate_time = decoded.inflate;
                                    let decode_time =
                                        started.elapsed().saturating_sub(inflate_time);
                                    if decoded.items.is_empty() {
                                        carry_decode += decode_time;
                                        carry_inflate += inflate_time;
                                        continue;
                                    }
                                    let mut first = true;
                                    for item in decoded.items {
                                        // A raw unit may hold many reads;
                                        // keep cancellation latency at
                                        // read, not block, granularity
                                        // (decode-failure settling is
                                        // handled at the next raw).
                                        if cancel.is_cancelled()
                                            && !decode_failed.load(Ordering::SeqCst)
                                        {
                                            return false;
                                        }
                                        let mut outcome = self.map_one(read_of(&item));
                                        if first {
                                            outcome.stats.decode = decode_time + carry_decode;
                                            outcome.stats.inflate = inflate_time + carry_inflate;
                                            carry_decode = Duration::ZERO;
                                            carry_inflate = Duration::ZERO;
                                            first = false;
                                        }
                                        outcomes.push((item, outcome));
                                    }
                                }
                                if settling {
                                    return false;
                                }
                                mapped_batches.fetch_add(1, Ordering::Relaxed);
                                // Reorder bookkeeping: the lock covers map
                                // insertion and release accounting only —
                                // rendering and IO happen on the writer
                                // thread, outside any engine lock.
                                let mut guard = relock(reorder);
                                // Backpressure: the worker owning batch
                                // `next` is never parked here, so release
                                // always advances. The wait is timed out
                                // as a safety net so a cancellation path
                                // without a handle on this condvar cannot
                                // strand a parked worker — but one parked
                                // period is *one* stall, however many
                                // timeout wakeups it spans: admission
                                // control reads these counters, and
                                // counting poll wakeups would inflate
                                // them ~20×/s per parked worker.
                                if index >= guard.next + max_ahead {
                                    let blocked = Instant::now();
                                    let mut parked = false;
                                    let record = |since: Instant| {
                                        park_waits.fetch_add(1, Ordering::Relaxed);
                                        park_wait_ns.fetch_add(
                                            since.elapsed().as_nanos() as u64,
                                            Ordering::Relaxed,
                                        );
                                    };
                                    while index >= guard.next + max_ahead {
                                        if cancel.is_cancelled() {
                                            if parked {
                                                record(blocked);
                                            }
                                            return false;
                                        }
                                        parked = true;
                                        guard = released
                                            .wait_timeout(guard, Duration::from_millis(50))
                                            .unwrap_or_else(PoisonError::into_inner)
                                            .0;
                                    }
                                    record(blocked);
                                }
                                let state = &mut *guard;
                                state.pending.insert(index, outcomes);
                                // Release every batch now contiguous with
                                // the released prefix, in order. Pushing
                                // under the lock keeps the channel order
                                // identical to release order; a full
                                // channel blocks here, which is exactly
                                // the backpressure a lagging writer must
                                // exert on the workers.
                                let mut advanced = false;
                                while let Some(ready) = state.pending.remove(&state.next) {
                                    state.next += 1;
                                    advanced = true;
                                    for (_, outcome) in &ready {
                                        state.report.reads += 1;
                                        if outcome.mapping.is_some() {
                                            state.report.mapped += 1;
                                        }
                                        state.report.stats.merge(&outcome.stats);
                                    }
                                    out_queue.push(ready);
                                }
                                drop(guard);
                                if advanced {
                                    released.notify_all();
                                }
                                true
                            }));
                            match result {
                                Ok(true) => {}
                                // Cancelled mid-batch: keep draining the
                                // queue so the producer never blocks.
                                Ok(false) => continue,
                                Err(payload) => {
                                    // First failure wins; wind everyone
                                    // down and let the calling thread
                                    // re-raise it once.
                                    failure.record(payload);
                                    cancel.cancel();
                                    queue.close();
                                    out_queue.close();
                                    released.notify_all();
                                    break;
                                }
                            }
                        }
                    })
                })
                .collect();

            // The calling thread is the producer: it only slices the raw
            // stream into batches — decode belongs to the workers. The
            // guards also close both queues if the input iterator panics,
            // so no thread is ever left blocked.
            let _close_guard = CloseOnDrop(&queue);
            let _out_close_guard = CloseOnDrop(&out_queue);
            // Adaptive batch sizing: observe the queue imbalance at each
            // refill and steer the batch size within the configured
            // bounds — grow when the workers starve (the producer's
            // per-batch overhead is the bottleneck), shrink when the
            // producer is blocked pushing (mapping is the bottleneck and
            // smaller batches cut latency and reorder memory). Output is
            // invariant to the trajectory; only batch boundaries move.
            let bounds = self.config.adaptive_batch.map(|b| BatchBounds {
                min: b.min.max(1),
                max: b.max.max(b.min.max(1)),
            });
            let mut current = match bounds {
                Some(b) => batch_size.clamp(b.min, b.max),
                None => batch_size,
            };
            trajectory = BatchTrajectory {
                adaptive: bounds.is_some(),
                initial: current,
                last: current,
                min_used: current,
                max_used: current,
                grows: 0,
                shrinks: 0,
            };
            let mut seen_waits = (0u64, 0u64);
            loop {
                if cancel.is_cancelled() {
                    break;
                }
                let batch: Vec<Q> = raw.by_ref().take(current).collect();
                if batch.is_empty() {
                    break;
                }
                queue.push((produced, batch));
                produced += 1;
                if let Some(b) = bounds {
                    let stats = queue.stats();
                    let depth = queue.len();
                    let starved = depth == 0 || stats.worker_waits > seen_waits.1;
                    let backlogged = depth >= queue_depth || stats.producer_waits > seen_waits.0;
                    seen_waits = (stats.producer_waits, stats.worker_waits);
                    // Both signals firing means the pipeline is
                    // oscillating — hold rather than thrash.
                    if starved && !backlogged && current < b.max {
                        current = (current * 2).min(b.max);
                        trajectory.grows += 1;
                    } else if backlogged && !starved && current > b.min {
                        current = (current / 2).max(b.min);
                        trajectory.shrinks += 1;
                    }
                    trajectory.last = current;
                    trajectory.min_used = trajectory.min_used.min(current);
                    trajectory.max_used = trajectory.max_used.max(current);
                }
            }
            queue.close();
            // Workers first, then the channel, then the writer: the writer
            // must not see end-of-stream before every released batch is in
            // the channel.
            for handle in worker_handles {
                if let Err(payload) = handle.join() {
                    failure.record(payload);
                }
            }
            out_queue.close();
            if let Err(payload) = writer_handle.join() {
                failure.record(payload);
            }
        });

        if let Some(payload) = failure.take() {
            // Surface the original failure once, instead of the
            // poisoned-lock panic cascade every other thread would
            // otherwise die with.
            resume_unwind(payload);
        }

        let reorder = reorder.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut report = reorder.report;
        report.backend = self.mapper.backend_name();
        report.batches = mapped_batches.load(Ordering::Relaxed);
        report.threads = threads;
        report.batching = trajectory;
        let input = queue.stats();
        let output = out_queue.stats();
        report.queue = QueueStats {
            output_max_depth: output.max_depth,
            output_stall_waits: output.producer_waits,
            output_stall_wait: output.producer_wait,
            writer_waits: output.worker_waits,
            writer_wait: output.worker_wait,
            park_waits: park_waits.load(Ordering::Relaxed),
            park_wait: Duration::from_nanos(park_wait_ns.load(Ordering::Relaxed)),
            ..input
        };
        report
    }

    /// Maps a slice of reads, returning the outcomes in input order plus
    /// the aggregate report (the batch-oriented convenience entry point).
    pub fn map_batch(&self, reads: &[DnaSeq]) -> (Vec<ReadOutcome>, EngineReport) {
        let mut outcomes = Vec::with_capacity(reads.len());
        let report = self.map_stream(
            reads.iter(),
            |read| *read,
            |_, outcome| outcomes.push(outcome),
        );
        (outcomes, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegramConfig;
    use segram_sim::DatasetConfig;
    use std::time::Duration;

    fn setup() -> (segram_sim::Dataset, SegramMapper) {
        let dataset = DatasetConfig::tiny(91).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        (dataset, mapper)
    }

    #[test]
    fn outcomes_preserve_input_order_across_thread_counts() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let serial = MapEngine::new(&mapper, EngineConfig::with_threads(1));
        let (base, base_report) = serial.map_batch(&reads);
        assert_eq!(base_report.reads, reads.len());
        for threads in [2usize, 4] {
            let mut config = EngineConfig::with_threads(threads);
            config.batch_size = 3; // force interleaving across workers
            let engine = MapEngine::new(&mapper, config);
            let (outcomes, report) = engine.map_batch(&reads);
            assert_eq!(report.threads, threads);
            assert_eq!(report.reads, reads.len());
            assert_eq!(report.mapped, base_report.mapped);
            for (a, b) in base.iter().zip(&outcomes) {
                assert_eq!(
                    a.mapping
                        .as_ref()
                        .map(|m| (m.linear_start, m.alignment.edit_distance)),
                    b.mapping
                        .as_ref()
                        .map(|m| (m.linear_start, m.alignment.edit_distance)),
                );
                assert_eq!(a.strand, b.strand);
            }
        }
    }

    #[test]
    fn tiny_queue_backpressure_still_preserves_order() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, _) = MapEngine::new(&mapper, EngineConfig::with_threads(1)).map_batch(&reads);
        // One-read batches through a one-slot queue with four workers:
        // maximum contention on both the work queue and the bounded
        // reorder buffer (max_ahead = 5 with 20 batches in flight).
        let mut config = EngineConfig::with_threads(4);
        config.batch_size = 1;
        config.queue_depth = 1;
        let engine = MapEngine::new(&mapper, config);
        let (outcomes, report) = engine.map_batch(&reads);
        assert_eq!(report.reads, reads.len());
        assert_eq!(report.batches, reads.len());
        for (a, b) in base.iter().zip(&outcomes) {
            assert_eq!(
                a.mapping.as_ref().map(|m| m.linear_start),
                b.mapping.as_ref().map(|m| m.linear_start),
            );
        }
    }

    #[test]
    fn per_stage_stats_aggregation_matches_serial_sums() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();

        // Serial reference: sum per-read stats by hand.
        let mut serial = MapStats::default();
        let mut serial_mapped = 0usize;
        for read in &reads {
            let (mapping, stats) = mapper.map_read(read);
            serial.merge(&stats);
            if mapping.is_some() {
                serial_mapped += 1;
            }
        }

        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(4));
        let (_, report) = engine.map_batch(&reads);
        // Counts are deterministic and must match the serial sums exactly;
        // durations are wall-clock measurements, so only their presence is
        // checked.
        assert_eq!(report.mapped, serial_mapped);
        assert_eq!(report.stats.minimizers, serial.minimizers);
        assert_eq!(report.stats.filtered_minimizers, serial.filtered_minimizers);
        assert_eq!(report.stats.seed_locations, serial.seed_locations);
        assert_eq!(report.stats.regions_aligned, serial.regions_aligned);
        assert_eq!(report.stats.regions_filtered, serial.regions_filtered);
        assert_eq!(report.stats.total_region_len, serial.total_region_len);
        assert!(report.stats.seeding > Duration::ZERO);
        assert!(report.stats.alignment > Duration::ZERO);
    }

    #[test]
    fn prefiltered_engine_accounts_filtering_time_separately() {
        let dataset = DatasetConfig::tiny(93).illumina(100);
        let config =
            SegramConfig::short_reads().with_prefilter(segram_filter::FilterSpec::cascade());
        let mapper = SegramMapper::new(dataset.graph().clone(), config);
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert!(report.stats.filtering > Duration::ZERO);
        let fraction = report.stats.alignment_fraction();
        assert!(fraction > 0.0 && fraction < 1.0);
    }

    #[test]
    fn queue_stats_observe_depth_and_waits() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        // A one-slot queue with one-read batches maximizes contention: the
        // producer must block while workers drain.
        let mut config = EngineConfig::with_threads(2);
        config.batch_size = 1;
        config.queue_depth = 1;
        let engine = MapEngine::new(&mapper, config);
        let (_, report) = engine.map_batch(&reads);
        assert!(report.queue.max_depth >= 1);
        assert!(
            report.queue.max_depth <= 1,
            "bounded queue must bound depth"
        );
        // With 20 single-read batches through one slot, someone must have
        // waited at least once on either side.
        assert!(
            report.queue.producer_waits + report.queue.worker_waits > 0,
            "contended run recorded no waits: {:?}",
            report.queue
        );
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let (_, mapper) = setup();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(3));
        let report = engine.map_stream(std::iter::empty::<DnaSeq>(), |r| r, |_, _| {});
        assert_eq!(report.reads, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.mapped, 0);
    }

    #[test]
    fn report_names_the_backend() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset
            .reads
            .iter()
            .map(|r| r.seq.clone())
            .take(3)
            .collect();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert_eq!(report.backend, "segram");
        assert_eq!(EngineReport::default().backend, "segram");
    }

    #[test]
    fn work_queue_depth_high_water_never_exceeds_capacity() {
        // Direct accounting check on the bounded queue: with a consumer
        // draining a 3-slot queue, max_depth reflects occupancy and stays
        // within the configured capacity.
        let queue: WorkQueue<u32> = WorkQueue::new(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for item in 0..20u32 {
                    queue.push(item);
                }
                queue.close();
            });
            let mut popped = Vec::new();
            while let Some(item) = queue.pop() {
                popped.push(item);
            }
            assert_eq!(popped, (0..20).collect::<Vec<_>>());
        });
        let stats = queue.stats();
        assert!(stats.max_depth >= 1);
        assert!(
            stats.max_depth <= 3,
            "high-water {} exceeds capacity 3",
            stats.max_depth
        );
    }

    #[test]
    fn work_queue_wait_counters_are_monotone_and_consistent() {
        let queue: WorkQueue<u32> = WorkQueue::new(1);
        // Producer wait: fill the single slot, then push from another
        // thread while this one drains slowly.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for item in 0..5u32 {
                    queue.push(item); // blocks whenever the slot is full
                }
                queue.close();
            });
            let mut snapshots = Vec::new();
            while let Some(_item) = queue.pop() {
                std::thread::sleep(Duration::from_millis(2));
                snapshots.push(queue.stats());
            }
            // Counters only ever grow between snapshots.
            for pair in snapshots.windows(2) {
                assert!(pair[1].producer_waits >= pair[0].producer_waits);
                assert!(pair[1].worker_waits >= pair[0].worker_waits);
                assert!(pair[1].producer_wait >= pair[0].producer_wait);
                assert!(pair[1].worker_wait >= pair[0].worker_wait);
            }
        });
        let stats = queue.stats();
        assert!(
            stats.producer_waits >= 1,
            "slow consumer on a 1-slot queue must block the producer: {stats:?}"
        );
        // A recorded wait implies recorded blocked time, and vice versa.
        assert_eq!(
            stats.producer_waits > 0,
            stats.producer_wait > Duration::ZERO
        );
        assert_eq!(stats.worker_waits > 0, stats.worker_wait > Duration::ZERO);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn worker_wait_is_counted_only_for_real_starvation() {
        // Whether the consumer actually blocks before the push depends on
        // scheduling, so retry until a starved pop is observed instead of
        // trusting one sleep; a barrier removes the thread-spawn delay
        // from the race window. Consistency (a recorded wait carries
        // recorded blocked time) is asserted on every attempt.
        let mut starved = false;
        for _ in 0..20 {
            let queue: WorkQueue<u32> = WorkQueue::new(4);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let consumer = scope.spawn(|| {
                    barrier.wait();
                    // Blocks on the empty queue until the item arrives.
                    assert_eq!(queue.pop(), Some(7));
                });
                barrier.wait();
                std::thread::sleep(Duration::from_millis(10));
                queue.push(7);
                consumer.join().expect("consumer");
            });
            let stats = queue.stats();
            assert_eq!(stats.worker_waits > 0, stats.worker_wait > Duration::ZERO);
            if stats.worker_waits >= 1 {
                starved = true;
                break;
            }
        }
        assert!(starved, "consumer never observed starving in 20 attempts");

        // End-of-stream drain: a pop woken only by close() is not counted
        // as starvation, however the pop and the close interleave.
        let drained: WorkQueue<u32> = WorkQueue::new(4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| drained.pop());
            std::thread::sleep(Duration::from_millis(5));
            drained.close();
            assert_eq!(consumer.join().expect("consumer"), None);
        });
        assert_eq!(drained.stats().worker_waits, 0);
        assert_eq!(drained.stats().worker_wait, Duration::ZERO);
    }

    /// A [`ReadMapper`] that sleeps per read: cancellation tests need a
    /// mapper slow enough that the producer is still feeding (and workers
    /// still queued up) when the failure fires.
    struct SlowMapper {
        graph: segram_graph::GenomeGraph,
        delay: Duration,
    }

    impl SlowMapper {
        fn with_delay(delay: Duration) -> Self {
            let dataset = DatasetConfig::tiny(97).illumina(100);
            Self {
                graph: dataset.graph().clone(),
                delay,
            }
        }
    }

    impl ReadMapper for SlowMapper {
        fn graph(&self) -> &segram_graph::GenomeGraph {
            &self.graph
        }

        fn map_read(&self, _read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            std::thread::sleep(self.delay);
            (None, MapStats::default())
        }

        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (mapping, stats) = self.map_read(read);
            (mapping.map(|m| (m, Strand::Forward)), stats)
        }
    }

    fn slow_engine_reads(count: usize) -> Vec<DnaSeq> {
        let dataset = DatasetConfig::tiny(97).illumina(100);
        let read = dataset.reads[0].seq.clone();
        vec![read; count]
    }

    #[test]
    fn sink_cancellation_stops_producer_and_workers_promptly() {
        // 100 reads x 5 ms = 500 ms of serial mapping; the sink cancels
        // on the very first outcome, so a prompt stop maps only the few
        // batches that were already in flight.
        let mapper = SlowMapper::with_delay(Duration::from_millis(5));
        let reads = slow_engine_reads(100);
        let cancel = CancelToken::new();
        let mut config = EngineConfig::with_threads(2).with_cancel(cancel.clone());
        config.batch_size = 1;
        config.queue_depth = 2;
        let engine = MapEngine::new(&mapper, config);

        let produced = std::cell::Cell::new(0usize);
        let mut reads_iter = reads.iter();
        let stream = std::iter::from_fn(|| {
            let next = reads_iter.next()?;
            produced.set(produced.get() + 1);
            Some(next)
        });
        let mut sunk = 0usize;
        let started = Instant::now();
        let report = engine.map_stream(
            stream,
            |read| *read,
            |_, _| {
                sunk += 1;
                cancel.cancel(); // the CLI does this on a write error
            },
        );
        let elapsed = started.elapsed();

        assert!(
            produced.get() < reads.len(),
            "producer must stop early, consumed {}/{}",
            produced.get(),
            reads.len()
        );
        // Truthful accounting: batches counts mapped work only, and the
        // released reads can never exceed what was produced.
        assert!(report.batches <= produced.get(), "{report:?}");
        assert!(report.reads <= produced.get(), "{report:?}");
        assert!(sunk >= 1);
        assert!(
            elapsed < Duration::from_millis(300),
            "cancelled run still took {elapsed:?} (serial estimate 500 ms)"
        );
    }

    #[test]
    fn decode_failure_cancels_the_run() {
        let mapper = SlowMapper::with_delay(Duration::from_millis(2));
        let reads = slow_engine_reads(60);
        let cancel = CancelToken::new();
        let mut config = EngineConfig::with_threads(2).with_cancel(cancel.clone());
        config.batch_size = 1;
        config.queue_depth = 2;
        let engine = MapEngine::new(&mapper, config);
        let decode_failures = AtomicUsize::new(0);
        let report = engine.map_raw_stream(
            reads.iter().enumerate(),
            |(i, read)| {
                if i == 3 {
                    // A real decoder records its error here.
                    decode_failures.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    Some(read)
                }
            },
            |read| *read,
            |_, _| {},
        );
        assert_eq!(decode_failures.load(Ordering::Relaxed), 1);
        assert!(cancel.is_cancelled(), "decode failure must cancel the run");
        assert!(
            report.reads < reads.len(),
            "run must not map the whole stream: {report:?}"
        );
    }

    #[test]
    fn already_cancelled_token_maps_nothing() {
        let (_, mapper) = setup();
        let cancel = CancelToken::new();
        cancel.cancel();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2).with_cancel(cancel));
        let reads = slow_engine_reads(10);
        let report = engine.map_stream(reads.iter(), |r| *r, |_, _| {});
        assert_eq!(report.reads, 0);
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn sink_panic_surfaces_the_original_payload_once() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let mut config = EngineConfig::with_threads(4);
        config.batch_size = 1;
        let engine = MapEngine::new(&mapper, config);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map_stream(reads.iter(), |r| *r, |_, _| panic!("sink exploded"));
        }));
        let payload = result.expect_err("sink panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is the original message");
        assert!(
            message.contains("sink exploded"),
            "expected the sink's own panic, got {message:?}"
        );
    }

    #[test]
    fn sink_runs_on_one_dedicated_thread_in_input_order() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let mut config = EngineConfig::with_threads(4);
        config.batch_size = 2; // interleave batches across workers
        let engine = MapEngine::new(&mapper, config);
        let caller = std::thread::current().id();
        let mut sink_threads = Vec::new();
        let mut order = Vec::new();
        engine.map_stream(
            reads.iter().enumerate(),
            |(_, read)| *read,
            |(index, _), _| {
                sink_threads.push(std::thread::current().id());
                order.push(index);
            },
        );
        assert_eq!(order, (0..reads.len()).collect::<Vec<_>>());
        assert!(
            sink_threads.iter().all(|&id| id == sink_threads[0]),
            "sink must run on exactly one thread"
        );
        assert_ne!(
            sink_threads[0], caller,
            "the writer is a dedicated thread, not the producer"
        );
    }

    #[test]
    fn worker_decode_is_timed_into_stats() {
        let (dataset, mapper) = setup();
        let texts: Vec<(String, String)> = dataset
            .reads
            .iter()
            .map(|r| (format!("read{}", r.id), r.seq.to_string()))
            .collect();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2));
        let report = engine.map_raw_stream(
            texts.iter(),
            |(_, text)| text.parse::<DnaSeq>().ok(),
            |read| read,
            |_, _| {},
        );
        assert_eq!(report.reads, texts.len());
        assert!(
            report.stats.decode > Duration::ZERO,
            "decode stage must be timed: {:?}",
            report.stats
        );
        // Transport time is excluded from the mapping-stage total.
        assert_eq!(
            report.stats.total_time(),
            report.stats.seeding + report.stats.filtering + report.stats.alignment
        );
    }

    #[test]
    fn writer_channel_stats_observe_depth_and_stalls() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let mut config = EngineConfig::with_threads(2);
        config.batch_size = 1;
        config.queue_depth = 1; // output channel capacity follows
        let engine = MapEngine::new(&mapper, config);
        let (_, report) = {
            let mut outcomes = Vec::new();
            let report = engine.map_stream(
                reads.iter(),
                |r| *r,
                |_, outcome| {
                    // A deliberately slow sink: the bounded channel must fill
                    // and stall the workers, never the other way around.
                    std::thread::sleep(Duration::from_millis(2));
                    outcomes.push(outcome);
                },
            );
            (outcomes, report)
        };
        assert!(report.queue.output_max_depth >= 1);
        assert!(
            report.queue.output_max_depth <= 1,
            "bounded channel must bound depth: {:?}",
            report.queue
        );
        assert!(
            report.queue.output_stall_waits > 0,
            "slow writer must stall workers: {:?}",
            report.queue
        );
        // A recorded wait implies recorded blocked time, and vice versa.
        assert_eq!(
            report.queue.output_stall_waits > 0,
            report.queue.output_stall_wait > Duration::ZERO
        );
        assert_eq!(
            report.queue.writer_waits > 0,
            report.queue.writer_wait > Duration::ZERO
        );
    }

    #[test]
    fn decode_errors_settle_to_the_files_first_failure() {
        // Two malformed records (stream indices 5 and 9) in a 16-record
        // stream, two workers, batch_size 8: one worker is still inside
        // batch 0 (records 0..8, held open by record 0) when the other
        // worker's record 9 fails and cancels the run. Before the settle
        // path, the first worker dropped records 1..8 undecoded on the
        // cancellation check and the run reported record 9 — the racy
        // behavior this test pins down.
        let (dataset, mapper) = setup();
        let read = dataset.reads[0].seq.clone();
        for attempt in 0..8 {
            let cancel = CancelToken::new();
            let mut config = EngineConfig::with_threads(2).with_cancel(cancel.clone());
            config.batch_size = 8;
            config.queue_depth = 4;
            let engine = MapEngine::new(&mapper, config);
            let first_error: Mutex<Option<usize>> = Mutex::new(None);
            let gate = cancel.clone();
            engine.map_raw_stream(
                0..16usize,
                |i| {
                    if i == 0 {
                        // Hold batch 0 open until the cancellation fires
                        // (bounded so a regression cannot hang the test).
                        let waited = Instant::now();
                        while !gate.is_cancelled() && waited.elapsed() < Duration::from_secs(2) {
                            std::thread::yield_now();
                        }
                    }
                    if i == 5 || i == 9 {
                        // A real decoder keeps the smallest failing line,
                        // exactly as the CLI's error slot does.
                        let mut slot = relock(&first_error);
                        *slot = Some(slot.map_or(i, |prev| prev.min(i)));
                        return None;
                    }
                    Some(read.clone())
                },
                |r| r,
                |_, _| {},
            );
            assert_eq!(
                *relock(&first_error),
                Some(5),
                "attempt {attempt}: the settled decode error must be the \
                 file's first malformed record"
            );
        }
    }

    /// A [`ReadMapper`] that sleeps only on one sentinel read — the tool
    /// for making exactly one batch slow while the rest of the stream is
    /// fast (reorder-park scenarios).
    struct SelectiveSlowMapper {
        graph: segram_graph::GenomeGraph,
        slow: DnaSeq,
        delay: Duration,
    }

    impl ReadMapper for SelectiveSlowMapper {
        fn graph(&self) -> &segram_graph::GenomeGraph {
            &self.graph
        }

        fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            if *read == self.slow {
                std::thread::sleep(self.delay);
            }
            (None, MapStats::default())
        }

        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (mapping, stats) = self.map_read(read);
            (mapping.map(|m| (m, Strand::Forward)), stats)
        }
    }

    #[test]
    fn reorder_park_counts_one_stall_per_period_not_per_poll_wakeup() {
        // Batch 0 maps for ~400 ms while everything else is instant, so
        // with queue_depth 1 and 2 threads (max_ahead = 3) the second
        // worker finishes batches 1 and 2 and then parks on batch 3 for
        // the rest of the slow batch — a single genuine stall spanning
        // many 50 ms cancellation-poll wakeups. Counting wakeups instead
        // of periods would report ~8 stalls here and poison the
        // admission-control signal.
        let dataset = DatasetConfig::tiny(97).illumina(100);
        let slow = dataset.reads[0].seq.clone();
        let fast = dataset.reads[1].seq.clone();
        assert_ne!(slow, fast);
        let mapper = SelectiveSlowMapper {
            graph: dataset.graph().clone(),
            slow: slow.clone(),
            delay: Duration::from_millis(400),
        };
        let mut config = EngineConfig::with_threads(2);
        config.batch_size = 1;
        config.queue_depth = 1;
        let engine = MapEngine::new(&mapper, config);
        let mut reads = vec![slow];
        reads.extend(std::iter::repeat_with(|| fast.clone()).take(7));
        let (_, report) = engine.map_batch(&reads);
        assert!(
            report.queue.park_waits >= 1,
            "the second worker must park behind the slow batch: {:?}",
            report.queue
        );
        assert!(
            report.queue.park_wait >= Duration::from_millis(200),
            "the park spans most of the slow batch: {:?}",
            report.queue
        );
        // The pinned bug: the parked period above spans at least four
        // 50 ms poll wakeups; per-wakeup counting would report >= 4.
        assert!(
            report.queue.park_waits <= 2,
            "one parked period must count once, not once per poll wakeup: {:?}",
            report.queue
        );
        // A recorded park implies recorded parked time, and vice versa.
        assert_eq!(
            report.queue.park_waits > 0,
            report.queue.park_wait > Duration::ZERO
        );
    }

    #[test]
    fn unparked_runs_record_no_park_stalls() {
        // Plenty of reorder headroom: nobody should ever park, so the
        // counter must stay zero (no spurious counts from the poll loop).
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert_eq!(report.queue.park_waits, 0, "{:?}", report.queue);
        assert_eq!(report.queue.park_wait, Duration::ZERO);
    }

    #[test]
    fn both_strand_engine_recovers_reverse_reads() {
        let dataset = DatasetConfig::tiny(95).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let stranded = segram_sim::simulate_stranded_reads(
            dataset.graph(),
            &segram_sim::ReadConfig::short_reads(10, 100, 96),
            1.0,
        );
        let reads: Vec<DnaSeq> = stranded.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2).both_strands(true));
        let (outcomes, report) = engine.map_batch(&reads);
        assert!(report.mapped >= 8, "only {} of 10 mapped", report.mapped);
        assert!(outcomes
            .iter()
            .filter_map(|o| o.mapping.as_ref().map(|_| o.strand))
            .any(|s| s == Strand::Reverse));
    }

    #[test]
    fn block_stream_fans_multiple_reads_per_raw_unit_in_order() {
        // One raw unit = a "block" of several reads (the BGZF shape).
        // The outcome stream must equal the per-read reference, and the
        // block's inflate share must land in the aggregated stats.
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, _) = MapEngine::new(&mapper, EngineConfig::with_threads(1)).map_batch(&reads);
        let blocks: Vec<Vec<DnaSeq>> = reads.chunks(3).map(<[DnaSeq]>::to_vec).collect();
        let mut config = EngineConfig::with_threads(4);
        config.batch_size = 2; // batches of blocks, interleaved across workers
        let engine = MapEngine::new(&mapper, config);
        let mut outcomes = Vec::new();
        let report = engine.map_block_stream(
            blocks.into_iter(),
            |block| {
                Some(DecodedBlock {
                    items: block,
                    inflate: Duration::from_micros(40),
                })
            },
            |read| read,
            |_, outcome| outcomes.push(outcome),
        );
        assert_eq!(report.reads, reads.len());
        assert!(
            report.stats.inflate >= Duration::from_micros(40),
            "inflate share must aggregate: {:?}",
            report.stats.inflate
        );
        for (a, b) in base.iter().zip(&outcomes) {
            assert_eq!(
                a.mapping.as_ref().map(|m| m.linear_start),
                b.mapping.as_ref().map(|m| m.linear_start),
            );
        }
    }

    #[test]
    fn empty_blocks_carry_their_time_without_emitting_reads() {
        // Blocks that complete no record (all bytes belong to straddling
        // neighbours) are legal: read count unaffected, inflate time
        // still accounted via the carry.
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let raws: Vec<Option<DnaSeq>> = reads
            .iter()
            .flat_map(|read| [None, Some(read.clone())])
            .collect();
        let engine = MapEngine::new(&mapper, EngineConfig::with_threads(2));
        let mut seen = 0usize;
        let report = engine.map_block_stream(
            raws.into_iter(),
            |raw| {
                Some(DecodedBlock {
                    items: raw.into_iter().collect(),
                    inflate: Duration::from_micros(10),
                })
            },
            |read| read,
            |_, _| seen += 1,
        );
        assert_eq!(report.reads, reads.len());
        assert_eq!(seen, reads.len());
        // Every raw unit contributed 10 µs of inflate, including the
        // empty ones whose time was carried onto a later read.
        assert!(
            report.stats.inflate >= Duration::from_micros(10) * (reads.len() as u32 * 2 - 1),
            "carried inflate time lost: {:?}",
            report.stats.inflate
        );
    }

    #[test]
    fn adaptive_batching_stays_in_bounds_and_preserves_output() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, _) = MapEngine::new(&mapper, EngineConfig::with_threads(1)).map_batch(&reads);
        for threads in [1usize, 4] {
            let mut config = EngineConfig::with_threads(threads);
            config.batch_size = 2;
            config.queue_depth = 2;
            config.adaptive_batch = Some(BatchBounds { min: 1, max: 8 });
            let engine = MapEngine::new(&mapper, config);
            let (outcomes, report) = engine.map_batch(&reads);
            assert_eq!(report.reads, reads.len());
            assert!(report.batching.adaptive);
            assert_eq!(report.batching.initial, 2);
            assert!(report.batching.min_used >= 1 && report.batching.max_used <= 8);
            assert!(
                report.batching.last >= report.batching.min_used
                    && report.batching.last <= report.batching.max_used
            );
            for (a, b) in base.iter().zip(&outcomes) {
                assert_eq!(
                    a.mapping.as_ref().map(|m| m.linear_start),
                    b.mapping.as_ref().map(|m| m.linear_start),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn fixed_runs_report_their_batch_size_as_the_trajectory() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let mut config = EngineConfig::with_threads(2);
        config.batch_size = 5;
        let engine = MapEngine::new(&mapper, config);
        let (_, report) = engine.map_batch(&reads);
        assert!(!report.batching.adaptive);
        assert_eq!(report.batching.initial, 5);
        assert_eq!(report.batching.last, 5);
        assert_eq!(report.batching.min_used, 5);
        assert_eq!(report.batching.max_used, 5);
        assert_eq!(report.batching.grows + report.batching.shrinks, 0);
    }
}
