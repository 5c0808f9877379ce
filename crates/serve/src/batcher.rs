//! Adaptive micro-batching: one worker thread per lane coalesces
//! concurrent requests into single batched calls. Every model and every
//! augmentation pipeline gets a lane, and all lanes are the same code —
//! a `JobRing`, a `TicketPool`, `QueueCounters`, and one worker
//! loop — generic over the job payload. A lane supplies only its work
//! (`LaneWork`), in two steps: an **item step**, which the worker runs
//! on each job as it takes it off the ring, while the window is open,
//! and a **batch step**, which runs once when the window closes. A
//! ROCKET, MiniRocket or ridge lane transforms each series into its
//! feature row in the item step (`ModelEntry::item_step`) and runs the
//! ridge head in the batch step (`ModelEntry::batch_step`); an
//! InceptionTime or augment lane does everything in the batch step
//! (`ModelEntry::batch_step`, `AugPipeline::run_each`).
//!
//! The flush policy is the classic adaptive one: the first job to
//! arrive opens a window of `max_wait`; the batch runs when either
//! `max_batch` jobs are pending or the window closes, whichever comes
//! first. Membership is by enqueue time: a batch holds the jobs enqueued
//! before its window closed, however long the item steps keep the worker
//! busy past that, and a job enqueued later opens the next batch. Under
//! load batches fill instantly (amortising the ridge head / forward
//! pass across requests); a lone request waits at most `max_wait`
//! before running solo, and its item step has run by then.
//!
//! Queues are **bounded** (`queue_cap` jobs per lane). When a lane's
//! queue is full, [`Batcher::submit`] refuses with
//! [`SubmitError::Overloaded`] and a backoff hint instead of buffering
//! without limit — the connection handler turns that into an explicit
//! `{"ok":false,"error":"overloaded","retry_ms":N}` reply, so overload
//! degrades into client backoff rather than unbounded memory growth and
//! latency collapse. A [`FaultPlan`] can
//! additionally shed submits and stall workers to prove the path works.
//!
//! # Zero-allocation steady state
//!
//! `submit` is a hot path (`tsda_analyze` R3), so nothing on it may
//! allocate once the server is warm:
//!
//! * each queue is a `JobRing` — a `VecDeque` preallocated to
//!   `queue_cap` behind one mutex, so enqueue/dequeue never grow it;
//! * each reply travels through a recycled `ReplyTicket` from a warm
//!   `TicketPool` (also preallocated to `queue_cap`), replacing the
//!   per-request `mpsc::sync_channel` pair the first version allocated;
//! * the workers keep per-thread scratch (payload / pending / result
//!   vectors sized to `max_batch`) and **move** each job's payload into
//!   the batch instead of cloning it.
//!
//! The only remaining per-request allocation is the decoded request
//! series itself, which the client owns. The `stats` endpoint exposes
//! per-queue `ticket_allocs` counters: they stay at zero while the warm
//! pool covers the in-flight high-water mark, which is what the
//! allocation-count harness (`tests/alloc_count.rs`) pins.
//!
//! Shutdown: workers drain until every ring is closed **and** empty, so
//! a server shutting down under load still answers every job that was
//! accepted into a queue before the listener stopped. A worker that
//! drops a job without answering (e.g. a panic mid-batch) still wakes
//! the waiting connection: dropping a `ReplySlot` posts a shutdown
//! error into its ticket.

use crate::faults::FaultPlan;
use crate::pipelines::PipelineRegistry;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsda_classify::ridge::BatchScratch;
use tsda_core::{Label, Mts, TsdaError};

/// Micro-batcher knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Flush as soon as this many requests are pending.
    pub max_batch: usize,
    /// Flush this long after the first pending request was enqueued.
    /// The batch holds the requests enqueued before then (up to
    /// `max_batch`), and the lane runs each one's item step as it takes
    /// it, during the window.
    pub max_wait: Duration,
    /// Maximum jobs queued per lane before submits are shed with an
    /// `overloaded` reply.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { max_batch: 32, max_wait: Duration::from_millis(2), queue_cap: 256 }
    }
}

/// The answer a connection handler gets back for one queued job: a
/// predicted label, or an augmented series.
#[derive(Debug, Clone)]
pub struct BatchReply<T = Label> {
    /// The job's result, or a client-facing error message.
    pub result: Result<T, String>,
    /// How many jobs shared the batch.
    pub batch_size: usize,
    /// Queue wait + batch time for this job, microseconds.
    pub micros: u64,
}

impl<T> BatchReply<T> {
    /// The reply a [`ReplySlot`] posts when dropped without an explicit
    /// answer, so an abandoned job can never deadlock its waiting
    /// connection.
    fn abandoned() -> Self {
        Self { result: Err("server shutting down".to_string()), batch_size: 0, micros: 0 }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No worker serves this model name.
    UnknownModel,
    /// No worker serves this pipeline name.
    UnknownPipeline,
    /// The lane's queue is full (or the fault plan shed the submit);
    /// retry after roughly `retry_ms` milliseconds.
    Overloaded {
        /// Suggested client backoff, milliseconds.
        retry_ms: u64,
    },
    /// The batcher is shutting down; the job was not queued.
    Closed,
}

/// A reusable one-shot reply rendezvous: the worker posts into `slot`,
/// the connection thread blocks on `ready`. Tickets live in a
/// [`TicketPool`] and are recycled after each reply, so the steady
/// state submits without allocating.
struct ReplyTicket<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> ReplyTicket<T> {
    fn new() -> Self {
        Self { slot: Mutex::new(None), ready: Condvar::new() }
    }

    /// Lock the slot, shrugging off poison: a reply value is plain
    /// data, never left half-written by a panicking poster.
    fn lock(&self) -> MutexGuard<'_, Option<T>> {
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Warm free-list of tickets, preallocated to the queue capacity.
/// `recycle` never grows the list past its initial capacity, so both
/// directions are allocation-free once warm.
struct TicketPool<T> {
    free: Mutex<VecDeque<Arc<ReplyTicket<T>>>>,
}

impl<T> TicketPool<T> {
    fn warm(n: usize) -> Arc<Self> {
        let mut free = VecDeque::with_capacity(n);
        for _ in 0..n {
            free.push_back(Arc::new(ReplyTicket::new()));
        }
        Arc::new(Self { free: Mutex::new(free) })
    }

    fn take(&self) -> Option<Arc<ReplyTicket<T>>> {
        self.free.lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop_front()
    }

    /// Return a drained ticket. Bounded at the warm capacity so a
    /// burst of extra tickets (pool exhaustion fallbacks) cannot grow
    /// the free list — `push_back` below capacity never reallocates.
    fn recycle(&self, ticket: &Arc<ReplyTicket<T>>) {
        let mut free = self.free.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if free.len() < free.capacity() {
            free.push_back(Arc::clone(ticket));
        }
    }
}

/// Worker-side half of a ticket. Dropping it without [`Self::send`]
/// posts [`BatchReply::abandoned`] so the waiter always wakes.
struct ReplySlot<T> {
    ticket: Arc<ReplyTicket<BatchReply<T>>>,
    sent: bool,
}

impl<T> ReplySlot<T> {
    fn send(mut self, value: BatchReply<T>) {
        *self.ticket.lock() = Some(value);
        self.ticket.ready.notify_one();
        self.sent = true;
    }

    /// Disarm without posting anything — for jobs refused before they
    /// ever reached a worker, whose clean ticket goes back to the pool.
    fn cancel(mut self) {
        self.sent = true;
    }
}

impl<T> Drop for ReplySlot<T> {
    fn drop(&mut self) {
        if !self.sent {
            {
                let mut slot = self.ticket.lock();
                if slot.is_none() {
                    *slot = Some(BatchReply::abandoned());
                }
            }
            self.ticket.ready.notify_one();
        }
    }
}

/// Connection-side half of a ticket, returned by [`Batcher::submit`].
pub struct PendingReply<T> {
    ticket: Arc<ReplyTicket<T>>,
    pool: Arc<TicketPool<T>>,
}

impl<T> PendingReply<T> {
    /// Block until the worker answers (or abandons) this job, then
    /// recycle the ticket into the warm pool.
    pub fn recv(self) -> T {
        let value = {
            let mut slot = self.ticket.lock();
            loop {
                if let Some(value) = slot.take() {
                    break value;
                }
                slot = self
                    .ticket
                    .ready
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Safe to recycle immediately (slot lock released above): after
        // posting, the worker side never touches the ticket again.
        self.pool.recycle(&self.ticket);
        value
    }
}

/// One queued job: the lane's payload and the slot its answer goes to.
struct Job<P, R> {
    payload: P,
    enqueued: Instant,
    reply: ReplySlot<R>,
}

/// A job refused by [`JobRing::offer`], handed back so its ticket can
/// be recycled cleanly.
enum Refusal<J> {
    Full(J),
    Closed(J),
}

/// Bounded MPSC job queue: a `VecDeque` preallocated to `cap` behind
/// one mutex plus a condvar. Replaces the unbounded `mpsc::channel` +
/// atomic-depth rollback dance: fullness, closedness, and depth are
/// all one lock away, and nothing on the enqueue path allocates.
struct JobRing<J> {
    state: Mutex<RingState<J>>,
    nonempty: Condvar,
    cap: usize,
}

struct RingState<J> {
    jobs: VecDeque<J>,
    closed: bool,
}

impl<J> JobRing<J> {
    fn with_capacity(cap: usize) -> Self {
        Self {
            state: Mutex::new(RingState { jobs: VecDeque::with_capacity(cap), closed: false }),
            nonempty: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState<J>> {
        // A poisoning panic can only come from a caller's enqueue /
        // dequeue frame; the deque itself is never left inconsistent.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueue, or hand the job back when the ring is full or closed.
    fn offer(&self, job: J) -> Result<(), Refusal<J>> {
        {
            let mut st = self.lock();
            if st.closed {
                return Err(Refusal::Closed(job));
            }
            if st.jobs.len() >= self.cap {
                return Err(Refusal::Full(job));
            }
            st.jobs.push_back(job);
        }
        self.nonempty.notify_one();
        Ok(())
    }

    /// Block until a job arrives; `None` once the ring is closed and
    /// drained (the worker-exit signal).
    fn pop_blocking(&self) -> Option<J> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.nonempty.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }

    /// Jobs currently queued (named to avoid shadowing container
    /// `len()` calls in the name-based call graph).
    fn queued(&self) -> usize {
        self.lock().jobs.len()
    }
}

impl<P, R> JobRing<Job<P, R>> {
    /// Pop the next job enqueued before `cutoff`, waiting for one until
    /// then. `None` once the front job was enqueued at or after the
    /// cutoff (it opens the next batch, however late the worker comes
    /// to it), on timeout, or closed-and-drained.
    fn pop_until(&self, cutoff: Instant) -> Option<Job<P, R>> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.front() {
                return if job.enqueued < cutoff { st.jobs.pop_front() } else { None };
            }
            if st.closed {
                return None;
            }
            let now = Instant::now();
            if now >= cutoff {
                return None;
            }
            st = self
                .nonempty
                .wait_timeout(st, cutoff - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// Per-queue counters surfaced on the `stats` endpoint.
#[derive(Default)]
struct QueueCounters {
    /// Jobs accepted into the ring.
    submitted: AtomicU64,
    /// Submits refused with an `overloaded` reply (ring full or
    /// fault-plan shed).
    shed: AtomicU64,
    /// Hot-path ticket allocations — the warm pool ran dry because
    /// more requests were in flight than `queue_cap`. Zero at steady
    /// state; a nonzero value is the allocation-discipline regression
    /// signal, observable without a profiler.
    ticket_allocs: AtomicU64,
}

/// One batch lane: the job ring its worker drains, the warm reply
/// tickets, and the per-queue counters.
struct Lane<P, R> {
    /// `"predict"` or `"augment"`, for the `stats` rows.
    kind: &'static str,
    ring: Arc<JobRing<Job<P, R>>>,
    tickets: Arc<TicketPool<BatchReply<R>>>,
    counters: QueueCounters,
}

impl<P, R> Lane<P, R> {
    /// This lane's row on the `stats` endpoint.
    fn row(&self, name: &str) -> Value {
        let c = &self.counters;
        Value::Object(vec![
            ("name".into(), Value::Str(name.to_string())),
            ("lane".into(), Value::Str(self.kind.to_string())),
            ("depth".into(), Value::Num(self.ring.queued() as f64)),
            ("submitted".into(), Value::Num(c.submitted.load(Ordering::Relaxed) as f64)),
            ("shed".into(), Value::Num(c.shed.load(Ordering::Relaxed) as f64)),
            ("ticket_allocs".into(), Value::Num(c.ticket_allocs.load(Ordering::Relaxed) as f64)),
        ])
    }
}

/// What a lane computes, in two steps. The worker runs [`Self::item`]
/// on each job as it takes it off the ring, while the flush window is
/// open, and [`Self::batch`] once the window closes, over the payloads
/// of every job it took since the last batch step, in order. A closure
/// `FnMut(&[P], &mut Vec<R>) -> Result<(), String>` is a lane with no
/// item step.
trait LaneWork<P, R> {
    /// The item step of one job.
    fn item(&mut self, _payload: &P) {}
    /// The batch step: one result per payload into `out`, or one error
    /// for the whole batch.
    fn batch(&mut self, payloads: &[P], out: &mut Vec<R>) -> Result<(), String>;
}

impl<P, R, F: FnMut(&[P], &mut Vec<R>) -> Result<(), String>> LaneWork<P, R> for F {
    fn batch(&mut self, payloads: &[P], out: &mut Vec<R>) -> Result<(), String> {
        self(payloads, out)
    }
}

/// A model's lane: the entry's item step on each series, into the
/// lane's own feature rows (at most `max_batch` of them), and its batch
/// step when the window closes.
struct PredictWork {
    registry: Arc<ModelRegistry>,
    model: String,
    rows: BatchScratch,
    /// The batch's first item-step error, which answers the whole batch.
    failed: Option<String>,
}

impl LaneWork<Mts, Label> for PredictWork {
    fn item(&mut self, series: &Mts) {
        if self.failed.is_none() {
            if let Some(entry) = self.registry.get(&self.model) {
                let step = entry.item_step(series, &mut self.rows);
                self.failed = step.err().map(|e| format!("prediction failed: {e}"));
            }
        }
    }

    fn batch(&mut self, series: &[Mts], labels: &mut Vec<Label>) -> Result<(), String> {
        let failed = self.failed.take();
        let model = &self.model;
        let entry =
            self.registry.get(model).ok_or_else(|| format!("model {model:?} is not registered"))?;
        // The batch step runs after a failed item step too: it spends
        // the rows, so the next batch starts from none.
        let done = entry.batch_step(series, &mut self.rows, labels);
        failed.map_or(done.map_err(|e| format!("prediction failed: {e}")), Err)
    }
}

/// An augment lane's payload: the series and its `(seed, index)`, the
/// item layout `AugPipeline::run_each` takes.
type AugItem = (Mts, u64, u64);

/// Handle for submitting jobs to the per-model and per-pipeline lanes.
pub struct Batcher {
    models: BTreeMap<String, Lane<Mts, Label>>,
    pipelines: BTreeMap<String, Lane<AugItem, Mts>>,
    workers: Vec<JoinHandle<()>>,
    /// Backoff hint for queue-full sheds: a few flush windows.
    shed_retry_ms: u64,
    faults: Option<Arc<FaultPlan>>,
}

impl Batcher {
    /// Spawn one lane per registered model and per pipeline. Errors
    /// when the OS refuses a worker thread; already-spawned workers are
    /// shut down cleanly before the error is returned.
    pub fn start(
        registry: Arc<ModelRegistry>,
        pipelines: Arc<PipelineRegistry>,
        stats: Arc<ServerStats>,
        config: BatchConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self, TsdaError> {
        let mut batcher = Self {
            models: BTreeMap::new(),
            pipelines: BTreeMap::new(),
            workers: Vec::new(),
            shed_retry_ms: (config.max_wait.as_millis() as u64).max(1) * 4,
            faults,
        };
        match batcher.spawn_lanes(&registry, &pipelines, &stats, config) {
            Ok(()) => Ok(batcher),
            Err(e) => {
                batcher.shutdown();
                Err(e)
            }
        }
    }

    /// One predict lane per model, one augment lane per pipeline.
    fn spawn_lanes(
        &mut self,
        registry: &Arc<ModelRegistry>,
        pipelines: &Arc<PipelineRegistry>,
        stats: &Arc<ServerStats>,
        config: BatchConfig,
    ) -> Result<(), TsdaError> {
        for name in registry.names() {
            let predict = PredictWork {
                registry: Arc::clone(registry),
                model: name.clone(),
                rows: BatchScratch::default(),
                failed: None,
            };
            let lane = self.spawn_lane(format!("batch-{name}"), "predict", stats, config, predict)?;
            self.models.insert(name, lane);
        }
        for name in pipelines.names() {
            let (pipelines, pipeline) = (Arc::clone(pipelines), name.clone());
            // Each element is a pure function of its own (seed, index),
            // so results are independent of how requests happened to
            // coalesce into the batch.
            let augment = move |items: &[AugItem], out: &mut Vec<Mts>| {
                let p = pipelines
                    .get(&pipeline)
                    .ok_or_else(|| format!("pipeline {pipeline:?} is not registered"))?;
                *out = p.run_each(items);
                Ok(())
            };
            let lane = self.spawn_lane(format!("aug-{name}"), "augment", stats, config, augment)?;
            self.pipelines.insert(name, lane);
        }
        Ok(())
    }

    /// Spawn the worker thread of one lane, which runs `work`.
    fn spawn_lane<P: Send + 'static, R: Send + 'static>(
        &mut self,
        thread: String,
        kind: &'static str,
        stats: &Arc<ServerStats>,
        config: BatchConfig,
        work: impl LaneWork<P, R> + Send + 'static,
    ) -> Result<Lane<P, R>, TsdaError> {
        let queue_cap = config.queue_cap.max(1);
        let ring = Arc::new(JobRing::with_capacity(queue_cap));
        let worker_ring = Arc::clone(&ring);
        let stats = Arc::clone(stats);
        let faults = self.faults.clone();
        let worker = std::thread::Builder::new()
            .name(thread.clone())
            .spawn(move || lane_loop(&worker_ring, config, &stats, faults.as_deref(), work))
            .map_err(|e| TsdaError::Io(format!("spawn worker {thread}: {e}")))?;
        self.workers.push(worker);
        Ok(Lane {
            kind,
            ring,
            tickets: TicketPool::warm(queue_cap),
            counters: QueueCounters::default(),
        })
    }

    /// Queue one validated series for the named model. Returns a
    /// [`PendingReply`] the caller blocks on for the reply, or a
    /// [`SubmitError`] explaining the refusal (unknown model, full
    /// queue, shutdown).
    ///
    /// Hot path: runs once per request on the connection thread, so
    /// `tsda_analyze` R3 keeps allocations out of it and its callees
    /// — the ring and the ticket pool are both preallocated.
    #[doc(alias = "tsda::hot")]
    pub fn submit(&self, model: &str, series: Mts) -> Result<PendingReply<BatchReply>, SubmitError> {
        let lane = self.models.get(model).ok_or(SubmitError::UnknownModel)?;
        self.enqueue(lane, series)
    }

    /// Queue one series for the named augmentation pipeline, under the
    /// same bounded-queue discipline as [`Self::submit`].
    #[doc(alias = "tsda::hot")]
    pub fn submit_augment(
        &self,
        pipeline: &str,
        series: Mts,
        seed: u64,
        index: u64,
    ) -> Result<PendingReply<BatchReply<Mts>>, SubmitError> {
        let lane = self.pipelines.get(pipeline).ok_or(SubmitError::UnknownPipeline)?;
        self.enqueue(lane, (series, seed, index))
    }

    /// Put one payload on `lane` behind a warm ticket: full queues (and
    /// fault-plan sheds) refuse with a retry hint instead of buffering
    /// without limit.
    fn enqueue<P, R>(
        &self,
        lane: &Lane<P, R>,
        payload: P,
    ) -> Result<PendingReply<BatchReply<R>>, SubmitError> {
        if let Some(retry_ms) = self.faults.as_deref().and_then(FaultPlan::shed) {
            lane.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded { retry_ms });
        }
        let ticket = take_ticket(&lane.tickets, &lane.counters);
        let job = Job {
            payload,
            enqueued: Instant::now(),
            reply: ReplySlot { ticket: Arc::clone(&ticket), sent: false },
        };
        match lane.ring.offer(job) {
            Ok(()) => {
                lane.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(PendingReply { ticket, pool: Arc::clone(&lane.tickets) })
            }
            Err(Refusal::Full(job)) => {
                job.reply.cancel();
                lane.tickets.recycle(&ticket);
                lane.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded { retry_ms: self.shed_retry_ms })
            }
            Err(Refusal::Closed(job)) => {
                job.reply.cancel();
                Err(SubmitError::Closed)
            }
        }
    }

    /// Per-queue counters for the `stats` endpoint: live depth,
    /// accepted / shed submits, and hot-path ticket allocations (zero
    /// while the warm pool covers the in-flight high-water mark).
    pub fn queue_stats(&self) -> Value {
        let models = self.models.iter().map(|(name, lane)| lane.row(name));
        let pipelines = self.pipelines.iter().map(|(name, lane)| lane.row(name));
        Value::Array(models.chain(pipelines).collect())
    }

    /// Close every ring (workers drain every queued job, then exit)
    /// and join every worker.
    pub fn shutdown(mut self) {
        self.close_rings();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }

    fn close_rings(&self) {
        for lane in self.models.values() {
            lane.ring.close();
        }
        for lane in self.pipelines.values() {
            lane.ring.close();
        }
    }
}

impl Drop for Batcher {
    /// Safety net for handles dropped without [`Self::shutdown`]: close
    /// the rings so workers exit instead of blocking forever. (Joining
    /// is still `shutdown`'s job; `Drop` must not block.)
    fn drop(&mut self) {
        self.close_rings();
    }
}

/// Pop a warm ticket, falling back to a fresh allocation (counted —
/// this is the one hot-path allocation that can still happen, and only
/// when more jobs are in flight than the pool was warmed for).
fn take_ticket<T>(pool: &Arc<TicketPool<T>>, counters: &QueueCounters) -> Arc<ReplyTicket<T>> {
    match pool.take() {
        Some(t) => t,
        None => {
            counters.ticket_allocs.fetch_add(1, Ordering::Relaxed);
            Arc::new(ReplyTicket::new())
        }
    }
}

/// The one batch worker loop, shared by every lane. It blocks for a
/// first job, then takes jobs until `max_batch` of them or until the
/// next one was enqueued after the window closed (`max_wait` after the
/// first job was enqueued, or when this worker took it, if later),
/// running each one's item step as it takes it. Then it runs the batch
/// step and answers every job. A closed-and-drained ring is the shutdown
/// signal, so a shutting-down server still answers everything already
/// queued.
fn lane_loop<P, R>(
    ring: &JobRing<Job<P, R>>,
    config: BatchConfig,
    stats: &ServerStats,
    faults: Option<&FaultPlan>,
    mut work: impl LaneWork<P, R>,
) {
    timer_slack::tighten();
    let max_batch = config.max_batch.max(1);
    // Worker scratch, reused across batches: each job's payload MOVES
    // into `batch` (no per-job clone), its reply slot waits in
    // `pending`, and the batch step writes into `results`. After the
    // first full batch none of these grow.
    let mut batch: Vec<P> = Vec::with_capacity(max_batch);
    let mut pending: Vec<(Instant, ReplySlot<R>)> = Vec::with_capacity(max_batch);
    let mut results: Vec<R> = Vec::with_capacity(max_batch);
    while let Some(first) = ring.pop_blocking() {
        // The window opened when the first job was enqueued, not when
        // this worker took it; a worker that comes to it after the
        // window closed still takes every job queued by then.
        let cutoff = (first.enqueued + config.max_wait).max(Instant::now());
        let mut items = Duration::ZERO;
        let mut next = Some(first);
        while let Some(job) = next {
            let item_start = Instant::now();
            work.item(&job.payload);
            items += item_start.elapsed();
            batch.push(job.payload);
            pending.push((job.enqueued, job.reply));
            next = if pending.len() < max_batch { ring.pop_until(cutoff) } else { None };
        }

        // Injected stall: the lane "hangs" before the batch runs,
        // building real queue depth behind it.
        if let Some(pause) = faults.and_then(FaultPlan::stall) {
            std::thread::sleep(pause);
        }

        let batch_start = Instant::now();
        let outcome = work.batch(&batch, &mut results);
        // The lane's model time for the batch: its item steps and the
        // batch step.
        let batch_micros = (items + batch_start.elapsed()).as_micros() as u64;
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.batched_items.fetch_add(pending.len() as u64, Ordering::Relaxed);
        stats.batch_latency.record(batch_micros);

        let batch_size = pending.len();
        match outcome {
            Ok(()) => {
                debug_assert_eq!(results.len(), batch_size);
                for ((enqueued, reply), value) in pending.drain(..).zip(results.drain(..)) {
                    let micros = enqueued.elapsed().as_micros() as u64;
                    stats.request_latency.record(micros);
                    reply.send(BatchReply { result: Ok(value), batch_size, micros });
                }
            }
            Err(msg) => {
                for (enqueued, reply) in pending.drain(..) {
                    let micros = enqueued.elapsed().as_micros() as u64;
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    stats.request_latency.record(micros);
                    reply.send(BatchReply { result: Err(msg.clone()), batch_size, micros });
                }
            }
        }
        batch.clear();
        results.clear();
    }
}

/// The lane thread's timer slack. On Linux a normal thread's timed wait
/// may fire up to the default 50 µs slack late; a lane sets 1 µs, so
/// its flush fires on its deadline. (0 would restore the default.)
mod timer_slack {
    #[cfg(target_os = "linux")]
    pub(super) const PR_SET_TIMERSLACK: i32 = 29;
    #[cfg(all(test, target_os = "linux"))]
    pub(super) const PR_GET_TIMERSLACK: i32 = 30;

    #[cfg(target_os = "linux")]
    extern "C" {
        // prctl(2), variadic in C; its option arguments are unsigned long.
        pub(super) fn prctl(option: i32, ...) -> i32;
    }

    /// Set this thread's timer slack to 1 µs.
    #[cfg(target_os = "linux")]
    pub(super) fn tighten() {
        // SAFETY: `prctl(PR_SET_TIMERSLACK, n)` only sets a per-thread
        // scheduling value, passed as the `unsigned long` the call
        // expects; it reads and writes no memory of ours, and a failure
        // (ignored) leaves the default slack.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1000 as std::ffi::c_ulong) };
    }

    /// No timer slack to set off Linux.
    #[cfg(not(target_os = "linux"))]
    pub(super) fn tighten() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRates;
    use crate::registry::ModelEntry;
    use rand::Rng;
    use tsda_classify::persist::SavedModel;
    use tsda_classify::{Classifier, Rocket, RocketConfig};
    use tsda_core::rng::seeded;
    use tsda_core::Dataset;

    fn fitted_rocket() -> (Rocket, Dataset) {
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(11);
        for c in 0..2usize {
            let freq = if c == 0 { 0.25 } else { 0.8 };
            for _ in 0..8 {
                let phase: f64 = rng.gen_range(0.0..1.0);
                ds.push(
                    Mts::from_dims(vec![(0..20)
                        .map(|t| (t as f64 * freq + phase).sin())
                        .collect()]),
                    c,
                );
            }
        }
        let mut rocket = Rocket::new(RocketConfig { n_kernels: 40 });
        rocket.fit(&ds, None, &mut seeded(12));
        (rocket, ds)
    }

    fn start_batcher(config: BatchConfig) -> (Batcher, Arc<ServerStats>, Dataset, Vec<usize>) {
        start_batcher_with_faults(config, None)
    }

    fn start_batcher_with_faults(
        config: BatchConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> (Batcher, Arc<ServerStats>, Dataset, Vec<usize>) {
        let (rocket, ds) = fitted_rocket();
        let offline = rocket.predict(&ds);
        let mut registry = ModelRegistry::new();
        registry
            .insert(ModelEntry::from_saved("rocket", SavedModel::Rocket(rocket), None).unwrap());
        let stats = Arc::new(ServerStats::new());
        let pipelines = Arc::new(
            PipelineRegistry::from_toml(
                "[pipeline]\nname = \"light\"\n[[stage]]\nchoose = [\"jitter\", \"scaling\"]\nprob = 0.8\n",
            )
            .unwrap(),
        );
        let batcher =
            Batcher::start(Arc::new(registry), pipelines, Arc::clone(&stats), config, faults)
                .expect("batch workers start");
        (batcher, stats, ds, offline)
    }

    #[test]
    fn concurrent_submissions_coalesce_and_match_offline() {
        let (batcher, stats, ds, offline) = start_batcher(BatchConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(40),
            ..BatchConfig::default()
        });
        let receivers: Vec<_> = ds
            .series()
            .iter()
            .map(|s| batcher.submit("rocket", s.clone()).expect("queue open"))
            .collect();
        let mut max_batch_seen = 0;
        for (rx, want) in receivers.into_iter().zip(&offline) {
            let reply = rx.recv();
            assert_eq!(reply.result.as_ref().unwrap(), want);
            max_batch_seen = max_batch_seen.max(reply.batch_size);
        }
        assert!(max_batch_seen > 1, "expected coalescing, max batch {max_batch_seen}");
        let snap = stats.snapshot();
        assert_eq!(snap.batched_items, ds.series().len() as u64);
        assert!(snap.mean_batch > 1.0, "mean batch {}", snap.mean_batch);
        batcher.shutdown();
    }

    #[test]
    fn augment_submissions_coalesce_and_match_offline() {
        use tsda_augment::declarative::{AugPipeline, PipelineConfig};
        let (batcher, _, ds, _) = start_batcher(BatchConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(40),
            ..BatchConfig::default()
        });
        let cfg = PipelineConfig::parse(
            "[pipeline]\nname = \"light\"\n[[stage]]\nchoose = [\"jitter\", \"scaling\"]\nprob = 0.8\n",
        )
        .unwrap();
        let offline = &AugPipeline::from_config(&cfg).unwrap()[0];
        let receivers: Vec<_> = ds
            .series()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                batcher.submit_augment("light", s.clone(), 7, i as u64).expect("queue open")
            })
            .collect();
        let mut max_batch_seen = 0;
        for (i, (rx, s)) in receivers.into_iter().zip(ds.series()).enumerate() {
            let reply = rx.recv();
            let got = reply.result.expect("augment succeeds");
            assert_eq!(got, offline.apply_one(s, 7, i as u64), "index {i}");
            max_batch_seen = max_batch_seen.max(reply.batch_size);
        }
        assert!(max_batch_seen > 1, "expected coalescing, max batch {max_batch_seen}");
        assert_eq!(
            batcher.submit_augment("nope", ds.series()[0].clone(), 1, 0).err(),
            Some(SubmitError::UnknownPipeline)
        );
        batcher.shutdown();
    }

    #[test]
    fn a_failed_item_step_fails_its_own_batch_only() {
        // Dispatch validates shapes before submitting; a series that
        // skipped it fails its item step, and with it its batch.
        let (batcher, _, ds, offline) = start_batcher(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(20),
            ..BatchConfig::default()
        });
        let bad = batcher.submit("rocket", Mts::zeros(2, 20)).expect("queue open");
        let good = batcher.submit("rocket", ds.series()[0].clone()).expect("queue open");
        let (bad, good) = (bad.recv(), good.recv());
        assert!(bad.result.as_ref().is_err_and(|e| e.starts_with("prediction failed")));
        if good.batch_size == 2 {
            assert_eq!(good.result, bad.result, "one error answers the whole batch");
        } else {
            assert_eq!(good.result, Ok(offline[0]));
        }
        // The next batch starts from no rows.
        let again = batcher.submit("rocket", ds.series()[1].clone()).expect("queue open").recv();
        assert_eq!(again.result, Ok(offline[1]));
        batcher.shutdown();
    }

    #[test]
    fn unknown_model_is_rejected_at_submit() {
        let (batcher, _, ds, _) = start_batcher(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..BatchConfig::default()
        });
        assert_eq!(
            batcher.submit("nope", ds.series()[0].clone()).err(),
            Some(SubmitError::UnknownModel)
        );
        batcher.shutdown();
    }

    #[test]
    fn shutdown_with_idle_worker_joins_quickly() {
        let (batcher, _, _, _) = start_batcher(BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            ..BatchConfig::default()
        });
        let start = Instant::now();
        batcher.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn full_queue_sheds_with_a_retry_hint_and_recovers() {
        // A stalling fault plan wedges the worker so the tiny queue
        // fills; submits past the cap must shed, not buffer.
        let plan = Arc::new(FaultPlan::new(
            3,
            FaultRates {
                delay_write: 0,
                partial_write: 0,
                drop_connection: 0,
                corrupt_request: 0,
                stall_worker: 1000,
                shed_load: 0,
            },
        ));
        let (batcher, _, ds, _) = start_batcher_with_faults(
            BatchConfig { max_batch: 1, max_wait: Duration::from_millis(1), queue_cap: 2 },
            Some(plan),
        );
        let mut kept = Vec::new();
        let mut shed = 0usize;
        for _ in 0..40 {
            match batcher.submit("rocket", ds.series()[0].clone()) {
                Ok(rx) => kept.push(rx),
                Err(SubmitError::Overloaded { retry_ms }) => {
                    assert!(retry_ms > 0);
                    shed += 1;
                }
                Err(e) => panic!("unexpected submit error {e:?}"),
            }
        }
        assert!(shed > 0, "expected sheds with a wedged worker");
        // Every accepted job still completes (drain guarantee).
        for rx in kept {
            assert!(rx.recv().result.is_ok(), "accepted jobs are answered");
        }
        batcher.shutdown();
    }

    #[test]
    fn fault_plan_shed_refuses_submits_deterministically() {
        let all_shed = FaultRates {
            delay_write: 0,
            partial_write: 0,
            drop_connection: 0,
            corrupt_request: 0,
            stall_worker: 0,
            shed_load: 1000,
        };
        let plan = Arc::new(FaultPlan::new(5, all_shed));
        let (batcher, _, ds, _) =
            start_batcher_with_faults(BatchConfig::default(), Some(Arc::clone(&plan)));
        for _ in 0..5 {
            assert!(matches!(
                batcher.submit("rocket", ds.series()[0].clone()),
                Err(SubmitError::Overloaded { .. })
            ));
        }
        assert!(plan.injected_total() >= 5);
        batcher.shutdown();
    }

    #[test]
    fn queue_stats_report_submits_and_sheds_per_queue() {
        let (batcher, _, ds, _) = start_batcher(BatchConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(5),
            ..BatchConfig::default()
        });
        let pending: Vec<_> = (0..4)
            .map(|_| batcher.submit("rocket", ds.series()[0].clone()).expect("queue open"))
            .collect();
        for p in pending {
            assert!(p.recv().result.is_ok());
        }
        let Value::Array(rows) = batcher.queue_stats() else { panic!("array of queue rows") };
        let rocket = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("rocket"))
            .expect("rocket row");
        assert_eq!(rocket.get("lane").and_then(Value::as_str), Some("predict"));
        assert_eq!(rocket.get("submitted").and_then(Value::as_f64), Some(4.0));
        assert_eq!(rocket.get("shed").and_then(Value::as_f64), Some(0.0));
        // Sequential submits never outrun the warm ticket pool.
        assert_eq!(rocket.get("ticket_allocs").and_then(Value::as_f64), Some(0.0));
        let light = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("light"))
            .expect("aug pipeline row");
        assert_eq!(light.get("lane").and_then(Value::as_str), Some("augment"));
        batcher.shutdown();
    }

    #[test]
    fn abandoned_jobs_still_answer_the_waiting_connection() {
        // A ReplySlot dropped without send (worker died mid-batch)
        // must post a shutdown error instead of deadlocking the waiter.
        let pool = TicketPool::<BatchReply>::warm(1);
        let ticket = pool.take().expect("warm ticket");
        let slot = ReplySlot { ticket: Arc::clone(&ticket), sent: false };
        let pending = PendingReply { ticket, pool };
        drop(slot);
        let reply = pending.recv();
        assert_eq!(reply.result.unwrap_err(), "server shutting down");
    }

    #[test]
    fn flush_window_opens_when_the_first_job_was_enqueued() {
        // A job already older than `max_wait` when the worker takes it
        // has waited out its window: it runs at once, not `max_wait`
        // after the worker woke up.
        let max_wait = Duration::from_millis(400);
        let config = BatchConfig { max_batch: 8, max_wait, queue_cap: 4 };
        let ring = Arc::new(JobRing::with_capacity(4));
        let pool = TicketPool::<BatchReply>::warm(1);
        let ticket = pool.take().expect("warm ticket");
        let enqueued = Instant::now().checked_sub(max_wait).expect("clock is past 400 ms");
        let reply = ReplySlot { ticket: Arc::clone(&ticket), sent: false };
        assert!(ring.offer(Job { payload: 7usize, enqueued, reply }).is_ok());
        let pending = PendingReply { ticket, pool };
        let stats = Arc::new(ServerStats::new());
        let worker = {
            let (ring, stats) = (Arc::clone(&ring), Arc::clone(&stats));
            std::thread::spawn(move || {
                lane_loop(&ring, config, &stats, None, |batch: &[usize], out: &mut Vec<usize>| {
                    out.extend_from_slice(batch);
                    Ok(())
                })
            })
        };
        let waited = Instant::now();
        let reply = pending.recv();
        let waited = waited.elapsed();
        ring.close();
        worker.join().expect("lane worker exits");
        assert_eq!(reply.result, Ok(7));
        assert!(waited < max_wait / 2, "answered after {waited:?}, not at once");
    }

    type TestRing = JobRing<Job<usize, usize>>;

    /// A lane of `usize` jobs running `work` on its own thread.
    fn start_lane(
        config: BatchConfig,
        work: impl LaneWork<usize, usize> + Send + 'static,
    ) -> (Arc<TestRing>, Arc<TicketPool<BatchReply<usize>>>, JoinHandle<()>) {
        let ring = Arc::new(JobRing::with_capacity(config.queue_cap));
        let worker = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || lane_loop(&ring, config, &ServerStats::new(), None, work))
        };
        (ring, TicketPool::warm(config.queue_cap), worker)
    }

    /// Enqueue `payload` now, as `Batcher::submit` does.
    fn offer(
        ring: &TestRing,
        pool: &Arc<TicketPool<BatchReply<usize>>>,
        payload: usize,
    ) -> PendingReply<BatchReply<usize>> {
        let ticket = pool.take().expect("warm ticket");
        let reply = ReplySlot { ticket: Arc::clone(&ticket), sent: false };
        assert!(ring.offer(Job { payload, enqueued: Instant::now(), reply }).is_ok());
        PendingReply { ticket, pool: Arc::clone(pool) }
    }

    /// A lane whose item step sleeps and whose batch step echoes the
    /// payloads.
    struct SlowItems(Duration);

    impl LaneWork<usize, usize> for SlowItems {
        fn item(&mut self, _payload: &usize) {
            std::thread::sleep(self.0);
        }

        fn batch(&mut self, payloads: &[usize], out: &mut Vec<usize>) -> Result<(), String> {
            out.extend_from_slice(payloads);
            Ok(())
        }
    }

    #[test]
    fn item_steps_run_while_the_window_is_open() {
        // Two jobs enqueued together, with a 30 ms item step each, in a
        // 200 ms window: both item steps run inside the window, so the
        // replies come at about 200 ms, not 200 + 2 × 30.
        let max_wait = Duration::from_millis(200);
        let config = BatchConfig { max_batch: 8, max_wait, queue_cap: 4 };
        let (ring, pool, worker) = start_lane(config, SlowItems(Duration::from_millis(30)));
        let sent = Instant::now();
        let (a, b) = (offer(&ring, &pool, 1), offer(&ring, &pool, 2));
        let (a, b) = (a.recv(), b.recv());
        let waited = sent.elapsed();
        ring.close();
        worker.join().expect("lane worker exits");
        assert_eq!((a.result, b.result), (Ok(1), Ok(2)));
        assert_eq!((a.batch_size, b.batch_size), (2, 2));
        assert!(waited >= max_wait, "answered after {waited:?}, before the window closed");
        assert!(
            waited < max_wait + Duration::from_millis(45),
            "answered after {waited:?}: the item steps ran after the window, not during it"
        );
    }

    #[test]
    fn a_batch_holds_the_jobs_enqueued_before_its_window_closed() {
        // Item steps slower than the window, under steady arrivals: the
        // first batch closes on the jobs enqueued before its deadline,
        // not on every job queued by the time the lane catches up, which
        // would grow it to `max_batch`.
        let max_wait = Duration::from_millis(40);
        let config = BatchConfig { max_batch: 12, max_wait, queue_cap: 16 };
        let (ring, pool, worker) = start_lane(config, SlowItems(Duration::from_millis(50)));
        // Let the worker block on the empty ring first.
        std::thread::sleep(Duration::from_millis(20));
        let mut sent = Vec::new();
        for i in 0..12 {
            let before = Instant::now();
            let pending = offer(&ring, &pool, i);
            sent.push((before, Instant::now(), pending));
            std::thread::sleep(Duration::from_millis(10));
        }
        let replies: Vec<_> = sent.into_iter().map(|(b, a, p)| (b, a, p.recv())).collect();
        ring.close();
        worker.join().expect("lane worker exits");
        for (i, (_, _, reply)) in replies.iter().enumerate() {
            assert_eq!(reply.result, Ok(i), "job {i}");
        }
        // Job 0 was enqueued between `opened` and `opened_by`.
        let (opened, opened_by, ref first) = replies[0];
        let size = first.batch_size;
        assert!((1..12).contains(&size), "the first batch took {size} jobs");
        for (i, (before, _, _)) in replies[..size].iter().enumerate() {
            assert!(
                *before < opened_by + max_wait,
                "job {i}, enqueued after the window, joined it"
            );
        }
        assert!(
            replies[size].1 >= opened + max_wait,
            "job {size}, enqueued inside the window, was left out of it"
        );
    }

    #[test]
    fn with_no_window_a_batch_takes_the_jobs_already_queued() {
        // `max_wait` 0: the jobs queued when the worker takes the first
        // one share its batch, item steps and all.
        let config = BatchConfig { max_batch: 8, max_wait: Duration::ZERO, queue_cap: 4 };
        let ring = Arc::new(JobRing::with_capacity(config.queue_cap));
        let pool = TicketPool::warm(config.queue_cap);
        let pending: Vec<_> = (0..3).map(|i| offer(&ring, &pool, i)).collect();
        let worker = {
            let ring = Arc::clone(&ring);
            let work = SlowItems(Duration::from_millis(5));
            std::thread::spawn(move || lane_loop(&ring, config, &ServerStats::new(), None, work))
        };
        let sizes: Vec<usize> = pending.into_iter().map(|p| p.recv().batch_size).collect();
        ring.close();
        worker.join().expect("lane worker exits");
        assert_eq!(sizes, [3, 3, 3]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn lanes_run_with_a_1us_timer_slack() {
        let config = BatchConfig { max_batch: 1, max_wait: Duration::from_millis(1), queue_cap: 1 };
        let read_slack = |payloads: &[usize], out: &mut Vec<usize>| -> Result<(), String> {
            // SAFETY: `prctl(PR_GET_TIMERSLACK)` returns this thread's
            // timer slack and touches no memory of ours.
            let ns = unsafe { timer_slack::prctl(timer_slack::PR_GET_TIMERSLACK) };
            out.extend(payloads.iter().map(|_| ns as usize));
            Ok(())
        };
        let (ring, pool, worker) = start_lane(config, read_slack);
        let reply = offer(&ring, &pool, 0).recv();
        ring.close();
        worker.join().expect("lane worker exits");
        let ns = reply.result.expect("the lane answers");
        assert!(ns <= 1000, "the lane thread's timer slack is {ns} ns");
    }

    #[test]
    fn tickets_recycle_through_the_pool_without_stale_replies() {
        let pool = TicketPool::<BatchReply>::warm(1);
        for round in 0..3 {
            let ticket = pool.take().expect("pool stays warm across rounds");
            let slot = ReplySlot { ticket: Arc::clone(&ticket), sent: false };
            let pending = PendingReply { ticket, pool: Arc::clone(&pool) };
            slot.send(BatchReply { result: Ok(round), batch_size: 1, micros: round as u64 });
            let reply = pending.recv();
            assert_eq!(reply.result.unwrap(), round, "fresh value each round, never stale");
        }
    }
}
