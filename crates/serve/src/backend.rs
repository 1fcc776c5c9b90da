//! The serving backend abstraction: one HTTP front end, two engines.
//!
//! The router and the TCP front end never execute jobs themselves — they
//! speak to a [`Backend`], and two implementations exist:
//!
//! * the single-process [`Engine`], which runs
//!   jobs on its own worker-thread pool, and
//! * the [`ClusterEngine`](crate::cluster::ClusterEngine), which shards
//!   jobs over TCP to `sdvbs-serve worker` processes.
//!
//! Both drive one job lifecycle, the sans-IO [`Coordinator`], through
//! the crate-private `Lifecycle` here: the core under one lock, the
//! result cache above it, and the two paths every submission and every
//! result take — cache-then-admit (`Lifecycle::submit`) and
//! cache-put-on-done (`Lifecycle::done`). So the result cache, request
//! coalescing, admission control, retirement and drain behave the same
//! in both modes, and a cached or coalesced answer never crosses a
//! process boundary.

use crate::cache::{cache_preimage, spec_digest, CacheLookup, ResultCache};
use crate::coord::{Coordinator, JobState};
use crate::engine::{group_key, Engine, JobSnapshot, Submission};
use crate::sched::JobClass;
use crate::shutdown::DrainReport;
use crate::stream::{FrameTicket, StreamRefused, StreamStatus};
use sdvbs_exec::ClockHandle;
use sdvbs_runner::{Job, RunRecord};
use sdvbs_stream::StreamSpec;
use sdvbs_trace::{MetricsRegistry, TraceEvent};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What the HTTP layer needs from an execution substrate. Object-safe so
/// the server holds an `Arc<dyn Backend>`.
pub trait Backend: Send + Sync {
    /// Submits a spec; `fresh` bypasses cache and coalescing, `class`
    /// picks the QoS lane the job is scheduled in.
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission;
    /// A snapshot of job `id`, or `None` for an unknown id.
    fn get(&self, id: u64) -> Option<JobSnapshot>;
    /// Long-poll: blocks until job `id` is terminal or `wait` elapses.
    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot>;
    /// Starts the drain without waiting for it.
    fn begin_drain(&self);
    /// Starts and completes a graceful drain; blocks until every job is
    /// terminal and the execution substrate has shut down.
    fn drain(&self) -> DrainReport;
    /// Whether a drain has started.
    fn is_draining(&self) -> bool;
    /// Prometheus text exposition of the backend's lifetime metrics.
    fn metrics_text(&self) -> String;
    /// Folds an external registry (e.g. a connection thread's request
    /// stats) into the backend's lifetime registry.
    fn merge_metrics(&self, other: &MetricsRegistry);
    /// Current value of a lifetime counter (tests and smoke gates).
    fn counter(&self, name: &str) -> u64;
    /// Execution-side trace events (job spans on worker tracks; in
    /// cluster mode, the merged multi-process timeline).
    fn trace_events(&self) -> Vec<TraceEvent>;
    /// Extra `key:value` JSON fields for `/healthz` (cluster mode reports
    /// worker liveness); `None` keeps the plain single-process body.
    fn health_extra(&self) -> Option<String> {
        None
    }
    /// Opens a video stream. Backends without a streaming tier (the
    /// cluster coordinator) refuse with [`StreamRefused::Unsupported`].
    ///
    /// # Errors
    ///
    /// See [`StreamRefused`].
    fn open_stream(&self, _spec: StreamSpec) -> Result<u64, StreamRefused> {
        Err(StreamRefused::Unsupported)
    }
    /// Submits the next frame of an open stream.
    ///
    /// # Errors
    ///
    /// See [`StreamRefused`].
    fn submit_frame(&self, _stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        Err(StreamRefused::Unsupported)
    }
    /// A point-in-time status of a stream, or `None` if unknown.
    fn stream_status(&self, _id: u64) -> Option<StreamStatus> {
        None
    }
    /// Closes a stream (idempotent); `None` for an unknown id.
    fn close_stream(&self, _id: u64) -> Option<StreamStatus> {
        None
    }
}

impl Backend for Engine {
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        Engine::submit(self, spec, fresh, class)
    }
    fn get(&self, id: u64) -> Option<JobSnapshot> {
        Engine::get(self, id)
    }
    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        Engine::wait_terminal(self, id, wait)
    }
    fn begin_drain(&self) {
        Engine::begin_drain(self);
    }
    fn drain(&self) -> DrainReport {
        Engine::drain(self)
    }
    fn is_draining(&self) -> bool {
        Engine::is_draining(self)
    }
    fn metrics_text(&self) -> String {
        Engine::metrics_text(self)
    }
    fn merge_metrics(&self, other: &MetricsRegistry) {
        Engine::merge_metrics(self, other);
    }
    fn counter(&self, name: &str) -> u64 {
        Engine::counter(self, name)
    }
    fn trace_events(&self) -> Vec<TraceEvent> {
        Engine::trace_events(self)
    }
    fn open_stream(&self, spec: StreamSpec) -> Result<u64, StreamRefused> {
        Engine::open_stream(self, spec)
    }
    fn submit_frame(&self, stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        Engine::submit_frame(self, stream_id)
    }
    fn stream_status(&self, id: u64) -> Option<StreamStatus> {
        Engine::stream_status(self, id)
    }
    fn close_stream(&self, id: u64) -> Option<StreamStatus> {
        Engine::close_stream(self, id)
    }
}

/// What a backend's job table carries per job. The result cache is keyed
/// by the benchmark spec inside it.
pub(crate) trait Payload: Clone {
    /// Wraps a submitted benchmark spec.
    fn bench(spec: Job) -> Self;
    /// The benchmark spec, when the payload is one.
    fn spec(&self) -> Option<&Job>;
}

impl Payload for Job {
    fn bench(spec: Job) -> Self {
        spec
    }
    fn spec(&self) -> Option<&Job> {
        Some(self)
    }
}

/// The job lifecycle both backends drive: the [`Coordinator`] under one
/// lock, the condvar every transition notifies, the result cache above
/// the core, the lifetime metrics, and the clock retirement ages against.
pub(crate) struct Lifecycle<P> {
    core: Mutex<Coordinator<P>>,
    /// Notified on every transition a waiter might care about.
    pub(crate) changed: Condvar,
    pub(crate) cache: ResultCache,
    metrics: Mutex<MetricsRegistry>,
    clock: ClockHandle,
}

impl<P: Payload> Lifecycle<P> {
    pub(crate) fn new(core: Coordinator<P>, cache_capacity: usize, clock: ClockHandle) -> Self {
        Lifecycle {
            core: Mutex::new(core),
            changed: Condvar::new(),
            cache: ResultCache::with_capacity(cache_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            clock,
        }
    }

    /// The core; every transition happens under this lock.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Coordinator<P>> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn metrics(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn incr(&self, name: &str) {
        self.metrics().incr(name, 1);
    }

    pub(crate) fn observe(&self, name: &str, value: f64) {
        self.metrics().observe(name, value);
    }

    /// Retires the terminal jobs whose poll-grace TTL has passed. Every
    /// admission runs it, under the core lock.
    pub(crate) fn retire(&self, core: &mut Coordinator<P>) {
        let retired = core.retire_expired(self.clock.now());
        if retired > 0 {
            self.metrics().incr("jobs_retired", retired as u64);
        }
    }

    /// The submission path: refused while draining; answered from the
    /// result cache unless `fresh`; else admitted, coalescing onto an
    /// identical in-flight job unless `fresh`.
    pub(crate) fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        let digest = spec_digest(&spec);
        let key = (!fresh).then(|| cache_preimage(&spec));
        let mut core = self.lock();
        self.retire(&mut core);
        if let Some(key) = key.filter(|_| !core.is_draining()) {
            match self.cache.get(digest, &key) {
                CacheLookup::Hit(record) => {
                    self.incr("cache_hits");
                    return Submission::Cached(record);
                }
                // A 64-bit digest collision: treat it as a miss so the
                // right spec executes, and surface it.
                CacheLookup::Collision => self.incr("cache_key_collisions"),
                CacheLookup::Miss => {}
            }
        }
        let group = group_key(&spec);
        let outcome = core.admit(P::bench(spec), &group, class, Some(digest), fresh);
        drop(core);
        match outcome {
            Submission::Draining => self.incr("rejected_draining"),
            Submission::Coalesced(_) => self.incr("coalesced"),
            Submission::QueueFull => self.incr("rejected_queue_full"),
            Submission::Queued(_) => {
                self.incr("jobs_submitted");
                self.incr(&format!("submitted_{}", class.label()));
                self.changed.notify_all();
            }
            Submission::Cached(_) => {}
        }
        outcome
    }

    /// The result path: worker `w` ran job `id` to `record` in `exec_ms`.
    /// The job goes done and its record enters the result cache under
    /// the core lock, so an identical submission finds either the
    /// in-flight job or its record, never neither. A late reply changes
    /// nothing.
    pub(crate) fn done(&self, w: usize, id: u64, record: RunRecord, exec_ms: f64) {
        let mut core = self.lock();
        let Some(job) = core.on_done(w, id, record) else {
            return;
        };
        if let (Some(spec), Some(digest), JobState::Done(record)) =
            (job.payload.spec(), job.digest, &job.state)
        {
            let outcome = self.cache.put(digest, &cache_preimage(spec), record);
            if outcome.evicted {
                self.incr("cache_evictions");
            }
            if outcome.collided {
                self.incr("cache_key_collisions");
            }
        }
        self.incr("jobs_executed");
        self.observe("job_exec_ms", exec_ms);
        drop(core);
        self.changed.notify_all();
    }

    /// Worker `w` refused job `id` as invalid. A late reply changes
    /// nothing.
    pub(crate) fn invalid(&self, w: usize, id: u64, detail: &str) {
        let mut core = self.lock();
        if core.on_rejected(w, id, detail) {
            self.incr("jobs_invalid");
        }
        drop(core);
        self.changed.notify_all();
    }

    /// Closes admission and rejects every job still waiting in the
    /// scheduler. Returns the rejected ids (empty after the first call).
    pub(crate) fn begin_drain(&self, core: &mut Coordinator<P>) -> Vec<u64> {
        let rejected = core.begin_drain();
        if !rejected.is_empty() {
            self.metrics()
                .incr("rejected_draining", rejected.len() as u64);
        }
        self.changed.notify_all();
        rejected
    }

    /// Blocks until every admitted job is terminal, and returns the core
    /// still locked.
    pub(crate) fn wait_quiescent(&self) -> MutexGuard<'_, Coordinator<P>> {
        let mut core = self.lock();
        while !core.quiescent() {
            core = self
                .changed
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
        core
    }

    /// A snapshot of job `id`, or `None` for an unknown or retired id.
    pub(crate) fn get(&self, id: u64) -> Option<JobSnapshot> {
        self.lock().snapshot(id)
    }

    /// Long-poll: re-reads job `id`'s snapshot until it is terminal or
    /// `wait` elapses, parking on `changed` between reads. `None` for an
    /// unknown or retired id.
    pub(crate) fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + wait;
        let mut core = self.lock();
        loop {
            let snap = core.snapshot(id)?;
            let now = Instant::now();
            if snap.is_terminal() || now >= deadline {
                return Some(snap);
            }
            core = self
                .changed
                .wait_timeout(core, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}
