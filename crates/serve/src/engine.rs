//! The serving engine: the job lifecycle over long-lived worker threads.
//!
//! The engine drives the same sans-IO [`Coordinator`] as the cluster,
//! through the `Lifecycle` both backends share: one lock over the job
//! table, coalescing, the scheduler and drain state, with the result
//! cache above it. Submission is admission-controlled: a submission that
//! finds the scheduler's admission bound full is refused immediately
//! (the router turns that into `429 Too Many Requests`) — the server
//! never buffers unbounded work. Before a spec is admitted it passes the
//! result cache (serve a completed record without re-executing) and the
//! in-flight map (attach to an identical queued or running job instead
//! of duplicating it).
//!
//! Worker threads pull [`Batch`]es, not single jobs: the scheduler groups
//! pending jobs by benchmark×size (deficit-round-robin across QoS
//! classes), and a thread starts the batch's jobs back to back with
//! warm-start amortization — the first job pays benchmark warmup, the
//! followers skip it. `ExecPolicy::Auto` jobs are resolved through the
//! per-group scaling model ([`sched::pick_threads`]) instead of a static
//! core count. Stream frames ride the same table and scheduler, one
//! group per stream, without a coalescing digest.
//!
//! Terminal jobs are **retired** from the job table after
//! [`EngineConfig::retire_ttl`] (a poll-grace window): ids stay monotone,
//! but a long-lived daemon's memory no longer grows with every job it
//! has ever run. Polling a retired id answers `404`, same as an id that
//! never existed.
//!
//! Draining ([`Engine::drain`]) closes admission: jobs already started
//! run to completion, everything still waiting is rejected (`503` when
//! polled) — in the scheduler at once, in a pulled batch when its thread
//! reaches it — and the threads exit once nothing is left. The
//! [`DrainReport`] counts **only the work that was open (queued or
//! running) when the drain began** — not lifetime totals.

use crate::backend::{Lifecycle, Payload};
use crate::cache::DEFAULT_CACHE_CAPACITY;
use crate::coord::{Coordinator, JobState, DEFAULT_RETIRE_TTL};
use crate::sched::{self, Batch, JobClass, SchedConfig};
use crate::shutdown::DrainReport;
use crate::stream::{
    self, FrameDecision, FrameTask, FrameTicket, StreamEntry, StreamRefused, StreamStats,
    StreamStatus, StreamTable, MAX_STREAMS,
};
use sdvbs_core::ExecPolicy;
use sdvbs_exec::ClockHandle;
use sdvbs_runner::{execute_job_warm, size_label, HostMeta, Job, RunRecord, RunStatus};
use sdvbs_stream::{fold_digest, StreamSpec};
use sdvbs_trace::jsonl::Value;
use sdvbs_trace::{alloc_track, now_us, MetricsRegistry, Phase, TraceEvent};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Retained samples per benchmark×size×threads execution histogram — the
/// scaling model's observation window.
const EXEC_HISTORY_WINDOW: usize = 64;

/// Retained samples per stream's frame-latency histogram.
const FRAME_LATENCY_WINDOW: usize = 1024;

/// Engine sizing and test instrumentation.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// The admission bound: jobs waiting in the scheduler, not yet pulled
    /// by a worker thread. Submissions that find it full are refused with
    /// [`Submission::QueueFull`].
    pub queue_capacity: usize,
    /// Per-job watchdog deadline (see [`sdvbs_runner::supervise`]).
    pub timeout: Option<Duration>,
    /// Deterministic test instrument: each worker sleeps this long after
    /// picking a job up, *before* executing it. Tests use the hold window
    /// to observe a job in the `running` state, fill the queue behind it,
    /// and drive admission-control and drain paths without racing the
    /// benchmark's actual runtime. `None` (the default) in production.
    pub hold: Option<Duration>,
    /// Scheduler knobs: batch window and DRR quanta.
    pub sched: SchedConfig,
    /// Result-cache bound (`--cache-capacity`).
    pub cache_capacity: usize,
    /// Poll-grace window: how long a terminal job stays pollable before
    /// its table entry is retired.
    pub retire_ttl: Duration,
    /// The clock retirement ages against — virtual under `sdvbs-sim`.
    pub clock: ClockHandle,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            queue_capacity: 16,
            timeout: None,
            hold: None,
            sched: SchedConfig::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            retire_ttl: DEFAULT_RETIRE_TTL,
            clock: ClockHandle::system(),
        }
    }
}

/// What an engine job executes: a one-shot benchmark spec, or one frame
/// of an open stream.
#[derive(Debug, Clone)]
enum Work {
    Bench(Job),
    Frame(FrameTask),
}

impl Payload for Work {
    fn bench(spec: Job) -> Self {
        Work::Bench(spec)
    }
    fn spec(&self) -> Option<&Job> {
        match self {
            Work::Bench(spec) => Some(spec),
            Work::Frame(_) => None,
        }
    }
}

/// How the engine answered a submission.
#[derive(Debug, Clone)]
pub enum Submission {
    /// Served from the result cache without executing anything. Boxed to
    /// keep the variant near the size of its siblings.
    Cached(Box<RunRecord>),
    /// Accepted as a new job with this id.
    Queued(u64),
    /// Attached to an identical in-flight job with this id.
    Coalesced(u64),
    /// The queue is at capacity; retry later (`429`).
    QueueFull,
    /// The engine is draining; no new work is accepted (`503`).
    Draining,
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// `"queued"`, `"running"`, `"done"`, or `"rejected"`.
    pub state: &'static str,
    /// The run record, once done.
    pub record: Option<RunRecord>,
    /// The rejection reason when rejected; a stream frame's summary when
    /// done.
    pub detail: String,
}

impl JobSnapshot {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, "done" | "rejected")
    }
}

/// The scheduler group key a spec batches under: `benchmark|size`.
pub fn group_key(spec: &Job) -> String {
    format!("{}|{}", spec.benchmark, size_label(spec.size))
}

/// The benchmark-serving engine. Construct with [`Engine::start`]; always
/// wrapped in an [`Arc`] because the worker threads hold a reference.
pub struct Engine {
    life: Lifecycle<Work>,
    trace: Mutex<Vec<TraceEvent>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    streams: Mutex<StreamTable>,
    cfg: EngineConfig,
    auto_threads: usize,
    host: HostMeta,
}

impl Engine {
    /// Builds the engine and spawns its worker threads.
    pub fn start(cfg: EngineConfig) -> Arc<Engine> {
        let engine = Arc::new(Engine {
            life: Lifecycle::new(
                Coordinator::local(&cfg),
                cfg.cache_capacity,
                cfg.clock.clone(),
            ),
            trace: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            streams: Mutex::new(StreamTable::default()),
            auto_threads: ExecPolicy::Auto.worker_count(),
            host: HostMeta::collect(),
            cfg,
        });
        let mut handles = Vec::new();
        for w in 0..engine.cfg.workers.max(1) {
            let engine = Arc::clone(&engine);
            handles.push(
                thread::Builder::new()
                    .name(format!("sdvbs-serve-worker-{w}"))
                    .spawn(move || engine.worker_loop(w))
                    .expect("spawning an engine worker"),
            );
        }
        *engine
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handles;
        engine
    }

    /// Submits a spec. `fresh` bypasses both the cache lookup and
    /// coalescing — the client explicitly wants a re-execution. `class`
    /// picks the QoS lane the job is scheduled in.
    pub fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        self.life.submit(spec, fresh, class)
    }

    /// A snapshot of job `id`, or `None` for an unknown (or retired) id.
    pub fn get(&self, id: u64) -> Option<JobSnapshot> {
        self.life.get(id)
    }

    /// Long-poll: blocks until job `id` reaches a terminal state or
    /// `wait` elapses, then returns its (possibly still non-terminal)
    /// snapshot. `None` for an unknown or retired id.
    pub fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        self.life.wait_terminal(id, wait)
    }

    /// Current number of entries in the job table (tests pin the
    /// retirement bound with this).
    pub fn jobs_table_len(&self) -> usize {
        self.life.lock().table_len()
    }

    /// Lifetime LRU evictions from the result cache.
    pub fn cache_evictions(&self) -> u64 {
        self.life.cache.evictions()
    }

    /// Starts and completes a graceful drain: refuses new submissions,
    /// lets started jobs finish, rejects everything still waiting, then
    /// joins the worker threads. Blocks until every job that was open
    /// when the drain began is terminal. Idempotent — a second call just
    /// waits for the first drain's state.
    ///
    /// The report counts **only the work resolved by this drain**: jobs
    /// queued or running at the moment the drain began. Jobs that were
    /// already terminal are history, not drain work.
    pub fn drain(&self) -> DrainReport {
        self.begin_drain();
        let report = self.life.wait_quiescent().drain_work_report();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        report
    }

    /// Starts the drain without waiting for it: refuses new submissions
    /// and rejects every job still waiting in the scheduler. The shutdown
    /// endpoint calls this inline before responding, so a submission that
    /// arrives after the shutdown response is deterministically answered
    /// `503`, never `429`.
    pub fn begin_drain(&self) {
        let frames: Vec<FrameTask> = {
            let mut core = self.life.lock();
            let rejected = self.life.begin_drain(&mut core);
            rejected
                .into_iter()
                .filter_map(|id| match core.job(id).map(|job| &job.payload) {
                    Some(Work::Frame(task)) => Some(task.clone()),
                    _ => None,
                })
                .collect()
        };
        // These frames never reach a thread, so their streams' counts
        // settle here. No started frame waits on their turn: a stream's
        // frames leave the scheduler in order.
        for task in frames {
            if let Some(stream) = self.stream_entry(task.stream) {
                self.note_frame_rejected(&stream);
            }
        }
    }

    /// Whether a drain has started.
    pub fn is_draining(&self) -> bool {
        self.life.lock().is_draining()
    }

    /// Opens a stream: validates the spec, builds its stateful pipeline,
    /// and allocates it a trace track. Refused while draining or at the
    /// [`MAX_STREAMS`] open-stream cap.
    ///
    /// # Errors
    ///
    /// [`StreamRefused::Draining`], [`StreamRefused::LimitReached`], or
    /// [`StreamRefused::BadSpec`].
    pub fn open_stream(&self, spec: StreamSpec) -> Result<u64, StreamRefused> {
        if self.is_draining() {
            return Err(StreamRefused::Draining);
        }
        let pipeline = stream::build_for(&spec)?;
        let mut tbl = self.lock_streams();
        self.sweep_streams(&mut tbl);
        if tbl.open_count() >= MAX_STREAMS {
            self.life.incr("streams_refused_limit");
            return Err(StreamRefused::LimitReached);
        }
        let id = tbl.next_id;
        tbl.next_id += 1;
        let track = alloc_track();
        self.push_trace(TraceEvent::new(
            format!("stream {id} ({})", spec.pipeline.label()),
            "meta",
            Phase::Meta,
            0,
            track,
        ));
        tbl.streams
            .insert(id, Arc::new(StreamEntry::new(id, spec, track, pipeline)));
        self.life.incr("streams_opened");
        Ok(id)
    }

    /// Submits the next frame of stream `stream_id`. The backpressure
    /// policy decides its fate at admission: process at full size,
    /// process degraded, or drop (counted, never enqueued). A dropped
    /// frame is a *successful* submission — the ticket says so — because
    /// shedding is the declared contract, not a failure.
    ///
    /// # Errors
    ///
    /// [`StreamRefused::NoSuchStream`], [`StreamRefused::Closed`], or
    /// [`StreamRefused::Draining`] (the frame is then uncounted — the
    /// client knows it never entered the stream).
    pub fn submit_frame(&self, stream_id: u64) -> Result<FrameTicket, StreamRefused> {
        let entry = self
            .stream_entry(stream_id)
            .ok_or(StreamRefused::NoSuchStream)?;
        // Lock order: stream stats, then the core. Workers take them one
        // at a time, never nested in the other direction.
        let mut stats = entry.lock_stats();
        if stats.closed {
            return Err(StreamRefused::Closed);
        }
        let frame = stats.submitted;
        let decision = stats.admit(entry.spec.policy, entry.sla_ms);
        if decision == FrameDecision::Drop {
            return Ok(self.shed_frame(stats, stream_id, frame));
        }
        let degraded = matches!(decision, FrameDecision::Process { degraded: true });
        let task = FrameTask {
            stream: stream_id,
            frame,
            seq: stats.next_seq,
            degraded,
            submitted: Instant::now(),
        };
        let mut core = self.life.lock();
        self.life.retire(&mut core);
        let group = format!("stream:{stream_id}");
        let outcome = core.admit(Work::Frame(task), &group, JobClass::Interactive, None, true);
        drop(core);
        match outcome {
            Submission::Queued(id) => {
                self.life.changed.notify_all();
                stats.submitted += 1;
                stats.next_seq += 1;
                stats.in_flight += 1;
                drop(stats);
                self.life.incr("stream_frames_submitted");
                if degraded {
                    self.life.incr("stream_frames_degraded");
                    self.life
                        .incr(&format!("stream_{stream_id}_frames_degraded"));
                }
                Ok(FrameTicket {
                    job_id: Some(id),
                    frame,
                    dropped: false,
                    degraded,
                })
            }
            // Queue pressure sheds the frame under either policy —
            // counted, like a policy drop, so accounting stays exact.
            Submission::QueueFull => Ok(self.shed_frame(stats, stream_id, frame)),
            _ => Err(StreamRefused::Draining),
        }
    }

    /// Counts frame `frame` of stream `stream_id` as dropped.
    fn shed_frame(
        &self,
        mut stats: MutexGuard<'_, StreamStats>,
        stream_id: u64,
        frame: u64,
    ) -> FrameTicket {
        stats.submitted += 1;
        stats.dropped += 1;
        drop(stats);
        self.life.incr("stream_frames_submitted");
        self.life.incr("stream_frames_dropped");
        self.life
            .incr(&format!("stream_{stream_id}_frames_dropped"));
        FrameTicket {
            job_id: None,
            frame,
            dropped: true,
            degraded: false,
        }
    }

    /// Counts one of `stream`'s accepted frames as rejected by the drain.
    fn note_frame_rejected(&self, stream: &StreamEntry) {
        let mut stats = stream.lock_stats();
        stats.in_flight = stats.in_flight.saturating_sub(1);
        stats.rejected += 1;
        drop(stats);
        self.life.incr("stream_frames_rejected");
    }

    /// A point-in-time status of stream `id`, or `None` if unknown.
    pub fn stream_status(&self, id: u64) -> Option<StreamStatus> {
        Some(self.stream_entry(id)?.status())
    }

    /// Closes stream `id`: no further frames are accepted; in-flight
    /// frames finish normally. Returns the status at close, or `None`
    /// for an unknown id. Idempotent.
    pub fn close_stream(&self, id: u64) -> Option<StreamStatus> {
        let entry = self.stream_entry(id)?;
        {
            let mut stats = entry.lock_stats();
            if !stats.closed {
                stats.closed = true;
                stats.closed_at = Some(self.cfg.clock.now());
            } else {
                return Some(entry.status());
            }
        }
        self.life.incr("streams_closed");
        Some(entry.status())
    }

    fn stream_entry(&self, id: u64) -> Option<Arc<StreamEntry>> {
        self.lock_streams().streams.get(&id).cloned()
    }

    fn lock_streams(&self) -> MutexGuard<'_, StreamTable> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Retires closed streams with no in-flight frames once their close
    /// is older than the poll-grace TTL — same contract as job-table
    /// retirement: a long-lived daemon's memory does not grow with every
    /// stream it has ever served.
    fn sweep_streams(&self, tbl: &mut StreamTable) {
        let now = self.cfg.clock.now();
        let ttl = self.cfg.retire_ttl;
        let before = tbl.streams.len();
        tbl.streams.retain(|_, entry| {
            let stats = entry.lock_stats();
            !(stats.closed
                && stats.in_flight == 0
                && stats.closed_at.is_some_and(|at| at + ttl <= now))
        });
        let retired = before - tbl.streams.len();
        if retired > 0 {
            self.life.incr("streams_retired");
        }
    }

    /// Renders the engine's process-lifetime metrics in the Prometheus
    /// text format under the `sdvbs_serve` prefix.
    pub fn metrics_text(&self) -> String {
        self.life.metrics().to_prometheus("sdvbs_serve")
    }

    /// Folds an external registry (e.g. a connection thread's request
    /// stats) into the engine's lifetime registry.
    pub fn merge_metrics(&self, other: &MetricsRegistry) {
        self.life.metrics().merge(other);
    }

    /// Current value of a lifetime counter (for tests and the smoke gate).
    pub fn counter(&self, name: &str) -> u64 {
        self.life.metrics().counter(name)
    }

    /// Execution-side trace events: one track per engine worker carrying
    /// a span per batch, with the jobs' spans nested inside.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A standalone copy of the lifetime registry, for shipping over the
    /// wire to a coordinator.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        out.merge(&self.life.metrics());
        out
    }

    fn push_trace(&self, event: TraceEvent) {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    fn worker_loop(&self, worker: usize) {
        // Engine workers record on low track ids (one per worker);
        // connection tracks come from `alloc_track()` which starts at
        // `DYNAMIC_TRACK_BASE`, so the two ranges never collide.
        let track = worker as u32;
        self.push_trace(TraceEvent::new(
            format!("exec {worker}"),
            "meta",
            Phase::Meta,
            0,
            track,
        ));
        while let Some(batch) = self.next_batch() {
            self.life.observe("batch_size", batch.ids.len() as f64);
            let mut begin = TraceEvent::new(
                format!("batch {}", batch.group),
                "batch",
                Phase::Begin,
                now_us(),
                track,
            );
            begin.args = vec![
                ("size".to_string(), Value::Num(batch.ids.len() as f64)),
                (
                    "class".to_string(),
                    Value::Str(batch.class.label().to_string()),
                ),
            ];
            self.push_trace(begin);
            // The first job in the batch pays warmup; followers start warm
            // — same benchmark×size just ran on this thread. Stream-frame
            // batches dispatch through the frame path instead.
            let frames = batch.group.starts_with("stream:");
            let mut warm = false;
            let n = batch.ids.len();
            for (i, &id) in batch.ids.iter().enumerate() {
                if frames {
                    self.run_frame(&batch, id, worker, i + 1 == n);
                } else if self.run_one(&batch, id, worker, warm, i + 1 == n) {
                    warm = true;
                }
            }
        }
    }

    /// Blocks until the scheduler has a batch for this thread, or returns
    /// `None` once a drain has begun and nothing is left — the exit
    /// signal.
    fn next_batch(&self) -> Option<Batch> {
        let mut core = self.life.lock();
        loop {
            if let Some(batch) = core.pop_batch() {
                return Some(batch);
            }
            if core.is_draining() {
                return None;
            }
            core = self
                .life
                .changed
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the dispatch-window span. Called for the batch's last job
    /// *before* that job's terminal state becomes externally visible — a
    /// trace fetched after every submitted job polls done therefore never
    /// catches the window still open.
    fn push_batch_end(&self, batch: &Batch, track: u32) {
        self.push_trace(TraceEvent::new(
            format!("batch {}", batch.group),
            "batch",
            Phase::End,
            now_us(),
            track,
        ));
    }

    /// Starts job `id` of `batch` on this thread ([`Coordinator::start`]).
    /// A job reached after the drain began is rejected instead; then the
    /// window span closes under the core lock, so the rejection is never
    /// visible before it.
    fn start_job(&self, batch: &Batch, id: u64, worker: usize, last: bool) -> Result<Work, Work> {
        let mut core = self.life.lock();
        let started = core.start(id, worker);
        if started.is_err() {
            self.life.incr("rejected_draining");
            if last {
                self.push_batch_end(batch, worker as u32);
            }
        }
        drop(core);
        self.life.changed.notify_all();
        started
    }

    /// Executes (or drain-rejects) one job of a batch. Returns whether the
    /// benchmark actually ran (and the batch is therefore warm).
    fn run_one(&self, batch: &Batch, id: u64, worker: usize, warm: bool, last: bool) -> bool {
        let spec = match self.start_job(batch, id, worker, last) {
            Ok(Work::Bench(spec)) => spec,
            Ok(Work::Frame(_)) => unreachable!("frame jobs dispatch through run_frame"),
            Err(_) => return false,
        };
        let track = worker as u32;
        if let Some(hold) = self.cfg.hold {
            thread::sleep(hold);
        }
        // Auto policies go through the scaling model; everything else is
        // exactly what the client asked for.
        let tuned = matches!(spec.policy, ExecPolicy::Auto).then(|| {
            let reg = self.life.metrics();
            sched::pick_threads(&reg, &batch.group, &spec.benchmark, self.auto_threads)
        });
        let auto_threads = tuned.unwrap_or(self.auto_threads);
        self.push_trace(TraceEvent::new(
            spec.benchmark.clone(),
            "job",
            Phase::Begin,
            now_us(),
            track,
        ));
        let started = Instant::now();
        let result = execute_job_warm(&spec, id, auto_threads, &self.host, self.cfg.timeout, warm);
        let exec_ms = started.elapsed().as_secs_f64() * 1e3;
        self.push_trace(TraceEvent::new(
            spec.benchmark.clone(),
            "job",
            Phase::End,
            now_us(),
            track,
        ));
        if last {
            self.push_batch_end(batch, track);
        }
        match result {
            Ok(record) => {
                // Feed the scaling model: the best pipeline time at this
                // thread width, windowed so a long-lived daemon tracks
                // recent behavior in bounded memory.
                if record.status == RunStatus::Completed && record.min_ms > 0.0 {
                    self.life.metrics().observe_windowed(
                        &sched::exec_hist_name(&batch.group, record.threads),
                        record.min_ms,
                        EXEC_HISTORY_WINDOW,
                    );
                }
                if tuned.is_some() {
                    self.life.incr("sched_tuned_jobs");
                }
                self.life.done(worker, id, record, exec_ms);
                true
            }
            Err(e) => {
                self.life.invalid(worker, id, &e.to_string());
                false
            }
        }
    }

    /// Executes (or drain-rejects) one stream frame. Frames never touch
    /// the result cache or the in-flight map — each is a unique stateful
    /// step of its pipeline. The stream's sequence gate serializes
    /// execution: even when frames of one stream land on several
    /// workers, they process strictly in submission order (pipeline
    /// state makes order a correctness property).
    fn run_frame(&self, batch: &Batch, id: u64, worker: usize, last: bool) {
        let track = worker as u32;
        let (task, running) = match self.start_job(batch, id, worker, last) {
            Ok(Work::Frame(task)) => (task, true),
            Err(Work::Frame(task)) => (task, false),
            _ => unreachable!("stream-group jobs always carry frame payloads"),
        };
        let Some(stream) = self.stream_entry(task.stream) else {
            // Unreachable in practice: a stream is only swept once it has
            // no in-flight frames. Account the frame as failed anyway
            // rather than wedging the drain.
            if running {
                if last {
                    self.push_batch_end(batch, track);
                }
                let why = JobState::Rejected("stream no longer exists".into());
                self.finish_frame(worker, id, why);
            }
            return;
        };
        if !running {
            // Drain-rejected: wait for this frame's turn, so the stream's
            // execution order never inverts, then open the gate for the
            // next frame. The gate is taken with no other lock held.
            stream.wait_turn(task.seq);
            stream.advance_turn(task.seq);
            self.note_frame_rejected(&stream);
            return;
        }
        stream.wait_turn(task.seq);
        self.push_trace(TraceEvent::new(
            format!("frame {}", task.frame),
            "frame",
            Phase::Begin,
            now_us(),
            stream.track,
        ));
        let started = Instant::now();
        // Unlike the bench path, the hold window counts as frame
        // execution: it stands in for per-frame processing cost, and the
        // backpressure estimator must see that cost for held tests to
        // exercise the backlog projection. Since it models compute over
        // the frame's pixels, a degraded frame pays only the degraded
        // size's share of it — otherwise degrading could never shed a
        // held stream's load.
        if let Some(hold) = self.cfg.hold {
            let hold = if task.degraded {
                let (fw, fh) = stream.spec.full_dims();
                let (dw, dh) = stream.spec.degraded_dims();
                hold.mul_f64((dw * dh) as f64 / (fw * fh) as f64)
            } else {
                hold
            };
            thread::sleep(hold);
        }
        let result = {
            let mut pipeline = stream
                .pipeline
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            pipeline.process(task.frame, task.degraded)
        };
        let exec_ms = started.elapsed().as_secs_f64() * 1e3;
        self.push_trace(TraceEvent::new(
            format!("frame {}", task.frame),
            "frame",
            Phase::End,
            now_us(),
            stream.track,
        ));
        if last {
            self.push_batch_end(batch, track);
        }
        stream.advance_turn(task.seq);
        let latency_ms = task.submitted.elapsed().as_secs_f64() * 1e3;
        let completed = result.is_ok();
        let state = {
            let mut stats = stream.lock_stats();
            stats.in_flight = stats.in_flight.saturating_sub(1);
            stats.note_exec(exec_ms);
            let violated = stats.note_latency(latency_ms, stream.sla_ms);
            if violated {
                self.life.incr("stream_sla_violations");
                self.life
                    .incr(&format!("stream_{}_sla_violations", stream.id));
            }
            match result {
                Ok(r) => {
                    stats.completed += 1;
                    if task.degraded {
                        stats.completed_degraded += 1;
                    }
                    stats.rolling_digest = fold_digest(stats.rolling_digest, r.digest);
                    let detail = r.detail.clone();
                    stats.push_recent(stream::summarize(&r, latency_ms));
                    JobState::Finished(detail)
                }
                Err(e) => {
                    stats.failed += 1;
                    JobState::Rejected(e.to_string())
                }
            }
        };
        self.life.metrics().observe_windowed(
            &format!("stream_{}_frame_latency_ms", stream.id),
            latency_ms,
            FRAME_LATENCY_WINDOW,
        );
        self.life.observe("stream_frame_exec_ms", exec_ms);
        if completed {
            self.life.incr("stream_frames_completed");
        } else {
            self.life.incr("stream_frames_failed");
        }
        self.finish_frame(worker, id, state);
    }

    /// Moves frame job `id`, running on this thread, to `state`.
    fn finish_frame(&self, worker: usize, id: u64, state: JobState) {
        self.life.lock().on_result(worker, id, state);
        self.life.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::InputSize;
    use sdvbs_stream::{run_one_shot, DegradePolicy, PipelineKind, DIGEST_SEED};

    fn spec(seed: u64) -> Job {
        Job::new(
            "Disparity Map",
            InputSize::Custom {
                width: 32,
                height: 24,
            },
            ExecPolicy::Serial,
            seed,
            1,
        )
    }

    fn submit(engine: &Engine, spec: Job, fresh: bool) -> Submission {
        engine.submit(spec, fresh, JobClass::Interactive)
    }

    fn wait_done(engine: &Engine, id: u64) -> JobSnapshot {
        let snap = engine
            .wait_terminal(id, Duration::from_secs(60))
            .expect("job exists");
        assert!(snap.is_terminal(), "job {id} still {:?}", snap.state);
        snap
    }

    #[test]
    fn execute_then_serve_identical_spec_from_cache() {
        let engine = Engine::start(EngineConfig::default());
        let id = match submit(&engine, spec(1), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        let first = wait_done(&engine, id);
        assert_eq!(first.state, "done");
        // Second submission: served from cache, no new job id allocated.
        match submit(&engine, spec(1), false) {
            Submission::Cached(rec) => assert_eq!(rec.seed, 1),
            other => panic!("expected Cached, got {other:?}"),
        }
        assert_eq!(engine.counter("jobs_executed"), 1);
        assert_eq!(engine.counter("cache_hits"), 1);
        // fresh=1 bypasses the cache and re-executes.
        let id2 = match submit(&engine, spec(1), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        wait_done(&engine, id2);
        assert_eq!(engine.counter("jobs_executed"), 2);
        engine.drain();
    }

    #[test]
    fn identical_inflight_specs_coalesce() {
        // Hold each job 200 ms so the first is reliably in flight when
        // the duplicate arrives.
        let engine = Engine::start(EngineConfig {
            hold: Some(Duration::from_millis(200)),
            ..EngineConfig::default()
        });
        let id = match submit(&engine, spec(2), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        match submit(&engine, spec(2), false) {
            Submission::Coalesced(other) => assert_eq!(other, id),
            other => panic!("expected Coalesced, got {other:?}"),
        }
        let snap = wait_done(&engine, id);
        assert_eq!(snap.state, "done");
        assert_eq!(engine.counter("jobs_executed"), 1);
        assert_eq!(engine.counter("coalesced"), 1);
        engine.drain();
    }

    #[test]
    fn full_queue_refuses_admission() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            hold: Some(Duration::from_millis(300)),
            ..EngineConfig::default()
        });
        let first = match submit(&engine, spec(10), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        // Wait until the worker picks it up (frees the queue slot).
        while engine.get(first).unwrap().state == "queued" {
            thread::sleep(Duration::from_millis(2));
        }
        // Fill the single slot, then overflow it.
        assert!(matches!(
            submit(&engine, spec(11), false),
            Submission::Queued(_)
        ));
        assert!(matches!(
            submit(&engine, spec(12), false),
            Submission::QueueFull
        ));
        assert_eq!(engine.counter("rejected_queue_full"), 1);
        engine.drain();
    }

    #[test]
    fn drain_finishes_running_work_and_rejects_queued_work() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
            hold: Some(Duration::from_millis(300)),
            ..EngineConfig::default()
        });
        let running = match submit(&engine, spec(20), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        while engine.get(running).unwrap().state == "queued" {
            thread::sleep(Duration::from_millis(2));
        }
        let queued = match submit(&engine, spec(21), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        let report = engine.drain();
        assert_eq!(engine.get(running).unwrap().state, "done");
        assert_eq!(engine.get(queued).unwrap().state, "rejected");
        assert_eq!(
            report,
            DrainReport {
                completed: 1,
                rejected: 1,
                ..DrainReport::default()
            }
        );
        // Post-drain submissions are refused.
        assert!(matches!(
            submit(&engine, spec(22), false),
            Submission::Draining
        ));
    }

    #[test]
    fn drain_report_excludes_jobs_already_terminal_when_drain_began() {
        // Regression: DrainReport.completed used to count lifetime
        // completions. A job finished *before* the drain begins must not
        // appear in the report; only drain-open work counts.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
            ..EngineConfig::default()
        });
        let done_before = match submit(&engine, spec(30), false) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        assert_eq!(wait_done(&engine, done_before).state, "done");
        let report = engine.drain();
        assert_eq!(
            report,
            DrainReport::default(),
            "a pre-drain completion is history, not drain work"
        );
        // The job itself is still pollable (within its TTL) as done.
        assert_eq!(engine.get(done_before).unwrap().state, "done");
    }

    #[test]
    fn terminal_jobs_retire_after_the_poll_grace_ttl() {
        // retire_ttl = 0: a terminal entry is swept by the next state
        // transition or submission. Ids never come back — a retired id
        // answers None like any unknown id.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
            retire_ttl: Duration::ZERO,
            ..EngineConfig::default()
        });
        let id = match submit(&engine, spec(40), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        wait_done(&engine, id);
        // The next submission sweeps the table.
        let id2 = match submit(&engine, spec(41), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        };
        assert!(engine.get(id).is_none(), "terminal job should be retired");
        assert!(id2 > id, "ids stay monotone; slots are never reused");
        wait_done(&engine, id2);
        engine.drain();
        assert!(engine.counter("jobs_retired") >= 1);
    }

    fn stream_spec(seed: u64, fps: f64) -> StreamSpec {
        StreamSpec {
            pipeline: PipelineKind::Tracking,
            size: InputSize::Sqcif,
            seed,
            fps,
            policy: DegradePolicy::Degrade,
        }
    }

    fn one_shot_digest(spec: &StreamSpec, frames: u64) -> u64 {
        run_one_shot(spec, frames)
            .expect("one-shot reference run")
            .iter()
            .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest))
    }

    #[test]
    fn unloaded_stream_is_bit_identical_to_the_one_shot_run() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 32,
            ..EngineConfig::default()
        });
        // 1 fps → a 1000 ms per-frame budget: never pressured, so every
        // frame runs at full resolution and the digests must match the
        // one-shot reference exactly.
        let spec = stream_spec(3, 1.0);
        let id = engine.open_stream(spec).expect("open stream");
        let frames = 6u64;
        for _ in 0..frames {
            let ticket = engine.submit_frame(id).expect("submit frame");
            assert!(!ticket.dropped && !ticket.degraded);
            let snap = engine
                .wait_terminal(ticket.job_id.unwrap(), Duration::from_secs(60))
                .expect("frame job exists");
            assert_eq!(snap.state, "done");
        }
        let status = engine.stream_status(id).expect("stream status");
        assert_eq!(status.submitted, frames);
        assert_eq!(status.completed, frames);
        assert_eq!(status.dropped + status.rejected + status.failed, 0);
        assert_eq!(status.sla_violations, 0);
        assert_eq!(status.rolling_digest, one_shot_digest(&spec, frames));
        let closed = engine.close_stream(id).expect("close stream");
        assert_eq!(closed.state, "closed");
        assert!(matches!(
            engine.submit_frame(id),
            Err(StreamRefused::Closed)
        ));
        engine.drain();
    }

    #[test]
    fn burst_submission_across_workers_preserves_frame_order() {
        // Submit every frame up front with several workers: the sequence
        // gate must still execute them in order, which the rolling digest
        // proves (fold_digest is order-sensitive).
        let engine = Engine::start(EngineConfig {
            workers: 3,
            queue_capacity: 64,
            ..EngineConfig::default()
        });
        let spec = stream_spec(8, 1.0);
        let id = engine.open_stream(spec).expect("open stream");
        let frames = 10u64;
        let mut last_job = None;
        for _ in 0..frames {
            let ticket = engine.submit_frame(id).expect("submit frame");
            assert!(
                !ticket.dropped,
                "an unloaded burst within the SLA budget never drops"
            );
            last_job = ticket.job_id;
        }
        let snap = engine
            .wait_terminal(last_job.unwrap(), Duration::from_secs(60))
            .expect("last frame exists");
        assert_eq!(snap.state, "done");
        let status = engine.stream_status(id).expect("stream status");
        assert_eq!(status.completed, frames);
        assert_eq!(status.in_flight, 0);
        assert_eq!(status.rolling_digest, one_shot_digest(&spec, frames));
        engine.drain();
    }

    #[test]
    fn stream_limit_and_unknown_ids_are_refused() {
        let engine = Engine::start(EngineConfig::default());
        assert!(engine.stream_status(99).is_none());
        assert!(engine.close_stream(99).is_none());
        assert!(matches!(
            engine.submit_frame(99),
            Err(StreamRefused::NoSuchStream)
        ));
        for _ in 0..MAX_STREAMS {
            engine.open_stream(stream_spec(1, 1.0)).expect("open");
        }
        assert!(matches!(
            engine.open_stream(stream_spec(1, 1.0)),
            Err(StreamRefused::LimitReached)
        ));
        engine.drain();
        assert!(matches!(
            engine.open_stream(stream_spec(1, 1.0)),
            Err(StreamRefused::Draining)
        ));
    }

    #[test]
    fn batched_group_executes_every_job() {
        // Four same-group jobs through one worker: all must complete, and
        // the batch_size histogram must have seen a multi-job batch.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 16,
            hold: Some(Duration::from_millis(50)),
            ..EngineConfig::default()
        });
        let ids: Vec<u64> = (0..4)
            .map(|seed| match submit(&engine, spec(100 + seed), true) {
                Submission::Queued(id) => id,
                other => panic!("expected Queued, got {other:?}"),
            })
            .collect();
        for id in ids {
            assert_eq!(wait_done(&engine, id).state, "done");
        }
        assert_eq!(engine.counter("jobs_executed"), 4);
        let text = engine.metrics_text();
        assert!(
            text.contains("sdvbs_serve_batch_size"),
            "batch_size histogram missing from metrics:\n{text}"
        );
        engine.drain();
    }
}
