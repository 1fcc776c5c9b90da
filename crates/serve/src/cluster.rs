//! The cluster coordinator: a [`Backend`] that shards jobs over TCP to
//! `sdvbs-serve worker` processes.
//!
//! The coordinator keeps the whole serving front local — the result
//! cache, request coalescing, and admission control are exactly the
//! single-process mechanisms, sitting above a dispatch layer instead of a
//! thread pool. An admitted job is **sharded** to its home worker
//! (`digest % workers`, so identical specs always land on the same
//! process and its engine-level state stays warm) and **stolen** to the
//! least-loaded live worker when the home shard is backed up or dead.
//!
//! Worker death is detected two ways: an I/O error or torn frame on the
//! link (immediate), or heartbeat staleness past the liveness window
//! (for a hung-but-connected process). A dead worker's in-flight jobs are
//! requeued onto survivors; a job that keeps landing on dying workers is
//! **quarantined** after its retry budget — the same terminal-but-honest
//! semantics the runner's fault layer uses — and the drain report names
//! every dead worker. Heartbeat staleness is ignored once a drain starts:
//! a worker blocked finishing its queue legitimately stops answering.
//!
//! Every one of those decisions — admission, coalescing, the DRR dispatch
//! window, shard choice, reply handling, orphan fate, drain — is made by
//! the sans-IO [`Coordinator`] state machine in [`crate::coord`], the
//! same code the `sdvbs-sim` simulator runs under virtual time.
//! [`ClusterEngine`] runs it over real I/O: it holds the state machine
//! under a mutex, runs the link readers, the heartbeat monitor and the
//! dispatcher as threads, speaks the wire protocol, owns the result cache
//! above the state machine, and counts what each transition reports in
//! its metrics.
//!
//! Metrics and traces aggregate on demand: `/metrics` renders the
//! coordinator's own registry plus each worker's, both folded into the
//! cluster totals and re-exported under a `w<N>_` prefix; `/v1/trace`
//! fetches per-worker event streams and merges them with
//! [`merge_process_traces`] onto worker-labelled tracks, aligning each
//! worker's trace epoch by the clock offset estimated at handshake.

use crate::backend::Backend;
use crate::cache::{cache_preimage, spec_digest, CacheLookup, ResultCache, DEFAULT_CACHE_CAPACITY};
use crate::coord::{is_stale, CoordJob, Coordinator, JobState, OrphanDisposition, Step};
use crate::engine::{wait_terminal, JobSnapshot, Submission};
use crate::sched::{JobClass, SchedConfig};
use crate::shutdown::DrainReport;
use sdvbs_exec::ClockHandle;
use sdvbs_runner::{Job, RunRecord};
use sdvbs_trace::{
    merge_process_traces, now_us, MetricsRegistry, ProcessTrace, TraceEvent, TrackId,
};
use sdvbs_wire::{tcp_pair, FrameRx, FrameTx, Message, WireError, PROTO_VERSION};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Merged worker tracks start here — far above both the engine's
/// per-worker tracks (0..N) and the connection tracks allocated from
/// [`sdvbs_trace::DYNAMIC_TRACK_BASE`], so a merged cluster trace never
/// collides with the coordinator's own spans.
pub const CLUSTER_TRACK_BASE: TrackId = 1 << 20;

/// How long a metrics/trace/drain request waits for its worker's reply.
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Cluster sizing and liveness tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`), connected at startup. Order is
    /// identity: worker `i` is named `w<i>` in traces, metrics, and
    /// drain reports.
    pub workers: Vec<String>,
    /// Admission bound: outstanding (admitted, non-terminal) jobs beyond
    /// this are refused with [`Submission::QueueFull`].
    pub queue_capacity: usize,
    /// Most jobs dispatched-and-unfinished on one worker before the
    /// dispatcher steals to another shard.
    pub per_worker_inflight: usize,
    /// Heartbeat send interval.
    pub heartbeat: Duration,
    /// A worker whose last heartbeat reply is older than this is declared
    /// dead (ignored while draining — see the module docs).
    pub liveness: Duration,
    /// Retries a job gets beyond its first execution before it is
    /// quarantined (same accounting as the runner's `max_retries`; see
    /// [`crate::coord::RetryPolicy`]). One worker death costs one
    /// attempt; a `Busy` bounce costs none.
    pub retry_budget: u32,
    /// Time source for heartbeat pacing and staleness measurement. The
    /// default system clock is production; tests substitute a virtual
    /// one.
    pub clock: ClockHandle,
    /// Coordinator-side result-cache bound (`--cache-capacity`).
    pub cache_capacity: usize,
    /// Scheduler knobs for the pending queue's deficit round robin.
    pub sched: SchedConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: Vec::new(),
            queue_capacity: 32,
            per_worker_inflight: 8,
            heartbeat: Duration::from_millis(300),
            liveness: Duration::from_secs(3),
            retry_budget: 2,
            clock: ClockHandle::system(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            sched: SchedConfig::default(),
        }
    }
}

/// One connected worker process.
struct WorkerLink {
    index: usize,
    name: String,
    /// The sending half of the link; internally serialized, shared by
    /// the dispatcher, heartbeat, and rpc paths.
    tx: Box<dyn FrameTx>,
    /// [`ClockHandle::now`] of the last heartbeat reply.
    last_beat: Mutex<Duration>,
    /// `coordinator_now_us - worker_now_us`, refreshed on every heartbeat
    /// reply; aligns the worker's trace epoch onto ours.
    offset_us: AtomicI64,
    /// Serializes metrics/trace/drain request-reply exchanges.
    rpc: Mutex<()>,
    replies: Mutex<mpsc::Receiver<Message>>,
    reply_tx: mpsc::Sender<Message>,
}

/// The coordinator backend. Construct with [`ClusterEngine::start`];
/// always behind an [`Arc`] because its service threads hold references.
pub struct ClusterEngine {
    /// The job lifecycle; every transition happens under this lock.
    core: Mutex<Coordinator>,
    /// Notified on every transition a waiter might care about.
    changed: Condvar,
    cache: ResultCache,
    metrics: Mutex<MetricsRegistry>,
    links: Vec<Arc<WorkerLink>>,
    cfg: ClusterConfig,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Raised when the drain starts tearing links down, so link closure
    /// is no longer treated as a death.
    stopping: AtomicBool,
}

impl ClusterEngine {
    /// Connects to every worker, completes the version handshake, and
    /// spawns the dispatcher, per-link readers, and the heartbeat
    /// monitor.
    ///
    /// # Errors
    ///
    /// A connect failure, handshake I/O error, or protocol-version
    /// mismatch on any worker aborts startup — a cluster that begins life
    /// degraded is a misconfiguration, not a fault to tolerate.
    pub fn start(cfg: ClusterConfig) -> Result<Arc<ClusterEngine>, String> {
        if cfg.workers.is_empty() {
            return Err("cluster mode needs at least one worker address".into());
        }
        let mut links = Vec::new();
        let mut readers = Vec::new();
        for (index, addr) in cfg.workers.iter().enumerate() {
            let (link, rx) = connect_worker(index, addr, &cfg.clock)?;
            links.push(Arc::new(link));
            readers.push(rx);
        }
        let engine = Arc::new(ClusterEngine {
            core: Mutex::new(Coordinator::new(links.len(), &cfg)),
            changed: Condvar::new(),
            cache: ResultCache::with_capacity(cfg.cache_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            links,
            cfg,
            threads: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        let mut handles = Vec::new();
        for (link, mut rx) in engine.links.iter().zip(readers) {
            let engine2 = Arc::clone(&engine);
            let link2 = Arc::clone(link);
            handles.push(
                thread::Builder::new()
                    .name(format!("sdvbs-coord-read-{}", link.name))
                    .spawn(move || engine2.reader_loop(&link2, rx.as_mut()))
                    .expect("spawning a link reader"),
            );
        }
        let dispatch: fn(&ClusterEngine) = ClusterEngine::dispatch_loop;
        for (name, service) in [
            ("dispatch", dispatch),
            ("heartbeat", ClusterEngine::heartbeat_loop),
        ] {
            let engine2 = Arc::clone(&engine);
            handles.push(
                thread::Builder::new()
                    .name(format!("sdvbs-coord-{name}"))
                    .spawn(move || service(&engine2))
                    .expect("spawning a coordinator service thread"),
            );
        }
        *engine
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = handles;
        Ok(engine)
    }

    /// Worker names still answering, in index order.
    pub fn alive_workers(&self) -> Vec<String> {
        let core = self.lock_core();
        self.links
            .iter()
            .filter(|l| core.is_alive(l.index))
            .map(|l| l.name.clone())
            .collect()
    }

    fn lock_core(&self) -> std::sync::MutexGuard<'_, Coordinator> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_alive(&self, w: usize) -> bool {
        self.lock_core().is_alive(w)
    }

    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn incr(&self, name: &str) {
        self.lock_metrics().incr(name, 1);
    }

    fn observe(&self, name: &str, value: f64) {
        self.lock_metrics().observe(name, value);
    }

    fn dispatch_loop(&self) {
        loop {
            // Step the state machine until it hands us a dispatch, or
            // learn that we are done.
            let (id, worker, spec) = {
                let mut core = self.lock_core();
                loop {
                    match core.next_dispatch() {
                        Step::Dispatch {
                            id,
                            worker,
                            spec,
                            stolen,
                            ..
                        } => {
                            if stolen {
                                self.incr("jobs_stolen");
                            }
                            break (id, worker, spec);
                        }
                        Step::Batch(len) => self.observe("batch_size", len as f64),
                        Step::NoWorkers(_) => {
                            self.incr("jobs_quarantined");
                            self.changed.notify_all();
                        }
                        Step::Full => {
                            // A completion or death frees a slot and
                            // notifies.
                            core = self
                                .changed
                                .wait_timeout(core, Duration::from_millis(50))
                                .unwrap_or_else(PoisonError::into_inner)
                                .0;
                        }
                        Step::Idle => {
                            if self.stopping.load(Ordering::SeqCst) {
                                return;
                            }
                            core = self
                                .changed
                                .wait(core)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                }
            };
            if self.links[worker]
                .tx
                .send(&Message::Dispatch { id, spec })
                .is_err()
            {
                self.mark_dead(worker, "dispatch write failed");
            }
        }
    }

    /// One link's read loop: results, heartbeat replies, and rpc replies.
    fn reader_loop(&self, link: &Arc<WorkerLink>, rx: &mut dyn FrameRx) {
        let w = link.index;
        loop {
            match rx.recv() {
                Ok(Message::Done { id, record }) => self.job_done(w, id, *record),
                Ok(Message::Rejected { id, detail }) => {
                    if self.lock_core().on_rejected(w, id, &detail) {
                        self.incr("jobs_invalid");
                    }
                    self.changed.notify_all();
                }
                Ok(Message::Busy { id }) => {
                    if self.lock_core().on_busy(w, id) {
                        self.incr("busy_redispatched");
                    }
                    self.changed.notify_all();
                }
                Ok(Message::HeartbeatOk { now_us: theirs, .. }) => {
                    *link
                        .last_beat
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = self.cfg.clock.now();
                    link.offset_us
                        .store(now_us() as i64 - theirs as i64, Ordering::SeqCst);
                }
                Ok(
                    msg @ (Message::MetricsOk { .. }
                    | Message::TraceOk { .. }
                    | Message::DrainOk { .. }),
                ) => {
                    let _ = link.reply_tx.send(msg);
                }
                Ok(Message::Error { message }) => {
                    eprintln!("worker {}: {message}", link.name);
                }
                Ok(_) => {} // Not a worker-to-coordinator message; ignore.
                Err(WireError::Closed) if self.stopping.load(Ordering::SeqCst) => return,
                Err(e) => {
                    self.mark_dead(w, &e.to_string());
                    return;
                }
            }
        }
    }

    /// Declares worker `w` dead and counts what became of everything it
    /// had in flight. Idempotent; during shutdown teardown it only takes
    /// the worker out of service.
    fn mark_dead(&self, w: usize, why: &str) {
        let mut core = self.lock_core();
        if self.stopping.load(Ordering::SeqCst) {
            core.retire(w);
            return;
        }
        let Some(orphans) = core.mark_dead(w) else {
            return;
        };
        drop(core);
        eprintln!("worker {} declared dead: {why}", self.links[w].name);
        self.incr("workers_died");
        for (_, fate) in orphans {
            self.incr(match fate {
                OrphanDisposition::Quarantine => "jobs_quarantined",
                OrphanDisposition::RejectDraining => "rejected_draining",
                OrphanDisposition::Requeue => "jobs_requeued",
            });
        }
        self.changed.notify_all();
    }

    fn job_done(&self, w: usize, id: u64, record: RunRecord) {
        let wall_ms = record.wall_ms;
        let mut core = self.lock_core();
        let Some(CoordJob {
            spec,
            digest,
            state: JobState::Done(record),
            ..
        }) = core.on_done(w, id, record)
        else {
            return; // A late reply: nothing changed.
        };
        // Cached under the core lock, so an identical submission finds
        // either the in-flight job or its record, never neither.
        let outcome = self.cache.put(*digest, &cache_preimage(spec), record);
        drop(core);
        if outcome.evicted {
            self.incr("cache_evictions");
        }
        if outcome.collided {
            self.incr("cache_key_collisions");
        }
        self.observe("job_exec_ms", wall_ms);
        self.incr("jobs_executed");
        self.changed.notify_all();
    }

    fn heartbeat_loop(&self) {
        let mut seq = 0u64;
        while !self.stopping.load(Ordering::SeqCst) {
            seq += 1;
            let draining = self.lock_core().is_draining();
            for (w, link) in self.links.iter().enumerate() {
                if !self.is_alive(w) {
                    continue;
                }
                if link.tx.send(&Message::Heartbeat { seq }).is_err() {
                    self.mark_dead(w, "heartbeat write failed");
                    continue;
                }
                // Staleness is judged by the shared policy: a draining
                // worker is allowed to go quiet (its read loop is blocked
                // finishing the queue); I/O errors still kill.
                let beat = *link
                    .last_beat
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if is_stale(self.cfg.clock.since(beat), self.cfg.liveness, draining) {
                    self.mark_dead(w, "missed heartbeats");
                }
            }
            self.cfg.clock.sleep(self.cfg.heartbeat);
        }
    }

    /// One request-reply exchange with a worker. Replies are matched by
    /// message kind; stale replies from a timed-out earlier exchange are
    /// discarded first.
    fn rpc(&self, link: &Arc<WorkerLink>, req: Message, want: &str) -> Option<Message> {
        let _serial = link.rpc.lock().unwrap_or_else(PoisonError::into_inner);
        let replies = link.replies.lock().unwrap_or_else(PoisonError::into_inner);
        while replies.try_recv().is_ok() {}
        if link.tx.send(&req).is_err() {
            return None;
        }
        let deadline = Instant::now() + RPC_TIMEOUT;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match replies.recv_timeout(left) {
                Ok(msg) if msg.kind() == want => return Some(msg),
                Ok(_) => {} // A stale reply of another kind; keep waiting.
                Err(_) => return None,
            }
        }
    }
}

impl Backend for ClusterEngine {
    fn submit(&self, spec: Job, fresh: bool, class: JobClass) -> Submission {
        let digest = spec_digest(&spec);
        let key = (!fresh).then(|| cache_preimage(&spec));
        let mut core = self.lock_core();
        if let Some(key) = key.filter(|_| !core.is_draining()) {
            match self.cache.get(digest, &key) {
                CacheLookup::Hit(record) => {
                    self.incr("cache_hits");
                    return Submission::Cached(record);
                }
                CacheLookup::Collision => self.incr("cache_key_collisions"),
                CacheLookup::Miss => {}
            }
        }
        let outcome = core.admit(spec, digest, class, fresh);
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

    fn get(&self, id: u64) -> Option<JobSnapshot> {
        self.lock_core().snapshot(id)
    }

    fn wait_terminal(&self, id: u64, wait: Duration) -> Option<JobSnapshot> {
        wait_terminal(&self.changed, self.lock_core(), wait, |core| {
            core.snapshot(id)
        })
    }

    fn begin_drain(&self) {
        // Everything admitted but not yet dispatched is rejected — the
        // cluster analog of the engine popping and rejecting its queue.
        let rejected = self.lock_core().begin_drain();
        for _ in rejected {
            self.incr("rejected_draining");
        }
        self.changed.notify_all();
    }

    fn drain(&self) -> DrainReport {
        self.begin_drain();
        // Wait for every dispatched job to resolve (a worker death mid-
        // drain resolves its orphans via `mark_dead`).
        let report = {
            let mut core = self.lock_core();
            while !core.quiescent() {
                core = self
                    .changed
                    .wait(core)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            core.drain_report()
        };
        // Tear the cluster down: tell each surviving worker to drain and
        // exit. From here on link closure is shutdown, not death.
        self.stopping.store(true, Ordering::SeqCst);
        for link in &self.links {
            if !self.is_alive(link.index) {
                continue;
            }
            let _ = self.rpc(link, Message::Drain, "drain_ok");
            self.lock_core().retire(link.index);
        }
        self.changed.notify_all();
        let handles: Vec<_> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        report
    }

    fn is_draining(&self) -> bool {
        self.lock_core().is_draining()
    }

    fn metrics_text(&self) -> String {
        let mut agg = MetricsRegistry::new();
        agg.merge(&self.lock_metrics());
        for link in &self.links {
            if !self.is_alive(link.index) {
                continue;
            }
            let Some(Message::MetricsOk { registry }) =
                self.rpc(link, Message::MetricsReq, "metrics_ok")
            else {
                continue;
            };
            // Fold into the cluster totals, and re-export per worker.
            agg.merge(&registry);
            for (name, v) in registry.counters() {
                agg.incr(&format!("{}_{name}", link.name), v);
            }
            for (name, h) in registry.histograms() {
                let labelled = format!("{}_{name}", link.name);
                for &s in h.samples() {
                    agg.observe(&labelled, s);
                }
            }
        }
        agg.to_prometheus("sdvbs_serve")
    }

    fn merge_metrics(&self, other: &MetricsRegistry) {
        self.lock_metrics().merge(other);
    }

    fn counter(&self, name: &str) -> u64 {
        self.lock_metrics().counter(name)
    }

    fn trace_events(&self) -> Vec<TraceEvent> {
        let mut parts = Vec::new();
        for link in &self.links {
            if !self.is_alive(link.index) {
                continue;
            }
            let Some(Message::TraceOk {
                events,
                now_us: theirs,
            }) = self.rpc(link, Message::TraceReq, "trace_ok")
            else {
                continue;
            };
            // Refresh the epoch-skew estimate with this reply, then use
            // it to land the worker's events on our timeline.
            link.offset_us
                .store(now_us() as i64 - theirs as i64, Ordering::SeqCst);
            parts.push(ProcessTrace {
                name: link.name.clone(),
                offset_us: link.offset_us.load(Ordering::SeqCst),
                events,
            });
        }
        merge_process_traces(CLUSTER_TRACK_BASE, &parts)
            .events()
            .to_vec()
    }

    fn health_extra(&self) -> Option<String> {
        let alive = self.alive_workers();
        let dead = self.lock_core().dead_workers().to_vec();
        let names = |list: &[String]| {
            list.iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        Some(format!(
            "\"workers_alive\":{},\"workers_total\":{},\"workers\":[{}],\"dead_workers\":[{}]",
            alive.len(),
            self.links.len(),
            names(&alive),
            names(&dead),
        ))
    }
}

/// Connects and handshakes one worker link, returning its send half
/// (inside the [`WorkerLink`]) and receive half (for the reader thread).
fn connect_worker(
    index: usize,
    addr: &str,
    clock: &ClockHandle,
) -> Result<(WorkerLink, Box<dyn FrameRx>), String> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| format!("connecting worker {index} at {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("worker {index}: {e}"))?;
    let (tx, mut rx) = tcp_pair(stream).map_err(|e| format!("worker {index}: {e}"))?;
    tx.send(&Message::Hello {
        version: PROTO_VERSION,
        role: "coordinator".to_string(),
        name: "coordinator".to_string(),
    })
    .map_err(|e| format!("worker {index} handshake: {e}"))?;
    let offset = match rx.recv() {
        Ok(Message::HelloOk {
            version,
            now_us: theirs,
            ..
        }) => {
            if version != PROTO_VERSION {
                return Err(WireError::BadVersion {
                    ours: PROTO_VERSION,
                    theirs: version,
                }
                .to_string());
            }
            now_us() as i64 - theirs as i64
        }
        Ok(other) => {
            return Err(format!(
                "worker {index} handshake: expected hello_ok, got {}",
                other.kind()
            ))
        }
        Err(e) => return Err(format!("worker {index} handshake: {e}")),
    };
    let (reply_tx, replies) = mpsc::channel();
    let link = WorkerLink {
        index,
        name: crate::coord::worker_name(index),
        tx: Box::new(tx),
        last_beat: Mutex::new(clock.now()),
        offset_us: AtomicI64::new(offset),
        rpc: Mutex::new(()),
        replies: Mutex::new(replies),
        reply_tx,
    };
    Ok((link, Box::new(rx)))
}
