//! The job lifecycle of both backends as one sans-IO state machine.
//!
//! [`Coordinator`] owns the job table, request coalescing
//! ([`InflightMap`]), the deficit-round-robin pending queue with the
//! cluster's current dispatch window, admission, retirement and drain
//! state, the terminal counters both drain-report scopes come from, each
//! worker's alive flag and dispatched set, and the names of dead workers.
//! It has no locks, threads, sockets or clock reads: each transition
//! takes one event and returns what happened, so its caller can count
//! it, log it or send it. Three drivers run it:
//!
//! * [`crate::engine::Engine`], whose worker threads each pull a whole DRR
//!   batch ([`Coordinator::pop_batch`]) and start its jobs in order
//!   ([`Coordinator::start`]), so a batch runs warm on one thread;
//! * [`crate::cluster::ClusterEngine`], whose dispatcher thread picks a
//!   worker process for each job of the window
//!   ([`Coordinator::next_dispatch`]);
//! * the `sdvbs-sim` simulator, from a single-threaded event loop under
//!   virtual time and seeded faults — so a bug the simulator finds is a
//!   bug in this code.
//!
//! The pure policies it applies ([`pick_target`], [`orphan_disposition`],
//! [`RetryPolicy`]) and the staleness rule the cluster drivers apply to
//! their heartbeat clocks ([`is_stale`]) are public functions here.
//!
//! ## Admission and retirement
//!
//! The admission bound counts the jobs *waiting in the scheduler*:
//! admitted, and not yet taken into a dispatch window (a pulled engine
//! batch, or the cluster's current window). A terminal job stays
//! pollable for the retire TTL and then leaves the table; ids stay
//! monotone, and a retired id reads as unknown (`404`).
//! [`Coordinator::retire_expired`] takes the caller's clock reading: it
//! stamps the jobs that went terminal since the previous call with it,
//! then retires, in terminal order, those whose stamp plus the TTL has
//! passed. Each call costs O(retired), and a stamp is never earlier than
//! the transition it stamps, so no job retires before its TTL.
//!
//! ## Attempt accounting (unified with the runner)
//!
//! `attempts` counts **executions begun**: a dispatch that actually
//! reached a worker's engine. A [`Busy`](sdvbs_wire::Message::Busy)
//! bounce is *not* an attempt — the job never executed, so it must not
//! consume retry budget (the runner, likewise, increments
//! [`RunRecord::attempts`] only for real executions). A [`RetryPolicy`]
//! with `budget = B` therefore allows `B + 1` total executions
//! everywhere: the runner's `max_retries = B` quarantines after `B + 1`
//! failed runs, and the coordinator quarantines an orphan after `B + 1`
//! failed dispatches.
//!
//! ## Late replies
//!
//! A reply (`Done`, `Rejected`, `Busy`) moves a job only while the job is
//! dispatched to the worker that sent it. A worker declared dead — by
//! heartbeat staleness, say — may still answer for a job since requeued
//! onto another worker; that reply is ignored, so it can neither finish
//! nor re-dispatch a job another worker holds.

use crate::cluster::ClusterConfig;
use crate::coalesce::InflightMap;
use crate::engine::{EngineConfig, JobSnapshot, Submission};
use crate::sched::{Batch, Drr, JobClass};
use crate::shutdown::DrainReport;
use sdvbs_runner::{Job, RunRecord};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// How long a terminal job stays pollable before it is retired: the
/// default of [`EngineConfig::retire_ttl`], and the cluster's TTL.
pub const DEFAULT_RETIRE_TTL: Duration = Duration::from_secs(300);

/// Why a job admitted but not started when a drain began was rejected.
const DRAIN_REJECTION: &str = "server shutting down before execution";

/// How many times a job may fail before it is quarantined: the initial
/// execution plus `budget` retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed *beyond the first attempt*. 0 disables retries.
    pub budget: u32,
}

impl RetryPolicy {
    /// Total executions this policy permits: `budget + 1`.
    pub fn max_attempts(self) -> u32 {
        self.budget.saturating_add(1)
    }

    /// Whether `failed_attempts` executions having all failed exhausts
    /// the policy (i.e. the job must be quarantined, not retried).
    pub fn exhausted(self, failed_attempts: u32) -> bool {
        failed_attempts >= self.max_attempts()
    }
}

/// What becomes of a job orphaned by its worker's death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrphanDisposition {
    /// Requeue at the front of the dispatch window for redispatch.
    Requeue,
    /// The retry budget is spent: terminal, honest failure.
    Quarantine,
    /// A drain is in progress; only already-running work may finish, so
    /// the orphan is rejected like any other queued job.
    RejectDraining,
}

/// Decides an orphan's fate from its failed-execution count, the retry
/// policy, and whether a drain has started. Quarantine wins over the
/// drain rejection so an exhausted job is reported as what it is.
pub fn orphan_disposition(
    failed_attempts: u32,
    policy: RetryPolicy,
    draining: bool,
) -> OrphanDisposition {
    if policy.exhausted(failed_attempts) {
        OrphanDisposition::Quarantine
    } else if draining {
        OrphanDisposition::RejectDraining
    } else {
        OrphanDisposition::Requeue
    }
}

/// The name worker `w` goes by in logs, metrics, `/healthz` and drain
/// reports.
pub fn worker_name(w: usize) -> String {
    format!("w{w}")
}

/// Picks the worker a job is dispatched to.
///
/// The home shard is `digest % n`; identical specs always hash home to
/// the same worker so engine-level state stays warm. The home worker
/// wins when it is alive and under the in-flight `cap`; otherwise the
/// least-loaded live worker with headroom takes the job (work stealing),
/// ties broken by lowest index so the choice is deterministic. `None`
/// when no live worker has headroom (the dispatcher waits) or `alive`
/// and `inflight` are empty.
pub fn pick_target(digest: u64, alive: &[bool], inflight: &[usize], cap: usize) -> Option<usize> {
    let n = alive.len().min(inflight.len());
    if n == 0 {
        return None;
    }
    let home = (digest % n as u64) as usize;
    if alive[home] && inflight[home] < cap {
        return Some(home);
    }
    (0..n)
        .filter(|&i| alive[i] && inflight[i] < cap)
        .min_by_key(|&i| inflight[i])
}

/// Whether a worker whose last heartbeat reply is `age` old should be
/// declared dead. Never during a drain: a draining worker legitimately
/// goes quiet while it finishes its queue (its link breaking still kills
/// it through the I/O path).
pub fn is_stale(age: Duration, liveness: Duration, draining: bool) -> bool {
    !draining && age > liveness
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting in the scheduler or a dispatch window.
    Pending,
    /// Dispatched to worker (or engine thread) `i`, awaiting its result.
    Dispatched(usize),
    /// Finished with a record.
    Done(Box<RunRecord>),
    /// Finished without a record; the string is the payload's one-line
    /// summary (a stream frame's pipeline result).
    Finished(String),
    /// Refused without a result (drain, or a validation error).
    Rejected(String),
    /// Abandoned after exhausting the retry budget across worker deaths,
    /// or because no worker was left alive.
    Quarantined(String),
}

/// One admitted job.
#[derive(Debug, Clone)]
pub struct CoordJob<P = Job> {
    /// What a worker executes: a benchmark spec, or (in the engine) a
    /// stream frame.
    pub payload: P,
    /// `spec_digest` of the spec: the coalescing and shard key. `None`
    /// for a job that never coalesces (a stream frame).
    pub digest: Option<u64>,
    /// The scheduler group it batches under.
    pub group: String,
    /// The QoS class it was admitted in.
    pub class: JobClass,
    /// Lifecycle state.
    pub state: JobState,
    /// Executions begun (see the module docs).
    pub attempts: u32,
}

/// One step of the dispatcher; see [`Coordinator::next_dispatch`].
#[derive(Debug, Clone)]
pub enum Step<P = Job> {
    /// A DRR batch of this many jobs entered the dispatch window.
    Batch(usize),
    /// Send job `id` to `worker`: its `attempt`-th execution, `stolen`
    /// when `worker` is not its home shard.
    Dispatch {
        /// The job id.
        id: u64,
        /// The target worker's index.
        worker: usize,
        /// The payload to send.
        payload: P,
        /// Executions begun, this one included.
        attempt: u32,
        /// Whether the target is off the job's home shard.
        stolen: bool,
    },
    /// No worker is alive: this job, at the window's front, was
    /// quarantined.
    NoWorkers(u64),
    /// Jobs are waiting, but every live worker is at its in-flight cap;
    /// a reply or a death frees a slot.
    Full,
    /// Nothing is waiting.
    Idle,
}

/// Counts of terminal transitions by outcome.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    completed: usize,
    rejected: usize,
    quarantined: usize,
}

/// The job lifecycle. See the module docs.
#[derive(Debug)]
pub struct Coordinator<P = Job> {
    /// Admitted jobs by id, until retired.
    jobs: BTreeMap<u64, CoordJob<P>>,
    next_id: u64,
    inflight: InflightMap,
    /// Admitted-not-dispatched jobs, scheduled by deficit round robin
    /// across QoS classes with benchmark×size batching.
    pending: Drr,
    /// The batch the cluster dispatcher is working through (popped from
    /// `pending`; drain rejects these too).
    current: VecDeque<u64>,
    /// Admitted, non-terminal jobs.
    outstanding: usize,
    /// Lifetime terminal transitions.
    totals: Tally,
    /// `totals` when the drain began; `Some` once draining.
    drain_base: Option<Tally>,
    /// Jobs gone terminal since the last [`Coordinator::retire_expired`].
    unstamped: Vec<u64>,
    /// Stamped terminal jobs in terminal order: `(stamp, id)`.
    retiring: VecDeque<(Duration, u64)>,
    retire_ttl: Duration,
    /// Per worker, the jobs dispatched to it and not yet answered, or
    /// `None` once it is out of service. Ordered, so a death requeues
    /// its orphans deterministically.
    workers: Vec<Option<BTreeSet<u64>>>,
    dead: Vec<String>,
    queue_capacity: usize,
    per_worker_inflight: usize,
    retry: RetryPolicy,
}

impl<P: Clone> Coordinator<P> {
    /// A coordinator over `workers` workers (named by [`worker_name`]), all
    /// alive, with `cfg`'s admission bound, in-flight cap, retry budget
    /// and scheduler knobs, retiring after [`DEFAULT_RETIRE_TTL`].
    pub fn new(workers: usize, cfg: &ClusterConfig) -> Self {
        Coordinator {
            jobs: BTreeMap::new(),
            next_id: 0,
            inflight: InflightMap::new(),
            pending: Drr::new(cfg.sched.clone()),
            current: VecDeque::new(),
            outstanding: 0,
            totals: Tally::default(),
            drain_base: None,
            unstamped: Vec::new(),
            retiring: VecDeque::new(),
            retire_ttl: DEFAULT_RETIRE_TTL,
            workers: vec![Some(BTreeSet::new()); workers],
            dead: Vec::new(),
            queue_capacity: cfg.queue_capacity.max(1),
            per_worker_inflight: cfg.per_worker_inflight,
            retry: RetryPolicy {
                budget: cfg.retry_budget,
            },
        }
    }

    /// The core of a single-process engine: one worker per engine thread,
    /// with `cfg`'s admission bound, scheduler knobs and retire TTL.
    pub fn local(cfg: &EngineConfig) -> Self {
        let limits = ClusterConfig {
            queue_capacity: cfg.queue_capacity,
            sched: cfg.sched.clone(),
            ..ClusterConfig::default()
        };
        Coordinator {
            retire_ttl: cfg.retire_ttl,
            ..Coordinator::new(cfg.workers.max(1), &limits)
        }
    }

    /// Stamps the jobs that went terminal since the previous call with
    /// `now`, then retires every job whose stamp plus the TTL has passed.
    /// Returns how many left the table. See the module docs.
    pub fn retire_expired(&mut self, now: Duration) -> usize {
        self.retiring
            .extend(self.unstamped.drain(..).map(|id| (now, id)));
        let mut retired = 0;
        while let Some(&(stamp, id)) = self.retiring.front() {
            if stamp + self.retire_ttl > now {
                break;
            }
            self.retiring.pop_front();
            self.jobs.remove(&id);
            retired += 1;
        }
        retired
    }

    /// Admits `payload` into scheduler `group`: refused while draining,
    /// attached to the in-flight job with the same `digest` unless `fresh`
    /// (a job without a digest never coalesces), refused when the jobs
    /// waiting in the scheduler fill the admission bound, else queued
    /// under a new id. Never answers [`Submission::Cached`]: the result
    /// cache sits above the state machine, in the caller.
    pub fn admit(
        &mut self,
        payload: P,
        group: &str,
        class: JobClass,
        digest: Option<u64>,
        fresh: bool,
    ) -> Submission {
        if self.is_draining() {
            return Submission::Draining;
        }
        if let Some(id) = digest.filter(|_| !fresh).and_then(|d| self.inflight.get(d)) {
            return Submission::Coalesced(id);
        }
        if self.pending.len() >= self.queue_capacity {
            return Submission::QueueFull;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back(id, group, class);
        if let Some(digest) = digest {
            self.inflight.claim(digest, id);
        }
        self.jobs.insert(
            id,
            CoordJob {
                payload,
                digest,
                group: group.to_string(),
                class,
                state: JobState::Pending,
                attempts: 0,
            },
        );
        self.outstanding += 1;
        Submission::Queued(id)
    }

    /// Takes the next DRR batch out of the scheduler, for an engine thread
    /// to start job by job ([`Coordinator::start`]). Its jobs no longer
    /// count against the admission bound.
    pub fn pop_batch(&mut self) -> Option<Batch> {
        self.pending.pop_batch()
    }

    /// Engine thread `w` reaches job `id` of a batch it pulled. `Ok`
    /// hands back the payload to run, the job now dispatched to `w`. Once
    /// a drain has begun the job is rejected unstarted instead, and `Err`
    /// hands the payload back for the caller's bookkeeping.
    pub fn start(&mut self, id: u64, w: usize) -> Result<P, P> {
        let job = self
            .jobs
            .get_mut(&id)
            .expect("a pulled job stays in the table until it is terminal");
        let payload = job.payload.clone();
        if self.drain_base.is_some() {
            self.finish(id, JobState::Rejected(DRAIN_REJECTION.into()));
            return Err(payload);
        }
        job.state = JobState::Dispatched(w);
        job.attempts += 1;
        if let Some(Some(held)) = self.workers.get_mut(w) {
            held.insert(id);
        }
        Ok(payload)
    }

    /// Advances the dispatcher by one step: refills an empty dispatch
    /// window with the next DRR batch, or takes the window's front job
    /// and picks its worker ([`pick_target`]). The caller repeats this
    /// until it answers [`Step::Full`] or [`Step::Idle`].
    pub fn next_dispatch(&mut self) -> Step<P> {
        let Some(&id) = self.current.front() else {
            return match self.pending.pop_batch() {
                Some(batch) => {
                    let len = batch.ids.len();
                    self.current.extend(batch.ids);
                    Step::Batch(len)
                }
                None => Step::Idle,
            };
        };
        if self.workers.iter().all(Option::is_none) {
            // Nothing left to run on: every admitted job fails loudly
            // rather than waiting forever.
            self.current.pop_front();
            self.finish(id, JobState::Quarantined("no live workers".into()));
            return Step::NoWorkers(id);
        }
        let alive: Vec<bool> = self.workers.iter().map(Option::is_some).collect();
        let inflight: Vec<usize> = self
            .workers
            .iter()
            .map(|held| held.as_ref().map_or(0, BTreeSet::len))
            .collect();
        let job = self.jobs.get_mut(&id).expect("a windowed job is live");
        let digest = job.digest.unwrap_or_default();
        let Some(w) = pick_target(digest, &alive, &inflight, self.per_worker_inflight) else {
            return Step::Full;
        };
        self.current.pop_front();
        if let Some(held) = &mut self.workers[w] {
            held.insert(id);
        }
        job.state = JobState::Dispatched(w);
        job.attempts += 1;
        Step::Dispatch {
            id,
            worker: w,
            payload: job.payload.clone(),
            attempt: job.attempts,
            stolen: w as u64 != digest % self.workers.len() as u64,
        }
    }

    /// Worker `w` finished job `id` with `record`. Returns the job, now
    /// done, or `None` when `w` no longer held it (a late reply).
    pub fn on_done(&mut self, w: usize, id: u64, record: RunRecord) -> Option<&CoordJob<P>> {
        self.on_result(w, id, JobState::Done(Box::new(record)))
    }

    /// Worker `w` refused job `id` as invalid. Returns whether the reply
    /// applied (`false` for a late reply).
    pub fn on_rejected(&mut self, w: usize, id: u64, detail: &str) -> bool {
        self.on_result(w, id, JobState::Rejected(detail.to_string()))
            .is_some()
    }

    /// Worker `w` ended job `id` in the terminal state `outcome`. Returns
    /// the job, or `None` when `w` no longer held it (a late reply).
    pub fn on_result(&mut self, w: usize, id: u64, outcome: JobState) -> Option<&CoordJob<P>> {
        if !self.answer(w, id) {
            return None;
        }
        self.finish(id, outcome);
        self.jobs.get(&id)
    }

    /// Worker `w`'s queue was full: job `id` goes back to the pending
    /// queue for the dispatcher to steal elsewhere, and gives back the
    /// attempt its dispatch charged (the bounce never executed). Returns
    /// whether the reply applied (`false` for a late reply).
    pub fn on_busy(&mut self, w: usize, id: u64) -> bool {
        let held = self.answer(w, id);
        if let Some(job) = self.jobs.get_mut(&id).filter(|_| held) {
            job.state = JobState::Pending;
            job.attempts = job.attempts.saturating_sub(1);
            self.pending.push_back(id, &job.group, job.class);
        }
        held
    }

    /// Declares worker `w` dead and decides the fate of every job it held
    /// ([`orphan_disposition`]): requeued at the front of the dispatch
    /// window in id order, quarantined, or rejected mid-drain. Returns
    /// each orphan with its fate, or `None` if `w` was already dead or
    /// retired.
    pub fn mark_dead(&mut self, w: usize) -> Option<Vec<(u64, OrphanDisposition)>> {
        let orphans = self.workers.get_mut(w)?.take()?;
        let name = worker_name(w);
        let mut fates = Vec::with_capacity(orphans.len());
        // Highest id first: each requeue goes to the front of the window,
        // so orphans end up in id order, ahead of later arrivals.
        for id in orphans.into_iter().rev() {
            let job = self.jobs.get_mut(&id).expect("a dispatched job is live");
            let attempts = job.attempts;
            // Every execution so far has failed (the last one just died
            // with its worker), so `attempts` *is* the failed count.
            let fate = orphan_disposition(attempts, self.retry, self.drain_base.is_some());
            match fate {
                OrphanDisposition::Quarantine => self.finish(
                    id,
                    JobState::Quarantined(format!(
                        "quarantined after {attempts} attempts; worker {name} died mid-run"
                    )),
                ),
                // The drain contract only finishes work that is actually
                // running; an orphan re-entering the queue mid-drain is
                // rejected like any other queued job.
                OrphanDisposition::RejectDraining => self.finish(
                    id,
                    JobState::Rejected(format!("worker {name} died during drain")),
                ),
                OrphanDisposition::Requeue => {
                    job.state = JobState::Pending;
                    self.current.push_front(id);
                }
            }
            fates.push((id, fate));
        }
        fates.reverse();
        self.dead.push(name);
        Some(fates)
    }

    /// Takes worker `w` out of service without declaring it dead: it
    /// drained and exited at the end of a cluster drain.
    pub fn retire(&mut self, w: usize) {
        if let Some(held) = self.workers.get_mut(w) {
            *held = None;
        }
    }

    /// Starts a drain: admission closes, and every job still waiting in
    /// the scheduler or the dispatch window is rejected. Returns the
    /// rejected ids; empty when a drain had already begun.
    pub fn begin_drain(&mut self) -> Vec<u64> {
        if self.is_draining() {
            return Vec::new();
        }
        self.drain_base = Some(self.totals);
        let mut ids: Vec<u64> = self.current.drain(..).collect();
        ids.extend(self.pending.drain_all());
        for &id in &ids {
            self.finish(id, JobState::Rejected(DRAIN_REJECTION.into()));
        }
        ids
    }

    /// Whether every admitted job is terminal.
    pub fn quiescent(&self) -> bool {
        self.outstanding == 0
    }

    /// The cluster's drain report: lifetime totals of terminal jobs, and
    /// the dead workers by name.
    pub fn drain_report(&self) -> DrainReport {
        self.report_since(Tally::default())
    }

    /// The engine's drain report: only the jobs that went terminal since
    /// the drain began — exactly the jobs open when it began, since
    /// admission closed with it. Empty before a drain.
    pub fn drain_work_report(&self) -> DrainReport {
        self.report_since(self.drain_base.unwrap_or(self.totals))
    }

    /// Job `id`'s externally visible state, or `None` for an unknown or
    /// retired id.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let (state, record, detail) = match &self.jobs.get(&id)?.state {
            JobState::Pending => ("queued", None, String::new()),
            JobState::Dispatched(_) => ("running", None, String::new()),
            JobState::Done(record) => ("done", Some(record.as_ref().clone()), String::new()),
            JobState::Finished(summary) => ("done", None, summary.clone()),
            JobState::Rejected(why) | JobState::Quarantined(why) => ("rejected", None, why.clone()),
        };
        Some(JobSnapshot {
            id,
            state,
            record,
            detail,
        })
    }

    /// Job `id`, or `None` for an unknown or retired id.
    pub fn job(&self, id: u64) -> Option<&CoordJob<P>> {
        self.jobs.get(&id)
    }

    /// Every job still in the table, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (u64, &CoordJob<P>)> {
        self.jobs.iter().map(|(&id, job)| (id, job))
    }

    /// Entries in the job table: open jobs plus terminal ones not yet
    /// retired.
    pub fn table_len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether worker `w` is in service.
    pub fn is_alive(&self, w: usize) -> bool {
        matches!(self.workers.get(w), Some(Some(_)))
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.drain_base.is_some()
    }

    /// Names of the workers declared dead, in declaration order.
    pub fn dead_workers(&self) -> &[String] {
        &self.dead
    }

    /// Worker `w` answered for job `id`, so it no longer holds it.
    /// Returns whether the job was dispatched to `w` — the only case in
    /// which the answer may move it.
    fn answer(&mut self, w: usize, id: u64) -> bool {
        if let Some(Some(held)) = self.workers.get_mut(w) {
            held.remove(&id);
        }
        matches!(
            self.jobs.get(&id).map(|job| &job.state),
            Some(JobState::Dispatched(d)) if *d == w
        )
    }

    /// Moves job `id` to a terminal state, counts it and releases its
    /// coalescing claim: the one place a job stops being outstanding.
    fn finish(&mut self, id: u64, terminal: JobState) {
        let job = self
            .jobs
            .get_mut(&id)
            .expect("only a live job goes terminal");
        match terminal {
            JobState::Done(_) | JobState::Finished(_) => self.totals.completed += 1,
            JobState::Rejected(_) => self.totals.rejected += 1,
            JobState::Quarantined(_) => self.totals.quarantined += 1,
            JobState::Pending | JobState::Dispatched(_) => {
                unreachable!("finish takes a terminal state")
            }
        }
        job.state = terminal;
        if let Some(digest) = job.digest {
            self.inflight.release(digest, id);
        }
        self.outstanding -= 1;
        self.unstamped.push(id);
    }

    fn report_since(&self, base: Tally) -> DrainReport {
        DrainReport {
            completed: self.totals.completed - base.completed,
            rejected: self.totals.rejected - base.rejected,
            quarantined: self.totals.quarantined - base.quarantined,
            dead_workers: self.dead.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdvbs_core::{ExecPolicy, InputSize};

    fn spec(seed: u64) -> Job {
        Job::new("SVM", InputSize::Sqcif, ExecPolicy::Serial, seed, 1)
    }

    fn coordinator(workers: usize) -> Coordinator {
        Coordinator::new(workers, &ClusterConfig::default())
    }

    /// Admits a job whose digest homes it on worker `digest % workers`.
    fn queued(c: &mut Coordinator, digest: u64) -> u64 {
        match c.admit(spec(digest), "g", JobClass::Interactive, Some(digest), true) {
            Submission::Queued(id) => id,
            other => panic!("expected Queued, got {other:?}"),
        }
    }

    /// Steps the dispatcher until it sends something: `(id, worker,
    /// attempt, stolen)`.
    fn dispatch(c: &mut Coordinator) -> (u64, usize, u32, bool) {
        loop {
            match c.next_dispatch() {
                Step::Batch(_) => {}
                Step::Dispatch {
                    id,
                    worker,
                    attempt,
                    stolen,
                    ..
                } => return (id, worker, attempt, stolen),
                other => panic!("expected a dispatch, got {other:?}"),
            }
        }
    }

    fn record() -> RunRecord {
        let tiny = InputSize::Custom {
            width: 32,
            height: 24,
        };
        let job = Job::new("Disparity Map", tiny, ExecPolicy::Serial, 0, 1);
        sdvbs_runner::execute_job(&job, 0, 1, &sdvbs_runner::HostMeta::collect(), None)
            .expect("a registered benchmark runs")
    }

    #[test]
    fn retry_policy_allows_budget_plus_one_executions() {
        let policy = RetryPolicy { budget: 2 };
        assert_eq!(policy.max_attempts(), 3);
        assert!(!policy.exhausted(0));
        assert!(!policy.exhausted(1));
        assert!(!policy.exhausted(2));
        assert!(policy.exhausted(3));
        // budget 0: one execution, no retries.
        let none = RetryPolicy { budget: 0 };
        assert!(!none.exhausted(0));
        assert!(none.exhausted(1));
    }

    #[test]
    fn orphans_requeue_until_exhausted_then_quarantine() {
        let policy = RetryPolicy { budget: 1 };
        assert_eq!(
            orphan_disposition(1, policy, false),
            OrphanDisposition::Requeue
        );
        assert_eq!(
            orphan_disposition(2, policy, false),
            OrphanDisposition::Quarantine
        );
        // Draining rejects a retryable orphan but never masks exhaustion.
        assert_eq!(
            orphan_disposition(1, policy, true),
            OrphanDisposition::RejectDraining
        );
        assert_eq!(
            orphan_disposition(2, policy, true),
            OrphanDisposition::Quarantine
        );
    }

    #[test]
    fn pick_target_prefers_home_then_least_loaded() {
        // Home (digest 5 % 3 = 2) alive and under cap: home wins even
        // when another worker is idler.
        assert_eq!(pick_target(5, &[true, true, true], &[0, 0, 3], 4), Some(2));
        // Home at cap: least-loaded live worker, lowest index on ties.
        assert_eq!(pick_target(5, &[true, true, true], &[1, 1, 4], 4), Some(0));
        // Home dead: steal.
        assert_eq!(pick_target(5, &[true, true, false], &[2, 1, 0], 4), Some(1));
        // Everyone at cap: wait.
        assert_eq!(pick_target(5, &[true, true, true], &[4, 4, 4], 4), None);
        // Nobody alive: wait (the dispatcher's all-dead path quarantines).
        assert_eq!(pick_target(5, &[false, false], &[0, 0], 4), None);
        assert_eq!(pick_target(5, &[], &[], 4), None);
    }

    #[test]
    fn staleness_requires_age_past_liveness_and_no_drain() {
        let liveness = Duration::from_secs(3);
        assert!(!is_stale(Duration::from_secs(3), liveness, false));
        assert!(is_stale(Duration::from_millis(3001), liveness, false));
        assert!(!is_stale(Duration::from_secs(60), liveness, true));
    }

    #[test]
    fn admission_coalesces_bounds_and_closes_for_drain() {
        let mut c = Coordinator::new(
            1,
            &ClusterConfig {
                queue_capacity: 2,
                ..ClusterConfig::default()
            },
        );
        let id = queued(&mut c, 7);
        assert!(matches!(
            c.admit(spec(7), "g", JobClass::Interactive, Some(7), false),
            Submission::Coalesced(x) if x == id
        ));
        queued(&mut c, 7);
        assert!(matches!(
            c.admit(spec(8), "g", JobClass::Batch, Some(8), true),
            Submission::QueueFull
        ));
        assert_eq!(c.begin_drain(), vec![0, 1]);
        assert!(c.quiescent());
        assert!(matches!(
            c.admit(spec(9), "g", JobClass::Interactive, Some(9), true),
            Submission::Draining
        ));
        assert_eq!(c.drain_report().rejected, 2);
    }

    #[test]
    fn a_death_requeues_in_order_then_quarantines_when_nobody_is_left() {
        let mut c = coordinator(2);
        // Both home on w0.
        let a = queued(&mut c, 0);
        let b = queued(&mut c, 2);
        assert_eq!(dispatch(&mut c).1, 0);
        assert_eq!(dispatch(&mut c).1, 0);
        let fates = c.mark_dead(0).expect("w0 was alive");
        assert_eq!(
            fates,
            vec![
                (a, OrphanDisposition::Requeue),
                (b, OrphanDisposition::Requeue)
            ]
        );
        assert!(c.mark_dead(0).is_none(), "a second death is a no-op");
        // A job admitted after the death homes on the survivor ...
        let later = queued(&mut c, 1);
        // ... but the orphans are redispatched first, in id order, stolen
        // by the survivor.
        assert_eq!(dispatch(&mut c), (a, 1, 2, true));
        assert_eq!(dispatch(&mut c), (b, 1, 2, true));
        assert_eq!(dispatch(&mut c), (later, 1, 1, false));
        assert_eq!(c.mark_dead(1).map(|fates| fates.len()), Some(3));
        // With nobody left, the window's jobs fail loudly, in id order.
        for id in [a, b, later] {
            assert!(matches!(c.next_dispatch(), Step::NoWorkers(got) if got == id));
        }
        assert!(matches!(c.next_dispatch(), Step::Idle));
        assert_eq!(c.dead_workers(), ["w0", "w1"]);
        assert!(c.quiescent());
    }

    /// A worker declared dead can still answer for a job that has since
    /// been requeued onto another worker. That late `Busy` must not put
    /// the job back in the queue, refund an attempt, or let the job be
    /// dispatched a third time while the new worker holds it.
    #[test]
    fn a_stale_busy_cannot_move_a_job_another_worker_holds() {
        let mut c = coordinator(2);
        let id = queued(&mut c, 0);
        assert_eq!(dispatch(&mut c).1, 0);
        c.mark_dead(0).expect("w0 was alive");
        assert_eq!(dispatch(&mut c), (id, 1, 2, true));

        assert!(!c.on_busy(0, id), "w0 no longer holds the job");
        let job = c.job(id).expect("admitted");
        assert_eq!(job.state, JobState::Dispatched(1));
        assert_eq!(job.attempts, 2);
        assert!(matches!(c.next_dispatch(), Step::Idle), "nothing pending");

        // The same holds for a late result or refusal ...
        assert!(c.on_done(0, id, record()).is_none());
        assert!(!c.on_rejected(0, id, "late"));
        assert_eq!(c.job(id).expect("admitted").state, JobState::Dispatched(1));
        // ... while the holder's own reply still lands.
        assert!(c.on_done(1, id, record()).is_some());
        assert!(c.quiescent());
    }

    #[test]
    fn busy_gives_back_the_attempt_and_requeues() {
        let mut c = coordinator(1);
        let id = queued(&mut c, 0);
        dispatch(&mut c);
        assert!(c.on_busy(0, id));
        assert_eq!(c.job(id).expect("admitted").attempts, 0);
        assert_eq!(c.snapshot(id).expect("admitted").state, "queued");
        assert_eq!(dispatch(&mut c).2, 1);
    }

    /// The admission bound counts jobs waiting in the scheduler, not
    /// outstanding ones: once a job is taken into a dispatch window its
    /// slot is free, even while it runs.
    #[test]
    fn a_dispatched_job_frees_its_admission_slot() {
        let mut c = Coordinator::new(
            1,
            &ClusterConfig {
                queue_capacity: 1,
                ..ClusterConfig::default()
            },
        );
        queued(&mut c, 1);
        assert!(matches!(
            c.admit(spec(2), "g", JobClass::Interactive, Some(2), true),
            Submission::QueueFull
        ));
        dispatch(&mut c);
        queued(&mut c, 2);
        assert!(matches!(
            c.admit(spec(3), "g", JobClass::Interactive, Some(3), true),
            Submission::QueueFull
        ));
    }

    /// Terminal jobs retire from the table, so it stays bounded over a
    /// long run; ids stay monotone, a retired id is unknown, and the
    /// lifetime drain report still counts every job.
    #[test]
    fn the_job_table_stays_bounded_as_terminal_jobs_retire() {
        let mut c = coordinator(2);
        c.retire_ttl = Duration::ZERO;
        let done = record();
        let total = 3000u64;
        let mut last = None;
        for n in 0..total {
            let now = Duration::from_millis(n);
            assert!(c.retire_expired(now) <= 1);
            let id = queued(&mut c, n);
            assert!(last.is_none_or(|prev| id > prev), "ids stay monotone");
            last = Some(id);
            let (got, worker, _, _) = dispatch(&mut c);
            assert_eq!(got, id);
            assert!(c.on_done(worker, id, done.clone()).is_some());
            assert_eq!(c.table_len(), 1, "only the newest job is in the table");
        }
        assert_eq!(c.retire_expired(Duration::from_millis(total)), 1);
        assert_eq!(c.table_len(), 0);
        assert!(c.snapshot(0).is_none(), "a retired id is unknown");
        assert!(c.begin_drain().is_empty());
        assert_eq!(c.drain_report().completed, total as usize);
        assert_eq!(c.drain_work_report(), DrainReport::default());
    }
}
