//! The coordinator's job lifecycle as one sans-IO state machine.
//!
//! [`Coordinator`] owns the job table, request coalescing
//! ([`InflightMap`]), the deficit-round-robin pending queue with its
//! current dispatch window, admission and drain state, each worker's
//! alive flag and dispatched set, and the names of dead workers. It has
//! no locks, threads, sockets or clock reads: each transition takes one
//! event and returns what happened, so its caller can count it, log it
//! or send it. Two callers run it — [`crate::cluster::ClusterEngine`]
//! from its threads, and the `sdvbs-sim` simulator from a single-threaded
//! event loop under virtual time and seeded faults — so a bug the
//! simulator finds is a bug in this code. The pure policies it applies
//! ([`pick_target`], [`orphan_disposition`], [`RetryPolicy`]) and the
//! staleness rule both callers apply to their heartbeat clocks
//! ([`is_stale`]) are public functions here.
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
use crate::engine::{group_key, JobSnapshot, Submission};
use crate::sched::{Drr, JobClass};
use crate::shutdown::DrainReport;
use sdvbs_runner::{Job, RunRecord};
use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

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
    /// Admitted, waiting for the dispatcher.
    Pending,
    /// Dispatched to worker `i`, awaiting its result.
    Dispatched(usize),
    /// Finished with a record.
    Done(Box<RunRecord>),
    /// Refused without a result (drain, or a worker-side validation
    /// error).
    Rejected(String),
    /// Abandoned after exhausting the retry budget across worker deaths,
    /// or because no worker was left alive.
    Quarantined(String),
}

/// One admitted job.
#[derive(Debug, Clone)]
pub struct CoordJob {
    /// The spec a worker executes.
    pub spec: Job,
    /// `spec_digest(&spec)`: the shard key and coalescing key.
    pub digest: u64,
    /// The QoS class it was admitted in.
    pub class: JobClass,
    /// Lifecycle state.
    pub state: JobState,
    /// Executions begun (see the module docs).
    pub attempts: u32,
}

/// One step of the dispatcher; see [`Coordinator::next_dispatch`].
#[derive(Debug, Clone)]
pub enum Step {
    /// A DRR batch of this many jobs entered the dispatch window.
    Batch(usize),
    /// Send job `id` to `worker`: its `attempt`-th execution, `stolen`
    /// when `worker` is not its home shard.
    Dispatch {
        /// The job id.
        id: u64,
        /// The target worker's index.
        worker: usize,
        /// The spec to send.
        spec: Job,
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

/// The coordinator's job lifecycle. See the module docs.
#[derive(Debug)]
pub struct Coordinator {
    jobs: Vec<CoordJob>,
    inflight: InflightMap,
    /// Admitted-not-dispatched jobs, scheduled by deficit round robin
    /// across QoS classes with benchmark×size batching.
    pending: Drr,
    /// The batch the dispatcher is working through (popped from
    /// `pending`; drain rejects these too).
    current: VecDeque<u64>,
    /// Admitted, non-terminal jobs.
    outstanding: usize,
    draining: bool,
    /// Per worker, the jobs dispatched to it and not yet answered, or
    /// `None` once it is out of service. Ordered, so a death requeues
    /// its orphans deterministically.
    workers: Vec<Option<BTreeSet<u64>>>,
    dead: Vec<String>,
    queue_capacity: usize,
    per_worker_inflight: usize,
    retry: RetryPolicy,
}

impl Coordinator {
    /// A coordinator over `workers` workers (named by [`worker_name`]), all
    /// alive, with `cfg`'s admission bound, in-flight cap, retry budget
    /// and scheduler knobs.
    pub fn new(workers: usize, cfg: &ClusterConfig) -> Coordinator {
        Coordinator {
            jobs: Vec::new(),
            inflight: InflightMap::new(),
            pending: Drr::new(cfg.sched.clone()),
            current: VecDeque::new(),
            outstanding: 0,
            draining: false,
            workers: vec![Some(BTreeSet::new()); workers],
            dead: Vec::new(),
            queue_capacity: cfg.queue_capacity.max(1),
            per_worker_inflight: cfg.per_worker_inflight,
            retry: RetryPolicy {
                budget: cfg.retry_budget,
            },
        }
    }

    /// Admits a submission: refused while draining, attached to an
    /// identical in-flight job unless `fresh`, refused when `outstanding`
    /// jobs fill the admission bound, else queued under a new id. Never
    /// answers [`Submission::Cached`]: the result cache sits above the
    /// state machine, in the caller.
    pub fn admit(&mut self, spec: Job, digest: u64, class: JobClass, fresh: bool) -> Submission {
        if self.draining {
            return Submission::Draining;
        }
        if !fresh {
            if let Some(id) = self.inflight.get(digest) {
                return Submission::Coalesced(id);
            }
        }
        if self.outstanding >= self.queue_capacity {
            return Submission::QueueFull;
        }
        let id = self.jobs.len() as u64;
        self.pending.push_back(id, &group_key(&spec), class);
        self.inflight.claim(digest, id);
        self.jobs.push(CoordJob {
            spec,
            digest,
            class,
            state: JobState::Pending,
            attempts: 0,
        });
        self.outstanding += 1;
        Submission::Queued(id)
    }

    /// Advances the dispatcher by one step: refills an empty dispatch
    /// window with the next DRR batch, or takes the window's front job
    /// and picks its worker ([`pick_target`]). The caller repeats this
    /// until it answers [`Step::Full`] or [`Step::Idle`].
    pub fn next_dispatch(&mut self) -> Step {
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
        let job = &mut self.jobs[id as usize];
        let Some(w) = pick_target(job.digest, &alive, &inflight, self.per_worker_inflight) else {
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
            spec: job.spec.clone(),
            attempt: job.attempts,
            stolen: w as u64 != job.digest % self.workers.len() as u64,
        }
    }

    /// Worker `w` finished job `id` with `record`. Returns the job, now
    /// done, or `None` when `w` no longer held it (a late reply).
    pub fn on_done(&mut self, w: usize, id: u64, record: RunRecord) -> Option<&CoordJob> {
        if !self.answer(w, id) {
            return None;
        }
        self.finish(id, JobState::Done(Box::new(record)));
        Some(&self.jobs[id as usize])
    }

    /// Worker `w` refused job `id` as invalid. Returns whether the reply
    /// applied (`false` for a late reply).
    pub fn on_rejected(&mut self, w: usize, id: u64, detail: &str) -> bool {
        let held = self.answer(w, id);
        if held {
            self.finish(id, JobState::Rejected(detail.to_string()));
        }
        held
    }

    /// Worker `w`'s queue was full: job `id` goes back to the pending
    /// queue for the dispatcher to steal elsewhere, and gives back the
    /// attempt its dispatch charged (the bounce never executed). Returns
    /// whether the reply applied (`false` for a late reply).
    pub fn on_busy(&mut self, w: usize, id: u64) -> bool {
        let held = self.answer(w, id);
        if held {
            let job = &mut self.jobs[id as usize];
            job.state = JobState::Pending;
            job.attempts = job.attempts.saturating_sub(1);
            self.pending.push_back(id, &group_key(&job.spec), job.class);
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
            let attempts = self.jobs[id as usize].attempts;
            // Every execution so far has failed (the last one just died
            // with its worker), so `attempts` *is* the failed count.
            let fate = orphan_disposition(attempts, self.retry, self.draining);
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
                    self.jobs[id as usize].state = JobState::Pending;
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

    /// Starts a drain: admission closes, and every admitted but
    /// undispatched job — the dispatch window included — is rejected.
    /// Returns the rejected ids; empty when a drain had already begun.
    pub fn begin_drain(&mut self) -> Vec<u64> {
        if self.draining {
            return Vec::new();
        }
        self.draining = true;
        let mut ids: Vec<u64> = self.current.drain(..).collect();
        ids.extend(self.pending.drain_all());
        for &id in &ids {
            self.finish(
                id,
                JobState::Rejected("server shutting down before execution".into()),
            );
        }
        ids
    }

    /// Whether every admitted job is terminal.
    pub fn quiescent(&self) -> bool {
        self.outstanding == 0
    }

    /// Lifetime totals of terminal jobs, and the dead workers by name.
    pub fn drain_report(&self) -> DrainReport {
        let mut report = DrainReport {
            dead_workers: self.dead.clone(),
            ..DrainReport::default()
        };
        for job in &self.jobs {
            match job.state {
                JobState::Done(_) => report.completed += 1,
                JobState::Rejected(_) => report.rejected += 1,
                JobState::Quarantined(_) => report.quarantined += 1,
                JobState::Pending | JobState::Dispatched(_) => {}
            }
        }
        report
    }

    /// Job `id`'s externally visible state, or `None` for an unknown id.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let job = self.jobs.get(id as usize)?;
        let (state, record, detail) = match &job.state {
            JobState::Pending => ("queued", None, String::new()),
            JobState::Dispatched(_) => ("running", None, String::new()),
            JobState::Done(record) => ("done", Some(record.as_ref().clone()), String::new()),
            JobState::Rejected(why) | JobState::Quarantined(why) => ("rejected", None, why.clone()),
        };
        Some(JobSnapshot {
            id,
            state,
            record,
            detail,
        })
    }

    /// Every admitted job, indexed by id.
    pub fn jobs(&self) -> &[CoordJob] {
        &self.jobs
    }

    /// Whether worker `w` is in service.
    pub fn is_alive(&self, w: usize) -> bool {
        matches!(self.workers.get(w), Some(Some(_)))
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining
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
            self.jobs.get(id as usize).map(|job| &job.state),
            Some(JobState::Dispatched(d)) if *d == w
        )
    }

    /// Moves job `id` to a terminal state and releases its coalescing
    /// claim: the one place a job stops being outstanding.
    fn finish(&mut self, id: u64, terminal: JobState) {
        let job = &mut self.jobs[id as usize];
        job.state = terminal;
        self.inflight.release(job.digest, id);
        self.outstanding -= 1;
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
        match c.admit(spec(digest), digest, JobClass::Interactive, true) {
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
            c.admit(spec(7), 7, JobClass::Interactive, false),
            Submission::Coalesced(x) if x == id
        ));
        queued(&mut c, 7);
        assert!(matches!(
            c.admit(spec(8), 8, JobClass::Batch, true),
            Submission::QueueFull
        ));
        assert_eq!(c.begin_drain(), vec![0, 1]);
        assert!(c.quiescent());
        assert!(matches!(
            c.admit(spec(9), 9, JobClass::Interactive, true),
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
        let job = &c.jobs()[id as usize];
        assert_eq!(job.state, JobState::Dispatched(1));
        assert_eq!(job.attempts, 2);
        assert!(matches!(c.next_dispatch(), Step::Idle), "nothing pending");

        // The same holds for a late result or refusal ...
        assert!(c.on_done(0, id, record()).is_none());
        assert!(!c.on_rejected(0, id, "late"));
        assert_eq!(c.jobs()[id as usize].state, JobState::Dispatched(1));
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
        assert_eq!(c.jobs()[id as usize].attempts, 0);
        assert_eq!(c.snapshot(id).expect("admitted").state, "queued");
        assert_eq!(dispatch(&mut c).2, 1);
    }
}
