//! The deterministic model of the coordinator/worker cluster.
//!
//! The coordinator here *is* production's: every admission, dispatch,
//! reply, death, retirement and drain goes through the same sans-IO
//! [`Coordinator`] state machine that [`sdvbs_serve::cluster`] and the
//! single-process engine drive from their threads, so the model cannot
//! drift from the code it tests. Retirement ages against the virtual
//! clock with the production TTL
//! ([`DEFAULT_RETIRE_TTL`](sdvbs_serve::coord::DEFAULT_RETIRE_TTL)),
//! longer than any default run, so every admitted job stays in the
//! table for the invariant checks.
//! Two more things are shared with production outright:
//!
//! * **every message** is a real [`sdvbs_wire::Message`], round-tripped
//!   through [`encode_frame`]/[`decode_frame`] on each hop, so the sim
//!   exercises the production codec on every delivery;
//! * **time** is a real [`sdvbs_exec::VirtualClock`] behind a
//!   [`ClockHandle`] — the same handle type the production config
//!   carries — advanced by the event loop; heartbeat staleness is
//!   measured with `ClockHandle::since` and judged by
//!   [`sdvbs_serve::coord::is_stale`] exactly as the coordinator does.
//!
//! What the model replaces is the *mechanics* around the state machine:
//! threads become events, TCP becomes [`SimNet`] (which keeps TCP's
//! FIFO-per-link, no-silent-loss contract), and worker engines become
//! queued virtual executions. Faults — crashes, stalls, partitions —
//! come from a seed-planned [`FaultSchedule`], so any run reproduces from
//! its seed alone.

use crate::faults::FaultSchedule;
use crate::net::{Dir, NetConfig, SimNet};
use crate::rng::SimRng;
use crate::sched::EventQueue;
use sdvbs_exec::ClockHandle;
use sdvbs_runner::{policy_label, size_label, HostMeta, Job, RunRecord, RunStatus};
pub use sdvbs_serve::coord::JobState;
use sdvbs_serve::coord::{is_stale, Coordinator, OrphanDisposition, Step};
use sdvbs_serve::engine::group_key;
use sdvbs_serve::{spec_digest, ClusterConfig, JobClass, Submission};
use sdvbs_wire::{decode_frame, encode_frame, Message};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Cluster sizing and timing knobs, all in virtual microseconds.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Worker process count.
    pub workers: usize,
    /// Coordinator admission bound: jobs waiting in the scheduler, not yet
    /// taken into the dispatch window.
    pub queue_capacity: usize,
    /// Per-worker in-flight cap before the dispatcher steals.
    pub per_worker_inflight: usize,
    /// Heartbeat interval.
    pub heartbeat_us: u64,
    /// Staleness window.
    pub liveness_us: u64,
    /// Retries beyond a job's first execution.
    pub retry_budget: u32,
    /// Worker-side admission bound (queued + running) before `Busy`.
    pub worker_queue: usize,
    /// Concurrent executions per worker.
    pub worker_slots: usize,
    /// Execution-duration window per job.
    pub exec_min_us: u64,
    /// Upper bound of the execution window.
    pub exec_max_us: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        let cluster = ClusterConfig::default();
        ModelConfig {
            workers: 3,
            queue_capacity: 1024,
            per_worker_inflight: cluster.per_worker_inflight,
            heartbeat_us: cluster.heartbeat.as_micros() as u64,
            liveness_us: cluster.liveness.as_micros() as u64,
            retry_budget: cluster.retry_budget,
            // Smaller than per_worker_inflight on purpose: the
            // coordinator can legally overrun a worker's queue, so the
            // Busy-bounce path gets exercised under bursty load.
            worker_queue: 5,
            worker_slots: 2,
            exec_min_us: 50_000,
            exec_max_us: 800_000,
        }
    }
}

/// One admitted job, viewed for invariant checking: the coordinator's
/// table entry plus the audit counts the model took from the
/// coordinator's returned outcomes.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Lifecycle state, as the coordinator holds it.
    pub state: JobState,
    /// Executions begun (the unified accounting of
    /// [`sdvbs_serve::coord`]).
    pub attempts: u32,
    /// Highest attempt number ever dispatched (Busy refunds lower
    /// `attempts`, never this).
    pub attempts_high: u32,
    /// Times the coordinator reported the job entering a terminal state.
    /// The no-lost/no-double invariant demands exactly 1.
    pub terminal_transitions: u32,
    /// The completed record, when `Done` (a copy of the one in `state`).
    pub record: Option<Box<RunRecord>>,
}

/// The per-job counts [`SimJob`] adds to the coordinator's table.
#[derive(Debug, Clone, Copy, Default)]
struct JobAudit {
    attempts_high: u32,
    terminal_transitions: u32,
}

/// A recorded worker death.
#[derive(Debug, Clone)]
pub struct Death {
    /// Worker index.
    pub worker: usize,
    /// Virtual time of the declaration.
    pub at_us: u64,
    /// Why the worker was declared dead.
    pub why: String,
    /// True when declared by heartbeat staleness (vs. a broken link).
    pub stale: bool,
}

/// Everything a simulated run leaves behind for invariant checking.
#[derive(Debug, Clone, Default)]
pub struct RunAudit {
    /// Worker deaths in declaration order.
    pub deaths: Vec<Death>,
    /// Submissions refused at admission (drain or queue-full): these
    /// never became jobs.
    pub refused_admission: u64,
    /// `Busy` bounces redispatched.
    pub busy_bounces: u64,
    /// Orphans requeued across worker deaths.
    pub requeues: u64,
    /// Jobs stolen off their home shard.
    pub stolen: u64,
    /// One line per dispatch of a job that a worker the coordinator
    /// still considered alive held queued or running.
    pub held_dispatches: Vec<String>,
}

#[derive(Default)]
struct SimWorker {
    crashed: bool,
    stalled_until: u64,
    draining: bool,
    drain_ok_pending: bool,
    /// Queued-but-not-running `(job id, exec_us)`.
    queue: VecDeque<(u64, u64)>,
    /// Running job id → scheduled finish time.
    running: BTreeMap<u64, u64>,
    completed: u64,
    rejected: u64,
}

impl SimWorker {
    fn outstanding(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    fn holds(&self, id: u64) -> bool {
        self.running.contains_key(&id) || self.queue.iter().any(|&(q, _)| q == id)
    }
}

enum Ev {
    /// The load plan submits `planned[i]`.
    Submit(usize),
    /// A frame arrives at worker `w`.
    ToWorker { w: usize, frame: Vec<u8> },
    /// A frame arrives at the coordinator from worker `w`.
    ToCoord { w: usize, frame: Vec<u8> },
    /// Worker `w`'s link tears (the coordinator's reader sees EOF).
    LinkBroken { w: usize },
    /// The heartbeat loop's next sweep.
    HeartbeatTick,
    /// Worker `w` finishes executing job `id`.
    Finish { w: usize, id: u64 },
    /// Fault: worker `w` dies.
    Crash { w: usize },
    /// Fault: worker `w` stops responding until `until_us`.
    StallStart { w: usize, until_us: u64 },
    /// The operator starts a cluster drain.
    BeginDrain,
}

/// The whole simulated cluster: coordinator, workers, network, clock.
pub struct SimModel {
    cfg: ModelConfig,
    rng: SimRng,
    net: SimNet,
    queue: EventQueue<Ev>,
    clock: ClockHandle,
    virt: std::sync::Arc<sdvbs_exec::VirtualClock>,

    /// The production coordinator state machine.
    coord: Coordinator,
    /// Per-job audit counts, indexed by job id.
    job_audits: Vec<JobAudit>,
    // The state `ClusterEngine` keeps beside its state machine.
    stopping: bool,
    last_beat: Vec<Duration>,
    hb_seq: u64,

    workers: Vec<SimWorker>,
    planned: Vec<Job>,

    /// Deterministic event log; its hash is the run's digest.
    pub log: Vec<String>,
    /// Invariant-relevant observations.
    pub audit: RunAudit,
}

impl SimModel {
    /// Builds a cluster over a planned load and fault schedule. `load` is
    /// `(arrival_us, spec)` pairs; `drain_at_us` starts the drain.
    pub fn new(
        cfg: ModelConfig,
        rng: SimRng,
        net_cfg: NetConfig,
        schedule: &FaultSchedule,
        load: Vec<(u64, Job)>,
        drain_at_us: u64,
    ) -> Self {
        let n = cfg.workers.max(1);
        let (clock, virt) = ClockHandle::simulated();
        let net = SimNet::new(net_cfg, n, schedule.partitions.clone());
        let mut queue = EventQueue::new();
        let mut planned = Vec::with_capacity(load.len());
        for (i, (at, spec)) in load.into_iter().enumerate() {
            queue.push(at, Ev::Submit(i));
            planned.push(spec);
        }
        for &(at, w) in &schedule.crashes {
            queue.push(at, Ev::Crash { w });
        }
        for &(w, from, until) in &schedule.stalls {
            queue.push(from, Ev::StallStart { w, until_us: until });
        }
        queue.push(0, Ev::HeartbeatTick);
        queue.push(drain_at_us, Ev::BeginDrain);
        let t0 = clock.now();
        let coord = Coordinator::new(
            n,
            &ClusterConfig {
                queue_capacity: cfg.queue_capacity,
                per_worker_inflight: cfg.per_worker_inflight,
                retry_budget: cfg.retry_budget,
                ..ClusterConfig::default()
            },
        );
        SimModel {
            cfg,
            rng,
            net,
            queue,
            clock,
            virt,
            coord,
            job_audits: Vec::new(),
            stopping: false,
            last_beat: vec![t0; n],
            hb_seq: 0,
            workers: (0..n).map(|_| SimWorker::default()).collect(),
            planned,
            log: Vec::new(),
            audit: RunAudit::default(),
        }
    }

    /// Runs the event loop to quiescence and returns the final virtual
    /// time in microseconds. `horizon_us` is a hard stop against a
    /// non-terminating schedule — reaching it is itself an invariant
    /// failure the checker reports.
    pub fn run(&mut self, horizon_us: u64) -> u64 {
        while let Some((now, ev)) = self.queue.pop() {
            if now > horizon_us {
                self.note(now, "HORIZON exceeded; aborting event loop".to_string());
                return now;
            }
            self.virt.advance_to(Duration::from_micros(now));
            self.handle(now, ev);
            self.stop_when_drained(now);
        }
        self.queue.now_us()
    }

    /// The admitted jobs, for invariant checks and reporting: the
    /// coordinator's table joined with the audit counts.
    pub fn jobs(&self) -> Vec<SimJob> {
        self.coord
            .jobs()
            .map(|(id, job)| (job, &self.job_audits[id as usize]))
            .map(|(job, audit)| SimJob {
                state: job.state.clone(),
                attempts: job.attempts,
                attempts_high: audit.attempts_high,
                terminal_transitions: audit.terminal_transitions,
                record: match &job.state {
                    JobState::Done(record) => Some(record.clone()),
                    _ => None,
                },
            })
            .collect()
    }

    /// Events still scheduled (nonzero only when the horizon tripped).
    pub fn events_left(&self) -> usize {
        self.queue.len()
    }

    /// Whether the coordinator finished its drain.
    pub fn drain_complete(&self) -> bool {
        self.stopping
    }

    /// The latency ceiling the staleness invariant is judged against.
    pub fn latency_max_us(&self) -> u64 {
        self.net.latency_max_us()
    }

    fn note(&mut self, now: u64, line: String) {
        self.log.push(format!("{now:>12} {line}"));
    }

    // ---- transport ----------------------------------------------------

    fn send_to_worker(&mut self, now: u64, w: usize, msg: &Message) {
        let frame = encode_frame(msg);
        let at = self.net.delivery(&mut self.rng, now, Dir::ToWorker(w));
        self.queue.push(at, Ev::ToWorker { w, frame });
    }

    fn send_to_coord(&mut self, now: u64, w: usize, msg: &Message) {
        let frame = encode_frame(msg);
        let at = self.net.delivery(&mut self.rng, now, Dir::ToCoord(w));
        self.queue.push(at, Ev::ToCoord { w, frame });
    }

    fn decode(frame: &[u8]) -> Message {
        match decode_frame(frame) {
            Ok(Some((msg, consumed))) if consumed == frame.len() => msg,
            other => unreachable!("sim delivered a torn frame: {other:?}"),
        }
    }

    // ---- event dispatch ------------------------------------------------

    fn handle(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::Submit(i) => self.on_submit(now, i),
            Ev::ToWorker { w, frame } => {
                // A stalled worker processes nothing until it wakes; a
                // crashed worker processes nothing ever (the kernel acked
                // the bytes, the process is gone).
                if self.workers[w].crashed {
                    return;
                }
                let wake = self.workers[w].stalled_until;
                if now < wake {
                    self.queue.push(wake, Ev::ToWorker { w, frame });
                    return;
                }
                let msg = Self::decode(&frame);
                self.worker_message(now, w, msg);
            }
            Ev::ToCoord { w, frame } => {
                let msg = Self::decode(&frame);
                self.coord_message(now, w, msg);
            }
            Ev::LinkBroken { w } => {
                // As in the coordinator's link reader: teardown closure
                // is not a death.
                if !self.stopping {
                    self.declare_dead(now, w, "link closed", false);
                }
            }
            Ev::HeartbeatTick => self.heartbeat_tick(now),
            Ev::Finish { w, id } => self.worker_finish(now, w, id),
            Ev::Crash { w } => self.crash(now, w),
            Ev::StallStart { w, until_us } => {
                if !self.workers[w].crashed {
                    self.workers[w].stalled_until = until_us;
                    self.note(now, format!("fault: w{w} stalls until {until_us}"));
                }
            }
            Ev::BeginDrain => self.on_drain(now),
        }
    }

    // ---- coordinator ---------------------------------------------------

    /// A submission (always `fresh`: the sim's load has distinct specs,
    /// and the result cache sits above the state machine in production
    /// too).
    fn on_submit(&mut self, now: u64, i: usize) {
        let spec = self.planned[i].clone();
        let digest = spec_digest(&spec);
        let group = group_key(&spec);
        self.coord.retire_expired(self.clock.now());
        let admitted = self
            .coord
            .admit(spec, &group, JobClass::Interactive, Some(digest), true);
        let why = match admitted {
            Submission::Queued(id) => {
                self.job_audits.push(JobAudit::default());
                self.note(now, format!("submit id={id} digest={digest:#018x}"));
                self.send_dispatches(now);
                return;
            }
            Submission::Draining => "draining",
            _ => "queue full",
        };
        self.audit.refused_admission += 1;
        self.note(now, format!("submit refused ({why}): load[{i}]"));
    }

    /// Steps the dispatcher until every live worker is at its cap or
    /// nothing is waiting, sending each dispatch it produces.
    fn send_dispatches(&mut self, now: u64) {
        loop {
            match self.coord.next_dispatch() {
                Step::Batch(_) => {}
                Step::NoWorkers(id) => self.count_terminal(now, id),
                Step::Dispatch {
                    id,
                    worker,
                    payload: spec,
                    attempt,
                    stolen,
                } => {
                    let holders: Vec<usize> = (0..self.workers.len())
                        .filter(|&x| self.coord.is_alive(x) && self.workers[x].holds(id))
                        .collect();
                    for holder in holders {
                        self.audit.held_dispatches.push(format!(
                            "job {id} dispatched to w{worker} at t={now}µs while live worker \
                             w{holder} held it"
                        ));
                    }
                    let audit = &mut self.job_audits[id as usize];
                    audit.attempts_high = audit.attempts_high.max(attempt);
                    self.audit.stolen += u64::from(stolen);
                    self.note(
                        now,
                        format!("dispatch id={id} -> w{worker} attempt={attempt}"),
                    );
                    self.send_to_worker(now, worker, &Message::Dispatch { id, spec });
                }
                Step::Full | Step::Idle => return,
            }
        }
    }

    /// A worker's reply, as the coordinator's link reader handles it.
    fn coord_message(&mut self, now: u64, w: usize, msg: Message) {
        let kind = msg.kind();
        let (id, applied) = match msg {
            Message::Done { id, record } => (id, self.coord.on_done(w, id, *record).is_some()),
            Message::Rejected { id, detail } => (id, self.coord.on_rejected(w, id, &detail)),
            Message::Busy { id } => (id, self.coord.on_busy(w, id)),
            Message::HeartbeatOk { .. } => {
                // A stale-marked worker's late replies refresh the beat
                // but never resurrect it — exactly production.
                self.last_beat[w] = self.clock.now();
                return;
            }
            Message::DrainOk {
                completed,
                rejected,
            } => {
                self.coord.retire(w);
                self.note(
                    now,
                    format!("drain_ok from w{w}: completed={completed} rejected={rejected}"),
                );
                return;
            }
            Message::Error { message } => {
                self.note(now, format!("worker w{w} error: {message}"));
                return;
            }
            _ => return,
        };
        if !applied {
            self.note(now, format!("late {kind} id={id} from w{w} ignored"));
            return;
        }
        if matches!(kind, "busy") {
            self.audit.busy_bounces += 1;
            self.note(now, format!("busy id={id} from w{w}; requeued"));
        } else {
            self.count_terminal(now, id);
        }
        self.send_dispatches(now);
    }

    /// Declares worker `w` dead through the state machine and logs what
    /// became of its orphans.
    fn declare_dead(&mut self, now: u64, w: usize, why: &str, stale: bool) {
        let Some(orphans) = self.coord.mark_dead(w) else {
            return;
        };
        self.audit.deaths.push(Death {
            worker: w,
            at_us: now,
            why: why.to_string(),
            stale,
        });
        self.note(now, format!("worker w{w} declared dead: {why}"));
        for (id, fate) in orphans {
            if fate == OrphanDisposition::Requeue {
                self.audit.requeues += 1;
                self.note(now, format!("requeue id={id} (orphan of w{w})"));
            } else {
                self.count_terminal(now, id);
            }
        }
        self.send_dispatches(now);
    }

    /// Records that the coordinator reported job `id` terminal — every
    /// terminal outcome passes here, so the no-double-terminal invariant
    /// is counted exactly.
    fn count_terminal(&mut self, now: u64, id: u64) {
        self.job_audits[id as usize].terminal_transitions += 1;
        let line = match self.coord.job(id).map(|job| &job.state) {
            Some(JobState::Done(_)) => format!("done id={id}"),
            Some(JobState::Rejected(why)) => format!("rejected id={id}: {why}"),
            Some(JobState::Quarantined(why)) => format!("quarantined id={id}: {why}"),
            other => format!("terminal outcome for id={id} in state {other:?}"),
        };
        self.note(now, line);
    }

    /// The heartbeat loop's body: send to the living, then judge
    /// staleness (a drain suppresses it).
    fn heartbeat_tick(&mut self, now: u64) {
        if self.stopping {
            return;
        }
        self.hb_seq += 1;
        let seq = self.hb_seq;
        let liveness = Duration::from_micros(self.cfg.liveness_us);
        for w in 0..self.workers.len() {
            if !self.coord.is_alive(w) {
                continue;
            }
            self.send_to_worker(now, w, &Message::Heartbeat { seq });
            let age = self.clock.since(self.last_beat[w]);
            if is_stale(age, liveness, self.coord.is_draining()) {
                self.declare_dead(now, w, "missed heartbeats", true);
            }
        }
        let next = now + self.cfg.heartbeat_us;
        self.queue.push(next, Ev::HeartbeatTick);
    }

    /// The operator's drain: admission closes and the undispatched are
    /// rejected.
    fn on_drain(&mut self, now: u64) {
        self.note(now, "drain begins".to_string());
        for id in self.coord.begin_drain() {
            self.count_terminal(now, id);
        }
    }

    /// The tail of `ClusterEngine::drain`: once every admitted job is
    /// terminal, raise `stopping` and tell each survivor to drain and
    /// exit.
    fn stop_when_drained(&mut self, now: u64) {
        if !self.coord.is_draining() || self.stopping || !self.coord.quiescent() {
            return;
        }
        self.stopping = true;
        self.note(now, "drain complete; stopping cluster".to_string());
        for w in 0..self.workers.len() {
            if self.coord.is_alive(w) {
                self.send_to_worker(now, w, &Message::Drain);
            }
        }
    }

    // ---- workers -------------------------------------------------------

    /// A worker's message handling, as `serve_coordinator` does it.
    fn worker_message(&mut self, now: u64, w: usize, msg: Message) {
        match msg {
            Message::Dispatch { id, spec } => {
                let full = self.workers[w].outstanding() >= self.cfg.worker_queue.max(1);
                if self.workers[w].draining || full {
                    self.send_to_coord(now, w, &Message::Busy { id });
                    return;
                }
                let exec = self
                    .rng
                    .range(self.cfg.exec_min_us, self.cfg.exec_max_us + 1);
                let worker = &mut self.workers[w];
                if worker.running.len() < self.cfg.worker_slots.max(1) {
                    worker.running.insert(id, now + exec);
                    self.queue.push(now + exec, Ev::Finish { w, id });
                } else {
                    worker.queue.push_back((id, exec));
                }
                // The spec round-tripped the codec; sanity-pin the digest
                // so a codec regression surfaces as a loud sim failure.
                assert_eq!(
                    Some(spec_digest(&spec)),
                    self.coord.job(id).and_then(|job| job.digest),
                    "spec mutated in transit"
                );
            }
            Message::Heartbeat { seq } => {
                let reply = Message::HeartbeatOk { seq, now_us: now };
                self.send_to_coord(now, w, &reply);
            }
            Message::Drain => {
                let worker = &mut self.workers[w];
                worker.draining = true;
                let queued: Vec<u64> = worker.queue.drain(..).map(|(id, _)| id).collect();
                worker.rejected += queued.len() as u64;
                for id in queued {
                    self.send_to_coord(
                        now,
                        w,
                        &Message::Rejected {
                            id,
                            detail: "worker draining".into(),
                        },
                    );
                }
                if self.workers[w].running.is_empty() {
                    self.send_drain_ok(now, w);
                } else {
                    self.workers[w].drain_ok_pending = true;
                }
            }
            _ => {}
        }
    }

    fn send_drain_ok(&mut self, now: u64, w: usize) {
        let (completed, rejected) = {
            let worker = &self.workers[w];
            (worker.completed, worker.rejected)
        };
        self.send_to_coord(
            now,
            w,
            &Message::DrainOk {
                completed,
                rejected,
            },
        );
    }

    fn worker_finish(&mut self, now: u64, w: usize, id: u64) {
        if self.workers[w].crashed {
            return;
        }
        let wake = self.workers[w].stalled_until;
        if now < wake {
            // The stalled process finishes (and reports) only after it
            // wakes.
            self.queue.push(wake, Ev::Finish { w, id });
            return;
        }
        if self.workers[w].running.remove(&id).is_none() {
            return;
        }
        self.workers[w].completed += 1;
        let record = self.synthesize_record(id);
        self.send_to_coord(
            now,
            w,
            &Message::Done {
                id,
                record: Box::new(record),
            },
        );
        // Promote the next queued job into the freed slot.
        if let Some((next_id, exec)) = self.workers[w].queue.pop_front() {
            self.workers[w].running.insert(next_id, now + exec);
            self.queue.push(now + exec, Ev::Finish { w, id: next_id });
        }
        if self.workers[w].drain_ok_pending && self.workers[w].running.is_empty() {
            self.workers[w].drain_ok_pending = false;
            self.send_drain_ok(now, w);
        }
    }

    fn crash(&mut self, now: u64, w: usize) {
        let worker = &mut self.workers[w];
        if worker.crashed {
            return;
        }
        worker.crashed = true;
        worker.queue.clear();
        worker.running.clear();
        self.note(now, format!("fault: w{w} crashes"));
        // The peer's OS tears the connection down; the coordinator's
        // reader observes it one propagation delay later.
        let at = self.net.delivery(&mut self.rng, now, Dir::ToCoord(w));
        self.queue.push(at, Ev::LinkBroken { w });
    }

    /// A `Done` record a real worker would produce: the sim executes
    /// nothing, but every field the wire schema and store care about is
    /// populated and survives the codec round trip.
    fn synthesize_record(&self, id: u64) -> RunRecord {
        let job = self.coord.job(id).expect("a dispatched job was admitted");
        let spec = &job.payload;
        let exec_ms = self.cfg.exec_min_us as f64 / 1e3;
        RunRecord {
            job_id: id,
            benchmark: spec.benchmark.clone(),
            size: size_label(spec.size),
            policy: policy_label(spec.policy),
            threads: 1,
            seed: spec.seed,
            iterations: spec.iterations,
            status: RunStatus::Completed,
            times_ms: vec![exec_ms],
            min_ms: exec_ms,
            p50_ms: exec_ms,
            mean_ms: exec_ms,
            max_ms: exec_ms,
            wall_ms: exec_ms,
            quality: None,
            detail: "simulated execution".into(),
            kernels: Vec::new(),
            non_kernel_percent: 0.0,
            occupancy_mode: "wall-clock".into(),
            host: HostMeta {
                os: "sdvbs-sim".into(),
                cpu: "virtual".into(),
                logical_cpus: 1,
            },
            attempts: job.attempts.max(1),
            injected: Vec::new(),
            quarantined: false,
        }
    }
}
