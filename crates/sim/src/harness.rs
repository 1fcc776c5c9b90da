//! Running, exploring, and replaying simulations.
//!
//! [`run_sim`] executes one seed end to end: plan the load and fault
//! schedule from the seed, run the event loop, check every invariant,
//! and fold the event log into a digest. Two runs of the same
//! [`SimConfig`] produce byte-identical logs and therefore equal digests
//! — that equality *is* the replay guarantee, and `tests/replay.rs` pins
//! it.
//!
//! [`explore`] sweeps a seed range and stops at nothing: every seed runs,
//! every violation is collected, and the report names the first failing
//! seed so `sdvbs-sim replay --seed N` reproduces it exactly.

use crate::faults::{plan, FaultSchedule, FaultSpec};
use crate::invariants::{check, CheckContext};
use crate::model::{JobState, ModelConfig, SimModel};
use crate::net::NetConfig;
use crate::rng::SimRng;
use sdvbs_runner::Job;
use sdvbs_serve::fnv1a;
use std::time::Duration;

/// Everything that determines a simulated run. Two equal configs give
/// bit-identical runs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The seed: load, faults, latency draws, execution times.
    pub seed: u64,
    /// Simulated duration before the drain begins.
    pub duration: Duration,
    /// Allowed fault kinds.
    pub faults: FaultSpec,
    /// Jobs submitted per simulated second.
    pub jobs_per_sec: u64,
    /// Cluster shape and timing.
    pub model: ModelConfig,
}

impl SimConfig {
    /// A run of `duration` over the default cluster shape.
    pub fn new(seed: u64, duration: Duration, faults: FaultSpec) -> Self {
        SimConfig {
            seed,
            duration,
            faults,
            jobs_per_sec: 3,
            model: ModelConfig::default(),
        }
    }
}

/// Outcome tallies for one run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Jobs admitted by the coordinator.
    pub admitted: u64,
    /// Jobs completed with a record.
    pub completed: u64,
    /// Jobs rejected (drain or worker-side).
    pub rejected: u64,
    /// Jobs quarantined.
    pub quarantined: u64,
    /// Submissions refused at admission.
    pub refused_admission: u64,
    /// Orphan requeues across worker deaths.
    pub requeues: u64,
    /// `Busy` bounces.
    pub busy_bounces: u64,
    /// Dispatches stolen off the home shard.
    pub stolen: u64,
    /// Worker deaths declared (stale + link).
    pub deaths: u64,
    /// Deaths declared by heartbeat staleness.
    pub stale_deaths: u64,
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The seed that produced it.
    pub seed: u64,
    /// FNV-1a over the event log: the replay fingerprint.
    pub digest: u64,
    /// Final virtual time (µs).
    pub end_us: u64,
    /// Outcome tallies.
    pub stats: SimStats,
    /// Invariant violations (empty = clean run).
    pub violations: Vec<String>,
    /// The deterministic event log.
    pub log: Vec<String>,
    /// The fault schedule the seed planned.
    pub schedule: FaultSchedule,
}

/// Builds the seeded job load: arrival times across 95% of the run —
/// the tail deliberately overlaps the drain so drain-time rejection and
/// in-flight-completion sequencing get exercised — with specs drawn
/// over the benchmark names.
fn plan_load(rng: &mut SimRng, cfg: &SimConfig) -> Vec<(u64, Job)> {
    const BENCHES: &[&str] = &[
        "disparity",
        "tracking",
        "mser",
        "sift",
        "stitch",
        "svm",
        "texture_synthesis",
    ];
    let duration_us = cfg.duration.as_micros() as u64;
    let count = (cfg.duration.as_secs().max(1)) * cfg.jobs_per_sec.max(1);
    let mut load = Vec::with_capacity(count as usize);
    for i in 0..count {
        let at = rng.range(0, (duration_us * 19 / 20).max(1));
        let bench = BENCHES[rng.range(0, BENCHES.len() as u64) as usize];
        let spec = Job::new(
            bench,
            sdvbs_core::InputSize::Sqcif,
            sdvbs_core::ExecPolicy::Serial,
            cfg.seed.wrapping_mul(1000).wrapping_add(i),
            1,
        );
        load.push((at, spec));
    }
    load.sort_by_key(|&(at, _)| at);
    load
}

/// Runs one seed end to end.
pub fn run_sim(cfg: &SimConfig) -> SimOutcome {
    let duration_us = cfg.duration.as_micros() as u64;
    let mut rng = SimRng::new(cfg.seed);
    let schedule = plan(
        cfg.faults,
        &mut rng,
        cfg.model.workers,
        duration_us,
        cfg.model.liveness_us,
    );
    let load = plan_load(&mut rng, cfg);
    let net = NetConfig {
        latency_min_us: 500,
        latency_max_us: if schedule.reorder { 80_000 } else { 5_000 },
    };
    let mut model = SimModel::new(cfg.model.clone(), rng, net, &schedule, load, duration_us);
    // Horizon: the drain plus every straggler (partition heals, stalls,
    // full retry chains) must quiesce well inside this.
    let horizon_us = duration_us + 4 * cfg.model.liveness_us + 60_000_000;
    let end_us = model.run(horizon_us);
    let events_left = model.events_left();
    let ctx = CheckContext {
        schedule: &schedule,
        liveness_us: cfg.model.liveness_us,
        retry_budget: cfg.model.retry_budget,
        events_left,
        end_us,
        horizon_us,
    };
    let violations = check(&model, &ctx);
    let mut stats = SimStats {
        admitted: model.jobs().len() as u64,
        refused_admission: model.audit.refused_admission,
        requeues: model.audit.requeues,
        busy_bounces: model.audit.busy_bounces,
        stolen: model.audit.stolen,
        deaths: model.audit.deaths.len() as u64,
        stale_deaths: model.audit.deaths.iter().filter(|d| d.stale).count() as u64,
        ..SimStats::default()
    };
    for job in model.jobs() {
        match job.state {
            JobState::Done(_) => stats.completed += 1,
            JobState::Rejected(_) => stats.rejected += 1,
            JobState::Quarantined(_) => stats.quarantined += 1,
            _ => {}
        }
    }
    let mut preimage = Vec::new();
    for line in &model.log {
        preimage.extend_from_slice(line.as_bytes());
        preimage.push(b'\n');
    }
    SimOutcome {
        seed: cfg.seed,
        digest: fnv1a(&preimage),
        end_us,
        stats,
        violations,
        log: model.log.clone(),
        schedule,
    }
}

/// One seed's row in an exploration report.
#[derive(Debug, Clone)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Its replay digest.
    pub digest: u64,
    /// Simulated microseconds covered.
    pub end_us: u64,
    /// Violations, empty when clean.
    pub violations: Vec<String>,
}

/// A whole seed-range sweep.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Per-seed results in seed order.
    pub results: Vec<SeedResult>,
    /// Total simulated microseconds across the sweep.
    pub total_sim_us: u64,
    /// The first failing seed and its violations, if any failed.
    pub first_failure: Option<(u64, Vec<String>)>,
}

/// Runs every seed in `[from, to)` with the given template (seed field
/// overridden per run).
pub fn explore(from: u64, to: u64, template: &SimConfig) -> ExploreReport {
    let mut results = Vec::new();
    let mut total_sim_us = 0u64;
    let mut first_failure = None;
    for seed in from..to {
        let cfg = SimConfig {
            seed,
            ..template.clone()
        };
        let outcome = run_sim(&cfg);
        total_sim_us += outcome.end_us;
        if !outcome.violations.is_empty() && first_failure.is_none() {
            first_failure = Some((seed, outcome.violations.clone()));
        }
        results.push(SeedResult {
            seed,
            digest: outcome.digest,
            end_us: outcome.end_us,
            violations: outcome.violations,
        });
    }
    ExploreReport {
        results,
        total_sim_us,
        first_failure,
    }
}
