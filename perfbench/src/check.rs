//! Correctness checks shared by the workloads: served records against an
//! in-process `execute_job` of the same spec, and stream digests against
//! the one-shot oracle.

use sdvbs_core::ExecPolicy;
use sdvbs_runner::{execute_job, HostMeta, Job, RunRecord, RunStatus};
use sdvbs_serve::cache::cache_preimage;
use sdvbs_stream::{fold_digest, run_one_shot, StreamSpec, DIGEST_SEED};
use std::collections::BTreeMap;

/// The fields of a record that depend only on its spec: identity,
/// status, quality, detail, iteration count and the kernel call profile.
/// Timings, ids and host stamps are left out.
pub fn deterministic(r: &RunRecord) -> String {
    let kernels: Vec<String> = r
        .kernels
        .iter()
        .map(|k| format!("{}x{}", k.name, k.calls))
        .collect();
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}",
        r.benchmark,
        r.size,
        r.policy,
        r.threads,
        r.seed,
        r.iterations,
        r.status,
        r.quality.map(f64::to_bits),
        r.detail,
        r.times_ms.len(),
        kernels.join(","),
        r.occupancy_mode
    )
}

/// Served records grouped by the daemon's own cache preimage of their spec.
#[derive(Default)]
pub struct Served {
    pub by_spec: BTreeMap<String, (Job, RunRecord, usize)>,
    /// Records for one spec that disagreed with the first one served.
    pub inconsistent: Vec<String>,
}

impl Served {
    pub fn add(&mut self, job: &Job, rec: RunRecord) {
        let key = cache_preimage(job);
        match self.by_spec.get_mut(&key) {
            Some((_, first, n)) => {
                *n += 1;
                if deterministic(first) != deterministic(&rec) {
                    self.inconsistent.push(key);
                }
            }
            None => {
                self.by_spec.insert(key, (job.clone(), rec, 1));
            }
        }
    }

    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.by_spec.values().map(|(_, r, _)| r)
    }

    /// Re-executes every distinct spec in-process on `threads` threads and
    /// returns `(served copies that failed, descriptions)`. A mismatching
    /// spec fails every copy served of it; a copy that disagrees with the
    /// spec's first one fails too.
    pub fn verify(&self, threads: usize) -> (u64, Vec<String>) {
        let host = HostMeta::collect();
        let auto = ExecPolicy::Auto.worker_count();
        let specs: Vec<&(Job, RunRecord, usize)> = self.by_spec.values().collect();
        let mut problems: Vec<String> = self
            .inconsistent
            .iter()
            .map(|k| format!("{k}: served records for one spec disagree"))
            .collect();
        let chunks: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|t| {
                    let specs = &specs;
                    let host = &host;
                    scope.spawn(move || {
                        let mut bad = Vec::new();
                        for (job, served, n) in specs.iter().skip(t).step_by(threads.max(1)) {
                            match execute_job(job, 0, auto, host, None) {
                                Ok(local) if deterministic(&local) == deterministic(served) => {}
                                Ok(local) => bad.push((
                                    *n,
                                    format!(
                                        "{} ({n} served): served {:?} != in-process {:?}",
                                        cache_preimage(job),
                                        deterministic(served),
                                        deterministic(&local)
                                    ),
                                )),
                                Err(e) => bad.push((*n, format!("{}: {e}", cache_preimage(job)))),
                            }
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verification thread panicked"))
                .collect()
        });
        let mut failed = self.inconsistent.len() as u64;
        for (n, why) in chunks.into_iter().flatten() {
            failed += n as u64;
            problems.push(why);
        }
        (failed, problems)
    }

    /// Served records whose status is not `Completed`.
    pub fn failed(&self) -> usize {
        self.by_spec
            .values()
            .filter(|(_, r, _)| r.status != RunStatus::Completed)
            .map(|(_, _, n)| n)
            .sum()
    }
}

/// The rolling digest the one-shot oracle gives for `frames` frames.
pub fn one_shot_digest(spec: &StreamSpec, frames: u64) -> Result<u64, String> {
    let results = run_one_shot(spec, frames).map_err(|e| e.to_string())?;
    Ok(results
        .iter()
        .fold(DIGEST_SEED, |acc, r| fold_digest(acc, r.digest)))
}
