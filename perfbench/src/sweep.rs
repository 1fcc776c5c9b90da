//! `suite_sweep`: the paper's characterization through `sdvbs-runner`.

use crate::layers::{self, CELLS};
use crate::spans::Spans;
use crate::util::{geomean, median, pct, Proc, RssLog};
use crate::{Ctx, Pass, Timing};
use sdvbs_runner::{read_records, RunRecord, RunStatus};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The runner's default input seed.
const SWEEP_SEED: u64 = 1;
/// Timed iterations per cell.
const ITERATIONS: &str = "3";

/// Runs the runner to completion, sampling its RSS, and returns its
/// records and wall time.
fn run_runner(
    ctx: &Ctx,
    args: &[&str],
    out: &Path,
    rss: &mut RssLog,
    t0: Instant,
    spans: &mut Spans,
    parent: u64,
) -> Result<(Vec<RunRecord>, f64), String> {
    let mut list: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    list.extend(["--out".to_string(), out.display().to_string()]);
    let start = Instant::now();
    let mut proc = Proc::spawn("runner", &ctx.bins.join("sdvbs-runner"), &list, false)?;
    let pid = vec![("runner".to_string(), proc.pid())];
    while !proc.exited() {
        rss.sample_now(t0.elapsed().as_secs_f64(), &pid);
        std::thread::sleep(Duration::from_millis(20));
    }
    let wall = start.elapsed().as_secs_f64();
    spans.record("runner.process", parent, 0, start, Instant::now());
    let parse = Instant::now();
    let records = read_records(out).map_err(|e| format!("{}: {e}", out.display()))?;
    spans.record("runner.read_records", parent, 0, parse, Instant::now());
    Ok((records, wall))
}

pub fn suite_sweep(ctx: &Ctx, traced: bool, window: f64, reps: u64) -> Result<Pass, String> {
    let dir = ctx.scratch.join(format!("sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // The paper characterizes fixed inputs, and a sweep's peak memory and
    // Segmentation's eigensolve vary with the input seed by up to half
    // and a third; every run therefore sweeps the runner's default inputs.
    let seed = SWEEP_SEED.to_string();
    let out = dir.join("records.jsonl");
    let t0 = Instant::now();
    // Peak RSS counts the serial sweep process only: the threads:2
    // process's peak moves by a fifth from run to run with the
    // allocator's per-thread arenas, so it is reported beside it.
    let mut rss = RssLog::default();
    let mut rss_t2 = RssLog::default();
    let mut spans = Spans::new(traced, t0, 1);

    // Set-up: a fresh runner until every benchmark's warmup() and one
    // SQCIF pass are done (Face Detection trains its cascade here).
    let mut setup_s = Vec::new();
    for _ in 0..reps {
        let (recs, wall) = run_runner(
            ctx,
            &[
                "run",
                "--size",
                "sqcif",
                "--iterations",
                "1",
                "--seed",
                &seed,
            ],
            &out,
            &mut RssLog::default(),
            t0,
            &mut spans,
            0,
        )?;
        if recs.iter().any(|r| r.status != RunStatus::Completed) {
            return Err("set-up pass did not complete".into());
        }
        setup_s.push(wall);
    }
    let ready = Instant::now();
    let mut listing = Proc::spawn(
        "runner",
        &ctx.bins.join("sdvbs-runner"),
        &["list".to_string()],
        false,
    )?;
    if !listing.wait_success() {
        return Err("sdvbs-runner list failed".into());
    }
    let ready_ms = ready.elapsed().as_secs_f64() * 1e3;

    // Sweeps until the window is spent: at least one, and another only
    // if it fits.
    let window_start = Instant::now();
    let mut walls = Vec::new();
    let mut records: Vec<RunRecord> = Vec::new();
    loop {
        let sweep_start = Instant::now();
        let sweep_span = spans.reserve();
        let (serial, _) = run_runner(
            ctx,
            &[
                "sweep",
                "--sizes",
                "sqcif,qcif",
                "--policies",
                "serial",
                "--iterations",
                ITERATIONS,
                "--seed",
                &seed,
            ],
            &out,
            &mut rss,
            t0,
            &mut spans,
            sweep_span,
        )?;
        let (t2, _) = run_runner(
            ctx,
            &[
                "run",
                "--size",
                "qcif",
                "--policy",
                "threads:2",
                "--iterations",
                ITERATIONS,
                "--seed",
                &seed,
            ],
            &out,
            &mut rss_t2,
            t0,
            &mut spans,
            sweep_span,
        )?;
        let wall = sweep_start.elapsed().as_secs_f64();
        spans.record_as(
            sweep_span,
            "sweep",
            walls.len() as u64,
            sweep_start,
            Instant::now(),
        );
        walls.push(wall);
        records.extend(serial);
        records.extend(t2);
        let spent = window_start.elapsed().as_secs_f64();
        if spent + wall > window {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut pass = Pass {
        spans: spans.spans,
        ..Pass::default()
    };
    let bad: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.status != RunStatus::Completed)
        .collect();
    pass.problems = bad
        .iter()
        .map(|r| {
            format!(
                "{} {} {}: {} {}",
                r.benchmark, r.size, r.policy, r.status, r.detail
            )
        })
        .collect();
    if records.len() != walls.len() * 9 * CELLS.len() {
        pass.problems.push(format!(
            "{} records for {} sweeps of {} cells",
            records.len(),
            walls.len(),
            9 * CELLS.len()
        ));
    }
    let mut per_cell: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut pooled = Vec::new();
    for r in records.iter().filter(|r| r.status == RunStatus::Completed) {
        per_cell.entry(r.key()).or_default().extend(&r.times_ms);
        pooled.extend(&r.times_ms);
    }
    let cell_p50: Vec<f64> = per_cell.values().map(|t| median(t)).collect();
    let cell_max: Vec<f64> = per_cell.values().map(|t| pct(t, 100.0)).collect();
    let total_wall: f64 = walls.iter().sum();
    pass.attempted = records.len() as u64;
    pass.failed = bad.len() as u64;
    pass.setup_s = setup_s;
    pass.goodput_per_s = (records.len() - bad.len()) as f64 / total_wall;
    pass.exec_p50_ms = geomean(&cell_p50);
    pass.exec_tail_ms = geomean(&cell_max);
    pass.exec_tail_p = 100.0;
    pass.exec_n = pooled.len();
    pass.rss_peak_mb = rss.peak_of("runner");
    pass.rss_by_process = vec![
        ("runner".to_string(), pass.rss_peak_mb),
        ("runner threads:2".to_string(), rss_t2.peak_of("runner")),
    ];
    pass.timings = vec![
        Timing {
            name: "timed iteration (all cells)".into(),
            unit: "ms",
            n: pooled.len(),
            p50: median(&pooled),
            tail_p: 75.0,
            tail: pct(&pooled, 75.0),
        },
        Timing {
            name: "cell p50 / max (geomean)".into(),
            unit: "ms",
            n: cell_p50.len(),
            p50: pass.exec_p50_ms,
            tail_p: 100.0,
            tail: pass.exec_tail_ms,
        },
        Timing {
            name: "sweep wall".into(),
            unit: "s",
            n: walls.len(),
            p50: median(&walls),
            tail_p: 100.0,
            tail: pct(&walls, 100.0),
        },
    ];
    pass.detail.insert("e2e.sweep_wall_s", median(&walls));
    pass.detail.insert("e2e.timed_geomean_ms", pass.exec_p50_ms);
    pass.detail.insert("e2e.rss_growth_mb_per_s", rss.growth());
    if traced {
        let l = &mut pass.layers;
        layers::from_records(&records, l);
        l.insert("setup.ready_ms".into(), ready_ms);
        l.insert("rss.runner_mb".into(), pass.rss_peak_mb);
        let sqcif: Vec<_> = records
            .iter()
            .filter(|r| r.size == "sqcif" && r.benchmark != "Image Segmentation")
            .map(|r| {
                sdvbs_runner::Job::new(
                    r.benchmark.clone(),
                    sdvbs_core::InputSize::Sqcif,
                    sdvbs_core::ExecPolicy::Serial,
                    r.seed,
                    1,
                )
            })
            .collect();
        pass.replay = Some(layers::ReplayInput {
            specs: sqcif,
            cache_capacity: 64,
            record: records.first().cloned(),
        });
    }
    Ok(pass)
}
