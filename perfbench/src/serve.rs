//! The two daemon workloads: `serve_mixed` (one `sdvbs-serve serve`) and
//! `cluster_hits` (a coordinator over two workers).

use crate::check::{one_shot_digest, Served};
use crate::lanes::{hit_lane, open_lane, Class, Event, LaneOut, Op};
use crate::layers::{self, Layers, ReplayInput};
use crate::spans::Spans;
use crate::util::{
    beyond, geomean, get_len, get_text, median, pct, prom, wait_ready, Proc, Rng, RssLog, Zipf,
};
use crate::{Ctx, Pass, Timing};
use sdvbs_core::{ExecPolicy, InputSize};
use sdvbs_runner::Job;
use sdvbs_serve::{spec_body, stream_spec_body, Client};
use sdvbs_stream::{DegradePolicy, PipelineKind, StreamSpec};
use sdvbs_trace::jsonl::Value;
use std::time::{Duration, Instant};

/// The interactive mix: every benchmark but Image Segmentation.
pub const INTERACTIVE: [&str; 8] = [
    "Disparity Map",
    "Feature Tracking",
    "SIFT",
    "Robot Localization",
    "SVM",
    "Face Detection",
    "Image Stitch",
    "Texture Synthesis",
];
/// Batch bursts and cluster misses leave out Texture Synthesis too: one
/// SQCIF Texture job costs as much as the other seven together.
const LIGHT: [&str; 7] = [
    "Disparity Map",
    "Feature Tracking",
    "SIFT",
    "Robot Localization",
    "SVM",
    "Face Detection",
    "Image Stitch",
];

// serve_mixed sizing (2-core host: a little under one core of work).
const MIXED_RATE: f64 = 20.0;
const MIXED_SEEDS_PER_BENCH: u64 = 48;
const MIXED_ZIPF: f64 = 1.0;
const MIXED_CACHE: usize = 64;
const MIXED_QUEUE: usize = 512;
const MIXED_LIMIT_MS: f64 = 500.0;
const BURST_EVERY_S: f64 = 2.5;
const BURST_JOBS: u64 = 12;
const STREAMS: [(PipelineKind, f64, DegradePolicy); 3] = [
    (PipelineKind::Tracking, 12.0, DegradePolicy::Degrade),
    (PipelineKind::Disparity, 8.0, DegradePolicy::Degrade),
    (PipelineKind::Stitch, 6.0, DegradePolicy::Drop),
];

// cluster_hits sizing. Lane A unpaced keeps the coordinator and the
// generator busy on both cores of a 2-core host, and then measures the
// scheduler: its rate and lane B's latencies spread past their bounds.
// At 5000/s it leaves room for lane B and still serves 100k hits a 20 s
// window, enough for the daemons' memory growth to show.
const HOT_SEEDS_PER_BENCH: u64 = 2;
const HIT_RATE: f64 = 5000.0;
const LANE_B_RATE: f64 = 15.0;
const CLUSTER_LIMIT_MS: f64 = 100.0;
const CLUSTER_QUEUE: usize = 512;

fn job(bench: &str, seed: u64) -> Job {
    Job::new(bench, InputSize::Sqcif, ExecPolicy::Serial, seed, 1)
}

/// Seeds of the workload's inputs: disjoint per `--seed` and per use.
fn seed_base(seed: u64) -> u64 {
    1 + seed.wrapping_mul(1_000_000)
}
const WARM_SEED: u64 = 900_000_000;

fn post_job(client: &mut Client, spec: &Job) -> Result<Option<u64>, String> {
    let resp = client
        .request("POST", "/v1/jobs", Some(&spec_body(spec, spec.seed)))
        .map_err(|e| format!("set-up submit: {e}"))?;
    let v = Value::parse(&resp.body_text()).map_err(|e| format!("set-up reply: {e}"))?;
    match resp.status {
        200 => Ok(None),
        202 => Ok(v.get("id").and_then(Value::as_u64)),
        s => Err(format!("set-up submit refused with {s}")),
    }
}

fn wait_done(client: &mut Client, id: u64) -> Result<(), String> {
    let resp = client
        .request("GET", &format!("/v1/jobs/{id}?wait_ms=30000"), None)
        .map_err(|e| format!("set-up poll: {e}"))?;
    let v = Value::parse(&resp.body_text()).map_err(|e| format!("set-up poll: {e}"))?;
    match v.get("state").and_then(Value::as_str) {
        Some("done") => Ok(()),
        other => Err(format!("set-up job {id} ended {other:?}")),
    }
}

/// Submits `specs` at once and waits for all of them.
fn warm_jobs(addr: &str, specs: &[Job]) -> Result<u64, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for s in specs {
        ids.extend(post_job(&mut client, s)?);
    }
    for id in ids {
        wait_done(&mut client, id)?;
    }
    Ok(specs.len() as u64)
}

fn open_stream(client: &mut Client, spec: &StreamSpec) -> Result<u64, String> {
    let resp = client
        .request("POST", "/v1/streams", Some(&stream_spec_body(spec)))
        .map_err(|e| format!("opening a stream: {e}"))?;
    Value::parse(&resp.body_text())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .ok_or_else(|| format!("stream refused ({}): {}", resp.status, resp.body_text()))
}

fn stream_spec(i: usize, seed: u64) -> StreamSpec {
    let (pipeline, fps, policy) = STREAMS[i];
    StreamSpec {
        pipeline,
        size: InputSize::Sqcif,
        seed,
        fps,
        policy,
    }
}

/// One set-up: launch, `/healthz` ok, then one request of every
/// benchmark and pipeline in the mix answered.
struct Setup {
    procs: Vec<Proc>,
    addr: String,
    setup_s: f64,
    ready_ms: f64,
    job_posts: u64,
}

fn setup_mixed(ctx: &Ctx, rep: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let daemon = Proc::spawn(
        "serve",
        &ctx.bins.join("sdvbs-serve"),
        &args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            &MIXED_QUEUE.to_string(),
            "--cache-capacity",
            &MIXED_CACHE.to_string(),
        ]),
        true,
    )?;
    let addr = daemon.addr.clone();
    wait_ready(&addr, None, Duration::from_secs(30))?;
    let ready_ms = start.elapsed().as_secs_f64() * 1e3;
    let warm: Vec<Job> = INTERACTIVE
        .iter()
        .map(|b| job(b, WARM_SEED + rep))
        .collect();
    let job_posts = warm_jobs(&addr, &warm)?;
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    for i in 0..STREAMS.len() {
        let id = open_stream(&mut client, &stream_spec(i, WARM_SEED + rep))?;
        let resp = client
            .request("POST", &format!("/v1/streams/{id}/frames"), None)
            .map_err(|e| e.to_string())?;
        let frame_job = Value::parse(&resp.body_text())
            .ok()
            .and_then(|v| v.get("job_id").and_then(Value::as_u64))
            .ok_or("set-up frame was not accepted")?;
        wait_done(&mut client, frame_job)?;
        client
            .request("POST", &format!("/v1/streams/{id}/close"), None)
            .map_err(|e| e.to_string())?;
    }
    Ok(Setup {
        procs: vec![daemon],
        addr,
        setup_s: start.elapsed().as_secs_f64(),
        ready_ms,
        job_posts,
    })
}

fn setup_cluster(ctx: &Ctx, rep: u64, hot: &[Job]) -> Result<Setup, String> {
    let start = Instant::now();
    let bin = ctx.bins.join("sdvbs-serve");
    let mut procs = Vec::new();
    for w in 0..2 {
        procs.push(Proc::spawn(
            &format!("worker{w}"),
            &bin,
            &args(&[
                "worker",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--name",
                &format!("w{w}"),
            ]),
            true,
        )?);
    }
    let workers = format!("{},{}", procs[0].addr, procs[1].addr);
    let coord = Proc::spawn(
        "coordinator",
        &bin,
        &args(&[
            "coordinator",
            "--workers",
            &workers,
            "--addr",
            "127.0.0.1:0",
            "--queue",
            &CLUSTER_QUEUE.to_string(),
        ]),
        true,
    )?;
    let addr = coord.addr.clone();
    procs.insert(0, coord);
    wait_ready(&addr, Some(2), Duration::from_secs(30))?;
    let ready_ms = start.elapsed().as_secs_f64() * 1e3;
    // The hot keys and every lane-B benchmark, then Face Detection until
    // both workers have trained their cascade.
    let mut warm: Vec<Job> = hot.to_vec();
    warm.extend(LIGHT.iter().map(|b| job(b, WARM_SEED + rep * 100)));
    let mut job_posts = warm_jobs(&addr, &warm)?;
    for k in 1..64 {
        let text = get_text(&addr, "/metrics")?;
        let trained = |w: &str| {
            prom(
                &text,
                &format!("{w}_exec_ms_face_detection_sqcif_t1"),
                Some("count"),
            ) > 0.0
        };
        if trained("w0") && trained("w1") {
            break;
        }
        job_posts += warm_jobs(&addr, &[job("Face Detection", WARM_SEED + rep * 100 + k)])?;
    }
    Ok(Setup {
        procs,
        addr,
        setup_s: start.elapsed().as_secs_f64(),
        ready_ms,
        job_posts,
    })
}

/// Open-loop arrival times at a fixed `rate` over `window` seconds: one
/// per period, each jittered uniformly within ±40% of the period.
fn arrivals(rng: &mut Rng, rate: f64, window: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut k = 0.0;
    loop {
        let due = (k + 0.5 + 0.8 * (rng.unit() - 0.5)) / rate;
        if due >= window {
            return out;
        }
        out.push(due);
        k += 1.0;
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Runs `reps` set-ups, keeping the last system up. Returns it with the
/// set-up and readiness times of every rep.
fn setups(
    reps: u64,
    mut one: impl FnMut(u64) -> Result<Setup, String>,
) -> Result<(Setup, Vec<f64>, Vec<f64>), String> {
    let (mut setup_s, mut ready_ms) = (Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..reps {
        drop(kept.take());
        let s = one(rep)?;
        setup_s.push(s.setup_s);
        ready_ms.push(s.ready_ms);
        kept = Some(s);
    }
    Ok((kept.expect("at least one set-up"), setup_s, ready_ms))
}

fn pids(procs: &[Proc]) -> Vec<(String, u32)> {
    procs.iter().map(|p| (p.name.clone(), p.pid())).collect()
}

/// Latency timing line with the highest percentile the sample supports
/// among `tails` (at least ten samples beyond it).
fn timing(name: &str, values: &[f64], tails: &[f64]) -> Timing {
    let tail = tails
        .iter()
        .copied()
        .find(|&p| beyond(values.len(), p) >= 10)
        .unwrap_or(50.0);
    Timing {
        name: name.to_string(),
        unit: "ms",
        n: values.len(),
        p50: median(values),
        tail_p: tail,
        tail: pct(values, tail),
    }
}

fn latencies(ops: &[&Op]) -> Vec<f64> {
    ops.iter().filter_map(|o| o.latency_ms).collect()
}

/// Miss latencies of an open lane per benchmark in `benches`; `ops[i]`
/// answers `events[i]`.
fn misses_by_bench(events: &[Event], ops: &[Op], benches: &[&str]) -> Vec<Vec<f64>> {
    benches
        .iter()
        .map(|b| {
            events
                .iter()
                .zip(ops)
                .filter(|(e, o)| {
                    o.class == Some(Class::Interactive)
                        && !o.hit
                        && e.job.as_ref().is_some_and(|j| j.benchmark == *b)
                })
                .filter_map(|(_, o)| o.latency_ms)
                .collect()
        })
        .collect()
}

/// Geometric mean over benchmarks of each one's median miss latency.
/// The benchmarks of a mix differ up to twentyfold in cost, so the
/// median of the pooled misses jumps between their modes as the draw
/// and the cache change which of them miss; this weighs each one alike.
fn miss_p50(by_bench: &[Vec<f64>]) -> f64 {
    let p50s: Vec<f64> = by_bench
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    geomean(&p50s)
}

fn bench_timings(benches: &[&str], by_bench: &[Vec<f64>], out: &mut Vec<Timing>) {
    for (b, v) in benches.iter().zip(by_bench) {
        out.push(timing(&format!("miss {b}"), v, &[90.0]));
    }
}

/// Reads `/metrics` and `/v1/trace` after the window, timing both. The
/// daemon folds a connection's request counts in when it closes, so the
/// scrape waits until `http_requests` holds still.
fn observe(addr: &str, traced: bool, out: &mut Layers) -> Result<String, String> {
    let start = Instant::now();
    let mut last = -1.0;
    while start.elapsed() < Duration::from_secs(10) {
        let now = prom(&get_text(addr, "/metrics")?, "http_requests", None);
        if now == last {
            break;
        }
        last = now;
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut scrape = Vec::new();
    let mut text = String::new();
    for _ in 0..3 {
        let t = Instant::now();
        text = get_text(addr, "/metrics")?;
        scrape.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("obs.metrics_scrape_ms".into(), median(&scrape));
    if traced {
        let t = Instant::now();
        let bytes = get_len(addr, "/v1/trace")?;
        out.insert("obs.trace_fetch_ms".into(), t.elapsed().as_secs_f64() * 1e3);
        out.insert("obs.trace_bytes".into(), bytes as f64);
    }
    Ok(text)
}

/// Correctness of every served record, counted per served copy.
fn verify(served: &Served, threads: usize, problems: &mut Vec<String>) -> u64 {
    let (bad, why) = served.verify(threads);
    problems.extend(why);
    bad + served.failed() as u64
}

/// A stream that ran every frame at full size must carry the one-shot
/// oracle's rolling digest. Returns the frames that fail the check.
fn check_stream(
    i: usize,
    status: &Value,
    spec: &StreamSpec,
) -> Result<(u64, Option<String>), String> {
    let n = |k: &str| status.get(k).and_then(Value::as_u64).unwrap_or(0);
    if n("completed_degraded") + n("dropped") + n("rejected") + n("failed") > 0 {
        return Ok((0, None));
    }
    let want = format!("{:#018x}", one_shot_digest(spec, n("completed"))?);
    let got = status
        .get("rolling_digest")
        .and_then(Value::as_str)
        .unwrap_or("");
    Ok(if got == want {
        (0, None)
    } else {
        (
            n("completed"),
            Some(format!("stream {i}: digest {got} != one-shot {want}")),
        )
    })
}

fn rss_layers(rss: &RssLog, requests: f64, out: &mut Layers) {
    for (name, mb) in &rss.peaks {
        out.insert(format!("rss.{name}_mb"), *mb);
    }
    let grown = rss.samples.last().map_or(0.0, |l| l.1) - rss.samples.first().map_or(0.0, |f| f.1);
    if requests > 0.0 {
        out.insert("obs.rss_mb_per_100k_req".into(), grown * 1e5 / requests);
    }
}

fn queue_waits(ops: &[Op], class: Class, label: &str, out: &mut Layers) {
    let waits: Vec<f64> = ops
        .iter()
        .filter(|o| o.class == Some(class))
        .filter_map(|o| o.queue_wait_ms)
        .collect();
    out.insert(format!("sched.{label}.queue_wait_ms.p50"), median(&waits));
    out.insert(
        format!("sched.{label}.queue_wait_ms.p95"),
        pct(&waits, 95.0),
    );
}

pub fn serve_mixed(ctx: &Ctx, traced: bool, window: f64, reps: u64) -> Result<Pass, String> {
    let base = seed_base(ctx.seed);
    let mut rng = Rng::new(ctx.seed);
    // Every benchmark gets the same key popularity, Zipf over its seeds,
    // so a seed changes which inputs are hot but not the mix's cost.
    let zipf = Zipf::new(MIXED_SEEDS_PER_BENCH as usize, MIXED_ZIPF);
    let mut order = INTERACTIVE;
    let mut jobs: Vec<Event> = Vec::new();
    for (k, due) in arrivals(&mut rng, MIXED_RATE, window)
        .into_iter()
        .enumerate()
    {
        if k % order.len() == 0 {
            rng.shuffle(&mut order);
        }
        let bench = order[k % order.len()];
        jobs.push(Event {
            due,
            class: Class::Interactive,
            job: Some(job(bench, base + zipf.sample(&mut rng) as u64)),
            stream: 0,
        });
    }
    let mut burst = 0u64;
    let mut t = BURST_EVERY_S / 2.0;
    while t < window {
        let bench = LIGHT[(burst as usize + ctx.seed as usize) % LIGHT.len()];
        for i in 0..BURST_JOBS {
            jobs.push(Event {
                due: t,
                class: Class::Batch,
                job: Some(job(bench, base + 100_000 + burst * BURST_JOBS + i)),
                stream: 0,
            });
        }
        burst += 1;
        t += BURST_EVERY_S;
    }
    jobs.sort_by(|a, b| a.due.total_cmp(&b.due));
    let specs: Vec<StreamSpec> = (0..STREAMS.len())
        .map(|i| stream_spec(i, base + 200_000 + i as u64))
        .collect();
    let mut frames: Vec<Event> = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let offset = i as f64 * 0.005;
        let mut k = 0u64;
        while offset + k as f64 / s.fps < window {
            frames.push(Event {
                due: offset + k as f64 / s.fps,
                class: Class::Frame,
                job: None,
                stream: i,
            });
            k += 1;
        }
    }
    frames.sort_by(|a, b| a.due.total_cmp(&b.due));

    let (sut, setup_s, ready_ms) = setups(reps, |rep| setup_mixed(ctx, rep))?;
    let mut client = Client::connect(&sut.addr).map_err(|e| e.to_string())?;
    let stream_ids: Vec<u64> = specs
        .iter()
        .map(|s| open_stream(&mut client, s))
        .collect::<Result<_, _>>()?;
    let sample = pids(&sut.procs);
    let epoch = Instant::now();
    let (jobs_out, frames_out) = std::thread::scope(|scope| {
        let job_lane = scope.spawn(|| {
            open_lane(
                &sut.addr,
                &jobs,
                &[],
                epoch,
                Spans::new(traced, epoch, 1),
                &[],
            )
        });
        let frame_lane = scope.spawn(|| {
            open_lane(
                &sut.addr,
                &frames,
                &stream_ids,
                epoch,
                Spans::new(traced, epoch, 2),
                &sample,
            )
        });
        (
            job_lane.join().expect("job lane panicked"),
            frame_lane.join().expect("frame lane panicked"),
        )
    });
    let (jobs_out, frames_out): (LaneOut, LaneOut) = (jobs_out?, frames_out?);

    let mut pass = Pass::default();
    let mut problems = Vec::new();
    // Stream accounting and digests at quiescence.
    let mut statuses = Vec::new();
    for (i, id) in stream_ids.iter().enumerate() {
        let text = get_text(&sut.addr, &format!("/v1/streams/{id}"))?;
        let v = Value::parse(&text).map_err(|e| format!("stream status: {e}"))?;
        let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
        let sent = frames_out.ops.iter().filter(|o| o.stream == i).count() as u64;
        let accounted = n("completed") + n("dropped") + n("rejected") + n("failed");
        if accounted != n("submitted") || n("in_flight") != 0 || n("submitted") != sent {
            problems.push(format!(
                "stream {id}: submitted {} (sent {sent}) != completed+dropped+rejected+failed {accounted}, in flight {}",
                n("submitted"),
                n("in_flight")
            ));
        }
        statuses.push(v);
    }
    let metrics = observe(&sut.addr, traced, &mut pass.layers)?;
    // Job accounting: every job POST is exactly one of hit, coalesced,
    // queued or refused, and every queued job executed.
    let job_posts = sut.job_posts + jobs_out.ops.len() as u64;
    let c = |n: &str| prom(&metrics, n, None) as u64;
    let classified = c("cache_hits")
        + c("coalesced")
        + c("jobs_submitted")
        + c("rejected_queue_full")
        + c("rejected_draining");
    if classified != job_posts || c("jobs_submitted") != c("jobs_executed") + c("jobs_invalid") {
        problems.push(format!(
            "job accounting: {job_posts} posts vs {classified} classified; {} queued vs {} executed",
            c("jobs_submitted"),
            c("jobs_executed") + c("jobs_invalid")
        ));
    }
    let rss = frames_out.rss;
    pass.rss_peak_mb = rss.peak_sum();
    pass.rss_by_process = rss.peaks.clone();
    pass.sut_cores = rss.cores();
    let http_requests = prom(&metrics, "http_requests", None);
    drop(sut);

    let mut served = Served::default();
    for (j, r) in jobs_out.served.iter() {
        served.add(j, r.clone());
    }
    // Records on one thread, stream oracles on the other.
    let (mut failed, streams) = std::thread::scope(|scope| {
        let streams = scope.spawn(|| {
            statuses
                .iter()
                .enumerate()
                .map(|(i, v)| check_stream(i, v, &specs[i]))
                .collect::<Result<Vec<_>, String>>()
        });
        let failed = verify(&served, 1, &mut problems);
        (failed, streams.join().expect("stream check panicked"))
    });
    for (bad, why) in streams? {
        failed += bad;
        problems.extend(why);
    }

    // End-to-end figures.
    let ops: Vec<&Op> = jobs_out.ops.iter().chain(frames_out.ops.iter()).collect();
    let of = |class: Class| ops.iter().copied().filter(move |o| o.class == Some(class));
    let inter: Vec<&Op> = of(Class::Interactive).collect();
    let frames_ops: Vec<&Op> = of(Class::Frame).collect();
    let hits: Vec<&Op> = inter.iter().copied().filter(|o| o.hit).collect();
    let misses: Vec<&Op> = inter.iter().copied().filter(|o| !o.hit).collect();
    let hit_ms = latencies(&hits);
    let miss_ms = latencies(&misses);
    let frame_ms = latencies(&frames_ops);
    // Goodput: requests settled in the window within their limit (a
    // job's latency limit, a frame's 1/fps; batch jobs have none).
    let good = ops
        .iter()
        .filter(|o| o.settled_s <= window && !o.failed)
        .filter(|o| match (o.class, o.latency_ms) {
            (Some(Class::Interactive), Some(l)) => l <= MIXED_LIMIT_MS,
            (Some(Class::Frame), Some(l)) => l <= 1000.0 / STREAMS[o.stream].1,
            (Some(Class::Batch), Some(_)) => true,
            _ => false,
        })
        .count() as f64;
    let late = inter
        .iter()
        .filter(|o| o.failed || o.latency_ms.is_none_or(|l| l > MIXED_LIMIT_MS))
        .count();
    let sla_miss = frames_ops
        .iter()
        .filter(|o| {
            o.failed
                || o.dropped
                || o.latency_ms
                    .is_none_or(|l| l > 1000.0 / STREAMS[o.stream].1)
        })
        .count();
    let degraded = frames_ops
        .iter()
        .filter(|o| o.degraded && o.latency_ms.is_some())
        .count();
    failed += ops.iter().filter(|o| o.failed).count() as u64;
    pass.attempted = ops.len() as u64;
    pass.failed = failed;
    pass.problems = problems;
    pass.setup_s = setup_s;
    pass.goodput_per_s = good / window;
    let by_bench = misses_by_bench(&jobs, &jobs_out.ops, &INTERACTIVE);
    pass.exec_p50_ms = miss_p50(&by_bench);
    pass.exec_tail_ms = pct(&miss_ms, 95.0);
    pass.exec_tail_p = 95.0;
    pass.exec_n = miss_ms.len();
    pass.limit_ms = MIXED_LIMIT_MS;
    pass.lags_ms = ops.iter().map(|o| o.lag_ms).collect();
    pass.timings = vec![
        timing("interactive hit", &hit_ms, &[99.0, 95.0, 90.0]),
        timing("interactive miss", &miss_ms, &[95.0, 90.0]),
        timing("frame", &frame_ms, &[99.0, 95.0]),
        timing(
            "batch job",
            &latencies(&of(Class::Batch).collect::<Vec<_>>()),
            &[95.0, 90.0],
        ),
    ];
    bench_timings(&INTERACTIVE, &by_bench, &mut pass.timings);
    let frames_n = frames_ops.len().max(1) as f64;
    let d = &mut pass.detail;
    d.insert("e2e.job_hit_p50_ms", median(&hit_ms));
    d.insert("e2e.job_hit_p99_ms", pct(&hit_ms, 99.0));
    d.insert("e2e.job_miss_p50_ms", median(&miss_ms));
    d.insert("e2e.job_miss_p95_ms", pct(&miss_ms, 95.0));
    d.insert(
        "e2e.job_late_ratio",
        late as f64 / inter.len().max(1) as f64,
    );
    d.insert("e2e.hit_rps", hit_ms.len() as f64 / window);
    d.insert("e2e.frame_p50_ms", median(&frame_ms));
    d.insert("e2e.frame_p99_ms", pct(&frame_ms, 99.0));
    d.insert("e2e.frame_sla_miss_ratio", sla_miss as f64 / frames_n);
    d.insert("e2e.frame_degraded_ratio", degraded as f64 / frames_n);
    d.insert("e2e.rss_growth_mb_per_s", rss.growth());

    pass.spans = [jobs_out.spans.spans, frames_out.spans.spans].concat();
    if traced {
        let l = &mut pass.layers;
        layers::from_metrics(&metrics, job_posts, l);
        let records: Vec<_> = served.records().cloned().collect();
        layers::from_records(&records, l);
        queue_waits(&jobs_out.ops, Class::Interactive, "interactive", l);
        queue_waits(&jobs_out.ops, Class::Batch, "batch", l);
        let server_p50: Vec<f64> = statuses
            .iter()
            .filter_map(|v| v.get("p50_ms").and_then(Value::as_f64))
            .collect();
        l.insert(
            "stream.gate_wait_ms".into(),
            crate::util::mean(&server_p50) - prom(&metrics, "stream_frame_exec_ms", Some("p50")),
        );
        l.insert("setup.ready_ms".into(), median(&ready_ms));
        rss_layers(&rss, http_requests, l);
        pass.replay = Some(ReplayInput {
            specs: jobs.iter().filter_map(|e| e.job.clone()).collect(),
            cache_capacity: MIXED_CACHE,
            record: records.first().cloned(),
        });
    }
    Ok(pass)
}

pub fn cluster_hits(ctx: &Ctx, traced: bool, window: f64, reps: u64) -> Result<Pass, String> {
    let base = seed_base(ctx.seed);
    let mut rng = Rng::new(ctx.seed ^ 0xC1);
    let hot: Vec<Job> = INTERACTIVE
        .iter()
        .flat_map(|b| (0..HOT_SEEDS_PER_BENCH).map(move |j| job(b, base + 300_000 + j)))
        .collect();
    let misses: Vec<Event> = arrivals(&mut rng, LANE_B_RATE, window)
        .into_iter()
        .enumerate()
        .map(|(n, due)| Event {
            due,
            class: Class::Interactive,
            job: Some(job(LIGHT[n % LIGHT.len()], base + 400_000 + n as u64)),
            stream: 0,
        })
        .collect();

    let (sut, setup_s, ready_ms) = setups(reps, |rep| setup_cluster(ctx, rep, &hot))?;
    let sample = pids(&sut.procs);
    let epoch = Instant::now();
    let (a, b) = std::thread::scope(|scope| {
        let lane_a = scope.spawn(|| {
            hit_lane(
                &sut.addr,
                &hot,
                HIT_RATE,
                epoch,
                window,
                Spans::new(traced, epoch, 1),
            )
        });
        let lane_b = scope.spawn(|| {
            open_lane(
                &sut.addr,
                &misses,
                &[],
                epoch,
                Spans::new(traced, epoch, 2),
                &sample,
            )
        });
        (
            lane_a.join().expect("hit lane panicked"),
            lane_b.join().expect("miss lane panicked"),
        )
    });
    let (a, b) = (a?, b?);

    let mut pass = Pass::default();
    let mut problems = Vec::new();
    let metrics = observe(&sut.addr, traced, &mut pass.layers)?;
    let rss = b.rss;
    pass.rss_peak_mb = rss.peak_sum();
    pass.rss_by_process = rss.peaks.clone();
    pass.sut_cores = rss.cores();
    let http_requests = prom(&metrics, "http_requests", None);
    drop(sut);

    let mut served = Served::default();
    for (j, r) in a.served.iter().chain(b.served.iter()) {
        served.add(j, r.clone());
    }
    let mut failed = verify(&served, 2, &mut problems) + a.failed;
    if a.changed > 0 {
        failed += a.changed;
        problems.push(format!(
            "{} cache hits changed bytes for their key",
            a.changed
        ));
    }
    failed += b.ops.iter().filter(|o| o.failed).count() as u64;

    let miss_ops: Vec<&Op> = b.ops.iter().collect();
    let miss_ms = latencies(&miss_ops);
    let late = miss_ops
        .iter()
        .filter(|o| o.failed || o.latency_ms.is_none_or(|l| l > CLUSTER_LIMIT_MS))
        .count();
    let hits = a.latencies_ms.len();
    let good_hits = a
        .latencies_ms
        .iter()
        .filter(|&&l| l <= CLUSTER_LIMIT_MS)
        .count();
    let good_misses = b
        .ops
        .iter()
        .filter(|o| o.settled_s <= window && o.latency_ms.is_some_and(|l| l <= CLUSTER_LIMIT_MS))
        .count();
    let good = (good_hits + good_misses) as f64;
    pass.attempted = (hits as u64 + a.failed) + b.ops.len() as u64;
    pass.failed = failed;
    pass.problems = problems;
    pass.setup_s = setup_s;
    pass.goodput_per_s = good / window;
    let by_bench = misses_by_bench(&misses, &b.ops, &LIGHT);
    pass.exec_p50_ms = miss_p50(&by_bench);
    pass.exec_tail_ms = pct(&miss_ms, 95.0);
    pass.exec_tail_p = 95.0;
    pass.exec_n = miss_ms.len();
    pass.limit_ms = CLUSTER_LIMIT_MS;
    pass.lags_ms = b.ops.iter().map(|o| o.lag_ms).collect();
    pass.timings = vec![
        timing("lane A hit", &a.latencies_ms, &[99.9, 99.0]),
        timing("lane B miss", &miss_ms, &[95.0, 90.0]),
    ];
    bench_timings(&LIGHT, &by_bench, &mut pass.timings);
    let d = &mut pass.detail;
    d.insert("e2e.job_hit_p50_ms", median(&a.latencies_ms));
    d.insert("e2e.job_hit_p99_ms", pct(&a.latencies_ms, 99.0));
    d.insert("e2e.job_miss_p50_ms", median(&miss_ms));
    d.insert("e2e.job_miss_p95_ms", pct(&miss_ms, 95.0));
    d.insert(
        "e2e.job_late_ratio",
        late as f64 / miss_ops.len().max(1) as f64,
    );
    d.insert("e2e.hit_rps", hits as f64 / window);
    d.insert("e2e.rss_growth_mb_per_s", rss.growth());

    pass.spans = [a.spans.spans, b.spans.spans].concat();
    if traced {
        let l = &mut pass.layers;
        layers::from_metrics(&metrics, pass.attempted, l);
        // Lane A's records were executed during set-up (Face Detection's
        // carry its cascade training); the window's executions are lane B's.
        let records: Vec<_> = b.served.iter().map(|(_, r)| r.clone()).collect();
        layers::from_records(&records, l);
        queue_waits(&b.ops, Class::Interactive, "interactive", l);
        l.insert(
            "cluster.hop_ms".into(),
            median(&miss_ms) - prom(&metrics, "job_exec_ms", Some("p50")),
        );
        l.insert("setup.ready_ms".into(), median(&ready_ms));
        rss_layers(&rss, http_requests, l);
        let mut specs: Vec<Job> = Vec::new();
        for (i, e) in misses.iter().enumerate() {
            specs.push(hot[i % hot.len()].clone());
            specs.extend(e.job.clone());
        }
        pass.replay = Some(ReplayInput {
            specs,
            cache_capacity: 4096,
            record: records.first().cloned(),
        });
    }
    Ok(pass)
}
