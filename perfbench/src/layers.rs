//! Per-layer metrics: names, values derived from run records, values read
//! from the daemons' `/metrics`, and in-process replays that time calls
//! into each layer's public functions on the workload's own inputs.

use crate::spans::Spans;
use crate::util::{mean, median, prom, slug};
use sdvbs_core::{all_benchmarks, InputSize};
use sdvbs_runner::{Job, RunRecord, RunStatus};
use sdvbs_serve::cache::{cache_preimage, CacheLookup};
use sdvbs_serve::{parse_request, spec_body, spec_digest, Response, ResultCache};
use sdvbs_stream::{build_pipeline, DegradePolicy, PipelineKind, StreamSpec};
use sdvbs_wire::{decode_frame, encode_frame, Message};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Layers = BTreeMap<String, f64>;

/// The Figure-3 hot kernels the ledger follows.
pub const HOT_KERNELS: [&str; 14] = [
    "Eigensolve",
    "Adjacencymatrix",
    "ConjugateMatrix",
    "SIFT",
    "Interpolation",
    "Sampling",
    "ExtractFaces",
    "ParticleFilter",
    "IntegralImage",
    "SSD",
    "Correlation",
    "Sort",
    "Convolution",
    "GaussianFilter",
];

/// The sweep's cells: (size label, policy label, metric tag).
pub const CELLS: [(&str, &str, &str); 3] = [
    ("sqcif", "serial", "serial"),
    ("qcif", "serial", "serial"),
    ("qcif", "threads:2", "t2"),
];

pub const PIPELINES: [PipelineKind; 3] = [
    PipelineKind::Tracking,
    PipelineKind::Disparity,
    PipelineKind::Stitch,
];

/// Each workload's own end-to-end figures (sweep, job, frame), carried as
/// per-layer detail (0 where the workload has no such traffic).
pub const DETAIL: [&str; 15] = [
    "e2e.sweep_wall_s",
    "e2e.timed_geomean_ms",
    "e2e.job_hit_p50_ms",
    "e2e.job_hit_p99_ms",
    "e2e.job_miss_p50_ms",
    "e2e.job_miss_p95_ms",
    "e2e.job_late_ratio",
    "e2e.hit_rps",
    "e2e.frame_p50_ms",
    "e2e.frame_p99_ms",
    "e2e.frame_sla_miss_ratio",
    "e2e.frame_degraded_ratio",
    "e2e.ops_failed_ratio",
    "e2e.rss_growth_mb_per_s",
    "e2e.gen_lag_p99_ms",
];

pub const OVERHEAD: [&str; 3] = [
    "trace.overhead.goodput_per_s_pct",
    "trace.overhead.exec_p50_ms_pct",
    "trace.overhead.exec_tail_ms_pct",
];

/// Every per-layer metric name with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| out.push((n, u));
    for d in DETAIL {
        let unit = if d.ends_with("_ms") {
            "ms"
        } else if d.ends_with("mb_per_s") {
            "MB/s"
        } else if d.ends_with("_s") {
            "s"
        } else if d.ends_with("rps") {
            "1/s"
        } else {
            "ratio"
        };
        add(d.to_string(), unit);
    }
    for o in OVERHEAD {
        add(o.to_string(), "%");
    }
    add("trace.spans".into(), "count");
    let benches: Vec<String> = all_benchmarks()
        .iter()
        .map(|b| slug(b.info().name))
        .collect();
    for b in &benches {
        for (size, _, tag) in CELLS {
            add(format!("bench.{b}.{size}.{tag}.timed_ms"), "ms");
        }
    }
    for k in HOT_KERNELS {
        add(format!("kernel.{k}.self_ms"), "ms");
    }
    for b in &benches {
        add(format!("runner.{b}.overhead_ms"), "ms");
    }
    add("setup.cascade_ms".into(), "ms");
    add("setup.ready_ms".into(), "ms");
    for b in &benches {
        add(format!("exec.{b}.qcif.speedup_t2"), "x");
    }
    for (n, u) in [
        ("http.parse_us", "us"),
        ("http.encode_us", "us"),
        ("http.requests", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.get_us", "us"),
        ("cache.put_us", "us"),
        ("cache.evictions", "count"),
        ("cache.collisions", "count"),
        ("coalesce.ratio", "ratio"),
        ("sched.interactive.queue_wait_ms.p50", "ms"),
        ("sched.interactive.queue_wait_ms.p95", "ms"),
        ("sched.batch.queue_wait_ms.p50", "ms"),
        ("sched.batch.queue_wait_ms.p95", "ms"),
        ("sched.batch_size.mean", "jobs"),
        ("sched.batches", "count"),
        ("engine.submit_us", "us"),
        ("engine.jobs_table_len", "count"),
        ("engine.rejected_queue_full", "count"),
    ] {
        add(n.into(), u);
    }
    for p in PIPELINES {
        for mode in ["full", "degraded"] {
            add(format!("stream.{}.{mode}.process_ms", p.label()), "ms");
        }
    }
    for (n, u) in [
        ("stream.gate_wait_ms", "ms"),
        ("stream.frames_dropped", "count"),
        ("stream.frames_degraded", "count"),
        ("stream.frames_rejected", "count"),
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("cluster.hop_ms", "ms"),
        ("cluster.jobs_stolen", "count"),
        ("cluster.busy_redispatched", "count"),
        ("obs.metrics_scrape_ms", "ms"),
        ("obs.trace_fetch_ms", "ms"),
        ("obs.trace_bytes", "bytes"),
        ("obs.request_ms_samples", "count"),
        ("obs.rss_mb_per_100k_req", "MB"),
        ("rss.runner_mb", "MB"),
        ("rss.serve_mb", "MB"),
        ("rss.coordinator_mb", "MB"),
        ("rss.worker0_mb", "MB"),
        ("rss.worker1_mb", "MB"),
    ] {
        add(n.into(), u);
    }
    out
}

/// Kernel, runner and exec layers from completed run records.
pub fn from_records(records: &[RunRecord], out: &mut Layers) {
    let mut cell_times: BTreeMap<(String, String, String), Vec<f64>> = BTreeMap::new();
    let mut kernel_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut overhead: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.status == RunStatus::Completed) {
        let b = slug(&r.benchmark);
        cell_times
            .entry((b.clone(), r.size.clone(), r.policy.clone()))
            .or_default()
            .extend(&r.times_ms);
        for k in &r.kernels {
            kernel_ms.entry(k.name.clone()).or_default().push(k.self_ms);
        }
        overhead
            .entry(b)
            .or_default()
            .push(r.wall_ms - r.times_ms.iter().sum::<f64>());
    }
    let cell = |b: &str, size: &str, policy: &str| {
        cell_times
            .get(&(b.to_string(), size.to_string(), policy.to_string()))
            .map(|t| median(t))
    };
    for bench in all_benchmarks() {
        let b = slug(bench.info().name);
        for (size, policy, tag) in CELLS {
            if let Some(ms) = cell(&b, size, policy) {
                out.insert(format!("bench.{b}.{size}.{tag}.timed_ms"), ms);
            }
        }
        if let (Some(s), Some(t)) = (cell(&b, "qcif", "serial"), cell(&b, "qcif", "threads:2")) {
            out.insert(format!("exec.{b}.qcif.speedup_t2"), s / t.max(1e-9));
        }
        if let Some(o) = overhead.get(&b) {
            out.insert(format!("runner.{b}.overhead_ms"), mean(o));
        }
    }
    for k in HOT_KERNELS {
        if let Some(v) = kernel_ms.get(k) {
            out.insert(format!("kernel.{k}.self_ms"), mean(v));
        }
    }
}

/// Counters and histograms from a daemon's `/metrics` text.
pub fn from_metrics(text: &str, job_posts: u64, out: &mut Layers) {
    let c = |n: &str| prom(text, n, None);
    out.insert("http.requests".into(), c("http_requests"));
    if job_posts > 0 {
        out.insert("cache.hit_ratio".into(), c("cache_hits") / job_posts as f64);
    }
    out.insert("cache.evictions".into(), c("cache_evictions"));
    out.insert("cache.collisions".into(), c("cache_key_collisions"));
    let misses = c("coalesced") + c("jobs_submitted");
    if misses > 0.0 {
        out.insert("coalesce.ratio".into(), c("coalesced") / misses);
    }
    out.insert(
        "sched.batch_size.mean".into(),
        prom(text, "batch_size", Some("mean")),
    );
    out.insert(
        "sched.batches".into(),
        prom(text, "batch_size", Some("count")),
    );
    out.insert(
        "engine.rejected_queue_full".into(),
        c("rejected_queue_full"),
    );
    out.insert("stream.frames_dropped".into(), c("stream_frames_dropped"));
    out.insert("stream.frames_degraded".into(), c("stream_frames_degraded"));
    out.insert("stream.frames_rejected".into(), c("stream_frames_rejected"));
    out.insert("cluster.jobs_stolen".into(), c("jobs_stolen"));
    out.insert("cluster.busy_redispatched".into(), c("busy_redispatched"));
    out.insert(
        "obs.request_ms_samples".into(),
        prom(text, "request_ms", Some("count")),
    );
}

/// What the in-process replays run on: the workload's own requests.
pub struct ReplayInput {
    /// Job specs in the order the workload sent them.
    pub specs: Vec<Job>,
    /// The cache bound the workload's daemon ran with.
    pub cache_capacity: usize,
    /// A served record (the payload of cache puts, responses and `Done`).
    pub record: Option<RunRecord>,
}

/// Mean microseconds per call of `f` over `n` calls.
fn time_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Times the HTTP, cache, wire, engine and stream layers in-process.
pub fn replay(input: &ReplayInput, spans: &mut Spans, out: &mut Layers) {
    let specs = &input.specs;
    if specs.is_empty() {
        return;
    }
    let record = input.record.clone();
    let n = specs.len().min(4000);

    // HTTP: parse the workload's own request bytes, encode its responses.
    let requests: Vec<Vec<u8>> = specs[..n]
        .iter()
        .map(|s| {
            let body = spec_body(s, s.seed);
            format!(
                "POST /v1/jobs HTTP/1.1\r\nhost: sdvbs-serve\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let t0 = Instant::now();
    out.insert(
        "http.parse_us".into(),
        time_us(n, |i| {
            black_box(parse_request(black_box(&requests[i])).ok());
        }),
    );
    if let Some(rec) = &record {
        let body = format!("{{\"cached\":true,\"record\":{}}}", rec.to_json_line());
        out.insert(
            "http.encode_us".into(),
            time_us(n, |_| {
                black_box(Response::json(200, body.clone()).to_bytes());
            }),
        );
    }
    spans.record("replay.http", 0, 0, t0, Instant::now());

    // Cache: the workload's key sequence at its capacity.
    let t0 = Instant::now();
    let cache = ResultCache::with_capacity(input.cache_capacity.max(1));
    let keys: Vec<(u64, String)> = specs
        .iter()
        .map(|s| (spec_digest(s), cache_preimage(s)))
        .collect();
    if let Some(rec) = &record {
        let (mut get_s, mut put_s, mut puts) = (0.0, 0.0, 0usize);
        for (digest, key) in &keys {
            let t = Instant::now();
            let hit = matches!(cache.get(*digest, key), CacheLookup::Hit(_));
            get_s += t.elapsed().as_secs_f64();
            if !hit {
                let t = Instant::now();
                black_box(cache.put(*digest, key, rec));
                put_s += t.elapsed().as_secs_f64();
                puts += 1;
            }
        }
        out.insert("cache.get_us".into(), get_s * 1e6 / keys.len() as f64);
        out.insert("cache.put_us".into(), put_s * 1e6 / puts.max(1) as f64);
        out.entry("cache.hit_ratio".into())
            .or_insert(1.0 - puts as f64 / keys.len() as f64);
    }
    spans.record("replay.cache", 0, 0, t0, Instant::now());

    // Wire: the dispatch and done messages these jobs would cross as.
    let t0 = Instant::now();
    if let Some(rec) = &record {
        let msgs: Vec<Message> = specs[..n.min(1000)]
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                [
                    Message::Dispatch {
                        id: i as u64,
                        spec: s.clone(),
                    },
                    Message::Done {
                        id: i as u64,
                        record: Box::new(rec.clone()),
                    },
                ]
            })
            .collect();
        let mut frames = Vec::with_capacity(msgs.len());
        out.insert(
            "wire.encode_us".into(),
            time_us(msgs.len(), |i| frames.push(encode_frame(&msgs[i]))),
        );
        out.insert(
            "wire.decode_us".into(),
            time_us(frames.len(), |i| {
                black_box(decode_frame(&frames[i]).ok());
            }),
        );
    }
    spans.record("replay.wire", 0, 0, t0, Instant::now());

    // Engine: submit the distinct specs once (they execute), then time
    // submissions of the whole sequence, which the cache now answers.
    let t0 = Instant::now();
    let engine = sdvbs_serve::Engine::start(sdvbs_serve::EngineConfig {
        workers: 2,
        queue_capacity: 4096,
        cache_capacity: input.cache_capacity.max(1),
        ..sdvbs_serve::EngineConfig::default()
    });
    let mut seen = std::collections::BTreeSet::new();
    let distinct: Vec<&Job> = specs
        .iter()
        .filter(|s| seen.insert(cache_preimage(s)))
        .take(48)
        .collect();
    let mut ids = Vec::new();
    for s in &distinct {
        if let sdvbs_serve::Submission::Queued(id) =
            engine.submit((*s).clone(), false, sdvbs_serve::JobClass::Interactive)
        {
            ids.push(id);
        }
    }
    for id in ids {
        engine.wait_terminal(id, std::time::Duration::from_secs(60));
    }
    out.insert(
        "engine.submit_us".into(),
        time_us(n, |i| {
            black_box(engine.submit(
                specs[i % distinct.len().max(1)].clone(),
                false,
                sdvbs_serve::JobClass::Interactive,
            ));
        }),
    );
    out.insert(
        "engine.jobs_table_len".into(),
        engine.jobs_table_len() as f64,
    );
    engine.drain();
    spans.record("replay.engine", 0, 0, t0, Instant::now());

    // Stream pipelines: full and degraded frames.
    let t0 = Instant::now();
    for p in PIPELINES {
        let spec = StreamSpec {
            pipeline: p,
            size: InputSize::Sqcif,
            seed: specs[0].seed,
            fps: 10.0,
            policy: DegradePolicy::Degrade,
        };
        let Ok(mut pipe) = build_pipeline(&spec) else {
            continue;
        };
        let (mut full, mut degraded) = (Vec::new(), Vec::new());
        for frame in 0..24u64 {
            let d = frame % 2 == 1;
            let t = Instant::now();
            black_box(pipe.process(frame, d).ok());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if d {
                degraded.push(ms);
            } else {
                full.push(ms);
            }
        }
        out.insert(
            format!("stream.{}.full.process_ms", p.label()),
            median(&full),
        );
        out.insert(
            format!("stream.{}.degraded.process_ms", p.label()),
            median(&degraded),
        );
    }
    spans.record("replay.stream", 0, 0, t0, Instant::now());
}
