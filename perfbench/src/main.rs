//! `perfbench` — the repository benchmark. Launches the system under test
//! (`sdvbs-runner`, `sdvbs-serve`) as subprocesses, drives one workload
//! from this single generator process, checks the outputs, and prints the
//! metrics. Run it through `perfbench/run.sh`, which builds everything:
//!
//! ```text
//! bash perfbench/run.sh --workload suite_sweep|serve_mixed|cluster_hits \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced pass of half the window, then a traced pass of the whole
//! window (2.5 windows on serve_mixed), and prints the per-layer
//! metrics, the tracing overhead among them. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod lanes;
mod layers;
mod serve;
mod spans;
mod sweep;
mod util;

use layers::{Layers, ReplayInput};
use spans::{Span, Spans};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use util::{median, pct};

pub const WORKLOADS: [&str; 3] = ["suite_sweep", "serve_mixed", "cluster_hits"];
/// Set-ups per measured run; the median is reported.
const SETUP_REPS: u64 = 3;

pub struct Ctx {
    pub bins: PathBuf,
    pub seed: u64,
    /// Where runs leave their files, inside the checkout.
    pub scratch: PathBuf,
}

/// A timing printed with its sample count and tail percentile.
pub struct Timing {
    pub name: String,
    pub unit: &'static str,
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub goodput_per_s: f64,
    pub exec_p50_ms: f64,
    pub exec_tail_ms: f64,
    pub exec_tail_p: f64,
    pub exec_n: usize,
    pub rss_peak_mb: f64,
    /// Peak VmHWM per system-under-test process.
    pub rss_by_process: Vec<(String, f64)>,
    /// Cores the system under test kept busy through the window.
    pub sut_cores: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures, reported as they are.
    pub problems: Vec<String>,
    /// The open-loop latency limit (0 when the workload has none).
    pub limit_ms: f64,
    /// How late the generator sent each open-loop request.
    pub lags_ms: Vec<f64>,
    pub timings: Vec<Timing>,
    /// The workload's own end-to-end figures (`e2e.*`).
    pub detail: BTreeMap<&'static str, f64>,
    pub layers: Layers,
    pub spans: Vec<Span>,
    pub replay: Option<ReplayInput>,
}

impl Pass {
    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            ("setup_s", "s", median(&self.setup_s)),
            ("goodput_per_s", "1/s", self.goodput_per_s),
            ("exec_p50_ms", "ms", self.exec_p50_ms),
            ("exec_tail_ms", "ms", self.exec_tail_ms),
            (
                "ops_ok_ratio",
                "ratio",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            ),
            ("rss_peak_mb", "MB", self.rss_peak_mb),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let list: Vec<String> = std::env::args().skip(1).collect();
    let mut it = list.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run_pass(name: &str, ctx: &Ctx, traced: bool, window: f64, reps: u64) -> Result<Pass, String> {
    match name {
        "suite_sweep" => sweep::suite_sweep(ctx, traced, window, reps),
        "serve_mixed" => serve::serve_mixed(ctx, traced, window, reps),
        _ => serve::cluster_hits(ctx, traced, window, reps),
    }
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(list: &[(String, &str, f64)]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let ctx = Ctx {
        bins: util::bin_dir()?,
        seed: args.seed,
        scratch: PathBuf::from(".bench_results"),
    };
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!(".bench_results: {e}"))?;
    let host = sdvbs_runner::HostMeta::collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let command = std::env::args().collect::<Vec<_>>().join(" ");
    let commit = commit();
    println!(
        "host: {} ({} logical CPUs, nproc {nproc}); commit {commit}",
        host.cpu, host.logical_cpus
    );
    println!("command: {command}");

    // The first Face Detection warmup in a fresh process trains its
    // cascade; time it before anything else can.
    let cascade_ms = if args.trace {
        let t = Instant::now();
        for b in sdvbs_core::all_benchmarks() {
            if b.info().name == "Face Detection" {
                b.warmup();
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };

    let (pass, untraced) = if args.trace {
        // serve_mixed's streams send 26 frames a second; its traced pass
        // runs 2.5 windows (1300 frames at 20 s) so that
        // `e2e.frame_p99_ms` keeps ten frames beyond it after drops.
        let traced_window = if args.workload == "serve_mixed" {
            2.5 * args.seconds
        } else {
            args.seconds
        };
        let a = run_pass(&args.workload, &ctx, false, args.seconds / 2.0, 1)?;
        let mut b = run_pass(&args.workload, &ctx, true, traced_window, 1)?;
        // Both passes are checked; the result counts them together.
        b.attempted += a.attempted;
        b.failed += a.failed;
        b.problems.extend(a.problems.iter().cloned());
        b.lags_ms.extend(&a.lags_ms);
        (b, Some(a))
    } else {
        (
            run_pass(&args.workload, &ctx, false, args.seconds, SETUP_REPS)?,
            None,
        )
    };

    let lag_p99 = pct(&pass.lags_ms, 99.0);
    let lag_max = pass.lags_ms.iter().copied().fold(0.0, f64::max);
    if pass.limit_ms > 0.0 && lag_max > pass.limit_ms {
        eprintln!(
            "perfbench: invalid run: the generator fell {lag_max:.1} ms behind its schedule \
             (latency limit {} ms); not reported",
            pass.limit_ms
        );
        return Ok(ExitCode::from(3));
    }

    let e2e = pass.end_to_end();
    println!(
        "workload {} seed {} traced {}",
        args.workload, args.seed, args.trace
    );
    for (n, u, v) in &e2e {
        let samples = match *n {
            "setup_s" => format!("n={}", pass.setup_s.len()),
            "exec_p50_ms" | "exec_tail_ms" => {
                format!("n={} (tail p{})", pass.exec_n, pass.exec_tail_p)
            }
            "rss_peak_mb" => pass
                .rss_by_process
                .iter()
                .map(|(n, mb)| format!("{n} {mb:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            _ => String::new(),
        };
        println!("  {n:<14} {v:>12.4} {u:<6} {samples}");
    }
    for t in &pass.timings {
        println!(
            "  timing {:<28} n={:<7} p50 {:>10.4} {}  p{} {:>10.4} {}",
            t.name, t.n, t.p50, t.unit, t.tail_p, t.tail, t.unit
        );
    }
    if pass.limit_ms > 0.0 {
        println!(
            "  generator lag p99 {lag_p99:.3} ms, max {lag_max:.3} ms (limit {} ms, n={})",
            pass.limit_ms,
            pass.lags_ms.len()
        );
    }
    if pass.sut_cores > 0.0 {
        println!(
            "  system under test: {:.2} cores busy on average",
            pass.sut_cores
        );
    }
    for (k, v) in &pass.detail {
        println!("  {k:<28} {v:.4}");
    }
    println!(
        "  attempted {} failed {} ({} correctness problem(s))",
        pass.attempted,
        pass.failed,
        pass.problems.len()
    );
    for p in &pass.problems {
        println!("  PROBLEM: {p}");
    }

    let mut spans_out = Spans::new(args.trace, Instant::now(), 9);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    if let Some(a) = &untraced {
        let mut layers = pass.layers.clone();
        for d in layers::DETAIL {
            layers.insert(d.to_string(), pass.detail.get(d).copied().unwrap_or(0.0));
        }
        layers.insert(
            "e2e.ops_failed_ratio".into(),
            pass.failed as f64 / pass.attempted.max(1) as f64,
        );
        layers.insert("e2e.gen_lag_p99_ms".into(), lag_p99);
        let before = a.end_to_end();
        // Positive overhead means tracing made the metric worse; only
        // `goodput_per_s` (the first) is better when higher.
        for (i, key) in layers::OVERHEAD.iter().enumerate() {
            let (b, t) = (before[i + 1].2, e2e[i + 1].2);
            let worse = if i == 0 { b - t } else { t - b };
            layers.insert(key.to_string(), 100.0 * worse / b.abs().max(1e-12));
        }
        layers.insert("setup.cascade_ms".into(), cascade_ms);
        if let Some(input) = &pass.replay {
            layers::replay(input, &mut spans_out, &mut layers);
        }
        let mut all_spans = pass.spans.clone();
        all_spans.extend(spans_out.spans.iter().cloned());
        layers.insert("trace.spans".into(), all_spans.len() as f64);
        let path = ctx
            .scratch
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        spans::write_jsonl(&path, &all_spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans: {} written to {}", all_spans.len(), path.display());
        for (name, (count, total, own)) in spans::self_times(&all_spans) {
            println!("  span {name:<16} n={count:<8} total {total:>12.3} ms  self {own:>12.3} ms");
        }
        for (name, unit) in layers::names() {
            let v = layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, unit, v));
        }
    } else {
        for (n, u, v) in &e2e {
            metrics.push((n.to_string(), u, *v));
        }
    }

    let json = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        pass.problems.is_empty(),
        pass.attempted.max(1),
        pass.failed,
        metrics_json(&metrics)
    );
    let stamp = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host\":{{\"cpu\":{},\"logical_cpus\":{},\"nproc\":{nproc}}},\"commit\":{},\"command\":{},\"result\":{json}}}\n",
        args.workload,
        args.seed,
        args.trace,
        sdvbs_trace::jsonl::Value::Str(host.cpu.clone()),
        host.logical_cpus,
        sdvbs_trace::jsonl::Value::Str(commit),
        sdvbs_trace::jsonl::Value::Str(command),
    );
    let results = ctx.scratch.join("results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .map_err(|e| format!("{}: {e}", results.display()))?;
    std::io::Write::write_all(&mut file, stamp.as_bytes())
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("{json}");
    Ok(ExitCode::SUCCESS)
}
