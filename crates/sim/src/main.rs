//! The `sdvbs-sim` CLI: explore seed ranges, replay a failing seed.
//!
//! ```text
//! sdvbs-sim explore --seeds 0..50 --faults crash,partition [--workers N]
//!                   [--duration-s S] [--verbose]
//! sdvbs-sim replay  --seed 17 --faults crash,partition [--trace FILE]
//! ```
//!
//! Exit codes: `0` all invariants hold, `2` usage error, `4` an
//! invariant was violated (the offending seed is printed — replaying it
//! reproduces the run bit for bit).

use sdvbs_sim::{explore, run_sim, FaultSpec, SimConfig, SimOutcome};
use std::io::Write;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("--help" | "-h") | None => {
            print_out(USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Writes `text` through a locked stdout. A reader that closed the pipe
/// early (`… --verbose | head -1`) already has what it wanted, so a
/// broken pipe is not an error.
fn print_out(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("writing to stdout: {e}");
        }
    }
}

const USAGE: &str = "\
sdvbs-sim: deterministic simulation of the sdvbs-serve cluster stack

USAGE:
  sdvbs-sim explore --seeds A..B [--faults KINDS] [--workers N]
                    [--duration-s S] [--jobs-per-sec J] [--verbose]
  sdvbs-sim replay  --seed N [--faults KINDS] [--workers N]
                    [--duration-s S] [--jobs-per-sec J] [--trace FILE]

  KINDS   comma list of crash, partition, stall, reorder (default none)

EXIT CODES:
  0  all invariants hold      2  usage error
  4  invariant violated (offending seed printed; replay it to reproduce)
";

struct Opts {
    seeds: (u64, u64),
    faults: FaultSpec,
    workers: usize,
    duration_s: u64,
    jobs_per_sec: u64,
    trace: Option<String>,
    verbose: bool,
}

fn parse_opts(args: &[String], want_range: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        seeds: (0, 1),
        faults: FaultSpec::none(),
        workers: 3,
        duration_s: 20,
        jobs_per_sec: 3,
        trace: None,
        verbose: false,
    };
    let mut saw_seeds = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got {v:?}"))?;
                let from = a.parse::<u64>().map_err(|e| format!("--seeds: {e}"))?;
                let to = b.parse::<u64>().map_err(|e| format!("--seeds: {e}"))?;
                if to <= from {
                    return Err(format!("--seeds range {v:?} is empty"));
                }
                opts.seeds = (from, to);
                saw_seeds = true;
            }
            "--seed" => {
                let v = value("--seed")?;
                let s = v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
                opts.seeds = (s, s + 1);
                saw_seeds = true;
            }
            "--faults" => opts.faults = FaultSpec::parse(&value("--faults")?)?,
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--duration-s" => {
                opts.duration_s = value("--duration-s")?
                    .parse()
                    .map_err(|e| format!("--duration-s: {e}"))?
            }
            "--jobs-per-sec" => {
                opts.jobs_per_sec = value("--jobs-per-sec")?
                    .parse()
                    .map_err(|e| format!("--jobs-per-sec: {e}"))?
            }
            "--trace" => opts.trace = Some(value("--trace")?),
            "--verbose" => opts.verbose = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !saw_seeds {
        return Err(if want_range {
            "explore needs --seeds A..B".to_string()
        } else {
            "replay needs --seed N".to_string()
        });
    }
    Ok(opts)
}

fn config(opts: &Opts, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(seed, Duration::from_secs(opts.duration_s), opts.faults);
    cfg.jobs_per_sec = opts.jobs_per_sec;
    cfg.model.workers = opts.workers.max(1);
    cfg
}

fn describe(outcome: &SimOutcome) -> String {
    let s = &outcome.stats;
    format!(
        "seed {:>4}  digest {:016x}  sim {:>6.1}s  jobs {} (done {} rejected {} quarantined {})  \
         deaths {} (stale {})  requeues {}  busy {}  stolen {}",
        outcome.seed,
        outcome.digest,
        outcome.end_us as f64 / 1e6,
        s.admitted,
        s.completed,
        s.rejected,
        s.quarantined,
        s.deaths,
        s.stale_deaths,
        s.requeues,
        s.busy_bounces,
        s.stolen,
    )
}

fn cmd_explore(args: &[String]) -> i32 {
    let opts = match parse_opts(args, true) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let (from, to) = opts.seeds;
    let wall = Instant::now();
    let report = explore(from, to, &config(&opts, from));
    let failures = report
        .results
        .iter()
        .filter(|r| !r.violations.is_empty())
        .count();
    let mut text = String::new();
    if opts.verbose {
        for r in &report.results {
            let mark = if r.violations.is_empty() {
                "ok  "
            } else {
                "FAIL"
            };
            text += &format!(
                "{mark} seed {:>4}  digest {:016x}  sim {:.1}s\n",
                r.seed,
                r.digest,
                r.end_us as f64 / 1e6
            );
        }
    }
    text += &format!(
        "explored seeds {from}..{to} (faults: {}): {} runs, {:.1} simulated seconds \
         in {:.2}s wall, {failures} failing\n",
        opts.faults,
        report.results.len(),
        report.total_sim_us as f64 / 1e6,
        wall.elapsed().as_secs_f64(),
    );
    print_out(&text);
    if let Some((seed, violations)) = &report.first_failure {
        eprintln!("first failing seed: {seed}");
        for v in violations {
            eprintln!("  violation: {v}");
        }
        eprintln!(
            "reproduce with: sdvbs-sim replay --seed {seed} --faults {} --workers {} --duration-s {}",
            opts.faults, opts.workers, opts.duration_s
        );
        return 4;
    }
    0
}

fn cmd_replay(args: &[String]) -> i32 {
    let opts = match parse_opts(args, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let seed = opts.seeds.0;
    let outcome = run_sim(&config(&opts, seed));
    let mut text = format!("{}\n", describe(&outcome));
    if !outcome.schedule.crashes.is_empty()
        || !outcome.schedule.stalls.is_empty()
        || !outcome.schedule.partitions.is_empty()
    {
        text += &format!("fault schedule: {:?}\n", outcome.schedule);
    }
    if let Some(path) = &opts.trace {
        match write_trace(path, &outcome) {
            Ok(lines) => text += &format!("wrote {lines} event-log lines to {path}\n"),
            Err(e) => {
                print_out(&text);
                eprintln!("writing {path}: {e}");
                return 2;
            }
        }
    }
    print_out(&text);
    if !outcome.violations.is_empty() {
        eprintln!("seed {seed} violates invariants:");
        for v in &outcome.violations {
            eprintln!("  violation: {v}");
        }
        return 4;
    }
    0
}

/// Writes the deterministic event log, one line per event, with a
/// header naming the seed and digest so a trace file is self-describing.
fn write_trace(path: &str, outcome: &SimOutcome) -> Result<usize, std::io::Error> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "# sdvbs-sim seed={} digest={:016x} end_us={}",
        outcome.seed, outcome.digest, outcome.end_us
    )?;
    for line in &outcome.log {
        writeln!(f, "{line}")?;
    }
    Ok(outcome.log.len())
}
