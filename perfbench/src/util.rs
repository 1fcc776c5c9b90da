//! Small shared pieces: the seeded generator, order statistics, child
//! processes of the system under test, RSS sampling and HTTP helpers.

use sdvbs_serve::{Client, ResponseMsg};
use sdvbs_trace::jsonl::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// SplitMix64: the whole input schedule derives from `--seed` through it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 when
/// empty. Every reported percentile is an observed value.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    pct(values, 50.0)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (logs / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Least-squares slope of `(x, y)` points; 0 with fewer than two.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let num: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let den: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Lower-case, `_`-joined form of a benchmark or kernel name for metric
/// names (`Image Segmentation` -> `image_segmentation`).
pub fn slug(name: &str) -> String {
    name.to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// A child process of the system under test. Dropping it kills the
/// process and waits for it, so no run leaves one behind.
pub struct Proc {
    pub name: String,
    /// The address from the daemon's `listening on ADDR` banner.
    pub addr: String,
    child: Child,
    /// Held open so the daemon's later prints never hit a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Proc {
    /// Spawns `bin args` and, when `banner` is set, reads the bound
    /// address from its first stdout line (daemons bind port 0).
    pub fn spawn(name: &str, bin: &Path, args: &[String], banner: bool) -> Result<Proc, String> {
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(if banner {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = Proc {
            name: name.to_string(),
            addr: String::new(),
            child,
            _stdout: None,
        };
        if let Some(out) = proc.child.stdout.take() {
            let mut reader = BufReader::new(out);
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("{name}: reading its banner: {e}"))?;
            proc.addr = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .ok_or_else(|| format!("{name}: unexpected banner {line:?}"))?
                .to_string();
            proc._stdout = Some(reader);
        }
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the process has exited (reaping it if so).
    pub fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// Waits for the process to exit on its own; `true` on success.
    pub fn wait_success(&mut self) -> bool {
        self.child.wait().map(|s| s.success()).unwrap_or(false)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `(VmRSS, VmHWM)` of a live process in MB.
pub fn rss_mb(pid: u32) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |key: &str| -> Option<f64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

/// CPU seconds (user + system) a live process has used, assuming the
/// usual 100 clock ticks per second.
pub fn cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// RSS of the system-under-test processes sampled through the window.
#[derive(Default)]
pub struct RssLog {
    /// `(seconds into the window, summed VmRSS MB)`.
    pub samples: Vec<(f64, f64)>,
    /// Peak VmHWM per process name.
    pub peaks: Vec<(String, f64)>,
    /// Summed CPU seconds of the processes at the first and last sample.
    pub cpu: Option<(f64, f64, f64, f64)>,
    last: Option<Instant>,
}

impl RssLog {
    /// Samples every `pids` entry, at most every 200 ms.
    pub fn sample(&mut self, t: f64, pids: &[(String, u32)]) {
        if self
            .last
            .is_some_and(|l| l.elapsed() < Duration::from_millis(200))
        {
            return;
        }
        self.last = Some(Instant::now());
        let mut total = 0.0;
        for (name, pid) in pids {
            if let Some((rss, hwm)) = rss_mb(*pid) {
                total += rss;
                match self.peaks.iter_mut().find(|(n, _)| n == name) {
                    Some(p) => p.1 = p.1.max(hwm),
                    None => self.peaks.push((name.clone(), hwm)),
                }
            }
        }
        self.samples.push((t, total));
        let cpu: f64 = pids.iter().filter_map(|(_, pid)| cpu_s(*pid)).sum();
        self.cpu = Some(match self.cpu {
            None => (t, cpu, t, cpu),
            Some((t0, c0, _, _)) => (t0, c0, t, cpu),
        });
    }

    /// Cores the processes kept busy on average between the first and
    /// last sample.
    pub fn cores(&self) -> f64 {
        self.cpu
            .map_or(0.0, |(t0, c0, t1, c1)| (c1 - c0) / (t1 - t0).max(1e-9))
    }

    /// Forces a sample now (window end).
    pub fn sample_now(&mut self, t: f64, pids: &[(String, u32)]) {
        self.last = None;
        self.sample(t, pids);
    }

    pub fn peak_sum(&self) -> f64 {
        self.peaks.iter().map(|p| p.1).sum()
    }

    pub fn peak_of(&self, name: &str) -> f64 {
        self.peaks
            .iter()
            .find(|p| p.0 == name)
            .map(|p| p.1)
            .unwrap_or(0.0)
    }

    /// Growth slope of the summed RSS in MB/s.
    pub fn growth(&self) -> f64 {
        slope(&self.samples)
    }
}

pub fn body_json(resp: &ResponseMsg) -> Option<Value> {
    Value::parse(&resp.body_text()).ok()
}

pub fn get_text(addr: &str, path: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let resp = client
        .request("GET", path, None)
        .map_err(|e| format!("GET {path}: {e}"))?;
    Ok(resp.body_text())
}

/// `GET path` read raw, for bodies larger than the client's cap (the
/// daemon's `/v1/trace`). Returns the body length.
pub fn get_len(addr: &str, path: &str) -> Result<usize, String> {
    use std::io::{Read, Write};
    let err = |e: std::io::Error| format!("GET {path}: {e}");
    let mut stream = std::net::TcpStream::connect(addr).map_err(err)?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: sdvbs-serve\r\n\r\n").as_bytes())
        .map_err(err)?;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let (head_end, length) = loop {
        let n = stream.read(&mut chunk).map_err(err)?;
        if n == 0 {
            return Err(format!("GET {path}: connection closed mid-head"));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
            let length = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .ok_or_else(|| format!("GET {path}: no content-length"))?;
            break (end + 4, length);
        }
    };
    let mut have = buf.len() - head_end;
    while have < length {
        let n = stream.read(&mut chunk).map_err(err)?;
        if n == 0 {
            return Err(format!("GET {path}: body cut at {have} of {length} bytes"));
        }
        have += n;
    }
    Ok(length)
}

/// Polls `/healthz` until it answers `ok` with `workers` live workers
/// (cluster mode), up to `limit`.
pub fn wait_ready(addr: &str, workers: Option<u64>, limit: Duration) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < limit {
        if let Ok(text) = get_text(addr, "/healthz") {
            if let Ok(v) = Value::parse(&text) {
                let ok = v.get("status").and_then(Value::as_str) == Some("ok");
                let alive = v.get("workers_alive").and_then(Value::as_u64);
                if ok && (workers.is_none() || alive == workers) {
                    return Ok(());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(format!("{addr} not ready after {limit:?}"))
}

/// Value of a Prometheus line `sdvbs_serve_<name> V` or
/// `sdvbs_serve_<name>{stat="<stat>"} V`; 0 when absent.
pub fn prom(text: &str, name: &str, stat: Option<&str>) -> f64 {
    let key = match stat {
        Some(s) => format!("sdvbs_serve_{name}{{stat=\"{s}\"}} "),
        None => format!("sdvbs_serve_{name} "),
    };
    text.lines()
        .find_map(|l| l.strip_prefix(key.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Directory of the built binaries, from `PERFBENCH_BIN_DIR`.
pub fn bin_dir() -> Result<PathBuf, String> {
    let dir = std::env::var("PERFBENCH_BIN_DIR")
        .map_err(|_| "PERFBENCH_BIN_DIR is not set (run through perfbench/run.sh)".to_string())?;
    let dir = PathBuf::from(dir);
    for bin in ["sdvbs-runner", "sdvbs-serve"] {
        if !dir.join(bin).is_file() {
            return Err(format!("{} is missing", dir.join(bin).display()));
        }
    }
    Ok(dir)
}
