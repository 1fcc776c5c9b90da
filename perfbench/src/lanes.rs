//! The generator's lanes. Each lane owns one keep-alive connection and
//! runs on its own thread: an open loop sends requests at their due
//! times whatever the replies, a closed loop sends the next request only
//! after the last reply.

use crate::spans::Spans;
use crate::util::{body_json, RssLog};
use sdvbs_runner::{Job, RunRecord};
use sdvbs_serve::{fnv1a, spec_body, Client};
use sdvbs_trace::jsonl::Value;
use std::time::{Duration, Instant};

/// How long after the window a lane waits for its last replies.
const DRAIN_LIMIT_S: f64 = 30.0;
/// Batch-class jobs polled per round (their oldest first); interactive
/// jobs and frames are all polled every round.
const BATCH_POLLS: usize = 2;
/// Seconds between polls of pending batch jobs.
const BATCH_POLL_EVERY: f64 = 0.005;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An interactive job (serve_mixed) or a fresh-seed miss (cluster_hits).
    Interactive,
    Batch,
    Frame,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Interactive => "job",
            Class::Batch => "batch_job",
            Class::Frame => "frame",
        }
    }
}

/// One scheduled request of an open loop.
pub struct Event {
    /// Seconds after the window opened.
    pub due: f64,
    pub class: Class,
    /// The job spec (job classes).
    pub job: Option<Job>,
    /// Index into the lane's stream ids (frames).
    pub stream: usize,
}

/// What became of one request.
#[derive(Clone, Debug, Default)]
pub struct Op {
    pub class: Option<Class>,
    pub stream: usize,
    /// Due time to the reply that settled it, for settled requests.
    pub latency_ms: Option<f64>,
    /// Answered from the result cache.
    pub hit: bool,
    /// Refused, rejected, failed or never settled.
    pub failed: bool,
    /// A frame dropped by backpressure.
    pub dropped: bool,
    /// A frame processed at the degraded size.
    pub degraded: bool,
    /// Submission to the first poll that saw the job leave the queue.
    pub queue_wait_ms: Option<f64>,
    /// How late the generator sent it.
    pub lag_ms: f64,
    /// Seconds after the window opened when it settled.
    pub settled_s: f64,
}

pub struct LaneOut {
    pub ops: Vec<Op>,
    /// Every record served, with the spec it answered.
    pub served: Vec<(Job, RunRecord)>,
    pub spans: Spans,
    pub rss: RssLog,
}

struct Pending {
    op: usize,
    id: u64,
    due: f64,
    submitted: f64,
    job: Option<Job>,
    span: u64,
}

fn secs(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

fn at(epoch: Instant, s: f64) -> Instant {
    epoch + Duration::from_secs_f64(s.max(0.0))
}

fn io(e: std::io::Error) -> String {
    format!("generator connection: {e}")
}

/// Parses the `record` field of a JSON reply.
fn record_of(v: &Value) -> Option<RunRecord> {
    RunRecord::from_json_line(&v.get("record")?.to_string()).ok()
}

/// Runs an open loop over `events` (sorted by due time) against `addr`,
/// then waits for every submitted request to settle. `rss_pids`, when
/// given, are sampled through the window by this lane.
pub fn open_lane(
    addr: &str,
    events: &[Event],
    stream_ids: &[u64],
    epoch: Instant,
    mut spans: Spans,
    rss_pids: &[(String, u32)],
) -> Result<LaneOut, String> {
    let mut client = Client::connect(addr).map_err(io)?;
    let mut out = LaneOut {
        ops: Vec::with_capacity(events.len()),
        served: Vec::new(),
        spans: Spans::new(false, epoch, 0),
        rss: RssLog::default(),
    };
    let window = events.last().map_or(0.0, |e| e.due);
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut last_batch_poll = 0.0;
    loop {
        let now = secs(epoch);
        if !rss_pids.is_empty() {
            out.rss.sample(now, rss_pids);
        }
        if next < events.len() && events[next].due <= now {
            let ev = &events[next];
            next += 1;
            submit(
                &mut client,
                ev,
                stream_ids,
                epoch,
                &mut out,
                &mut pending,
                &mut spans,
            )?;
            continue;
        }
        if next >= events.len() {
            if pending.is_empty() {
                break;
            }
            if now > window + DRAIN_LIMIT_S {
                for p in pending.drain(..) {
                    out.ops[p.op].failed = true;
                }
                break;
            }
        }
        if pending.is_empty() {
            let wait = (events[next].due - now).clamp(0.0, 0.02);
            std::thread::sleep(Duration::from_secs_f64(wait));
            continue;
        }
        let until_next = events.get(next).map_or(f64::INFINITY, |e| e.due - now);
        poll_round(
            &mut client,
            epoch,
            until_next,
            &mut out,
            &mut pending,
            &mut spans,
            &mut last_batch_poll,
        )?;
    }
    if !rss_pids.is_empty() {
        out.rss.sample_now(secs(epoch), rss_pids);
    }
    out.spans = spans;
    Ok(out)
}

fn submit(
    client: &mut Client,
    ev: &Event,
    stream_ids: &[u64],
    epoch: Instant,
    out: &mut LaneOut,
    pending: &mut Vec<Pending>,
    spans: &mut Spans,
) -> Result<(), String> {
    let op_idx = out.ops.len();
    let span = spans.reserve();
    let t0 = Instant::now();
    let sent = secs(epoch);
    let mut op = Op {
        class: Some(ev.class),
        stream: ev.stream,
        lag_ms: (sent - ev.due).max(0.0) * 1e3,
        ..Op::default()
    };
    let resp = match (&ev.job, ev.class) {
        (Some(job), class) => {
            let path = if class == Class::Batch {
                "/v1/jobs?class=batch"
            } else {
                "/v1/jobs"
            };
            client
                .request("POST", path, Some(&spec_body(job, job.seed)))
                .map_err(io)?
        }
        (None, _) => {
            let path = format!("/v1/streams/{}/frames", stream_ids[ev.stream]);
            client.request("POST", &path, None).map_err(io)?
        }
    };
    let t1 = Instant::now();
    spans.record("http.submit", span, op_idx as u64, t0, t1);
    let now = secs(epoch);
    let v = body_json(&resp);
    let id = v.as_ref().and_then(|v| {
        v.get("id")
            .or_else(|| v.get("job_id"))
            .and_then(Value::as_u64)
    });
    match (resp.status, &ev.job) {
        (200, Some(job)) => match v.as_ref().and_then(record_of) {
            Some(rec) => {
                op.hit = true;
                op.latency_ms = Some((now - ev.due) * 1e3);
                op.settled_s = now;
                out.served.push((job.clone(), rec));
                spans.record_as(span, "hit", op_idx as u64, at(epoch, ev.due), t1);
            }
            None => op.failed = true,
        },
        (202, _)
            if v.as_ref()
                .and_then(|v| v.get("dropped"))
                .and_then(Value::as_bool)
                == Some(true) =>
        {
            op.dropped = true;
            op.settled_s = now;
        }
        (202, _) if id.is_some() => {
            op.degraded = v
                .as_ref()
                .and_then(|v| v.get("degraded"))
                .and_then(Value::as_bool)
                .unwrap_or(false);
            pending.push(Pending {
                op: op_idx,
                id: id.unwrap_or_default(),
                due: ev.due,
                submitted: now,
                job: ev.job.clone(),
                span,
            });
        }
        _ => op.failed = true,
    }
    out.ops.push(op);
    Ok(())
}

/// Polls pending requests once: every interactive job and frame, and
/// the oldest batch jobs at most every [`BATCH_POLL_EVERY`]. When nothing
/// settled and the next request is not due within 2 ms, it then waits up
/// to 1 ms: a long poll on the oldest interactive job or frame, or a
/// sleep. A round therefore costs the daemon a few requests per ms.
fn poll_round(
    client: &mut Client,
    epoch: Instant,
    until_next: f64,
    out: &mut LaneOut,
    pending: &mut Vec<Pending>,
    spans: &mut Spans,
    last_batch_poll: &mut f64,
) -> Result<(), String> {
    let now = secs(epoch);
    let poll_batch = now - *last_batch_poll >= BATCH_POLL_EVERY;
    if poll_batch {
        *last_batch_poll = now;
    }
    let mut batch_seen = 0;
    let mut chosen = Vec::new();
    for (i, p) in pending.iter().enumerate() {
        if out.ops[p.op].class == Some(Class::Batch) {
            if !poll_batch || batch_seen >= BATCH_POLLS {
                continue;
            }
            batch_seen += 1;
        }
        chosen.push((i, false));
    }
    let may_wait = until_next > 0.002;
    let mut settled = Vec::new();
    for &(i, wait) in &chosen {
        if poll_one(client, epoch, wait, &pending[i], out, spans)? {
            settled.push(i);
        }
    }
    if settled.is_empty() && may_wait {
        let oldest = pending
            .iter()
            .position(|p| out.ops[p.op].class != Some(Class::Batch));
        match oldest {
            Some(i) => {
                if poll_one(client, epoch, true, &pending[i], out, spans)? {
                    settled.push(i);
                }
            }
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    settled.sort_unstable();
    settled.dedup();
    for &i in settled.iter().rev() {
        let p = pending.remove(i);
        let op = &mut out.ops[p.op];
        if !op.failed {
            op.latency_ms = Some((op.settled_s - p.due) * 1e3);
        }
        let name = op.class.map_or("job", Class::span_name);
        spans.record_as(p.span, name, p.op as u64, at(epoch, p.due), Instant::now());
    }
    Ok(())
}

/// Polls one pending request (`wait`: long-poll up to 1 ms); `true` when
/// it settled.
fn poll_one(
    client: &mut Client,
    epoch: Instant,
    wait: bool,
    p: &Pending,
    out: &mut LaneOut,
    spans: &mut Spans,
) -> Result<bool, String> {
    let path = if wait {
        format!("/v1/jobs/{}?wait_ms=1", p.id)
    } else {
        format!("/v1/jobs/{}", p.id)
    };
    let t0 = Instant::now();
    let resp = client.request("GET", &path, None).map_err(io)?;
    let t1 = Instant::now();
    spans.record("http.poll", p.span, p.op as u64, t0, t1);
    let now = secs(epoch);
    let v = body_json(&resp);
    let state = v
        .as_ref()
        .and_then(|v| v.get("state"))
        .and_then(Value::as_str)
        .unwrap_or("");
    let op = &mut out.ops[p.op];
    if state != "queued" && op.queue_wait_ms.is_none() {
        op.queue_wait_ms = Some((now - p.submitted) * 1e3);
        spans.record(
            "sched.queued",
            p.span,
            p.op as u64,
            at(epoch, p.submitted),
            t1,
        );
    }
    match (resp.status, state) {
        (200, "done") => {
            op.settled_s = now;
            if let Some(job) = &p.job {
                match v.as_ref().and_then(record_of) {
                    Some(rec) => out.served.push((job.clone(), rec)),
                    None => op.failed = true,
                }
            }
            Ok(true)
        }
        (200, _) => Ok(false),
        _ => {
            op.failed = true;
            op.settled_s = now;
            Ok(true)
        }
    }
}

/// A closed loop over `hot` cache-resident specs until the window ends.
pub struct HitOut {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    /// First record served per hot key.
    pub served: Vec<(Job, RunRecord)>,
    /// Replies whose bytes differed from the key's first reply.
    pub changed: u64,
    pub spans: Spans,
}

/// A closed loop paced to at most `rate` requests a second: request `n`
/// goes out after the reply to `n - 1`, and no earlier than `n / rate`.
pub fn hit_lane(
    addr: &str,
    hot: &[Job],
    rate: f64,
    epoch: Instant,
    window: f64,
    mut spans: Spans,
) -> Result<HitOut, String> {
    let mut client = Client::connect(addr).map_err(io)?;
    let bodies: Vec<String> = hot.iter().map(|j| spec_body(j, j.seed)).collect();
    let mut first: Vec<Option<u64>> = vec![None; hot.len()];
    let mut out = HitOut {
        latencies_ms: Vec::new(),
        failed: 0,
        served: Vec::new(),
        changed: 0,
        spans: Spans::new(false, epoch, 0),
    };
    let mut n = 0usize;
    loop {
        let now = secs(epoch);
        if now >= window {
            break;
        }
        let due = n as f64 / rate;
        if due > now + 0.001 {
            std::thread::sleep(Duration::from_secs_f64(due - now));
            continue;
        }
        let k = n % hot.len();
        let t0 = Instant::now();
        let resp = client
            .request("POST", "/v1/jobs", Some(&bodies[k]))
            .map_err(io)?;
        let t1 = Instant::now();
        spans.record("hit", 0, n as u64, t0, t1);
        n += 1;
        if resp.status != 200 {
            out.failed += 1;
            continue;
        }
        out.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let digest = fnv1a(&resp.body);
        match first[k] {
            Some(d) if d == digest => {}
            Some(_) => out.changed += 1,
            None => {
                first[k] = Some(digest);
                match body_json(&resp).as_ref().and_then(record_of) {
                    Some(rec) => out.served.push((hot[k].clone(), rec)),
                    None => out.failed += 1,
                }
            }
        }
    }
    out.spans = spans;
    Ok(out)
}
