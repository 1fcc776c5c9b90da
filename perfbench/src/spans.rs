//! In-memory spans the traced run records around its calls into each
//! layer. A span has a name, start, end, parent span and the request id
//! its spans share; they are written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// One thread's recorder. Disabled recorders keep nothing, so the
/// untraced runs pay one branch per call site.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    /// Thread tag folded into ids so merged recorders never collide.
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, epoch: Instant, tag: u64) -> Spans {
        Spans {
            enabled,
            epoch,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (0 when disabled, which
    /// is also the "no parent" id).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let id = (self.tag << 48) | self.next;
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_us: us(start),
            end_us: us(end),
        });
        id
    }

    /// Reserves an id for a parent span whose end is not known yet.
    pub fn reserve(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        (self.tag << 48) | self.next
    }

    /// Records a span under an id from [`Spans::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled || id == 0 {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent: 0,
            req,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }
}

/// Per span name: `(count, total ms, self ms)`, where self time is the
/// span minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = (s.end_us - s.start_us).max(0.0);
        let covered = children.get_mut(&s.id).map_or(0.0, |kids| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += total / 1e3;
        e.2 += (total - covered).max(0.0) / 1e3;
    }
    out
}

/// Writes spans as JSONL: one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id, s.parent, s.req, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}
