//! Statistics, host diagnostics and the in-memory span trace.
//!
//! Nothing here times a single engine event: callers time fixed-size
//! windows or batches, and report the fastest or the median of those.

use std::fs;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (NaN if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What every gated time reports of its samples within a run (windows,
/// trials, resumes, set-ups): the fastest one (NaN if there are none).
///
/// The shared host alternates between a quiet state and a contended one
/// (other tenants' traffic in the shared last-level cache) in which the
/// same work takes 1.4 to 1.7 times as long: a 2^16 ring trial takes
/// 7.8 ms or 12 to 13.5 ms, a 2^20 window 0.6 or 1.0 µs per event. How
/// much of a run falls in each state swings from run to run, so a median
/// or a mean follows the host. Nearly every run has some samples in the
/// quiet state, and the fastest sample stays on that level; slower
/// samples carry the host's contention, not more work. A change to the
/// program moves both levels.
pub fn fast(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Iterations of the host reference kernel per sample (~50 µs).
const REF_OPS: u64 = 1 << 15;

/// One sample of the host reference kernel, in ns per operation: a fixed
/// dependent multiply-rotate chain that touches no memory, so it moves
/// only when the host's own speed moves.
pub fn host_ref_ns() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for i in 0..black_box(REF_OPS) {
        x = (x.wrapping_mul(0x2545_F491_4F6C_DD1D)).rotate_left(17) ^ i;
    }
    black_box(x);
    ns(start.elapsed()) / REF_OPS as f64
}

/// On-CPU nanoseconds of the calling thread, from
/// `/proc/thread-self/schedstat` (None where the kernel lacks it).
pub fn oncpu_ns() -> Option<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(kind)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().map_or(true, |(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*kind).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// One recorded span: a call from the benchmark into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Spans kept in memory while the benchmark runs and written out once at
/// the end. A disabled trace records nothing and costs one branch.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans named `name`, divided by `ops` per span.
    pub fn median_per_op(&self, name: &str, ops: f64) -> f64 {
        median(&self.durations(name)) / ops
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn fast_is_the_smallest_sample() {
        assert_eq!(fast(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fast(&[]).is_nan());
    }

    #[test]
    fn spans_nest_and_disable() {
        let mut trace = Trace::new(true);
        let outer = trace.enter("outer", 0);
        trace.time("inner", 1, || black_box(1 + 1));
        trace.exit(outer);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.durations("inner").len(), 1);
        let mut off = Trace::new(false);
        assert_eq!(off.enter("x", 0), None);
        assert!(off.durations("x").is_empty());
    }
}
