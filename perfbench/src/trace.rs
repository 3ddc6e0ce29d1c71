//! In-memory span recording for the traced run, and the summary statistics
//! the metrics are computed with.
//!
//! Spans are recorded by the benchmark's own code around its calls into the
//! layers (see `layers`); nothing inside the library is instrumented. They
//! stay in memory until the run ends, when [`Tracer::write`] dumps them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, as a metric stem (`inject.arch.trial`).
    pub name: &'static str,
    /// The cell, unit or figure the call worked on (may be empty).
    pub tag: &'static str,
    /// The fault class, where the call ran one trial (may be empty).
    pub class: &'static str,
    /// Request the span belongs to (pass, job or regeneration index).
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<(&'static str, &'static str), u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            counts: BTreeMap::new(),
        }
    }

    /// Add `n` to the counter `name` of `tag`.
    pub fn count(&mut self, name: &'static str, tag: &'static str, n: u64) {
        *self.counts.entry((name, tag)).or_default() += n;
    }

    /// The value of counter `name` of `tag`.
    pub fn counter(&self, name: &'static str, tag: &'static str) -> u64 {
        self.counts.get(&(name, tag)).copied().unwrap_or(0)
    }

    /// Record a span that started at `start` and ends now.
    pub fn end(&mut self, name: &'static str, tag: &'static str, request: u64, start: Instant) {
        self.end_class(name, tag, "", request, start);
    }

    /// [`Self::end`] for a span attributed to a fault class.
    pub fn end_class(
        &mut self,
        name: &'static str,
        tag: &'static str,
        class: &'static str,
        request: u64,
        start: Instant,
    ) {
        let now = Instant::now();
        self.push(name, tag, class, request, start, now - start);
    }

    /// Record a span measured elsewhere (for example on a worker thread).
    pub fn push(
        &mut self,
        name: &'static str,
        tag: &'static str,
        class: &'static str,
        request: u64,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            name,
            tag,
            class,
            request,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            dur_ns: nanos(dur),
        });
    }

    /// Durations in milliseconds of the spans matching `name` and `tag`
    /// (an empty `tag` matches every tag).
    pub fn ms(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (tag.is_empty() || s.tag == tag))
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// [`Self::ms`] further restricted to one fault class.
    pub fn ms_class(&self, name: &str, tag: &str, class: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag && s.class == class)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Write every span, then every counter, as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":\"{}\",\"class\":\"{}\",\"request\":{},\
                 \"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.tag, s.class, s.request, s.start_ns, s.dur_ns
            )?;
        }
        for ((name, tag), n) in &self.counts {
            writeln!(
                out,
                "{{\"counter\":\"{name}\",\"tag\":\"{tag}\",\"value\":{n}}}"
            )?;
        }
        out.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
