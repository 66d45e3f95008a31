//! What one benchmark invocation reports: named metrics with units,
//! human-readable lines, the correctness tally, and the final JSON
//! line.

use std::fmt::Write as _;

use plp_core::RunReport;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, base of a ratio, or how the value was formed.
    pub detail: String,
}

/// Counts operations and the checks they failed. A failed check is
/// counted, never skipped.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Records one operation whose checks all passed iff `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// The metrics the JSON line carries, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures and notes, printed above the JSON.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, detail: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            detail,
        });
    }

    /// A figure printed for people only: it exists on one workload,
    /// so it cannot be one of the metrics every workload reports.
    pub fn line(&mut self, name: &str, value: impl std::fmt::Display, unit: &str, detail: &str) {
        self.lines
            .push(format!("{name:<32} {value} {unit}  ({detail})"));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }
}

/// Renders the human lines, then the JSON object as the last line.
pub fn render(outcome: &Outcome) -> String {
    let mut s = String::new();
    for line in &outcome.lines {
        let _ = writeln!(s, "{line}");
    }
    for m in &outcome.metrics {
        let _ = writeln!(s, "{:<32} {} {}  ({})", m.name, m.value, m.unit, m.detail);
    }
    let c = &outcome.checks;
    let failed_frac = c.failed as f64 / c.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "{:<32} {failed_frac} ratio  ({} failed / {} attempted operations)",
        "failed_frac", c.failed, c.attempted
    );
    for msg in c.messages() {
        let _ = writeln!(s, "FAILED: {msg}");
    }
    s.push_str("{\"correct\": ");
    s.push_str(if c.failed == 0 && c.attempted > 0 {
        "true"
    } else {
        "false"
    });
    let _ = write!(
        s,
        ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.attempted, c.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}\n");
    s
}

/// JSON has no NaN or infinity; a non-finite figure is a bug in the
/// benchmark and prints as `null`, which no reader can take for a
/// measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile of `values`, `p` in 0..=100.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// `num / den`, or `None` when the base is zero: a rate with no base
/// is not reported.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// 64-bit FNV-1a, fed incrementally.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of reports in the run cache's canonical text encoding,
/// plus their persist records (which the cache never stores).
pub fn outputs_digest<'a>(
    reports: impl Iterator<Item = (String, &'a RunReport)>,
) -> (String, usize) {
    let mut d = Digest::new();
    let mut n = 0;
    for (name, r) in reports {
        let bare = RunReport {
            records: Vec::new(),
            ..r.clone()
        };
        d.feed(plp_bench::cache::encode(&name, &bare).as_bytes());
        d.feed(format!("{:?}", r.records).as_bytes());
        n += 1;
    }
    (d.hex(), n)
}

/// How `peak_rss_mb` is taken. Each workload first makes one untimed
/// reference pass on a single thread; the timed passes are checked
/// against it. Freed memory spread over per-thread allocator arenas
/// raises the high-water mark with every further pass, and by an amount
/// that depends on how racing threads land in arenas; after set-up and
/// the single-threaded pass it depends only on the work.
pub const RSS_DETAIL: &str = "VmHWM after set-up and the single-threaded reference pass";

/// Peak resident set of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
