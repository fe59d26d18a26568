//! Result line, summary statistics and the host block.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use fssga_serve::Json;

/// What one invocation measured: operation counts plus named metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: timed runs or served jobs.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    peak_rss_mb: Option<f64>,
    /// Prepended to the names [`Outcome::metric`] adds.
    prefix: String,
}

impl Outcome {
    /// Takes `peak_rss_mb` now rather than at exit: later passes repeat
    /// the same work, and their peaks would only add the allocator's
    /// fragmentation, which varies with the number of passes.
    pub fn hold_peak_rss(&mut self) {
        self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Records one operation and whether its output check passed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Names the metrics added from now on `<workload>.<name>`, or plainly
    /// `<name>` when `workload` is empty.
    pub fn scope(&mut self, workload: &str) {
        self.prefix = if workload.is_empty() {
            String::new()
        } else {
            format!("{workload}.")
        };
    }

    /// Adds a named metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics
            .push((format!("{}{}", self.prefix, name.into()), value, unit));
    }

    /// The metrics must be exactly the manifest's list for the mode
    /// (`end_to_end` or `per_layer` of `BENCHMARK.json` in the working
    /// directory), each in its unit. Without a manifest there is nothing
    /// to hold them to.
    pub fn check_manifest(&self, trace: bool) -> Result<(), String> {
        let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
            return Ok(());
        };
        let key = if trace { "per_layer" } else { "end_to_end" };
        let manifest = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let Some(Json::Arr(entries)) = manifest.get(key) else {
            return Err(format!("BENCHMARK.json has no {key} list"));
        };
        let field = |e: &Json, f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
        let want: BTreeMap<String, String> = entries
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect();
        let got: BTreeMap<String, String> = self
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), (*unit).to_owned()))
            .collect();
        if got.len() != self.metrics.len() {
            return Err("a metric is reported twice".into());
        }
        let differ: BTreeSet<&String> = want
            .keys()
            .chain(got.keys())
            .filter(|name| want.get(*name) != got.get(*name))
            .collect();
        if differ.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics differ from BENCHMARK.json {key} in name or unit: {differ:?}"
            ))
        }
    }

    /// Adds the metrics every workload reports: peak RSS with tracing
    /// off; the failure share and the host calibration with tracing on.
    pub fn finish(&mut self, trace: bool, calibration_ms: f64) {
        if trace {
            let share = self.failed as f64 / self.attempted.max(1) as f64;
            self.metric("failed_share", share, "share");
            self.metric("host.calibration_ms", calibration_ms, "ms");
        } else {
            let rss = self.peak_rss_mb.unwrap_or_else(peak_rss_mb);
            self.metric("peak_rss_mb", rss, "MB");
        }
    }

    /// Prints every metric on its own line, then the JSON result line,
    /// which is always the last line of standard output.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>16.6} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated `q`-quantile of `xs`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (s.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is unavailable).
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cache size of `level` (2 or 3) as the kernel reports it for CPU 0.
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for index in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{index}/{f}"));
        let (Ok(lvl), Ok(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            if let Ok(size) = read("size") {
                return size.trim().to_owned();
            }
        }
    }
    "unknown".into()
}

/// Milliseconds for a fixed amount of integer work, median of three:
/// divide other timings by this to compare ratios across hosts.
pub fn calibration_ms() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Prints the host block and returns the calibration time.
pub fn print_host() -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let calib = calibration_ms();
    println!(
        "host: nproc={nproc} l2={} l3={} calibration_ms={calib:.3}",
        cache_size(2),
        cache_size(3)
    );
    calib
}
