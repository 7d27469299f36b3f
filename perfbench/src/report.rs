//! What one run reports: the result line the benchmark contract asks for,
//! the run record printed before it, and the small statistics both use.

use std::fmt::Write as _;
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted (transients for the circuit workloads,
    /// requests plus updates for `net_mixed`).
    pub attempted: u64,
    /// Operations that failed (errors, functional failures, wrong
    /// answers, refused requests).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics the workload produced that the run's mode does not list
    /// (printed in the run record, not in the result line).
    pub unlisted: Vec<Metric>,
    /// Sample count behind each percentile metric, by metric name.
    pub samples: Vec<(String, u64)>,
    /// Wall time of every repetition of the fixed job, seconds.
    pub job_walls: Vec<f64>,
    /// Why a check failed, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a percentile metric together with the sample count behind it.
    pub fn percentile(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric(name, value, unit);
        self.samples.push((name.to_string(), samples as u64));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.problems.push(what.into());
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (shortest round-trip form).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/inf; a metric that cannot be computed reads 0
        // and the run is already marked incorrect by whoever produced it.
        "0".to_string()
    }
}

/// The host facts every run record carries.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"profile\": \"{}\", \"rustc\": \"{}\"}}",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC").replace('"', "'"),
    )
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of already-sorted samples.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-ups per run; `setup_s` is their median. Even, so that on a
/// two-CPU host the median sits between the two CPUs' halves.
pub const SETUPS: usize = 16;

/// Runs the set-up `f` `reps` times and returns the median duration in
/// seconds with the last value produced. Set-up is short and runs on one
/// thread, so which CPU it lands on decides its time where the host's
/// CPUs run at different speeds; the repetitions are therefore split in
/// equal blocks over every CPU the process may use, and the process's
/// CPU set is restored afterwards. `f` must not start threads: they would keep the pin.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let original = affinity::get();
    let cpus: Vec<usize> = original.as_ref().map_or_else(Vec::new, affinity::cpus);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps.max(1) {
        if !cpus.is_empty() {
            // Contiguous blocks, so only a block's first set-up meets a
            // cold cache.
            affinity::set(&affinity::only(cpus[i * cpus.len() / reps.max(1)]));
        }
        let t = Instant::now();
        let v = f();
        times.push(secs(t));
        last = Some(v);
    }
    if let Some(mask) = &original {
        affinity::set(mask);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// The calling thread's CPU affinity, through the C library (the standard
/// library has no interface for it).
#[allow(unsafe_code)]
mod affinity {
    /// A CPU set of 1024 CPUs, the C library's `cpu_set_t`.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU set; a refused set is ignored (the
    /// thread then keeps running where it may).
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }

    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

/// Relative difference `|a/b - 1|` (absolute difference when `b` is 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        (a - b).abs()
    } else {
        (a / b - 1.0).abs()
    }
}

/// Timing of a fixed job repeated within a time budget: jobs run back to
/// back until the next one would end past `budget_s` (at least one runs).
pub struct JobLoop {
    start: Instant,
    budget_s: f64,
    pub walls: Vec<f64>,
}

impl JobLoop {
    pub fn new(budget_s: f64) -> Self {
        Self {
            start: Instant::now(),
            budget_s,
            walls: Vec::new(),
        }
    }

    /// Whether another job fits the budget, judged by the median job.
    pub fn another(&self) -> bool {
        self.walls.is_empty() || secs(self.start) + median(&self.walls) <= self.budget_s
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.walls.push(secs(t));
        v
    }
}

/// A/B overhead of the program's observability layer on one unit of
/// work: `rounds` ABBA rounds with recording off (A) and on (B), returns
/// `(median(B) / median(A) - 1) * 100`. Recording is left on, the
/// program's default.
pub fn obs_overhead_pct(rounds: usize, mut unit: impl FnMut()) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut timed = |enabled: bool, into: &mut Vec<f64>| {
        tcam_obs::set_enabled(enabled);
        let t = Instant::now();
        unit();
        into.push(secs(t));
    };
    for _ in 0..rounds {
        timed(false, &mut off);
        timed(true, &mut on);
        timed(true, &mut on);
        timed(false, &mut off);
    }
    tcam_obs::set_enabled(true);
    (median(&on) / median(&off) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.25, "s");
        let parsed = tcam_net::json::Json::parse(&o.result_line()).unwrap();
        let tcam_net::json::Json::Object(map) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.as_str()),
            Some("s")
        );
    }
}
