//! Order statistics and the result line the benchmark prints last.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process so far, in MiB (`getrusage`).
pub fn peak_rss_mib() -> f64 {
    /// Linux `struct rusage` on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        other: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, other: [0; 13] };
    // SAFETY: `u` has the layout of `struct rusage` and getrusage only
    // writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics whose value is NaN or infinite (a broken
    /// measurement; the run reports itself incorrect).
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| *n).collect()
    }

    /// One `name value unit` line per metric, for humans.
    pub fn table(&self) -> String {
        self.0.iter().map(|(n, v, u)| format!("  {n:<36} {v:>16.6} {u}\n")).collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run reports: its verdict, request tally, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed outside the per-request tally (e.g. the
    /// writer finished fewer compactions than the workload requires).
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Context printed above the result line (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.violations.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.metrics.non_finite().is_empty()
    }

    /// The single JSON object the benchmark prints as its last line.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
