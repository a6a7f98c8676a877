//! Small numeric helpers: nearest-rank percentiles, the metric bag, and
//! host probes read from `/proc`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::registry::{self, MetricDef};

/// Nearest-rank percentile of an unsorted sample (0 for an empty one):
/// the value at rank `⌈q · len⌉`, always an observed value.
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// on this workload reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric values keyed by registered name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not registered or `value` is not finite: both
    /// are bugs in the driver.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = registry::metric(name).unwrap_or_else(|| panic!("unregistered metric {name}"));
        assert!(value.is_finite(), "metric {name} is not finite");
        self.0.insert(def.name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(definition, value)` for every metric of `table`, in table order.
    /// Names a workload never set read 0: the layer is off that
    /// workload's path.
    pub fn table<'a>(
        &'a self,
        table: &'static [MetricDef],
    ) -> impl Iterator<Item = (&'static MetricDef, f64)> + 'a {
        table
            .iter()
            .map(move |d| (d, self.get(d.name).unwrap_or(0.0)))
    }
}

/// The spin's duration on the baseline host in its slower state: a host
/// speed factor of 1 means "as fast as that".
pub const CALIB_REF_MS: f64 = 1.9;
/// How stale a speed measurement may get before it is taken again.
const CALIB_EVERY_MS: u128 = 40;

/// Tracks how fast the host is running right now.
///
/// The shared host this benchmark runs on switches between two speeds a
/// fifth apart every few seconds (the spin below takes 1.53 ms or 1.88 ms),
/// so the raw host time of one seed's `bulk_archive` object reads anywhere
/// from 536 ms to 713 ms: no bound under a quarter could be checked. A fixed
/// integer loop (one million xorshift steps) is timed between units of
/// work, at most every 40 ms; a duration divided by the current factor is
/// *calibrated* host time — what the work would have taken at the
/// reference speed. The end-to-end wall metrics of every workload (and
/// `core.unit_wall_ms_tail`, the tail of the same sample) are in calibrated
/// time; the other per-layer times are raw.
#[derive(Debug)]
pub struct Calibrator {
    measured_at: Instant,
    factor: f64,
    spins_ms: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut c = Calibrator {
            measured_at: Instant::now(),
            factor: 1.0,
            spins_ms: Vec::new(),
        };
        c.measure();
        c
    }
}

impl Calibrator {
    fn measure(&mut self) {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.spins_ms.push(ms);
        self.factor = ms / CALIB_REF_MS;
        self.measured_at = Instant::now();
    }

    /// The host speed factor now (above 1 = slower than the reference),
    /// re-measured when the last measurement is stale. Call between units
    /// of work, never inside one.
    pub fn factor(&mut self) -> f64 {
        if self.measured_at.elapsed().as_millis() >= CALIB_EVERY_MS {
            self.measure();
        }
        self.factor
    }

    /// Host seconds spent spinning so far: driver time that the drivers
    /// take out of the measured phase.
    pub fn total_spin_s(&self) -> f64 {
        self.spins_ms.iter().sum::<f64>() / 1e3
    }

    /// Median duration of the spin over the run, milliseconds.
    pub fn median_spin_ms(&self) -> f64 {
        median(&self.spins_ms)
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average of the host.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
