//! Host facts and the noise floor the timed numbers are read against.

use crate::stats::{median, quantile, sorted};
use std::time::{Duration, Instant};

/// Generator threads, TCP connections and `ParallelSim` workers are all
/// sized to this.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Resident set right now, in kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// High-water mark of the resident set of this process, in MB. One
/// process runs one workload, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// How far `sleep(1 ms)` overshoots, in microseconds: (p50, p99). The
/// real-time pacing of a served session cannot be tighter than this.
pub fn sleep_oversleep_us(samples: usize) -> (f64, f64) {
    let ask = Duration::from_millis(1);
    let over: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(ask);
            t.elapsed().saturating_sub(ask).as_secs_f64() * 1e6
        })
        .collect();
    let s = sorted(&over);
    (quantile(&s, 0.5), quantile(&s, 0.99))
}

/// Median milliseconds of a fixed integer loop: the speed of one
/// undisturbed core, for comparing runs taken on different days.
pub fn spin_calib_ms() -> f64 {
    let runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut x = 1u64;
            for i in 0..4_000_000u64 {
                x = std::hint::black_box(x)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}
