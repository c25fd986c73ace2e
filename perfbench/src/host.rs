//! Host-noise readings, recorded with every run and never used to adjust a
//! metric: they let a disagreement between two sets of runs be traced to the
//! host rather than the code.
//!
//! * `calibration_ms` — a fixed spin loop, timed before and after the run;
//! * `steal_ticks` — the change in the `steal` column of `/proc/stat`;
//! * `runqueue_wait_ms` — the change in this thread's runqueue wait from
//!   `/proc/thread-self/schedstat`.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (about 25 ms on a current core).
const SPIN_ITERATIONS: u64 = 100_000_000;

/// Times the fixed calibration loop once, in milliseconds.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..black_box(SPIN_ITERATIONS) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The `steal` field (8th value) of the aggregate `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    parse_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Nanoseconds this thread has spent waiting on a runqueue (2nd field of
/// `/proc/thread-self/schedstat`).
pub fn runqueue_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM` of `/proc/self/status`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Readings at the start of a run; [`Probe::finish`] turns them into deltas.
pub struct Probe {
    calibration_before_ms: f64,
    steal: Option<u64>,
    runqueue: Option<u64>,
}

impl Probe {
    pub fn start() -> Self {
        Probe { calibration_before_ms: calibration_ms(), steal: steal_ticks(), runqueue: runqueue_wait_ns() }
    }

    /// One JSON object with the run's host-noise readings (`null` where the
    /// host does not expose a counter).
    pub fn finish(self) -> String {
        let calibration_after_ms = calibration_ms();
        let steal = steal_ticks().zip(self.steal).map(|(now, then)| now.saturating_sub(then));
        let wait =
            runqueue_wait_ns().zip(self.runqueue).map(|(now, then)| now.saturating_sub(then) as f64 / 1e6);
        let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
        format!(
            "{{\"calibration_ms\": [{:?}, {:?}], \"steal_ticks\": {}, \"runqueue_wait_ms\": {}, \"cores\": {}}}",
            self.calibration_before_ms,
            calibration_after_ms,
            or_null(steal.map(|s| s.to_string())),
            or_null(wait.map(|w| format!("{w:?}"))),
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let stat = "cpu  10 0 20 300 4 0 1 7 0 0\ncpu0 5 0 10 150 2 0 1 3 0 0\n";
        assert_eq!(parse_steal(stat), Some(7));
        let status = "Name:\tx\nVmPeak:\t  2048 kB\nVmHWM:\t  1536 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1536));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
