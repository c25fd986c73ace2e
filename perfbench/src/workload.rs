//! What every workload shares: its arguments, the time-bounded measured loop
//! and the report the result line is made from.

use std::time::Instant;

use crate::measure::{self, Outcome};
use crate::record::{span, Recorder};

/// Tenants per workload: seeded plans `0..TENANTS`. Per-tenant costs differ
/// by up to about 2x, so the count sets how much a figure moves from seed to
/// seed.
pub const TENANTS: usize = 16;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Periodic,
    Cold,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Periodic, Workload::Cold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Periodic => "periodic",
            Workload::Cold => "cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One workload run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    /// Measured seconds (shared by the alternating untraced and traced
    /// slices of a traced run).
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// A traced run builds its tenants once; an untraced one
    /// [`SETUP_REPS`] times.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// The end-to-end figures and checks of one workload run, plus the
/// per-layer metrics of a traced one.
pub struct Report {
    pub out: Outcome,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub fresh_p50_ms: f64,
    pub fresh_p99_ms: f64,
    /// How the fresh figures were taken: sample count and tail percentile.
    pub fresh_samples: String,
    /// Measured wall time and operations of the last finished segment.
    last_segment: (f64, u64),
    /// Failed operations, described (printed to standard error).
    pub notes: Vec<String>,
    pub trace: Option<Recorder>,
}

impl Report {
    pub fn new(setup_s: f64) -> Self {
        Report {
            out: Outcome::default(),
            setup_s,
            ops_per_s: 0.0,
            fresh_p50_ms: 0.0,
            fresh_p99_ms: 0.0,
            fresh_samples: String::new(),
            last_segment: (0.0, 0),
            notes: Vec::new(),
            trace: None,
        }
    }

    /// A failed mechanism check: the run is incorrect.
    pub fn problem(&mut self, text: String) {
        self.out.problem(text);
    }

    /// A description of a failed operation (counted separately).
    pub fn note(&mut self, text: String) {
        if self.notes.len() < 20 {
            self.notes.push(text);
        }
    }

    /// Records a finished segment's counts and figures.
    pub fn segment(&mut self, attempted: u64, failed: u64, ops: u64, measured_ns: f64) {
        self.out.attempted += attempted;
        self.out.failed += failed;
        self.last_segment = (measured_ns, ops);
    }

    /// The measured time and operations of the segment finished last.
    pub fn take_segment(&mut self) -> (f64, u64) {
        std::mem::take(&mut self.last_segment)
    }

    /// The five end-to-end metrics.
    pub fn end_to_end(&mut self) {
        let peak = crate::host::peak_rss_mb().unwrap_or(f64::NAN);
        self.out.push("setup_s", self.setup_s, "s");
        self.out.push("ops_per_s", self.ops_per_s, "1/s");
        self.out.push("fresh_p50_ms", self.fresh_p50_ms, "ms");
        self.out.push("fresh_p99_ms", self.fresh_p99_ms, "ms");
        self.out.push("peak_rss_mb", peak, "MB");
    }
}

/// Measured seconds of one slice of a traced run.
const TRACE_SLICE_S: f64 = 0.5;

/// Drives a traced run: `run_slice(traced, seconds, report)` runs untraced
/// and traced slices in turn until `seconds` were measured, so both kinds see
/// the same host conditions and tenant states. Returns the mean wall time of
/// an untraced and of a traced operation, in nanoseconds.
pub fn alternate(
    seconds: f64,
    report: &mut Report,
    mut run_slice: impl FnMut(bool, f64, &mut Report),
) -> (f64, f64) {
    let mut sums = [(0.0, 0); 2];
    let mut measured_ns = 0.0;
    while measured_ns < seconds * 1e9 {
        for traced in [false, true] {
            run_slice(traced, TRACE_SLICE_S, report);
            let (ns, ops) = report.take_segment();
            sums[usize::from(traced)].0 += ns;
            sums[usize::from(traced)].1 += ops;
            measured_ns += ns;
        }
    }
    report.fresh_samples = format!("traced run: untraced and traced slices of {TRACE_SLICE_S} s alternate");
    let mean = |(ns, ops): (f64, u64)| if ops == 0 { 0.0 } else { ns / ops as f64 };
    (mean(sums[0]), mean(sums[1]))
}

/// The closed measured loop of `periodic` and `cold`: one client, each
/// operation timed on its own, in rounds of one operation per tenant.
/// Measured time is the sum of operation times; checks run between them.
pub struct Loop {
    budget_ns: f64,
    measured_ns: f64,
    latencies_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Loop {
    pub fn new(seconds: f64) -> Self {
        Loop { budget_ns: seconds * 1e9, measured_ns: 0.0, latencies_ns: Vec::new(), attempted: 0, failed: 0 }
    }

    pub fn done(&self) -> bool {
        self.measured_ns >= self.budget_ns
    }

    /// Times one operation inside an `op` span and returns its result.
    pub fn op<R>(&mut self, rec: &mut Recorder, f: impl FnOnce(&mut Recorder) -> R) -> R {
        rec.tracer.begin_op();
        let open = rec.tracer.enter(span::OP);
        let start = Instant::now();
        let result = f(rec);
        let ns = start.elapsed().as_nanos() as f64;
        rec.tracer.exit(open);
        rec.tracer.end_ops();
        self.latencies_ns.push(ns);
        self.measured_ns += ns;
        self.attempted += 1;
        result
    }

    /// Counts `failures` failed operations.
    pub fn fail(&mut self, failures: u64) {
        self.failed += failures;
    }

    /// Fills the report's figures. Operations per second is every operation
    /// over the whole measured time: the host's speed drifts over tens of
    /// seconds, and a total blends those phases in proportion where a median
    /// of short rounds would jump to whichever phase filled half the run.
    /// `fresh_p50_ms` is the median latency of every operation; `fresh_p99_ms`
    /// the median over consecutive windows of `window` operations (whole
    /// rounds) of each window's tail (see [`measure::tail`]), so that a burst
    /// of interference moves one window's tail, not the figure.
    pub fn finish(self, window: usize, report: &mut Report) {
        debug_assert!(window.is_multiple_of(TENANTS), "a tail window holds whole rounds");
        let ms: Vec<f64> = self.latencies_ns.iter().map(|ns| ns / 1e6).collect();
        let tails: Vec<(f64, f64)> = ms.chunks_exact(window).filter_map(measure::tail).collect();
        let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
        report.ops_per_s = self.attempted as f64 / (self.measured_ns / 1e9);
        report.fresh_p50_ms = measure::median(&ms).unwrap_or(f64::NAN);
        report.fresh_p99_ms = measure::median(&values).unwrap_or(f64::NAN);
        report.fresh_samples = format!(
            "{} operations; tail: median over {} windows of {window} operations at p{}",
            ms.len(),
            tails.len(),
            tails.first().map_or(0.0, |t| t.1)
        );
        report.segment(self.attempted, self.failed, self.attempted, self.measured_ns);
    }
}
