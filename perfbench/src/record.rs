//! The traced run's bookkeeping: spans around every call into the program,
//! plus what each diagnosis report says about its own stages, folded into
//! the per-layer metrics.

use diads_core::{DiagnosisReport, Stage};

use crate::measure::Outcome;
use crate::trace::Tracer;

/// Span names, one per layer boundary the benchmark calls through.
pub mod span {
    pub const OP: &str = "op";
    pub const RUN_SCENARIO: &str = "testbed.run_scenario";
    pub const EXECUTE_ONCE: &str = "testbed.execute_once";
    pub const SEAL: &str = "monitor.seal";
    pub const INCREMENTAL: &str = "engine.incremental";
    pub const COLD: &str = "engine.cold";
    pub const CANDIDATES: &str = "planner.candidates";
    pub const PLAN: &str = "planner.plan";
    pub const DRAIN: &str = "bus.drain";
}

/// Counts taken over the measured operations of a traced run (set-up and
/// work between operations excluded), the numerators and denominators of the
/// per-op and ratio metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    pub ops: u64,
    pub epochs_sealed: u64,
    /// Engine calls that tried the incremental path.
    pub incremental_attempts: u64,
    /// Of those, reports replaying all six stages wholesale.
    pub wholesale_replays: u64,
    /// Incremental attempts that fell back to a cold checkout.
    pub fallbacks: u64,
    /// Dependency-analysis KDE lookups served warm and fitted fresh.
    pub da_hits: u64,
    pub da_misses: u64,
    pub events: u64,
    pub events_dropped: u64,
    /// Engine checkouts the measured operations made, and the warm ones.
    pub checkouts: u64,
    pub warm_checkouts: u64,
}

impl OpCounts {
    /// Folds one measured operation's report into the counts.
    pub fn report(&mut self, report: &DiagnosisReport, incremental: bool) {
        let stages = &report.provenance.stages;
        if incremental {
            self.incremental_attempts += 1;
            if stages.len() == Stage::ALL.len() && stages.iter().all(|s| s.reused) {
                self.wholesale_replays += 1;
            }
        }
        if incremental && report.provenance.engine.is_some_and(|e| !e.warm) {
            self.fallbacks += 1;
        }
        for s in stages.iter().filter(|s| s.stage == Stage::DependencyAnalysis.name()) {
            self.da_hits += s.cache_hits;
            self.da_misses += s.cache_misses;
        }
    }
}

/// Spans plus the stage-level accounting of every report an engine call
/// returned inside a measured operation while tracing.
pub struct Recorder {
    pub tracer: Tracer,
    /// Summed elapsed time and executions of each executed (not replayed)
    /// stage, indexed like [`Stage::ALL`].
    stage_ns: [u64; 6],
    stage_runs: [u64; 6],
    /// Engine span time not covered by the report's own stage timings.
    residual_ns: u64,
    engine_calls: u64,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            tracer: Tracer::new(traced),
            stage_ns: [0; 6],
            stage_runs: [0; 6],
            residual_ns: 0,
            engine_calls: 0,
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Runs an engine call in a span and, when tracing inside a measured
    /// operation, attributes its time to the report's executed stages and the
    /// engine residual.
    pub fn engine(&mut self, name: &'static str, f: impl FnOnce() -> DiagnosisReport) -> DiagnosisReport {
        let report = self.tracer.time(name, f);
        if !self.traced() || !self.tracer.in_op() {
            return report;
        }
        let span = self.tracer.spans().last().expect("the engine span was just recorded");
        let stages = &report.provenance.stages;
        for s in stages.iter().filter(|s| !s.reused) {
            if let Some(i) = Stage::ALL.iter().position(|st| st.name() == s.stage) {
                self.stage_ns[i] += s.elapsed_nanos;
                self.stage_runs[i] += 1;
            }
        }
        self.residual_ns += span.duration_ns().saturating_sub(report.provenance.total_elapsed_nanos());
        self.engine_calls += 1;
        report
    }

    /// Appends every per-layer metric. `counts` covers the measured traced
    /// operations; `untraced_op_ns` is the mean wall time of one operation in
    /// the untraced slices of the same run, `traced_op_ns` the same in the
    /// traced slices.
    ///
    /// A layer time is the mean self time of the layer's spans inside
    /// measured operations, 0 when the operations never call the layer; the
    /// simulation, whose end-to-end metric is `setup_s`, is averaged over the
    /// set-up spans instead.
    pub fn per_layer(&self, out: &mut Outcome, counts: &OpCounts, untraced_op_ns: f64, traced_op_ns: f64) {
        let in_ops = self.tracer.totals(|s| s.op != 0);
        let setup = self.tracer.totals(|s| s.op == 0 && s.name == span::RUN_SCENARIO);
        let mean = |name: &str, scale: f64| {
            let totals = if name == span::RUN_SCENARIO { &setup } else { &in_ops };
            totals.get(name).map_or(0.0, |t| t.mean(scale))
        };
        let per_op = |v: u64| if counts.ops == 0 { 0.0 } else { v as f64 / counts.ops as f64 };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        const MS: f64 = 1e-6;
        const US: f64 = 1e-3;

        out.push("testbed.run_scenario_ms", mean(span::RUN_SCENARIO, MS), "ms");
        out.push("testbed.execute_once_ms", mean(span::EXECUTE_ONCE, MS), "ms");
        out.push("monitor.seal_us", mean(span::SEAL, US), "us");
        out.push("monitor.epochs_sealed", per_op(counts.epochs_sealed), "count");
        out.push("engine.incremental_us", mean(span::INCREMENTAL, US), "us");
        out.push("engine.cold_ms", mean(span::COLD, MS), "ms");
        out.push("engine.residual_us", ratio(self.residual_ns, self.engine_calls) * US, "us");
        out.push("engine.reuse_ratio", ratio(counts.wholesale_replays, counts.incremental_attempts), "ratio");
        out.push("engine.fallbacks", counts.fallbacks as f64, "count");
        out.push("engine.warm_hit_rate", ratio(counts.warm_checkouts, counts.checkouts), "ratio");
        let stage_metrics =
            ["stage.pd_us", "stage.co_us", "stage.da_us", "stage.cr_us", "stage.sd_us", "stage.ia_us"];
        for (i, name) in stage_metrics.into_iter().enumerate() {
            out.push(name, ratio(self.stage_ns[i], self.stage_runs[i]) * US, "us");
        }
        out.push("stage.da_fit_ratio", ratio(counts.da_misses, counts.da_hits + counts.da_misses), "ratio");
        out.push("stats.kde_fits", per_op(counts.da_misses), "count");
        out.push("planner.candidates_us", mean(span::CANDIDATES, US), "us");
        out.push("planner.plan_ms", mean(span::PLAN, MS), "ms");
        out.push("bus.events_per_op", per_op(counts.events), "count");
        out.push("bus.dropped_frac", ratio(counts.events_dropped, counts.events), "ratio");
        out.push("bus.drain_us", mean(span::DRAIN, US), "us");
        // Everything an untraced operation spends outside the traced layers:
        // the driving loop's own bookkeeping (history growth, planner set-up).
        out.push("service.glue_us", (untraced_op_ns - self.layer_ns_per_op(counts)) * US, "us");
        out.push("trace.overhead_us", (traced_op_ns - untraced_op_ns) * US, "us");
    }

    /// Mean time one measured operation spent inside layer spans: the self
    /// time of every span other than `op` opened during a measured operation.
    fn layer_ns_per_op(&self, counts: &OpCounts) -> f64 {
        if counts.ops == 0 {
            return 0.0;
        }
        let spans = self.tracer.spans();
        let inside: u64 = spans
            .iter()
            .zip(crate::trace::self_times(spans))
            .filter(|(s, _)| s.op != 0 && s.name != span::OP)
            .map(|(_, ns)| ns)
            .sum();
        inside as f64 / counts.ops as f64
    }
}
