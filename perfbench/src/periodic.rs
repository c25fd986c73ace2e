//! `periodic`: the paper's setting, where the report query runs again on its
//! hourly cadence. Each tenant's history is cut back to its first
//! unsatisfactory run, diagnosed and sealed; the remaining runs then rejoin
//! the labelled history one at a time. One operation is one rejoin: the
//! incremental re-diagnosis, streamed onto the event bus and drained by its
//! one subscriber, then remediation candidates and the seal.
//!
//! A tenant whose history is whole again is cut back, re-diagnosed (cold:
//! the cut-back history's slot was consumed by the first rejoin) and sealed
//! between operations, outside the measured time.

use std::hint::black_box;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use diads_core::{
    DiagnosisEngine, DiagnosisReport, DiagnosisWatermark, LabeledRun, PipelineEvent, Planner, ScenarioOutcome,
};
use diads_service::{ChannelSink, EventHub, ServiceEvent};

use crate::record::{span, OpCounts, Recorder};
use crate::tenants;
use crate::workload::{alternate, Args, Loop, Report, TENANTS};

/// Every this many operations, one report is compared with a fresh-engine
/// diagnosis of the same outcome (outside the measured time).
const CHECK_EVERY: u64 = 8;
/// Operations per tail window: 63 rounds, about a second and a half of
/// rejoins, with the tail at p99 (ten operations beyond it).
const TAIL_WINDOW: usize = 63 * TENANTS;
/// Bus events one diagnosis publishes: started/completed per stage,
/// `CausesRanked` and `RunCompleted`.
const EVENTS_PER_DIAGNOSIS: u64 = 14;

struct Tenant {
    index: usize,
    outcome: ScenarioOutcome,
    runs: Vec<LabeledRun>,
    /// History length after a cut-back: through the first unsatisfactory run.
    cut: usize,
    watermark: DiagnosisWatermark,
}

impl Tenant {
    /// Cuts the history back to its first unsatisfactory run, diagnoses it
    /// and seals the result.
    fn new(
        index: usize,
        mut outcome: ScenarioOutcome,
        engine: &Arc<DiagnosisEngine>,
        rec: &mut Recorder,
    ) -> Self {
        let runs = outcome.history.runs.clone();
        let cut = runs.iter().position(|r| !r.satisfactory).map_or(runs.len(), |i| i + 1);
        outcome.history.runs.truncate(cut);
        let watermark = tenants::first_diagnosis(&mut outcome, engine, rec);
        Tenant { index, outcome, runs, cut, watermark }
    }

    fn cut_back(&mut self, engine: &Arc<DiagnosisEngine>, rec: &mut Recorder) {
        self.outcome.history.runs.truncate(self.cut);
        self.watermark = tenants::first_diagnosis(&mut self.outcome, engine, rec);
    }
}

/// The event bus every re-diagnosis is published on, with one subscriber.
struct Bus {
    hub: EventHub,
    rx: Receiver<ServiceEvent>,
}

impl Bus {
    fn new() -> Self {
        let hub = EventHub::new();
        let rx = hub.subscribe(4 * EVENTS_PER_DIAGNOSIS as usize);
        Bus { hub, rx }
    }

    /// Drains every queued event; returns how many there were and how many
    /// of them completed a run.
    fn drain(&self) -> (u64, u64) {
        self.rx.try_iter().fold((0, 0), |(events, runs), e| {
            (events + 1, runs + u64::from(matches!(e.event, PipelineEvent::RunCompleted { .. })))
        })
    }
}

pub fn run(args: &Args) -> Report {
    let plans = tenants::plans(args.seed, TENANTS);
    let mut rec = Recorder::new(args.trace);
    let ((mut tenants, engine), setup_s) = tenants::timed_setup(args.setup_reps(), || {
        let engine = DiagnosisEngine::shared();
        let outcomes = tenants::simulate(&plans, &mut rec);
        let tenants: Vec<Tenant> =
            outcomes.into_iter().enumerate().map(|(i, o)| Tenant::new(i, o, &engine, &mut rec)).collect();
        (tenants, engine)
    });

    let mut report = Report::new(setup_s);
    for t in tenants.iter().filter(|t| t.cut >= t.runs.len()) {
        report.problem(format!(
            "periodic: scenario {} has no run after its first unsatisfactory one",
            t.outcome.scenario.id
        ));
    }
    let bus = Bus::new();
    let mut counts = OpCounts::default();
    if args.trace {
        // Only the traced slices' operations feed the per-layer counts.
        let (mut untraced, mut untraced_counts) = (Recorder::new(false), OpCounts::default());
        let (untraced_op_ns, traced_op_ns) = alternate(args.seconds, &mut report, |traced, secs, report| {
            let (rec, counts) =
                if traced { (&mut rec, &mut counts) } else { (&mut untraced, &mut untraced_counts) };
            segment(&mut tenants, &engine, &bus, rec, secs, report, counts);
        });
        rec.per_layer(&mut report.out, &counts, untraced_op_ns, traced_op_ns);
        report.trace = Some(rec);
    } else {
        segment(&mut tenants, &engine, &bus, &mut rec, args.seconds, &mut report, &mut counts);
    }
    report
}

/// Rejoins runs round-robin over the tenants until `seconds` of operations
/// were measured.
fn segment(
    tenants: &mut [Tenant],
    engine: &Arc<DiagnosisEngine>,
    bus: &Bus,
    rec: &mut Recorder,
    seconds: f64,
    report: &mut Report,
    counts: &mut OpCounts,
) {
    let mut lp = Loop::new(seconds);
    // A tenant with no run after its first unsatisfactory one (a problem
    // recorded at set-up) has nothing to rejoin.
    while !lp.done() && tenants.iter().any(|t| t.cut < t.runs.len()) {
        for t in tenants.iter_mut().filter(|t| t.cut < t.runs.len()) {
            let next = t.outcome.history.runs.len();
            let dropped = bus.hub.dropped();
            let before = engine.stats();
            let (diagnosis, (events, runs)) = lp.op(rec, |rec| rejoin(t, next, bus, rec));
            let after = engine.stats();
            let warm = after.warm_checkouts - before.warm_checkouts;
            counts.ops += 1;
            counts.epochs_sealed += 1;
            counts.events += events;
            counts.events_dropped += bus.hub.dropped() - dropped;
            counts.warm_checkouts += warm;
            counts.checkouts += warm + after.cold_checkouts - before.cold_checkouts;
            counts.report(&diagnosis, true);
            if events != EVENTS_PER_DIAGNOSIS || runs != 1 || bus.hub.dropped() != dropped {
                report.problem(format!(
                    "periodic: a rejoin published {events} events and {runs} completed runs, {} dropped",
                    bus.hub.dropped() - dropped
                ));
            }
            lp.fail(check(t, &diagnosis, counts.ops, report));
            if t.outcome.history.runs.len() == t.runs.len() {
                t.cut_back(engine, rec);
            }
        }
    }
    lp.finish(TAIL_WINDOW, report);
}

/// One operation: run `next` rejoins the history, which is re-diagnosed
/// incrementally onto the bus (drained after the run), planned and sealed.
/// Returns the report and the drained event and completed-run counts.
fn rejoin(t: &mut Tenant, next: usize, bus: &Bus, rec: &mut Recorder) -> (DiagnosisReport, (u64, u64)) {
    t.outcome.history.runs.push(t.runs[next].clone());
    let outcome = &t.outcome;
    let sink = ChannelSink::new(&bus.hub, t.index, next as u64);
    let report = rec.engine(span::INCREMENTAL, || {
        outcome.testbed.engine.diagnose_incremental_streamed(outcome, &t.watermark, &sink, None)
    });
    let drained = rec.tracer.time(span::DRAIN, || bus.drain());
    let planner = Planner::for_outcome(outcome);
    black_box(rec.tracer.time(span::CANDIDATES, || planner.candidates(&report, &outcome.testbed)));
    t.watermark = rec.tracer.time(span::SEAL, || t.outcome.seal_watermark());
    (report, drained)
}

/// Fails a partial report and, every [`CHECK_EVERY`] operations, one that
/// differs from a fresh-engine diagnosis; records a problem when an
/// operation neither re-executed all six stages nor fell back cold.
fn check(t: &Tenant, diagnosis: &DiagnosisReport, op: u64, report: &mut Report) -> u64 {
    let stages = &diagnosis.provenance.stages;
    if stages.len() != diads_core::Stage::ALL.len() || stages.iter().any(|s| s.reused) {
        report.problem(format!(
            "periodic: a rejoin replayed instead of re-executing all six stages ({:?})",
            stages.iter().map(|s| (s.stage.as_str(), s.reused)).collect::<Vec<_>>()
        ));
    }
    let partial = diagnosis.provenance.cancelled_at.is_some();
    let mismatch =
        op.is_multiple_of(CHECK_EVERY) && *diagnosis != DiagnosisEngine::new().diagnose(&t.outcome);
    if partial || mismatch {
        report.note(format!(
            "periodic: scenario {} at {} runs: partial {partial}, differs from a fresh diagnosis {mismatch}",
            t.outcome.scenario.id,
            t.outcome.history.runs.len()
        ));
    }
    u64::from(partial || mismatch)
}
