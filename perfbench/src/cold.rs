//! `cold`: an administrator opens a fresh incident on a tenant with no warm
//! state. One operation re-executes the report query once, diagnoses it on a
//! fresh engine and runs the full what-if remediation plan.

use std::hint::black_box;
use std::sync::Arc;

use diads_core::{DiagnosisEngine, Planner, ScenarioOutcome};
use diads_gen::GenPlan;
use diads_monitor::Duration;

use crate::record::{span, OpCounts, Recorder};
use crate::tenants;
use crate::workload::{alternate, Args, Loop, Report, TENANTS};

/// Operations per tail window: 16 rounds, a little over a second of triage,
/// with the tail at p96 (ten operations beyond it).
const TAIL_WINDOW: usize = 16 * TENANTS;

pub fn run(args: &Args) -> Report {
    let plans = tenants::plans(args.seed, TENANTS);
    let mut rec = Recorder::new(args.trace);
    let (outcomes, setup_s) = tenants::timed_setup(args.setup_reps(), || {
        let mut outcomes = tenants::simulate(&plans, &mut rec);
        for o in &mut outcomes {
            let engine = Arc::clone(&o.testbed.engine);
            tenants::first_diagnosis(o, &engine, &mut rec);
        }
        outcomes
    });

    let mut report = Report::new(setup_s);
    let mut counts = OpCounts::default();
    if args.trace {
        // Only the traced slices' operations feed the per-layer counts.
        let (mut untraced, mut untraced_counts) = (Recorder::new(false), OpCounts::default());
        let (untraced_op_ns, traced_op_ns) = alternate(args.seconds, &mut report, |traced, secs, report| {
            let (rec, counts) =
                if traced { (&mut rec, &mut counts) } else { (&mut untraced, &mut untraced_counts) };
            segment(&outcomes, &plans, rec, secs, report, counts);
        });
        rec.per_layer(&mut report.out, &counts, untraced_op_ns, traced_op_ns);
        report.trace = Some(rec);
    } else {
        segment(&outcomes, &plans, &mut rec, args.seconds, &mut report, &mut counts);
    }
    report
}

/// Triages every tenant in turn until `seconds` of operations were measured.
fn segment(
    outcomes: &[ScenarioOutcome],
    plans: &[GenPlan],
    rec: &mut Recorder,
    seconds: f64,
    report: &mut Report,
    counts: &mut OpCounts,
) {
    let mut lp = Loop::new(seconds);
    while !lp.done() {
        for (outcome, plan) in outcomes.iter().zip(plans) {
            let t = lp.op(rec, |rec| triage(outcome, rec));
            lp.fail(check(&t, plan, report));
            counts.ops += 1;
            counts.report(&t.report, false);
            counts.warm_checkouts += t.warm_checkouts;
            counts.checkouts += t.warm_checkouts + t.cold_checkouts;
        }
    }
    lp.finish(TAIL_WINDOW, report);
}

/// What one triage produced, for the checks made outside the timed region.
struct Triage {
    executed: bool,
    report: diads_core::DiagnosisReport,
    warm_checkouts: u64,
    cold_checkouts: u64,
}

fn triage(outcome: &ScenarioOutcome, rec: &mut Recorder) -> Triage {
    let at = tenants::last_run_end(outcome).plus(Duration::from_hours(1));
    let executed = rec.tracer.time(span::EXECUTE_ONCE, || outcome.testbed.execute_once(at)).is_ok();
    let engine = DiagnosisEngine::new();
    let report = rec.engine(span::COLD, || engine.diagnose(outcome));
    let plan = rec.tracer.time(span::PLAN, || Planner::for_outcome(outcome).plan(&report, &outcome.testbed));
    black_box(plan);
    let stats = engine.stats();
    Triage { executed, report, warm_checkouts: stats.warm_checkouts, cold_checkouts: stats.cold_checkouts }
}

/// Fails the operation (returns 1) when the re-execution failed, the report
/// is partial or violates the plan's oracles; records a problem when the
/// fresh engine's checkout was not cold.
fn check(t: &Triage, plan: &GenPlan, report: &mut Report) -> u64 {
    if t.warm_checkouts != 0 || t.cold_checkouts != 1 {
        report.problem(format!(
            "cold: a fresh engine made {} warm and {} cold checkouts, expected exactly one cold",
            t.warm_checkouts, t.cold_checkouts
        ));
    }
    let violations = diads_gen::oracle::evaluate(plan, &t.report);
    let failed = !t.executed || t.report.provenance.cancelled_at.is_some() || !violations.is_empty();
    if failed {
        report.note(format!(
            "cold: plan {} failed (executed {}, cancelled {:?}, violations {:?})",
            plan.id,
            t.executed,
            t.report.provenance.cancelled_at,
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        ));
    }
    u64::from(failed)
}
