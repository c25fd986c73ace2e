//! Tenants: seeded fault plans simulated on the paper's testbed, shared by
//! every workload.

use std::sync::Arc;
use std::time::Instant;

use diads_core::{DiagnosisEngine, DiagnosisWatermark, ScenarioOutcome, Testbed};
use diads_gen::{GenPlan, Generator, TimelineKind};
use diads_monitor::Timestamp;

use crate::record::{span, Recorder};

/// The workload's fault plans: plans `0..count` of the seed's stream on the
/// paper timeline (30 satisfactory and 10 unsatisfactory runs each).
pub fn plans(seed: u64, count: usize) -> Vec<GenPlan> {
    Generator::new(seed, TimelineKind::Paper).batch(count as u64)
}

/// Simulates every plan (one span per scenario).
pub fn simulate(plans: &[GenPlan], rec: &mut Recorder) -> Vec<ScenarioOutcome> {
    plans
        .iter()
        .map(|p| rec.tracer.time(span::RUN_SCENARIO, || Testbed::run_scenario(&p.to_scenario())))
        .collect()
}

/// The end of the last simulated run.
pub fn last_run_end(outcome: &ScenarioOutcome) -> Timestamp {
    outcome.history.runs.iter().map(|r| r.record.end).max().expect("a simulated scenario has runs")
}

/// Points the outcome at `engine`, diagnoses it once and seals the result:
/// the last step of every workload's set-up.
pub fn first_diagnosis(
    outcome: &mut ScenarioOutcome,
    engine: &Arc<DiagnosisEngine>,
    rec: &mut Recorder,
) -> DiagnosisWatermark {
    outcome.testbed.engine = Arc::clone(engine);
    rec.engine(span::COLD, || outcome.diagnose());
    rec.tracer.time(span::SEAL, || outcome.seal_watermark())
}

/// Runs `build` `reps` times and returns the last result with the median
/// wall time of the builds, in seconds.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous build first so at most one is resident.
        drop(last.take());
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one build"), crate::measure::median(&times).expect("at least one build"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_reproduces_the_same_plans() {
        let json = |seed| plans(seed, 6).iter().map(GenPlan::to_json).collect::<Vec<_>>();
        assert_eq!(json(42), json(42));
        assert_ne!(json(42), json(7));
        // A plan does not depend on how many plans were drawn with it.
        assert_eq!(plans(42, 2)[1].to_json(), plans(42, 6)[1].to_json());
    }

    #[test]
    fn timed_setup_keeps_the_last_build() {
        let mut n = 0;
        let (last, secs) = timed_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
    }
}
