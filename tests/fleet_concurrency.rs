//! Fleet-level concurrency pins for the lock-striped [`DiagnosisEngine`].
//!
//! PR 8 replaced the engine's single slot-table mutex with fingerprint-keyed lock
//! stripes plus atomic bookkeeping. These tests pin the refactor's contract:
//!
//! 1. **Bit-identity with the single-mutex engine** — for every scenario in
//!    `all_scenarios()`, an engine-routed diagnosis (cold, warm, and incremental)
//!    produces findings identical to the pre-stripe engine's, which the golden
//!    suite pins transitively: here we assert cold == warm == shared-engine and
//!    that provenance flags behave exactly as the single-mutex engine's tests
//!    demanded ([`DiagnosisReport`] equality is finding-level, f64 scores
//!    bit-for-bit).
//! 2. **Concurrent == sequential** — T threads diagnosing a fleet of outcomes
//!    through one shared engine produce, outcome for outcome, the same reports as
//!    one thread diagnosing them in order through its own engine; engine stats
//!    stay exact.

use std::sync::Arc;

use diads::core::{DiagnosisEngine, DiagnosisReport, ScenarioOutcome, Testbed};
use diads::inject::scenarios::all_scenarios;

/// A cold reference diagnosis: fresh engine, nothing cached.
fn cold(outcome: &ScenarioOutcome) -> DiagnosisReport {
    DiagnosisEngine::new().diagnose(outcome)
}

#[test]
fn striped_engine_diagnosis_matches_cold_reference_over_all_scenarios() {
    for scenario in all_scenarios() {
        let id = &scenario.id;
        let outcome = Testbed::run_scenario(&scenario);
        let reference = cold(&outcome);

        // Warm re-diagnosis through one engine: same findings, warm provenance.
        let engine = DiagnosisEngine::new();
        let first = engine.diagnose(&outcome);
        let second = engine.diagnose(&outcome);
        assert_eq!(first, reference, "{id}: cold striped diagnosis drifted");
        assert_eq!(second, reference, "{id}: warm striped diagnosis drifted");
        let prov = first.provenance.engine.as_ref().expect("engine provenance");
        assert!(!prov.warm, "{id}: first engine-routed diagnosis must be cold");
        let prov = second.provenance.engine.as_ref().expect("engine provenance");
        assert!(prov.warm, "{id}: second engine-routed diagnosis must be warm");
        let stats = engine.stats();
        assert_eq!(stats.cold_checkouts, 1, "{id}");
        assert_eq!(stats.warm_checkouts, 1, "{id}");

        // The testbed-routed path agrees with the explicit engine path.
        assert_eq!(outcome.diagnose(), reference, "{id}: testbed-routed diagnosis drifted");
    }
}

#[test]
fn shared_engine_concurrent_diagnoses_match_sequential_reference() {
    // Build the fleet once; diagnose it sequentially (per-outcome cold engines)
    // for the reference, then hammer one shared striped engine from real threads,
    // several passes per thread so warm checkouts and cross-thread slot reuse
    // actually happen.
    let scenarios = all_scenarios();
    let outcomes: Vec<ScenarioOutcome> = scenarios.iter().map(Testbed::run_scenario).collect();
    let reference: Vec<DiagnosisReport> = outcomes.iter().map(cold).collect();

    let engine: Arc<DiagnosisEngine> = DiagnosisEngine::shared();
    const THREADS: usize = 4;
    const PASSES: usize = 2;
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let engine = &engine;
            let outcomes = &outcomes;
            let reference = &reference;
            let scenarios = &scenarios;
            scope.spawn(move || {
                for pass in 0..PASSES {
                    for step in 0..outcomes.len() {
                        // Stagger starting offsets so threads collide on slots.
                        let i = (step + worker) % outcomes.len();
                        let report = engine.diagnose(&outcomes[i]);
                        assert_eq!(
                            report, reference[i],
                            "worker {worker} pass {pass}: scenario {} drifted under concurrency",
                            scenarios[i].id
                        );
                    }
                }
            });
        }
    });

    let stats = engine.stats();
    let total = (THREADS * PASSES * outcomes.len()) as u64;
    assert_eq!(stats.warm_checkouts + stats.cold_checkouts, total, "stats must account exactly");
    assert!(stats.warm_checkouts > 0, "repeated passes over shared fingerprints must hit warm slots");
    assert_eq!(stats.evictions, 0);
    // Every distinct engine fingerprint converged to one checked-in slot.
    let distinct: std::collections::BTreeSet<u64> = outcomes.iter().map(|o| o.engine_fingerprint()).collect();
    assert_eq!(engine.slot_count(), distinct.len());
}

#[test]
fn shared_engine_incremental_diagnoses_match_batch_under_threads() {
    // Seal a watermark per outcome, then run diagnose_incremental concurrently
    // through one shared engine: the pure-replay fast path must hand back reports
    // finding-identical to a cold batch, from every thread.
    let scenarios = all_scenarios();
    let mut outcomes: Vec<ScenarioOutcome> = scenarios.iter().map(Testbed::run_scenario).collect();
    let engine: Arc<DiagnosisEngine> = DiagnosisEngine::shared();
    let watermarks: Vec<_> = outcomes
        .iter_mut()
        .map(|outcome| {
            outcome.testbed.engine = Arc::clone(&engine);
            let report = outcome.diagnose(); // records evidence into the shared engine
            let wm = outcome.seal_watermark();
            (wm, report)
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..3 {
            let engine = &engine;
            let outcomes = &outcomes;
            let watermarks = &watermarks;
            scope.spawn(move || {
                for step in 0..outcomes.len() {
                    let i = (step + worker) % outcomes.len();
                    let (wm, batch) = &watermarks[i];
                    let incremental = engine.diagnose_incremental(&outcomes[i], wm);
                    assert_eq!(&incremental, batch, "incremental replay drifted under threads");
                }
            });
        }
    });
}
