//! Property suite: incremental re-diagnosis is bit-identical to a cold batch.
//!
//! For every scenario in `all_scenarios()`, over a pseudo-random (but
//! deterministic, seeded per scenario id) append schedule, `diagnose_incremental`
//! must produce findings **bit-identical** to a cold batch `diagnose` on a fresh
//! engine — including the f64 anomaly scores, which is what makes the extended-KDE
//! refits (`Kde::extended`) a real equivalence and not an approximation. Three
//! regimes per scenario:
//!
//! 1. **History growth** — diagnose a truncated run prefix, seal a watermark, then
//!    restore the full history and re-diagnose incrementally. Every stage reads the
//!    run history, so all six stages must re-execute (`reused == false`), but the
//!    warm slot's KDE fits are extended rather than refit, and the findings must
//!    match a cold batch exactly.
//! 2. **Pure metric append** — seal a watermark, append metric points *beyond*
//!    every run's scoring window (new epochs), and re-diagnose. No stage input
//!    changed, so all six stages must replay their prior evidence
//!    (`reused == true`, `epochs_applied >= 1`), and the findings must still match
//!    a cold batch over the grown store.
//! 3. **Watermark invalidation** — tamper with a run label after sealing. The
//!    watermark's history fingerprint no longer matches, so the incremental path
//!    must silently fall back to a full cold diagnosis and agree with it.
//!
//! The engine's slot map and the sharded scenario recorder are the only
//! thread-sensitive parts under this suite, and both are pinned bit-identical
//! elsewhere.

use diads::core::{DiagnosisEngine, ScenarioOutcome, Testbed};
use diads::inject::scenarios::{all_scenarios, Scenario};
use diads::monitor::rng::SplitMix64;
use diads::monitor::{ComponentId, Duration, MetricName};

/// FNV-1a over the scenario id: a stable per-scenario seed so "random" truncation
/// points and append schedules are reproducible run to run.
fn seed_for(id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A cold reference: a brand-new engine with nothing cached diagnoses the outcome.
fn cold(outcome: &ScenarioOutcome) -> diads::core::DiagnosisReport {
    DiagnosisEngine::new().diagnose(outcome)
}

fn check_scenario(scenario: &Scenario) {
    let id = &scenario.id;
    let mut rng = SplitMix64::new(seed_for(id));
    let mut outcome = Testbed::run_scenario(scenario);

    let full_runs = outcome.history.runs.clone();
    let len = full_runs.len();
    assert!(len >= 2, "{id}: scenario produced too few runs to truncate");

    // --- Regime 1: history growth (new runs appended after the watermark). ---
    // Truncate to a pseudo-random prefix in [len/2, len-1]; the back half of the
    // range keeps both label classes populated for most scenarios, and empty
    // classes score 0.0 rather than panicking for the rest.
    let lo = (len / 2).max(1);
    let k = lo + (rng.next_u64() as usize) % (len - lo);
    outcome.history.runs.truncate(k);
    let wm1 = outcome.seal_watermark();
    // Warm the engine slot and record stage evidence under the truncated fingerprint.
    let _prior = outcome.diagnose();
    outcome.history.runs.clone_from(&full_runs);

    let inc1 = outcome.diagnose_incremental(&wm1);
    let cold1 = cold(&outcome);
    assert_eq!(inc1, cold1, "{id}: incremental diverged from cold batch after {k}->{len} run growth");
    assert!(
        inc1.provenance.stages.iter().all(|s| !s.reused),
        "{id}: every stage reads the run history, so run growth must re-execute all of them"
    );

    // --- Regime 2: pure metric append beyond every run's scoring window. ---
    let wm2 = outcome.seal_watermark();
    let last_end = outcome.history.runs.iter().map(|r| r.record.end).max().expect("non-empty history");
    // Run scoring windows extend 5 minutes past each run's end; +10 minutes is
    // safely outside every window, so the delta cannot change any stage's inputs.
    let base = last_end.plus(Duration::from_mins(10));
    let host = ComponentId::server("incremental-probe-host");
    let metric = MetricName::Custom("probeAppendRate".into());
    let points = 2 + rng.next_u64() % 4;
    for i in 0..points {
        let at = base.plus(Duration::from_secs(i * 30));
        outcome.testbed.store.record(&host, &metric, at, rng.next_f64());
        if rng.next_u64().is_multiple_of(2) {
            outcome.testbed.store.seal_epoch();
        }
    }

    let inc2 = outcome.diagnose_incremental(&wm2);
    let cold2 = cold(&outcome);
    assert_eq!(inc2, cold2, "{id}: incremental diverged from cold batch after a pure metric append");
    assert_eq!(inc2.provenance.stages.len(), 6, "{id}: the standard pipeline has six stages");
    assert!(
        inc2.provenance.stages.iter().all(|s| s.reused),
        "{id}: a metric append beyond every run window must replay all six stages, got {:?}",
        inc2.provenance.stages.iter().map(|s| (s.stage.clone(), s.reused)).collect::<Vec<_>>()
    );
    assert!(
        inc2.provenance.epochs_applied >= 1,
        "{id}: the append must be visible as at least one applied epoch"
    );
    assert!(
        inc2.provenance.engine.expect("engine-routed").warm,
        "{id}: the replay must come from the warm watermark slot"
    );

    // --- Regime 3: a tampered history invalidates the watermark. ---
    let wm3 = outcome.seal_watermark();
    let flip = (rng.next_u64() as usize) % outcome.history.runs.len();
    let was = outcome.history.runs[flip].satisfactory;
    outcome.history.set_label(flip, !was);

    let inc3 = outcome.diagnose_incremental(&wm3);
    let cold3 = cold(&outcome);
    assert_eq!(
        inc3, cold3,
        "{id}: a stale watermark (relabelled run {flip}) must fall back to a full cold diagnosis"
    );
    assert!(
        inc3.provenance.stages.iter().all(|s| !s.reused),
        "{id}: the cold fallback must not claim stage reuse"
    );
}

/// Each test function takes every 4th scenario so the harness runs the (expensive)
/// scenario executions on parallel test threads.
fn check_stripe(offset: usize) {
    for scenario in all_scenarios().iter().skip(offset).step_by(4) {
        check_scenario(scenario);
    }
}

#[test]
fn incremental_matches_batch_stripe_0() {
    check_stripe(0);
}

#[test]
fn incremental_matches_batch_stripe_1() {
    check_stripe(1);
}

#[test]
fn incremental_matches_batch_stripe_2() {
    check_stripe(2);
}

#[test]
fn incremental_matches_batch_stripe_3() {
    check_stripe(3);
}
