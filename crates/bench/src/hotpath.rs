//! The shared refit-vs-cache KDE workload.
//!
//! The `bench_diads` tracker's `kde` group measures per-call refits against one
//! cached fit batch-scored with `score_many`; the workload and both paths live here
//! so a unit test can pin that they agree.

use diads_stats::{Kde, ScoringCache};

/// Satisfactory-history sample used by the repeated-scoring comparison.
pub fn kde_sample() -> Vec<f64> {
    (0..40).map(|i| 100.0 + (i % 17) as f64 * 0.8).collect()
}

/// Observations scored against the sample (spanning typical through tail values).
pub fn kde_observations() -> Vec<f64> {
    (0..40).map(|i| 90.0 + i as f64 * 1.5).collect()
}

/// The pre-cache workflow behaviour: one fresh fit per scored observation.
/// Returns the score sum so callers can `black_box` it.
pub fn refit_per_score(sample: &[f64], observations: &[f64]) -> f64 {
    let mut total = 0.0;
    for &u in observations {
        let kde = Kde::fit(sample).expect("valid sample");
        total += kde.anomaly_score(u);
    }
    total
}

/// The cached engine: fit once (through the cache), batch-score into a reused buffer.
/// Returns the score sum so callers can `black_box` it.
pub fn cached_score_many(
    cache: &mut ScoringCache<u32>,
    out: &mut Vec<f64>,
    sample: &[f64],
    observations: &[f64],
) -> f64 {
    let kde = cache.fit_or_insert_with(0, || Some(sample.to_vec())).expect("valid sample");
    kde.score_many_into(observations, out);
    out.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_and_cached_paths_agree() {
        let sample = kde_sample();
        let observations = kde_observations();
        let refit = refit_per_score(&sample, &observations);
        let mut cache = ScoringCache::new();
        let mut out = Vec::new();
        let cached = cached_score_many(&mut cache, &mut out, &sample, &observations);
        assert!((refit - cached).abs() < 1e-9, "{refit} vs {cached}");
        assert_eq!(out.len(), observations.len());
    }
}
