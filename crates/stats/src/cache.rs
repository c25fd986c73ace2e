//! Memoisation of KDE fits across the diagnosis workflow.
//!
//! The workflow scores the *same* satisfactory history many times across
//! re-executions: the interactive mode re-runs modules at will, benchmarks and
//! repeated diagnoses revisit one context, and the fleet engine keeps fits warm
//! across diagnoses. Re-fitting on each of those is pure waste — the
//! satisfactory sample for a given variable never changes while the context lives.
//! [`ScoringCache`] fits each variable once and hands out the shared estimate.

use std::collections::HashMap;
use std::hash::Hash;

use crate::kde::Kde;

/// A cache of fitted KDEs keyed by the caller's variable identity.
///
/// The key is typically a small `Copy` type (an operator id, or an interned
/// (component, metric) symbol pair), so lookups never allocate. A variable whose
/// sample could not be fitted (empty, non-finite, or below the caller's minimum
/// sample size) is cached as `None` so the failed fit is not retried either.
#[derive(Debug, Clone)]
pub struct ScoringCache<K> {
    entries: HashMap<K, Option<Kde>>,
    enabled: bool,
    /// Holds the most recent fit of a disabled cache (so `fit_or_insert_with` can
    /// return a borrow without touching the map).
    scratch: Option<Kde>,
    hits: u64,
    misses: u64,
}

impl<K> Default for ScoringCache<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ScoringCache<K> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ScoringCache { entries: HashMap::new(), enabled: true, scratch: None, hits: 0, misses: 0 }
    }

    /// Creates a cache that never caches: every lookup re-fits, and only the most
    /// recent estimate is kept alive (in a scratch slot, never in the map).
    ///
    /// This exists purely as the A/B baseline for benchmarks ("what did per-call
    /// refitting cost?"); production callers always want [`ScoringCache::new`].
    pub fn disabled() -> Self {
        ScoringCache { entries: HashMap::new(), enabled: false, scratch: None, hits: 0, misses: 0 }
    }

    /// Number of cached variables (fitted or negatively cached).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that were served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to fit.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether this cache retains fits ([`ScoringCache::disabled`] caches do not).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drops every cached fit (e.g. when the run history being diagnosed changes).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.scratch = None;
    }
}

impl<K: Eq + Hash> ScoringCache<K> {
    /// Absorbs another cache's entries (existing entries win). The fleet engine
    /// uses it to merge a checked-out slot cache back into a resident one when two
    /// diagnoses of the same slot check in concurrently.
    ///
    /// A disabled receiver absorbs only the counters — its "never caches" contract
    /// holds even when fed from enabled worker caches.
    pub fn absorb(&mut self, other: ScoringCache<K>) {
        self.hits += other.hits;
        self.misses += other.misses;
        if !self.enabled {
            return;
        }
        for (key, entry) in other.entries {
            self.entries.entry(key).or_insert(entry);
        }
    }
}

impl<K: Eq + Hash> ScoringCache<K> {
    /// The KDE for `key`, fitting it from `samples()` on first use.
    ///
    /// `samples` is only invoked on a cache miss. It returns the satisfactory sample
    /// to fit, or `None` when the variable should not be scored at all (the caller's
    /// minimum-sample policy); both outcomes are cached.
    pub fn fit_or_insert_with(&mut self, key: K, samples: impl FnOnce() -> Option<Vec<f64>>) -> Option<&Kde> {
        if !self.enabled {
            self.misses += 1;
            self.scratch = samples().and_then(|s| Kde::fit(&s).ok());
            return self.scratch.as_ref();
        }
        let mut missed = false;
        let entry = self.entries.entry(key).or_insert_with(|| {
            missed = true;
            samples().and_then(|s| Kde::fit(&s).ok())
        });
        if missed {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        entry.as_ref()
    }

    /// The cached KDE for `key`, if a successful fit is already cached.
    pub fn get(&self, key: &K) -> Option<&Kde> {
        self.entries.get(key).and_then(|e| e.as_ref())
    }

    /// The full cache state for `key`: `None` if the key was never attempted,
    /// `Some(None)` if it is negatively cached (not scoreable), `Some(Some(_))` if a
    /// fit is cached. Lets a read-only warm layer distinguish "unknown" from "known
    /// unscoreable" instead of re-deriving the negative result.
    pub fn probe(&self, key: &K) -> Option<Option<&Kde>> {
        self.entries.get(key).map(|e| e.as_ref())
    }

    /// Every cached entry — fitted (`Some`) or negative (`None`) — in arbitrary
    /// (hash-map) order. The enumeration seam for snapshotting a cache and for
    /// planning an incremental extension pass.
    pub fn entries(&self) -> impl Iterator<Item = (&K, Option<&Kde>)> {
        self.entries.iter().map(|(k, e)| (k, e.as_ref()))
    }

    /// Inserts (or replaces) an entry directly — the restore counterpart of
    /// [`Self::entries`]. No-op on a disabled cache (its "never caches" contract
    /// holds even when fed deserialised fits).
    pub fn insert_fit(&mut self, key: K, fit: Option<Kde>) {
        if self.enabled {
            self.entries.insert(key, fit);
        }
    }

    /// Removes the entry for `key`, returning whether one existed. Used to evict
    /// negative entries whose variable may have become scoreable after new data
    /// arrived — the next lookup re-derives them from the full sample.
    pub fn remove(&mut self, key: &K) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Grows the fitted sample of `key` by merge-inserting `delta` — the sorted
    /// sample vector behind the fit is extended in O(new log new + merge) and the
    /// bandwidth re-derived exactly, bit-identical to a cold refit over the
    /// concatenated sample (see [`Kde::extended`]).
    ///
    /// Returns `false`, leaving the entry untouched, when the key has no positive
    /// fit or the delta fails validation: negative entries must be re-derived by
    /// the caller, which alone knows the full sample.
    pub fn extend_fit(&mut self, key: &K, delta: &[f64]) -> bool {
        let Some(Some(kde)) = self.entries.get_mut(key) else { return false };
        if delta.is_empty() {
            return true;
        }
        match kde.extended(delta) {
            Ok(next) => {
                *kde = next;
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<f64> {
        (0..20).map(|i| 100.0 + (i % 5) as f64).collect()
    }

    #[test]
    fn fits_once_and_reuses() {
        let mut cache: ScoringCache<u32> = ScoringCache::new();
        let mut fits = 0;
        for _ in 0..5 {
            let kde = cache
                .fit_or_insert_with(7, || {
                    fits += 1;
                    Some(sample())
                })
                .expect("fit succeeds");
            assert!(kde.anomaly_score(200.0) > 0.99);
        }
        assert_eq!(fits, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn negative_results_are_cached_too() {
        let mut cache: ScoringCache<u32> = ScoringCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let kde = cache.fit_or_insert_with(1, || {
                calls += 1;
                None
            });
            assert!(kde.is_none());
        }
        assert_eq!(calls, 1);
        assert!(cache.get(&1).is_none());
        // An unfittable sample is also negatively cached.
        assert!(cache.fit_or_insert_with(2, || Some(vec![])).is_none());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn disabled_cache_refits_every_time() {
        let mut cache: ScoringCache<u32> = ScoringCache::disabled();
        let mut fits = 0;
        for _ in 0..3 {
            cache.fit_or_insert_with(7, || {
                fits += 1;
                Some(sample())
            });
        }
        assert_eq!(fits, 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        // Nothing is retained in the map — only the scratch slot holds the last fit.
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn absorb_merges_and_keeps_existing_entries() {
        let mut a: ScoringCache<u32> = ScoringCache::new();
        a.fit_or_insert_with(1, || Some(sample()));
        let mut b: ScoringCache<u32> = ScoringCache::new();
        b.fit_or_insert_with(1, || Some(vec![0.0; 5]));
        b.fit_or_insert_with(2, || Some(sample()));
        let a_kde_len = a.get(&1).unwrap().len();
        a.absorb(b);
        assert_eq!(a.len(), 2);
        // The pre-existing fit for key 1 was kept.
        assert_eq!(a.get(&1).unwrap().len(), a_kde_len);
        assert!(a.get(&2).is_some());
        assert_eq!(a.misses(), 3);
    }

    #[test]
    fn extend_fit_matches_a_cold_refit() {
        let old: Vec<f64> = sample();
        let delta = [97.0, 103.5, 101.0];
        let mut cache: ScoringCache<u32> = ScoringCache::new();
        cache.fit_or_insert_with(1, || Some(old.clone()));
        cache.fit_or_insert_with(2, || None);
        assert!(cache.extend_fit(&1, &delta));
        assert!(!cache.extend_fit(&2, &delta), "negative entries are not extendable");
        assert!(!cache.extend_fit(&3, &delta), "unknown keys are not extendable");
        assert!(!cache.extend_fit(&1, &[f64::NAN]), "bad deltas leave the fit untouched");

        let mut concat = old;
        concat.extend_from_slice(&delta);
        let cold = Kde::fit(&concat).unwrap();
        let grown = cache.get(&1).unwrap();
        assert_eq!(grown.samples(), cold.samples());
        assert_eq!(grown.bandwidth().to_bits(), cold.bandwidth().to_bits());
    }

    #[test]
    fn entries_insert_and_remove_round_trip() {
        let mut cache: ScoringCache<u32> = ScoringCache::new();
        cache.fit_or_insert_with(1, || Some(sample()));
        cache.fit_or_insert_with(2, || None);
        let mut keys: Vec<(u32, bool)> = cache.entries().map(|(k, e)| (*k, e.is_some())).collect();
        keys.sort();
        assert_eq!(keys, vec![(1, true), (2, false)]);

        // Round trip through from_parts, as snapshot/restore does.
        let kde = cache.get(&1).unwrap();
        let rebuilt = Kde::from_parts(kde.samples().to_vec(), kde.bandwidth()).unwrap();
        let mut restored: ScoringCache<u32> = ScoringCache::new();
        restored.insert_fit(1, Some(rebuilt));
        restored.insert_fit(2, None);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(&1).unwrap().samples(), cache.get(&1).unwrap().samples());
        assert!(matches!(restored.probe(&2), Some(None)), "negative entry restored");

        assert!(restored.remove(&2));
        assert!(!restored.remove(&2));
        assert_eq!(restored.len(), 1);

        // Disabled caches refuse direct inserts.
        let mut disabled: ScoringCache<u32> = ScoringCache::disabled();
        disabled.insert_fit(1, None);
        assert_eq!(disabled.len(), 0);
    }

    #[test]
    fn clear_forgets_fits() {
        let mut cache: ScoringCache<u32> = ScoringCache::new();
        cache.fit_or_insert_with(1, || Some(sample()));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(&1).is_none());
    }
}
