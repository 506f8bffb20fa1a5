//! Bootstrap resampling for uncertainty quantification.
//!
//! The methodology replaces on-the-fly standard deviations with offline
//! uncertainty estimates over the retained raw data; percentile bootstrap
//! intervals make no normality assumption, which matters because the whole
//! point of the paper is that benchmark distributions are *not* normal
//! (bimodal scheduler modes, heteroscedastic protocol regimes, …).
//!
//! Each replicate draws from its **own derived RNG stream**
//! (`ChaCha8Rng` seeded by a hash of `(seed, replicate)`), never from a
//! shared sequential stream. That makes the replicates embarrassingly
//! parallel without changing a single draw: above
//! [`PARALLEL_REPS_THRESHOLD`] replicates the work is split across
//! threads, and the resulting interval is bit-identical to the
//! sequential one.

use crate::error::ensure_sample;
use crate::error::AnalysisError;
use crate::Result;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Replicate count at and above which [`bootstrap_ci`] fans the
/// resampling out across threads. Below it, thread startup would cost
/// more than the resampling itself.
pub const PARALLEL_REPS_THRESHOLD: usize = 256;

/// Seed of replicate `rep`'s private RNG stream: a splitmix64-style
/// finalizer over `(seed, rep)` so neighbouring replicates get unrelated
/// streams and the draws of replicate `rep` do not depend on how many
/// replicates ran before it (that independence is what lets the parallel
/// path reproduce the sequential intervals exactly).
fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One replicate's statistic: resample `xs` with replacement using the
/// replicate's derived stream, then evaluate `stat`.
fn replicate_stat<F: Fn(&[f64]) -> f64>(
    xs: &[f64],
    stat: &F,
    seed: u64,
    rep: u64,
    scratch: &mut [f64],
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(rep_seed(seed, rep));
    let n = xs.len();
    for slot in scratch.iter_mut() {
        *slot = xs[rng.random_range(0..n)];
    }
    stat(scratch)
}

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate (statistic of the original sample).
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level used.
    pub level: f64,
}

/// Computes a percentile bootstrap CI for an arbitrary statistic.
///
/// * `stat` — the statistic (e.g. `|xs| charm_analysis::descriptive::median(xs).unwrap()`);
/// * `reps` — number of bootstrap resamples (≥ 100 recommended);
/// * `level` — confidence level in `(0, 1)`;
/// * `seed` — RNG seed; results are fully deterministic given the seed
///   and independent of whether the replicates ran on one thread or many.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    stat: F,
    reps: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    let _span = charm_trace::thread_span("analysis.bootstrap");
    ensure_sample(xs)?;
    if reps < 10 {
        return Err(AnalysisError::InvalidParameter("bootstrap needs >= 10 reps"));
    }
    if !(0.0 < level && level < 1.0) {
        return Err(AnalysisError::InvalidParameter("confidence level must be in (0,1)"));
    }
    if charm_obs::process::is_enabled() {
        charm_obs::process::add("analysis.bootstrap.replicates", reps as u64);
        charm_obs::process::add("analysis.bootstrap.calls", 1);
    }
    let estimate = stat(xs);
    let n = xs.len();
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut stats: Vec<f64> = if reps >= PARALLEL_REPS_THRESHOLD && threads > 1 {
        // Chunk the replicate indices across threads; every replicate
        // derives its own stream from (seed, rep), so the chunking is
        // invisible in the results.
        let chunks: Vec<(u64, u64)> = (0..threads)
            .map(|t| ((t * reps / threads) as u64, ((t + 1) * reps / threads) as u64))
            .collect();
        let stat = &stat;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(lo, hi)| {
                    scope.spawn(move || {
                        let mut scratch = vec![0.0; n];
                        (lo..hi)
                            .map(|rep| replicate_stat(xs, stat, seed, rep, &mut scratch))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("bootstrap thread panicked")).collect()
        })
    } else {
        let mut scratch = vec![0.0; n];
        (0..reps as u64).map(|rep| replicate_stat(xs, &stat, seed, rep, &mut scratch)).collect()
    };
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::descriptive::quantile_sorted(&stats, alpha);
    let hi = crate::descriptive::quantile_sorted(&stats, 1.0 - alpha);
    Ok(BootstrapCi { estimate, lo, hi, level })
}

/// Bootstrap CI of the mean.
pub fn mean_ci(xs: &[f64], reps: usize, level: f64, seed: u64) -> Result<BootstrapCi> {
    bootstrap_ci(xs, |s| s.iter().sum::<f64>() / s.len() as f64, reps, level, seed)
}

/// Bootstrap CI of the median.
pub fn median_ci(xs: &[f64], reps: usize, level: f64, seed: u64) -> Result<BootstrapCi> {
    bootstrap_ci(
        xs,
        |s| {
            let mut v = s.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            crate::descriptive::quantile_sorted(&v, 0.5)
        },
        reps,
        level,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..50).map(|i| (i % 13) as f64).collect();
        let a = mean_ci(&xs, 200, 0.95, 42).unwrap();
        let b = mean_ci(&xs, 200, 0.95, 42).unwrap();
        assert_eq!(a, b);
        let c = mean_ci(&xs, 200, 0.95, 43).unwrap();
        assert!(a.lo != c.lo || a.hi != c.hi);
    }

    #[test]
    fn interval_contains_estimate() {
        let xs: Vec<f64> = (0..60).map(|i| 10.0 + (i % 9) as f64).collect();
        let ci = mean_ci(&xs, 500, 0.95, 7).unwrap();
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
    }

    #[test]
    fn constant_sample_zero_width() {
        let xs = [4.0; 20];
        let ci = mean_ci(&xs, 100, 0.95, 1).unwrap();
        assert_eq!(ci.lo, 4.0);
        assert_eq!(ci.hi, 4.0);
    }

    #[test]
    fn wider_interval_at_higher_level() {
        let xs: Vec<f64> = (0..40).map(|i| ((i * 7919) % 100) as f64).collect();
        let ci90 = mean_ci(&xs, 1000, 0.90, 5).unwrap();
        let ci99 = mean_ci(&xs, 1000, 0.99, 5).unwrap();
        assert!(ci99.hi - ci99.lo >= ci90.hi - ci90.lo);
    }

    #[test]
    fn median_ci_brackets_true_median() {
        let xs: Vec<f64> = (0..99).map(|i| i as f64).collect();
        let ci = median_ci(&xs, 500, 0.95, 11).unwrap();
        assert!(ci.lo <= 49.0 && 49.0 <= ci.hi);
    }

    #[test]
    fn parallel_path_matches_sequential_path() {
        // 500 reps crosses PARALLEL_REPS_THRESHOLD, 20 reps stays below;
        // the shared prefix of per-rep streams must agree bit-for-bit, so
        // quantiles of the first 20 replicate statistics coincide.
        let xs: Vec<f64> = (0..80).map(|i| ((i * 37) % 23) as f64).collect();
        let mut seq_scratch = vec![0.0; xs.len()];
        let sequential: Vec<f64> = (0..500u64)
            .map(|rep| {
                replicate_stat(
                    &xs,
                    &|s: &[f64]| s.iter().sum::<f64>() / s.len() as f64,
                    9,
                    rep,
                    &mut seq_scratch,
                )
            })
            .collect();
        let ci = mean_ci(&xs, 500, 0.95, 9).unwrap();
        let mut sorted = sequential.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = crate::descriptive::quantile_sorted(&sorted, 0.025);
        let hi = crate::descriptive::quantile_sorted(&sorted, 0.975);
        assert_eq!(ci.lo, lo);
        assert_eq!(ci.hi, hi);
    }

    #[test]
    fn rejects_bad_params() {
        let xs = [1.0, 2.0];
        assert!(mean_ci(&xs, 5, 0.95, 0).is_err());
        assert!(mean_ci(&xs, 100, 1.5, 0).is_err());
        assert!(mean_ci(&[], 100, 0.95, 0).is_err());
    }

    #[test]
    fn process_counters_report_replicates() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        charm_obs::process::enable();
        mean_ci(&xs, 150, 0.95, 1).unwrap();
        median_ci(&xs, 100, 0.95, 1).unwrap();
        let counters = charm_obs::process::take();
        assert_eq!(counters.get("analysis.bootstrap.replicates"), 250);
        assert_eq!(counters.get("analysis.bootstrap.calls"), 2);
        // disabled again: nothing accumulates
        mean_ci(&xs, 150, 0.95, 1).unwrap();
        assert!(charm_obs::process::take().is_empty());
    }

    #[test]
    fn thread_profiler_times_bootstrap() {
        let p = charm_trace::Profiler::enabled();
        p.install_thread("main");
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        mean_ci(&xs, 100, 0.95, 1).unwrap();
        charm_trace::Profiler::uninstall_thread();
        let spans = p.take();
        assert!(spans.iter().any(|s| s.name == "analysis.bootstrap"), "{spans:?}");
    }

    #[test]
    fn mean_ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| ((i * 31) % 17) as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| ((i * 31) % 17) as f64).collect();
        let ci_s = mean_ci(&small, 300, 0.95, 3).unwrap();
        let ci_l = mean_ci(&large, 300, 0.95, 3).unwrap();
        assert!(ci_l.hi - ci_l.lo < ci_s.hi - ci_s.lo);
    }
}
