//! Free (unsupervised) optimal segmentation of a response curve.
//!
//! Paper §III-3 ("Impact of Preconceived Assumptions in the Analysis"):
//! Hoefler et al. reported a *single* protocol change >32 KB in Figure 3,
//! but "a new look to the data could indicate another break at 16 KBytes".
//! Fixing the number of breakpoints a priori can hide real behaviour.
//!
//! This module searches over breakpoint placements *without* a preconceived
//! count: a dynamic program over candidate breakpoints minimizes
//! `SSE + penalty·(#segments)`, a BIC-style criterion. It is the
//! "initial neutral look regarding the number of breakpoints" that the
//! caption of Figure 4 calls for.

use crate::error::AnalysisError;
use crate::piecewise::PiecewiseLinear;
use crate::prefix::PrefixOls;
use crate::Result;

/// Result of an optimal segmentation search.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    /// Chosen interior breakpoints (x-values), ascending.
    pub breakpoints: Vec<f64>,
    /// Total SSE of the selected piecewise fit.
    pub sse: f64,
    /// Penalized score that was minimized.
    pub score: f64,
    /// The fitted piecewise model.
    pub model: PiecewiseLinear,
}

/// Configuration for [`segment`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Maximum number of interior breakpoints considered.
    pub max_breaks: usize,
    /// Minimum number of observations per segment.
    pub min_points_per_segment: usize,
    /// Per-segment penalty added to the SSE. When `None`, a BIC-style
    /// penalty `sigma²·ln(n)·2` is derived from a robust noise estimate.
    pub penalty: Option<f64>,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig { max_breaks: 4, min_points_per_segment: 5, penalty: None }
    }
}

/// Sorts paired data by x and returns owned vectors.
fn sort_paired(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite values compare"));
    (idx.iter().map(|&i| x[i]).collect(), idx.iter().map(|&i| y[i]).collect())
}

/// Robust residual-variance estimate from **second** differences of y
/// (after sorting by x). Second differences cancel any locally-linear
/// trend, so the estimate reflects measurement noise rather than slope —
/// first differences would inflate σ on steep curves and make the free
/// search blind to subtle slope changes (exactly the Figure 3 hidden
/// break). For iid `N(0, σ²)` noise, `Δ²y ~ N(0, 6σ²)`, and
/// `median(|N(0,s²)|) = 0.6745 s`.
fn robust_noise_variance(y_sorted_by_x: &[f64]) -> f64 {
    if y_sorted_by_x.len() < 4 {
        return 1.0;
    }
    let mut dd: Vec<f64> =
        y_sorted_by_x.windows(3).map(|w| (w[2] - 2.0 * w[1] + w[0]).abs()).collect();
    dd.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let med = dd[dd.len() / 2];
    let sigma = med / (0.6745 * 6.0f64.sqrt());
    (sigma * sigma).max(f64::MIN_POSITIVE)
}

/// The per-segment penalty: `config.penalty`, or a BIC-style one derived
/// from the robust noise estimate of `y` (sorted by x).
fn segment_penalty(config: &SegmentConfig, y_sorted_by_x: &[f64]) -> f64 {
    config.penalty.unwrap_or_else(|| {
        // Floor the derived penalty above the numerical jitter of the
        // O(1) prefix-sum SSE (~machine epsilon of the total variation):
        // on numerically-exact data the noise estimate is 0 and sub-ulp
        // SSE differences must not buy extra segments.
        let n = y_sorted_by_x.len() as f64;
        let my = y_sorted_by_x.iter().sum::<f64>() / n;
        let syy: f64 = y_sorted_by_x.iter().map(|v| (v - my) * (v - my)).sum();
        let bic = 2.0 * robust_noise_variance(y_sorted_by_x) * n.ln() * 2.0;
        bic.max(64.0 * f64::EPSILON * syy)
    })
}

/// Finds the optimal piecewise-linear segmentation of `(x, y)`.
///
/// A dynamic program over data indices chooses where segments end; segment
/// boundaries become x-breakpoints at the midpoint between the adjacent
/// observations. The number of segments is *free* up to
/// `config.max_breaks + 1`, chosen by penalized SSE.
pub fn segment(x: &[f64], y: &[f64], config: &SegmentConfig) -> Result<Segmentation> {
    let _span = charm_trace::thread_span("analysis.segment");
    crate::error::ensure_paired(x, y)?;
    let m = config.min_points_per_segment.max(2);
    if x.len() < m {
        return Err(AnalysisError::TooFewObservations { needed: m, got: x.len() });
    }
    let (sx, sy) = sort_paired(x, y);
    let n = sx.len();
    let penalty = segment_penalty(config, &sy);

    let kmax = config.max_breaks + 1; // max segments
                                      // cost[j][k] = min penalized SSE of fitting y[0..j] with exactly k segments.
                                      // back[j][k] = split index i for the last segment y[i..j].
    let inf = f64::INFINITY;
    let mut cost = vec![vec![inf; kmax + 1]; n + 1];
    let mut back = vec![vec![0usize; kmax + 1]; n + 1];
    cost[0][0] = 0.0;

    // Prefix-sum least squares: every candidate stretch's SSE in O(1)
    // after an O(n) build, instead of an O(j − i) OLS refit per
    // candidate. This is what makes the free search viable on
    // Figure-4-sized campaigns (the DP below touches O(n²·k) stretches).
    let prefix = PrefixOls::new(&sx, &sy);
    // Local tally flushed once per call: keeps the DP hot loop free of
    // thread-local lookups while still reporting search effort.
    let sse_evals = std::cell::Cell::new(0u64);
    let sse_of = |i: usize, j: usize| -> f64 {
        sse_evals.set(sse_evals.get() + 1);
        prefix.sse(i, j)
    };

    #[allow(clippy::needless_range_loop)] // cost[j][k] and cost[i][k-1] both indexed
    for k in 1..=kmax {
        for j in (k * m)..=n {
            for i in ((k - 1) * m)..=(j - m) {
                if cost[i][k - 1] == inf {
                    continue;
                }
                let c = cost[i][k - 1] + sse_of(i, j);
                if c < cost[j][k] {
                    cost[j][k] = c;
                    back[j][k] = i;
                }
            }
        }
    }
    if charm_obs::process::is_enabled() {
        charm_obs::process::add("analysis.sse_evals", sse_evals.get());
        charm_obs::process::add("analysis.segment_calls", 1);
    }

    // Choose k minimizing SSE + penalty*k.
    let mut best_k = 1;
    let mut best_score = inf;
    #[allow(clippy::needless_range_loop)] // cost[j][k] and cost[i][k-1] both indexed
    for k in 1..=kmax {
        if cost[n][k] == inf {
            continue;
        }
        let score = cost[n][k] + penalty * k as f64;
        if score < best_score {
            best_score = score;
            best_k = k;
        }
    }
    if best_score == inf {
        return Err(AnalysisError::TooFewObservations { needed: m, got: n });
    }

    // Backtrack split indices.
    let mut splits = Vec::new();
    let mut j = n;
    for k in (1..=best_k).rev() {
        let i = back[j][k];
        if i > 0 {
            splits.push(i);
        }
        j = i;
    }
    splits.sort_unstable();

    // Convert split indices to x-breakpoints at midpoints.
    let breakpoints: Vec<f64> = splits.iter().map(|&i| (sx[i - 1] + sx[i]) / 2.0).collect();

    let model = PiecewiseLinear::fit(&sx, &sy, &breakpoints)?;
    let sse = model.sse();
    Ok(Segmentation { breakpoints, sse, score: best_score, model })
}

/// Exhaustively fits exactly `k` breakpoints (for small k) by running the
/// DP with a fixed segment count; used by the "preconceived assumption"
/// ablation to compare a forced single break against the free search.
pub fn segment_with_k_breaks(
    x: &[f64],
    y: &[f64],
    k_breaks: usize,
    min_points_per_segment: usize,
) -> Result<Segmentation> {
    let config = SegmentConfig {
        max_breaks: k_breaks,
        min_points_per_segment,
        // Huge penalty forces as few segments as possible... we instead want
        // exactly k+1 segments, so use zero penalty and filter below.
        penalty: Some(0.0),
    };
    // Re-run the DP but force the segment count by post-selection: zero
    // penalty makes more segments always (weakly) better, so the optimum
    // uses the full budget of k_breaks.
    let seg = segment(x, y, &config)?;
    if seg.breakpoints.len() != k_breaks {
        // Not enough data to place that many breaks.
        return Err(AnalysisError::TooFewObservations {
            needed: (k_breaks + 1) * min_points_per_segment.max(2),
            got: x.len(),
        });
    }
    Ok(seg)
}

/// The pre-optimisation search, kept as the oracle for property tests
/// and benches: the same DP as [`segment`], but every candidate stretch
/// pays an `O(j − i)` OLS refit (memoized across segment counts), so the
/// whole search is `O(n³)`. [`segment`] must choose the same breakpoints
/// on tie-free data and reach the same penalized optimum.
pub mod reference {
    use super::{segment_penalty, sort_paired, SegmentConfig};
    use crate::prefix::naive_stretch_sse;
    use std::collections::HashMap;

    /// The optimal interior breakpoints of `(x, y)` and their penalized
    /// score (`SSE + penalty·segments`). Returns no breakpoints and an
    /// infinite score when no segmentation fits `config`.
    pub fn segment(x: &[f64], y: &[f64], config: &SegmentConfig) -> (Vec<f64>, f64) {
        let (x, y) = sort_paired(x, y);
        let n = x.len();
        let m = config.min_points_per_segment.max(2);
        let penalty = segment_penalty(config, &y);
        let kmax = config.max_breaks + 1;
        let inf = f64::INFINITY;
        let mut memo: HashMap<(usize, usize), f64> = HashMap::new();
        let mut sse_of = |i: usize, j: usize| {
            *memo.entry((i, j)).or_insert_with(|| naive_stretch_sse(&x, &y, i, j))
        };
        let mut cost = vec![vec![inf; kmax + 1]; n + 1];
        let mut back = vec![vec![0usize; kmax + 1]; n + 1];
        cost[0][0] = 0.0;
        for k in 1..=kmax {
            for j in (k * m)..=n {
                for i in ((k - 1) * m)..=(j - m) {
                    if cost[i][k - 1] == inf {
                        continue;
                    }
                    let c = cost[i][k - 1] + sse_of(i, j);
                    if c < cost[j][k] {
                        cost[j][k] = c;
                        back[j][k] = i;
                    }
                }
            }
        }
        let mut best_k = 1;
        let mut best_score = inf;
        for (k, row) in cost[n].iter().enumerate().skip(1) {
            let score = row + penalty * k as f64;
            if score < best_score {
                best_score = score;
                best_k = k;
            }
        }
        if best_score == inf {
            return (Vec::new(), inf);
        }
        let mut splits = Vec::new();
        let mut j = n;
        for k in (1..=best_k).rev() {
            let i = back[j][k];
            if i > 0 {
                splits.push(i);
            }
            j = i;
        }
        splits.sort_unstable();
        (splits.iter().map(|&i| (x[i - 1] + x[i]) / 2.0).collect(), best_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three-regime curve mimicking eager/detached/rendez-vous timing.
    fn three_regime(n_per: usize) -> (Vec<f64>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let xi = i as f64;
            x.push(xi);
            y.push(2.0 + 0.5 * xi);
        }
        for i in 0..n_per {
            let xi = n_per as f64 + i as f64;
            x.push(xi);
            y.push(10.0 + 2.0 * xi);
        }
        for i in 0..n_per {
            let xi = 2.0 * n_per as f64 + i as f64;
            x.push(xi);
            y.push(100.0 + 6.0 * xi);
        }
        (x, y)
    }

    #[test]
    fn finds_two_breaks_in_three_regime_data() {
        let (x, y) = three_regime(20);
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert_eq!(seg.breakpoints.len(), 2, "breaks: {:?}", seg.breakpoints);
        assert!((seg.breakpoints[0] - 19.5).abs() < 3.0);
        assert!((seg.breakpoints[1] - 39.5).abs() < 3.0);
        assert!(seg.sse < 1e-12);
    }

    #[test]
    fn straight_line_yields_no_breaks() {
        let x: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 0.25 * v).collect();
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(seg.breakpoints.is_empty(), "spurious breaks: {:?}", seg.breakpoints);
    }

    #[test]
    fn noisy_line_yields_no_breaks() {
        // Deterministic uncorrelated "noise" (shader-style hash); a free
        // search with BIC penalty must not hallucinate breaks.
        let x: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| {
                let u = ((v * 12.9898).sin() * 43758.5453).fract().abs();
                5.0 + 0.5 * v + (u - 0.5)
            })
            .collect();
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(seg.breakpoints.len() <= 1, "too many breaks: {:?}", seg.breakpoints);
    }

    #[test]
    fn forcing_one_break_on_three_regimes_hides_the_second() {
        // The "preconceived assumption" pitfall: with k=1 the fit is much
        // worse than the free (k=2) segmentation.
        let (x, y) = three_regime(20);
        let forced = segment_with_k_breaks(&x, &y, 1, 5).unwrap();
        let free = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(forced.sse > 10.0 * (free.sse + 1.0));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let (mut x, mut y) = three_regime(15);
        // reverse the data; segmentation sorts internally
        x.reverse();
        y.reverse();
        let seg = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert_eq!(seg.breakpoints.len(), 2);
    }

    #[test]
    fn respects_min_points_per_segment() {
        let (x, y) = three_regime(4);
        let cfg = SegmentConfig { max_breaks: 4, min_points_per_segment: 6, penalty: Some(0.0) };
        let seg = segment(&x, &y, &cfg).unwrap();
        // 12 points, min 6 per segment -> at most 2 segments
        assert!(seg.breakpoints.len() <= 1);
    }

    #[test]
    fn too_few_points_rejected() {
        assert!(segment(&[1.0, 2.0], &[1.0, 2.0], &SegmentConfig::default()).is_err());
    }

    #[test]
    fn k_breaks_exact_count_or_error() {
        let (x, y) = three_regime(20);
        let s = segment_with_k_breaks(&x, &y, 2, 5).unwrap();
        assert_eq!(s.breakpoints.len(), 2);
        assert!(segment_with_k_breaks(&x[..8], &y[..8], 3, 5).is_err());
    }

    #[test]
    fn process_counters_report_search_effort() {
        let (x, y) = three_regime(20);
        charm_obs::process::enable();
        let with = segment(&x, &y, &SegmentConfig::default()).unwrap();
        let counters = charm_obs::process::take();
        assert_eq!(counters.get("analysis.segment_calls"), 1);
        // the free DP over 60 points touches far more than n stretches
        assert!(counters.get("analysis.sse_evals") > 60, "counters: {counters:?}");
        // counting must not change the result
        let without = segment(&x, &y, &SegmentConfig::default()).unwrap();
        assert!(charm_obs::process::take().is_empty());
        assert_eq!(with.breakpoints, without.breakpoints);
        assert_eq!(with.sse.to_bits(), without.sse.to_bits());
    }
}
