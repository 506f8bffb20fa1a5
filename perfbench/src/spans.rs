//! Span arithmetic for the traced run: self time and interval coverage.
//!
//! The program's `--profile` table sums every span's duration, so nested
//! spans (`engine.run` ⊃ `engine.parallel` ⊃ `batch.execute`) count the
//! same wall time several times. Here a span's *self time* is its
//! duration minus the part of its interval that the spans nested inside
//! it cover, each instant counted once.
//!
//! Callers pass the spans of one thread only: spans on other threads
//! overlap in time without being nested.

use charm_trace::WallSpan;

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Whether span `j` lies inside span `i`. Of two spans with the same
/// interval, the one listed first is the parent.
fn nested_in(spans: &[WallSpan], j: usize, i: usize) -> bool {
    let (p, c) = (&spans[i], &spans[j]);
    let inside = c.start_ns >= p.start_ns && c.end_ns() <= p.end_ns();
    let same = c.start_ns == p.start_ns && c.end_ns() == p.end_ns();
    j != i && inside && (!same || j > i)
}

/// Self time of `spans[i]`: its duration minus the coverage of every
/// span nested inside it.
pub fn self_ns(spans: &[WallSpan], i: usize) -> u64 {
    let children: Vec<(u64, u64)> = (0..spans.len())
        .filter(|&j| nested_in(spans, j, i))
        .map(|j| (spans[j].start_ns, spans[j].end_ns()))
        .collect();
    spans[i].dur_ns - union_ns(children)
}

/// Wall time inside `[start, end)` covered by spans named `name`, each
/// instant counted once even when such spans nest.
pub fn coverage_ns(spans: &[WallSpan], name: &str, start: u64, end: u64) -> u64 {
    union_ns(
        spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= start && s.end_ns() <= end)
            .map(|s| (s.start_ns, s.end_ns()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, dur_ns: u64) -> WallSpan {
        WallSpan { track: "main".into(), name: name.into(), start_ns, dur_ns, args: vec![] }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_ns(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // outer [0,100) ⊃ a [10,40) ⊃ a.inner [15,25); b [50,70) overlaps
        // c [60,80): covered = 30 + 30 = 60, so outer self time = 40.
        let spans = vec![
            span("outer", 0, 100),
            span("a", 10, 30),
            span("a.inner", 15, 10),
            span("b", 50, 20),
            span("c", 60, 20),
        ];
        assert_eq!(self_ns(&spans, 0), 40);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 10);
    }

    #[test]
    fn self_times_of_a_nested_stack_sum_to_the_outer_span() {
        let spans = vec![
            span("op", 0, 100),
            span("core.fig04", 0, 60),
            span("engine.run", 10, 30),
            span("engine.merge", 35, 5),
            span("analysis.loess", 45, 10),
            span("core.fig07", 60, 40),
        ];
        let selfs: Vec<u64> = (0..spans.len()).map(|i| self_ns(&spans, i)).collect();
        assert_eq!(selfs, vec![0, 20, 25, 5, 10, 40]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn identical_intervals_nest_in_listing_order() {
        let spans = vec![span("bench", 5, 10), span("program", 5, 10)];
        assert_eq!(self_ns(&spans, 0), 0);
        assert_eq!(self_ns(&spans, 1), 10);
    }

    #[test]
    fn spans_outside_do_not_count() {
        let spans = vec![span("p", 10, 10), span("before", 0, 12), span("after", 18, 5)];
        assert_eq!(self_ns(&spans, 0), 10);
    }

    #[test]
    fn coverage_counts_nested_same_name_once() {
        let spans = vec![span("loess", 0, 50), span("loess", 10, 10), span("other", 0, 100)];
        assert_eq!(coverage_ns(&spans, "loess", 0, 100), 50);
        assert_eq!(coverage_ns(&spans, "loess", 5, 100), 10);
    }
}
