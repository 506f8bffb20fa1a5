//! `analyze`: the paper's white-box stage 3 on a fig04-style campaign.
//!
//! One op runs `segment()` on each MPI operation's raw points (about
//! 2000 per operation), fits `NetworkModel` at the breakpoints the
//! ping-pong segmentation found, and runs `analyze_cells`. Ops alternate
//! between a campaign with replicated sizes ("tied": 100 sizes × 20
//! replicates) and one with all-distinct sizes of the same count
//! ("untied": 2000 sizes × 1), so a tie-aware segmentation shows its
//! gain on the first and no change on the second.
//!
//! Today `segment()` fails on most tied campaigns. Those ops count as
//! failed; the check is that every op reproduces the breakpoints, or
//! the error, that set-up computed for the same campaign.

use crate::{derive_seed, stats, OpOutcome, Pass, Size, Workload};
use charm_analysis::segmented::{segment, SegmentConfig};
use charm_core::models::NetworkModel;
use charm_core::pipeline::{analyze_cells, Study};
use charm_design::doe::FullFactorial;
use charm_design::{sampling, Factor};
use charm_engine::target::NetworkTarget;
use charm_engine::CampaignData;
use charm_simnet::presets;
use charm_trace::Profiler;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The MPI operations of Figure 4, in the order segmented.
const OPS: [&str; 3] = ["async_send", "blocking_recv", "ping_pong"];

/// A fig04-style campaign: `n_sizes` distinct log-uniform sizes ×
/// `reps` replicates of the three operations on taurus, randomized.
fn campaign(seed: u64, n_sizes: usize, reps: u32) -> Result<CampaignData, String> {
    let sizes: Vec<i64> = sampling::log_uniform_sizes_unique(8, 1 << 22, n_sizes, seed)
        .into_iter()
        .map(|s| s as i64)
        .collect();
    let plan = FullFactorial::new()
        .factor(Factor::new("op", OPS.to_vec()))
        .factor(Factor::new("size", sizes))
        .replicates(reps)
        .build()
        .map_err(|e| format!("plan: {e}"))?;
    let target = NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed));
    let study = Study::new(plan).randomized(seed);
    let shards = Study::auto_shards(study.plan().len());
    study.run_sharded(&target, shards).map_err(|e| format!("campaign: {e}"))
}

/// One of the two campaigns ops alternate between.
struct Input {
    kind: &'static str,
    data: CampaignData,
    /// Set-up's stage-3 result, which every op must reproduce.
    reference: Stage3,
}

/// Set-up state: the tied and untied campaigns.
pub struct Analyze {
    inputs: [Input; 2],
}

/// What stage 3 produced on one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage3 {
    /// Per operation: the breakpoints `segment()` chose, or its error.
    pub segments: Vec<Result<Vec<f64>, String>>,
    /// The model fit's error, if it ran and failed.
    pub fit: Option<Result<(), String>>,
    /// Cells `analyze_cells` summarized.
    pub cells: usize,
}

impl Stage3 {
    /// The first error, if any call returned one.
    pub fn error(&self) -> Option<String> {
        let seg = self
            .segments
            .iter()
            .zip(OPS)
            .find_map(|(r, op)| r.as_ref().err().map(|e| format!("{op}: segment: {e}")));
        seg.or_else(|| match &self.fit {
            Some(Err(e)) => Some(format!("fit: {e}")),
            _ => None,
        })
    }
}

/// Stage 3 on `data`, each call inside its own span.
pub fn stage3(data: &CampaignData, kind: &str, profiler: &Profiler) -> Stage3 {
    let span = format!("analysis.segment_{kind}");
    let segments: Vec<Result<Vec<f64>, String>> = OPS
        .iter()
        .map(|op| {
            let sub = data.filtered("op", |l| l.as_text() == Some(op));
            let (x, y) = sub.paired("size").ok_or("no numeric size factor")?;
            let _g = profiler.span(&span);
            segment(&x, &y, &SegmentConfig::default())
                .map(|s| s.breakpoints)
                .map_err(|e| e.to_string())
        })
        .collect();
    let fit = match segments.as_slice() {
        [Ok(_), Ok(_), Ok(ping_pong)] => {
            let breakpoints: Vec<u64> = ping_pong.iter().map(|b| b.round() as u64).collect();
            let _g = profiler.span("analysis.fit");
            Some(
                NetworkModel::fit(data, &breakpoints)
                    .map(|m| drop(black_box(m)))
                    .map_err(|e| e.to_string()),
            )
        }
        _ => None,
    };
    let cells = {
        let _g = profiler.span("analysis.cells");
        black_box(analyze_cells(data, &["op", "size"])).len()
    };
    Stage3 { segments, fit, cells }
}

impl Analyze {
    /// Builds the workload's set-up state (see [`Workload`]).
    pub fn setup(seed: u64, size: Size, _out: &Path) -> Result<Analyze, String> {
        let (tied, untied) = match size {
            Size::Full => ((100, 20), (2000, 1)),
            Size::Tiny => ((12, 5), (60, 1)),
        };
        let input = |kind, (n, reps), stream| -> Result<Input, String> {
            let data = campaign(derive_seed(seed, stream), n, reps)?;
            let reference = stage3(&data, kind, &Profiler::disabled());
            Ok(Input { kind, data, reference })
        };
        Ok(Analyze { inputs: [input("tied", tied, 1)?, input("untied", untied, 2)?] })
    }
}

impl Workload for Analyze {
    fn measure(&mut self, budget: Duration, profiler: &Profiler) -> Pass {
        let mut calls = [(0u64, 0u64); 2]; // (segment calls, failed) per input
        let mut pass = crate::run_sequential(budget, 2, |i| {
            let k = (i % 2) as usize;
            let input = &self.inputs[k];
            let t0 = Instant::now();
            let result = stage3(&input.data, input.kind, profiler);
            let latency = t0.elapsed();
            calls[k].0 += result.segments.len() as u64;
            calls[k].1 += result.segments.iter().filter(|r| r.is_err()).count() as u64;
            let error = result.error().map(|e| format!("{}: {e}", input.kind));
            if result != input.reference {
                let detail =
                    Some(format!("{}: stage 3 differs from the set-up reference", input.kind));
                return OpOutcome { latency, ok: error.is_none(), correct: false, detail };
            }
            OpOutcome { latency, ok: error.is_none(), correct: true, detail: error }
        });
        if profiler.is_enabled() {
            pass.spans = profiler.take();
            let per_call = |name: &str| {
                let v: Vec<f64> = pass
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_ns as f64 / 1e6)
                    .collect();
                stats::median(&v)
            };
            let ratio = |(n, failed): (u64, u64)| (n > 0).then(|| failed as f64 / n as f64);
            pass.bases = vec![format!(
                "analysis.segment_{{tied,untied}}_fail_ratio = failed / attempted segment() calls: tied {}/{}, untied {}/{}",
                calls[0].1, calls[0].0, calls[1].1, calls[1].0
            )];
            pass.layer = vec![
                ("analysis.segment_tied_ms".into(), per_call("analysis.segment_tied")),
                ("analysis.segment_untied_ms".into(), per_call("analysis.segment_untied")),
                ("analysis.segment_tied_fail_ratio".into(), ratio(calls[0])),
                ("analysis.segment_untied_fail_ratio".into(), ratio(calls[1])),
                ("analysis.fit_ms".into(), per_call("analysis.fit")),
                ("analysis.cells_ms".into(), per_call("analysis.cells")),
            ];
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_alternate_and_reproduce_the_reference() {
        let mut bench = Analyze::setup(11, Size::Tiny, Path::new(".")).unwrap();
        let pass = bench.measure(Duration::ZERO, &Profiler::enabled());
        assert_eq!((pass.attempted, pass.incorrect), (2, 0), "{:?}", pass.failures);
        let names: Vec<&str> = pass.layer.iter().map(|m| m.0.as_str()).collect();
        assert!(names.contains(&"analysis.segment_tied_fail_ratio"));
        assert_eq!(bench.inputs.map(|i| i.kind), ["tied", "untied"]);
    }

    #[test]
    fn a_different_result_fails_the_check() {
        let mut bench = Analyze::setup(11, Size::Tiny, Path::new(".")).unwrap();
        bench.inputs[1].reference.cells += 1;
        let pass = bench.measure(Duration::ZERO, &Profiler::disabled());
        assert_eq!(pass.incorrect, 1);
    }
}
