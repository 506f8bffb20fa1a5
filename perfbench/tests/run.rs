//! Whole runs in tiny sizes: every workload measures and checks out,
//! and a traced run reports every per-layer metric and writes a trace
//! whose spans parse back.

use charm_perfbench::{run, Args, Size, END_TO_END, LAYER_METRICS, WORKLOADS};

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args { workload: workload.into(), seed, seconds: 1, trace }
}

#[test]
fn every_workload_runs_untraced() {
    for (seed, workload) in WORKLOADS.iter().enumerate() {
        let report = run(&args(workload, seed as u64, false), Size::Tiny).unwrap();
        assert!(report.correct, "{workload}: {:?}", report.notes);
        assert!(report.attempted >= 1);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{workload}");
        let line = report.render().unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
    }
}

#[test]
fn traced_run_reports_every_layer_and_a_parsable_trace() {
    let report = run(&args("analyze", 40, true), Size::Tiny).unwrap();
    assert!(report.correct, "{:?}", report.notes);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, LAYER_METRICS.map(|(n, _)| n));
    report.render().unwrap();
    let trace = charm_perfbench::out_dir().join("trace-analyze-seed40.json");
    let text = std::fs::read_to_string(&trace).unwrap();
    let events = charm_trace::chrome::parse(&text).unwrap();
    assert!(events.iter().any(|e| e.name == "analysis.segment_untied"));
    assert!(events.iter().any(|e| e.name == "core.fig04"), "the figures probe is traced too");
    std::fs::remove_file(trace).ok();
}

#[test]
fn benchmark_json_lists_the_metrics_this_binary_reports() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    for (name, unit) in END_TO_END.iter().chain(LAYER_METRICS.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\"")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
}
