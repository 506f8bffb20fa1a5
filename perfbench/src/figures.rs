//! `figures`: the paper-regeneration path.
//!
//! One op is the full-mode `all_figures` sequence, `table05` through
//! `convolution`, calling the same `charm_core::experiments` entry
//! points in the same order and stamping each CSV the way the binary
//! does, but keeping the CSVs in memory instead of writing `results/`.
//! `simmem`, `simnet`, `core` and LOESS do almost all of the work;
//! `store` and `serve` do none.

use crate::{spans, stats, OpOutcome, Pass, Size, Workload};
use charm_bench::csvout;
use charm_core::experiments::{
    convolution, fig03, fig04, fig07, fig08, fig09, fig10, fig11, fig12, fig13, table05,
};
use charm_trace::Profiler;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The experiments in `all_figures` order; `core.<name>_ms` is each
/// one's self time.
pub const EXPERIMENTS: [&str; 11] = [
    "table05",
    "fig03",
    "fig04",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "convolution",
];

/// `(file name, stamped CSV)` for every artifact, in write order.
pub type Artifacts = Vec<(String, String)>;

fn stamped(name: &str, generator: &str, seed: Option<u64>, observed: bool, body: &str) -> String {
    let a = csvout::artifact(name).meta("generator", generator);
    let a = match seed {
        Some(seed) => a.meta("seed", seed),
        None => a,
    };
    a.observed(observed).stamped(body)
}

/// Runs the `all_figures` sequence at `seed`. `quick` is the binary's
/// `--quick` replicate counts. Each experiment (run, CSV, terminal
/// report) sits inside a `core.<experiment>` span of `profiler`.
pub fn sequence(seed: u64, quick: bool, profiler: &Profiler) -> Artifacts {
    let mut out = Artifacts::new();
    let mut put = |name: &str, generator: &str, seed: Option<u64>, observed: bool, body: &str| {
        out.push((name.to_string(), stamped(name, generator, seed, observed, body)));
    };
    let s = Some(seed);
    {
        let _g = profiler.span("core.table05");
        let t = table05::run();
        put("table05.csv", "table05", None, false, &t.to_csv());
        black_box(t.report());
    }
    {
        let _g = profiler.span("core.fig03");
        let f = fig03::run(seed);
        put("fig03.csv", "fig03", s, false, &f.to_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig04");
        let f = fig04::run(seed, if quick { 30 } else { 100 }, 20);
        put("fig04_raw.csv", "fig04", s, false, &f.raw_csv());
        put("fig04_model.csv", "fig04", s, false, &f.summary_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig07");
        let f = fig07::run(seed, if quick { 4 } else { 10 });
        put("fig07.csv", "fig07", s, false, &f.to_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig08");
        let f = fig08::run(seed, if quick { 10 } else { 42 });
        put("fig08_raw.csv", "fig08", s, false, &f.raw_csv());
        put("fig08_trends.csv", "fig08", s, false, &f.trend_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig09");
        let f = fig09::run(seed, if quick { 4 } else { 10 });
        put("fig09.csv", "fig09", s, false, &f.to_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig10");
        let f = fig10::run(seed, if quick { 10 } else { 42 });
        put("fig10.csv", "fig10", s, true, &f.to_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig11");
        let f = fig11::run(seed);
        put("fig11_raw.csv", "fig11", s, true, &f.raw_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig12");
        let f = fig12::run(seed);
        put("fig12.csv", "fig12", s, false, &f.to_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.fig13");
        let f = fig13::run();
        put("fig13.csv", "fig13", None, false, &f.to_csv());
        black_box(f.report());
    }
    {
        let _g = profiler.span("core.convolution");
        let c = convolution::run(seed);
        put("convolution.csv", "convolution", s, false, &c.to_csv());
        black_box(c.report());
    }
    out
}

/// The committed `fig04_raw.csv` records the shard count it was made
/// with; shard count moves its clock offsets and `start_us` column, so
/// the committed comparison pins the same count.
fn committed_shards(committed_fig04_raw: &str) -> Option<String> {
    committed_fig04_raw
        .lines()
        .take_while(|l| l.starts_with('#'))
        .find_map(|l| l.strip_prefix("# shards: ").map(str::to_string))
}

/// Regenerates the default-seed figures and compares every artifact
/// byte for byte with the committed copy in `results`.
pub fn check_committed(results: &Path) -> Result<(), String> {
    let read = |name: &str| {
        std::fs::read_to_string(results.join(name))
            .map_err(|e| format!("read committed {name}: {e}"))
    };
    let shards = committed_shards(&read("fig04_raw.csv")?)
        .ok_or("committed fig04_raw.csv records no shard count")?;
    let previous = std::env::var("CHARM_SHARDS").ok();
    std::env::set_var("CHARM_SHARDS", &shards);
    let artifacts = sequence(crate::DEFAULT_SEED, false, &Profiler::disabled());
    match previous {
        Some(v) => std::env::set_var("CHARM_SHARDS", v),
        None => std::env::remove_var("CHARM_SHARDS"),
    }
    for (name, text) in &artifacts {
        if *text != read(name)? {
            return Err(format!("{name} differs from the committed results/{name}"));
        }
    }
    Ok(())
}

/// Set-up state: the reference outcome every op must reproduce.
pub struct Figures {
    seed: u64,
    quick: bool,
    /// The artifacts, or the panic some seeds provoke (see README).
    reference: Result<Artifacts, String>,
}

impl Figures {
    /// Builds the workload's set-up state (see [`Workload`]).
    pub fn setup(seed: u64, size: Size, _out: &Path) -> Result<Figures, String> {
        let quick = size == Size::Tiny;
        if !quick {
            check_committed(&crate::results_dir())?;
        }
        let reference = crate::catch_panic(|| sequence(seed, quick, &Profiler::disabled()));
        Ok(Figures { seed, quick, reference })
    }
}

impl Workload for Figures {
    fn measure(&mut self, budget: Duration, profiler: &Profiler) -> Pass {
        let mut pass = crate::run_sequential(budget, 1, |_| {
            let _op = profiler.span("figures.op");
            let t0 = Instant::now();
            let result = crate::catch_panic(|| sequence(self.seed, self.quick, profiler));
            let latency = t0.elapsed();
            let correct = result == self.reference;
            let detail = match (&result, correct) {
                (_, false) => Some("figures differ from the set-up reference".into()),
                (Err(panic), true) => Some(format!("figures: {panic}")),
                (Ok(_), true) => None,
            };
            OpOutcome { latency, ok: result.is_ok(), correct, detail }
        });
        if profiler.is_enabled() {
            pass.spans = profiler.take();
            pass.layer = layers(&pass.spans);
        }
        pass
    }
}

/// Per-op medians: each experiment's self time, and the wall time the
/// program's own `analysis.loess` and `engine.run` spans cover.
fn layers(all: &[charm_trace::WallSpan]) -> Vec<crate::Layer> {
    // The calling thread's tracks; shard threads record on `shardN`.
    let spans: Vec<_> =
        all.iter().filter(|s| s.track == "main" || s.track == "engine").cloned().collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = Vec::new();
    for exp in EXPERIMENTS {
        let name = format!("core.{exp}");
        let selfs: Vec<f64> = (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .map(|i| ms(spans::self_ns(&spans, i)))
            .collect();
        out.push((format!("core.{exp}_ms"), stats::median(&selfs)));
    }
    let ops: Vec<_> = spans.iter().filter(|s| s.name == "figures.op").collect();
    let per_op = |program_span: &str| -> Vec<f64> {
        ops.iter()
            .map(|op| ms(spans::coverage_ns(&spans, program_span, op.start_ns, op.end_ns())))
            .collect()
    };
    out.push(("analysis.loess_ms".into(), stats::median(&per_op("analysis.loess"))));
    out.push(("engine.figures_run_ms".into(), stats::median(&per_op("engine.run"))));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_shard_count_is_read_from_the_header() {
        let text = "# batches: 1\n# shards: 3\nop,size\n# shards: 9\n";
        assert_eq!(committed_shards(text).as_deref(), Some("3"));
        assert_eq!(committed_shards("op,size\n"), None);
    }
}
