//! `perfbench`: end-to-end and per-layer measurements of charm's four
//! user paths, driven in-process through the same public functions the
//! binaries call. See `README.md` for why each workload exists and
//! which layers it stresses or bypasses.
//!
//! A run is `perfbench --workload W --seed N --seconds S --trace 0|1`.
//! Untraced (`--trace 0`), it sets the workload up several times (see
//! [`SETUP_MIN_REPS`]), measures ops for `S` seconds with tracing off,
//! and reports the end-to-end metrics. Traced (`--trace 1`), it measures `S/2` seconds
//! untraced and `S/2` traced to get [`TRACE_OVERHEAD`], takes the
//! workload's per-layer metrics from the traced half, and probes the
//! other three workloads briefly so every layer of [`LAYER_METRICS`] is
//! measured in every traced run. Spans stay in memory and are written
//! once at the end as a Chrome trace.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod archive;
pub mod figures;
pub mod serve;
pub mod spans;
pub mod stats;

use charm_obs::json;
use charm_trace::{chrome, Profiler, WallSpan};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed the committed `results/` artifacts were made with.
pub const DEFAULT_SEED: u64 = 20170529;

/// An untraced run sets up at least [`SETUP_MIN_REPS`] times, and more
/// while set-up has taken less than [`SETUP_MIN_TOTAL`] in all, up to
/// [`SETUP_MAX_REPS`]; `setup_s` is the median. Cheap set-ups get more
/// samples than expensive ones.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 101;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_TOTAL: Duration = Duration::from_millis(1500);

/// Measuring time of each probe of another workload in a traced run.
const PROBE_BUDGET: Duration = Duration::from_millis(600);

/// The workloads, in the order traced runs probe them.
pub const WORKLOADS: [&str; 4] = ["figures", "archive", "analyze", "serve"];

/// The end-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// The traced p50 against the untraced p50 of the same run, in %.
pub const TRACE_OVERHEAD: &str = "trace.overhead_pct";

/// Every per-layer metric of a traced run: name and unit. The first
/// word names the crate whose layer it measures.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("core.table05_ms", "ms"),
    ("core.fig03_ms", "ms"),
    ("core.fig04_ms", "ms"),
    ("core.fig07_ms", "ms"),
    ("core.fig08_ms", "ms"),
    ("core.fig09_ms", "ms"),
    ("core.fig10_ms", "ms"),
    ("core.fig11_ms", "ms"),
    ("core.fig12_ms", "ms"),
    ("core.fig13_ms", "ms"),
    ("core.convolution_ms", "ms"),
    ("analysis.loess_ms", "ms"),
    ("engine.figures_run_ms", "ms"),
    ("design.compile_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.checkpoint_segments", "count"),
    ("store.session_ms", "ms"),
    ("store.put_run_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.serialize_ms", "ms"),
    ("store.digest_mb_per_s", "MB/s"),
    ("store.write_amplification", "ratio"),
    ("store.archive_overhead", "ratio"),
    ("simnet.ns_per_row", "ns"),
    ("analysis.segment_tied_ms", "ms"),
    ("analysis.segment_untied_ms", "ms"),
    ("analysis.segment_tied_fail_ratio", "ratio"),
    ("analysis.segment_untied_fail_ratio", "ratio"),
    ("analysis.fit_ms", "ms"),
    ("analysis.cells_ms", "ms"),
    ("serve.fresh_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.first_record_ms", "ms"),
    ("serve.rows_per_s", "1/s"),
    ("serve.dedupe_hits", "count"),
    ("serve.rejections", "count"),
    ("serve.p90_ms", "ms"),
    (TRACE_OVERHEAD, "%"),
];

/// Input sizes: `Full` is the benchmark, `Tiny` keeps tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs for the benchmark's own tests.
    Tiny,
}

/// One metric value. A value that could not be measured is NaN, which
/// [`Report::render`] refuses.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from an optional measurement (`None` → NaN).
    pub fn new(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value: value.unwrap_or(f64::NAN), unit }
    }
}

/// A per-layer metric a traced pass measured: name, as in
/// [`LAYER_METRICS`], and value (`None` when nothing was measured).
pub type Layer = (String, Option<f64>);

/// The outcome of one op, timed by the workload.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Wall time of the op's timed section.
    pub latency: Duration,
    /// The program's calls returned no error.
    pub ok: bool,
    /// The op's outputs passed their correctness check.
    pub correct: bool,
    /// Why the op failed, when it did.
    pub detail: Option<String>,
}

/// What one measured pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency samples (ms): one per attempted op, failed ones
    /// included, or one per round (see [`run_sequential`]).
    pub latencies_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or failed their check.
    pub failed: u64,
    /// Ops that failed their correctness check.
    pub incorrect: u64,
    /// The time ops were in flight (s): the sum of op latencies for a
    /// sequential workload, the load phase's wall time for `serve`.
    pub busy_s: f64,
    /// Per-layer metrics (traced passes only).
    pub layer: Vec<Layer>,
    /// Distinct failure details, for the run log.
    pub failures: Vec<String>,
    /// The traced pass's spans.
    pub spans: Vec<WallSpan>,
    /// The bases of the traced pass's ratios and rates.
    pub bases: Vec<String>,
}

impl Pass {
    /// Folds one op outcome in.
    pub fn record(&mut self, op: OpOutcome) {
        self.attempted += 1;
        self.latencies_ms.push(op.latency.as_secs_f64() * 1e3);
        if !op.ok || !op.correct {
            self.failed += 1;
        }
        if !op.correct {
            self.incorrect += 1;
        }
        if let Some(d) = op.detail {
            if !self.failures.contains(&d) {
                self.failures.push(d);
            }
        }
    }
}

/// A workload's set-up state and its measuring loop. Each workload
/// module also has `setup(seed, size, out)`, which builds everything
/// the ops need; `out` is the directory for store roots, and each
/// set-up uses a fresh one that it removes on drop.
pub trait Workload {
    /// Runs ops for at least `budget`. When `profiler` is enabled it is
    /// installed as the calling thread's ambient profiler (see
    /// [`measure`]), and the pass carries its spans and per-layer
    /// metrics.
    fn measure(&mut self, budget: Duration, profiler: &Profiler) -> Pass;
}

/// Runs `op(i)` for `i = 0, 1, …` until `budget` has passed and a
/// whole number of `round`s is done, so ops that alternate inputs keep
/// their mix exact. With `round > 1` the latency samples are each
/// round's mean op latency: ops that alternate inputs of different
/// cost form two modes, and a median over single ops would fall
/// between them.
pub fn run_sequential(budget: Duration, round: u64, mut op: impl FnMut(u64) -> OpOutcome) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || i % round != 0 || start.elapsed() < budget {
        let outcome = op(i);
        pass.busy_s += outcome.latency.as_secs_f64();
        pass.record(outcome);
        i += 1;
    }
    if round > 1 {
        let n = round as usize;
        pass.latencies_ms =
            pass.latencies_ms.chunks(n).map(|c| c.iter().sum::<f64>() / n as f64).collect();
    }
    pass
}

/// Where store roots, traces and result records go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The committed paper artifacts.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("results")
}

/// A store root that is removed when dropped. Removal is teardown and
/// never falls inside a timed section.
#[derive(Debug)]
pub struct ScratchRoot(PathBuf);

impl ScratchRoot {
    /// Creates a fresh, empty directory `out/<tag>-<pid>-<n>`.
    pub fn new(out: &Path, tag: &str) -> Result<ScratchRoot, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchRoot(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `f`, turning a panic into `Err` with its message. Some inputs
/// make the program panic; the op that hits one counts as failed
/// instead of ending the run.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(s), _) => format!("panic: {s}"),
            (_, Some(s)) => format!("panic: {s}"),
            _ => "panic".to_string(),
        }
    })
}

/// SplitMix64: derives independent seeds from the run's seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The facts a result depends on, recorded beside it.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores available to this process.
    pub cores: usize,
    /// The store roots' filesystem: `tmpfs`, or `disk (<type>)`.
    pub store_fs: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The run's seed.
    pub seed: u64,
}

impl Host {
    /// Facts of this process, for store roots under `out`.
    pub fn current(seed: u64, out: &Path) -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            store_fs: filesystem_of(out),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            seed,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"store_fs\":{},\"profile\":\"{}\",\"seed\":{}}}",
            self.cores,
            json::string(&self.store_fs),
            self.profile,
            self.seed
        )
    }
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let fstype = mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map(|(_, t)| t);
    match fstype.as_deref() {
        Some("tmpfs" | "ramfs") => "tmpfs".to_string(),
        Some(t) => format!("disk ({t})"),
        None => "unknown".to_string(),
    }
}

/// The process's peak resident set (MB), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || value.parse::<u64>().map_err(|_| format!("{flag}: bad value {value:?}"));
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be at least 1")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The result of a run: the final JSON line's fields plus what the run
/// log records beside them.
#[derive(Debug, Clone)]
pub struct Report {
    /// No op failed its correctness check.
    pub correct: bool,
    /// Ops attempted in the measured pass(es).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Sample counts, ratio bases and failures.
    pub notes: Vec<String>,
    /// Host facts.
    pub host: Host,
}

impl Report {
    /// The final stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. Errors on a value that is not finite.
    pub fn render(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} was not measured", m.name));
            }
            metrics
                .push(format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }

    /// The run record written beside the result: host facts, notes and
    /// the result line.
    pub fn record(&self) -> Result<String, String> {
        let notes: Vec<String> = self.notes.iter().map(|n| json::string(n)).collect();
        Ok(format!(
            "{{\"host\":{},\"notes\":[{}],\"result\":{}}}\n",
            self.host.to_json(),
            notes.join(","),
            self.render()?
        ))
    }
}

/// Sets up workload `name`.
pub fn setup(name: &str, seed: u64, size: Size, out: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "figures" => Box::new(figures::Figures::setup(seed, size, out)?),
        "archive" => Box::new(archive::Archive::setup(seed, size, out)?),
        "analyze" => Box::new(analyze::Analyze::setup(seed, size, out)?),
        "serve" => Box::new(serve::Serve::setup(seed, size, out)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs one pass, with an enabled `profiler` installed as this thread's
/// ambient profiler so the program's own spans land in it too.
pub fn measure(bench: &mut dyn Workload, budget: Duration, profiler: &Profiler) -> Pass {
    if profiler.is_enabled() {
        profiler.install_thread("main");
    }
    let pass = bench.measure(budget, profiler);
    Profiler::uninstall_thread();
    pass
}

/// Runs one benchmark invocation.
pub fn run(args: &Args, size: Size) -> Result<Report, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let host = Host::current(args.seed, &out);
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        traced(args, size, budget, &out, host)
    } else {
        untraced(args, size, budget, &out, host)
    }
}

fn untraced(
    args: &Args,
    size: Size,
    budget: Duration,
    out: &Path,
    host: Host,
) -> Result<Report, String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut bench = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_TOTAL.as_secs_f64()
            && setups.len() < SETUP_MAX_REPS)
    {
        drop(bench.take()); // teardown of the previous set-up, untimed
        let t0 = Instant::now();
        bench = Some(setup(&args.workload, args.seed, size, out)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let pass = measure(bench.as_mut(), budget, &Profiler::disabled());
    drop(bench);
    let values = [
        stats::median(&setups),
        stats::median(&pass.latencies_ms),
        Some(pass.attempted as f64 / pass.busy_s),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| Metric::new(n, v, u)).collect();
    let mut notes = vec![
        format!(
            "p50_ms over {} latency samples of {} ops",
            pass.latencies_ms.len(),
            pass.attempted
        ),
        format!(
            "setup_s is the median of {} set-ups ({:.6} s to {:.6} s)",
            setups.len(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            setups.iter().copied().fold(0.0, f64::max)
        ),
        format!("ops_per_s = {} ops / {:.3} s of ops in flight", pass.attempted, pass.busy_s),
    ];
    notes.extend(pass.failures.iter().map(|f| format!("failure: {f}")));
    Ok(Report {
        correct: pass.incorrect == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        notes,
        host,
    })
}

fn traced(
    args: &Args,
    size: Size,
    budget: Duration,
    out: &Path,
    host: Host,
) -> Result<Report, String> {
    let profiler = Profiler::enabled();
    let mut bench = setup(&args.workload, args.seed, size, out)?;
    let off = measure(bench.as_mut(), budget / 2, &Profiler::disabled());
    let on = measure(bench.as_mut(), budget / 2, &profiler);
    drop(bench);
    let p50_untraced = stats::median(&off.latencies_ms);
    let p50_traced = stats::median(&on.latencies_ms);
    let overhead = p50_untraced.zip(p50_traced).map(|(u, t)| (t / u - 1.0) * 100.0);
    let mut notes = vec![format!(
        "{TRACE_OVERHEAD}: traced p50 {:.3} ms over {} samples vs untraced p50 {:.3} ms over {} samples (base)",
        p50_traced.unwrap_or(f64::NAN),
        on.latencies_ms.len(),
        p50_untraced.unwrap_or(f64::NAN),
        off.latencies_ms.len()
    )];
    let mut correct = off.incorrect == 0 && on.incorrect == 0;
    for pass in [&off, &on] {
        notes.extend(pass.failures.iter().map(|f| format!("failure: {f}")));
    }
    let (attempted, failed) = (off.attempted + on.attempted, off.failed + on.failed);
    notes.extend(on.bases.iter().map(|b| format!("base: {b}")));
    let (mut layer, mut spans) = (on.layer, on.spans);
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let mut probe = setup(other, args.seed, size, out)?;
        let pass = measure(probe.as_mut(), PROBE_BUDGET, &profiler);
        drop(probe);
        notes.push(format!("probe {other}: {} ops", pass.attempted));
        notes.extend(pass.failures.iter().map(|f| format!("probe {other} failure: {f}")));
        notes.extend(pass.bases.iter().map(|b| format!("probe {other} base: {b}")));
        correct &= pass.incorrect == 0;
        layer.extend(pass.layer);
        spans.extend(pass.spans);
    }
    layer.push((TRACE_OVERHEAD.into(), overhead));
    let mut metrics = Vec::new();
    for (name, unit) in LAYER_METRICS {
        let (_, value) = layer
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("no traced pass measured {name}"))?;
        metrics.push(Metric::new(name, *value, unit));
    }
    let path = out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    write_trace(&path, &spans)?;
    notes.push(format!("trace: {} spans in {}", spans.len(), path.display()));
    Ok(Report { correct, attempted, failed, metrics, notes, host })
}

/// Writes the spans as a Chrome trace and checks that every span
/// parses back.
pub fn write_trace(path: &Path, spans: &[WallSpan]) -> Result<(), String> {
    let text = chrome::export(spans, &[]);
    std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let back =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let events = chrome::parse(&back)?;
    let parsed = events.iter().filter(|e| e.ph == "X").count();
    if parsed != spans.len() {
        return Err(format!("trace holds {parsed} spans, {} were recorded", spans.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = args("--workload serve --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve", 3, 10, true));
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload serve --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload serve --seconds 10 --trace 0").is_err());
        assert!(args("--workload serve --seed").is_err());
    }

    #[test]
    fn sequential_loop_finishes_whole_rounds() {
        let pass = run_sequential(Duration::ZERO, 2, |i| OpOutcome {
            latency: Duration::from_millis(1 + 2 * i),
            ok: i % 2 == 0,
            correct: true,
            detail: (i % 2 == 1).then(|| "odd".to_string()),
        });
        assert_eq!((pass.attempted, pass.failed, pass.incorrect), (2, 1, 0));
        assert_eq!(pass.failures, vec!["odd".to_string()]);
        assert_eq!(pass.latencies_ms, vec![2.0], "one sample per round: its mean op latency");
    }

    #[test]
    fn render_refuses_unmeasured_values() {
        let host = Host::current(1, Path::new("."));
        let mut r = Report {
            correct: true,
            attempted: 2,
            failed: 0,
            metrics: vec![Metric::new("p50_ms", Some(1.25), "ms")],
            notes: vec!["a \"quoted\" note".into()],
            host,
        };
        assert_eq!(
            r.render().unwrap(),
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert!(r.record().unwrap().contains("a \\\"quoted\\\" note"));
        r.metrics.push(Metric::new("setup_s", None, "s"));
        assert!(r.render().is_err());
    }

    #[test]
    fn panics_become_errors() {
        assert_eq!(catch_panic(|| 3), Ok(3));
        let msg = catch_panic(|| -> u8 { panic!("fit: {}", "DegeneratePredictor") });
        assert_eq!(msg, Err("panic: fit: DegeneratePredictor".to_string()));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
