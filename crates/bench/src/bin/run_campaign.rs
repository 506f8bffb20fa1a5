//! Run a campaign and write the raw campaign CSV — from a declarative
//! benchmark spec (`--benchmark`), or from the legacy experiment DSL.
//!
//! ```text
//! run_campaign --benchmark SPEC.toml [--param NAME=VALUE]... [flags]
//! run_campaign <plan.dsl> <platform> [flags]
//!
//! flags: [--seed N] [--shards N] [--min-rows-per-shard N] [--out DIR]
//!        [--obs-jsonl] [--store DIR] [--resume RUN_ID]
//! platforms: taurus | myrinet | openmpi | opteron | pentium4 | i7 | arm
//! ```
//!
//! **Spec mode** (`--benchmark`, DESIGN.md §15): the TOML file declares
//! factors, replicates, ordering, and a `[target]` the registry
//! resolves — a simulated network/memory platform, or `model =
//! "external"`: a benchmark *engine subprocess* speaking the KLV
//! protocol (bring your own benchmark). External engines run the
//! sequential campaign path (a subprocess cannot be forked), and their
//! `runner.*` frame/restart/timeout counters land in the `--obs-jsonl`
//! report.
//!
//! **DSL mode** is unchanged: network plans need factors `op` and
//! `size`; memory plans need `size_bytes` (plus optional `stride`,
//! `width`, `unroll`, `nloops`).
//!
//! Exit codes: `2` — bad spec/usage (TOML or DSL parse error, unknown
//! target or platform name, contradictory flags); `3` — target or
//! protocol error (KLV timeout, malformed frame, I/O); `4` — the
//! engine subprocess exited nonzero or died (captured stderr is in the
//! message).
//!
//! `--shards N` fans the campaign out over N forks of the target (all
//! in-process platforms are shard-invariant, so the records are
//! identical to a sequential run — see DESIGN.md on the determinism
//! contract). The default is [`Study::auto_shards`]: sequential below
//! the row threshold, one shard per core above it. The engine also
//! clamps workers to one per `--min-rows-per-shard` plan rows (default
//! [`charm_engine::DEFAULT_MIN_ROWS_PER_SHARD`]); pass `1` to take the
//! shard count literally on tiny plans. `--obs-jsonl` also writes the
//! campaign's counters and provenance events next to the CSV.
//!
//! `--store DIR` archives the campaign into a `charm_store` store:
//! finished shards are flushed as checkpoint segments while the run is
//! still going, and the final records + manifest are archived under a
//! run ID derived from `(plan, target, seed, shards)` (printed as
//! `archived run <id>`). `--resume RUN_ID` replays the finished shards
//! of that interrupted run and executes only the missing ones — the
//! resumed records are bit-identical to an uninterrupted run. The given
//! ID must match what the current plan/platform/seed/shards derive, so
//! a resume can never silently splice a different campaign's data —
//! not even the same plan run against a different platform. (External
//! engines archive the finished run but have no shard checkpoints, so
//! `--resume` does not apply to them.)

use charm_bench::cli::CommonArgs;
use charm_bench::specload;
use charm_core::pipeline::Study;
use charm_design::dsl;
use charm_design::plan::ExperimentPlan;
use charm_engine::registry::{self, ResolvedTarget};
use charm_engine::target::{MemoryTarget, NetworkTarget, Target};
use charm_engine::{Campaign, CampaignRun, ParallelTarget, TargetError};
use charm_obs::Observer;
use charm_runner::ExternalTarget;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;
use std::process::ExitCode;

const USAGE_POSITIONAL: &str = "<plan.dsl> <platform>";

fn machine(spec: CpuSpec, seed: u64) -> MachineSim {
    MachineSim::new(
        spec,
        GovernorPolicy::Performance,
        SchedPolicy::PinnedDefault,
        AllocPolicy::PooledRandomOffset,
        seed,
    )
}

/// Concrete target dispatch: the sharded builder forks the target, which
/// needs the concrete type (`ParallelTarget` is not object-safe).
enum Platform {
    Net(Box<NetworkTarget>),
    Mem(Box<MemoryTarget>),
}

fn net(name: &'static str, sim: charm_simnet::NetworkSim) -> Platform {
    Platform::Net(Box::new(NetworkTarget::new(name, sim)))
}

fn mem(name: &str, spec: CpuSpec, seed: u64) -> Platform {
    Platform::Mem(Box::new(MemoryTarget::new(name, machine(spec, seed))))
}

#[allow(clippy::too_many_arguments)]
fn execute<T: ParallelTarget>(
    plan: &ExperimentPlan,
    target: T,
    shards: usize,
    shuffle_seed: Option<u64>,
    min_rows_per_shard: Option<usize>,
    observe: bool,
    sink: Option<&charm_store::CheckpointSession>,
    resume: bool,
) -> Result<CampaignRun, TargetError> {
    let mut sharded = Campaign::new(plan, target).shards(shards).seed(shuffle_seed);
    if let Some(min_rows) = min_rows_per_shard {
        sharded = sharded.min_rows_per_shard(min_rows);
    }
    if let Some(sink) = sink {
        sharded = sharded.store(sink).resume(resume);
    }
    let sharded = if observe { sharded.observer(Observer::default()) } else { sharded };
    sharded.run()
}

/// Writes the artifacts and archives the run under its campaign key;
/// shared by every mode.
fn finish_run(
    session: charm_bench::profile::Session,
    label: &str,
    archive: Option<(&charm_store::Store, &charm_store::CampaignKey)>,
    run: &CampaignRun,
) -> ExitCode {
    let name = format!("campaign_{label}.csv");
    charm_bench::write_artifact(&name, &run.data.to_csv());
    if let Some(report) = &run.report {
        let name = format!("campaign_{label}_obs.jsonl");
        charm_bench::write_artifact(&name, &report.to_jsonl());
        session.attach_virtual(label, report);
    }
    if let Some((store, key)) = archive {
        let cli_args: Vec<String> = std::env::args().collect();
        match store.put_run(key, label, &cli_args.join(" "), &run.data, run.report.as_ref()) {
            Ok(id) => println!("archived run {id}"),
            Err(e) => {
                eprintln!("archive failed: {e}");
                return ExitCode::from(specload::EXIT_TARGET);
            }
        }
    }
    println!("{} raw measurements retained", run.data.records.len());
    session.finish();
    ExitCode::SUCCESS
}

/// Spec mode: `--benchmark SPEC.toml`.
fn run_benchmark(args: &CommonArgs, path: &str) -> ExitCode {
    let session = charm_bench::profile::Session::from_args(args);
    let resolved = match specload::load(path, args.seed, &args.params) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let target = match registry::resolve(&resolved.target, args.seed) {
        Ok(t) => t,
        Err(e) => return specload::bad_spec(e),
    };
    let plan = resolved.plan;
    println!("benchmark {}: {} rows, factors {:?}", resolved.name, plan.len(), plan.factor_names());

    match target {
        ResolvedTarget::External(spec) => {
            if args.shards.is_some_and(|n| n > 1) {
                eprintln!(
                    "external engines are sequential-only (a subprocess cannot be forked); \
                     drop --shards"
                );
                return ExitCode::from(specload::EXIT_BAD_SPEC);
            }
            if args.resume.is_some() {
                eprintln!("--resume does not apply to external engines (no shard checkpoints)");
                return ExitCode::from(specload::EXIT_BAD_SPEC);
            }
            let label = spec.label.clone();
            let engine = match ExternalTarget::spawn(spec) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot start engine: {e}");
                    return specload::exit_for(&e);
                }
            };
            let target_id = charm_store::target_identity(&engine);
            let store = match open_store(args) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let mut campaign = Campaign::new(&plan, engine).seed(resolved.order_seed);
            if args.obs_jsonl {
                campaign = campaign.observer(Observer::default());
            }
            match campaign.run() {
                Ok(run) => {
                    let archive = store.map(|store| {
                        (store, charm_store::CampaignKey::of(&plan, &target_id, Some(args.seed), 1))
                    });
                    finish_run(session, &label, archive.as_ref().map(|(s, k)| (s, k)), &run)
                }
                Err(e) => {
                    eprintln!("campaign failed: {e}");
                    specload::exit_for(&e)
                }
            }
        }
        ResolvedTarget::Network(t) => {
            run_sharded_mode(args, session, &t.name(), &plan, resolved.order_seed, Platform::Net(t))
        }
        ResolvedTarget::Memory(t) => {
            run_sharded_mode(args, session, &t.name(), &plan, resolved.order_seed, Platform::Mem(t))
        }
    }
}

fn open_store(args: &CommonArgs) -> Result<Option<charm_store::Store>, ExitCode> {
    match &args.store {
        Some(dir) => charm_store::Store::open(dir).map(Some).map_err(|e| {
            eprintln!("cannot open store: {e}");
            ExitCode::from(specload::EXIT_TARGET)
        }),
        None => Ok(None),
    }
}

/// The sharded in-process path, shared by spec mode and DSL mode.
fn run_sharded_mode(
    args: &CommonArgs,
    session: charm_bench::profile::Session,
    label: &str,
    plan: &ExperimentPlan,
    shuffle_seed: Option<u64>,
    platform: Platform,
) -> ExitCode {
    let shards = args.shards.unwrap_or_else(|| Study::auto_shards(plan.len()));

    // The target's identity folds into the run ID, so the same plan
    // against two platforms can never share a run directory.
    let target_id = match &platform {
        Platform::Net(t) => charm_store::target_identity(t.as_ref()),
        Platform::Mem(t) => charm_store::target_identity(t.as_ref()),
    };

    // Open the campaign store (and its checkpoint session for this
    // run's identity) before executing, so shards flush as they finish.
    let store_ctx = match &args.store {
        Some(_) => {
            let store = match open_store(args) {
                Ok(s) => s.expect("store flag present"),
                Err(code) => return code,
            };
            let key =
                charm_store::CampaignKey::of(plan, &target_id, Some(args.seed), shards as u64);
            let checkpoint = match store.open_session(key, plan.factor_names()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open checkpoint session: {e}");
                    return ExitCode::from(specload::EXIT_TARGET);
                }
            };
            if let Some(resume_id) = &args.resume {
                if resume_id != checkpoint.run_id().as_str() {
                    eprintln!(
                        "--resume {resume_id} does not match this campaign: \
                         plan/platform/seed/shards derive run {}",
                        checkpoint.run_id()
                    );
                    return ExitCode::from(specload::EXIT_BAD_SPEC);
                }
                println!("resuming run {resume_id}");
            }
            Some((store, checkpoint))
        }
        None => {
            if args.resume.is_some() {
                eprintln!("--resume requires --store DIR (the store holding the checkpoints)");
                return ExitCode::from(specload::EXIT_BAD_SPEC);
            }
            None
        }
    };
    let sink = store_ctx.as_ref().map(|(_, checkpoint)| checkpoint);
    let resume = args.resume.is_some();

    let min_rows = args.min_rows_per_shard;
    let result = match platform {
        Platform::Net(t) => {
            execute(plan, *t, shards, shuffle_seed, min_rows, args.obs_jsonl, sink, resume)
        }
        Platform::Mem(t) => {
            execute(plan, *t, shards, shuffle_seed, min_rows, args.obs_jsonl, sink, resume)
        }
    };
    match result {
        Ok(run) => {
            let archive = store_ctx.as_ref().map(|(store, checkpoint)| (store, checkpoint.key()));
            finish_run(session, label, archive, &run)
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            specload::exit_for(&e)
        }
    }
}

/// Legacy DSL mode: `<plan.dsl> <platform>`.
fn run_dsl(args: &CommonArgs) -> ExitCode {
    let session = charm_bench::profile::Session::from_args(args);
    if args.rest.len() != 2 {
        eprintln!(
            "usage: run_campaign <plan.dsl> <platform> [--seed N] [--shards N] [--out DIR] \
             [--obs-jsonl]\n       run_campaign --benchmark SPEC.toml [--param NAME=VALUE]..."
        );
        eprintln!("platforms: taurus myrinet openmpi opteron pentium4 i7 arm");
        return ExitCode::from(specload::EXIT_BAD_SPEC);
    }
    let seed = args.seed;

    let text = match std::fs::read_to_string(&args.rest[0]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.rest[0]);
            return ExitCode::from(specload::EXIT_BAD_SPEC);
        }
    };
    let plan = match dsl::compile(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("DSL error: {e}");
            return ExitCode::from(specload::EXIT_BAD_SPEC);
        }
    };
    println!(
        "compiled plan: {} rows, factors {:?}, {} shard(s)",
        plan.len(),
        plan.factor_names(),
        args.shards.unwrap_or_else(|| Study::auto_shards(plan.len()))
    );

    let platform_name = args.rest[1].as_str();
    let platform = match platform_name {
        "taurus" => net("taurus", presets::taurus_openmpi_tcp(seed)),
        "myrinet" => net("myrinet", presets::myrinet_gm(seed)),
        "openmpi" => net("openmpi", presets::openmpi_fig3(seed)),
        "opteron" => mem("opteron", CpuSpec::opteron(), seed),
        "pentium4" => mem("pentium4", CpuSpec::pentium4(), seed),
        "i7" => mem("i7", CpuSpec::core_i7_2600(), seed),
        "arm" => mem("arm", CpuSpec::arm_snowball(), seed),
        other => {
            eprintln!("unknown platform {other:?}");
            return ExitCode::from(specload::EXIT_BAD_SPEC);
        }
    };
    // The DSL applies its own ordering at compile time and the legacy
    // artifacts never recorded a shuffle seed; keep that shape.
    run_sharded_mode(args, session, platform_name, &plan, None, platform)
}

fn main() -> ExitCode {
    let args = CommonArgs::parse(USAGE_POSITIONAL);
    match args.benchmark.clone() {
        Some(path) => run_benchmark(&args, &path),
        None => run_dsl(&args),
    }
}
