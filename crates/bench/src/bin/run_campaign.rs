//! Run a campaign and write the raw campaign CSV — from a declarative
//! benchmark spec (`--benchmark`), or from the legacy experiment DSL.
//!
//! ```text
//! run_campaign --benchmark SPEC.toml [--param NAME=VALUE]... [flags]
//! run_campaign <plan.dsl> <platform> [flags]
//!
//! flags: [--seed N] [--shards N] [--out DIR] [--obs-jsonl] [--store DIR]
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
//! **DSL mode**: the platform name resolves through the registry's
//! platform table (`charm_engine::registry::platform`, every policy at
//! its default) and runs exactly like a spec-mode target. Network plans
//! need factors `op` and `size`; memory plans need `size_bytes` (plus
//! optional `stride`, `width`, `unroll`, `nloops`).
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
//! contract). An explicit count is taken literally (clamped to the
//! plan's rows); the default is [`Study::auto_shards`]: sequential below
//! the row threshold, one shard per core (at most one per 64 rows)
//! above it. `--obs-jsonl` also writes the campaign's counters and
//! provenance events next to the CSV.
//!
//! `--store DIR` archives the campaign into a `charm_store` store under
//! a run ID derived from `(plan, target, seed, shards)`. The key routes
//! through `Store::route`, the dedupe rule `charm-serve` applies too,
//! and the run prints which of three things it did:
//!
//! * `replayed run <id>` — the store already archives this campaign:
//!   its verified records are written out, nothing runs and nothing is
//!   written to the store;
//! * `resumed run <id>` — an earlier run of this key was interrupted:
//!   its checkpoint segments replay, only the missing batches execute,
//!   and the records are bit-identical to an uninterrupted run;
//! * `archived run <id>` — the campaign executes, flushing checkpoint
//!   segments while it runs, and is archived.
//!
//! An `--obs-jsonl` run replays only an archive that holds counters,
//! and never resumes (segments retain records, not counter streams).
//! Against an archive without counters it runs unstored and prints
//! `measured run <id>`: the run ID already names that archive.
//! External engines always execute and then archive: their bytes are
//! not a function of the key, and they have no shard checkpoints.

use charm_bench::cli::CommonArgs;
use charm_bench::specload;
use charm_core::pipeline::Study;
use charm_design::dsl;
use charm_design::plan::ExperimentPlan;
use charm_engine::registry::{self, ExternalEngineSpec, ResolvedTarget};
use charm_engine::{Campaign, CampaignRun, ParallelTarget};
use charm_obs::Observer;
use charm_runner::ExternalTarget;
use charm_store::{CampaignKey, Route, Store};
use std::process::ExitCode;

const USAGE_POSITIONAL: &str = "<plan.dsl> <platform>";

/// Writes the artifacts of a finished or replayed run and prints
/// `archived`, the line saying what the store did with it; shared by
/// every mode.
fn finish_run(
    session: charm_bench::profile::Session,
    label: &str,
    archived: Option<String>,
    run: &CampaignRun,
) -> ExitCode {
    let name = format!("campaign_{label}.csv");
    charm_bench::write_artifact(&name, &run.data.to_csv());
    if let Some(report) = &run.report {
        let name = format!("campaign_{label}_obs.jsonl");
        charm_bench::write_artifact(&name, &report.to_jsonl());
        session.attach_virtual(label, report);
    }
    if let Some(line) = archived {
        println!("{line}");
    }
    println!("{} raw measurements retained", run.data.records.len());
    session.finish();
    ExitCode::SUCCESS
}

/// Archives an executed run under its key when a store is attached,
/// returning the line to print: `<verb> run <id>`.
fn archive(
    stored: Option<(&Store, &CampaignKey, &str)>,
    label: &str,
    run: &CampaignRun,
) -> Result<Option<String>, ExitCode> {
    let Some((store, key, verb)) = stored else { return Ok(None) };
    let cli_args: Vec<String> = std::env::args().collect();
    match store.put_run(key, label, &cli_args.join(" "), &run.data, run.report.as_ref()) {
        Ok(id) => Ok(Some(format!("{verb} run {id}"))),
        Err(e) => {
            eprintln!("archive failed: {e}");
            Err(ExitCode::from(specload::EXIT_TARGET))
        }
    }
}

fn store_failed(e: charm_store::StoreError) -> ExitCode {
    eprintln!("store error: {e}");
    ExitCode::from(specload::EXIT_TARGET)
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
    run_resolved(args, session, &plan, resolved.order_seed, target)
}

/// Runs `plan` against a resolved target — the one dispatch spec mode
/// and DSL mode share: in-process targets take the sharded path,
/// external engines the sequential one.
fn run_resolved(
    args: &CommonArgs,
    session: charm_bench::profile::Session,
    plan: &ExperimentPlan,
    shuffle_seed: Option<u64>,
    target: ResolvedTarget,
) -> ExitCode {
    match target {
        ResolvedTarget::Network(t) => run_sharded_mode(args, session, plan, shuffle_seed, *t),
        ResolvedTarget::Memory(t) => run_sharded_mode(args, session, plan, shuffle_seed, *t),
        ResolvedTarget::External(spec) => run_external(args, session, plan, shuffle_seed, spec),
    }
}

/// The sequential path of an external engine subprocess.
fn run_external(
    args: &CommonArgs,
    session: charm_bench::profile::Session,
    plan: &ExperimentPlan,
    shuffle_seed: Option<u64>,
    spec: ExternalEngineSpec,
) -> ExitCode {
    if args.shards.is_some_and(|n| n > 1) {
        eprintln!(
            "external engines are sequential-only (a subprocess cannot be forked); drop --shards"
        );
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
    let mut campaign = Campaign::new(plan, engine).seed(shuffle_seed);
    if args.obs_jsonl {
        campaign = campaign.observer(Observer::default());
    }
    match campaign.run() {
        Ok(run) => {
            let key = CampaignKey::of(plan, &target_id, Some(args.seed), 1);
            match archive(store.as_ref().map(|s| (s, &key, "archived")), &label, &run) {
                Ok(line) => finish_run(session, &label, line, &run),
                Err(code) => code,
            }
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            specload::exit_for(&e)
        }
    }
}

fn open_store(args: &CommonArgs) -> Result<Option<Store>, ExitCode> {
    match &args.store {
        Some(dir) => Store::open(dir).map(Some).map_err(|e| {
            eprintln!("cannot open store: {e}");
            ExitCode::from(specload::EXIT_TARGET)
        }),
        None => Ok(None),
    }
}

/// The sharded path of an in-process target. With `--store`, the key
/// routes through [`Store::route`]: an archived campaign replays, an
/// interrupted one resumes (the engine replays the session's segments),
/// and anything else executes.
fn run_sharded_mode<T: ParallelTarget>(
    args: &CommonArgs,
    session: charm_bench::profile::Session,
    plan: &ExperimentPlan,
    shuffle_seed: Option<u64>,
    target: T,
) -> ExitCode {
    let shards = args.shards.unwrap_or_else(|| Study::auto_shards(plan.len()));
    let label = target.name();
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // The target's identity folds into the run ID, so the same plan
    // against two platforms can never share a run directory.
    let (mut stored, mut measured) = (None, None);
    if let Some(store) = &store {
        let target_id = charm_store::target_identity(&target);
        let key = CampaignKey::of(plan, &target_id, Some(args.seed), shards as u64);
        let verb = match store.route(&key, args.obs_jsonl) {
            Ok(Route::Replay(id)) => {
                return match store.get(&id) {
                    Ok(run) => {
                        let report = run.report.filter(|_| args.obs_jsonl);
                        let run = CampaignRun { data: run.data, report };
                        finish_run(session, &label, Some(format!("replayed run {id}")), &run)
                    }
                    Err(e) => store_failed(e),
                };
            }
            Ok(Route::Measure(id)) => {
                measured = Some(format!("measured run {id} (its archive holds no counters)"));
                None
            }
            Ok(Route::Resume) => Some("resumed"),
            Ok(Route::Execute) => Some("archived"),
            Err(e) => return store_failed(e),
        };
        if let Some(verb) = verb {
            match store.open_session(key, plan.factor_names()) {
                Ok(checkpoint) => stored = Some((store, checkpoint, verb)),
                Err(e) => return store_failed(e),
            }
        }
    }

    let mut campaign = Campaign::new(plan, target).shards(shards).seed(shuffle_seed);
    if let Some((_, checkpoint, _)) = &stored {
        campaign = campaign.store(checkpoint);
    }
    if args.obs_jsonl {
        campaign = campaign.observer(Observer::default());
    }
    match campaign.run() {
        Ok(run) => {
            let stored = stored.as_ref().map(|(s, checkpoint, verb)| (*s, checkpoint.key(), *verb));
            match archive(stored, &label, &run) {
                Ok(line) => finish_run(session, &label, line.or(measured), &run),
                Err(code) => code,
            }
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            specload::exit_for(&e)
        }
    }
}

/// DSL mode: `<plan.dsl> <platform>`.
fn run_dsl(args: &CommonArgs) -> ExitCode {
    let session = charm_bench::profile::Session::from_args(args);
    if args.rest.len() != 2 {
        eprintln!(
            "usage: run_campaign <plan.dsl> <platform> [--seed N] [--shards N] [--out DIR] \
             [--obs-jsonl]\n       run_campaign --benchmark SPEC.toml [--param NAME=VALUE]..."
        );
        eprintln!(
            "platforms: {} {}",
            registry::network_presets().join(" "),
            registry::memory_cpus().join(" ")
        );
        return ExitCode::from(specload::EXIT_BAD_SPEC);
    }

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

    let target = match registry::platform(&args.rest[1])
        .and_then(|spec| registry::resolve(&spec, args.seed))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return specload::exit_for(&e);
        }
    };
    // The DSL applies its own ordering at compile time and the legacy
    // artifacts never recorded a shuffle seed; keep that shape.
    run_resolved(args, session, &plan, None, target)
}

fn main() -> ExitCode {
    let args = CommonArgs::parse(USAGE_POSITIONAL);
    match args.benchmark.clone() {
        Some(path) => run_benchmark(&args, &path),
        None => run_dsl(&args),
    }
}
