//! `archive`: the archived-campaign path of `run_campaign --store`.
//!
//! One op compiles a taurus network plan of 100k rows, opens the
//! store's checkpoint session, runs the campaign on 2 shards with
//! checkpoint segments, archives it with `put_run`, and reads it back
//! with `Store::get`, which verifies every digest. That pairs the
//! store's write path with its read path, so cost moved from one to
//! the other still shows. Record serialization, checkpoint flushes,
//! SHA-256 and manifest writes dominate; `simnet` costs little.
//!
//! Ops cycle through a pool of campaign seeds whose unarchived records
//! are computed in set-up. Each op's run directory is removed after its
//! check, outside the timed section, so no op ever dedupes.

use crate::{derive_seed, spans, stats, OpOutcome, Pass, ScratchRoot, Size, Workload};
use charm_design::dsl;
use charm_design::plan::ExperimentPlan;
use charm_engine::target::{Assignment, NetworkTarget, Target};
use charm_engine::{Campaign, CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_simnet::presets;
use charm_store::digest::sha256_hex;
use charm_store::{target_identity, CampaignKey, CheckpointSession, Store, StoredRun};
use charm_trace::Profiler;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shards of every archived campaign, as `run_campaign --shards 2`.
pub const SHARDS: usize = 2;

/// Campaign seeds per set-up.
const POOL: u64 = 3;

/// The campaign plan: 2 ops × 50 sizes × `replicates`.
fn plan_text(seed: u64, replicates: u64) -> String {
    format!(
        "factor op in [ping_pong, async_send]\n\
         factor size loguniform 64..1048576 count 50 seed {seed}\n\
         replicates {replicates}\n\
         order randomized {seed}\n"
    )
}

fn taurus(seed: u64) -> NetworkTarget {
    NetworkTarget::new("taurus", presets::taurus_openmpi_tcp(seed))
}

/// One pool entry: a campaign seed and its unarchived records.
struct Reference {
    seed: u64,
    records_csv: String,
}

/// Set-up state: a fresh store root, the plan text and the reference
/// pool.
pub struct Archive {
    plan_text: String,
    pool: Vec<Reference>,
    store: Store,
    // Declared last: the root is removed after everything using it.
    _root: ScratchRoot,
}

/// Checks the records `Store::get` returned against the unarchived
/// reference, byte for byte.
pub fn check_records(stored: &StoredRun, reference_csv: &str) -> Result<(), String> {
    if stored.data.to_csv() == reference_csv {
        Ok(())
    } else {
        Err("archived records differ from the unarchived reference".into())
    }
}

/// A [`CheckpointSink`] that times the session's segment writes.
struct TimedSink<'a> {
    inner: &'a CheckpointSession,
    ns: AtomicU64,
    segments: AtomicU64,
}

impl CheckpointSink for TimedSink<'_> {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        let t0 = Instant::now();
        let result = self.inner.save_shard(shard, shards, checkpoint);
        self.ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.segments.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        self.inner.load_shard(shard, shards)
    }
}

/// Per-op layer figures measured outside the op's spans.
#[derive(Default)]
struct Extras {
    checkpoint_ms: Vec<f64>,
    segments: Vec<f64>,
    serialize_ms: Vec<f64>,
    digest_mb_per_s: Vec<f64>,
    write_amplification: Vec<f64>,
    ns_per_row: Vec<f64>,
    unarchived_ms: Vec<f64>,
    records_bytes: Vec<f64>,
}

/// What one archived op produced, for its check.
struct Archived {
    plan: ExperimentPlan,
    data: charm_engine::CampaignData,
    run_dir: std::path::PathBuf,
    stored: StoredRun,
    checkpoint_ns: u64,
    segments: u64,
}

impl Archive {
    /// Builds the workload's set-up state (see [`Workload`]).
    pub fn setup(seed: u64, size: Size, out: &Path) -> Result<Archive, String> {
        let root = ScratchRoot::new(out, "archive-store")?;
        let store = Store::open(root.path()).map_err(|e| format!("open store: {e}"))?;
        let plan_text = plan_text(derive_seed(seed, 1) % 1_000_000, Self::replicates(size));
        let plan = dsl::compile(&plan_text).map_err(|e| format!("DSL: {e}"))?;
        let mut pool = Vec::new();
        for j in 0..POOL {
            let seed = derive_seed(seed, 100 + j);
            let run = Campaign::new(&plan, taurus(seed))
                .shards(SHARDS)
                .run()
                .map_err(|e| format!("reference campaign: {e}"))?;
            pool.push(Reference { seed, records_csv: run.data.to_csv() });
        }
        Ok(Archive { plan_text, pool, store, _root: root })
    }

    fn replicates(size: Size) -> u64 {
        match size {
            Size::Full => 1000,
            Size::Tiny => 10,
        }
    }

    /// The timed section: compile → session → sharded run with
    /// checkpoints → `put_run` → verified `get`.
    fn archive_once(&self, seed: u64, profiler: &Profiler) -> Result<Archived, String> {
        let plan = {
            let _g = profiler.span("design.compile");
            dsl::compile(&self.plan_text).map_err(|e| format!("DSL: {e}"))?
        };
        let target = taurus(seed);
        let target_id = target_identity(&target);
        let session = {
            let _g = profiler.span("store.session");
            self.store
                .session(&plan, &target_id, Some(seed), SHARDS as u64)
                .map_err(|e| format!("session: {e}"))?
        };
        let timed =
            TimedSink { inner: &session, ns: AtomicU64::new(0), segments: AtomicU64::new(0) };
        let sink: &dyn CheckpointSink = if profiler.is_enabled() { &timed } else { &session };
        let run = Campaign::new(&plan, target)
            .shards(SHARDS)
            .store(sink)
            .run()
            .map_err(|e| format!("campaign: {e}"))?;
        let key = CampaignKey::of(&plan, &target_id, Some(seed), SHARDS as u64);
        let id = {
            let _g = profiler.span("store.put_run");
            let cli =
                format!("run_campaign plan.dsl taurus --seed {seed} --shards {SHARDS} --store");
            self.store
                .put_run(&key, "taurus", &cli, &run.data, None)
                .map_err(|e| format!("put_run: {e}"))?
        };
        let stored = {
            let _g = profiler.span("store.get");
            self.store.get(&id).map_err(|e| format!("get: {e}"))?
        };
        Ok(Archived {
            run_dir: self.store.root().join("runs").join(id.as_str()),
            plan,
            data: run.data,
            stored,
            checkpoint_ns: timed.ns.into_inner(),
            segments: timed.segments.into_inner(),
        })
    }

    /// The layer figures a traced op takes outside its timed section.
    fn measure_extras(&self, a: &Archived, seed: u64, x: &mut Extras) {
        x.checkpoint_ms.push(a.checkpoint_ns as f64 / 1e6);
        x.segments.push(a.segments as f64);
        let t = Instant::now();
        let csv = a.data.to_csv();
        x.serialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(sha256_hex(csv.as_bytes()));
        x.digest_mb_per_s.push(csv.len() as f64 / 1e6 / t.elapsed().as_secs_f64());
        let records = std::fs::metadata(a.run_dir.join("records.csv")).map_or(0, |m| m.len());
        x.write_amplification.push(dir_bytes(&a.run_dir) as f64 / records as f64);
        x.records_bytes.push(records as f64);
        x.ns_per_row.push(simnet_ns_per_row(&a.plan, seed));
        if let Ok(d) = self.unarchived(seed) {
            x.unarchived_ms.push(d.as_secs_f64() * 1e3);
        }
    }

    /// The base of `store.archive_overhead`: `run_campaign` without
    /// `--store` — compile, run on the same shards, serialize the
    /// records and write the CSV artifact.
    fn unarchived(&self, seed: u64) -> Result<Duration, String> {
        let t0 = Instant::now();
        let plan = dsl::compile(&self.plan_text).map_err(|e| format!("DSL: {e}"))?;
        let run =
            Campaign::new(&plan, taurus(seed)).shards(SHARDS).run().map_err(|e| e.to_string())?;
        let path = self.store.root().join("campaign_taurus.csv");
        std::fs::write(&path, run.data.to_csv()).map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        let _ = std::fs::remove_file(&path);
        Ok(elapsed)
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Per-row cost of the simulator, measured through the engine's
/// `Target::measure` without the campaign loop around it.
fn simnet_ns_per_row(plan: &ExperimentPlan, seed: u64) -> f64 {
    let mut target = taurus(seed);
    let t0 = Instant::now();
    for row in plan.rows() {
        std::hint::black_box(target.measure(&Assignment::new(plan, row)).ok());
    }
    t0.elapsed().as_nanos() as f64 / plan.len() as f64
}

impl Workload for Archive {
    fn measure(&mut self, budget: Duration, profiler: &Profiler) -> Pass {
        let traced = profiler.is_enabled();
        let mut extras = Extras::default();
        let mut pass = crate::run_sequential(budget, 1, |i| {
            let reference = &self.pool[(i % POOL) as usize];
            let t0 = Instant::now();
            let result = {
                let _op = profiler.span("archive.op");
                self.archive_once(reference.seed, profiler)
            };
            let latency = t0.elapsed();
            match result {
                Err(e) => OpOutcome { latency, ok: false, correct: true, detail: Some(e) },
                Ok(a) => {
                    let check = check_records(&a.stored, &reference.records_csv);
                    if traced {
                        self.measure_extras(&a, reference.seed, &mut extras);
                    }
                    let _ = std::fs::remove_dir_all(&a.run_dir);
                    OpOutcome { latency, ok: true, correct: check.is_ok(), detail: check.err() }
                }
            }
        });
        if traced {
            pass.spans = profiler.take();
            let op_ms = stats::median(&pass.latencies_ms);
            pass.layer = layers(&pass.spans, &extras, op_ms);
            let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
            let n = extras.unarchived_ms.len();
            pass.bases = vec![
                format!(
                    "store.archive_overhead = archived op p50 {:.3} ms / run_campaign without --store {:.3} ms (median of {n})",
                    op_ms.unwrap_or(f64::NAN),
                    med(&extras.unarchived_ms)
                ),
                format!(
                    "store.write_amplification = run-directory bytes / records.csv bytes ({:.0} bytes, median)",
                    med(&extras.records_bytes)
                ),
                format!("store.digest_mb_per_s over {:.0} bytes of records CSV (median)", med(&extras.records_bytes)),
            ];
        }
        pass
    }
}

fn layers(all: &[charm_trace::WallSpan], x: &Extras, op_ms: Option<f64>) -> Vec<crate::Layer> {
    let ops: Vec<_> = all.iter().filter(|s| s.name == "archive.op").collect();
    let per_op = |name: &str| -> Option<f64> {
        let v: Vec<f64> = ops
            .iter()
            .map(|op| spans::coverage_ns(all, name, op.start_ns, op.end_ns()) as f64 / 1e6)
            .collect();
        stats::median(&v)
    };
    vec![
        ("design.compile_ms".into(), per_op("design.compile")),
        ("engine.run_ms".into(), per_op("engine.run")),
        ("engine.checkpoint_ms".into(), stats::median(&x.checkpoint_ms)),
        ("engine.checkpoint_segments".into(), stats::median(&x.segments)),
        ("store.session_ms".into(), per_op("store.session")),
        ("store.put_run_ms".into(), per_op("store.put_run")),
        ("store.get_ms".into(), per_op("store.get")),
        ("store.serialize_ms".into(), stats::median(&x.serialize_ms)),
        ("store.digest_mb_per_s".into(), stats::median(&x.digest_mb_per_s)),
        ("store.write_amplification".into(), stats::median(&x.write_amplification)),
        (
            "store.archive_overhead".into(),
            op_ms.zip(stats::median(&x.unarchived_ms)).map(|(a, u)| a / u),
        ),
        ("simnet.ns_per_row".into(), stats::median(&x.ns_per_row)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archived(tag: &str) -> (Archive, Archived, u64) {
        let out = crate::out_dir().join(tag);
        std::fs::create_dir_all(&out).unwrap();
        let bench = Archive::setup(7, Size::Tiny, &out).unwrap();
        let seed = bench.pool[0].seed;
        let a = bench.archive_once(seed, &Profiler::disabled()).unwrap();
        (bench, a, seed)
    }

    #[test]
    fn an_intact_archive_matches_its_reference() {
        let (bench, a, _) = archived("intact");
        assert_eq!(check_records(&a.stored, &bench.pool[0].records_csv), Ok(()));
        // Another seed's reference is not accepted.
        assert!(check_records(&a.stored, &bench.pool[1].records_csv).is_err());
    }

    #[test]
    fn a_corrupted_record_fails_the_check() {
        let (bench, mut a, _) = archived("record");
        a.stored.data.records[0].value += 1.0;
        assert!(check_records(&a.stored, &bench.pool[0].records_csv).is_err());
    }

    #[test]
    fn a_flipped_byte_or_digest_fails_verification() {
        let (bench, a, _) = archived("digest");
        let id = a.stored.id.clone();
        let records = a.run_dir.join("records.csv");
        let text = std::fs::read_to_string(&records).unwrap();
        let flipped = text.replacen("ping_pong", "ping_pang", 1);
        std::fs::write(&records, &flipped).unwrap();
        assert!(bench.store.get(&id).is_err(), "a flipped record byte must fail get");
        std::fs::write(&records, &text).unwrap();
        assert!(bench.store.get(&id).is_ok());

        let manifest = a.run_dir.join("manifest.json");
        let digest = a.stored.manifest.artifact("records.csv").unwrap().sha256.clone();
        let bad = format!("{}{}", if digest.starts_with('0') { '1' } else { '0' }, &digest[1..]);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace(&digest, &bad)).unwrap();
        assert!(bench.store.get(&id).is_err(), "a flipped digest must fail get");
    }

    #[test]
    fn traced_pass_reports_archive_layers() {
        let out = crate::out_dir().join("traced");
        std::fs::create_dir_all(&out).unwrap();
        let mut bench = Archive::setup(3, Size::Tiny, &out).unwrap();
        let pass = bench.measure(Duration::ZERO, &Profiler::enabled());
        assert_eq!((pass.attempted, pass.failed, pass.incorrect), (1, 0, 0));
        let get = |n: &str| pass.layer.iter().find(|m| m.0 == n).unwrap().1.unwrap();
        assert!(get("store.write_amplification") > 1.0);
        assert!(get("engine.checkpoint_segments") >= 1.0);
        assert!(pass.layer.iter().all(|m| m.1.is_some_and(f64::is_finite)), "{:?}", pass.layer);
    }
}
