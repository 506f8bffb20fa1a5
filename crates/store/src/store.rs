//! The campaign store: content-addressed run directories on disk.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/runs/<run_id>/manifest.json                  (finalized runs)
//! <root>/runs/<run_id>/records.csv                    (raw records)
//! <root>/runs/<run_id>/report.jsonl                   (optional obs report)
//! <root>/runs/<run_id>/checkpoints/shard-B-of-K.csv   (resume segments)
//! ```
//!
//! Run IDs derive from `(plan_hash, target, seed, shards)`, so
//! re-archiving the identical campaign lands on the same directory
//! (dedupe) while any change to the plan, measured target, seed or
//! shard count moves to a fresh one. The ID is a truncated hash; the
//! manifest stores the full quadruple, and both [`Store::put_run`] and
//! [`Store::get`] cross-check it so a truncated collision (or a
//! hand-moved directory) surfaces as an explicit
//! [`StoreError::Collision`], never as silently merged data.
//!
//! Every write is atomic (temp file + rename in the same directory), so
//! a crash mid-write leaves either the old content or debris that is
//! never loadable — a half-written checkpoint cannot poison a resume.

use crate::digest::sha256_hex;
use crate::manifest::{seed_str, Artifact, MachineFacts, Manifest};
use charm_design::ExperimentPlan;
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::{CampaignData, RawRecord, Target};
use charm_obs::CampaignReport;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread;

/// A run's content-derived identity: 32 lowercase hex characters
/// (the first 16 bytes of the derivation hash).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(String);

impl RunId {
    /// Validates and wraps a textual run ID (as printed by the CLI).
    pub fn parse(raw: &str) -> Result<RunId, StoreError> {
        let ok = raw.len() == 32 && raw.chars().all(|c| c.is_ascii_hexdigit() && !c.is_uppercase());
        if ok {
            Ok(RunId(raw.to_string()))
        } else {
            Err(StoreError::Corrupt {
                path: raw.to_string(),
                message: "run IDs are 32 lowercase hex characters".to_string(),
            })
        }
    }

    /// The ID as printed (32 hex chars).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The `(plan_hash, target, seed, shards)` quadruple a run ID derives
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignKey {
    /// SHA-256 of the plan's CSV rendering.
    pub plan_hash: String,
    /// Identity of the measured target (see [`target_identity`]). The
    /// same plan run against two platforms is two different campaigns
    /// and must never share a run directory.
    pub target: String,
    /// Shuffle/stream seed, if set.
    pub seed: Option<u64>,
    /// Shard count.
    pub shards: u64,
}

impl CampaignKey {
    /// Derives the key for a plan about to run against `target` with
    /// `seed` and `shards`.
    pub fn of(plan: &ExperimentPlan, target: &str, seed: Option<u64>, shards: u64) -> CampaignKey {
        CampaignKey {
            plan_hash: sha256_hex(plan.to_csv().as_bytes()),
            target: target.to_string(),
            seed,
            shards,
        }
    }

    /// The content-derived run ID for this key.
    pub fn run_id(&self) -> RunId {
        let preimage = format!(
            "charm-run\n{}\n{}\n{}\n{}",
            self.plan_hash,
            self.target,
            seed_str(self.seed),
            self.shards
        );
        RunId(sha256_hex(preimage.as_bytes())[..32].to_string())
    }

    /// Whether `manifest` records exactly this campaign identity — the
    /// guard against truncated-run-ID collisions, and what a service
    /// checks before serving an archived run as a dedupe hit.
    pub fn matches(&self, manifest: &Manifest) -> bool {
        manifest.plan_hash == self.plan_hash
            && manifest.target == self.target
            && manifest.seed == self.seed
            && manifest.shards == self.shards
    }
}

/// The identity string the store uses for a target: its platform name
/// plus a truncated digest of its introspected metadata, so two presets
/// that share a name (or one preset reconfigured) still derive
/// different run IDs. Deterministic across processes for
/// deterministically configured targets — the property resume relies
/// on to re-derive an interrupted run's ID from the same CLI arguments.
pub fn target_identity<T: Target + ?Sized>(target: &T) -> String {
    let mut rendered = String::new();
    for (k, v) in target.metadata() {
        rendered.push_str(&k);
        rendered.push('=');
        rendered.push_str(&v);
        rendered.push('\n');
    }
    format!("{}#{}", target.name(), &sha256_hex(rendered.as_bytes())[..12])
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error text.
        message: String,
    },
    /// A stored file failed to parse or failed an internal consistency
    /// check.
    Corrupt {
        /// Path (or identifier) involved.
        path: String,
        /// What failed.
        message: String,
    },
    /// The directory for a run ID holds a *different* campaign — a
    /// truncated-hash collision or a hand-edited archive. Never merged
    /// silently.
    Collision {
        /// The contested run ID.
        run_id: String,
        /// The stored campaign's triple, rendered.
        stored: String,
        /// The incoming campaign's triple, rendered.
        incoming: String,
    },
    /// An archived artifact's bytes no longer match the manifest digest.
    Tampered {
        /// The run holding the artifact.
        run_id: String,
        /// Artifact name (run-directory-relative).
        artifact: String,
        /// Digest recorded in the manifest.
        expected: String,
        /// Digest of the bytes on disk.
        actual: String,
    },
    /// No finalized run with this ID exists in the store.
    NotFound {
        /// The missing run ID.
        run_id: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "store I/O error at {path}: {message}"),
            StoreError::Corrupt { path, message } => {
                write!(f, "store corruption at {path}: {message}")
            }
            StoreError::Collision { run_id, stored, incoming } => write!(
                f,
                "run {run_id} already archives a different campaign \
                 (stored {stored}, incoming {incoming})"
            ),
            StoreError::Tampered { run_id, artifact, expected, actual } => write!(
                f,
                "run {run_id} artifact {artifact} was modified after archiving \
                 (manifest sha256 {expected}, on-disk {actual})"
            ),
            StoreError::NotFound { run_id } => write!(f, "no archived run {run_id}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Writes `contents` atomically: temp file in the same directory, then
/// rename. Readers never observe a half-written file. The temp name is
/// unique per process and per call, so concurrent writers targeting the
/// same path — e.g. two service workers archiving the identical
/// campaign — cannot interleave inside one temp file; last rename wins
/// whole.
fn write_atomic(path: &Path, contents: &str) -> Result<(), StoreError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(format!(".tmp.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// A fully verified archived run, as returned by [`Store::get`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// The run's ID.
    pub id: RunId,
    /// Its manifest.
    pub manifest: Manifest,
    /// The raw records, parsed back.
    pub data: CampaignData,
    /// The observability report, when one was archived.
    pub report: Option<CampaignReport>,
}

/// What [`Store::gc`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Checkpoint segments deleted from finalized runs.
    pub removed_segments: usize,
    /// Bytes those segments occupied.
    pub reclaimed_bytes: u64,
    /// Empty debris directories removed.
    pub removed_dirs: usize,
}

/// A filter over archived runs, for [`Store::select`]. Every field is
/// optional; an empty query matches every finalized run.
///
/// `plan_hash` and `target` match by *prefix*, so the truncated hashes
/// the CLI prints (and the bare platform name of a target identity)
/// are usable query keys as-is. `benchmark` and `host` match exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunQuery {
    /// Prefix of the plan hash (full 64-hex or any truncation).
    pub plan_hash: Option<String>,
    /// Prefix of the target identity (e.g. a platform name like
    /// `taurus`, or the full `name#digest` string).
    pub target: Option<String>,
    /// Exact benchmark label (as recorded by [`Store::put_run`]).
    /// Pre-v3 manifests record the empty label.
    pub benchmark: Option<String>,
    /// Exact machine-facts host class (see
    /// [`MachineFacts::host_class`], e.g. `linux/4c`). Pre-v3 manifests
    /// carry no machine facts and match only the literal `unknown` —
    /// the class the CLI prints for them. A long-running service uses
    /// this to scope queries to runs measured on the machine it serves
    /// from.
    pub host: Option<String>,
}

impl RunQuery {
    /// Scopes the query to the host class of the *current* machine, so
    /// the daemon and the report tooling can ask "what has this box
    /// measured?" without recomputing the class by hand.
    pub fn on_current_host(mut self) -> RunQuery {
        self.host = Some(MachineFacts::current().host_class());
        self
    }

    /// Does `manifest` satisfy every set filter?
    pub fn matches(&self, manifest: &Manifest) -> bool {
        self.plan_hash.as_ref().is_none_or(|p| manifest.plan_hash.starts_with(p.as_str()))
            && self.target.as_ref().is_none_or(|t| manifest.target.starts_with(t.as_str()))
            && self.benchmark.as_ref().is_none_or(|b| manifest.benchmark == *b)
            && self.host.as_ref().is_none_or(|h| {
                manifest.machine.as_ref().map_or_else(|| "unknown".to_string(), |m| m.host_class())
                    == *h
            })
    }
}

/// What a front door does with a campaign key; see [`Store::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// The store archives this campaign: read it back with
    /// [`Store::get`]. Nothing runs and nothing is written.
    Replay(RunId),
    /// Segments of an interrupted run of this key are stored: run it
    /// through [`Store::open_session`], and the engine replays them and
    /// measures only the missing batches.
    Resume,
    /// Nothing reusable is stored: run it through [`Store::open_session`]
    /// from row zero.
    Execute,
    /// The store archives this campaign without the counters an observed
    /// request asks for: measure it observed, and archive nothing — the
    /// run ID already names an archive, and the observed run's records
    /// carry the `observed` marker that archive lacks.
    Measure(RunId),
}

/// A content-addressed archive of campaign runs rooted at a directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = dir.as_ref().to_path_buf();
        let runs = root.join("runs");
        fs::create_dir_all(&runs).map_err(|e| io_err(&runs, e))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn run_dir(&self, id: &RunId) -> PathBuf {
        self.root.join("runs").join(id.as_str())
    }

    /// The one dedupe rule every front door (`run_campaign --store`,
    /// `charm-serve`) applies before running a campaign: replay the
    /// archived run of `key`, resume its interrupted run, or execute it.
    /// An `observe`d request replays only an archive that holds the
    /// counters (`report.jsonl`), is measured unarchived when the
    /// archive lacks them, and never resumes, because checkpoint
    /// segments retain records, not counter streams. A run directory
    /// holding a different campaign is a [`StoreError::Collision`].
    /// Writes nothing.
    pub fn route(&self, key: &CampaignKey, observe: bool) -> Result<Route, StoreError> {
        let id = key.run_id();
        if let Some(manifest) = self.try_manifest(&id)? {
            if !key.matches(&manifest) {
                return Err(collision(&id, &manifest, key));
            }
            if !observe || manifest.artifact("report.jsonl").is_some() {
                return Ok(Route::Replay(id));
            }
            return Ok(Route::Measure(id));
        }
        let segments = fs::read_dir(self.run_dir(&id).join("checkpoints")).ok().is_some_and(|d| {
            d.filter_map(|e| e.ok()).any(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        });
        Ok(if segments && !observe { Route::Resume } else { Route::Execute })
    }

    /// Opens a checkpoint session for a campaign about to run: the
    /// sink to pass to `Campaign::store`, bound to the run directory
    /// this campaign's `(plan, target, seed, shards)` quadruple
    /// addresses. `target` is the measured platform's identity string
    /// (see [`target_identity`]).
    pub fn session(
        &self,
        plan: &ExperimentPlan,
        target: &str,
        seed: Option<u64>,
        shards: u64,
    ) -> Result<CheckpointSession, StoreError> {
        self.open_session(CampaignKey::of(plan, target, seed, shards), plan.factor_names())
    }

    /// Opens the checkpoint session for an already derived `key` (see
    /// [`Store::session`]). Callers that also dedupe or archive under
    /// the key derive it once and read it back with
    /// [`CheckpointSession::key`], so the plan is rendered and hashed
    /// once per campaign.
    pub fn open_session(
        &self,
        key: CampaignKey,
        factor_names: &[String],
    ) -> Result<CheckpointSession, StoreError> {
        let id = key.run_id();
        let dir = self.run_dir(&id);
        // Guard against a truncated-ID collision before any write.
        if let Some(manifest) = self.try_manifest(&id)? {
            if !key.matches(&manifest) {
                return Err(collision(&id, &manifest, &key));
            }
        }
        let checkpoints = dir.join("checkpoints");
        fs::create_dir_all(&checkpoints).map_err(|e| io_err(&checkpoints, e))?;
        Ok(CheckpointSession { dir, key, run_id: id, factor_names: factor_names.to_vec() })
    }

    /// Archives a finished campaign under `key` (see [`CampaignKey::of`]),
    /// returning its run ID. Re-archiving the identical campaign (same
    /// key *and* same record bytes) is a no-op returning the same ID; a
    /// different campaign addressing the same ID — including one whose
    /// key matches but whose records drifted, e.g. after an engine
    /// change — is a [`StoreError::Collision`], never silently
    /// discarded.
    ///
    /// `benchmark` is the benchmark label the run is filed under (the
    /// spec's `[benchmark].name`, or the campaign label in DSL mode);
    /// fleet reports group by it. The archiving host's machine facts
    /// (logical cores, OS, `CHARM_*` overrides) are captured into the
    /// manifest at this point.
    ///
    /// Checkpoint segments already in the run directory are hashed on a
    /// second thread while this one renders, writes and hashes
    /// `records.csv`.
    pub fn put_run(
        &self,
        key: &CampaignKey,
        benchmark: &str,
        cli_args: &str,
        data: &CampaignData,
        report: Option<&CampaignReport>,
    ) -> Result<RunId, StoreError> {
        let id = key.run_id();
        let dir = self.run_dir(&id);
        if let Some(manifest) = self.try_manifest(&id)? {
            if !key.matches(&manifest) {
                return Err(collision(&id, &manifest, key));
            }
            // Same identity: only a true dedupe (identical record
            // bytes) may short-circuit. The caller must never be told
            // "archived" while its data is quietly thrown away.
            let incoming = sha256_hex(data.to_csv().as_bytes());
            return match manifest.artifact("records.csv") {
                Some(a) if a.sha256 == incoming => Ok(id),
                Some(a) => Err(StoreError::Collision {
                    run_id: id.to_string(),
                    stored: format!("records sha256 {}", &a.sha256[..12]),
                    incoming: format!("records sha256 {}", &incoming[..12]),
                }),
                None => Err(StoreError::Corrupt {
                    path: dir.display().to_string(),
                    message: "manifest lists no records.csv".to_string(),
                }),
            };
        }
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        // Fold in any checkpoint segments left by the session, so the
        // manifest pins the resume trail too.
        let (own, segments) = thread::scope(|s| {
            let segments = s.spawn(|| segment_artifacts(&dir.join("checkpoints")));
            let own = put_artifact(&dir, "records.csv", &data.to_csv()).and_then(|records| {
                let report = report
                    .map(|r| put_artifact(&dir, "report.jsonl", &r.to_jsonl()))
                    .transpose()?;
                Ok([Some(records), report])
            });
            (own, segments.join().expect("segment hashing thread panicked"))
        });
        let mut artifacts: Vec<Artifact> = own?.into_iter().flatten().chain(segments?).collect();
        artifacts.sort_by(|a, b| a.name.cmp(&b.name));
        let manifest = Manifest {
            run_id: id.as_str().to_string(),
            plan_hash: key.plan_hash.clone(),
            target: key.target.clone(),
            seed: key.seed,
            shards: key.shards,
            benchmark: benchmark.to_string(),
            machine: Some(MachineFacts::current()),
            versions: format!("charm-store {}", env!("CARGO_PKG_VERSION")),
            cli_args: cli_args.to_string(),
            artifacts,
        };
        write_atomic(&dir.join("manifest.json"), &manifest.to_json())?;
        Ok(id)
    }

    fn try_manifest(&self, id: &RunId) -> Result<Option<Manifest>, StoreError> {
        let path = self.run_dir(id).join("manifest.json");
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let manifest = Manifest::from_json(&text)
            .map_err(|message| StoreError::Corrupt { path: path.display().to_string(), message })?;
        if manifest.run_id != id.as_str() {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                message: format!(
                    "manifest claims run {} but lives under {}",
                    manifest.run_id,
                    id.as_str()
                ),
            });
        }
        Ok(Some(manifest))
    }

    /// The manifest of a finalized run.
    pub fn manifest(&self, id: &RunId) -> Result<Manifest, StoreError> {
        self.try_manifest(id)?.ok_or_else(|| StoreError::NotFound { run_id: id.to_string() })
    }

    /// Loads a finalized run, verifying *every* archived artifact's
    /// digest against the manifest before returning anything. One
    /// flipped byte anywhere in the run directory is a
    /// [`StoreError::Tampered`]; when several artifacts fail, the error
    /// names the first in manifest order.
    ///
    /// `records.csv` is hashed on one scoped thread while this thread
    /// parses it; the other artifacts are read and hashed on a second.
    /// Nothing is returned until every thread has finished and every
    /// digest matched.
    pub fn get(&self, id: &RunId) -> Result<StoredRun, StoreError> {
        let manifest = self.manifest(id)?;
        let dir = self.run_dir(id);
        let read = |a: &Artifact| {
            let path = dir.join(&a.name);
            fs::read_to_string(&path).map_err(|e| io_err(&path, e))
        };
        let verify = |a: &Artifact, actual: String| {
            if actual == a.sha256 {
                Ok(())
            } else {
                Err(StoreError::Tampered {
                    run_id: id.to_string(),
                    artifact: a.name.clone(),
                    expected: a.sha256.clone(),
                    actual,
                })
            }
        };
        let records_at = manifest.artifacts.iter().position(|a| a.name == "records.csv");
        let (mut records, others) = thread::scope(|s| {
            // Every other artifact; only report.jsonl's text is kept.
            let others = s.spawn(|| {
                (manifest.artifacts.iter().enumerate())
                    .filter(|&(i, _)| Some(i) != records_at)
                    .map(|(_, a)| {
                        let text = read(a)?;
                        verify(a, sha256_hex(text.as_bytes()))?;
                        Ok((a.name == "report.jsonl").then_some(text))
                    })
                    .collect::<Vec<Result<Option<String>, StoreError>>>()
            });
            let records = records_at.map(|i| {
                let a = &manifest.artifacts[i];
                let text = read(a)?;
                let (actual, data) = thread::scope(|s| {
                    let digest = s.spawn(|| sha256_hex(text.as_bytes()));
                    let data = CampaignData::from_csv(&text);
                    (digest.join().expect("records digest thread panicked"), data)
                });
                verify(a, actual).map(|()| data)
            });
            (records, others.join().expect("artifact verification thread panicked"))
        });
        // Fail on the first bad artifact in manifest order, whichever
        // thread saw it.
        let mut others = others.into_iter();
        let mut data = None;
        let mut report_jsonl = None;
        for i in 0..manifest.artifacts.len() {
            if Some(i) == records_at {
                data = records.take().transpose()?;
            } else if let Some(text) = others.next().expect("one outcome per artifact")? {
                report_jsonl = Some(text);
            }
        }
        let data = data.ok_or_else(|| StoreError::Corrupt {
            path: dir.display().to_string(),
            message: "manifest lists no records.csv".to_string(),
        })?;
        let data = data.map_err(|e| StoreError::Corrupt {
            path: dir.join("records.csv").display().to_string(),
            message: e.to_string(),
        })?;
        let report = match report_jsonl {
            Some(text) => {
                Some(CampaignReport::from_jsonl(&text).map_err(|e| StoreError::Corrupt {
                    path: dir.join("report.jsonl").display().to_string(),
                    message: e.to_string(),
                })?)
            }
            None => None,
        };
        Ok(StoredRun { id: id.clone(), manifest, data, report })
    }

    /// Manifests of all finalized runs, sorted by run ID. Interrupted
    /// runs (checkpoints but no manifest yet) are not listed — they are
    /// resumable, not readable.
    pub fn list(&self) -> Result<Vec<Manifest>, StoreError> {
        let runs = self.root.join("runs");
        let mut out = Vec::new();
        for entry in fs::read_dir(&runs).map_err(|e| io_err(&runs, e))? {
            let entry = entry.map_err(|e| io_err(&runs, e))?;
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if let Ok(id) = RunId::parse(&name) {
                if let Some(manifest) = self.try_manifest(&id)? {
                    out.push(manifest);
                }
            }
        }
        out.sort_by(|a, b| a.run_id.cmp(&b.run_id));
        Ok(out)
    }

    /// Manifests of finalized runs matching `query`, sorted by run ID.
    /// The empty query selects everything [`Store::list`] returns.
    pub fn select(&self, query: &RunQuery) -> Result<Vec<Manifest>, StoreError> {
        let mut out = self.list()?;
        out.retain(|m| query.matches(m));
        Ok(out)
    }

    /// Reclaims space: deletes checkpoint segments of finalized runs
    /// (the records are archived; the resume trail is spent) and prunes
    /// debris directories that hold neither a manifest nor a
    /// checkpoints/ dir. Interrupted runs keep their checkpoints — they
    /// are the only copy of that work — and in-flight sessions (an
    /// empty checkpoints/ dir, no shard finished yet) are left alone.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let runs = self.root.join("runs");
        let mut report = GcReport::default();
        for entry in fs::read_dir(&runs).map_err(|e| io_err(&runs, e))? {
            let entry = entry.map_err(|e| io_err(&runs, e))?;
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let finalized = dir.join("manifest.json").exists();
            let checkpoints = dir.join("checkpoints");
            if finalized && checkpoints.is_dir() {
                for seg in fs::read_dir(&checkpoints).map_err(|e| io_err(&checkpoints, e))? {
                    let seg = seg.map_err(|e| io_err(&checkpoints, e))?;
                    let path = seg.path();
                    if path.is_file() {
                        let bytes = path.metadata().map(|m| m.len()).unwrap_or(0);
                        fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                        report.removed_segments += 1;
                        report.reclaimed_bytes += bytes;
                    }
                }
                let _ = fs::remove_dir(&checkpoints); // only if now empty
                                                      // A finalized run's manifest may pin checkpoint
                                                      // artifacts; rewrite it without them so get() still
                                                      // verifies cleanly after the purge.
                if let Ok(name) = entry.file_name().into_string() {
                    if let Ok(id) = RunId::parse(&name) {
                        if let Some(mut manifest) = self.try_manifest(&id)? {
                            manifest.artifacts.retain(|a| !a.name.starts_with("checkpoints/"));
                            write_atomic(&dir.join("manifest.json"), &manifest.to_json())?;
                        }
                    }
                }
            } else if !finalized && !checkpoints.is_dir() {
                // Debris: no manifest and no checkpoints/ dir at all.
                // A live session creates checkpoints/ before its first
                // shard lands, so a directory that *has* one — even an
                // empty one — may be an in-flight campaign and is left
                // alone; deleting it out from under the session would
                // abort the campaign at its next shard flush.
                let _ = fs::remove_dir_all(&dir);
                report.removed_dirs += 1;
            }
        }
        Ok(report)
    }
}

fn artifact(name: &str, contents: &str) -> Artifact {
    Artifact {
        name: name.to_string(),
        bytes: contents.len() as u64,
        sha256: sha256_hex(contents.as_bytes()),
    }
}

/// Writes `contents` to `dir/name` atomically and returns its manifest
/// entry.
fn put_artifact(dir: &Path, name: &str, contents: &str) -> Result<Artifact, StoreError> {
    write_atomic(&dir.join(name), contents)?;
    Ok(artifact(name, contents))
}

/// Manifest entries for the `.csv` segments under `checkpoints`, sorted
/// by name; none when the directory does not exist.
fn segment_artifacts(checkpoints: &Path) -> Result<Vec<Artifact>, StoreError> {
    if !checkpoints.is_dir() {
        return Ok(Vec::new());
    }
    let mut names: Vec<String> = fs::read_dir(checkpoints)
        .map_err(|e| io_err(checkpoints, e))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            let path = checkpoints.join(name);
            let contents = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
            Ok(artifact(&format!("checkpoints/{name}"), &contents))
        })
        .collect()
}

fn collision(id: &RunId, stored: &Manifest, incoming: &CampaignKey) -> StoreError {
    let render = |plan_hash: &str, target: &str, seed: Option<u64>, shards: u64| {
        format!(
            "(plan {}, target {target}, seed {}, shards {shards})",
            &plan_hash[..12.min(plan_hash.len())],
            seed_str(seed)
        )
    };
    StoreError::Collision {
        run_id: id.to_string(),
        stored: render(&stored.plan_hash, &stored.target, stored.seed, stored.shards),
        incoming: render(&incoming.plan_hash, &incoming.target, incoming.seed, incoming.shards),
    }
}

/// A segment's measurement body: the campaign-CSV rendering of its
/// records (header + rows, no metadata comments). Its digest is stamped
/// into the segment at save time and recomputed from the parsed records
/// at load time, so a flipped value in a checkpoint is caught even
/// though interrupted runs have no manifest to verify against yet.
fn records_body(factor_names: &[String], records: &[RawRecord]) -> String {
    let mut body = charm_engine::record::csv_header(factor_names);
    body.push('\n');
    for r in records {
        r.write_csv_row(&mut body).expect("writing to a String cannot fail");
        body.push('\n');
    }
    body
}

/// The checkpoint sink for one campaign's run directory: what
/// `Campaign::store` writes through and, on resume, reads from.
/// Segments are mini campaign CSVs carrying their own provenance
/// (`plan_hash`, target identity, geometry, shard clock, records
/// digest) so a stale, foreign or tampered segment is rejected rather
/// than replayed.
#[derive(Debug)]
pub struct CheckpointSession {
    dir: PathBuf,
    key: CampaignKey,
    run_id: RunId,
    factor_names: Vec<String>,
}

impl CheckpointSession {
    /// The run ID this session's campaign addresses.
    pub fn run_id(&self) -> &RunId {
        &self.run_id
    }

    /// The campaign key this session was opened for — what
    /// [`Store::put_run`] archives the finished campaign under.
    pub fn key(&self) -> &CampaignKey {
        &self.key
    }

    fn segment_path(&self, shard: usize, shards: usize) -> PathBuf {
        self.dir.join("checkpoints").join(format!("shard-{shard}-of-{shards}.csv"))
    }
}

impl CheckpointSink for CheckpointSession {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        // The body is rendered once: hashed for the metadata, then
        // written after it. The bytes are the campaign-CSV rendering of
        // the segment (`CampaignData::to_csv`), which `load_shard` parses.
        let body = records_body(&self.factor_names, &checkpoint.records);
        let metadata = BTreeMap::from([
            ("checkpoint_shard", shard.to_string()),
            ("checkpoint_shards", shards.to_string()),
            ("checkpoint_plan_hash", self.key.plan_hash.clone()),
            ("checkpoint_target", self.key.target.clone()),
            ("checkpoint_records_sha256", sha256_hex(body.as_bytes())),
            ("checkpoint_elapsed_us", checkpoint.elapsed_us.to_string()),
        ]);
        let mut segment = String::with_capacity(body.len() + 512);
        for (k, v) in &metadata {
            writeln!(segment, "# {k}: {v}").expect("writing to a String cannot fail");
        }
        segment.push_str(&body);
        let path = self.segment_path(shard, shards);
        write_atomic(&path, &segment).map_err(|e| CheckpointError(e.to_string()))
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        let path = self.segment_path(shard, shards);
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)
            .map_err(|e| CheckpointError(format!("{}: {e}", path.display())))?;
        let segment = CampaignData::from_csv(&text)
            .map_err(|e| CheckpointError(format!("{}: {e}", path.display())))?;
        let meta = |key: &str| {
            segment
                .metadata
                .get(key)
                .cloned()
                .ok_or_else(|| CheckpointError(format!("{}: missing {key}", path.display())))
        };
        if meta("checkpoint_plan_hash")? != self.key.plan_hash {
            return Err(CheckpointError(format!(
                "{}: segment belongs to a different plan",
                path.display()
            )));
        }
        if meta("checkpoint_target")? != self.key.target {
            return Err(CheckpointError(format!(
                "{}: segment belongs to a different target (segment {}, campaign {})",
                path.display(),
                segment.metadata.get("checkpoint_target").map(String::as_str).unwrap_or("?"),
                self.key.target
            )));
        }
        if meta("checkpoint_shard")? != shard.to_string()
            || meta("checkpoint_shards")? != shards.to_string()
        {
            return Err(CheckpointError(format!(
                "{}: segment geometry does not match shard {shard} of {shards}",
                path.display()
            )));
        }
        if segment.factor_names != self.factor_names {
            return Err(CheckpointError(format!(
                "{}: segment factor columns do not match the plan",
                path.display()
            )));
        }
        let expected = meta("checkpoint_records_sha256")?;
        let actual = sha256_hex(records_body(&self.factor_names, &segment.records).as_bytes());
        if expected != actual {
            return Err(CheckpointError(format!(
                "{}: segment records do not match their recorded digest \
                 (saved {expected}, on-disk {actual}) — modified after save",
                path.display()
            )));
        }
        let elapsed_us: f64 = meta("checkpoint_elapsed_us")?
            .parse()
            .map_err(|_| CheckpointError(format!("{}: bad elapsed_us", path.display())))?;
        let records: Vec<RawRecord> = segment.records;
        Ok(Some(ShardCheckpoint { records, elapsed_us }))
    }
}
