//! One run ID names one archive: `charm-serve` and `run_campaign
//! --store` derive the same key for the same campaign, and both route it
//! through `Store::route`, so whichever front door archived a campaign
//! first, the other replays those bytes — or resumes that run — instead
//! of computing a different batch geometry under the same ID.
//!
//! `run_campaign_path` below follows `run_campaign`'s in-process `--store`
//! path step for step: DSL plan, registry platform, the key from `(plan,
//! target, seed, shards)`, route, then replay, or run through the
//! checkpoint session and archive.

use charm_design::{dsl, ExperimentPlan};
use charm_engine::registry::{self, ResolvedTarget};
use charm_engine::target::NetworkTarget;
use charm_engine::Campaign;
use charm_serve::protocol::{Event, PlanKind, Source};
use charm_serve::{Client, Server, ServerConfig};
use charm_store::{target_identity, CampaignKey, Route, Store};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// CI's store-smoke plan: 96 rows.
const SMOKE_PLAN: &str = "factor op in [ping_pong, async_send]\n\
                          factor size loguniform 64..65536 count 12 seed 7\n\
                          replicates 4\n\
                          order randomized 42\n";
const SEED: u64 = 5;
const SHARDS: u64 = 3;
/// The run ID both front doors derive for the smoke plan on `taurus`.
const RUN_ID: &str = "f3d87053ded713b158933e2372174d75";

/// Scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let p = std::env::temp_dir().join(format!("charm_one_key_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every file under `dir` with its bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(snapshot(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

/// Archives the smoke campaign through a `charm-serve` daemon on `store`
/// and returns its run directory.
fn serve_archive(store: &Path) -> PathBuf {
    let config = ServerConfig { store_dir: store.to_path_buf(), ..Default::default() };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.addr().to_string(), "t").unwrap();
    let run = client.run(PlanKind::Dsl, SMOKE_PLAN, "taurus", SEED, SHARDS, false).unwrap();
    let Event::Done { run_id, source: Source::Engine, .. } = run.unwrap().terminal else {
        panic!("serve should execute the fresh campaign");
    };
    server.shutdown();
    assert_eq!(run_id, RUN_ID);
    store.join("runs").join(run_id)
}

fn taurus(plan_seed: u64) -> NetworkTarget {
    let spec = registry::platform("taurus").unwrap();
    match registry::resolve(&spec, plan_seed).unwrap() {
        ResolvedTarget::Network(t) => *t,
        _ => unreachable!("taurus is a network platform"),
    }
}

/// `run_campaign <plan> taurus --seed 5 --shards 3 --store <store>`:
/// how the store routed the key, and the campaign CSV it writes.
fn run_campaign_path(store: &Store, plan: &ExperimentPlan) -> (Route, String) {
    let target = taurus(SEED);
    let key = CampaignKey::of(plan, &target_identity(&target), Some(SEED), SHARDS);
    let route = store.route(&key, false).unwrap();
    if let Route::Replay(id) = &route {
        return (route.clone(), store.get(id).unwrap().data.to_csv());
    }
    let session = store.open_session(key, plan.factor_names()).unwrap();
    let run = Campaign::new(plan, target).shards(SHARDS as usize).store(&session).run().unwrap();
    store.put_run(session.key(), "taurus", "run_campaign", &run.data, None).unwrap();
    (route, run.data.to_csv())
}

#[test]
fn run_campaign_replays_what_serve_archived() {
    let scratch = Scratch::new("replay");
    let run_dir = serve_archive(&scratch.0);
    let archived = std::fs::read_to_string(run_dir.join("records.csv")).unwrap();
    assert!(archived.contains("# batches: 15\n"), "serve takes the 3 shards literally");

    let store = Store::open(&scratch.0).unwrap();
    let plan = dsl::compile(SMOKE_PLAN).unwrap();
    let before = snapshot(&scratch.0);
    let (route, csv) = run_campaign_path(&store, &plan);
    assert_eq!(route, Route::Replay(charm_store::RunId::parse(RUN_ID).unwrap()));
    assert_eq!(csv, archived, "the replay is serve's records.csv, byte for byte");
    assert_eq!(snapshot(&scratch.0), before, "a replay writes nothing to the store");

    // And those bytes are what an unstored direct run writes.
    let direct = Campaign::new(&plan, taurus(SEED)).shards(SHARDS as usize).run().unwrap();
    assert_eq!(direct.data.to_csv(), archived);
}

#[test]
fn run_campaign_resumes_an_interrupted_serve_archive_byte_identically() {
    let scratch = Scratch::new("resume");
    let run_dir = serve_archive(&scratch.0);
    let archived = std::fs::read_to_string(run_dir.join("records.csv")).unwrap();
    let segment = run_dir.join("checkpoints").join("shard-1-of-15.csv");
    let segment_bytes = std::fs::read(&segment).unwrap();
    // Fake an interruption: one finished batch, the manifest and the
    // records are gone.
    for gone in [&segment, &run_dir.join("manifest.json"), &run_dir.join("records.csv")] {
        std::fs::remove_file(gone).unwrap();
    }

    let store = Store::open(&scratch.0).unwrap();
    let plan = dsl::compile(SMOKE_PLAN).unwrap();
    let (route, csv) = run_campaign_path(&store, &plan);
    assert_eq!(route, Route::Resume);
    assert_eq!(csv, archived, "the resumed run equals the uninterrupted one");
    assert_eq!(std::fs::read_to_string(run_dir.join("records.csv")).unwrap(), archived);
    assert_eq!(std::fs::read(&segment).unwrap(), segment_bytes, "the missing batch re-ran");
    // The rebuilt archive now replays.
    assert!(matches!(run_campaign_path(&store, &plan).0, Route::Replay(_)));
}
