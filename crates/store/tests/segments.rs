//! The checkpoint segment format is fixed: `save_shard` renders a
//! segment's rows once, but the file it writes must stay byte-identical
//! to the campaign-CSV rendering of the segment it always wrote, so
//! stores written by earlier builds still resume.

use charm_design::factors::Levels;
use charm_design::Level;
use charm_engine::checkpoint::{CheckpointSink, ShardCheckpoint};
use charm_engine::{CampaignData, RawRecord};
use charm_store::digest::sha256_hex;
use charm_store::{CampaignKey, Store};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("charm-store-seg-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A finite value drawn from raw bits.
fn finite(raw: u64) -> f64 {
    let f = f64::from_bits(raw);
    if f.is_finite() {
        f
    } else {
        raw as f64
    }
}

/// A level of `kind` whose CSV text parses back to itself.
fn level_of(kind: u8, raw: u64) -> Level {
    match kind % 4 {
        0 => Level::Int(raw as i64),
        1 => Level::Float((raw % 100_000) as f64 / 8.0 + 0.0625),
        2 => Level::Text(format!("op{}", raw % 3)),
        _ => Level::Flag(raw & 1 == 1),
    }
}

/// The segment as it was always rendered: a `CampaignData` whose
/// metadata carries the checkpoint provenance, through `to_csv`.
fn old_rendering(
    key: &CampaignKey,
    shard: usize,
    shards: usize,
    factor_names: &[String],
    checkpoint: &ShardCheckpoint,
) -> String {
    let body = CampaignData {
        metadata: BTreeMap::new(),
        factor_names: factor_names.to_vec(),
        records: checkpoint.records.clone(),
    }
    .to_csv();
    let mut metadata = BTreeMap::new();
    metadata.insert("checkpoint_shard".to_string(), shard.to_string());
    metadata.insert("checkpoint_shards".to_string(), shards.to_string());
    metadata.insert("checkpoint_plan_hash".to_string(), key.plan_hash.clone());
    metadata.insert("checkpoint_target".to_string(), key.target.clone());
    metadata.insert("checkpoint_records_sha256".to_string(), sha256_hex(body.as_bytes()));
    metadata.insert("checkpoint_elapsed_us".to_string(), format!("{}", checkpoint.elapsed_us));
    CampaignData {
        metadata,
        factor_names: factor_names.to_vec(),
        records: checkpoint.records.clone(),
    }
    .to_csv()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn saved_segment_equals_the_campaign_csv_rendering_and_loads(
        kinds in prop::collection::vec(0u8..4, 0..4),
        cells in 1usize..6,
        rows in 0usize..40,
        raw in prop::collection::vec(any::<u64>(), 8..48),
        shards in 1usize..9,
        shard_draw in any::<u64>(),
    ) {
        let factor_names: Vec<String> = (0..kinds.len()).map(|i| format!("f{i}")).collect();
        let mut draw = raw.iter().cycle().copied();
        let cell_levels: Vec<Levels> = (0..cells)
            .map(|_| kinds.iter().map(|&k| level_of(k, draw.next().unwrap())).collect())
            .collect();
        let records: Vec<RawRecord> = (0..rows)
            .map(|i| RawRecord {
                levels: cell_levels[draw.next().unwrap() as usize % cells].clone(),
                replicate: (draw.next().unwrap() % 50) as u32,
                sequence: i as u64,
                start_us: finite(draw.next().unwrap()),
                value: finite(draw.next().unwrap()),
            })
            .collect();
        let checkpoint = ShardCheckpoint { records, elapsed_us: finite(draw.next().unwrap()).abs() };
        let shard = shard_draw as usize % shards;
        let key = CampaignKey {
            plan_hash: sha256_hex(&shard_draw.to_le_bytes()),
            target: "m#prop00000000".to_string(),
            seed: Some(shard_draw),
            shards: shards as u64,
        };

        let dir = scratch("format");
        let store = Store::open(&dir).unwrap();
        let session = store.open_session(key.clone(), &factor_names).unwrap();
        session.save_shard(shard, shards, &checkpoint).unwrap();
        let path = dir
            .join("runs")
            .join(session.run_id().as_str())
            .join("checkpoints")
            .join(format!("shard-{shard}-of-{shards}.csv"));
        let old = old_rendering(&key, shard, shards, &factor_names, &checkpoint);
        prop_assert_eq!(std::fs::read_to_string(&path).unwrap(), old.clone());

        // A segment written the old way resumes.
        std::fs::write(&path, &old).unwrap();
        let loaded = session.load_shard(shard, shards).unwrap();
        prop_assert_eq!(loaded, Some(checkpoint));
        std::fs::remove_dir_all(&dir).ok();
    }
}
