//! Property-based tests of the measurement engine, including the
//! work-stealing scheduler's determinism contract: records are
//! bit-identical to the sequential run at any worker count, any shared
//! profile-cache capacity, and any checkpoint kill/resume pattern.

use charm_design::doe::FullFactorial;
use charm_design::factors::Levels;
use charm_design::plan::{ExperimentPlan, PlanRow};
use charm_design::{Factor, Level};
use charm_engine::checkpoint::{CheckpointError, CheckpointSink, ShardCheckpoint};
use charm_engine::record::{Campaign, CampaignParseError, RawRecord};
use charm_engine::target::{MemoryTarget, NetworkTarget, ParallelTarget};
use charm_engine::{batch_bounds, batch_count, effective_workers};
use charm_obs::Observer;
use charm_simmem::dvfs::GovernorPolicy;
use charm_simmem::machine::{CpuSpec, MachineSim};
use charm_simmem::paging::AllocPolicy;
use charm_simmem::sched::SchedPolicy;
use charm_simnet::presets;
use proptest::prelude::*;

fn plan_of(sizes: Vec<i64>, reps: u32, shuffle_seed: Option<u64>) -> ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("op", vec!["ping_pong"]))
        .factor(Factor::new("size", sizes))
        .replicates(reps)
        .build()
        .unwrap();
    if let Some(seed) = shuffle_seed {
        plan.shuffle(seed);
    }
    plan
}

fn run(sizes: Vec<i64>, reps: u32, seed: u64, shuffle: bool) -> Campaign {
    let plan = plan_of(sizes, reps, shuffle.then_some(seed));
    let mut target = NetworkTarget::new("m", presets::myrinet_gm(seed));
    charm_engine::Campaign::new(&plan, &mut target)
        .seed(shuffle.then_some(seed))
        .run()
        .unwrap()
        .data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn record_count_is_plan_size(
        sizes in prop::collection::vec(1i64..1_000_000, 1..8),
        reps in 1u32..6,
        seed in any::<u64>(),
        shuffle in any::<bool>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let c = run(distinct.iter().copied().collect(), reps, seed, shuffle);
        prop_assert_eq!(c.records.len(), distinct.len() * reps as usize);
    }

    #[test]
    fn csv_roundtrip_any_campaign(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 1u32..4,
        seed in any::<u64>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let c = run(distinct.into_iter().collect(), reps, seed, true);
        let back = Campaign::from_csv(&c.to_csv()).unwrap();
        prop_assert_eq!(c, back);
    }

    #[test]
    fn timestamps_strictly_increase(
        reps in 2u32..8, seed in any::<u64>()
    ) {
        let c = run(vec![64, 4096, 65536], reps, seed, true);
        for w in c.records.windows(2) {
            prop_assert!(w[1].start_us > w[0].start_us);
        }
    }

    #[test]
    fn values_positive_and_finite(seed in any::<u64>()) {
        let c = run(vec![1, 1024, 1 << 20], 3, seed, true);
        prop_assert!(c.values().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn observer_never_changes_records_or_clock(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 1u32..4,
        seed in any::<u64>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let plain = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .seed(seed)
            .run()
            .unwrap()
            .data;
        let observed = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .seed(seed)
            .observer(Observer::default())
            .run()
            .unwrap();
        prop_assert_eq!(plain.records.len(), observed.data.records.len());
        for (a, b) in plain.records.iter().zip(&observed.data.records) {
            prop_assert_eq!(&a.levels, &b.levels);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            prop_assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
        }
    }

    #[test]
    fn counter_merge_is_shard_count_invariant(
        sizes in prop::collection::vec(1i64..1_000_000, 2..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 2usize..6,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let one = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(1)
            .seed(seed)
            .observer(Observer::default())
            .run()
            .unwrap();
        let many = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .observer(Observer::default())
            .run()
            .unwrap();
        prop_assert_eq!(one.data.records.len(), many.data.records.len());
        for (a, b) in one.data.records.iter().zip(&many.data.records) {
            prop_assert_eq!(&a.levels, &b.levels);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            // reconstructed per-shard clocks wobble at float rounding
            let tol = 1e-9 * a.start_us.abs().max(1.0);
            prop_assert!((a.start_us - b.start_us).abs() <= tol);
        }
        prop_assert_eq!(
            one.report.unwrap().counters,
            many.report.unwrap().counters
        );
    }

    #[test]
    fn grouping_partitions_records(
        sizes in prop::collection::vec(1i64..100_000, 2..6),
        reps in 1u32..5,
        seed in any::<u64>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let c = run(distinct.into_iter().collect(), reps, seed, true);
        let groups = c.group_by(&["size"]);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(total, c.records.len());
        prop_assert!(groups.iter().all(|(_, v)| v.len() == reps as usize));
    }
}

/// A memory target over a fresh machine with the given profile-cache
/// capacity. Rebuilding the machine from the same seed reproduces the
/// exact RNG streams, so two targets built by this function are
/// interchangeable for determinism comparisons.
fn mem_target(seed: u64, cache_capacity: usize) -> MemoryTarget {
    let mut machine = MachineSim::new(
        CpuSpec::arm_snowball(),
        GovernorPolicy::Performance,
        SchedPolicy::PinnedDefault,
        AllocPolicy::MallocPerSize,
        seed,
    );
    machine.set_profile_cache_capacity(cache_capacity);
    MemoryTarget::new("arm", machine)
}

fn mem_plan(sizes: Vec<i64>, reps: u32, shuffle_seed: u64) -> ExperimentPlan {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", sizes))
        .factor(Factor::new("stride", vec![1i64, 4]))
        .replicates(reps)
        .build()
        .unwrap();
    plan.shuffle(shuffle_seed);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole contract: the work-stealing scheduler with a *shared*
    /// profile cache reproduces the sequential run bit-for-bit at every
    /// cache capacity — disabled (0), small enough to evict constantly,
    /// and effectively unbounded — because the cache is consulted only
    /// after the RNG draws that decide a measurement's value.
    #[test]
    fn work_stealing_matches_sequential_at_any_cache_capacity(
        sizes in prop::collection::vec(1024i64..262_144, 2..4),
        reps in 1u32..3,
        seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = mem_plan(distinct.into_iter().collect(), reps, seed);
        let reference = charm_engine::Campaign::new(&plan, mem_target(seed, usize::MAX))
            .seed(seed)
            .run()
            .unwrap()
            .data;
        for cache_capacity in [0usize, 2, usize::MAX] {
            for k in [1usize, shards] {
                let got = charm_engine::Campaign::new(&plan, mem_target(seed, cache_capacity))
                    .shards(k)
                    .min_rows_per_shard(1)
                    .seed(seed)
                    .run()
                    .unwrap()
                    .data;
                prop_assert_eq!(reference.records.len(), got.records.len());
                for (a, b) in reference.records.iter().zip(&got.records) {
                    prop_assert_eq!(&a.levels, &b.levels);
                    prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                }
            }
        }
    }
}

/// In-memory checkpoint sink keyed on `(batch, batches)`, with a kill
/// switch so proptests can simulate a campaign dying after an arbitrary
/// subset of batches was persisted.
struct MemorySink {
    segments: std::sync::Mutex<std::collections::HashMap<(usize, usize), ShardCheckpoint>>,
}

impl MemorySink {
    fn new() -> Self {
        MemorySink { segments: std::sync::Mutex::new(std::collections::HashMap::new()) }
    }

    fn kill(&self, batch: usize, batches: usize) {
        self.segments.lock().unwrap().remove(&(batch, batches));
    }
}

impl CheckpointSink for MemorySink {
    fn save_shard(
        &self,
        shard: usize,
        shards: usize,
        checkpoint: &ShardCheckpoint,
    ) -> Result<(), CheckpointError> {
        self.segments.lock().unwrap().insert((shard, shards), checkpoint.clone());
        Ok(())
    }

    fn load_shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> Result<Option<ShardCheckpoint>, CheckpointError> {
        Ok(self.segments.lock().unwrap().get(&(shard, shards)).cloned())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint/resume with dynamically claimed batches: killing any
    /// subset of a run's persisted batch segments and resuming yields a
    /// campaign bit-identical to an uninterrupted run — surviving
    /// batches replay, killed ones re-execute, and the in-order merge
    /// makes the two paths indistinguishable.
    #[test]
    fn dynamic_batch_resume_is_bit_identical(
        sizes in prop::collection::vec(1i64..1_000_000, 2..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 2usize..6,
        kill_bits in any::<u32>(),
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let workers = effective_workers(plan.len(), shards, 1);
        let nbatches = batch_count(plan.len(), workers, 1);

        let uninterrupted = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .run()
            .unwrap()
            .data;

        let sink = MemorySink::new();
        let first = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        prop_assert_eq!(&first, &uninterrupted);
        prop_assert_eq!(sink.segments.lock().unwrap().len(), nbatches);

        for b in 0..nbatches {
            if kill_bits >> (b % 32) & 1 == 1 {
                sink.kill(b, nbatches);
            }
        }
        let resumed = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .store(&sink)
            .resume(true)
            .run()
            .unwrap()
            .data;
        prop_assert_eq!(&resumed, &uninterrupted);
    }
}

/// Renders a campaign's CSV the pre-columnar way — one `format!` per
/// field, one `String` per row, `join` per line — so the
/// zero-allocation `write_csv_row` path has an independent oracle that
/// shares no code with it beyond std's float formatting.
fn reference_csv(c: &Campaign) -> String {
    let mut out = String::new();
    for (k, v) in &c.metadata {
        out.push_str(&format!("# {k}: {v}\n"));
    }
    let mut header: Vec<String> = c.factor_names.clone();
    header.extend(["replicate", "sequence", "start_us", "value"].map(String::from));
    out.push_str(&header.join(","));
    out.push('\n');
    for r in &c.records {
        let mut cols: Vec<String> = r.levels.iter().map(|l| l.to_string()).collect();
        cols.push(r.replicate.to_string());
        cols.push(r.sequence.to_string());
        cols.push(r.start_us.to_string());
        cols.push(r.value.to_string());
        out.push_str(&cols.join(","));
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Columnar serialization contract: the single-buffer
    /// `write_csv_row` path produces bytes identical to a naive
    /// allocate-per-row serializer, for sequential and sharded runs.
    #[test]
    fn columnar_csv_matches_reference_serializer(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let c = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .run()
            .unwrap()
            .data;
        prop_assert_eq!(c.to_csv(), reference_csv(&c));
    }

    /// Columnar layout contract: every record of a design cell points at
    /// one shared interned `Levels` allocation — the number of distinct
    /// allocations equals the number of distinct cells, sequential or
    /// sharded (the merge must not re-materialize level vectors).
    #[test]
    fn records_share_one_interned_levels_per_cell(
        sizes in prop::collection::vec(1i64..1_000_000, 1..6),
        reps in 2u32..5,
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.iter().copied().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let c = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .run()
            .unwrap()
            .data;
        let mut id_by_cell: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for r in &c.records {
            let cell = r.levels.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(",");
            let id = *id_by_cell.entry(cell).or_insert_with(|| r.levels.shared_id());
            prop_assert_eq!(id, r.levels.shared_id(), "cell split across allocations");
        }
        prop_assert_eq!(id_by_cell.len(), distinct.len());
        let distinct_ids: std::collections::HashSet<usize> =
            id_by_cell.values().copied().collect();
        prop_assert_eq!(distinct_ids.len(), id_by_cell.len());
    }

    /// Checkpoint segment contract: the persisted segments partition the
    /// plan's sequence range contiguously in batch order, and their
    /// records carry the same levels, replicates, and bit-identical
    /// values as the merged campaign (segment clocks are batch-local).
    #[test]
    fn checkpoint_segments_partition_the_run(
        sizes in prop::collection::vec(1i64..1_000_000, 2..6),
        reps in 1u32..4,
        seed in any::<u64>(),
        shards in 2usize..6,
    ) {
        let distinct: std::collections::HashSet<i64> = sizes.iter().copied().collect();
        let plan = plan_of(distinct.into_iter().collect(), reps, Some(seed));
        let base = NetworkTarget::new("m", presets::myrinet_gm(seed));
        let sink = MemorySink::new();
        let merged = charm_engine::Campaign::new(&plan, base.fork(base.stream_seed()))
            .shards(shards)
            .min_rows_per_shard(1)
            .seed(seed)
            .store(&sink)
            .run()
            .unwrap()
            .data;
        let segments = sink.segments.lock().unwrap();
        let nbatches = segments.keys().next().expect("at least one segment").1;
        prop_assert_eq!(segments.len(), nbatches);
        let mut next_seq = 0u64;
        for b in 0..nbatches {
            let chk = &segments[&(b, nbatches)];
            prop_assert!(!chk.records.is_empty(), "empty batch {}", b);
            for r in &chk.records {
                let m = &merged.records[r.sequence as usize];
                prop_assert_eq!(r.sequence, next_seq, "batch {} not contiguous", b);
                prop_assert_eq!(&r.levels, &m.levels);
                prop_assert_eq!(r.replicate, m.replicate);
                prop_assert_eq!(r.value.to_bits(), m.value.to_bits());
                next_seq += 1;
            }
        }
        prop_assert_eq!(next_seq as usize, merged.records.len());
    }

    /// Adaptive scheduler geometry: for any (rows, workers, floor) the
    /// batch bounds partition `0..rows` contiguously, shrink
    /// monotonically along the claim order, keep every non-final batch
    /// at or above the floor, and agree with `batch_count`.
    #[test]
    fn batch_bounds_partition_any_geometry(
        rows in 0usize..4000,
        workers in 1usize..9,
        floor in 1usize..300,
    ) {
        let bounds = batch_bounds(rows, workers, floor);
        prop_assert_eq!(bounds.len(), batch_count(rows, workers, floor));
        prop_assert_eq!(bounds[0].0, 0);
        prop_assert_eq!(bounds.last().unwrap().1, rows);
        for w in bounds.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "gap or overlap between batches");
            prop_assert!(w[0].1 - w[0].0 >= w[1].1 - w[1].0, "batch sizes must shrink");
        }
        for (i, (lo, hi)) in bounds.iter().enumerate() {
            prop_assert!(hi > lo || rows == 0, "empty batch {}", i);
            if i + 1 < bounds.len() {
                prop_assert!(hi - lo >= floor, "non-final batch below the floor");
            }
        }
        if workers == 1 {
            prop_assert_eq!(bounds.len(), 1);
        }
    }
}

/// A level of `kind` drawn from `raw`, chosen so its CSV text parses
/// back to the same variant: `Float`s keep a fractional part, `Text`
/// is never numeric or boolean.
fn level_of(kind: u8, raw: u64) -> Level {
    match kind % 4 {
        0 => Level::Int(raw as i64),
        1 => {
            let f = f64::from_bits(raw);
            Level::Float(if f.is_finite() && f.fract() != 0.0 {
                f
            } else {
                (raw % 1000) as f64 + 0.25
            })
        }
        2 => Level::Text(format!("t{}_{}", raw % 5, raw % 3)),
        _ => Level::Flag(raw & 1 == 1),
    }
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

/// A campaign of `cells` design cells × `reps` replicates over factors
/// of the given level kinds, run in a randomized order.
fn random_campaign(
    kinds: &[u8],
    cells: usize,
    reps: u32,
    raw: &[u64],
    order_seed: u64,
) -> Campaign {
    let factor_names: Vec<String> = (0..kinds.len()).map(|i| format!("f{i}")).collect();
    let mut draw = raw.iter().cycle().copied();
    let mut rows = Vec::new();
    for _ in 0..cells {
        let levels: Levels = kinds.iter().map(|&k| level_of(k, draw.next().unwrap())).collect();
        rows.extend((0..reps).map(|replicate| PlanRow { levels: levels.clone(), replicate }));
    }
    let mut plan = ExperimentPlan::new(factor_names.clone(), rows).unwrap();
    plan.shuffle(order_seed);
    let records = plan
        .rows()
        .iter()
        .enumerate()
        .map(|(sequence, row)| RawRecord {
            levels: row.levels.clone(),
            replicate: row.replicate,
            sequence: sequence as u64,
            start_us: finite(draw.next().unwrap()),
            value: finite(draw.next().unwrap()),
        })
        .collect();
    let metadata = [("platform".to_string(), "m".to_string())].into_iter().collect();
    Campaign { metadata, factor_names, records }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_csv` inverts `to_csv` for randomized-order campaigns with
    /// zero or more factors of every level kind, hands every row of one
    /// design cell the same shared tuple, and rejects rows with too few
    /// or too many fields.
    #[test]
    fn campaign_csv_round_trips_and_interns_per_cell(
        kinds in prop::collection::vec(0u8..4, 0..4),
        cells in 1usize..8,
        reps in 1u32..5,
        raw in prop::collection::vec(any::<u64>(), 16..64),
        order_seed in any::<u64>(),
    ) {
        let campaign = random_campaign(&kinds, cells, reps, &raw, order_seed);
        let csv = campaign.to_csv();
        let back = Campaign::from_csv(&csv).unwrap();
        prop_assert_eq!(&back, &campaign);

        let mut shared: Vec<(&Levels, usize)> = Vec::new();
        for r in &back.records {
            match shared.iter().find(|(levels, _)| **levels == r.levels) {
                Some((_, id)) => prop_assert_eq!(*id, r.levels.shared_id(), "cell not interned"),
                None => shared.push((&r.levels, r.levels.shared_id())),
            }
        }

        let row = csv.lines().last().unwrap();
        let (short, _) = row.rsplit_once(',').unwrap();
        for bad in [short.to_string(), format!("{row},0")] {
            let err = Campaign::from_csv(&format!("{csv}{bad}\n")).unwrap_err();
            prop_assert_eq!(err, CampaignParseError::BadRow(bad));
        }
    }
}
