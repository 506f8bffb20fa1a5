//! Pins the sequential front door's bytes in tier-1: a small
//! fig11-style campaign (ARM Snowball, real-time intruder — a
//! time-dependent target that may never be sharded) run observed through
//! `Campaign::run` on a borrowed target. Its CSV (metadata included) and
//! its report's counters, diagnostics, events and span timeline are
//! fixed strings: every sequential artifact (fig08, fig10, fig11, fig12)
//! is produced by this path, so a change here is a change to them.

use charm::design::doe::FullFactorial;
use charm::design::Factor;
use charm::engine::target::MemoryTarget;
use charm::engine::{Campaign, CampaignRun};
use charm::obs::Observer;
use charm::simmem::dvfs::GovernorPolicy;
use charm::simmem::machine::{CpuSpec, MachineSim};
use charm::simmem::paging::AllocPolicy;
use charm::simmem::sched::SchedPolicy;

const SEED: u64 = 20170529;

/// Runs the pinned campaign; also returns how many measurements the
/// caller's own target took (the run measures it in place).
fn run() -> (CampaignRun, u64) {
    let mut plan = FullFactorial::new()
        .factor(Factor::new("size_bytes", vec![4096i64, 45056]))
        .factor(Factor::new("nloops", vec![40i64]))
        .replicates(6)
        .build()
        .unwrap();
    plan.shuffle(SEED);
    let mut target = MemoryTarget::new(
        "arm-rt",
        MachineSim::new(
            CpuSpec::arm_snowball(),
            GovernorPolicy::Performance,
            SchedPolicy::PinnedRealtime,
            AllocPolicy::PooledRandomOffset,
            SEED,
        ),
    );
    let run =
        Campaign::new(&plan, &mut target).seed(SEED).observer(Observer::default()).run().unwrap();
    (run, target.machine().measurements_taken())
}

const EXPECTED_CSV: &str = r#"# cpu: ARMv7 Snowball 1.0GHz
# dram_latency_cycles: 150
# engine: charm-engine
# engine_version: 0.1.0
# l1_cache: 32KB 4-way 32B lines
# l2_cache: 512KB 8-way 32B lines
# observed: true
# order: randomized
# page_bytes: 4096
# plan_rows: 12
# platform: arm-rt
# shuffle_seed: 20170529
# target_kind: memory
# value_unit: MB/s
# word_bits: 32
size_bytes,nloops,replicate,sequence,start_us,value
4096,40,5,0,300,1158.7336804840913
4096,40,0,1,741.3957346364107,1165.7407446553611
4096,40,4,2,1181.9415641882786,1166.835833251343
45056,40,5,3,1622.3554898932052,555.9179560035002
45056,40,1,4,5164.272719831812,492.22226042707103
45056,40,0,5,9125.70810155613,586.7641217828086
45056,40,3,6,12497.197875886779,549.663474790727
4096,40,3,7,16076.004059408733,1149.249676391262
45056,40,2,8,16518.566640339337,631.3517671208502
4096,40,2,9,19673.140102957084,227.1252839165496
4096,40,1,10,20694.504088396054,238.439355278076
45056,40,4,11,21681.638977722207,130.0369074151105
"#;

/// The report's JSONL export with each span's host `wall_ns` cut off
/// (wall time is not reproducible; the virtual span times are).
const EXPECTED_REPORT: &str = r#"{"type":"meta","version":1,"shards":1,"dropped_events":0}
{"type":"counter","key":"engine.rows","value":12}
{"type":"counter","key":"simmem.cache.dram_lines","value":0}
{"type":"counter","key":"simmem.cache.l1.evictions","value":261120}
{"type":"counter","key":"simmem.cache.l1.hits","value":2688000}
{"type":"counter","key":"simmem.cache.l1.misses","value":261120}
{"type":"counter","key":"simmem.cache.l2.evictions","value":0}
{"type":"counter","key":"simmem.cache.l2.hits","value":261120}
{"type":"counter","key":"simmem.cache.l2.misses","value":0}
{"type":"counter","key":"simmem.dvfs.max_freq_permille","value":12000}
{"type":"counter","key":"simmem.dvfs.residency.high","value":12}
{"type":"counter","key":"simmem.dvfs.transitions","value":0}
{"type":"counter","key":"simmem.measurements","value":12}
{"type":"counter","key":"simmem.paging.color.0","value":30}
{"type":"counter","key":"simmem.paging.color.1","value":42}
{"type":"counter","key":"simmem.paging.pages_allocated","value":72}
{"type":"counter","key":"simmem.sched.preemptions","value":3}
{"type":"diag","key":"simmem.profile_cache.hit_rate_permille","value":0}
{"type":"diag","key":"simmem.profile_cache.hits","value":0}
{"type":"diag","key":"simmem.profile_cache.misses","value":12}
{"type":"event","seq":0,"kind":"measure","t_us":300,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":1,"kind":"measure","t_us":741.3957346364107,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":2,"kind":"measure","t_us":1181.9415641882786,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":3,"kind":"measure","t_us":1622.3554898932052,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":4,"kind":"measure","t_us":5164.272719831812,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":5,"kind":"measure","t_us":9125.70810155613,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":6,"kind":"measure","t_us":12497.197875886779,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":7,"kind":"measure","t_us":16076.004059408733,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":8,"kind":"measure","t_us":16518.566640339337,"attrs":{"max_freq_fraction":"1","intruded":"false"}}
{"type":"event","seq":9,"kind":"measure","t_us":19673.140102957084,"attrs":{"max_freq_fraction":"1","intruded":"true"}}
{"type":"event","seq":10,"kind":"measure","t_us":20694.504088396054,"attrs":{"max_freq_fraction":"1","intruded":"true"}}
{"type":"event","seq":11,"kind":"measure","t_us":21681.638977722207,"attrs":{"max_freq_fraction":"1","intruded":"true"}}
{"type":"span","name":"campaign","t_start_us":0,"t_end_us":21681.638977722207}
"#;

#[test]
fn sequential_campaign_csv_is_pinned() {
    let (run, measured_in_place) = run();
    assert_eq!(run.data.to_csv(), EXPECTED_CSV);
    assert_eq!(measured_in_place, 12, "the caller's target took every measurement");
}

#[test]
fn sequential_report_is_pinned() {
    let (run, _) = run();
    let report = run.report.expect("observer attached").to_jsonl();
    let stripped: String = report
        .lines()
        .map(|l| match l.split_once(",\"wall_ns\":") {
            Some((head, _)) => format!("{head}}}\n"),
            None => format!("{l}\n"),
        })
        .collect();
    assert_eq!(stripped, EXPECTED_REPORT);
}

#[test]
fn sequential_metadata_has_no_scheduler_geometry() {
    let (run, _) = run();
    for key in ["shards", "batches", "shard_clock_offsets"] {
        assert!(!run.data.metadata.contains_key(key), "sequential metadata carries {key}");
    }
}
