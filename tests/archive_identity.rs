//! Archive identities stay put: the plan hash and run ID of a committed
//! benchmark spec are pinned, and every DSL platform name resolves to
//! the target identity it always had, so a change to plan rendering or
//! to the platform table that moved them would orphan every existing
//! store's run directories.

use charm_core::spec::BenchmarkSpec;
use charm_design::{dsl, ExperimentPlan};
use charm_engine::registry::{self, ResolvedTarget};
use charm_engine::{Campaign, Target};
use charm_store::{target_identity, CampaignKey};

#[test]
fn campaign_smoke_plan_hash_and_run_id_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/campaign_smoke.toml");
    let spec = BenchmarkSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let plan = spec.resolve(42, &[]).unwrap().plan;
    let key = CampaignKey::of(&plan, "taurus#000000000000", Some(42), 2);
    assert_eq!(key.plan_hash, "ef6cf9fe0c103967aebee8bcaf1dca5db9fa1d4eb3620da4278f6c215e7bb0b8");
    assert_eq!(key.run_id().as_str(), "9e81222b66b4b84552426ad392cd9cbb");
}

/// A target's archive identity and the campaign CSV it records for
/// `plan`. The identity leaves the governor, scheduler and allocation
/// policies out, so the records pin those defaults too.
fn fingerprint<T: Target>(target: T, plan: &ExperimentPlan) -> (String, String) {
    let id = target_identity(&target);
    (id, Campaign::new(plan, target).run().unwrap().data.to_csv())
}

/// The DSL platform table as `run_campaign` built it by hand before it
/// resolved through `registry::platform`: the reference construction
/// every DSL platform must keep matching.
fn hand_built(name: &str, seed: u64, plan: &ExperimentPlan) -> (String, String) {
    use charm_engine::target::{MemoryTarget, NetworkTarget};
    use charm_simmem::dvfs::GovernorPolicy;
    use charm_simmem::machine::{CpuSpec, MachineSim};
    use charm_simmem::paging::AllocPolicy;
    use charm_simmem::sched::SchedPolicy;
    use charm_simnet::presets;
    let net = |sim| fingerprint(NetworkTarget::new(name, sim), plan);
    let mem = |spec| {
        let machine = MachineSim::new(
            spec,
            GovernorPolicy::Performance,
            SchedPolicy::PinnedDefault,
            AllocPolicy::PooledRandomOffset,
            seed,
        );
        fingerprint(MemoryTarget::new(name, machine), plan)
    };
    match name {
        "taurus" => net(presets::taurus_openmpi_tcp(seed)),
        "myrinet" => net(presets::myrinet_gm(seed)),
        "openmpi" => net(presets::openmpi_fig3(seed)),
        "opteron" => mem(CpuSpec::opteron()),
        "pentium4" => mem(CpuSpec::pentium4()),
        "i7" => mem(CpuSpec::core_i7_2600()),
        "arm" => mem(CpuSpec::arm_snowball()),
        other => panic!("no hand-built target for {other:?}"),
    }
}

#[test]
fn dsl_platform_table_keeps_every_target_identity_and_run_id() {
    let net_plan = dsl::compile(
        "factor op in [ping_pong, async_send]\nfactor size in [64, 4096]\nreplicates 2\n",
    )
    .unwrap();
    let mem_plan = dsl::compile("factor size_bytes in [16384, 262144]\nreplicates 2\n").unwrap();
    let platforms = ["taurus", "myrinet", "openmpi", "opteron", "pentium4", "i7", "arm"];
    let names: Vec<&str> =
        registry::network_presets().iter().chain(registry::memory_cpus()).copied().collect();
    assert_eq!(names, platforms, "the registry's platform names moved");
    for name in platforms {
        for seed in [20170529, 7] {
            let resolved = registry::resolve(&registry::platform(name).unwrap(), seed).unwrap();
            let (plan, (id, csv)) = match resolved {
                ResolvedTarget::Network(t) => (&net_plan, fingerprint(*t, &net_plan)),
                ResolvedTarget::Memory(t) => (&mem_plan, fingerprint(*t, &mem_plan)),
                other => panic!("{name}: expected an in-process target, got {other:?}"),
            };
            let (reference_id, reference_csv) = hand_built(name, seed, plan);
            assert_eq!(id, reference_id, "{name} at seed {seed}");
            assert_eq!(
                CampaignKey::of(plan, &id, Some(seed), 2).run_id(),
                CampaignKey::of(plan, &reference_id, Some(seed), 2).run_id(),
                "{name} at seed {seed}"
            );
            assert!(csv == reference_csv, "{name} at seed {seed}: records differ");
        }
    }
}
