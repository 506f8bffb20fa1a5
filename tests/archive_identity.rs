//! Archive identities stay put: the plan hash and run ID of a committed
//! benchmark spec are pinned, so a change to plan rendering that moved
//! them would orphan every existing store's run directories.

use charm_core::spec::BenchmarkSpec;
use charm_store::CampaignKey;

#[test]
fn campaign_smoke_plan_hash_and_run_id_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmarks/campaign_smoke.toml");
    let spec = BenchmarkSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let plan = spec.resolve(42, &[]).unwrap().plan;
    let key = CampaignKey::of(&plan, "taurus#000000000000", Some(42), 2);
    assert_eq!(key.plan_hash, "ef6cf9fe0c103967aebee8bcaf1dca5db9fa1d4eb3620da4278f6c215e7bb0b8");
    assert_eq!(key.run_id().as_str(), "9e81222b66b4b84552426ad392cd9cbb");
}
