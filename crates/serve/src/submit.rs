//! Submission compilation: turning a `submit` request's plan text into
//! everything the scheduler and the engine need.
//!
//! This is deliberately the same resolution path the `run_campaign` CLI
//! takes — DSL platform names resolve through the registry's one
//! platform table (`charm_engine::registry::platform`), spec plans
//! through `charm_core::spec` — so a campaign submitted to the service
//! derives the *same* content-addressed run ID, the same metadata, and
//! the same record bytes as one run directly. That equivalence is what
//! makes archive-backed dedupe honest: a dedupe hit serves exactly the
//! bytes an engine run would have produced.

use crate::protocol::{PlanKind, RejectReason};
use charm_core::spec::BenchmarkSpec;
use charm_design::dsl;
use charm_design::ExperimentPlan;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_engine::target::{MemoryTarget, NetworkTarget};
use charm_store::target_identity;

/// A submission's target, resolved once at admission: the in-process
/// kinds the service can fork, stream and resume.
pub(crate) enum ServedTarget {
    /// A network substrate.
    Network(Box<NetworkTarget>),
    /// A memory substrate.
    Memory(Box<MemoryTarget>),
}

/// A compiled, validated submission, ready for admission.
pub(crate) struct Prepared {
    /// The executable plan, in final row order.
    pub plan: ExperimentPlan,
    /// The resolved target the worker runs the campaign on.
    pub target: ServedTarget,
    /// The target's store identity (`name#digest`).
    pub target_id: String,
    /// The benchmark label the run archives under: the platform name in
    /// DSL mode, the resolved target label in spec mode (exactly what
    /// `run_campaign` files the same campaign under).
    pub label: String,
    /// The shuffle seed recorded in campaign metadata: `None` for DSL
    /// plans (the DSL orders at compile time and the legacy artifacts
    /// never recorded a seed), the spec's `order_seed` otherwise.
    pub shuffle_seed: Option<u64>,
}

fn bad_plan(detail: impl Into<String>) -> (RejectReason, String) {
    (RejectReason::BadPlan, detail.into())
}

/// Compiles a submission. `seed` is the stream seed the campaign will
/// run with (it parameterizes spec resolution and the target identity).
pub(crate) fn prepare(
    kind: PlanKind,
    plan_text: &str,
    platform: &str,
    seed: u64,
) -> Result<Prepared, (RejectReason, String)> {
    let (plan, target, label, shuffle_seed) = match kind {
        PlanKind::Dsl => {
            let plan = dsl::compile(plan_text).map_err(|e| bad_plan(format!("DSL error: {e}")))?;
            let target = registry::platform(platform).map_err(|e| bad_plan(e.to_string()))?;
            (plan, target, platform.to_string(), None)
        }
        PlanKind::Spec => {
            let spec = BenchmarkSpec::parse(plan_text)
                .map_err(|e| bad_plan(format!("spec error: {e}")))?;
            let resolved =
                spec.resolve(seed, &[]).map_err(|e| bad_plan(format!("spec error: {e}")))?;
            let label = match &resolved.target {
                TargetSpec::Network { preset, label } => label.clone().unwrap_or(preset.clone()),
                TargetSpec::Memory { cpu, label, .. } => label.clone().unwrap_or(cpu.clone()),
                TargetSpec::External { .. } => String::new(), // rejected below
            };
            (resolved.plan, resolved.target, label, resolved.order_seed)
        }
    };
    if plan.is_empty() {
        return Err(bad_plan("plan has no rows"));
    }
    let (target_id, target) = match registry::resolve(&target, seed) {
        Ok(ResolvedTarget::Network(t)) => (target_identity(t.as_ref()), ServedTarget::Network(t)),
        Ok(ResolvedTarget::Memory(t)) => (target_identity(t.as_ref()), ServedTarget::Memory(t)),
        Ok(ResolvedTarget::External(_)) => {
            return Err(bad_plan(
                "external engines are not served (a subprocess cannot be forked, streamed, \
                 or resumed); run them with run_campaign --benchmark",
            ));
        }
        Err(e) => return Err(bad_plan(e.to_string())),
    };
    Ok(Prepared { plan, target, target_id, label, shuffle_seed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_engine::{Campaign, Target};

    const DSL: &str = "factor op in [ping_pong]\nfactor size in [64, 1024]\nreplicates 2\n";

    #[test]
    fn dsl_submissions_compile_with_registry_defaults() {
        let p = prepare(PlanKind::Dsl, DSL, "taurus", 7).unwrap();
        assert_eq!(p.plan.len(), 4);
        assert_eq!(p.label, "taurus");
        assert_eq!(p.shuffle_seed, None);
        assert!(p.target_id.starts_with("taurus#"), "{}", p.target_id);
        let ServedTarget::Network(t) = &p.target else { panic!("taurus is a network platform") };
        assert_eq!(t.name(), "taurus");
    }

    #[test]
    fn memory_platforms_resolve_with_default_policies() {
        let dsl = "factor size_bytes in [4096, 8192]\nreplicates 2\n";
        let p = prepare(PlanKind::Dsl, dsl, "opteron", 3).unwrap();
        assert!(p.target_id.starts_with("opteron#"));
        let ServedTarget::Memory(served) = p.target else { panic!("opteron is a memory platform") };
        // The served target is the registry's default-policy resolution:
        // it measures the same bytes as the target run_campaign builds.
        let spec = registry::platform("opteron").unwrap();
        let TargetSpec::Memory { governor: None, sched: None, alloc: None, .. } = spec else {
            panic!("DSL platforms carry no policy overrides: {spec:?}")
        };
        let Ok(ResolvedTarget::Memory(direct)) = registry::resolve(&spec, 3) else {
            panic!("opteron resolves to a memory target")
        };
        let csv = |t: MemoryTarget| Campaign::new(&p.plan, t).run().unwrap().data.to_csv();
        assert_eq!(csv(*served), csv(*direct));
    }

    #[test]
    fn target_identity_is_seed_stable_for_derivation() {
        // Same seed → same identity (admission and execution agree);
        // run_campaign resolves the same platform table at the same seed.
        let a = prepare(PlanKind::Dsl, DSL, "myrinet", 11).unwrap();
        let b = prepare(PlanKind::Dsl, DSL, "myrinet", 11).unwrap();
        assert_eq!(a.target_id, b.target_id);
    }

    #[test]
    fn bad_inputs_reject_as_bad_plan() {
        for (kind, plan, platform) in [
            (PlanKind::Dsl, "factor", "taurus"),   // DSL parse error
            (PlanKind::Dsl, DSL, "plan9"),         // unknown platform
            (PlanKind::Spec, "not = toml =", ""),  // spec parse error
            (PlanKind::Spec, "[benchmark]\n", ""), // incomplete spec
        ] {
            let Err(err) = prepare(kind, plan, platform, 1) else { panic!("{plan:?} compiled") };
            assert_eq!(err.0, RejectReason::BadPlan, "{plan:?}: {}", err.1);
        }
    }

    #[test]
    fn external_targets_are_refused() {
        let spec = "[benchmark]\nname = \"x\"\n\n\
                    [target]\nmodel = \"external\"\nprogram = \"/bin/true\"\n\n\
                    [factors.size]\nlevels = [1, 2]\n\n\
                    [design]\nreplicates = 1\n";
        match prepare(PlanKind::Spec, spec, "", 1) {
            Err((RejectReason::BadPlan, detail)) => {
                assert!(detail.contains("external"), "{detail}");
            }
            Err(other) => panic!("expected bad_plan, got {other:?}"),
            Ok(_) => panic!("an external target was admitted"),
        }
    }
}
