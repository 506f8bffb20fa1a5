//! Property-based tests for the design crate.

use charm_design::doe::FullFactorial;
use charm_design::plan::{ExperimentPlan, PlanRow};
use charm_design::sampling;
use charm_design::{Factor, Level};
use proptest::prelude::*;

proptest! {
    #[test]
    fn full_factorial_size_is_product(
        card_a in 1usize..6, card_b in 1usize..6, reps in 1u32..5
    ) {
        let plan = FullFactorial::new()
            .factor(Factor::new("a", (0..card_a as i64).collect::<Vec<_>>()))
            .factor(Factor::new("b", (0..card_b as i64).collect::<Vec<_>>()))
            .replicates(reps)
            .build()
            .unwrap();
        prop_assert_eq!(plan.len(), card_a * card_b * reps as usize);
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>()) {
        let base = FullFactorial::new()
            .factor(Factor::new("s", (0..7i64).collect::<Vec<_>>()))
            .replicates(3)
            .build()
            .unwrap();
        let mut shuffled = base.clone();
        shuffled.shuffle(seed);
        let key = |r: &PlanRow| (format!("{:?}", r.levels), r.replicate);
        let mut a: Vec<_> = base.rows().iter().map(key).collect();
        let mut b: Vec<_> = shuffled.rows().iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csv_roundtrip_arbitrary_int_plans(
        vals in prop::collection::vec((any::<i64>(), 0u32..10), 1..30)
    ) {
        let rows: Vec<PlanRow> = vals
            .iter()
            .map(|&(v, r)| PlanRow { levels: vec![Level::Int(v)].into(), replicate: r })
            .collect();
        let plan = ExperimentPlan::new(vec!["v".into()], rows).unwrap();
        let back = ExperimentPlan::from_csv(&plan.to_csv()).unwrap();
        prop_assert_eq!(plan, back);
    }

    #[test]
    fn log_uniform_bounds_hold(a in 1u64..1000, span in 1u64..1_000_000, n in 1usize..100,
                               seed in any::<u64>()) {
        let b = a + span;
        let sizes = sampling::log_uniform_sizes(a, b, n, seed);
        prop_assert_eq!(sizes.len(), n);
        prop_assert!(sizes.iter().all(|&s| s >= a && s <= b));
    }

    #[test]
    fn linear_sizes_are_arithmetic(start in 0u64..100, step in 1u64..50, end in 0u64..2000) {
        let v = sampling::linear_sizes(start, step, end);
        for w in v.windows(2) {
            prop_assert_eq!(w[1] - w[0], step);
        }
        prop_assert!(v.iter().all(|&s| s <= end));
        if start <= end {
            prop_assert_eq!(v.first().copied(), Some(start));
        } else {
            prop_assert!(v.is_empty());
        }
    }

    #[test]
    fn sequential_is_deterministic_ordering(seed1 in any::<u64>(), seed2 in any::<u64>()) {
        let base = FullFactorial::new()
            .factor(Factor::new("x", (0..5i64).collect::<Vec<_>>()))
            .replicates(2)
            .build()
            .unwrap();
        let mut a = base.clone();
        let mut b = base;
        a.shuffle(seed1);
        b.shuffle(seed2);
        prop_assert_eq!(a.sequential(), b.sequential());
    }

    /// `to_csv` writes levels straight into its buffer; its bytes (and
    /// so every plan hash and run ID derived from them) equal the
    /// per-row `Vec<String>` + `join` rendering it replaced, for zero
    /// or more factors of every level kind.
    #[test]
    fn plan_csv_matches_the_joined_rendering(
        kinds in prop::collection::vec(0u8..4, 0..4),
        raw in prop::collection::vec(any::<u64>(), 1..40),
        reps in 1u32..4,
        seed in any::<u64>(),
    ) {
        let names: Vec<String> = (0..kinds.len()).map(|i| format!("f{i}")).collect();
        let mut draw = raw.iter().cycle().copied();
        let mut rows = Vec::new();
        for _ in 0..raw.len() {
            let levels: Vec<Level> = kinds
                .iter()
                .map(|&k| {
                    let r = draw.next().unwrap();
                    match k {
                        0 => Level::Int(r as i64),
                        1 => Level::Float(f64::from_bits(r)),
                        2 => Level::Text(format!("t{}", r % 7)),
                        _ => Level::Flag(r & 1 == 1),
                    }
                })
                .collect();
            rows.extend((0..reps).map(|replicate| PlanRow { levels: levels.clone().into(), replicate }));
        }
        let mut plan = ExperimentPlan::new(names, rows).unwrap();
        plan.shuffle(seed);

        let mut joined = String::new();
        joined.push_str(&plan.factor_names().join(","));
        joined.push_str(",replicate\n");
        for row in plan.rows() {
            let vals: Vec<String> = row.levels.iter().map(|l| l.to_string()).collect();
            joined.push_str(&vals.join(","));
            joined.push(',');
            joined.push_str(&row.replicate.to_string());
            joined.push('\n');
        }
        prop_assert_eq!(plan.to_csv(), joined);
    }
}
