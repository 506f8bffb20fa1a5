//! Experiment plans: the ordered, randomized list of factor combinations
//! the measurement engine executes.
//!
//! The plan is serialized to a simple CSV text file — "the resulting
//! combinations …, one per line, are registered in a text file that is
//! provided to the measurement engine" (paper §V-A). Keeping the design as
//! an explicit artifact (rather than loops inside the benchmark binary) is
//! what separates stage 1 from stage 2.

use crate::factors::{Level, Levels};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// One row of an experiment plan: a full assignment of factor levels plus
/// the replicate index within its combination.
///
/// The level tuple is an interned [`Levels`] — the DOE builder and the
/// CSV parser hand every replicate of a design cell the *same* shared
/// allocation, so cloning a row (shuffling, sharding, recording) is a
/// refcount bump and the engine's record pipeline can resolve cells by
/// pointer identity instead of re-hashing level contents per row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanRow {
    /// Values for each factor, ordered as in [`ExperimentPlan::factor_names`].
    pub levels: Levels,
    /// Replicate index (0-based) of this combination.
    pub replicate: u32,
}

/// Errors arising when constructing or parsing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A row has a different number of level values than there are factors.
    ArityMismatch {
        /// Expected number of columns.
        expected: usize,
        /// Number found.
        got: usize,
    },
    /// The CSV input was empty or missing a header.
    MissingHeader,
    /// A named factor does not exist in this plan.
    UnknownFactor(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, expected {expected}")
            }
            PlanError::MissingHeader => write!(f, "missing CSV header"),
            PlanError::UnknownFactor(name) => write!(f, "unknown factor {name:?}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// An ordered experiment plan.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentPlan {
    factor_names: Vec<String>,
    rows: Vec<PlanRow>,
}

impl ExperimentPlan {
    /// Creates a plan with the given factor names and rows.
    pub fn new(factor_names: Vec<String>, rows: Vec<PlanRow>) -> Result<Self, PlanError> {
        for row in &rows {
            if row.levels.len() != factor_names.len() {
                return Err(PlanError::ArityMismatch {
                    expected: factor_names.len(),
                    got: row.levels.len(),
                });
            }
        }
        Ok(ExperimentPlan { factor_names, rows })
    }

    /// The factor names, in column order.
    pub fn factor_names(&self) -> &[String] {
        &self.factor_names
    }

    /// The rows in execution order.
    pub fn rows(&self) -> &[PlanRow] {
        &self.rows
    }

    /// Number of rows (individual measurements to take).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the plan has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a factor column by name.
    pub fn factor_index(&self, name: &str) -> Result<usize, PlanError> {
        self.factor_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PlanError::UnknownFactor(name.to_string()))
    }

    /// Value of factor `name` in row `row`.
    pub fn level(&self, row: usize, name: &str) -> Result<&Level, PlanError> {
        let idx = self.factor_index(name)?;
        Ok(&self.rows[row].levels[idx])
    }

    /// Shuffles the execution order of the rows with a seeded RNG — the
    /// paper's central randomization step. Deterministic given the seed.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        self.rows.shuffle(&mut rng);
    }

    /// Returns a copy of this plan with rows sorted lexicographically by
    /// their display representation — the *sequential* order an opaque
    /// tool would use. Exists so ablations can compare randomized vs
    /// sequential campaigns on identical row multisets.
    pub fn sequential(&self) -> ExperimentPlan {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| {
            (r.levels.iter().map(|l| format!("{l:>24}")).collect::<Vec<_>>().join(","), r.replicate)
        });
        ExperimentPlan { factor_names: self.factor_names.clone(), rows }
    }

    /// Serializes the plan as CSV: header of factor names plus
    /// `replicate`, one row per line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.factor_names.join(","));
        out.push_str(",replicate\n");
        for row in &self.rows {
            for (i, l) in row.levels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{l}").expect("writing to a String cannot fail");
            }
            writeln!(out, ",{}", row.replicate).expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses a plan from its CSV representation.
    pub fn from_csv(text: &str) -> Result<Self, PlanError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or(PlanError::MissingHeader)?;
        let mut cols: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
        if cols.last().map(String::as_str) != Some("replicate") {
            return Err(PlanError::MissingHeader);
        }
        cols.pop();
        let ncols = cols.len();
        let mut rows = Vec::new();
        // Intern level tuples while parsing: shuffled plans repeat each
        // cell once per replicate, and `Level::parse` is deterministic,
        // so the pre-parse field text identifies the tuple exactly.
        let mut interned: HashMap<String, Levels> = HashMap::new();
        for line in lines {
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != ncols + 1 {
                return Err(PlanError::ArityMismatch { expected: ncols + 1, got: fields.len() });
            }
            let key = fields[..ncols].join(",");
            let levels = match interned.get(&key) {
                Some(l) => l.clone(),
                None => {
                    let fresh: Levels = fields[..ncols].iter().map(|s| Level::parse(s)).collect();
                    interned.insert(key, fresh.clone());
                    fresh
                }
            };
            let replicate = fields[ncols]
                .parse::<u32>()
                .map_err(|_| PlanError::ArityMismatch { expected: ncols + 1, got: fields.len() })?;
            rows.push(PlanRow { levels, replicate });
        }
        ExperimentPlan::new(cols, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> ExperimentPlan {
        let rows = vec![
            PlanRow { levels: vec![Level::Int(1), Level::Text("a".into())].into(), replicate: 0 },
            PlanRow { levels: vec![Level::Int(1), Level::Text("a".into())].into(), replicate: 1 },
            PlanRow { levels: vec![Level::Int(2), Level::Text("b".into())].into(), replicate: 0 },
        ];
        ExperimentPlan::new(vec!["size".into(), "mode".into()], rows).unwrap()
    }

    #[test]
    fn arity_checked_on_construction() {
        let bad = vec![PlanRow { levels: vec![Level::Int(1)].into(), replicate: 0 }];
        assert!(matches!(
            ExperimentPlan::new(vec!["a".into(), "b".into()], bad),
            Err(PlanError::ArityMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn csv_roundtrip() {
        let p = small_plan();
        let csv = p.to_csv();
        let q = ExperimentPlan::from_csv(&csv).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn csv_header_format() {
        let csv = small_plan().to_csv();
        assert!(csv.starts_with("size,mode,replicate\n"));
        assert!(csv.contains("1,a,0\n"));
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let base = small_plan();
        let mut a = base.clone();
        let mut b = base.clone();
        a.shuffle(99);
        b.shuffle(99);
        assert_eq!(a, b, "same seed, same order");

        // multiset is preserved
        let mut rows_a = a.rows().to_vec();
        let mut rows_o = base.rows().to_vec();
        let key = |r: &PlanRow| (format!("{:?}", r.levels), r.replicate);
        rows_a.sort_by_key(key);
        rows_o.sort_by_key(key);
        assert_eq!(rows_a, rows_o);
    }

    #[test]
    fn different_seed_usually_different_order() {
        // with 20 rows, collision of two seeded shuffles is essentially nil
        let rows: Vec<PlanRow> =
            (0..20).map(|i| PlanRow { levels: vec![Level::Int(i)].into(), replicate: 0 }).collect();
        let base = ExperimentPlan::new(vec!["i".into()], rows).unwrap();
        let mut a = base.clone();
        let mut b = base;
        a.shuffle(1);
        b.shuffle(2);
        assert_ne!(a, b);
    }

    #[test]
    fn sequential_sorts_rows() {
        let mut p = small_plan();
        p.shuffle(7);
        let s = p.sequential();
        let sizes: Vec<i64> = s.rows().iter().map(|r| r.levels[0].as_int().unwrap()).collect();
        let mut expected = sizes.clone();
        expected.sort_unstable();
        assert_eq!(sizes, expected);
    }

    #[test]
    fn level_lookup_by_name() {
        let p = small_plan();
        assert_eq!(p.level(2, "size").unwrap(), &Level::Int(2));
        assert!(matches!(p.level(0, "nope"), Err(PlanError::UnknownFactor(_))));
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(ExperimentPlan::from_csv("").is_err());
        assert!(ExperimentPlan::from_csv("a,b\n1,2\n").is_err()); // no replicate col
        assert!(ExperimentPlan::from_csv("a,replicate\n1\n").is_err()); // short row
    }
}
