//! Raw measurement records and campaign CSV round-trip.
//!
//! "We avoid doing any on-the-fly aggregation and keep all information,
//! delaying the analysis" (paper §V). A [`Campaign`] therefore holds one
//! [`RawRecord`] per measurement — value, factor levels, replicate index,
//! global sequence number, and virtual timestamp — plus the environment
//! metadata block. The CSV layout mirrors the companion repositories'
//! output files: `# key: value` metadata comments, a header, one row per
//! measurement.

use charm_design::factors::{Level, Levels};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;

/// One raw measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RawRecord {
    /// Factor levels, ordered as in [`Campaign::factor_names`]. A
    /// shared reference into the campaign's interned level table
    /// (DESIGN.md §18): records of one design cell point at one tuple,
    /// so cloning a record never deep-copies levels.
    pub levels: Levels,
    /// Replicate index within the factor combination.
    pub replicate: u32,
    /// Global 0-based sequence number (the order the engine took the
    /// measurement in — the x axis of the Figure 11 right plot).
    pub sequence: u64,
    /// Virtual time at which the measurement started (µs).
    pub start_us: f64,
    /// The measured value (unit in metadata `value_unit`).
    pub value: f64,
}

impl RawRecord {
    /// The record's CSV data row, exactly as [`Campaign::to_csv`] writes
    /// it (levels in order, then the fixed columns, `{}`-formatted
    /// floats). Streaming consumers — the campaign service — render rows
    /// through this so an incrementally streamed campaign is
    /// byte-identical to the archived `records.csv`.
    pub fn csv_row(&self) -> String {
        let mut out = String::new();
        self.write_csv_row(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Writes the CSV data row into `out` without intermediate
    /// allocations — the hot serialization path. [`Campaign::to_csv`],
    /// the checkpoint segment flush, and the serve stream tee all call
    /// this with one reused buffer across their row loops; the bytes
    /// written are exactly [`RawRecord::csv_row`]'s.
    pub fn write_csv_row(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for l in &self.levels {
            write!(out, "{l},")?;
        }
        write!(out, "{},{},{},{}", self.replicate, self.sequence, self.start_us, self.value)
    }
}

/// Errors when parsing a campaign from CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignParseError {
    /// No header line found.
    MissingHeader,
    /// Header lacks the fixed trailing columns.
    BadHeader(String),
    /// A data row could not be parsed.
    BadRow(String),
}

impl fmt::Display for CampaignParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignParseError::MissingHeader => write!(f, "missing header"),
            CampaignParseError::BadHeader(h) => write!(f, "bad header {h:?}"),
            CampaignParseError::BadRow(r) => write!(f, "bad row {r:?}"),
        }
    }
}

impl std::error::Error for CampaignParseError {}

const FIXED_COLS: [&str; 4] = ["replicate", "sequence", "start_us", "value"];

/// The campaign CSV header line (no trailing newline) for the given
/// factor names: the factor columns followed by the fixed columns,
/// exactly as [`Campaign::to_csv`] writes it. Exposed so artifact
/// digests (checkpoint segments) can render a record body without
/// assembling a throwaway [`Campaign`].
pub fn csv_header(factor_names: &[String]) -> String {
    let mut out = String::new();
    out.push_str(&factor_names.join(","));
    if !factor_names.is_empty() {
        out.push(',');
    }
    out.push_str(&FIXED_COLS.join(","));
    out
}

/// A complete campaign: metadata + raw records.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Campaign {
    /// Environment metadata (sorted map, reproducibility artifact).
    pub metadata: BTreeMap<String, String>,
    /// Factor names in column order.
    pub factor_names: Vec<String>,
    /// Raw records in measurement order.
    pub records: Vec<RawRecord>,
}

impl Campaign {
    /// Values of all records, in measurement order.
    pub fn values(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.value).collect()
    }

    /// Index of a factor by name.
    pub fn factor_index(&self, name: &str) -> Option<usize> {
        self.factor_names.iter().position(|n| n == name)
    }

    /// Groups record values by the levels of the given factors, keyed by
    /// the rendered level tuple. Order of groups follows first appearance.
    ///
    /// Keys are built once per *distinct interned tuple*, not once per
    /// record: records sharing a [`Levels`] allocation (every campaign
    /// the engine produces) resolve their group through a shared-id
    /// memo, so the per-record cost is a pointer lookup instead of a
    /// `Vec<Level>` clone plus a linear key scan. Campaigns whose
    /// records were built without interning still group correctly —
    /// the memo is a fast path over content equality, never a
    /// substitute for it.
    pub fn group_by(&self, factors: &[&str]) -> Vec<(Vec<Level>, Vec<f64>)> {
        let idxs: Vec<usize> = factors.iter().filter_map(|f| self.factor_index(f)).collect();
        let mut order: Vec<Vec<Level>> = Vec::new();
        let mut groups: Vec<Vec<f64>> = Vec::new();
        let mut by_cell: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut last: Option<(usize, usize)> = None;
        for rec in &self.records {
            let cell = rec.levels.shared_id();
            let pos = match last {
                Some((c, pos)) if c == cell => pos,
                _ => match by_cell.get(&cell) {
                    Some(&pos) => pos,
                    None => {
                        let key: Vec<Level> = idxs.iter().map(|&i| rec.levels[i].clone()).collect();
                        let pos = match order.iter().position(|k| *k == key) {
                            Some(pos) => pos,
                            None => {
                                order.push(key);
                                groups.push(Vec::new());
                                order.len() - 1
                            }
                        };
                        by_cell.insert(cell, pos);
                        pos
                    }
                },
            };
            last = Some((cell, pos));
            groups[pos].push(rec.value);
        }
        order.into_iter().zip(groups).collect()
    }

    /// Paired `(x, value)` vectors for a numeric factor — the input shape
    /// of the regression stages.
    pub fn paired(&self, factor: &str) -> Option<(Vec<f64>, Vec<f64>)> {
        let idx = self.factor_index(factor)?;
        let mut xs = Vec::with_capacity(self.records.len());
        let mut ys = Vec::with_capacity(self.records.len());
        for rec in &self.records {
            xs.push(rec.levels[idx].as_float()?);
            ys.push(rec.value);
        }
        Some((xs, ys))
    }

    /// Retains only records matching a predicate on a factor's level
    /// (non-destructive filter).
    pub fn filtered<F>(&self, factor: &str, keep: F) -> Campaign
    where
        F: Fn(&Level) -> bool,
    {
        let idx = match self.factor_index(factor) {
            Some(i) => i,
            None => return self.clone(),
        };
        Campaign {
            metadata: self.metadata.clone(),
            factor_names: self.factor_names.clone(),
            records: self.records.iter().filter(|r| keep(&r.levels[idx])).cloned().collect(),
        }
    }

    /// Serializes the campaign to CSV with metadata comments. The row
    /// loop writes into one output buffer via
    /// [`RawRecord::write_csv_row`] — no per-row `String`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metadata {
            writeln!(out, "# {k}: {v}").expect("writing to a String cannot fail");
        }
        out.push_str(&csv_header(&self.factor_names));
        out.push('\n');
        for r in &self.records {
            r.write_csv_row(&mut out).expect("writing to a String cannot fail");
            out.push('\n');
        }
        out
    }

    /// Writes the campaign CSV to a file.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Reads a campaign back from a CSV file.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_csv(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Parses a campaign back from its CSV representation.
    pub fn from_csv(text: &str) -> Result<Self, CampaignParseError> {
        let mut metadata = BTreeMap::new();
        let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
        while let Some(line) = lines.peek() {
            if let Some(rest) = line.strip_prefix('#') {
                if let Some((k, v)) = rest.split_once(':') {
                    metadata.insert(k.trim().to_string(), v.trim().to_string());
                }
                lines.next();
            } else {
                break;
            }
        }
        let header = lines.next().ok_or(CampaignParseError::MissingHeader)?;
        let cols: Vec<&str> = header.split(',').map(str::trim).collect();
        if cols.len() < FIXED_COLS.len() || cols[cols.len() - FIXED_COLS.len()..] != FIXED_COLS {
            return Err(CampaignParseError::BadHeader(header.to_string()));
        }
        let n_factors = cols.len() - FIXED_COLS.len();
        let factor_names: Vec<String> = cols[..n_factors].iter().map(|s| s.to_string()).collect();

        // Re-intern on read: every row of one design cell shares one
        // tuple, keyed by the row's raw factor-prefix text (`Level::parse`
        // is deterministic), restoring the columnar layout the engine
        // wrote the file from even when the run order was randomized.
        let mut interned: HashMap<&str, Levels> = HashMap::new();
        let mut records: Vec<RawRecord> = Vec::new();
        for line in lines {
            let bad_row = || CampaignParseError::BadRow(line.to_string());
            let (prefix, fixed) = match n_factors {
                0 => ("", line),
                n => {
                    let (cut, _) = line.match_indices(',').nth(n - 1).ok_or_else(bad_row)?;
                    (&line[..cut], &line[cut + 1..])
                }
            };
            let mut fields = fixed.split(',').map(str::trim);
            let mut next = || fields.next().ok_or_else(bad_row);
            let (replicate, sequence, start_us, value) = (next()?, next()?, next()?, next()?);
            if fields.next().is_some() {
                return Err(bad_row());
            }
            let levels = match interned.get(prefix) {
                Some(levels) => levels.clone(),
                None => {
                    let fresh: Levels = match n_factors {
                        0 => Levels::from(Vec::new()),
                        _ => prefix.split(',').map(|s| Level::parse(s.trim())).collect(),
                    };
                    interned.insert(prefix, fresh.clone());
                    fresh
                }
            };
            records.push(RawRecord {
                levels,
                replicate: replicate.parse().map_err(|_| bad_row())?,
                sequence: sequence.parse().map_err(|_| bad_row())?,
                start_us: start_us.parse().map_err(|_| bad_row())?,
                value: value.parse().map_err(|_| bad_row())?,
            });
        }
        Ok(Campaign { metadata, factor_names, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_campaign() -> Campaign {
        let mut metadata = BTreeMap::new();
        metadata.insert("platform".into(), "taurus".into());
        metadata.insert("value_unit".into(), "us".into());
        Campaign {
            metadata,
            factor_names: vec!["op".into(), "size".into()],
            records: vec![
                RawRecord {
                    levels: vec![Level::Text("ping_pong".into()), Level::Int(64)].into(),
                    replicate: 0,
                    sequence: 0,
                    start_us: 0.0,
                    value: 31.5,
                },
                RawRecord {
                    levels: vec![Level::Text("ping_pong".into()), Level::Int(64)].into(),
                    replicate: 1,
                    sequence: 1,
                    start_us: 33.0,
                    value: 30.9,
                },
                RawRecord {
                    levels: vec![Level::Text("async_send".into()), Level::Int(128)].into(),
                    replicate: 0,
                    sequence: 2,
                    start_us: 66.0,
                    value: 2.2,
                },
            ],
        }
    }

    #[test]
    fn csv_roundtrip() {
        let c = sample_campaign();
        let csv = c.to_csv();
        let back = Campaign::from_csv(&csv).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn csv_has_metadata_comments() {
        let csv = sample_campaign().to_csv();
        assert!(csv.starts_with("# platform: taurus\n"));
        assert!(csv.contains("op,size,replicate,sequence,start_us,value\n"));
    }

    #[test]
    fn group_by_single_factor() {
        let c = sample_campaign();
        let groups = c.group_by(&["op"]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec![31.5, 30.9]);
        assert_eq!(groups[1].1, vec![2.2]);
    }

    #[test]
    fn group_by_two_factors() {
        let c = sample_campaign();
        let groups = c.group_by(&["op", "size"]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, vec![Level::Text("ping_pong".into()), Level::Int(64)]);
    }

    #[test]
    fn paired_extraction() {
        let c = sample_campaign();
        let (xs, ys) = c.paired("size").unwrap();
        assert_eq!(xs, vec![64.0, 64.0, 128.0]);
        assert_eq!(ys, vec![31.5, 30.9, 2.2]);
        assert!(c.paired("op").is_none(), "text factor is not numeric");
    }

    #[test]
    fn filtered_keeps_matching_rows() {
        let c = sample_campaign();
        let only_pp = c.filtered("op", |l| l.as_text() == Some("ping_pong"));
        assert_eq!(only_pp.records.len(), 2);
        assert_eq!(only_pp.metadata, c.metadata);
    }

    #[test]
    fn bad_csv_rejected() {
        assert!(Campaign::from_csv("").is_err());
        assert!(Campaign::from_csv("a,b\n1,2\n").is_err());
        let c = sample_campaign();
        let mut csv = c.to_csv();
        csv.push_str("bad,row\n");
        assert!(Campaign::from_csv(&csv).is_err());
    }

    #[test]
    fn values_in_order() {
        assert_eq!(sample_campaign().values(), vec![31.5, 30.9, 2.2]);
    }

    #[test]
    fn file_roundtrip() {
        let c = sample_campaign();
        let path = std::env::temp_dir().join("charm_campaign_roundtrip_test.csv");
        c.write_to(&path).unwrap();
        let back = Campaign::read_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(c, back);
    }

    #[test]
    fn read_from_rejects_garbage_file() {
        let path = std::env::temp_dir().join("charm_campaign_bad_test.csv");
        std::fs::write(
            &path,
            "not,a,campaign
1,2,3
",
        )
        .unwrap();
        let err = Campaign::read_from(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
