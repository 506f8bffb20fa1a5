//! `serve`: the campaign service under a closed loop.
//!
//! An in-process `Server` on `127.0.0.1:0` with 2 workers serves 2
//! tenants, one connection each. Each tenant submits a fixed, seeded
//! sequence of small network and memory plans (all `shards = 1`) and
//! waits for each stream to finish before submitting the next, as
//! `serve_load` does. Every third submission repeats the tenant's
//! earlier key, so it is an archive replay. The layers are JSONL
//! framing, the admission queue, the stream tee and the dedupe/replay
//! path; `simnet` and `simmem` run small plans.
//!
//! Set-up compiles each tenant's sequence, builds its targets and
//! derives every submission's content-addressed run ID and row count,
//! as the server's admission does. After the load phase, each drained
//! stream is checked against those and against the `records.csv` the
//! server archived.

use crate::{derive_seed, stats, OpOutcome, Pass, ScratchRoot, Size, Workload};
use charm_design::dsl;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_serve::protocol::{Event, PlanKind, Source};
use charm_serve::{Client, Server, ServerConfig};
use charm_store::{target_identity, CampaignKey};
use charm_trace::{Profiler, WallSpan};
use std::path::Path;
use std::time::{Duration, Instant};

/// Concurrent tenants, one connection each.
pub const TENANTS: u64 = 2;

/// Submissions per tenant sequence. A tenant that reaches the end
/// stops early; at today's speed a sequence lasts about 45 s.
fn sequence_len(size: Size) -> u64 {
    match size {
        Size::Full => 1000,
        Size::Tiny => 12,
    }
}

/// One submission of a tenant's sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// DSL plan text.
    pub plan: String,
    /// `taurus` (network) or `opteron` (memory).
    pub platform: &'static str,
    /// Campaign seed.
    pub seed: u64,
    /// The earlier submission of the same tenant whose key this one
    /// repeats, if it is a replay.
    pub replay_of: Option<u64>,
}

/// Submission `i` of `tenant`: a cycle of six — network, memory,
/// replay of the network one, network, memory, replay of the memory
/// one.
pub fn submission(seed: u64, tenant: u64, i: u64, size: Size) -> Submission {
    let replay_of = match i % 6 {
        2 => Some(i - 2),
        5 => Some(i - 1),
        _ => None,
    };
    if let Some(j) = replay_of {
        return Submission { replay_of, ..submission(seed, tenant, j, size) };
    }
    let s = derive_seed(seed, (tenant << 32) | i) % 1_000_000_000;
    if i.is_multiple_of(3) {
        let (count, reps) = if size == Size::Full { (20, 10) } else { (4, 2) };
        Submission {
            plan: format!(
                "factor op in [ping_pong, async_send]\n\
                 factor size loguniform 64..1048576 count {count} seed {s}\n\
                 replicates {reps}\norder randomized {s}\n"
            ),
            platform: "taurus",
            seed: s,
            replay_of: None,
        }
    } else {
        let (count, reps) = if size == Size::Full { (8, 4) } else { (2, 2) };
        Submission {
            plan: format!(
                "factor size_bytes loguniform 4096..8388608 count {count} seed {s}\n\
                 replicates {reps}\norder randomized {s}\n"
            ),
            platform: "opteron",
            seed: s,
            replay_of: None,
        }
    }
}

/// What the server must answer for a submission: the run ID its
/// `(plan, target, seed, shards)` key derives and the plan's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Content-addressed run ID.
    pub run_id: String,
    /// Plan rows.
    pub rows: usize,
}

/// Compiles `sub`'s plan and resolves its target the way the server's
/// admission does, to derive its run ID.
pub fn expected(sub: &Submission) -> Result<Expected, String> {
    let plan = dsl::compile(&sub.plan).map_err(|e| format!("DSL: {e}"))?;
    let spec = match sub.platform {
        "taurus" => TargetSpec::Network { preset: sub.platform.to_string(), label: None },
        cpu => TargetSpec::Memory {
            cpu: cpu.to_string(),
            governor: None,
            sched: None,
            alloc: None,
            label: None,
        },
    };
    let target_id = match registry::resolve(&spec, sub.seed).map_err(|e| e.to_string())? {
        ResolvedTarget::Network(t) => target_identity(t.as_ref()),
        ResolvedTarget::Memory(t) => target_identity(t.as_ref()),
        ResolvedTarget::External(_) => return Err("external target".into()),
    };
    let run_id = CampaignKey::of(&plan, &target_id, Some(sub.seed), 1).run_id().to_string();
    Ok(Expected { run_id, rows: plan.len() })
}

/// One finished submission.
#[derive(Debug, Clone)]
struct Finished {
    index: u64,
    replay: bool,
    latency_ms: f64,
    accept_ms: f64,
    first_record_ms: Option<f64>,
    source: Source,
    run_id: String,
    csv: String,
}

/// What one tenant saw.
#[derive(Debug, Default)]
struct TenantLog {
    finished: Vec<Finished>,
    /// Latency and reason of each submission that did not finish.
    failed: Vec<(f64, String)>,
    rejections: u64,
}

/// Submits `sub` and drains its stream, recording spans on `track`.
fn submit_and_drain(
    client: &mut Client,
    (index, sub): (u64, &Submission),
    profiler: &Profiler,
    track: &str,
    log: &mut TenantLog,
) {
    let start_ns = profiler.elapsed_ns();
    let t0 = Instant::now();
    let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    let span = |name: &str, dur: Duration| {
        if profiler.is_enabled() {
            profiler.record(WallSpan {
                track: track.to_string(),
                name: name.to_string(),
                start_ns,
                dur_ns: dur.as_nanos() as u64,
                args: vec![],
            })
        }
    };
    let fail =
        |log: &mut TenantLog, why: String| log.failed.push((t0.elapsed().as_secs_f64() * 1e3, why));
    let accepted = match client.submit(PlanKind::Dsl, &sub.plan, sub.platform, sub.seed, 1, false) {
        Ok(Event::Accepted { .. }) => Instant::now(),
        Ok(Event::Rejected { reason, detail }) => {
            log.rejections += 1;
            return fail(log, format!("rejected {reason}: {detail}"));
        }
        Ok(other) => return fail(log, format!("unexpected answer {other:?}")),
        Err(e) => return fail(log, e),
    };
    span("serve.accept", accepted - t0);
    let (mut head, mut rows, mut first) = (String::new(), Vec::new(), None);
    loop {
        match client.read_event() {
            Ok(Event::Head { columns, .. }) => head = columns,
            Ok(Event::Record { row, .. }) => {
                if first.is_none() {
                    let now = Instant::now();
                    span("serve.first_record", now - t0);
                    first = Some(now);
                }
                rows.push(row);
            }
            Ok(Event::Counter { .. }) => {}
            Ok(Event::Done { run_id, source, .. }) => {
                let done = Instant::now();
                span("serve.submit", done - t0);
                let mut csv = head;
                csv.push('\n');
                for row in rows {
                    csv.push_str(&row);
                    csv.push('\n');
                }
                log.finished.push(Finished {
                    index,
                    replay: sub.replay_of.is_some(),
                    latency_ms: ms(done),
                    accept_ms: ms(accepted),
                    first_record_ms: first.map(ms),
                    source,
                    run_id,
                    csv,
                });
                return;
            }
            Ok(Event::Failed { reason, detail, .. }) => {
                return fail(log, format!("failed {reason}: {detail}"))
            }
            Ok(other) => return fail(log, format!("unexpected mid-stream event {other:?}")),
            Err(e) => return fail(log, e),
        }
    }
}

/// A `records.csv` without its `# key: value` metadata lines.
fn data_rows(records_csv: &str) -> String {
    records_csv.lines().filter(|l| !l.starts_with('#')).flat_map(|l| [l, "\n"]).collect()
}

/// Checks a drained stream: its run ID and row count against the
/// set-up's expectation, its source against the submission's kind, and
/// its bytes against the archived `records.csv` of its run.
fn check(store_root: &Path, f: &Finished, expected: &Expected) -> Result<(), String> {
    if f.run_id != expected.run_id {
        return Err(format!("submission archived as {} instead of {}", f.run_id, expected.run_id));
    }
    let rows = f.csv.lines().count() - 1;
    if rows != expected.rows {
        return Err(format!(
            "run {} streamed {rows} records instead of {}",
            f.run_id, expected.rows
        ));
    }
    let source = if f.replay { Source::Archive } else { Source::Engine };
    if f.source != source {
        return Err(format!("run {} streamed from {} instead of {source}", f.run_id, f.source));
    }
    let path = store_root.join("runs").join(&f.run_id).join("records.csv");
    let archived =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if data_rows(&archived) != f.csv {
        return Err(format!("run {}: drained CSV differs from the archived records.csv", f.run_id));
    }
    Ok(())
}

/// Set-up state: each tenant's sequence with its expectations, and a
/// running server over a fresh store root.
pub struct Serve {
    sequences: Vec<Vec<(Submission, Expected)>>,
    server: Option<Server>,
    /// Each tenant's next submission index; a pass continues where the
    /// previous one stopped.
    next: Vec<u64>,
    root: ScratchRoot,
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Serve {
    /// Builds the workload's set-up state (see [`Workload`]).
    pub fn setup(seed: u64, size: Size, out: &Path) -> Result<Serve, String> {
        let mut sequences = Vec::new();
        for t in 0..TENANTS {
            let mut seq: Vec<(Submission, Expected)> = Vec::new();
            for i in 0..sequence_len(size) {
                let sub = submission(seed, t, i, size);
                let exp = match sub.replay_of {
                    Some(j) => seq[j as usize].1.clone(),
                    None => expected(&sub)?,
                };
                seq.push((sub, exp));
            }
            sequences.push(seq);
        }
        let root = ScratchRoot::new(out, "serve-store")?;
        let config = ServerConfig {
            store_dir: root.path().to_path_buf(),
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config)?;
        Ok(Serve { sequences, server: Some(server), next: vec![0; TENANTS as usize], root })
    }
}

impl Workload for Serve {
    fn measure(&mut self, budget: Duration, profiler: &Profiler) -> Pass {
        let addr = self.server.as_ref().expect("server runs until drop").addr().to_string();
        let (sequences, next) = (&self.sequences, &self.next);
        let t0 = Instant::now();
        let logs: Vec<(TenantLog, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let (addr, seq, first) = (&addr, &sequences[t as usize], next[t as usize]);
                    scope.spawn(move || {
                        let mut log = TenantLog::default();
                        let track = format!("tenant{t}");
                        let mut client = match Client::connect(addr, &track) {
                            Ok(c) => c,
                            Err(e) => {
                                log.failed.push((0.0, e));
                                return (log, first);
                            }
                        };
                        let mut i = first;
                        while (i == first || t0.elapsed() < budget) && (i as usize) < seq.len() {
                            submit_and_drain(
                                &mut client,
                                (i, &seq[i as usize].0),
                                profiler,
                                &track,
                                &mut log,
                            );
                            i += 1;
                        }
                        (log, i)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
        });
        let wall = t0.elapsed();
        self.next = logs.iter().map(|(_, next)| *next).collect();

        let mut pass = Pass { busy_s: wall.as_secs_f64(), ..Pass::default() };
        let mut rejections = 0;
        let finished: Vec<(u64, &Finished)> = logs
            .iter()
            .enumerate()
            .flat_map(|(t, (l, _))| l.finished.iter().map(move |f| (t as u64, f)))
            .collect();
        for (log, _) in &logs {
            rejections += log.rejections;
            for (latency_ms, why) in &log.failed {
                pass.record(OpOutcome {
                    latency: Duration::from_secs_f64(latency_ms / 1e3),
                    ok: false,
                    correct: true,
                    detail: Some(why.clone()),
                });
            }
        }
        for &(t, f) in &finished {
            let check = check(self.root.path(), f, &self.sequences[t as usize][f.index as usize].1);
            pass.record(OpOutcome {
                latency: Duration::from_secs_f64(f.latency_ms / 1e3),
                ok: true,
                correct: check.is_ok(),
                detail: check.err(),
            });
        }
        if profiler.is_enabled() {
            pass.spans = profiler.take();
            let finished: Vec<&Finished> = finished.iter().map(|(_, f)| *f).collect();
            let by = |replay: bool| -> Vec<f64> {
                finished.iter().filter(|f| f.replay == replay).map(|f| f.latency_ms).collect()
            };
            let accept: Vec<f64> = finished.iter().map(|f| f.accept_ms).collect();
            let first_record: Vec<f64> =
                finished.iter().filter_map(|f| f.first_record_ms).collect();
            let rows: usize = finished.iter().map(|f| f.csv.lines().count() - 1).sum();
            let hits = finished.iter().filter(|f| f.source == Source::Archive).count();
            pass.bases = vec![format!(
                "serve.rows_per_s = {rows} streamed rows / {:.3} s load phase; {} fresh and {} replayed submissions",
                wall.as_secs_f64(),
                by(false).len(),
                by(true).len()
            )];
            pass.layer = vec![
                ("serve.fresh_ms".into(), stats::median(&by(false))),
                ("serve.replay_ms".into(), stats::median(&by(true))),
                ("serve.accept_ms".into(), stats::median(&accept)),
                ("serve.first_record_ms".into(), stats::median(&first_record)),
                ("serve.rows_per_s".into(), Some(rows as f64 / wall.as_secs_f64())),
                ("serve.dedupe_hits".into(), Some(hits as f64)),
                ("serve.rejections".into(), Some(rejections as f64)),
                ("serve.p90_ms".into(), stats::percentile(&pass.latencies_ms, 0.9)),
            ];
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_replay_earlier_keys_of_the_same_tenant() {
        let subs: Vec<Submission> = (0..6).map(|i| submission(9, 1, i, Size::Tiny)).collect();
        assert_eq!(subs[2], Submission { replay_of: Some(0), ..subs[0].clone() });
        assert_eq!(subs[5], Submission { replay_of: Some(4), ..subs[4].clone() });
        assert_eq!((subs[0].platform, subs[1].platform), ("taurus", "opteron"));
        assert_ne!(subs[0].seed, subs[3].seed);
        assert_ne!(submission(9, 0, 0, Size::Tiny).seed, subs[0].seed, "tenants differ");
    }

    #[test]
    fn drained_streams_are_checked_against_the_archive() {
        let root = ScratchRoot::new(&crate::out_dir(), "serve-check").unwrap();
        let dir = root.path().join("runs").join("abc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("records.csv"), "# seed: 1\nop,value\nping_pong,1.5\n").unwrap();
        let f = Finished {
            index: 0,
            replay: false,
            latency_ms: 1.0,
            accept_ms: 0.1,
            first_record_ms: Some(0.5),
            source: Source::Engine,
            run_id: "abc".into(),
            csv: "op,value\nping_pong,1.5\n".into(),
        };
        let exp = Expected { run_id: "abc".into(), rows: 1 };
        assert_eq!(check(root.path(), &f, &exp), Ok(()));
        let corrupt = Finished { csv: "op,value\nping_pong,1.6\n".into(), ..f.clone() };
        assert!(check(root.path(), &corrupt, &exp).is_err());
        let replayed = Finished { replay: true, ..f.clone() };
        assert!(
            check(root.path(), &replayed, &exp).is_err(),
            "a replay must come from the archive"
        );
        let other = Expected { run_id: "abd".into(), rows: 1 };
        assert!(check(root.path(), &f, &other).is_err());
    }

    #[test]
    fn tiny_load_dedupes_and_checks_out() {
        let mut bench = Serve::setup(5, Size::Tiny, &crate::out_dir()).unwrap();
        let pass = bench.measure(Duration::from_millis(200), &Profiler::enabled());
        assert!(pass.attempted >= 6, "{pass:?}");
        assert_eq!((pass.failed, pass.incorrect), (0, 0), "{:?}", pass.failures);
        let get = |n: &str| pass.layer.iter().find(|m| m.0 == n).unwrap().1.unwrap();
        assert!(get("serve.dedupe_hits") >= 1.0);
        assert_eq!(get("serve.rejections"), 0.0);
    }
}
