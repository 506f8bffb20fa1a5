//! The campaign service: TCP accept loop, admission control, worker
//! pool, and the per-connection protocol driver.
//!
//! Threading model (deliberately async-free):
//!
//! * one **accept** thread hands each connection to its own thread;
//! * each **connection** thread parses requests, runs admission, and —
//!   for admitted submissions — drains the job's event channel onto the
//!   socket until the terminal event;
//! * a fixed pool of **worker** threads pops jobs off a bounded queue
//!   and executes them with the work-stealing `ShardedCampaign` engine,
//!   streaming finished batches through [`crate::stream::StreamSink`].
//!
//! Admission order for a submission: compile → dedupe (an archived
//! identical campaign streams straight from the store, zero engine
//! work) → per-tenant row budget → per-tenant job cap → queue capacity.
//! Every refusal is a typed `rejected` response; the connection stays
//! open.
//!
//! Cancellation is cooperative: `cancel` fires the job's
//! [`CancelToken`]; queued jobs die at pop, running jobs stop at the
//! engine's next batch-claim boundary, leaving only whole checkpoint
//! segments — which is why a cancelled job's resubmission resumes
//! instead of restarting.

use crate::metrics::{Metrics, Quotas};
use crate::protocol::{Event, PlanKind, RejectReason, Request, Source, PROTOCOL};
use crate::stream::StreamSink;
use crate::submit::{self, Prepared};
use charm_design::ExperimentPlan;
use charm_engine::registry::{self, ResolvedTarget, TargetSpec};
use charm_engine::{Campaign, CampaignRun, CancelToken, ParallelTarget, TargetError};
use charm_obs::Observer;
use charm_store::{CampaignKey, CheckpointSession, RunId, Store, StoreError};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tunables. `Default` is sized for tests and small hosts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of the backing campaign store.
    pub store_dir: PathBuf,
    /// Worker threads executing campaigns.
    pub workers: usize,
    /// Maximum jobs waiting in the admission queue (running jobs do
    /// not count). Full queue ⇒ `rejected: queue_full`.
    pub queue: usize,
    /// Per-tenant cap on concurrently queued + running jobs.
    pub tenant_max_jobs: u64,
    /// Per-tenant plan-row budget per window.
    pub tenant_max_rows: u64,
    /// The row-budget window, in seconds.
    pub tenant_window_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            store_dir: PathBuf::from("store"),
            workers: 2,
            queue: 16,
            tenant_max_jobs: 4,
            tenant_max_rows: 50_000_000,
            tenant_window_secs: 60,
        }
    }
}

impl ServerConfig {
    fn quotas(&self) -> Quotas {
        Quotas {
            max_jobs: self.tenant_max_jobs,
            max_rows: self.tenant_max_rows,
            window: Duration::from_secs(self.tenant_window_secs),
        }
    }
}

/// One admitted unit of work, queued for a worker.
struct Job {
    id: String,
    tenant: String,
    plan: ExperimentPlan,
    target: TargetSpec,
    label: String,
    shuffle_seed: Option<u64>,
    seed: u64,
    shards: u64,
    observe: bool,
    resume: bool,
    session: CheckpointSession,
    cancel: CancelToken,
    tx: Sender<Event>,
}

/// Bounded FIFO job queue with blocking pop and stop signal.
struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
}

struct QueueInner {
    // Boxed: jobs are half a KiB and move through try_push/pop/stop by
    // value; one allocation at admission beats copying them around.
    jobs: VecDeque<Box<Job>>,
    stopped: bool,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner { jobs: VecDeque::new(), stopped: false }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Enqueues unless the queue is at capacity; the check and the push
    /// are one critical section, so capacity can never be oversubscribed
    /// by racing admissions.
    fn try_push(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.stopped || inner.jobs.len() >= self.cap {
            return Err(job);
        }
        inner.jobs.push_back(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue stops (`None`).
    fn pop(&self) -> Option<Box<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.stopped {
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    fn stop(&self) -> Vec<Job> {
        let mut inner = self.inner.lock().unwrap();
        inner.stopped = true;
        self.cv.notify_all();
        inner.jobs.drain(..).map(|j| *j).collect()
    }
}

/// Lifecycle registry of known jobs, for `cancel` and bookkeeping.
#[derive(Default)]
struct JobTable {
    inner: Mutex<BTreeMap<String, JobHandle>>,
}

struct JobHandle {
    cancel: CancelToken,
    finished: bool,
}

impl JobTable {
    fn register(&self, id: &str, cancel: CancelToken) {
        self.inner.lock().unwrap().insert(id.to_string(), JobHandle { cancel, finished: false });
    }

    fn finish(&self, id: &str) {
        if let Some(h) = self.inner.lock().unwrap().get_mut(id) {
            h.finished = true;
        }
    }

    /// Unregisters a job whose admission was rolled back.
    fn remove(&self, id: &str) {
        self.inner.lock().unwrap().remove(id);
    }

    /// Fires the job's token; returns the `cancel_ok` state string.
    fn cancel(&self, id: &str) -> &'static str {
        match self.inner.lock().unwrap().get(id) {
            Some(h) if h.finished => "finished",
            Some(h) => {
                h.cancel.cancel();
                "cancelled"
            }
            None => "unknown",
        }
    }

    fn cancel_all(&self) {
        for h in self.inner.lock().unwrap().values() {
            h.cancel.cancel();
        }
    }
}

struct Shared {
    store: Store,
    config: ServerConfig,
    metrics: Metrics,
    queue: JobQueue,
    jobs: JobTable,
    stopping: AtomicBool,
    next_job: AtomicU64,
}

/// A running campaign service. Dropping (or [`Server::shutdown`]) stops
/// the accept loop and the worker pool, cancelling running jobs.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`), opens the store, and starts
    /// the accept loop and worker pool.
    pub fn start(addr: &str, config: ServerConfig) -> Result<Server, String> {
        let store = Store::open(&config.store_dir).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let shared = Arc::new(Shared {
            store,
            queue: JobQueue::new(config.queue.max(1)),
            config,
            metrics: Metrics::new(),
            jobs: JobTable::default(),
            stopping: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(job) = shared.queue.pop() {
                        execute_job(&shared, *job);
                    }
                })
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    // Connection threads are detached: they end when
                    // their client hangs up.
                    std::thread::spawn(move || connection(&shared, stream));
                }
            })
        };
        Ok(Server { addr: local, shared, accept: Some(accept), workers })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service metrics (tests assert on counters through this).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Blocks forever serving requests (the daemon's main thread).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, cancels every known job, drains the queue, and
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.jobs.cancel_all();
        for job in self.shared.queue.stop() {
            let _ = job.tx.send(Event::Failed {
                job: job.id,
                reason: "error".into(),
                detail: "server shutting down".into(),
            });
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes one event line; `false` means the client is gone.
fn send(writer: &mut TcpStream, event: &Event) -> bool {
    let mut line = event.render();
    line.push('\n');
    writer.write_all(line.as_bytes()).is_ok()
}

fn connection(shared: &Shared, stream: TcpStream) {
    shared.metrics.bump("serve.connections", 1);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut writer = stream;
    let mut lines = BufReader::new(read_half).lines();

    // Versioned handshake first: anything else on the first line is a
    // protocol error and the connection closes.
    let tenant = match lines.next() {
        Some(Ok(first)) => match Request::parse(&first) {
            Ok(Request::Hello { proto, tenant }) if proto == PROTOCOL => {
                let hello = Event::Hello {
                    proto: PROTOCOL.to_string(),
                    server: concat!("charm-serve ", env!("CARGO_PKG_VERSION")).to_string(),
                };
                if !send(&mut writer, &hello) {
                    return;
                }
                tenant
            }
            Ok(Request::Hello { proto, .. }) => {
                send(
                    &mut writer,
                    &Event::Error {
                        detail: format!("unsupported protocol {proto:?} (this is {PROTOCOL})"),
                    },
                );
                return;
            }
            _ => {
                send(
                    &mut writer,
                    &Event::Error { detail: format!("expected a {PROTOCOL} hello first") },
                );
                return;
            }
        },
        _ => return,
    };

    for line in lines {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let keep_going = match Request::parse(&line) {
            Err(e) => send(&mut writer, &Event::Error { detail: e }),
            Ok(Request::Hello { .. }) => {
                send(&mut writer, &Event::Error { detail: "connection already greeted".into() })
            }
            Ok(Request::Status) => {
                let (mut counters, tenants) = shared.metrics.snapshot();
                counters.push(("serve.queue_depth".to_string(), shared.queue.len() as u64));
                counters.sort();
                send(&mut writer, &Event::Status { counters, tenants })
            }
            Ok(Request::Cancel { job }) => {
                let state = shared.jobs.cancel(&job);
                if state == "cancelled" {
                    shared.metrics.bump("serve.cancel_requests", 1);
                }
                send(&mut writer, &Event::CancelOk { job, state: state.to_string() })
            }
            Ok(Request::Result { run_id }) => match RunId::parse(&run_id) {
                Ok(id) => {
                    let job = next_job_id(shared);
                    stream_archive(shared, &mut writer, &job, &id, true)
                }
                Err(e) => send(&mut writer, &Event::Error { detail: e.to_string() }),
            },
            Ok(Request::Submit { kind, plan, platform, seed, shards, observe }) => handle_submit(
                shared,
                &mut writer,
                &tenant,
                kind,
                &plan,
                &platform,
                seed,
                shards,
                observe,
            ),
        };
        if !keep_going {
            break;
        }
    }
}

fn next_job_id(shared: &Shared) -> String {
    format!("j{}", shared.next_job.fetch_add(1, Ordering::SeqCst))
}

fn reject(
    shared: &Shared,
    writer: &mut TcpStream,
    tenant: &str,
    reason: RejectReason,
    detail: String,
) -> bool {
    shared.metrics.reject(tenant, reason);
    send(writer, &Event::Rejected { reason, detail })
}

/// The full admission path for one submission. Returns `false` when the
/// client hung up.
#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Shared,
    writer: &mut TcpStream,
    tenant: &str,
    kind: PlanKind,
    plan_text: &str,
    platform: &str,
    seed: u64,
    shards: u64,
    observe: bool,
) -> bool {
    shared.metrics.bump("serve.submissions", 1);
    let Prepared { plan, target, target_id, label, shuffle_seed } =
        match submit::prepare(kind, plan_text, platform, seed) {
            Ok(p) => p,
            Err((reason, detail)) => return reject(shared, writer, tenant, reason, detail),
        };
    let key = CampaignKey::of(&plan, &target_id, Some(seed), shards);
    let run_id = key.run_id();

    // Dedupe: an archived run for this exact (plan, target, seed,
    // shards) streams from the store — no quota charge, no queue slot,
    // no engine work.
    match shared.store.manifest(&run_id) {
        Ok(manifest) if key.matches(&manifest) => {
            shared.metrics.bump("serve.dedup_hits", 1);
            let job = next_job_id(shared);
            return stream_archive(shared, writer, &job, &run_id, false);
        }
        Ok(_) => {
            // A truncated-hash collision: the directory archives a
            // different campaign. Refuse rather than re-derive.
            return reject(
                shared,
                writer,
                tenant,
                RejectReason::BadPlan,
                format!("run id {run_id} collides with a different archived campaign"),
            );
        }
        Err(StoreError::NotFound { .. }) => {}
        Err(e) => {
            return send(writer, &Event::Error { detail: format!("store error: {e}") });
        }
    }

    // Quotas, then the bounded queue; a lost race to the queue rolls
    // the quota charge back.
    let rows = plan.len() as u64;
    if let Err(reason) = shared.metrics.try_admit(tenant, rows, &shared.config.quotas()) {
        let detail = match reason {
            RejectReason::QuotaJobs => format!(
                "tenant {tenant:?} already runs {} concurrent job(s)",
                shared.config.tenant_max_jobs
            ),
            _ => format!(
                "tenant {tenant:?} exceeded {} plan rows per {}s window",
                shared.config.tenant_max_rows, shared.config.tenant_window_secs
            ),
        };
        return reject(shared, writer, tenant, reason, detail);
    }

    // The checkpoint session decides resume-vs-fresh and is the sink
    // the engine streams through. Opening it also guards against
    // truncated-ID collisions in the checkpoint trail.
    let session = match shared.store.open_session(key, plan.factor_names()) {
        Ok(s) => s,
        Err(e) => {
            shared.metrics.rollback_admit(tenant);
            return send(writer, &Event::Error { detail: format!("store error: {e}") });
        }
    };
    // Observed runs never resume: checkpoints retain records, not
    // counter streams, and the engine refuses the combination.
    let resume = !observe && session.has_segments();

    let job_id = next_job_id(shared);
    let cancel = CancelToken::new();
    let (tx, rx) = channel();
    let job = Box::new(Job {
        id: job_id.clone(),
        tenant: tenant.to_string(),
        plan,
        target,
        label,
        shuffle_seed,
        seed,
        shards,
        observe,
        resume,
        session,
        cancel: cancel.clone(),
        tx,
    });
    let columns = head_columns(job.plan.factor_names());
    shared.jobs.register(&job_id, cancel);
    if let Err(job) = shared.queue.try_push(job) {
        shared.jobs.remove(&job_id);
        shared.metrics.rollback_admit(tenant);
        drop(job);
        return reject(
            shared,
            writer,
            tenant,
            RejectReason::QueueFull,
            format!("admission queue is at capacity ({})", shared.config.queue),
        );
    }
    let source = if resume { Source::Resume } else { Source::Engine };
    let accepted =
        Event::Accepted { job: job_id.clone(), run_id: run_id.to_string(), source, rows };
    let mut connected =
        send(writer, &accepted) && send(writer, &Event::Head { job: job_id, columns });
    // Relay the worker's stream until the terminal event. A gone client
    // stops the writes but not the drain: the campaign still completes
    // and archives — disconnect is not cancellation.
    for event in rx.iter() {
        let terminal = matches!(event, Event::Done { .. } | Event::Failed { .. });
        if connected && !send(writer, &event) {
            connected = false;
        }
        if terminal && connected {
            break;
        }
    }
    connected
}

/// The `records.csv` header line for a plan's factor columns.
fn head_columns(factor_names: &[String]) -> String {
    let mut columns = factor_names.join(",");
    if !columns.is_empty() {
        columns.push(',');
    }
    columns.push_str("replicate,sequence,start_us,value");
    columns
}

/// Streams an archived run: `accepted` (for submissions and result
/// requests alike), `head`, every record row, the archived counters,
/// `done` tagged `archive`. Returns `false` when the client hung up.
fn stream_archive(
    shared: &Shared,
    writer: &mut TcpStream,
    job: &str,
    run_id: &RunId,
    is_result_request: bool,
) -> bool {
    let stored = match shared.store.get(run_id) {
        Ok(s) => s,
        Err(e) => {
            let detail = if is_result_request {
                format!("cannot load run {run_id}: {e}")
            } else {
                format!("archived run {run_id} failed verification: {e}")
            };
            return send(writer, &Event::Error { detail });
        }
    };
    let records = stored.data.records.len() as u64;
    shared.metrics.bump("serve.archive_rows", records);
    let accepted = Event::Accepted {
        job: job.to_string(),
        run_id: run_id.to_string(),
        source: Source::Archive,
        rows: records,
    };
    if !send(writer, &accepted) {
        return false;
    }
    let head =
        Event::Head { job: job.to_string(), columns: head_columns(&stored.data.factor_names) };
    if !send(writer, &head) {
        return false;
    }
    let mut row = String::new();
    for r in &stored.data.records {
        row.clear();
        r.write_csv_row(&mut row).expect("writing to a String cannot fail");
        if !send(writer, &Event::Record { job: job.to_string(), row: row.clone() }) {
            return false;
        }
    }
    if let Some(report) = &stored.report {
        for (key, value) in report.counters.iter() {
            let counter = Event::Counter { job: job.to_string(), key: key.to_string(), value };
            if !send(writer, &counter) {
                return false;
            }
        }
    }
    send(
        writer,
        &Event::Done {
            job: job.to_string(),
            run_id: run_id.to_string(),
            records,
            source: Source::Archive,
        },
    )
}

/// Worker-side execution of an admitted job.
fn execute_job(shared: &Shared, job: Job) {
    // A job cancelled while queued dies here, before any engine work.
    if job.cancel.is_cancelled() {
        finish(shared, &job);
        let _ = job.tx.send(Event::Failed {
            job: job.id.clone(),
            reason: "cancelled".into(),
            detail: "cancelled while queued".into(),
        });
        return;
    }
    shared.metrics.bump("serve.jobs_executed", 1);
    if job.resume {
        shared.metrics.bump("serve.jobs_resumed", 1);
    }
    let sink = StreamSink::new(&job.session, &job.id, job.tx.clone());
    let result = match registry::resolve(&job.target, job.seed) {
        Ok(ResolvedTarget::Network(t)) => run_sharded(&job, *t, &sink),
        Ok(ResolvedTarget::Memory(t)) => run_sharded(&job, *t, &sink),
        Ok(ResolvedTarget::External(_)) => {
            Err(TargetError::Protocol { detail: "external target admitted".into() })
        }
        Err(e) => Err(e),
    };
    let streamed = sink.streamed();
    match result {
        Ok(run) => {
            let archived = shared.store.put_run(
                job.session.key(),
                &job.label,
                "charm_serve_d",
                &run.data,
                run.report.as_ref(),
            );
            finish(shared, &job);
            match archived {
                Ok(id) => {
                    shared.metrics.bump("serve.engine_rows", run.data.records.len() as u64);
                    if let Some(report) = &run.report {
                        for (key, value) in report.counters.iter() {
                            let _ = job.tx.send(Event::Counter {
                                job: job.id.clone(),
                                key: key.to_string(),
                                value,
                            });
                        }
                    }
                    let source = if job.resume { Source::Resume } else { Source::Engine };
                    let _ = job.tx.send(Event::Done {
                        job: job.id.clone(),
                        run_id: id.to_string(),
                        records: streamed,
                        source,
                    });
                }
                Err(e) => {
                    shared.metrics.bump("serve.jobs_failed", 1);
                    let _ = job.tx.send(Event::Failed {
                        job: job.id.clone(),
                        reason: "error".into(),
                        detail: format!("archive failed: {e}"),
                    });
                }
            }
        }
        Err(TargetError::Cancelled) => {
            shared.metrics.bump("serve.jobs_cancelled", 1);
            finish(shared, &job);
            let _ = job.tx.send(Event::Failed {
                job: job.id.clone(),
                reason: "cancelled".into(),
                detail: format!("stopped after {streamed} streamed row(s); segments retained"),
            });
        }
        Err(e) => {
            shared.metrics.bump("serve.jobs_failed", 1);
            finish(shared, &job);
            let _ = job.tx.send(Event::Failed {
                job: job.id.clone(),
                reason: "error".into(),
                detail: e.to_string(),
            });
        }
    }
}

fn finish(shared: &Shared, job: &Job) {
    shared.metrics.job_finished(&job.tenant);
    shared.jobs.finish(&job.id);
}

/// Runs one job's campaign on the work-stealing engine, streaming
/// through `sink`. `min_rows_per_shard(1)` takes the requested shard
/// count literally, so the run's geometry — and therefore its metadata
/// and run ID — is exactly what the submission asked for.
fn run_sharded<T: ParallelTarget>(
    job: &Job,
    target: T,
    sink: &StreamSink<'_>,
) -> Result<CampaignRun, TargetError> {
    let mut sharded = Campaign::new(&job.plan, target)
        .shards(job.shards as usize)
        .seed(job.shuffle_seed)
        .cancel_token(job.cancel.clone())
        .min_rows_per_shard(1)
        .store(sink)
        .resume(job.resume);
    if job.observe {
        sharded = sharded.observer(Observer::default());
    }
    sharded.run()
}
