//! The job server: admission, scheduling, execution, response routing.
//!
//! A [`Server`] owns the bounded [`AdmitQueue`] and a fixed set of
//! worker threads; clients hand it validated [`JobSpec`]s with a
//! [`Sink`] to receive that job's [`Event`] stream. The contract every
//! harness (and the soak stage) leans on:
//!
//! * **Exactly one terminal event per job.** `result`, `rejected`,
//!   `cancelled`, `deadline_exceeded` or `failed` — never zero, never
//!   two. The guard is structural: terminal emission removes the job's
//!   routing entry, and every path goes through that removal — a
//!   panicking runner included, which ends its job `failed`.
//! * **Admission is the only buffer.** A full queue rejects (or sheds
//!   the weakest queued job for a strictly stronger newcomer); memory
//!   is bounded by `queue_cap` plus one in-flight job per worker.
//! * **Runs are bit-reproducible.** A worker executes `(spec, attempt)`
//!   through the same deterministic simulator as a direct
//!   [`App::try_run`](ompss_apps::scenario::App::try_run) call, so the
//!   streamed `RunReport` is byte-identical to an offline run of the
//!   same spec.
//! * **Degradation is graceful.** Overload sheds lowest-priority work
//!   with an explicit terminal response; shutdown drains in-flight jobs
//!   and terminally rejects what was still queued.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ompss_json::{Json, ToJson};
use ompss_runtime::{Backoff, RunError, SimDuration};

use crate::counters::{Count, ServeCounters};
use crate::queue::{Admit, AdmitQueue, QueuedJob};
use crate::spec::JobSpec;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-queue bound.
    pub queue_cap: usize,
    /// First retry wait; doubles per retry ([`Backoff`]), mapped onto
    /// host time.
    pub retry_backoff: SimDuration,
    /// Ceiling on any single retry wait.
    pub retry_backoff_cap: SimDuration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: ompss_sweep::jobs(),
            queue_cap: 64,
            retry_backoff: SimDuration::from_millis(1),
            retry_backoff_cap: SimDuration::from_millis(100),
        }
    }
}

/// One protocol message about one job.
#[derive(Debug, Clone)]
pub struct Event {
    /// Server-assigned job id.
    pub id: u64,
    /// The spec's client tag, echoed verbatim.
    pub tag: Option<String>,
    /// What happened.
    pub kind: EventKind,
}

/// The event payload. Five of these are terminal (see
/// [`Event::is_terminal`]); `admitted`, `started` and `retrying` are
/// progress.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Queued; carries the depth after admission.
    Admitted {
        /// Queue depth including this job.
        queue_depth: u64,
    },
    /// A worker began attempt `attempt` (0-based).
    Started {
        /// 0-based attempt index.
        attempt: u32,
        /// Pops this job waited in the queue (fairness gauge).
        waited_pops: u64,
    },
    /// Attempt `attempt` failed retryably; another follows.
    Retrying {
        /// The attempt that failed.
        attempt: u32,
        /// The failure's `Display` line.
        error: String,
    },
    /// Terminal: the job completed.
    Result {
        /// Attempts consumed (≥ 1).
        attempts: u32,
        /// Virtual makespan of the measured phase, nanoseconds.
        elapsed_ns: u64,
        /// The app's figure metric (GFLOPS / GB/s / Mpixels/s).
        metric: f64,
        /// The full `RunReport` as JSON — byte-identical to a direct
        /// run of the same `(spec, attempt)`.
        report: Json,
    },
    /// Terminal: never ran. `reason` is `"queue_full"`, `"load_shed"`
    /// or `"draining"`.
    Rejected {
        /// Why admission refused or revoked the job.
        reason: &'static str,
    },
    /// Terminal: cancelled by the client before running.
    Cancelled,
    /// Terminal: the deadline passed while queued or between attempts.
    DeadlineExceeded,
    /// Terminal: the run failed and no retry was allowed.
    Failed {
        /// Attempts consumed (≥ 1).
        attempts: u32,
        /// The terminal failure's `Display` line.
        error: String,
    },
}

impl Event {
    /// Whether this event ends the job's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Result { .. }
                | EventKind::Rejected { .. }
                | EventKind::Cancelled
                | EventKind::DeadlineExceeded
                | EventKind::Failed { .. }
        )
    }

    /// The protocol line for this event.
    pub fn to_json(&self) -> Json {
        let name = match &self.kind {
            EventKind::Admitted { .. } => "admitted",
            EventKind::Started { .. } => "started",
            EventKind::Retrying { .. } => "retrying",
            EventKind::Result { .. } => "result",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Cancelled => "cancelled",
            EventKind::DeadlineExceeded => "deadline_exceeded",
            EventKind::Failed { .. } => "failed",
        };
        let mut j = Json::object().field("event", name).field("id", self.id);
        if let Some(tag) = &self.tag {
            j = j.field("tag", tag.as_str());
        }
        match &self.kind {
            EventKind::Admitted { queue_depth } => j.field("queue_depth", *queue_depth),
            EventKind::Started { attempt, waited_pops } => {
                j.field("attempt", *attempt as u64).field("waited_pops", *waited_pops)
            }
            EventKind::Retrying { attempt, error } => {
                j.field("attempt", *attempt as u64).field("error", error.as_str())
            }
            EventKind::Result { attempts, elapsed_ns, metric, report } => j
                .field("attempts", *attempts as u64)
                .field("elapsed_ns", *elapsed_ns)
                .field("metric", *metric)
                .field("report", report.clone()),
            EventKind::Rejected { reason } => j.field("reason", *reason),
            EventKind::Cancelled | EventKind::DeadlineExceeded => j,
            EventKind::Failed { attempts, error } => {
                j.field("attempts", *attempts as u64).field("error", error.as_str())
            }
        }
    }
}

/// Receives one job's events. Called from submit and worker threads;
/// must not block for long.
pub type Sink = Arc<dyn Fn(&Event) + Send + Sync>;

/// What a completed run hands back to the server.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The `RunReport` as JSON.
    pub report: Json,
    /// Figure metric.
    pub metric: f64,
    /// Virtual makespan, nanoseconds.
    pub elapsed_ns: u64,
}

/// Executes one `(spec, attempt)`. The default ([`sim_runner`]) runs
/// the real simulator; tests inject failure scripts.
pub type Runner = Arc<dyn Fn(&JobSpec, u32) -> Result<RunOutcome, RunError> + Send + Sync>;

/// The production runner: the scenario registry's validation-scale
/// app dispatch every harness uses, so a served job is bit-identical
/// to a direct [`App::try_run`](ompss_apps::scenario::App::try_run) of
/// the same configuration.
pub fn sim_runner() -> Runner {
    Arc::new(|spec, attempt| {
        let run = spec.app.try_run(spec.config(attempt))?;
        let report = run.report.as_ref().map(|r| r.to_json()).unwrap_or_else(Json::object);
        Ok(RunOutcome { report, metric: run.metric, elapsed_ns: run.elapsed.as_nanos() })
    })
}

/// A cloneable cooperative-cancellation flag: all clones observe the
/// same state, and [`cancel`](CancelToken::cancel) never un-sets. A
/// worker checks it at attempt boundaries — a simulation run is never
/// interrupted mid-flight.
#[derive(Debug, Clone, Default)]
struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Flip the token; every clone sees it. Idempotent.
    fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether any clone of this token was cancelled.
    fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The `Display` line of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s,
        _ => "non-string panic payload",
    }
}

/// Routing entry for one live job; removing it *is* the exactly-once
/// terminal guard.
struct JobState {
    sink: Sink,
    token: CancelToken,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<AdmitQueue>,
    ready: Condvar,
    counters: Arc<ServeCounters>,
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, JobState>>,
    draining: AtomicBool,
    runner: Runner,
}

impl Shared {
    /// Send a progress event if the job is still live.
    fn emit(&self, id: u64, tag: &Option<String>, kind: EventKind) {
        let sink = self.jobs.lock().get(&id).map(|s| s.sink.clone());
        if let Some(sink) = sink {
            sink(&Event { id, tag: tag.clone(), kind });
        }
    }

    /// Send the job's one terminal event and retire its routing entry.
    /// A second call for the same id is a silent no-op — the entry is
    /// gone — which is exactly the once-semantics the protocol promises.
    fn emit_terminal(&self, id: u64, tag: &Option<String>, kind: EventKind) {
        let state = self.jobs.lock().remove(&id);
        if let Some(state) = state {
            let ev = Event { id, tag: tag.clone(), kind };
            debug_assert!(ev.is_terminal());
            (state.sink)(&ev);
        }
    }

    fn expired(job: &QueuedJob) -> bool {
        job.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// Worker-side execution of one popped job: deadline and
    /// cancellation checks between attempts, deterministic backoff
    /// between retries.
    fn run_job(&self, job: QueuedJob) {
        let id = job.id;
        let tag = job.spec.tag.clone();
        let token = match self.jobs.lock().get(&id) {
            Some(s) => s.token.clone(),
            // Already terminal (a cancel raced the pop) — nothing owed.
            None => return,
        };
        let retries = job.spec.retries;
        let mut backoff = Backoff::exponential(self.cfg.retry_backoff, retries)
            .capped(self.cfg.retry_backoff_cap);
        let mut attempt = 0u32;
        loop {
            if token.is_cancelled() {
                self.counters.bump(Count::Cancelled);
                self.emit_terminal(id, &tag, EventKind::Cancelled);
                return;
            }
            if Shared::expired(&job) {
                self.counters.bump(Count::Deadlines);
                self.emit_terminal(id, &tag, EventKind::DeadlineExceeded);
                return;
            }
            self.emit(id, &tag, EventKind::Started { attempt, waited_pops: job.waited_pops });
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.runner)(&job.spec, attempt)))
                .unwrap_or_else(|panic| {
                    Err(RunError::ProcessPanic("runner".into(), panic_message(&*panic).into()))
                });
            match outcome {
                Ok(out) => {
                    self.counters.bump(Count::Completed);
                    self.emit_terminal(
                        id,
                        &tag,
                        EventKind::Result {
                            attempts: attempt + 1,
                            elapsed_ns: out.elapsed_ns,
                            metric: out.metric,
                            report: out.report,
                        },
                    );
                    return;
                }
                Err(e) if e.is_retryable() && attempt < retries => {
                    self.counters.bump(Count::Retries);
                    self.emit(id, &tag, EventKind::Retrying { attempt, error: e.to_string() });
                    if let Some(wait) = backoff.next() {
                        std::thread::sleep(Duration::from_nanos(wait.as_nanos()));
                    }
                    attempt += 1;
                }
                Err(e) => {
                    self.counters.bump(Count::Failed);
                    self.emit_terminal(
                        id,
                        &tag,
                        EventKind::Failed { attempts: attempt + 1, error: e.to_string() },
                    );
                    return;
                }
            }
        }
    }

    /// Worker loop body: pop-or-park until draining empties the queue.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(j) = q.pop() {
                        break Some(j);
                    }
                    if self.draining.load(Relaxed) {
                        break None;
                    }
                    self.ready.wait(&mut q);
                }
            };
            match job {
                Some(job) => self.run_job(job),
                None => return,
            }
        }
    }
}

/// The daemon. Dropping it drains: queued jobs are terminally rejected
/// with reason `"draining"`, in-flight jobs finish, workers join.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server with the production simulator runner.
    pub fn new(cfg: ServeConfig) -> Server {
        Server::with_runner(cfg, sim_runner())
    }

    /// Start a server executing jobs through `runner` (tests inject
    /// scripted outcomes; everything else about admission, retry and
    /// response routing is the production path).
    pub fn with_runner(cfg: ServeConfig, runner: Runner) -> Server {
        let shared = Arc::new(Shared {
            queue: Mutex::new(AdmitQueue::new(cfg.queue_cap)),
            ready: Condvar::new(),
            counters: Arc::default(),
            next_id: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            runner,
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// The counter registry (shared with the protocol `stats` op).
    pub fn counters(&self) -> Arc<ServeCounters> {
        self.shared.counters.clone()
    }

    /// Submit a job; its events flow to `sink`. Returns the assigned
    /// id. The admission outcome (`admitted` or a terminal `rejected`)
    /// is delivered through the sink before this returns.
    pub fn submit(&self, spec: JobSpec, sink: Sink) -> u64 {
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Relaxed) + 1;
        let tag = spec.tag.clone();
        shared.jobs.lock().insert(id, JobState { sink, token: CancelToken::default() });
        if shared.draining.load(Relaxed) {
            shared.counters.bump(Count::Rejected);
            shared.emit_terminal(id, &tag, EventKind::Rejected { reason: "draining" });
            return id;
        }
        let deadline = spec.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let job = QueuedJob::new(id, spec, deadline);
        let (admitted_depth, victim) = {
            let mut q = shared.queue.lock();
            match q.push(job) {
                Admit::Admitted => (Some(q.len() as u64), None),
                Admit::Shed { victim } => (Some(q.len() as u64), Some(victim)),
                Admit::Rejected => (None, None),
            }
        };
        match admitted_depth {
            Some(depth) => {
                shared.counters.bump(Count::Admitted);
                shared.counters.raise(Count::QueuePeak, depth);
                if let Some(victim) = victim {
                    shared.counters.bump(Count::Shed);
                    shared.emit_terminal(
                        victim.id,
                        &victim.spec.tag,
                        EventKind::Rejected { reason: "load_shed" },
                    );
                }
                // Admitted goes out before the wakeup so a client never
                // sees `started` ahead of its admission.
                shared.emit(id, &tag, EventKind::Admitted { queue_depth: depth });
                shared.ready.notify_one();
            }
            None => {
                shared.counters.bump(Count::Rejected);
                shared.emit_terminal(id, &tag, EventKind::Rejected { reason: "queue_full" });
            }
        }
        id
    }

    /// Cancel a job. A still-queued job is removed and terminally
    /// `cancelled` immediately; a running job observes the token at its
    /// next attempt boundary (a simulation run is never interrupted
    /// mid-flight). Returns false when the id is unknown or already
    /// terminal.
    pub fn cancel(&self, id: u64) -> bool {
        let shared = &self.shared;
        let Some(token) = shared.jobs.lock().get(&id).map(|s| s.token.clone()) else {
            return false;
        };
        token.cancel();
        let removed = shared.queue.lock().remove(id);
        if let Some(job) = removed {
            shared.counters.bump(Count::Cancelled);
            shared.emit_terminal(id, &job.spec.tag, EventKind::Cancelled);
        }
        true
    }

    /// Snapshot of queue state and counters for the `stats` op.
    pub fn stats_json(&self) -> Json {
        let (depth, cap, peak) = {
            let q = self.shared.queue.lock();
            (q.len() as u64, q.cap() as u64, q.peak() as u64)
        };
        Json::object()
            .field("event", "stats")
            .field("queue_depth", depth)
            .field("queue_cap", cap)
            .field("queue_peak", peak)
            .field("counters", self.shared.counters.to_json())
    }

    /// Block until every submitted job has received its terminal event
    /// (stdin mode waits this out on EOF, so piped clients get their
    /// results instead of drain rejections).
    pub fn quiesce(&self) {
        while !self.shared.jobs.lock().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stop accepting work, terminally reject everything still queued
    /// (reason `"draining"`), let in-flight jobs finish, and join the
    /// workers.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        let shared = &self.shared;
        shared.draining.store(true, Relaxed);
        let queued = shared.queue.lock().drain_all();
        for job in queued {
            shared.counters.bump(Count::Rejected);
            shared.emit_terminal(job.id, &job.spec.tag, EventKind::Rejected { reason: "draining" });
        }
        shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            // A worker only dies by a panic outside the runner (a sink
            // or the server itself); its jobs are already accounted for.
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.drain();
        }
    }
}

/// Drive one client connection over the line protocol: each request is
/// one JSON object per line —
///
/// ```text
/// {"op": "submit", "spec": {"app": "stream", ...}}
/// {"op": "cancel", "id": 3}
/// {"op": "stats"}
/// {"op": "shutdown"}
/// ```
///
/// — and every response is one JSON event line on `writer`. Job events
/// keep flowing to this connection's writer after later requests (and
/// after EOF, until the job finishes or the writer fails). Returns true
/// when the client requested daemon shutdown.
pub fn serve_connection<R, W>(server: &Server, reader: R, writer: W) -> bool
where
    R: BufRead,
    W: Write + Send + Sync + 'static,
{
    let writer = Arc::new(Mutex::new(writer));
    let respond = |j: &Json| {
        let mut w = writer.lock();
        let _ = writeln!(w, "{}", j.to_compact_string());
        let _ = w.flush();
    };
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Json::parse(&line) {
            Ok(j) => j,
            Err(e) => {
                respond(
                    &Json::object()
                        .field("event", "error")
                        .field("error", format!("bad request: {e}")),
                );
                continue;
            }
        };
        let op = match req.get("op") {
            Some(Json::Str(op)) => op.clone(),
            _ => {
                respond(&Json::object().field("event", "error").field("error", "missing 'op'"));
                continue;
            }
        };
        match op.as_str() {
            "submit" => {
                let spec = match req.get("spec") {
                    Some(spec_json) => JobSpec::from_json(spec_json),
                    None => Err(crate::spec::SpecError("missing 'spec'".into())),
                };
                match spec {
                    Ok(spec) => {
                        let w = writer.clone();
                        let sink: Sink = Arc::new(move |ev: &Event| {
                            let mut w = w.lock();
                            let _ = writeln!(w, "{}", ev.to_json().to_compact_string());
                            let _ = w.flush();
                        });
                        server.submit(spec, sink);
                    }
                    Err(e) => {
                        // Never became a job: a request-level terminal
                        // response, not a job event.
                        respond(
                            &Json::object()
                                .field("event", "rejected")
                                .field("id", Json::Null)
                                .field("reason", "bad_spec")
                                .field("error", e.to_string()),
                        );
                    }
                }
            }
            "cancel" => match req.get("id") {
                Some(Json::U64(id)) => {
                    let found = server.cancel(*id);
                    respond(
                        &Json::object()
                            .field("event", "cancel_ack")
                            .field("id", *id)
                            .field("found", found),
                    );
                }
                _ => respond(
                    &Json::object().field("event", "error").field("error", "cancel needs an 'id'"),
                ),
            },
            "stats" => respond(&server.stats_json()),
            "shutdown" => {
                respond(&Json::object().field("event", "shutting_down"));
                return true;
            }
            other => respond(
                &Json::object()
                    .field("event", "error")
                    .field("error", format!("unknown op '{other}'")),
            ),
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex as StdMutex;

    use super::*;

    /// Collects every event, grouped nowhere — tests slice by id.
    #[derive(Default)]
    struct Log(StdMutex<Vec<Event>>);

    impl Log {
        fn sink(self: &Arc<Self>) -> Sink {
            let log = self.clone();
            Arc::new(move |ev| log.0.lock().expect("log").push(ev.clone()))
        }
        fn events(&self) -> Vec<Event> {
            self.0.lock().expect("log").clone()
        }
        fn terminals_for(&self, id: u64) -> Vec<Event> {
            self.events().into_iter().filter(|e| e.id == id && e.is_terminal()).collect()
        }
        fn wait_terminal(&self, id: u64) -> Event {
            let t0 = Instant::now();
            loop {
                if let Some(ev) = self.terminals_for(id).pop() {
                    return ev;
                }
                assert!(t0.elapsed() < Duration::from_secs(30), "no terminal for job {id}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    fn spec(text: &str) -> JobSpec {
        JobSpec::parse(text).expect("test spec")
    }

    fn ok_outcome() -> RunOutcome {
        RunOutcome { report: Json::object().field("ok", true), metric: 1.0, elapsed_ns: 10 }
    }

    fn cfg(workers: usize, cap: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_cap: cap,
            retry_backoff: SimDuration::from_nanos(1),
            retry_backoff_cap: SimDuration::from_nanos(10),
        }
    }

    /// A runner whose outcome script is keyed by the spec's tag:
    /// `okN` succeeds, `retryableN` fails retryably the first N
    /// attempts then succeeds, `fatal` fails non-retryably, `slow`
    /// parks until `gate` opens.
    fn scripted_runner(gate: Arc<AtomicBool>) -> Runner {
        let calls: Arc<StdMutex<HashMap<String, u32>>> = Arc::default();
        Arc::new(move |spec: &JobSpec, _attempt| {
            let tag = spec.tag.clone().unwrap_or_default();
            if tag == "slow" {
                while !gate.load(Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Ok(ok_outcome());
            }
            if tag == "fatal" {
                return Err(RunError::Deadlock { blocked: vec![] });
            }
            if let Some(n) = tag.strip_prefix("retryable") {
                let n: u32 = n.parse().expect("retryableN tag");
                let mut calls = calls.lock().expect("calls");
                let made = calls.entry(tag.clone()).or_insert(0);
                *made += 1;
                if *made <= n {
                    return Err(RunError::Exhausted { what: "scripted".into(), attempts: 1 });
                }
            }
            Ok(ok_outcome())
        })
    }

    #[test]
    fn success_failure_and_retry_paths_each_emit_one_terminal() {
        let gate = Arc::new(AtomicBool::new(true));
        let server = Server::with_runner(cfg(2, 8), scripted_runner(gate));
        let log = Arc::new(Log::default());
        let ok = server.submit(spec(r#"{"app":"stream","tag":"ok1"}"#), log.sink());
        let fatal =
            server.submit(spec(r#"{"app":"stream","tag":"fatal","retries":3}"#), log.sink());
        let retried =
            server.submit(spec(r#"{"app":"stream","tag":"retryable2","retries":4}"#), log.sink());
        let exhausted =
            server.submit(spec(r#"{"app":"stream","tag":"retryable9","retries":1}"#), log.sink());

        match log.wait_terminal(ok).kind {
            EventKind::Result { attempts: 1, .. } => {}
            other => panic!("expected one-shot result, got {other:?}"),
        }
        match log.wait_terminal(fatal).kind {
            // Non-retryable failure must not consume the retry budget.
            EventKind::Failed { attempts: 1, error } => {
                assert!(error.contains("deadlock"), "{error}")
            }
            other => panic!("expected failed, got {other:?}"),
        }
        match log.wait_terminal(retried).kind {
            EventKind::Result { attempts: 3, .. } => {}
            other => panic!("expected third-attempt result, got {other:?}"),
        }
        match log.wait_terminal(exhausted).kind {
            EventKind::Failed { attempts: 2, error } => assert!(error.contains("exhausted")),
            other => panic!("expected budget-exhausted failure, got {other:?}"),
        }
        server.shutdown();
        for id in [ok, fatal, retried, exhausted] {
            assert_eq!(log.terminals_for(id).len(), 1, "job {id} must have exactly one terminal");
        }
    }

    #[test]
    fn full_queue_rejects_and_sheds_by_priority() {
        let gate = Arc::new(AtomicBool::new(false));
        let server = Server::with_runner(cfg(1, 2), scripted_runner(gate.clone()));
        let log = Arc::new(Log::default());
        // One job occupies the single worker; two fill the queue.
        let running = server.submit(spec(r#"{"app":"stream","tag":"slow"}"#), log.sink());
        let wait_started = |id: u64| {
            let t0 = Instant::now();
            while !log
                .events()
                .iter()
                .any(|e| e.id == id && matches!(e.kind, EventKind::Started { .. }))
            {
                assert!(t0.elapsed() < Duration::from_secs(30), "job {id} never started");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_started(running);
        let q1 = server.submit(spec(r#"{"app":"stream","priority":4,"tag":"ok"}"#), log.sink());
        let q2 = server.submit(spec(r#"{"app":"stream","priority":1,"tag":"ok"}"#), log.sink());
        // Queue full; priority 1 does not strictly outrank the weakest
        // queued entry (q2, also priority 1): rejected.
        let turned_away =
            server.submit(spec(r#"{"app":"stream","priority":1,"tag":"ok"}"#), log.sink());
        match log.wait_terminal(turned_away).kind {
            EventKind::Rejected { reason: "queue_full" } => {}
            other => panic!("expected queue_full, got {other:?}"),
        }
        // Queue full, strictly higher priority: the weakest (q2) sheds.
        let vip = server.submit(spec(r#"{"app":"stream","priority":9,"tag":"ok"}"#), log.sink());
        match log.wait_terminal(q2).kind {
            EventKind::Rejected { reason: "load_shed" } => {}
            other => panic!("expected load_shed, got {other:?}"),
        }
        gate.store(true, Relaxed);
        for id in [running, q1, vip] {
            match log.wait_terminal(id).kind {
                EventKind::Result { .. } => {}
                other => panic!("job {id}: expected result, got {other:?}"),
            }
        }
        let c = server.counters();
        assert_eq!(c.get(Count::Rejected), 1);
        assert_eq!(c.get(Count::Shed), 1);
        assert_eq!(c.get(Count::Admitted), 4, "running + q1 + q2 + vip were admitted");
        assert_eq!(c.get(Count::QueuePeak), 2);
        server.shutdown();
    }

    #[test]
    fn cancel_hits_queued_jobs_immediately_and_running_jobs_between_attempts() {
        let gate = Arc::new(AtomicBool::new(false));
        let server = Server::with_runner(cfg(1, 4), scripted_runner(gate.clone()));
        let log = Arc::new(Log::default());
        let running = server.submit(spec(r#"{"app":"stream","tag":"slow"}"#), log.sink());
        let queued = server.submit(spec(r#"{"app":"stream","tag":"ok"}"#), log.sink());
        assert!(server.cancel(queued), "queued job is cancellable");
        match log.wait_terminal(queued).kind {
            EventKind::Cancelled => {}
            other => panic!("expected cancelled, got {other:?}"),
        }
        assert!(!server.cancel(queued), "second cancel finds nothing");
        assert!(!server.cancel(999), "unknown id finds nothing");
        // The running job has no attempt boundary left (attempt 0 is in
        // flight and will succeed), so cancel returns true but the job
        // still completes — exactly one terminal either way.
        assert!(server.cancel(running));
        gate.store(true, Relaxed);
        let terminal = log.wait_terminal(running);
        assert!(
            matches!(terminal.kind, EventKind::Result { .. } | EventKind::Cancelled),
            "got {:?}",
            terminal.kind
        );
        server.shutdown();
        assert_eq!(log.terminals_for(running).len(), 1);
        assert_eq!(log.terminals_for(queued).len(), 1);
    }

    #[test]
    fn expired_deadline_terminates_before_the_run() {
        let gate = Arc::new(AtomicBool::new(false));
        let server = Server::with_runner(cfg(1, 4), scripted_runner(gate.clone()));
        let log = Arc::new(Log::default());
        let running = server.submit(spec(r#"{"app":"stream","tag":"slow"}"#), log.sink());
        let doomed =
            server.submit(spec(r#"{"app":"stream","deadline_ms":0,"tag":"ok"}"#), log.sink());
        std::thread::sleep(Duration::from_millis(2));
        gate.store(true, Relaxed);
        match log.wait_terminal(doomed).kind {
            EventKind::DeadlineExceeded => {}
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        match log.wait_terminal(running).kind {
            EventKind::Result { .. } => {}
            other => panic!("expected result, got {other:?}"),
        }
        assert_eq!(server.counters().get(Count::Deadlines), 1);
        server.shutdown();
    }

    #[test]
    fn a_panicking_runner_fails_its_job_and_the_worker_serves_on() {
        // One worker: if the panic killed it, the second job would never
        // start and `quiesce` would spin forever — run it on a helper
        // thread and bound the wait instead.
        let runner: Runner = Arc::new(|spec: &JobSpec, _| match spec.tag.as_deref() {
            Some("boom") => panic!("runner blew up"),
            _ => Ok(ok_outcome()),
        });
        let server = Arc::new(Server::with_runner(cfg(1, 4), runner));
        let log = Arc::new(Log::default());
        let doomed = server.submit(spec(r#"{"app":"stream","tag":"boom"}"#), log.sink());
        let after = server.submit(spec(r#"{"app":"stream","tag":"ok"}"#), log.sink());
        let (tx, rx) = std::sync::mpsc::channel();
        let s2 = server.clone();
        let waiter = std::thread::spawn(move || {
            s2.quiesce();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("quiesce hung: a job got no terminal");
        waiter.join().expect("quiesce waiter");
        match log.wait_terminal(doomed).kind {
            EventKind::Failed { attempts: 1, error } => {
                assert!(error.contains("runner blew up"), "{error}")
            }
            other => panic!("expected failed, got {other:?}"),
        }
        match log.wait_terminal(after).kind {
            EventKind::Result { .. } => {}
            other => panic!("the worker must survive the panic, got {other:?}"),
        }
        assert_eq!(server.counters().get(Count::Failed), 1);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::default();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn shutdown_drains_in_flight_and_rejects_queued() {
        let gate = Arc::new(AtomicBool::new(false));
        let server = Server::with_runner(cfg(1, 8), scripted_runner(gate.clone()));
        let log = Arc::new(Log::default());
        let running = server.submit(spec(r#"{"app":"stream","tag":"slow"}"#), log.sink());
        let queued = server.submit(spec(r#"{"app":"stream","tag":"ok"}"#), log.sink());
        // Shut down only once the slow job is in flight; before that it
        // is still queued and would (rightly) be rejected too.
        let started = |e: &Event| e.id == running && matches!(e.kind, EventKind::Started { .. });
        while !log.events().iter().any(started) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Release the gate from another thread once drain is underway;
        // shutdown() blocks until the in-flight job finishes.
        let g = gate.clone();
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            g.store(true, Relaxed);
        });
        server.shutdown();
        opener.join().expect("opener");
        match log.wait_terminal(running).kind {
            EventKind::Result { .. } => {}
            other => panic!("in-flight job must finish through a drain, got {other:?}"),
        }
        match log.wait_terminal(queued).kind {
            EventKind::Rejected { reason: "draining" } => {}
            other => panic!("queued job must be drained, got {other:?}"),
        }
    }

    #[test]
    fn connection_protocol_round_trip() {
        let gate = Arc::new(AtomicBool::new(true));
        let server = Server::with_runner(cfg(2, 8), scripted_runner(gate));
        let out: Arc<StdMutex<Vec<u8>>> = Arc::default();

        struct SharedWriter(Arc<StdMutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("out").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // First connection: submit a job, then EOF. Its events keep
        // flowing to this writer after the read side closes.
        let submit = concat!(r#"{"op":"submit","spec":{"app":"stream","tag":"ok1"}}"#, "\n");
        assert!(
            !serve_connection(&server, submit.as_bytes(), SharedWriter(out.clone())),
            "EOF is not a shutdown request"
        );
        let t0 = Instant::now();
        while !String::from_utf8_lossy(&out.lock().expect("out")).contains(r#""event":"result""#) {
            assert!(t0.elapsed() < Duration::from_secs(30), "job result never streamed");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Second connection: error paths, control ops, shutdown.
        let requests = concat!(
            r#"{"op":"submit","spec":{"app":"nosuch"}}"#,
            "\n",
            r#"not json"#,
            "\n",
            r#"{"op":"cancel","id":999}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        );
        let wants_shutdown =
            serve_connection(&server, requests.as_bytes(), SharedWriter(out.clone()));
        assert!(wants_shutdown, "shutdown op must be signalled to the caller");
        server.shutdown();

        let text = String::from_utf8(out.lock().expect("out").clone()).expect("utf8 protocol");
        let lines: Vec<Json> =
            text.lines().map(|l| Json::parse(l).expect("every response line is JSON")).collect();
        let events: Vec<&str> = lines
            .iter()
            .map(|j| match j.get("event") {
                Some(Json::Str(s)) => s.as_str(),
                _ => panic!("response without event: {j:?}"),
            })
            .collect();
        assert!(events.contains(&"admitted"), "{events:?}");
        assert!(events.contains(&"result"), "{events:?}");
        assert!(events.contains(&"rejected"), "bad spec must reject: {events:?}");
        assert!(events.contains(&"error"), "bad request line must error: {events:?}");
        assert!(events.contains(&"cancel_ack"), "{events:?}");
        assert!(events.contains(&"stats"), "{events:?}");
        assert_eq!(events.last(), Some(&"shutting_down"));
        let reject = lines
            .iter()
            .find(|j| j.get("reason").is_some())
            .expect("the bad-spec reject carries a reason");
        assert_eq!(reject.get("reason"), Some(&Json::Str("bad_spec".into())));
    }
}
