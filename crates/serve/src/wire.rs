//! The line-delimited JSON wire protocol and the TCP server.
//!
//! One request per line, one response per line, both compact JSON
//! (`rfsim_numerics::json`). Every request carries a `verb`; every
//! response carries `ok` plus either the verb's payload or an `error`
//! string. The protocol is deliberately dependency-free and
//! human-drivable (`nc 127.0.0.1 4520` works).
//!
//! | verb | request fields | response payload |
//! |------|----------------|------------------|
//! | `submit` | `job` (a [`JobSpec`]) | `job_id` |
//! | `poll` | `job_id`, optional `wait_ms` | `status`, `memo_hit`, `result` when done; `error` (+ `interrupted`) when failed; `progress` (`rung`, `iteration`, `best_residual`) while running |
//! | `cancel` | `job_id` | `status` after the cancel took effect |
//! | `stats` | — | the [`ServeStats`](crate::service::ServeStats) object |
//! | `metrics` | optional `format` (`"json"`) | `metrics`: Prometheus-style exposition text ([`crate::metrics`]); with `format: "json"`, `stats` as for the `stats` verb |
//! | `trace` | `job_id` | `trace`: the job's ordered lifecycle timeline ([`TraceView`](crate::service::TraceView)) |
//! | `evict` | optional `family` | `evicted` count |
//! | `shutdown` | — | acknowledges, then stops the server |
//!
//! `poll` with `wait_ms` is a long-poll: it is answered when the job
//! settles or the budget (capped at 2 s) elapses, so clients do not
//! busy-spin; on timeout it reports the job's current phase with
//! `ok: true`.
//!
//! # The front-end
//!
//! [`WireServer`] multiplexes every connection over a small bounded pool
//! of worker threads ([`FrontEndConfig::workers`]) instead of spawning a
//! thread per connection: an accept thread parks new non-blocking
//! sockets in a shared ready-queue, and each worker repeatedly takes a
//! connection, makes whatever progress its socket allows (flush pending
//! response bytes, read request bytes, execute at most one request), and
//! puts it back. A long-poll does **not** pin a worker: the connection
//! is *parked* with its `(job_id, deadline)` and answered by whichever
//! worker next observes the job settled (or the deadline passed), so a
//! thousand idle pollers cost queue slots, not threads.
//!
//! Workers wake on events rather than on a timer wherever `std` allows:
//!
//! * A worker that takes a connection while no other is queued waits on
//!   whatever that connection is waiting for, for at most the 1 ms idle
//!   quantum: a timed blocking read on an idle socket, or
//!   [`SimService::wait`] on a parked long-poll's job, which returns as
//!   soon as the job settles. With no more connections than workers,
//!   each request is therefore read the moment its bytes arrive and each
//!   parked poll answered the moment its job settles.
//! * While other connections are queued, a visit never blocks: a worker
//!   held by one quiet socket would delay every busy one behind it. A
//!   visit that found nothing to do puts its connection back and sleeps
//!   one quantum, so idle connections cost microseconds per second, not
//!   a spinning core.
//! * An empty ready-queue is a `Condvar` wait, signalled by the accept
//!   thread and by a stop ([`WireServer::stop`] or the `shutdown` verb).
//!
//! The kernel's socket read timeout is coarse: a 1 ms timeout can take
//! several milliseconds to expire. That is the other reason a visit
//! blocks only when no other connection is queued — blocking while
//! others wait would add that delay to every connection in the
//! round-robin.
//!
//! Admission control is per-connection: each connection may hold at most
//! [`FrontEndConfig::max_inflight`] unsettled jobs; a submit past the cap
//! is refused with a `Throttled` error (settled ids are pruned lazily
//! first, so memo-hit traffic is never throttled). One flooding client
//! therefore exhausts its own cap, not the shared admission queue.
//!
//! The `stats` payload served over the wire carries one extra `frontend`
//! section (connections, requests, throttles, parked long-polls) on top
//! of [`ServeStats::to_json`](crate::service::ServeStats::to_json).

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rfsim_numerics::json::Json;
use rfsim_numerics::telemetry::LatencyHistogram;

use crate::error::{Result, ServeError};
use crate::metrics;
use crate::service::{JobId, JobStatus, SimService};
use crate::spec::{JobSpec, Priority};

/// A decoded wire request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(JobSpec),
    /// Submit a `.rfn` netlist: parse, register its content-addressed
    /// family if absent, and run the job its directives describe.
    SubmitNetlist {
        /// The netlist text (`\n`-separated statements).
        netlist: String,
        /// Scheduling priority.
        priority: Priority,
        /// Optional per-job deadline (milliseconds from dispatch).
        deadline_ms: Option<u64>,
    },
    /// Poll a job, optionally long-polling for up to `wait_ms`.
    Poll {
        /// The job to poll.
        job_id: u64,
        /// Server-side wait budget (0 = immediate snapshot).
        wait_ms: u64,
    },
    /// Cancel a job (idempotent; see
    /// [`SimService::cancel`](crate::service::SimService::cancel)).
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Service statistics.
    Stats,
    /// Telemetry exposition: Prometheus-style text, or the stats object
    /// with `json: true`.
    Metrics {
        /// Return the stats JSON object instead of exposition text.
        json: bool,
    },
    /// A job's lifecycle timeline.
    Trace {
        /// The job to trace.
        job_id: u64,
    },
    /// Evict stored solutions (all, or one family's).
    Evict {
        /// Restrict eviction to this family.
        family: Option<String>,
    },
    /// Stop the server.
    Shutdown,
}

/// Every wire verb, in the order the per-verb request histograms index
/// them (the `verb` label of `rfsim_frontend_request_ms`).
const VERBS: [&str; 9] = [
    "submit",
    "submit_netlist",
    "poll",
    "cancel",
    "stats",
    "metrics",
    "trace",
    "evict",
    "shutdown",
];

impl Request {
    /// This request's verb name (the `verb` label on the front-end's
    /// per-verb request histograms).
    pub fn verb(&self) -> &'static str {
        VERBS[self.verb_index()]
    }

    /// This request's index into [`VERBS`].
    fn verb_index(&self) -> usize {
        match self {
            Request::Submit(_) => 0,
            Request::SubmitNetlist { .. } => 1,
            Request::Poll { .. } => 2,
            Request::Cancel { .. } => 3,
            Request::Stats => 4,
            Request::Metrics { .. } => 5,
            Request::Trace { .. } => 6,
            Request::Evict { .. } => 7,
            Request::Shutdown => 8,
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] naming what was malformed.
    pub fn parse(line: &str) -> Result<Request> {
        let json = Json::parse(line).map_err(ServeError::Protocol)?;
        let verb = json
            .string_at("verb")
            .ok_or_else(|| ServeError::Protocol("request missing 'verb'".into()))?;
        match verb {
            "submit" => {
                let job = json
                    .path("job")
                    .ok_or_else(|| ServeError::Protocol("submit missing 'job'".into()))?;
                Ok(Request::Submit(JobSpec::from_json(job)?))
            }
            "submit_netlist" => {
                let netlist = json
                    .string_at("netlist")
                    .ok_or_else(|| ServeError::Protocol("submit_netlist missing 'netlist'".into()))?
                    .to_string();
                let priority = match json.string_at("priority") {
                    None => Priority::Normal,
                    Some(label) => Priority::parse(label).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "unknown priority '{label}' (low|normal|high)"
                        ))
                    })?,
                };
                let deadline_ms = json.number_at("deadline_ms").map(|ms| ms as u64);
                Ok(Request::SubmitNetlist {
                    netlist,
                    priority,
                    deadline_ms,
                })
            }
            "poll" => Ok(Request::Poll {
                job_id: json
                    .number_at("job_id")
                    .ok_or_else(|| ServeError::Protocol("poll missing 'job_id'".into()))?
                    as u64,
                wait_ms: json.number_at("wait_ms").unwrap_or(0.0) as u64,
            }),
            "cancel" => Ok(Request::Cancel {
                job_id: json
                    .number_at("job_id")
                    .ok_or_else(|| ServeError::Protocol("cancel missing 'job_id'".into()))?
                    as u64,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => match json.string_at("format") {
                None | Some("text") | Some("prometheus") => Ok(Request::Metrics { json: false }),
                Some("json") => Ok(Request::Metrics { json: true }),
                Some(other) => Err(ServeError::Protocol(format!(
                    "unknown metrics format '{other}'"
                ))),
            },
            "trace" => Ok(Request::Trace {
                job_id: json
                    .number_at("job_id")
                    .ok_or_else(|| ServeError::Protocol("trace missing 'job_id'".into()))?
                    as u64,
            }),
            "evict" => Ok(Request::Evict {
                family: json.string_at("family").map(str::to_string),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::Protocol(format!("unknown verb '{other}'"))),
        }
    }

    /// Encodes this request as one wire line (no trailing newline).
    pub fn dump(&self) -> String {
        let json = match self {
            Request::Submit(spec) => {
                Json::object([("verb", Json::string("submit")), ("job", spec.to_json())])
            }
            Request::SubmitNetlist {
                netlist,
                priority,
                deadline_ms,
            } => {
                let mut members = vec![
                    ("verb", Json::string("submit_netlist")),
                    ("netlist", Json::string(&**netlist)),
                    ("priority", Json::string(priority.label())),
                ];
                if let Some(ms) = deadline_ms {
                    members.push(("deadline_ms", Json::from(*ms as usize)));
                }
                Json::object(members)
            }
            Request::Poll { job_id, wait_ms } => Json::object([
                ("verb", Json::string("poll")),
                ("job_id", Json::from(*job_id as usize)),
                ("wait_ms", Json::from(*wait_ms as usize)),
            ]),
            Request::Cancel { job_id } => Json::object([
                ("verb", Json::string("cancel")),
                ("job_id", Json::from(*job_id as usize)),
            ]),
            Request::Stats => Json::object([("verb", Json::string("stats"))]),
            Request::Metrics { json: false } => Json::object([("verb", Json::string("metrics"))]),
            Request::Metrics { json: true } => Json::object([
                ("verb", Json::string("metrics")),
                ("format", Json::string("json")),
            ]),
            Request::Trace { job_id } => Json::object([
                ("verb", Json::string("trace")),
                ("job_id", Json::from(*job_id as usize)),
            ]),
            Request::Evict { family } => match family {
                Some(name) => Json::object([
                    ("verb", Json::string("evict")),
                    ("family", Json::string(&**name)),
                ]),
                None => Json::object([("verb", Json::string("evict"))]),
            },
            Request::Shutdown => Json::object([("verb", Json::string("shutdown"))]),
        };
        json.dump()
    }
}

/// An `ok: false` response with `error`.
fn error_response(e: &ServeError) -> Json {
    Json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::string(e.to_string())),
    ])
}

/// The `interrupted` payload of a failed poll: why the control plane
/// stopped the solve, and where the solve was when it stopped.
/// `best_residual` is emitted only when finite (JSON has no Infinity;
/// its absence means no iteration ever completed).
fn interrupt_json(summary: &crate::service::InterruptSummary) -> Json {
    let mut members = vec![
        ("reason", Json::string(summary.label())),
        ("iterations", Json::from(summary.iterations)),
        ("elapsed_ms", Json::from(summary.elapsed_ms as usize)),
    ];
    if summary.best_residual.is_finite() {
        members.push(("best_residual", Json::number(summary.best_residual)));
    }
    Json::object(members)
}

/// An `ok: true` response with extra payload members.
fn ok_response(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(all)
}

/// The full `poll` response for `id`'s current status — shared by the
/// immediate path in [`handle`] and the front-end's parked long-polls.
fn poll_payload(service: &SimService, id: JobId) -> Json {
    match service.poll(id) {
        Err(e) => error_response(&e),
        Ok(status) => {
            let mut members = vec![("status", Json::string(status.label()))];
            match &status {
                JobStatus::Done { result, memo_hit } => {
                    members.push(("memo_hit", Json::Bool(*memo_hit)));
                    members.push(("result", result.to_json()));
                    members.push(("digest", Json::string(format!("{:016x}", result.digest()))));
                }
                JobStatus::Failed {
                    message,
                    interrupted,
                } => {
                    members.push(("error", Json::string(&**message)));
                    if let Some(summary) = interrupted {
                        members.push(("interrupted", interrupt_json(summary)));
                    }
                }
                JobStatus::Running => {
                    // Mid-solve observability: the active recovery-ladder
                    // rung, its Newton iteration depth, and the best
                    // residual so far. Absent until the first iteration
                    // reports.
                    if let Ok(Some(p)) = service.progress(id) {
                        let mut prog = vec![
                            ("rung", Json::string(p.rung)),
                            ("iteration", Json::from(p.iteration)),
                        ];
                        if p.best_residual.is_finite() {
                            prog.push(("best_residual", Json::number(p.best_residual)));
                        }
                        members.push(("progress", Json::object(prog)));
                    }
                }
                JobStatus::Queued => {}
            }
            ok_response(members)
        }
    }
}

/// Executes one request that needs no front-end state: the submit
/// shapes, an immediate `poll`, `cancel`, `trace` and `evict`. Every
/// other request is answered by [`process`], the only caller.
fn handle(service: &SimService, request: &Request) -> Json {
    match request {
        Request::Submit(spec) => match service.submit(spec) {
            Ok(id) => ok_response([("job_id", Json::from(id.0 as usize))]),
            Err(e) => error_response(&e),
        },
        Request::SubmitNetlist {
            netlist,
            priority,
            deadline_ms,
        } => match service.submit_netlist(netlist, *priority, *deadline_ms) {
            Ok(sub) => ok_response([
                ("job_id", Json::from(sub.job_id.0 as usize)),
                ("family", Json::string(&*sub.family)),
                ("registered", Json::Bool(sub.registered)),
            ]),
            Err(e) => error_response(&e),
        },
        Request::Poll { job_id, .. } => poll_payload(service, JobId(*job_id)),
        Request::Cancel { job_id } => match service.cancel(JobId(*job_id)) {
            Ok(status) => ok_response([("status", Json::string(status.label()))]),
            Err(e) => error_response(&e),
        },
        Request::Trace { job_id } => match service.trace(JobId(*job_id)) {
            Ok(view) => ok_response([("trace", view.to_json())]),
            Err(e) => error_response(&e),
        },
        Request::Evict { family } => {
            let evicted = service.evict(family.as_deref());
            ok_response([("evicted", Json::from(evicted))])
        }
        Request::Stats | Request::Metrics { .. } | Request::Shutdown => {
            unreachable!("`process` answers the front-end verbs itself")
        }
    }
}

/// Front-end sizing knobs (see the module docs' front-end section and
/// `docs/scaling.md`).
#[derive(Debug, Clone, Copy)]
pub struct FrontEndConfig {
    /// Worker threads multiplexing all connections (clamped ≥ 1).
    pub workers: usize,
    /// Per-connection cap on unsettled jobs (admission control; clamped
    /// ≥ 1). Settled ids are pruned lazily, so memo-hit traffic — which
    /// settles at submit — is never throttled.
    pub max_inflight: usize,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            workers: 4,
            max_inflight: 256,
        }
    }
}

/// Front-end counters, shared by the accept thread and every worker.
#[derive(Default)]
struct FrontendCounters {
    accepted: AtomicUsize,
    active: AtomicUsize,
    requests: AtomicUsize,
    throttled: AtomicUsize,
    parks: AtomicUsize,
    /// Long-polls parked *right now* (a gauge: incremented at park,
    /// decremented at answer or connection close).
    parked: AtomicUsize,
    /// Parked long-polls answered because their job settled or their
    /// deadline passed.
    wakeups: AtomicUsize,
    /// Per-verb wire-handling latency (the time [`process`] spent
    /// executing one request, indexed by [`VERBS`]). Parked long-polls
    /// record their park-visit handling time — the cost of handling,
    /// not the wait. Exposition-only: served as
    /// `rfsim_frontend_request_ms` by the `metrics` verb.
    request_ms: Mutex<[LatencyHistogram; VERBS.len()]>,
}

impl FrontendCounters {
    /// Records one request's handling time under its verb's histogram.
    fn record_request(&self, verb_index: usize, elapsed: Duration) {
        if let Ok(mut histograms) = self.request_ms.lock() {
            histograms[verb_index].record(elapsed);
        }
    }
}

/// One multiplexed connection's whole state between worker visits.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed as request lines.
    inbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    outpos: usize,
    /// A parked long-poll: `(job_id, deadline)`. While set, the
    /// connection answers this poll before reading further requests.
    pending: Option<(u64, Instant)>,
    /// Jobs submitted on this connection, pruned lazily once settled —
    /// the admission-control working set.
    owned: HashSet<u64>,
    /// Close once `outbuf` drains (shutdown verb, oversized line).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            pending: None,
            owned: HashSet::new(),
            closing: false,
        }
    }

    fn queue_response(&mut self, response: &Json) {
        self.outbuf.extend_from_slice(response.dump().as_bytes());
        self.outbuf.push(b'\n');
    }

    /// Writes as much of `outbuf` as the socket accepts right now.
    fn flush(&mut self) -> std::io::Result<bool> {
        let mut progressed = false;
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    self.outpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.outpos >= self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        Ok(progressed)
    }

    /// One read that blocks until bytes arrive or the socket's read
    /// timeout ([`IDLE_QUANTUM`], set at accept) expires, then puts the
    /// socket back in non-blocking mode. A timeout reads as `WouldBlock`.
    fn read_waiting(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_nonblocking(false)?;
        let read = self.stream.read(buf);
        self.stream.set_nonblocking(true)?;
        read
    }
}

/// What `process` decided to do with one parsed request.
enum Processed {
    Respond(Json),
    /// The connection was parked on a long-poll (`Conn::pending` set).
    Park,
    /// Respond, then close the connection and stop the server.
    Shutdown(Json),
}

/// A request line is a job spec — modest even for big grids. Lines are
/// assembled chunk-by-chunk and capped, so a hostile or misconfigured
/// peer cannot OOM a long-lived daemon.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// The server-side long-poll budget. An unbounded wait would pin the
/// parked connection across a daemon shutdown; clients needing longer
/// simply re-poll.
const MAX_WAIT: Duration = Duration::from_millis(2000);

/// The longest a worker waits on one lone connection's socket or parked
/// job, and the pause after a visit that found nothing to do.
const IDLE_QUANTUM: Duration = Duration::from_millis(1);

/// What the accept thread, the workers and [`WireServer::stop`] share.
struct FrontEnd {
    config: FrontEndConfig,
    counters: FrontendCounters,
    /// Connections waiting for a worker visit, in round-robin order.
    ready: Mutex<VecDeque<Conn>>,
    /// Signalled when a connection is queued or the server stops;
    /// workers wait on it while `ready` is empty.
    wake: Condvar,
    stop: AtomicBool,
}

impl FrontEnd {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Sets the stop flag and wakes every worker waiting for a
    /// connection. The queue lock is taken so that no worker can sit
    /// between its stop check and its wait when the signal fires.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _queue = self.ready.lock().expect("ready queue poisoned");
        self.wake.notify_all();
    }

    /// Queues a connection — newly accepted, or handed back by a worker
    /// about to sleep — and wakes one worker waiting for work.
    fn enqueue(&self, conn: Conn) {
        self.ready
            .lock()
            .expect("ready queue poisoned")
            .push_back(conn);
        self.wake.notify_one();
    }

    /// Requeues `back` (if any) and takes the connection at the head of
    /// the queue, waiting while the queue is empty, all under one lock.
    /// Returns the connection and whether it was the only one queued;
    /// `None` once the server is stopping and no connection is left.
    fn next(&self, back: Option<Conn>) -> Option<(Conn, bool)> {
        let mut queue = self.ready.lock().expect("ready queue poisoned");
        queue.extend(back);
        loop {
            if let Some(conn) = queue.pop_front() {
                let alone = queue.is_empty();
                return Some((conn, alone));
            }
            if self.stopping() {
                return None;
            }
            queue = self.wake.wait(queue).expect("ready queue poisoned");
        }
    }
}

/// Executes one parsed request for `conn`. The submit and long-poll
/// verbs go through front-end policy (admission control, parking);
/// everything else defers to [`handle`].
fn process(
    service: &SimService,
    conn: &mut Conn,
    request: &Request,
    config: &FrontEndConfig,
    counters: &FrontendCounters,
) -> Processed {
    match request {
        Request::Submit(_) | Request::SubmitNetlist { .. } => {
            let cap = config.max_inflight.max(1);
            if conn.owned.len() >= cap {
                // Lazy pruning: drop ids that have settled (or aged out
                // of the bounded result window) since we last looked.
                conn.owned.retain(|&id| {
                    matches!(
                        service.poll(JobId(id)),
                        Ok(JobStatus::Queued | JobStatus::Running)
                    )
                });
            }
            if conn.owned.len() >= cap {
                counters.throttled.fetch_add(1, Ordering::Relaxed);
                return Processed::Respond(error_response(&ServeError::Throttled {
                    max_inflight: cap,
                }));
            }
            // Both submit shapes share `handle`'s response; the owned
            // set tracks whichever id it minted.
            let response = handle(service, request);
            if let Some(id) = response.number_at("job_id") {
                conn.owned.insert(id as u64);
            }
            Processed::Respond(response)
        }
        Request::Poll { job_id, wait_ms } if *wait_ms > 0 => {
            // Long-poll: park the connection instead of pinning a worker
            // in a blocking wait. Whichever worker next visits the
            // connection after the job settles (or the deadline passes)
            // sends the response.
            match service.poll(JobId(*job_id)) {
                Ok(JobStatus::Queued | JobStatus::Running) => {
                    let wait = Duration::from_millis(*wait_ms).min(MAX_WAIT);
                    conn.pending = Some((*job_id, Instant::now() + wait));
                    counters.parks.fetch_add(1, Ordering::Relaxed);
                    counters.parked.fetch_add(1, Ordering::Relaxed);
                    Processed::Park
                }
                _ => Processed::Respond(poll_payload(service, JobId(*job_id))),
            }
        }
        Request::Stats => {
            let mut stats = service.stats().to_json();
            if let Json::Object(members) = &mut stats {
                members.push(("frontend".to_string(), frontend_json(config, counters)));
            }
            Processed::Respond(ok_response([("stats", stats)]))
        }
        Request::Metrics { json } => {
            let stats = service.stats();
            if *json {
                let mut stats_json = stats.to_json();
                if let Json::Object(members) = &mut stats_json {
                    members.push(("frontend".to_string(), frontend_json(config, counters)));
                }
                Processed::Respond(ok_response([("stats", stats_json)]))
            } else {
                let mut text = metrics::exposition(&stats);
                text.push_str(&frontend_exposition(config, counters));
                Processed::Respond(ok_response([("metrics", Json::string(text))]))
            }
        }
        Request::Shutdown => Processed::Shutdown(ok_response([])),
        other => Processed::Respond(handle(service, other)),
    }
}

/// The wire `stats` payload's `frontend` section (documented in
/// `docs/scaling.md` and pinned by the stats contract test).
fn frontend_json(config: &FrontEndConfig, counters: &FrontendCounters) -> Json {
    Json::object([
        ("workers", Json::from(config.workers.max(1))),
        ("max_inflight", Json::from(config.max_inflight.max(1))),
        (
            "connections_accepted",
            Json::from(counters.accepted.load(Ordering::Relaxed)),
        ),
        (
            "connections_active",
            Json::from(counters.active.load(Ordering::Relaxed)),
        ),
        (
            "requests",
            Json::from(counters.requests.load(Ordering::Relaxed)),
        ),
        (
            "throttled",
            Json::from(counters.throttled.load(Ordering::Relaxed)),
        ),
        (
            "long_poll_parks",
            Json::from(counters.parks.load(Ordering::Relaxed)),
        ),
        (
            "parked",
            Json::from(counters.parked.load(Ordering::Relaxed)),
        ),
        (
            "wakeups",
            Json::from(counters.wakeups.load(Ordering::Relaxed)),
        ),
    ])
}

/// The front-end's own Prometheus-style series, appended after the
/// service exposition ([`metrics::exposition`]) by the `metrics` verb.
fn frontend_exposition(config: &FrontEndConfig, counters: &FrontendCounters) -> String {
    let mut out = String::new();
    for (name, kind, value) in [
        ("rfsim_frontend_workers", "gauge", config.workers.max(1)),
        (
            "rfsim_frontend_max_inflight",
            "gauge",
            config.max_inflight.max(1),
        ),
        (
            "rfsim_frontend_connections_accepted_total",
            "counter",
            counters.accepted.load(Ordering::Relaxed),
        ),
        (
            "rfsim_frontend_connections_active",
            "gauge",
            counters.active.load(Ordering::Relaxed),
        ),
        (
            "rfsim_frontend_requests_total",
            "counter",
            counters.requests.load(Ordering::Relaxed),
        ),
        (
            "rfsim_frontend_throttled_total",
            "counter",
            counters.throttled.load(Ordering::Relaxed),
        ),
        (
            "rfsim_frontend_long_poll_parks_total",
            "counter",
            counters.parks.load(Ordering::Relaxed),
        ),
        (
            "rfsim_frontend_parked",
            "gauge",
            counters.parked.load(Ordering::Relaxed),
        ),
        (
            "rfsim_frontend_wakeups_total",
            "counter",
            counters.wakeups.load(Ordering::Relaxed),
        ),
    ] {
        metrics::type_line(&mut out, name, kind);
        metrics::sample(&mut out, name, &[], value as f64);
    }
    // Per-verb wire-handling latency, one summary block per verb.
    metrics::type_line(&mut out, "rfsim_frontend_request_ms", "summary");
    if let Ok(histograms) = counters.request_ms.lock() {
        for (verb, histogram) in VERBS.iter().zip(histograms.iter()) {
            metrics::summary_labelled(
                &mut out,
                "rfsim_frontend_request_ms",
                "verb",
                verb,
                histogram,
            );
        }
    }
    out
}

/// What one worker visit to a connection came to.
enum Visit {
    /// Bytes moved, or a request was answered or parked.
    Progressed,
    /// Nothing yet, after waiting up to [`IDLE_QUANTUM`] on the socket or
    /// the parked job.
    Waited,
    /// Nothing to do, and the visit did not wait: other connections were
    /// queued, or the peer is not taking response bytes.
    Idle,
    /// The connection is finished (peer gone, error, or closing).
    Close,
}

/// One worker visit to one connection: flush pending response bytes,
/// answer a parked long-poll if its job settled or its deadline passed,
/// read available request bytes, execute at most one request.
///
/// With `may_wait` (the connection was the only one queued), a visit
/// that would find nothing to do first waits up to [`IDLE_QUANTUM`] for
/// what the connection is waiting on: the parked job to settle, or
/// request bytes to arrive. Otherwise the visit never blocks.
fn step(service: &SimService, conn: &mut Conn, front: &FrontEnd, may_wait: bool) -> Visit {
    let counters = &front.counters;
    let nothing = |progressed: bool| match (progressed, may_wait) {
        (true, _) => Visit::Progressed,
        (false, true) => Visit::Waited,
        (false, false) => Visit::Idle,
    };
    let mut progressed = match conn.flush() {
        Ok(p) => p,
        Err(_) => return Visit::Close,
    };
    if !conn.outbuf.is_empty() {
        // Write-backlogged: don't read ahead of a response the peer has
        // not accepted yet. The flush never blocks, so a slow reader
        // throttles only itself.
        return if progressed {
            Visit::Progressed
        } else {
            Visit::Idle
        };
    }
    if conn.closing {
        return Visit::Close;
    }
    // A parked long-poll answers before further requests are read — the
    // protocol is one response per request, in order.
    if let Some((job_id, deadline)) = conn.pending {
        if may_wait {
            // Sleeps on the job's shard until it settles. Its outcome is
            // read back through `poll` below, so the result is ignored.
            let budget = deadline.saturating_duration_since(Instant::now());
            let _ = service.wait(JobId(job_id), budget.min(IDLE_QUANTUM));
        }
        let settled = !matches!(
            service.poll(JobId(job_id)),
            Ok(JobStatus::Queued | JobStatus::Running)
        );
        if settled || Instant::now() >= deadline {
            conn.pending = None;
            counters.parked.fetch_sub(1, Ordering::Relaxed);
            counters.wakeups.fetch_add(1, Ordering::Relaxed);
            let response = poll_payload(service, JobId(job_id));
            conn.queue_response(&response);
            if conn.flush().is_err() {
                return Visit::Close;
            }
            return Visit::Progressed;
        }
        return nothing(progressed);
    }
    // Read only when no complete line is already buffered, so a
    // pipelining client drains one request per visit without growing
    // `inbuf` unboundedly. Only the first read may block.
    if !conn.inbuf.contains(&b'\n') {
        let mut buf = [0u8; 16 * 1024];
        let mut block = may_wait;
        loop {
            let read = if std::mem::take(&mut block) {
                conn.read_waiting(&mut buf)
            } else {
                conn.stream.read(&mut buf)
            };
            match read {
                Ok(0) => return Visit::Close, // EOF: client hung up.
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    progressed = true;
                    if conn.inbuf.contains(&b'\n') {
                        break;
                    }
                    if conn.inbuf.len() > MAX_LINE_BYTES {
                        let refusal = error_response(&ServeError::Protocol(format!(
                            "request line exceeds {MAX_LINE_BYTES} bytes"
                        )));
                        conn.queue_response(&refusal);
                        conn.closing = true;
                        let _ = conn.flush();
                        return if conn.outbuf.is_empty() {
                            Visit::Close
                        } else {
                            Visit::Progressed
                        };
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Visit::Close,
            }
        }
    }
    let Some(nl) = conn.inbuf.iter().position(|&b| b == b'\n') else {
        return nothing(progressed);
    };
    let line: Vec<u8> = conn.inbuf.drain(..=nl).collect();
    let text = String::from_utf8_lossy(&line);
    let trimmed = text.trim();
    if !trimmed.is_empty() {
        counters.requests.fetch_add(1, Ordering::Relaxed);
        match Request::parse(trimmed) {
            Err(e) => conn.queue_response(&error_response(&e)),
            Ok(request) => {
                let started = Instant::now();
                let outcome = process(service, conn, &request, &front.config, counters);
                counters.record_request(request.verb_index(), started.elapsed());
                match outcome {
                    Processed::Respond(response) => conn.queue_response(&response),
                    Processed::Park => {}
                    Processed::Shutdown(response) => {
                        conn.queue_response(&response);
                        conn.closing = true;
                        front.request_stop();
                    }
                }
            }
        }
        if conn.flush().is_err() {
            return Visit::Close;
        }
    }
    if conn.closing && conn.outbuf.is_empty() {
        return Visit::Close;
    }
    Visit::Progressed
}

/// One front-end worker: take a ready connection, visit it, put it
/// back. A connection taken while no other is queued may wait up to the
/// idle quantum, so the worker sleeps on that socket or job rather than
/// on a timer. A visit that neither progressed nor waited puts its
/// connection back and sleeps one quantum, so idle connections cost
/// microseconds per second, not a spinning core. An empty queue is
/// waited out on the front-end's `Condvar`.
fn worker_loop(service: &SimService, front: &FrontEnd) {
    let counters = &front.counters;
    let mut back = None;
    while let Some((mut conn, alone)) = front.next(back.take()) {
        if front.stopping() && !conn.closing {
            // Server stopping: one courtesy flush, then close.
            let _ = conn.flush();
            if conn.pending.is_some() {
                counters.parked.fetch_sub(1, Ordering::Relaxed);
            }
            counters.active.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        match step(service, &mut conn, front, alone) {
            Visit::Close => {
                // A connection dropped while parked leaves no gauge
                // residue.
                if conn.pending.is_some() {
                    counters.parked.fetch_sub(1, Ordering::Relaxed);
                }
                counters.active.fetch_sub(1, Ordering::Relaxed);
            }
            Visit::Idle => {
                front.enqueue(conn);
                std::thread::sleep(IDLE_QUANTUM);
            }
            Visit::Progressed | Visit::Waited => back = Some(conn),
        }
    }
}

/// A running TCP server over a [`SimService`]: a non-blocking accept
/// thread plus a bounded worker pool multiplexing every connection (see
/// the module docs' front-end section).
///
/// Binds with [`WireServer::start`] (port 0 picks an ephemeral port —
/// read it back from [`WireServer::local_addr`]), serves until a
/// `shutdown` verb arrives or [`WireServer::stop`] is called, and joins
/// its threads on [`WireServer::join`] / drop.
pub struct WireServer {
    local_addr: SocketAddr,
    front: Arc<FrontEnd>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl WireServer {
    /// Binds `addr` and starts serving `service` with the default
    /// [`FrontEndConfig`].
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn start(service: Arc<SimService>, addr: impl ToSocketAddrs) -> Result<WireServer> {
        Self::start_with(service, addr, FrontEndConfig::default())
    }

    /// Binds `addr` and starts serving `service` with explicit front-end
    /// sizing.
    ///
    /// # Errors
    ///
    /// Socket bind/configure failures.
    pub fn start_with(
        service: Arc<SimService>,
        addr: impl ToSocketAddrs,
        config: FrontEndConfig,
    ) -> Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept with a short nap lets the loop observe the
        // stop flag without a self-connect dance.
        listener.set_nonblocking(true)?;
        let front = Arc::new(FrontEnd {
            config,
            counters: FrontendCounters::default(),
            ready: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(config.workers.max(1) + 1);
        let accept_front = Arc::clone(&front);
        threads.push(
            std::thread::Builder::new()
                .name("rfsim-serve-accept".into())
                .spawn(move || {
                    let front = accept_front;
                    while !front.stopping() {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                // The read timeout only bounds a worker's
                                // blocking read on a lone connection;
                                // every other read is non-blocking.
                                if stream.set_nonblocking(true).is_err()
                                    || stream.set_read_timeout(Some(IDLE_QUANTUM)).is_err()
                                {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                front.counters.accepted.fetch_add(1, Ordering::Relaxed);
                                front.counters.active.fetch_add(1, Ordering::Relaxed);
                                front.enqueue(Conn::new(stream));
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn accept thread"),
        );
        for index in 0..config.workers.max(1) {
            let service = Arc::clone(&service);
            let front = Arc::clone(&front);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rfsim-serve-worker-{index}"))
                    .spawn(move || worker_loop(&service, &front))
                    .expect("spawn front-end worker"),
            );
        }
        Ok(WireServer {
            local_addr,
            front,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (useful with an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the server has been asked to stop.
    pub fn stopping(&self) -> bool {
        self.front.stopping()
    }

    /// Asks the accept loop and workers to stop (open connections get
    /// one final flush, then close). Workers waiting for a connection
    /// wake at once; one blocked on a lone connection's socket or job
    /// within its idle quantum.
    pub fn stop(&self) {
        self.front.request_stop();
    }

    /// Blocks until the accept thread and every worker exit.
    pub fn join(&self) {
        let handles = std::mem::take(&mut *self.threads.lock().expect("threads poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let cases = [
            Request::Submit(JobSpec::mpde("rc_lowpass", 1e6, vec![0.1, 0.2], vec![10e3])),
            Request::SubmitNetlist {
                netlist: "V V1 in gnd drive\nR R1 in out 1k\n\
                          .sweep amplitudes=1 spacings=1k\n\
                          .analysis mpde f1=1M n1=8 n2=4\n"
                    .into(),
                priority: Priority::High,
                deadline_ms: Some(5000),
            },
            Request::SubmitNetlist {
                netlist: String::new(),
                priority: Priority::Normal,
                deadline_ms: None,
            },
            Request::Poll {
                job_id: 7,
                wait_ms: 250,
            },
            Request::Cancel { job_id: 7 },
            Request::Stats,
            Request::Metrics { json: false },
            Request::Metrics { json: true },
            Request::Trace { job_id: 7 },
            Request::Evict { family: None },
            Request::Evict {
                family: Some("rc_lowpass".into()),
            },
            Request::Shutdown,
        ];
        for request in cases {
            let line = request.dump();
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(Request::parse(&line).expect("reparse"), request);
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"verb":"warp"}"#,
            r#"{"verb":"poll"}"#,
            r#"{"verb":"cancel"}"#,
            r#"{"verb":"submit"}"#,
            r#"{"verb":"trace"}"#,
            r#"{"verb":"metrics","format":"xml"}"#,
            r#"{"verb":"submit_netlist"}"#,
            r#"{"verb":"submit_netlist","netlist":42}"#,
            r#"{"verb":"submit_netlist","netlist":"","priority":"urgent"}"#,
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ServeError::Protocol(_))),
                "{bad}"
            );
        }
    }
}
