//! `serve_mix`: the `rfsim-serve` daemon over loopback TCP, closed loop.
//!
//! Set-up spawns the daemon and registers the nine servable corpus
//! netlists (mpde, hb2, periodic_fd) with `submit_netlist`. Then two
//! client connections, one thread each, send a request, wait for it to
//! settle and send the next. Each request is a seeded choice:
//!
//! * a hit: resubmit one of the nine netlists — a store read;
//! * a fresh solve: `submit` a `JobSpec` on that netlist's family with a
//!   key-unique jittered amplitude — a solve and a store write, and past
//!   the store's capacity an eviction.
//!
//! Fresh requests never send new netlist text, so the daemon hosts
//! exactly nine dynamic families throughout. After the load, an
//! in-process `SimService` re-solves sampled fresh specs to check the
//! daemon's digests.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rfsim::netlist::{Analysis, Netlist};
use rfsim::numerics::json::Json;
use rfsim::serve::service::{JobStatus, ServeConfig, SimService};
use rfsim::serve::wire::Request;
use rfsim::serve::{BackendKind, JobSpec, Priority, ServeClient};

use crate::corpus::{self, Case};
use crate::stats::{median, ms, peak_rss_mb, quantile, rss_mb, secs, Rng};
use crate::trace::Tracer;
use crate::{Config, Mode, Outcome};

/// Engine shards of the daemon.
const SHARDS: usize = 1;
/// Upper bound on client connections and on engine threads per shard;
/// both are also capped by the machine's parallelism.
const MAX_PARALLEL: usize = 2;
/// Share of requests that resubmit a registered netlist.
const HIT_SHARE: f64 = 0.5;
/// Relative amplitude step that makes each fresh request's key unique.
const JITTER: f64 = 1e-6;
/// Daemon set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Fresh requests re-solved in process after the load.
const SAMPLED_FRESH: usize = 12;
/// In-process memo hits timed after the load.
const INPROC_HITS: usize = 90;
/// Requests per client in a probe.
const PROBE_REQUESTS: usize = 60;
/// Length of the windows the load phase is cut into. Each end-to-end
/// figure is the best window's: host interference only slows a window.
const WINDOW_S: f64 = 3.0;
/// A traced client times a bare `stats` round trip every this many
/// requests.
const RTT_EVERY: usize = 8;
const WAIT: Duration = Duration::from_secs(60);

/// A registered netlist and what a fresh request on its family sends.
struct Servable {
    case: Case,
    netlist: Netlist,
    family: String,
}

impl Servable {
    /// `JobSpec` on this family whose amplitudes are scaled by
    /// `1 + JITTER·(j+1)`: a key no other request in the run uses.
    fn fresh_spec(&self, j: u64) -> JobSpec {
        let (backend, f1, n1, n2) = match &self.netlist.analysis {
            Analysis::Mpde { f1, n1, n2, .. } => (BackendKind::Mpde, *f1, *n1, *n2),
            Analysis::Hb2 { f1, n1, n2, .. } => (BackendKind::Hb2, *f1, *n1, *n2),
            Analysis::PeriodicFd { f1, n1, .. } => (BackendKind::PeriodicFd, *f1, *n1, 0),
            _ => unreachable!("only steady-state netlists are servable"),
        };
        let sweep = self
            .netlist
            .sweep
            .as_ref()
            .expect("steady-state netlists carry a sweep");
        let scale = 1.0 + JITTER * (j + 1) as f64;
        JobSpec {
            family: self.family.clone(),
            backend,
            f1,
            amplitudes: sweep.amplitudes.iter().map(|a| a * scale).collect(),
            spacings: sweep.spacings.clone(),
            n1,
            n2,
            priority: Priority::Normal,
            deadline_ms: None,
        }
    }
}

fn servables() -> Result<Vec<Servable>, String> {
    Ok(corpus::load()?
        .into_iter()
        .filter(|c| matches!(c.analysis, "mpde" | "hb2" | "periodic_fd"))
        .map(|case| {
            let netlist = Netlist::parse(&case.text).expect("corpus::load parsed it");
            let family = netlist.family_name();
            Servable {
                case,
                netlist,
                family,
            }
        })
        .collect())
}

/// A running daemon; killed and reaped on drop if not stopped first.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the daemon's last log line has a reader.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(cfg: &Config, flags: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(&cfg.daemon)
            .args(flags)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cfg.daemon.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("rfsim-serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("rfsim-serve listening on ") {
                return Ok(Daemon {
                    addr: addr.to_string(),
                    child,
                    _stdout: stdout,
                });
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Shuts the daemon down over the wire and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = ServeClient::connect(&*self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return asked.map_err(|e| format!("shutdown verb: {e}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("rfsim-serve did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `submit_netlist` over the wire: (job id, family, registered).
fn submit_netlist(client: &mut ServeClient, text: &str) -> Result<(u64, String, bool), String> {
    let reply = client
        .call(&Request::SubmitNetlist {
            netlist: text.to_string(),
            priority: Priority::Normal,
            deadline_ms: None,
        })
        .map_err(|e| e.to_string())?;
    let job = reply
        .number_at("job_id")
        .ok_or("submit_netlist reply lacks job_id")?;
    let family = reply
        .string_at("family")
        .ok_or("submit_netlist reply lacks family")?;
    let registered = reply
        .bool_at("registered")
        .ok_or("submit_netlist reply lacks registered")?;
    Ok((job as u64, family.to_string(), registered))
}

/// Spawns the daemon and registers every servable; returns it with the
/// registration digests and the number of families it registered.
fn setup(
    cfg: &Config,
    flags: &[String],
    servables: &[Servable],
    out: &mut Outcome,
) -> Result<(Daemon, Vec<String>, usize), String> {
    let daemon = Daemon::spawn(cfg, flags)?;
    let mut client = ServeClient::connect(&*daemon.addr).map_err(|e| e.to_string())?;
    let mut digests = Vec::new();
    let mut registered = 0;
    for s in servables {
        let (job, family, fresh) = submit_netlist(&mut client, &s.case.text)?;
        registered += usize::from(fresh);
        let outcome = client
            .wait(job, WAIT)
            .map_err(|e| format!("{}: {e}", s.case.name))?;
        out.check(if family == s.family {
            Ok(())
        } else {
            Err(format!(
                "{}: daemon hosts it as {family}, not {}",
                s.case.name, s.family
            ))
        });
        digests.push(outcome.digest.ok_or("settled poll lacks digest")?);
    }
    Ok((daemon, digests, registered))
}

/// One settled (or failed) request of the load phase.
struct Record {
    hit: bool,
    servable: usize,
    /// Jitter index of a fresh request.
    j: u64,
    traced: bool,
    /// Seconds from the start of the load to settling.
    at_s: f64,
    latency_ms: f64,
    result: Result<(String, bool), String>,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    submit_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    registrations: usize,
}

/// What every client of the load phase shares.
struct Load<'a> {
    addr: &'a str,
    servables: &'a [Servable],
    mode: Mode,
    seed: u64,
    clients: usize,
    start: Instant,
    deadline: Instant,
}

/// One closed-loop client: request, wait until settled, repeat.
fn client_loop(load: &Load, id: usize, tracer: &mut Tracer) -> Result<ClientLog, String> {
    let Load {
        addr,
        servables,
        mode,
        clients,
        ..
    } = *load;
    let mut rng = Rng::new(load.seed, 0x5e + id as u64);
    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let mut log = ClientLog::default();
    let mut k = 0usize;
    while match mode {
        Mode::Probe => k < PROBE_REQUESTS,
        _ => Instant::now() < load.deadline,
    } {
        let hit = rng.unit() < HIT_SHARE;
        let servable = rng.below(servables.len());
        let s = &servables[servable];
        let j = (k * clients + id) as u64;
        let traced = mode.traces(k);
        let t = Instant::now();
        let class = if hit { "serve.hit" } else { "serve.fresh" };
        let span = traced.then(|| tracer.begin(class, j));
        let (submitted, submit_ms) = tracer.timed(traced, "serve.submit", j, || {
            if hit {
                submit_netlist(&mut client, &s.case.text).map(|(job, _, registered)| {
                    log.registrations += usize::from(registered);
                    job
                })
            } else {
                client.submit(&s.fresh_spec(j)).map_err(|e| e.to_string())
            }
        });
        let (result, wait_ms) = tracer.timed(traced, "serve.wait", j, || {
            submitted.and_then(|job| client.wait(job, WAIT).map_err(|e| e.to_string()))
        });
        if let Some(span) = span {
            tracer.end(span);
        }
        let latency_ms = ms(t);
        if traced {
            log.submit_ms.push(submit_ms);
            log.wait_ms.push(wait_ms);
            if k % RTT_EVERY == 1 {
                let (probed, rtt_ms) = tracer.timed(true, "wire.rtt", j, || client.stats());
                probed.map_err(|e| format!("stats: {e}"))?;
                log.rtt_ms.push(rtt_ms);
            }
        }
        log.records.push(Record {
            hit,
            servable,
            j,
            traced,
            at_s: secs(load.start),
            latency_ms,
            result: result
                .and_then(|o| Ok((o.digest.ok_or("settled poll lacks digest")?, o.memo_hit))),
        });
        k += 1;
    }
    Ok(log)
}

/// Re-solves sampled fresh specs and times memo hits in an in-process
/// service configured like the daemon.
fn in_process(
    servables: &[Servable],
    wire_digests: &[String],
    fresh: &[(usize, u64, String)],
    threads: usize,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let service: Arc<SimService> = SimService::start(ServeConfig {
        shards: SHARDS,
        threads,
        ..Default::default()
    });
    let digest_of = |job| -> Result<String, String> {
        let result = service.wait(job, WAIT).map_err(|e| e.to_string())?;
        Ok(format!("{:016x}", result.digest()))
    };
    for (s, wire) in servables.iter().zip(wire_digests) {
        let sub = service
            .submit_netlist(&s.case.text, Priority::Normal, None)
            .map_err(|e| e.to_string())?;
        let digest = digest_of(sub.job_id)?;
        out.check(if digest == *wire {
            Ok(())
        } else {
            Err(format!(
                "{}: in-process digest {digest} != wire {wire}",
                s.case.name
            ))
        });
    }
    let mut hit_us = Vec::new();
    for i in 0..INPROC_HITS {
        let s = &servables[i % servables.len()];
        let t = Instant::now();
        let sub = service
            .submit_netlist(&s.case.text, Priority::Normal, None)
            .map_err(|e| e.to_string())?;
        service.wait(sub.job_id, WAIT).map_err(|e| e.to_string())?;
        hit_us.push(ms(t) * 1e3);
        out.check(match service.poll(sub.job_id) {
            Ok(JobStatus::Done { memo_hit: true, .. }) => Ok(()),
            _ => Err(format!(
                "{}: in-process resubmit was not a memo hit",
                s.case.name
            )),
        });
    }
    for (servable, j, wire) in fresh {
        let spec = servables[*servable].fresh_spec(*j);
        let job = service.submit(&spec).map_err(|e| e.to_string())?;
        let digest = digest_of(job)?;
        out.check(if digest == *wire {
            Ok(())
        } else {
            Err(format!(
                "fresh {} #{j}: wire digest {wire} != in-process {digest}",
                servables[*servable].case.name
            ))
        });
    }
    service.shutdown();
    Ok(hit_us)
}

/// Closed-loop rate of `latencies` (ms) spread over `clients`
/// connections: each client settles one request per latency.
fn closed_loop_rate(latencies: &[f64], clients: usize) -> f64 {
    clients as f64 * latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e3)
}

/// The best of the load's `windows` windows, over the settled requests
/// with the given `traced` flag: (lowest fresh figure, lowest hit
/// figure, highest closed-loop rate). A class's figure in a window is
/// the mean over the `servables` netlists of each one's median latency,
/// so it does not move with the seeded mix of netlists in the window;
/// a window lacking a netlist in either class does not count.
fn best_window(
    records: &[Record],
    traced: bool,
    clients: usize,
    servables: usize,
    windows: usize,
) -> (f64, f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY, 0.0f64);
    for w in 0..windows {
        let in_window: Vec<&Record> = records
            .iter()
            .filter(|r| r.traced == traced && r.result.is_ok() && (r.at_s / WINDOW_S) as usize == w)
            .collect();
        let class_ms = |hit: bool| -> Option<f64> {
            let medians: Vec<f64> = (0..servables)
                .map(|s| {
                    let v: Vec<f64> = in_window
                        .iter()
                        .filter(|r| r.hit == hit && r.servable == s)
                        .map(|r| r.latency_ms)
                        .collect();
                    median(&v)
                })
                .collect();
            let mean = medians.iter().sum::<f64>() / servables as f64;
            mean.is_finite().then_some(mean)
        };
        if let (Some(fresh), Some(hit)) = (class_ms(false), class_ms(true)) {
            let all: Vec<f64> = in_window.iter().map(|r| r.latency_ms).collect();
            best = (
                best.0.min(fresh),
                best.1.min(hit),
                best.2.max(closed_loop_rate(&all, clients)),
            );
        }
    }
    best
}

pub fn run(cfg: &Config, mode: Mode, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let servables = servables()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = MAX_PARALLEL.min(nproc);
    let threads = MAX_PARALLEL.min(nproc);
    assert!(
        clients <= nproc && SHARDS * threads <= nproc,
        "load exceeds the machine"
    );
    let flags: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &SHARDS.to_string(),
        "--threads",
        &threads.to_string(),
        "--frontend-workers",
        &threads.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut setup_s = Vec::new();
    let reps = if mode == Mode::Probe { 1 } else { SETUP_REPS };
    let mut last = None;
    for rep in 0..reps {
        let t = Instant::now();
        let (daemon, digests, registered) = setup(cfg, &flags, &servables, &mut out)?;
        setup_s.push(secs(t));
        if rep + 1 < reps {
            daemon.stop()?;
        } else {
            last = Some((daemon, digests, registered));
        }
    }
    let (daemon, digests, registered) = last.expect("at least one set-up");
    let pid = daemon.pid();
    let rss_before = rss_mb(&pid).ok_or("cannot read the daemon's VmRSS")?;

    let t_load = Instant::now();
    let load = Load {
        addr: &daemon.addr,
        servables: &servables,
        mode,
        seed: cfg.seed,
        clients,
        start: t_load,
        deadline: t_load + Duration::from_secs_f64(cfg.seconds),
    };
    let logs: Vec<(Result<ClientLog, String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (load, mut own) = (&load, tracer.fork());
                scope.spawn(move || (client_loop(load, id, &mut own), own))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = secs(t_load);
    let mut log = ClientLog::default();
    for (client_log, own) in logs {
        tracer.absorb(own);
        let client_log = client_log?;
        log.records.extend(client_log.records);
        log.submit_ms.extend(client_log.submit_ms);
        log.wait_ms.extend(client_log.wait_ms);
        log.rtt_ms.extend(client_log.rtt_ms);
        log.registrations += client_log.registrations;
    }

    let rss_after = rss_mb(&pid).ok_or("cannot read the daemon's VmRSS")?;
    let peak = peak_rss_mb(&pid).ok_or("cannot read the daemon's VmHWM")?;
    let stats: Json = ServeClient::connect(&*daemon.addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))?;
    daemon.stop()?;

    // Every hit repeats its registration digest; no fresh request hits.
    let mut fresh = Vec::new();
    for r in &log.records {
        let name = &servables[r.servable].case.name;
        out.check(match &r.result {
            Err(e) => Err(format!("{name}: {e}")),
            Ok((digest, _)) if r.hit && *digest != digests[r.servable] => Err(format!(
                "{name}: hit digest {digest} != first digest {}",
                digests[r.servable]
            )),
            Ok((_, true)) if !r.hit => {
                Err(format!("{name}: fresh request #{} was a memo hit", r.j))
            }
            Ok((digest, _)) => {
                if !r.hit {
                    fresh.push((r.servable, r.j, digest.clone()));
                }
                Ok(())
            }
        });
    }
    out.check(if registered == servables.len() && log.registrations == 0 {
        Ok(())
    } else {
        Err(format!(
            "dynamic families: {registered} registered at set-up, {} during the load (want {} and 0)",
            log.registrations,
            servables.len()
        ))
    });
    let mut rng = Rng::new(cfg.seed, 0xf5e5);
    let sampled: Vec<_> = rng
        .permutation(fresh.len())
        .into_iter()
        .take(SAMPLED_FRESH)
        .map(|i| fresh[i].clone())
        .collect();
    let inproc_hit_us = in_process(&servables, &digests, &sampled, threads, &mut out)?;

    let latencies = |hit: Option<bool>, traced: bool| -> Vec<f64> {
        log.records
            .iter()
            .filter(|r| r.traced == traced && hit.is_none_or(|h| r.hit == h) && r.result.is_ok())
            .map(|r| r.latency_ms)
            .collect()
    };
    let rate = |v: &[f64]| closed_loop_rate(v, clients);
    let windows = ((load_s / WINDOW_S).floor() as usize).max(1);
    let traced_mode = mode != Mode::Plain;
    let all = latencies(None, traced_mode);
    let number = |path: &str| stats.number_at(path).unwrap_or(f64::NAN);
    let layers = &mut out.layers;
    layers.set("wire.rtt_ms", median(&log.rtt_ms), "ms");
    layers.set("serve.submit_ms", median(&log.submit_ms), "ms");
    layers.set("serve.wait_ms", median(&log.wait_ms), "ms");
    layers.set("serve.inproc_hit_us", median(&inproc_hit_us), "us");
    layers.set("serve.p50_ms", median(&all), "ms");
    layers.set("serve.p99_ms", quantile(&all, 0.99), "ms");
    layers.set("store.hit_rate", number("store.hit_rate"), "ratio");
    layers.set("store.evictions", number("store.evictions"), "count");
    layers.set(
        "serve.queue_wait_p50_ms",
        number("latency.queue_wait.p50_ms"),
        "ms",
    );
    layers.set("serve.solve_p50_ms", number("latency.solve.p50_ms"), "ms");
    layers.set(
        "frontend.wakeups_per_req",
        number("frontend.wakeups") / number("frontend.requests"),
        "ratio",
    );
    layers.set("frontend.throttled", number("frontend.throttled"), "count");
    layers.set(
        "serve.dynamic_families",
        (registered + log.registrations) as f64,
        "count",
    );
    layers.set("serve.rss_before_mb", rss_before, "MB");
    layers.set("serve.rss_after_mb", rss_after, "MB");
    if mode == Mode::Probe {
        return Ok(out);
    }

    let (fresh_ms, hit_ms) = (latencies(Some(false), false), latencies(Some(true), false));
    let plain = latencies(None, false);
    let (op, reference, ops_per_s) =
        best_window(&log.records, false, clients, servables.len(), windows);
    let e2e = &mut out.end_to_end;
    e2e.set("op_ms", op, "ms");
    e2e.set("ref_ms", reference, "ms");
    e2e.set("ops_per_s", ops_per_s, "1/s");
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("peak_rss_mb", peak, "MB");
    if mode == Mode::Traced {
        let (op, reference, traced_rate) =
            best_window(&log.records, true, clients, servables.len(), windows);
        out.layers.set("trace.op_ms", op, "ms");
        out.layers.set("trace.ref_ms", reference, "ms");
        out.layers.set("trace.ops_per_s", traced_rate, "1/s");
        out.layers.set(
            "trace.overhead_pct",
            (ops_per_s / traced_rate - 1.0) * 100.0,
            "%",
        );
    }
    // Reported, not checked: the daemon's deterministic engine mode and
    // the CLI's engine may differ in the last bit on multi-row sweeps.
    let off_golden: Vec<&str> = servables
        .iter()
        .zip(&digests)
        .filter(|(s, d)| **d != s.case.golden)
        .map(|(s, _)| s.case.name.as_str())
        .collect();
    out.report = vec![
        format!("daemon flags: {}", flags.join(" ")),
        format!(
            "wire registration digests equal to GOLDENS.json: {}/{} (differ: {})",
            servables.len() - off_golden.len(),
            servables.len(),
            if off_golden.is_empty() { "none".to_string() } else { off_golden.join(", ") }
        ),
        format!(
            "closed loop: {clients} client connections (nproc {nproc}), {} requests in {load_s:.1} s, {:.0}% hits",
            log.records.len(),
            100.0 * HIT_SHARE
        ),
        format!("serve_rps = {} 1/s (whole run; best {WINDOW_S} s window {ops_per_s})", rate(&plain)),
        format!("serve_p50_ms = {} ms, serve_p99_ms = {} ms", median(&plain), quantile(&plain, 0.99)),
        format!(
            "serve_hit_p50_ms = {} ms, serve_fresh_p50_ms = {} ms",
            median(&hit_ms),
            median(&fresh_ms)
        ),
        format!("daemon RSS {rss_before:.1} MB before the load, {rss_after:.1} MB after, peak {peak:.1} MB"),
    ];
    Ok(out)
}
