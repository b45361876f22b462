//! The wire front-end's wake-ups: a parked long-poll answered by its
//! job settling, round-robin service when connections outnumber
//! workers, and a prompt stop while workers wait on quiet connections.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rfsim_serve::service::{ServeConfig, SimService};
use rfsim_serve::spec::JobSpec;
use rfsim_serve::wire::{FrontEndConfig, WireServer};
use rfsim_serve::ServeClient;

fn spec(amplitude: f64) -> JobSpec {
    let mut s = JobSpec::mpde("rc_lowpass", 1e6, vec![amplitude], vec![10e3]);
    s.n1 = 8;
    s.n2 = 4;
    s
}

fn paused_service() -> std::sync::Arc<SimService> {
    SimService::start(ServeConfig {
        threads: 1,
        paused: true,
        ..Default::default()
    })
}

fn frontend(workers: usize) -> FrontEndConfig {
    FrontEndConfig {
        workers,
        ..Default::default()
    }
}

/// Polls the wire `stats` on a connection of its own until one long-poll
/// is parked.
fn await_parked(addr: std::net::SocketAddr) {
    let mut probe = ServeClient::connect(addr).expect("probe");
    let started = Instant::now();
    while probe.stats().expect("stats").number_at("frontend.parked") != Some(1.0) {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the poll never parked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A long-poll parked on a queued job is answered `done` once `resume()`
/// lets the job settle, long before its 2 s wait budget runs out.
#[test]
fn settle_wakes_a_parked_poll() {
    let service = paused_service();
    let server = WireServer::start_with(service.clone(), "127.0.0.1:0", frontend(1)).expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let id = client.submit(&spec(0.1)).expect("submit");

    let poller = std::thread::spawn(move || {
        let started = Instant::now();
        let outcome = client.poll(id, 2000).expect("long-poll");
        (client, outcome, started.elapsed())
    });
    // Settle the job only once the poll is parked on it.
    await_parked(addr);
    service.resume();
    let (mut client, outcome, elapsed) = poller.join().expect("poller");

    assert_eq!(outcome.status, "done", "{outcome:?}");
    assert!(outcome.result.is_some());
    assert!(
        elapsed < Duration::from_millis(1000),
        "the settle must answer the poll, not its 2 s deadline: {elapsed:?}"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.number_at("frontend.long_poll_parks"), Some(1.0));
    assert_eq!(stats.number_at("frontend.wakeups"), Some(1.0));
    assert_eq!(stats.number_at("frontend.parked"), Some(0.0));
    drop(client);
    server.stop();
    server.join();
}

/// With more connections than workers, a quiet connection never holds
/// the only worker: every request on the busy connection is served.
#[test]
fn idle_connections_do_not_starve_an_active_one() {
    let service = SimService::start(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let server = WireServer::start_with(service.clone(), "127.0.0.1:0", frontend(1)).expect("bind");
    let addr = server.local_addr();
    let idle: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    // The round trips run on their own thread so that a starved
    // connection fails the test instead of hanging it.
    let (done, finished) = mpsc::channel();
    let active = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect");
        for trip in 0..50 {
            let stats = client
                .stats()
                .unwrap_or_else(|e| panic!("stats round trip {trip}: {e}"));
            assert!(stats.number_at("frontend.requests").is_some());
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("50 stats round trips beside 3 idle connections");
    active.join().expect("active client");

    let mut probe = ServeClient::connect(addr).expect("probe");
    let stats = probe.stats().expect("stats");
    assert!(stats.number_at("frontend.requests").unwrap_or(0.0) >= 51.0);
    drop(idle);
    drop(probe);
    server.stop();
    server.join();
}

/// `stop()` plus `join()` returns promptly while one worker blocks on an
/// idle socket and the other on a parked long-poll's queued job.
#[test]
fn stop_is_prompt_while_workers_wait() {
    let service = paused_service();
    let server = WireServer::start_with(service.clone(), "127.0.0.1:0", frontend(2)).expect("bind");
    let addr = server.local_addr();
    let _idle = TcpStream::connect(addr).expect("idle connect");
    // Submitted in process: the scheduler is paused, so the job stays
    // queued and the wire poll below parks on it.
    let id = service.submit(&spec(0.2)).expect("submit");
    let mut poller = TcpStream::connect(addr).expect("poller connect");
    writeln!(
        poller,
        r#"{{"verb":"poll","job_id":{},"wait_ms":2000}}"#,
        id.0
    )
    .expect("send poll");

    await_parked(addr);

    let started = Instant::now();
    server.stop();
    server.join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "stop + join took {elapsed:?}"
    );
}
