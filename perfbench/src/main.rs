//! `perfbench`: the rfsim benchmark.
//!
//! ```text
//! perfbench --workload <paper_mixer|corpus_cli|serve_mix> --seed N
//!           --seconds S --trace <0|1> --daemon PATH [--spans DIR]
//! ```
//!
//! Runs one workload from the checkout root, checks every output, and
//! prints a human-readable report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, measured by spans around the benchmark's own calls
//! into each layer. `perfbench/run.py` builds this binary and the
//! `rfsim-serve` daemon and passes `--daemon`. See `perfbench/README.md`.

mod corpus;
mod paper;
mod serve;
mod stats;
mod trace;
mod yardstick;

use std::path::PathBuf;

use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("op_ms", "ms"),
    ("ref_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("core.jacobian_ms", "ms"),
    ("numerics.scatter_ms", "ms"),
    ("numerics.analyze_ms", "ms"),
    ("numerics.refactor_ms", "ms"),
    ("numerics.trisolve_ms", "ms"),
    ("numerics.lu_nnz", "count"),
    ("numerics.fill_ratio", "ratio"),
    ("core.newton_iterations", "count"),
    ("circuit.refactorizations", "count"),
    ("circuit.full_factorizations", "count"),
    ("circuit.pivot_exchanges", "count"),
    ("circuit.full_fallbacks", "count"),
    ("core.mpde_unattributed_ms", "ms"),
    ("shooting.outer_iterations", "count"),
    ("shooting.inner_newton_iterations", "count"),
    ("shooting.step_us", "us"),
    ("netlist.parse_us", "us"),
    ("netlist.build_us", "us"),
    ("netlist.family_hash_us", "us"),
    ("runner.dcop_ms", "ms"),
    ("runner.transient_ms", "ms"),
    ("runner.hb2_ms", "ms"),
    ("runner.mpde_ms", "ms"),
    ("runner.pfd_ms", "ms"),
    ("runner.newton_iterations", "count"),
    ("wire.rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.inproc_hit_us", "us"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("store.hit_rate", "ratio"),
    ("store.evictions", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("frontend.wakeups_per_req", "ratio"),
    ("frontend.throttled", "count"),
    ("serve.dynamic_families", "count"),
    ("serve.rss_before_mb", "MB"),
    ("serve.rss_after_mb", "MB"),
    ("trace.op_ms", "ms"),
    ("trace.ref_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// What a workload runs with.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Path of the `rfsim-serve` binary.
    pub daemon: PathBuf,
}

/// How much of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The untraced run: every op is timed for the end-to-end metrics.
    Plain,
    /// The traced run of the chosen workload: ops alternate untraced and
    /// traced, so the run measures its own tracing overhead.
    Traced,
    /// A short traced pass that only feeds per-layer metrics of layers
    /// the chosen workload does not reach.
    Probe,
}

impl Mode {
    /// Whether op (or pass) number `k` of this run carries spans.
    pub fn traces(self, k: usize) -> bool {
        match self {
            Mode::Plain => false,
            Mode::Traced => k % 2 == 1,
            Mode::Probe => true,
        }
    }
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: usize,
    /// Failed, refused or wrong ones.
    pub failed: usize,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// End-to-end metrics (from untraced ops only).
    pub end_to_end: Metrics,
    /// Per-layer metrics (from traced ops only).
    pub layers: Metrics,
    /// Human-readable figures, printed before the JSON line.
    pub report: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation or check; `Err` counts as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why);
            }
        }
    }

    fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("duration"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--daemon" => args.daemon = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

type Workload = fn(&Config, Mode, &mut Tracer) -> Result<Outcome, String>;

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper_mixer", paper::run),
    ("corpus_cli", corpus::run),
    ("serve_mix", serve::run),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        fail(&format!(
            "--workload must be one of paper_mixer, corpus_cli, serve_mix (got '{}')",
            args.workload
        ));
    };
    let Some(daemon) = args.daemon.clone() else {
        fail("--daemon PATH (the rfsim-serve binary) is required");
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        daemon,
    };
    let mut tracer = Tracer::default();
    let mode = if args.trace {
        Mode::Traced
    } else {
        Mode::Plain
    };
    let mut outcome = workload(&cfg, mode, &mut tracer).unwrap_or_else(|e| fail(&e));
    if args.trace {
        // Layers the chosen workload does not reach are measured by a
        // short traced pass of the workload that does.
        for (name, other) in WORKLOADS {
            if name == args.workload {
                continue;
            }
            let probe = other(&cfg, Mode::Probe, &mut tracer).unwrap_or_else(|e| fail(&e));
            outcome.absorb_checks(&probe);
            for (n, v, u) in probe.layers.0 {
                if outcome.layers.get(&n).is_none() {
                    outcome.layers.set(&n, v, u);
                }
            }
        }
        if let Some(dir) = &args.spans {
            let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            if let Err(e) = tracer.write_jsonl(&path) {
                fail(&format!("writing {}: {e}", path.display()));
            }
        }
    }
    print_result(&args, &outcome);
}

/// Prints the report and the JSON result line.
fn print_result(args: &Args, outcome: &Outcome) {
    let (list, metrics): (&[(&str, &str)], &Metrics) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    println!(
        "== perfbench {} seed={} seconds={} trace={} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  fail_share = {fail_share} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for why in &outcome.problems {
        println!("  FAILED: {why}");
    }
    let mut members = Vec::new();
    for (name, unit) in list {
        let Some((value, got_unit)) = metrics.get(name) else {
            fail(&format!("metric {name} was not measured"));
        };
        if !value.is_finite() || got_unit != *unit {
            fail(&format!(
                "metric {name} = {value} {got_unit} (want a finite {unit})"
            ));
        }
        println!("  {name} = {value} {unit}");
        members.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        members.join(", ")
    );
}

fn fail(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    std::process::exit(2);
}
