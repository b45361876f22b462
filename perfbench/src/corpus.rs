//! `corpus_cli`: the netlist front door, in process.
//!
//! Runs `Netlist::parse` then `rfsim::runner::run_netlist` over every
//! `test_cases/*.rfn`, pass after pass, each pass in a seeded order, and
//! checks every digest against `test_cases/GOLDENS.json` as it stands in
//! the checkout. A traced op also calls `build_circuit` and
//! `family_name` once each, the per-file work the runner does inside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rfsim::netlist::{Analysis, DrivePoint, Netlist};
use rfsim::numerics::json::Json;
use rfsim::runner::run_netlist;

use crate::stats::{median, ms, quartiles, secs, Rng};
use crate::trace::Tracer;
use crate::{Config, Mode, Outcome};

const CORPUS: &str = "test_cases";

pub struct Case {
    pub name: String,
    pub text: String,
    pub golden: String,
    pub analysis: &'static str,
}

/// Reads every corpus netlist and its pinned digest, and parses each once.
pub fn load() -> Result<Vec<Case>, String> {
    let dir = Path::new(CORPUS);
    let goldens_text = std::fs::read_to_string(dir.join("GOLDENS.json"))
        .map_err(|e| format!("reading {CORPUS}/GOLDENS.json: {e}"))?;
    let goldens = match Json::parse(&goldens_text) {
        Ok(Json::Object(members)) => members,
        _ => return Err(format!("{CORPUS}/GOLDENS.json is not a JSON object")),
    };
    let goldens: BTreeMap<String, String> = goldens
        .into_iter()
        .filter_map(|(k, v)| match v {
            Json::String(s) => Some((k, s)),
            _ => None,
        })
        .collect();
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {CORPUS}/: {e}"))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".rfn"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no .rfn files under {CORPUS}/"));
    }
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name))
                .map_err(|e| format!("reading {name}: {e}"))?;
            let netlist = Netlist::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            let golden = goldens
                .get(&name)
                .ok_or(format!("{name} has no digest in GOLDENS.json"))?
                .clone();
            Ok(Case {
                analysis: netlist.analysis.keyword(),
                name,
                text,
                golden,
            })
        })
        .collect()
}

/// The drive point `run_netlist` builds a steady-state circuit at first.
fn first_drive(netlist: &Netlist) -> Option<DrivePoint> {
    let f1 = match &netlist.analysis {
        Analysis::Mpde { f1, .. } | Analysis::Hb2 { f1, .. } | Analysis::PeriodicFd { f1, .. } => {
            *f1
        }
        _ => return None,
    };
    let sweep = netlist.sweep.as_ref();
    Some(DrivePoint {
        amplitude: sweep
            .and_then(|s| s.amplitudes.first().copied())
            .unwrap_or(1.0),
        f1,
        spacing: sweep
            .and_then(|s| s.spacings.first().copied())
            .unwrap_or(0.0),
        two_tone: netlist.analysis.is_two_tone(),
    })
}

/// The span and layer-metric names of one analysis kind.
fn runner_names(analysis: &str) -> (&'static str, &'static str) {
    match analysis {
        "dcop" => ("runner.dcop", "runner.dcop_ms"),
        "transient" => ("runner.transient", "runner.transient_ms"),
        "hb2" => ("runner.hb2", "runner.hb2_ms"),
        "mpde" => ("runner.mpde", "runner.mpde_ms"),
        _ => ("runner.pfd", "runner.pfd_ms"),
    }
}

/// Parses and runs one case; returns (parse ms, digest, Newton
/// iterations). Traced, it also times `build_circuit` and `family_name`,
/// one span per call.
fn parse_and_run(
    case: &Case,
    tracer: &mut Tracer,
    traced: bool,
    req: u64,
) -> Result<(f64, String, usize), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", case.name);
    let (netlist, parse_ms) =
        tracer.timed(traced, "netlist.parse", req, || Netlist::parse(&case.text));
    let netlist = netlist.map_err(|e| fail(&e))?;
    if traced {
        let (built, _) = tracer.timed(true, "netlist.build", req, || {
            netlist.build_circuit(first_drive(&netlist).as_ref())
        });
        built.map_err(|e| fail(&e))?;
        tracer.timed(true, "netlist.family_hash", req, || netlist.family_name());
    }
    let (span, _) = runner_names(case.analysis);
    let (report, _) = tracer.timed(traced, span, req, || run_netlist(&netlist));
    let report = report.map_err(|e| fail(&e))?;
    Ok((
        parse_ms,
        format!("{:016x}", report.digest),
        report.newton_iterations,
    ))
}

/// One timed parse + run.
struct Sample {
    file: usize,
    traced: bool,
    op_ms: f64,
    parse_ms: f64,
}

/// Best-case times of one pass, per file: (Σ min op ms, Σ min parse ms)
/// over the samples with the given `traced` flag.
fn best_pass_ms(samples: &[Sample], files: usize, traced: bool) -> (f64, f64) {
    let mut best = vec![(f64::INFINITY, f64::INFINITY); files];
    for s in samples.iter().filter(|s| s.traced == traced) {
        let b = &mut best[s.file];
        *b = (b.0.min(s.op_ms), b.1.min(s.parse_ms));
    }
    best.iter()
        .fold((0.0, 0.0), |acc, b| (acc.0 + b.0, acc.1 + b.1))
}

pub fn run(cfg: &Config, mode: Mode, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    let mut rng = Rng::new(cfg.seed, 0xc0de);
    let mut samples = Vec::new();
    let mut newton = BTreeMap::new();
    let start = Instant::now();
    // Whole passes only, so every file is sampled alike; a traced run
    // alternates untraced and traced passes.
    let min_passes = if mode == Mode::Traced { 2 } else { 1 };
    let (mut pass, mut k) = (0usize, 0u64);
    while pass < min_passes || (mode != Mode::Probe && secs(start) < cfg.seconds) {
        let traced = mode.traces(pass);
        // One corpus load per pass: set-up samples span the run like the
        // ops do.
        let t = Instant::now();
        cases = load()?;
        setup_s.push(secs(t));
        for file in rng.permutation(cases.len()) {
            let case = &cases[file];
            let t = Instant::now();
            let span = traced.then(|| tracer.begin("corpus.op", k));
            let result = parse_and_run(case, tracer, traced, k);
            if let Some(id) = span {
                tracer.end(id);
            }
            let op_ms = ms(t);
            out.check(
                result
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|(_, digest, _)| {
                        if *digest == case.golden {
                            Ok(())
                        } else {
                            Err(format!(
                                "{}: digest {digest} != golden {}",
                                case.name, case.golden
                            ))
                        }
                    }),
            );
            if let Ok((parse_ms, _, iterations)) = result {
                newton.insert(file, iterations);
                samples.push(Sample {
                    file,
                    traced,
                    op_ms,
                    parse_ms,
                });
            }
            k += 1;
        }
        pass += 1;
    }

    if mode != Mode::Plain {
        let us = |name: &str| median(&tracer.durations_ms(name)) * 1e3;
        out.layers
            .set("netlist.parse_us", us("netlist.parse"), "us");
        out.layers
            .set("netlist.build_us", us("netlist.build"), "us");
        out.layers
            .set("netlist.family_hash_us", us("netlist.family_hash"), "us");
        for analysis in ["dcop", "transient", "hb2", "mpde", "periodic_fd"] {
            let (span, metric) = runner_names(analysis);
            out.layers
                .set(metric, median(&tracer.durations_ms(span)), "ms");
        }
        out.layers.set(
            "runner.newton_iterations",
            newton.values().sum::<usize>() as f64,
            "count",
        );
    }
    if mode == Mode::Probe {
        return Ok(out);
    }
    let n = cases.len() as f64;
    let (op_pass, parse_pass) = best_pass_ms(&samples, cases.len(), false);
    let e2e = &mut out.end_to_end;
    e2e.set("op_ms", op_pass / n, "ms");
    e2e.set("ref_ms", parse_pass / n, "ms");
    e2e.set("ops_per_s", n / (op_pass / 1e3), "1/s");
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set(
        "peak_rss_mb",
        crate::stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
        "MB",
    );
    if mode == Mode::Traced {
        let (op, parse) = best_pass_ms(&samples, cases.len(), true);
        out.layers.set("trace.op_ms", op / n, "ms");
        out.layers.set("trace.ref_ms", parse / n, "ms");
        out.layers.set("trace.ops_per_s", n / (op / 1e3), "1/s");
        out.layers
            .set("trace.overhead_pct", (op / op_pass - 1.0) * 100.0, "%");
    }
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.op_ms)
        .collect();
    out.report = vec![
        format!(
            "corpus_runs_per_s = {} 1/s (wall clock: {} untraced parse+run ops over {} netlists)",
            plain.len() as f64 / (plain.iter().sum::<f64>() / 1e3),
            plain.len(),
            cases.len()
        ),
        format!(
            "best pass {op_pass} ms (sum over files of each file's fastest parse+run), \
             of which parse {parse_pass} ms"
        ),
        format!("op ms quartiles over all files {:?}", quartiles(&plain)),
    ];
    Ok(out)
}
