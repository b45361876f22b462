//! `paper_mixer`: the paper's §3 comparison on the balanced mixer.
//!
//! Each rep runs a cold sheared-MPDE solve on the paper's 40×30 grid (a
//! fresh `LinearSolverWorkspace`, as `rfsim run` pays) and single-time
//! shooting over the difference period at 10 steps per LO period, in a
//! seeded order. f_LO = 10 MHz at disparity 2000 is the largest disparity
//! the shooting baseline can afford. A traced rep also replays the MPDE
//! solve's layer calls on its converged Jacobian, one span each. The
//! [`Yardstick`] is read before every solve, and the end-to-end figures
//! are the run's median solves scaled to its nominal speed.

use std::time::Instant;

use rfsim::circuit::newton::{LinearSolverWorkspace, NewtonSystem, WorkspaceStats};
use rfsim::circuits::{BalancedMixer, BalancedMixerParams};
use rfsim::mpde::fdtd::MpdeSystem;
use rfsim::mpde::solver::solve_mpde_with_workspace;
use rfsim::mpde::{MpdeOptions, MpdeSolution, MultitimeGrid};
use rfsim::numerics::fft::{goertzel, harmonic_amplitude};
use rfsim::numerics::sparse::Triplets;
use rfsim::numerics::sparse_lu::{LuOptions, SymbolicLu};
use rfsim::shooting::{difference_period_steps, shooting_pss, ShootingOptions, ShootingResult};

use crate::stats::{median, process_cpu_ms, quantile, quartiles, secs, Rng};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use crate::{Config, Mode, Outcome};

const F_LO: f64 = 10e6;
const DISPARITY: f64 = 2000.0;
const STEPS_PER_LO: usize = 10;
/// Resolution of the shooting reference the MPDE result is checked
/// against. At the timed baseline's 10 steps per LO period backward
/// Euler reads the baseband about 6% high, so the reference uses the
/// 20 steps per LO period of the cross-validation test.
const REFERENCE_STEPS_PER_LO: usize = 20;
/// Set-ups timed before each rep; the median over the run is reported.
const SETUPS_PER_REP: usize = 11;
/// The yardstick reading `op_ms` and `ref_ms` are scaled to: they read
/// the median solve as it would run where the yardstick reads 1 ms. A
/// round figure that only sets the scale; on a 2-vCPU VM the yardstick's
/// run medians read 1.1–1.5 ms.
const NOMINAL_YARDSTICK_MS: f64 = 1.0;
/// Baseband agreement demanded of MPDE and shooting — the tolerance of
/// the `mpde_envelope_matches_shooting_over_difference_period` test.
const TOLERANCE: f64 = 0.05;

/// Builds the mixer [`SETUPS_PER_REP`] times, timing each, and returns
/// the last one.
fn set_up(setup_s: &mut Vec<f64>) -> Result<BalancedMixer, String> {
    let mut timed = || {
        let t = Instant::now();
        let mixer = setup();
        setup_s.push(secs(t));
        mixer
    };
    for _ in 1..SETUPS_PER_REP {
        timed()?;
    }
    timed()
}

/// The mixer, its DC operating point solved once to prove it builds sane.
fn setup() -> Result<BalancedMixer, String> {
    let mixer = BalancedMixer::build(BalancedMixerParams {
        f_lo: F_LO,
        fd: F_LO / DISPARITY,
        rf_bits: vec![],
        ..Default::default()
    })
    .map_err(|e| format!("mixer build: {e}"))?;
    rfsim::circuit::dcop::dc_operating_point(&mixer.circuit, Default::default())
        .map_err(|e| format!("mixer DC operating point: {e}"))?;
    Ok(mixer)
}

fn solve_mpde(mixer: &BalancedMixer) -> Result<(MpdeSolution, WorkspaceStats), String> {
    let mut workspace = LinearSolverWorkspace::new();
    let sol = solve_mpde_with_workspace(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions::default(),
        &mut workspace,
    )
    .map_err(|e| format!("MPDE solve: {e}"))?;
    Ok((sol, workspace.stats))
}

fn solve_shooting(mixer: &BalancedMixer, per_lo: usize) -> Result<ShootingResult, String> {
    shooting_pss(
        &mixer.circuit,
        mixer.params.t2_period(),
        None,
        ShootingOptions {
            steps_per_period: difference_period_steps(mixer.params.f_lo, mixer.params.fd, per_lo),
            max_outer: 10,
            ..Default::default()
        },
    )
    .map_err(|e| format!("shooting: {e}"))
}

/// Runs one solve as [`Tracer::timed`] does and returns its result, its
/// time in ms and its wall time in ms. The time is the wall time, or the
/// process's CPU time over the solve where that is less. The kernel
/// charges no CPU time while the host runs another guest on this
/// virtual CPU (steal), so a single-threaded solve reads its wall time
/// less what the host took; a solve on several threads spends more CPU
/// than wall time and reads its wall time.
fn timed_solve<R>(
    tracer: &mut Tracer,
    on: bool,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> (R, f64, f64) {
    let cpu = process_cpu_ms();
    let (out, wall) = tracer.timed(on, name, req, f);
    let cpu = process_cpu_ms() - cpu;
    (out, wall.min(cpu), wall)
}

/// Baseband fundamental of `out_p − out_n` on the MPDE grid.
fn baseband_mpde(mixer: &BalancedMixer, sol: &MpdeSolution) -> f64 {
    let (p, n) = (
        sol.solution.envelope(mixer.out_p),
        sol.solution.envelope(mixer.out_n),
    );
    let diff: Vec<f64> = p.iter().zip(&n).map(|(a, b)| a - b).collect();
    goertzel(&diff, 1).abs()
}

/// Baseband fundamental of `out_p − out_n` over a shooting period taken
/// at `per_lo` steps per LO period: one averaged sample per LO period
/// removes the fast content.
fn baseband_shooting(mixer: &BalancedMixer, shot: &ShootingResult, per_lo: usize) -> f64 {
    let signal: Vec<f64> = (0..shot.times.len())
        .map(|k| mixer.differential_output(shot.state(k)))
        .collect();
    let slow: Vec<f64> = signal
        .chunks_exact(per_lo)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .take(DISPARITY as usize)
        .collect();
    harmonic_amplitude(&slow, 1)
}

/// Every rep must reproduce the first rep's baseband bit for bit.
fn check_repeat(what: &str, first: &mut Option<f64>, value: f64) -> Result<(), String> {
    match *first.get_or_insert(value) {
        v if v.to_bits() == value.to_bits() => Ok(()),
        v => Err(format!(
            "paper_mixer: {what} baseband {value:e} differs from the first rep's {v:e}"
        )),
    }
}

/// Per-call layer times from one replay of the solve's linear algebra.
struct Replay {
    jacobian_ms: f64,
    scatter_ms: f64,
    analyze_ms: f64,
    refactor_ms: f64,
    trisolve_ms: f64,
    lu_nnz: usize,
    a_nnz: usize,
}

/// Replays one Newton iteration's layer calls on the converged point of
/// `sol`, one span per public call.
fn replay(
    mixer: &BalancedMixer,
    sol: &MpdeSolution,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Replay, String> {
    let options = MpdeOptions::default();
    let grid = MultitimeGrid::new(
        options.n1,
        options.n2,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
    );
    let system = MpdeSystem::new(&mixer.circuit, grid, options.scheme1, options.scheme2)
        .map_err(|e| format!("MPDE system: {e}"))?;
    let dim = system.dim();
    let mut residual = vec![0.0; dim];
    let mut jac = Triplets::with_capacity(dim, dim, 40 * dim);
    let x = &sol.solution.data;
    let ((), jacobian_ms) = tracer.timed(true, "core.jacobian", req, || {
        system.residual_and_jacobian(x, &mut residual, &mut jac)
    });
    let (csc, scatter_ms) = tracer.timed(true, "numerics.scatter", req, || jac.to_csc());
    let (sym, analyze_ms) = tracer.timed(true, "numerics.analyze", req, || {
        SymbolicLu::analyze(&csc, LuOptions::default())
    });
    let sym = sym.map_err(|e| format!("analyze: {e}"))?;
    let mut lu = sym.refactor(&csc).map_err(|e| format!("refactor: {e}"))?;
    let (refactored, refactor_ms) = tracer.timed(true, "numerics.refactor", req, || {
        lu.refactor_in_place(&csc)
    });
    refactored.map_err(|e| format!("refactor_in_place: {e}"))?;
    let ((), trisolve_ms) = tracer.timed(true, "numerics.trisolve", req, || {
        lu.solve_in_place(&mut residual)
    });
    Ok(Replay {
        jacobian_ms,
        scatter_ms,
        analyze_ms,
        refactor_ms,
        trisolve_ms,
        lu_nnz: lu.nnz(),
        a_nnz: csc.nnz(),
    })
}

/// Solve time not covered by Σ(layer time × calls), and the largest term.
fn unattributed_ms(solve_ms: f64, r: &Replay, s: &WorkspaceStats) -> (f64, &'static str, f64) {
    let direct = (s.full_factorizations + s.refactorizations) as f64;
    let terms = [
        ("core.jacobian", r.jacobian_ms * direct),
        ("numerics.scatter", r.scatter_ms * direct),
        (
            "numerics.analyze",
            r.analyze_ms * s.full_factorizations as f64,
        ),
        (
            "numerics.refactor",
            r.refactor_ms * s.refactorizations as f64,
        ),
        (
            "numerics.trisolve",
            r.trisolve_ms * (direct + s.cached_solves as f64),
        ),
    ];
    let attributed: f64 = terms.iter().map(|(_, v)| v).sum();
    let (largest, _) = terms
        .iter()
        .copied()
        .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    (solve_ms - attributed, largest, attributed)
}

#[derive(Default)]
struct Samples {
    mpde_ms: Vec<f64>,
    shoot_ms: Vec<f64>,
    rep_s: Vec<f64>,
    /// Yardstick readings, one before each solve.
    yard_ms: Vec<f64>,
    /// Σ over solves of wall time less solve time, and Σ wall time.
    stolen_ms: f64,
    wall_ms: f64,
}

impl Samples {
    /// The median of `solve_ms` at the yardstick's nominal speed: scaled
    /// by [`NOMINAL_YARDSTICK_MS`] over the median yardstick reading of
    /// the same reps.
    fn at_nominal(&self, solve_ms: &[f64]) -> f64 {
        median(solve_ms) * NOMINAL_YARDSTICK_MS / median(&self.yard_ms)
    }
}

pub fn run(cfg: &Config, mode: Mode, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut mixer = set_up(&mut setup_s)?;

    let mut rng = Rng::new(cfg.seed, 0x9a9e);
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    let mut layers: Vec<(String, f64)> = Vec::new();
    let (mut first_mpde, mut first_shoot) = (None, None);
    let mut yardstick = Yardstick::new();
    let start = Instant::now();
    let mut k = 0usize;
    while k == 0 || (mode != Mode::Probe && (secs(start) < cfg.seconds || k < 2)) {
        let on = mode.traces(k);
        let req = k as u64;
        let t_rep = Instant::now();
        let rep_span = on.then(|| tracer.begin("paper.rep", req));
        let mpde_first = rng.unit() < 0.5;
        let (mut mpde, mut shot) = (None, None);
        let mut readings = [0.0; 2];
        for (turn, mpde_turn) in [mpde_first, !mpde_first].into_iter().enumerate() {
            readings[turn] = yardstick.read_ms();
            if mpde_turn {
                mpde = Some(timed_solve(tracer, on, "core.mpde_solve", req, || {
                    solve_mpde(&mixer)
                }));
            } else {
                shot = Some(timed_solve(tracer, on, "shooting.solve", req, || {
                    solve_shooting(&mixer, STEPS_PER_LO)
                }));
            }
        }
        let ((mpde, mpde_ms, mpde_wall), (shot, shoot_ms, shoot_wall)) =
            (mpde.expect("ran"), shot.expect("ran"));
        out.check(mpde.as_ref().map(|_| ()).map_err(Clone::clone));
        out.check(shot.as_ref().map(|_| ()).map_err(Clone::clone));
        if let (Ok((sol, ws)), Ok(shot)) = (&mpde, &shot) {
            out.check(check_repeat(
                "MPDE",
                &mut first_mpde,
                baseband_mpde(&mixer, sol),
            ));
            let b = baseband_shooting(&mixer, shot, STEPS_PER_LO);
            out.check(check_repeat("shooting", &mut first_shoot, b));
            if on {
                let r = replay(&mixer, sol, tracer, req)?;
                let (rest, largest, attributed) = unattributed_ms(mpde_ms, &r, ws);
                if attributed > 1.1 * mpde_ms {
                    eprintln!(
                        "perfbench: warning: paper_mixer rep {k}: layer calls account for \
                         {attributed:.1} ms of a {mpde_ms:.1} ms solve (largest: {largest}); \
                         the replay measured a different program"
                    );
                }
                for (name, v) in [
                    ("core.jacobian_ms", r.jacobian_ms),
                    ("numerics.scatter_ms", r.scatter_ms),
                    ("numerics.analyze_ms", r.analyze_ms),
                    ("numerics.refactor_ms", r.refactor_ms),
                    ("numerics.trisolve_ms", r.trisolve_ms),
                    ("numerics.lu_nnz", r.lu_nnz as f64),
                    ("numerics.fill_ratio", r.lu_nnz as f64 / r.a_nnz as f64),
                    (
                        "core.newton_iterations",
                        sol.stats.total_newton_iterations as f64,
                    ),
                    ("circuit.refactorizations", ws.refactorizations as f64),
                    ("circuit.full_factorizations", ws.full_factorizations as f64),
                    ("circuit.pivot_exchanges", ws.pivot_exchanges as f64),
                    ("circuit.full_fallbacks", ws.full_fallbacks as f64),
                    ("core.mpde_unattributed_ms", rest),
                    ("shooting.outer_iterations", shot.outer_iterations as f64),
                    (
                        "shooting.inner_newton_iterations",
                        shot.inner_newton_iterations as f64,
                    ),
                    (
                        "shooting.step_us",
                        shoot_ms * 1e3 / shot.total_steps.max(1) as f64,
                    ),
                ] {
                    layers.push((name.to_string(), v));
                }
            }
        }
        if let Some(id) = rep_span {
            tracer.end(id);
        }
        let samples = if on { &mut traced } else { &mut plain };
        samples.mpde_ms.push(mpde_ms);
        samples.shoot_ms.push(shoot_ms);
        samples.yard_ms.extend(readings);
        samples.stolen_ms += (mpde_wall - mpde_ms) + (shoot_wall - shoot_ms);
        samples.wall_ms += mpde_wall + shoot_wall;
        samples.rep_s.push(secs(t_rep));
        k += 1;
        // Set-ups spread over the run like the solves.
        mixer = set_up(&mut setup_s)?;
    }

    for (name, unit) in crate::PER_LAYER {
        let values: Vec<f64> = layers
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .collect();
        if !values.is_empty() {
            out.layers.set(name, median(&values), unit);
        }
    }
    if mode == Mode::Probe {
        return Ok(out);
    }
    // Untimed: the MPDE answer against a resolved shooting reference.
    let reference_bb = solve_shooting(&mixer, REFERENCE_STEPS_PER_LO)
        .map(|shot| baseband_shooting(&mixer, &shot, REFERENCE_STEPS_PER_LO));
    let mpde_bb = first_mpde.unwrap_or(f64::NAN);
    out.check(reference_bb.clone().and_then(|r| {
        if (mpde_bb - r).abs() < TOLERANCE * mpde_bb.max(r) {
            Ok(())
        } else {
            Err(format!(
                "paper_mixer: MPDE baseband {mpde_bb:e} vs shooting reference {r:e} \
                 differ by more than {TOLERANCE}"
            ))
        }
    }));
    let (op, reference) = (
        plain.at_nominal(&plain.mpde_ms),
        plain.at_nominal(&plain.shoot_ms),
    );
    let peak = crate::stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    let e2e = &mut out.end_to_end;
    e2e.set("op_ms", op, "ms");
    e2e.set("ref_ms", reference, "ms");
    e2e.set("ops_per_s", 1e3 / (op + reference), "1/s");
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("peak_rss_mb", peak, "MB");
    if mode == Mode::Traced {
        let (op, reference) = (
            traced.at_nominal(&traced.mpde_ms),
            traced.at_nominal(&traced.shoot_ms),
        );
        out.layers.set("trace.op_ms", op, "ms");
        out.layers.set("trace.ref_ms", reference, "ms");
        out.layers
            .set("trace.ops_per_s", 1e3 / (op + reference), "1/s");
        // Rep wall times, best of each kind: interference only adds time.
        let best = |v: &[f64]| quantile(v, 0.0);
        out.layers.set(
            "trace.overhead_pct",
            (best(&traced.rep_s) / best(&plain.rep_s) - 1.0) * 100.0,
            "%",
        );
    }
    let (mpde_p50, shoot_p50) = (median(&plain.mpde_ms), median(&plain.shoot_ms));
    out.report = vec![
        format!(
            "mpde_solve_s = {} s (median of {} cold 40x30 solves; best {} s)",
            mpde_p50 / 1e3,
            plain.mpde_ms.len(),
            quantile(&plain.mpde_ms, 0.0) / 1e3
        ),
        format!(
            "shooting_solve_s = {} s (median, 20000 steps; best {} s)",
            shoot_p50 / 1e3,
            quantile(&plain.shoot_ms, 0.0) / 1e3
        ),
        format!(
            "speedup_vs_shooting = {} ratio (shooting / MPDE medians)",
            shoot_p50 / mpde_p50
        ),
        format!(
            "yardstick: median reading {} ms (nominal {NOMINAL_YARDSTICK_MS} ms), so op_ms and \
             ref_ms are the median solves scaled by {}",
            median(&plain.yard_ms),
            NOMINAL_YARDSTICK_MS / median(&plain.yard_ms)
        ),
        format!(
            "baseband |out_p-out_n| at fd: MPDE {mpde_bb:e}, shooting {:e} (10 steps/LO), \
             reference {:e} (20 steps/LO)",
            first_shoot.unwrap_or(f64::NAN),
            reference_bb.unwrap_or(f64::NAN)
        ),
        format!(
            "paired reps: {} plain, {} traced",
            plain.rep_s.len(),
            traced.rep_s.len()
        ),
        format!("MPDE ms quartiles {:?}", quartiles(&plain.mpde_ms)),
        format!("shooting ms quartiles {:?}", quartiles(&plain.shoot_ms)),
        format!(
            "wall time of the timed solves not charged to them as CPU time (host steal, run-queue waits): {} ms of {} ms",
            plain.stolen_ms, plain.wall_ms
        ),
    ];
    Ok(out)
}
