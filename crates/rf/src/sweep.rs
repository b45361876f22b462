//! Warm-started parameter sweeps and the batched multi-topology
//! [`SweepEngine`].
//!
//! Steady-state solutions vary smoothly with source amplitude, bias and
//! tone spacing, so each sweep point seeds the next solve — the standard
//! way to trace gain-compression curves cheaply. This module scales that
//! idea from one circuit family to *batches* of families with mixed
//! Jacobian structures:
//!
//! * **Fingerprint-keyed workspace cache** — every solver Jacobian pattern
//!   is summarised by a
//!   [`PatternFingerprint`]
//!   (a hash of its CSC structure), and a
//!   [`WorkspaceCache`] pools
//!   [`LinearSolverWorkspace`]s under those keys. A batch of circuits with
//!   mixed topologies routes every solve to a workspace warmed on *its*
//!   structure, so nothing thrashes: each distinct pattern pays for its
//!   fill-reducing ordering, symbolic reach and pivot order exactly once per
//!   concurrent user, however the batch interleaves. Fingerprints are
//!   routing keys only — the workspace itself still verifies every stamp
//!   position and the stored factor pattern, so a hash collision costs a
//!   transparent rebuild, never a wrong solve.
//! * **Warm-start grouping** — jobs whose Jacobians share a fingerprint
//!   form a *topology group*. A group runs in order on one worker: later
//!   jobs check the earlier jobs' workspace back out of the cache
//!   (numeric-only refactorisations from their very first iteration) and,
//!   when [`SweepEngine::chain_topology_groups`] is on (the default), the
//!   first point of each job is seeded from the previous job's
//!   *first-point* solution — the value-matched neighbour. The seed is a
//!   hint, not a contract: a seeded solve that fails to converge is
//!   retried from the job's own initial guess.
//! * **Worker pool** — independent topology groups execute concurrently on
//!   a hand-rolled fixed-thread [`WorkerPool`]: group count bounds useful
//!   width, each busy worker holds at most one checked-out workspace, and
//!   a width-1 pool degenerates to exact sequential execution (which is
//!   how the cross-validation suite proves the engine bit-identical to
//!   per-topology [`amplitude_sweep`] runs). This is the engine's one
//!   parallelism policy: many small solves side by side, each with a
//!   single-threaded LU, so workers never oversubscribe the cores. Size it
//!   with [`WorkerPool::from_available_parallelism`] unless you know
//!   better.
//!
//! Three steady-state backends ride the same machinery: the sheared-MPDE
//! solver ([`MpdeSweepJob`]), two-tone harmonic balance ([`Hb2SweepJob`])
//! and single-tone periodic collocation ([`PeriodicFdSweepJob`]).
//! Multi-parameter (amplitude × tone-spacing) families run as
//! [`MpdeGridSweep`]s: one warm-start chain per spacing row, rows spread
//! across the pool, all rows sharing cached workspaces because tone
//! spacing changes Jacobian *values*, not structure.
//!
//! The engine caches workspaces, not solutions: every job solves.
//! Repeated requests are memoised one layer up, in the `rfsim-serve`
//! solution store.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use rfsim_circuit::driver::{NewtonDriver, Rung, RungExec, RungKind};
use rfsim_circuit::fault::SolveFault;
use rfsim_circuit::newton::{LinearSolverWorkspace, WorkspaceCache, WorkspaceStats};
use rfsim_circuit::{Circuit, Result};
use rfsim_hb::hb2::{hb2_jacobian_fingerprint, hb2_solve_budgeted, Hb2Options, Hb2Result};
use rfsim_mpde::solver::{
    mpde_jacobian_fingerprint, solve_mpde_budgeted, InitialGuess, MpdeOptions,
};
use rfsim_mpde::MpdeSolution;
use rfsim_numerics::sparse::PatternFingerprint;
use rfsim_numerics::SolveBudget;
use rfsim_shooting::{
    periodic_fd_jacobian_fingerprint, periodic_fd_pss_budgeted, PeriodicFdOptions, PeriodicFdResult,
};

use crate::key::{fnv1a_bytes, FNV_OFFSET};
use crate::pool::WorkerPool;

/// One point of an amplitude sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept value (e.g. RF amplitude in volts).
    pub value: f64,
    /// The MPDE solution at this point.
    pub solution: MpdeSolution,
}

/// One point of a two-tone harmonic-balance sweep.
#[derive(Debug, Clone)]
pub struct Hb2SweepPoint {
    /// The swept value.
    pub value: f64,
    /// The HB solution at this point.
    pub solution: Hb2Result,
}

/// One point of a periodic-collocation sweep.
#[derive(Debug, Clone)]
pub struct PeriodicFdSweepPoint {
    /// The swept value.
    pub value: f64,
    /// The PSS solution at this point.
    pub solution: PeriodicFdResult,
}

/// A steady-state solver that can participate in warm-started,
/// workspace-cached sweeps. Implementations exist for the sheared MPDE
/// engine ([`MpdeBackend`]), two-tone HB ([`Hb2Backend`]) and periodic
/// collocation ([`PeriodicFdBackend`]).
pub trait SweepBackend {
    /// Steady-state solution produced per sweep point.
    type Solution;

    /// Cache key: fingerprint of the solver's Jacobian structure for
    /// `circuit` under this backend's options.
    ///
    /// # Errors
    ///
    /// Propagates backend system-construction failures (e.g. a source
    /// without a bivariate waveform).
    fn fingerprint(&self, circuit: &Circuit) -> Result<PatternFingerprint>;

    /// Flattened solution length for `circuit` — gates whether a previous
    /// solution can seed the next solve.
    fn dim(&self, circuit: &Circuit) -> usize;

    /// One steady-state solve, warm-started from `guess` when given and
    /// running under `budget` (pass [`SolveBudget::unlimited`] for an
    /// unconstrained solve).
    ///
    /// # Errors
    ///
    /// Propagates solver convergence and structural failures;
    /// [`rfsim_circuit::CircuitError::Interrupted`] when the budget stops
    /// the solve.
    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<Self::Solution>;

    /// The flattened samples of `solution` (the next point's warm start).
    fn samples<'a>(&self, solution: &'a Self::Solution) -> &'a [f64];
}

/// Sheared-MPDE sweep backend (the paper's method).
#[derive(Debug, Clone)]
pub struct MpdeBackend {
    t1_period: f64,
    t2_period: f64,
    options: MpdeOptions,
}

impl SweepBackend for MpdeBackend {
    type Solution = MpdeSolution;

    fn fingerprint(&self, circuit: &Circuit) -> Result<PatternFingerprint> {
        mpde_jacobian_fingerprint(circuit, self.t1_period, self.t2_period, &self.options)
    }

    fn dim(&self, circuit: &Circuit) -> usize {
        circuit.num_unknowns() * self.options.n1 * self.options.n2
    }

    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<MpdeSolution> {
        let mut options = self.options.clone();
        if let Some(g) = guess {
            options.initial_guess = InitialGuess::Samples(g.to_vec());
        }
        solve_mpde_budgeted(
            circuit,
            self.t1_period,
            self.t2_period,
            options,
            workspace,
            budget,
        )
    }

    fn samples<'a>(&self, solution: &'a MpdeSolution) -> &'a [f64] {
        &solution.solution.data
    }
}

/// Two-tone harmonic-balance sweep backend.
#[derive(Debug, Clone)]
pub struct Hb2Backend {
    period1: f64,
    period2: f64,
    options: Hb2Options,
}

impl SweepBackend for Hb2Backend {
    type Solution = Hb2Result;

    fn fingerprint(&self, circuit: &Circuit) -> Result<PatternFingerprint> {
        Ok(hb2_jacobian_fingerprint(
            circuit,
            self.period1,
            self.period2,
            &self.options,
        ))
    }

    fn dim(&self, circuit: &Circuit) -> usize {
        // hb2_solve clamps both axes to at least 4 points.
        circuit.num_unknowns() * self.options.n1.max(4) * self.options.n2.max(4)
    }

    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<Hb2Result> {
        hb2_solve_budgeted(
            circuit,
            self.period1,
            self.period2,
            guess,
            self.options,
            workspace,
            budget,
        )
    }

    fn samples<'a>(&self, solution: &'a Hb2Result) -> &'a [f64] {
        &solution.samples
    }
}

/// Single-tone periodic-collocation sweep backend.
#[derive(Debug, Clone)]
pub struct PeriodicFdBackend {
    period: f64,
    options: PeriodicFdOptions,
}

impl SweepBackend for PeriodicFdBackend {
    type Solution = PeriodicFdResult;

    fn fingerprint(&self, circuit: &Circuit) -> Result<PatternFingerprint> {
        Ok(periodic_fd_jacobian_fingerprint(
            circuit,
            self.period,
            &self.options,
        ))
    }

    fn dim(&self, circuit: &Circuit) -> usize {
        // periodic_fd_pss clamps the sample count to the stencil width.
        circuit.num_unknowns() * self.options.n_samples.max(self.options.scheme.min_points())
    }

    fn solve(
        &self,
        circuit: &Circuit,
        guess: Option<&[f64]>,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<PeriodicFdResult> {
        periodic_fd_pss_budgeted(circuit, self.period, guess, self.options, workspace, budget)
    }

    fn samples<'a>(&self, solution: &'a PeriodicFdResult) -> &'a [f64] {
        &solution.samples
    }
}

/// A circuit family: the swept value in, the circuit at that operating
/// point out.
pub type CircuitFamily = Box<dyn Fn(f64) -> Result<Circuit> + Send + Sync>;

/// Per-job outcome of a generic batch: the traced `(value, solution)`
/// pairs, or the first error the job hit.
pub type SweepResult<S> = Result<Vec<(f64, S)>>;

/// One sweep job: a circuit family, the values to trace, and the backend
/// configuration to solve each point with.
pub struct SweepJob<B> {
    /// Diagnostic name carried through to results and logs.
    pub label: String,
    /// Swept values, traced in order with warm-start chaining.
    pub values: Vec<f64>,
    /// Backend configuration shared by all points.
    pub backend: B,
    make_circuit: CircuitFamily,
    budget: Option<SolveBudget>,
    fault: Option<SolveFault>,
}

impl<B> std::fmt::Debug for SweepJob<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .field("points", &self.values.len())
            .field("budget", &self.budget)
            .field("fault", &self.fault)
            .finish()
    }
}

impl<B> SweepJob<B> {
    /// Runs this job under its own [`SolveBudget`] instead of the batch
    /// budget. The budget covers every point of the sweep: the chain
    /// fail-fasts between points and every Newton/Krylov iteration inside
    /// a point polls it, so a cancel or an expired deadline surfaces as
    /// [`rfsim_circuit::CircuitError::Interrupted`] in this job's result
    /// slot without touching its batch neighbours.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The per-job budget set by [`SweepJob::with_budget`], if any.
    pub fn budget(&self) -> Option<&SolveBudget> {
        self.budget.as_ref()
    }

    /// Injects a deterministic [`SolveFault`] ahead of every point's solve
    /// — test/drill instrumentation for the control plane (see
    /// [`rfsim_circuit::fault`]). A faulted job only ever fails or hangs
    /// *itself*; it cannot corrupt results.
    #[must_use]
    pub fn with_fault(mut self, fault: SolveFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The injected fault set by [`SweepJob::with_fault`], if any.
    pub fn fault(&self) -> Option<&SolveFault> {
        self.fault.as_ref()
    }
}

/// An MPDE amplitude-sweep job for [`SweepEngine::run_mpde_batch`].
pub type MpdeSweepJob = SweepJob<MpdeBackend>;

/// A two-tone HB sweep job for [`SweepEngine::run_hb2_batch`].
pub type Hb2SweepJob = SweepJob<Hb2Backend>;

/// A periodic-collocation sweep job for
/// [`SweepEngine::run_periodic_fd_batch`].
pub type PeriodicFdSweepJob = SweepJob<PeriodicFdBackend>;

impl SweepJob<MpdeBackend> {
    /// An MPDE sweep of `values` over the family `make_circuit`, solving
    /// each point on the `[0, t1_period) × [0, t2_period)` grid.
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        t1_period: f64,
        t2_period: f64,
        options: MpdeOptions,
        make_circuit: impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            values,
            backend: MpdeBackend {
                t1_period,
                t2_period,
                options,
            },
            make_circuit: Box::new(make_circuit),
            budget: None,
            fault: None,
        }
    }
}

impl SweepJob<Hb2Backend> {
    /// A two-tone HB sweep of `values` over the family `make_circuit`.
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        period1: f64,
        period2: f64,
        options: Hb2Options,
        make_circuit: impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            values,
            backend: Hb2Backend {
                period1,
                period2,
                options,
            },
            make_circuit: Box::new(make_circuit),
            budget: None,
            fault: None,
        }
    }
}

impl SweepJob<PeriodicFdBackend> {
    /// A periodic-collocation sweep of `values` over the family
    /// `make_circuit`, solving each point over one `period`.
    pub fn new(
        label: impl Into<String>,
        values: Vec<f64>,
        period: f64,
        options: PeriodicFdOptions,
        make_circuit: impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            values,
            backend: PeriodicFdBackend { period, options },
            make_circuit: Box::new(make_circuit),
            budget: None,
            fault: None,
        }
    }
}

/// An amplitude × tone-spacing MPDE grid for [`SweepEngine::run_mpde_grid`].
///
/// Each spacing `fd` defines one row solved on the
/// `[0, t1_period) × [0, 1/fd)` grid; rows are independent warm-start
/// chains spread across the pool, and — because tone spacing changes
/// Jacobian *values*, not structure — every row draws on the same
/// fingerprint-keyed workspaces.
pub struct MpdeGridSweep {
    /// Diagnostic name.
    pub label: String,
    /// Amplitudes traced (warm-start chained) within each row.
    pub amplitudes: Vec<f64>,
    /// Tone spacings `fd` in hertz, one row each.
    pub spacings: Vec<f64>,
    /// Fast-axis period shared by all rows.
    pub t1_period: f64,
    /// MPDE options shared by all points.
    pub options: MpdeOptions,
    make_circuit: Box<dyn Fn(f64, f64) -> Result<Circuit> + Send + Sync>,
}

impl MpdeGridSweep {
    /// A grid over `amplitudes × spacings`; `make_circuit(amplitude, fd)`
    /// builds the circuit at one grid point.
    pub fn new(
        label: impl Into<String>,
        amplitudes: Vec<f64>,
        spacings: Vec<f64>,
        t1_period: f64,
        options: MpdeOptions,
        make_circuit: impl Fn(f64, f64) -> Result<Circuit> + Send + Sync + 'static,
    ) -> Self {
        MpdeGridSweep {
            label: label.into(),
            amplitudes,
            spacings,
            t1_period,
            options,
            make_circuit: Box::new(make_circuit),
        }
    }
}

impl std::fmt::Debug for MpdeGridSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpdeGridSweep")
            .field("label", &self.label)
            .field("amplitudes", &self.amplitudes.len())
            .field("spacings", &self.spacings.len())
            .finish()
    }
}

/// One solved point of an [`MpdeGridSweep`].
#[derive(Debug, Clone)]
pub struct MpdeGridPoint {
    /// The amplitude coordinate.
    pub amplitude: f64,
    /// The tone-spacing coordinate (hertz).
    pub spacing: f64,
    /// The MPDE solution at this grid point.
    pub solution: MpdeSolution,
}

/// Snapshot of the engine's workspace-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Checkouts served by a workspace warmed on the right structure.
    pub hits: usize,
    /// Checkouts that created a fresh workspace.
    pub misses: usize,
    /// Workspaces currently parked in the pool.
    pub parked: usize,
    /// Distinct sparsity fingerprints with parked workspaces.
    pub patterns: usize,
}

/// Batched multi-topology sweep engine: a fingerprint-keyed workspace
/// cache, warm-start chaining per topology group, and a fixed-thread
/// worker pool executing independent groups concurrently.
///
/// The engine is long-lived by design — its cache is its value. A sweep
/// service keeps one engine and feeds it batches; every structure the
/// engine has seen before starts with numeric-only refactorisations.
///
/// ```
/// use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, GROUND};
/// use rfsim_mpde::solver::MpdeOptions;
/// use rfsim_rf::pool::WorkerPool;
/// use rfsim_rf::sweep::{MpdeSweepJob, SweepEngine};
///
/// # fn main() -> Result<(), rfsim_circuit::CircuitError> {
/// let (f1, fd) = (1e6, 10e3);
/// // A family of RC output stages, parameterised by load resistance.
/// let family = move |r_load: f64| {
///     move |amplitude: f64| {
///         let mut b = CircuitBuilder::new();
///         let inp = b.node("in");
///         let out = b.node("out");
///         b.vsource(
///             "VRF",
///             inp,
///             GROUND,
///             BiWaveform::ShearedCarrier {
///                 amplitude,
///                 k: 1,
///                 f1,
///                 fd,
///                 phase: 0.0,
///                 envelope: Envelope::Unit,
///             },
///         )?;
///         b.resistor("R1", inp, out, r_load)?;
///         b.capacitor("C1", out, GROUND, 160e-12)?;
///         b.build()
///     }
/// };
/// let opts = MpdeOptions {
///     n1: 8,
///     n2: 4,
///     ..Default::default()
/// };
/// let jobs = vec![
///     MpdeSweepJob::new("load-1k", vec![0.1, 0.2], 1.0 / f1, 1.0 / fd,
///                       opts.clone(), family(1e3)),
///     MpdeSweepJob::new("load-2k", vec![0.1, 0.2], 1.0 / f1, 1.0 / fd,
///                       opts, family(2e3)),
/// ];
/// let engine = SweepEngine::with_pool(WorkerPool::new(2));
/// for result in engine.run_mpde_batch(&jobs) {
///     assert_eq!(result.expect("sweep converges").len(), 2);
/// }
/// // Both families share one topology, so they formed one group and the
/// // second job rode the first one's warmed workspace.
/// assert_eq!(engine.cache_stats().patterns, 1);
/// # Ok(())
/// # }
/// ```
pub struct SweepEngine {
    pool: WorkerPool,
    cache: Mutex<WorkspaceCache>,
    /// Backend Jacobian fingerprints per
    /// `(backend type ⊕ DC pattern, solution dim)` probe, persisted across
    /// batches: a repeated batch pays two cheap circuit-level probes per
    /// job instead of re-assembling the backend's grid Jacobian structure.
    /// Fingerprints are routing keys (see `run_batch`), so a probe merge
    /// costs a transparent workspace rebuild, never a wrong solve.
    probe_cache: Mutex<HashMap<(u64, usize), PatternFingerprint>>,
    chain_groups: bool,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine sized to the machine
    /// ([`WorkerPool::from_available_parallelism`]).
    pub fn new() -> Self {
        Self::with_pool(WorkerPool::from_available_parallelism())
    }

    /// Bound on persisted backend-fingerprint probes (distinct
    /// `(backend, DC structure, dim)` triples the engine has seen).
    const PROBE_CACHE_CAPACITY: usize = 1024;

    /// An engine running on an explicit pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        SweepEngine {
            pool,
            cache: Mutex::new(WorkspaceCache::new()),
            probe_cache: Mutex::new(HashMap::new()),
            chain_groups: true,
        }
    }

    /// Bounds the number of warmed workspaces the engine parks between
    /// batches (default [`WorkspaceCache::DEFAULT_CAPACITY`]). Long-lived
    /// services hosting many distinct topologies use this to cap factor
    /// retention; a check-in beyond the bound drops the workspace, never a
    /// result. A construction-time builder: it replaces the cache, so call
    /// it before the first batch.
    #[must_use]
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        *self.cache.lock().expect("workspace cache poisoned") =
            WorkspaceCache::with_capacity(capacity);
        self
    }

    /// Enables or disables all cross-job reuse inside a topology group (on
    /// by default). When disabled, every job solves on its own private
    /// workspace with no solution seeding — numerically independent of its
    /// group neighbours and therefore bit-identical to running it alone
    /// through [`amplitude_sweep`] on a cold engine. Use it to validate
    /// the fast path, or whenever bit-reproducibility outranks throughput;
    /// grouping and pool scheduling still apply.
    #[must_use]
    pub fn chain_topology_groups(mut self, chain: bool) -> Self {
        self.chain_groups = chain;
        self
    }

    /// The worker pool this engine schedules groups onto.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Current workspace-cache counters.
    pub fn cache_stats(&self) -> CacheSnapshot {
        let cache = self.cache.lock().expect("workspace cache poisoned");
        CacheSnapshot {
            hits: cache.hits,
            misses: cache.misses,
            parked: cache.len(),
            patterns: cache.num_patterns(),
        }
    }

    /// Aggregated linear-solver counters across every workspace the
    /// engine's cache has seen — refactorisations vs full factorisations,
    /// restricted-pivoting exchanges vs full fallbacks, preconditioner
    /// refreshes vs rebuilds. Take the snapshot between batches:
    /// checked-out workspaces report when they park.
    pub fn solver_stats(&self) -> WorkspaceStats {
        self.cache
            .lock()
            .expect("workspace cache poisoned")
            .solver_stats()
    }

    /// Drops every parked workspace (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("workspace cache poisoned").clear();
    }

    /// Runs a batch of sweep jobs over any backend: probes each job's
    /// Jacobian fingerprint, groups jobs by structure, executes the groups
    /// concurrently on the pool, and returns per-job results in input
    /// order. A job that fails leaves the other jobs untouched — its slot
    /// carries the error.
    pub fn run_batch<B>(&self, jobs: &[SweepJob<B>]) -> Vec<SweepResult<B::Solution>>
    where
        B: SweepBackend + Sync,
        B::Solution: Send,
    {
        self.run_batch_with_budget(jobs, &SolveBudget::unlimited())
    }

    /// [`SweepEngine::run_batch`] under a batch-wide [`SolveBudget`]. The
    /// budget fans out to a [`SolveBudget::child`] per sub-job, so one
    /// batch cancel (or deadline) stops every worker promptly: each job
    /// slot whose solve was cut short carries
    /// [`rfsim_circuit::CircuitError::Interrupted`], while already-settled
    /// slots keep their results. A job with its own
    /// [`SweepJob::with_budget`] runs under that budget instead.
    pub fn run_batch_with_budget<B>(
        &self,
        jobs: &[SweepJob<B>],
        budget: &SolveBudget,
    ) -> Vec<SweepResult<B::Solution>>
    where
        B: SweepBackend + Sync,
        B::Solution: Send,
    {
        // Probe fingerprints in parallel: one circuit build per job, but —
        // since same-topology batches are the engine's bread and butter —
        // the expensive backend Jacobian-structure assembly is cached by
        // the cheap (backend type ⊕ DC pattern, solution dim) probe, so N
        // same-structure jobs pay for one, and — because the probe cache
        // persists on the engine — a *repeated* batch pays for none. The
        // probe cache can only merge jobs whose backends differ in ways
        // invisible to that probe (e.g. a different stencil on an
        // identical grid); grouping is a routing choice, so the cost of
        // such a merge is a transparent workspace rebuild, never a wrong
        // solve.
        let backend_tag = fnv1a_bytes(FNV_OFFSET, std::any::type_name::<B>().as_bytes());
        let probes = self.pool.run(jobs.len(), |j| {
            let job = &jobs[j];
            job.values.first().map(|&v| {
                (job.make_circuit)(v).and_then(|circuit| {
                    let dc = circuit.jacobian_fingerprint();
                    let probe = (
                        fnv1a_bytes(backend_tag, &dc.as_u64().to_le_bytes()),
                        job.backend.dim(&circuit),
                    );
                    let cached = self
                        .probe_cache
                        .lock()
                        .expect("probe cache poisoned")
                        .get(&probe)
                        .copied();
                    if let Some(key) = cached {
                        return Ok(key);
                    }
                    let key = job.backend.fingerprint(&circuit)?;
                    let mut cache = self.probe_cache.lock().expect("probe cache poisoned");
                    if cache.len() >= Self::PROBE_CACHE_CAPACITY {
                        // Probes are one structure assembly away; overflow
                        // handling can be blunt.
                        cache.clear();
                    }
                    cache.insert(probe, key);
                    Ok(key)
                })
            })
        });

        let mut results: Vec<Option<SweepResult<B::Solution>>> =
            (0..jobs.len()).map(|_| None).collect();
        // Deterministic group order (BTreeMap) keeps scheduling stable.
        let mut groups: BTreeMap<PatternFingerprint, Vec<usize>> = BTreeMap::new();
        for (j, probe) in probes.into_iter().enumerate() {
            match probe {
                None => results[j] = Some(Ok(Vec::new())),
                Some(Err(e)) => results[j] = Some(Err(e)),
                Some(Ok(fp)) => groups.entry(fp).or_default().push(j),
            }
        }
        let group_list: Vec<(PatternFingerprint, Vec<usize>)> = groups.into_iter().collect();

        let group_outs = self.pool.run(group_list.len(), |g| {
            let (key, members) = &group_list[g];
            let mut outs = Vec::with_capacity(members.len());
            let mut chain_seed: Option<Vec<f64>> = None;
            for &j in members {
                let job = &jobs[j];
                let mut make = |v: f64| (job.make_circuit)(v);
                // Per-job budget: the job's own if set, else a child of
                // the batch budget — so cancelling the batch reaches every
                // job, and a per-job deadline never leaks to neighbours.
                let job_budget = job.budget.clone().unwrap_or_else(|| budget.child());
                let (result, last) = if self.chain_groups {
                    sweep_chain(
                        &job.backend,
                        &job.values,
                        &mut make,
                        &self.cache,
                        Some(*key),
                        chain_seed.take(),
                        &job_budget,
                        job.fault.as_ref(),
                    )
                } else {
                    // Determinism mode: a private workspace cache makes
                    // this job's numerics independent of its neighbours.
                    // Its solver counters still roll up to the engine.
                    let local = Mutex::new(WorkspaceCache::new());
                    let out = sweep_chain(
                        &job.backend,
                        &job.values,
                        &mut make,
                        &local,
                        Some(*key),
                        None,
                        &job_budget,
                        job.fault.as_ref(),
                    );
                    let local_stats = local
                        .lock()
                        .expect("private workspace cache poisoned")
                        .solver_stats();
                    self.cache
                        .lock()
                        .expect("workspace cache poisoned")
                        .absorb_stats(&local_stats);
                    out
                };
                if self.chain_groups {
                    chain_seed = last;
                }
                outs.push((j, result));
            }
            outs
        });
        for group in group_outs {
            for (j, result) in group {
                results[j] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every job is either empty, failed its probe, or ran in a group"))
            .collect()
    }

    /// [`SweepEngine::run_batch`] for MPDE jobs, with results wrapped as
    /// [`SweepPoint`]s.
    pub fn run_mpde_batch(&self, jobs: &[MpdeSweepJob]) -> Vec<Result<Vec<SweepPoint>>> {
        self.run_batch(jobs)
            .into_iter()
            .map(|r| {
                r.map(|points| {
                    points
                        .into_iter()
                        .map(|(value, solution)| SweepPoint { value, solution })
                        .collect()
                })
            })
            .collect()
    }

    /// [`SweepEngine::run_batch`] for two-tone HB jobs.
    pub fn run_hb2_batch(&self, jobs: &[Hb2SweepJob]) -> Vec<Result<Vec<Hb2SweepPoint>>> {
        self.run_batch(jobs)
            .into_iter()
            .map(|r| {
                r.map(|points| {
                    points
                        .into_iter()
                        .map(|(value, solution)| Hb2SweepPoint { value, solution })
                        .collect()
                })
            })
            .collect()
    }

    /// [`SweepEngine::run_batch`] for periodic-collocation jobs.
    pub fn run_periodic_fd_batch(
        &self,
        jobs: &[PeriodicFdSweepJob],
    ) -> Vec<Result<Vec<PeriodicFdSweepPoint>>> {
        self.run_batch(jobs)
            .into_iter()
            .map(|r| {
                r.map(|points| {
                    points
                        .into_iter()
                        .map(|(value, solution)| PeriodicFdSweepPoint { value, solution })
                        .collect()
                })
            })
            .collect()
    }

    /// Traces an amplitude × tone-spacing grid: one warm-start chain per
    /// spacing row, rows executed concurrently, all rows sharing the
    /// fingerprint-keyed workspace cache. Points come back row-major
    /// (spacing-outer, amplitude-inner).
    ///
    /// # Errors
    ///
    /// The first failing row's error, by spacing order.
    pub fn run_mpde_grid(&self, sweep: &MpdeGridSweep) -> Result<Vec<MpdeGridPoint>> {
        self.run_mpde_grid_with_budget(sweep, &SolveBudget::unlimited())
    }

    /// [`SweepEngine::run_mpde_grid`] under a grid-wide [`SolveBudget`]:
    /// each row runs under its own [`SolveBudget::child`], so one cancel
    /// stops every row promptly and the first interrupted row's error
    /// surfaces (rows keep their parallel schedule either way).
    ///
    /// # Errors
    ///
    /// The first failing row's error, by spacing order;
    /// [`rfsim_circuit::CircuitError::Interrupted`] when the budget stops
    /// the grid.
    pub fn run_mpde_grid_with_budget(
        &self,
        sweep: &MpdeGridSweep,
        budget: &SolveBudget,
    ) -> Result<Vec<MpdeGridPoint>> {
        let rows = self.pool.run(sweep.spacings.len(), |r| {
            let fd = sweep.spacings[r];
            let backend = MpdeBackend {
                t1_period: sweep.t1_period,
                t2_period: 1.0 / fd,
                options: sweep.options.clone(),
            };
            let mut make = |a: f64| (sweep.make_circuit)(a, fd);
            let row_budget = budget.child();
            let (result, _) = sweep_chain(
                &backend,
                &sweep.amplitudes,
                &mut make,
                &self.cache,
                None,
                None,
                &row_budget,
                None,
            );
            result
        });
        let mut out = Vec::with_capacity(sweep.spacings.len() * sweep.amplitudes.len());
        for (r, row) in rows.into_iter().enumerate() {
            for (amplitude, solution) in row? {
                out.push(MpdeGridPoint {
                    amplitude,
                    spacing: sweep.spacings[r],
                    solution,
                });
            }
        }
        Ok(out)
    }
}

/// A checked-out workspace and the structure it is serving. `key` is
/// `None` for a fresh workspace taken without a probe (empty cache); it is
/// learned from the workspace itself after the first solve.
struct CheckedOut {
    workspace: LinearSolverWorkspace,
    key: Option<PatternFingerprint>,
    dc_fingerprint: PatternFingerprint,
    dim: usize,
}

/// Parks a checked-out workspace back into the cache under the best known
/// key (an unused, unkeyed workspace carries no warmed state and is simply
/// dropped).
fn park(cache: &Mutex<WorkspaceCache>, c: CheckedOut) {
    let key = c.key.or_else(|| c.workspace.pattern_fingerprint());
    if let Some(k) = key {
        cache
            .lock()
            .expect("workspace cache poisoned")
            .checkin(k, c.workspace);
    }
}

/// The warm-start chain shared by every sweep flavour: builds the circuit
/// per point, routes each point's solve to a cache workspace keyed by the
/// Jacobian structure (re-keying transparently when `make_circuit` changes
/// the topology mid-sweep), and seeds each solve from the previous
/// solution. Returns the per-point results and the *first* solution's
/// samples — the value-matched seed for cross-job chaining (the next job
/// in a topology group starts its sweep at its own first value, which a
/// neighbouring family's first-point solution approximates far better
/// than its last).
#[allow(clippy::too_many_arguments)]
fn sweep_chain<B: SweepBackend>(
    backend: &B,
    values: &[f64],
    make_circuit: &mut dyn FnMut(f64) -> Result<Circuit>,
    cache: &Mutex<WorkspaceCache>,
    initial_key: Option<PatternFingerprint>,
    seed: Option<Vec<f64>>,
    budget: &SolveBudget,
    fault: Option<&SolveFault>,
) -> (SweepResult<B::Solution>, Option<Vec<f64>>) {
    let mut out = Vec::with_capacity(values.len());
    let mut prev: Option<Vec<f64>> = None;
    let mut first: Option<Vec<f64>> = None;
    let mut state: Option<CheckedOut> = None;
    let result = sweep_chain_inner(
        backend,
        values,
        make_circuit,
        cache,
        &mut state,
        initial_key,
        seed,
        &mut prev,
        &mut first,
        &mut out,
        budget,
        fault,
    );
    // Interrupted or not, the workspace checks back in reusable: the chain
    // owns it only between points, and the solvers unwind cleanly.
    if let Some(c) = state.take() {
        park(cache, c);
    }
    match result {
        Ok(()) => (Ok(out), first),
        Err(e) => (Err(e), None),
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep_chain_inner<B: SweepBackend>(
    backend: &B,
    values: &[f64],
    make_circuit: &mut dyn FnMut(f64) -> Result<Circuit>,
    cache: &Mutex<WorkspaceCache>,
    state: &mut Option<CheckedOut>,
    mut initial_key: Option<PatternFingerprint>,
    mut seed: Option<Vec<f64>>,
    prev: &mut Option<Vec<f64>>,
    first: &mut Option<Vec<f64>>,
    out: &mut Vec<(f64, B::Solution)>,
    budget: &SolveBudget,
    fault: Option<&SolveFault>,
) -> Result<()> {
    let started = Instant::now();
    // Topologies this chain has already keyed (DC pattern → cache key), so
    // a sweep alternating between structures probes each one once, not at
    // every switch.
    let mut known: Vec<(PatternFingerprint, PatternFingerprint)> = Vec::new();
    // Whether `prev` was produced on a different topology than the current
    // point's: such a carry-over is a hint (retried unseeded on failure),
    // not the trusted same-structure warm start.
    let mut prev_is_hint = false;
    for &value in values {
        // Fail fast between points: the solvers poll the budget inside
        // each point, so this check only closes the gap where a cancel
        // lands between one point finishing and the next starting. The
        // "iterations" slot reports completed sweep points, and there is
        // no single residual for a chain.
        if !budget.is_unlimited() {
            if let Some(i) = budget.interruption(started, out.len(), f64::INFINITY) {
                return Err(i.into());
            }
        }
        if let Some(f) = fault {
            f.run(budget)?;
        }
        let circuit = make_circuit(value)?;
        // Cheap per-point probe: the circuit-level MNA pattern. Any
        // backend-level structure change implies a change here (the grid
        // shape is fixed within one chain), so the expensive backend
        // fingerprint is only recomputed on actual topology changes.
        let dc_fingerprint = circuit.jacobian_fingerprint();
        let same_topology = state
            .as_ref()
            .is_some_and(|c| c.dc_fingerprint == dc_fingerprint);
        if !same_topology {
            if let Some(c) = state.take() {
                // `make_circuit` changed the sparsity pattern mid-sweep:
                // transparently re-key instead of thrashing one workspace
                // (each pattern keeps its own warmed workspace in the
                // cache, ready if the sweep returns to it).
                park(cache, c);
                prev_is_hint = true;
            }
            let mut key = initial_key.take().or_else(|| {
                known
                    .iter()
                    .find(|(dc, _)| *dc == dc_fingerprint)
                    .map(|&(_, k)| k)
            });
            if key.is_none() {
                // The backend fingerprint costs one Jacobian-structure
                // assembly: only pay it when the cache could actually hold
                // a matching workspace.
                let empty = cache.lock().expect("workspace cache poisoned").is_empty();
                if !empty {
                    key = Some(backend.fingerprint(&circuit)?);
                }
            }
            let workspace = match key {
                Some(k) => cache.lock().expect("workspace cache poisoned").checkout(k),
                None => LinearSolverWorkspace::new(),
            };
            *state = Some(CheckedOut {
                workspace,
                key,
                dc_fingerprint,
                dim: backend.dim(&circuit),
            });
        }
        let checked = state.as_mut().expect("checked out above");
        // Warm start: the within-sweep chain wins; the cross-job seed only
        // applies before the first solved point. Either is dropped if the
        // solution layout no longer matches (e.g. a re-key changed the
        // number of unknowns).
        let mut hinted = false;
        let mut guess = prev.take();
        if guess.is_some() {
            hinted = prev_is_hint;
        } else if let Some(s) = seed.take() {
            if s.len() == checked.dim {
                guess = Some(s);
                hinted = true;
            }
        }
        if guess.as_ref().is_some_and(|g| g.len() != checked.dim) {
            guess = None;
            hinted = false;
        }
        // The sweep point's recovery ladder: the (possibly seeded) solve,
        // plus — when the warm start was only a hint (a cross-job seed or
        // cross-topology carry-over, not a contract) — a retry from the
        // job's own initial guess. The driver classifies the failure:
        // interruptions and structural errors are never retried.
        let mut rungs: Vec<Rung<'_, B::Solution>> =
            vec![Rung::new(RungKind::Plain, |exec: &mut RungExec<'_>| {
                let (ws, b) = exec.parts();
                backend.solve(&circuit, guess.as_deref(), ws, b)
            })];
        if hinted {
            rungs.push(Rung::new(
                RungKind::RetryUnseeded,
                |exec: &mut RungExec<'_>| {
                    let (ws, b) = exec.parts();
                    backend.solve(&circuit, None, ws, b)
                },
            ));
        }
        let solution = NewtonDriver::default()
            .solve_ladder("sweep point", &mut checked.workspace, budget, rungs)?
            .value;
        // A workspace taken without a probe reveals its key after warming;
        // record it so later re-keys (and the final check-in) route right.
        // A Krylov-configured workspace cannot self-report (it never builds
        // the CSC assembly), so fall back to the backend fingerprint rather
        // than lose the warmed workspace at park time.
        if checked.key.is_none() {
            checked.key = checked.workspace.pattern_fingerprint();
            if checked.key.is_none() {
                checked.key = backend.fingerprint(&circuit).ok();
            }
        }
        if let Some(k) = checked.key {
            if !known.iter().any(|(dc, _)| *dc == checked.dc_fingerprint) {
                known.push((checked.dc_fingerprint, k));
            }
        }
        *prev = Some(backend.samples(&solution).to_vec());
        prev_is_hint = false;
        if first.is_none() {
            *first = Some(backend.samples(&solution).to_vec());
        }
        out.push((value, solution));
    }
    Ok(())
}

/// Sweeps a circuit-family parameter, rebuilding the circuit per point via
/// `make_circuit` and warm-starting each MPDE solve from the previous
/// solution.
///
/// Sweep points usually share one topology, making every solve after the
/// first a chain of numeric-only refactorisations. If `make_circuit`
/// changes the Jacobian sparsity pattern mid-sweep (an element switched
/// in above some drive, say), the sweep *re-keys* transparently: each
/// pattern gets its own cached workspace, warm starts are dropped
/// whenever the unknown layout changes, and no stale structure is ever
/// applied to the wrong matrix. For batches of families, prefer
/// [`SweepEngine`], which shares the workspaces across jobs and threads.
///
/// # Errors
///
/// Propagates the first failed solve.
pub fn amplitude_sweep<F>(
    values: &[f64],
    t1_period: f64,
    t2_period: f64,
    base_options: MpdeOptions,
    mut make_circuit: F,
) -> Result<Vec<SweepPoint>>
where
    F: FnMut(f64) -> Result<Circuit>,
{
    let backend = MpdeBackend {
        t1_period,
        t2_period,
        options: base_options,
    };
    let cache = Mutex::new(WorkspaceCache::new());
    let (result, _) = sweep_chain(
        &backend,
        values,
        &mut make_circuit,
        &cache,
        None,
        None,
        &SolveBudget::unlimited(),
        None,
    );
    result.map(|points| {
        points
            .into_iter()
            .map(|(value, solution)| SweepPoint { value, solution })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, Waveform, GROUND};

    fn rc_family(
        f1: f64,
        fd: f64,
        r: f64,
        c: f64,
    ) -> impl Fn(f64) -> Result<Circuit> + Send + Sync + 'static {
        move |a: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            b.resistor("R1", inp, out, r)?;
            b.capacitor("C1", out, GROUND, c)?;
            b.build()
        }
    }

    fn small_opts() -> MpdeOptions {
        MpdeOptions {
            n1: 16,
            n2: 8,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_scales_linearly_for_linear_circuit() {
        let (f1, fd) = (1e6, 10e3);
        let amps = [0.1, 0.2, 0.4];
        let points = amplitude_sweep(
            &amps,
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            rc_family(f1, fd, 1e3, 160e-12),
        )
        .expect("sweep");
        assert_eq!(points.len(), 3);
        // Output scales with input for a linear circuit.
        let peak = |p: &SweepPoint| {
            p.solution
                .solution
                .surface(1)
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let (p0, p1, p2) = (peak(&points[0]), peak(&points[1]), peak(&points[2]));
        assert!((p1 / p0 - 2.0).abs() < 0.05, "{p0} {p1}");
        assert!((p2 / p1 - 2.0).abs() < 0.05, "{p1} {p2}");
        // Warm starts make later points cheap.
        let _ = Waveform::Dc(0.0);
    }

    #[test]
    fn amplitude_sweep_rekeys_on_mid_sweep_topology_change() {
        // Above 0.25 V the family switches in a feedthrough capacitor
        // (same unknowns, new coupling): the old single-workspace sweep
        // silently assumed one topology; now each pattern gets its own
        // cached workspace and results match the per-topology runs.
        let (f1, fd) = (1e6, 10e3);
        let family = |a: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            b.resistor("R1", inp, out, 1e3)?;
            b.capacitor("C1", out, GROUND, 160e-12)?;
            if a > 0.25 {
                b.capacitor("CX", inp, out, 20e-12)?;
            }
            b.build()
        };
        let amps = [0.1, 0.2, 0.3, 0.4];
        let points = amplitude_sweep(&amps, 1.0 / f1, 1.0 / fd, small_opts(), family)
            .expect("mixed-topology sweep");
        assert_eq!(points.len(), 4);
        for (p, &a) in points.iter().zip(&amps) {
            let single = rfsim_mpde::solver::solve_mpde(
                &family(a).expect("build"),
                1.0 / f1,
                1.0 / fd,
                small_opts(),
            )
            .expect("single solve");
            let d: f64 = p
                .solution
                .solution
                .data
                .iter()
                .zip(&single.solution.data)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(d < 1e-3, "amplitude {a}: sweep vs single differ by {d}");
        }
    }

    #[test]
    fn amplitude_sweep_survives_dimension_change() {
        // The unknown count itself changes mid-sweep (an added node): the
        // warm start must be dropped, not fed into the wrong-size system.
        let (f1, fd) = (1e6, 10e3);
        let family = |a: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource(
                "VRF",
                inp,
                GROUND,
                BiWaveform::ShearedCarrier {
                    amplitude: a,
                    k: 1,
                    f1,
                    fd,
                    phase: 0.0,
                    envelope: Envelope::Unit,
                },
            )?;
            if a > 0.15 {
                let mid = b.node("mid");
                b.resistor("R1a", inp, mid, 0.5e3)?;
                b.resistor("R1b", mid, out, 0.5e3)?;
            } else {
                b.resistor("R1", inp, out, 1e3)?;
            }
            b.capacitor("C1", out, GROUND, 160e-12)?;
            b.build()
        };
        let points = amplitude_sweep(
            &[0.1, 0.2],
            1.0 / f1,
            1.0 / fd,
            MpdeOptions {
                n1: 8,
                n2: 4,
                ..Default::default()
            },
            family,
        )
        .expect("dimension-changing sweep");
        assert_eq!(points.len(), 2);
        assert_ne!(
            points[0].solution.stats.system_size,
            points[1].solution.stats.system_size
        );
    }

    #[test]
    fn engine_batch_matches_sequential_bit_for_bit() {
        let (f1, fd) = (1e6, 10e3);
        let jobs = vec![
            MpdeSweepJob::new(
                "rc",
                vec![0.1, 0.2],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                rc_family(f1, fd, 1e3, 160e-12),
            ),
            MpdeSweepJob::new(
                "rrc",
                vec![0.1, 0.3],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                |a: f64| {
                    let mut b = CircuitBuilder::new();
                    let inp = b.node("in");
                    let mid = b.node("mid");
                    let out = b.node("out");
                    b.vsource(
                        "VRF",
                        inp,
                        GROUND,
                        BiWaveform::ShearedCarrier {
                            amplitude: a,
                            k: 1,
                            f1: 1e6,
                            fd: 10e3,
                            phase: 0.0,
                            envelope: Envelope::Unit,
                        },
                    )?;
                    b.resistor("R1", inp, mid, 500.0)?;
                    b.resistor("R2", mid, out, 500.0)?;
                    b.capacitor("C1", out, GROUND, 160e-12)?;
                    b.build()
                },
            ),
        ];
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let batch = engine.run_mpde_batch(&jobs);
        // Distinct topologies → two groups, each on a fresh workspace:
        // identical execution to sequential amplitude_sweep calls.
        assert_eq!(engine.cache_stats().patterns, 2);
        let seq_rc = amplitude_sweep(
            &[0.1, 0.2],
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            rc_family(f1, fd, 1e3, 160e-12),
        )
        .expect("sequential rc");
        let batch_rc = batch[0].as_ref().expect("batch rc");
        for (b, s) in batch_rc.iter().zip(&seq_rc) {
            assert_eq!(b.solution.solution.data, s.solution.solution.data);
        }
        assert_eq!(batch[1].as_ref().expect("batch rrc").len(), 2);
    }

    #[test]
    fn engine_groups_same_topology_jobs() {
        let (f1, fd) = (1e6, 10e3);
        let jobs: Vec<MpdeSweepJob> = [1e3, 2e3, 4e3]
            .iter()
            .map(|&r| {
                MpdeSweepJob::new(
                    format!("r{r}"),
                    vec![0.1, 0.2],
                    1.0 / f1,
                    1.0 / fd,
                    small_opts(),
                    rc_family(f1, fd, r, 160e-12),
                )
            })
            .collect();
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let results = engine.run_mpde_batch(&jobs);
        for r in &results {
            assert_eq!(r.as_ref().expect("sweep").len(), 2);
        }
        let stats = engine.cache_stats();
        // One topology: one group, one workspace threaded through all
        // three jobs (two cache hits), parked once at the end.
        assert_eq!(stats.patterns, 1);
        assert_eq!(stats.parked, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        // A second batch starts from the parked workspace.
        let again = engine.run_mpde_batch(&jobs[..1]);
        assert!(again[0].is_ok());
        assert_eq!(engine.cache_stats().hits, 3);
    }

    #[test]
    fn engine_reports_per_job_errors() {
        let (f1, fd) = (1e6, 10e3);
        let jobs = vec![
            MpdeSweepJob::new("empty", vec![], 1.0 / f1, 1.0 / fd, small_opts(), {
                rc_family(f1, fd, 1e3, 160e-12)
            }),
            MpdeSweepJob::new(
                "bad-build",
                vec![0.1],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                |_a: f64| {
                    let mut b = CircuitBuilder::new();
                    let inp = b.node("in");
                    b.resistor("R1", inp, GROUND, -1.0)?; // invalid value
                    b.build()
                },
            ),
            MpdeSweepJob::new(
                "good",
                vec![0.1],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                rc_family(f1, fd, 1e3, 160e-12),
            ),
        ];
        let engine = SweepEngine::with_pool(WorkerPool::new(1));
        let results = engine.run_mpde_batch(&jobs);
        assert!(matches!(&results[0], Ok(v) if v.is_empty()));
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().expect("good job").len(), 1);
    }

    #[test]
    fn hb2_and_periodic_fd_batches_run() {
        let (f1, fd) = (1e6, 10e3);
        let hb_jobs = vec![Hb2SweepJob::new(
            "hb-rc",
            vec![0.1, 0.2],
            1.0 / f1,
            1.0 / fd,
            rfsim_hb::Hb2Options {
                n1: 8,
                n2: 4,
                ..Default::default()
            },
            rc_family(f1, fd, 1e3, 160e-12),
        )];
        let fd_jobs = vec![PeriodicFdSweepJob::new(
            "fd-rc",
            vec![0.5, 1.0],
            1.0 / 200e3,
            PeriodicFdOptions {
                n_samples: 32,
                ..Default::default()
            },
            |a: f64| {
                let mut b = CircuitBuilder::new();
                let inp = b.node("in");
                let out = b.node("out");
                b.vsource("V1", inp, GROUND, Waveform::sine(a, 200e3))?;
                b.resistor("R1", inp, out, 1e3)?;
                b.capacitor("C1", out, GROUND, 1e-9)?;
                b.build()
            },
        )];
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let hb = engine.run_hb2_batch(&hb_jobs);
        let points = hb[0].as_ref().expect("hb sweep");
        assert_eq!(points.len(), 2);
        // Linear circuit: amplitude doubles with drive.
        let peak = |p: &Hb2SweepPoint| {
            p.solution
                .surface(1)
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        assert!((peak(&points[1]) / peak(&points[0]) - 2.0).abs() < 0.05);
        let pss = engine.run_periodic_fd_batch(&fd_jobs);
        assert_eq!(pss[0].as_ref().expect("fd sweep").len(), 2);
        // HB and collocation patterns differ: two cache entries.
        assert_eq!(engine.cache_stats().patterns, 2);
    }

    #[test]
    fn engine_surfaces_solver_stats() {
        let (f1, fd) = (1e6, 10e3);
        let jobs = vec![MpdeSweepJob::new(
            "rc",
            vec![0.1, 0.2, 0.3],
            1.0 / f1,
            1.0 / fd,
            small_opts(),
            rc_family(f1, fd, 1e3, 160e-12),
        )];
        let engine = SweepEngine::with_pool(WorkerPool::new(1));
        let results = engine.run_mpde_batch(&jobs);
        assert_eq!(results[0].as_ref().expect("sweep").len(), 3);
        let stats = engine.solver_stats();
        assert!(stats.refactorizations >= 2, "{stats:?}");
        assert_eq!(stats.full_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.full_factorizations, 1, "{stats:?}");
    }

    #[test]
    fn grid_sweep_covers_amplitude_times_spacing() {
        let f1 = 1e6;
        let sweep = MpdeGridSweep::new(
            "rc-grid",
            vec![0.1, 0.2],
            vec![10e3, 20e3],
            1.0 / f1,
            MpdeOptions {
                n1: 8,
                n2: 4,
                ..Default::default()
            },
            move |a, fd| rc_family(f1, fd, 1e3, 160e-12)(a),
        );
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let points = engine.run_mpde_grid(&sweep).expect("grid");
        assert_eq!(points.len(), 4);
        // Row-major: spacing outer, amplitude inner.
        assert_eq!(points[0].spacing, 10e3);
        assert_eq!(points[1].spacing, 10e3);
        assert_eq!(points[3].spacing, 20e3);
        assert_eq!(points[0].amplitude, 0.1);
        assert_eq!(points[1].amplitude, 0.2);
        // Tone spacing changes values, not structure: one pattern serves
        // the whole grid.
        assert_eq!(engine.cache_stats().patterns, 1);
        // Linearity across the grid: each row scales with amplitude.
        for row in 0..2 {
            let p0 = &points[2 * row];
            let p1 = &points[2 * row + 1];
            let peak = |p: &MpdeGridPoint| {
                p.solution
                    .solution
                    .surface(1)
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()))
            };
            assert!((peak(p1) / peak(p0) - 2.0).abs() < 0.05);
        }
    }

    fn small_grid(f1: f64) -> MpdeGridSweep {
        MpdeGridSweep::new(
            "rc-grid",
            vec![0.1, 0.2],
            vec![10e3, 20e3],
            1.0 / f1,
            MpdeOptions {
                n1: 8,
                n2: 4,
                ..Default::default()
            },
            move |a, fd| rc_family(f1, fd, 1e3, 160e-12)(a),
        )
    }

    #[test]
    fn batch_cancel_fans_out_to_every_job_and_leaves_engine_reusable() {
        let (f1, fd) = (1e6, 10e3);
        let jobs: Vec<MpdeSweepJob> = [1e3, 2e3]
            .iter()
            .map(|&r| {
                MpdeSweepJob::new(
                    format!("r{r}"),
                    vec![0.1, 0.2],
                    1.0 / f1,
                    1.0 / fd,
                    small_opts(),
                    rc_family(f1, fd, r, 160e-12),
                )
            })
            .collect();
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        let results = engine.run_batch_with_budget(&jobs, &budget);
        for r in &results {
            let e = r.as_ref().expect_err("cancelled batch");
            let i = e.interrupted().expect("typed interruption");
            assert_eq!(i.reason, rfsim_numerics::InterruptReason::Cancelled);
        }
        // The cancel poisoned nothing: the same engine solves the same
        // batch cleanly afterwards.
        let retry = engine.run_batch(&jobs);
        assert!(retry.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn per_job_budget_and_fault_fail_only_their_job() {
        let (f1, fd) = (1e6, 10e3);
        let job = |r: f64| {
            MpdeSweepJob::new(
                format!("r{r}"),
                vec![0.1, 0.2],
                1.0 / f1,
                1.0 / fd,
                small_opts(),
                rc_family(f1, fd, r, 160e-12),
            )
        };
        // A cancelled per-job budget interrupts its job; a diverge fault
        // fails its job numerically; the healthy neighbour is untouched.
        let cancelled = rfsim_numerics::CancelToken::new();
        cancelled.cancel();
        let jobs = vec![
            job(1e3).with_budget(SolveBudget::unlimited().with_cancel(cancelled)),
            job(2e3),
            job(3e3).with_fault(rfsim_circuit::fault::SolveFault::diverge()),
        ];
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let results = engine.run_batch_with_budget(&jobs, &SolveBudget::unlimited());
        let interrupted = results[0].as_ref().expect_err("cancelled job");
        assert!(interrupted.is_interrupted());
        assert!(results[1].is_ok(), "healthy neighbour survives");
        let faulted = results[2].as_ref().expect_err("faulted job");
        assert!(
            !faulted.is_interrupted(),
            "a diverge fault is a numerical failure, not an interruption: {faulted}"
        );
    }

    #[test]
    fn grid_cancel_surfaces_interruption() {
        let f1 = 1e6;
        let sweep = small_grid(f1);
        let engine = SweepEngine::with_pool(WorkerPool::new(2));
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        let err = engine
            .run_mpde_grid_with_budget(&sweep, &budget)
            .expect_err("cancelled grid");
        assert!(err.is_interrupted(), "{err}");
        // And the engine still serves the grid afterwards.
        assert_eq!(engine.run_mpde_grid(&sweep).expect("retry").len(), 4);
    }
}
