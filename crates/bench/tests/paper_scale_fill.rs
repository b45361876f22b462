//! LU fill and refactor work on the paper's 40×30 mixer Jacobian, as
//! deterministic counts: the block nested-dissection ordering the MPDE
//! solve uses, against the reverse Cuthill–McKee ordering it replaced.
//! Counts, not clocks, so the comparison holds on any machine.

use rfsim_bench::gate::mpde_jacobian;
use rfsim_bench::paper::{comparison_grid, scaled_mixer};
use rfsim_circuit::newton::NewtonSystem;
use rfsim_mpde::fdtd::MpdeSystem;
use rfsim_numerics::sparse_lu::{LuOptions, Ordering, SymbolicLu};

#[test]
fn nested_dissection_cuts_fill_and_refactor_work_at_paper_scale() {
    let (n1, n2) = (40, 30);
    let mixer = scaled_mixer(10e6, 200.0);
    let sys = MpdeSystem::new(
        &mixer.circuit,
        comparison_grid(&mixer, n1, n2),
        Default::default(),
        Default::default(),
    )
    .expect("system");
    // The block the direct solver dissects over is the system's own.
    let block = sys.block_size();
    assert_eq!(block, mixer.circuit.num_unknowns());
    let csc = mpde_jacobian(n1, n2).to_csc();
    assert_eq!(csc.rows(), n1 * n2 * block);
    let analyze = |ordering| {
        SymbolicLu::analyze(
            &csc,
            LuOptions {
                ordering,
                ..Default::default()
            },
        )
        .expect("analyze")
    };
    let rcm = analyze(Ordering::Rcm);
    let nd = analyze(Ordering::NestedDissection { block });
    let report = format!(
        "nnz(A) {}: RCM nnz(L+U) {} ({:.2}x fill), refactor {} multiply-adds; \
         nested dissection nnz(L+U) {} ({:.2}x fill, {:.3} of RCM), refactor {} \
         multiply-adds ({:.3} of RCM). Pinned when written: RCM 1225765 / 25691807, \
         nested dissection 373323 / 6632222 (0.305 / 0.258 of RCM).",
        csc.nnz(),
        rcm.nnz(),
        rcm.nnz() as f64 / csc.nnz() as f64,
        rcm.refactor_flops(),
        nd.nnz(),
        nd.nnz() as f64 / csc.nnz() as f64,
        nd.nnz() as f64 / rcm.nnz() as f64,
        nd.refactor_flops(),
        nd.refactor_flops() as f64 / rcm.refactor_flops() as f64,
    );
    assert!(
        5 * nd.nnz() <= 4 * rcm.nnz(),
        "fill not cut by 20%: {report}"
    );
    assert!(
        nd.refactor_flops() < rcm.refactor_flops(),
        "refactor work not cut: {report}"
    );
}
