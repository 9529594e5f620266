"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail
line per criterion.  Every expected value is an analytic oracle
independent of the quadrature/Gram pipeline (closed forms or series
built from exact norm integrals).
"""

import math
import time

import numpy as np

from conftest import W2_MINUS_Z, W2_MINUS_Z2, annulus_evaluator, branches_at, disc_evaluator
from redbergman import (
    BlaschkeProduct,
    ConstantWeight,
    PowerMap,
    PowerWeight,
    adjoint_residual_matrix,
    annulus_grid,
    build_disc_quadrature,
    disc_grid,
    monomial_basis,
    operator_bound_check,
    orthonormalize,
    pullback_weight,
    recover_map,
    verify_correspondence,
    verify_proper,
)
from redbergman.oracles import annulus_kernel, disc_kernel, disc_power_weight_kernel

MODULE_T0 = time.perf_counter()


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_criterion_1_disc_kernel_oracle():
    t0 = time.perf_counter()
    ev = disc_evaluator(40, 40, 160)
    grid = disc_grid(0.7, 21)
    got = ev.eval_kernel_grid(grid, grid)
    want = disc_kernel(grid[:, None], grid[None, :])
    err = max_rel(got, want)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (disc kernel oracle)",
           err < 1e-6 and elapsed < 10.0,
           f"max rel err {err:.3e} (tol 1e-6), runtime {elapsed:.2f}s (limit 10s)")


def test_criterion_2_annulus_reduced_oracle():
    ev = annulus_evaluator(0.5, 1.0, -20, 20, n_radial=48, n_angular=96)
    grid = annulus_grid(0.55, 0.95, 9, 12)
    got = ev.eval_kernel_grid(grid, grid)
    want = annulus_kernel(grid[:, None], grid[None, :], 0.5, 1.0, -20, 20)
    err = max_rel(got, want)

    # full minus reduced recovers the residue term (z conj(w))^-1 / (2 pi ln 2)
    from redbergman import KernelEvaluator, laurent_basis
    one = ConstantWeight()
    full_basis = laurent_basis(0.0, -20, 20, ev.onb.rule.domain)
    full = KernelEvaluator(orthonormalize(full_basis, ev.onb.rule, one))
    sub = grid[:: 7]
    diff = full.eval_kernel_grid(sub, sub) - ev.eval_kernel_grid(sub, sub)
    term = 1.0 / (sub[:, None] * np.conj(sub[None, :])) / (2.0 * math.pi * math.log(2.0))
    split_abs = float(np.max(np.abs(diff - term)))
    split_rel = float(np.max(np.abs(diff - term) / np.abs(term)))
    report("criterion 2 (annulus reduced kernel oracle)",
           err < 1e-5 and split_abs < 1e-5 and split_rel < 1e-5,
           f"series max rel err {err:.3e} (tol 1e-5), "
           f"full-minus-reduced err {split_abs:.3e} abs / {split_rel:.3e} rel (tol 1e-5)")


def test_criterion_3_proper_map_disc():
    ev = disc_evaluator(40, 40, 160)
    f = PowerMap(2)
    rep = verify_proper(f, ev.onb, ev.onb, disc_grid(0.7, 21), disc_grid(0.49, 20))
    closed = 1.0 / (math.pi * (1.0 - 0.075) ** 2)
    lhs = 2.0 * 0.5 * ev.eval_kernel(0.25, 0.3)
    pts, der = branches_at(f, 0.3, False)
    rhs = (ev.eval_kernel_grid([0.5], pts) @ der.conj()).item()
    spot_ok = abs(lhs - closed) < 1e-6 and abs(rhs - closed) < 1e-6
    report("criterion 3 (transformation formula, z^2 on the disc)",
           rep.max_rel_residual < 1e-6 and spot_ok,
           f"max rel residual {rep.max_rel_residual:.3e} (tol 1e-6), "
           f"spot value {lhs:.6f} vs {closed:.6f}")


def test_criterion_4_proper_map_annulus():
    ev1 = annulus_evaluator(math.sqrt(0.5), 1.0, -39, 41)
    ev2 = annulus_evaluator(0.5, 1.0, -20, 20)
    f = PowerMap(2, ev1.onb.rule.domain, ev2.onb.rule.domain)
    rep = verify_proper(f, ev1.onb, ev2.onb, annulus_grid(0.75, 0.95, 6, 12),
                        annulus_grid(0.55, 0.95, 8, 12))
    report("criterion 4 (transformation formula, z^2 between annuli)",
           rep.excluded == 0 and rep.max_rel_residual < 1e-5,
           f"max rel residual {rep.max_rel_residual:.3e} (tol 1e-5), "
           f"excluded {rep.excluded}")


def test_criterion_5_correspondences():
    ev = disc_evaluator(40, 40, 160)
    zg = disc_grid(0.7, 21)
    wg = disc_grid(0.7, 20)
    rep_mirror = verify_correspondence(W2_MINUS_Z2, ev.onb, ev.onb, zg, wg)
    rep_sqrt = verify_correspondence(W2_MINUS_Z, ev.onb, ev.onb, zg, wg)
    report("criterion 5 (correspondence transformation formulas)",
           rep_mirror.max_rel_residual < 1e-6 and rep_sqrt.max_rel_residual < 1e-6,
           f"w^2-z^2 residual {rep_mirror.max_rel_residual:.3e}, "
           f"w^2-z residual {rep_sqrt.max_rel_residual:.3e} (tol 1e-6)")


def test_criterion_6_weighted():
    f = PowerMap(2)
    ev2 = disc_evaluator(40, 40, 160, weight_kind="abs2")
    ev1 = disc_evaluator(40, 40, 160, weight_kind="pullback_abs2_sq")
    grid = disc_grid(0.7, 21)

    err2 = max_rel(ev2.eval_kernel_grid(grid, grid),
                   disc_power_weight_kernel(grid[:, None], grid[None, :], 1.0))
    err1 = max_rel(ev1.eval_kernel_grid(grid, grid),
                   disc_power_weight_kernel(grid[:, None], grid[None, :], 2.0))

    zg, wg = disc_grid(0.7, 21), disc_grid(0.49, 20)
    rep = verify_proper(f, ev1.onb, ev2.onb, zg, wg)

    wrep = verify_proper(f, disc_evaluator(40, 40, 160, weight_kind="pullback_one").onb,
                         disc_evaluator(40, 40, 160).onb, zg, wg)
    prep = verify_proper(f, disc_evaluator(40, 40, 160).onb, disc_evaluator(40, 40, 160).onb,
                         zg, wg)
    bitwise = (wrep.max_rel_residual == prep.max_rel_residual
               and wrep.max_abs_residual == prep.max_abs_residual
               and wrep.lhs_scale == prep.lhs_scale
               and wrep.excluded == prep.excluded)
    report("criterion 6 (weighted transformation formula)",
           err2 < 1e-6 and err1 < 1e-6 and rep.max_rel_residual < 1e-6 and bitwise,
           f"weighted kernel errs {err2:.3e}/{err1:.3e}, residual "
           f"{rep.max_rel_residual:.3e} (tol 1e-6), nu=1 bitwise match {bitwise}")


def test_criterion_7_adjointness_and_bound():
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    one = ConstantWeight()
    onb = orthonormalize(monomial_basis(0.0, 8, rule.domain), rule, one)
    gamma_res = 0.0
    bound_ratio = 0.0
    for corr in (W2_MINUS_Z, W2_MINUS_Z2):
        gamma_res = max(gamma_res, float(np.max(adjoint_residual_matrix(corr, onb, onb, 5))))
        bound_ratio = max(bound_ratio, float(np.max(operator_bound_check(corr, onb, onb, 5))))

    nu = PowerWeight(1.0)
    f = PowerMap(2)
    onb1 = orthonormalize(monomial_basis(0.0, 8, rule.domain), rule,
                          pullback_weight(nu, f))
    onb2 = orthonormalize(monomial_basis(0.0, 8, rule.domain), rule, nu)
    lambda_res = float(np.max(adjoint_residual_matrix(f, onb1, onb2, 5)))

    report("criterion 7 (adjointness and operator bound)",
           gamma_res < 1e-7 and lambda_res < 1e-7 and bound_ratio <= 1 + 1e-6,
           f"gamma residual {gamma_res:.3e}, lambda residual {lambda_res:.3e} "
           f"(tol 1e-7), bound ratio {bound_ratio:.9f} (limit 1+1e-6)")


def test_criterion_8_map_recovery():
    ev = disc_evaluator(40, 40, 160)
    grid = disc_grid(0.6, 21)

    f = BlaschkeProduct([0.3, -0.2])
    rec = recover_map(f, ev.onb, grid)
    blaschke_err = float(np.max(np.abs(rec.ratio_half[rec.valid] - f(grid)[rec.valid])))

    rec_id = recover_map(PowerMap(1), ev.onb, grid)
    id_err = float(np.max(np.abs(rec_id.ratio_half - grid)))

    report("criterion 8 (kernel-ratio map recovery)",
           not rec.probe_shifted and rec.excluded == 0
           and blaschke_err < 1e-4 and id_err < 1e-8,
           f"Blaschke sup err {blaschke_err:.3e} (tol 1e-4), "
           f"identity sup err {id_err:.3e} (tol 1e-8)")


def test_criterion_9_structural_invariants():
    ev = disc_evaluator(40, 40, 160)
    rng = np.random.default_rng(2024)
    pts = 0.7 * np.sqrt(rng.random(12)) * np.exp(2j * np.pi * rng.random(12))

    sym = max(abs(ev.eval_kernel(a, b) - np.conj(ev.eval_kernel(b, a)))
              for a in pts[:6] for b in pts[6:])
    positive = all(ev.eval_kernel(z, z).real > 0 for z in pts)

    xi = 0.3
    # one node_sums matrix over phi_0..phi_4, K(., P) for P in pts[:8],
    # K(., xi) and 2z
    rows = np.vstack([np.eye(5, ev.onb.retained_count),
                      ev.onb.phi_values(np.r_[pts[:8], xi]).conj()])
    s = ev.onb.node_sums(rows, [lambda z: 2.0 * z])
    phi_pts = ev.onb.phi_values(pts[:5], 5)
    repro = max(abs(s[k, 5 + k] - phi_pts[k, k]) for k in range(5))

    p = ev.onb.phi_values(pts[:8])
    res = np.abs(np.sum(p[:, None] * p.conj(), axis=-1) - s[5:13, 5:13].T)
    selfrep = max(res[i, 4 + i] for i in range(4))

    pairing_err = abs(s[14, 13] - 2.0 * xi)

    elapsed = time.perf_counter() - MODULE_T0
    report("criterion 9 (structural invariants)",
           sym == 0.0 and positive and repro < 1e-6 and selfrep < 1e-8
           and pairing_err < 1e-5 and elapsed < 120.0,
           f"conj-sym {sym:.1e}, positive {positive}, reproduce {repro:.3e} "
           f"(tol 1e-6), self-repro {selfrep:.3e} (tol 1e-8), Dirichlet pairing "
           f"{pairing_err:.3e} (tol 1e-5), acceptance runtime {elapsed:.1f}s (limit 120s)")
