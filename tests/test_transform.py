"""Branch sums, adjointness, transformation residuals, recovery."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import W2_MINUS_Z, W2_MINUS_Z2, W_MINUS_Z, annulus_evaluator, disc_evaluator
from redbergman import (
    BlaschkeProduct,
    ConstantWeight,
    PowerMap,
    PowerWeight,
    adjoint_residual_matrix,
    annulus_grid,
    branch_table,
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
from redbergman.holobasis import RawBasis
from redbergman.transform import source_terms

ONE = ConstantWeight()


def branch_sum(model, func, points, forward):
    """sum_k d_k func(p_k) over the branches (p_k, d_k) of each query."""
    pts, der = branch_table(model, points, forward)
    return np.sum(der * func(pts), axis=1)


def disc_system(rule, weight=ONE, degree=8):
    """Orthonormal monomials on a centred disc rule: element k is c_k z^k."""
    return orthonormalize(monomial_basis(0.0, degree, rule.domain), rule, weight)


def pairwise_residuals(model, onb1, onb2, n):
    """adjoint_residual_matrix one pair of elements at a time, each
    element summed over the branches by itself."""
    nodes1, nodes2 = onb1.rule.nodes, onb2.rule.nodes
    w1 = onb1.rule.weights * onb1.weight(nodes1)
    w2 = onb2.rule.weights * onb2.weight(nodes2)
    res = np.empty((n, n))
    for i in range(n):
        def u(z):
            return onb2.phi_values(z)[..., i]
        for j in range(n):
            def v(z):
                return onb1.phi_values(z)[..., j]
            lhs = np.sum(w1 * branch_sum(model, u, nodes1, True) * np.conj(v(nodes1)))
            rhs = np.sum(w2 * u(nodes2) * np.conj(branch_sum(model, v, nodes2, False)))
            res[i, j] = abs(lhs - rhs)
    return res


def max_residual(model, rule, n):
    """max |<op1 u, v>_1 - <u, op2 v>_2| over the first n unweighted
    orthonormal elements u, v, which span 1, z, ..., z^(n-1)."""
    onb = disc_system(rule)
    return float(np.max(adjoint_residual_matrix(model, onb, onb, n)))


# ---------------------------------------------------------------------------
# branch sums

def test_gamma_identity_correspondence():
    u = lambda z: np.exp(z)
    z = np.array([0.3 + 0.2j])
    assert branch_sum(W_MINUS_Z, u, z, True)[0] == pytest.approx(u(z[0]))
    assert branch_sum(W_MINUS_Z, u, z, False)[0] == pytest.approx(u(z[0]))


def test_gamma1_derivative_cancellation():
    # branches +-sqrt(z) carry opposite derivatives, so constants map to 0
    zs = np.array([0.3, 0.5 - 0.2j, 0.04j])
    assert np.max(np.abs(branch_sum(W2_MINUS_Z, np.ones_like, zs, True))) < 1e-10


def test_gamma2_sqrt_correspondence():
    ws = np.array([0.4, 0.3 + 0.3j])
    got = branch_sum(W2_MINUS_Z, lambda z: z, ws, False)
    assert got == pytest.approx(2.0 * ws**3, abs=1e-12)


def test_lambda_operators():
    f = PowerMap(2)
    z = 0.37 - 0.11j
    assert branch_sum(f, np.ones_like, [z], True)[0] == pytest.approx(2.0 * z)

    # the backward sum of z^2 vanishes: the branch contributions cancel;
    # the derivative of the summed primitives is the independent oracle
    rng = np.random.default_rng(23)
    ws = np.array([0.05 + 0.8 * rng.random() * np.exp(2j * np.pi * rng.random())
                   for _ in range(10)])
    got = branch_sum(f, lambda s: s**2, ws, False)
    h = 1e-6

    def primitive_sum(ww):
        pts, _ = branch_table(f, ww, forward=False)
        return np.sum(pts**3, axis=1) / 3.0

    fd = (primitive_sum(ws + h) - primitive_sum(ws - h)) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-8
    assert np.max(np.abs(got)) < 1e-10

    ident = PowerMap(1)
    for g in (lambda s: s, lambda s: np.exp(s)):
        w = 0.25 + 0.3j
        assert branch_sum(ident, g, [w], True)[0] == pytest.approx(g(w))
        assert branch_sum(ident, g, [w], False)[0] == pytest.approx(g(w))


# ---------------------------------------------------------------------------
# adjointness and the operator bound

def test_adjoint_identity_map_exact():
    rule = build_disc_quadrature(0.0, 1.0, 20, 40)
    assert max_residual(PowerMap(1), rule, 3) < 1e-10


def test_adjoint_power2_unweighted():
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    assert max_residual(PowerMap(2), rule, 3) < 1e-7


def test_adjoint_correspondence():
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    assert max_residual(W2_MINUS_Z2, rule, 2) < 1e-7


def test_adjoint_orthonormal_pairs_gamma_and_lambda():
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    onb = disc_system(rule)
    for corr in (W2_MINUS_Z, W2_MINUS_Z2):
        res = adjoint_residual_matrix(corr, onb, onb, 5)
        assert np.max(res) < 1e-7

    # weighted Lambda adjointness, nu = |w|^2 under f = z^2
    nu = PowerWeight(1.0)
    f = PowerMap(2)
    res = adjoint_residual_matrix(f, disc_system(rule, pullback_weight(nu, f)),
                                  disc_system(rule, nu), 5)
    assert np.max(res) < 1e-7


def test_adjoint_lambda_fails_in_the_wrong_source_weight():
    # the source system must be orthonormal in nu o f, not nu: the residual
    # matrix reads each system's own weight, so a wrong one shows
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    nu = PowerWeight(1.0)
    f = PowerMap(2)
    in_nu = disc_system(rule, nu)
    right = np.max(adjoint_residual_matrix(f, disc_system(rule, pullback_weight(nu, f)),
                                           in_nu, 5))
    wrong = adjoint_residual_matrix(f, in_nu, in_nu, 5)
    assert right < 1e-12
    assert 0.3 < np.max(wrong) < 0.5
    assert np.allclose(wrong, pairwise_residuals(f, in_nu, in_nu, 5), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("n", [1, 5])
def test_adjoint_evaluates_the_raw_basis_once_per_point_set(monkeypatch, n):
    # the source and target nodes and the forward and backward branch points
    calls = []
    real = RawBasis.values

    def counting(self, pts):
        calls.append(pts)
        return real(self, pts)

    monkeypatch.setattr(RawBasis, "values", counting)
    rule = build_disc_quadrature(0.0, 1.0, 12, 24)
    onb = disc_system(rule)
    calls.clear()
    res = adjoint_residual_matrix(W2_MINUS_Z, onb, onb, n)
    assert res.shape == (n, n)
    assert len(calls) == 4
    # the adjointness and bound checks share the source terms, as run_adjoint's
    # gamma block does: still four evaluations for both
    ratios = operator_bound_check(W2_MINUS_Z, onb, onb, n)
    calls.clear()
    source = source_terms(W2_MINUS_Z, onb, onb, n)
    assert adjoint_residual_matrix(W2_MINUS_Z, onb, onb, n, source).tobytes() == res.tobytes()
    assert operator_bound_check(W2_MINUS_Z, onb, onb, n, source).tobytes() == ratios.tobytes()
    assert len(calls) == 4


def test_operator_bound():
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    onb = disc_system(rule)
    # the identity correspondence maps each element to itself
    assert np.all(operator_bound_check(W_MINUS_Z, onb, onb, 3) == 1.0)

    for corr in (W2_MINUS_Z, W2_MINUS_Z2):
        ratios = operator_bound_check(corr, onb, onb, 5)
        assert ratios.shape == (5,)
        assert np.all(ratios <= 1 + 1e-6)


# ---------------------------------------------------------------------------
# transformation formulas

def test_verify_proper_identity_is_exact():
    ev = disc_evaluator(20, 24, 64)
    grid = disc_grid(0.6, 9)
    report = verify_proper(PowerMap(1), ev, ev, grid, grid)
    assert report.excluded == 0
    assert report.max_rel_residual < 1e-12


def test_verify_proper_power2_disc():
    ev = disc_evaluator()
    report = verify_proper(PowerMap(2), ev, ev, disc_grid(0.7, 11), disc_grid(0.49, 10))
    assert report.max_rel_residual < 1e-6
    # spot value from the closed-form disc kernel
    lhs = 2.0 * 0.5 * ev.eval_kernel(0.25, 0.3)
    assert lhs == pytest.approx(1.0 / (math.pi * (1 - 0.075) ** 2), abs=1e-6)


def test_verify_proper_residual_shrinks_under_refinement():
    f = PowerMap(2)
    zg, wg = disc_grid(0.7, 9), disc_grid(0.49, 8)
    coarse = verify_proper(f, disc_evaluator(12, 20, 80), disc_evaluator(12, 20, 80),
                           zg, wg)
    fine = verify_proper(f, disc_evaluator(24, 40, 160), disc_evaluator(24, 40, 160),
                         zg, wg)
    assert fine.max_rel_residual <= coarse.max_rel_residual * 1.5 + 1e-12
    assert fine.max_rel_residual < coarse.max_rel_residual


def test_verify_proper_power2_annulus_reduced():
    # source sqrt(0.5) < |z| < 1 maps onto 0.5 < |w| < 1 under z^2; the
    # index windows are matched (m = 2n+1) so the truncated series align
    ev1 = annulus_evaluator(math.sqrt(0.5), 1.0, -39, 41)
    ev2 = annulus_evaluator(0.5, 1.0, -20, 20)
    zg = annulus_grid(0.75, 0.95, 4, 8)
    wg = annulus_grid(0.55, 0.95, 5, 8)
    report = verify_proper(PowerMap(2, ev1.rule.domain, ev2.rule.domain), ev1, ev2, zg, wg)
    assert report.excluded == 0
    assert report.max_rel_residual < 1e-5

    # refining the quadrature one notch keeps the residual at rounding level
    fine1 = annulus_evaluator(math.sqrt(0.5), 1.0, -39, 41, n_radial=64, n_angular=256)
    fine2 = annulus_evaluator(0.5, 1.0, -20, 20, n_radial=64, n_angular=128)
    fine = verify_proper(PowerMap(2, fine1.rule.domain, fine2.rule.domain), fine1, fine2, zg, wg)
    assert fine.max_rel_residual <= report.max_rel_residual * 1.5 + 1e-12


def test_verify_correspondence_identity_and_mirror():
    ev = disc_evaluator(20, 24, 64)
    grid = disc_grid(0.6, 9)
    report = verify_correspondence(W_MINUS_Z, ev, ev, grid, grid)
    assert report.max_rel_residual < 1e-12

    ev = disc_evaluator()
    report = verify_correspondence(W2_MINUS_Z2, ev, ev, disc_grid(0.7, 11),
                                   disc_grid(0.7, 10))
    assert report.max_rel_residual < 1e-6


def test_verify_correspondence_sqrt():
    ev = disc_evaluator()
    report = verify_correspondence(W2_MINUS_Z, ev, ev, disc_grid(0.7, 11),
                                   disc_grid(0.7, 10))
    assert report.max_rel_residual < 1e-6


def test_verify_correspondence_asymmetric_branch_counts():
    # Q = w^2 - z^3 on the disc: two forward branches, three backward
    from conftest import corr_from_terms

    corr = corr_from_terms([(0, 2, 1.0), (3, 0, -1.0)])
    assert (corr.p, corr.q) == (2, 3)
    ev = disc_evaluator()
    report = verify_correspondence(corr, ev, ev, disc_grid(0.7, 11),
                                   disc_grid(0.7, 10))
    assert report.max_rel_residual < 1e-6


def test_verify_proper_blaschke_map():
    f = BlaschkeProduct([0.0, 0.5])
    ev = disc_evaluator()
    report = verify_proper(f, ev, ev, disc_grid(0.6, 11), disc_grid(0.5, 10))
    assert report.max_rel_residual < 1e-6


def test_verify_weighted_radial_poly():
    from redbergman import KernelEvaluator, RadialPolyWeight

    nu = RadialPolyWeight([1.0, 1.0])            # 1 + |w|^2
    f = PowerMap(2)
    rule = build_disc_quadrature(0.0, 1.0, 40, 160)
    basis = monomial_basis(0.0, 40, rule.domain)
    pulled = pullback_weight(nu, f)              # 1 + |z|^4
    ev1 = KernelEvaluator(orthonormalize(basis, rule, pulled))
    ev2 = KernelEvaluator(orthonormalize(basis, rule, nu))
    report = verify_proper(f, ev1, ev2, disc_grid(0.7, 11), disc_grid(0.49, 10))
    assert report.max_rel_residual < 1e-6


def test_verify_weighted_power2_and_specialization():
    f = PowerMap(2)
    ev1 = disc_evaluator(weight_kind="pullback_abs2_sq")
    ev2 = disc_evaluator(weight_kind="abs2")
    zg, wg = disc_grid(0.7, 11), disc_grid(0.49, 10)
    report = verify_proper(f, ev1, ev2, zg, wg)
    assert report.max_rel_residual < 1e-6

    # the pulled-back weight 1 o f must reproduce the unweighted sweep bit for bit
    wrep = verify_proper(f, disc_evaluator(weight_kind="pullback_one"),
                         disc_evaluator(weight_kind="one"), zg, wg)
    prep = verify_proper(f, disc_evaluator(), disc_evaluator(), zg, wg)
    assert wrep.max_rel_residual == prep.max_rel_residual
    assert wrep.max_abs_residual == prep.max_abs_residual
    assert wrep.lhs_scale == prep.lhs_scale


def test_verify_weighted_identity_any_weight():
    nu = PowerWeight(1.0)
    f = PowerMap(1)
    rule = build_disc_quadrature(0.0, 1.0, 24, 64)
    basis = monomial_basis(0.0, 15, rule.domain)
    from redbergman import KernelEvaluator
    ev1 = KernelEvaluator(orthonormalize(basis, rule, pullback_weight(nu, f)))
    ev2 = KernelEvaluator(orthonormalize(basis, rule, nu))
    grid = disc_grid(0.6, 9)
    report = verify_proper(f, ev1, ev2, grid, grid)
    assert report.max_rel_residual < 1e-12


def weighted_annulus_norm_sq(n, r1, r2):
    # ||z^n||^2 with weight |z|^2 on the annulus: 2 pi int r^(2n+3) dr
    k = 2 * n + 4
    if k == 0:
        return 2 * math.pi * math.log(r2 / r1)
    return 2 * math.pi * (r2**k - r1**k) / k


def test_weighted_annulus_kernel_against_series():
    from redbergman import KernelEvaluator, build_annulus_quadrature, laurent_basis
    from redbergman import reduced_filter

    rule = build_annulus_quadrature(0.0, 0.5, 1.0, 48, 96)
    nu = PowerWeight(1.0)
    basis = reduced_filter(laurent_basis(0.0, -20, 20, rule.domain))
    ev = KernelEvaluator(orthonormalize(basis, rule, nu))
    pts = annulus_grid(0.55, 0.95, 7, 8)
    got = ev.eval_kernel_grid(pts, pts)
    x = pts[:, None] * np.conj(pts[None, :])
    want = np.zeros_like(x)
    for n in range(-20, 21):
        if n == -1:
            continue
        want += x**n / weighted_annulus_norm_sq(n, 0.5, 1.0)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_verify_weighted_between_annuli():
    from redbergman import KernelEvaluator, build_annulus_quadrature, laurent_basis
    from redbergman import reduced_filter

    rule1 = build_annulus_quadrature(0.0, math.sqrt(0.5), 1.0, 48, 192)
    rule2 = build_annulus_quadrature(0.0, 0.5, 1.0, 48, 96)
    nu = PowerWeight(1.0)
    f = PowerMap(2, rule1.domain, rule2.domain)
    pulled = pullback_weight(nu, f)
    b1 = reduced_filter(laurent_basis(0.0, -39, 41, rule1.domain))
    b2 = reduced_filter(laurent_basis(0.0, -20, 20, rule2.domain))
    ev1 = KernelEvaluator(orthonormalize(b1, rule1, pulled))
    ev2 = KernelEvaluator(orthonormalize(b2, rule2, nu))
    rep = verify_proper(f, ev1, ev2, annulus_grid(0.75, 0.95, 4, 8),
                        annulus_grid(0.55, 0.95, 5, 8))
    assert rep.excluded == 0
    assert rep.max_rel_residual < 1e-5


def test_correspondence_graph_of_map_matches_proper_path():
    # Q = w - z^2 is the graph of the squaring map; the correspondence
    # sweep and the proper-map sweep measure the same identity
    from conftest import corr_from_terms

    corr = corr_from_terms([(0, 1, 1.0), (2, 0, -1.0)])
    assert (corr.p, corr.q) == (1, 2)
    ev = disc_evaluator()
    zg, wg = disc_grid(0.6, 9), disc_grid(0.36, 8)
    rep_c = verify_correspondence(corr, ev, ev, zg, wg)
    rep_m = verify_proper(PowerMap(2), ev, ev, zg, wg)
    assert rep_c.max_rel_residual < 1e-6
    assert abs(rep_c.max_abs_residual - rep_m.max_abs_residual) < 1e-12


def test_recover_with_explicit_regular_probe():
    f = BlaschkeProduct([0.3, -0.2])
    ev = disc_evaluator()
    grid = disc_grid(0.5, 9)
    rec = recover_map(f, ev, grid, probe=0.2)
    assert not rec.probe_shifted
    fz = f(grid)
    assert np.max(np.abs(rec.ratio_half - fz / (1.0 - fz * np.conj(0.2)))) < 1e-11
    assert np.max(np.abs(rec.map_estimate - fz)) < 1e-11


def test_both_sides_antiholomorphic_in_w():
    ev = disc_evaluator()
    f = PowerMap(2)
    z0 = 0.4 + 0.2j

    def wirtinger_parts(fun, w, h=1e-4):
        """(|d/dw fun|, |d/d(conj w) fun|) at w by 4-point complex stencils;
        an anti-holomorphic fun has a vanishing first part."""
        fx = (fun(w + h) - fun(w - h)) / (2.0 * h)
        fy = (fun(w + 1j * h) - fun(w - 1j * h)) / (2.0 * h)
        return abs(0.5 * (fx - 1j * fy)), abs(0.5 * (fx + 1j * fy))

    def lhs(w):
        return f.deriv(z0) * ev.eval_kernel(f(z0), w)

    def rhs(w):
        pts, der = branch_table(f, [w], forward=False)
        return (ev.eval_kernel_grid([z0], pts[0]) @ der[0].conj()).item()

    for w in (0.3 + 0.1j, -0.2 + 0.25j):
        for side in (lhs, rhs):
            d_w, d_wbar = wirtinger_parts(side, w)
            assert d_w <= 1e-5 * max(d_wbar, 1e-12)


def test_excluded_samples_are_counted():
    ev = disc_evaluator(20, 24, 64)
    zg = disc_grid(0.6, 9)
    wg = np.array([0.0, 0.3, 0.2 + 0.2j])      # w = 0 is the critical value of z^2
    report = verify_proper(PowerMap(2), ev, ev, zg, wg)
    assert report.excluded == len(zg)
    assert report.n_samples == 3 * len(zg)


def test_non_finite_grid_point_is_rejected():
    # NaN is not "near" the singular set {0}, so it reaches the solver
    ev = disc_evaluator(20, 24, 64)
    with pytest.raises(ValueError, match="non-finite"):
        verify_correspondence(W2_MINUS_Z, ev, ev, np.array([np.nan, 0.3]), np.array([0.2]))


def direct_sums(model, ev1, ev2, zs, ws):
    """Both sides of the transformation formula on the grid product, one
    eval_kernel_grid per branch and the branch sums as explicit loops."""
    fp, fd = branch_table(model, zs, forward=True)
    bp, bd = branch_table(model, ws, forward=False)
    lhs = sum(fd[:, [i]] * ev2.eval_kernel_grid(fp[:, i], ws) for i in range(fp.shape[1]))
    rhs = sum(ev1.eval_kernel_grid(zs, bp[:, j]) * bd[:, j].conj()
              for j in range(bp.shape[1]))
    return lhs, rhs


def sweep_cases():
    """(model, ev1, ev2, z grid, w grid) for maps, correspondences with
    p != q, annuli and a weighted map."""
    from conftest import corr_from_terms
    from redbergman import KernelEvaluator, RadialPolyWeight

    ev = disc_evaluator()
    # w = 0 is a critical value of z^2 and of w^2 - z^2 and w^2 - z^3
    zg, wg = disc_grid(0.7, 11), np.r_[disc_grid(0.49, 10), 0.0]
    yield PowerMap(2), ev, ev, zg, wg
    yield BlaschkeProduct([0.3, -0.2 + 0.1j]), ev, ev, disc_grid(0.6, 11), wg
    for corr in (W2_MINUS_Z, W2_MINUS_Z2, corr_from_terms([(0, 2, 1.0), (3, 0, -1.0)])):
        yield corr, ev, ev, zg, wg
    ev1 = annulus_evaluator(math.sqrt(0.5), 1.0, -39, 41)
    ev2 = annulus_evaluator(0.5, 1.0, -20, 20)
    yield (PowerMap(2, ev1.rule.domain, ev2.rule.domain), ev1, ev2,
           annulus_grid(0.75, 0.95, 4, 8), annulus_grid(0.55, 0.95, 5, 8))
    nu = RadialPolyWeight([1.0, 0.5, 2.0])
    rule = build_disc_quadrature(0.0, 1.0, 24, 64)
    basis = monomial_basis(0.0, 16, rule.domain)
    ev1 = KernelEvaluator(orthonormalize(basis, rule, pullback_weight(nu, PowerMap(2))))
    ev2 = KernelEvaluator(orthonormalize(basis, rule, nu))
    yield PowerMap(2), ev1, ev2, zg, wg


def test_sweep_matches_the_direct_branch_sums(monkeypatch):
    from redbergman import KernelEvaluator

    calls = Counter()
    for cls, name in ((KernelEvaluator, "eval_kernel_grid"), (RawBasis, "values")):
        def counting(self, *args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(cls, name, counting)
    for model, ev1, ev2, zg, wg in sweep_cases():
        calls.clear()
        report = verify_correspondence(model, ev1, ev2, zg, wg)
        # the branch sums at the branch points and the values at the grid points
        assert calls == {"values": 4}
        kz, kw = report.kept.any(axis=1), report.kept.any(axis=0)
        assert report.excluded < report.n_samples
        assert np.all(report.kept == kz[:, None] & kw[None, :])
        lhs, rhs = direct_sums(model, ev1, ev2, zg[kz], wg[kw])
        tol = 1e-13 * report.lhs_scale
        assert np.max(np.abs(report.lhs[np.ix_(kz, kw)] - lhs)) <= tol
        assert np.max(np.abs(report.rhs[np.ix_(kz, kw)] - rhs)) <= tol
        assert np.all(np.isnan(report.lhs[~report.kept]))


@pytest.mark.parametrize("model, z, w", [
    (PowerMap(2), disc_grid(0.6, 9), np.array([0.0])),      # critical value of z^2
    (W2_MINUS_Z, np.array([0.0]), disc_grid(0.6, 9)),       # double root of w^2 = z
], ids=["no-w", "no-z"])
def test_sweep_with_no_kept_sample_fails_every_gate(model, z, w):
    ev = disc_evaluator(20, 24, 64)
    report = verify_correspondence(model, ev, ev, z, w)
    assert report.excluded == report.n_samples == len(z) * len(w)
    assert report.max_rel_residual == report.max_abs_residual == np.inf
    assert np.all(np.isnan(report.lhs)) and np.all(np.isnan(report.rhs))


# ---------------------------------------------------------------------------
# map recovery

def test_recover_identity_map():
    ev = disc_evaluator()
    grid = disc_grid(0.6, 9)
    rec = recover_map(PowerMap(1), ev, grid)
    assert not rec.probe_shifted
    assert rec.excluded == 0
    assert np.max(np.abs(rec.ratio_half - grid)) < 1e-11


def test_recover_blaschke_product():
    f = BlaschkeProduct([0.3, -0.2])
    ev = disc_evaluator()
    grid = disc_grid(0.6, 11)
    rec = recover_map(f, ev, grid)
    assert not rec.probe_shifted
    assert np.max(np.abs(rec.ratio_half - f(grid))) < 1e-10


def test_recover_power2_probe_shifts():
    f = PowerMap(2)
    ev = disc_evaluator()
    grid = disc_grid(0.6, 9)
    rec = recover_map(f, ev, grid)
    assert rec.probe_shifted
    assert rec.probe == pytest.approx(0.1)
    # z = 0 is genuinely degenerate there (f'(0) = 0 kills both sides)
    assert rec.excluded == 1
    assert not rec.valid[np.argmin(np.abs(grid))]
    fz = f(grid)
    shifted_identity = fz / (1.0 - fz * np.conj(rec.probe))
    ok = rec.valid
    assert np.max(np.abs(rec.ratio_half[ok] - shifted_identity[ok])) < 1e-11
    assert np.max(np.abs(rec.map_estimate[ok] - fz[ok])) < 1e-11
