"""Gram assembly, orthonormalization, kernel evaluation, kernel-primitive checks.

Expected values come from analytic norm integrals:
    disc:     ||z^n||^2 = pi/(n+1),  with weight |z|^2: pi/(n+2)
    annulus:  ||z^n||^2 = 2 pi (r2^(2n+2)-r1^(2n+2))/(2n+2),  ||1/z||^2 = 2 pi ln(r2/r1)
and from the closed forms in redbergman.oracles.  The pivoted Cholesky
factorization, the structured Gram's real product over the frequency
columns it reads, and the blocked dense Gram are checked against the
earlier right-looking loop, complex and full-column products, and one
complex product over all nodes, kept below; the closed-form
orthonormalization of a diagonal Gram against the pivoted Cholesky and
triangular solve.
"""

import ast
import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from redbergman import (
    BlaschkeProduct,
    ConstantWeight,
    GenericDomain,
    KernelEvaluator,
    PowerWeight,
    QuadratureRule,
    build_annulus_quadrature,
    build_disc_quadrature,
    build_generic_quadrature,
    disc_grid,
    gram_matrix,
    laurent_basis,
    monomial_basis,
    orthonormalize,
    pullback_weight,
    reduced_filter,
)
from redbergman import cli, kernel
from redbergman.errors import DegenerateBasisError, EvaluationError, PrimitiveUnavailableError
from redbergman.holobasis import BasisElement, RawBasis
from redbergman.oracles import (
    annulus_kernel,
    disc_kernel,
    disc_kernel_dbar,
    disc_power_weight_kernel,
)

ONE = ConstantWeight()


def disc_evaluator(degree=40, n_radial=40, n_angular=160, weight=ONE):
    rule = build_disc_quadrature(0.0, 1.0, n_radial, n_angular)
    basis = monomial_basis(0.0, degree, rule.domain)
    return KernelEvaluator(orthonormalize(basis, rule, weight))


def annulus_evaluator(r=0.5, n_min=-20, n_max=20, n_radial=48, n_angular=96,
                      reduced=True):
    rule = build_annulus_quadrature(0.0, r, 1.0, n_radial, n_angular)
    basis = laurent_basis(0.0, n_min, n_max, rule.domain)
    if reduced:
        basis = reduced_filter(basis)
    return KernelEvaluator(orthonormalize(basis, rule, ONE))


def test_gram_disc_monomials_unweighted():
    rule = build_disc_quadrature(0.0, 1.0, 20, 40)
    g = gram_matrix(monomial_basis(0.0, 1, rule.domain), rule, ONE)
    assert g[0, 0] == pytest.approx(math.pi, rel=1e-12)
    assert g[1, 1] == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert abs(g[0, 1]) < 1e-13


def test_gram_annulus_inverse_norm():
    rule = build_annulus_quadrature(0.0, 0.5, 1.0, 32, 64)
    basis = laurent_basis(0.0, -1, -1, rule.domain)
    g = gram_matrix(basis, rule, ONE)
    assert g[0, 0] == pytest.approx(2.0 * math.pi * math.log(2.0), rel=1e-10)


def test_gram_disc_weighted():
    rule = build_disc_quadrature(0.0, 1.0, 20, 40)
    g = gram_matrix(monomial_basis(0.0, 1, rule.domain), rule, PowerWeight(1.0))
    assert g[0, 0] == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert g[1, 1] == pytest.approx(math.pi / 3.0, rel=1e-12)


@pytest.mark.parametrize("polar", [True, False], ids=["polar", "dense"])
def test_gram_refuses_weight_vanishing_at_a_node(polar):
    # |z - node|^2 pulled back from |w|^2: zero at one quadrature node
    rule = build_disc_quadrature(0.0, 1.0, 12, 24)
    if not polar:
        rule = dataclasses.replace(rule, polar=None)
    node = rule.nodes[30]
    weight = pullback_weight(PowerWeight(1.0), lambda z: z - node)
    with pytest.raises(EvaluationError, match="weight is non-positive"):
        gram_matrix(monomial_basis(0.0, 4, rule.domain), rule, weight)


def test_gram_nonfinite_value_reports_element_and_node():
    dom = GenericDomain(inside=lambda z: True, bbox=(0.0, 1.0, 0.0, 1.0))
    rule = build_generic_quadrature(dom, 10)
    bad = RawBasis((BasisElement(-1, rule.nodes[0]),), dom)
    with pytest.raises(EvaluationError):
        gram_matrix(bad, rule, ONE)


def test_polar_gram_nonfinite_value_reports_element_and_ring():
    # r^-300 overflows on the innermost ring, near radius 0.03
    rule = build_annulus_quadrature(0.0, 0.01, 1.0, 8, 16)
    bad = laurent_basis(0.0, -300, -299, rule.domain)
    with pytest.raises(EvaluationError, match=r"\^-300\) is non-finite at node \(0\.0"):
        gram_matrix(bad, rule, ONE)


def dense_gram(basis, rule, weight):
    """The dense sum over every node: the oracle for the structured Gram."""
    return gram_matrix(basis, dataclasses.replace(rule, polar=None), weight)


def assert_polar_gram_matches_dense(basis, rule, weight):
    got = gram_matrix(basis, rule, weight)
    want = dense_gram(basis, rule, weight)
    d = np.sqrt(np.real(np.diag(want)))
    assert np.max(np.abs(got - want) / np.outer(d, d)) <= 1e-13


def complex_product_polar_gram(powers, polar, nu):
    """The structured Gram with the radial moments cast to complex for a
    complex matmul: the reference for the real product."""
    s = np.arange(2 * powers.min(), 2 * powers.max() + 1)
    f = np.fft.fft(nu.reshape(len(polar.radii), polar.n_angular), axis=1)
    m = (polar.ring_weights[:, None] * polar.radii[:, None] ** s).T @ f
    return m[powers[:, None] + powers[None, :] - s[0],
             (powers[None, :] - powers[:, None]) % polar.n_angular]


def assert_ring_gram_matches_fft(got, want):
    """A Gram from a nu constant on each ring (its exact spectrum) against
    an FFT reference, for a span below n_angular: nothing off the diagonal,
    and the diagonal to 8 eps relative.  Each is within 4 eps of the exact
    sum (3.9 on the 120x480 annulus, where the two differ by 7)."""
    assert np.count_nonzero(got) == len(got)
    diff = np.abs(np.diag(got) - np.diag(want))
    assert np.all(diff <= 8 * np.finfo(float).eps * np.abs(np.diag(want)))


def right_looking_cholesky(a, drop_tol):
    """The right-looking pivoted Cholesky: a full Schur-complement update
    per step, with the same stabilized pivot rule.  The reference for
    kernel._pivoted_cholesky."""
    a = a.copy()
    n = a.shape[0]
    order = []
    pivots = []
    L = np.zeros((n, n), dtype=complex)
    active = list(range(n))
    first_pivot = None
    for k in range(n):
        d = np.real(np.diag(a))
        dmax = max(d[i] for i in active)
        if first_pivot is None:
            if dmax <= 0:
                break
            first_pivot = dmax
        if dmax <= drop_tol * first_pivot:
            break
        floor = max(0.5 * dmax, drop_tol * first_pivot)
        j = next(i for i in active if d[i] >= floor)
        piv = d[j]
        order.append(j)
        pivots.append(piv)
        active.remove(j)
        root = np.sqrt(piv)
        col = a[:, j] / root
        L[:, k] = col
        a -= np.outer(col, col.conj())
        # keep the eliminated row/column out of later pivots
        a[j, :] = 0.0
        a[:, j] = 0.0
    if not order:
        raise DegenerateBasisError("all Gram pivots fell below the drop tolerance")
    r = len(order)
    return order, L[np.ix_(order, range(r))], np.array(pivots)


def assert_cholesky_matches_right_looking(a, drop_tol):
    """Same pivot order, an exactly lower-triangular factor, and pivots
    and factor to 1e-13 of the first pivot.
    Factor column k is a Schur-complement column over sqrt(pivot k), so
    it is compared after multiplying back by sqrt(pivot k): a small
    retained pivot amplifies the rounding of its column, in both forms."""
    order, L, pivots = kernel._pivoted_cholesky(a, drop_tol)
    want_order, want_L, want_pivots = right_looking_cholesky(a, drop_tol)
    assert order == want_order
    assert np.array_equal(np.triu(L, 1), np.zeros_like(L))
    scale = want_pivots[0]
    assert np.max(np.abs(pivots - want_pivots)) <= 1e-13 * scale
    assert np.max(np.abs(L - want_L) * np.sqrt(want_pivots)) <= 1e-13 * scale
    return order


def assert_closed_form_matches_loop(basis, rule, weight, drop_tol=1e-10):
    """On an exactly diagonal Gram, orthonormalize's closed form against
    the pivoted Cholesky and triangular solve it replaces: the same order,
    retained count, pivots and condition, coefficients to 2.3e-16
    relative, and nothing off the diagonal."""
    g = gram_matrix(basis, rule, weight)
    assert np.count_nonzero(g) == len(g)
    scale = np.sqrt(np.real(np.diag(g)))
    corr = g / np.outer(scale, scale)
    order, L, pivots = kernel._pivoted_cholesky(corr, drop_tol)
    rhs = np.zeros((len(order), len(basis)), dtype=complex)
    rhs[np.arange(len(order)), order] = 1.0 / scale[order]
    want = np.linalg.solve(L, rhs)
    onb = orthonormalize(basis, rule, weight, drop_tol)
    assert order == list(range(len(basis)))
    assert onb.retained_count == len(order)
    assert np.array_equal(pivots, np.real(np.diag(corr)))
    assert onb.gram_condition == pivots.max() / pivots.min()
    assert np.count_nonzero(onb.coeffs) == len(basis)
    assert np.max(np.abs(onb.coeffs - want) / np.abs(np.diag(want))[:, None]) <= 2.3e-16
    assert_cholesky_matches_right_looking(corr, drop_tol)


def recorded_grams(monkeypatch, tmp_path, command, cfg):
    """The (basis, rule, weight) of every Gram a config assembles."""
    triples = []

    def recording_gram(basis, rule, weight):
        triples.append((basis, rule, weight))
        return gram_matrix(basis, rule, weight)

    with monkeypatch.context() as m:
        m.setattr(kernel, "gram_matrix", recording_gram)
        assert cli.execute(command, cfg, str(tmp_path)) == 0
    assert triples
    return triples


@pytest.mark.parametrize("name", cli.preset_names())
def test_polar_gram_matches_dense_on_presets(name, tmp_path, monkeypatch):
    cfg = yaml.safe_load(cli.preset_text(name))
    for basis, rule, weight in recorded_grams(monkeypatch, tmp_path, cfg.pop("run"), cfg):
        # every preset runs on a polar rule with a basis centred at its
        # centre, under a weight that is radial about it
        assert rule.polar is not None
        assert all(e.center == rule.polar.center for e in basis.elements)
        assert_polar_gram_matches_dense(basis, rule, weight)
        powers = np.array([e.power for e in basis.elements])
        nu = np.asarray(weight(rule.nodes), dtype=float)
        got = kernel._polar_gram(powers, rule.polar, nu)
        want = complex_product_polar_gram(powers, rule.polar, nu)
        rings = nu.reshape(len(rule.polar.radii), rule.polar.n_angular)
        if np.all(rings == rings[:, :1]):
            assert_ring_gram_matches_fft(got, want)
        else:
            assert np.array_equal(got, want)
        assert_closed_form_matches_loop(basis, rule, weight)


def scaled_kernel_configs():
    """The three kernel presets at degree 120 on 120x480 rules."""
    out = []
    for name, sides, degree_keys in [
            ("disc_kernel_oracle", ["quadrature"], {"basis": {"degree": 120}}),
            ("weighted_square_disc", ["quadrature", "quadrature2"],
             {"basis": {"degree": 120}, "basis2": {"degree": 120}}),
            ("annulus_reduced_oracle", ["quadrature"], {"basis": {"n_min": -60, "n_max": 60}})]:
        cfg = yaml.safe_load(cli.preset_text(name))
        for q in sides:
            cfg[q] = {"n_radial": 120, "n_angular": 480}
        for key, fields in degree_keys.items():
            cfg[key].update(fields)
        out.append(cfg)
    return out


@pytest.mark.parametrize("cfg", scaled_kernel_configs(),
                         ids=["disc_kernel_oracle", "weighted_square_disc",
                              "annulus_reduced_oracle"])
def test_closed_form_matches_loop_at_scale(cfg, tmp_path, monkeypatch):
    cfg = dict(cfg, output={"csv": False})
    for basis, rule, weight in recorded_grams(monkeypatch, tmp_path, cfg.pop("run"), cfg):
        assert_closed_form_matches_loop(basis, rule, weight)


def test_aliased_span_takes_the_loop_and_matches_the_dense_gram(monkeypatch):
    # degree 20 on 16 angular nodes: frequency differences 16 alias to 0
    rule = build_disc_quadrature(0.0, 1.0, 20, 16)
    basis = monomial_basis(0.0, 20, rule.domain)
    g = gram_matrix(basis, rule, ONE)
    assert g[0, 16] != 0 and g[3, 19] != 0 and g[0, 15] == 0
    assert_polar_gram_matches_dense(basis, rule, ONE)
    calls = []
    pivoted_cholesky = kernel._pivoted_cholesky

    def counting(a, drop_tol):
        calls.append(len(a))
        return pivoted_cholesky(a, drop_tol)

    monkeypatch.setattr(kernel, "_pivoted_cholesky", counting)
    orthonormalize(basis, rule, ONE)
    assert calls == [len(basis)]


@pytest.mark.parametrize("degree, drop", [(12, False), (20, True)],
                         ids=["diagonal", "aliased, dense coefficients"])
def test_diagonal_evaluation_matches_the_dense_product(degree, drop):
    rule = build_disc_quadrature(0.0, 1.0, 20, 16 if drop else 40)
    onb = orthonormalize(monomial_basis(0.0, degree, rule.domain), rule, PowerWeight(1.0))
    assert (np.count_nonzero(onb.coeffs) > len(onb.coeffs)) == drop
    pts = np.array([0.3, -0.2 + 0.4j, 0.5j, -0.45 - 0.1j, 0.1 + 0.05j, 0.0])
    used = np.any(onb.coeffs != 0, axis=0)
    for got, vals in [(onb.phi_values(pts), onb.raw.values(pts)),
                      (onb.phi_values(pts, 4), onb.raw.values(pts)),
                      (onb.phi_deriv_values(pts, 2), onb.raw.deriv_values(pts, 2)),
                      (onb.phi_primitive_values(pts), onb.raw.primitive_values(pts, used))]:
        want = vals @ onb.coeffs[:got.shape[1]].T
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def _aliasing_case():
    # frequency differences up to 100 on 64 angular nodes alias
    rule = build_disc_quadrature(0.0, 1.0, 30, 64)
    return monomial_basis(0.0, 100, rule.domain), rule, ONE


def _off_centre_weight_case():
    rule = build_disc_quadrature(0.0, 1.0, 30, 96)
    return monomial_basis(0.0, 30, rule.domain), rule, PowerWeight(1.5, 0.3 - 0.2j)


def _blaschke_pullback_case():
    rule = build_disc_quadrature(0.0, 1.0, 30, 96)
    f = BlaschkeProduct([0.5, -0.3 + 0.4j])
    return monomial_basis(0.0, 30, rule.domain), rule, pullback_weight(PowerWeight(1.0), f)


@pytest.mark.parametrize("case", [_aliasing_case, _off_centre_weight_case,
                                  _blaschke_pullback_case])
def test_polar_gram_matches_dense(case):
    assert_polar_gram_matches_dense(*case())


def test_off_centre_basis_on_polar_rule_takes_dense_path():
    rule = build_annulus_quadrature(0.5, 0.5, 1.0, 16, 32)
    basis = monomial_basis(0.25, 12, rule.domain)
    weight = PowerWeight(1.0, 0.5)
    got = gram_matrix(basis, rule, weight)
    wq = rule.weights * kernel.node_nu(rule, weight)
    assert np.array_equal(got, kernel._dense_gram(basis, rule.nodes, wq))


@st.composite
def vector_family_grams(draw):
    """Unit-diagonal Gram matrix of a random complex family in C^m, as
    orthonormalize scales it.  Some members are an exact (eps = 0) or
    perturbed combination of earlier ones, and m < n makes the family
    dependent outright, so both the drop path and retained small pivots
    occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    m = draw(st.integers(2, 40))
    v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    for k in draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=n // 2)):
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-4, 1e-2, 0.3]))
        v[:, k] = v[:, :k] @ rng.standard_normal(k) + eps * v[:, k]
    g = v.conj().T @ v
    g = 0.5 * (g + g.conj().T)
    d = np.sqrt(np.real(np.diag(g)))
    return g / np.outer(d, d)


@st.composite
def pivot_window_grams(draw):
    """Weakly coupled matrices whose diagonal spreads over a few factors
    of 2, including exact ratios of 1/2, so the earliest pivot within 2x
    of the largest often is not the largest."""
    n = draw(st.integers(1, 12))
    d = np.array(draw(st.lists(st.sampled_from([1.0, 0.75, 0.5, 0.49, 0.3, 0.25, 0.1]),
                               min_size=n, max_size=n)))
    coupling = draw(st.sampled_from([0.0, 1e-3, 3e-2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = coupling * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.diag(d) + np.triu(c, 1) + np.triu(c, 1).conj().T


@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=st.one_of(vector_family_grams(), pivot_window_grams()),
       drop_tol=st.sampled_from([1e-10, 1e-6]))
def test_pivoted_cholesky_matches_right_looking(a, drop_tol):
    order = assert_cholesky_matches_right_looking(a, drop_tol)
    # the factor reproduces the retained block of the matrix
    _, L, _ = kernel._pivoted_cholesky(a, drop_tol)
    assert np.max(np.abs(L @ L.conj().T - a[np.ix_(order, order)])) <= 1e-12


@settings(derandomize=True, max_examples=100, deadline=None)
@given(a=st.one_of(vector_family_grams(), pivot_window_grams()))
def test_gram_condition_is_the_max_over_min_pivot(a):
    # stabilized pivoting does not keep the pivots in decreasing order
    basis = monomial_basis(0.0, len(a) - 1)
    rule = build_disc_quadrature(0.0, 1.0, 4, 8)
    with mock.patch.object(kernel, "gram_matrix", lambda *args: a):
        onb = orthonormalize(basis, rule, ONE)
    scale = np.sqrt(np.real(np.diag(a)))
    _, _, pivots = kernel._pivoted_cholesky(a / np.outer(scale, scale), 1e-10)
    assert onb.gram_condition >= 1.0
    assert onb.gram_condition == pivots.max() / pivots.min()


@pytest.mark.parametrize("a, drop_tol", [(np.zeros((3, 3)), 1e-10), (np.eye(3), 1.0)],
                         ids=["zero matrix", "drop_tol 1"])
def test_pivoted_cholesky_dropping_everything_raises(a, drop_tol):
    for factor in (kernel._pivoted_cholesky, right_looking_cholesky):
        with pytest.raises(DegenerateBasisError, match="all Gram pivots"):
            factor(a, drop_tol)


def test_gram_matrix_refuses_non_finite_entries(monkeypatch):
    monkeypatch.setattr(kernel, "_dense_gram",
                        lambda *args: np.array([[1.0, np.nan], [np.nan, 1.0]]))
    rule = scattered_rule(10)
    with pytest.raises(DegenerateBasisError, match="non-finite entry"):
        gram_matrix(monomial_basis(0.0, 1, rule.domain), rule, ONE)


def scattered_rule(n_nodes, seed=3):
    """n_nodes random points of the unit disc with random positive weights:
    a generic rule of any size, so the dense Gram's node blocks can be
    cut at will."""
    rng = np.random.default_rng(seed)
    nodes = np.sqrt(rng.random(n_nodes)) * np.exp(2j * np.pi * rng.random(n_nodes))
    return QuadratureRule(nodes, 0.5 + rng.random(n_nodes), GenericDomain(
        inside=lambda z: np.abs(z) < 1.0, bbox=(-1.0, 1.0, -1.0, 1.0)))


def many_threads_map(fn, items):
    """map(fn, items) on more threads than cores, switching threads often,
    so blocks share the buffer list as hard as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(fn, items, timeout=60))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("make_rule", [
    lambda: scattered_rule(kernel.GRAM_BLOCK // 3),
    lambda: scattered_rule(2 * kernel.GRAM_BLOCK),
    lambda: scattered_rule(2 * kernel.GRAM_BLOCK + 123),
    lambda: scattered_rule(3 * kernel.GRAM_BLOCK + 123),
    # 14,400 nodes; the basis centre is off the rule's centre
    lambda: build_disc_quadrature(0.0, 1.0, 30, 480),
], ids=["below one block", "two blocks", "two blocks and a remainder",
        "three blocks and a remainder", "off-centre basis on a polar rule"])
def test_dense_gram_matches_complex_product(make_rule, monkeypatch):
    rule = make_rule()
    basis = monomial_basis(0.2 - 0.1j, 14, rule.domain)
    weight = PowerWeight(1.0, 0.3 + 0.4j)
    got = gram_matrix(basis, rule, weight)
    # the complex product over all nodes at once, both triangles formed
    vals = basis.values(rule.nodes)
    wq = rule.weights * weight(rule.nodes)
    want = (vals * wq[:, None]).T @ vals.conj()
    d = np.sqrt(np.real(np.diag(want)))
    assert np.max(np.abs(got - want) / np.outer(d, d)) <= 1e-14
    assert np.array_equal(got, got.conj().T)
    # the block products are added in block order, so the bits do not
    # depend on how many threads form them
    for mapper in (map, many_threads_map):
        monkeypatch.setattr(kernel, "_pool_map", mapper)
        assert kernel._dense_gram(basis, rule.nodes, wq).tobytes() == got.tobytes()


def test_dense_gram_names_the_first_non_finite_value_in_a_later_block():
    rule = scattered_rule(2 * kernel.GRAM_BLOCK + 123)
    node = rule.nodes[kernel.GRAM_BLOCK + 57]
    bad = BasisElement(-1, node)
    basis = RawBasis((BasisElement(0, 0j), BasisElement(1, 0j), bad), rule.domain)
    with pytest.raises(EvaluationError, match=re.escape(f"element {bad!r} is non-finite "
                                                        f"at node {node}")):
        gram_matrix(basis, rule, ONE)


def full_column_polar_gram(powers, polar, nu):
    """The structured Gram multiplied against every FFT column: the
    reference for the product over only the frequency differences read."""
    s = np.arange(2 * powers.min(), 2 * powers.max() + 1)
    f = np.fft.fft(nu.reshape(len(polar.radii), polar.n_angular), axis=1)
    moments = (polar.ring_weights[:, None] * polar.radii[:, None] ** s).T
    m = (moments @ f.view(float)).view(complex)
    return m[powers[:, None] + powers[None, :] - s[0],
             (powers[None, :] - powers[:, None]) % polar.n_angular]


@pytest.mark.parametrize("rule, powers", [
    (build_disc_quadrature(0.0, 1.0, 120, 480), np.arange(0, 121)),
    (build_annulus_quadrature(0.0, 0.5, 1.0, 120, 480), np.arange(-60, 61)),
    (build_disc_quadrature(0.0, 1.0, 40, 160), np.arange(0, 41)),
], ids=["disc 120x480", "annulus 120x480", "disc 40x160"])
def test_polar_gram_reads_only_the_needed_frequencies(rule, powers):
    assert 2 * np.ptp(powers) + 1 < rule.polar.n_angular
    # a constant weight takes its exact ring spectrum, and no FFT
    nu = ONE(rule.nodes)
    assert_ring_gram_matches_fft(kernel._polar_gram(powers, rule.polar, nu),
                                 full_column_polar_gram(powers, rule.polar, nu))
    # Under a weight with angular structure every frequency column is
    # nonzero.  The narrower product holds the columns in another order and
    # width, so BLAS's tiling may round some entries differently (seen: up
    # to 4e-16 of the diagonal scale at 120x480), so the match is to rounding.
    nu = PowerWeight(1.0, 0.3 - 0.2j)(rule.nodes)
    want = full_column_polar_gram(powers, rule.polar, nu)
    d = np.sqrt(np.real(np.diag(want)))
    got = kernel._polar_gram(powers, rule.polar, nu)
    assert np.max(np.abs(got - want) / np.outer(d, d)) <= 1e-15


@pytest.mark.parametrize("radius, degree, norm", [(0.02, 120, "0.0"), (100.0, 100, "inf")],
                         ids=["underflow", "overflow"])
def test_gram_norm_out_of_range_names_the_element(radius, degree, norm):
    rule = build_disc_quadrature(0.0, radius, 40, 160)
    basis = monomial_basis(0.0, degree, rule.domain)
    with pytest.raises(DegenerateBasisError, match=rf"\(z - 0j\)\^\d+\) has Gram norm {norm}"):
        gram_matrix(basis, rule, ONE)


def test_orthonormalize_disc_coefficients():
    rule = build_disc_quadrature(0.0, 1.0, 20, 40)
    onb = orthonormalize(monomial_basis(0.0, 12, rule.domain), rule, ONE)
    assert onb.retained_count == 13
    for n in range(13):
        expect = np.zeros(13)
        expect[n] = math.sqrt((n + 1) / math.pi)
        assert np.max(np.abs(onb.coeffs[n] - expect)) < 1e-8


def test_orthonormalize_drops_dependent_element():
    # (z-0)^0 and (z-1)^0 are distinct keys but the same constant
    rule = build_disc_quadrature(0.0, 1.0, 10, 20)
    basis = RawBasis((BasisElement(0, 0.0), BasisElement(0, 1.0),
                      BasisElement(1, 0.0)), rule.domain)
    onb = orthonormalize(basis, rule, ONE)
    assert onb.retained_count == 2


@pytest.mark.parametrize("weight", [ONE, PowerWeight(1.0)], ids=["constant", "power"])
def test_node_sums_of_a_system_that_drops_elements(weight):
    # the powers up to 3 about 0.2 span nothing new: four of 13 elements drop
    rule = build_disc_quadrature(0.0, 1.0, 20, 40)
    basis = RawBasis(tuple(BasisElement(n, 0.0) for n in range(9))
                     + tuple(BasisElement(n, 0.2) for n in range(4)), rule.domain)
    onb = orthonormalize(basis, rule, weight)
    n = onb.retained_count
    assert n == 9 < len(basis)
    eye = np.eye(n)
    assert np.max(np.abs(onb.node_sums(eye) - eye)) <= 1e-12
    assert onb.orthonormality_residual() <= 1e-12
    # the row conj(phi(zeta)) is K(., zeta) and reproduces each phi_j at zeta
    zeta = np.array([0.3 - 0.4j])
    p = onb.phi_values(zeta)
    s = onb.node_sums(np.vstack([eye, p.conj()]))
    assert np.max(np.abs(s[:n, n] - p[0])) <= 1e-12


def test_only_kernel_reads_an_orthonormal_systems_coefficients():
    """Outside kernel.py no module reads ``.coeffs`` or ``.raw`` of an
    object other than its own ``self`` (the correspondence and the radial
    weight keep coefficients of their own): an orthonormal system is read
    through its values, ``node_sums`` and ``node_nu``."""
    src = Path(kernel.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        if path.name == "kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name, owner = node.attr, node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                name, owner = node.args[1].value, node.args[0]
            else:
                continue
            if name in ("coeffs", "raw") and not (isinstance(owner, ast.Name)
                                                  and owner.id == "self"):
                reads.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert reads == []


def test_orthonormalize_annulus_reduced_no_drop():
    ev = annulus_evaluator()
    assert ev.onb.retained_count == 40     # 41 Laurent powers minus z^-1
    assert ev.onb.orthonormality_residual() < 1e-8


def test_eval_kernel_disc_against_closed_form():
    ev = disc_evaluator()
    assert ev.eval_kernel(0.0, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-8)
    assert ev.eval_kernel(0.5, 0.5) == pytest.approx(1.0 / (math.pi * 0.5625), abs=1e-6)
    rng = np.random.default_rng(3)
    pts = 0.7 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
    got = ev.eval_kernel_grid(pts, pts)
    want = disc_kernel(pts[:, None], pts[None, :])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_eval_kernel_weighted_disc():
    ev = disc_evaluator(weight=PowerWeight(1.0))
    assert ev.eval_kernel(0.0, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-6)
    z, w = 0.4 + 0.1j, -0.2 + 0.3j
    assert ev.eval_kernel(z, w) == pytest.approx(
        complex(disc_power_weight_kernel(z, w, 1.0)), abs=1e-6)


def test_eval_kernel_dbar():
    ev = disc_evaluator()
    z, w = 0.3 - 0.2j, 0.1 + 0.4j
    zs, ws = disc_grid(0.7, 9), disc_grid(0.7, 8)
    assert np.array_equal(ev.eval_kernel_dbar(zs, ws, 0), ev.eval_kernel_grid(zs, ws))
    zz = np.array([0.7, -0.5 + 0.3j, 0.1j])
    assert ev.eval_kernel_dbar(zz, [0.0], 1)[:, 0] == pytest.approx(2.0 * zz / math.pi, abs=1e-6)
    # second conjugate-slot derivative of the series at w = 0: 6 z^2 / pi
    assert ev.eval_kernel_dbar(zz, [0.0], 2)[:, 0] == pytest.approx(6.0 * zz**2 / math.pi,
                                                                    abs=1e-6)
    # Hermitian-derivative consistency against first-slot finite differences
    h = 1e-5
    fd = (ev.eval_kernel(w + h, z) - ev.eval_kernel(w - h, z)) / (2 * h)
    exact = ev.eval_kernel_dbar([z], [w], 1)[0, 0]
    assert abs(np.conj(fd) - exact) / abs(exact) < 1e-5


def test_eval_kernel_dbar_grid_matches_disc_oracle():
    ev = disc_evaluator()
    zs, ws = disc_grid(0.7, 9), disc_grid(0.7, 8)
    got = ev.eval_kernel_dbar(zs, ws, 1)
    want = disc_kernel_dbar(zs[:, None], ws[None, :])
    assert got.shape == (len(zs), len(ws))
    # 1.6e-13 measured against a scale of 1.6
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_annulus_kernel_against_series_oracle():
    ev = annulus_evaluator()
    radii = np.linspace(0.55, 0.95, 5)
    pts = (radii[:, None] * np.exp(2j * np.pi * np.arange(6) / 6)[None, :]).ravel()
    got = ev.eval_kernel_grid(pts, pts)
    want = annulus_kernel(pts[:, None], pts[None, :], 0.5, 1.0, -20, 20)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-5


def test_annulus_full_minus_reduced_is_residue_term():
    full = annulus_evaluator(reduced=False)
    red = annulus_evaluator()
    z, w = 0.7, 0.6 + 0.45j
    diff = full.eval_kernel(z, w) - red.eval_kernel(z, w)
    expect = 1.0 / (z * np.conj(w)) / (2.0 * math.pi * math.log(2.0))
    assert abs(diff - expect) / abs(expect) < 1e-5


def reproduce(ev, zeta, rows=None, fns=()):
    """Discrete reproducing integrals sum_q w_q nu_q f(node_q) conj(K(node_q, zeta))
    of the functions rows @ phi (orthonormal coordinates), then of the
    callables fns, each an entry of the node_sums column at K(., zeta),
    whose row is conj(phi(zeta)), as the CLI checks read them."""
    k = ev.onb.phi_values(np.atleast_1d(np.asarray(zeta, dtype=complex))).conj()
    return ev.onb.node_sums(k if rows is None else np.vstack([k, rows]), fns)[1:, 0]


def self_reproduction(ev, pts):
    """(n, n) matrix |K(P_i, P_j) - sum_q w_q nu_q K(node_q, P_j) conj(K(node_q, P_i))|
    for n points P, as the CLI check forms it from node_sums."""
    p = ev.onb.phi_values(np.asarray(pts, dtype=complex))
    return np.abs(np.sum(p[:, None] * p.conj(), axis=-1) - ev.onb.node_sums(p.conj()).T)


def self_residual(ev, z, zeta):
    return self_reproduction(ev, [z, zeta])[0, 1]


def test_reproduce_on_basis_element_and_constant():
    ev = disc_evaluator(degree=10, n_radial=24, n_angular=48)
    phi3 = ev.onb.phi_values(np.array([0.4]), 4)[0, 3]
    e3 = np.eye(1, ev.onb.retained_count, 3)
    assert reproduce(ev, 0.4, e3)[0] == pytest.approx(phi3, abs=1e-6)
    assert reproduce(ev, 0.2 + 0.1j, fns=[np.ones_like])[0] == pytest.approx(1.0, abs=1e-6)


def test_reproduce_outside_reduced_space_gives_projection():
    ev = annulus_evaluator()
    zeta = 0.7
    val = reproduce(ev, zeta, fns=[lambda z: 1.0 / z])[0]
    # z^-1 is orthogonal to every retained power, so the projection vanishes
    assert abs(val) < 1e-6
    assert abs(val - 1.0 / zeta) > 0.1


def test_self_reproduction_residuals():
    assert self_residual(disc_evaluator(), 0.3, 0.5) < 1e-8
    assert self_residual(annulus_evaluator(), 0.7, 0.6) < 1e-8
    assert self_residual(disc_evaluator(weight=PowerWeight(1.0)), 0.2, 0.4j) < 1e-8


def test_conjugate_symmetry_and_positivity():
    ev = disc_evaluator(degree=15, n_radial=24, n_angular=64)
    rng = np.random.default_rng(11)
    pts = 0.9 * np.sqrt(rng.random(15)) * np.exp(2j * np.pi * rng.random(15))
    for z in pts[:5]:
        for w in pts[5:10]:
            assert ev.eval_kernel(z, w) == np.conj(ev.eval_kernel(w, z))
    for z in pts:
        assert ev.eval_kernel(z, z).real > 0


def test_truncation_monotonicity_on_diagonal():
    rule = build_disc_quadrature(0.0, 1.0, 30, 80)
    zeta = 0.65 + 0.1j
    prev = 0.0
    for degree in (5, 10, 20, 30):
        onb = orthonormalize(monomial_basis(0.0, degree, rule.domain), rule, ONE)
        val = KernelEvaluator(onb).eval_kernel(zeta, zeta).real
        assert val >= prev - 1e-12
        prev = val


def test_kernel_primitive_checks():
    ev = disc_evaluator(degree=20, n_radial=30, n_angular=80)
    xi = 0.3
    assert ev.kernel_primitive(xi, xi) == 0.0
    # dM/dz recovers the kernel (finite differences in z)
    h = 1e-5
    for z in (0.5, -0.2 + 0.4j):
        fd = (ev.kernel_primitive(xi, z + h) - ev.kernel_primitive(xi, z - h)) / (2 * h)
        assert abs(fd - ev.eval_kernel(z, xi)) / abs(ev.eval_kernel(z, xi)) < 1e-6
    # Dirichlet pairing <f, M(., xi)> = int f' conj(K(., xi)) dA = f'(xi) for f = z^2
    pairing = reproduce(ev, xi, fns=[lambda z: 2.0 * z])[0]
    assert pairing == pytest.approx(2.0 * xi, abs=1e-5)


def test_kernel_primitive_requires_reduced_basis():
    ev = annulus_evaluator(reduced=False)
    with pytest.raises(PrimitiveUnavailableError):
        ev.kernel_primitive(0.7, 0.6)


def test_kernel_primitive_on_reduced_annulus():
    ev = annulus_evaluator()
    xi, z = 0.75, 0.6 + 0.3j
    h = 1e-5
    fd = (ev.kernel_primitive(xi, z + h) - ev.kernel_primitive(xi, z - h)) / (2 * h)
    assert abs(fd - ev.eval_kernel(z, xi)) / abs(ev.eval_kernel(z, xi)) < 1e-6


def test_generic_domain_kernel_invariants():
    # predicate-defined unit square: discrete identities still hold even
    # though the rule is only first-order accurate
    dom = GenericDomain(inside=lambda z: (0 < z.real < 1) and (0 < z.imag < 1),
                        bbox=(0.0, 1.0, 0.0, 1.0))
    rule = build_generic_quadrature(dom, 24)
    onb = orthonormalize(monomial_basis(0.5 + 0.5j, 6, dom), rule, ONE)
    ev = KernelEvaluator(onb)
    zeta = 0.4 + 0.6j
    assert abs(reproduce(ev, zeta, fns=[np.ones_like])[0] - 1.0) < 1e-10
    assert self_residual(ev, 0.3 + 0.3j, 0.7 + 0.2j) < 1e-10
    assert ev.eval_kernel(zeta, zeta).real > 0
    a, b = 0.2 + 0.7j, 0.8 + 0.1j
    assert ev.eval_kernel(a, b) == np.conj(ev.eval_kernel(b, a))


def ellipse_evaluator(n_grid=64):
    dom = GenericDomain(inside=lambda z: z.real ** 2 + 2.0 * z.imag ** 2 < 0.98,
                        bbox=(-1.0, 1.0, -0.71, 0.71))
    rule = build_generic_quadrature(dom, n_grid)
    onb = orthonormalize(monomial_basis(0.0, 12, dom), rule, ONE)
    return KernelEvaluator(onb)


BATCH_EVALUATORS = {
    "disc": lambda: disc_evaluator_shared(),
    "weighted disc": lambda: disc_evaluator(degree=20, n_radial=24, n_angular=64,
                                            weight=PowerWeight(1.0)),
    "ellipse": ellipse_evaluator,
}
CHECK_POINTS = np.array([0.3, -0.2 + 0.4j, 0.5j, -0.45 - 0.1j, 0.1 + 0.05j])


@pytest.mark.parametrize("case", BATCH_EVALUATORS)
def test_batched_self_reproduction_matches_scalar_calls(case):
    ev = BATCH_EVALUATORS[case]()
    got = self_reproduction(ev, CHECK_POINTS)
    want = np.array([[self_residual(ev, a, b) for b in CHECK_POINTS] for a in CHECK_POINTS])
    assert got.shape == (len(CHECK_POINTS), len(CHECK_POINTS))
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("case", BATCH_EVALUATORS)
def test_batched_reproduce_matches_column_calls(case):
    ev = BATCH_EVALUATORS[case]()
    zeta = 0.25 - 0.3j
    rows = np.eye(3, ev.onb.retained_count)
    fns = [np.ones_like, lambda z: 2.0 * z, lambda z: z ** 7]
    got = reproduce(ev, zeta, rows, fns)
    want = np.array([reproduce(ev, zeta, row[None])[0] for row in rows]
                    + [reproduce(ev, zeta, fns=[fn])[0] for fn in fns])
    assert got.shape == (len(rows) + len(fns),)
    assert np.max(np.abs(got - want)) <= 1e-15


NODE_EVALUATORS = {
    "disc": lambda: disc_evaluator_shared(),
    "annulus": lambda: annulus_evaluator(n_radial=24, n_angular=64),
    "ellipse": ellipse_evaluator,
    # about 12,500 nodes: three full node blocks and a remainder
    "ellipse in blocks": lambda: ellipse_evaluator(n_grid=128),
}
# inside the disc, the annulus 0.5 < |z| < 1 and the ellipse x^2 + 2 y^2 < 0.98
RING_POINTS = np.array([0.6 + 0.2j, -0.55 + 0.3j, 0.1 - 0.62j, -0.4 - 0.45j])


@pytest.mark.parametrize("case", NODE_EVALUATORS)
def test_node_kernel_from_raw_values_matches_node_matrix(case):
    ev = NODE_EVALUATORS[case]()
    onb = ev.onb
    nodes = onb.rule.nodes
    fns = [np.ones_like, lambda z: 2.0 * z]
    rows = np.vstack([np.eye(3, onb.retained_count), onb.phi_values(RING_POINTS).conj()])
    got = onb.node_sums(rows, fns)
    got_self = self_reproduction(ev, RING_POINTS)
    assert "_node_phi" not in ev.__dict__
    # the same sums from the orthonormal node matrix, one 1-D sum per entry
    phi = ev._node_phi
    wq = onb.rule.weights * onb.node_nu
    p = ev.onb.phi_values(RING_POINTS)
    k = p.conj() @ phi.T
    f = np.vstack([phi[:, :3].T, k, np.ones(len(nodes)), 2.0 * nodes])
    want = np.array([[np.sum((wq * a) * b.conj()) for b in f] for a in f])
    assert got.shape == (len(f), len(f))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    n = len(RING_POINTS)
    want_self = np.array([[abs(np.sum(p[i] * p[j].conj()) - np.sum(wq * k[j] * k[i].conj()))
                           for j in range(n)] for i in range(n)])
    assert np.max(np.abs(got_self - want_self)) <= 1e-14


def test_checks_on_a_generic_domain_never_form_the_node_matrix(tmp_path):
    ev = ellipse_evaluator()
    cfg = yaml.safe_load(cli.preset_text("invariants_disc"))
    assert set(cfg["checks"]) == set(cli.KNOWN_CHECKS)
    run = cli.RunDir(str(tmp_path), "kernel", cfg)
    assert cli._run_checks(cli.build_checks(cfg), ev, RING_POINTS, run) == 0.0
    assert all(run.summary[f"check_{name}_ok"] for name in cli.KNOWN_CHECKS)
    assert "_node_phi" not in ev.__dict__


def test_evaluator_thread_safety():
    from concurrent.futures import ThreadPoolExecutor

    ev = disc_evaluator_shared()
    grid = np.linspace(-0.6, 0.6, 40) + 0.1j

    def work(_):
        return ev.eval_kernel_grid(grid, grid)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, range(8)))
    for r in results[1:]:
        assert np.array_equal(r, results[0])


def test_evaluator_builds_node_matrix_on_first_use():
    ev = disc_evaluator_shared()
    assert ev.onb.orthonormality_residual() < 1e-12
    assert "_node_phi" not in ev.__dict__
    assert np.array_equal(ev._node_phi, ev.onb.phi_values(ev.onb.rule.nodes))
    assert "_node_phi" in ev.__dict__


def assert_node_weights_read_on_first_use(center):
    """The system reads nu at the nodes (node_nu) on first use only, and
    once: its node sums and the evaluator's _node_nu read the held array."""
    calls = []

    class CountingWeight(PowerWeight):
        def __call__(self, z):
            calls.append(np.size(z))
            return super().__call__(z)

        def ring_values(self, center, radii):
            calls.append(np.size(radii))
            return super().ring_values(center, radii)

    weight = CountingWeight(1.0, center)
    ev = disc_evaluator(degree=10, n_radial=24, n_angular=48, weight=weight)
    # one read of nu at the nodes: a weight radial about the rule's centre
    # once per ring, any other one once per node after refusing the rings
    n = [24] if center == 0.0 else [24, len(ev.onb.rule.nodes)]
    assert calls == n  # the Gram's
    ev.eval_kernel_grid(CHECK_POINTS, CHECK_POINTS)
    assert calls == n and "node_nu" not in ev.onb.__dict__
    assert ev.onb.orthonormality_residual() < 1e-12
    assert calls == 2 * n
    assert ev.onb.orthonormality_residual() < 1e-12
    assert ev._node_nu is ev.onb.node_nu
    assert calls == 2 * n
    assert np.array_equal(ev.onb.node_nu, kernel.node_nu(ev.onb.rule, weight))
    assert calls == 3 * n


def test_evaluator_evaluates_node_weights_on_first_read():
    assert_node_weights_read_on_first_use(0.0)


def test_evaluator_reads_a_weight_off_the_rings_at_the_nodes():
    assert_node_weights_read_on_first_use(0.3)


def disc_evaluator_shared():
    return disc_evaluator(degree=20, n_radial=24, n_angular=64)
