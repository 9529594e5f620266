"""Maps, correspondences, branch solving, and derivative reciprocity."""

import math

import numpy as np
import pytest

from conftest import (
    DISC,
    W2_MINUS_Z,
    W2_MINUS_Z2,
    W_MINUS_Z,
    annulus_evaluator,
    branches_at,
    corr_from_terms,
)
from redbergman import (
    Annulus,
    BlaschkeProduct,
    Disc,
    PolynomialMap,
    PowerMap,
    branch_table,
    verify_correspondence,
)
from redbergman.errors import BranchCountError, SingularLocusError


def test_power_map_values_and_derivative():
    f = PowerMap(2)
    assert f(0.5) == pytest.approx(0.25)
    assert f.deriv(0.5) == pytest.approx(1.0)


def test_blaschke_value_and_derivative():
    f = BlaschkeProduct([0.5])
    assert f(0.0) == pytest.approx(-0.5)
    # (1 - |a|^2)/(1 - conj(a) z)^2 at z = 0
    assert f.deriv(0.0) == pytest.approx(0.75)


def test_polynomial_derivative_matches_finite_differences():
    f = PolynomialMap([0.0, -1.0, 1.0], DISC, Disc(0.0, 3.0))   # z^2 - z
    rng = np.random.default_rng(5)
    pts = 0.8 * np.sqrt(rng.random(10)) * np.exp(2j * np.pi * rng.random(10))
    h = 1e-6
    fd = (f(pts + h) - f(pts - h)) / (2 * h)
    assert np.max(np.abs(fd - f.deriv(pts)) / np.abs(f.deriv(pts))) < 1e-6


def test_critical_values():
    # v2 is the graph's polished resultant root, within rounding of f(0) = 0
    assert PowerMap(2).v2.shape == (1,) and abs(PowerMap(2).v2[0]) < 1e-15
    assert PowerMap(1).v2.size == 0

    f = BlaschkeProduct([0.0, 0.5])     # z(z - 0.5)/(1 - 0.5 z)
    crit = f.v2
    assert len(crit) == 1
    # residual check: f' vanishes at the preimage inside the disc
    pts = f.critical_points()
    assert len(pts) == 1
    assert abs(f.deriv(pts[0])) < 1e-10
    assert abs(f(pts[0]) - crit[0]) < 1e-12
    zs, _ = branches_at(f, crit[0] + 0.05, False)   # nearby regular point solves fine
    assert len(zs) == 2

    # a power map with the critical point outside the source has no
    # critical values at all
    ann = Annulus(0.0, 0.5, 1.0)
    f = PowerMap(2, source=ann, target=Annulus(0.0, 0.25, 1.0))
    assert f.v2.size == 0


def test_local_inverses_power2():
    pts, der = branches_at(PowerMap(2), 0.25, False)
    assert sorted(np.round(pts, 12).tolist(), key=lambda s: s.real) == [-0.5, 0.5]
    for z0, d in zip(pts, der):
        assert d == pytest.approx(1.0 / (2.0 * z0))


def test_local_inverses_power3():
    pts, der = branches_at(PowerMap(3), 0.008, False)
    assert len(pts) == 3
    want = 0.2 * np.exp(2j * np.pi * np.arange(3) / 3)
    for r in want:
        assert np.min(np.abs(pts - r)) < 1e-12
    for z0, d in zip(pts, der):
        assert abs(d - 1.0 / (3.0 * z0**2)) < 1e-10


def test_local_inverses_blaschke_roundtrip():
    f = BlaschkeProduct([0.0, 0.5])
    rng = np.random.default_rng(9)
    crit = f.v2
    ws = np.array([0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                   for _ in range(20)])
    ws = ws[np.min(np.abs(crit[None, :] - ws[:, None]), axis=1) >= 1e-3]
    pts, der = branch_table(f, ws, forward=False)
    assert pts.shape == (len(ws), 2)
    assert np.max(np.abs(f(pts) - ws[:, None])) < 1e-10
    # derivative reciprocity F_k'(w) f'(F_k(w)) = 1
    assert np.max(np.abs(der * f.deriv(pts) - 1.0)) < 1e-8


def test_local_inverses_near_critical_rejected():
    with pytest.raises(SingularLocusError):
        branch_table(PowerMap(2), [1e-9], forward=False)


def test_branch_completeness_on_grid():
    f = BlaschkeProduct([0.3, -0.2])
    crit = f.v2
    t = np.linspace(-0.85, 0.85, 15)
    grid = (t[:, None] + 1j * t[None, :]).ravel()
    grid = grid[np.abs(grid) < 0.85]
    grid = grid[np.min(np.abs(grid[:, None] - crit[None, :]), axis=1) > 1e-6]
    b = f.local_inverses(grid)
    assert np.all(b.ok)
    assert np.max(np.abs(f(b.points) - grid[:, None])) < 1e-10


def test_correspondence_counts_and_singular_sets():
    assert (W2_MINUS_Z.p, W2_MINUS_Z.q) == (2, 1)
    assert (W2_MINUS_Z2.p, W2_MINUS_Z2.q) == (2, 2)
    assert np.allclose(W2_MINUS_Z.v1, [0.0])
    assert W2_MINUS_Z.v2.size == 0
    assert np.allclose(W2_MINUS_Z2.v1, [0.0])
    assert np.allclose(W2_MINUS_Z2.v2, [0.0])


def test_forward_backward_mirror_correspondence():
    pts, der = branches_at(W2_MINUS_Z2, 0.3, True)
    assert np.max(np.abs(np.sort_complex(pts) - np.asarray([-0.3, 0.3]))) < 1e-12
    order = np.argsort(pts.real)
    assert np.allclose(der[order], [-1.0, 1.0])


def test_forward_backward_sqrt_correspondence():
    fwd, _ = branches_at(W2_MINUS_Z, 0.25, True)
    assert np.max(np.abs(np.sort_complex(fwd) - np.asarray([-0.5, 0.5]))) < 1e-12
    pts, der = branches_at(W2_MINUS_Z, 0.5, False)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(0.25)
    assert der[0] == pytest.approx(1.0)      # dz/dw = 2w at w = 0.5


def test_identity_correspondence():
    pts, der = branches_at(W_MINUS_Z, 0.3 + 0.2j, True)
    assert pts[0] == pytest.approx(0.3 + 0.2j)
    assert der[0] == pytest.approx(1.0)


def test_branch_derivative_matches_finite_difference():
    rng = np.random.default_rng(13)
    zs = np.array([0.2 + 0.5 * rng.random() + 0.2j * rng.random() for _ in range(10)])
    h = 1e-6
    pts, der = branch_table(W2_MINUS_Z, zs, forward=True)
    plus, _ = branch_table(W2_MINUS_Z, zs + h, forward=True)
    minus, _ = branch_table(W2_MINUS_Z, zs - h, forward=True)
    # match branches by proximity before differencing
    for row, drow, prow, mrow in zip(pts, der, plus, minus):
        for pt, d in zip(row, drow):
            p_plus = prow[np.argmin(np.abs(prow - pt))]
            p_minus = mrow[np.argmin(np.abs(mrow - pt))]
            fd = (p_plus - p_minus) / (2 * h)
            assert abs(fd - d) / abs(d) < 1e-6


def test_graph_residual_and_symmetry():
    rng = np.random.default_rng(17)
    zs = 0.2 + 0.6 * rng.random(12) + 0.5j * (rng.random(12) - 0.5)
    for corr in (W2_MINUS_Z, W2_MINUS_Z2):
        fwd, _ = branch_table(corr, zs, forward=True)
        assert np.max(np.abs(corr.qval(zs[:, None], fwd))) < 1e-10
        # each forward pair appears among the backward branches of its w
        z = np.repeat(zs, fwd.shape[1])
        w = fwd.ravel()
        if corr.v2.size:
            far = np.min(np.abs(corr.v2[None, :] - w[:, None]), axis=1) >= 1e-6
            z, w = z[far], w[far]
        back, _ = branch_table(corr, w, forward=False)
        assert np.max(np.min(np.abs(back - z[:, None]), axis=1)) < 1e-9


def test_singular_locus_query_rejected():
    with pytest.raises(SingularLocusError):
        branch_table(W2_MINUS_Z, [0.0], forward=True)
    with pytest.raises(SingularLocusError):
        branch_table(W2_MINUS_Z2, [1e-10], forward=False)


def test_branch_count_error_outside_domain():
    # Q = w^2 - 4 z^2 pushes branches outside the unit disc for |z| > 1/2
    corr = corr_from_terms([(0, 2, 1.0), (2, 0, -4.0)])
    with pytest.raises(BranchCountError):
        branch_table(corr, [0.7], forward=True)


def test_variable_leading_coefficient_correspondence():
    # Q = (1 - z) w^2 - z: the w-leading coefficient varies with z
    corr = corr_from_terms([(0, 2, 1.0), (1, 2, -1.0), (1, 0, -1.0)])
    assert (corr.p, corr.q) == (2, 1)
    assert np.allclose(np.sort_complex(corr.v1), [0.0])
    pts, _ = branches_at(corr, 0.2, True)       # w = +-sqrt(z/(1-z)) = +-0.5
    assert np.max(np.abs(np.sort_complex(pts) - np.asarray([-0.5, 0.5]))) < 1e-10
    with pytest.raises(BranchCountError):
        branches_at(corr, 0.6, True)       # branches escape the unit disc


# (w - z^2)(z^2 w - 1/2) between A(1/sqrt 2, 1) and A(1/2, 1): the graphs of
# z^2 and of the fold 1/(2 z^2) cross over z^4 = 1/2 and w = +-1/sqrt 2
R = math.sqrt(0.5)
FOLD = corr_from_terms([(2, 2, 1.0), (0, 1, -0.5), (4, 1, -1.0), (2, 0, 0.5)],
                       Annulus(0.0, R, 1.0), Annulus(0.0, 0.5, 1.0))


def same_points(got, want, tol=1e-10):
    """got holds exactly the points of want, each to tol."""
    d = np.abs(np.asarray(got)[:, None] - np.asarray(want)[None, :])
    return len(got) == len(want) and np.all(np.min(d, axis=0, initial=np.inf) <= tol)


@pytest.mark.parametrize("case", ["mixed", "blaschke", "fold"])
def test_singular_sets_of_non_monomial_discriminants(case):
    if case == "mixed":        # w^2 - z^2 + 0.3 z on unit discs
        corr = corr_from_terms([(0, 2, 1.0), (2, 0, -1.0), (1, 0, 0.3)])
        v1, v2 = [0.0, 0.3], [0.15j, -0.15j]
    elif case == "blaschke":   # the graph; v2 is f at its critical point
        f = BlaschkeProduct([0.3, -0.2 + 0.1j])
        corr, v1, v2 = f.graph, [], f(f.critical_points())
        assert abs(v2[0] - (-0.0605918 + 0.0252466j)) < 1e-7
    else:
        corr, v1, v2 = FOLD, 0.5 ** 0.25 * 1j ** np.arange(4), [R, -R]
    assert same_points(corr.v1, v1) and same_points(corr.v2, v2)


def test_fold_sweep_excludes_grid_points_on_the_singular_sets():
    ev1 = annulus_evaluator(R, 1.0, -39, 41)
    ev2 = annulus_evaluator(0.5, 1.0, -20, 20)
    zs = np.concatenate([FOLD.v1, [0.8, 0.85j, -0.83 + 0.1j]])
    ws = np.array([R, -R, 0.6, -0.7j, 0.8 + 0.1j])
    report = verify_correspondence(FOLD, ev1.onb, ev2.onb, zs, ws)
    assert report.excluded == 4 * 5 + 7 * 2 - 4 * 2
    assert report.lhs.shape == (3, 3) and np.all(np.isfinite(report.lhs))


def test_tiny_coefficients_do_not_overflow():
    # the leading coefficient's zero -1/5e-324 overflows a double: on the
    # correspondence's own lead, and on a Blaschke graph's -(1 - conj(a) z)
    corr = corr_from_terms([(0, 2, 1.0), (1, 2, 5e-324), (1, 0, -1.0)])
    assert same_points(corr.v1, [0.0]) and corr.v2.size == 0
    f = BlaschkeProduct([5e-324, 0.5])
    w = np.array([0.3, -0.4j])
    assert np.all(f.local_inverses(w).ok)
    assert np.all(f.branches(f.local_inverses(w).points.ravel(), forward=True).ok)
