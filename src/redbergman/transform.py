"""Transformation-formula verification through batched branch sums.

Every operator here is a derivative-weighted branch sum: for a
correspondence with forward branches f_i and backward branches F_j,
    sum_i f_i'(z) u(f_i(z))   and   sum_j F_j'(w) v(F_j(w)),
and for a proper map f (solved as its graph) the single forward branch
f and the local inverses F_k.  ``branch_table`` solves all branches of a
query array at once, so the sums over many functions and points share
one solve.  The adjointness and operator-bound checks, the verify
sweeps and the map recovery are built on those tables; they measure the
residuals of exact identities, where all remaining error is
discretization.  The adjointness checks pair the first elements of two
orthonormal systems, each in its own inner product: the rule and weight
it was orthonormalized in.  A sweep takes each side's branch sums on
the orthonormal elements, then one product with their values on the
other grid: 2*nz*nw*n complex multiply-adds, not (p + q)*nz*nw*n.

Sweeps exclude the samples within GRID_EXCLUSION of the singular sets
(critical values, discriminant loci) and count them; a query outside
those zones whose branches cannot be resolved raises its error.  Map
recovery differentiates the kernel branch sum exactly in conj(w), from
the analytic kernel derivative and the second derivatives of the local
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearCriticalError
from .kernel import KernelEvaluator, OrthonormalBasis, node_nu
from .propermaps import CorrespondenceModel, ProperMap, far_from

__all__ = [
    "TransformReport",
    "MapRecovery",
    "branch_table",
    "adjoint_residual_matrix",
    "operator_bound_check",
    "source_terms",
    "verify_proper",
    "verify_correspondence",
    "recover_map",
]

GRID_EXCLUSION = 1e-6
ABS_FALLBACK_SCALE = 1e-10


@dataclass(frozen=True)
class TransformReport:
    """Per-sample record of one verification sweep and its statistics.

    ``lhs``/``rhs`` have shape (len(z), len(w)); ``kept`` marks the
    samples outside every exclusion zone, and the other entries are NaN.
    ``max_rel_residual`` normalizes each sample by |LHS| but falls back
    to the absolute residual where |LHS| < 1e-10 (identity checks near
    kernel zeros would otherwise divide noise by noise); with no kept
    sample both maxima are inf, so the sweep passes no gate.
    """

    n_samples: int
    excluded: int
    max_abs_residual: float
    max_rel_residual: float
    lhs_scale: float
    z: np.ndarray
    w: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    kept: np.ndarray


# ---------------------------------------------------------------------------
# branch sums

def branch_table(model, points, forward: bool):
    """Branch points and derivatives over many query points at once.

    Returns (pts, der) of shape (len(points), k) where k is the branch
    count; the solve is done once so several functions can be summed
    over the same branches.  For proper maps the forward direction is
    the single branch (f, f').  Raises the error of the first query
    whose branches cannot be resolved.
    """
    points = np.asarray(points, dtype=complex)
    table = model.branches(points, forward)
    table.require_ok(points)
    return table.points, table.derivatives


def _branch_sums(onb: OrthonormalBasis, n: int, table) -> np.ndarray:
    """(n, n_queries) branch sums sum_k d_k phi(p_k) of the first n
    elements phi of ``onb`` over a branch table's (p, d), with one
    evaluation of the raw basis at all branch points."""
    pts, der = table
    vals = onb.phi_values(pts.ravel(), n)
    return np.einsum("qk,qkn->nq", der, vals.reshape(pts.shape + vals.shape[1:]))


def _node_weights(onb: OrthonormalBasis) -> np.ndarray:
    """Quadrature weights times the weight of the system's inner product."""
    return onb.rule.weights * node_nu(onb.rule, onb.weight)


def source_terms(model, onb1: OrthonormalBasis, onb2: OrthonormalBasis, n: int):
    """(op2 v, v) for the first n elements v of the source system
    ``onb1``: their backward branch sums at the target nodes, (n, n2), and
    their values at the source nodes, (n, n1).  adjoint_residual_matrix
    and operator_bound_check both read these; pass one result to both as
    ``source`` to form it once."""
    backward = branch_table(model, onb2.rule.nodes, forward=False)
    return _branch_sums(onb1, n, backward), onb1.phi_values(onb1.rule.nodes, n).T


def adjoint_residual_matrix(model, onb1: OrthonormalBasis, onb2: OrthonormalBasis,
                            n: int, source=None) -> np.ndarray:
    """Residuals |<op1 u, v>_1 - <u, op2 v>_2| for the first n elements u
    of the target system ``onb2`` and v of the source system ``onb1``.

    op1 u = sum_i f_i' u(f_i) is the forward and op2 v = sum_j F_j' v(F_j)
    the backward branch sum.  Each inner product is the system's own:
    its rule and its weight, which for a proper map f must be nu o f on
    the source and nu on the target (``pullback_weight``), and 1 on both
    for a correspondence.  ``source`` is ``source_terms(model, onb1,
    onb2, n)``, formed here when not given.
    """
    op2v, v1 = source if source is not None else source_terms(model, onb1, onb2, n)
    op1u = _branch_sums(onb2, n, branch_table(model, onb1.rule.nodes, forward=True))
    u2 = onb2.phi_values(onb2.rule.nodes, n).T                      # (n, n2)
    lhs = (op1u * _node_weights(onb1)) @ v1.conj().T
    rhs = (u2 * _node_weights(onb2)) @ op2v.conj().T
    return np.abs(lhs - rhs)


def operator_bound_check(corr: CorrespondenceModel, onb1: OrthonormalBasis,
                         onb2: OrthonormalBasis, n: int, source=None) -> np.ndarray:
    """The n ratios <op2 v, op2 v>_2 / (p*q*<v, v>_1) for the first n
    elements v of the source system ``onb1``, op2 the backward branch
    sum; the bound says each is at most 1.  Inner products and
    ``source`` as in adjoint_residual_matrix."""
    op2v, v1 = source if source is not None else source_terms(corr, onb1, onb2, n)
    lhs = np.sum(_node_weights(onb2) * np.abs(op2v) ** 2, axis=1)
    rhs = np.sum(_node_weights(onb1) * np.abs(v1) ** 2, axis=1)
    return lhs / (corr.p * corr.q * rhs)


# ---------------------------------------------------------------------------
# transformation-formula sweeps

def verify_correspondence(corr: CorrespondenceModel | ProperMap, ev1: KernelEvaluator,
                          ev2: KernelEvaluator, z_grid, w_grid) -> TransformReport:
    """Residuals of sum_i f_i'(z) K2(f_i(z), w) = sum_j K1(z, F_j(w)) conj(F_j'(w))
    over the grid product, ev1 on the source and ev2 on the target.  A
    proper map is swept as its graph; for weighted kernels ev2 carries a
    weight nu and ev1 its pull-back nu o f (``pullback_weight``).  Samples
    within GRID_EXCLUSION of the singular sets are excluded; any other
    query whose branches cannot be resolved raises its error."""
    zs = np.asarray(z_grid, dtype=complex)
    ws = np.asarray(w_grid, dtype=complex)
    kz = far_from(zs, corr.v1, GRID_EXCLUSION)
    kw = far_from(ws, corr.v2, GRID_EXCLUSION)
    forward = branch_table(corr, zs[kz], forward=True)      # (nz, p)
    backward = branch_table(corr, ws[kw], forward=False)    # (nw, q)
    s2 = _branch_sums(ev2.onb, None, forward)               # (n2, nz)
    r1 = _branch_sums(ev1.onb, None, backward)              # (n1, nw)
    kept_lhs = s2.T @ ev2.onb.phi_values(ws[kw]).conj().T   # (nz, nw)
    kept_rhs = ev1.onb.phi_values(zs[kz]) @ r1.conj()
    absres = np.abs(kept_lhs - kept_rhs)
    lhs_mag = np.abs(kept_lhs)
    rel = absres / np.where(lhs_mag >= ABS_FALLBACK_SCALE, lhs_mag, 1.0)
    max_abs, max_rel = (float(np.max(a)) if a.size else np.inf for a in (absres, rel))
    lhs_scale = float(np.max(lhs_mag, initial=0.0))
    del absres, lhs_mag, rel  # freed before the grid-shaped record is allocated
    kept = kz[:, None] & kw[None, :]
    lhs = np.full(kept.shape, np.nan, dtype=complex)
    rhs = np.full(kept.shape, np.nan, dtype=complex)
    lhs[kept], rhs[kept] = kept_lhs.ravel(), kept_rhs.ravel()   # the mask's row-major order
    return TransformReport(
        n_samples=kept.size,
        excluded=kept.size - int(np.count_nonzero(kept)),
        max_abs_residual=max_abs, max_rel_residual=max_rel, lhs_scale=lhs_scale,
        z=zs, w=ws, lhs=lhs, rhs=rhs, kept=kept,
    )


verify_proper = verify_correspondence


# ---------------------------------------------------------------------------
# map recovery

@dataclass(frozen=True)
class MapRecovery:
    """Per-point output of the kernel-ratio map recovery.

    ``ratio_half`` is g1/(2*g0), the raw half-ratio of the
    differentiated and plain branch sums at the probe.  With probe 0 it
    equals the map itself; at a shifted probe w0 the identity becomes
    ratio_half = f/(1 - f*conj(w0)), and ``map_estimate`` inverts that.
    Samples with |g0| below the degeneracy floor are masked out and
    counted in ``excluded``.
    """

    points: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    ratio_half: np.ndarray
    map_estimate: np.ndarray
    probe: complex
    probe_shifted: bool
    valid: np.ndarray
    excluded: int


def recover_map(f: ProperMap, ev: KernelEvaluator, z_grid, probe=0.0,
                fallback_probe=0.1) -> MapRecovery:
    """Recover f from the source kernel via the transformation formula.

    Evaluates g0(z) = sum_k K(z, F_k(w0)) conj(F_k'(w0)) and its exact
    derivative in conj(w) at w0,
        g1(z) = sum_k dK(z, F_k) conj(F_k')^2 + K(z, F_k) conj(F_k''),
    where dK is the analytic conj-slot kernel derivative and
    F_k'' = -f''(F_k) F_k'^3, then forms g1/(2*g0).  The target must be
    the unit disc.  If the probe hits a critical value it moves to
    fallback_probe.
    """
    zs = np.asarray(z_grid, dtype=complex)
    near = ~far_from(np.array([probe, fallback_probe], dtype=complex), f.v2, GRID_EXCLUSION)
    if near.all():
        raise NearCriticalError(f"both probe {probe} and fallback {fallback_probe} "
                                "sit near critical values")
    shifted = bool(near[0])
    w0 = complex(fallback_probe if shifted else probe)

    pts, der = (a[0] for a in branch_table(f, [w0], forward=False))
    der2 = -f.deriv2(pts) * der ** 3
    k = ev.eval_kernel_grid(zs, pts)
    g0 = k @ der.conj()
    g1 = ev.eval_kernel_dbar(zs, pts, 1) @ (der ** 2).conj() + k @ der2.conj()

    valid = np.abs(g0) >= 1e-12
    ratio = np.full(zs.shape, np.nan + 0j)
    ratio[valid] = g1[valid] / (2.0 * g0[valid])
    estimate = ratio.copy()
    if w0 != 0:
        estimate[valid] = ratio[valid] / (1.0 + ratio[valid] * np.conj(w0))
    return MapRecovery(
        points=zs, g0=g0, g1=g1, ratio_half=ratio, map_estimate=estimate,
        probe=w0, probe_shifted=shifted, valid=valid,
        excluded=int(np.sum(~valid)),
    )

