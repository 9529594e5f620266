"""Gram assembly, orthonormalization, and kernel evaluation.

The (weighted, reduced or full) Bergman kernel of a truncated basis is
computed as an orthonormal series K(z, w) = sum_k phi_k(z) *
conj(phi_k(w)).  Orthonormal coefficients come from a left-looking
pivoted Cholesky factorization of the discrete Gram matrix, and the
orthonormal system keeps its rule and weight for the evaluator.  Kernel
values are the order-0 case of the analytic derivatives in the
conjugated slot (no finite differences), and primitives of the
orthonormal elements give the kernel primitive whose Dirichlet pairing
evaluates derivatives.

On a polar rule with every basis element centred at the rule's centre,
the angular trapezoid sum in a Gram entry is a DFT of the weight on one
ring, so one FFT per ring and one matmul against the radial moments
r^(n+m) give the same discrete sum, reordered (aliasing included).
Generic rules and off-centre bases take the dense sum over all nodes,
block by block: a block writes its weighted power rows, split into real
and imaginary parts, straight into a reused real buffer and forms one
real symmetric product (BLAS syrk).  The blocks run on up to two
threads, one per core, and their products are added in block order, so
only one block's rows per thread are ever held, the Gram comes out
exactly Hermitian, and its bits do not depend on the thread count.

The Gram matrix is prescaled to unit diagonal before pivoting.  Raw
power bases can span many decades in norm (Laurent families on thin
annuli) while being perfectly orthogonal; pivoting the scaled matrix
makes the drop test detect near-dependence instead of scale.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, EvaluationError
from .geometry import PolarStructure, QuadratureRule
from .holobasis import RawBasis, WeightFn

__all__ = ["GramMatrix", "OrthonormalBasis", "KernelEvaluator",
           "gram_matrix", "orthonormalize"]

# nodes per block of the dense Gram and of the checks' node sums.  Their bits
# depend on it (block products are summed in block order).  On a 78,508-node
# rule with 61 elements and two cores, the dense Gram takes 95, 62, 56 and
# 46 ms at 1024, 2048, 4096 and 8192 nodes: a block's per-row Python work
# holds the interpreter lock, and each thread holds a (2m, GRAM_BLOCK) buffer
GRAM_BLOCK = 4096
# threads that form the dense Gram's node blocks, never more than the
# cores: the gain is measured on two cores, and each thread's buffer (4 MB
# at 61 elements) matches the serial loop's real and complex blocks at two
GRAM_THREADS = 2


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of discrete weighted inner products
    G[i, j] = sum_q w_q * e_i(node_q) * conj(e_j(node_q)) * nu(node_q)."""

    entries: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise DegenerateBasisError("Gram matrix has a non-finite entry")


def _polar_gram(powers, polar: PolarStructure, nu) -> np.ndarray:
    """G[a, b] = sum_i w_i r_i^(n_a + n_b) F_i[(n_b - n_a) mod n_angular]
    for centred powers n, where F_i is the DFT of nu on ring i.  The real
    radial moments multiply F's real and imaginary parts in one real
    product, taken only against the distinct frequency differences the
    gather reads (never more than n_angular columns)."""
    s = np.arange(2 * powers.min(), 2 * powers.max() + 1)
    f = np.fft.fft(nu.reshape(len(polar.radii), polar.n_angular), axis=1)
    span = int(powers.max() - powers.min())
    # cols: the distinct frequencies (b - a) mod n_angular over the offsets
    # b - a + span; pos: each offset's column among them
    cols, pos = np.unique(np.arange(-span, span + 1) % polar.n_angular,
                          return_inverse=True)
    moments = (polar.ring_weights[:, None] * polar.radii[:, None] ** s).T
    m = (moments @ np.take(f, cols, axis=1).view(float)).view(complex)
    return m[powers[:, None] + powers[None, :] - s[0],
             pos[powers[None, :] - powers[:, None] + span]]


def _require_finite_values(vals, basis: RawBasis, nodes):
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise EvaluationError(
            f"element {basis.elements[bad[1]]!r} is non-finite at node "
            f"{nodes[bad[0]]}"
        )


def _pool_map(fn, items):
    """Yields fn(item) for each item, in item order, formed on up to
    GRAM_THREADS threads but on no more threads than this process has
    cores; with one, in this thread.  Closing the generator early (an
    error in the caller's loop) cancels the items not yet started and
    waits for the running ones."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cores, GRAM_THREADS, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def _dense_gram(basis: RawBasis, nodes, wq) -> np.ndarray:
    """G = sum_q wq_q e(node_q) e(node_q)^H over node blocks.  With
    d = sqrt(wq) e split into real rows a and imaginary rows b, each block's
    [a; b] [a; b]^T is one real symmetric product (BLAS syrk), and
    G = (aa^T + bb^T) + i (ba^T - ab^T) is exactly Hermitian.

    The block products run on up to GRAM_THREADS threads (``_pool_map``)
    and are added in block order, so the bits do not depend on the
    number of threads.  A block writes its power rows
    (``RawBasis.value_rows``) straight into a reused real buffer and
    calls nothing that the benchmark tracer wraps (``RawBasis.values``),
    whose one span stack is not thread-safe."""
    m = len(basis)
    sqrt_wq = np.sqrt(wq)
    free = []  # reused block buffers, at most one per worker

    def block_product(start):
        try:
            d = free.pop()
        except IndexError:
            d = np.empty((2 * m, GRAM_BLOCK))
        try:
            block = nodes[start:start + GRAM_BLOCK]
            scale = sqrt_wq[start:start + GRAM_BLOCK]
            rows = d[:, :len(block)]
            # the finiteness check below reports what these states would warn about
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for k, row in enumerate(basis.value_rows(block)):
                    np.multiply(row.real, scale, out=rows[k])
                    np.multiply(row.imag, scale, out=rows[m + k])
                return rows @ rows.T
        finally:
            free.append(d)

    p = np.zeros((2 * m, 2 * m))
    starts = range(0, len(nodes), GRAM_BLOCK)
    for start, product in zip(starts, _pool_map(block_product, starts)):
        p += product
        # a non-finite value leaves its row's diagonal entry non-finite, so
        # the diagonal screens each block for the element-and-node check
        if not np.all(np.isfinite(np.diagonal(p))):
            block = nodes[start:start + GRAM_BLOCK]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                _require_finite_values(basis.values(block), basis, block)
    return (p[:m, :m] + p[m:, m:]) + 1j * (p[m:, :m] - p[:m, m:])


def gram_matrix(basis: RawBasis, rule: QuadratureRule, weight: WeightFn) -> GramMatrix:
    """Assemble the weighted Gram matrix of a raw basis on a rule
    (structured or dense, see the module docstring).  An element whose
    discrete norm under- or overflows raises DegenerateBasisError."""
    if len(basis) == 0:
        raise DegenerateBasisError("cannot assemble a Gram matrix for an empty basis")
    nu = np.asarray(weight(rule.nodes), dtype=float)
    if not np.all(nu > 0):
        raise EvaluationError("weight is non-positive at a quadrature node")
    polar = rule.polar
    if polar is not None and all(e.center == polar.center for e in basis.elements):
        # on ring i each element is r_i^n times a unimodular factor
        powers = np.array([e.power for e in basis.elements])
        # the finiteness checks report what these states would warn about
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _require_finite_values(polar.radii[:, None] ** powers, basis,
                                   rule.nodes[::polar.n_angular])
            g = _polar_gram(powers, polar, nu)
            g = 0.5 * (g + g.conj().T)
    else:
        g = _dense_gram(basis, rule.nodes, rule.weights * nu)
    for e, norm in zip(basis.elements, np.real(np.diag(g))):
        if not 0.0 < norm < np.inf:
            raise DegenerateBasisError(f"element {e!r} has Gram norm {norm}: its "
                                       "values under- or overflow on the rule")
    return GramMatrix(entries=g)


def _pivoted_cholesky(a: np.ndarray, drop_tol: float):
    """Pivoted Cholesky of a Hermitian PSD matrix with unit-ish diagonal.

    Returns (order, L, pivots): retained column indices in pivot order,
    the corresponding lower-triangular factor rows, and the pivot values
    at selection time.  Stops when the largest remaining pivot falls
    below drop_tol times the first pivot.

    Pivoting is stabilized: the earliest index within a factor 2 of the
    max pivot wins, so well-conditioned families keep their given order
    while near-dependent elements are still deferred and dropped.

    Left-looking and unblocked (Hammarling, Higham & Lucas 2007): step k
    forms only pivot j's column, a[:, j] minus one product with the k
    factor columns so far (stored as contiguous rows), and subtracts its
    |entries|^2 from the remaining pivots.
    """
    n = a.shape[0]
    d = np.real(np.diag(a)).copy()
    cutoff = max(drop_tol * d.max(), 0.0)
    active = np.ones(n, dtype=bool)
    cols = np.zeros((n, n), dtype=complex)
    order = []
    pivots = []
    for k in range(n):
        dmax = d.max(where=active, initial=-np.inf)
        if dmax <= cutoff:
            break
        j = int(np.argmax(active & (d >= max(0.5 * dmax, cutoff))))
        piv = d[j]
        col = (a[:, j] - cols[:k, j].conj() @ cols[:k]) / np.sqrt(piv)
        # eliminated rows stay exactly zero, as in the right-looking form
        col[~active] = 0.0
        cols[k] = col
        d -= col.real ** 2 + col.imag ** 2
        active[j] = False
        order.append(j)
        pivots.append(piv)
    if not order:
        raise DegenerateBasisError("all Gram pivots fell below the drop tolerance")
    r = len(order)
    return order, cols[:r, order].T, np.array(pivots)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Truncated orthonormal system phi_k = sum_j coeffs[k, j] * raw_j
    in the inner product of ``rule`` weighted by ``weight``.

    ``coeffs`` has one row per retained element and one column per raw
    element (zero columns for dropped ones); ``gram_condition`` is the
    max/min retained pivot ratio of the prescaled Gram factorization.
    """

    raw: RawBasis
    coeffs: np.ndarray
    retained_count: int
    gram_condition: float
    rule: QuadratureRule
    weight: WeightFn

    def phi_values(self, pts, n=None) -> np.ndarray:
        """(npts, n) matrix of the values of the first n orthonormal
        elements (all retained ones by default)."""
        return self.raw.values(pts) @ self.coeffs[:n].T

    def phi_deriv_values(self, pts, order: int) -> np.ndarray:
        return self.raw.deriv_values(pts, order) @ self.coeffs.T

    def phi_primitive_values(self, pts) -> np.ndarray:
        """Primitives of the orthonormal elements, see RawBasis.primitive_values."""
        used = np.any(self.coeffs != 0, axis=0)
        return self.raw.primitive_values(pts, used) @ self.coeffs.T


def orthonormalize(basis: RawBasis, rule: QuadratureRule, weight: WeightFn,
                   drop_tol: float = 1e-10) -> OrthonormalBasis:
    """Orthonormalize a raw basis in the discrete weighted inner product.

    Pivoted Cholesky on the diagonally-prescaled Gram matrix; elements
    whose scaled pivot falls below drop_tol times the largest are
    dropped as near-dependent.
    """
    if drop_tol <= 0:
        raise ValueError("drop_tol must be positive")
    g = gram_matrix(basis, rule, weight).entries
    scale = np.sqrt(np.real(np.diag(g)))
    corr = g / np.outer(scale, scale)
    order, L, pivots = _pivoted_cholesky(corr, drop_tol)
    r = len(order)
    # phi = L^{-1} applied to the scaled, pivot-ordered raw elements
    rhs = np.zeros((r, len(basis)), dtype=complex)
    rhs[np.arange(r), order] = 1.0 / scale[order]
    coeffs = np.linalg.solve(L, rhs)
    return OrthonormalBasis(
        raw=basis,
        coeffs=coeffs,
        retained_count=r,
        gram_condition=float(pivots[0] / pivots[-1]),
        rule=rule,
        weight=weight,
    )


class KernelEvaluator:
    """Evaluates the kernel of an orthonormal system and its
    anti-holomorphic derivatives.

    Evaluation methods are pure and safe to call concurrently.  The
    quadrature checks read the nodes only through ``node_sums``: the
    matrix of weighted node sums of a few functions, given as
    coefficient rows over the raw basis (``coeffs[:m]``, ``kernel_rows``)
    and as callables of a node block, formed one block of nodes at a
    time, so no function is ever held at every node.
    """

    def __init__(self, onb: OrthonormalBasis):
        self.onb = onb
        self.rule = onb.rule

    @functools.cached_property
    def _node_nu(self) -> np.ndarray:
        return np.asarray(self.onb.weight(self.rule.nodes), dtype=float)

    @functools.cached_property
    def _node_phi(self) -> np.ndarray:
        return self.onb.phi_values(self.rule.nodes)

    def kernel_rows(self, pts) -> np.ndarray:
        """(k, n_raw) raw coefficients of the k kernel columns K(., P_j)."""
        p = self.onb.phi_values(np.atleast_1d(np.asarray(pts, dtype=complex)))
        return p.conj() @ self.onb.coeffs

    def node_sums(self, rows, extra=()) -> np.ndarray:
        """(k, k) matrix S[a, b] = sum_q w_q nu_q f_a(node_q) conj(f_b(node_q))
        of the functions rows @ raw, for (k_rows, n_raw) coefficient rows,
        followed by the callables ``extra`` of a node block.

        S[a, b] is the discrete inner product <f_a, f_b>: against a kernel
        row K(., zeta) it is the reproducing integral, f_a(zeta) when f_a
        lies in the spanned space.  Per GRAM_BLOCK nodes: one evaluation
        of the raw basis, one (k_rows x n_raw)(n_raw x block) product into
        a reused buffer, and one complex (k x block)(block x k) product
        added to S in block order."""
        nodes = self.rule.nodes
        k = len(rows) + len(extra)
        f = np.empty((k, min(GRAM_BLOCK, len(nodes))), dtype=complex)
        s = np.zeros((k, k), dtype=complex)
        for start in range(0, len(nodes), GRAM_BLOCK):
            blk = slice(start, start + GRAM_BLOCK)
            block = nodes[blk]
            fb = f[:, :len(block)]
            np.matmul(rows, self.onb.raw.values(block).T, out=fb[:len(rows)])
            for a, fn in enumerate(extra, len(rows)):
                fb[a] = fn(block)
            s += (fb * (self.rule.weights[blk] * self._node_nu[blk])) @ fb.conj().T
        return s

    def eval_kernel(self, z, w) -> complex:
        """K(z, w), one entry of eval_kernel_grid.  Exactly
        conjugate-symmetric: the arguments are put in a canonical order
        before summing, so swapping them conjugates the result bitwise."""
        z = complex(z)
        w = complex(w)
        if (w.real, w.imag) < (z.real, z.imag):
            return np.conj(self.eval_kernel(w, z))
        return complex(self.eval_kernel_grid(z, w)[0, 0])

    def eval_kernel_grid(self, zs, ws) -> np.ndarray:
        """(len(zs), len(ws)) matrix of kernel values."""
        return self.eval_kernel_dbar(zs, ws, 0)

    def eval_kernel_dbar(self, zs, ws, beta: int) -> np.ndarray:
        """(len(zs), len(ws)) matrix of the beta-th derivative in conj(w),
        sum_k phi_k(z) conj(phi_k^(beta)(w)), by analytic differentiation
        of the conjugated factor; a negative beta raises ValueError."""
        pz = self.onb.phi_values(np.atleast_1d(np.asarray(zs, dtype=complex)))
        pw = self.onb.phi_deriv_values(np.atleast_1d(np.asarray(ws, dtype=complex)), beta)
        return pz @ pw.conj().T

    def kernel_primitive(self, xi, z) -> complex:
        """Kernel primitive M(z, xi) with M(xi, xi) = 0, so that
        dM/dz = K(z, xi).  Requires every contributing basis element to
        have a power-form primitive (use a reduced basis)."""
        pts = np.asarray([z, xi], dtype=complex)
        prim = self.onb.phi_primitive_values(pts)
        phi_xi = self.onb.phi_values(np.asarray(xi, dtype=complex))
        return complex((prim[0] - prim[1]) @ phi_xi.conj())

    def orthonormality_residual(self) -> float:
        """max |<phi_i, phi_j> - delta_ij| in the discrete inner product."""
        g = self.node_sums(self.onb.coeffs)
        return float(np.max(np.abs(g - np.eye(len(g)))))
