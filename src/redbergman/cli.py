"""Command-line front end.

One declarative YAML config per experiment; subcommands pick which
pipeline runs on it.  Outputs (CSV + a plain-text summary record) land
in a directory namespaced by the hash of the effective config, so
concurrent runs never collide.  A summary is written even when the
residual gate fails; a config error writes nothing.

Exit codes: 0 success, 1 gated-residual failure, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np
import yaml

from . import oracles
from .errors import ConfigError, RedBergmanError
from .geometry import (
    Annulus,
    Disc,
    GenericDomain,
    annulus_grid,
    build_annulus_quadrature,
    build_disc_quadrature,
    build_generic_quadrature,
    disc_grid,
)
from .holobasis import (
    ConstantWeight,
    PowerWeight,
    RadialPolyWeight,
    laurent_basis,
    monomial_basis,
    pullback_weight,
    reduced_filter,
)
from .kernel import KernelEvaluator, orthonormalize
from .propermaps import BlaschkeProduct, CorrespondenceModel, PolynomialMap, PowerMap
from .transform import (
    adjoint_residual_matrix,
    operator_bound_check,
    recover_map,
    source_terms,
    verify_correspondence,
)

OUTPUT_ENV = "REDBERGMAN_OUT"
DEFAULT_OUT = "redbergman-out"

KNOWN_CHECKS = ("conjugate_symmetry", "diagonal_positivity", "reproduce_basis",
                "self_reproduction", "dirichlet_pairing")

# how far above 1 an operator-bound ratio may read: the bound is met with
# equality for Q = w^2 - z, where adjoint_disc reads 1 + 1.7e-14
BOUND_SLACK = 1e-12

# rows per write of a CSV body: joining one block's cells at a time keeps
# the bytes held while writing to a few tens of KB, where the whole body
# would be MBs
CSV_BLOCK_ROWS = 256

# libyaml's emitter when PyYAML was built with it, about 4x faster than
# PyYAML's own; the two write the same bytes for configs whose strings are
# printable ASCII and whose keys have 1 to 122 characters (README)
CONFIG_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# libyaml's parser likewise: about 7x faster than PyYAML's, same data
CONFIG_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# a float's text in summaries: 17 significant digits read back to the same
# float; CSVs write the same text through _format_17g
_fmt = "%.17g".__mod__


# ---------------------------------------------------------------------------
# config access

_MISSING = object()
POSITIVE_INT = "positive int"
# what each kind of cfg_get accepts
_WANTED = {float: "a number", complex: "a number or [re, im] pair", int: "an integer",
           POSITIVE_INT: "a positive integer", bool: "true or false"}


def _number(value):
    # a number may be text: PyYAML reads one without a dot, such as 1e-6, as a string
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError
    number = float(value)
    if number != number:  # NaN: as a tolerance it would pass every residual
        raise ValueError
    return number


def _read(value, path, kind):
    try:
        if kind is float:
            return _number(value)
        if kind is complex:
            re, im = value if isinstance(value, (list, tuple)) else (value, 0.0)
            return complex(_number(re), _number(im))
        # a bool is an int to Python, but never a number here
        if (isinstance(value, bool) != (kind is bool) or not isinstance(value, int)
                or (kind is POSITIVE_INT and value < 1)):
            raise TypeError
        return value
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{path}' must be {_WANTED[kind]}, got {value!r}") from None


def cfg_get(cfg, path, default=_MISSING, kind=None):
    """The field at the dotted ``path`` of ``cfg``, read as ``kind``: float,
    int, POSITIVE_INT, complex, bool, or None for the value as it is.  A
    field that is absent or null reads as ``default``; without a default
    it is a config error."""
    node = cfg
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            if default is _MISSING:
                raise ConfigError(f"missing config field '{path}'")
            return default
    return node if kind is None else _read(node, path, kind)


def cfg_list(cfg, path, kind, default=_MISSING):
    """The list at ``path`` with each entry read as ``kind``; an entry's
    errors name it as ``path[i]``."""
    values = cfg_get(cfg, path, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"'{path}' must be a list, got {values!r}")
    return values if kind is None else [_read(v, f"{path}[{i}]", kind)
                                        for i, v in enumerate(values)]


def _poly_coeffs(terms, path, kind):
    """The ascending array c of the polynomial sum of c[i, j] x^i y^j given
    at ``path`` as terms [i, j, coefficient], the coefficient read as
    ``kind`` (a complex one may be written re, im)."""
    if not (isinstance(terms, (list, tuple)) and terms):
        raise ConfigError(f"'{path}' must be a non-empty list of [i, j, coefficient]")
    coeffs = {}
    for n, term in enumerate(terms):
        at = f"{path}[{n}]"
        if not (isinstance(term, (list, tuple)) and len(term) >= 3
                and all(_read(e, at, int) >= 0 for e in term[:2])):
            raise ConfigError(f"'{at}' must be [i, j, coefficient] with i, j >= 0, got {term!r}")
        coeffs[tuple(term[:2])] = _read(term[2] if len(term) == 3 else term[2:], at, kind)
    c = np.zeros(tuple(np.max(list(coeffs), axis=0) + 1), dtype=kind)
    for ij, a in coeffs.items():
        c[ij] = a
    return c


# ---------------------------------------------------------------------------
# builders

def build_domain(cfg, key):
    kind = cfg_get(cfg, f"{key}.type")
    center = cfg_get(cfg, f"{key}.center", 0j, complex)
    try:
        if kind == "disc":
            return Disc(center, cfg_get(cfg, f"{key}.radius", kind=float))
        if kind == "annulus":
            return Annulus(center, cfg_get(cfg, f"{key}.r_inner", kind=float),
                           cfg_get(cfg, f"{key}.r_outer", kind=float))
        if kind == "generic":
            return _generic_domain(cfg, key)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.type must be disc, annulus or generic, got {kind!r}")


def _generic_domain(cfg, key):
    bbox = cfg_list(cfg, f"{key}.bbox", float)
    if len(bbox) != 4:
        raise ConfigError(f"'{key}.bbox' must be [xmin, xmax, ymin, ymax]")
    # each inequality as a polynomial that is negative inside
    ineqs = []
    for n, entry in enumerate(cfg_list(cfg, f"{key}.inequalities", None)):
        at = f"{key}.inequalities[{n}]"
        if not (isinstance(entry, dict) and entry.get("sign") in ("<", ">")):
            raise ConfigError(f"'{at}.sign' must be '<' or '>'")
        c = _poly_coeffs(entry.get("poly"), f"{at}.poly", float)
        ineqs.append(c if entry["sign"] == "<" else -c)

    def inside(z):
        ok = np.ones(z.shape, dtype=bool)
        for c in ineqs:
            ok &= np.polynomial.polynomial.polyval2d(z.real, z.imag, c) < 0
        return ok

    if cfg_list(cfg, f"{key}.holes", None, []):
        raise ConfigError(f"'{key}.holes': generic domains with holes wait for ROADMAP item 2")
    return GenericDomain(inside=inside, bbox=tuple(bbox))


def build_rule(cfg, domain, qkey):
    try:
        if isinstance(domain, GenericDomain):
            return build_generic_quadrature(domain, cfg_get(cfg, f"{qkey}.n_grid", kind=int))
        n_radial = cfg_get(cfg, f"{qkey}.n_radial", kind=int)
        n_angular = cfg_get(cfg, f"{qkey}.n_angular", kind=int)
        if isinstance(domain, Disc):
            return build_disc_quadrature(domain.center, domain.radius, n_radial, n_angular)
        return build_annulus_quadrature(domain.center, domain.r_inner, domain.r_outer,
                                        n_radial, n_angular)
    except ValueError as exc:
        raise ConfigError(f"{qkey}: {exc}") from exc


def build_basis(cfg, domain, key):
    """Returns (basis, prefilter_size); the reduced filter may shrink it."""
    kind = cfg_get(cfg, f"{key}.type")
    center = cfg_get(cfg, f"{key}.center", 0j, complex)
    try:
        if kind == "monomial":
            basis = monomial_basis(center, cfg_get(cfg, f"{key}.degree", kind=int), domain)
        elif kind == "laurent":
            if not isinstance(domain, Annulus):
                raise ConfigError(f"{key}: a laurent basis requires an annulus domain")
            basis = laurent_basis(center, cfg_get(cfg, f"{key}.n_min", kind=int),
                                  cfg_get(cfg, f"{key}.n_max", kind=int), domain)
        else:
            raise ConfigError(f"{key}.type must be monomial or laurent, got {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    n_prefilter = len(basis)
    if cfg_get(cfg, f"{key}.reduced", False, bool):
        basis = reduced_filter(basis)
    return basis, n_prefilter


def build_weight(cfg, key="weight"):
    if cfg_get(cfg, key, None) is None:
        return ConstantWeight()
    kind = cfg_get(cfg, f"{key}.type")
    center = cfg_get(cfg, f"{key}.center", 0j, complex)
    try:
        if kind == "constant":
            return ConstantWeight(cfg_get(cfg, f"{key}.value", 1.0, float))
        if kind == "power":
            return PowerWeight(cfg_get(cfg, f"{key}.alpha", kind=float), center)
        if kind == "radial_poly":
            return RadialPolyWeight(cfg_list(cfg, f"{key}.coeffs", float), center)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.type must be constant, power or radial_poly, got {kind!r}")


def build_map(cfg, source, target, key="map"):
    kind = cfg_get(cfg, f"{key}.type")
    try:
        if kind in ("power", "identity"):
            m = 1 if kind == "identity" else cfg_get(cfg, f"{key}.m", kind=int)
            return PowerMap(m, source=source, target=target)
        if kind == "blaschke":
            for dom, name in ((source, "domain"), (target, "domain2")):
                _require_unit_disc(dom, f"a blaschke {key} ('{name}')")
            return BlaschkeProduct(cfg_list(cfg, f"{key}.zeros", complex))
        if kind == "polynomial":
            return PolynomialMap(cfg_list(cfg, f"{key}.coeffs", complex), source, target)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.type must be power, identity, blaschke or polynomial")


def build_correspondence(cfg, d1, d2, key="correspondence"):
    c = _poly_coeffs(cfg_get(cfg, f"{key}.terms"), f"{key}.terms", complex)
    try:
        return CorrespondenceModel(coeffs=c, d1=d1, d2=d2)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_grid(cfg, key, seed=0):
    kind = cfg_get(cfg, f"{key}.kind")
    center = cfg_get(cfg, f"{key}.center", 0j, complex)
    if kind in ("cartesian", "random_disc"):
        rmax = cfg_get(cfg, f"{key}.rmax", kind=float)
        n = cfg_get(cfg, f"{key}.n", kind=POSITIVE_INT)
    try:
        if kind == "cartesian":
            pts = disc_grid(rmax, n, center)
        elif kind == "polar":
            pts = annulus_grid(cfg_get(cfg, f"{key}.r_min", kind=float),
                               cfg_get(cfg, f"{key}.r_max", kind=float),
                               cfg_get(cfg, f"{key}.n_radial", kind=POSITIVE_INT),
                               cfg_get(cfg, f"{key}.n_angular", kind=POSITIVE_INT), center)
        elif kind == "random_disc":
            rng = np.random.default_rng(seed)
            pts = center + rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        elif kind == "points":
            pts = np.asarray(cfg_list(cfg, f"{key}.values", complex))
        else:
            raise ConfigError(f"{key}.kind must be cartesian, polar, random_disc or points")
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if pts.size == 0:
        raise ConfigError(f"{key} has no sample points")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"{key} has a non-finite sample point")
    return pts


def _require_inside(pts, domain, key):
    """Grid ``key``'s points ``pts``, refused if one lies outside ``domain``."""
    outside = pts[~domain.contains(pts)]
    if outside.size:
        raise ConfigError(f"{key} has a sample point outside its domain: {outside[0]}")
    return pts


def build_grids(cfg, key, d1, d2):
    """The z and w grids under ``key``, drawn from the config's seed, in d1 and d2."""
    seed = cfg_get(cfg, "seed", 0, int)
    return (_require_inside(build_grid(cfg, f"{key}.z", seed), d1, f"{key}.z"),
            _require_inside(build_grid(cfg, f"{key}.w", seed), d2, f"{key}.w"))


def build_side(cfg, suffix=""):
    """(domain, orthonormal, prefilter basis size) of one side, each built
    once from domain<suffix>, quadrature<suffix> and basis<suffix>;
    orthonormal(weight) orthonormalizes the basis once per weight object."""
    domain = build_domain(cfg, "domain" + suffix)
    rule = build_rule(cfg, domain, "quadrature" + suffix)
    basis, n_prefilter = build_basis(cfg, domain, "basis" + suffix)
    # orthonormalize checks drop_tol too, but only when orthonormal(weight) runs
    drop_tol = cfg_get(cfg, "drop_tol", 1e-10, float)
    if not drop_tol > 0:
        raise ConfigError(f"'drop_tol' must be positive, got {drop_tol!r}")
    orthonormal = functools.cache(lambda weight: orthonormalize(basis, rule, weight, drop_tol))
    return domain, orthonormal, n_prefilter


def build_sides(cfg):
    """(d1, orthonormal1, d2, orthonormal2); side 2 is side 1 when its
    domain, quadrature and basis blocks have side 1's JSON text, in which
    1, 1.0 and true differ, so reuse never skips a side-2 config error."""
    d1, orthonormal1, _ = build_side(cfg)
    if all(json.dumps(cfg_get(cfg, k, None), sort_keys=True, default=str)
           == json.dumps(cfg_get(cfg, k + "2", None), sort_keys=True, default=str)
           for k in ("domain", "quadrature", "basis")):
        return d1, orthonormal1, d1, orthonormal1
    d2, orthonormal2, _ = build_side(cfg, "2")
    return d1, orthonormal1, d2, orthonormal2


# ---------------------------------------------------------------------------
# output plumbing

class RunDir:
    """A run's output directory, named by its config's hash and created,
    with config.yaml, by the run's first output file."""

    def __init__(self, out_root, subcommand, cfg):
        canonical = json.dumps(cfg, sort_keys=True, default=str).encode()
        digest = hashlib.sha256(canonical).hexdigest()[:12]
        self.path = os.path.join(out_root, f"{subcommand}-{digest}")
        self.cfg = cfg  # None once config.yaml is written
        self.summary = {"config_hash": digest}

    def file(self, name):
        if self.cfg is not None:
            os.makedirs(self.path, exist_ok=True)
            with open(os.path.join(self.path, "config.yaml"), "w", encoding="utf-8") as fh:
                yaml.dump(self.cfg, fh, Dumper=CONFIG_DUMPER, sort_keys=True)
            self.cfg = None
        return os.path.join(self.path, name)

    def add(self, **fields):
        self.summary.update(fields)

    def write_summary(self, status, verbose=False):
        lines = [f"status = {status}"]
        for k, v in self.summary.items():
            if isinstance(v, float):
                v = _fmt(v)
            lines.append(f"{k} = {v}")
        with open(self.file("summary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        if verbose:
            print("\n".join(lines))


# format(x, ".17g") has at most 24 characters: -d.dddddddddddddddde-XXX
_FMT_WIDTH = 24
# values per _format_block call, so that its temporaries stay near 400 KB
# however many values a CSV has
_FMT_BLOCK = 4096


def _split(a):
    """Veltkamp's split a = hi + lo into halves of 26 bits, so that the
    products of halves in Dekker's two-product are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**p = hi + lo exactly for p <= 45 (5**p < 2**106, so the remainder of
# rounding 10**p to a double is itself a double), with hi split for Dekker
_POW10_HI = np.array([float(10 ** p) for p in range(45)])
_POW10_LO = np.array([float(10 ** p - int(h)) for p, h in enumerate(_POW10_HI)])
_POW10_HH, _POW10_HL = _split(_POW10_HI)
# the ASCII digits of 0..9999, four to a uint32, so one gather moves four
_DIGIT2 = np.array([divmod(k, 10) for k in range(100)], np.uint8) + 48
_DIGIT4 = np.concatenate(np.broadcast_arrays(_DIGIT2[:, None], _DIGIT2[None, :]),
                         axis=2).view(np.uint32).ravel()


def _ascii_digits(n):
    """The 17 ASCII digits of each int64 in [1e16, 1e17), as (len(n), 17) uint8."""
    chunks = np.empty((len(n), 5), np.uint32)
    for c in range(4, 0, -1):
        n, low = np.divmod(n, 10000)
        chunks[:, c] = _DIGIT4[low]
    digits = chunks.view(np.uint8)
    digits[:, 3] = 48 + n  # the leading digit, in the first chunk's last byte
    return digits[:, 3:]


def _round17(values):
    """(n, exp10, ok) for each float64 x: n = |x|·10**(16 - exp10) rounded
    to an integer, exp10 = floor(log10|x|), and ok where n is certified to
    be x's 17 significant digits, exactly rounded.

    For |x| in [1e-28, 1e17), |x|·10**p is formed as an unevaluated sum
    s + r, off by less than 4e-15: Dekker's two-product of |x| and the
    exact double-double 10**p, closed by a fast two-sum.  n is taken only
    when 10**16 <= s + r, n < 10**17 and the fraction of s + r is more
    than 1e-9 from 1/2; ok is False for zeros, inf, nan, subnormals, |x|
    out of range, near-ties and a misestimated exponent."""
    x = np.abs(values)
    with np.errstate(divide="ignore"):
        p = 16 - np.floor(np.log10(x))
    inrange = (p >= 0) & (p <= 44)
    # out-of-range values compute 1.0 * 10**0, which keeps the arithmetic finite
    x = np.where(inrange, x, 1.0)
    p = np.where(inrange, p, 0).astype(np.intp)
    (xh, xl), hh, hl = _split(x), _POW10_HH[p], _POW10_HL[p]
    s = x * _POW10_HI[p]
    r = ((xh * hh - s) + xh * hl + xl * hh) + xl * hl + x * _POW10_LO[p]
    total = s + r
    r -= total - s  # now total + r == s + r exactly
    whole = np.floor(r)
    r -= whole  # the fraction
    # total >= 2**53 is a whole number, so n is floor(total + r)
    n = total.astype(np.int64) + whole.astype(np.int64)
    ok = inrange & (n >= 10 ** 16) & (np.abs(r - 0.5) > 1e-9)
    n += r > 0.5
    ok &= n < 10 ** 17
    return n, 16 - p, ok


def _format_17g(values):
    """format(x, ".17g") of each float64 of ``values``, as an ``S24``
    array, formatted _FMT_BLOCK values at a time."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(len(values), f"S{_FMT_WIDTH}")
    for start in range(0, len(values), _FMT_BLOCK):
        _format_block(values[start:start + _FMT_BLOCK], out[start:start + _FMT_BLOCK])
    return out


def _format_block(values, out):
    """Write format(x, ".17g") of each x of ``values`` to ``out``: from
    _round17's certified digits where it has them, laid out in %g form,
    and through format() itself elsewhere."""
    n, exp10, ok = _round17(values)
    # accepted values in runs of one exponent, each laid out by slices
    acc = np.flatnonzero(ok)
    acc = acc[np.argsort(exp10[acc])]
    exp10 = exp10[acc]
    digits = _ascii_digits(n[acc])
    # significant digits left once trailing zeros are stripped
    kept = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    text = np.zeros((len(acc), _FMT_WIDTH), np.uint8)
    starts = np.flatnonzero(np.diff(exp10, prepend=-100)).tolist()
    for lo, hi in zip(starts, [*starts[1:], len(acc)]):
        e, d, k, t = int(exp10[lo]), digits[lo:hi], kept[lo:hi], text[lo:hi]
        if e < -4:  # d.ddde-XX
            t[:, 0] = d[:, 0]
            t[:, 1] = ord(".")
            t[:, 2:18] = d[:, 1:]
            length = k + (k > 1)
        elif e < 0:  # 0.000ddd
            t[:, :1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            t[:, 1 - e:18 - e] = d
            length = k + 1 - e
        else:  # ddd.ddd, every integer digit kept
            t[:, :e + 1] = d[:, :e + 1]
            t[:, e + 1] = ord(".")
            t[:, e + 2:18] = d[:, e + 1:]
            length = np.where(k > e + 1, k + 1, e + 1)
        # NUL from the end of the text: stripped zeros, a '.' left bare
        t *= np.arange(_FMT_WIDTH) < length[:, None]
        if e < -4:
            t[np.arange(len(t))[:, None], length[:, None] + np.arange(4)] = \
                np.frombuffer(b"e-%02d" % -e, np.uint8)
    neg = np.flatnonzero(np.signbit(values[acc]))
    text[neg, 1:] = text[neg, :-1]
    text[neg, 0] = ord("-")

    out.view(np.uint8).reshape(len(values), _FMT_WIDTH)[acc] = text
    rest = np.flatnonzero(~ok)
    out[rest] = [format(v, ".17g").encode() for v in values[rest].tolist()]


def _csv_cells(columns):
    """The text of each value of each array in ``columns`` followed by its
    separator, a comma or, in the last column, the row's CRLF, as one
    ``S26`` array in the order of the concatenated columns."""
    text = _format_17g(np.concatenate(columns))
    cells = np.zeros((len(text), _FMT_WIDTH + 2), np.uint8)
    cells[:, :_FMT_WIDTH] = text.view(np.uint8).reshape(len(text), _FMT_WIDTH)
    ends = cells.argmin(axis=1)  # the first NUL: no text has one
    rows = np.arange(len(text))
    cells[rows, ends] = ord(",")
    last = len(text) - len(columns[-1])
    cells[rows[last:], ends[last:]] = ord("\r")
    cells[rows[last:], ends[last:] + 1] = ord("\n")
    return cells.view(f"S{_FMT_WIDTH + 2}").ravel()


def write_csv(path, header, table):
    """Write ``header`` and the rows of the ``(n_rows, len(header))``
    float array ``table`` as CSV: excel dialect (CRLF, nothing quoted),
    each value as ``.17g``.  Each column formats each distinct bit
    pattern once, so 0.0 and -0.0 keep their own strings."""
    table = np.asarray(table, dtype=np.float64)
    # every column's distinct values; index[r, c] is the position of cell
    # (r, c)'s value among them all
    distinct = []
    index = np.empty(table.shape, dtype=np.intp)
    for c, bits in enumerate(table.view(np.int64).T):
        values, inverse = np.unique(bits, return_inverse=True)
        index[:, c] = inverse + sum(map(len, distinct))
        distinct.append(values.view(np.float64))
    cells = _csv_cells(distinct)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(index), CSV_BLOCK_ROWS):
            fh.write(b"".join(cells[index[start:start + CSV_BLOCK_ROWS].ravel()].tolist()))


# ---------------------------------------------------------------------------
# oracle and check evaluation for the kernel pipeline

def build_oracle(cfg, domain):
    """The closed-form kernel of the oracle block as a function
    (zs, ws) -> values on the grid product, checked against the domain
    and the basis; None when the config has no oracle."""
    if cfg_get(cfg, "oracle", None) is None:
        return None
    kind = cfg_get(cfg, "oracle.type")
    if kind in ("disc", "disc_power_weight"):
        _require_unit_disc(domain, f"oracle.type = {kind}")
        if kind == "disc":
            return lambda zs, ws: oracles.disc_kernel(zs[:, None], ws[None, :])
        alpha = cfg_get(cfg, "oracle.alpha", kind=float)
        return lambda zs, ws: oracles.disc_power_weight_kernel(zs[:, None], ws[None, :], alpha)
    if kind in ("annulus_reduced", "annulus_full"):
        if not isinstance(domain, Annulus):
            raise ConfigError(f"oracle.type = {kind} requires an annulus domain")
        reduced = cfg_get(cfg, "basis.reduced", False, bool)
        if reduced != (kind == "annulus_reduced"):
            raise ConfigError("oracle reduced/full flavor must match basis.reduced")
        c = domain.center  # the series is in powers of z - c
        if cfg_get(cfg, "basis.center", 0j, complex) != c:
            raise ConfigError(f"oracle.type = {kind} requires basis.center at the annulus centre")
        window = cfg_get(cfg, "basis.n_min", kind=int), cfg_get(cfg, "basis.n_max", kind=int)
        return lambda zs, ws: oracles.annulus_kernel(zs[:, None] - c, ws[None, :] - c,
                                                     domain.r_inner, domain.r_outer, *window,
                                                     reduced=reduced)
    raise ConfigError(f"unknown oracle.type {kind!r}")


def _require_unit_disc(dom, what):
    if not (isinstance(dom, Disc) and dom.center == 0 and dom.radius == 1.0):
        raise ConfigError(f"{what} requires the unit disc domain")


def build_checks(cfg):
    """The config's ``checks`` mapping as check name -> float tolerance."""
    checks = cfg_get(cfg, "checks", {})
    if not isinstance(checks, dict):
        raise ConfigError("'checks' must map check names to tolerances")
    for name in checks:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    return {name: cfg_get(cfg, f"checks.{name}", kind=float) for name in checks}


def _run_checks(tols, ev, zs, run):
    """Structural-invariant checks, each gated on its own tolerance.

    ``tols`` maps check name -> tolerance (``build_checks``).  Returns
    0.0 when every check passes and inf otherwise, so any overall
    ``tolerance`` gates the run on check success.
    """
    sample = zs[:: max(1, len(zs) // 8)][:8]
    if {"conjugate_symmetry", "diagonal_positivity"} & tols.keys():
        k = ev.eval_kernel_grid(sample, sample)
    # every node sum is an entry of one node_sums matrix in orthonormal
    # coordinates: the first m elements e_j, K(., zeta) and K(., P) = conj(phi(P))
    # for the points P of sample[:4], and 2 (z - c0) for the Dirichlet pairing last
    onb = ev.onb
    zeta = complex(sample[len(sample) // 2])
    c0 = getattr(onb.rule.domain, "center", 0.0)
    m = min(5, onb.retained_count) if "reproduce_basis" in tols else 0
    zetas = [zeta] if {"reproduce_basis", "dirichlet_pairing"} & tols.keys() else []
    self_pts = sample[:4] if "self_reproduction" in tols else sample[:0]
    extra = [lambda z: 2.0 * (z - c0)] if "dirichlet_pairing" in tols else []
    rows = np.vstack([np.eye(m, onb.retained_count),
                      onb.phi_values(np.r_[zetas, self_pts]).conj()])
    s = onb.node_sums(rows, extra) if len(rows) else None
    own = slice(m + len(zetas), len(rows))
    all_ok = True
    for name, tol in tols.items():
        if name == "conjugate_symmetry":
            res = float(np.max(np.abs(k - k.conj().T)))
        elif name == "diagonal_positivity":
            res = 0.0 if np.all(np.diagonal(k).real > 0) else float("inf")
        elif name == "reproduce_basis":
            want = onb.phi_values(np.asarray(zeta))[:m]
            res = float(np.max(np.abs(s[:m, m] - want)))
        elif name == "self_reproduction":
            p = onb.phi_values(self_pts)
            # K(P_i, P_j) as 1-D sums, so an entry does not depend on the batch
            res = float(np.max(np.abs(np.sum(p[:, None] * p.conj(), axis=-1) - s[own, own].T)))
        elif name == "dirichlet_pairing":
            res = abs(s[-1, m] - 2.0 * (zeta - c0))
        ok = res <= tol
        all_ok = all_ok and ok
        run.add(**{f"check_{name}": float(res), f"check_{name}_ok": ok})
    return 0.0 if all_ok else float("inf")


# ---------------------------------------------------------------------------
# pipelines

def run_kernel(cfg, run: RunDir):
    tols = build_checks(cfg)
    csv = cfg_get(cfg, "output.csv", True, bool)
    domain, orthonormal, n_raw = build_side(cfg)
    zs, ws = build_grids(cfg, "grid", domain, domain)
    ozs, ows = (build_grids(cfg, "oracle.grid", domain, domain)
                if cfg_get(cfg, "oracle.grid", None) else (zs, ws))
    oracle = build_oracle(cfg, domain)
    ev = KernelEvaluator(orthonormal(build_weight(cfg)))
    run.add(n_raw=n_raw, retained_count=ev.onb.retained_count,
            gram_condition=ev.onb.gram_condition)

    if csv:
        k = ev.eval_kernel_grid(zs, ws)
        z, w = np.meshgrid(zs, ws, indexing="ij")
        table = np.stack((z.real, z.imag, w.real, w.imag, k.real, k.imag), axis=-1)
        write_csv(run.file("kernel.csv"),
                  ["re_z", "im_z", "re_w", "im_w", "re_k", "im_k"], table.reshape(-1, 6))

    gate = 0.0
    if oracle is not None:
        got, want = ev.eval_kernel_grid(ozs, ows), oracle(ozs, ows)
        gate = float(np.max(np.abs(got - want) / np.abs(want)))
        run.add(oracle_max_rel_err=gate)
    # np.maximum keeps a NaN residual, which max() may drop
    return float(np.maximum(gate, _run_checks(tols, ev, zs, run)))


def run_verify(cfg, run: RunDir):
    weight = build_weight(cfg)
    has_map = cfg_get(cfg, "map", None) is not None
    has_corr = cfg_get(cfg, "correspondence", None) is not None
    if has_map == has_corr:
        raise ConfigError("verify needs exactly one of 'map' or 'correspondence'")
    if has_corr and not isinstance(weight, ConstantWeight):
        raise ConfigError("weighted verification is defined for maps only")

    csv = cfg_get(cfg, "output.csv", True, bool)
    d1, orthonormal1, d2, orthonormal2 = build_sides(cfg)
    zs, ws = build_grids(cfg, "grid", d1, d2)
    model = build_map(cfg, d1, d2) if has_map else build_correspondence(cfg, d1, d2)
    # a proper map is swept as its graph correspondence
    report = verify_correspondence(model, orthonormal1(pullback_weight(weight, model)),
                                   orthonormal2(weight), zs, ws)
    run.add(n_samples=report.n_samples, excluded=report.excluded,
            max_abs_residual=report.max_abs_residual,
            max_rel_residual=report.max_rel_residual, lhs_scale=report.lhs_scale)

    if csv:
        _write_residual_csv(run, report)
    return report.max_rel_residual


def _write_residual_csv(run, report):
    """One row per sample of the sweep's record, w-major."""
    z, w = np.tile(report.z, len(report.w)), np.repeat(report.w, len(report.z))
    lhs, rhs = report.lhs.T.ravel(), report.rhs.T.ravel()
    cols = (z.real, z.imag, w.real, w.imag, np.abs(lhs - rhs), np.abs(lhs))
    write_csv(run.file("samples.csv"),
              ["re_z", "im_z", "re_w", "im_w", "abs_residual", "abs_lhs"], np.column_stack(cols))


def run_adjoint(cfg, run: RunDir):
    """Adjointness residuals over the first few orthonormal elements of
    each side, one block per model the config names: the gamma block of
    the correspondence, in systems with weight 1, plus its p*q operator
    bound, and the lambda block of the map, in systems with weights
    nu o f on the source and nu on the target."""
    weight = build_weight(cfg)
    n_el = cfg_get(cfg, "adjoint.n_elements", 5, POSITIVE_INT)
    d1, orthonormal1, d2, orthonormal2 = build_sides(cfg)
    blocks = []  # (summary name, model, nu), every model built before any numerics
    if cfg_get(cfg, "correspondence", None) is not None:
        blocks.append(("gamma", build_correspondence(cfg, d1, d2), ConstantWeight()))
    if cfg_get(cfg, "map", None) is not None:
        blocks.append(("lambda", build_map(cfg, d1, d2), weight))
    if not blocks:
        raise ConfigError("adjoint needs 'map' and/or 'correspondence'")
    worst = 0.0
    for name, model, nu in blocks:
        onb1 = orthonormal1(pullback_weight(nu, model))
        onb2 = orthonormal2(nu)
        if n_el > min(onb1.retained_count, onb2.retained_count):
            raise ConfigError(f"adjoint.n_elements = {n_el} exceeds the retained counts "
                              f"{onb1.retained_count}, {onb2.retained_count} (source, target)")
        source = source_terms(model, onb1, onb2, n_el)
        res = float(np.max(adjoint_residual_matrix(model, onb1, onb2, n_el, source)))
        worst = float(np.maximum(worst, res))  # a NaN residual stays NaN
        run.add(**{f"{name}_max_residual": res})
        if name == "gamma":
            ratio = float(np.max(operator_bound_check(model, onb1, onb2, n_el, source)))
            run.add(bound_max_ratio=ratio)
            if not ratio <= 1 + BOUND_SLACK:
                worst = float("inf")
    run.add(max_adjoint_residual=worst)
    return worst


def run_recover(cfg, run: RunDir):
    if cfg_get(cfg, "recover.stencil", None) is not None:
        raise ConfigError("'recover.stencil' is no longer used: the recovery "
                          "derivative is now exact; remove the key")
    probe = cfg_get(cfg, "recover.probe", 0j, complex)
    fallback = cfg_get(cfg, "recover.fallback", 0.1 + 0j, complex)
    csv = cfg_get(cfg, "output.csv", True, bool)
    d1, orthonormal, _ = build_side(cfg)
    zs = _require_inside(build_grid(cfg, "grid.z", cfg_get(cfg, "seed", 0, int)), d1, "grid.z")
    d2 = build_domain(cfg, "domain2")
    _require_unit_disc(d2, "recover")
    f = build_map(cfg, d1, d2)
    ev = KernelEvaluator(orthonormal(build_weight(cfg)))
    rec = recover_map(f, ev, zs, probe=probe, fallback_probe=fallback)
    fz = f(zs)
    err = np.abs(rec.map_estimate - fz)
    sup_err = float(np.max(err[rec.valid])) if np.any(rec.valid) else float("inf")
    run.add(probe=str(rec.probe), probe_shifted=rec.probe_shifted,
            excluded=rec.excluded, sup_map_error=sup_err)
    if csv:
        v = rec.valid
        z, g, fv = zs[v], rec.map_estimate[v], fz[v]
        write_csv(run.file("recover.csv"),
                  ["re_z", "im_z", "re_ghat", "im_ghat", "re_f", "im_f", "abs_err"],
                  np.column_stack((z.real, z.imag, g.real, g.imag, fv.real, fv.imag, err[v])))
    return sup_err


PIPELINES = {
    "kernel": run_kernel,
    "verify": run_verify,
    "adjoint": run_adjoint,
    "recover": run_recover,
}


# ---------------------------------------------------------------------------
# config loading / presets / entry point

def load_config(path, overrides):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=CONFIG_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: '{part}' is not a mapping")
        try:
            node[parts[-1]] = yaml.load(raw, Loader=CONFIG_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {key}: {raw!r} is not valid YAML: {exc}") from exc
    return cfg


def preset_names():
    pkg = resources.files("redbergman") / "presets"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def preset_text(name):
    path = resources.files("redbergman") / "presets" / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(f"no preset named {name!r}; try 'presets list'")
    return path.read_text(encoding="utf-8")


def execute(subcommand, cfg, out_root, verbose=False):
    run = RunDir(out_root, subcommand, cfg)
    run.add(seed=cfg_get(cfg, "seed", 0, int))
    tolerance = cfg_get(cfg, "tolerance", None, float)
    try:
        gate_value = PIPELINES[subcommand](cfg, run)
    except ConfigError:
        raise
    except (RedBergmanError, np.linalg.LinAlgError) as exc:
        run.add(error=f"{type(exc).__name__}: {exc}")
        run.write_summary("error", verbose)
        print(f"{subcommand}: numerical failure: {exc}", file=sys.stderr)
        return 3
    gated = tolerance is not None and not gate_value <= tolerance  # NaN fails
    if tolerance is not None:
        run.add(gate_value=float(gate_value), gate_tolerance=tolerance)
    run.write_summary("gate_failed" if gated else "ok", verbose)
    print(f"{subcommand}: {'FAIL' if gated else 'ok'} "
          f"(gate {_fmt(gate_value)}{'' if tolerance is None else ' vs tol ' + _fmt(tolerance)}) "
          f"-> {run.path}")
    return 1 if gated else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="redbergman",
        description="Reduced/weighted Bergman kernels and transformation-formula checks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the summary record to stdout")
    parser.add_argument("--output-dir", default=None,
                        help=f"output root (default ${OUTPUT_ENV} or ./{DEFAULT_OUT})")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline on a config")
        p.add_argument("config", help="YAML experiment config")
        p.add_argument("--set", action="append", dest="overrides", metavar="KEY=VALUE",
                       help="override a config field (dotted path)")
    pp = sub.add_parser("presets", help="list, show or run shipped preset configs")
    pp.add_argument("action", choices=["list", "show", "run"])
    pp.add_argument("name", nargs="?", help="preset name (or 'all' with run)")

    args = parser.parse_args(argv)
    out_root = args.output_dir or os.environ.get(OUTPUT_ENV) or DEFAULT_OUT

    try:
        if args.command == "presets":
            return _presets_cmd(args, out_root)
        cfg = load_config(args.config, getattr(args, "overrides", None))
        return execute(args.command, cfg, out_root, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _presets_cmd(args, out_root) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
        return 0
    if args.action == "show":
        if not args.name:
            raise ConfigError("presets show needs a name")
        print(preset_text(args.name), end="")
        return 0
    names = preset_names() if args.name in (None, "all") else [args.name]
    worst = 0
    for name in names:
        cfg = yaml.load(preset_text(name), Loader=CONFIG_LOADER)
        command = cfg.pop("run", None)
        if command not in PIPELINES:
            raise ConfigError(f"preset {name} lacks a valid 'run' field")
        print(f"[preset {name}]")
        worst = max(worst, execute(command, cfg, out_root))
    return worst


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
