"""Section-theoretic approximants of the envelope and coefficient bounds.

On the circle-invariant model, global sections of the degree m*d bundle
are spanned by monomials z^k, k = 0..m*d, so the sup over normalized
sections is realised by the best monomial.  Two normalizations appear:

* sup-normalized (psi1): the monomial weight is its Legendre value, giving
  psi1(s) = max_k ( (k/m) s - u*(k/m) ), a lower approximant of the
  envelope supported on the slope lattice k/m;
* L2-normalized (psi2) against a base probability measure, which can only
  enlarge the coefficient, so psi2 >= psi1.

Both are one lattice maximum max_k ( (k/m) s - c_k ), folded one lattice
row at a time into a running maximum over the grid, and differ only in
c_k: for psi1 the exact u*(k/m), read off the 1-d line envelope by the
same lookup the envelope uses; for psi2 the log squared L2 norm of the
k-th monomial, divided by m.  When no k/m lies in [slope_left,
slope_right] there is no approximant.

The two are sandwiched around the envelope up to the comparison constant
C' = C'_1 + C'_2 built from chart-box oscillations and the density ratio
of the flat measure against the base measure (circle-averaged
Fubini-Study), each box sampled at its grid points and its two ends
clipped to the grid; the family module's gap bound shares that routine.

For sections F(z, x) = sum_{l,k} c_{lk} z^l x^k on the model total space,
circle averaging in the fiber angle is a Parseval identity: the weighted
L2 mass of F splits into the masses of its fiber-degree components, so
each component mass is bounded by the total.  Both sides are integrated
numerically, the total through literal angle averaging: F itself is
evaluated on an equispaced (theta, phi) angle grid, as complex products
of the fiber factors r^l e^{il theta}, stacked for up to five angles theta,
against the base factors of one angle phi on one block of s columns, and
|F|^2 is averaged from those values, so the total never shares the
coefficient algebra of the component side.  |F|^2 only carries angle
frequencies |l - l'| <= m and |k - k'| <= k_max, so m + 1 and k_max + 1
angles average it exactly.  The s nodes and the weight kernel depend on
the pair and m only; the last (pair, m) built is kept, so a battery of
sections on one pair builds them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .envelope import _conjugate_1d, equilibrium_envelope
from .errors import (InvalidCoverError, InvalidInputError,
                     InvalidParameterError, NoEnvelopeError, PrecisionError)
from .report import VerificationReport
from .weights import SampledWeight, SlopeInterval, _is_integer

__all__ = [
    "ToricSection",
    "ComparisonConstants",
    "psi1_approximant",
    "psi2_approximant",
    "comparison_constants",
    "unit_boxes",
    "check_sandwich",
    "coefficient_inequality",
]

# exp(x) rounds to 0.0 for every x <= -746 (the smallest subnormal is
# exp(-744.4)); tests/test_sections.py checks this on the running numpy
_EXP_UNDERFLOW = -746.0

# s columns per block and angles theta per product of the Parseval total
# (the CLI battery's m = 4 is one group): the product of 5 x 96 rows by 64
# complex columns (480 KiB) and its |F|^2 are allocated once per call, so
# the working set does not grow with m
_PARSEVAL_BLOCK = 64
_PARSEVAL_GROUP = 5


@dataclass(frozen=True)
class ComparisonConstants:
    """Oscillation constant c1 and density-ratio constant c2."""

    c1: float
    c2: float

    def __post_init__(self):
        if self.c1 < 0.0:
            raise InvalidInputError(f"c1 must be nonnegative, got {self.c1}")

    @property
    def total(self) -> float:
        return self.c1 + self.c2


@dataclass(frozen=True)
class ToricSection:
    """A section as bi-indexed monomial coefficients (fiber, base) -> c."""

    m: int
    coefficients: dict

    def __post_init__(self):
        if not _is_integer(self.m) or self.m < 1:
            raise InvalidInputError(f"power m must be an integer >= 1, got {self.m}")
        coeffs = {}
        for (l, k), c in self.coefficients.items():
            if not (_is_integer(l) and _is_integer(k) and 0 <= l <= self.m and k >= 0):
                raise InvalidInputError(f"exponent pair ({l}, {k}) out of range")
            l, k, c = int(l), int(k), complex(c)
            if c != 0:
                coeffs[(l, k)] = c
        if not coeffs:
            raise InvalidInputError("section needs at least one nonzero coefficient")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "coefficients", coeffs)


def _slope_lattice(w: SampledWeight, d: int, m: int) -> np.ndarray:
    if not _is_integer(d) or d < 0:
        raise InvalidParameterError(f"degree must be an integer >= 0, got {d}")
    if not _is_integer(m) or m < 1:
        raise InvalidParameterError(f"power must be an integer >= 1, got {m}")
    lattice = np.arange(0, int(m) * int(d) + 1) / float(m)
    keep = (lattice >= w.slope_left - 1e-12) & (lattice <= w.slope_right + 1e-12)
    if not keep.any():
        raise NoEnvelopeError(f"no slope k/{m} lies in "
                              f"[{w.slope_left}, {w.slope_right}]")
    return np.clip(lattice[keep], w.slope_left, w.slope_right)


def _lattice_max(w: SampledWeight, lattice, c) -> SampledWeight:
    """max_k (lattice_k s - c_k) at every grid point s, one lattice row at a
    time folded into a running maximum (the same pairwise maxima, in the
    same order, as a max over the dense lattice x grid array)."""
    vals = lattice[0] * w.grid - c[0]
    row = np.empty_like(vals)
    for sig, ck in zip(lattice[1:], c[1:]):
        np.multiply(sig, w.grid, out=row)
        row -= ck
        np.maximum(vals, row, out=vals)
    return SampledWeight(w.grid, vals, float(lattice[0]), float(lattice[-1]))


def psi1_approximant(w: SampledWeight, d: int, m: int) -> SampledWeight:
    """Sup-normalized monomial approximant on the slope lattice k/m."""
    lattice = _slope_lattice(w, d, m)
    return _lattice_max(w, lattice, _conjugate_1d(w.grid, w.values, lattice)[0])


@functools.lru_cache(maxsize=None)
def _gauss_rule(order):
    """Read-only Gauss-Legendre nodes/weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.setflags(write=False)
    return rule


def _segment_nodes(grid, order=4):
    """Composite Gauss-Legendre nodes/weights over the grid cells."""
    x, wq = _gauss_rule(order)
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * np.diff(grid)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * wq[None, :]).ravel()
    return nodes, weights


def _tail_nodes(edge, sign):
    """Order-6 Gauss nodes/weights on 40 panels over the 45 units of affine
    tail beyond ``edge`` (``sign`` -1 to the left, +1 to the right)."""
    grid = edge + sign * np.linspace(0.0, 45.0, 41)
    if sign < 0:
        grid = grid[::-1]
    return _segment_nodes(grid, 6)


def _log_norms_squared(w, lattice, m):
    """log of the L2^2 norms of monomials e^{ks - m u(s)} d(mu), stable form."""
    nodes_mid, wt_mid = _segment_nodes(w.grid)
    nodes_lo, wt_lo = _tail_nodes(w.grid[0], -1.0)
    nodes_hi, wt_hi = _tail_nodes(w.grid[-1], +1.0)
    nodes = np.concatenate([nodes_lo, nodes_mid, nodes_hi])
    wt = np.concatenate([wt_lo, wt_mid, wt_hi])
    log_meas = np.log(np.maximum(base_density(nodes), 1e-300)) + np.log(wt)
    mu = m * w(nodes)
    out = np.empty(lattice.size)
    expo = np.empty_like(nodes)
    keep = np.empty(nodes.size, dtype=bool)
    for i, sig in enumerate(lattice):
        # m sig nodes - m u + log_meas, in that order, in one buffer
        np.multiply(m * sig, nodes, out=expo)
        expo -= mu
        expo += log_meas
        top = expo.max()
        expo -= top
        # exp is exactly 0.0 below -746 but slow there (most of the nodes
        # at large m), so those entries are zeroed instead; the sum over
        # the whole buffer is unchanged
        np.greater(expo, _EXP_UNDERFLOW, out=keep)
        np.exp(expo, out=expo, where=keep)
        expo[~keep] = 0.0
        out[i] = top + math.log(expo.sum())
    return out


def psi2_approximant(w: SampledWeight, d: int, m: int) -> SampledWeight:
    """L2-normalized monomial approximant against the base density."""
    lattice = _slope_lattice(w, d, m)
    return _lattice_max(w, lattice, _log_norms_squared(w, lattice, m) / m)


def base_density(s) -> np.ndarray:
    """Circle-averaged Fubini-Study volume (e^{s/2} + e^{-s/2})^{-2} ds, of
    mass one exactly (antiderivative tanh(s/2) / 2)."""
    return 1.0 / (4.0 * np.cosh(np.asarray(s, dtype=float) / 2.0) ** 2)


def unit_boxes(lo: float, hi: float):
    """Unit chart boxes covering [lo, hi], each overlapping the next by half."""
    starts = np.arange(lo, hi, 0.5)
    return [(float(s), float(s + 1.0)) for s in starts]


def _box_constants(grid, f, boxes) -> ComparisonConstants:
    """c1, the largest max - min of ``f`` over one box (all its leading
    rows at once), and c2, the largest -log(base density) in one box.
    Each box [a, b] is sampled at a and b clipped to the grid and at the
    grid points between, and ``f`` is called once on every box's samples."""
    a, b = np.clip(np.array(boxes, dtype=float), grid[0], grid[-1]).T
    first = np.searchsorted(grid, a)
    sizes = np.maximum(np.searchsorted(grid, b, "right") - first, 0) + 2
    starts = np.cumsum(sizes) - sizes
    # grid index of every sample; the two ends are overwritten below
    idx = np.arange(sizes.sum()) + np.repeat(first - starts - 1, sizes)
    pts = grid[np.clip(idx, 0, grid.size - 1)]
    pts[starts], pts[starts + sizes - 1] = a, b
    vals = np.asarray(f(pts)).reshape(-1, pts.size)
    spread = (np.maximum.reduceat(vals.max(axis=0), starts)
              - np.minimum.reduceat(vals.min(axis=0), starts))
    dens = np.minimum.reduceat(base_density(pts), starts)
    return ComparisonConstants(float(spread.max()), float((-np.log(dens)).max()))


def comparison_constants(w: SampledWeight, chart_boxes) -> ComparisonConstants:
    """Box oscillation of u and worst flat-vs-base density ratio."""
    boxes = sorted((float(a), float(b)) for a, b in chart_boxes)
    if not boxes:
        raise InvalidCoverError("no chart boxes given")
    for a, b in boxes:
        if b < a:
            raise InvalidCoverError(f"chart box ({a}, {b}) is reversed")
    lo, hi = w.grid[0], w.grid[-1]
    covered = boxes[0][0]
    if covered > lo + 1e-12:
        raise InvalidCoverError(f"boxes start at {covered}, grid starts at {lo}")
    reach = boxes[0][1]
    for a, b in boxes[1:]:
        if a > reach + 1e-12:
            raise InvalidCoverError(f"gap in cover at {reach}")
        reach = max(reach, b)
    if reach < hi - 1e-12:
        raise InvalidCoverError(f"boxes end at {reach}, grid ends at {hi}")
    return _box_constants(w.grid, w, boxes)


def check_sandwich(w: SampledWeight, d: int, m: int,
                   cc: ComparisonConstants) -> VerificationReport:
    """psi2 - C' <= psi1 <= envelope, plus the big-case gap when d >= 1."""
    env = equilibrium_envelope(w, SlopeInterval(0.0, float(d)))
    psi1 = psi1_approximant(w, d, m)
    psi2 = psi2_approximant(w, d, m)
    lower_violation = float((psi2.values - cc.total - psi1.values).max())
    upper_violation = float((psi1.values - env.values).max())
    details = {"m": int(m), "d": int(d), "C_prime": cc.total}
    if d >= 1:
        signed = float((env.values - psi2.values).max())
        details["signed_gap"] = signed
        details["epsilon_m"] = max(signed, 0.0)
        details["abs_gap"] = float(np.abs(env.values - psi2.values).max())
    return VerificationReport(
        check="section-sandwich",
        max_violation=max(lower_violation, upper_violation),
        grid={"s_points": int(w.grid.size)},
        details=details)


@functools.lru_cache(maxsize=None)
def _fiber_quadrature():
    """Read-only radial nodes/weights for (0, inf) via r = tan(pi theta / 2),
    order-4 Gauss on 24 equal cells in theta."""
    theta, wq = _segment_nodes(np.linspace(0.0, 1.0, 25), 4)
    r = np.tan(math.pi * theta / 2.0)
    w = wq * (math.pi / 2.0) / np.cos(math.pi * theta / 2.0) ** 2
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w


@functools.lru_cache(maxsize=1)
def _parseval_kernel(pair, m):
    """Read-only s nodes and (r, s) weight kernel e^{-m phi_inf} dV of
    ``pair`` at power m, fiber density included; only the last (pair, m)
    built is kept (a pair compares and hashes by identity)."""
    s_nodes, s_wt = _segment_nodes(pair.grid, order=2)
    meas = base_density(s_nodes) * s_wt
    a = np.exp(pair.phi_A(s_nodes))
    b = np.exp(pair.phi_L(s_nodes))
    r, r_wt = _fiber_quadrature()
    # (r^2 a + b)^{-(m+2)} 2 r a b, then the quadrature weights
    kernel = r[:, None] ** 2 * a[None, :]
    kernel += b[None, :]
    kernel **= -(m + 2.0)
    kernel *= 2.0 * r[:, None] * a[None, :] * b[None, :]
    kernel *= r_wt[:, None] * meas[None, :]
    s_nodes.setflags(write=False)
    kernel.setflags(write=False)
    return s_nodes, kernel


# past the float range a term or the total reads inf or nan, which is raised
# as one PrecisionError instead of warned about element by element
@np.errstate(over="ignore", invalid="ignore")
def coefficient_inequality(section: ToricSection, pair) -> VerificationReport:
    """Fiber-degree component masses against the total mass of a section.

    Both sides are weighted L2 integrals against e^{-m phi_inf} dV with
    phi_inf = log(r^2 e^{phi_A} + e^{phi_L}) of ``pair``, a
    family.ModelBundlePair: the per-component masses use
    the coefficient formula after circle averaging, the total averages
    |F|^2 over both angles by trapezoid (exact for polynomial sections)
    on the same radial/base nodes, with F evaluated at every angle node.
    The nodes and the weight kernel are built once per (pair, m) and
    reused by every section on it.  The grid has m + 1 angles theta and
    k_max + 1 angles phi, the fewest that integrate |F|^2 exactly: its
    angle frequencies are differences l - l' and k - k' of at most m and
    k_max.  F is the complex product of r^l e^{il theta}, stacked theta by
    theta on the rows, against sum_k c_lk e^{ks/2} e^{ik phi} on the s
    columns: one product per block of columns, angle phi and group of up to
    five theta, each into the same buffers.  |F|^2 is squared in place and
    summed over theta in order, and those sums are added up one phi at a
    time, so every element adds its angles in the same order as one
    product per angle pair.  Verifies every component <=
    total and that the components sum to the total; a term or total past
    the float range raises PrecisionError.
    """
    m = section.m
    s_nodes, kernel = _parseval_kernel(pair, m)
    r = _fiber_quadrature()[0]
    n_r, n_s = r.size, s_nodes.size

    by_l: dict[int, dict[int, complex]] = {}
    for (l, k), c in section.coefficients.items():
        by_l.setdefault(l, {})[k] = c

    # every (r, s) product below is formed in this one buffer
    buf = np.empty((n_r, n_s))
    terms = {}
    for l, coeffs in sorted(by_l.items()):
        avg = np.zeros(n_s)
        for k, c in coeffs.items():
            avg += abs(c) ** 2 * np.exp(k * s_nodes)
        np.multiply(r[:, None] ** (2 * l), avg[None, :], out=buf)
        buf *= kernel
        terms[l] = float(buf.sum())

    # literal double-angle average of |F|^2 on the same nodes, exact grid
    k_max = max(k for (_, k) in section.coefficients)
    n_theta, n_phi = m + 1, k_max + 1
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    degrees = np.array(sorted(by_l))
    # base[l, phi, s] = sum_k c_lk e^{ks/2} e^{ik phi}
    base = np.zeros((degrees.size, n_phi, n_s), dtype=complex)
    for i, l in enumerate(degrees.tolist()):
        for k, c in by_l[l].items():
            base[i] += c * np.exp(1j * k * phi)[:, None] * np.exp(k * s_nodes / 2.0)[None, :]
    # F at one angle pair: (r^l e^{il theta})[r, l] @ base[l, phi, s]; the
    # fiber factors of every theta are stacked on the rows, theta by theta
    r_pow = r[:, None] ** degrees[None, :]
    stacked = np.empty((n_theta, n_r, degrees.size), dtype=complex)
    for i, th in enumerate(theta):
        np.multiply(r_pow, np.exp(1j * th * degrees)[None, :], out=stacked[i])
    stacked = stacked.reshape(-1, degrees.size)
    rows = min(n_theta, _PARSEVAL_GROUP) * n_r
    # flat, so that a narrower last block or group is a contiguous prefix
    prod = np.empty(rows * _PARSEVAL_BLOCK, dtype=complex)
    sq = np.empty(rows * _PARSEVAL_BLOCK)
    theta_sum = np.empty(n_r * _PARSEVAL_BLOCK)
    phi_sum = np.empty(n_r * _PARSEVAL_BLOCK)
    for j in range(0, n_s, _PARSEVAL_BLOCK):
        block = slice(j, j + _PARSEVAL_BLOCK)
        width = min(_PARSEVAL_BLOCK, n_s - j)
        acc = theta_sum[:n_r * width].reshape(n_r, width)
        # phi sums: a ufunc into the strided buf[:, block] would buffer it
        phi_acc = phi_sum[:n_r * width].reshape(n_r, width)
        phi_acc.fill(0.0)
        for p in range(n_phi):
            acc.fill(0.0)
            for t in range(0, stacked.shape[0], rows):
                group = stacked[t:t + rows]
                size = group.shape[0] * width
                f = np.matmul(group, base[:, p, block],
                              out=prod[:size].reshape(-1, width)).view(float)
                f *= f
                f = np.add(f[:, ::2], f[:, 1::2], out=sq[:size].reshape(-1, width))
                for slab in f.reshape(-1, n_r, width):
                    acc += slab
            phi_acc += acc
        buf[:, block] = phi_acc
    buf /= n_theta * n_phi
    buf *= kernel
    total = float(buf.sum())
    if not all(map(math.isfinite, [total, *terms.values()])):
        raise PrecisionError(f"Parseval sums at power m = {m} and fiber degree "
                             f"{degrees[-1]} leave the float range")

    # relative to the total, which bounds every component; if it underflows
    # to 0 the components' sum stands in, and when both are 0 so is every
    # numerator and the violation reads 0
    scale = total or sum(terms.values()) or 1.0
    term_violation = max((v - total) / scale for v in terms.values())
    parseval = abs(sum(terms.values()) - total) / scale
    return VerificationReport(
        check="coefficient-parseval",
        max_violation=max(term_violation, parseval),
        grid={"s_points": int(pair.grid.size), "r_nodes": n_r,
              "angles": [n_theta, n_phi],
              "nodes": n_theta * n_phi * n_r * n_s},
        details={"total": total,
                 "terms": {str(l): v for l, v in sorted(terms.items())},
                 "parseval_mismatch": parseval})
