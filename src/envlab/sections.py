"""Section-theoretic approximants of the envelope and coefficient bounds.

On the circle-invariant model, global sections of the degree m*d bundle
are spanned by monomials z^k, k = 0..m*d, so the sup over normalized
sections is realised by the best monomial.  Two normalizations appear:

* sup-normalized (psi1): the monomial weight is its Legendre value, giving
  psi1(s) = max_k ( (k/m) s - u*(k/m) ), a lower approximant of the
  envelope supported on the slope lattice k/m;
* L2-normalized (psi2) against a base probability measure, which can only
  enlarge the coefficient, so psi2 >= psi1.

The two are sandwiched around the envelope up to the comparison constant
C' = C'_1 + C'_2 built from chart-box oscillations and the density ratio
of the flat measure against the base measure.

For sections F(z, x) = sum_{l,k} c_{lk} z^l x^k on the model total space,
circle averaging in the fiber angle is a Parseval identity: the weighted
L2 mass of F splits into the masses of its fiber-degree components, so
each component mass is bounded by the total.  Both sides are integrated
numerically, the total through literal angle averaging: F itself is
evaluated at every node of the full (theta, phi) angle grid, one complex
matrix product (fiber degrees x (phi, s) nodes) per fiber angle theta,
and |F|^2 is averaged from those values, so the total never shares the
coefficient algebra of the component side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import equilibrium_envelope, legendre_values
from .errors import InvalidCoverError, InvalidInputError, InvalidParameterError
from .family import ModelBundlePair
from .measures import base_density
from .report import VerificationReport
from .weights import SampledWeight, SlopeInterval

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

_TAIL_LENGTH = 45.0


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
        if int(self.m) != self.m or self.m < 1:
            raise InvalidInputError(f"power m must be an integer >= 1, got {self.m}")
        coeffs = {}
        for (l, k), c in self.coefficients.items():
            l, k, c = int(l), int(k), complex(c)
            if l < 0 or l > self.m or k < 0:
                raise InvalidInputError(f"exponent pair ({l}, {k}) out of range")
            if c != 0:
                coeffs[(l, k)] = c
        if not coeffs:
            raise InvalidInputError("section needs at least one nonzero coefficient")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "coefficients", coeffs)


def _slope_lattice(w: SampledWeight, d: int, m: int) -> np.ndarray:
    if int(d) != d or d < 0:
        raise InvalidParameterError(f"degree must be an integer >= 0, got {d}")
    if int(m) != m or m < 1:
        raise InvalidParameterError(f"power must be an integer >= 1, got {m}")
    lattice = np.arange(0, int(m) * int(d) + 1) / float(m)
    keep = (lattice >= w.slope_left - 1e-12) & (lattice <= w.slope_right + 1e-12)
    return np.clip(lattice[keep], w.slope_left, w.slope_right)


def psi1_approximant(w: SampledWeight, d: int, m: int) -> SampledWeight:
    """Sup-normalized monomial approximant on the slope lattice k/m."""
    lattice = _slope_lattice(w, d, m)
    weights = legendre_values(w, lattice)
    vals = (lattice[:, None] * w.grid[None, :] - weights[:, None]).max(axis=0)
    return SampledWeight(w.grid, vals, float(lattice[0]), float(lattice[-1]))


def _segment_nodes(grid, order=4):
    """Composite Gauss-Legendre nodes/weights over the grid cells."""
    x, wq = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * np.diff(grid)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * wq[None, :]).ravel()
    return nodes, weights


def _tail_nodes(edge, sign, length=_TAIL_LENGTH, panels=40, order=6):
    grid = edge + sign * np.linspace(0.0, length, panels + 1)
    if sign < 0:
        grid = grid[::-1]
    return _segment_nodes(grid, order)


def _log_norms_squared(w, lattice, m):
    """log of the L2^2 norms of monomials e^{ks - m u(s)} d(mu), stable form."""
    nodes_mid, wt_mid = _segment_nodes(w.grid)
    nodes_lo, wt_lo = _tail_nodes(w.grid[0], -1.0)
    nodes_hi, wt_hi = _tail_nodes(w.grid[-1], +1.0)
    nodes = np.concatenate([nodes_lo, nodes_mid, nodes_hi])
    wt = np.concatenate([wt_lo, wt_mid, wt_hi])
    log_meas = np.log(np.maximum(base_density(nodes), 1e-300)) + np.log(wt)
    u = w(nodes)
    out = np.empty(lattice.size)
    for i, sig in enumerate(lattice):
        expo = m * sig * nodes - m * u + log_meas
        top = expo.max()
        out[i] = top + math.log(np.exp(expo - top).sum())
    return out


def psi2_approximant(w: SampledWeight, d: int, m: int) -> SampledWeight:
    """L2-normalized monomial approximant against the base density."""
    lattice = _slope_lattice(w, d, m)
    log_norms = _log_norms_squared(w, lattice, m)
    vals = (lattice[:, None] * w.grid[None, :]
            - (1.0 / m) * log_norms[:, None]).max(axis=0)
    return SampledWeight(w.grid, vals, float(lattice[0]), float(lattice[-1]))


def unit_boxes(lo: float, hi: float, size: float = 1.0, overlap: float = 0.5):
    """Overlapping chart boxes covering [lo, hi]."""
    starts = np.arange(lo, hi, size * (1.0 - overlap))
    return [(float(s), float(s + size)) for s in starts]


def comparison_constants(w: SampledWeight, chart_boxes) -> ComparisonConstants:
    """Box oscillation of u and worst flat-vs-base density ratio."""
    boxes = sorted((float(a), float(b)) for a, b in chart_boxes)
    if not boxes:
        raise InvalidCoverError("no chart boxes given")
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

    c1 = 0.0
    c2 = -math.inf
    for a, b in boxes:
        pts = w.grid[(w.grid >= a) & (w.grid <= b)]
        pts = np.concatenate([[max(a, lo)], pts, [min(b, hi)]])
        vals = w(pts)
        c1 = max(c1, float(vals.max() - vals.min()))
        dens = base_density(pts)
        c2 = max(c2, float(-np.log(dens.min())))
    return ComparisonConstants(c1, c2)


def check_sandwich(w: SampledWeight, d: int, m: int, cc: ComparisonConstants,
                   tol: float = 1e-9) -> VerificationReport:
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
        tolerance=tol,
        grid={"s_points": int(w.grid.size)},
        details=details)


def _fiber_quadrature(n_cells: int = 24, order: int = 4):
    """Radial nodes/weights for (0, inf) via r = tan(pi theta / 2)."""
    theta, wq = _segment_nodes(np.linspace(0.0, 1.0, n_cells + 1), order)
    r = np.tan(math.pi * theta / 2.0)
    w = wq * (math.pi / 2.0) / np.cos(math.pi * theta / 2.0) ** 2
    return r, w


def coefficient_inequality(section: ToricSection, pair: ModelBundlePair,
                           tol: float = 1e-8) -> VerificationReport:
    """Fiber-degree component masses against the total mass of a section.

    Both sides are weighted L2 integrals against e^{-m phi_inf} dV with
    phi_inf = log(r^2 e^{phi_A} + e^{phi_L}): the per-component masses use
    the coefficient formula after circle averaging, the total averages
    |F|^2 over both angles by trapezoid (exact for polynomial sections)
    on the same radial/base nodes, with F evaluated at every angle node.
    Verifies every component <= total and that the components sum to the
    total.
    """
    m = section.m
    s_nodes, s_wt = _segment_nodes(pair.grid, order=2)
    meas = base_density(s_nodes) * s_wt
    a = np.exp(pair.phi_A(s_nodes))
    b = np.exp(pair.phi_L(s_nodes))
    r, r_wt = _fiber_quadrature()
    # weight kernel on the (r, s) nodes, including the fiber density
    core = (r[:, None] ** 2 * a[None, :] + b[None, :])
    kernel = core ** (-(m + 2.0)) * (2.0 * r[:, None] * a[None, :] * b[None, :])
    kernel *= r_wt[:, None] * meas[None, :]

    by_l: dict[int, dict[int, complex]] = {}
    for (l, k), c in section.coefficients.items():
        by_l.setdefault(l, {})[k] = c

    terms = {}
    for l, coeffs in sorted(by_l.items()):
        avg = np.zeros(s_nodes.size)
        for k, c in coeffs.items():
            avg += abs(c) ** 2 * np.exp(k * s_nodes)
        terms[l] = float((r[:, None] ** (2 * l) * avg[None, :] * kernel).sum())

    # literal double-angle average of |F|^2 on the same nodes: F at every
    # (theta, phi, r, s) node, one complex product per fiber angle theta
    k_max = max(k for (_, k) in section.coefficients)
    n_theta = 2 * m + 3
    n_phi = 2 * k_max + 3
    n_s = s_nodes.size
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    degrees = np.array(sorted(by_l))
    # base[l, phi, s] = sum_k c_lk e^{ks/2} e^{ik phi}, flattened phi-major
    base = np.zeros((degrees.size, n_phi, n_s), dtype=complex)
    for i, l in enumerate(degrees.tolist()):
        for k, c in by_l[l].items():
            base[i] += c * np.exp(1j * k * phi)[:, None] * np.exp(k * s_nodes / 2.0)[None, :]
    base = base.reshape(degrees.size, n_phi * n_s)
    radial = r[:, None] ** degrees[None, :]
    # columns (re^2, im^2) per s node, summed over theta and phi
    sq_sum = np.zeros((r.size, 2 * n_s))
    for th in theta:
        sq = ((radial * np.exp(1j * th * degrees)[None, :]) @ base).view(float)
        np.multiply(sq, sq, out=sq)
        for j in range(n_phi):
            sq_sum += sq[:, 2 * n_s * j:2 * n_s * (j + 1)]
    avg_sq = (sq_sum[:, 0::2] + sq_sum[:, 1::2]) / (n_theta * n_phi)
    total = float((avg_sq * kernel).sum())

    scale = max(total, 1e-300)
    term_violation = max((v - total) / scale for v in terms.values())
    parseval = abs(sum(terms.values()) - total) / scale
    return VerificationReport(
        check="coefficient-parseval",
        max_violation=max(term_violation, parseval),
        tolerance=tol,
        grid={"s_points": int(pair.grid.size), "r_nodes": int(r.size),
              "angles": [n_theta, n_phi]},
        details={"total": total,
                 "terms": {str(l): v for l, v in sorted(terms.items())},
                 "parseval_mismatch": parseval})
