"""Sampled circle-invariant metric weights in log coordinates.

A weight u(s), s = log|z|^2, is stored as samples on a strictly increasing
grid together with the two asymptotic slopes used for affine extrapolation
outside the grid.  Convexity of u in s is the circle-invariant avatar of
plurisubharmonicity.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError


def _is_number(value) -> bool:
    """Whether a value read from JSON is a number: booleans and strings
    are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_grid(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise InvalidInputError(f"{name} must be a 1-d array with at least 2 points")
    # strictly increasing between finite ends means finite throughout (NaN
    # fails every comparison), so the full isfinite pass runs only to name
    # what is wrong
    if not (math.isfinite(a[0]) and math.isfinite(a[-1])
            and (a[1:] > a[:-1]).all()):
        if not np.isfinite(a).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
        raise InvalidInputError(f"{name} must be strictly increasing")
    return a


@dataclass(frozen=True)
class SlopeInterval:
    """Allowed slope range [sigma_min, sigma_max] (the moment interval).

    For a degree-d model bundle this is [0, d].
    """

    sigma_min: float
    sigma_max: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma_min) and np.isfinite(self.sigma_max)):
            raise InvalidInputError("slope interval endpoints must be finite")
        if self.sigma_min > self.sigma_max:
            raise InvalidInputError(
                f"sigma_min={self.sigma_min} exceeds sigma_max={self.sigma_max}")


@dataclass(frozen=True)
class SampledWeight:
    """A sampled weight u(s) with affine extrapolation outside the grid."""

    grid: np.ndarray
    values: np.ndarray
    slope_left: float
    slope_right: float

    def __post_init__(self):
        g = _as_grid(self.grid, "grid")
        v = np.asarray(self.values, dtype=float)
        if v.shape != g.shape:
            raise InvalidInputError("values must match grid shape")
        if not np.isfinite(v).all():
            raise InvalidInputError("values contain non-finite entries")
        if not (math.isfinite(self.slope_left) and math.isfinite(self.slope_right)):
            raise InvalidInputError("slopes must be finite")
        if self.slope_left > self.slope_right:
            raise InvalidInputError(
                "slope_left must not exceed slope_right (pseudo-effectivity)")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, s):
        """Evaluate by linear interpolation, affine beyond the grid."""
        s = np.asarray(s, dtype=float)
        out = np.interp(s, self.grid, self.values)
        left = s < self.grid[0]
        right = s > self.grid[-1]
        if np.any(left):
            out = np.where(left, self.values[0] + self.slope_left * (s - self.grid[0]), out)
        if np.any(right):
            out = np.where(right, self.values[-1] + self.slope_right * (s - self.grid[-1]), out)
        return out if out.ndim else float(out)

    def with_values(self, values, slope_left=None, slope_right=None) -> "SampledWeight":
        return SampledWeight(
            self.grid, np.asarray(values, dtype=float),
            self.slope_left if slope_left is None else float(slope_left),
            self.slope_right if slope_right is None else float(slope_right))

    @property
    def slope_interval(self) -> SlopeInterval:
        return SlopeInterval(self.slope_left, self.slope_right)


def _check_polygon(poly):
    p = np.asarray(poly, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 1:
        raise InvalidInputError("slope_polytope must be an (m, 2) vertex array")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("slope_polytope has non-finite vertices")
    # a repeated vertex would be a zero-length edge; keep its first copy
    # (as tuples of floats, -0.0 repeats 0.0)
    p = np.array(list(dict.fromkeys(map(tuple, p.tolist()))))
    if p.shape[0] >= 3:
        # orient counter-clockwise and require convexity
        c = p.mean(axis=0)
        ang = np.arctan2(p[:, 1] - c[1], p[:, 0] - c[0])
        p = p[np.argsort(ang)]
        nxt = np.roll(p, -1, axis=0)
        nnxt = np.roll(p, -2, axis=0)
        cross = ((nxt[:, 0] - p[:, 0]) * (nnxt[:, 1] - p[:, 1])
                 - (nxt[:, 1] - p[:, 1]) * (nnxt[:, 0] - p[:, 0]))
        if np.any(cross < -1e-12):
            raise InvalidInputError("slope_polytope vertices are not convex")
        if np.all(cross <= 1e-12):
            # collinear: the lexicographic extremes are the segment's ends
            p = p[np.lexsort(p.T[::-1])[[0, -1]]]
    return p


@dataclass(frozen=True)
class SampledWeight2D:
    """A sampled weight u(tau, s) on a product grid.

    ``slope_polytope`` is the convex polygon of allowed gradient pairs
    (d/dtau, d/ds), given as a vertex array of shape (m, 2); repeated
    vertices are stored once, and collinear ones as their segment's two
    ends.
    """

    grid_tau: np.ndarray
    grid_s: np.ndarray
    values: np.ndarray
    slope_polytope: np.ndarray = field(default_factory=lambda: np.zeros((1, 2)))

    def __post_init__(self):
        gt = _as_grid(self.grid_tau, "grid_tau")
        gs = _as_grid(self.grid_s, "grid_s")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (gt.size, gs.size):
            raise InvalidInputError(
                f"values shape {v.shape} does not match ({gt.size}, {gs.size})")
        if not np.isfinite(v).all():
            raise InvalidInputError("values contain non-finite entries")
        p = _check_polygon(self.slope_polytope)
        object.__setattr__(self, "grid_tau", gt)
        object.__setattr__(self, "grid_s", gs)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "slope_polytope", p)

    def with_values(self, values) -> "SampledWeight2D":
        return SampledWeight2D(self.grid_tau, self.grid_s,
                               np.asarray(values, dtype=float), self.slope_polytope)


# ---------------------------------------------------------------------------
# CSV interchange: header `s,u`, slopes in a JSON sidecar `<path>.json`.

def save_weight_csv(w: SampledWeight, path) -> None:
    path = str(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,u\n")
        fh.writelines(f"{s!r},{u!r}\n"
                      for s, u in zip(w.grid.tolist(), w.values.tolist()))
    sidecar = {"slope_left": w.slope_left, "slope_right": w.slope_right}
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def load_weight_csv(path) -> SampledWeight:
    path = str(path)
    try:
        with warnings.catch_warnings():
            # numpy warns "input contained no data" on an empty file; that
            # is a parse failure like any other
            warnings.simplefilter("error", UserWarning)
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise InvalidInputError(f"cannot parse weight CSV {path}: {exc}") from exc
    if raw.shape[1] != 2:
        raise InvalidInputError(f"weight CSV {path} must have two columns s,u")
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        slopes = sidecar["slope_left"], sidecar["slope_right"]
        if not all(map(_is_number, slopes)):
            raise TypeError(f"slopes must be numbers, got {list(slopes)}")
        slopes = [float(v) for v in slopes]
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"bad slope sidecar for {path}: {exc}") from exc
    return SampledWeight(raw[:, 0], raw[:, 1], *slopes)


def save_weight2d_csv(w: SampledWeight2D, path) -> None:
    """Export `tau,s,phi` rows, tau-major, deterministic ordering."""
    path = str(path)
    s_text = [repr(s) for s in w.grid_s.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau,s,phi\n")
        for tau, row in zip(w.grid_tau.tolist(), w.values):
            head = f"{tau!r},"
            fh.write("".join(f"{head}{s},{v!r}\n"
                             for s, v in zip(s_text, row.tolist())))
