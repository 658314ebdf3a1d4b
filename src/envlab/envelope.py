"""Equilibrium envelopes of 1-d sampled weights.

The envelope of u over a slope interval I is the largest convex function
below u whose derivative stays in I.  Two independent routes are provided:

* :func:`equilibrium_envelope` goes through Legendre duality.  The conjugate
  u* is assembled exactly as the upper envelope of the lines
  ``sigma -> sigma * s_i - u_i``, and the back transform maximises
  ``sigma * s - u*(sigma)`` over the kinks of u* clipped to I.  Both steps
  are exact for sampled data, so the route carries no slope-discretization
  error.  ``_back_transform`` is the one copy of both steps, in index
  space; it takes any cloud sorted by abscissa, ties included, and the
  2-d envelope runs it along each edge of its slope polygon.
  ``_conjugate_1d`` reads u* and the active grid index at arbitrary slopes
  by one binary search in the crossings; the section approximant psi1
  uses it.

* :func:`hull_envelope` builds the lower convex hull of the sampled graph
  in the primal plane, with cross-product predicates and no line
  envelope, and then clamps the hull slopes to I: the envelope is affine
  left of the hull vertex where slope sigma_min touches and right of the
  one where sigma_max does, and on the strictly increasing grid each of
  these tails is a slice.  It serves as the independent oracle.

The line envelope merges convex runs.  One vectorized pass computes the
crossings of neighbouring lines and drops every line at which they do not
strictly increase, since such a line is never on the envelope.  When no
line drops (the weight's chord slopes strictly increase) that pass is the
whole computation.  Otherwise the lines left fall into runs of consecutive
lines, each its own envelope, and the runs are merged left to right: the
bridge from the envelope so far into the next run is found by galloping
down the envelope and into the run, and the rest of the run joins as one
segment.  Equal slopes first reduce, without a loop, to the group's first
line with the top intercept.  Every decision compares two crossings
computed as a one-line-at-a-time stack computes them, so the kept lines and
crossings are that stack's, bit for bit, whenever rounding keeps the
crossings of near-collinear lines in order; lines collinear to within an
ulp may keep a different one of the lines that only touch the envelope.
The tests hold the stack as the differential oracle.

The lower hull is a level-synchronous quickhull (Barber, Dobkin and
Huhdanpaa 1996) over index arrays that keeps collinear points.  Its one
predicate is turn(a, p, b) = (s_b - s_a)(u_p - u_a) - (s_p - s_a)(u_b - u_a),
negative when p lies strictly below the chord from a to b.  One vectorized
pass drops every point above the chord of its two neighbours.  Then all
chords between the hull points found so far are refined at once: a chord
whose in-between points all survive spans a convex run and takes them all;
a chord with nothing strictly below it is final and takes the points on
it; any other chord takes its first lowest point and keeps only the points
strictly below it.  A chord carries its two ends and the count of its
points, which sit together in the sorted list of points still in play, so
a level takes the chord's terms of the turn (s_a, u_a, s_b - s_a and
u_b - u_a) once per chord and repeats them over its points; one binary
search of the new chord ends in the points kept gives the next level's
chords and counts.  A weight of a few convex runs and concave stretches
needs a handful of such levels, each a few array passes.  The hull is the
one-point-at-a-time monotone chain's whenever rounding decides no turn
differently, as on integer data; within an ulp of collinear the two may
keep different points, and their envelopes differ by a few ulps.  The
tests hold the chain as the differential oracle.  Values or grid points of
2**510 or more are first scaled by a power of two, so no difference or
product in the predicate overflows.

Affine extrapolation tails never cut below either construction as long as
I sits inside [slope_left, slope_right], which is enforced.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NoEnvelopeError
from .weights import SampledWeight, SlopeInterval

__all__ = [
    "equilibrium_envelope",
    "hull_envelope",
    "convexity_defect",
]


def _upper_line_envelope(slopes, intercepts):
    """Upper envelope of lines y = slopes[i]*x + intercepts[i].

    Slopes must be nondecreasing, with equal slopes ordered by increasing
    intercept.  Returns (kept indices, crossing points between consecutive
    kept lines).
    """
    m = np.asarray(slopes, dtype=float)
    b = np.asarray(intercepts, dtype=float)
    same = m[1:] == m[:-1]
    if same.any():
        # an equal-slope group stands as its first line with the top intercept
        new_line = np.concatenate(([True], ~same | (b[1:] != b[:-1])))
        first = np.flatnonzero(new_line)
        last = np.append(first[1:], m.size) - 1
        idx = first[np.append(~same, True)[last]]
        m, b = m[idx], b[idx]
    else:
        idx = np.arange(m.size)
    # Crossings of neighbouring lines.  Where they fail to increase strictly
    # the middle line never reaches the envelope; what is left falls into
    # runs of consecutive lines that are each their own envelope.  With |u|
    # near 1e308 or slopes 5e-324 apart a crossing overflows to +-inf.
    with np.errstate(over="ignore"):
        x = (b[:-1] - b[1:]) / (m[1:] - m[:-1])
    up = x[1:] > x[:-1]
    if up.all():
        return idx, x
    alive = np.concatenate(([True], up, [True]))
    # alive turns off after each run's last line and on at the next run's first
    flips = np.flatnonzero(alive[1:] != alive[:-1])
    starts, ends, bridges = _merge_runs(m, b, x, (flips[1::2] + 1).tolist(),
                                        flips[::2].tolist() + [m.size - 1])
    # segment s holds lines starts[s]..ends[s]; where segments meet the
    # crossing is the bridge, elsewhere the neighbour crossing
    starts, ends = np.array(starts), np.array(ends)
    size = ends - starts + 1
    off = np.cumsum(size)
    keep = np.arange(off[-1]) + np.repeat(starts - off + size, size)
    cross = x[keep[1:] - 1]
    cross[off[:-1] - 1] = bridges
    return idx[keep], cross


def _first_false(pred, start, stop):
    """First index from ``start`` toward ``stop`` where ``pred`` fails.

    ``pred`` holds at ``start``, fails at ``stop`` and changes once in
    between; steps of 1, 2, 4, ... bracket the change and bisection finds
    it, so a change k steps away costs O(log k) calls.
    """
    step = 1 if stop > start else -1
    last = start
    while True:
        probe = last + step
        if (stop - probe) * step <= 0:
            probe = stop
            break
        if not pred(probe):
            break
        last, step = probe, 2 * step
    while abs(probe - last) > 1:
        mid = (probe + last) // 2
        if pred(mid):
            last = mid
        else:
            probe = mid
    return probe


def _merge_runs(m, b, x, run_a, run_e):
    """Merge runs of lines, left to right, into their upper envelope.

    Run r holds lines run_a[r]..run_e[r] (the first run starts at line 0),
    and the neighbour crossings ``x`` strictly increase along each run.
    The envelope so far is a list of segments A[s]..E[s] of consecutive
    lines, segment s entered at crossing XS[s - 1].  Each run pops what its
    bridge line covers, found by galloping down the envelope and into the
    run, and its remaining lines join as one segment.  Each decision
    compares crossings computed as the one-line-at-a-time stack computes
    them.  Returns A, E, XS.
    """
    # memoryview indexing yields Python floats without converting every line
    m, b, x = memoryview(m), memoryview(b), memoryview(x)
    A, E, XS = [0], [run_e[0]], []

    def cross(k, q):
        return (b[k] - b[q]) / (m[q] - m[k])

    def foot(q, s, k):
        """Top (segment, line) once line q has popped, from top (s, k),
        every line it covers, and the crossing of q with that line."""
        while True:
            a = A[s]
            c = cross(k, q)
            if k == a:
                if s == 0 or c > XS[s - 1]:
                    return s, k, c
            elif c > x[k - 1]:
                return s, k, c
            elif s == 0 or cross(a, q) > XS[s - 1]:
                k = _first_false(lambda p: cross(p, q) <= x[p - 1], k, a)
                return s, k, cross(k, q)
            s -= 1
            k = E[s]

    def popped(q):
        """Line q + 1 covers line q once q has bridged to the envelope."""
        nonlocal base
        s, k, c = foot(q, *base)
        if x[q] <= c:
            base = s, k
            return True
        return False

    for a, e in zip(run_a, run_e[1:]):
        s, k, c = foot(a, len(A) - 1, E[-1])
        q = a
        if a < e and x[a] <= c:
            base = s, k
            q = _first_false(popped, a, e)
            s, k, c = foot(q, *base)
        A[s + 1:] = [q]
        E[s:] = [k, e]
        XS[s:] = [c]
    return A, E, XS


def _conjugate_1d(s, u, sigmas):
    """Exact u*(sigma) = max_i (sigma s_i - u_i) at each of ``sigmas``, and
    the grid index i where the maximum is attained.

    u* is the upper envelope of the dual lines sigma -> s_i sigma - u_i;
    one binary search in its crossings finds the active line.
    """
    keep, cross = _upper_line_envelope(s, -u)
    act = keep[np.searchsorted(cross, sigmas, side="right")]
    return sigmas * s[act] - u[act], act


def _back_transform(s, u, lo, hi):
    """max over sigma in [lo, hi] of sigma s_i - u*(sigma) at every point i,
    with u* the conjugate of the points (s_i, u_i).

    ``s`` is nondecreasing, with equal abscissae ordered by decreasing u.
    The maximiser sits at lo, at a kink of u* inside (lo, hi) or at hi.
    These candidates are cross[a:b] and the two ends, and each takes u*
    from the line active to its right, so all are read by index.  The best
    candidate is monotone in s: point i tries the count of candidates but
    the last whose active index is below i, and that count's two
    neighbours, over arrays holding one more copy of each end.  Near 1e308
    the values overflow; the callers report that once, as a typed error.
    """
    keep, cross = _upper_line_envelope(s, -u)
    a = cross.searchsorted(lo, "right")
    b = cross.searchsorted(hi)    # a - 1 when lo = hi is a crossing
    lam = np.empty(b - a + 4)
    lam[:2], lam[2:-2], lam[-2:] = lo, cross[a:b], hi
    j = np.arange(a - 1, b + 3)
    j[:2], j[-2:] = a, cross.searchsorted(hi, "right")
    act = keep[j]
    ustar = lam * s[act] - u[act]
    count = np.bincount(act[1:-2], minlength=s.size)
    c = np.cumsum(count) - count
    best = lam[c] * s - ustar[c]
    c += 1
    best = np.maximum(best, lam[c] * s - ustar[c])
    c += 1
    return np.maximum(best, lam[c] * s - ustar[c])


def _finite(env):
    """``env``, or one typed error when the transform left the float range."""
    if not np.isfinite(env).all():
        raise InvalidInputError("envelope overflows the float range")
    return env


def _slope_bounds(w: SampledWeight, interval: SlopeInterval):
    """(sigma_min, sigma_max) of ``interval``, which must sit inside
    [slope_left, slope_right] so the affine tails never cut below."""
    lo, hi = interval.sigma_min, interval.sigma_max
    if lo < w.slope_left - 1e-12 or hi > w.slope_right + 1e-12:
        raise NoEnvelopeError(
            f"slope interval [{lo}, {hi}] not contained in "
            f"[{w.slope_left}, {w.slope_right}]")
    return lo, hi


def equilibrium_envelope(w: SampledWeight, interval: SlopeInterval) -> SampledWeight:
    """Largest convex minorant of u with derivative in ``interval``.

    Double Legendre transform with slope clamping; exact at the grid points.
    The returned weight carries the clamped slopes as its extrapolation
    slopes, so the envelope offset psi = u_e - u is <= 0 everywhere.
    """
    lo, hi = _slope_bounds(w, interval)
    s, u = w.grid, w.values
    with np.errstate(over="ignore", invalid="ignore"):
        env = np.minimum(_back_transform(s, u, lo, hi), u)
    return SampledWeight(s, _finite(env), lo, hi)


def _turn(s, u, a, p, b):
    """(s_b - s_a)(u_p - u_a) - (s_p - s_a)(u_b - u_a), for index arrays or
    slices: negative when p lies strictly below the chord from a to b."""
    sa, ua = s[a], u[a]
    # differences of values near 1e308 overflow to +-inf
    with np.errstate(over="ignore"):
        return (s[b] - sa) * (u[p] - ua) - (s[p] - sa) * (u[b] - ua)


def _below_2_510(a):
    """``a`` scaled by a power of two so that |a| < 2**510, or ``a`` itself
    when that already holds: then every difference and product in
    :func:`_turn` stays finite.  The scaling is exact apart from entries it
    pushes below the normal range."""
    if a.size == 0:
        return a
    k = int(np.frexp(max(-a.min(), a.max()))[1]) - 510
    return np.ldexp(a, -k) if k > 0 else a


def _monotone_chain_lower(s, u):
    """Indices of the lower convex hull of the graph, collinear points kept,
    by the level-synchronous quickhull of the module docstring."""
    s = _below_2_510(np.asarray(s, dtype=float))
    u = _below_2_510(np.asarray(u, dtype=float))
    n = s.size
    if n < 3:
        return np.arange(n)
    # a point strictly above the chord of its neighbours is never on the hull
    mid = _turn(s, u, slice(None, -2), slice(1, -1), slice(2, None))
    pts = (mid <= 0.0).nonzero()[0] + 1
    hull = [np.array([0, n - 1])]
    # chord c runs from point a[c] to point b[c], and the cnt[c] points
    # between them still in play are pts[first[c]:first[c] + cnt[c]]
    a, b = np.array([0]), np.array([n - 1])
    first, cnt = np.array([0]), np.array([pts.size])
    while pts.size:
        # _turn(s, u, a, pts, b) bit for bit, its chord terms taken once
        # per chord
        sa, ua = s[a], u[a]
        t = u[pts]
        t -= np.repeat(ua, cnt)
        t *= np.repeat(s[b] - sa, cnt)
        d = s[pts]
        d -= np.repeat(sa, cnt)
        d *= np.repeat(u[b] - ua, cnt)
        t -= d
        tmin = np.minimum.reduceat(t, first)
        # a chord with every point in between still present spans a convex
        # run (each of them passed the neighbour test): all are on the hull
        run = cnt == b - a - 1
        split = (tmin < 0.0) & ~run
        # a final chord (nothing strictly below) keeps its collinear points
        in_split = np.repeat(split, cnt)
        hull.append(pts[np.repeat(run, cnt) | ((t == 0.0) & ~in_split)])
        # a split chord's first lowest point joins the hull; only the points
        # strictly below the chord can still be on it
        low = (t == np.repeat(tmin, cnt)).nonzero()[0]
        at = low[low.searchsorted(first[split])]
        keep = in_split & (t < 0.0)
        keep[at] = False
        ends = np.stack((a[split], pts[at], b[split]), axis=1)
        hull.append(ends[:, 1])
        pts = pts[keep]
        # consecutive ends bound the next chords, whose points start where
        # their left ends fall among the points kept; a chord left empty,
        # such as the one from a split chord's b to the next one's a, drops
        ends = ends.ravel()
        start = pts.searchsorted(ends)
        cnt = start[1:] - start[:-1]
        c = cnt.nonzero()[0]
        a, b, first, cnt = ends[c], ends[c + 1], start[c], cnt[c]
    return np.sort(np.concatenate(hull))


def hull_envelope(w: SampledWeight, interval: SlopeInterval) -> SampledWeight:
    """Graph convex-hull oracle for :func:`equilibrium_envelope`."""
    lo, hi = _slope_bounds(w, interval)
    s, u = w.grid, w.values
    h = _monotone_chain_lower(s, u)
    hs, hu = s[h], u[h]
    # Clamp hull slopes to [lo, hi]: outside the pinch vertices the envelope
    # follows the boundary slopes.
    with np.errstate(over="ignore", invalid="ignore"):
        ia = int(np.argmin(hu - lo * hs))
        ib = int(np.argmin(hu - hi * hs))
        env = np.interp(s, hs, hu)
        # the grid strictly increases, so each tail is a slice
        left, right = slice(h[ia] + 1), slice(h[ib], None)
        env[left] = hu[ia] + lo * (s[left] - hs[ia])
        env[right] = hu[ib] + hi * (s[right] - hs[ib])
        env = np.minimum(env, u)
    return SampledWeight(s, _finite(env), lo, hi)


def convexity_defect(w: SampledWeight) -> float:
    """Largest violation of discrete convexity.

    Returns the maximum over interior grid points of the negative part of
    twice the second divided difference (the discrete second derivative);
    zero exactly when the sampled values are convex.
    """
    if w.grid.size < 3:
        raise InvalidInputError("convexity_defect needs at least 3 grid points")
    return _second_difference_defect(w.values[:, None], w.grid)


def _second_difference_defect(u, s) -> float:
    """Worst negative part of twice the second divided difference of ``u``
    down its columns, sampled at ``s``; 0 with fewer than 3 rows."""
    d1 = np.diff(u, axis=0) / np.diff(s)[:, None]
    if d1.shape[0] < 2:
        return 0.0
    second = 2.0 * np.diff(d1, axis=0) / (s[2:] - s[:-2])[:, None]
    return float(np.maximum(0.0, -second).max())
