"""Exact blow-up quantization sets.

For weights alpha1, alpha2 >= 0 the admissible local mass pairs live on the
ellipse

    Gamma:  s1^2 - s1 s2 + s2^2 = 2 (1 + alpha1) s1 + 2 (1 + alpha2) s2,

restricted to the closed positive quadrant.  The finite set Lambda_{a1,a2}
is generated from six seed points by two closure rules: from any known
(a, b), every (c, d) on Gamma with c = a + 2m (m >= 0 integer) and d >= b
joins the set, and symmetrically with the roles of the coordinates swapped.
Both quadratic roots are kept when admissible, and the bounded ellipse makes
the closure terminate.

The global forbidden set combines local sets over the marked points with
integer 4-pi lattices per component; `global_window` lists it inside a
window, merging values within DEDUP_TOLERANCE into tolerance classes.  A
membership query lists the window reaching 4 pi around the queried pair and
returns the nearest element as a witness.  No element outside that window can
be the nearest one: some 4-pi line lies within 2 pi of every non-negative
coordinate, while every element outside the window is more than 4 pi away.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functionals import RhoPair
from .geometry import SingularData

DEDUP_TOLERANCE = 1e-9
ON_CURVE_TOLERANCE = 1e-12
# sums of local points closer than this differ by round-off only (one sum added
# up in two orders); merging them bounds the work and moves no reported value
ROUND_OFF = 1e-12


def gamma_residual(s1: float, s2: float, alpha1: float, alpha2: float) -> float:
    """Defect of (s1, s2) from the ellipse equation (0 means exactly on it)."""
    return (s1 * s1 - s1 * s2 + s2 * s2
            - 2.0 * (1.0 + alpha1) * s1 - 2.0 * (1.0 + alpha2) * s2)


@dataclass(frozen=True)
class LocalSet:
    """The finite quantization set for one pair of weights, sorted lexicographically."""

    points: tuple[tuple[float, float], ...]

    def nonzero_points(self) -> tuple[tuple[float, float], ...]:
        return tuple(p for p in self.points if max(abs(p[0]), abs(p[1])) > DEDUP_TOLERANCE)


def _partner_roots(fixed: float, alpha_fixed: float, alpha_free: float) -> list[float]:
    """Solve the ellipse equation for the free coordinate given the other one.

    With c fixed, d satisfies d^2 - (c + 2(1+alpha_free)) d + (c^2 - 2(1+alpha_fixed) c) = 0.
    Returns real roots (tangency collapses to one), Newton-polished so emitted
    points sit on the curve to near machine precision."""
    b = fixed + 2.0 * (1.0 + alpha_free)
    c0 = fixed * fixed - 2.0 * (1.0 + alpha_fixed) * fixed
    disc = b * b - 4.0 * c0
    if disc < -1e-9:
        return []
    disc = max(disc, 0.0)
    sq = np.sqrt(disc)
    roots = {(b + sq) / 2.0, (b - sq) / 2.0}
    polished = []
    for d in roots:
        for _ in range(2):
            f = d * d - b * d + c0
            fp = 2.0 * d - b
            if abs(fp) > 1e-9:
                d -= f / fp
        polished.append(d)
    return polished


def _coordinate_max(alpha_this: float, alpha_other: float) -> float:
    """Largest value of one coordinate on the ellipse (discriminant tangency)."""
    # 3 c^2 - (4(1+alpha_other) + 8(1+alpha_this)) c - 4 (1+alpha_other)^2 = 0
    b = 4.0 * (1.0 + alpha_other) + 8.0 * (1.0 + alpha_this)
    c = -4.0 * (1.0 + alpha_other) ** 2
    return (b + np.sqrt(b * b - 12.0 * c)) / 6.0


@functools.lru_cache(maxsize=256)
def local_lambda(alpha1: float, alpha2: float) -> LocalSet:
    """Generate the local quantization set by closing the seed points under
    both integer-shift rules.  Points are plain floats; results are cached per
    weight pair, since every forbidden-set query asks for the same few."""
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("weights must be non-negative")
    a1p, a2p = 2.0 * (1.0 + alpha1), 2.0 * (1.0 + alpha2)
    both = 2.0 * (2.0 + alpha1 + alpha2)
    seeds = [(0.0, 0.0), (a1p, 0.0), (0.0, a2p), (a1p, both), (both, a2p), (both, both)]
    max1 = _coordinate_max(alpha1, alpha2) + 1e-9
    max2 = _coordinate_max(alpha2, alpha1) + 1e-9

    points: list[tuple[float, float]] = []

    def add(p: tuple[float, float]) -> bool:
        if p[0] < -DEDUP_TOLERANCE or p[1] < -DEDUP_TOLERANCE:
            return False
        p = (max(p[0], 0.0), max(p[1], 0.0))
        if abs(gamma_residual(p[0], p[1], alpha1, alpha2)) > ON_CURVE_TOLERANCE:
            return False
        for q in points:
            if abs(q[0] - p[0]) <= DEDUP_TOLERANCE and abs(q[1] - p[1]) <= DEDUP_TOLERANCE:
                return False
        points.append(p)
        return True

    queue = [p for p in seeds if add(p)]
    while queue:
        a, b = queue.pop()
        m = 0
        while a + 2.0 * m <= max1:  # rule: push the first coordinate up
            c = a + 2.0 * m
            for d in _partner_roots(c, alpha1, alpha2):
                if d >= b - DEDUP_TOLERANCE and add((c, d)):
                    queue.append((c, d))
            m += 1
        m = 0
        while b + 2.0 * m <= max2:  # symmetric rule on the second coordinate
            d = b + 2.0 * m
            for c in _partner_roots(d, alpha2, alpha1):
                if c >= a - DEDUP_TOLERANCE and add((c, d)):
                    queue.append((c, d))
            m += 1
    return LocalSet(tuple(sorted((float(a), float(b)) for a, b in points)))


# ----- global set -------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # numpy fields: compare them with numpy
class GlobalSet:
    """Finite enumeration of the forbidden set inside a window: isolated points
    (lambda0, shape (N, 2), in lexicographic order) plus sorted vertical and
    horizontal line abscissas (lambda1, lambda2)."""

    lambda0: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray


def _classes(values: np.ndarray,
             tolerance: float = DEDUP_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """Tolerance classes of `values`: in sorted order a class starts at its
    lowest value and takes every value within `tolerance` of it.  Returns each
    class's lowest value, in order, and for every entry the index of its class."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.diff(ordered, prepend=-np.inf) > tolerance
    while True:  # a run of close neighbours can outgrow the tolerance: split it
        lowest = ordered[np.maximum.accumulate(np.where(starts, np.arange(len(ordered)), 0))]
        late = ordered - lowest > tolerance
        if not late.any():
            break
        starts |= late & ~np.roll(late, 1)
    codes = np.empty(len(values), dtype=np.intp)
    codes[order] = np.cumsum(starts) - 1
    return ordered[starts], codes


def _printed(values: np.ndarray) -> np.ndarray:
    """Class values as reported: Python's `round(v, 12)` of each."""
    return np.array([round(v, 12) for v in values.tolist()])


def _lattice(shifts: np.ndarray, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Values 2 pi (2 p + s), p >= 0, for every shift s, as one row per shift
    with a mask of those inside [low, high]."""
    two_pi = 2.0 * np.pi
    first = np.maximum(0.0, np.floor((low / two_pi - shifts) / 2.0))
    p = first[:, None] + np.arange(int(max(high - low, 0.0) / (4.0 * np.pi)) + 2)
    values = two_pi * (2 * p + shifts[:, None])
    return values, (values >= low) & (values <= high)


def _axis_values(alphas: tuple[float, ...], limit: float) -> np.ndarray:
    """All values 4 pi (n + sum_j (1 + alpha_j) n_j) up to `limit`, one per
    tolerance class.  Offsets only grow, so those past the limit are dropped as
    each weight is added."""
    offsets = {0.0}
    for a in alphas:
        grown = {off + (1.0 + a) for off in offsets}
        offsets |= {off for off in grown if 4.0 * np.pi * off <= limit}
    values, inside = _lattice(2.0 * np.array(sorted(offsets)), 0.0, limit)
    return _printed(_classes(values[inside])[0])


def global_window(singular: SingularData, low: tuple[float, float],
                  high: tuple[float, float]) -> GlobalSet:
    """Enumerate the forbidden set inside [low1, high1] x [low2, high2].

    Every local point lies in the closed positive quadrant, so a sum of local
    points (a shift) only grows as marked points are added.  Shifts past the
    window are dropped after each marked point, which bounds the work by the
    window instead of the number of marked points.  A point is one pair of
    classes, and a class is listed at its lowest value rounded to 12 digits,
    so no two listed elements lie within DEDUP_TOLERANCE of each other."""
    lines1 = _axis_values(singular.alpha1, high[0])
    lines2 = _axis_values(singular.alpha2, high[1])

    shifts = np.zeros((1, 2))
    for a1, a2 in zip(singular.alpha1, singular.alpha2):
        # row 0: this marked point contributes nothing
        steps = np.vstack([np.zeros((1, 2)), np.array(local_lambda(a1, a2).points)])
        grown = (shifts[:, None, :] + steps[None, :, :]).reshape(-1, 2)
        grown = grown[np.all(2.0 * np.pi * grown <= high, axis=1)]
        (x, cx), (y, cy) = _classes(grown[:, 0], ROUND_OFF), _classes(grown[:, 1], ROUND_OFF)
        pairs = np.unique(cx * len(y) + cy)
        shifts = np.column_stack((x[pairs // len(y)], y[pairs % len(y)]))

    xs, x_in = _lattice(shifts[:, 0], low[0], high[0])
    ys, y_in = _lattice(shifts[:, 1], low[1], high[1])
    cx, cy = np.zeros(xs.shape, dtype=np.intp), np.zeros(ys.shape, dtype=np.intp)
    x, cx[x_in] = _classes(xs[x_in])
    y, cy[y_in] = _classes(ys[y_in])
    which, i, j = np.nonzero(x_in[:, :, None] & y_in[:, None, :])
    pairs = np.unique(cx[which, i] * len(y) + cy[which, j])
    lambda0 = np.column_stack((_printed(x)[pairs // len(y)], _printed(y)[pairs % len(y)]))
    return GlobalSet(lambda0, lines1[lines1 >= low[0]], lines2[lines2 >= low[1]])


def forbidden_window(problem: str, singular: SingularData, low: tuple[float, float],
                     high: tuple[float, float]) -> GlobalSet:
    """The forbidden set of problem "toda" (`global_window`) or "meanfield"
    (the lines 8 pi n, n >= 1, in each coordinate, and no points) inside the
    window [low1, high1] x [low2, high2]."""
    if problem == "toda":
        return global_window(singular, low, high)
    if problem == "meanfield":
        def lines(lo: float, hi: float) -> np.ndarray:
            first, last = max(1, int(lo / (8.0 * np.pi))), int(hi / (8.0 * np.pi)) + 1
            values = 8.0 * np.pi * np.arange(first, last + 1)
            return _printed(values[(values >= lo) & (values <= hi)])
        return GlobalSet(np.empty((0, 2)), lines(low[0], high[0]), lines(low[1], high[1]))
    raise ValueError(f"unknown problem {problem!r} (expected 'toda' or 'meanfield')")


def global_lambda(singular: SingularData, box: tuple[float, float]) -> GlobalSet:
    """Enumerate the forbidden set inside [0, box1] x [0, box2] (+4 pi padding)."""
    return global_window(singular, (0.0, 0.0), (box[0] + 4.0 * np.pi, box[1] + 4.0 * np.pi))


@dataclass(frozen=True)
class MembershipReport:
    inside: bool
    nearest_distance: float
    witness: tuple[str, tuple[float, ...]]


def global_membership(rho: RhoPair, singular: SingularData, tol: float,
                      problem: str = "toda") -> MembershipReport:
    """Distance from rho to the named problem's forbidden set (lines by
    coordinate gap, isolated points by Euclidean distance) and the nearest
    witness element.  Ties go to the first element of lambda1, then lambda2,
    then lambda0.  The window reaching 4 pi around rho holds the nearest
    element when one lies that close, as a Toda line always does; otherwise
    the window reaching 8 pi is listed, and it holds a mean-field line."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    for reach in (4.0 * np.pi, 8.0 * np.pi):
        gs = forbidden_window(problem, singular, (rho.rho1 - reach, rho.rho2 - reach),
                              (rho.rho1 + reach, rho.rho2 + reach))
        families = (
            ("lambda1-line", gs.lambda1[:, None], np.abs(rho.rho1 - gs.lambda1)),
            ("lambda2-line", gs.lambda2[:, None], np.abs(rho.rho2 - gs.lambda2)),
            ("lambda0-point", gs.lambda0,
             np.hypot(rho.rho1 - gs.lambda0[:, 0], rho.rho2 - gs.lambda0[:, 1])),
        )
        best = (np.inf, ("none", ()))
        for kind, elements, distances in families:
            if len(elements):
                k = int(np.argmin(distances))
                if distances[k] < best[0]:
                    best = (float(distances[k]), (kind, tuple(elements[k].tolist())))
        if best[0] <= reach:
            break
    return MembershipReport(best[0] <= tol, best[0], best[1])


def blowup_candidates(singular: SingularData, point_index: Optional[int] = None,
                      problem: str = "toda") -> tuple[tuple[float, float], ...]:
    """Reference table of candidate blow-up mass pairs at a marked point, or at
    a regular point when no index is given: for "toda", 2 pi times the local
    set (origin excluded); for "meanfield", all pairs of 8 pi n (n = 1..5) and,
    at a marked point, 8 pi (1 + alpha1): the single-bubble mass where the
    desingularized weight vanishes like d^(2 alpha1), so weight 0 gives the
    regular table."""
    if point_index is None:
        alpha1 = alpha2 = 0.0
    else:
        if not 0 <= point_index < len(singular):
            raise IndexError(f"singular point index {point_index} out of range")
        alpha1 = singular.alpha1[point_index]
        alpha2 = singular.alpha2[point_index]
    if problem == "toda":
        local = local_lambda(alpha1, alpha2)
        return tuple((2.0 * np.pi * p[0], 2.0 * np.pi * p[1]) for p in local.nonzero_points())
    if problem == "meanfield":
        values = [8.0 * np.pi * n for n in range(1, 6)]
        marked = 8.0 * np.pi * (1.0 + alpha1)
        if point_index is not None and marked not in values:
            values.append(marked)
        return tuple((v, w) for v in values for w in values)
    raise ValueError(f"unknown problem {problem!r} (expected 'toda' or 'meanfield')")
