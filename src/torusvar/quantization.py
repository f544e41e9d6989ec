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
integer 4-pi lattices per component.  A membership query enumerates it in
the box reaching 4 pi past the queried pair and returns the nearest element
as a witness.  No element outside that box can be the nearest one: some 4-pi
line lies within 2 pi of every non-negative coordinate, while every element
outside the box is more than 4 pi away.
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


def gamma_residual(s1: float, s2: float, alpha1: float, alpha2: float) -> float:
    """Defect of (s1, s2) from the ellipse equation (0 means exactly on it)."""
    return (s1 * s1 - s1 * s2 + s2 * s2
            - 2.0 * (1.0 + alpha1) * s1 - 2.0 * (1.0 + alpha2) * s2)


@dataclass(frozen=True)
class LocalSet:
    """The finite quantization set for one pair of weights, sorted lexicographically."""

    alpha1: float
    alpha2: float
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
    return LocalSet(alpha1, alpha2, tuple(sorted((float(a), float(b)) for a, b in points)))


# ----- global set -------------------------------------------------------------

@dataclass(frozen=True)
class GlobalSet:
    """Finite enumeration of the forbidden set inside a box: isolated points
    (lambda0) plus vertical/horizontal line abscissas (lambda1, lambda2)."""

    singular: SingularData
    box: tuple[float, float]
    lambda0: tuple[tuple[float, float], ...]
    lambda1: tuple[float, ...]
    lambda2: tuple[float, ...]


def _axis_values(alphas: tuple[float, ...], limit: float) -> tuple[float, ...]:
    """All values 4 pi (n + sum_j (1 + alpha_j) n_j) up to `limit`.  Offsets
    only grow, so those past the limit are dropped as each weight is added."""
    offsets = {0.0}
    for a in alphas:
        grown = {off + (1.0 + a) for off in offsets}
        offsets |= {off for off in grown if 4.0 * np.pi * off <= limit}
    values = set()
    for off in offsets:
        n = 0
        while True:
            v = 4.0 * np.pi * (n + off)
            if v > limit:
                break
            values.add(round(v, 12))
            n += 1
    return tuple(sorted(values))


def _rounded(values: np.ndarray, digits: int) -> np.ndarray:
    """`round(v, digits)` of every entry, rounding as Python rounds a float: to
    the exactly nearest decimal.  Scaling by 10**digits first, as `np.round`
    does, agrees unless the scaled value lies within rounding error of a
    half-way point; those few entries are rounded one by one."""
    scale = 10.0 ** digits
    scaled = values * scale
    out = np.rint(scaled) / scale
    near = np.abs(scaled - np.floor(scaled) - 0.5) <= np.spacing(np.abs(scaled))
    out[near] = [round(v, digits) for v in values[near].tolist()]
    return out


def _codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values and, for every entry, the index of its value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, inverse.reshape(values.shape)


def _merge_shifts(grown: np.ndarray) -> np.ndarray:
    """Merge shifts that agree to 9 digits.  Each survivor keeps the position
    of the first shift of its class and the value of the last one, as a dict
    keyed by the rounded pair does; the next step grows them in that order."""
    keys = _rounded(grown, 9)
    _, code1 = _codes(keys[:, 0])
    distinct2, code2 = _codes(keys[:, 1])
    codes = code1 * len(distinct2) + code2
    _, first = np.unique(codes, return_index=True)
    _, last_reversed = np.unique(codes[::-1], return_index=True)
    last = len(codes) - 1 - last_reversed
    return grown[last[np.argsort(first)]]


def global_lambda(singular: SingularData, box: tuple[float, float]) -> GlobalSet:
    """Enumerate the forbidden set inside [0, box1] x [0, box2] (+4 pi padding).

    Every local point lies in the closed positive quadrant, so a sum of local
    points (a shift) only grows as marked points are added.  Shifts past the
    padded box are dropped after each marked point, which bounds the work by
    the box instead of the number of marked points."""
    two_pi = 2.0 * np.pi
    lim1, lim2 = box[0] + 4.0 * np.pi, box[1] + 4.0 * np.pi
    lambda1 = _axis_values(singular.alpha1, lim1)
    lambda2 = _axis_values(singular.alpha2, lim2)

    shifts = np.zeros((1, 2))
    for a1, a2 in zip(singular.alpha1, singular.alpha2):
        # row 0: this marked point contributes nothing
        steps = np.vstack([np.zeros((1, 2)), np.array(local_lambda(a1, a2).points)])
        grown = (shifts[:, None, :] + steps[None, :, :]).reshape(-1, 2)
        shifts = _merge_shifts(grown[np.all(two_pi * grown <= (lim1, lim2), axis=1)])

    # 4-pi lattice over each shift: coordinate 2 pi (2 p + s), p >= 0, up to the limit
    def lattice(s: np.ndarray, limit: float) -> np.ndarray:
        return two_pi * (2 * np.arange(int(limit / (4.0 * np.pi)) + 2)[None, :] + s[:, None])

    xs, ys = lattice(shifts[:, 0], lim1), lattice(shifts[:, 1], lim2)
    values1, code1 = _codes(_rounded(xs, 12))
    values2, code2 = _codes(_rounded(ys, 12))
    which, i, j = np.nonzero((xs <= lim1)[:, :, None] & (ys <= lim2)[:, None, :])
    codes = np.unique(code1[which, i] * len(values2) + code2[which, j])
    lambda0 = tuple(zip(values1[codes // len(values2)].tolist(),
                        values2[codes % len(values2)].tolist()))
    return GlobalSet(singular, box, lambda0, lambda1, lambda2)


@dataclass(frozen=True)
class MembershipReport:
    inside: bool
    nearest_distance: float
    witness: tuple[str, tuple[float, ...]]


def global_membership(rho: RhoPair, singular: SingularData, tol: float) -> MembershipReport:
    """Distance from rho to the forbidden set (lines by coordinate gap,
    isolated points by Euclidean distance) and the nearest witness element.
    Ties go to the first element of lambda1, then lambda2, then lambda0."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    gs = global_lambda(singular, (rho.rho1, rho.rho2))
    points = np.array(gs.lambda0).reshape(-1, 2)
    families = (
        ("lambda1-line", [(v,) for v in gs.lambda1], np.abs(rho.rho1 - np.array(gs.lambda1))),
        ("lambda2-line", [(v,) for v in gs.lambda2], np.abs(rho.rho2 - np.array(gs.lambda2))),
        ("lambda0-point", gs.lambda0, np.hypot(rho.rho1 - points[:, 0], rho.rho2 - points[:, 1])),
    )
    best = (np.inf, ("none", ()))
    for kind, elements, distances in families:
        if len(elements):
            k = int(np.argmin(distances))
            if distances[k] < best[0]:
                best = (float(distances[k]), (kind, elements[k]))
    return MembershipReport(best[0] <= tol, best[0], best[1])


def nearest_scalar_line(value: float) -> tuple[int, float]:
    """The positive multiple n of 8 pi nearest to value, as (n, |value - 8 pi n|)."""
    n = max(1, int(round(value / (8.0 * np.pi))))
    return n, abs(value - n * 8.0 * np.pi)


def scalar_forbidden(rho: RhoPair, tol: float) -> bool:
    """Whether either coordinate is within tol of a positive multiple of 8 pi."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return any(nearest_scalar_line(value)[1] <= tol for value in (rho.rho1, rho.rho2))


def scalar_blowup_value(alpha: float) -> float:
    """The scalar concentration mass at a point of weight alpha: 4 pi (1 + alpha)."""
    return 4.0 * np.pi * (1.0 + alpha)


def blowup_candidates(singular: SingularData,
                      point_index: Optional[int] = None) -> tuple[tuple[float, float], ...]:
    """Reference table of candidate blow-up mass pairs (2 pi times the local set,
    origin excluded) at a marked point, or at a regular point when no index is given."""
    if point_index is None:
        alpha1 = alpha2 = 0.0
    else:
        if not 0 <= point_index < len(singular):
            raise IndexError(f"singular point index {point_index} out of range")
        alpha1 = singular.alpha1[point_index]
        alpha2 = singular.alpha2[point_index]
    local = local_lambda(alpha1, alpha2)
    return tuple((2.0 * np.pi * p[0], 2.0 * np.pi * p[1]) for p in local.nonzero_points())
