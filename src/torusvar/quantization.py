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
integer 4-pi lattices per component; `forbidden_window` lists it inside a
window, merging values within DEDUP_TOLERANCE into tolerance classes.  A
membership query prints the nearest part of the window reaching 4 pi (Toda)
or 8 pi (mean field) around the queried pair and returns its nearest element
as a witness.  No element outside that window can be the nearest one: some
line lies within half that reach of every non-negative coordinate, while
every element outside it is farther.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .functionals import RhoPair
from .geometry import SingularData

DEDUP_TOLERANCE = 1e-9
ON_CURVE_TOLERANCE = 1e-12
# sums of local points closer than this differ by round-off only (one sum added
# up in two orders); merging them bounds the work and moves no reported value
ROUND_OFF = 1e-12
MEMBERSHIP_SLACK = 1e-8  # more than a point's printed distance can differ from its raw one
SHIFT_ROW_LIMIT = 2**20  # shifts times local points in one growth step above this are refused
LOCAL_POINT_LIMIT = 2**11  # a local set's closure that reaches this many points is refused


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
    weight pair, since every forbidden-set query asks for the same few.  A
    closure that reaches LOCAL_POINT_LIMIT points raises ValueError."""
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("weights must be non-negative")
    a1p, a2p = 2.0 * (1.0 + alpha1), 2.0 * (1.0 + alpha2)
    both = 2.0 * (2.0 + alpha1 + alpha2)
    seeds = [(0.0, 0.0), (a1p, 0.0), (0.0, a2p), (a1p, both), (both, a2p), (both, both)]
    alphas = (alpha1, alpha2)
    tops = (_coordinate_max(alpha1, alpha2) + 1e-9, _coordinate_max(alpha2, alpha1) + 1e-9)

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
        if len(points) >= LOCAL_POINT_LIMIT:
            raise ValueError(f"the local set of weights ({alpha1}, {alpha2}) reaches "
                             f"{LOCAL_POINT_LIMIT} points")
        return True

    queue = [p for p in seeds if add(p)]
    while queue:
        p = queue.pop()
        for k in (0, 1):  # push coordinate k up by 2m, solve the other on the ellipse
            m = 0
            while (c := p[k] + 2.0 * m) <= tops[k]:
                for d in _partner_roots(c, alphas[k], alphas[1 - k]):
                    q = (c, d) if k == 0 else (d, c)
                    if d >= p[1 - k] - DEDUP_TOLERANCE and add(q):
                        queue.append(q)
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


@functools.lru_cache(maxsize=256)
def _axis_values(alphas: tuple[float, ...], limit: float, unit: float = 4.0 * np.pi) -> np.ndarray:
    """All values unit (n + sum_j (1 + alpha_j) n_j), n >= 0 and each n_j 0 or 1,
    up to `limit`, one per tolerance class, read-only.  Offsets only grow, so
    those past the limit are dropped as each weight is added."""
    offsets = {0.0}
    for a in alphas:
        grown = {off + (1.0 + a) for off in offsets}
        offsets |= {off for off in grown if unit * off <= limit}
    values = unit * (np.array(sorted(offsets))[:, None] + np.arange(int(limit / unit) + 2))
    lines = _printed(_classes(values[values <= limit])[0])
    lines.flags.writeable = False
    return lines


def _top(high) -> tuple[float, ...]:
    """A window's tops rounded up to multiples of 8 pi: one table serves nearby windows."""
    return tuple(float(8.0 * np.pi * np.ceil(h / (8.0 * np.pi))) for h in high)


@functools.lru_cache(maxsize=16)
def _shift_table(weights: tuple[tuple[float, float], ...], top: tuple[float, ...]) -> np.ndarray:
    """The sums of local points, one per marked point or none (shifts), up to top / 2 pi,
    read-only; a step past SHIFT_ROW_LIMIT rows raises ValueError before allocating."""
    shifts = np.zeros((1, 2))
    for a1, a2 in weights:
        # row 0: this marked point contributes nothing
        steps = np.vstack([np.zeros((1, 2)), np.array(local_lambda(a1, a2).points)])
        if len(shifts) * len(steps) > SHIFT_ROW_LIMIT:
            raise ValueError(f"{len(shifts)} x {len(steps)} shift rows exceed {SHIFT_ROW_LIMIT}")
        grown = (shifts[:, None, :] + steps[None, :, :]).reshape(-1, 2)
        grown = grown[np.all(2.0 * np.pi * grown <= top, axis=1)]
        (x, cx), (y, cy) = _classes(grown[:, 0], ROUND_OFF), _classes(grown[:, 1], ROUND_OFF)
        pairs = np.unique(cx * len(y) + cy)
        shifts = np.column_stack((x[pairs // len(y)], y[pairs % len(y)]))
    shifts.flags.writeable = False
    return shifts


def _window(singular: SingularData, low, high) -> Iterator[tuple[np.ndarray, ...]]:
    """Per coordinate: lattice values of the shifts reaching the window, inside mask, classes."""
    table = _shift_table(tuple(zip(singular.alpha1, singular.alpha2)), _top(high))
    shifts = table[np.all(2.0 * np.pi * table <= high, axis=1)]
    for k in (0, 1):
        values, inside = _lattice(shifts[:, k], low[k], high[k])
        codes = np.zeros(values.shape, dtype=np.intp)
        lowest, codes[inside] = _classes(values[inside])
        yield values, inside, lowest, codes


def forbidden_window(problem: str, singular: SingularData, low: tuple[float, float],
                     high: tuple[float, float]) -> GlobalSet:
    """The forbidden set of problem "toda" or "meanfield" inside the window
    [low1, high1] x [low2, high2].  The mean-field set has no points, and its
    lines in each coordinate are 8 pi (n + sum_{j in J} (1 + alpha1_j)) for
    n >= 0 and every subset J of the marked points, except 0.

    A Toda point is one pair of classes, and a class is listed at its lowest
    value rounded to 12 digits, so no two listed elements lie within
    DEDUP_TOLERANCE of each other."""
    if problem == "toda":
        lines1 = _axis_values(singular.alpha1, high[0])
        lines2 = _axis_values(singular.alpha2, high[1])
        (_, x_in, x, cx), (_, y_in, y, cy) = _window(singular, low, high)
        which, i, j = np.nonzero(x_in[:, :, None] & y_in[:, None, :])
        pairs = np.unique(cx[which, i] * len(y) + cy[which, j])
        lambda0 = np.column_stack((_printed(x)[pairs // len(y)], _printed(y)[pairs % len(y)]))
        return GlobalSet(lambda0, lines1[lines1 >= low[0]], lines2[lines2 >= low[1]])
    if problem == "meanfield":  # both exponential terms are desingularized with alpha1
        def lines(lo: float, hi: float) -> np.ndarray:
            values = _axis_values(singular.alpha1, hi, 8.0 * np.pi)
            return values[(values > 0.0) & (values >= lo)]
        return GlobalSet(np.empty((0, 2)), lines(low[0], high[0]), lines(low[1], high[1]))
    raise ValueError(f"unknown problem {problem!r} (expected 'toda' or 'meanfield')")


def global_lambda(singular: SingularData, box: tuple[float, float],
                  problem: str = "toda") -> GlobalSet:
    """The named problem's forbidden set inside [0, box1] x [0, box2] (+4 pi padding)."""
    return forbidden_window(problem, singular, (0.0, 0.0),
                            (box[0] + 4.0 * np.pi, box[1] + 4.0 * np.pi))


@dataclass(frozen=True)
class MembershipReport:
    inside: bool
    nearest_distance: float
    witness: tuple[str, tuple[float, ...]]


def _toda_near_set(rho: RhoPair, singular: SingularData, low, high) -> GlobalSet:
    """The Toda window [low, high] as listed, cut to the lines (all up to the table's
    top) and the points within MEMBERSHIP_SLACK of rho's least raw distance."""
    (xs, x_in, x, cx), (ys, y_in, y, cy) = _window(singular, low, high)
    distances = np.hypot(np.where(x_in, np.abs(rho.rho1 - xs), np.inf)[:, :, None],
                         np.where(y_in, np.abs(rho.rho2 - ys), np.inf)[:, None, :])
    which, i, j = np.nonzero(distances <= distances.min() + MEMBERSHIP_SLACK)
    points = np.column_stack((_printed(x[cx[which, i]]), _printed(y[cy[which, j]])))
    lines = (_axis_values(a, top) for a, top in zip((singular.alpha1, singular.alpha2), _top(high)))
    return GlobalSet(points[np.lexsort((points[:, 1], points[:, 0]))], *lines)


def global_membership(rho: RhoPair, singular: SingularData, tol: float,
                      problem: str = "toda") -> MembershipReport:
    """Distance from rho to the named problem's forbidden set (lines by
    coordinate gap, isolated points by Euclidean distance) and the nearest
    witness element.  Ties go to the first element of lambda1, then lambda2,
    then lambda0.  The nearest element lies in the window reaching 4 pi around
    rho for "toda" (only its part near rho is printed) and 8 pi for "meanfield"."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    reach = 4.0 * np.pi if problem == "toda" else 8.0 * np.pi
    low, high = (rho.rho1 - reach, rho.rho2 - reach), (rho.rho1 + reach, rho.rho2 + reach)
    gs = (_toda_near_set(rho, singular, low, high) if problem == "toda"
          else forbidden_window(problem, singular, low, high))
    best = (np.inf, ("none", ()))
    for kind, elements, distances in (
            ("lambda1-line", gs.lambda1[:, None], np.abs(rho.rho1 - gs.lambda1)),
            ("lambda2-line", gs.lambda2[:, None], np.abs(rho.rho2 - gs.lambda2)),
            ("lambda0-point", gs.lambda0,
             np.hypot(rho.rho1 - gs.lambda0[:, 0], rho.rho2 - gs.lambda0[:, 1]))):
        if len(elements):
            k = int(np.argmin(distances))
            if distances[k] < best[0]:
                best = (float(distances[k]), (kind, tuple(elements[k].tolist())))
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
