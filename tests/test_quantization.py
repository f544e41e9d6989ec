import itertools
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from torusvar.functionals import RhoPair
from torusvar.geometry import FlatTorus, Point, SingularData
import torusvar.quantization
from torusvar.quantization import (
    DEDUP_TOLERANCE,
    LocalSet,
    LOCAL_POINT_LIMIT,
    ON_CURVE_TOLERANCE,
    ROUND_OFF,
    SHIFT_ROW_LIMIT,
    blowup_candidates,
    forbidden_window,
    gamma_residual,
    global_lambda,
    global_membership,
    local_lambda,
)
from torusvar.solver import check_continuation_box

SRC = Path(__file__).resolve().parents[1] / "src"
BASE_SET = {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 4.0), (4.0, 2.0), (4.0, 4.0)}


def exact_local_set(a1, a2, coordinate_bound):
    """Independent oracle: the same closure computed in exact arithmetic.

    Coordinates stay symbolic (rationals and nested radicals) end to end; the
    quadratic formula is applied exactly, with 40-digit evaluation used only to
    order, bound, and deduplicate points.  No floating-point root iteration,
    clamping, or rounding is involved.  Each expression's 40-digit value is
    computed once and cached, since the closure revisits the same radicals."""
    a1, a2 = sp.Rational(a1), sp.Rational(a2)
    c1, c2 = 2 * (1 + a1), 2 * (1 + a2)
    bound = float(coordinate_bound)
    values = {}

    def num(x):
        x = sp.sympify(x)
        if x not in values:
            values[x] = float(x.evalf(40))
        return values[x]

    def key(p):
        return (round(num(p[0]), 15), round(num(p[1]), 15))

    def roots_for(fixed, free_coeff, fixed_coeff):
        bq = fixed + free_coeff
        disc = sp.expand(bq**2 - 4 * (fixed**2 - fixed_coeff * fixed))
        if abs(num(disc)) < 1e-20 and sp.simplify(disc) == 0:
            return [bq / 2]
        if num(disc) < 0:
            return []
        s = sp.sqrt(disc)
        return [(bq + s) / 2, (bq - s) / 2]

    seeds = [(sp.Integer(0), sp.Integer(0)), (c1, sp.Integer(0)), (sp.Integer(0), c2),
             (c1, c1 + c2), (c1 + c2, c2), (c1 + c2, c1 + c2)]
    found = {key(p): p for p in seeds}
    work = list(seeds)
    while work:
        s1, s2 = work.pop()
        for m in itertools.count(0):  # grow the first coordinate, solve the second
            c = s1 + 2 * m
            if num(c) > bound:
                break
            for r in roots_for(c, c2, c1):
                if num(r) >= num(s2) - 1e-30 and num(r) <= bound and key((c, r)) not in found:
                    found[key((c, r))] = (c, r)
                    work.append((c, r))
        for m in itertools.count(0):  # and symmetrically
            c = s2 + 2 * m
            if num(c) > bound:
                break
            for r in roots_for(c, c1, c2):
                if num(r) >= num(s1) - 1e-30 and num(r) <= bound and key((r, c)) not in found:
                    found[key((r, c))] = (r, c)
                    work.append((r, c))
    return sorted((num(p[0]), num(p[1])) for p in found.values())


def two_loop_local_lambda(alpha1, alpha2):
    """Reference copy of the closure with one loop per coordinate, the first
    coordinate pushed up before the second."""
    a1p, a2p = 2.0 * (1.0 + alpha1), 2.0 * (1.0 + alpha2)
    both = 2.0 * (2.0 + alpha1 + alpha2)
    seeds = [(0.0, 0.0), (a1p, 0.0), (0.0, a2p), (a1p, both), (both, a2p), (both, both)]
    max1 = torusvar.quantization._coordinate_max(alpha1, alpha2) + 1e-9
    max2 = torusvar.quantization._coordinate_max(alpha2, alpha1) + 1e-9
    roots = torusvar.quantization._partner_roots
    points = []

    def add(p):
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
        while a + 2.0 * m <= max1:
            c = a + 2.0 * m
            for d in roots(c, alpha1, alpha2):
                if d >= b - DEDUP_TOLERANCE and add((c, d)):
                    queue.append((c, d))
            m += 1
        m = 0
        while b + 2.0 * m <= max2:
            d = b + 2.0 * m
            for c in roots(d, alpha2, alpha1):
                if c >= a - DEDUP_TOLERANCE and add((c, d)):
                    queue.append((c, d))
            m += 1
    return LocalSet(tuple(sorted((float(a), float(b)) for a, b in points)))


def assert_same_point_set(got, expected, tol=1e-9):
    """Tolerance-based set equality (sorting is unreliable when two points share
    a coordinate up to sub-tolerance rounding noise)."""
    assert len(got) == len(expected)
    for ref in expected:
        assert min(max(abs(g[0] - ref[0]), abs(g[1] - ref[1])) for g in got) < tol
    for g in got:
        assert min(max(abs(g[0] - ref[0]), abs(g[1] - ref[1])) for ref in expected) < tol


class TestLocalSet:
    def test_weightless_case_is_the_six_point_set(self):
        points = set(local_lambda(0.0, 0.0).points)
        assert points == BASE_SET

    def test_matches_exact_closure_with_one_heavy_point(self):
        result = local_lambda(1.0, 0.0)
        bound = max(max(p) for p in result.points)
        expected = exact_local_set(1, 0, sp.Rational(int(np.ceil(bound + 1e-6))))
        assert_same_point_set(result.points, expected)

    def test_matches_exact_closure_with_two_weights(self):
        result = local_lambda(0.5, 2.0)
        bound = max(max(p) for p in result.points)
        expected = exact_local_set(sp.Rational(1, 2), 2, sp.Rational(int(np.ceil(bound + 1e-6))))
        assert_same_point_set(result.points, expected)

    def test_every_point_sits_on_the_ellipse(self):
        for a1, a2 in itertools.product((0.0, 0.5, 1.0, 2.0), repeat=2):
            for s1, s2 in local_lambda(a1, a2).points:
                assert abs(gamma_residual(s1, s2, a1, a2)) <= 1e-12

    def test_points_are_sorted_and_distinct(self):
        points = local_lambda(1.5, 0.25).points
        assert list(points) == sorted(points)
        for p, q in itertools.combinations(points, 2):
            assert abs(p[0] - q[0]) > 1e-9 or abs(p[1] - q[1]) > 1e-9

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            local_lambda(-0.5, 0.0)

    def test_origin_always_included(self):
        assert (0.0, 0.0) in local_lambda(2.0, 2.0).points

    def test_nonzero_points_drop_the_origin(self):
        ls = local_lambda(0.0, 0.0)
        assert len(ls.nonzero_points()) == len(ls.points) - 1

    def test_runaway_closure_is_refused(self):
        # unbounded, (12, 0)'s closure ran past 30 s in its pairwise dedup;
        # a child process starts with no cached local set
        probe = ("import itertools, time\n"
                 "from torusvar.quantization import local_lambda\n"
                 "grid = [0.5 * i for i in range(7)]\n"
                 "sizes = [len(local_lambda(a1, a2).points)\n"
                 "         for a1, a2 in itertools.product(grid, repeat=2)]\n"
                 "t0 = time.perf_counter()\n"
                 "try:\n"
                 "    local_lambda(12.0, 0.0)\n"
                 "except ValueError as exc:\n"
                 "    print(time.perf_counter() - t0, max(sizes), exc)\n")
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True, timeout=120)
        seconds, largest, message = out.stdout.split(" ", 2)
        assert float(seconds) < 5.0
        assert int(largest) < LOCAL_POINT_LIMIT  # every weight pair in [0, 3]^2 is answered
        assert message.strip().endswith(f"reaches {LOCAL_POINT_LIMIT} points")

    @pytest.mark.parametrize("weights, size", (((5.0, 5.0), 1606), ((8.0, 0.0), 1195)))
    def test_large_sets_below_the_limit_are_unchanged(self, weights, size):
        result = local_lambda(*weights)
        assert len(result.points) == size
        assert result == two_loop_local_lambda(*weights)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_equals_the_two_loop_closure(self, alpha1, alpha2):
        assert local_lambda(alpha1, alpha2) == two_loop_local_lambda(alpha1, alpha2)


class TestBlowupCandidates:
    def test_regular_point_table_is_two_pi_times_base(self):
        candidates = set(blowup_candidates(SingularData.empty()))
        expected = {(2 * np.pi * a, 2 * np.pi * b) for a, b in BASE_SET if (a, b) != (0, 0)}
        assert len(candidates) == 5
        for c in candidates:
            assert min(np.hypot(c[0] - e[0], c[1] - e[1]) for e in expected) < 1e-9

    def test_marked_point_uses_its_weights(self):
        torus = FlatTorus(32)
        s = SingularData.of([(0.5, 0.5)], [1.0], [0.0], torus)
        candidates = blowup_candidates(s, 0)
        assert any(abs(c[0] - 2 * np.pi * 4.0) < 1e-9 and abs(c[1]) < 1e-9
                   for c in candidates)  # (2(1+alpha1), 0) scaled by 2 pi

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            blowup_candidates(SingularData.empty(), 0)


class TestGlobalSet:
    def test_axis_values_are_multiples_without_weights(self):
        gs = global_lambda(SingularData.empty(), (30.0, 30.0))
        four_pi = 4 * np.pi
        for v in gs.lambda1:
            assert abs(v / four_pi - round(v / four_pi)) < 1e-9

    def test_axis_values_include_weight_shifts(self):
        torus = FlatTorus(32)
        s = SingularData.of([(0.25, 0.5)], [0.5], [0.0], torus)
        gs = global_lambda(s, (30.0, 30.0))
        assert any(abs(v - 4 * np.pi * 1.5) < 1e-9 for v in gs.lambda1)  # 4 pi (1 + a)
        assert any(abs(v - 4 * np.pi * 2.5) < 1e-9 for v in gs.lambda1)  # with n = 1

    def test_point_component_contains_the_even_lattice(self):
        gs = global_lambda(SingularData.empty(), (30.0, 30.0))
        lattice = {(round(p[0] / np.pi), round(p[1] / np.pi)) for p in gs.lambda0}
        for p, q in itertools.product((0, 2, 4), repeat=2):
            assert (2 * p, 2 * q) in lattice

    def test_membership_measures_the_gap_to_a_line(self):
        report = global_membership(RhoPair(4 * np.pi + 0.5, 1.0),
                                   SingularData.empty(), 1e-6)
        assert not report.inside
        assert report.nearest_distance == pytest.approx(0.5, abs=1e-9)
        assert report.witness[0] == "lambda1-line"

    def test_membership_detects_a_forbidden_point(self):
        report = global_membership(RhoPair(4 * np.pi, 1.0), SingularData.empty(), 1e-9)
        assert report.inside
        assert report.nearest_distance == pytest.approx(0.0, abs=1e-12)

    def test_interior_box_point_is_clear(self):
        report = global_membership(RhoPair(5 * np.pi, 5 * np.pi),
                                   SingularData.empty(), 1e-6)
        assert not report.inside
        assert report.nearest_distance == pytest.approx(np.pi, abs=1e-9)


def unpruned_axis_values(alphas, limit):
    """Reference copy of the 4-pi line enumeration."""
    offsets = {0.0}
    for a in alphas:
        offsets |= {off + (1.0 + a) for off in offsets}
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


def unpruned_global_lambda(singular, box):
    """Reference: the forbidden-set enumeration as a plain loop that keeps every
    shift, growing as the product of (|Lambda_j| + 1) over the marked points."""
    lim1, lim2 = box[0] + 4.0 * np.pi, box[1] + 4.0 * np.pi
    lambda1 = unpruned_axis_values(singular.alpha1, lim1)
    lambda2 = unpruned_axis_values(singular.alpha2, lim2)

    local_sets = [local_lambda(a1, a2).points
                  for a1, a2 in zip(singular.alpha1, singular.alpha2)]
    base_shifts = [(0.0, 0.0)]
    for pts in local_sets:
        grown = []
        for s1, s2 in base_shifts:
            grown.append((s1, s2))  # this marked point contributes nothing
            grown.extend((s1 + p1, s2 + p2) for p1, p2 in pts)
        # merge round-off only: shifts 1e-9 apart give points 2 pi 1e-9 apart
        seen = {(round(s1, 12), round(s2, 12)): (s1, s2) for s1, s2 in grown}
        base_shifts = list(seen.values())

    points = set()
    for s1, s2 in base_shifts:
        p = 0
        while 2.0 * np.pi * (2 * p + s1) <= lim1:
            q = 0
            while 2.0 * np.pi * (2 * q + s2) <= lim2:
                points.add((round(2.0 * np.pi * (2 * p + s1), 12),
                            round(2.0 * np.pi * (2 * q + s2), 12)))
                q += 1
            p += 1
    return tuple(sorted(points)), lambda1, lambda2


def covers(listed, points):
    """Whether every one of `points` lies within DEDUP_TOLERANCE (max norm) of
    one of `listed`."""
    return not len(points) or cKDTree(listed).query(points, p=np.inf)[0].max() <= DEDUP_TOLERANCE


def marked(weights):
    """SingularData with one marked point per (alpha1, alpha2) pair."""
    return SingularData.of([(0.05 + 0.1 * i, 0.3) for i in range(len(weights))],
                           [a1 for a1, _ in weights], [a2 for _, a2 in weights],
                           FlatTorus(32))


def nearest_element(gs, rho):
    """Distance from rho to the nearest element of an enumerated set and that
    element; ties go to the first line of lambda1, then lambda2, then lambda0."""
    best = (np.inf, ("none", ()))
    for kind, elements, distances in (
            ("lambda1-line", gs.lambda1[:, None], np.abs(rho.rho1 - gs.lambda1)),
            ("lambda2-line", gs.lambda2[:, None], np.abs(rho.rho2 - gs.lambda2)),
            ("lambda0-point", gs.lambda0, np.hypot(rho.rho1 - gs.lambda0[:, 0],
                                                   rho.rho2 - gs.lambda0[:, 1]))):
        if len(elements):
            k = int(np.argmin(distances))
            if distances[k] < best[0]:
                best = (float(distances[k]), (kind, tuple(elements[k].tolist())))
    return best


def filtered_box_message(center, nu, singular):
    """Reference: the continuation check as a filter over the whole set
    enumerated up to the 2-nu box, with the check's messages; the listed
    values are rounded, so an element within ROUND_OFF of the box counts."""
    r1, r2 = center.rho1, center.rho2
    reach = 2.0 * nu + ROUND_OFF
    gs = global_lambda(singular, (r1 + 2.0 * nu, r2 + 2.0 * nu))
    crossed1 = np.flatnonzero(np.abs(r1 - gs.lambda1) <= reach)
    if crossed1.size:
        return f"continuation box crosses the vertical line rho1 = {gs.lambda1[crossed1[0]]:.6f}"
    crossed2 = np.flatnonzero(np.abs(r2 - gs.lambda2) <= reach)
    if crossed2.size:
        return ("continuation box crosses the horizontal line rho2 = "
                f"{gs.lambda2[crossed2[0]]:.6f}")
    contained = np.flatnonzero(np.all(np.abs((r1, r2) - gs.lambda0) <= reach, axis=1))
    if contained.size:
        return ("continuation box contains the forbidden point "
                f"{tuple(gs.lambda0[contained[0]].tolist())}")
    return None


WEIGHTS = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
REFERENCE_BUDGET = 100_000


class TestPrunedEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(WEIGHTS, max_size=3),
           st.tuples(st.floats(0.0, 20 * np.pi), st.floats(0.0, 20 * np.pi)))
    def test_equals_the_unpruned_enumeration(self, weights, box):
        # the reference's cost is the product of the local set sizes; keep it testable
        assume(np.prod([len(local_lambda(*w).points) + 1 for w in weights]) <= REFERENCE_BUDGET)
        singular = marked(weights)
        got = global_lambda(singular, box)
        ref0, ref1, ref2 = unpruned_global_lambda(singular, box)
        lim1, lim2 = box[0] + 4.0 * np.pi, box[1] + 4.0 * np.pi
        for mine, theirs, edge in ((got.lambda0, ref0, (lim1, lim2)),
                                   (got.lambda1, ref1, (lim1,)), (got.lambda2, ref2, (lim2,))):
            # the reference lists a value twice when two computations of it round apart
            mine, theirs = np.reshape(mine, (-1, len(edge))), np.reshape(theirs, (-1, len(edge)))
            assert not cKDTree(mine).query_pairs(DEDUP_TOLERANCE, p=np.inf)
            for listed, other in ((theirs, mine), (mine, theirs)):
                # at the box's far edge, round-off in the last bit decides whether a
                # value is in, and the reference sums each value in another order
                assert covers(other, listed[np.all(listed < np.subtract(edge, DEDUP_TOLERANCE),
                                                   axis=1)])

    def test_many_marked_points_stay_bounded(self):
        box = (20 * np.pi, 20 * np.pi)
        three = global_lambda(marked([(0.5, 2.0)] * 3), box)
        t0 = time.perf_counter()
        eight = global_lambda(marked([(0.5, 2.0)] * 8), box)
        assert time.perf_counter() - t0 < 1.0
        assert len(eight.lambda0) == len(three.lambda0) == 885

    def test_line_offsets_stay_bounded_with_distinct_weights(self):
        # 2**24 weight subsets, of which only the few within the limit are kept
        weights = tuple(float(a) for a in np.sqrt(np.arange(2.0, 26.0)) % 0.5)
        limit = 24 * np.pi
        few = np.reshape(unpruned_axis_values(weights[:16], limit), (-1, 1))
        mine = torusvar.quantization._axis_values(weights[:16], limit)[:, None]
        # subset sums of these weights coincide, and the reference lists a few twice
        assert covers(mine, few) and covers(few, mine)
        assert not cKDTree(mine).query_pairs(DEDUP_TOLERANCE)
        t0 = time.perf_counter()
        lines = torusvar.quantization._axis_values(weights, limit)[:, None]
        assert time.perf_counter() - t0 < 1.0
        assert len(lines) > len(mine) and covers(lines, mine)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(WEIGHTS, max_size=3),
           st.tuples(st.floats(0.0, 40 * np.pi), st.floats(0.0, 40 * np.pi)),
           st.floats(0.0, 8 * np.pi), st.sampled_from(("free", "point", "line", "midway")))
    # the padding let a shift row in whose point lies right of the window but whose
    # other coordinate joins the witness's class: its printed value moved by one digit
    @example([(1.6437072449866656, 2.3309964631706124), (2.8046875, 1.2383423939959415)],
             (76.0, 119.0), 3.0, "midway")
    def test_membership_does_not_depend_on_the_padding(self, weights, rho, extra, snap):
        # the query sits anywhere, on a listed point or line, or midway between two
        # lines of lambda1 and as far from a line of lambda2 (a three-way tie)
        # the product bounds every growth step's rows, so no listing is refused
        assume(np.prod([len(local_lambda(*w).points) + 1 for w in weights]) <= SHIFT_ROW_LIMIT)
        singular = marked(weights)
        near = global_lambda(singular, rho)
        r1, r2 = rho
        if snap == "point" and len(near.lambda0):
            r1, r2 = near.lambda0[np.argmin(np.hypot(r1 - near.lambda0[:, 0],
                                                     r2 - near.lambda0[:, 1]))]
        elif snap == "line":
            r1 = near.lambda1[np.argmin(np.abs(r1 - near.lambda1))]
        elif snap == "midway":
            k = np.clip(np.searchsorted(near.lambda1, r1), 1, len(near.lambda1) - 1)
            half = (near.lambda1[k] - near.lambda1[k - 1]) / 2
            r1 = near.lambda1[k - 1] + half
            r2 = near.lambda2[np.argmin(np.abs(r2 - near.lambda2))] + half
        query = RhoPair(float(r1), float(r2))
        report = global_membership(query, singular, 1e-6)
        wider = global_lambda(singular, (query.rho1 + extra, query.rho2 + extra))
        distance, witness = nearest_element(wider, query)
        assert (report.nearest_distance, report.witness, report.inside) == (
            distance, witness, distance <= 1e-6)

    def test_a_run_of_close_values_splits_at_the_tolerance(self):
        values = np.array([1.8e-9, 0.0, 0.6e-9, 1.2e-9, 5.0])
        lowest, codes = torusvar.quantization._classes(values)
        assert lowest.tolist() == [0.0, 1.2e-9, 5.0]
        assert codes.tolist() == [1, 0, 0, 1, 2]

    def test_lists_no_point_twice(self):
        # the rounding dedup listed 8,417 points here, two pairs of them 1e-12 apart
        gs = global_lambda(marked([(0.5, 2.0)] * 2), (32 * np.pi, 32 * np.pi))
        assert not cKDTree(gs.lambda0).query_pairs(DEDUP_TOLERANCE, p=np.inf)

    def test_membership_far_out_stays_fast(self):
        # enumerating all of [0, rho + 4 pi]^2 took 14-16 s here on a 2-core Xeon VM
        singular = marked([(0.5, 2.0)] * 3)
        t0 = time.perf_counter()
        report = global_membership(RhoPair(100 * np.pi - 1, 100 * np.pi - 2), singular, 1e-9)
        assert time.perf_counter() - t0 < 2.0
        assert report.nearest_distance == pytest.approx(0.03497213320156818, abs=1e-12)
        assert report.witness == ("lambda0-point", (313.193371915247, 312.151532770782))

    def test_runaway_shift_growth_is_refused_before_allocating(self):
        # the last growth step here would hold 16.1 M rows (5.6 s and about 600 MiB);
        # a child process starts with no cached shift table
        probe = ("import time, numpy as np\n"
                 "from torusvar.functionals import RhoPair\n"
                 "from torusvar.geometry import FlatTorus, SingularData\n"
                 "from torusvar.quantization import global_membership\n"
                 "s = SingularData.of([(0.05 + 0.1 * i, 0.3) for i in range(5)],\n"
                 "                    [0.5] * 5, [2.0] * 5, FlatTorus(32))\n"
                 "t0 = time.perf_counter()\n"
                 "try:\n"
                 "    global_membership(RhoPair(60 * np.pi, 60 * np.pi), s, 1e-9)\n"
                 "except ValueError as exc:\n"
                 "    print(time.perf_counter() - t0, exc)\n")
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True, timeout=120)
        seconds, message = out.stdout.split(" ", 1)
        assert float(seconds) < 0.1
        assert message.strip().endswith(f"shift rows exceed {SHIFT_ROW_LIMIT}")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(WEIGHTS, max_size=2),
           st.tuples(st.floats(0.0, 20 * np.pi), st.floats(0.0, 20 * np.pi)),
           st.floats(0.0, np.pi))
    def test_continuation_box_matches_a_filter_over_the_padded_set(self, weights, rho, nu):
        singular = marked(weights)
        center = RhoPair(*rho)
        try:
            check_continuation_box("toda", center, nu, singular)
            message = None
        except ValueError as exc:
            message = str(exc)
        assert message == filtered_box_message(center, nu, singular)

    def test_membership_ties_go_to_the_first_line(self):
        # equidistant from the lines rho1 = 4 pi and rho2 = 4 pi and from no point nearer
        report = global_membership(RhoPair(4 * np.pi + 0.5, 4 * np.pi + 0.5),
                                   SingularData.empty(), 1e-6)
        assert report.witness == ("lambda1-line", (round(4 * np.pi, 12),))


def reference_window(singular, low, high):
    """Reference copy of the window as it was before the classes were cached with the
    shift table: per coordinate, lattice values of the shifts reaching the window,
    inside mask, classes."""
    q = torusvar.quantization
    table = q._shift_table(tuple(zip(singular.alpha1, singular.alpha2)), q._top(high))
    shifts = table[np.all(2.0 * np.pi * table <= high, axis=1)]
    for k in (0, 1):
        values, inside = q._lattice(shifts[:, k], low[k], high[k])
        codes = np.zeros(values.shape, dtype=np.intp)
        lowest, codes[inside] = q._classes(values[inside])
        yield values, inside, lowest, codes


def reference_points(xs, ys, pairs):
    """Reference copy of the point listing keyed by the window's own class codes."""
    order = np.argsort(pairs, kind="stable")
    keyed = pairs[order]
    starts = np.flatnonzero(keyed != np.concatenate(([-1], keyed[:-1])))
    lowest = np.minimum.reduceat(np.column_stack((xs, ys))[order], starts)
    distinct = np.unique(lowest)
    return torusvar.quantization._printed(distinct)[np.searchsorted(distinct, lowest)]


def reference_listing(singular, low, high):
    """Reference: the Toda points that `forbidden_window` lists in [low, high]."""
    (xs, x_in, _, cx), (ys, y_in, y, cy) = reference_window(singular, low, high)
    which, i, j = np.nonzero(x_in[:, :, None] & y_in[:, None, :])
    return reference_points(xs[which, i], ys[which, j], cx[which, i] * len(y) + cy[which, j])


def reference_membership(rho, singular):
    """Reference: the Toda membership distance and witness, from the points near rho in
    its 4 pi window and every line up to the window's top."""
    q = torusvar.quantization
    low = (rho.rho1 - 4.0 * np.pi, rho.rho2 - 4.0 * np.pi)
    high = (rho.rho1 + 4.0 * np.pi, rho.rho2 + 4.0 * np.pi)
    (xs, x_in, _, cx), (ys, y_in, y, cy) = reference_window(singular, low, high)
    dx = np.where(x_in, np.abs(rho.rho1 - xs), np.inf)
    dy = np.where(y_in, np.abs(rho.rho2 - ys), np.inf)
    nearest = np.hypot(dx.min(axis=1), dy.min(axis=1))
    reach = nearest.min() + q.MEMBERSHIP_SLACK
    rows = np.flatnonzero(nearest <= reach)
    which, i, j = np.nonzero(np.hypot(dx[rows, :, None], dy[rows, None, :]) <= reach)
    which = rows[which]
    points = reference_points(xs[which, i], ys[which, j], cx[which, i] * len(y) + cy[which, j])
    lines = (q._axis_values(a, top) for a, top in zip((singular.alpha1, singular.alpha2),
                                                        q._top(high)))
    return nearest_element(q.GlobalSet(points, *lines), rho)


def unclean(shift_classes):
    """`_shift_classes` with every table read as not clean."""
    def classes(weights, top):
        return tuple((lowest, False) for lowest, _ in shift_classes(weights, top))
    return classes


class TestCachedClasses:
    @pytest.mark.parametrize("forced_unclean", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(st.lists(WEIGHTS, max_size=3),
           st.tuples(st.floats(-8 * np.pi, 40 * np.pi), st.floats(-8 * np.pi, 40 * np.pi)),
           st.tuples(st.floats(0.0, 16 * np.pi), st.floats(0.0, 16 * np.pi)),
           st.tuples(st.floats(0.0, 40 * np.pi), st.floats(0.0, 40 * np.pi)))
    def test_windows_and_queries_match_the_window_classed_on_its_own(
            self, forced_unclean, weights, low, width, rho):
        # the product bounds every growth step's rows, so no listing is refused
        assume(np.prod([len(local_lambda(*w).points) + 1 for w in weights]) <= REFERENCE_BUDGET)
        singular, query = marked(weights), RhoPair(*rho)
        high = (low[0] + width[0], low[1] + width[1])
        q = torusvar.quantization
        classes = unclean(q._shift_classes) if forced_unclean else q._shift_classes
        with mock.patch.object(q, "_shift_classes", classes):
            listed = forbidden_window("toda", singular, low, high).lambda0
            report = global_membership(query, singular, 1e-6)
        expected = reference_listing(singular, low, high)
        assert listed.shape == expected.shape and listed.tobytes() == expected.tobytes()
        distance, witness = reference_membership(query, singular)
        assert (report.nearest_distance, report.witness, report.inside) == (
            distance, witness, distance <= 1e-6)

    def test_a_run_wider_than_the_tolerance_reads_unclean(self):
        # the run of test_a_run_of_close_values_splits_at_the_tolerance spans 1.8e-9
        lowest, clean = torusvar.quantization._clean_classes(
            np.array([1.8e-9, 0.0, 0.6e-9, 1.2e-9, 5.0]))
        assert lowest.tolist() == [0.0, 1.2e-9, 5.0] and not clean
        lowest, clean = torusvar.quantization._clean_classes(np.array([2.0, 0.0, 2.0, 0.0]))
        assert lowest.tolist() == [0.0, 2.0] and clean
        assert torusvar.quantization._clean_classes(np.array([0.0, 0.6e-9, 5.0]))[1]

    def test_a_window_cutting_an_unclean_run_is_classed_on_its_own(self):
        # three weights 2 d apart put lattice values 6 pi, 6 pi + 0.6e-9 and 6 pi + 1.2e-9
        # in one run: the table splits it after the second value, while a window that
        # starts past the first holds the other two in one class
        d = 0.6e-9 / (4 * np.pi)
        weights = [(0.5, 0.0), (0.5 + d, 0.0), (0.5 + 2 * d, 0.0)]
        low, high = (6 * np.pi + 0.3e-9, 0.0), (6 * np.pi + 1.0, 1.0)
        top = torusvar.quantization._top(high)
        assert not torusvar.quantization._shift_classes(tuple(weights), top)[0][1]
        listed = forbidden_window("toda", marked(weights), low, high).lambda0
        assert len(listed) == 1
        assert listed.tolist() == reference_listing(marked(weights), low, high).tolist()

    def test_tops_are_the_least_multiples_of_8_pi_not_below_the_window(self):
        # multiples of 8 pi spelled four ways, and the float above each: the quotient
        # and the product round, so 8 pi ceil(h / 8 pi) lands one ulp below 162 of
        # these and one multiple too high on 600
        j = np.arange(1, 2001)
        eight_pi = 8.0 * np.pi
        highs = np.concatenate((8.0 * np.pi * j, j * 8.0 * np.pi, 4.0 * np.pi * (2 * j),
                                2.0 * np.pi * (4 * j), np.nextafter(8.0 * np.pi * j, np.inf)))
        assert len(highs) == 10_000
        for h in highs:
            (top,) = torusvar.quantization._top((h,))
            m = round(top / eight_pi)
            assert top == eight_pi * m and top >= h
            assert eight_pi * (m - 1) < h

    def test_cached_classes_are_read_only_and_clean_for_the_benchmark_weights(self):
        weights = ((0.5, 2.0),) * 2
        top = torusvar.quantization._top((36 * np.pi, 36 * np.pi))
        for lowest, clean in torusvar.quantization._shift_classes(weights, top):
            assert clean and not lowest.flags.writeable
            with pytest.raises(ValueError):
                lowest[0] = 1.0


def nearest_scalar_line(value):
    """Reference copy of the retired scalar rule: the positive multiple n of
    8 pi nearest to value, as (n, |value - 8 pi n|)."""
    n = max(1, int(round(value / (8.0 * np.pi))))
    return n, abs(value - n * 8.0 * np.pi)


def scalar_forbidden(rho, tol):
    """Reference copy of the retired scalar gate: either coordinate within tol
    of a positive multiple of 8 pi."""
    return any(nearest_scalar_line(value)[1] <= tol for value in (rho.rho1, rho.rho2))


def scalar_box_message(center, nu):
    """Reference copy of the retired mean-field continuation rule (the 8 pi
    line nearest each coordinate, first coordinate first), in the wording the
    common check uses for a crossed line."""
    for line, value in (("vertical line rho1", center.rho1),
                        ("horizontal line rho2", center.rho2)):
        n, gap = nearest_scalar_line(value)
        if gap <= 2.0 * nu:
            return f"continuation box crosses the {line} = {n * 8.0 * np.pi:.6f}"
    return None


def meanfield_lines(alpha1, top):
    """Reference: the mean-field lines 8 pi (n + sum_{j in J} (1 + alpha1_j)), n >= 0
    and J any subset of the marked points, by brute force over the subsets; sorted,
    up to top, without 0."""
    values = set()
    for size in range(len(alpha1) + 1):
        for subset in itertools.combinations(alpha1, size):
            offset = sum(1.0 + a for a in subset)
            values.update(8.0 * np.pi * (n + offset) for n in range(int(top / (8.0 * np.pi)) + 1))
    return sorted(v for v in values if 0.0 < v <= top)


class TestScalarTables:
    def test_forbidden_multiples_of_eight_pi(self):
        empty = SingularData.empty()
        assert global_membership(RhoPair(8 * np.pi, 1.0), empty, 1e-9, "meanfield").inside
        assert global_membership(RhoPair(1.0, 16 * np.pi + 1e-10), empty, 1e-9,
                                 "meanfield").inside
        assert not global_membership(RhoPair(4 * np.pi, 4 * np.pi), empty, 1e-6,
                                     "meanfield").inside

    def test_zero_is_not_forbidden(self):
        # the excluded values start at 8 pi; the origin is fine, 8 pi away from them
        report = global_membership(RhoPair(0.0, 0.0), SingularData.empty(), 1e-6, "meanfield")
        assert not report.inside
        assert report.nearest_distance == pytest.approx(8 * np.pi, abs=1e-9)
        assert report.witness == ("lambda1-line", (round(8 * np.pi, 12),))

    def test_blowup_value_formula(self):
        # 8 pi (1 + alpha) at a marked point, next to every pair of 8 pi n, n = 1..5;
        # a value already listed adds nothing, so weight 0 gives the regular table
        torus = FlatTorus(32)
        regular = set(blowup_candidates(SingularData.empty(), None, "meanfield"))
        assert regular == {(8 * np.pi * a, 8 * np.pi * b)
                           for a in range(1, 6) for b in range(1, 6)}
        for alpha in (0.0, 1.0, 4.0):
            s = SingularData.of([(0.5, 0.5)], [alpha], [0.0], torus)
            assert set(blowup_candidates(s, 0, "meanfield")) == regular
        s = SingularData.of([(0.5, 0.5)], [1.5], [0.0], torus)
        table = set(blowup_candidates(s, 0, "meanfield"))
        assert len(table) == 36 and regular < table
        assert any(c == pytest.approx((20 * np.pi, 20 * np.pi)) for c in table)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            global_membership(RhoPair(1.0, 1.0), SingularData.empty(), 0.0, "meanfield")

    def test_unknown_problem_is_refused(self):
        for query in (lambda: forbidden_window("sinh", SingularData.empty(), (0, 0), (1, 1)),
                      lambda: blowup_candidates(SingularData.empty(), None, "sinh")):
            with pytest.raises(ValueError, match="unknown problem 'sinh'"):
                query()

    def test_window_lists_the_lines_as_printed(self):
        gs = forbidden_window("meanfield", SingularData.empty(), (20.0, -5.0), (60.0, 30.0))
        assert gs.lambda0.shape == (0, 2)
        assert gs.lambda1.tolist() == [round(8 * np.pi, 12), round(16 * np.pi, 12)]
        assert gs.lambda2.tolist() == [round(8 * np.pi, 12)]

    def test_marked_points_move_the_lines(self):
        # a single bubble of mass 8 pi (1 + alpha1) = 12 pi can form at the point,
        # and that mass sits in its blow-up table
        s = SingularData.of([(0.2, 0.3)], [0.5], [0.5], FlatTorus(32))
        gs = global_lambda(s, (60.0, 60.0), "meanfield")
        assert gs.lambda1.tolist() == gs.lambda2.tolist() == [
            round(8 * np.pi * n, 12) for n in (1.0, 1.5, 2.0, 2.5)]
        assert (12 * np.pi, 12 * np.pi) in blowup_candidates(s, 0, "meanfield")
        with pytest.raises(ValueError, match="vertical line rho1 = 37.699112"):
            check_continuation_box("meanfield", RhoPair(12 * np.pi + 0.1, 2 * np.pi), 0.1, s)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(WEIGHTS, max_size=2),
           st.tuples(st.floats(0.0, 60 * np.pi), st.floats(0.0, 60 * np.pi)),
           st.floats(1e-9, 8 * np.pi), st.floats(0.0, np.pi))
    def test_matches_the_retired_scalar_rules(self, weights, rho, tol, nu):
        singular, center = marked(weights), RhoPair(*rho)
        report = global_membership(center, singular, tol, "meanfield")
        try:
            check_continuation_box("meanfield", center, nu, singular)
            message = None
        except ValueError as exc:
            message = str(exc)
        if not weights:
            # The common checks read the listed line values, 8 pi n rounded to 12
            # digits as for Toda, while the retired rules read 8 pi n itself: the
            # two may differ only where a gap is within round-off of tol, or, since
            # the box check reaches ROUND_OFF past 2 nu, within twice that above 2 nu.
            gaps = [nearest_scalar_line(v)[1] for v in rho]
            assume(all(abs(gap - tol) > ROUND_OFF and not 0 < gap - 2 * nu <= 2 * ROUND_OFF
                       for gap in gaps))
            assert report.inside == scalar_forbidden(center, tol)
            assert report.nearest_distance == pytest.approx(min(gaps), abs=1e-9)
            assert message == scalar_box_message(center, nu)
            return
        # Marked points add lines, held to the subset-sum oracle.  Listed lines are
        # merged within DEDUP_TOLERANCE, so gaps may differ by up to that much.
        lines = meanfield_lines(singular.alpha1, max(rho) + 16 * np.pi)
        gaps = [np.abs(v - np.array(lines)) for v in rho]
        margin = 2 * DEDUP_TOLERANCE
        assume(all(abs(g.min() - tol) > margin and np.all(np.abs(g - 2 * nu) > margin)
                   for g in gaps))
        assert report.inside == (min(g.min() for g in gaps) <= tol)
        assert report.nearest_distance == pytest.approx(min(g.min() for g in gaps), abs=margin)
        expected = None
        for line, g in zip(("vertical line rho1", "horizontal line rho2"), gaps):
            crossed = np.flatnonzero(g <= 2 * nu)
            if crossed.size:
                expected = f"continuation box crosses the {line} = {lines[crossed[0]]:.6f}"
                break
        assert message == expected
