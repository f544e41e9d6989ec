import itertools
import time

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusvar.functionals import RhoPair
from torusvar.geometry import FlatTorus, Point, SingularData
import torusvar.quantization
from torusvar.quantization import (
    blowup_candidates,
    gamma_residual,
    global_lambda,
    global_membership,
    local_lambda,
    scalar_blowup_value,
    scalar_forbidden,
)

BASE_SET = {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 4.0), (4.0, 2.0), (4.0, 4.0)}


def exact_local_set(a1, a2, coordinate_bound):
    """Independent oracle: the same closure computed in exact arithmetic.

    Coordinates stay symbolic (rationals and nested radicals) end to end; the
    quadratic formula is applied exactly, with 40-digit evaluation used only to
    order, bound, and deduplicate points.  No floating-point root iteration,
    clamping, or rounding is involved."""
    a1, a2 = sp.Rational(a1), sp.Rational(a2)
    c1, c2 = 2 * (1 + a1), 2 * (1 + a2)
    bound = float(coordinate_bound)

    def num(x):
        return float(sp.sympify(x).evalf(40))

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
        seen = {(round(s1, 9), round(s2, 9)): (s1, s2) for s1, s2 in grown}
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


def marked(weights):
    """SingularData with one marked point per (alpha1, alpha2) pair."""
    return SingularData.of([(0.05 + 0.1 * i, 0.3) for i in range(len(weights))],
                           [a1 for a1, _ in weights], [a2 for _, a2 in weights],
                           FlatTorus(32))


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
        for mine, theirs in ((got.lambda0, ref0), (got.lambda1, ref1), (got.lambda2, ref2)):
            assert len(mine) == len(theirs)
            if theirs:
                assert np.abs(np.array(mine) - np.array(theirs)).max() <= 1e-9

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
        few = unpruned_axis_values(weights[:16], limit)
        assert torusvar.quantization._axis_values(weights[:16], limit) == few
        t0 = time.perf_counter()
        lines = torusvar.quantization._axis_values(weights, limit)
        assert time.perf_counter() - t0 < 1.0
        assert set(few) < set(lines)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(WEIGHTS, max_size=2),
           st.tuples(st.floats(0.0, 20 * np.pi), st.floats(0.0, 20 * np.pi)),
           st.floats(0.0, 8 * np.pi))
    def test_membership_does_not_depend_on_the_padding(self, weights, rho, extra):
        singular = marked(weights)
        query = RhoPair(*rho)
        report = global_membership(query, singular, 1e-6)
        enumerate_in_box = torusvar.quantization.global_lambda
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(torusvar.quantization, "global_lambda",
                          lambda s, box: enumerate_in_box(s, (box[0] + extra, box[1] + extra)))
            wider = global_membership(query, singular, 1e-6)
        assert wider == report

    @pytest.mark.parametrize("digits", [9, 12])
    def test_vector_rounding_matches_python_round(self, digits):
        values = np.random.default_rng(digits).uniform(0.0, 120.0, 20000)
        halfway = (np.floor(values * 10.0**digits) + 0.5) / 10.0**digits
        for v in (values, halfway, np.nextafter(halfway, 0.0), np.nextafter(halfway, 200.0)):
            assert torusvar.quantization._rounded(v, digits).tolist() == \
                [round(x, digits) for x in v.tolist()]

    def test_membership_ties_go_to_the_first_line(self):
        # equidistant from the lines rho1 = 4 pi and rho2 = 4 pi and from no point nearer
        report = global_membership(RhoPair(4 * np.pi + 0.5, 4 * np.pi + 0.5),
                                   SingularData.empty(), 1e-6)
        assert report.witness == ("lambda1-line", (round(4 * np.pi, 12),))


class TestScalarTables:
    def test_forbidden_multiples_of_eight_pi(self):
        assert scalar_forbidden(RhoPair(8 * np.pi, 1.0), 1e-9)
        assert scalar_forbidden(RhoPair(1.0, 16 * np.pi + 1e-10), 1e-9)
        assert not scalar_forbidden(RhoPair(4 * np.pi, 4 * np.pi), 1e-6)

    def test_zero_is_not_forbidden(self):
        # the excluded values start at 8 pi; the origin is fine
        assert not scalar_forbidden(RhoPair(0.0, 0.0), 1e-6)

    def test_blowup_value_formula(self):
        assert scalar_blowup_value(0.0) == pytest.approx(4 * np.pi)
        assert scalar_blowup_value(1.5) == pytest.approx(10 * np.pi)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            scalar_forbidden(RhoPair(1.0, 1.0), 0.0)
