import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvar import joins
from torusvar.functionals import RhoPair, meanfield_energy, normalized_density, toda_energy
from torusvar.geometry import CurveSystem, FlatTorus, Point, subcell_offsets
from torusvar.joins import (
    JoinElement,
    energy_curve,
    homotopy_identity_check,
    kr_scaling_check,
    plateau,
    psi_map,
    rtilde,
    scalar_test_function,
)
from torusvar.joins import _log_bubble_sum
from torusvar.joins import test_function as peak_pair
from torusvar.measures import BarycenterMeasure, DiscreteMeasure, distance_to_barycenters

CURVES = CurveSystem(0.25, 0.75)


def join_at(torus: FlatTorus, r: float, k: int = 1, l: int = 1) -> JoinElement:
    s1 = BarycenterMeasure.of([1.0 / k] * k,
                              [torus.snap(Point((i + 0.5) / k, 0.25)) for i in range(k)],
                              capacity=k)
    s2 = BarycenterMeasure.of([1.0 / l] * l,
                              [torus.snap(Point((j + 0.5) / l, 0.75)) for j in range(l)],
                              capacity=l)
    return JoinElement(s1, s2, r)


def hypot_bubble_sum(torus: FlatTorus, sigma: BarycenterMeasure, scale: float,
                     subsamples: int) -> np.ndarray:
    """Cell-averaged log sum_i t_i (1 + scale^2 d^2)^(-2), with d from np.hypot
    of rounded minimum-image displacements, then squared."""
    x1, x2 = torus.axes()
    acc = np.zeros((torus.n, torus.n))
    for o1, o2 in subcell_offsets(torus, subsamples):
        mix = np.zeros((torus.n, torus.n))
        for t, p in sigma.atoms:
            d1 = x1 + o1 - p.x1
            d2 = x2 + o2 - p.x2
            d1 -= torus.L1 * np.round(d1 / torus.L1)
            d2 -= torus.L2 * np.round(d2 / torus.L2)
            d = np.hypot(d1[:, None], d2[None, :])
            mix += t / (1.0 + scale**2 * d**2) ** 2
        acc += np.log(mix)
    return acc / subsamples**2


def per_offset_bubble_sum(torus: FlatTorus, sigma: BarycenterMeasure, scale: float,
                          subsamples: int) -> np.ndarray:
    """Reference: the bubble sum with one squared distance field per atom and
    sub-cell offset, in the package's order of operations."""
    acc = np.zeros((torus.n, torus.n))
    for offset in subcell_offsets(torus, subsamples):
        mix = np.zeros((torus.n, torus.n))
        for t, p in sigma.atoms:
            mix += t / (1.0 + scale**2 * torus.squared_distance_field(p, offset)) ** 2
        acc += np.log(mix)
    return acc / subsamples**2


def assert_round_off(actual: np.ndarray, expected: np.ndarray) -> None:
    """Agreement up to 64 rounding errors of the larger of 1 and the largest magnitude."""
    bound = 64 * np.finfo(float).eps * max(1.0, np.abs(expected).max())
    assert np.abs(actual - expected).max() <= bound


class TestJoinElement:
    def test_rejects_out_of_range_coordinate(self, torus32):
        with pytest.raises(ValueError):
            join_at(torus32, 1.5)

    @pytest.mark.parametrize("r", (0.0, 1.0))
    def test_endpoint_identification_ignores_the_dead_slot(self, torus32, r):
        a = join_at(torus32, r)
        other1 = BarycenterMeasure.single(Point(0.9, 0.25))
        other2 = BarycenterMeasure.single(Point(0.9, 0.75))
        # r = 0 forgets sigma2, r = 1 forgets sigma1
        dead, live = ((JoinElement(a.sigma1, other2, r), JoinElement(other1, a.sigma2, r))
                      if r == 0.0 else
                      (JoinElement(other1, a.sigma2, r), JoinElement(a.sigma1, other2, r)))
        assert a == dead
        assert hash(a) == hash(dead)
        assert a != live

    def test_interior_elements_compare_both_slots(self, torus32):
        a = join_at(torus32, 0.5)
        assert a != JoinElement(a.sigma1, BarycenterMeasure.single(Point(0.9, 0.75)), 0.5)
        assert a != JoinElement(BarycenterMeasure.single(Point(0.9, 0.25)), a.sigma2, 0.5)
        assert a != JoinElement(a.sigma1, a.sigma2, 0.25)
        same = JoinElement(a.sigma1, a.sigma2, 0.5)
        assert a == same
        assert hash(a) == hash(same)

    def test_scales_split_the_concentration_parameter(self, torus32):
        zeta = join_at(torus32, 0.25)
        assert zeta.scales(100.0) == (75.0, 25.0)


class TestTestFunction:
    def test_rejects_nonpositive_concentration(self, torus32):
        with pytest.raises(ValueError):
            peak_pair(torus32, join_at(torus32, 0.5), 0.0)

    @pytest.mark.parametrize("torus", (FlatTorus(64), FlatTorus(32, 2.0, 0.5)),
                             ids=("square", "2x0.5"))
    @pytest.mark.parametrize("lam", (30.0, 1000.0))
    def test_matches_the_hypot_bubble_sum(self, torus, lam):
        zeta = join_at(torus, 0.3, k=2, l=2)
        s1, s2 = zeta.scales(lam)
        v1 = hypot_bubble_sum(torus, zeta.sigma1, s1, 8)
        v2 = hypot_bubble_sum(torus, zeta.sigma2, s2, 8)
        for actual, expected in zip(peak_pair(torus, zeta, lam), (v1 - 0.5 * v2, -0.5 * v1 + v2)):
            assert np.abs(actual.values - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("torus", (FlatTorus(32, 2.0, 0.5),
                                       FlatTorus(40, np.sqrt(2.0), 1.0 / np.sqrt(2.0))),
                             ids=("2x0.5", "irrational"))
    @pytest.mark.parametrize("subsamples", (1, 3, 8))
    def test_rows_give_the_per_offset_sum_to_round_off(self, torus, subsamples):
        rng = np.random.default_rng(5)
        points = [torus.point(a1 * torus.L1, a2 * torus.L2) for a1, a2 in rng.uniform(size=(3, 2))]
        sigma = BarycenterMeasure.of([0.5, 0.3, 0.2], points)
        for scale in (3.7, 120.0, 2500.0):
            assert_round_off(_log_bubble_sum(torus, sigma, scale, subsamples),
                             per_offset_bubble_sum(torus, sigma, scale, subsamples))

    @pytest.mark.parametrize("weights", ((1.0,), (0.6, 0.4), (0.5, 0.3, 0.2), (1e-200, 1.0)),
                             ids=("k=1", "k=2", "k=3", "weight-1e-200"))
    @pytest.mark.parametrize("scale", (1e-3, 1e6, 1e12))
    def test_extreme_scales_and_weights_stay_at_round_off(self, weights, scale):
        # a weight of 1e-200 widens the bound on |log mix| past the grouping
        # span, so every offset takes its own logarithm
        torus = FlatTorus(16, 2.0, 0.5)
        rng = np.random.default_rng(7)
        points = [torus.point(a1 * torus.L1, a2 * torus.L2) for a1, a2 in rng.uniform(size=(3, 2))]
        sigma = BarycenterMeasure.of(weights, points[:len(weights)])
        for subsamples in (1, 8):
            with np.errstate(all="raise"):  # the reference raises no floating-point error here
                expected = per_offset_bubble_sum(torus, sigma, scale, subsamples)
                actual = _log_bubble_sum(torus, sigma, scale, subsamples)
            assert np.all(np.isfinite(actual))
            assert_round_off(actual, expected)

    def test_memory_does_not_grow_with_the_subsample_count(self, torus64):
        # k column tiles and four n x n arrays, plus headers and the k x m
        # per-atom rows, stay below k + 5 arrays; an (m, n, n) stack would not
        sigma = join_at(torus64, 0.5, k=2).sigma1
        _log_bubble_sum(torus64, sigma, 1000.0, 8)  # fills the shared row cache
        tracemalloc.start()
        try:
            _log_bubble_sum(torus64, sigma, 1000.0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (len(sigma.atoms) + 5) * 64 * 64 * 8

    def test_zero_scale_gives_an_exact_zero(self, torus64):
        sigma = join_at(torus64, 0.5, k=2).sigma1
        assert np.array_equal(_log_bubble_sum(torus64, sigma, 0.0, 8), np.zeros((64, 64)))

    def test_degenerate_endpoint_is_exactly_one_sided(self, torus64):
        # at r = 0 the second profile vanishes identically, so the pair is
        # (v, -v/2) for the single remaining bubble sum v -- bit for bit
        zeta = join_at(torus64, 0.0)
        phi1, phi2 = peak_pair(torus64, zeta, 100.0)
        assert np.array_equal(phi2.values, -0.5 * phi1.values)

    def test_components_mix_the_two_bubble_sums(self, torus64):
        # the pair is (v1 - v2/2, -v1/2 + v2): eliminating either sum from the
        # mix must leave a profile peaking at the other family's atom
        zeta = join_at(torus64, 0.5)
        phi1, phi2 = peak_pair(torus64, zeta, 50.0)
        v1 = (2.0 * phi1.values + phi2.values) * (2.0 / 3.0)
        v2 = (phi1.values + 2.0 * phi2.values) * (2.0 / 3.0)
        peak1 = np.unravel_index(np.argmax(v1), v1.shape)
        peak2 = np.unravel_index(np.argmax(v2), v2.shape)
        atom1 = torus64.nearest_node(zeta.sigma1.atoms[0][1])
        atom2 = torus64.nearest_node(zeta.sigma2.atoms[0][1])
        assert peak1 == atom1
        assert peak2 == atom2

    def test_component_symmetry_under_join_reflection(self, torus64):
        # swapping the two families and r -> 1-r swaps the components, up to
        # the vertical reflection that exchanges the two circles
        zeta = join_at(torus64, 0.25)
        mirrored = JoinElement(zeta.sigma2, zeta.sigma1, 0.75)
        a1, a2 = peak_pair(torus64, zeta, 80.0)
        b1, b2 = peak_pair(torus64, mirrored, 80.0)
        assert np.allclose(a1.values, b2.values, atol=1e-12)
        assert np.allclose(a2.values, b1.values, atol=1e-12)

    def test_scalar_profile_is_the_difference(self, torus64):
        zeta = join_at(torus64, 0.5)
        phi = scalar_test_function(torus64, zeta, 50.0)
        assert abs(phi.values.mean()) < 1e-12


class TestEnergyCurves:
    def test_lambda_grid_must_span_two_decades(self, torus32, aniso_weights):
        h1, h2 = aniso_weights
        with pytest.raises(ValueError):
            energy_curve("toda", FlatTorus(64), join_at(FlatTorus(64), 0.5),
                         RhoPair(1.0, 1.0), [10.0, 20.0, 40.0, 80.0], (h1, h2))

    def test_two_component_slope_tracks_the_prediction(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        rho = RhoPair(5 * np.pi, 5 * np.pi)
        lambdas = np.geomspace(10.0, 1000.0, 7)
        curve = energy_curve("toda", torus64, join_at(torus64, 0.5), rho, lambdas, (h1, h2),
                             subsamples=4)
        predicted = 2 * (8 * np.pi - 2 * 5 * np.pi)  # both families active at r = 1/2
        assert curve.slope == pytest.approx(predicted, rel=0.25)

    def test_scalar_slope_tracks_the_prediction(self, torus64):
        # the window stays below the grid's concentration capacity (lambda ~ n)
        h = torus64.constant_field(1.0)
        rho = RhoPair(9 * np.pi, np.pi)
        lambdas = np.geomspace(2.0, 200.0, 7)
        curve = energy_curve("meanfield", torus64, join_at(torus64, 0.0), rho, lambdas, h,
                             subsamples=4)
        predicted = 16 * np.pi - 2 * rho.rho1
        assert curve.slope == pytest.approx(predicted, rel=0.3)

    def test_fit_mask_covers_the_top_decade(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        lambdas = np.geomspace(10.0, 1000.0, 7)
        curve = energy_curve("toda", torus64, join_at(torus64, 0.5), RhoPair(1.0, 1.0),
                             lambdas, (h1, h2), subsamples=2)
        assert np.array_equal(curve.fit_mask, lambdas >= 100.0)
        assert len(list(curve.rows())) == 7

    @pytest.mark.parametrize("problem", ("toda", "meanfield"))
    def test_each_value_is_the_energy_of_its_peaks_bit_for_bit(self, torus32, aniso_on,
                                                                 problem):
        h1, h2 = aniso_on(torus32)  # two distinct weights: a swapped or shared one shows
        rho = RhoPair(3.0, 7.0)
        zeta = join_at(torus32, 0.3)
        lambdas = np.geomspace(5.0, 500.0, 5)
        if problem == "toda":
            curve = energy_curve(problem, torus32, zeta, rho, lambdas, (h1, h2), subsamples=2)
            direct = [toda_energy(*peak_pair(torus32, zeta, lam, 2), h1, h2, rho).total
                      for lam in lambdas]
        else:
            curve = energy_curve(problem, torus32, zeta, rho, lambdas, h1, subsamples=2)
            direct = [meanfield_energy(scalar_test_function(torus32, zeta, lam, 2), h1,
                                       rho).total for lam in lambdas]
        assert curve.values.tolist() == direct
        mask = lambdas >= lambdas[-1] / 10.0
        assert curve.slope == float(np.polyfit(np.log(lambdas[mask]), curve.values[mask], 1)[0])

    def test_unknown_problem_is_refused(self, torus32):
        h = torus32.constant_field(1.0)
        with pytest.raises(ValueError, match="unknown problem 'scalar'"):
            energy_curve("scalar", torus32, join_at(torus32, 0.5), RhoPair(1.0, 1.0),
                         np.geomspace(10.0, 1000.0, 4), h)


class TestRamp:
    def test_plateau_values(self):
        assert plateau(0.0) == 0.0
        assert plateau(0.25) == 0.0
        assert plateau(0.5) == pytest.approx(0.5)
        assert plateau(0.75) == 1.0
        assert plateau(1.0) == 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_rtilde_lies_in_unit_interval(self, d1, d2):
        if d1 + d2 == 0:
            return
        value = rtilde(d1, d2)
        assert 0.0 <= value <= 1.0

    def test_rtilde_endpoint_behavior(self):
        assert rtilde(0.0, 1.0) == 0.0   # first component recovered exactly
        assert rtilde(1.0, 0.0) == 1.0
        assert rtilde(0.3, 0.3) == pytest.approx(0.5)

    def test_rtilde_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            rtilde(0.0, 0.0)
        with pytest.raises(ValueError):
            rtilde(-0.1, 0.5)


class TestProjection:
    def test_round_trip_recovers_join_data(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        zeta = join_at(torus64, 0.5)
        report = homotopy_identity_check(torus64, zeta, 300.0, h1, h2, CURVES,
                                         subsamples=4)
        assert report.atom_displacement_1 <= 3 * torus64.max_spacing
        assert report.atom_displacement_2 <= 3 * torus64.max_spacing
        assert report.r_deviation <= 0.05

    def test_endpoint_regime_is_exact(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        report = homotopy_identity_check(torus64, join_at(torus64, 0.0), 300.0,
                                         h1, h2, CURVES, subsamples=4)
        assert report.r_deviation == 0.0
        assert report.atom_displacement_1 <= 3 * torus64.max_spacing

    def test_admission_requires_one_concentrated_component(self, torus64):
        h = torus64.constant_field(1.0)
        flat = torus64.constant_field(0.0)
        with pytest.raises(ValueError, match="projection undefined"):
            psi_map(flat, flat, h, h, 1, 1, CURVES)


class TestKrScalingCheck:
    def test_slope_is_near_inverse_scale(self, torus64):
        h = torus64.constant_field(1.0)
        [curve] = kr_scaling_check(torus64, join_at(torus64, 0.5),
                                   np.geomspace(10.0, 1000.0, 5), (1,), h, h,
                                   subsamples=4)
        assert curve.slope == pytest.approx(-1.0, abs=0.3)

    def test_two_atom_slopes_are_inverse_scale(self):
        # k = l = 2 at n=128: the distances are the exact k-median costs
        torus = FlatTorus(128)
        h = torus.constant_field(1.0)
        zeta = join_at(torus, 0.5, 2, 2)
        for curve in kr_scaling_check(torus, zeta, np.geomspace(10.0, 1000.0, 5),
                                      (1, 2), h, h):
            assert curve.slope == pytest.approx(-1.0, abs=0.15)

    def test_rejects_bad_component(self, torus64):
        h = torus64.constant_field(1.0)
        with pytest.raises(ValueError):
            kr_scaling_check(torus64, join_at(torus64, 0.5),
                             np.geomspace(10.0, 1000.0, 5), (3,), h, h)

    def test_degenerate_component_falls_back_to_a_flat_fit(self, torus64):
        # at r = 0 the second density never concentrates; its distance curve is
        # scale-free, so the fallback fit against log lambda sits near zero
        h = torus64.constant_field(1.0)
        [curve] = kr_scaling_check(torus64, join_at(torus64, 0.0),
                                   np.geomspace(10.0, 1000.0, 5), (2,), h, h,
                                   subsamples=2)
        assert abs(curve.slope) < 0.2

    def test_distances_are_those_of_one_peak_pair_per_lambda(self, torus32, monkeypatch):
        h1 = torus32.field(1.0 + 0.3 * np.sin(2 * np.pi * torus32.grids()[0]))
        h2 = torus32.constant_field(1.0)
        zeta = join_at(torus32, 0.4, 2, 1)
        lambdas = np.geomspace(10.0, 1000.0, 4)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return peak_pair(*args, **kwargs)

        monkeypatch.setattr(joins, "test_function", counted)
        curves = kr_scaling_check(torus32, zeta, lambdas, (1, 2), h1, h2, subsamples=2)
        assert calls == list(lambdas)
        for lam, d1, d2 in zip(lambdas, curves[0].values, curves[1].values):
            phi1, phi2 = peak_pair(torus32, zeta, lam, 2)
            for phi, h, capacity, d in ((phi1, h1, 2, d1), (phi2, h2, 1, d2)):
                f = DiscreteMeasure.from_field(normalized_density(phi, h))
                assert d == distance_to_barycenters(f, capacity)[0]

    def test_bad_component_is_refused_before_any_synthesis(self, torus32, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesized a peak pair")

        monkeypatch.setattr(joins, "test_function", refuse)
        h = torus32.constant_field(1.0)
        with pytest.raises(ValueError, match="component must be 1 or 2, got 3"):
            kr_scaling_check(torus32, join_at(torus32, 0.5),
                             np.geomspace(10.0, 1000.0, 4), (1, 3), h, h)

    def test_a_repeated_component_repeats_its_curve(self, torus32):
        h = torus32.constant_field(1.0)
        zeta = join_at(torus32, 0.5)
        lambdas = np.geomspace(10.0, 1000.0, 4)
        [single] = kr_scaling_check(torus32, zeta, lambdas, (1,), h, h, subsamples=2)
        for curve in kr_scaling_check(torus32, zeta, lambdas, (1, 1), h, h, subsamples=2):
            assert np.array_equal(curve.values, single.values)
            assert curve.slope == single.slope