import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvar.geometry import (
    FlatTorus,
    GridField,
    Point,
    SingularData,
    desingularized_weight,
    dirichlet_energy,
    dirichlet_form,
    from_spectrum,
    gradient,
    gradient_arrays,
    greens_function,
    helmholtz_solve,
    integrate,
    laplacian,
    laplacian_array,
    prolong,
    random_smooth_field,
    spectral_inner,
    subcell_offsets,
    to_spectrum,
)
from torusvar.functionals import q_density

TWO_PI = 2.0 * np.pi
DISTANCE_TORI = pytest.mark.parametrize("torus", (FlatTorus(32), FlatTorus(32, 2.0, 0.5)),
                                        ids=("square", "2x0.5"))
# the irrational torus's spacings are not dyadic, so its node coordinates round
NODE_TORI = pytest.mark.parametrize(
    "torus", (FlatTorus(32), FlatTorus(32, 2.0, 0.5),
              FlatTorus(40, np.sqrt(2.0), 1.0 / np.sqrt(2.0)), FlatTorus(128)),
    ids=("square", "2x0.5", "irrational", "n128"))


def trig_field(torus: FlatTorus, k1: int, k2: int) -> GridField:
    x1, x2 = torus.grids()
    return torus.field(np.sin(TWO_PI * k1 * x1 / torus.L1) * np.cos(TWO_PI * k2 * x2 / torus.L2))


class TestFlatTorus:
    def test_rejects_odd_or_tiny_grids(self):
        with pytest.raises(ValueError):
            FlatTorus(15)
        with pytest.raises(ValueError):
            FlatTorus(8)

    def test_rejects_non_unit_area(self):
        with pytest.raises(ValueError):
            FlatTorus(32, 2.0, 1.0)

    def test_anisotropic_periods(self):
        t = FlatTorus(32, 2.0, 0.5)
        assert t.spacing == (2.0 / 32, 0.5 / 32)
        assert t.cell_area == pytest.approx(1.0 / 32**2)

    def test_point_reduction(self):
        t = FlatTorus(32)
        p = t.point(1.25, -0.25)
        assert p == Point(0.25, 0.75)

    @pytest.mark.parametrize("torus", (FlatTorus(32), FlatTorus(40, np.sqrt(2.0), 1.0 / np.sqrt(2.0))),
                             ids=("unit", "irrational"))
    def test_point_keeps_tiny_negative_coordinates_below_the_period(self, torus):
        # float % rounds -1e-20 % L up to L itself; that is the point (0, 0)
        assert torus.point(-1e-20, -1e-30) == Point(0.0, 0.0)
        for x in (-5e-324, -1e-300, -1e-17, -0.25 * np.finfo(float).eps * torus.L1):
            p = torus.point(x, x)
            assert 0.0 <= p.x1 < torus.L1 and 0.0 <= p.x2 < torus.L2
        assert torus.point(-1e-3, -torus.L2) == Point(-1e-3 % torus.L1, 0.0)

    def test_snap_lands_on_node(self, torus32):
        p = torus32.snap(Point(0.49, 0.26))
        i, j = torus32.nearest_node(p)
        assert torus32.node_point(i, j) == p

    def test_distance_of_half_period(self, torus32):
        assert torus32.distance(Point(0.0, 0.0), Point(0.5, 0.5)) == pytest.approx(
            np.sqrt(0.5))

    @given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True),
           st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
    @settings(max_examples=50, deadline=None)
    def test_distance_is_a_metric(self, a1, a2, b1, b2):
        t = FlatTorus(16)
        p, q = Point(a1, a2), Point(b1, b2)
        assert t.distance(p, q) == t.distance(q, p)
        assert t.distance(p, p) == 0.0
        r = Point((a1 + b1) / 2, (a2 + b2) / 2)
        assert t.distance(p, q) <= t.distance(p, r) + t.distance(r, q) + 1e-12

    def test_distance_never_exceeds_half_diagonal(self, torus32):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0, 1, 4).reshape(2, 2)
            d = torus32.distance(Point(*a), Point(*b))
            assert d <= np.sqrt(0.5) + 1e-12

    def test_distance_field_matches_pointwise_distance(self, torus32):
        p = Point(0.3, 0.7)
        field = torus32.distance_field(p)
        for i, j in [(0, 0), (5, 17), (31, 2)]:
            q = torus32.node_point(i, j)
            assert field[i, j] == pytest.approx(torus32.distance(p, q), abs=1e-14)

    @DISTANCE_TORI
    def test_distance_fields_match_a_hypot_reference(self, torus):
        rng = np.random.default_rng(11)
        x1, x2 = torus.axes()
        offsets = [(0.0, 0.0)] + subcell_offsets(torus, 3)
        for a1, a2 in rng.uniform(0.0, 1.0, (6, 2)):
            p = torus.point(a1 * torus.L1, a2 * torus.L2)
            for o1, o2 in offsets:
                # signed minimum image by rounding, not the package's fold
                d1 = x1 + o1 - p.x1
                d2 = x2 + o2 - p.x2
                d1 -= torus.L1 * np.round(d1 / torus.L1)
                d2 -= torus.L2 * np.round(d2 / torus.L2)
                expected = np.hypot(d1[:, None], d2[None, :])
                np.testing.assert_array_max_ulp(torus.distance_field(p, (o1, o2)), expected, 2)
                np.testing.assert_array_max_ulp(torus.squared_distance_field(p, (o1, o2)),
                                                expected**2, 2)
                # the field is the root of the squared field, bit for bit
                assert (torus.distance_field(p, (o1, o2)).tobytes()
                        == np.sqrt(torus.squared_distance_field(p, (o1, o2))).tobytes())

    @DISTANCE_TORI
    def test_distance_field_is_symmetric_between_nodes_bit_for_bit(self, torus):
        rng = np.random.default_rng(12)
        for ia, ja, ib, jb in rng.integers(0, torus.n, (20, 4)):
            a, b = torus.node_point(ia, ja), torus.node_point(ib, jb)
            assert torus.distance_field(a)[ib, jb] == torus.distance_field(b)[ia, ja]

    @DISTANCE_TORI
    def test_pairwise_distance_is_symmetric_and_matches_distance(self, torus):
        rng = np.random.default_rng(13)
        # off-grid points, some outside the fundamental domain
        a = rng.uniform(-1.0, 2.0, (7, 2)) * (torus.L1, torus.L2)
        b = rng.uniform(-1.0, 2.0, (5, 2)) * (torus.L1, torus.L2)
        d = torus.pairwise_distance(a, b)
        assert d.shape == (7, 5)
        np.testing.assert_array_equal(d, torus.pairwise_distance(b, a).T)
        np.testing.assert_array_equal(d, torus.pairwise_distance([Point(*p) for p in a], b))
        for i, j in np.ndindex(d.shape):
            assert d[i, j] == torus.distance(Point(*a[i]), Point(*b[j]))

    @DISTANCE_TORI
    def test_squared_displacement_rows_are_cached_and_read_only(self, torus):
        row = torus.squared_displacement_row(1, 0.3, 0.01)
        assert torus.squared_displacement_row(1, 0.3, 0.01) is row
        assert row.shape == (torus.n,) and not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
        np.testing.assert_array_equal(torus.squared_distance_field(Point(0.2, 0.3), (0.0, 0.01))[0],
                                      torus.squared_displacement_row(0, 0.2, 0.0)[0] + row)

    @NODE_TORI
    def test_node_distance_fields_are_shifted_views_of_the_origin_field(self, torus):
        n = torus.n
        origin = torus.node_distance_field(0, 0)
        dyadic = all(np.frexp(h)[0] == 0.5 for h in torus.spacing)  # powers of two
        for i, j in itertools.product(sorted({0, 1, n // 2, n - 1} | set(range(0, n, 7))),
                                      repeat=2):
            view = torus.node_distance_field(i, j)
            assert view.shape == (n, n) and not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0
            assert view[i, j] == 0.0
            assert np.shares_memory(view, origin)
            assert view.tobytes() == np.roll(origin, (i, j), axis=(0, 1)).tobytes()
            expected = torus.distance_field(torus.node_point(i, j))
            if dyadic:
                assert view.tobytes() == expected.tobytes()
            else:
                # measured against the largest entry: next to a node, the
                # reference's own coordinate subtraction cancels to 32 ulp
                assert np.abs(view - expected).max() <= 4 * np.spacing(view.max())

    def test_field_from_function_averages_subcells(self, torus32):
        # a linear-in-cell function averages exactly to its midpoint value
        f = torus32.field_from_function(lambda x1, x2: x1, subsamples=4)
        x1, _ = torus32.grids()
        assert np.allclose(f.values, x1, atol=1e-14)

    def test_field_from_function_samples_the_nodes_by_default(self):
        def fn(x1, x2):
            return np.sin(3.0 * x1) * np.exp(x2) + x1 * x2 - 0.7

        torus = FlatTorus(24, 2.0, 0.5)
        f = torus.field_from_function(fn)
        assert f.values.dtype == np.float64
        assert f.values.tobytes() == fn(*torus.grids()).tobytes()

    def test_subcell_offsets_center_on_zero(self, torus32):
        offs = subcell_offsets(torus32, 4)
        assert len(offs) == 16
        mean = np.mean(offs, axis=0)
        assert np.allclose(mean, 0.0, atol=1e-15)


class TestCalculus:
    def test_integral_of_trig_vanishes(self, torus64):
        assert integrate(trig_field(torus64, 3, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_integral_of_constant(self, torus64):
        assert integrate(torus64.constant_field(2.5)) == pytest.approx(2.5)

    def test_gradient_matches_analytic_derivative(self, torus64):
        x1, x2 = torus64.grids()
        u = torus64.field(np.sin(TWO_PI * 2 * x1) * np.cos(TWO_PI * 3 * x2))
        g1, g2 = gradient(u)
        expected1 = TWO_PI * 2 * np.cos(TWO_PI * 2 * x1) * np.cos(TWO_PI * 3 * x2)
        expected2 = -TWO_PI * 3 * np.sin(TWO_PI * 2 * x1) * np.sin(TWO_PI * 3 * x2)
        assert np.allclose(g1.values, expected1, atol=1e-10)
        assert np.allclose(g2.values, expected2, atol=1e-10)

    def test_laplacian_matches_analytic_eigenvalue(self, torus64):
        u = trig_field(torus64, 2, 3)
        eig = -(TWO_PI * 2) ** 2 - (TWO_PI * 3) ** 2
        assert np.allclose(laplacian(u).values, eig * u.values, atol=1e-9)

    def test_laplacian_matches_finite_differences(self, torus64):
        # independent oracle: 5-point stencil on a smooth non-trigonometric field
        rng = np.random.default_rng(0)
        u = random_smooth_field(torus64, rng, modes=3)
        h1, h2 = torus64.spacing
        v = u.values
        stencil = ((np.roll(v, 1, 0) + np.roll(v, -1, 0) - 2 * v) / h1**2
                   + (np.roll(v, 1, 1) + np.roll(v, -1, 1) - 2 * v) / h2**2)
        spectral = laplacian(u).values
        scale = np.abs(spectral).max()
        assert np.abs(spectral - stencil).max() < 2e-2 * scale

    def test_dirichlet_energy_of_plane_wave(self, torus64):
        u = trig_field(torus64, 1, 0)
        # integral of |grad sin(2 pi x)|^2 = (2 pi)^2 / 2
        assert dirichlet_energy(u) == pytest.approx((TWO_PI**2) / 2, rel=1e-12)

    def test_helmholtz_solve_inverts_operator(self, torus64):
        rng = np.random.default_rng(1)
        u = random_smooth_field(torus64, rng, modes=4)
        rhs = -laplacian(u).values + 2.5 * u.values
        recovered = helmholtz_solve(torus64, rhs, 2.5)
        assert np.allclose(recovered, u.values, atol=1e-11)

    def test_gradient_of_nyquist_mode_is_zero(self, torus64):
        # the unpaired highest frequency has no well-defined first derivative
        x1, _ = torus64.grids()
        u = torus64.field(np.cos(np.pi * torus64.n * x1))
        g1, _ = gradient(u)
        assert np.abs(g1.values).max() < 1e-9

    @given(st.sampled_from((16, 24, 32, 64)), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_prolonged_field_on_the_even_nodes_is_the_coarse_field(self, m, seed):
        # white noise carries content on the coarse Nyquist row and column
        coarse = np.random.default_rng(seed).normal(size=(m, m))
        fine = from_spectrum(FlatTorus(2 * m), prolong(to_spectrum(coarse)))
        assert np.abs(fine[::2, ::2] - coarse).max() <= 1e-14
        assert abs(fine.mean() - coarse.mean()) <= 1e-14  # the zero mode is kept
        # splitting the Nyquist modes between +m/2 and -m/2 makes prolonging
        # commute with reflecting one axis; either half alone would not

        def reflect(a, axis):
            return np.roll(np.flip(a, axis), 1, axis)
        for axis in (0, 1):
            mirrored = from_spectrum(FlatTorus(2 * m),
                                     prolong(to_spectrum(reflect(coarse, axis))))
            assert np.abs(mirrored - reflect(fine, axis)).max() <= 1e-14


class ComplexReference:
    """Full-spectrum complex np.fft versions of the spectral kernels, the way
    they were computed before the half-spectrum tables: oracle for the
    real-FFT code."""

    def __init__(self, torus: FlatTorus):
        n = torus.n
        h1, h2 = torus.spacing
        k1 = TWO_PI * np.fft.fftfreq(n, d=h1)
        k2 = TWO_PI * np.fft.fftfreq(n, d=h2)
        self.minus_lap = k1[:, None] ** 2 + k2[None, :] ** 2
        self.k1d, self.k2d = k1.copy(), k2.copy()
        self.k1d[n // 2] = 0.0
        self.k2d[n // 2] = 0.0
        self.torus = torus

    def laplacian(self, v):
        return np.fft.ifft2(-self.minus_lap * np.fft.fft2(v)).real

    def gradient(self, v):
        vh = np.fft.fft2(v)
        return (np.fft.ifft2(1j * self.k1d[:, None] * vh).real,
                np.fft.ifft2(1j * self.k2d[None, :] * vh).real)

    def helmholtz(self, v, tau):
        return np.fft.ifft2(np.fft.fft2(v) / (self.minus_lap + tau)).real

    def greens(self, p):
        i, j = self.torus.nearest_node(p)
        rhs = np.full((self.torus.n, self.torus.n), -1.0)
        rhs[i, j] += 1.0 / self.torus.cell_area
        denom = self.minus_lap.copy()
        denom[0, 0] = 1.0
        ghat = np.fft.fft2(rhs) / denom
        ghat[0, 0] = 0.0
        return np.fft.ifft2(ghat).real


ORACLE_TORI = (FlatTorus(64), FlatTorus(48, 2.0, 0.5))


def close_to(actual, expected, rel=1e-12):
    """Agreement to rel times the largest entry of the reference."""
    return np.abs(actual - expected).max() <= rel * np.abs(expected).max()


class TestRealTransformsAgainstComplexReference:
    # white noise carries every mode, the Nyquist row and column included

    @pytest.mark.parametrize("torus", ORACLE_TORI, ids=("square", "anisotropic"))
    def test_laplacian_gradient_and_helmholtz(self, torus):
        ref = ComplexReference(torus)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.standard_normal((torus.n, torus.n))
            assert close_to(laplacian_array(torus, v), ref.laplacian(v))
            for mine, theirs in zip(gradient_arrays(torus, v), ref.gradient(v)):
                assert close_to(mine, theirs)
            for tau in (1.0, 1e-3):
                assert close_to(helmholtz_solve(torus, v, tau), ref.helmholtz(v, tau))

    @pytest.mark.parametrize("torus", ORACLE_TORI, ids=("square", "anisotropic"))
    def test_greens_function(self, torus):
        ref = ComplexReference(torus)
        for p in (Point(0.37, 0.21), Point(0.0, 0.0), Point(1.5, 0.49)):
            p = torus.point(*p)
            assert close_to(greens_function(torus, p).values, ref.greens(p))

    @pytest.mark.parametrize("torus", ORACLE_TORI, ids=("square", "anisotropic"))
    def test_parseval_forms_match_real_space_quadrature(self, torus):
        rng = np.random.default_rng(6)
        for _ in range(3):
            u1 = torus.field(rng.standard_normal((torus.n, torus.n)))
            u2 = torus.field(rng.standard_normal((torus.n, torus.n)))
            a, b = to_spectrum(u1.values), to_spectrum(u2.values)
            form = (dirichlet_form(torus, a, a) + dirichlet_form(torus, b, b)
                    + dirichlet_form(torus, a, b)) / 3.0
            assert form == pytest.approx(integrate(q_density(u1, u2)), rel=1e-12)
            assert dirichlet_form(torus, a, b) == pytest.approx(dirichlet_form(torus, b, a),
                                                               rel=1e-12)
            assert spectral_inner(torus, a, b) == pytest.approx(
                integrate(torus.field(u1.values * u2.values)), rel=1e-12)


class TestGreensFunction:
    def test_zero_mean_and_residual(self, torus64):
        p = Point(0.37, 0.61)
        g = greens_function(torus64, p)
        assert abs(integrate(g)) < 1e-12
        delta = np.zeros((torus64.n, torus64.n))
        i, j = torus64.nearest_node(p)
        delta[i, j] = 1.0 / torus64.cell_area
        residual = -laplacian(g).values - (delta - 1.0)
        assert np.abs(residual).max() < 1e-8

    def test_translation_symmetry(self, torus64):
        g0 = greens_function(torus64, Point(0.25, 0.25))
        g1 = greens_function(torus64, Point(0.75, 0.75))
        shifted = np.roll(g0.values, (32, 32), axis=(0, 1))
        assert np.allclose(shifted, g1.values, atol=1e-12)

    def test_point_swap_symmetry(self, torus64):
        p, q = Point(0.25, 0.5), Point(0.625, 0.125)
        gp = greens_function(torus64, p)
        gq = greens_function(torus64, q)
        iq, jq = torus64.nearest_node(q)
        ip, jp = torus64.nearest_node(p)
        assert gp.values[iq, jq] == pytest.approx(gq.values[ip, jp], abs=1e-12)

    def test_writing_to_the_field_leaves_the_cache_intact(self, torus64):
        p = Point(0.37, 0.61)
        first = greens_function(torus64, p)
        expected = first.values.copy()
        first.values[:] = 0.0
        assert np.array_equal(greens_function(torus64, p).values, expected)

    def test_near_field_log_slope(self):
        # G ~ -(1/2pi) log d near the pole; fit over a mid-range annulus
        torus = FlatTorus(128)
        p = Point(0.5, 0.5)
        g = greens_function(torus, p)
        d = torus.distance_field(p)
        mask = (d >= 4 / 128) & (d <= 16 / 128)
        slope = np.polyfit(np.log(d[mask]), g.values[mask], 1)[0]
        assert slope == pytest.approx(-1 / (2 * np.pi), rel=0.1)


class TestSingularData:
    def test_rejects_negative_weights(self, torus32):
        with pytest.raises(ValueError):
            SingularData.of([(0.5, 0.5)], [-1.0], [0.0], torus32)

    def test_rejects_coincident_points(self, torus32):
        # the second pair meets across the period seam: -1e-13 reduces to 1 - 1e-13
        for points in ([(0.5, 0.5), (1.5, 0.5)], [(0.0, 0.5), (-1e-13, 0.5)]):
            with pytest.raises(ValueError, match="singular points 0 and 1 coincide"):
                SingularData.of(points, [1, 1], [1, 1], torus32)

    def test_of_reduces_coordinates(self, torus32):
        s = SingularData.of([(1.25, -0.5)], [1.0], [2.0], torus32)
        assert s.points[0] == Point(0.25, 0.5)


class TestDesingularizedWeight:
    def test_matches_power_law_near_the_point(self):
        # the modified weight behaves like d^(2 alpha) close to the marked point
        torus = FlatTorus(128)
        alpha = 1.5
        s = SingularData.of([(0.5, 0.5)], [alpha], [0.0], torus)
        h = desingularized_weight(torus.constant_field(1.0), s, 1)
        d = torus.distance_field(Point(0.5, 0.5))
        mask = (d >= 4 / 128) & (d <= 16 / 128)
        slope = np.polyfit(np.log(d[mask]), np.log(h.values[mask]), 1)[0]
        assert slope == pytest.approx(2 * alpha, rel=0.1)

    def test_component_two_uses_its_own_weights(self, torus64):
        s = SingularData.of([(0.5, 0.5)], [1.0], [0.0], torus64)
        h2 = desingularized_weight(torus64.constant_field(1.0), s, 2)
        assert np.allclose(h2.values, 1.0)  # alpha2 = 0 leaves h untouched

    def test_rejects_nonpositive_weight(self, torus64):
        bad = torus64.constant_field(-1.0)
        with pytest.raises(ValueError):
            desingularized_weight(bad, SingularData.empty(), 1)

    def test_unit_average_is_preserved_without_weights(self, torus64):
        h = desingularized_weight(torus64.constant_field(1.0), SingularData.empty(), 1)
        assert np.array_equal(h.values, np.ones((64, 64)))


class TestRandomSmoothField:
    def test_zero_mean_and_determinism(self, torus64):
        a = random_smooth_field(torus64, np.random.default_rng(5), modes=4)
        b = random_smooth_field(torus64, np.random.default_rng(5), modes=4)
        assert abs(a.values.mean()) < 1e-13
        assert np.array_equal(a.values, b.values)

    def test_band_limit(self, torus64):
        u = random_smooth_field(torus64, np.random.default_rng(6), modes=2)
        spectrum = np.fft.fft2(u.values)
        k = np.fft.fftfreq(64, d=1 / 64)
        high = (np.abs(k)[:, None] > 2) | (np.abs(k)[None, :] > 2)
        assert np.abs(spectrum[high]).max() < 1e-9 * np.abs(spectrum).max()
