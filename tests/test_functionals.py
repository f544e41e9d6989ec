import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusvar.functionals import (
    EnergyKernel,
    EnergyReport,
    RhoPair,
    log_integral_exp,
    meanfield_energy,
    meanfield_gradient,
    mt_ratio,
    mt_system_gap,
    normalized_density,
    q_density,
    toda_energy,
    toda_gradient,
)
from torusvar.geometry import (
    FlatTorus,
    GridField,
    SingularData,
    desingularized_weight,
    dirichlet_energy,
    from_spectrum,
    integrate,
    random_smooth_field,
    spectral_inner,
    to_spectrum,
)
from torusvar.joins import JoinElement, scalar_test_function
from torusvar.measures import BarycenterMeasure
from torusvar.geometry import Point

RHO = RhoPair(2 * np.pi, 3.0)


def random_pair(torus, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return (random_smooth_field(torus, rng, modes=4, scale=scale),
            random_smooth_field(torus, rng, modes=4, scale=scale))


class TestRhoPair:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RhoPair(-1.0, 2.0)

    def test_iterates_in_order(self):
        assert tuple(RhoPair(1.0, 2.0)) == (1.0, 2.0)


class TestLogIntegralExp:
    def test_constant_field(self, torus64):
        u = torus64.constant_field(3.0)
        h = torus64.constant_field(1.0)
        assert log_integral_exp(u, h) == pytest.approx(3.0, abs=1e-13)

    def test_shift_rule(self, torus64, aniso_weights):
        h, _ = aniso_weights
        u = random_smooth_field(torus64, np.random.default_rng(2))
        shifted = GridField(torus64, u.values + 7.0)
        assert log_integral_exp(shifted, h) == pytest.approx(
            log_integral_exp(u, h) + 7.0, abs=1e-12)

    def test_handles_large_amplitudes_without_overflow(self, torus64):
        u = GridField(torus64, 800.0 * torus64.distance_field(Point(0.5, 0.5)))
        h = torus64.constant_field(1.0)
        value = log_integral_exp(u, h)
        assert np.isfinite(value)

    def test_rejects_negative_weight(self, torus64):
        with pytest.raises(ValueError):
            log_integral_exp(torus64.constant_field(0.0), torus64.constant_field(-1.0))

    def test_density_is_a_probability(self, torus64, aniso_weights):
        h, _ = aniso_weights
        u = random_smooth_field(torus64, np.random.default_rng(3))
        f = normalized_density(u, h)
        assert integrate(f) == pytest.approx(1.0, abs=1e-12)
        assert f.values.min() > 0


class TestQDensity:
    def test_zero_for_constants(self, torus64):
        q = q_density(torus64.constant_field(1.0), torus64.constant_field(-2.0))
        assert np.abs(q.values).max() == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative_pointwise(self, seed):
        torus = FlatTorus(32)
        u1, u2 = random_pair(torus, seed)
        q = q_density(u1, u2)
        assert q.values.min() >= -1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_dominates_sixth_of_gradient_squares(self, seed):
        # the quadratic form has smallest eigenvalue 1/6
        torus = FlatTorus(32)
        u1, u2 = random_pair(torus, seed)
        from torusvar.geometry import gradient_arrays
        g11, g12 = gradient_arrays(torus, u1.values)
        g21, g22 = gradient_arrays(torus, u2.values)
        floor = (g11**2 + g12**2 + g21**2 + g22**2) / 6.0
        q = q_density(u1, u2)
        assert (q.values - floor).min() >= -1e-10


class TestTodaEnergy:
    def test_zero_fields_constant_weight(self, torus64):
        h = torus64.constant_field(1.0)
        report = toda_energy(torus64.constant_field(0.0), torus64.constant_field(0.0),
                             h, h, RHO)
        assert report.total == pytest.approx(0.0, abs=1e-13)
        assert report.dirichlet == 0.0

    def test_report_assembly_is_consistent(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        u1, u2 = random_pair(torus64, 11)
        report = toda_energy(u1, u2, h1, h2, RHO)
        expected = report.dirichlet + sum(
            rho * (avg - lie) for rho, avg, lie in
            zip(RHO, report.average_terms, report.logexp_terms))
        assert report.total == pytest.approx(expected, abs=1e-12)

    def test_gauge_invariance_under_constant_shifts(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        u1, u2 = random_pair(torus64, 12)
        base = toda_energy(u1, u2, h1, h2, RHO).total
        shifted = toda_energy(GridField(torus64, u1.values + 4.2),
                              GridField(torus64, u2.values - 1.7), h1, h2, RHO).total
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_gradient_matches_finite_differences(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        u1, u2 = random_pair(torus64, 13, scale=0.8)
        g1, g2 = toda_gradient(u1, u2, h1, h2, RHO)
        rng = np.random.default_rng(14)
        v1 = random_smooth_field(torus64, rng, modes=4)
        v2 = random_smooth_field(torus64, rng, modes=4)
        eps = 1e-5

        def at(t):
            return toda_energy(GridField(torus64, u1.values + t * v1.values),
                               GridField(torus64, u2.values + t * v2.values),
                               h1, h2, RHO).total

        directional = (at(eps) - at(-eps)) / (2 * eps)
        predicted = integrate(GridField(torus64, g1.values * v1.values
                                        + g2.values * v2.values))
        assert directional == pytest.approx(predicted, rel=1e-6)

    def test_gradient_components_have_zero_mean(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        u1, u2 = random_pair(torus64, 15)
        g1, g2 = toda_gradient(u1, u2, h1, h2, RHO)
        assert abs(g1.values.mean()) < 1e-13
        assert abs(g2.values.mean()) < 1e-13

    def test_gradient_vanishes_at_trivial_critical_point(self, torus64):
        h = torus64.constant_field(1.0)
        g1, g2 = toda_gradient(torus64.constant_field(0.0), torus64.constant_field(0.0),
                               h, h, RHO)
        assert np.abs(g1.values).max() < 1e-13
        assert np.abs(g2.values).max() < 1e-13


class TestMeanfieldEnergy:
    def test_sign_flip_symmetry_with_swapped_strengths(self, torus64, aniso_weights):
        h, _ = aniso_weights
        u = random_smooth_field(torus64, np.random.default_rng(16))
        forward = meanfield_energy(u, h, RhoPair(5.0, 3.0)).total
        backward = meanfield_energy(GridField(torus64, -u.values), h,
                                    RhoPair(3.0, 5.0)).total
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_gradient_matches_finite_differences(self, torus64, aniso_weights):
        h, _ = aniso_weights
        u = random_smooth_field(torus64, np.random.default_rng(17), scale=0.8)
        g = meanfield_gradient(u, h, RHO)
        v = random_smooth_field(torus64, np.random.default_rng(18), modes=4)
        eps = 1e-5

        def at(t):
            return meanfield_energy(GridField(torus64, u.values + t * v.values),
                                    h, RHO).total

        directional = (at(eps) - at(-eps)) / (2 * eps)
        predicted = integrate(GridField(torus64, g.values * v.values))
        assert directional == pytest.approx(predicted, rel=1e-6)

    def test_zero_is_critical_for_balanced_strengths(self, torus64, aniso_weights):
        h, _ = aniso_weights
        g = meanfield_gradient(torus64.constant_field(0.0), h, RhoPair(4.0, 4.0))
        assert np.abs(g.values).max() < 1e-12


class TestKernelOf:
    @pytest.mark.parametrize("problem, critical", (("toda", 4 * np.pi), ("meanfield", 8 * np.pi)))
    def test_coercive_exactly_below_the_critical_strength(self, aniso_weights, problem,
                                                           critical):
        h = aniso_weights if problem == "toda" else aniso_weights[0]

        def coercive(rho1, rho2):
            return EnergyKernel.of(problem, h, RhoPair(rho1, rho2), SingularData.empty()).coercive

        below, above = np.nextafter(critical, 0.0), np.nextafter(critical, np.inf)
        assert coercive(below, below)
        assert coercive(0.0, 0.0)
        for rho1, rho2 in ((critical, 1.0), (above, 1.0), (1.0, critical), (1.0, above),
                           (critical, critical)):
            assert not coercive(rho1, rho2), (rho1, rho2)
        # 6 pi lies between the two critical strengths
        assert coercive(6 * np.pi, 6 * np.pi) == (problem == "meanfield")


def kernel_for(problem: str, torus: FlatTorus, marked: bool) -> EnergyKernel:
    """Either energy on `torus` with smooth weights, desingularized at two
    marked points when `marked`."""
    x1, x2 = torus.grids()
    h1 = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    h2 = torus.field(1.0 + 0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(4 * np.pi * x2))
    if marked:
        singular = SingularData.of([(0.3, 0.6), (0.7, 0.1)], [0.5, 1.0], [1.0, 0.5], torus)
        h1, h2 = (desingularized_weight(h1, singular, 1), desingularized_weight(h2, singular, 2))
    if problem == "toda":
        return EnergyKernel.toda(h1, h2, RHO)
    return EnergyKernel.meanfield(h1, RHO)


def gradient_at(kernel: EnergyKernel, values: list) -> list:
    spectra = [to_spectrum(v) for v in values]
    return kernel.gradient(spectra, kernel.evaluate(values, spectra))


class TestHessianVector:
    @given(seed=st.integers(0, 2**31 - 1), problem=st.sampled_from(("toda", "meanfield")),
           marked=st.booleans(), n=st.sampled_from((16, 32)))
    @settings(max_examples=40, deadline=None)
    def test_matches_central_differences_of_the_gradient(self, seed, problem, marked, n):
        torus = FlatTorus(n)
        kernel = kernel_for(problem, torus, marked)
        rng = np.random.default_rng(seed)
        ncomp = len(kernel.mixing)
        # smooth states; directions with every mode, Nyquist included
        values = [random_smooth_field(torus, rng, modes=4, scale=1.0).values
                  for _ in range(ncomp)]
        directions = [random_smooth_field(torus, rng, modes=4, scale=1.0).values
                      + 0.1 * rng.standard_normal((n, n)) for _ in range(ncomp)]
        spectra = [to_spectrum(v) for v in values]
        product = kernel.hessian_vector(kernel.evaluate(values, spectra),
                                        [to_spectrum(d) for d in directions])
        eps = 1e-5
        plus = gradient_at(kernel, [v + eps * d for v, d in zip(values, directions)])
        minus = gradient_at(kernel, [v - eps * d for v, d in zip(values, directions)])
        central = [(a - b) / (2 * eps) for a, b in zip(plus, minus)]
        error = sum(spectral_inner(torus, p - c, p - c) for p, c in zip(product, central))
        size = sum(spectral_inner(torus, p, p) for p in product)
        assert np.sqrt(error) <= 1e-6 * np.sqrt(size)

    @pytest.mark.parametrize("problem", ("toda", "meanfield"))
    def test_is_symmetric(self, torus32, problem):
        kernel = kernel_for(problem, torus32, marked=True)
        rng = np.random.default_rng(21)
        ncomp = len(kernel.mixing)
        values = [random_smooth_field(torus32, rng).values for _ in range(ncomp)]
        spectra = [to_spectrum(v) for v in values]
        at = kernel.evaluate(values, spectra)
        a, b = ([to_spectrum(rng.standard_normal((32, 32))) for _ in range(ncomp)]
                for _ in range(2))
        ha, hb = kernel.hessian_vector(at, a), kernel.hessian_vector(at, b)
        forward = sum(spectral_inner(torus32, x, y) for x, y in zip(hb, a))
        backward = sum(spectral_inner(torus32, x, y) for x, y in zip(ha, b))
        assert forward == pytest.approx(backward, rel=1e-10)


class TestNyquistModes:
    """Directions along the Nyquist row and column, from a state with content
    there: the energy's central differences agree with the gradient."""

    @pytest.mark.parametrize("problem", ("toda", "meanfield"))
    @pytest.mark.parametrize("axis", (0, 1), ids=("row", "column"))
    def test_gradient_matches_finite_differences(self, torus32, problem, axis):
        kernel = kernel_for(problem, torus32, marked=False)
        x1, x2 = torus32.grids()
        alternating = (-1.0) ** np.arange(torus32.n)
        row = alternating[:, None] * np.cos(2 * np.pi * x2)
        column = alternating[None, :] * np.cos(2 * np.pi * x1)
        rng = np.random.default_rng(22)
        values = [random_smooth_field(torus32, rng).values + 0.01 * (row + column)
                  for _ in kernel.mixing]
        direction = row if axis == 0 else column
        eps = 1e-5

        def energy(t):
            shifted = [values[0] + t * direction] + values[1:]
            return kernel.evaluate(shifted, [to_spectrum(v) for v in shifted]).report.total

        central = (energy(eps) - energy(-eps)) / (2 * eps)
        g = from_spectrum(torus32, gradient_at(kernel, values)[0])
        predicted = float((g * direction).sum() * torus32.cell_area)
        assert abs(predicted) > 1.0  # the Nyquist part dominates the slope
        assert central == pytest.approx(predicted, rel=1e-6)


class TestExponentialIntegrabilityDiagnostics:
    def test_ratio_rejects_constant_fields(self, torus64):
        with pytest.raises(ValueError):
            mt_ratio(torus64.constant_field(2.0))

    def test_ratio_small_for_gentle_fields(self, torus64):
        # in the quadratic regime the ratio is far below the sharp threshold 1
        u = random_smooth_field(torus64, np.random.default_rng(19), scale=0.2)
        assert 0.0 < mt_ratio(u) < 0.5

    def test_ratio_approaches_one_on_concentrating_bubbles(self):
        torus = FlatTorus(128)
        zeta = JoinElement(BarycenterMeasure.single(Point(0.5, 0.5)),
                           BarycenterMeasure.single(Point(0.5, 0.25)), 0.0)
        ratios = [mt_ratio(scalar_test_function(torus, zeta, lam))
                  for lam in (30.0, 100.0, 300.0)]
        assert all(0.75 < r <= 1.02 for r in ratios)
        assert ratios[-1] > ratios[0] - 0.05

    def test_system_gap_zero_at_zero_pair(self, torus64):
        h = torus64.constant_field(1.0)
        zero = torus64.constant_field(0.0)
        assert mt_system_gap(zero, zero, h, h) == pytest.approx(0.0, abs=1e-13)

    def test_system_gap_scale_invariant_shift(self, torus64, aniso_weights):
        h1, h2 = aniso_weights
        u1, u2 = random_pair(torus64, 20)
        base = mt_system_gap(u1, u2, h1, h2)
        shifted = mt_system_gap(GridField(torus64, u1.values + 3.0),
                                GridField(torus64, u2.values - 2.0), h1, h2)
        assert shifted == pytest.approx(base, abs=1e-11)


class TestEnergyReport:
    def test_assemble_totals_the_three_parts(self):
        report = EnergyReport.assemble(1.5, (0.25, -0.5), (0.1, 0.2), RhoPair(2.0, 4.0))
        assert report.total == pytest.approx(1.5 + 2.0 * (0.25 - 0.1) + 4.0 * (-0.5 - 0.2))
