import dataclasses

import numpy as np
import pytest

import torusvar.solver as solver_module
from torusvar.functionals import (
    EnergyKernel,
    RhoPair,
    meanfield_gradient,
    toda_energy,
    toda_gradient,
)
from torusvar.geometry import (
    FlatTorus,
    SingularData,
    desingularized_weight,
    laplacian_array,
    random_smooth_field,
    to_spectrum,
)
from torusvar.quantization import blowup_candidates
from torusvar.solver import (
    SolverConfig,
    blowup_masses,
    check_continuation_box,
    continuation_sweep,
    minimize,
    pde_residual,
)

EMPTY = SingularData.empty()
LOOSE = SolverConfig(gradient_tolerance=1e-6)


def gradient_norm(problem, u, h, rho):
    """Unpreconditioned L2 norm of the energy gradient (independent route)."""
    torus = u[0].torus
    if problem == "toda":
        g1, g2 = toda_gradient(u[0], u[1], h[0], h[1], rho)
        total = (g1.values**2 + g2.values**2).sum()
    else:
        g = meanfield_gradient(u[0], h, rho)
        total = (g.values**2).sum()
    return float(np.sqrt(total * torus.cell_area))


class TestMinimize:
    def test_constant_weights_keep_the_zero_state(self, torus64):
        h = torus64.constant_field(1.0)
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        result = minimize("toda", (h, h), rho, EMPTY)
        assert result.iterations == 0
        assert result.converged
        assert np.all(result.u[0].values == 0.0)
        assert np.all(result.u[1].values == 0.0)
        assert result.energy == pytest.approx(0.0, abs=1e-12)

    def test_constant_weight_scalar_case(self, torus64):
        h = torus64.constant_field(1.0)
        result = minimize("meanfield", h, RhoPair(4 * np.pi, 4 * np.pi), EMPTY)
        assert result.iterations == 0
        assert np.all(result.u[0].values == 0.0)

    def test_two_component_anisotropic_converges(self, aniso_weights):
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        result = minimize("toda", aniso_weights, rho, EMPTY)
        assert result.converged
        assert result.residual_norm <= 1e-8
        assert result.coercive
        # certified by the independent strong-form assembly
        assert pde_residual("toda", result.u, aniso_weights, rho, EMPTY) < 1e-5

    def test_scalar_sine_weight_converges(self, torus64):
        x1, _ = torus64.grids()
        h = torus64.field(1.0 + 0.5 * np.sin(2 * np.pi * x1))
        rho = RhoPair(4 * np.pi, 4 * np.pi)
        result = minimize("meanfield", h, rho, EMPTY)
        assert result.converged
        assert result.coercive
        assert pde_residual("meanfield", result.u, h, rho, EMPTY) < 1e-5

    def test_energy_never_increases_from_the_start(self, aniso_weights):
        h1, h2 = aniso_weights
        torus = h1.torus
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        start = toda_energy(torus.constant_field(0.0), torus.constant_field(0.0),
                            h1, h2, rho).total
        result = minimize("toda", aniso_weights, rho, EMPTY, LOOSE)
        assert result.energy <= start + 1e-12

    def test_noncoercive_mode_is_flagged(self, aniso_weights):
        result = minimize("toda", aniso_weights, RhoPair(5 * np.pi, 2 * np.pi), EMPTY,
                          SolverConfig(max_iterations=3))
        assert not result.coercive

    def test_nonconvergence_reports_best_iterate(self, aniso_weights):
        config = SolverConfig(max_iterations=3, gradient_tolerance=1e-15)
        result = minimize("toda", aniso_weights, RhoPair(2 * np.pi, 2 * np.pi),
                          EMPTY, config)
        assert not result.converged
        assert result.stop_reason == "iteration-cap"
        assert result.iterations == 3
        assert result.residual_norm > 1e-15
        assert np.all(np.isfinite(result.u[0].values))

    def test_converged_means_within_tolerance(self, aniso_weights):
        result = minimize("toda", aniso_weights, RhoPair(2 * np.pi, 2 * np.pi),
                          EMPTY, LOOSE)
        assert result.converged
        assert result.residual_norm <= LOOSE.gradient_tolerance

    def test_initial_guess_length_is_checked(self, torus64, aniso_weights):
        with pytest.raises(ValueError, match="component"):
            minimize("toda", aniso_weights, RhoPair(1.0, 1.0), EMPTY,
                     initial=(torus64.constant_field(0.0),))

    def test_scalar_problem_rejects_weight_pairs(self, aniso_weights):
        with pytest.raises(ValueError, match="single weight"):
            minimize("meanfield", aniso_weights, RhoPair(1.0, 1.0), EMPTY)

    def test_unknown_problem_name(self, torus64):
        with pytest.raises(ValueError, match="toda"):
            minimize("sinh-gordon", torus64.constant_field(1.0), RhoPair(1, 1), EMPTY)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=-1)
        with pytest.raises(ValueError):
            SolverConfig(gradient_tolerance=0.0)


# marked points on a node of every grid with n % 4 == 0, so that no energy
# compared across such grids carries the snap of a point to its nearest node
ON_NODES = SingularData.of([(0.25, 0.75), (0.75, 0.25)], [0.5, 1.0], [1.0, 0.5], FlatTorus(64))


class TestTwoLevel:
    def test_the_gap_bounds_the_error_of_a_resolved_solve(self, aniso_on):
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        coarse, fine = (minimize("toda", aniso_on(FlatTorus(n)), rho, ON_NODES)
                        for n in (64, 256))
        assert coarse.converged and fine.converged
        assert abs(coarse.energy_gap) >= abs(coarse.energy - fine.energy)

    def test_the_gap_exposes_a_grid_bubble(self, aniso_weights):
        result = minimize("toda", aniso_weights, RhoPair(5.5 * np.pi, 2 * np.pi), ON_NODES)
        assert result.converged and result.coarse_iterations > 0
        assert result.energy_gap < -1.0

    @pytest.mark.parametrize("random_start", [False, True])
    @pytest.mark.parametrize("n, config", [(16, SolverConfig()), (18, SolverConfig()),
                                           (30, SolverConfig()), (34, SolverConfig()),
                                           (64, SolverConfig(max_iterations=1))])
    def test_without_a_converged_coarse_level_the_solve_is_single_level(
            self, aniso_on, n, config, random_start):
        # n = 16 and n % 4 != 0 have no coarse level; at n = 64 it hits the cap
        torus = FlatTorus(n)
        h, rho = aniso_on(torus), RhoPair(3 * np.pi, 2 * np.pi)
        rng = np.random.default_rng(n)
        initial = (tuple(random_smooth_field(torus, rng, scale=0.5) for _ in range(2))
                   if random_start else None)
        result = minimize("toda", h, rho, ON_NODES, config, initial)
        start = ([to_spectrum(f.values) for f in initial] if random_start else
                 [np.zeros((n, n // 2 + 1), dtype=complex) for _ in range(2)])
        single = solver_module._newton(EnergyKernel.of("toda", h, rho, ON_NODES), start,
                                       config)
        assert result.energy_coarse is None and result.energy_gap is None
        assert result.coarse_iterations == (config.max_iterations if n == 64 else 0)
        assert (result.energy, result.residual_norm, result.iterations, result.stop_reason) \
            == (single.energy, single.residual_norm, single.iterations, single.stop_reason)
        for u, v in zip(result.u, single.u):
            assert np.array_equal(u.values, v.values)

    def test_the_coarse_level_does_not_call_minimize(self, aniso_weights, monkeypatch):
        # a continuation step is one call of the module-level name
        calls = []
        original = solver_module.minimize

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(solver_module, "minimize", counted)
        results = continuation_sweep("toda", RhoPair(2 * np.pi, 2 * np.pi), 0.4, 3,
                                     aniso_weights, ON_NODES, LOOSE)
        assert len(calls) == 3
        assert all(r.converged and r.coarse_iterations > 0 for r in results)


class InfiniteTrialKernel(EnergyKernel):
    """The two-component energy kernel, except that every state other than
    the zero start evaluates to +inf."""

    def evaluate(self, values, spectra):
        at = super().evaluate(values, spectra)
        if not any(np.any(v) for v in values):
            return at
        return at._replace(report=dataclasses.replace(at.report, total=np.inf))


class TestStopReason:
    def test_flat_case_converges_at_the_start(self, torus64):
        h = torus64.constant_field(1.0)
        result = minimize("toda", (h, h), RhoPair(2 * np.pi, 2 * np.pi), EMPTY)
        assert (result.stop_reason, result.iterations, result.converged) == ("converged", 0, True)

    def test_tolerance_below_the_float_floor_stalls(self, aniso_weights):
        # Newton's floor here is about 4e-18; below it the steps only stir round-off
        config = SolverConfig(gradient_tolerance=1e-18)
        result = minimize("toda", aniso_weights, RhoPair(2 * np.pi, 2 * np.pi), EMPTY, config)
        assert result.stop_reason == "stalled"
        assert not result.converged
        assert 0 < result.iterations < config.max_iterations
        assert result.iterations <= 15
        assert result.residual_norm > config.gradient_tolerance

    def test_a_fine_grid_below_the_float_floor_stalls_within_bounded_steps(self):
        # n=256 with the two marked points of the benchmark's two-component solve
        torus = FlatTorus(256)
        x1, x2 = torus.grids()
        h1 = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
        h2 = torus.field(1.0 + 0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(4 * np.pi * x2))
        singular = SingularData.of([(0.25, 0.75), (0.75, 0.3)], [0.5, 1.0], [1.0, 0.5], torus)
        result = minimize("toda", (h1, h2), RhoPair(2 * np.pi, 2 * np.pi), singular,
                          SolverConfig(gradient_tolerance=1e-18))
        assert result.stop_reason == "stalled"
        assert result.iterations <= 15

    def test_unreachable_decrease_fails_the_line_search(self, aniso_weights, monkeypatch):
        # every trial state has energy +inf, so no step length passes the Armijo test
        monkeypatch.setattr(solver_module, "EnergyKernel", InfiniteTrialKernel)
        result = minimize("toda", aniso_weights, RhoPair(2 * np.pi, 2 * np.pi), EMPTY)
        assert result.stop_reason == "line-search-failed"
        assert not result.converged

    def test_reason_is_converged_exactly_when_the_solve_converged(self, aniso_weights):
        for config in (LOOSE, SolverConfig(max_iterations=0)):
            result = minimize("toda", aniso_weights, RhoPair(2 * np.pi, 2 * np.pi), EMPTY,
                              config)
            assert result.converged == (result.stop_reason == "converged")
        assert result.stop_reason == "iteration-cap"


# ----- reference: the real-space descent loop on complex full-spectrum FFTs ---

class ReferenceDescent:
    """The preconditioned steepest descent as it ran before the spectral
    state: every energy and gradient evaluation assembled in real space from
    complex np.fft transforms, every trial re-centred to zero mean.  Its line
    search sees the Dirichlet part as int |grad u|^2 with Nyquist-free
    derivatives, as that descent did; the energy it returns is that of its
    final state with the Dirichlet part int u (-Lap u) on the full symbol,
    the energy whose exact gradient `gradient` is and `minimize` reports."""

    def __init__(self, torus):
        n = torus.n
        h1, h2 = torus.spacing
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=h1)
        k2 = 2.0 * np.pi * np.fft.fftfreq(n, d=h2)
        self.minus_lap = k1[:, None] ** 2 + k2[None, :] ** 2
        k1[n // 2] = 0.0
        k2[n // 2] = 0.0
        self.k1, self.k2 = k1[:, None], k2[None, :]
        self.area = torus.cell_area

    def lap(self, v):
        return np.fft.ifft2(-self.minus_lap * np.fft.fft2(v)).real

    def grad(self, v):
        vh = np.fft.fft2(v)
        return np.fft.ifft2(1j * self.k1 * vh).real, np.fft.ifft2(1j * self.k2 * vh).real

    def log_int(self, v, w):
        with np.errstate(divide="ignore"):
            t = v + np.log(w)
        m = t.max()
        return m + np.log(np.exp(t - m).sum() * self.area)

    def density(self, v, w):
        with np.errstate(divide="ignore"):
            return np.exp(v + np.log(w) - self.log_int(v, w))

    def energy(self, problem, vals, h, rho, full_symbol=False):
        if problem == "toda":
            if full_symbol:
                a, b = vals
                lap_a, lap_b = self.lap(a), self.lap(b)
                q = -(a * lap_a + b * lap_b + a * lap_b) / 3.0
            else:
                (a1, a2), (b1, b2) = self.grad(vals[0]), self.grad(vals[1])
                q = (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2 + a1 * b1 + a2 * b2) / 3.0
            total = q.sum() * self.area
            for r, v, w in zip(rho, vals, h):
                total += r * (v.sum() * self.area - self.log_int(v, w))
            return total
        if full_symbol:
            dirichlet = -(vals[0] * self.lap(vals[0]))
        else:
            g1, g2 = self.grad(vals[0])
            dirichlet = g1 * g1 + g2 * g2
        avg = vals[0].sum() * self.area
        return (0.5 * dirichlet.sum() * self.area
                + rho.rho1 * (avg - self.log_int(vals[0], h[0]))
                + rho.rho2 * (-avg - self.log_int(-vals[0], h[0])))

    def gradient(self, problem, vals, h, rho):
        if problem == "toda":
            lap1, lap2 = self.lap(vals[0]), self.lap(vals[1])
            g = [-(2.0 / 3.0) * lap1 - (1.0 / 3.0) * lap2
                 + rho.rho1 * (1.0 - self.density(vals[0], h[0])),
                 -(1.0 / 3.0) * lap1 - (2.0 / 3.0) * lap2
                 + rho.rho2 * (1.0 - self.density(vals[1], h[1]))]
        else:
            g = [-self.lap(vals[0]) - rho.rho1 * (self.density(vals[0], h[0]) - 1.0)
                 + rho.rho2 * (self.density(-vals[0], h[0]) - 1.0)]
        return [gi - gi.mean() for gi in g]

    def minimize(self, problem, h, rho, config, state):
        tau = 1.0
        area = self.area

        def smooth(g):
            return [-np.fft.ifft2(np.fft.fft2(gi) / (self.minus_lap + tau)).real for gi in g]

        current = self.energy(problem, state, h, rho)
        converged = False
        for iterations in range(config.max_iterations + 1):
            g = self.gradient(problem, state, h, rho)
            direction = smooth(g)
            residual = np.sqrt(sum((d * d).sum() for d in direction) * area)
            if residual <= config.gradient_tolerance:
                converged = True
                break
            if iterations == config.max_iterations:
                break
            slope = sum((gi * di).sum() for gi, di in zip(g, direction)) * area
            if slope >= 0.0:
                break
            step = 1.0
            accepted = False
            while step > 1e-16:
                trial = [s + step * d for s, d in zip(state, direction)]
                trial = [t - t.mean() for t in trial]
                value = self.energy(problem, trial, h, rho)
                if value <= current + 1e-4 * step * slope:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            stalled = current - value <= 4.0 * np.finfo(float).eps * (1.0 + abs(current))
            state, current = trial, value
            if stalled:
                break
        if not converged:
            direction = smooth(self.gradient(problem, state, h, rho))
            residual = np.sqrt(sum((d * d).sum() for d in direction) * area)
            converged = residual <= config.gradient_tolerance
        return converged, iterations, self.energy(problem, state, h, rho, full_symbol=True)


def criterion_8_problems(torus, singular):
    """The two solves of acceptance criterion 8, posed on `torus`.

    The two-component tolerance is 1e-8, not 5e-9: at n=64, 5e-9 lies inside
    the descent's float-floor band, where whether the reference converges
    turns on round-off (a 1e-12 change of the zero start flips it)."""
    x1, x2 = torus.grids()
    h1 = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    h2 = torus.field(1.0 + 0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(4 * np.pi * x2))
    start = random_smooth_field(torus, np.random.default_rng(0), modes=4, scale=0.5)
    return (("toda", (h1, h2), RhoPair(2 * np.pi, 2 * np.pi), SolverConfig(gradient_tolerance=1e-8),
             None),
            ("meanfield", h1, RhoPair(4 * np.pi, 4 * np.pi), SolverConfig(gradient_tolerance=1e-8),
             (start,)))


class TestAgainstTheReferenceDescent:
    @pytest.mark.parametrize("marked", (False, True), ids=("plain", "marked-points"))
    def test_same_outcome_as_the_real_space_loop(self, torus64, marked):
        singular = (SingularData.of([(0.3, 0.6), (0.7, 0.1)], [0.5, 1.0], [1.0, 0.5], torus64)
                    if marked else EMPTY)
        reference = ReferenceDescent(torus64)
        for problem, h, rho, config, initial in criterion_8_problems(torus64, singular):
            result = minimize(problem, h, rho, singular, config, initial)
            pair = h if problem == "toda" else (h, h)
            weights = [desingularized_weight(w, singular, i + 1).values
                       for i, w in enumerate(pair)]
            start = ([np.zeros((torus64.n, torus64.n))] * 2 if initial is None
                     else [f.values - f.values.mean() for f in initial])
            converged, iterations, energy = reference.minimize(problem, weights, rho, config,
                                                               start)
            # Newton converges wherever the descent does, and also on the
            # marked scalar problem, where the descent stalls at its float
            # floor (103 iterations, as the descent in `minimize` did)
            assert result.converged, problem
            assert converged or (marked and problem == "meanfield"), problem
            # Newton needs a handful of steps where the descent needs dozens
            assert result.iterations <= 20, problem
            assert result.iterations < iterations, problem
            # the scalar minimum sits at energy 0, so relative agreement is
            # taken against the energy's unit scale there
            assert abs(result.energy - energy) <= 1e-12 * max(abs(energy), 1.0), problem


class TestStrongResidual:
    def test_random_start_scalar_solves_certify(self, torus64):
        # The smoothed residual is weaker than the strong one by a factor that
        # exceeds 200 here, so a solve that stops just under 1.5e-8
        # would miss 1e-6.  The forcing rule takes each converging Newton step
        # well past the tolerance.
        x1, x2 = torus64.grids()
        gap1, gap2 = np.abs(x1 - 0.3), np.abs(x2 - 0.4)
        squared = np.minimum(gap1, 1 - gap1) ** 2 + np.minimum(gap2, 1 - gap2) ** 2
        h = torus64.field(1.0 + 0.5 * np.exp(-squared / (2 * 0.15**2)))
        singular = SingularData.of([(0.5, 0.5)], [1.0], [1.0], torus64)
        rho = RhoPair(4 * np.pi, 4 * np.pi)
        config = SolverConfig(gradient_tolerance=1.5e-8)
        for seed in range(8):
            start = (random_smooth_field(torus64, np.random.default_rng(seed), modes=4,
                                         scale=0.5),)
            result = minimize("meanfield", h, rho, singular, config, start)
            assert result.converged, seed
            assert pde_residual("meanfield", result.u, h, rho, singular) <= 1e-6, seed


# ----- reference: the per-problem formulas of the string-dispatched solver ---

def resolved_weights(problem, h, singular):
    """The desingularized weights, one per component (two for "toda")."""
    if problem == "toda":
        return [desingularized_weight(w, singular, i + 1).values for i, w in enumerate(h)]
    return [desingularized_weight(h, singular, 1).values]


def reference_exponential(values, weight):
    return weight * np.exp(values - values.max())


def reference_pde_residual(u, weights, rho):
    torus = u[0].torus

    def density(values, weight):
        raw = reference_exponential(values, weight)
        return raw / (raw.sum() * torus.cell_area)

    if len(u) == 2:
        f1, f2 = density(u[0].values, weights[0]), density(u[1].values, weights[1])
        r1 = -laplacian_array(torus, u[0].values) \
            - 2.0 * rho.rho1 * (f1 - 1.0) + rho.rho2 * (f2 - 1.0)
        r2 = -laplacian_array(torus, u[1].values) \
            - 2.0 * rho.rho2 * (f2 - 1.0) + rho.rho1 * (f1 - 1.0)
        return float(np.sqrt(((r1 * r1 + r2 * r2).sum()) * torus.cell_area))
    f_plus, f_minus = density(u[0].values, weights[0]), density(-u[0].values, weights[0])
    r = -laplacian_array(torus, u[0].values) \
        - rho.rho1 * (f_plus - 1.0) + rho.rho2 * (f_minus - 1.0)
    return float(np.sqrt((r * r).sum() * torus.cell_area))


def reference_masses(u, weights, rho, ball):
    def local_fraction(values, weight):
        raw = reference_exponential(values, weight)
        return float(raw[ball].sum() / raw.sum())

    if len(u) == 2:
        return (rho.rho1 * local_fraction(u[0].values, weights[0]),
                rho.rho2 * local_fraction(u[1].values, weights[1]))
    return (rho.rho1 * local_fraction(u[0].values, weights[0]),
            rho.rho2 * local_fraction(-u[0].values, weights[0]))


def reference_cases(torus, aniso_weights):
    """(problem, weights, state, rho, singular): both problems, with and
    without two marked points, at random states far from solving."""
    rng = np.random.default_rng(17)
    marked = SingularData.of([(0.3, 0.6), (0.7, 0.1)], [0.5, 1.0], [1.0, 0.5], torus)
    for singular in (EMPTY, marked):
        yield ("toda", aniso_weights,
               (random_smooth_field(torus, rng, scale=1.5), random_smooth_field(torus, rng)),
               RhoPair(2 * np.pi, 3.0), singular)
        yield ("meanfield", aniso_weights[0], (random_smooth_field(torus, rng, scale=1.5),),
               RhoPair(4 * np.pi, 5.0), singular)


class TestAgainstThePerProblemFormulas:
    def test_pde_residual(self, torus64, aniso_weights):
        for problem, h, u, rho, singular in reference_cases(torus64, aniso_weights):
            expected = reference_pde_residual(u, resolved_weights(problem, h, singular), rho)
            assert pde_residual(problem, u, h, rho, singular) == pytest.approx(expected, rel=1e-12), \
                (problem, singular.points)

    def test_blowup_masses(self, torus64, aniso_weights):
        centers = [torus64.point(0.3, 0.6), torus64.point(0.5, 0.5), torus64.point(0.9, 0.2)]
        r = 0.2
        for problem, h, u, rho, singular in reference_cases(torus64, aniso_weights):
            weights = resolved_weights(problem, h, singular)
            for report in blowup_masses(problem, u, h, rho, centers, r, singular):
                ball = torus64.distance_field(report.center) <= r
                expected = reference_masses(u, weights, rho, ball)
                assert report.masses == pytest.approx(expected, rel=1e-12), \
                    (problem, singular.points, report.center)


class TestPdeResidual:
    def test_zero_state_constant_weight(self, torus64):
        h = torus64.constant_field(1.0)
        u = (torus64.constant_field(0.0), torus64.constant_field(0.0))
        assert pde_residual("toda", u, (h, h), RhoPair(2 * np.pi, 2 * np.pi), EMPTY) \
            == pytest.approx(0.0, abs=1e-12)

    def test_random_state_is_far_from_solving(self, torus64, aniso_weights):
        rng = np.random.default_rng(7)
        u = (random_smooth_field(torus64, rng), random_smooth_field(torus64, rng))
        assert pde_residual("toda", u, aniso_weights, RhoPair(2 * np.pi, 2 * np.pi), EMPTY) \
            > 1e-2

    def test_two_component_tracks_the_gradient_norm(self, torus64, aniso_weights):
        # the two assemblies are independent; their norms agree within a fixed factor
        rng = np.random.default_rng(11)
        rho = RhoPair(2 * np.pi, 3.0)
        for _ in range(20):
            u = (random_smooth_field(torus64, rng), random_smooth_field(torus64, rng))
            strong = pde_residual("toda", u, aniso_weights, rho, EMPTY)
            weak = gradient_norm("toda", u, aniso_weights, rho)
            assert weak / 10.0 <= strong <= 10.0 * weak

    def test_scalar_matches_the_gradient_exactly(self, torus64):
        x1, _ = torus64.grids()
        h = torus64.field(1.0 + 0.5 * np.sin(2 * np.pi * x1))
        rng = np.random.default_rng(13)
        rho = RhoPair(4.0, 2.0)
        for _ in range(20):
            u = (random_smooth_field(torus64, rng),)
            strong = pde_residual("meanfield", u, h, rho, EMPTY)
            weak = gradient_norm("meanfield", u, h, rho)
            assert strong == pytest.approx(weak, rel=1e-9)


    def test_field_count_must_match_the_problem(self, torus64, aniso_weights):
        u = (torus64.constant_field(0.0), torus64.constant_field(0.0))
        with pytest.raises(ValueError, match=r"'meanfield' takes 1 field\(s\), got 2"):
            pde_residual("meanfield", u, aniso_weights[0], RhoPair(1.0, 1.0), EMPTY)


class TestContinuation:
    def test_clear_box_passes(self):
        check_continuation_box("toda", RhoPair(2 * np.pi, 2 * np.pi), np.pi / 2, EMPTY)

    def test_vertical_line_crossing_aborts(self):
        with pytest.raises(ValueError, match="vertical line rho1"):
            check_continuation_box("toda", RhoPair(4 * np.pi, 2 * np.pi), 0.5, EMPTY)

    def test_horizontal_line_crossing_aborts(self):
        with pytest.raises(ValueError, match=r"horizontal line rho2 = 12\.566371$"):
            check_continuation_box("toda", RhoPair(2 * np.pi, 4 * np.pi), 0.5, EMPTY)

    def test_isolated_point_aborts_and_is_named(self):
        # 2 pi (6.708..., 2.417...) for weights (0.5, 2.0): more than 2.6 from every line
        singular = SingularData.of([(0.5, 0.5)], [0.5], [2.0], FlatTorus(32))
        with pytest.raises(ValueError, match=r"forbidden point \(42\.150296420051, "
                                             r"15\.189124874672\)$"):
            check_continuation_box("toda", RhoPair(42.0, 15.0), 0.5, singular)

    def test_scalar_line_crossing_aborts(self):
        with pytest.raises(ValueError, match=r"vertical line rho1 = 25\.132741$"):
            check_continuation_box("meanfield", RhoPair(8 * np.pi, 1.0), 0.5, EMPTY)

    @pytest.mark.parametrize("problem, center, message", (
        ("meanfield", RhoPair(0.0, float(8 * np.pi)), r"horizontal line rho2 = 25\.132741$"),
        ("toda", RhoPair(float(4 * np.pi), 1.0), r"vertical line rho1 = 12\.566371$"),
    ), ids=("meanfield", "toda"))
    def test_a_line_within_round_off_of_a_zero_box_is_refused(self, problem, center, message):
        # the listed lines are rounded to 12 digits, 3.5e-13 and 1.7e-13 from
        # float(8 pi) and float(4 pi): the box check reaches ROUND_OFF past 2 nu
        with pytest.raises(ValueError, match=message):
            check_continuation_box(problem, center, 0.0, EMPTY)

    def test_sweep_converges_with_continuous_energies(self, aniso_weights):
        nu = np.pi / 2
        results = continuation_sweep("toda", RhoPair(2 * np.pi, 2 * np.pi), nu, 5,
                                     aniso_weights, EMPTY, LOOSE)
        assert len(results) == 5
        assert all(r.converged for r in results)
        energies = np.array([r.energy for r in results])
        jumps = np.abs(np.diff(energies))
        slope_scale = (energies.max() - energies.min()) / (2.0 * nu)
        step = nu / 2.0
        assert jumps.max() <= 10.0 * slope_scale * step + 1e-12

    def test_warm_start_beats_cold_start(self, aniso_weights):
        nu = 0.4
        results = continuation_sweep("toda", RhoPair(2 * np.pi, 2 * np.pi), nu, 3,
                                     aniso_weights, EMPTY, LOOSE)
        rho_last = RhoPair(2 * np.pi + nu, 2 * np.pi + nu)
        cold = minimize("toda", aniso_weights, rho_last, EMPTY, LOOSE)
        assert results[-1].converged and cold.converged

        def steps(result):  # Newton steps on both levels
            return result.coarse_iterations + result.iterations
        assert steps(results[-1]) < steps(cold)

    def test_sweep_aborts_before_solving_on_a_bad_box(self, aniso_weights):
        with pytest.raises(ValueError, match="vertical line"):
            continuation_sweep("toda", RhoPair(4 * np.pi, 2 * np.pi), 0.5, 3,
                               aniso_weights, EMPTY, LOOSE)

    def test_step_count_validation(self, aniso_weights):
        with pytest.raises(ValueError, match="one continuation step"):
            continuation_sweep("toda", RhoPair(2 * np.pi, 2 * np.pi), 0.1, 0,
                               aniso_weights, EMPTY, LOOSE)

    def test_coercive_grid_always_converges(self):
        # every point of a 5x5 interaction grid inside the coercive square,
        # solved from zero on a fine grid, must finish within the default budget
        torus = FlatTorus(128)
        x1, x2 = torus.grids()
        h1 = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
        h2 = torus.field(1.0 + 0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(4 * np.pi * x2))
        for r1 in np.linspace(np.pi, 3.5 * np.pi, 5):
            for r2 in np.linspace(np.pi, 3.5 * np.pi, 5):
                result = minimize("toda", (h1, h2), RhoPair(r1, r2), EMPTY)
                assert result.converged, (r1, r2)
                assert result.iterations < 2000


class TestBlowupMasses:
    def test_radius_must_resolve_the_grid(self, torus64):
        u = (torus64.constant_field(0.0), torus64.constant_field(0.0))
        h = torus64.constant_field(1.0)
        with pytest.raises(ValueError, match="must exceed"):
            blowup_masses("toda", u, h, RhoPair(1.0, 1.0), [torus64.point(0.5, 0.5)], 0.02)

    def test_field_count_must_match_the_problem(self, torus64):
        h = torus64.constant_field(1.0)
        with pytest.raises(ValueError, match=r"'toda' takes 2 field\(s\), got 1"):
            blowup_masses("toda", (torus64.constant_field(0.0),), h, RhoPair(1.0, 1.0),
                          [torus64.point(0.5, 0.5)], 0.25)

    def test_uniform_state_mass_is_the_area_fraction(self, torus64):
        u = (torus64.constant_field(0.0), torus64.constant_field(0.0))
        h = torus64.constant_field(1.0)
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        r = 0.25
        reports = blowup_masses("toda", u, h, rho, [torus64.point(0.3, 0.4)], r)
        expected = rho.rho1 * np.pi * r * r
        assert reports[0].masses[0] == pytest.approx(expected, rel=0.15)
        assert reports[0].masses[1] == pytest.approx(expected, rel=0.15)

    def test_concentrated_bubble_reports_its_candidate(self, torus64):
        lam = 1e3
        p = torus64.point(0.5, 0.5)
        d = torus64.distance_field(p)
        u = (torus64.field(-2.0 * np.log1p((lam * d) ** 2)),
             torus64.constant_field(0.0))
        h = torus64.constant_field(1.0)
        rho = RhoPair(4 * np.pi, 1.0)
        report = blowup_masses("toda", u, h, rho, [p], 0.1)[0]
        assert report.masses[0] > 0.95 * 4 * np.pi
        assert report.nearest_candidate == pytest.approx((4 * np.pi, 0.0))
        assert report.candidate_distance == pytest.approx(
            np.hypot(report.masses[0] - 4 * np.pi, report.masses[1]))

    def test_mass_grows_with_the_ball(self, torus64):
        lam = 50.0
        p = torus64.point(0.25, 0.75)
        d = torus64.distance_field(p)
        u = (torus64.field(-2.0 * np.log1p((lam * d) ** 2)),
             torus64.constant_field(0.0))
        h = torus64.constant_field(1.0)
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        small = blowup_masses("toda", u, h, rho, [p], 0.1)[0]
        large = blowup_masses("toda", u, h, rho, [p], 0.3)[0]
        assert small.masses[0] <= large.masses[0]
        assert small.masses[1] <= large.masses[1]

    @pytest.mark.parametrize("points, weights, used", (
        # point 1 is 0.01 from the center, point 0 is 0.08 away: point 1's table
        ([(0.5, 0.58), (0.5, 0.51)], [0.5, 3.0], 1),
        # both are exactly 0.0625 away: the tie goes to the lower index
        ([(0.5, 0.5625), (0.5, 0.4375)], [0.5, 3.0], 0),
    ), ids=("nearest", "tie"))
    def test_table_comes_from_the_nearest_marked_point(self, torus64, points, weights, used):
        singular = SingularData.of(points, weights, weights, torus64)
        u = (torus64.constant_field(0.0), torus64.constant_field(0.0))
        rho = RhoPair(2 * np.pi, 2 * np.pi)
        report = blowup_masses("toda", u, torus64.constant_field(1.0), rho,
                               [torus64.point(0.5, 0.5)], 0.1, singular)[0]
        table = blowup_candidates(singular, used)
        expected = min(table, key=lambda c: np.hypot(c[0] - report.masses[0],
                                                     c[1] - report.masses[1]))
        assert report.nearest_candidate == expected
        assert report.nearest_candidate not in blowup_candidates(singular, 1 - used)

    def test_singular_weight_enters_the_scalar_table(self):
        # a profile concentrating at a marked point of weight alpha carries
        # mass 8 pi (1 + alpha); the lookup table must offer that entry
        torus = FlatTorus(128)
        alpha = 1.5
        p = torus.snap(torus.point(0.5, 0.5))
        singular = SingularData.of([(p.x1, p.x2)], [alpha], [0.0], torus)
        lam = 30.0
        d = torus.distance_field(p)
        u = (torus.field(-2.0 * np.log1p((lam * d) ** (2.0 * (1.0 + alpha)))),)
        h = torus.constant_field(1.0)
        target = 8.0 * np.pi * (1.0 + alpha)
        report = blowup_masses("meanfield", u, h, RhoPair(target, 1.0), [p], 0.2,
                               singular)[0]
        assert report.masses[0] > 0.9 * target
        assert report.nearest_candidate[0] == pytest.approx(target)
