"""Energy minimization in coercive regimes, residual certification, continuation.

`minimize` runs Newton-CG.  Each Newton step solves H p = -g inexactly by
conjugate gradients, preconditioned by mixing^-1 (x) (-Laplacian + tau)^-1,
with the exact Hessian-vector products of `EnergyKernel.hessian_vector`.
The inner solve stops once its L2 residual is below eta ||g|| with the
fixed forcing term eta = min(0.5, ||g||^1.5) (Eisenstat-Walker), at
negative curvature (Steihaug; a first-iteration stop falls back to the
preconditioned gradient step), or after a fixed cap of products.  The step
is globalised by Armijo backtracking on the energy; a unit step whose
energy change is within the float floor is accepted too, since Armijo
cannot judge it there.  Convergence is declared on the L2 norm of the
gradient smoothed by (-Laplacian + tau)^-1.

The iterate is held as half-spectrum (real-FFT) coefficients with the
constant mode at zero (the energies only see mean-free fields).  Per
component, evaluating a trial state takes one inverse transform (its node
values, for the exponential terms; the Dirichlet part is a Parseval sum),
the gradient one forward transform of its nonlinear part, and a
Hessian-vector product one inverse and one forward transform.  Residuals,
slopes and CG inner products are Parseval sums.  A step whose energy change
is at the float floor and that does not halve the smoothed residual ends
the solve as `stalled`: below that floor the steps only stir round-off.
`SolveResult.stop_reason` says which of the five exits ended the solve.

With n % 4 == 0 and n >= 32, `_newton` runs first at n/2, on the fine weights
and the start sampled on the even nodes (nested iteration, Brandt 1977), then
at n from the converged coarse iterate zero-padded (`geometry.prolong`), or
else from the start.  `iterations` counts the steps at n.  `energy_gap` =
E_n - E_{n/2}, the two-grid gap of u at fixed, sampled weights, leaves out the
snap of marked points to nodes; a grid-scale bubble reads about -9.

`pde_residual` assembles the strong-form equations directly (its own density
normalization, not the energy-gradient code path) so a converged result can
be certified independently.  `continuation_sweep` walks a diagonal segment of
interaction strengths, warm-starting each solve from the previous one, after
checking that the surrounding box stays clear of the forbidden quantization
set.  `blowup_masses` reports local exponential masses around candidate
concentration points against the quantization tables — a diagnostic, never an
assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .functionals import EnergyKernel, Evaluation, RhoPair
from .geometry import (
    GridField,
    Point,
    SingularData,
    from_spectrum,
    laplacian_array,
    minus_laplacian_symbol,
    prolong,
    spectral_inner,
    to_spectrum,
)
from .quantization import DEDUP_TOLERANCE, ROUND_OFF, blowup_candidates, forbidden_window


# Hessian-vector products per Newton step at most (the inner CG cap)
_CG_CAP = 20
# backtracking factor and Armijo constant of the line search
_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4
# tau in the preconditioner (-Lap + tau)^-1 and in the smoothed stop residual
_PRECONDITIONER_SHIFT = 1.0


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("iteration cap must be non-negative")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient tolerance must be positive")


@dataclass(frozen=True)
class SolveResult:
    u: tuple[GridField, ...]
    energy: float
    residual_norm: float
    iterations: int  # Newton steps at n
    coercive: bool
    # why the solve stopped: "converged", "iteration-cap", "no-descent",
    # "line-search-failed" or "stalled" (energy at the float floor)
    stop_reason: str
    energy_coarse: Optional[float] = None  # at n/2, when that level converged
    coarse_iterations: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def energy_gap(self) -> Optional[float]:
        """E_n - E_{n/2} when both levels converged, else None."""
        converged = self.converged and self.energy_coarse is not None
        return self.energy - self.energy_coarse if converged else None


def minimize(problem: str, h, rho: RhoPair, singular: SingularData,
             config: SolverConfig = SolverConfig(),
             initial: Optional[tuple[GridField, ...]] = None) -> SolveResult:
    """Newton-CG from the given (or zero) state, at n/2 first when n % 4 == 0 and n >= 32."""
    kernel = EnergyKernel.of(problem, h, rho, singular)
    torus, ncomp = kernel.torus, len(kernel.mixing)
    if initial is None:
        initial = tuple(torus.constant_field(0.0) for _ in range(ncomp))
    elif len(initial) != ncomp:
        raise ValueError(f"initial guess must have {ncomp} component(s)")
    if torus.n % 4 or torus.n < 32:
        return _newton(kernel, [to_spectrum(f.values) for f in initial], config)
    coarse = _newton(kernel.coarsened(), [to_spectrum(f.values[::2, ::2]) for f in initial],
                     config)
    start = ([prolong(to_spectrum(f.values)) for f in coarse.u] if coarse.converged
             else [to_spectrum(f.values) for f in initial])
    return replace(_newton(kernel, start, config), coarse_iterations=coarse.iterations,
                   energy_coarse=coarse.energy if coarse.converged else None)


def _newton(kernel: EnergyKernel, spectra: list, config: SolverConfig) -> SolveResult:
    """Newton-CG on the kernel's grid from the half spectra `spectra`, whose
    constant modes it sets to zero."""
    torus = kernel.torus
    for coeffs in spectra:
        coeffs[0, 0] = 0.0
    shifted = minus_laplacian_symbol(torus) + _PRECONDITIONER_SHIFT
    unmixing = np.linalg.inv(kernel.mixing)

    def inner(a: list, b: list) -> float:
        return sum(spectral_inner(torus, ai, bi) for ai, bi in zip(a, b))

    def precondition(r: list) -> list:
        """mixing^-1 (x) (-Lap + tau)^-1 applied to the half spectra r."""
        return [sum(m * ri for m, ri in zip(row, r)) / shifted for row in unmixing]

    def newton_direction(g: list, at: Evaluation) -> list:
        """Preconditioned CG on H p = -g from p = 0, stopped at the forcing
        residual or at negative curvature (where the first iteration falls
        back to the preconditioned gradient step)."""
        g_norm = np.sqrt(inner(g, g))
        target = min(0.5, g_norm ** 1.5) * g_norm
        r = [-gi for gi in g]
        d = precondition(r)
        p, rz = None, inner(r, d)
        for _ in range(_CG_CAP):
            hd = kernel.hessian_vector(at, d)
            curvature = inner(d, hd)
            if curvature <= 0.0:
                return d if p is None else p  # d is still the first search direction
            alpha = rz / curvature
            if p is None:
                p = [alpha * di for di in d]
            else:
                for pi, di in zip(p, d):
                    pi += alpha * di
            for ri, hi in zip(r, hd):
                ri -= alpha * hi
            del hd  # freed before the next product, which bounds peak memory
            if np.sqrt(inner(r, r)) <= target:
                break
            z = precondition(r)
            rz, previous = inner(r, z), rz
            for di, zi in zip(d, z):
                di *= rz / previous
                di += zi
            del z
        return p

    def evaluate(spectra: list) -> Evaluation:
        return kernel.evaluate([from_spectrum(torus, c) for c in spectra], spectra)

    evaluation = evaluate(spectra)
    current = evaluation.report.total
    reason = "iteration-cap"
    iterations = 0
    previous_residual = np.inf
    at_floor = False
    for iterations in range(config.max_iterations + 1):
        g_hat = kernel.gradient(spectra, evaluation)
        residual = float(np.sqrt(sum(spectral_inner(torus, gi / shifted, gi / shifted)
                                     for gi in g_hat)))
        if residual <= config.gradient_tolerance:
            reason = "converged"
            break
        if at_floor and residual > 0.5 * previous_residual:
            # a step whose energy change was at the float floor and that did
            # not halve the residual: Newton would, so only round-off is left
            reason = "stalled"
            break
        if iterations == config.max_iterations:
            break
        p_hat = newton_direction(g_hat, evaluation)
        slope = inner(g_hat, p_hat)
        del g_hat
        if slope >= 0.0:
            reason = "no-descent"  # only round-off can get here: stagnate honestly
            break
        tiny = 4.0 * np.finfo(float).eps * (1.0 + abs(current))
        step = 1.0
        accepted = False
        while step > 1e-16:
            trial_spectra = [s + step * p for s, p in zip(spectra, p_hat)]
            trial = evaluate(trial_spectra)
            value = trial.report.total
            # a unit step whose energy change is below float resolution cannot
            # be judged by Armijo; take it and let the residual decide
            if (value <= current + _SUFFICIENT_DECREASE * step * slope
                    or (step == 1.0 and abs(value - current) <= tiny)):
                accepted = True
                break
            step *= _SHRINK
        if not accepted:
            reason = "line-search-failed"
            break
        at_floor = abs(current - value) <= tiny
        previous_residual = residual
        spectra, evaluation, current = trial_spectra, trial, value

    fields = tuple(GridField(torus, from_spectrum(torus, c)) for c in spectra)
    return SolveResult(fields, current, residual, iterations, kernel.coercive, reason)


def _kernel(problem: str, u: Sequence[GridField], h, rho: RhoPair,
            singular: SingularData) -> EnergyKernel:
    """The named problem's kernel; raises when u has the wrong number of fields."""
    kernel = EnergyKernel.of(problem, h, rho, singular)
    if len(u) != len(kernel.mixing):
        raise ValueError(f"problem {problem!r} takes {len(kernel.mixing)} field(s), got {len(u)}")
    return kernel


def _exponentials(kernel: EnergyKernel, u: Sequence[GridField]) -> list[np.ndarray]:
    """Per exponential term (component c, sign s), h_k e^{s u_c} divided by its maximum."""
    out = []
    for (c, sign), log_h in zip(kernel.terms, kernel.log_weights):
        t = sign * u[c].values + log_h
        out.append(np.exp(t - t.max()))
    return out


def pde_residual(problem: str, u: Sequence[GridField], h, rho: RhoPair,
                 singular: SingularData) -> float:
    """L2 norm of the strong-form equations, assembled from scratch.

    "toda": -Lap u1 = 2 rho1 (f1 - 1) - rho2 (f2 - 1) and its mirror.
    "meanfield": -Lap u = rho1 (f+ - 1) - rho2 (f- - 1)."""
    kernel = _kernel(problem, u, h, rho, singular)
    torus = u[0].torus
    f = [e / (e.sum() * torus.cell_area) for e in _exponentials(kernel, u)]
    minus_lap = [-laplacian_array(torus, component.values) for component in u]
    if problem == "toda":
        residuals = (minus_lap[0] - 2.0 * rho.rho1 * (f[0] - 1.0) + rho.rho2 * (f[1] - 1.0),
                     minus_lap[1] - 2.0 * rho.rho2 * (f[1] - 1.0) + rho.rho1 * (f[0] - 1.0))
    else:
        residuals = (minus_lap[0] - rho.rho1 * (f[0] - 1.0) + rho.rho2 * (f[1] - 1.0),)
    return float(np.sqrt(sum((r * r).sum() for r in residuals) * torus.cell_area))


def check_continuation_box(problem: str, rho_center: RhoPair, nu: float,
                           singular: SingularData) -> None:
    """Require the 2-nu box around rho_center to avoid the named problem's
    forbidden set; raises naming the offending line or point.  The listed
    values are rounded to 12 digits, so an element within `ROUND_OFF` of the
    box's edge counts as inside it."""
    r1, r2 = rho_center.rho1, rho_center.rho2
    reach = 2.0 * nu + ROUND_OFF
    # pad the window past reach, so that merging at its edge drops no value within reach
    pad = 2.0 * nu + DEDUP_TOLERANCE
    gs = forbidden_window(problem, singular, (r1 - pad, r2 - pad), (r1 + pad, r2 + pad))
    for line, r, values in (("vertical line rho1", r1, gs.lambda1),
                            ("horizontal line rho2", r2, gs.lambda2)):
        crossed = np.flatnonzero(np.abs(r - values) <= reach)
        if crossed.size:
            raise ValueError(f"continuation box crosses the {line} = {values[crossed[0]]:.6f}")
    contained = np.flatnonzero(np.all(np.abs((r1, r2) - gs.lambda0) <= reach, axis=1))
    if contained.size:
        raise ValueError("continuation box contains the forbidden point "
                         f"{tuple(gs.lambda0[contained[0]].tolist())}")


def continuation_sweep(problem: str, rho_center: RhoPair, nu: float, steps: int,
                       h, singular: SingularData,
                       config: SolverConfig = SolverConfig()) -> list[SolveResult]:
    """Solve along rho_center + (mu, mu), mu in [-nu, nu], warm-starting each
    step from the previous solution."""
    if steps < 1:
        raise ValueError("need at least one continuation step")
    check_continuation_box(problem, rho_center, nu, singular)
    mus = np.linspace(-nu, nu, steps)
    results = []
    warm: Optional[tuple[GridField, ...]] = None
    for mu in mus:
        rho = RhoPair(rho_center.rho1 + mu, rho_center.rho2 + mu)
        result = minimize(problem, h, rho, singular, config, initial=warm)
        results.append(result)
        if result.converged:
            warm = result.u
    return results


@dataclass(frozen=True)
class MassReport:
    center: Point
    masses: tuple[float, ...]
    nearest_candidate: tuple[float, ...]
    candidate_distance: float


def blowup_masses(problem: str, u: Sequence[GridField], h, rho: RhoPair,
                  centers: Sequence[Point], r: float,
                  singular: SingularData = SingularData.empty()) -> list[MassReport]:
    """Local exponential masses rho_k * (f_k mass in B_r(center)) per center
    and exponential term, with the nearest entry of the named problem's
    quantization table for reference."""
    kernel = _kernel(problem, u, h, rho, singular)
    torus = u[0].torus
    if r <= 2.0 * torus.max_spacing:
        raise ValueError(f"ball radius {r} must exceed two grid spacings")
    exponentials = _exponentials(kernel, u)

    reports = []
    for center in centers:
        ball = torus.distance_field(center) <= r
        masses = tuple(rho_k * float(e[ball].sum() / e.sum())
                       for rho_k, e in zip(rho, exponentials))
        # candidate table at the nearest marked point if the ball reaches it (ties: lower index)
        nearest, index = min(((torus.distance(center, p), j)
                              for j, p in enumerate(singular.points)), default=(np.inf, None))
        table = blowup_candidates(singular, index if nearest <= r else None, problem)
        best = min(table, key=lambda c: np.hypot(c[0] - masses[0], c[1] - masses[1]))
        dist = float(np.hypot(best[0] - masses[0], best[1] - masses[1]))
        reports.append(MassReport(center, masses, best, dist))
    return reports
