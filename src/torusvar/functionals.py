"""Energy functionals on the torus and their L2 gradients.

Two variational problems share this module:

* the two-component system energy
      J_rho(u1, u2) = int Q(u1, u2) + sum_i rho_i (int u_i - log int h_i e^{u_i}),
  with Q = (1/3)(|grad u1|^2 + |grad u2|^2 + grad u1 . grad u2);
* the scalar sinh-type energy
      I_rho(u) = 1/2 int |grad u|^2 - rho_1 (log int h e^u - int u)
                                    - rho_2 (log int h e^{-u} + int u).

Both are invariant under adding constants to the unknowns, so every
exponential integral is evaluated with a max-shifted log-sum-exp and the
returned gradients have zero mean.  One kernel, `EnergyKernel`, evaluates
both energies, their gradients and Hessian-vector products from a state
given as node values plus half-spectrum coefficients; the public functions
call it.  Diagnostic ratios for the sharp
exponential-integrability (Moser-Trudinger type) constants live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    FlatTorus,
    GridField,
    SingularData,
    desingularized_weight,
    dirichlet_energy,
    from_spectrum,
    gradient_arrays,
    integrate,
    minus_laplacian_symbol,
    spectral_inner,
    to_spectrum,
)


@dataclass(frozen=True)
class RhoPair:
    """The two interaction strengths (rho1, rho2)."""

    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        if self.rho1 < 0 or self.rho2 < 0:
            raise ValueError(f"interaction strengths must be non-negative, got {self}")

    def __iter__(self):
        return iter((self.rho1, self.rho2))


@dataclass(frozen=True)
class EnergyReport:
    """Decomposed energy value: total = dirichlet + sum_i rho_i (average_i - logexp_i)."""

    dirichlet: float
    average_terms: tuple[float, float]
    logexp_terms: tuple[float, float]
    total: float

    @staticmethod
    def assemble(dirichlet: float, averages: tuple[float, float],
                 logexps: tuple[float, float], rho: RhoPair) -> "EnergyReport":
        total = dirichlet + rho.rho1 * (averages[0] - logexps[0]) \
            + rho.rho2 * (averages[1] - logexps[1])
        return EnergyReport(dirichlet, averages, logexps, total)


def _log_weight(weight: GridField) -> np.ndarray:
    """log(weight), -inf where it vanishes; weight >= 0 with a positive integral."""
    w = weight.values
    if w.min() < 0 or w.max() <= 0:
        raise ValueError("weight must be non-negative with positive integral")
    with np.errstate(divide="ignore"):
        return np.log(w)


def _check_grid(u: GridField, torus: FlatTorus) -> None:
    if u.torus is not torus and u.torus != torus:
        raise ValueError("field and weight live on different grids")


def _log_integral(t: np.ndarray, cell_area: float) -> tuple[float, np.ndarray, float]:
    """log int e^t with a max shift, and the shifted exponential e^{t - max t}
    with its sum."""
    shift = t.max()
    e = np.exp(t - shift)
    total = e.sum()
    return float(shift + np.log(total * cell_area)), e, total


def log_integral_exp(u: GridField, weight: GridField) -> float:
    """log int( weight * e^u ) with a max shift; weight >= 0, positive integral."""
    _check_grid(u, weight.torus)
    return _log_integral(u.values + _log_weight(weight), u.torus.cell_area)[0]


def normalized_density(u: GridField, weight: GridField) -> GridField:
    """The probability density weight * e^u / int(weight * e^u)."""
    _check_grid(u, weight.torus)
    _, e, total = _log_integral(u.values + _log_weight(weight), u.torus.cell_area)
    return GridField(u.torus, e / (total * u.torus.cell_area))


class Evaluation(NamedTuple):
    """One energy evaluation: the report and, per exponential term, the shifted
    exponential e^{t - max t} with its sum, which the gradient reuses."""

    report: EnergyReport
    exponentials: tuple[tuple[np.ndarray, float], ...]


@dataclass(frozen=True)
class EnergyKernel:
    """J_rho or I_rho with the grid, the weights and the strengths fixed.

    A state is passed twice: as node values, for the exponential terms, and
    as half-spectrum coefficients, for the Dirichlet part by Parseval.  The
    Dirichlet part is 1/2 sum_ij mixing[i][j] int u_i (-Lap u_j), with the
    Laplacian's full symbol, so that `gradient` is its exact derivative on
    every mode, Nyquist included.  The k-th exponential term, (component c,
    sign s), adds rho_k (s int u_c - log int h_k e^{s u_c}), with log h_k in
    log_weights[k].  Both strengths below `critical` make the energy
    coercive."""

    torus: FlatTorus
    rho: RhoPair
    mixing: tuple[tuple[float, ...], ...]
    terms: tuple[tuple[int, float], ...]
    log_weights: tuple[np.ndarray, ...]
    critical: float

    @classmethod
    def of(cls, problem: str, h, rho: RhoPair, singular: SingularData) -> "EnergyKernel":
        """The kernel of problem "toda" (weights (h1, h2), or one h for both) or
        "meanfield" (one h), each weight desingularized with its component's
        list; the scalar problem's marked points carry one weight, the first."""
        if problem == "toda":
            h1, h2 = h if isinstance(h, (tuple, list)) else (h, h)
            return cls.toda(desingularized_weight(h1, singular, 1),
                            desingularized_weight(h2, singular, 2), rho)
        if problem == "meanfield":
            if isinstance(h, (tuple, list)):
                raise ValueError("the scalar problem takes a single weight field")
            return cls.meanfield(desingularized_weight(h, singular, 1), rho)
        raise ValueError(f"unknown problem {problem!r} (expected 'toda' or 'meanfield')")

    @staticmethod
    def toda(h1: GridField, h2: GridField, rho: RhoPair) -> "EnergyKernel":
        _check_grid(h2, h1.torus)
        return EnergyKernel(h1.torus, rho, ((2.0 / 3.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0)),
                            ((0, 1.0), (1, 1.0)), (_log_weight(h1), _log_weight(h2)),
                            4.0 * np.pi)

    @staticmethod
    def meanfield(h: GridField, rho: RhoPair) -> "EnergyKernel":
        log_h = _log_weight(h)
        return EnergyKernel(h.torus, rho, ((1.0,),), ((0, 1.0), (0, -1.0)), (log_h, log_h),
                            8.0 * np.pi)

    @property
    def coercive(self) -> bool:
        return self.rho.rho1 < self.critical and self.rho.rho2 < self.critical

    def evaluate(self, values: Sequence[np.ndarray],
                 spectra: Sequence[np.ndarray]) -> Evaluation:
        """The energy of the state with node values `values` and half spectra `spectra`."""
        torus = self.torus
        minus_lap = minus_laplacian_symbol(torus)
        dirichlet = 0.0
        for i, row in enumerate(self.mixing):
            stiff = minus_lap * spectra[i]  # -Lap u_i
            dirichlet += 0.5 * row[i] * spectral_inner(torus, stiff, spectra[i])
            for j in range(i + 1, len(row)):
                dirichlet += row[j] * spectral_inner(torus, stiff, spectra[j])
        averages, logexps, exponentials = [], [], []
        for (c, sign), log_h in zip(self.terms, self.log_weights):
            t = values[c] + log_h if sign > 0 else log_h - values[c]
            logexp, e, total = _log_integral(t, torus.cell_area)
            averages.append(sign * float(values[c].sum() * torus.cell_area))
            logexps.append(logexp)
            exponentials.append((e, total))
        report = EnergyReport.assemble(dirichlet, tuple(averages), tuple(logexps), self.rho)
        return Evaluation(report, tuple(exponentials))

    def gradient(self, spectra: Sequence[np.ndarray], at: Evaluation) -> list[np.ndarray]:
        """Half spectra of the L2 gradient at the state `at` evaluated, with the
        constant mode set to zero."""
        cell_area = self.torus.cell_area
        # term k contributes rho_k s (1 - f_k), f_k = e_k / (sum e_k * cell_area);
        # its constant only reaches the zero mode, which is dropped
        nonlinear: list = [0.0] * len(self.mixing)
        for (c, sign), rho_k, (e, total) in zip(self.terms, self.rho, at.exponentials):
            nonlinear[c] = nonlinear[c] - (sign * rho_k / (total * cell_area)) * e
        return self._assemble(spectra, nonlinear)

    def hessian_vector(self, at: Evaluation, v_hat: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Half spectra of the Hessian at the state `at` evaluated applied to the
        direction with half spectra `v_hat`, with the constant mode set to zero.

        Term k contributes -rho_k f_k (v_c - int f_k v_c), the derivative of its
        gradient part -s rho_k f_k (d f_k = s f_k (v_c - int f_k v_c) and s^2 = 1).
        One product takes one inverse and one forward transform per component."""
        torus = self.torus
        cell_area = torus.cell_area
        v = [from_spectrum(torus, vi) for vi in v_hat]
        nonlinear: list = [0.0] * len(self.mixing)
        for (c, _), rho_k, (e, total) in zip(self.terms, self.rho, at.exponentials):
            fv = e * v[c]
            fv -= e * (fv.sum() / total)
            nonlinear[c] = nonlinear[c] - (rho_k / (total * cell_area)) * fv
        del v, fv
        return self._assemble(v_hat, nonlinear)

    def _assemble(self, spectra: Sequence[np.ndarray], nonlinear: list) -> list[np.ndarray]:
        """Per component, mixing (-Lap) applied to `spectra` plus the half spectrum
        of the node-valued `nonlinear` part, with the constant mode set to zero."""
        minus_lap = minus_laplacian_symbol(self.torus)
        out = []
        for row, part in zip(self.mixing, nonlinear):
            g = minus_lap * sum(a * s for a, s in zip(row, spectra)) + to_spectrum(part)
            g[0, 0] = 0.0
            out.append(g)
        return out

    def _state(self, fields: Sequence[GridField]) -> tuple[list, list]:
        for f in fields:
            _check_grid(f, self.torus)
        values = [f.values for f in fields]
        return values, [to_spectrum(v) for v in values]

    def energy_of(self, *fields: GridField) -> EnergyReport:
        values, spectra = self._state(fields)
        return self.evaluate(values, spectra).report

    def gradient_of(self, *fields: GridField) -> tuple[GridField, ...]:
        values, spectra = self._state(fields)
        grads = self.gradient(spectra, self.evaluate(values, spectra))
        return tuple(GridField(self.torus, from_spectrum(self.torus, g)) for g in grads)


# ----- two-component system -------------------------------------------------

def q_density(u1: GridField, u2: GridField) -> GridField:
    """Pointwise interaction density (1/3)(|grad u1|^2 + |grad u2|^2 + grad u1 . grad u2).

    The underlying quadratic form has eigenvalues 1/6 and 1/2, so the output is
    non-negative up to round-off."""
    a1, a2 = gradient_arrays(u1.torus, u1.values)
    b1, b2 = gradient_arrays(u2.torus, u2.values)
    q = (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2 + a1 * b1 + a2 * b2) / 3.0
    return GridField(u1.torus, q)


def toda_energy(u1: GridField, u2: GridField, h1: GridField, h2: GridField,
                rho: RhoPair) -> EnergyReport:
    """J_rho(u1, u2) = int Q + sum_i rho_i (int u_i - log int h_i e^{u_i})."""
    return EnergyKernel.toda(h1, h2, rho).energy_of(u1, u2)


def toda_gradient(u1: GridField, u2: GridField, h1: GridField, h2: GridField,
                  rho: RhoPair) -> tuple[GridField, GridField]:
    """L2 gradient of J_rho; both components returned with zero mean.

    A zero of this pair solves the strong system
        -Lap u1 = 2 rho1 (f1 - 1) - rho2 (f2 - 1),
        -Lap u2 = 2 rho2 (f2 - 1) - rho1 (f1 - 1),
    with f_i = h_i e^{u_i} / int h_i e^{u_i}."""
    return EnergyKernel.toda(h1, h2, rho).gradient_of(u1, u2)


# ----- scalar sinh-type functional ------------------------------------------

def meanfield_energy(u: GridField, h: GridField, rho: RhoPair) -> EnergyReport:
    """I_rho(u) with the two exponential terms carrying opposite signs of u."""
    return EnergyKernel.meanfield(h, rho).energy_of(u)


def meanfield_gradient(u: GridField, h: GridField, rho: RhoPair) -> GridField:
    """L2 gradient of I_rho, zero exactly when
    -Lap u = rho1 (f+ - 1) - rho2 (f- - 1), f+- = h e^{+-u} / int h e^{+-u}."""
    return EnergyKernel.meanfield(h, rho).gradient_of(u)[0]


# ----- sharp-constant diagnostics -------------------------------------------

def mt_ratio(u: GridField) -> float:
    """Saturation ratio log int e^{u - mean(u)} over (1/16pi) int |grad u|^2.

    The exponential-integrability inequality bounds the numerator by the
    denominator plus a constant, so concentrated peaks push the ratio
    toward 1 while smooth small fields keep it near 0."""
    dirichlet = dirichlet_energy(u)
    if dirichlet < 1e-14:
        raise ValueError("ratio undefined for (numerically) constant fields")
    mean = integrate(u) / (u.torus.L1 * u.torus.L2)
    centered = GridField(u.torus, u.values - mean)
    ones = u.torus.constant_field(1.0)
    numer = log_integral_exp(centered, ones)
    return float(numer / (dirichlet / (16.0 * np.pi)))


def mt_system_gap(u1: GridField, u2: GridField, h1: GridField, h2: GridField) -> float:
    """int Q - 4 pi sum_i (log int h_i e^{u_i} - int u_i); bounded below over all pairs.

    This is J_rho at rho = (4 pi, 4 pi)."""
    return toda_energy(u1, u2, h1, h2, RhoPair(4.0 * np.pi, 4.0 * np.pi)).total
