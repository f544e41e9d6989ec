"""Acceptance gate: one test per criterion, tolerances pinned in-line.

Each test prints a single `criterion NN ...: PASS/FAIL` line (visible with -v
through the test name and in captured output) and asserts the criterion with
its budgeted runtime.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from torusvar.cli import main as cli_main
from torusvar.functionals import (
    RhoPair,
    meanfield_energy,
    meanfield_gradient,
    normalized_density,
    toda_energy,
    toda_gradient,
)
from torusvar.geometry import (
    CurveSystem,
    FlatTorus,
    Point,
    SingularData,
    greens_function,
    integrate,
    laplacian,
    random_smooth_field,
)
from torusvar.joins import (
    JoinElement,
    energy_curve,
    kr_scaling_check,
    psi_map,
    scalar_energy_curve,
    test_function as peak_pair,
)
from torusvar.measures import (
    BarycenterMeasure,
    DiscreteMeasure,
    concentration_alternative,
    covering_merge,
    detect_spread,
    kr_distance,
    kr_transport,
    spread_mass_floor,
)
from torusvar.quantization import (
    blowup_candidates,
    gamma_residual,
    global_lambda,
    local_lambda,
)
from torusvar.solver import SolverConfig, minimize, pde_residual

EMPTY = SingularData.empty()
CURVES = CurveSystem(0.25, 0.75)


def certify(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num:02d} ({label}): {status} — {detail} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num:02d} {label}: {detail}"
    assert in_time, f"criterion {num:02d} {label}: took {elapsed:.2f}s > {budget:.0f}s"


def join_element(torus: FlatTorus, k: int, l: int, r: float) -> JoinElement:
    def atoms(count, level):
        pts = [torus.snap(Point((i + 0.5) / count, level)) for i in range(count)]
        return BarycenterMeasure.of([1.0 / count] * count, pts, capacity=count)
    return JoinElement(atoms(k, CURVES.c1), atoms(l, CURVES.c2), r)


def aniso_pair(torus: FlatTorus):
    x1, x2 = torus.grids()
    h1 = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    h2 = torus.field(1.0 + 0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(4 * np.pi * x2))
    return h1, h2


def test_criterion_01_local_quantization_set_is_exact():
    t0 = time.perf_counter()
    points = set(local_lambda(0.0, 0.0).points)
    expected = {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 4.0), (4.0, 2.0), (4.0, 4.0)}
    candidates = set(blowup_candidates(EMPTY))
    scaled = {(2 * np.pi * a, 2 * np.pi * b) for a, b in expected if (a, b) != (0, 0)}
    cand_ok = len(candidates) == 5 and all(
        min(np.hypot(c[0] - e[0], c[1] - e[1]) for e in scaled) < 1e-12
        for c in candidates)
    certify(1, "local set exactness", points == expected and cand_ok,
            f"{len(points)} points, {len(candidates)} scaled candidates",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_every_point_satisfies_the_ellipse():
    t0 = time.perf_counter()
    worst = 0.0
    for a1, a2 in itertools.product((0.0, 0.5, 1.0, 2.0), repeat=2):
        for s1, s2 in local_lambda(a1, a2).points:
            worst = max(worst, abs(gamma_residual(s1, s2, a1, a2)))
    certify(2, "ellipse invariant", worst <= 1e-12,
            f"worst residual {worst:.2e} <= 1e-12", time.perf_counter() - t0, 1.0)


def test_criterion_03_energy_slopes_match_the_predictions():
    t0 = time.perf_counter()
    torus = FlatTorus(256)
    h = torus.constant_field(1.0)
    zeta = join_element(torus, 1, 1, 0.0)
    # two components: sweep two decades, slope fitted on the top decade [1e2, 1e3]
    toda = energy_curve(torus, zeta, RhoPair(5 * np.pi, 5 * np.pi),
                        np.geomspace(10.0, 1000.0, 9), h, h)
    toda_err = abs(toda.slope - (-2 * np.pi)) / (2 * np.pi)
    # scalar: prediction 16 pi - 2 rho1 = -2 pi; top fitted decade [30, 300]
    # (larger scales saturate the grid before the asymptotic slope is reached)
    scalar = scalar_energy_curve(torus, zeta, RhoPair(9 * np.pi, 9 * np.pi),
                                 np.geomspace(3.0, 300.0, 9), h)
    scalar_err = abs(scalar.slope - (-2 * np.pi)) / (2 * np.pi)
    certify(3, "energy slope", toda_err <= 0.15 and scalar_err <= 0.15,
            f"two-component slope {toda.slope:.3f} (err {toda_err:.1%}), "
            f"scalar slope {scalar.slope:.3f} (err {scalar_err:.1%}), target -2pi",
            time.perf_counter() - t0, 120.0)


def test_criterion_04_transport_distance_scales_inversely():
    t0 = time.perf_counter()
    torus = FlatTorus(128)
    h = torus.constant_field(1.0)
    zeta = join_element(torus, 1, 1, 0.5)
    lambdas = np.geomspace(10.0, 1000.0, 9)
    slopes = [curve.slope for curve in kr_scaling_check(torus, zeta, lambdas, (1, 2), h, h,
                                                        fit_floor=10.0)]
    ok = all(abs(s - (-1.0)) <= 0.15 for s in slopes)
    certify(4, "KR scaling", ok,
            f"slopes {slopes[0]:.3f}, {slopes[1]:.3f} within -1 +/- 0.15",
            time.perf_counter() - t0, 600.0)


def test_criterion_05_projection_recovers_the_join_element():
    t0 = time.perf_counter()
    torus = FlatTorus(128)
    x1, x2 = torus.grids()
    h = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    tol = 3.0 * torus.max_spacing
    regimes_ok, details = [], []
    for r in (0.0, 0.5, 1.0):
        zeta = join_element(torus, 1, 1, r)
        phi1, phi2 = peak_pair(torus, zeta, 1000.0)
        out = psi_map(phi1, phi2, h, h, 1, 1, CURVES)
        if r == 0.0:
            regime = out.r == 0.0
        elif r == 1.0:
            regime = out.r == 1.0
        else:
            regime = 0.0 < out.r < 1.0
        disp = []
        if r < 1.0:  # only components whose scale grows carry a recovery claim
            disp.append(kr_transport(zeta.sigma1, out.sigma1, torus=torus).distance)
        if r > 0.0:
            disp.append(kr_transport(zeta.sigma2, out.sigma2, torus=torus).distance)
        regimes_ok.append(regime and max(disp) < tol)
        details.append(f"r={r}: r~={out.r:.3f}, disp {max(disp):.4f}")
    # displacements shrink as the family concentrates
    zeta = join_element(torus, 1, 1, 0.5)
    sweep = []
    for lam in (10.0, 100.0, 1000.0):
        phi1, phi2 = peak_pair(torus, zeta, lam)
        out = psi_map(phi1, phi2, h, h, 1, 1, CURVES)
        sweep.append(max(kr_transport(zeta.sigma1, out.sigma1, torus=torus).distance,
                         kr_transport(zeta.sigma2, out.sigma2, torus=torus).distance))
    monotone = sweep[0] >= sweep[1] >= sweep[2] and sweep[0] > sweep[2]
    certify(5, "projection recovery", all(regimes_ok) and monotone,
            "; ".join(details) + f"; sweep {['%.4f' % d for d in sweep]}",
            time.perf_counter() - t0, 600.0)


def test_criterion_06_green_function_quality():
    t0 = time.perf_counter()
    torus = FlatTorus(256)
    p = Point(0.37, 0.61)
    g = greens_function(torus, p)
    mean = abs(integrate(g))
    delta = np.zeros((torus.n, torus.n))
    i, j = torus.nearest_node(p)
    delta[i, j] = 1.0 / torus.cell_area
    residual = np.abs(-laplacian(g).values - (delta - 1.0)).max()
    d = torus.distance_field(p)
    mask = (d >= 4 / 256) & (d <= 16 / 256)
    slope = float(np.polyfit(np.log(d[mask]), g.values[mask], 1)[0])
    slope_err = abs(slope - (-1 / (2 * np.pi))) / (1 / (2 * np.pi))
    ok = residual < 1e-8 and mean <= 1e-12 and slope_err <= 0.10
    certify(6, "Green/Laplacian", ok,
            f"residual {residual:.2e}, mean {mean:.2e}, "
            f"near-field slope {slope:.4f} (err {slope_err:.1%})",
            time.perf_counter() - t0, 10.0)


def test_criterion_07_gradients_match_finite_differences():
    t0 = time.perf_counter()
    torus = FlatTorus(64)
    h1, h2 = aniso_pair(torus)
    rng = np.random.default_rng(42)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        u1, u2, v1, v2 = (random_smooth_field(torus, rng) for _ in range(4))
        rho = RhoPair(rng.uniform(1.0, 12.0), rng.uniform(1.0, 12.0))

        def j(a, b):
            return toda_energy(torus.field(a), torus.field(b), h1, h2, rho).total

        fd = (j(u1.values + eps * v1.values, u2.values + eps * v2.values)
              - j(u1.values - eps * v1.values, u2.values - eps * v2.values)) / (2 * eps)
        g1, g2 = toda_gradient(u1, u2, h1, h2, rho)
        exact = float(((g1.values * v1.values) + (g2.values * v2.values)).sum()
                      * torus.cell_area)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-10))

        def i_tilde(a):
            return meanfield_energy(torus.field(a), h1, rho).total

        fd_s = (i_tilde(u1.values + eps * v1.values)
                - i_tilde(u1.values - eps * v1.values)) / (2 * eps)
        gs = meanfield_gradient(u1, h1, rho)
        exact_s = float((gs.values * v1.values).sum() * torus.cell_area)
        worst = max(worst, abs(fd_s - exact_s) / max(abs(exact_s), 1e-10))
    certify(7, "gradient correctness", worst <= 1e-5,
            f"worst relative FD mismatch {worst:.2e} over 20 pairs, both energies",
            time.perf_counter() - t0, 60.0)


def test_criterion_08_coercive_solves_certify():
    t0 = time.perf_counter()
    torus = FlatTorus(128)
    h1, h2 = aniso_pair(torus)
    rho_t = RhoPair(2 * np.pi, 2 * np.pi)
    # tolerance sits above the float64 stall floor measured for this problem
    toda = minimize("toda", (h1, h2), rho_t, EMPTY,
                    SolverConfig(gradient_tolerance=5e-9))
    toda_res = pde_residual("toda", toda.u, (h1, h2), rho_t, EMPTY)
    rho_m = RhoPair(4 * np.pi, 4 * np.pi)
    # equal strengths make the zero state an exact critical point, so the
    # scalar solve starts from a seeded random state instead
    rng = np.random.default_rng(0)
    start = (random_smooth_field(torus, rng, modes=4, scale=0.5),)
    mf = minimize("meanfield", h1, rho_m, EMPTY,
                  SolverConfig(gradient_tolerance=1e-8), initial=start)
    mf_res = pde_residual("meanfield", mf.u, h1, rho_m, EMPTY)
    flat = minimize("toda", (torus.constant_field(1.0), torus.constant_field(1.0)),
                    rho_t, EMPTY)
    flat_ok = (flat.iterations == 0 and np.all(flat.u[0].values == 0.0)
               and np.all(flat.u[1].values == 0.0))
    ok = (toda.converged and toda_res <= 1e-6
          and mf.converged and mf_res <= 1e-6 and flat_ok)
    certify(8, "coercive solves", ok,
            f"two-component residual {toda_res:.2e}, scalar residual {mf_res:.2e} "
            f"(both <= 1e-6), constant case exact zero at iteration 0",
            time.perf_counter() - t0, 300.0)


def reference_distance(torus, a, b):
    return min(np.hypot(a[0] - b[0] + m1 * torus.L1, a[1] - b[1] + m2 * torus.L2)
               for m1 in (-1, 0, 1) for m2 in (-1, 0, 1))


def reference_lp(torus, w_a, pts_a, w_b, pts_b):
    m, n = len(pts_a), len(pts_b)
    cost = np.array([[min(reference_distance(torus, a, b), 2.0) for b in pts_b]
                     for a in pts_a])
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([w_a, w_b])
    result = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1],
                     bounds=(0, None), method="highs")
    assert result.status == 0
    return float(result.fun)


def test_criterion_09_transport_agrees_with_the_lp_oracle():
    t0 = time.perf_counter()
    torus = FlatTorus(16)
    nodes = [torus.node_point(i, j) for i in range(16) for j in range(16)]
    singles = [BarycenterMeasure.single(p) for p in nodes]
    worst_pair = 0.0
    for a, mu in zip(nodes, singles):
        for b, nu in zip(nodes, singles):
            expected = min(reference_distance(torus, (a.x1, a.x2), (b.x1, b.x2)), 2.0)
            worst_pair = max(worst_pair, abs(kr_distance(mu, nu) - expected))
    rng = np.random.default_rng(99)
    worst_triple = 0.0
    for _ in range(200):
        wa, wb = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        pa, pb = rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (3, 2))
        mine = kr_distance(
            BarycenterMeasure.of(wa, [torus.point(*p) for p in pa]),
            BarycenterMeasure.of(wb, [torus.point(*p) for p in pb]))
        worst_triple = max(worst_triple, abs(mine - reference_lp(torus, wa, pa, wb, pb)))
    ok = worst_pair <= 1e-9 and worst_triple <= 1e-9
    certify(9, "transport oracle equivalence", ok,
            f"worst two-atom gap {worst_pair:.2e} over {len(nodes)**2} pairs, "
            f"worst three-atom gap {worst_triple:.2e} over 200 instances",
            time.perf_counter() - t0, 120.0)


def ball_nodes(torus, center, radius):
    return tuple(torus.node_point(i, j) for i in range(torus.n) for j in range(torus.n)
                 if torus.distance(center, torus.node_point(i, j)) <= radius)


def bump(torus, center, lam):
    d = torus.distance_field(center)
    return 1.0 / (1.0 + lam**2 * d**2) ** 2


def test_criterion_10_covering_and_spread_postconditions():
    t0 = time.perf_counter()
    torus = FlatTorus(64)
    centers1 = [Point(0.125, 0.125), Point(0.625, 0.625)]
    centers2 = [Point(0.125, 0.625)]
    omegas1 = [ball_nodes(torus, c, 0.06) for c in centers1]
    omegas2 = [ball_nodes(torus, c, 0.06) for c in centers2]
    f1 = DiscreteMeasure(torus, sum(bump(torus, c, 30.0) for c in centers1)).normalized()
    f2 = DiscreteMeasure(torus, bump(torus, centers2[0], 30.0)).normalized()
    delta, theta = 0.3, 0.2
    result = covering_merge(omegas1, omegas2, f1, f2, delta, theta)

    def set_distance(a, b):
        return min(torus.distance(p, q) for p in a for q in b)

    def set_mass(f, nodes):
        return sum(f.density[f.torus.nearest_node(p)] for p in nodes) * torus.cell_area

    separation = min(set_distance(a, b)
                     for a, b in itertools.combinations(result.sets, 2))
    mass1 = min(set_mass(f1, result.sets[i]) for i in result.component1_indices)
    mass2 = min(set_mass(f2, result.sets[i]) for i in result.component2_indices)
    covering_ok = (separation >= delta / 8 - 1e-12
                   and mass1 >= result.theta_bar - 1e-12
                   and mass2 >= result.theta_bar - 1e-12)

    concentrated = DiscreteMeasure(torus, bump(torus, Point(0.5, 0.5), 50.0)).normalized()
    spread_none = detect_spread(concentrated, m=1, eps=0.2, s=0.2) is None
    uniform = DiscreteMeasure.uniform(torus)
    points = detect_spread(uniform, m=2, eps=0.2, s=0.1)
    floor = spread_mass_floor(torus, 2, 0.2, 0.1)
    spread_ok = (points is not None and len(points) == 2
                 and torus.distance(points[0], points[1]) >= 0.1 - 1e-12
                 and all((uniform.density[torus.distance_field(p) <= 0.025].sum()
                          * torus.cell_area) > floor for p in points))

    h = torus.constant_field(1.0)
    zeta = JoinElement(BarycenterMeasure.single(torus.snap(Point(0.5, 0.25))),
                       BarycenterMeasure.single(torus.snap(Point(0.5, 0.75))), 0.0)
    u1, u2 = peak_pair(torus, zeta, 200.0)
    eps, s = 0.25, 0.15
    alt = concentration_alternative(u1, u2, h, h, k=1, l=1, eps=eps, s=s)
    gap = kr_transport(DiscreteMeasure.from_field(normalized_density(u1, h)), alt.sigma).distance
    zero = torus.constant_field(0.0)
    neither = concentration_alternative(zero, zero, h, h, k=1, l=1, eps=0.1, s=0.1)
    dichotomy_ok = (alt.component == 1 and gap < 2 * eps + s
                    and neither.component == 0
                    and detect_spread(DiscreteMeasure.from_field(normalized_density(zero, h)),
                                      1, 0.1, 0.1) is not None)

    certify(10, "covering/spread constructions", covering_ok and spread_ok and dichotomy_ok,
            f"separation {separation:.4f} >= {delta / 8}, masses >= "
            f"{result.theta_bar:.4f}, spread dichotomy and alternative re-measured",
            time.perf_counter() - t0, 60.0)


def test_criterion_11_random_strengths_avoid_the_forbidden_set():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    samples = rng.uniform(0.0, 20.0 * np.pi, size=(1000, 2))
    gs = global_lambda(EMPTY, (20.0 * np.pi, 20.0 * np.pi))
    lines1 = np.array(gs.lambda1)
    lines2 = np.array(gs.lambda2)
    points = np.array(gs.lambda0)
    d1 = np.abs(samples[:, :1] - lines1[None, :]).min(axis=1)
    d2 = np.abs(samples[:, 1:] - lines2[None, :]).min(axis=1)
    dp = np.hypot(samples[:, :1] - points[None, :, 0],
                  samples[:, 1:] - points[None, :, 1]).min(axis=1)
    nearest = np.minimum(np.minimum(d1, d2), dp)
    hits = int((nearest <= 1e-6).sum())
    # negative control: an on-set pair must be caught by the same distance
    control = min(np.abs(4 * np.pi - lines1).min(), 1.0)
    certify(11, "forbidden-set statistics", hits == 0 and control <= 1e-9,
            f"{hits} of 1000 samples within 1e-6 (nearest {nearest.min():.2e}); "
            f"control point detected at {control:.1e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_12_cli_runs_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"n": 32},
        "lambdas": {"start": 10.0, "stop": 1000.0, "count": 4},
        "subsamples": 2, "random_fields": 3,
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["mt-check", "--config", str(config), "--out", str(out),
                         "--seed", "7", "--threads", "2"])
        assert code == 0
        outs.append(out)
    files_a = sorted(p for p in outs[0].iterdir() if p.name != "manifest.json")
    files_b = sorted(p for p in outs[1].iterdir() if p.name != "manifest.json")
    same_names = [p.name for p in files_a] == [p.name for p in files_b]
    identical = same_names and all(a.read_bytes() == b.read_bytes()
                                   for a, b in zip(files_a, files_b))
    certify(12, "CLI determinism", identical and len(files_a) > 0,
            f"{len(files_a)} data files byte-identical across two runs",
            time.perf_counter() - t0, 120.0)
