import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusvar.cli import (
    ConfigError,
    ExperimentConfig,
    _parser,
    _write_json,
    h_profile,
    main,
    read_field,
    write_field,
)
from torusvar.geometry import FlatTorus, random_smooth_field
from torusvar.solver import SolverConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_GRID = {"grid": {"n": 32}}


class TestConfigValidation:
    def test_unparseable_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["quantization", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["quantization", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_non_object_root_exits_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_join_coordinate_out_of_range_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "r": 1.5})
        assert main(["test-energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_zero_atom_budget_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "k": 0})
        assert main(["test-energy", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_weight_profile_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "h": {"profile": "mesa"}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_sin_bump_amplitude_must_keep_positivity(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID,
                                      "h": {"profile": "sin-bump", "amplitude": 1.5}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("value", (0.0, 1.0, 2.0))
    def test_retired_solver_keys_are_ignored(self, tmp_path, value):
        retired = {"shrink": 1.5, "sufficient_decrease": value, "preconditioner_shift": -1.0}
        cfg = ExperimentConfig.load(write_config(tmp_path, {**SMALL_GRID, "solver": retired}),
                                    str(tmp_path / "out"), None, None, None)
        assert cfg.solver == SolverConfig()
        assert cfg.resolved["solver"] == {"max_iterations": 2000, "gradient_tolerance": 1e-8}

    def test_unknown_problem_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "sinh-gordon"})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_unknown_problem_exits_2_in_continuation(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "sinh-gordon"})
        assert main(["continuation", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_readme_solve_config_is_read(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A minimal solve config:\s*```json\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.json"
        path.write_text(block.group(1))
        cfg = ExperimentConfig.load(str(path), str(tmp_path / "out"), None, None, None)
        assert cfg.resolved["h"] == {"profile": "sin-bump", "amplitude": 0.3}
        assert cfg.solver.gradient_tolerance == 5e-9

    def test_retired_coarse_n_key_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMALL_GRID, "coarse_n": 24})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'coarse_n'" in err

    @pytest.mark.parametrize("subcommand", ("test-energy", "kr-scaling", "projection", "mt-check"))
    def test_marked_points_are_refused_where_the_raw_weights_are_used(
            self, tmp_path, capsys, subcommand):
        cfg = write_config(tmp_path, {**SMALL_GRID, "lambdas": [10.0, 100.0],
                                      "singular": {"points": [[0.5, 0.5]], "alpha1": [1.0],
                                                   "alpha2": [1.0]}})
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'singular'" in err
        assert not out.exists()

    def test_nonpositive_tolerance_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GRID)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol", "-1.0"]) == 2

    @pytest.mark.parametrize("bad", (
        {"tol": "abc"}, {"tol": [1]}, {"lambdas": {"start": "x"}}, {"lambdas": 5},
    ), ids=("tol-text", "tol-list", "lambda-start-text", "lambdas-number"))
    def test_malformed_tol_or_lambdas_exits_2(self, tmp_path, bad):
        cfg = write_config(tmp_path, {**SMALL_GRID, **bad})
        assert main(["quantization", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("subcommand, bad, named", (
        ("projection", {"grid": 5}, "grid"),
        ("solve", {"solver": [1]}, "solver"),
        ("quantization", {"singular": 3}, "singular"),
        ("solve", {"h": 5}, "h"),
        ("projection", {"subsamples": "x"}, "subsamples"),
        ("projection", {"r_values": 5}, "r_values"),
        ("continuation", {"steps": "x"}, "steps"),
        ("quantization", {"box": 5}, "box"),
        ("quantization", {"alpha": [1]}, "singular"),
        ("quantization", {"rho_samples": [[1]]}, "rho_samples"),
        ("solve", {"mass_centers": [[0.1]]}, "mass_centers"),
        ("kr-scaling", {"components": "ab"}, "components"),
        ("solve", {"initial": "randm"}, "initial"),
        ("test-energy", {"lambdas": {"start": 10.0, "stop": 1000.0, "count": 4,
                                     "spacing": "logarithmic"}}, "spacing"),
        ("continuation", {"steps": 3.9}, "steps"),
        ("test-energy", {"k": True}, "k"),
        ("solve", {"grid": {"n": 32.7}}, "n"),
        ("continuation", {"nu": True}, "nu"),
        ("projection", {"subsample": 2}, "subsample"),
        ("test-energy", {"problem": "scalar"}, "problem"),
        ("test-energy", {"problem": "both"}, "problem"),
        # the periodic image sum dips to -0.45 although the amplitude is above -1
        ("solve", {"h": {"profile": "gauss-bump", "amplitude": -0.9, "width": 0.5}}, "h"),
        ("mt-check", {"h2": {"profile": "constant", "value": 0.0}}, "h2"),
        # with L2 = 0.5 the default levels 0.25 and 0.75 are one circle
        ("projection", {"grid": {"n": 32, "periods": [2.0, 0.5]}}, "curves"),
    ), ids=("grid-number", "solver-list", "singular-number", "h-number", "subsamples-text",
            "r-values-number", "steps-text", "box-number", "alpha-retired", "rho-sample-single",
            "mass-center-single", "components-text", "initial-typo", "spacing-typo",
            "steps-fraction", "k-boolean", "n-fraction", "nu-boolean", "subsample-unknown",
            "energy-problem-scalar", "energy-problem-both", "h-dips-below-zero", "h2-zero",
            "curves-on-one-row"))
    def test_malformed_value_exits_2_with_one_line(self, tmp_path, capsys, subcommand, bad,
                                                   named):
        cfg = write_config(tmp_path, {**SMALL_GRID, **bad})
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(named) in err

    def test_cli_seed_overrides_config(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path, {"seed": 3}),
                                    str(tmp_path / "out"), 5, None, None)
        assert cfg.seed == 5
        assert cfg.resolved["seed"] == 5

    def test_defaults_without_config(self, tmp_path):
        cfg = ExperimentConfig.load(None, str(tmp_path / "out"), None, None, None)
        assert cfg.torus.n == 64
        assert cfg.k == 1 and cfg.l == 1
        assert cfg.rho.rho1 == pytest.approx(2 * np.pi)
        assert cfg.tol is None

    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        quantization = write_config(tmp_path, {"box": [10.0, 10.0]}, name="q.json")
        solve = write_config(tmp_path, {**SMALL_GRID, "problem": "toda"}, name="s.json")
        assert main(["quantization", "--config", quantization, "--out",
                     str(tmp_path / "q"), "--seed", "3", "--threads", "2"]) == 0
        assert main(["solve", "--config", solve, "--out", str(tmp_path / "s")]) == 0
        first, second = (json.loads((tmp_path / name / "manifest.json").read_text())
                         for name in ("q", "s"))
        assert (first["subcommand"], first["seed"], first["threads"]) == ("quantization", 3, 2)
        # nothing parsed for the first call leaks into the second
        assert (second["subcommand"], second["seed"], second["threads"]) == ("solve", 0, 1)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: torusvar [-h]")
        assert "unrecognized arguments: --bogus" in err
        assert _parser() is _parser()
        assert _parser().format_help() == _parser.__wrapped__().format_help()


class TestFieldFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        torus = FlatTorus(32)
        field = random_smooth_field(torus, np.random.default_rng(0))
        path = tmp_path / "field.bin"
        write_field(path, field, "demo")
        back = read_field(path)
        assert back.torus.n == 32
        assert back.torus.L1 == torus.L1 and back.torus.L2 == torus.L2
        assert np.array_equal(back.values, field.values)
        sidecar = json.loads(path.with_suffix(".bin.json").read_text())
        assert sidecar["header_bytes"] == 32
        assert sidecar["resolution"] == 32
        assert sidecar["label"] == "demo"

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(struct.pack("<8sQdd", b"NOTAFLD!", 16, 1.0, 1.0) + b"\0" * 2048)
        with pytest.raises(ValueError, match="magic"):
            read_field(path)

    def test_short_file_is_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"TORUSFLD")
        with pytest.raises(ValueError, match="too short"):
            read_field(path)

    def test_truncated_samples_are_rejected(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(struct.pack("<8sQdd", b"TORUSFLD", 16, 1.0, 1.0) + b"\0" * 64)
        with pytest.raises(ValueError, match="samples"):
            read_field(path)


def float_bits(value):
    """A parsed JSON value with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    return value


class TestJsonWriter:
    PAYLOAD = {
        "zeta": np.array([0.1 + 0.2, -0.0, 5e-324, 1e300, np.nan]),
        "grid": np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0,
        "scalars": {"f64": np.float64(1.0) / 3.0, "f32": np.float32(0.1),
                    "i64": np.int64(-7), "flag": np.bool_(True)},
        "tuple": (1, (2.5, "x"), [None, False]),
        "nested": {"b": {"d": None, "c": True}, "a": [{"y": 1, "x": float("nan")}]},
        "nan": float("nan"),
        "Alpha": 2 ** 64,
    }

    def test_one_sorted_line_with_the_old_values(self, tmp_path):
        path = tmp_path / "data.json"
        _write_json(path, self.PAYLOAD)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1

        def sorted_pairs(pairs):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)

        json.loads(text, object_pairs_hook=sorted_pairs)
        old = json.dumps(self.PAYLOAD, indent=2, sort_keys=True, default=lambda v: v.tolist())
        assert float_bits(json.loads(text)) == float_bits(json.loads(old))

    def test_two_writes_give_identical_bytes(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        _write_json(first, self.PAYLOAD)
        _write_json(second, self.PAYLOAD)
        assert first.read_bytes() == second.read_bytes()


class TestWeightProfiles:
    def test_constant_profile(self, torus32):
        h = h_profile(torus32, {"profile": "constant", "value": 2.5})
        assert np.all(h.values == 2.5)

    def test_sin_bump_is_positive_with_unit_mean(self, torus32):
        h = h_profile(torus32, {"profile": "sin-bump", "amplitude": 0.9})
        assert h.values.min() > 0.0
        assert h.values.mean() == pytest.approx(1.0, abs=1e-12)

    def test_gauss_bump_stays_positive_and_symmetric(self, torus32):
        h = h_profile(torus32, {"profile": "gauss-bump", "amplitude": -0.9,
                                "width": 0.05, "center": [0.0, 0.0]})
        assert h.values.min() > 0.0
        # periodic images keep the profile even across the seam
        assert h.values[0, 1] == pytest.approx(h.values[0, -1], rel=1e-12)

    @pytest.mark.parametrize("periods", [(1.0, 1.0), (2.0, 0.5)])
    @pytest.mark.parametrize("config", [
        {"amplitude": 0.5, "width": 0.15, "center": [0.3, 0.4]},
        {"amplitude": -0.4, "width": 0.12, "center": [0.7, 0.15]},
        {"amplitude": -0.9, "width": 0.05, "center": [0.0, 0.0]}])
    def test_gauss_bump_equals_the_full_grid_image_sum(self, periods, config):
        # oracle: the nine periodic images summed on the full grid; the bound is
        # relative to the sum's magnitude 1 + |a| bump, which is the profile itself
        # unless a deep dip (a < 0) cancels digits in 1 + a bump
        torus = FlatTorus(64, *periods)
        a, w, (cx, cy) = config["amplitude"], config["width"], config["center"]
        x1, x2 = torus.grids()
        bump = sum(np.exp(-((x1 - cx - m1 * torus.L1) ** 2 + (x2 - cy - m2 * torus.L2) ** 2)
                          / (2.0 * w * w))
                   for m1 in (-1, 0, 1) for m2 in (-1, 0, 1))
        h = h_profile(torus, {"profile": "gauss-bump", **config}).values
        assert np.max(np.abs(h - (1.0 + a * bump)) / (1.0 + abs(a) * bump)) <= 4e-16

    def test_an_absent_h2_reuses_h(self, tmp_path):
        h = {"profile": "gauss-bump", "amplitude": 0.5, "width": 0.15, "center": [0.3, 0.4]}
        cfg = ExperimentConfig.load(write_config(tmp_path, {**SMALL_GRID, "h": h}),
                                    str(tmp_path / "out"), None, None, None)
        assert cfg.h2 is cfg.h1 and cfg.resolved["h2"] == h

    def test_gauss_bump_width_validation(self, torus32):
        with pytest.raises(ConfigError, match="width"):
            h_profile(torus32, {"profile": "gauss-bump", "width": 0.0})


class TestSubcommands:
    def test_quantization_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {"box": [30.0, 30.0],
                                      "rho_samples": [[4 * np.pi, 1.0], [5.0, 5.0]]})
        out = tmp_path / "out"
        assert main(["quantization", "--config", cfg, "--out", str(out),
                     "--tol", "1e-6"]) == 0
        report = json.loads((out / "quantization.json").read_text())
        assert len(report["candidates"]) == 5
        assert len(report["local"][0]["points"]) == 6
        verdicts = {tuple(m["rho"]): m["inside"] for m in report["membership"]}
        assert verdicts[(4 * np.pi, 1.0)] is True
        assert verdicts[(5.0, 5.0)] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "quantization"
        assert "timestamp" in manifest
        assert "torusvar" in manifest["versions"]

    def test_meanfield_quantization_lists_the_meanfield_set(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "meanfield", "box": [60.0, 60.0],
                                      "rho_samples": [[4 * np.pi, 1.0], [8 * np.pi, 1.0]]})
        out = tmp_path / "out"
        assert main(["quantization", "--config", cfg, "--out", str(out),
                     "--tol", "1e-6"]) == 0
        report = json.loads((out / "quantization.json").read_text())
        lines = [round(8 * np.pi * n, 12) for n in (1, 2)]
        assert report["global"]["lambda1"] == report["global"]["lambda2"] == lines
        assert report["global"]["lambda0"] == []
        assert report["local"] == []
        assert [m["inside"] for m in report["membership"]] == [False, True]
        assert report["membership"][0]["witness"] == ["lambda1-line", [lines[0]]]

    def test_solve_on_constant_weights(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "toda"})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] == 0
        assert report["pde_residual"] <= 1e-12
        u1 = read_field(out / "solution_u1.bin")
        assert np.all(u1.values == 0.0)
        assert (out / "solution_u2.bin").exists()

    def test_solve_gate_rejects_forbidden_rho(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "toda",
                                      "rho": [4 * np.pi, 1.0]})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--tol", "1e-6"]) == 3
        assert (out / "manifest.json").exists()
        assert not (out / "solve.json").exists()

    def test_scalar_gate_names_eight_pi(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "meanfield",
                                      "rho": [8 * np.pi, 1.0]})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol", "0.5"]) == 3
        # the witness is the line rho1 = 8 pi, as the forbidden set lists it
        assert "('lambda1-line', (25.132741228718,))" in capsys.readouterr().err

    def test_scalar_gate_refuses_a_marked_point_line(self, tmp_path, capsys):
        # 12 pi = 8 pi (1 + alpha1) is a single bubble's mass at the marked point
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "meanfield",
                                      "rho": [12 * np.pi, 2 * np.pi],
                                      "singular": {"points": [[0.2, 0.3]], "alpha1": [0.5],
                                                   "alpha2": [0.5]}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol", "1e-6"]) == 3
        assert f"('lambda1-line', ({round(12 * np.pi, 12)},))" in capsys.readouterr().err

    def test_nonconvergence_exits_4_with_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            **SMALL_GRID, "problem": "toda", "h": {"profile": "sin-bump"},
            "solver": {"max_iterations": 2, "gradient_tolerance": 1e-15}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
        report = json.loads((out / "solve.json").read_text())
        assert report["converged"] is False
        assert report["stop_reason"] == "iteration-cap"

    def test_solve_mass_report(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "meanfield",
                                      "mass_centers": [[0.5, 0.5]],
                                      "mass_radius": 0.25})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert len(report["mass_report"]) == 1
        assert len(report["mass_report"][0]["masses"]) == 2

    def test_continuation_bad_box_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL_GRID, "problem": "toda",
                                      "rho": [4 * np.pi, 2 * np.pi], "nu": 0.5,
                                      "steps": 3})
        out = tmp_path / "out"
        assert main(["continuation", "--config", cfg, "--out", str(out)]) == 3
        assert not (out / "continuation.csv").exists()

    def test_continuation_writes_the_path(self, tmp_path):
        cfg = write_config(tmp_path, {
            **SMALL_GRID, "problem": "toda", "h": {"profile": "sin-bump"},
            "rho": [2 * np.pi, 2 * np.pi], "nu": 0.3, "steps": 3,
            "solver": {"gradient_tolerance": 1e-6}})
        out = tmp_path / "out"
        assert main(["continuation", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "continuation.csv").read_text().splitlines()
        assert lines[0].startswith("mu,rho1,rho2,energy")
        assert lines[0].endswith(",converged,stop_reason")
        assert len(lines) == 4
        assert all(line.endswith(",1,converged") for line in lines[1:])
        report = json.loads((out / "continuation.json").read_text())
        assert report["all_converged"] is True
        assert len(report["energies"]) == 3

    @pytest.mark.parametrize("problem, per_bubble", (("toda", 8 * np.pi),
                                                     ("meanfield", 16 * np.pi)),
                             ids=("toda", "meanfield"))
    def test_test_energy_outputs_slopes(self, tmp_path, problem, per_bubble):
        cfg = write_config(tmp_path, {
            **SMALL_GRID, "problem": problem, "r": 0.5,
            "rho": [5 * np.pi, 5 * np.pi], "subsamples": 2,
            "lambdas": {"start": 10.0, "stop": 1000.0, "count": 4}})
        out = tmp_path / "out"
        assert main(["test-energy", "--config", cfg, "--out", str(out)]) == 0
        slopes = json.loads((out / "slopes.json").read_text())
        assert list(slopes) == [problem]
        assert slopes[problem]["predicted"] == pytest.approx(2 * per_bubble - 4 * 5 * np.pi)
        lines = (out / "energy.csv").read_text().splitlines()
        assert lines[0] == "problem,lambda,scale1,scale2,value"
        assert len(lines) == 5  # header + four scales
        assert all(line.startswith(f"{problem},") for line in lines[1:])

    def test_projection_reports_displacements(self, tmp_path):
        cfg = write_config(tmp_path, {
            **SMALL_GRID, "lam": 100.0, "r_values": [0.5],
            "subsamples": 2})
        out = tmp_path / "out"
        assert main(["projection", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "projection.json").read_text())
        assert report["worst_displacement"] < 0.25
        assert report["worst_r_deviation"] < 0.25

    KR_CONFIG = {**SMALL_GRID, "r": 0.5, "subsamples": 2,
                 "lambdas": {"start": 10.0, "stop": 1000.0, "count": 4}}

    def test_kr_scaling_with_a_bad_component_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {**self.KR_CONFIG, "components": [1, 3]})
        out = tmp_path / "out"
        assert main(["kr-scaling", "--config", cfg, "--out", str(out)]) == 3
        assert not (out / "kr.csv").exists()

    def test_kr_scaling_repeats_a_repeated_component(self, tmp_path):
        outs = []
        for components in ([1], [1, 1]):
            cfg = write_config(tmp_path, {**self.KR_CONFIG, "components": components})
            outs.append(tmp_path / f"out{len(components)}")
            assert main(["kr-scaling", "--config", cfg, "--out", str(outs[-1])]) == 0
        once, twice = ((out / "kr.csv").read_text().splitlines() for out in outs)
        assert once[0] == "component,lambda,scale1,scale2,distance"
        assert twice == once + once[1:]
        assert (outs[1] / "kr.json").read_text() == (outs[0] / "kr.json").read_text()


class TestDeterminism:
    MT_CONFIG = {**SMALL_GRID, "lambdas": [10.0, 100.0], "subsamples": 2,
                 "random_fields": 3}

    def data_files(self, out):
        return sorted(p for p in out.iterdir() if p.name != "manifest.json")

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.MT_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mt-check", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["mt-check", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        files1, files2 = self.data_files(out1), self.data_files(out2)
        assert [p.name for p in files1] == [p.name for p in files2]
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    @pytest.mark.parametrize("problem", ("toda", "meanfield"))
    def test_thread_count_does_not_change_data(self, tmp_path, problem):
        payload = {**SMALL_GRID, "problem": problem, "subsamples": 2,
                   "lambdas": {"start": 10.0, "stop": 1000.0, "count": 4}}
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["test-energy", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["test-energy", "--config", cfg, "--out", str(out2),
                     "--threads", "2"]) == 0
        assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
        assert (out1 / "slopes.json").read_bytes() == (out2 / "slopes.json").read_bytes()

    def test_random_start_is_fixed_by_the_seed(self, tmp_path):
        payload = {**SMALL_GRID, "problem": "meanfield", "rho": [4 * np.pi, 2 * np.pi],
                   "h": {"profile": "sin-bump"}}
        random_cfg = write_config(tmp_path, {**payload, "initial": "random"}, "random.json")
        zero_cfg = write_config(tmp_path, payload, "zero.json")
        runs = {}
        for name, cfg, seed in (("a", random_cfg, "5"), ("b", random_cfg, "5"),
                                ("c", random_cfg, "6"), ("zero", zero_cfg, "5")):
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
            runs[name] = (json.loads((out / "solve.json").read_text()),
                          (out / "solve.json").read_bytes(),
                          (out / "solution_u.bin").read_bytes())
        assert runs["a"][1:] == runs["b"][1:]
        assert runs["a"][2] != runs["c"][2]
        assert all(runs[name][0]["converged"] for name in runs)
        assert runs["c"][0]["energy"] == pytest.approx(runs["a"][0]["energy"], abs=1e-12)
        # the random start takes its own path at n/2 (5 coarse steps against 3)
        assert runs["a"][0]["coarse_iterations"] != runs["zero"][0]["coarse_iterations"]

    def test_blas_thread_count_does_not_change_a_solve(self, tmp_path):
        # OpenBLAS splits a reduction across its threads, so results reached
        # through it depend on OPENBLAS_NUM_THREADS, which --threads does not set
        cfg = write_config(tmp_path, {
            "grid": {"n": 256}, "problem": "toda",
            "h": {"profile": "gauss-bump", "amplitude": 0.5, "width": 0.15,
                  "center": [0.3, 0.4]},
            "h2": {"profile": "gauss-bump", "amplitude": -0.4, "width": 0.12,
                   "center": [0.7, 0.15]},
            "singular": {"points": [[0.25, 0.75], [0.75, 0.3]],
                         "alpha1": [0.5, 1.0], "alpha2": [1.0, 0.5]},
            "solver": {"gradient_tolerance": 5e-9}})
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-m", "torusvar.cli", "solve", "--config", cfg,
                            "--out", str(out), "--threads", "1"],
                           env=env, check=True, timeout=300)
            outs.append(out)
        files1, files2 = self.data_files(outs[0]), self.data_files(outs[1])
        assert [p.name for p in files1] == [p.name for p in files2]
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_timestamps_live_only_in_the_manifest(self, tmp_path):
        cfg = write_config(tmp_path, self.MT_CONFIG)
        out = tmp_path / "out"
        assert main(["mt-check", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "timestamp" in manifest
        for path in self.data_files(out):
            assert "timestamp" not in path.read_text()


def test_cli_import_leaves_scipy_fft_and_the_lp_solver_unloaded():
    # every FFT runs on numpy.fft, and the transport LP imports scipy.optimize and
    # scipy.sparse only when it runs
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    probe = ("import sys, torusvar.cli; print(sorted(m for m in "
             "('scipy.fft', 'scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_two_atom_projection_leaves_the_lp_solver_unloaded(tmp_path):
    # transport between two-atom measures has a closed form, so the round trip
    # never imports scipy.optimize or scipy.sparse
    cfg = write_config(tmp_path, {**SMALL_GRID, "k": 2, "l": 2, "lam": 100.0,
                                  "r_values": [0.5], "subsamples": 2})
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    probe = ("import sys, torusvar.cli; code = torusvar.cli.main(sys.argv[1:]); "
             "print(code, sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, "projection", "--config", cfg,
                          "--out", str(tmp_path / "out")],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "0 []"
