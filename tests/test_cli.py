import csv
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from sbfock import ConfigError
import sbfock.cli as cli
import sbfock.ibc as ibc
from sbfock.cli import main, parse_config, parse_matrix, run_command
from sbfock.fock import OccupationBasis, SpinSpace, build_basis
from sbfock.renorm import HamiltonianSpec, vanhove_demo

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=1))
    return p


def minimal_ex2(**overrides):
    cfg = {
        "grid": {"family": "power_law", "beta": 0.0, "kappa": 1.0, "lambda_max": 4.0, "n_modes": 4},
        "spin": {"dim": 2, "S": "sigma_z", "B_le": "sigma_minus", "B_N": "sigma_minus"},
        "fock": {"n_max": 4},
        "ibc": {"lambda": 1.0, "s_n": 1.5},
        "run": {"schedule": [1.5, 3.0], "seed": 0},
    }
    for section, entries in overrides.items():
        cfg[section].update(entries)
    return cfg


# ------------------------------------------------------------- matrix parsing


def test_parse_matrix_shortcuts():
    assert np.allclose(parse_matrix("sigma_x", "t", 2), [[0, 1], [1, 0]])
    assert np.allclose(parse_matrix("identity(3)", "t", 3), np.eye(3))
    kron = parse_matrix("kron(sigma_minus, sigma_minus)", "t", 4)
    assert kron.shape == (4, 4)
    assert not np.any(kron @ kron)  # 2-nilpotent tensor square
    literal = parse_matrix([[[1, 0], [0, -1]], [[0, 1], [2, 0]]], "t", 2)
    assert literal[0, 1] == -1j and literal[1, 0] == 1j
    nested = parse_matrix("kron(kron(sigma_x, sigma_z), identity(2))", "t", 8)
    assert np.array_equal(nested, np.kron(np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]]), np.eye(2)))
    spaced = parse_matrix(" kron( sigma_x ,identity( 2 ) ) ", "t", 4)
    assert np.array_equal(spaced, np.kron([[0, 1], [1, 0]], np.eye(2)))


def test_parse_matrix_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_matrix("sigma_q", "t", 2)
    with pytest.raises(ConfigError):
        parse_matrix([[1, 2], [3, 4]], "t", 2)
    # the last two: past the parser's stack, and a tree too deep to print
    for expr in ["kron(sigma_x,", "kron(sigma_x)", "identity(-1)", "identity(2.0)",
                 "identity(True)", "sigma_x.T", "__import__('os')",
                 "sigma_x" + ".T" * 100000, " + ".join(["sigma_x"] * 2000)]:
        with pytest.raises(ConfigError, match=r" at t$"):
            parse_matrix(expr, "t", 2)


def test_parse_config_rejects_matrix_shape_before_building(tmp_path, monkeypatch, capsys):
    # the shape follows from the parsed shortcut, so a wrong one is a config
    # error (exit 2) before any matrix is built; building one fails here
    def refuse(*args, **kwargs):
        raise AssertionError("matrix built before its shape was checked")

    monkeypatch.setattr(np, "eye", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    cfg = json.loads((CONFIGS / "ex2_default.json").read_text())
    wrong_b_n = [[[0, 0]] * 3] * 3
    for key, value in [("S", "identity(100000)"), ("S", "kron(identity(50000), identity(50000))"),
                       ("B_N", wrong_b_n)]:
        p = write_config(tmp_path, {**cfg, "spin": {**cfg["spin"], key: value}})
        assert main(["verify", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{key} has shape (" in err and ", expected (2, 2)" in err
        assert err.rstrip().endswith(f"at spin.{key}")


# -------------------------------------------------------------- parse_config


def test_parse_config_minimal_ex2(tmp_path):
    p = write_config(tmp_path, minimal_ex2())
    spec, schedule, options = parse_config(p)
    assert spec.spin_dim == 2
    assert schedule == [1.5, 3.0]
    assert len(options["config_hash"]) == 12


def test_parse_config_rejects_nonnormal_diagonal_part(tmp_path):
    cfg = minimal_ex2()
    cfg["spin"].pop("B_N")
    cfg["spin"]["B_D"] = "sigma_minus"
    p = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="normality"):
        parse_config(p)


def test_parse_config_rejects_bad_kappa(tmp_path):
    cfg = minimal_ex2()
    cfg["grid"]["kappa"] = 8.0
    p = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="lambda_max"):
        parse_config(p)


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg = minimal_ex2()
    cfg["run"]["wibble"] = 1
    p = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(p)


def test_parse_config_rejects_decreasing_schedule(tmp_path):
    cfg = minimal_ex2()
    cfg["run"]["schedule"] = [3.0, 1.5]
    p = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="schedule"):
        parse_config(p)


def test_parse_config_reports_json_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "grid": {,}\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(p)


def test_parse_config_explicit_grid(tmp_path):
    cfg = minimal_ex2()
    cfg["grid"] = {
        "family": "explicit",
        "kappa": 1.0,
        "modes": [
            {"omega": 0.5, "mu": 1.0, "v": 0.3},
            {"omega": 2.0, "mu": 0.5, "v": 0.7},
        ],
    }
    p = write_config(tmp_path, cfg)
    spec, _, _ = parse_config(p)
    assert spec.grid.n_modes == 2
    assert spec.coupling.v_n.values[1, 1, 0] == pytest.approx(0.7)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("fock", "n_max", "abc"),
        ("ibc", "lambda", "x"),
        ("run", "schedule", ["a"]),
        ("run", "schedule", 4.0),
        ("run", "schedule", []),
        ("run", "seed", "x"),
        ("run", "vanhove_n_max", 28.5),
        ("spin", "dim", "two"),
        ("grid", "kappa", None),
        ("grid", "n_modes", 2.5),
        ("spin", "v_le", ["a"]),
        ("spin", "v_le", {"scale": "big"}),
        ("grid", None, {"family": "explicit", "kappa": 1.0, "modes": [{"mu": 1.0, "v": 0.5}]}),
        ("grid", None, {"family": "explicit", "kappa": 1.0, "modes": [5]}),
        ("grid", "n_modes", 1),
        ("grid", None, {"family": "explicit", "kappa": 1.0, "modes": [{"omega": -1.0}]}),
        ("run", "opnorm_tol", 1.0),
        ("run", "opnorm_abs_tol", 1.0),
        ("run", "verify_samples", 1.0),
        ("run", "tolerance_scale", 1.0),
        ("fock", "n_max", True),
        ("grid", "beta", float("nan")),
        ("run", "schedule", [2.0, float("inf")]),
        pytest.param("spin", "S", "kron(" * 1200 + "sigma_z" + ", sigma_z)" * 1200, id="deep_kron"),
    ],
)
def test_malformed_config_value_exits_config_error(tmp_path, capsys, section, key, value):
    cfg = json.loads((CONFIGS / "ex2_default.json").read_text())
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    p = write_config(tmp_path, cfg)
    assert main(["verify", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f" at {section}" in err, err


# ------------------------------------------------------------------ commands


def test_verify_exit_zero_on_minimal(tmp_path):
    p = write_config(tmp_path, minimal_ex2())
    code = run_command("verify", p, tmp_path / "out")
    assert code == 0
    assert (tmp_path / "out" / "verify_results.csv").exists()
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["passed"] is True


def test_converge_and_report_flow(tmp_path):
    p = write_config(tmp_path, minimal_ex2())
    code = run_command("converge", p, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "converge.json").read_text())
    assert payload["command"] == "converge"
    csv_text = (tmp_path / "out" / "converge.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == "Lambda,E_trace,resolvent_distance,ground_energy_reg,ground_energy_renorm,verdict,config_hash"
    assert run_command("report", p, tmp_path / "out") == 0
    assert (tmp_path / "out" / "report.txt").exists()


def test_converge_supercritical_fails_by_design(tmp_path):
    code = main(
        ["converge", "--config", str(CONFIGS / "converge_supercritical.json"), "--out", str(tmp_path)]
    )
    assert code == 1
    with (tmp_path / "converge.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["verdict"] == "FAIL" for r in rows)


def test_converge_zero_distance_passes(tmp_path):
    # no coupling and dyadic frequencies: H_Lambda and H_lim are the same
    # diagonal matrix, so every resolvent distance is exactly zero
    cfg = {
        "grid": {
            "family": "explicit",
            "kappa": 1.0,
            "modes": [
                {"omega": 0.5, "mu": 0.5},
                {"omega": 2.0, "mu": 1.0},
                {"omega": 4.0, "mu": 1.0},
            ],
        },
        "spin": {"dim": 2, "S": "sigma_z"},
        "fock": {"n_max": 3},
        "ibc": {"lambda": 1.0},
        "run": {"schedule": [2.0, 8.0]},
    }
    p = write_config(tmp_path, cfg)
    assert main(["converge", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "converge.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["resolvent_distance"] for r in rows] == ["0.0", "0.0"]
    assert all(r["verdict"] == "PASS" for r in rows)


def test_report_on_empty_dir_fails(tmp_path):
    assert run_command("report", None, tmp_path / "empty") == 2


@pytest.mark.parametrize("text", ['{"command": ', "[1, 2]", '{"passed": true}'],
                         ids=["malformed", "not_an_object", "no_command"])
def test_report_on_a_bad_output_file_is_a_config_error(tmp_path, capsys, text):
    (tmp_path / "converge.json").write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "converge.json" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path):
    code = main(["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2


def test_vanhove_small_demo_exit_zero(tmp_path):
    cfg = {
        "grid": {"family": "power_law", "beta": -0.5, "kappa": 1.0, "lambda_max": 8.0, "n_modes": 4},
        "spin": {"dim": 2, "S": "sigma_z", "B_le": "sigma_x", "B_D": "sigma_x"},
        "fock": {"n_max": 4},
        "ibc": {"lambda": 1.0, "s_n": 1.5},
        "run": {
            "schedule": [1.2, 2.0, 3.5, 7.0],
            "seed": 0,
            "vanhove_n_max": 20,
            "vanhove_restrict_m": 2,
        },
    }
    p = write_config(tmp_path, cfg)
    code = run_command("vanhove", p, tmp_path / "out")
    assert code == 0
    payload = json.loads((tmp_path / "out" / "vanhove.json").read_text())
    assert payload["parity_ok"] and payload["conjugation_ok"] and payload["energy_ok"]
    header = (tmp_path / "out" / "vanhove.csv").read_text().splitlines()[0]
    assert header == (
        "Lambda,conjugation_deviation,parity_expectation,parity_oracle,"
        "ground_energy,ground_oracle,verdict,config_hash"
    )


def test_vanhove_explicit_grid_matches_direct_call(tmp_path):
    cfg = {
        "grid": {
            "family": "explicit",
            "kappa": 1.0,
            "modes": [
                {"omega": 0.6, "mu": 0.5, "v": 0.6**0.5},
                {"omega": 2.0, "mu": 2.0, "v": 2.0**0.5},
                {"omega": 5.0, "mu": 4.0, "v": 5.0**0.5},
            ],
        },
        "spin": {"dim": 2, "S": "sigma_z", "B_le": "sigma_x", "B_D": "sigma_x"},
        "fock": {"n_max": 4},
        "ibc": {"lambda": 1.0, "s_n": 1.5},
        "run": {"schedule": [1.0, 8.0], "seed": 0, "vanhove_n_max": 22, "vanhove_restrict_m": 2},
    }
    p = write_config(tmp_path, cfg)
    assert main(["vanhove", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    spec, schedule, options = parse_config(p)
    rep = vanhove_demo(spec.grid, options["profile"], schedule, n_max=22, restrict_m=2)
    with open(tmp_path / "out" / "vanhove.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.rows) == 2
    for row, r in zip(rows, rep.rows):
        assert [float(row[k]) for k in (
            "Lambda",
            "conjugation_deviation",
            "parity_expectation",
            "parity_oracle",
            "ground_energy",
            "ground_oracle",
        )] == list(astuple(r))
        assert (row["verdict"], row["config_hash"]) == ("PASS", options["config_hash"])


def test_vanhove_zero_coupling_fails_by_design(tmp_path):
    # with v = 0 neither the parity nor the ground energy moves with the
    # cutoff, so the study FAILs: exit 1, every row FAIL
    modes = [{"omega": w, "mu": 1.0, "v": 0.0} for w in (0.6, 2.0, 5.0)]
    cfg = {
        "grid": {"family": "explicit", "kappa": 1.0, "modes": modes},
        "spin": {"dim": 2, "S": "sigma_z", "B_le": "sigma_x", "B_D": "sigma_x"},
        "fock": {"n_max": 4},
        "ibc": {"lambda": 1.0, "s_n": 1.5},
        "run": {"schedule": [1.0, 8.0], "seed": 0, "vanhove_n_max": 6, "vanhove_restrict_m": 2},
    }
    p = write_config(tmp_path, cfg)
    assert main(["vanhove", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    with open(tmp_path / "out" / "vanhove.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(r["verdict"] == "FAIL" for r in rows)


def test_spectrum_command(tmp_path):
    p = write_config(tmp_path, minimal_ex2())
    assert run_command("spectrum", p, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "Lambda,E_trace,ground_energy_reg,config_hash"
    assert len(lines) == 3


def test_byte_identical_reruns(tmp_path):
    p = write_config(tmp_path, minimal_ex2())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_command("converge", p, out) in (0, 1)
        assert run_command("verify", p, out) == 0
        outs.append(out)
    for fname in ("converge.csv", "converge.json", "verify_results.csv", "verify.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_supercritical_verify_fails_only_the_weyl_transforms(tmp_path):
    # the documented verify FAIL: the two Weyl conjugation laws miss their
    # 1e-7 tolerance on the super-critical config, every other check passes
    out = tmp_path / "out"
    assert run_command("verify", CONFIGS / "converge_supercritical.json", out) == 1
    with open(out / "verify_results.csv", newline="") as fh:
        failed = [r["check"] for r in csv.DictReader(fh) if r["verdict"] == "FAIL"]
    assert failed == ["weyl_transforms/field_transform", "weyl_transforms/number_transform"]


def _identity_rows(suites):
    return [
        (s.name, r.name, r.passed, repr(r.max_violation), repr(r.tolerance))
        for s in suites
        if s.name in ("fock_ccr", "ibc_identity")
        for r in s.results
    ]


def _whole_basis(basis):
    """``OccupationBasis.safe_prefix`` with the whole basis as the prefix."""
    return max(basis.n_max - 2, 0), basis


@pytest.mark.parametrize("n_max, level", [(6, 5), (0, 0), (1, 1), (2, 1)])
def test_verify_identity_suites_run_on_the_prefix_basis(monkeypatch, n_max, level):
    # the identity checks read the total <= n_max - 2 block, so they are
    # built on the basis up to one level above it (the whole basis when
    # n_max <= 1) and must match a build on the whole basis bit for bit
    spec, _, options = parse_config(CONFIGS / "ex2_default.json")
    spec = HamiltonianSpec(S=spec.S, coupling=spec.coupling, lam=spec.lam, n_max=n_max)
    spin = SpinSpace(spec.spin_dim)
    full_dim = build_basis(spec.grid, spin, n_max).dim
    dims = []
    for name in ("t_op", "field", "xi"):
        monkeypatch.setattr(
            cli, name,
            lambda basis, *a, _f=getattr(cli, name): dims.append(basis.dim) or _f(basis, *a),
        )
    rows = _identity_rows(cli._run_verify_suites(spec, options))
    assert len(dims) == 9  # six fields, two T and one xi
    assert set(dims) == {build_basis(spec.grid, spin, level).dim}
    if level < n_max:
        assert max(dims) < full_dim

    # reference: every operator of the suite built on the whole basis
    monkeypatch.setattr(OccupationBasis, "safe_prefix", _whole_basis)
    dims.clear()
    reference = _identity_rows(cli._run_verify_suites(spec, options))
    assert set(dims) == {full_dim}
    assert len(rows) == 9 and rows == reference


def _bound_rows(suite):
    return [(r.name, r.passed, r.skipped, repr(r.max_violation), repr(r.tolerance)) for r in suite.results]


@pytest.mark.parametrize("n_max, level", [(6, 5), (2, 1), (1, 1), (0, 0)])
def test_verify_domain_bounds_run_on_the_prefix_basis(monkeypatch, n_max, level):
    # the two domain bounds read the samples on the total <= n_max - 2 block,
    # so T and xi are built on the basis up to one level above it (the whole
    # basis when n_max <= 1); the rows must match a build on the whole basis
    spec, _, options = parse_config(CONFIGS / "ex2_default.json")
    spin = SpinSpace(spec.spin_dim)
    basis = build_basis(spec.grid, spin, n_max)
    args = (basis, spec.coupling.v_n, spec.coupling.total(), spec.lam, spec.coupling.s_n)
    dims = []
    for name in ("t_op", "xi"):
        monkeypatch.setattr(
            ibc, name,
            lambda basis, *a, _f=getattr(ibc, name): dims.append(basis.dim) or _f(basis, *a),
        )
    rows = _bound_rows(ibc.verify_ibc_bounds(*args, seed=options["seed"]))
    assert len(dims) == 3  # t, and xi with its own T
    assert set(dims) == {build_basis(spec.grid, spin, level).dim}
    if level < n_max:
        assert max(dims) < basis.dim
    assert [r[0] for r in rows[-2:]] == ["ir_sector_invariance", "fractional_domain_bound"]
    assert not any(r[2] for r in rows)  # nothing skipped

    monkeypatch.setattr(OccupationBasis, "safe_prefix", _whole_basis)
    dims.clear()
    reference = _bound_rows(ibc.verify_ibc_bounds(*args, seed=options["seed"]))
    assert set(dims) == {basis.dim}
    assert rows == reference


@pytest.mark.parametrize(
    "flag", [["--seed", "3"], ["--tolerance-scale", "1"]], ids=["seed", "tolerance_scale"]
)
def test_settings_come_only_from_the_config(tmp_path, capsys, flag):
    # the seed and tolerances are not CLI flags: a run's settings are its config
    p = write_config(tmp_path, minimal_ex2())
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(p), "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_shipped_default_config_verifies(tmp_path):
    code = run_command("verify", CONFIGS / "ex2_default.json", tmp_path / "out")
    assert code == 0


def _vanhove_small_config():
    return {
        "grid": {"family": "power_law", "beta": -0.5, "kappa": 1.0, "lambda_max": 8.0, "n_modes": 4},
        "spin": {"dim": 2, "S": "sigma_z", "B_le": "sigma_x", "B_D": "sigma_x"},
        "fock": {"n_max": 4},
        "ibc": {"lambda": 1.0, "s_n": 1.5},
        "run": {"schedule": [1.2, 2.0], "seed": 0, "vanhove_n_max": 6, "vanhove_restrict_m": 2},
    }


@pytest.mark.parametrize("command", ["converge", "vanhove"])
def test_singular_sparse_lu_exits_numeric(tmp_path, monkeypatch, command):
    import scipy.sparse.linalg as spla

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    cfg = minimal_ex2() if command == "converge" else _vanhove_small_config()
    p = write_config(tmp_path, cfg)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_arpack_failure_exits_numeric(tmp_path, monkeypatch, command):
    import scipy.sparse.linalg as spla

    from sbfock import _solvers

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("No convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    p = CONFIGS / "ex2_default.json"
    if command == "spectrum":
        # ground energies take eigsh above the dense cap; ex1's minimum lies
        # inside a component, which no inertia certificate can skip (every
        # component of ex2 lies above its decoupled -1 singleton)
        monkeypatch.setattr(_solvers, "DENSE_SOLVE_CAP", 8)
        p = CONFIGS / "ex1_dressing.json"
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("converge", "fock", "n_max", 6),  # the dense Weyl operator exceeds its cap
        ("vanhove", "run", "vanhove_n_max", -1),
        ("vanhove", "run", "vanhove_restrict_m", -1),
    ],
)
def test_error_inside_command_exits_two(tmp_path, capsys, command, section, key, value):
    if command == "converge":
        cfg = json.loads((CONFIGS / "ex1_dressing.json").read_text())
    else:
        cfg = _vanhove_small_config()
    cfg[section][key] = value
    p = write_config(tmp_path, cfg)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command, expected",
    [
        # opnorm: ||G|| and t of the domain bounds, through the re-export
        (
            "verify",
            {
                "ibc.verify_ibc_bounds": None,
                "ibc.theta1": None,
                "dressing.verify_weyl": None,
                "renorm.opnorm": 2,
            },
        ),
        # one ground energy per cutoff (three) and one of H_lim
        ("converge", {"renorm.ground_energy": 4, "renorm.h_renormalized": 1}),
    ],
    ids=["verify", "converge"],
)
def test_benchmark_tracer_binds_verify_spans(tmp_path, command, expected):
    # the benchmark's tracer wraps sbfock functions by name; a rename must
    # fail here rather than only in a traced benchmark run.  ``expected``
    # maps a span name to its count (None: at least one)
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    cmd = [
        sys.executable,
        "perfbench/tracer.py",
        str(spans),
        command,
        "--config",
        "configs/ex2_default.json",
        "--out",
        str(tmp_path / "out"),
    ]
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    counts = Counter(doc["names"][span[0]] for span in doc["spans"])
    for name, n in expected.items():
        assert counts[name] > 0 if n is None else counts[name] == n, counts


def test_benchmark_dense_distance_check_passes(tmp_path, monkeypatch):
    # the benchmark checks the super-critical study's distances against
    # dense inverses of h_reg(...).dense() and h_renormalized(...).dense();
    # a break there must fail here rather than only in a benchmark run
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import checks
    import inputs

    configs, _ = inputs.build("desk", 1)
    cfg_path = tmp_path / "supercritical.json"
    cfg_path.write_text(json.dumps(configs["supercritical"]))
    out = tmp_path / "out"
    # the super-critical study FAILs by design
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 1
    rows = checks.read_rows(out / "converge.csv")
    assert len(rows) == len(configs["supercritical"]["run"]["schedule"])
    assert checks.check_distances(rows, checks.dense_distances(cfg_path)) == []


def test_package_exports_resolve():
    # every name that ``sbfock.__all__`` exports must exist, so that a
    # rename in a module cannot leave a dangling name in the export list
    import sbfock

    assert [name for name in sbfock.__all__ if not hasattr(sbfock, name)] == []
