import csv
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from sbfock import ConfigError
from sbfock.cli import main, parse_config, parse_matrix, run_command
from sbfock.renorm import vanhove_demo

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
    assert np.allclose(parse_matrix("sigma_x", "t"), [[0, 1], [1, 0]])
    assert np.allclose(parse_matrix("identity(3)", "t"), np.eye(3))
    kron = parse_matrix("kron(sigma_minus, sigma_minus)", "t")
    assert kron.shape == (4, 4)
    assert not np.any(kron @ kron)  # 2-nilpotent tensor square
    literal = parse_matrix([[[1, 0], [0, -1]], [[0, 1], [2, 0]]], "t")
    assert literal[0, 1] == -1j and literal[1, 0] == 1j


def test_parse_matrix_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_matrix("sigma_q", "t")
    with pytest.raises(ConfigError):
        parse_matrix([[1, 2], [3, 4]], "t")


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


def test_tolerance_scale_flag_tightens_verify(tmp_path):
    p = write_config(tmp_path, minimal_ex2())
    args = ["verify", "--config", str(p), "--out", str(tmp_path / "out")]
    assert main(args + ["--tolerance-scale", "1e-30"]) == 1
    assert main(args) == 0


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
