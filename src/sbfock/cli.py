"""Configuration parsing, command dispatch and report emission.

Configs are JSON files with nested sections (grid / spin / fock / ibc /
run).  Spin matrices may be given as named shortcuts (sigma_x, sigma_y,
sigma_z, sigma_minus, sigma_plus, identity(n), kron(a, b)) or as
row-major nested lists of [re, im] pairs.

Commands
--------
verify    run the identity and bound suite, write a machine-readable table
converge  run the cutoff-convergence study
vanhove   run the super-critical divergence demonstration
spectrum  tabulate ground energies along the cutoff schedule
report    render previously written outputs as a human-readable summary

Exit codes: 0 all verdicts PASS, 1 a verdict FAILed, 2 configuration or
usage error (a size cap or an invalid model met inside a command
included), 3 numeric failure inside a computation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError, SbfockError
from .fock import Operator, SpinSpace, build_basis, create, dgamma, field, spin_operator
from .ibc import restricted_block, t_op, verify_ibc_bounds, xi
from .dressing import verify_weyl_continuity, verify_weyl_transforms
from .model import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    bs_inner,
    check_structure,
    power_law_grid,
    separable,
    zero_form_factor,
)
from .renorm import (
    HamiltonianSpec,
    convergence_study,
    ground_energy,
    h_cutoff,
    h_reg,
    vanhove_demo,
    verify_transformed_operator_identities,
)
from .reports import CheckResult, CheckSuite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NAMED_MATRICES = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
    "sigma_minus": SIGMA_MINUS,
    "sigma_plus": SIGMA_PLUS,
}


def parse_matrix(expr, key_path: str) -> np.ndarray:
    """Named shortcut, kron()/identity() expression, or [re, im]-pair lists."""
    if isinstance(expr, list):
        try:
            arr = np.asarray(expr, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed matrix literal: {exc}", key_path) from None
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(
                "matrix literal must be a square row-major list of [re, im] pairs", key_path
            )
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    if not isinstance(expr, str):
        raise ConfigError("matrix must be a shortcut string or [re, im] list", key_path)
    return _parse_matrix_expr(expr.strip(), key_path)


def _split_args(body: str, key_path: str):
    depth = 0
    parts = []
    current = ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if depth != 0:
        raise ConfigError("unbalanced parentheses in matrix expression", key_path)
    parts.append(current)
    return parts


def _parse_matrix_expr(expr: str, key_path: str) -> np.ndarray:
    if expr in _NAMED_MATRICES:
        return _NAMED_MATRICES[expr].copy()
    m = re.fullmatch(r"identity\((\d+)\)", expr)
    if m:
        return np.eye(int(m.group(1)), dtype=complex)
    m = re.fullmatch(r"kron\((.*)\)", expr)
    if m:
        parts = _split_args(m.group(1), key_path)
        if len(parts) != 2:
            raise ConfigError("kron() takes exactly two arguments", key_path)
        a = _parse_matrix_expr(parts[0].strip(), key_path)
        b = _parse_matrix_expr(parts[1].strip(), key_path)
        return np.kron(a, b)
    raise ConfigError(f"unknown matrix shortcut {expr!r}", key_path)


_SCHEMA = {
    "grid": {"family", "beta", "kappa", "lambda_max", "n_modes", "modes"},
    "spin": {"dim", "S", "B_le", "B_D", "B_N", "v_le", "v_d", "v_n"},
    "fock": {"n_max"},
    "ibc": {"lambda", "s_n"},
    "run": {
        "schedule",
        "seed",
        "tolerance_scale",
        "opnorm_tol",
        "opnorm_abs_tol",
        "vanhove_n_max",
        "vanhove_restrict_m",
        "verify_samples",
    },
}


def _check_keys(cfg: dict):
    unknown = set(cfg) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown section(s) {sorted(unknown)}", "<root>")
    for section, keys in cfg.items():
        if not isinstance(keys, dict):
            raise ConfigError("section must be an object", section)
        bad = set(keys) - _SCHEMA[section]
        if bad:
            raise ConfigError(f"unknown key(s) {sorted(bad)}", section)


def _number(value, key_path: str, kind=float):
    """``value`` as a float, or as an int when ``kind`` is int.  A value
    that does not convert, or an int that it would truncate, raises
    ``ConfigError`` at ``key_path``."""
    try:
        number = kind(value)
        exact = kind is float or number == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"expected {kind.__name__}, got {value!r}", key_path)
    return number


_REQUIRED = object()


def _read(table: dict, key: str, where: str, kind=float, default=_REQUIRED):
    """``table[key]``, or ``default`` when it is absent, converted by
    ``_number`` to ``kind`` (``None`` leaves it as is); a missing required
    key raises ``ConfigError`` at ``where.key``."""
    value = table.get(key, default)
    if value is _REQUIRED:
        raise ConfigError("missing required key", f"{where}.{key}")
    return value if kind is None else _number(value, f"{where}.{key}", kind)


def _build(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a library error it raises (a grid or
    model the config describes is invalid) becomes ``ConfigError`` at
    ``where``."""
    try:
        return make(*args, **kwargs)
    except SbfockError as exc:
        raise ConfigError(str(exc), where) from None


def _profile_from(entry, base: np.ndarray, mask: np.ndarray, key_path: str) -> np.ndarray:
    """Coupling profile on a support mask: scaled grid profile or explicit list."""
    if entry is None:
        return np.where(mask, base, 0.0)
    if isinstance(entry, dict):
        unknown = set(entry) - {"scale"}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)}", key_path)
        return _read(entry, "scale", key_path, default=1.0) * np.where(mask, base, 0.0)
    if not isinstance(entry, list) or len(entry) != len(base):
        raise ConfigError("explicit profile length must equal the number of modes", key_path)
    vals = np.array([_number(v, f"{key_path}[{i}]") for i, v in enumerate(entry)])
    return np.where(mask, vals, 0.0)


def parse_config(path) -> tuple[HamiltonianSpec, list, dict]:
    """Read and validate a JSON run configuration.

    Returns the Hamiltonian description, the cutoff schedule, and a dict
    of run options (seed, tolerances, van Hove basis parameters, the
    grid's scalar profile and the config hash).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be an object")
    _check_keys(cfg)
    for section in ("grid", "spin", "fock", "ibc", "run"):
        if section not in cfg:
            raise ConfigError("missing required section", section)

    grid_section = cfg["grid"]
    family = _read(grid_section, "family", "grid", kind=None)
    kappa = _read(grid_section, "kappa", "grid")
    if family == "power_law":
        beta = _read(grid_section, "beta", "grid")
        lambda_max = _read(grid_section, "lambda_max", "grid")
        n_modes = _read(grid_section, "n_modes", "grid", int)
        if kappa >= lambda_max:
            raise ConfigError("kappa must be strictly below lambda_max", "grid.kappa")
        grid, profile = _build("grid", power_law_grid, beta, kappa, lambda_max, n_modes)
    elif family == "explicit":
        modes = _read(grid_section, "modes", "grid", kind=None)
        if not isinstance(modes, list) or not modes:
            raise ConfigError("explicit grid needs a nonempty mode list", "grid.modes")
        ks, oms, mus, vs = [], [], [], []
        for i, mode in enumerate(modes):
            where = f"grid.modes[{i}]"
            if not isinstance(mode, dict):
                raise ConfigError("mode must be an object", where)
            bad = set(mode) - {"k", "omega", "mu", "v"}
            if bad:
                raise ConfigError(f"unknown key(s) {sorted(bad)}", where)
            oms.append(_read(mode, "omega", where))
            ks.append(_read(mode, "k", where, default=oms[-1]))
            mus.append(_read(mode, "mu", where, default=1.0))
            vs.append(_read(mode, "v", where, default=1.0))
        grid = _build(
            "grid", ModeGrid, labels=np.array(ks), omegas=np.array(oms), mus=np.array(mus),
            kappa=kappa,
        )
        profile = np.array(vs)
    else:
        raise ConfigError(f"unknown grid family {family!r}", "grid.family")

    spin_cfg = cfg["spin"]
    dim = _read(spin_cfg, "dim", "spin", int)
    S = parse_matrix(_read(spin_cfg, "S", "spin", kind=None), "spin.S")
    if S.shape != (dim, dim):
        raise ConfigError(f"S has shape {S.shape}, expected ({dim}, {dim})", "spin.S")

    low_mask = grid.ir_mask()
    high_mask = ~low_mask

    def coupling_part(b_key, v_key, mask):
        b_expr = spin_cfg.get(b_key)
        if b_expr is None:
            return zero_form_factor(grid, dim)
        B = parse_matrix(b_expr, f"spin.{b_key}")
        if B.shape != (dim, dim):
            raise ConfigError(
                f"{b_key} has shape {B.shape}, expected ({dim}, {dim})", f"spin.{b_key}"
            )
        prof = _profile_from(spin_cfg.get(v_key), profile, mask, f"spin.{v_key}")
        return separable(grid, prof, B)

    v_le = coupling_part("B_le", "v_le", low_mask)
    v_d = coupling_part("B_D", "v_d", high_mask)
    v_n = coupling_part("B_N", "v_n", high_mask)
    s_n = _read(cfg["ibc"], "s_n", "ibc", default=2.0)
    coupling = CouplingDecomposition(v_le=v_le, v_d=v_d, v_n=v_n, s_n=s_n)

    structure = check_structure(coupling)
    for r in structure.results:
        if not (r.passed or r.skipped):
            raise ConfigError(
                f"coupling violates {r.name} (max violation {r.max_violation:.3e})",
                "spin",
            )

    lam = _read(cfg["ibc"], "lambda", "ibc")
    n_max = _read(cfg["fock"], "n_max", "fock", int)
    spec = _build(None, HamiltonianSpec, S=S, coupling=coupling, lam=lam, n_max=n_max)

    run = cfg["run"]
    schedule = _read(run, "schedule", "run", kind=None)
    if not isinstance(schedule, list) or not schedule:
        raise ConfigError("schedule must be a nonempty list of cutoffs", "run.schedule")
    schedule = [_number(x, f"run.schedule[{i}]") for i, x in enumerate(schedule)]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("schedule must be strictly increasing", "run.schedule")

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    options = {
        "seed": _read(run, "seed", "run", int, 0),
        "tolerance_scale": _read(run, "tolerance_scale", "run", default=1.0),
        "opnorm_tol": _read(run, "opnorm_tol", "run", default=1e-6),
        "opnorm_abs_tol": _read(run, "opnorm_abs_tol", "run", default=1e-7),
        "vanhove_n_max": _read(run, "vanhove_n_max", "run", int, 28),
        "vanhove_restrict_m": _read(run, "vanhove_restrict_m", "run", int, 4),
        "verify_samples": _read(run, "verify_samples", "run", int, 100),
        "profile": profile,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:12],
    }
    return spec, schedule, options


# ----------------------------------------------------------------- emission


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_outputs(out: Path, cmd: str, config_hash: str, columns, rows, passed, summary) -> int:
    """Write ``<cmd>.csv`` (``verify_results.csv`` for verify), the columns
    and rows with the config hash appended to each, and ``<cmd>.json``,
    ``summary`` with the command, config hash and verdict.  Returns the
    exit code of the verdict."""
    csv_name = "verify_results" if cmd == "verify" else cmd
    with open(out / f"{csv_name}.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*columns, "config_hash"])
        for row in rows:
            writer.writerow([_fmt(v) for v in (*row, config_hash)])
    payload = {"command": cmd, "config_hash": config_hash, "passed": passed, **summary}
    (out / f"{cmd}.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_FAIL


# ------------------------------------------------------------ verify command


def _commuting_test_pair(grid, dim, rng, target_norm=0.3):
    from .model import bs_norm

    v = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    w = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    if dim == 1:
        F = FormFactor(grid, v)
        G = FormFactor(grid, w)
    else:
        B = np.kron(SIGMA_X, np.eye(dim // 2)) if dim % 2 == 0 else np.diag(
            rng.standard_normal(dim)
        )
        F = separable(grid, v, B)
        G = separable(grid, w, B)
    F = FormFactor(grid, F.values * (target_norm / bs_norm(F, 0.0)))
    G = FormFactor(grid, G.values * (target_norm / bs_norm(G, 0.0)))
    return F, G


def _run_verify_suites(spec: HamiltonianSpec, options) -> list:
    """The identity/bound suite behind the `verify` command."""
    rng = np.random.default_rng(options["seed"])
    scale = options["tolerance_scale"]
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    dim = spec.spin_dim
    m_safe = max(spec.n_max - 2, 0)

    def block_max(X):
        """max |X| on the total-boson-number <= m_safe block."""
        return float(np.max(np.abs(restricted_block(Operator(basis, X), m_safe))))

    suites = [check_structure(spec.coupling)]

    ccr = CheckSuite("fock_ccr")
    tol_id = 1e-10 * scale
    for trial in range(3):
        F, G = _commuting_test_pair(spec.grid, dim, rng)
        phiF = field(basis, F).tocsr()
        phiG = field(basis, G).tocsr()
        comm = phiF @ phiG - phiG @ phiF
        shift = spin_operator(basis, bs_inner(F, G, 0.0) - bs_inner(G, F, 0.0))
        dev_val = block_max(comm - shift)
        ccr.add(CheckResult(f"field_commutator_{trial}", dev_val <= tol_id, dev_val, tol_id))
        dg = dgamma(basis, spec.grid.omegas).tocsr()
        omegaF = FormFactor(spec.grid, spec.grid.omegas[:, None, None] * F.values)
        expected = create(basis, omegaF).tocsr() - (
            create(basis, omegaF).tocsr().conj().T
        )
        dev2_val = block_max((dg @ phiF - phiF @ dg) - expected)
        ccr.add(
            CheckResult(f"number_commutator_{trial}", dev2_val <= tol_id, dev2_val, tol_id)
        )
    suites.append(ccr)

    ibc_suite = CheckSuite("ibc_identity")
    lam = spec.lam
    for trial in range(2):
        shape = (spec.grid.n_modes, dim, dim)
        F = FormFactor(
            spec.grid, 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        )
        T = t_op(basis, F, lam)
        res = sp.diags(basis.lift(1.0 / (basis.energies + lam)))
        ad = create(basis, F).tocsr()
        oracle = ad.conj().T @ res @ ad - spin_operator(basis, bs_inner(F, F, 1.0))
        dev_val = block_max(T.tocsr() - oracle)
        ibc_suite.add(
            CheckResult(f"normal_ordering_{trial}", dev_val <= tol_id, dev_val, tol_id)
        )
    if not spec.coupling.v_n.is_zero():
        Xi = xi(basis, spec.coupling.v_n, spec.coupling.v_n, lam)
        target = (
            h_reg(basis, np.zeros((dim, dim)), spec.coupling.v_n).tocsr()
            + spin_operator(basis, bs_inner(spec.coupling.v_n, spec.coupling.v_n, 1.0))
            + lam * sp.identity(basis.dim, format="csr")
        )
        dev_val = block_max(Xi.tocsr() - target)
        ibc_suite.add(CheckResult("boundary_identity", dev_val <= tol_id, dev_val, tol_id))
    suites.append(ibc_suite)

    suites.append(
        verify_ibc_bounds(
            basis,
            spec.coupling.v_n,
            spec.coupling.total(),
            lam,
            min(spec.coupling.s_n, 2.0),
            n_samples=options["verify_samples"],
            seed=options["seed"],
        )
    )

    F, G = _commuting_test_pair(spec.grid, dim, rng)
    m_weyl = max(spec.n_max - 6, 0)
    suites += [
        verify_weyl_transforms(basis, F, G, m=m_weyl),
        verify_weyl_continuity(
            basis, F, G, n_samples=options["verify_samples"], m=m_weyl, seed=options["seed"]
        ),
        verify_transformed_operator_identities(64, seed=options["seed"]),
    ]
    return suites


# ------------------------------------------------------------------ commands
#
# Each handler runs its study, prints its summary lines and returns
# (columns, rows, passed, summary) for ``_write_outputs``.


def _cmd_verify(spec, schedule, options):
    suites = _run_verify_suites(spec, options)
    for suite in suites:
        for line in suite.summary_lines():
            print(line)
    rows = [
        (f"{suite.name}/{r.name}", r.verdict, repr(float(r.max_violation)), repr(float(r.tolerance)))
        for suite in suites
        for r in suite.results
    ]
    summary = {
        "n_checks": len(rows),
        "worst_violation": max((s.worst() for s in suites), default=0.0),
    }
    columns = ["check", "verdict", "max_violation", "tolerance"]
    return columns, rows, all(s.passed for s in suites), summary


def _cmd_converge(spec, schedule, options):
    report = convergence_study(
        spec,
        schedule,
        opnorm_tol=options["opnorm_tol"],
        opnorm_abs_tol=options["opnorm_abs_tol"],
        seed=options["seed"],
    )
    for r in report.rows:
        print(
            f"Lambda={r.Lambda:g} E_trace={r.e_trace:.6g} distance={r.resolvent_distance:.6g} verdict={report.verdict}"
        )
    columns = [
        "Lambda",
        "E_trace",
        "resolvent_distance",
        "ground_energy_reg",
        "ground_energy_renorm",
        "verdict",
    ]
    rows = [(*astuple(r), report.verdict) for r in report.rows]
    summary = {
        "nonincreasing_ok": report.nonincreasing_ok,
        "decay_ok": report.decay_ok,
        "distances": [r.resolvent_distance for r in report.rows],
        "schedule": report.schedule,
    }
    return columns, rows, report.passed, summary


def _cmd_vanhove(spec, schedule, options):
    report = vanhove_demo(
        spec.grid,
        options["profile"],
        schedule,
        n_max=options["vanhove_n_max"],
        restrict_m=options["vanhove_restrict_m"],
    )
    for r in report.rows:
        print(
            f"Lambda={r.Lambda:g} deviation={r.conjugation_deviation:.3e} "
            f"parity={r.parity_expectation:.6e} ground={r.ground_energy:.6g}"
        )
    columns = [
        "Lambda",
        "conjugation_deviation",
        "parity_expectation",
        "parity_oracle",
        "ground_energy",
        "ground_oracle",
        "verdict",
    ]
    rows = [(*astuple(r), report.verdict) for r in report.rows]
    summary = {
        "conjugation_ok": report.conjugation_ok,
        "parity_ok": report.parity_ok,
        "energy_ok": report.energy_ok,
    }
    return columns, rows, report.passed, summary


def _cmd_spectrum(spec, schedule, options):
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    rows = []
    for Lam in schedule:
        H_L, E_L = h_cutoff(basis, spec, Lam)
        g = ground_energy(H_L, seed=options["seed"])
        rows.append((Lam, float(np.trace(E_L).real), g))
        print(f"Lambda={Lam:g} ground_energy={g:.8g}")
    columns = ["Lambda", "E_trace", "ground_energy_reg"]
    return columns, rows, True, {"ground_energies": [r[2] for r in rows]}


def _cmd_report(out: Path) -> int:
    payloads = []
    for name in ("verify", "converge", "vanhove", "spectrum"):
        p = out / f"{name}.json"
        if p.exists():
            payloads.append(json.loads(p.read_text()))
    if not payloads:
        print(f"no prior outputs found in {out}", file=sys.stderr)
        return EXIT_CONFIG
    lines = []
    for payload in payloads:
        status = "PASS" if payload.get("passed") else "FAIL"
        lines.append(f"{payload['command']}: {status} (config {payload.get('config_hash')})")
        for key, value in sorted(payload.items()):
            if key in ("command", "config_hash", "passed"):
                continue
            lines.append(f"  {key}: {value}")
    text = "\n".join(lines)
    (out / "report.txt").write_text(text + "\n")
    print(text)
    return EXIT_OK


def run_command(
    cmd: str, config_path, out_dir, seed: int | None = None, tolerance_scale: float | None = None
) -> int:
    """Dispatch one CLI command; returns the process exit code.

    ``seed`` overrides the config seed; ``tolerance_scale`` the factor on
    the identity tolerances of `verify`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cmd == "report":
        return _cmd_report(out)
    spec, schedule, options = parse_config(config_path)
    if seed is not None:
        options["seed"] = seed
    if tolerance_scale is not None:
        options["tolerance_scale"] = tolerance_scale
    handlers = {
        "verify": _cmd_verify,
        "converge": _cmd_converge,
        "vanhove": _cmd_vanhove,
        "spectrum": _cmd_spectrum,
    }
    if cmd not in handlers:
        raise ConfigError(f"unknown command {cmd!r}")
    columns, rows, passed, summary = handlers[cmd](spec, schedule, options)
    return _write_outputs(out, cmd, options["config_hash"], columns, rows, passed, summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sbfock",
        description="Spin-boson models on truncated Fock spaces: verification and cutoff studies.",
    )
    parser.add_argument("command", choices=["verify", "converge", "vanhove", "spectrum", "report"])
    parser.add_argument("--config", type=str, help="path to the JSON run configuration")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--tolerance-scale",
        type=float,
        default=None,
        help="scale factor applied to identity tolerances in `verify`",
    )
    args = parser.parse_args(argv)
    if args.command != "report" and args.config is None:
        print("error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_command(
            args.command, args.config, args.out, seed=args.seed, tolerance_scale=args.tolerance_scale
        )
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SbfockError as exc:  # config error, or a size cap or invalid model met in a command
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
