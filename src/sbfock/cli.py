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
usage error, 3 numeric failure inside a computation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError, SbfockError
from .fock import Operator, SpinSpace, build_basis, create, dgamma, field
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

_CONVERGE_COLUMNS = [
    "Lambda",
    "E_trace",
    "resolvent_distance",
    "ground_energy_reg",
    "ground_energy_renorm",
    "verdict",
    "config_hash",
]


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


def _check_keys(cfg: dict, path: str = ""):
    if path == "":
        unknown = set(cfg) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown section(s) {sorted(unknown)}", "<root>")
        for section, keys in cfg.items():
            if not isinstance(keys, dict):
                raise ConfigError("section must be an object", section)
            bad = set(keys) - _SCHEMA[section]
            if bad:
                raise ConfigError(f"unknown key(s) {sorted(bad)}", section)


def _require(cfg: dict, section: str, key: str):
    try:
        return cfg[section][key]
    except KeyError:
        raise ConfigError("missing required key", f"{section}.{key}") from None


def _profile_from(entry, base: np.ndarray, mask: np.ndarray, key_path: str) -> np.ndarray:
    """Coupling profile on a support mask: scaled grid profile or explicit list."""
    if entry is None:
        return np.where(mask, base, 0.0)
    if isinstance(entry, dict):
        unknown = set(entry) - {"scale"}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)}", key_path)
        return float(entry.get("scale", 1.0)) * np.where(mask, base, 0.0)
    vals = np.asarray(entry, dtype=float)
    if vals.shape != base.shape:
        raise ConfigError("explicit profile length must equal the number of modes", key_path)
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

    family = _require(cfg, "grid", "family")
    kappa = float(_require(cfg, "grid", "kappa"))
    if family == "power_law":
        beta = float(_require(cfg, "grid", "beta"))
        lambda_max = float(_require(cfg, "grid", "lambda_max"))
        n_modes = int(_require(cfg, "grid", "n_modes"))
        if kappa >= lambda_max:
            raise ConfigError("kappa must be strictly below lambda_max", "grid.kappa")
        grid, profile = power_law_grid(beta, kappa, lambda_max, n_modes)
    elif family == "explicit":
        modes = _require(cfg, "grid", "modes")
        if not isinstance(modes, list) or not modes:
            raise ConfigError("explicit grid needs a nonempty mode list", "grid.modes")
        ks, oms, mus, vs = [], [], [], []
        for i, mode in enumerate(modes):
            bad = set(mode) - {"k", "omega", "mu", "v"}
            if bad:
                raise ConfigError(f"unknown key(s) {sorted(bad)}", f"grid.modes[{i}]")
            oms.append(float(mode["omega"]))
            ks.append(float(mode.get("k", mode["omega"])))
            mus.append(float(mode.get("mu", 1.0)))
            vs.append(float(mode.get("v", 1.0)))
        grid = ModeGrid(
            labels=np.array(ks), omegas=np.array(oms), mus=np.array(mus), kappa=kappa
        )
        profile = np.array(vs)
    else:
        raise ConfigError(f"unknown grid family {family!r}", "grid.family")

    dim = int(_require(cfg, "spin", "dim"))
    spin_cfg = cfg["spin"]
    S = parse_matrix(_require(cfg, "spin", "S"), "spin.S")
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
    s_n = float(cfg["ibc"].get("s_n", 2.0))
    coupling = CouplingDecomposition(v_le=v_le, v_d=v_d, v_n=v_n, s_n=s_n)

    structure = check_structure(coupling)
    for r in structure.results:
        if not (r.passed or r.skipped):
            raise ConfigError(
                f"coupling violates {r.name} (max violation {r.max_violation:.3e})",
                "spin",
            )

    lam = float(_require(cfg, "ibc", "lambda"))
    n_max = int(_require(cfg, "fock", "n_max"))
    try:
        spec = HamiltonianSpec(S=S, coupling=coupling, lam=lam, n_max=n_max)
    except SbfockError as exc:
        raise ConfigError(str(exc)) from None

    schedule = [float(x) for x in _require(cfg, "run", "schedule")]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("schedule must be strictly increasing", "run.schedule")

    run = cfg["run"]
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    options = {
        "seed": int(run.get("seed", 0)),
        "tolerance_scale": float(run.get("tolerance_scale", 1.0)),
        "opnorm_tol": float(run.get("opnorm_tol", 1e-6)),
        "opnorm_abs_tol": float(run.get("opnorm_abs_tol", 1e-7)),
        "vanhove_n_max": int(run.get("vanhove_n_max", 28)),
        "vanhove_restrict_m": int(run.get("vanhove_restrict_m", 4)),
        "verify_samples": int(run.get("verify_samples", 100)),
        "profile": profile,
        "grid_cfg": cfg["grid"],
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:12],
    }
    return spec, schedule, options


# ----------------------------------------------------------------- emission


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _suite_rows(suites, config_hash):
    for suite in suites:
        for r in suite.results:
            yield (
                f"{suite.name}/{r.name}",
                r.verdict,
                repr(float(r.max_violation)),
                repr(float(r.tolerance)),
                config_hash,
            )


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

    eye_fock = sp.identity(basis.n_fock, format="csr")
    suites = [check_structure(spec.coupling)]

    ccr = CheckSuite("fock_ccr")
    tol_id = 1e-10 * scale
    for trial in range(3):
        F, G = _commuting_test_pair(spec.grid, dim, rng)
        phiF = field(basis, F).tocsr()
        phiG = field(basis, G).tocsr()
        comm = phiF @ phiG - phiG @ phiF
        shift = sp.kron(eye_fock, sp.csr_matrix(bs_inner(F, G, 0.0) - bs_inner(G, F, 0.0)))
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
        res = sp.diags(np.repeat(1.0 / (basis.energies + lam), dim))
        ad = create(basis, F).tocsr()
        oracle = ad.conj().T @ res @ ad - sp.kron(
            eye_fock, sp.csr_matrix(bs_inner(F, F, 1.0))
        )
        dev_val = block_max(T.tocsr() - oracle)
        ibc_suite.add(
            CheckResult(f"normal_ordering_{trial}", dev_val <= tol_id, dev_val, tol_id)
        )
    if not spec.coupling.v_n.is_zero():
        Xi = xi(basis, spec.coupling.v_n, spec.coupling.v_n, lam)
        target = (
            h_reg(basis, np.zeros((dim, dim)), spec.coupling.v_n).tocsr()
            + sp.kron(eye_fock, sp.csr_matrix(bs_inner(spec.coupling.v_n, spec.coupling.v_n, 1.0)))
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


def _cmd_verify(spec, schedule, options, out: Path) -> int:
    suites = _run_verify_suites(spec, options)
    rows = list(_suite_rows(suites, options["config_hash"]))
    _write_csv(out / "verify_results.csv", ["check", "verdict", "max_violation", "tolerance", "config_hash"], rows)
    passed = all(s.passed for s in suites)
    _write_json(
        out / "verify.json",
        {
            "command": "verify",
            "config_hash": options["config_hash"],
            "passed": passed,
            "n_checks": len(rows),
            "worst_violation": max((s.worst() for s in suites), default=0.0),
        },
    )
    for suite in suites:
        for line in suite.summary_lines():
            print(line)
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_converge(spec, schedule, options, out: Path) -> int:
    report = convergence_study(
        spec,
        schedule,
        opnorm_tol=options["opnorm_tol"],
        opnorm_abs_tol=options["opnorm_abs_tol"],
        seed=options["seed"],
    )
    rows = [
        (
            r.Lambda,
            r.e_trace,
            r.resolvent_distance,
            r.ground_energy_reg,
            r.ground_energy_renorm,
            report.verdict,
            options["config_hash"],
        )
        for r in report.rows
    ]
    _write_csv(out / "converge.csv", _CONVERGE_COLUMNS, rows)
    _write_json(
        out / "converge.json",
        {
            "command": "converge",
            "config_hash": options["config_hash"],
            "passed": report.passed,
            "nonincreasing_ok": report.nonincreasing_ok,
            "decay_ok": report.decay_ok,
            "distances": [r.resolvent_distance for r in report.rows],
            "schedule": report.schedule,
        },
    )
    for r in report.rows:
        print(
            f"Lambda={r.Lambda:g} E_trace={r.e_trace:.6g} distance={r.resolvent_distance:.6g} verdict={report.verdict}"
        )
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_vanhove(spec, schedule, options, out: Path) -> int:
    grid_cfg = options["grid_cfg"]
    report = vanhove_demo(
        float(grid_cfg.get("beta", 0.0)),
        schedule,
        n_max=options["vanhove_n_max"],
        restrict_m=options["vanhove_restrict_m"],
        grid_and_profile=(spec.grid, options["profile"]),
    )
    rows = [
        (
            r.Lambda,
            r.conjugation_deviation,
            r.parity_expectation,
            r.parity_oracle,
            r.ground_energy,
            r.ground_oracle,
            report.verdict,
            options["config_hash"],
        )
        for r in report.rows
    ]
    _write_csv(
        out / "vanhove.csv",
        [
            "Lambda",
            "conjugation_deviation",
            "parity_expectation",
            "parity_oracle",
            "ground_energy",
            "ground_oracle",
            "verdict",
            "config_hash",
        ],
        rows,
    )
    _write_json(
        out / "vanhove.json",
        {
            "command": "vanhove",
            "config_hash": options["config_hash"],
            "passed": report.passed,
            "conjugation_ok": report.conjugation_ok,
            "parity_ok": report.parity_ok,
            "energy_ok": report.energy_ok,
        },
    )
    for r in report.rows:
        print(
            f"Lambda={r.Lambda:g} deviation={r.conjugation_deviation:.3e} "
            f"parity={r.parity_expectation:.6e} ground={r.ground_energy:.6g}"
        )
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_spectrum(spec, schedule, options, out: Path) -> int:
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    rows = []
    for Lam in schedule:
        H_L, E_L = h_cutoff(basis, spec, Lam)
        g = ground_energy(H_L, seed=options["seed"])
        rows.append((Lam, float(np.trace(E_L).real), g, options["config_hash"]))
        print(f"Lambda={Lam:g} ground_energy={g:.8g}")
    _write_csv(
        out / "spectrum.csv", ["Lambda", "E_trace", "ground_energy_reg", "config_hash"], rows
    )
    _write_json(
        out / "spectrum.json",
        {
            "command": "spectrum",
            "config_hash": options["config_hash"],
            "passed": True,
            "ground_energies": [r[2] for r in rows],
        },
    )
    return EXIT_OK


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
    return handlers[cmd](spec, schedule, options, out)


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SbfockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
