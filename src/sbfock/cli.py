"""Configuration parsing, command dispatch and report emission.

Usage: ``sbfock COMMAND --config FILE [--out DIR]``.  Configs are JSON
files with nested sections (grid / spin / fock / ibc / run), and they are
the only source of a run's settings, the seed (``run.seed``) included:
every output carries the hash of its config, so the same config gives
byte-identical outputs.  Spin matrices may be given as named shortcuts
(sigma_x, sigma_y, sigma_z, sigma_minus, sigma_plus, identity(n),
kron(a, b)) or as row-major nested lists of [re, im] pairs.  A shortcut
is read by Python's expression parser (``ast``, never evaluated), so its
nesting is limited by that parser: about 200 levels of parentheses.

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
import ast
import csv
import hashlib
import json
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError, SbfockError
from .fock import SpinSpace, build_basis, create, dgamma, field, spin_operator
from .ibc import IDENTITY_TOL, restricted_block, t_op, verify_ibc_bounds, xi
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
    bs_norm,
    check_structure,
    power_law_grid,
    require_structure,
    separable,
    zero_form_factor,
)
from .renorm import (
    HamiltonianSpec,
    StudyReport,
    check_schedule,
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


def parse_matrix(expr, key_path: str, dim: int) -> np.ndarray:
    """Named shortcut, kron()/identity() expression, or [re, im]-pair lists;
    one not dim x dim raises ``ConfigError`` before it is built."""
    if isinstance(expr, list):
        try:
            arr = np.asarray(expr, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed matrix literal: {exc}", key_path) from None
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(
                "matrix literal must be a square row-major list of [re, im] pairs", key_path
            )
        n, build = arr.shape[0], lambda: arr[:, :, 0] + 1j * arr[:, :, 1]
    elif isinstance(expr, str):
        text = expr.strip()
        try:
            tree = ast.parse(text, mode="eval")
        except (SyntaxError, ValueError) as exc:  # Python's nesting limit and null bytes included
            raise ConfigError(f"malformed matrix expression: {getattr(exc, 'msg', exc)}", key_path) from None
        except (RecursionError, MemoryError):  # the parser's own stack ran out
            raise ConfigError("matrix expression nests too deeply", key_path) from None
        n, build = _matrix_node(tree.body, text, key_path)
    else:
        raise ConfigError("matrix must be a shortcut string or [re, im] list", key_path)
    if n != dim:
        name = key_path.rsplit(".", 1)[-1]
        raise ConfigError(f"{name} has shape {(n, n)}, expected ({dim}, {dim})", key_path)
    return build()


def _matrix_node(node: ast.expr, text: str, key_path: str):
    """(n, build) for a node of the parsed shortcut ``text``: the size of its
    n x n matrix and a function building it.  The node is a named (2 x 2)
    matrix, ``identity(n)`` for an int literal n, or ``kron(a, b)`` of two."""
    if isinstance(node, ast.Name) and node.id in _NAMED_MATRICES:
        return 2, _NAMED_MATRICES[node.id].copy
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        name, args = node.func.id, node.args
        if name == "kron" and len(args) == 2:
            (m, left), (n, right) = (_matrix_node(arg, text, key_path) for arg in args)
            return m * n, lambda: np.kron(left(), right())
        if name == "identity" and len(args) == 1:
            n = args[0]
            if isinstance(n, ast.Constant) and type(n.value) is int:
                return n.value, lambda: np.eye(n.value, dtype=complex)
    raise ConfigError(f"unknown matrix shortcut {ast.get_source_segment(text, node)!r}", key_path)


_SCHEMA = {
    "grid": {"family", "beta", "kappa", "lambda_max", "n_modes", "modes"},
    "spin": {"dim", "S", "B_le", "B_D", "B_N", "v_le", "v_d", "v_n"},
    "fock": {"n_max"},
    "ibc": {"lambda", "s_n"},
    "run": {"schedule", "seed", "vanhove_n_max", "vanhove_restrict_m"},
}


def _object(table, keys, where: str) -> dict:
    """``table``, checked to be a JSON object with no key outside ``keys``;
    otherwise ``ConfigError`` at ``where``."""
    if not isinstance(table, dict):
        raise ConfigError("must be an object", where)
    unknown = set(table) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}", where)
    return table


def _number(value, key_path: str, kind=float):
    """``value`` as a finite float, or as an int when ``kind`` is int.  A
    boolean, a value that does not convert, a NaN or infinity, or an int
    that it would truncate, raises ``ConfigError`` at ``key_path``."""
    try:
        number = kind(value)
        exact = math.isfinite(number) and (kind is float or number == float(value))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if isinstance(value, bool) or not exact:
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
        scale = _read(_object(entry, {"scale"}, key_path), "scale", key_path, default=1.0)
        return scale * np.where(mask, base, 0.0)
    if not isinstance(entry, list) or len(entry) != len(base):
        raise ConfigError("explicit profile length must equal the number of modes", key_path)
    vals = np.array([_number(v, f"{key_path}[{i}]") for i, v in enumerate(entry)])
    return np.where(mask, vals, 0.0)


def parse_config(path) -> tuple[HamiltonianSpec, list, dict]:
    """Read and validate a JSON run configuration.

    Returns the Hamiltonian description, the cutoff schedule, and a dict
    of run options (seed, van Hove basis parameters, the
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
    _object(cfg, _SCHEMA, "<root>")
    for section, keys in _SCHEMA.items():
        if section not in cfg:
            raise ConfigError("missing required section", section)
        _object(cfg[section], keys, section)

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
            _object(mode, {"k", "omega", "mu", "v"}, where)
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
    S = parse_matrix(_read(spin_cfg, "S", "spin", kind=None), "spin.S", dim)

    low_mask = grid.ir_mask()
    high_mask = ~low_mask

    def coupling_part(b_key, v_key, mask):
        b_expr = spin_cfg.get(b_key)
        if b_expr is None:
            return zero_form_factor(grid, dim)
        B = parse_matrix(b_expr, f"spin.{b_key}", dim)
        prof = _profile_from(spin_cfg.get(v_key), profile, mask, f"spin.{v_key}")
        return separable(grid, prof, B)

    v_le = coupling_part("B_le", "v_le", low_mask)
    v_d = coupling_part("B_D", "v_d", high_mask)
    v_n = coupling_part("B_N", "v_n", high_mask)
    s_n = _read(cfg["ibc"], "s_n", "ibc", default=2.0)
    coupling = CouplingDecomposition(v_le=v_le, v_d=v_d, v_n=v_n, s_n=s_n)

    _build("spin", require_structure, coupling)

    lam = _read(cfg["ibc"], "lambda", "ibc")
    n_max = _read(cfg["fock"], "n_max", "fock", int)
    spec = _build(None, HamiltonianSpec, S=S, coupling=coupling, lam=lam, n_max=n_max)

    run = cfg["run"]
    schedule = _read(run, "schedule", "run", kind=None)
    if not isinstance(schedule, list):
        raise ConfigError("schedule must be a list of cutoffs", "run.schedule")
    schedule = [_number(x, f"run.schedule[{i}]") for i, x in enumerate(schedule)]
    schedule = _build("run.schedule", check_schedule, schedule)

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    options = {
        "seed": _read(run, "seed", "run", int, 0),
        "vanhove_n_max": _read(run, "vanhove_n_max", "run", int, 28),
        "vanhove_restrict_m": _read(run, "vanhove_restrict_m", "run", int, 4),
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


def _commuting_test_pair(grid, dim, rng):
    """Random form factors F, G with commuting spin parts, of b_0 norm 0.3."""
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
    F = FormFactor(grid, F.values * (0.3 / bs_norm(F, 0.0)))
    G = FormFactor(grid, G.values * (0.3 / bs_norm(G, 0.0)))
    return F, G


def _run_verify_suites(spec: HamiltonianSpec, options) -> list:
    """The identity/bound suite behind the `verify` command."""
    rng = np.random.default_rng(options["seed"])
    dim = spec.spin_dim
    basis = build_basis(spec.grid, SpinSpace(dim), spec.n_max)
    # the identity checks read the block of total <= m_safe alone, so they are
    # built on the safe prefix and give the full basis's values bit for bit
    m_safe, prefix = basis.safe_prefix()

    def vanishes(name, X):
        """Identity check that max |X| on the total-boson-number <= m_safe
        block is at most ``IDENTITY_TOL``."""
        dev = float(np.max(np.abs(restricted_block(prefix, X, m_safe))))
        return CheckResult(name, dev <= IDENTITY_TOL, dev, IDENTITY_TOL)

    suites = [check_structure(spec.coupling)]

    ccr = CheckSuite("fock_ccr")
    dg = dgamma(prefix, spec.grid.omegas)
    for trial in range(3):
        F, G = _commuting_test_pair(spec.grid, dim, rng)
        phiF = field(prefix, F)
        phiG = field(prefix, G)
        comm = phiF @ phiG - phiG @ phiF
        shift = spin_operator(prefix, bs_inner(F, G, 0.0) - bs_inner(G, F, 0.0))
        ccr.add(vanishes(f"field_commutator_{trial}", comm - shift))
        omegaF = FormFactor(spec.grid, spec.grid.omegas[:, None, None] * F.values)
        ad = create(prefix, omegaF)
        expected = ad - ad.conj().T
        ccr.add(vanishes(f"number_commutator_{trial}", (dg @ phiF - phiF @ dg) - expected))
    suites.append(ccr)

    ibc_suite = CheckSuite("ibc_identity")
    lam = spec.lam
    v_n = spec.coupling.v_n
    for trial in range(2):
        shape = (spec.grid.n_modes, dim, dim)
        F = FormFactor(
            spec.grid, 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        )
        T = t_op(prefix, F, lam)
        res = sp.diags(prefix.lift(1.0 / (prefix.energies + lam)))
        ad = create(prefix, F)
        oracle = ad.conj().T @ res @ ad - spin_operator(prefix, bs_inner(F, F, 1.0))
        ibc_suite.add(vanishes(f"normal_ordering_{trial}", T - oracle))
    if not v_n.is_zero():
        # xi - lambda = H_reg + <v, v>_{b_1}, each side formed without lambda 1
        target = h_reg(prefix, np.zeros((dim, dim)), v_n).matrix
        target = target + spin_operator(prefix, bs_inner(v_n, v_n, 1.0))
        ibc_suite.add(vanishes("boundary_identity", xi(prefix, v_n, v_n, lam) - target))
    suites.append(ibc_suite)

    suites.append(
        verify_ibc_bounds(
            basis, v_n, spec.coupling.total(), lam, spec.coupling.s_n, seed=options["seed"]
        )
    )

    F, G = _commuting_test_pair(spec.grid, dim, rng)
    m_weyl = max(spec.n_max - 6, 0)
    suites += [
        verify_weyl_transforms(basis, F, G, m=m_weyl),
        verify_weyl_continuity(basis, F, G, m=m_weyl, seed=options["seed"]),
        verify_transformed_operator_identities(seed=options["seed"]),
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


def _study_outputs(report: StudyReport, **summary):
    """``_write_outputs`` arguments of a study: the row fields plus the
    verdict as columns, and the report's checks joined to ``summary``."""
    columns = [*(f.name for f in fields(report.rows[0])), "verdict"]
    rows = [(*astuple(r), report.verdict) for r in report.rows]
    return columns, rows, report.passed, {**report.checks, **summary}


def _cmd_converge(spec, schedule, options):
    report = convergence_study(spec, schedule, seed=options["seed"])
    for r in report.rows:
        print(
            f"Lambda={r.Lambda:g} E_trace={r.E_trace:.6g} distance={r.resolvent_distance:.6g} verdict={report.verdict}"
        )
    return _study_outputs(
        report,
        distances=[r.resolvent_distance for r in report.rows],
        schedule=report.schedule,
    )


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
    return _study_outputs(report)


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


_HANDLERS = {
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "vanhove": _cmd_vanhove,
    "spectrum": _cmd_spectrum,
}


def _cmd_report(out: Path) -> int:
    payloads = []
    for name in _HANDLERS:
        p = out / f"{name}.json"
        if p.exists():
            try:
                payload = json.loads(p.read_text())
            except ValueError as exc:  # malformed JSON or text
                raise ConfigError(f"{p} is not a JSON output file: {exc}") from None
            if not isinstance(payload, dict) or "command" not in payload:
                raise ConfigError(f"{p} is not a JSON object with a command")
            payloads.append(payload)
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


def run_command(cmd: str, config_path, out_dir) -> int:
    """Dispatch one CLI command; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cmd == "report":
        return _cmd_report(out)
    if cmd not in _HANDLERS:
        raise ConfigError(f"unknown command {cmd!r}")
    spec, schedule, options = parse_config(config_path)
    columns, rows, passed, summary = _HANDLERS[cmd](spec, schedule, options)
    return _write_outputs(out, cmd, options["config_hash"], columns, rows, passed, summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sbfock",
        description="Spin-boson models on truncated Fock spaces: verification and cutoff studies.",
    )
    parser.add_argument("command", choices=[*_HANDLERS, "report"])
    parser.add_argument("--config", type=str, help="path to the JSON run configuration")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    args = parser.parse_args(argv)
    if args.command != "report" and args.config is None:
        print("error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_command(args.command, args.config, args.out)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SbfockError as exc:  # config error, or a size cap or invalid model met in a command
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
