"""Correctness checks of the CLI outputs.

Each check recomputes what it can from the generated config with numpy,
or tests a property the method guarantees; none compares against stored
output.  A check returns a list of problems; an empty list means the
output is correct.  A number written as ``np.float64(x)`` is a known
output fault: it is reported as a problem that starts with ``MALFORMED``
(the operation fails), and x is still checked.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

MALFORMED = "malformed number"
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")
Z = 1j  # spectral point of the resolvent distances
CONJUGATION_TOL = 1e-7  # the van Hove demo's own tolerance
_SPIN = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sigma_minus": np.array([[0, 0], [1, 0]], dtype=complex),
}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def num(row, key, problems) -> float:
    text = row[key]
    try:
        return float(text)
    except ValueError:
        match = _NUMPY_REPR.fullmatch(text)
        if match is None:
            raise
        problems.append(f"{MALFORMED}: {key}={text}")
        return float(match.group(1))


def _modes(cfg):
    modes = cfg["grid"]["modes"]
    return (
        np.array([m["omega"] for m in modes]),
        np.array([m["mu"] for m in modes]),
        np.array([m["v"] for m in modes]),
    )


def _part(cfg, b_key, v_key):
    """(scale, matrix) of one coupling part; matrix 0 when absent."""
    spin = cfg["spin"]
    if spin.get(b_key) is None:
        return 0.0, np.zeros((2, 2), dtype=complex)
    return float(spin.get(v_key, {}).get("scale", 1.0)), _SPIN[spin[b_key]]


def counterterm(cfg, Lam: float) -> np.ndarray:
    """E_Lambda = sum over kappa < omega_i < Lambda of mu_i / omega_i V_i^* V_i,
    with V_i the normal plus nilpotent part of the coupling at mode i."""
    omega, mu, v = _modes(cfg)
    s_d, B_d = _part(cfg, "B_D", "v_d")
    s_n, B_n = _part(cfg, "B_N", "v_n")
    B = s_d * B_d + s_n * B_n
    sel = (omega > cfg["grid"]["kappa"]) & (omega < Lam)
    return float(np.sum(mu[sel] / omega[sel] * np.abs(v[sel]) ** 2)) * (B.conj().T @ B)


def _spin_ground(cfg):
    S = _SPIN[cfg["spin"]["S"]]
    vals, vecs = np.linalg.eigh(S)
    return float(vals[0]), vecs[:, 0]


def rayleigh_reg(cfg, Lam: float) -> float:
    """<psi, H_Lambda psi> for psi = vacuum (x) ground state of S: the field
    term changes the boson number and dGamma kills the vacuum, so only S
    and the counterterm contribute."""
    s0, e = _spin_ground(cfg)
    return s0 + float(np.real(e.conj() @ counterterm(cfg, Lam) @ e))


def rayleigh_lim(cfg) -> float | None:
    """<psi, H_lim psi> for the same psi when the nilpotent part annihilates
    it (then (1 + G^*) psi = psi, and only S - <psi, theta0 psi> remains,
    which is S's eigenvalue because F_i psi = 0).  None on the dressing
    route or when the nilpotent part does not annihilate psi."""
    s0, e = _spin_ground(cfg)
    _, B_n = _part(cfg, "B_N", "v_n")
    if cfg["spin"].get("B_D") is not None or np.linalg.norm(B_n @ e) > 0:
        return None
    return s0


def check_converge(cfg, rows, expect_pass: bool) -> list[str]:
    problems = []
    schedule = cfg["run"]["schedule"]
    if [float(r["Lambda"]) for r in rows] != schedule:
        return [f"converge rows {[r['Lambda'] for r in rows]} do not follow the schedule {schedule}"]
    want = "PASS" if expect_pass else "FAIL"
    bound = 2.0 / abs(Z.imag)
    lim = rayleigh_lim(cfg)
    for r in rows:
        Lam = float(r["Lambda"])
        if r["verdict"] != want:
            problems.append(f"Lambda={Lam:g}: verdict {r['verdict']}, expected {want}")
        dist = num(r, "resolvent_distance", problems)
        if not 0.0 <= dist <= bound:
            problems.append(f"Lambda={Lam:g}: distance {dist!r} outside [0, {bound}]")
        e_trace = float(np.trace(counterterm(cfg, Lam)).real)
        if not math.isclose(num(r, "E_trace", problems), e_trace, rel_tol=1e-10, abs_tol=1e-12):
            problems.append(f"Lambda={Lam:g}: E_trace {r['E_trace']} != {e_trace!r}")
        rq = rayleigh_reg(cfg, Lam)
        if num(r, "ground_energy_reg", problems) > rq + 1e-9 * max(1.0, abs(rq)):
            problems.append(
                f"Lambda={Lam:g}: ground_energy_reg {r['ground_energy_reg']} above the "
                f"vacuum Rayleigh quotient {rq!r}"
            )
        if lim is not None and num(r, "ground_energy_renorm", problems) > lim + 1e-9 * max(1.0, abs(lim)):
            problems.append(
                f"ground_energy_renorm {r['ground_energy_renorm']} above the vacuum "
                f"Rayleigh quotient {lim!r}"
            )
    return problems


def check_distances(rows, reference) -> list[str]:
    """Distances against an independent dense computation."""
    problems = []
    for r, ref in zip(rows, reference):
        if not math.isclose(num(r, "resolvent_distance", problems), ref, rel_tol=1e-5, abs_tol=1e-9):
            problems.append(f"Lambda={r['Lambda']}: distance {r['resolvent_distance']} != dense SVD {ref!r}")
    return problems


def dense_distances(config_path: Path) -> list[float]:
    """||(H_Lambda - z)^-1 - (H_lim - z)^-1|| from dense inverses and a dense
    SVD, with no use of the structured solvers or the Lanczos estimator."""
    from sbfock.cli import parse_config
    from sbfock.fock import SpinSpace, build_basis
    from sbfock.model import renorm_energy, uv_truncate
    from sbfock.renorm import h_reg, h_renormalized

    spec, schedule, _ = parse_config(config_path)
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    eye = np.eye(basis.dim)
    R_lim = np.linalg.inv(h_renormalized(basis, spec).dense() - Z * eye)
    out = []
    for Lam in schedule:
        V_L = uv_truncate(spec.coupling.total(), Lam)
        H_L = h_reg(basis, spec.S, V_L).dense() + np.kron(np.eye(basis.n_fock), renorm_energy(V_L))
        out.append(float(np.linalg.norm(np.linalg.inv(H_L - Z * eye) - R_lim, 2)))
    return out


def check_vanhove(cfg, rows) -> list[str]:
    """Deviation within the demo's tolerance; parity and ground energy equal
    exp(-2 sum mu |v|^2 / omega^2) and -sum mu |v|^2 / omega over omega < Lambda."""
    omega, mu, v = _modes(cfg)
    problems = []
    schedule = cfg["run"]["schedule"]
    if [float(r["Lambda"]) for r in rows] != schedule:
        return [f"vanhove rows {[r['Lambda'] for r in rows]} do not follow the schedule {schedule}"]
    for r in rows:
        Lam = float(r["Lambda"])
        sel = omega < Lam
        parity = math.exp(-2.0 * float(np.sum(mu[sel] * np.abs(v[sel]) ** 2 / omega[sel] ** 2)))
        ground = -float(np.sum(mu[sel] * np.abs(v[sel]) ** 2 / omega[sel]))
        if r["verdict"] != "PASS":
            problems.append(f"Lambda={Lam:g}: verdict {r['verdict']}")
        if not num(r, "conjugation_deviation", problems) <= CONJUGATION_TOL:
            problems.append(f"Lambda={Lam:g}: deviation {r['conjugation_deviation']} > {CONJUGATION_TOL}")
        for key in ("parity_expectation", "parity_oracle"):
            if not math.isclose(num(r, key, problems), parity, rel_tol=1e-6):
                problems.append(f"Lambda={Lam:g}: {key} {r[key]} != {parity!r}")
        for key in ("ground_energy", "ground_oracle"):
            if not math.isclose(num(r, key, problems), ground, rel_tol=1e-8):
                problems.append(f"Lambda={Lam:g}: {key} {r[key]} != {ground!r}")
    return problems


def check_verify(rows, summary) -> list[str]:
    problems = [f"{r['check']}: {r['verdict']}" for r in rows if r["verdict"] != "PASS"]
    if not rows or summary.get("passed") is not True or summary.get("n_checks") != len(rows):
        problems.append(f"verify.json {summary} does not match {len(rows)} PASS rows")
    return problems


def check_spectrum(cfg, rows) -> list[str]:
    problems = []
    if [float(r["Lambda"]) for r in rows] != cfg["run"]["schedule"]:
        return ["spectrum rows do not follow the schedule"]
    for r in rows:
        Lam = float(r["Lambda"])
        rq = rayleigh_reg(cfg, Lam)
        if num(r, "ground_energy_reg", problems) > rq + 1e-9 * max(1.0, abs(rq)):
            problems.append(f"Lambda={Lam:g}: ground energy {r['ground_energy_reg']} above {rq!r}")
        e_trace = float(np.trace(counterterm(cfg, Lam)).real)
        if not math.isclose(num(r, "E_trace", problems), e_trace, rel_tol=1e-10, abs_tol=1e-12):
            problems.append(f"Lambda={Lam:g}: E_trace {r['E_trace']} != {e_trace!r}")
    return problems


class Checker:
    """Checks one command's output directory; caches dense references."""

    def __init__(self, configs: dict, config_dir: Path):
        self.configs = configs
        self.config_dir = config_dir
        self._references = {}

    def __call__(self, command, out: Path) -> list[str]:
        cfg = self.configs[command.config]
        if command.cli == "converge":
            rows = read_rows(out / "converge.csv")
            problems = check_converge(cfg, rows, expect_pass=command.expect_exit == 0)
            if command.dense_reference:
                if command.config not in self._references:
                    self._references[command.config] = dense_distances(
                        self.config_dir / f"{command.config}.json"
                    )
                problems += check_distances(rows, self._references[command.config])
            return problems
        if command.cli == "vanhove":
            return check_vanhove(cfg, read_rows(out / "vanhove.csv"))
        if command.cli == "verify":
            summary = json.loads((out / "verify.json").read_text())
            return check_verify(read_rows(out / "verify_results.csv"), summary)
        if command.cli == "spectrum":
            return check_spectrum(cfg, read_rows(out / "spectrum.csv"))
        return [f"no check for command {command.cli}"]
