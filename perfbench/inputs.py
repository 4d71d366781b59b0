"""Seeded inputs of the benchmark workloads.

Every workload is a list of CLI commands on configs generated here from
the workload seed.  A generated config replaces a shipped power-law grid
by an explicit grid with the same cells: each node moves by a seeded
factor inside the middle half of its logarithmic cell, and ``mu`` stays
the cell width.  A node that the move would carry across the infrared
threshold or a cutoff of the schedule keeps its unmoved position, so the
coupling pattern, and with it the basis, the connected components and the
solver mix, is the same for every seed.  The ``run.seed`` of each config
is the workload seed as well (ARPACK start vectors, verify samples).

The ``study`` workload is the exception: its one command writes a
malformed number on every input (see ``checks.MALFORMED``), so that it
fails the same way in every run its inputs do not depend on the seed:
unmoved nodes and ``run.seed`` 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("study", "vanhove", "desk")


@dataclass(frozen=True)
class Command:
    """One CLI call: ``sbfock <cli> --config <config>.json``."""

    cli: str
    config: str
    expect_exit: int
    dense_reference: bool = False  # check distances against a dense SVD

    @property
    def label(self) -> str:
        return f"{self.cli}-{self.config}"


def jittered_modes(rng, beta, kappa, lambda_max, n_modes, cuts):
    """Explicit mode list on the cells of ``power_law_grid(beta, kappa,
    lambda_max, n_modes)`` with seeded node positions (the cell midpoints
    when ``rng`` is None) and v = omega^-beta."""
    edges = np.geomspace(kappa / 2.0, lambda_max, n_modes + 1)
    mid = np.sqrt(edges[:-1] * edges[1:])
    log_width = np.log(edges[1:] / edges[:-1])
    shift = 0.0 if rng is None else rng.uniform(-0.25, 0.25, n_modes)
    nodes = mid * np.exp(shift * log_width)
    crossed = (mid <= kappa) != (nodes <= kappa)
    for cut in cuts:
        crossed |= (mid < cut) != (nodes < cut)
    nodes = np.where(crossed, mid, nodes)
    return [
        {"omega": float(w), "mu": float(m), "v": float(w ** (-beta))}
        for w, m in zip(nodes, np.diff(edges))
    ]


def _config(rng, seed, grid, spin, n_max, lam, schedule, **run):
    modes = jittered_modes(rng, cuts=schedule, **grid)
    return {
        "grid": {"family": "explicit", "kappa": grid["kappa"], "modes": modes},
        "spin": spin,
        "fock": {"n_max": n_max},
        "ibc": {"lambda": lam, "s_n": 1.5},
        "run": {"schedule": schedule, "seed": seed, **run},
    }


_RWA = {"dim": 2, "S": "sigma_z", "B_le": "sigma_minus", "B_N": "sigma_minus"}
_SCALAR_X = {"dim": 2, "S": "sigma_z", "B_le": "sigma_x", "B_D": "sigma_x"}


def build(workload: str, seed: int):
    """Configs (name -> dict) and the command list of one round."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "study":
        # converge_beta0 at 42 modes: the smallest mode count whose H_lim
        # still splits into dense, Schur, GMRES and diagonal components.
        configs = {
            "study_beta0": _config(
                None, 0,
                {"beta": 0.0, "kappa": 1.0, "lambda_max": 256.0, "n_modes": 42},
                _RWA, 3, 100000.0, [4.0, 32.0, 256.0],
            )
        }
        commands = [Command("converge", "study_beta0", 0)]
    elif workload == "vanhove":
        # vanhove_beta_m05's scalar model on [1/2, 8]: one mode couples at
        # the first cutoff, all four at the last.
        configs = {
            "vanhove_beta_m05": _config(
                rng, seed,
                {"beta": -0.5, "kappa": 1.0, "lambda_max": 8.0, "n_modes": 4},
                _SCALAR_X, 4, 1.0, [1.0, 8.0],
                vanhove_n_max=22, vanhove_restrict_m=2,
            )
        }
        commands = [Command("vanhove", "vanhove_beta_m05", 0)]
    elif workload == "desk":
        configs = {
            "ex2": _config(
                rng, seed,
                {"beta": 0.0, "kappa": 1.0, "lambda_max": 8.0, "n_modes": 5},
                {**_RWA, "v_le": {"scale": 0.8}, "v_n": {"scale": 0.8}},
                6, 1.0, [2.0, 4.0, 8.0],
            ),
            "ex1": _config(
                rng, seed,
                {"beta": 0.0, "kappa": 1.0, "lambda_max": 16.0, "n_modes": 6},
                {**_SCALAR_X, "v_le": {"scale": 0.07}, "v_d": {"scale": 0.07}},
                5, 1.0, [2.0, 4.0, 8.0, 16.0],
            ),
            "supercritical": _config(
                rng, seed,
                {"beta": -0.5, "kappa": 1.0, "lambda_max": 16.0, "n_modes": 8},
                _SCALAR_X, 4, 1.0, [2.0, 4.0, 8.0, 16.0],
            ),
        }
        commands = [
            Command("verify", "ex2", 0),
            Command("verify", "ex1", 0),
            Command("converge", "ex2", 0),
            Command("spectrum", "ex2", 0),
            # the super-critical study FAILs by design: exit 1, every row FAIL
            Command("converge", "supercritical", 1, dense_reference=True),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return configs, commands
