"""Discretized boson momentum space, spin-matrix form factors and the
weighted mode calculus.

A ``ModeGrid`` replaces the continuum measure space by finitely many atoms
``(k_i, omega_i, mu_i)``; every integral over the momentum space becomes a
mu-weighted sum over modes.  Form factors are per-mode spin matrices, and
the ``bs_*`` operations implement the omega^{-s}-weighted inner products
and norms that classify ultraviolet regularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .reports import CheckResult, CheckSuite

# Fixed spin-matrix shortcuts used throughout the test and config layers.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

#: Absolute tolerance on max matrix-entry violation in structural checks.
STRUCTURE_TOL = 1e-12


@dataclass(frozen=True)
class ModeGrid:
    """Finite set of boson modes with positive dispersion and weights.

    ``labels`` are the momentum values k_i, ``omegas`` the dispersion
    omega(k_i) > 0, ``mus`` the quadrature weights mu_i > 0 and ``kappa``
    the infrared threshold separating the bounded low-frequency part of a
    coupling from its singular high-frequency part.
    """

    labels: np.ndarray
    omegas: np.ndarray
    mus: np.ndarray
    kappa: float

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=float)
        omegas = np.asarray(self.omegas, dtype=float)
        mus = np.asarray(self.mus, dtype=float)
        if not (labels.ndim == omegas.ndim == mus.ndim == 1):
            raise StructuralError("grid arrays must be one-dimensional")
        if not (len(labels) == len(omegas) == len(mus)):
            raise StructuralError("grid arrays must have equal length")
        if np.any(omegas <= 0):
            raise StructuralError("all dispersion values must be positive")
        if np.any(mus <= 0):
            raise StructuralError("all quadrature weights must be positive")
        if not self.kappa > 0:
            raise ParameterError("infrared cutoff kappa must be positive")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "mus", mus)
        labels.setflags(write=False)
        omegas.setflags(write=False)
        mus.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.omegas)

    def ir_mask(self) -> np.ndarray:
        """Boolean mask of the modes with omega <= kappa (boundary inclusive)."""
        return self.omegas <= self.kappa


@dataclass(frozen=True)
class SpinSpace:
    """Finite-dimensional internal Hilbert space."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise StructuralError("spin dimension must be >= 1")


@dataclass(frozen=True)
class FormFactor:
    """Mode-indexed spin-matrix coupling: one dim x dim matrix per grid mode."""

    grid: ModeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim == 1:
            # scalar profile -> 1x1 spin matrices
            values = values.reshape(-1, 1, 1)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise StructuralError("form factor values must have shape (modes, dim, dim)")
        if values.shape[0] != self.grid.n_modes:
            raise StructuralError(
                f"form factor has {values.shape[0]} mode entries, grid has {self.grid.n_modes}"
            )
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def spin_dim(self) -> int:
        return self.values.shape[1]

    def is_zero(self) -> bool:
        return not np.any(self.values)


def separable(grid: ModeGrid, profile, matrix) -> FormFactor:
    """Form factor v(k) * B for a scalar profile v and a fixed spin matrix B."""
    profile = np.asarray(profile, dtype=complex).reshape(-1)
    if len(profile) != grid.n_modes:
        raise StructuralError("profile length must equal the number of grid modes")
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return FormFactor(grid, profile[:, None, None] * matrix[None, :, :])


def zero_form_factor(grid: ModeGrid, spin_dim: int) -> FormFactor:
    return FormFactor(grid, np.zeros((grid.n_modes, spin_dim, spin_dim), dtype=complex))


def _require_same_grid(F: FormFactor, G: FormFactor):
    if F.grid is not G.grid and not (
        np.array_equal(F.grid.omegas, G.grid.omegas)
        and np.array_equal(F.grid.mus, G.grid.mus)
        and F.grid.kappa == G.grid.kappa
    ):
        raise StructuralError("form factors live on different grids")
    if F.spin_dim != G.spin_dim:
        raise StructuralError("form factors have different spin dimensions")


def bs_inner(F: FormFactor, G: FormFactor, s: float) -> np.ndarray:
    """Weighted pairing sum_i mu_i omega_i^{-s} F_i^* G_i as a spin matrix.

    Conjugate symmetric: ``bs_inner(F, G, s).conj().T == bs_inner(G, F, s)``.
    """
    _require_same_grid(F, G)
    w = F.grid.mus * F.grid.omegas ** (-s)
    return np.einsum("i,iab,ibc->ac", w, F.values.conj().transpose(0, 2, 1), G.values)


def bs_norm(F: FormFactor, s: float) -> float:
    """(sum_i mu_i omega_i^{-s} ||F_i||_op^2)^{1/2} with the spectral matrix norm."""
    if F.is_zero():
        return 0.0
    opnorms = np.linalg.norm(F.values, ord=2, axis=(1, 2))
    w = F.grid.mus * F.grid.omegas ** (-s)
    return float(np.sqrt(np.sum(w * opnorms**2)))


def ir_split(F: FormFactor) -> tuple[FormFactor, FormFactor]:
    """Split into (F restricted to omega <= kappa, F restricted to omega > kappa)
    at the infrared threshold of its grid (``ModeGrid.ir_mask``).

    The boundary omega == kappa belongs to the infrared part.  The two
    parts sum back to F entry-for-entry.
    """
    low = F.grid.ir_mask()
    vals_low = np.where(low[:, None, None], F.values, 0.0)
    vals_high = np.where(low[:, None, None], 0.0, F.values)
    return FormFactor(F.grid, vals_low), FormFactor(F.grid, vals_high)


def uv_truncate(F: FormFactor, Lambda: float) -> FormFactor:
    """Zero all modes with omega >= Lambda (strict inequality is kept)."""
    if not Lambda > 0:
        raise ParameterError("Lambda must be positive")
    keep = F.grid.omegas < Lambda
    return FormFactor(F.grid, np.where(keep[:, None, None], F.values, 0.0))


def renorm_energy(F: FormFactor) -> np.ndarray:
    """Counterterm matrix <F_>, F_>>_{b_1} for the grid's infrared threshold.

    Positive semidefinite; this is the energy subtracted from regularized
    Hamiltonians so that their resolvents converge as the cutoff grows.
    """
    _, high = ir_split(F)
    return bs_inner(high, high, 1.0)


@dataclass(frozen=True)
class CouplingDecomposition:
    """Coupling split V = V_le + V_d + V_n into infrared, normal and
    2-nilpotent parts, with the declared regularity exponent for V_n."""

    v_le: FormFactor
    v_d: FormFactor
    v_n: FormFactor
    s_n: float = 2.0

    def __post_init__(self):
        _require_same_grid(self.v_le, self.v_d)
        _require_same_grid(self.v_le, self.v_n)
        if not 1.0 <= self.s_n <= 2.0:
            raise ParameterError("s_n must lie in [1, 2]")

    @property
    def grid(self) -> ModeGrid:
        return self.v_le.grid

    @property
    def spin_dim(self) -> int:
        return self.v_le.spin_dim

    def total(self) -> FormFactor:
        return FormFactor(self.grid, self.v_le.values + self.v_d.values + self.v_n.values)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def nilpotency_violation(F: np.ndarray) -> float:
    """max |F_i F_j| over every pair of modes and every matrix entry, for a
    (modes, dim, dim) stack of spin matrices; 0 iff F is 2-nilpotent."""
    return _max_abs(np.einsum("iab,jbc->ijac", F, F))


def commutator_violation(A: np.ndarray, B: np.ndarray) -> float:
    """max |A_i B_j - B_j A_i| over every pair of modes and every matrix
    entry, for two (modes, dim, dim) stacks of spin matrices."""
    return _max_abs(np.einsum("iab,jbc->ijac", A, B) - np.einsum("jab,ibc->ijac", B, A))


def check_structure(D: CouplingDecomposition) -> CheckSuite:
    """Verify the algebraic hypotheses on a coupling decomposition.

    Reports max-violation magnitudes for: support of the three parts
    relative to the infrared threshold, normality of every V_d(k),
    pairwise 2-nilpotency of V_n, the two cross-commutation relations
    between V_d and V_n, and the admissibility gate (declared s_n < 2 or
    b_2 norm of V_n below 1/2).
    """
    tol = STRUCTURE_TOL
    suite = CheckSuite("structure")
    grid = D.grid
    low = grid.ir_mask()

    support = max(
        _max_abs(D.v_le.values[~low]), _max_abs(D.v_d.values[low]), _max_abs(D.v_n.values[low])
    )
    suite.add(CheckResult("support", support <= tol, support, tol))

    vd = D.v_d.values
    normality = _max_abs(
        np.einsum("iab,ibc->iac", vd.conj().transpose(0, 2, 1), vd)
        - np.einsum("iab,ibc->iac", vd, vd.conj().transpose(0, 2, 1))
    )
    suite.add(CheckResult("normality", normality <= tol, normality, tol))

    vn = D.v_n.values
    nilpotency = nilpotency_violation(vn)
    suite.add(CheckResult("nilpotency", nilpotency <= tol, nilpotency, tol))

    cross = commutator_violation(vd, vn)
    suite.add(CheckResult("cross_commutation", cross <= tol, cross, tol))

    cross_adj = commutator_violation(vd.conj().transpose(0, 2, 1), vn)
    suite.add(CheckResult("adjoint_cross_commutation", cross_adj <= tol, cross_adj, tol))

    b2 = bs_norm(D.v_n, 2.0)
    admissible = D.s_n < 2.0 or b2 < 0.5
    overshoot = 0.0 if admissible else b2 - 0.5
    suite.add(
        CheckResult(
            "admissibility",
            admissible,
            overshoot,
            0.0,
            details={"s_n": D.s_n, "b2_norm_v_n": b2},
        )
    )
    return suite


def require_structure(D: CouplingDecomposition) -> None:
    """Raise ``StructuralError`` on the first failed check of
    ``check_structure(D)``, with its largest violation or admissibility hint."""
    for r in check_structure(D).results:
        if r.passed or r.skipped:
            continue
        if r.name == "admissibility":
            raise StructuralError(
                "coupling is not admissible: declare a regularity exponent below 2 "
                "or enlarge the infrared threshold kappa until the 2-nilpotent part "
                f"has b_2 norm below 1/2 (currently {r.details['b2_norm_v_n']:.4g})"
            )
        raise StructuralError(f"coupling violates {r.name} (max violation {r.max_violation:.3e})")


def power_law_grid(
    beta: float, kappa: float, Lambda_max: float, n_modes: int
) -> tuple[ModeGrid, np.ndarray]:
    """Geometric quadrature of [kappa/2, Lambda_max] with omega(k) = k and
    the scalar power-law profile v(k) = k^{-beta}.

    Cells are log-uniform, nodes sit at geometric cell midpoints (so the
    largest node is strictly below Lambda_max) and mu_i is the cell width.
    The discrete b_s norms of v then approximate the integrals of
    k^{-2 beta - s} over the interval.
    """
    if n_modes < 2:
        raise StructuralError("need at least 2 modes")
    if not (0 < kappa < Lambda_max):
        raise StructuralError("require 0 < kappa < Lambda_max")
    edges = np.geomspace(kappa / 2.0, Lambda_max, n_modes + 1)
    nodes = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    grid = ModeGrid(labels=nodes, omegas=nodes, mus=widths, kappa=kappa)
    profile = nodes ** (-beta)
    return grid, profile
