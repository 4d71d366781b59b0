"""Truncated spin (x) Fock basis and elementary second-quantized operators.

States are pairs (occupation vector, spin index) with total boson number
at most ``n_max``.  Enumeration order is deterministic: ascending total
boson number, then lexicographic occupation, then spin index (spin is the
fastest index).  Discrete modes are orthonormalized, so the per-mode
ladder operators satisfy [a_i, a_j^*] = delta_ij exactly and all
quadrature weights enter through sqrt(mu_i) prefactors of the smeared
operators.  Only this module knows the index layout; the others go
through ``OccupationBasis.lift``, ``sector`` and ``unit_columns``,
``spin_operator`` and ``block_diag_operator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, ParameterError, ResourceError, StructuralError
from .model import FormFactor, ModeGrid, SpinSpace

#: Hard default on the number of enumerated states.
DEFAULT_STATE_CAP = 2_000_000


@lru_cache(maxsize=None)
def _compositions(total: int, n_parts: int) -> np.ndarray:
    """All occupation vectors of length ``n_parts`` summing to ``total``,
    lexicographically ascending, as a (count, n_parts) uint16 array."""
    if n_parts == 1:
        return np.array([[total]], dtype=np.uint16)
    blocks = []
    for head in range(total + 1):
        tail = _compositions(total - head, n_parts - 1)
        col = np.full((tail.shape[0], 1), head, dtype=np.uint16)
        blocks.append(np.hstack([col, tail]))
    return np.vstack(blocks)


def basis_size(n_modes: int, spin_dim: int, n_max: int) -> int:
    """Number of basis states: spin_dim * sum_n #compositions(n, n_modes)."""
    return spin_dim * sum(math.comb(n_modes + n - 1, n) for n in range(n_max + 1))


@dataclass
class OccupationBasis:
    """Enumerated truncated basis with index maps in both directions."""

    grid: ModeGrid
    spin: SpinSpace
    n_max: int
    occupations: np.ndarray  # (n_fock, n_modes) uint16
    totals: np.ndarray  # (n_fock,) int

    def __post_init__(self):
        self._rank = {self.occupations[i].tobytes(): i for i in range(len(self.occupations))}
        self.energies = self.occupations.astype(float) @ self.grid.omegas

    @property
    def n_fock(self) -> int:
        return self.occupations.shape[0]

    @property
    def dim(self) -> int:
        return self.n_fock * self.spin.dim

    def fock_rank(self, occupation) -> int:
        key = np.asarray(occupation, dtype=np.uint16).tobytes()
        try:
            return self._rank[key]
        except KeyError:
            raise StructuralError("occupation not in basis") from None

    def index(self, occupation, spin_index: int = 0) -> int:
        """Full basis index of (occupation, spin index)."""
        if not 0 <= spin_index < self.spin.dim:
            raise StructuralError("spin index out of range")
        return self.fock_rank(occupation) * self.spin.dim + spin_index

    def state(self, idx: int) -> tuple[np.ndarray, int]:
        """Inverse index map: (occupation vector, spin index)."""
        return self.occupations[idx // self.spin.dim], idx % self.spin.dim

    def unit_vector(self, occupation, spin_index: int = 0) -> np.ndarray:
        return self.unit_columns([self.index(occupation, spin_index)])[:, 0]

    def lift(self, fock_values) -> np.ndarray:
        """A per-Fock-state array (totals, energies, dGamma weights) on the
        full index, where each value repeats over the spin states."""
        return np.repeat(fock_values, self.spin.dim)

    def sector(self, m: int) -> np.ndarray:
        """Ascending indices of the states with total boson number <= m
        (every state when m >= n_max)."""
        if m < 0:
            raise ParameterError("sector bound m must be >= 0")
        return np.nonzero(self.lift(self.totals <= m))[0]

    def unit_columns(self, idx) -> np.ndarray:
        """The unit vectors on the indices ``idx`` as the columns of a
        (dim, len(idx)) array."""
        units = np.zeros((self.dim, len(idx)), dtype=complex)
        units[idx, np.arange(len(idx))] = 1.0
        return units

    def lowering_table(self):
        """Cached (state, mode, child, sqrt(n)) table of all single-boson
        removals; the raw material for every smeared ladder operator."""
        if not hasattr(self, "_lowering"):
            rows, modes = np.nonzero(self.occupations)
            child = np.empty(len(rows), dtype=np.int64)
            occs = self.occupations
            rank = self._rank
            for j in range(len(rows)):
                occ = occs[rows[j]].copy()
                occ[modes[j]] -= 1
                child[j] = rank[occ.tobytes()]
            amps = np.sqrt(occs[rows, modes].astype(float))
            self._lowering = (rows, modes, child, amps)
        return self._lowering

    def mode_lowering(self, i: int) -> sp.csr_matrix:
        """Per-mode lowering operator a_i on the Fock factor (no spin)."""
        rows, modes, child, amps = self.lowering_table()
        sel = modes == i
        return sp.csr_matrix(
            (amps[sel], (child[sel], rows[sel])), shape=(self.n_fock, self.n_fock)
        )


@dataclass
class Operator:
    """Matrix on the truncated space, dense or sparse, with its basis."""

    basis: OccupationBasis
    matrix: object  # ndarray or scipy sparse

    def __post_init__(self):
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise StructuralError(
                f"matrix shape {self.matrix.shape} does not match basis dim {self.basis.dim}"
            )

    @property
    def dim(self) -> int:
        return self.basis.dim

    def dense(self) -> np.ndarray:
        m = self.matrix
        return m.toarray() if sp.issparse(m) else np.asarray(m)

    def tocsr(self) -> sp.csr_matrix:
        m = self.matrix
        return m.tocsr() if sp.issparse(m) else sp.csr_matrix(m)

    @property
    def H(self) -> "Operator":
        m = self.matrix
        return Operator(self.basis, m.conj().T.tocsr() if sp.issparse(m) else m.conj().T)

    def __add__(self, other):
        if isinstance(other, Operator):
            return Operator(self.basis, self.matrix + other.matrix)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Operator):
            return Operator(self.basis, self.matrix - other.matrix)
        return NotImplemented

    def __mul__(self, scalar):
        return Operator(self.basis, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Operator):
            return Operator(self.basis, self.matrix @ other.matrix)
        return self.matrix @ other


def build_basis(
    grid: ModeGrid, spin: SpinSpace, n_max: int, max_states: int = DEFAULT_STATE_CAP
) -> OccupationBasis:
    """Enumerate all (occupation, spin) states with total boson number <= n_max."""
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    size = basis_size(grid.n_modes, spin.dim, n_max)
    if size > max_states:
        raise ResourceError(
            f"basis would have {size} states, exceeding the cap of {max_states}"
        )
    blocks = [_compositions(n, grid.n_modes) for n in range(n_max + 1)]
    occs = np.vstack(blocks)
    totals = occs.sum(axis=1).astype(np.int64)
    return OccupationBasis(grid=grid, spin=spin, n_max=n_max, occupations=occs, totals=totals)


def _check_grid(basis: OccupationBasis, F: FormFactor):
    if F.grid is not basis.grid and not (
        np.array_equal(F.grid.omegas, basis.grid.omegas)
        and np.array_equal(F.grid.mus, basis.grid.mus)
    ):
        raise StructuralError("form factor grid does not match basis grid")
    if F.spin_dim != basis.spin.dim:
        raise StructuralError("form factor spin dimension does not match basis")


def spin_operator(basis: OccupationBasis, M, fock=None) -> sp.csr_matrix:
    """The CSR matrix of ``fock`` (x) ``M`` on the full index: ``fock`` on
    the Fock factor (the identity when None) and the spin matrix ``M``."""
    if fock is None:
        fock = sp.identity(basis.n_fock, format="csr")
    return sp.kron(fock, M, format="csr")


def _diag_operator(basis: OccupationBasis, fock_values: np.ndarray) -> Operator:
    vals = basis.lift(np.asarray(fock_values, dtype=complex))
    return Operator(basis, sp.diags(vals, format="csr"))


def _spin_blocks(basis: OccupationBasis, fock_rows, fock_cols, blocks) -> sp.csr_matrix:
    """CSR matrix holding the spin block blocks[k] (d x d) at Fock position
    (fock_rows[k], fock_cols[k]); zero entries are not stored."""
    d = basis.spin.dim
    rr, cc = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    rows = (fock_rows[:, None, None] * d + rr[None, :, :]).ravel()
    cols = (fock_cols[:, None, None] * d + cc[None, :, :]).ravel()
    data = blocks.ravel()
    keep = data != 0
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(basis.dim, basis.dim))


def block_diag_operator(basis: OccupationBasis, blocks: np.ndarray) -> Operator:
    """Sparse operator that acts as blocks[s] on the spin factor of Fock state s."""
    states = np.arange(basis.n_fock)
    return Operator(basis, _spin_blocks(basis, states, states, blocks))


def dgamma(basis: OccupationBasis, weights) -> Operator:
    """Diagonal second quantization of per-mode weights: eigenvalue
    sum_i n_i w_i on occupation (n_1, ..., n_M).  Weights equal to the
    grid dispersion give the free field energy; all ones give the number
    operator."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (basis.grid.n_modes,):
        raise StructuralError("weights length must equal number of modes")
    return _diag_operator(basis, basis.occupations.astype(float) @ weights)


def parity(basis: OccupationBasis) -> Operator:
    """Diagonal involution with sign (-1)^(total boson number)."""
    return _diag_operator(basis, np.where(basis.totals % 2 == 0, 1.0, -1.0))


def function_of_dgamma(basis: OccupationBasis, g) -> Operator:
    """Diagonal operator g(dGamma(omega)) evaluated on the occupation energies."""
    with np.errstate(all="ignore"):
        vals = np.asarray([g(E) for E in basis.energies], dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NumericError("function of dGamma(omega) is not finite at some eigenvalue")
    return _diag_operator(basis, vals)


def annihilate(basis: OccupationBasis, F: FormFactor) -> Operator:
    """Smeared annihilation operator a(F) = sum_i sqrt(mu_i) F_i^* (x) a_i.

    Antilinear in F; maps the total-n sector to total-(n-1).  The
    sqrt(mu_i) factor realizes the mu-integral against orthonormalized
    discrete modes, pinned by <vac, a(F) a^*(F) vac> = <F, F>_{b_0}.
    """
    _check_grid(basis, F)
    rows, modes, child, amps = basis.lowering_table()
    if len(rows) == 0 or F.is_zero():
        return Operator(basis, sp.csr_matrix((basis.dim, basis.dim), dtype=complex))
    fstar = F.values.conj().transpose(0, 2, 1)  # (M, d, d)
    blocks = fstar[modes]  # (pairs, d, d)
    weights = (np.sqrt(basis.grid.mus)[modes] * amps)[:, None, None] * blocks
    return Operator(basis, _spin_blocks(basis, child, rows, weights))


def create(basis: OccupationBasis, F: FormFactor) -> Operator:
    """Smeared creation operator: adjoint of a(F), projected back onto the
    truncated basis (matrix elements that would exceed n_max are dropped)."""
    return annihilate(basis, F).H


def field(basis: OccupationBasis, F: FormFactor) -> Operator:
    """Self-adjoint field operator a(F) + a^*(F)."""
    a = annihilate(basis, F)
    return Operator(basis, (a.matrix + a.matrix.conj().T).tocsr())


def vacuum(basis: OccupationBasis, spin_index: int = 0) -> np.ndarray:
    """Unit vector of the zero-occupation state with the given spin index."""
    return basis.unit_vector(np.zeros(basis.grid.n_modes, dtype=np.uint16), spin_index)
