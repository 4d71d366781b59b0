"""Truncated spin (x) Fock basis and elementary second-quantized operators.

States are pairs (occupation vector, spin index) with total boson number
at most ``n_max``.  Enumeration order is deterministic: ascending total
boson number, then lexicographic occupation, then spin index (spin is the
fastest index).  Discrete modes are orthonormalized, so the per-mode
ladder operators satisfy [a_i, a_j^*] = delta_ij exactly and all
quadrature weights enter through sqrt(mu_i) prefactors of the smeared
operators.  Only this module knows the index layout; the others go
through ``OccupationBasis.lift``, ``sector``, ``safe_prefix`` and
``unit_columns``, ``spin_operator`` and ``block_diag_operator``.

Operator builders return ``scipy.sparse`` CSR matrices; ``Operator`` (a
matrix with its basis) is the type of the Hamiltonians in ``renorm``.
An operator whose entries are all real is stored as float64, otherwise as
complex128 (``_entries`` decides, for every matrix built here and for
``ibc.theta1``); the spectral parameter z enters only where a resolvent
is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _solvers
from .errors import NumericError, ParameterError, ResourceError, StructuralError
from .model import FormFactor, ModeGrid, SpinSpace

#: Cap on the number of enumerated states.
STATE_CAP = 2_000_000
#: Largest Hermiticity defect max|M - M^*| of an ``Operator``'s matrix.
HERMITICITY_TOL = 1e-10


def _occupations(n_modes: int, n_max: int) -> np.ndarray:
    """All occupation vectors of length ``n_modes`` with total at most
    ``n_max``, by ascending total, then lexicographically ascending, as a
    (count, n_modes) uint16 array.

    Built bottom-up over the modes: the level of k modes lists, by
    ascending total, the occupations of the last k modes, and the level
    of k + 1 modes puts each head h <= t in front of the block of total
    t - h.  Only the previous level is kept."""
    occs = np.arange(n_max + 1, dtype=np.uint16)[:, None]
    starts = np.arange(n_max + 2)  # the rows of total t are starts[t]:starts[t + 1]
    for k in range(1, n_modes):
        new_starts = np.concatenate([[0], np.cumsum(np.cumsum(np.diff(starts)))])
        nxt = np.empty((new_starts[-1], k + 1), dtype=np.uint16)
        for t in range(n_max + 1):
            row = new_starts[t]
            for head in range(t + 1):
                tail = occs[starts[t - head] : starts[t - head + 1]]
                nxt[row : row + len(tail), 0] = head
                nxt[row : row + len(tail), 1:] = tail
                row += len(tail)
        occs, starts = nxt, new_starts
    return occs


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
        self.energies = self.occupations.astype(float) @ self.grid.omegas

    @property
    def n_fock(self) -> int:
        return self.occupations.shape[0]

    @property
    def dim(self) -> int:
        return self.n_fock * self.spin.dim

    def _ranks(self, occupations) -> np.ndarray:
        """Ranks of the rows of ``occupations`` among the Fock states, by
        binary search on the cached (total, occupation) keys.  For a row
        not in the basis the rank is ``n_fock`` or holds another state."""
        if not hasattr(self, "_keys"):
            self._keys = _occupation_keys(self.occupations)
        return np.searchsorted(self._keys, _occupation_keys(occupations))

    def fock_rank(self, occupation) -> int:
        occ = np.asarray(occupation, dtype=np.uint16)
        if occ.shape != (self.grid.n_modes,):
            raise StructuralError("occupation not in basis")
        rank = int(self._ranks(occ[None, :])[0])
        if rank == self.n_fock or not np.array_equal(self.occupations[rank], occ):
            raise StructuralError("occupation not in basis")
        return rank

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

    def safe_prefix(self) -> tuple[int, OccupationBasis]:
        """(m, prefix): m = max(n_max - 2, 0) bounds the total of the truncation-
        safe block, and the prefix, up to total min(n_max, m + 1), is where
        a, a^*, G, T and xi take that block: the n_max - 1 prefix, or this basis
        when n_max <= 1.  The basis is ordered by total first, so the prefix
        holds its first ``prefix.dim`` states; a check that reads the block
        alone can be built there."""
        m = max(self.n_max - 2, 0)
        return m, self if self.n_max <= 1 else build_basis(self.grid, self.spin, m + 1)

    def unit_columns(self, idx) -> np.ndarray:
        """The unit vectors on the indices ``idx`` as the columns of a
        (dim, len(idx)) array."""
        units = np.zeros((self.dim, len(idx)))
        units[idx, np.arange(len(idx))] = 1.0
        return units

    def lowering_table(self):
        """Cached (state, mode, child, sqrt(n)) table of all single-boson
        removals; the raw material for every smeared ladder operator."""
        if not hasattr(self, "_lowering"):
            occs = self.occupations
            rows, modes = np.nonzero(occs)
            lowered = occs[rows]
            lowered[np.arange(len(rows)), modes] -= 1
            child = self._ranks(lowered)
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
    """A Hamiltonian, self-adjoint by construction: its CSR matrix M with
    the basis it is written in.  A defect max|M - M^*| above
    ``HERMITICITY_TOL`` raises ``StructuralError``; a smaller one is kept
    as ``defect``, ``matrix`` holds the ``_solvers.hermitian_part`` of M
    and ``labels`` the ``_solvers.component_labels`` of that (strong
    components, which on its symmetric pattern are the weak ones)."""

    basis: OccupationBasis
    matrix: sp.csr_matrix

    def __post_init__(self):
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise StructuralError(
                f"matrix shape {self.matrix.shape} does not match basis dim {self.basis.dim}"
            )
        self.matrix, self.defect = _solvers.hermitian_part(self.matrix)
        if self.defect > HERMITICITY_TOL:
            raise StructuralError(f"operator is not self-adjoint (defect {self.defect:.3e})")
        self.labels = _solvers.component_labels(self.matrix, "strong")

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def build_basis(grid: ModeGrid, spin: SpinSpace, n_max: int) -> OccupationBasis:
    """Enumerate all (occupation, spin) states with total boson number
    <= n_max; more than ``STATE_CAP`` states raise ``ResourceError``.

    The occupations are enumerated mode by mode (``_occupations``) and
    nothing is cached: at most two levels of the enumeration are alive,
    the last of which is the occupation array itself."""
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    size = basis_size(grid.n_modes, spin.dim, n_max)
    if size > STATE_CAP:
        raise ResourceError(
            f"basis would have {size} states, exceeding the cap of {STATE_CAP}"
        )
    occs = _occupations(grid.n_modes, n_max)
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


def _occupation_keys(occupations: np.ndarray) -> np.ndarray:
    """Big-endian (total, occupation) byte keys of occupation rows, written
    straight into the key array; the keys of the Fock states ascend in
    basis order."""
    keyed = np.empty((occupations.shape[0], occupations.shape[1] + 1), dtype=">u2")
    keyed[:, 0] = occupations.sum(axis=1, dtype=np.uint16)
    keyed[:, 1:] = occupations
    return keyed.view(f"S{keyed.itemsize * keyed.shape[1]}").ravel()


def _entries(values) -> np.ndarray:
    """``values`` as float64 when every entry is real, else as complex128:
    the one place that decides the dtype of an operator."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and np.any(values.imag):
        return values.astype(complex, copy=False)
    return values.real.astype(float, copy=False)


def spin_operator(basis: OccupationBasis, M, fock=None) -> sp.csr_matrix:
    """The CSR matrix of ``fock`` (x) ``M`` on the full index: ``fock`` on
    the Fock factor (the identity when None) and the spin matrix ``M``."""
    if fock is None:
        fock = sp.identity(basis.n_fock, format="csr")
    return sp.kron(fock, _entries(M), format="csr")


def _diag_operator(basis: OccupationBasis, fock_values: np.ndarray) -> sp.csr_matrix:
    return sp.diags(basis.lift(_entries(fock_values)), format="csr")


def _spin_blocks(basis: OccupationBasis, fock_rows, fock_cols, blocks) -> sp.csr_matrix:
    """CSR matrix holding the spin block blocks[k] (d x d) at Fock position
    (fock_rows[k], fock_cols[k]); zero entries are not stored."""
    d = basis.spin.dim
    rr, cc = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    rows = (fock_rows[:, None, None] * d + rr[None, :, :]).ravel()
    cols = (fock_cols[:, None, None] * d + cc[None, :, :]).ravel()
    data = _entries(blocks).ravel()
    keep = data != 0
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(basis.dim, basis.dim))


def block_diag_operator(basis: OccupationBasis, blocks: np.ndarray) -> sp.csr_matrix:
    """Sparse operator that acts as blocks[s] on the spin factor of Fock state s."""
    states = np.arange(basis.n_fock)
    return _spin_blocks(basis, states, states, blocks)


def dgamma(basis: OccupationBasis, weights) -> sp.csr_matrix:
    """Diagonal second quantization of per-mode weights: eigenvalue
    sum_i n_i w_i on occupation (n_1, ..., n_M).  Weights equal to the
    grid dispersion give the free field energy; all ones give the number
    operator."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (basis.grid.n_modes,):
        raise StructuralError("weights length must equal number of modes")
    return _diag_operator(basis, basis.occupations.astype(float) @ weights)


def parity(basis: OccupationBasis) -> sp.csr_matrix:
    """Diagonal involution with sign (-1)^(total boson number)."""
    return _diag_operator(basis, np.where(basis.totals % 2 == 0, 1.0, -1.0))


def function_of_dgamma(basis: OccupationBasis, g) -> sp.csr_matrix:
    """Diagonal operator g(dGamma(omega)) evaluated on the occupation energies."""
    with np.errstate(all="ignore"):
        vals = np.asarray([g(E) for E in basis.energies])
    if not np.all(np.isfinite(vals)):
        raise NumericError("function of dGamma(omega) is not finite at some eigenvalue")
    return _diag_operator(basis, vals)


def annihilate(basis: OccupationBasis, F: FormFactor) -> sp.csr_matrix:
    """Smeared annihilation operator a(F) = sum_i sqrt(mu_i) F_i^* (x) a_i.

    Antilinear in F; maps the total-n sector to total-(n-1).  The
    sqrt(mu_i) factor realizes the mu-integral against orthonormalized
    discrete modes, pinned by <vac, a(F) a^*(F) vac> = <F, F>_{b_0}.
    """
    _check_grid(basis, F)
    rows, modes, child, amps = basis.lowering_table()
    if len(rows) == 0 or F.is_zero():
        return sp.csr_matrix((basis.dim, basis.dim))
    fstar = F.values.conj().transpose(0, 2, 1)  # (M, d, d)
    blocks = fstar[modes]  # (pairs, d, d)
    weights = (np.sqrt(basis.grid.mus)[modes] * amps)[:, None, None] * blocks
    return _spin_blocks(basis, child, rows, weights)


def create(basis: OccupationBasis, F: FormFactor) -> sp.csr_matrix:
    """Smeared creation operator: adjoint of a(F), projected back onto the
    truncated basis (matrix elements that would exceed n_max are dropped)."""
    return annihilate(basis, F).conj().T.tocsr()


def field(basis: OccupationBasis, F: FormFactor) -> sp.csr_matrix:
    """Self-adjoint field operator a(F) + a^*(F)."""
    a = annihilate(basis, F)
    return a + a.conj().T


def vacuum(basis: OccupationBasis, spin_index: int = 0) -> np.ndarray:
    """Unit vector of the zero-occupation state with the given spin index."""
    return basis.unit_vector(np.zeros(basis.grid.n_modes, dtype=np.uint16), spin_index)
