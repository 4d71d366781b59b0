"""Structured solvers for (H - z) x = b on truncated bases.

The cutoff studies need resolvent *actions* at dimensions far beyond
the dense cap.  The coupling graph of a truncated spin-boson generator
splits into independent components (dead modes, spin-polarized sectors,
decoupled singletons); ``split_components`` finds them for both the
resolvent and ``renorm.ground_energy``.  A component above
``DENSE_SOLVE_CAP`` takes one of two special paths:

* Schur: when its top boson sector is internally diagonal (field terms
  change the sector), that sector is eliminated exactly and a dense
  Schur complement on the kept block (at most ``SCHUR_KEPT_CAP`` states)
  is factored.  ``schur_split`` makes this test and ``schur_complement``
  forms the complement, for the resolvent (on H - z) and for the inertia
  certificate of ``renorm.ground_energy`` (on H - mu);
* GMRES: otherwise, with more than ``GMRES_MIN_ROW_NNZ`` nonzeros per
  row, a diagonally preconditioned GMRES is used; it converges quickly
  in exactly these regimes (weak intra-sector coupling), where a direct
  factorization fills in.

Every other state, singletons included, goes into one sparse LU
(SuperLU, minimum-degree ordering on A^T + A).

All parts solve a vector or an (n, k) block, and the adjoint with the
same factorization.  A singular factorization raises ``NumericError``.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import NumericError

DENSE_SOLVE_CAP = 4096
SCHUR_KEPT_CAP = 6144
GMRES_MIN_ROW_NNZ = 32
GMRES_RTOL = 1e-12
GMRES_MAXITER = 400


def _rows(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scale the rows of a vector or (n, k) block ``b`` by ``d``."""
    return (d if b.ndim == 1 else d[:, None]) * b


class _SparseLUSolve:
    """One SuperLU factorization of the states outside Schur and GMRES."""

    def __init__(self, A: sp.csr_matrix):
        try:
            self.lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise NumericError(f"singular sparse LU: {exc}") from exc

    def solve(self, b):
        return self.lu.solve(b)

    def adjoint_solve(self, b):
        return self.lu.solve(b, trans="H")


class _SchurSolve:
    """Eliminate an index set E on which A is strictly diagonal."""

    def __init__(self, A: sp.csr_matrix, keep: np.ndarray, elim: np.ndarray):
        self.keep = keep
        self.elim = elim
        self.A_KE, self.A_EK, self.d_inv, schur = schur_complement(A, keep, elim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            try:
                self.factor = sla.lu_factor(schur, overwrite_a=True)
            except sla.LinAlgWarning as exc:
                raise NumericError(f"singular Schur complement: {exc}") from exc
        self.A_KE_H = self.A_KE.conj().T.tocsr()
        self.A_EK_H = self.A_EK.conj().T.tocsr()

    def solve(self, b):
        b_K = b[self.keep]
        b_E = b[self.elim]
        y = b_K - self.A_KE @ _rows(self.d_inv, b_E)
        x_K = sla.lu_solve(self.factor, y)
        x = np.empty_like(b)
        x[self.keep] = x_K
        x[self.elim] = _rows(self.d_inv, b_E - self.A_EK @ x_K)
        return x

    def adjoint_solve(self, b):
        b_K = b[self.keep]
        b_E = b[self.elim]
        d_inv_H = np.conj(self.d_inv)
        y = b_K - self.A_EK_H @ _rows(d_inv_H, b_E)
        x_K = sla.lu_solve(self.factor, y, trans=2)
        x = np.empty_like(b)
        x[self.keep] = x_K
        x[self.elim] = _rows(d_inv_H, b_E - self.A_KE_H @ x_K)
        return x


class _GmresSolve:
    """Diagonally preconditioned GMRES, one column at a time."""

    def __init__(self, A: sp.csr_matrix):
        self.A = A
        diag = A.diagonal()
        if np.any(diag == 0):
            raise NumericError("zero diagonal entry in GMRES fallback solver")
        self.M = spla.LinearOperator(A.shape, matvec=lambda x: x / diag, dtype=complex)
        self.AH = A.conj().T.tocsr()
        self.MH = spla.LinearOperator(
            A.shape, matvec=lambda x: x / np.conj(diag), dtype=complex
        )

    @staticmethod
    def _run(A, M, b):
        if b.ndim == 2:
            return np.column_stack([_GmresSolve._run(A, M, col) for col in b.T])
        if not np.any(b):
            return np.zeros_like(b, dtype=complex)
        x, info = spla.gmres(A, b, M=M, rtol=GMRES_RTOL, atol=0.0, maxiter=GMRES_MAXITER)
        if info != 0:
            raise NumericError(f"GMRES did not converge (info={info})")
        return x

    def solve(self, b):
        return self._run(self.A, self.M, b)

    def adjoint_solve(self, b):
        return self._run(self.AH, self.MH, b)


def schur_split(A: sp.csr_matrix, totals: np.ndarray):
    """The Schur test of one component above ``DENSE_SOLVE_CAP`` (A already
    restricted): ``(keep, elim)`` when its top boson sector ``elim`` is
    internally diagonal and at most ``SCHUR_KEPT_CAP`` states are kept,
    else ``None``."""
    in_top = totals == totals.max()
    offdiag = A - sp.diags(A.diagonal())
    offdiag.eliminate_zeros()
    elim = np.nonzero(in_top)[0]
    if offdiag[elim][:, elim].nnz or A.shape[0] - len(elim) > SCHUR_KEPT_CAP:
        return None
    return np.nonzero(~in_top)[0], elim


def schur_complement(A: sp.csr_matrix, keep: np.ndarray, elim: np.ndarray):
    """``(A_KE, A_EK, d_inv, S)`` for an ``elim`` block of A that is
    diagonal, D_EE = 1 / d_inv: the dense Schur complement
    S = A_KK - A_KE D_EE^{-1} A_EK is formed once, Fortran-ordered so that
    LAPACK can factor it in place.  A zero entry of D_EE raises
    ``NumericError``."""
    A_KE = A[keep][:, elim].tocsr()
    A_EK = A[elim][:, keep].tocsr()
    d_EE = A[elim][:, elim].diagonal()
    if not np.all(d_EE):
        raise NumericError("zero diagonal entry in the Schur-eliminated sector")
    d_inv = 1.0 / d_EE
    correction = (A_KE.multiply(d_inv[None, :])).tocsr() @ A_EK
    schur = (A[keep][:, keep] - correction).toarray(order="F")
    return A_KE, A_EK, d_inv, schur


def _component_solver(A: sp.csr_matrix, totals: np.ndarray):
    """The Schur or GMRES solver of one component above ``DENSE_SOLVE_CAP``
    (A already restricted), or ``None`` to leave it to the sparse LU."""
    split = schur_split(A, totals)
    if split is not None:
        return _SchurSolve(A, *split)
    if A.nnz > GMRES_MIN_ROW_NNZ * A.shape[0]:
        return _GmresSolve(A)
    return None


def split_components(M: sp.csr_matrix):
    """Connected components of the off-diagonal pattern of ``M``.

    Returns the index arrays of the components with two or more states,
    each ascending and ordered by their smallest index, and one ascending
    array of the singletons (states that ``M`` couples to no other).
    """
    _, labels = connected_components(abs(M), directed=True, connection="weak")
    sizes = np.bincount(labels)
    single = sizes[labels] == 1
    multi = np.nonzero(~single)[0]
    # labels number the components in order of their smallest index
    order = multi[np.argsort(labels[multi], kind="stable")]
    components = np.split(order, np.cumsum(sizes[sizes > 1]))[:-1]
    return components, np.nonzero(single)[0]


class StructuredResolvent:
    """Action of (H - z)^{-1} (and its adjoint) on a vector or an (n, k)
    block, for a sparse H on a truncated basis.  ``parts`` lists
    (indices, solver) pairs that partition the basis."""

    def __init__(self, H: sp.spmatrix, z: complex, totals_per_index: np.ndarray):
        A = (H.tocsr() - z * sp.identity(H.shape[0], format="csr", dtype=complex)).tocsr()
        A.eliminate_zeros()
        components, _ = split_components(A)
        self.parts = []
        rest = np.ones(A.shape[0], dtype=bool)
        for idx in components:
            if len(idx) > DENSE_SOLVE_CAP:
                solver = _component_solver(A[idx][:, idx].tocsr(), totals_per_index[idx])
                if solver is not None:
                    self.parts.append((idx, solver))
                    rest[idx] = False
        rest = np.nonzero(rest)[0]
        if len(rest):
            self.parts.append((rest, _SparseLUSolve(A[rest][:, rest])))

    def _apply(self, method: str, b) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        out = np.empty_like(b)
        for idx, solver in self.parts:
            out[idx] = getattr(solver, method)(b[idx])
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._apply("solve", b)

    def adjoint_solve(self, b: np.ndarray) -> np.ndarray:
        return self._apply("adjoint_solve", b)
