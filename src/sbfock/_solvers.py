"""Structured solvers for (H - z) x = b on truncated bases.

Public resolvents are materialized densely only at small dimension; the
cutoff studies need resolvent *actions* at dimensions far beyond the
dense cap.  Truncated spin-boson generators have exploitable structure:

* the coupling graph splits into independent components (dead modes,
  spin-polarized sectors, decoupled singletons); ``split_components``
  finds them for both the resolvent and ``renorm.ground_energy``,
* a component at or below ``DENSE_SOLVE_CAP`` is factored densely,
* the top boson sector of a larger component is often internally
  diagonal (field terms change the sector), enabling exact Schur
  elimination with a small kept block,
* otherwise the sector structure is block tridiagonal, enabling a block
  Thomas factorization,
* and as a last resort a diagonally preconditioned GMRES is used, which
  converges quickly exactly in the regimes where the other shapes fail
  (weak intra-sector coupling).

All solvers support the adjoint solve with the same factorization, since
the eliminations commute with conjugate transposition.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import NumericError

DENSE_SOLVE_CAP = 4096
SCHUR_KEPT_CAP = 6144
TRIDIAG_BLOCK_CAP = 9000
GMRES_RTOL = 1e-12
GMRES_MAXITER = 400


class _DiagSolve:
    def __init__(self, diag: np.ndarray):
        self.inv = 1.0 / diag

    def solve(self, b):
        return self.inv * b

    def adjoint_solve(self, b):
        return np.conj(self.inv) * b


class _DenseSolve:
    def __init__(self, A: np.ndarray):
        self.factor = sla.lu_factor(A)

    def solve(self, b):
        return sla.lu_solve(self.factor, b)

    def adjoint_solve(self, b):
        return sla.lu_solve(self.factor, b, trans=2)


class _SchurSolve:
    """Eliminate an index set E on which A is strictly diagonal."""

    def __init__(self, A: sp.csr_matrix, keep: np.ndarray, elim: np.ndarray):
        self.keep = keep
        self.elim = elim
        self.A_KK = A[keep][:, keep]
        self.A_KE = A[keep][:, elim].tocsr()
        self.A_EK = A[elim][:, keep].tocsr()
        d_EE = A[elim][:, elim].diagonal()
        self.d_inv = 1.0 / d_EE
        correction = (self.A_KE.multiply(self.d_inv[None, :])).tocsr() @ self.A_EK
        schur = self.A_KK.toarray() - correction.toarray()
        self.factor = sla.lu_factor(schur)
        self.A_KE_H = self.A_KE.conj().T.tocsr()
        self.A_EK_H = self.A_EK.conj().T.tocsr()

    def solve(self, b):
        b_K = b[: len(self.keep)]
        b_E = b[len(self.keep) :]
        y = b_K - self.A_KE @ (self.d_inv * b_E)
        x_K = sla.lu_solve(self.factor, y)
        x_E = self.d_inv * (b_E - self.A_EK @ x_K)
        return np.concatenate([x_K, x_E])

    def adjoint_solve(self, b):
        b_K = b[: len(self.keep)]
        b_E = b[len(self.keep) :]
        y = b_K - self.A_EK_H @ (np.conj(self.d_inv) * b_E)
        x_K = sla.lu_solve(self.factor, y, trans=2)
        x_E = np.conj(self.d_inv) * (b_E - self.A_KE_H @ x_K)
        return np.concatenate([x_K, x_E])


class _TridiagSolve:
    """Block Thomas factorization over ascending boson sectors."""

    def __init__(self, A: sp.csr_matrix, sector_slices):
        self.slices = sector_slices
        diag_factors = []
        lowers = []
        uppers = []
        for n, slc in enumerate(sector_slices):
            D = A[slc, :][:, slc].toarray()
            if n == 0:
                S = D
                lowers.append(None)
                uppers.append(None)
            else:
                prev = sector_slices[n - 1]
                L = A[slc, :][:, prev].tocsr()
                U = A[prev, :][:, slc].tocsr()
                lowers.append(L)
                uppers.append(U)
                # S_n = D_n - L (S_{n-1})^{-1} U, computed column-block wise
                X = sla.lu_solve(diag_factors[-1], U.toarray())
                S = D - (L @ X)
            diag_factors.append(sla.lu_factor(S))
        self.diag_factors = diag_factors
        self.lowers = lowers
        self.uppers = uppers

    def solve(self, b):
        parts = [b[slc] for slc in self.slices]
        ys = []
        for n, bn in enumerate(parts):
            if n == 0:
                ys.append(bn)
            else:
                ys.append(bn - self.lowers[n] @ sla.lu_solve(self.diag_factors[n - 1], ys[n - 1]))
        xs = [None] * len(parts)
        xs[-1] = sla.lu_solve(self.diag_factors[-1], ys[-1])
        for n in range(len(parts) - 2, -1, -1):
            xs[n] = sla.lu_solve(self.diag_factors[n], ys[n] - self.uppers[n + 1] @ xs[n + 1])
        out = np.empty_like(b)
        for slc, xn in zip(self.slices, xs):
            out[slc] = xn
        return out

    def adjoint_solve(self, b):
        # A^H has the same Schur blocks S_n^H; reuse each LU with trans=2
        parts = [b[slc] for slc in self.slices]
        ys = []
        for n, bn in enumerate(parts):
            if n == 0:
                ys.append(bn)
            else:
                ys.append(
                    bn
                    - self.uppers[n].conj().T
                    @ sla.lu_solve(self.diag_factors[n - 1], ys[n - 1], trans=2)
                )
        xs = [None] * len(parts)
        xs[-1] = sla.lu_solve(self.diag_factors[-1], ys[-1], trans=2)
        for n in range(len(parts) - 2, -1, -1):
            xs[n] = sla.lu_solve(
                self.diag_factors[n], ys[n] - self.lowers[n + 1].conj().T @ xs[n + 1], trans=2
            )
        out = np.empty_like(b)
        for slc, xn in zip(self.slices, xs):
            out[slc] = xn
        return out


class _GmresSolve:
    """Diagonally preconditioned GMRES; last-resort path."""

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


def _component_solver(A: sp.csr_matrix, totals: np.ndarray):
    """Pick a solver for one connected component (A already restricted)."""
    n = A.shape[0]
    if n <= DENSE_SOLVE_CAP:
        return _DenseSolve(A.toarray())
    top = totals.max()
    in_top = totals == top
    offdiag = A - sp.diags(A.diagonal())
    offdiag.eliminate_zeros()
    top_idx = np.nonzero(in_top)[0]
    sub = offdiag[top_idx][:, top_idx]
    if sub.nnz == 0 and (n - len(top_idx)) <= SCHUR_KEPT_CAP and len(top_idx) > 0:
        keep = np.nonzero(~in_top)[0]
        return _PermutedSolver(_SchurSolve(A, keep, top_idx), np.concatenate([keep, top_idx]), n)
    # sector-banded shape?
    coo = offdiag.tocoo()
    if len(coo.row) and np.max(np.abs(totals[coo.row] - totals[coo.col])) <= 1:
        order = np.argsort(totals, kind="stable")
        A_ord = A[order][:, order]
        t_ord = totals[order]
        bounds = np.searchsorted(t_ord, np.arange(t_ord[0], t_ord[-1] + 2))
        slices = [
            slice(bounds[i], bounds[i + 1])
            for i in range(len(bounds) - 1)
            if bounds[i + 1] > bounds[i]
        ]
        if all((s.stop - s.start) <= TRIDIAG_BLOCK_CAP for s in slices):
            return _PermutedSolver(_TridiagSolve(A_ord, slices), order, n)
    return _GmresSolve(A)


class _PermutedSolver:
    def __init__(self, inner, order, n):
        self.inner = inner
        self.order = order
        self.inverse = np.empty(n, dtype=np.int64)
        self.inverse[order] = np.arange(n)

    def solve(self, b):
        return self.inner.solve(b[self.order])[self.inverse]

    def adjoint_solve(self, b):
        return self.inner.adjoint_solve(b[self.order])[self.inverse]


def split_components(M: sp.csr_matrix):
    """Connected components of the off-diagonal pattern of ``M``.

    Returns the index arrays of the components with two or more states,
    each ascending and ordered by their smallest index, and one ascending
    array of the singletons (states that ``M`` couples to no other).
    """
    pattern = abs(M)
    n_comp, labels = connected_components(pattern + pattern.T, directed=False)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=n_comp))
    groups = np.split(order, ends[:-1])
    components = [idx for idx in groups if len(idx) > 1]
    singletons = np.array([idx[0] for idx in groups if len(idx) == 1], dtype=np.int64)
    return components, singletons


class StructuredResolvent:
    """Action of (H - z)^{-1} (and its adjoint) for a sparse H on a
    truncated basis, decomposed over connected components."""

    def __init__(self, H: sp.spmatrix, z: complex, totals_per_index: np.ndarray):
        A = (H.tocsr() - z * sp.identity(H.shape[0], format="csr", dtype=complex)).tocsr()
        A.eliminate_zeros()
        self.shape = A.shape
        components, singletons = split_components(A)
        self.parts = [
            (idx, _component_solver(A[idx][:, idx].tocsr(), totals_per_index[idx]))
            for idx in components
        ]
        if len(singletons):
            self.parts.append((singletons, _DiagSolve(A.diagonal()[singletons])))

    def solve(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0], dtype=complex)
        for idx, solver in self.parts:
            out[idx] = solver.solve(np.asarray(b, dtype=complex)[idx])
        return out

    def adjoint_solve(self, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0], dtype=complex)
        for idx, solver in self.parts:
            out[idx] = solver.adjoint_solve(np.asarray(b, dtype=complex)[idx])
        return out
