"""Structured solvers for (H - z) x = b on truncated bases.

The cutoff studies need resolvent *actions* at dimensions far beyond
the dense cap.  The coupling graph of a truncated spin-boson generator
splits into independent components (dead modes, spin-polarized sectors,
decoupled singletons).  ``fock.Operator`` makes a Hamiltonian
self-adjoint (``hermitian_part``) and labels its components
(``component_labels``) once; ``renorm`` groups those labels
(``group_components``) or merges two sets (``merge_labels``).
``component_path`` alone decides how a component is treated, from its
off-diagonal pattern and boson totals, so H - z and H - mu take the
same path:

* dense, at or below ``DENSE_SOLVE_CAP`` states;
* Schur, above the cap, when the top boson sector is internally
  diagonal (field terms change the sector) and at most
  ``DENSE_SOLVE_CAP`` states are kept: that sector is eliminated exactly
  and ``schur_complement`` forms the dense complement on the kept block,
  for the resolvent (on H - z) and for the inertia certificate of
  ``renorm.ground_energy`` (on H - mu);
* GMRES, above the cap with more than ``GMRES_MIN_ROW_NNZ`` nonzeros per
  row: diagonally preconditioned, it converges quickly in exactly these
  regimes (weak intra-sector coupling), where a direct factorization
  fills in;
* LU, every other component.

``StructuredResolvent`` builds the Schur and GMRES parts on the labels
it is given and puts every other state, singletons included, into one
sparse LU (SuperLU, minimum-degree ordering on A^T + A).  All parts
solve a vector or an (n, k) block, and the adjoint with the same
factorization (for Schur, of an exactly Hermitian H).  A singular
factorization raises ``NumericError``.

So no dense matrix the package forms (a dense component, a Schur
complement, the Weyl operator of ``dressing.weyl``) is larger than
``DENSE_SOLVE_CAP`` on a side.

``opnorm`` (and ``_top_singular``, its Lanczos core) gives the largest
singular value, for the bounds of ``ibc`` and the distances of ``renorm``,
within ``NORM_MAX_RESTARTS`` implicit restarts.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import NumericError

DENSE_SOLVE_CAP = 4096
GMRES_MIN_ROW_NNZ = 32
GMRES_RTOL = 1e-12
GMRES_MAXITER = 400
NORM_TOL = 1e-8  # opnorm: relative Lanczos accuracy of the squared top singular value
NORM_MAX_RESTARTS = 500  # cap on ARPACK's implicit restarts of every top singular value


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
    """Eliminate an index set E on which A is strictly diagonal.

    The adjoint solves reuse the forward blocks: A = H - z for an exactly
    Hermitian H (every ``fock.Operator`` matrix), and z shifts only the
    diagonal, so (A_EK)^* = A_KE and (A_KE)^* = A_EK."""

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

    def _solve(self, b, d_inv, trans):
        b_K = b[self.keep]
        b_E = b[self.elim]
        y = b_K - self.A_KE @ _rows(d_inv, b_E)
        x_K = sla.lu_solve(self.factor, y, trans=trans)
        x = np.empty_like(b)
        x[self.keep] = x_K
        x[self.elim] = _rows(d_inv, b_E - self.A_EK @ x_K)
        return x

    def solve(self, b):
        return self._solve(b, self.d_inv, 0)

    def adjoint_solve(self, b):
        return self._solve(b, np.conj(self.d_inv), 2)


class _GmresSolve:
    """Diagonally preconditioned GMRES, one column at a time.  The adjoint
    solve is conj(GMRES on A^T with conj(b)): A^T has the diagonal of A, and
    the transpose of CSR is a CSC view, so no adjoint is stored."""

    def __init__(self, A: sp.csr_matrix):
        self.A = A
        diag = A.diagonal()
        if np.any(diag == 0):
            raise NumericError("zero diagonal entry in GMRES fallback solver")
        self.M = spla.LinearOperator(A.shape, matvec=lambda x: x / diag, dtype=complex)

    def _run(self, A, b):
        if b.ndim == 2:
            return np.column_stack([self._run(A, col) for col in b.T])
        if not np.any(b):
            return np.zeros_like(b, dtype=complex)
        x, info = spla.gmres(A, b, M=self.M, rtol=GMRES_RTOL, atol=0.0, maxiter=GMRES_MAXITER)
        if info != 0:
            raise NumericError(f"GMRES did not converge (info={info})")
        return x

    def solve(self, b):
        return self._run(self.A, b)

    def adjoint_solve(self, b):
        return np.conj(self._run(self.A.T, np.conj(b)))


def component_path(A: sp.csr_matrix, totals: np.ndarray):
    """The path of one component (see above): ``"dense"``, Schur
    ``(keep, elim)``, ``"gmres"`` or ``"lu"``, for A = H_c minus any diagonal
    shift in canonical CSR (a stored zero is no coupling) with boson
    ``totals``.  The GMRES test counts off-diagonal nonzeros plus n."""
    n = A.shape[0]
    if n <= DENSE_SOLVE_CAP:
        return "dense"
    in_top = totals == totals.max()
    elim = np.nonzero(in_top)[0]
    if n - len(elim) <= DENSE_SOLVE_CAP:
        rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
        coupled = (A.indices != rows) & in_top[rows] & in_top[A.indices] & (A.data != 0)
        if not np.any(coupled):
            return np.nonzero(~in_top)[0], elim
    off = np.count_nonzero(A.data) - np.count_nonzero(A.diagonal())
    return "gmres" if off + n > GMRES_MIN_ROW_NNZ * n else "lu"


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


def component_labels(M: sp.spmatrix, connection: str = "weak") -> np.ndarray:
    """Labels of the components of the nonzero pattern of ``M`` (a stored
    zero is no edge), numbered in order of their smallest index.
    ``connection`` is csgraph's: "weak" for any pattern; on a symmetric
    pattern "strong" gives the same labels without csgraph's transpose."""
    pattern = abs(M)  # csgraph takes a real matrix
    pattern.eliminate_zeros()
    return connected_components(pattern, directed=True, connection=connection)[1]


def merge_labels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component labels of the union of two patterns with labels ``a`` and
    ``b``: the graph joins a_i to b_i for every state i.  Each component
    holds an ``a`` label, so it is still numbered by its smallest index."""
    n_a, n_b = a.max() + 1, b.max() + 1
    links = sp.csr_matrix((np.ones(len(a)), (a, n_a + b)), shape=(n_a + n_b, n_a + n_b))
    return component_labels(links)[a]


def group_components(labels: np.ndarray):
    """Index arrays of the components of two or more states, each ascending
    and in the order of ``labels`` (numbered by their smallest index), and
    one ascending array of the singletons."""
    sizes = np.bincount(labels)
    single = sizes[labels] == 1
    multi = np.nonzero(~single)[0]
    order = multi[np.argsort(labels[multi], kind="stable")]
    components = np.split(order, np.cumsum(sizes[sizes > 1]))[:-1]
    return components, np.nonzero(single)[0]


def row_blocks(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive row ranges (a, b) that cover a CSR matrix with row
    pointer ``indptr``, each holding about step = sqrt(n nnz) entries (at
    most step plus those of its first row), the geometric mean of one
    vector and the whole matrix: a block is a small share of a sparse
    matrix, and a dense one is cut into few blocks."""
    n, nnz = len(indptr) - 1, int(indptr[-1])
    step = max(math.isqrt(n * nnz), 1)
    cuts = np.searchsorted(indptr[1:], np.arange(step, nnz, step), "right")
    cuts = np.unique(np.concatenate([[0], cuts, [n]]))
    return list(zip(cuts[:-1], cuts[1:]))


def rows_of(M: sp.csr_matrix, a: int, b: int) -> sp.csr_matrix:
    """Rows a:b of the CSR matrix ``M`` as a CSR matrix sharing its arrays."""
    lo, hi = M.indptr[a], M.indptr[b]
    return sp.csr_matrix(
        (M.data[lo:hi], M.indices[lo:hi], M.indptr[a : b + 1] - lo), shape=(b - a, M.shape[1])
    )


def hermitian_part(M: sp.spmatrix) -> tuple[sp.csr_matrix, float]:
    """The Hermitian part (M + M^*)/2 of a square sparse ``M``, in canonical
    CSR form (sorted indices, no duplicates), and the defect max|M - M^*|.
    With defect 0 it is M itself, canonicalized in place.

    Both are taken over the ``row_blocks`` of M, so neither M - M^* nor
    M + M^* is formed in full: besides M the call holds M^*, the halved
    blocks of the result and one block's sums, and at the end the blocks
    and the result.  Row by row the arithmetic is that of one sparse sum,
    so the result is the same bit for bit."""
    M = M.tocsr()
    M.sum_duplicates()
    adj = M.conj(copy=False).T.tocsr()
    blocks = row_blocks(M.indptr)
    defect = 0.0
    for a, b in blocks:
        diff = rows_of(M, a, b) - rows_of(adj, a, b)
        defect = max(defect, float(np.max(np.abs(diff.data), initial=0.0)))
    if not defect:
        return M, defect
    halves = []
    for a, b in blocks:
        S = rows_of(M, a, b) + rows_of(adj, a, b)
        # the halved data and the indices, without the room the sum keeps
        halves.append(sp.csr_matrix((S.data * 0.5, S.indices.copy(), S.indptr), shape=S.shape))
    del adj, S
    return sp.vstack(halves, format="csr"), defect


def _top_singular(D: spla.LinearOperator, v0, rel_tol: float) -> float:
    """Largest singular value of D, as the square root of the largest
    eigenvalue theta of the Hermitian D^* D.

    Lanczos (ARPACK through ``eigsh``, started from ``v0``; Golub & Kahan
    1965, Lehoucq, Sorensen & Yang 1998) resolves clustered top singular
    values.  ``rel_tol`` is ARPACK's relative accuracy of theta = sigma^2;
    ``NORM_MAX_RESTARTS`` caps its implicit restarts.  Below dimension 3,
    where ARPACK cannot run, D is formed densely and its 2-norm taken.

    When ARPACK fails and D maps the random start vector ``v0`` to zero,
    D = 0 and the result is 0.0.  Other failures, no convergence among
    them, raise ``NumericError``.
    """
    n = D.shape[1]
    if n < 3:  # ARPACK needs k < n - 1
        return float(np.linalg.norm(D.matmat(np.eye(n)), 2))
    dhd = spla.LinearOperator((n, n), matvec=lambda x: D.rmatvec(D.matvec(x)), dtype=complex)
    try:
        vals, _ = spla.eigsh(dhd, k=1, which="LA", v0=v0, tol=rel_tol, maxiter=NORM_MAX_RESTARTS)
    except spla.ArpackNoConvergence as exc:
        raise NumericError(
            f"Lanczos norm estimate did not converge to rel tol {rel_tol} "
            f"in {NORM_MAX_RESTARTS} restarts"
        ) from exc
    except spla.ArpackError as exc:
        if not np.any(D.matvec(v0)):  # D = 0 leaves Lanczos no Krylov space
            return 0.0
        raise NumericError(f"Lanczos norm estimate failed: {exc}") from exc
    return float(np.sqrt(max(float(vals[0]), 0.0)))


def opnorm(A) -> float:
    """Largest singular value of a dense or sparse matrix or a
    ``LinearOperator``, by Lanczos on A^* A (see ``_top_singular``).

    ``NORM_TOL`` is ARPACK's relative accuracy of the largest eigenvalue
    sigma^2 of A^* A, so sigma is accurate to about ``NORM_TOL / 2``
    relative.  The start vector is drawn from seed 0, so the result is
    deterministic.  A zero A gives 0.0; no convergence raises
    ``NumericError``.
    """
    D = spla.aslinearoperator(A)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(D.shape[1]) + 1j * rng.standard_normal(D.shape[1])
    return _top_singular(D, v0, NORM_TOL)


class StructuredResolvent:
    """Action of (H - z)^{-1} (and its adjoint) on a vector or an (n, k)
    block, for a sparse H on a truncated basis whose components ``labels``
    name: its ``component_labels``, or an operator's labels restricted to a
    union of its components.  ``parts`` lists (indices, solver) pairs that
    partition the basis (see the module docstring)."""

    def __init__(self, H: sp.spmatrix, z: complex, totals: np.ndarray, labels: np.ndarray):
        A = (H.tocsr() - z * sp.identity(H.shape[0], format="csr", dtype=complex)).tocsr()
        A.eliminate_zeros()
        self.parts = []
        rest = np.ones(A.shape[0], dtype=bool)
        for idx in group_components(labels)[0]:
            if len(idx) <= DENSE_SOLVE_CAP:  # "dense": joins the sparse LU unsliced
                continue
            sub = A[idx][:, idx].tocsr()
            path = component_path(sub, totals[idx])
            if path != "lu":
                solver = _GmresSolve(sub) if path == "gmres" else _SchurSolve(sub, *path)
                self.parts.append((idx, solver))
                rest[idx] = False
            del sub  # not alive while the sparse LU is factored
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
