"""Regularized and renormalized Hamiltonians and their cutoff behaviour.

``h_reg`` is the direct assembly S + dGamma(omega) + phi(V).  For
couplings whose high-frequency part splits into a normal and a
2-nilpotent piece, ``h_renormalized`` builds the cutoff-independent
operator

    S + W(omega^{-1} V_D) ( xi(V_N, V_N, lambda) + phi(V_le) ) W(omega^{-1} V_D)^* - lambda

whose resolvent is the limit of the regularized-plus-counterterm
resolvents.  ``convergence_study`` measures that approach on a fixed
grid; ``vanhove_demo`` exhibits the complementary divergence for
super-critical scalar couplings.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _solvers
from ._solvers import StructuredResolvent, split_components
from .dressing import weyl, weyl_action
from .errors import NumericError, ParameterError, StructuralError
from .fock import (
    OccupationBasis,
    Operator,
    SpinSpace,
    build_basis,
    dgamma,
    field,
    parity,
    spin_operator,
    vacuum,
)
from .ibc import xi
from .model import (
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    bs_norm,
    check_structure,
    renorm_energy,
    uv_truncate,
)
from .reports import CheckResult, CheckSuite

HERMITICITY_TOL = 1e-10

# Fixed settings of the two studies
STUDY_Z = 1j  # spectral parameter of every resolvent
NONINCREASING_JITTER = 0.10  # convergence: allowed relative rise between distances
CONJUGATION_TOL = 1e-7  # van Hove: largest resolvent deviation
PARITY_FINAL_FRACTION = 0.05  # van Hove: last parity below this share of the first
ENERGY_DROP = 2.0  # van Hove: least fall of the ground energy over the schedule


@dataclass(frozen=True)
class HamiltonianSpec:
    """Model description: internal energy S, coupling decomposition,
    boundary parameter lambda and the basis size."""

    S: np.ndarray
    coupling: CouplingDecomposition
    lam: float
    n_max: int

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=complex))
        if S.shape[0] != S.shape[1]:
            raise StructuralError("S must be square")
        if S.shape[0] != self.coupling.spin_dim:
            raise StructuralError("S dimension does not match the coupling spin dimension")
        if np.max(np.abs(S - S.conj().T)) > 1e-12:
            raise StructuralError("S must be symmetric (self-adjoint) within 1e-12")
        if not self.lam > 0:
            raise ParameterError("lambda must be positive")
        if self.n_max < 0:
            raise ParameterError("n_max must be >= 0")
        object.__setattr__(self, "S", S)

    @property
    def grid(self):
        return self.coupling.grid

    @property
    def spin_dim(self) -> int:
        return self.coupling.spin_dim


def h_reg(basis: OccupationBasis, S: np.ndarray, V: FormFactor) -> Operator:
    """Regularized Hamiltonian S + dGamma(omega) + phi(V)."""
    S = np.atleast_2d(np.asarray(S, dtype=complex))
    if S.shape != (basis.spin.dim, basis.spin.dim):
        raise StructuralError("S shape does not match basis spin dimension")
    mat = (
        spin_operator(basis, S)
        + dgamma(basis, basis.grid.omegas).tocsr()
        + field(basis, V).tocsr()
    )
    return Operator(basis, mat.tocsr())


def h_cutoff(basis: OccupationBasis, spec: HamiltonianSpec, Lam: float):
    """Regularized Hamiltonian at cutoff ``Lam`` with its self-energy
    counterterm, H_Lam = h_reg(S, V_Lam) + 1 (x) E_Lam.

    Returns H_Lam and the counterterm matrix E_Lam.
    """
    V_L = uv_truncate(spec.coupling.total(), Lam)
    E_L = renorm_energy(V_L)
    H_L = h_reg(basis, spec.S, V_L).tocsr() + spin_operator(basis, E_L)
    return Operator(basis, H_L.tocsr()), E_L


def h_renormalized(basis: OccupationBasis, spec: HamiltonianSpec) -> Operator:
    """Cutoff-independent Hamiltonian assembled through the boundary
    representation of the nilpotent part and the dressing transformation
    of the normal part.

    Sparse when no dressing is required (V_D = 0); dense otherwise.  The
    result is independent of spec.lam up to truncation effects.
    """
    structure = check_structure(spec.coupling)
    for r in structure.results:
        if r.skipped or r.passed:
            continue
        if r.name == "admissibility":
            raise StructuralError(
                "coupling is not admissible: declare a regularity exponent below 2 "
                "or enlarge the infrared threshold kappa until the 2-nilpotent part "
                f"has b_2 norm below 1/2 (currently {r.details['b2_norm_v_n']:.4g})"
            )
        raise StructuralError(f"coupling structure check failed: {r.name}")
    lam = spec.lam
    core = xi(basis, spec.coupling.v_n, spec.coupling.v_n, lam).tocsr()
    core = (core + field(basis, spec.coupling.v_le).tocsr()).tocsr()
    if spec.coupling.v_d.is_zero():
        mat = spin_operator(basis, spec.S) + core - lam * sp.identity(
            basis.dim, format="csr", dtype=complex
        )
        return Operator(basis, mat.tocsr())
    dress = FormFactor(
        basis.grid, spec.coupling.v_d.values / basis.grid.omegas[:, None, None]
    )
    W = weyl(basis, dress).matrix
    dressed = W @ core.toarray() @ W.conj().T
    mat = spin_operator(basis, spec.S).toarray() + dressed - lam * np.eye(basis.dim)
    return Operator(basis, mat)


# ------------------------------------------------------------- linear algebra


def _top_singular(D: spla.LinearOperator, v0, rel_tol: float, max_iter: int) -> float:
    """Largest singular value of D, as the square root of the largest
    eigenvalue theta of the Hermitian D^* D.

    Lanczos (ARPACK through ``eigsh``, started from ``v0``; Golub & Kahan
    1965, Lehoucq, Sorensen & Yang 1998) resolves clustered top singular
    values.  ``rel_tol`` is ARPACK's relative accuracy of theta = sigma^2
    and ``max_iter`` its cap on implicit restarts.  Below dimension 3,
    where ARPACK cannot run, D^* D is formed densely and its top
    eigenpair is accepted by ARPACK's own rule,
    ||D^* D v - theta v|| <= rel_tol * max(theta, eps^(2/3)).

    When ARPACK fails and D maps the random start vector ``v0`` to zero,
    D = 0 and the result is 0.0.  Other failures raise ``NumericError``;
    on no convergence it carries the best estimate of sigma (or ``None``).
    """
    n = D.shape[1]
    dhd = spla.LinearOperator((n, n), matvec=lambda x: D.rmatvec(D.matvec(x)), dtype=complex)
    if n < 3:  # ARPACK needs k < n - 1
        M = dhd.matmat(np.eye(n, dtype=complex))
        thetas, vecs = np.linalg.eigh(M)
        theta, v = float(thetas[-1]), vecs[:, -1]
        sigma = float(np.sqrt(max(theta, 0.0)))
        resid = float(np.linalg.norm(M @ v - theta * v))
        if resid > rel_tol * max(theta, np.finfo(float).eps ** (2 / 3)):
            raise NumericError(
                f"dense norm estimate did not converge to rel tol {rel_tol} "
                f"(Ritz residual {resid:.3e})",
                best_estimate=sigma,
            )
        return sigma
    try:
        vals, _ = spla.eigsh(dhd, k=1, which="LA", v0=v0, tol=rel_tol, maxiter=max_iter)
    except spla.ArpackNoConvergence as exc:
        partial = np.asarray(exc.eigenvalues).real
        best = float(np.sqrt(max(partial.max(), 0.0))) if partial.size else None
        raise NumericError(
            f"Lanczos norm estimate did not converge to rel tol {rel_tol} "
            f"in {max_iter} restarts",
            best_estimate=best,
        ) from exc
    except spla.ArpackError as exc:
        if not np.any(D.matvec(v0)):  # D = 0 leaves Lanczos no Krylov space
            return 0.0
        raise NumericError(f"Lanczos norm estimate failed: {exc}") from exc
    return float(np.sqrt(max(float(vals[0]), 0.0)))


def opnorm(A, rel_tol: float = 1e-8, max_iter: int = 10_000, seed: int = 0) -> float:
    """Largest singular value of an ``Operator``, a dense or sparse matrix
    or a ``LinearOperator``, by Lanczos on A^* A (see ``_top_singular``).

    ``rel_tol`` is ARPACK's relative accuracy of the largest eigenvalue
    sigma^2 of A^* A, so sigma is accurate to about ``rel_tol / 2``
    relative; ``max_iter`` caps ARPACK's implicit restarts.  The start
    vector is drawn from ``seed``, so the result is deterministic.  A zero
    A gives 0.0; no convergence raises ``NumericError`` carrying the best
    estimate.
    """
    D = spla.aslinearoperator(A.matrix if isinstance(A, Operator) else A)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(D.shape[1]) + 1j * rng.standard_normal(D.shape[1])
    return _top_singular(D, v0, rel_tol, max_iter)


def _hermiticity_defect(mat) -> float:
    if sp.issparse(mat):
        d = (mat - mat.conj().T).tocsr()
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0
    return float(np.max(np.abs(mat - mat.conj().T)))


def _certified_above(sub: sp.csr_matrix, mu: float, totals: np.ndarray) -> bool:
    """True when inertia proves lambda_min(sub) > mu (see ``ground_energy``):
    LAPACK ``potrf`` factors sub - mu, or its Schur complement, with the
    diagonal lowered by tau = (n+1)^2 eps ||.||_inf, a margin above the
    Cholesky backward error (Higham 2002, section 10.1).  ``False`` proves
    nothing."""
    A = (sub - mu * sp.identity(sub.shape[0], format="csr")).tocsr()
    if sub.shape[0] <= _solvers.DENSE_SOLVE_CAP:
        a = A.toarray(order="F")
    else:
        split = _solvers.schur_split(A, totals)
        if split is None:
            return False
        a = _solvers.schur_complement(A, *split)[3]
    lange, potrf = sla.get_lapack_funcs(("lange", "potrf"), (a,))
    n = a.shape[0]
    a.flat[:: n + 1] -= (n + 1) ** 2 * np.finfo(float).eps * lange("I", a)
    return potrf(a, lower=True, overwrite_a=True, clean=False)[1] == 0


def ground_energy(H: Operator, seed: int = 0) -> float:
    """Smallest eigenvalue, as a Python float.

    The coupling graph is split into its connected components.  The
    search starts from the smallest singleton diagonal entry and visits
    the other components in ascending order of their Gershgorin lower
    bound, stopping at the first bound at or above the running minimum mu.

    A visited component H_c whose diagonal lies above mu is first
    certified by inertia (Sylvester's law) to lie above mu, and skipped:
    at or below ``_solvers.DENSE_SOLVE_CAP`` by a Cholesky factorization
    of H_c - mu; above it, when H_c passes the Schur test, by Haynsworth's
    additivity In(H_c - mu) = In(D_EE - mu) + In(S(mu)), where the
    eliminated diagonal D_EE - mu is positive and the dense Schur
    complement S(mu) passes Cholesky.  Each Cholesky runs on a diagonal
    lowered by tau = (n+1)^2 eps ||.||_inf, a margin above its backward
    error.  Every other visited component (a diagonal entry at or below
    mu, a failed factorization, one not Schur-type above the cap) is
    solved densely at or below the cap and by Lanczos (``eigsh``, started
    from a vector drawn from ``seed``) above it.
    """
    defect = _hermiticity_defect(H.matrix)
    if defect > HERMITICITY_TOL:
        raise StructuralError(f"operator is not self-adjoint (defect {defect:.3e})")
    mat = H.tocsr()
    sym = ((mat + mat.conj().T) * 0.5).tocsr()
    components, singletons = split_components(sym)
    diag = sym.diagonal().real
    abs_rows = np.asarray(abs(sym).sum(axis=1)).ravel()
    gersh = diag - (abs_rows - np.abs(diag))
    bounds = [float(np.min(gersh[idx])) for idx in components]
    totals = H.basis.lift(H.basis.totals)
    best = float(np.min(diag[singletons])) if len(singletons) else np.inf
    rng = np.random.default_rng(seed)
    for c in np.argsort(bounds, kind="stable"):
        if bounds[c] >= best:
            break
        idx = components[c]
        sub = sym[idx][:, idx].tocsr()
        if np.min(diag[idx]) > best and _certified_above(sub, best, totals[idx]):
            continue
        if len(idx) <= _solvers.DENSE_SOLVE_CAP:
            low = np.linalg.eigvalsh(sub.toarray())[0]
        else:
            v0 = rng.standard_normal(len(idx))
            try:
                low = spla.eigsh(sub, k=1, which="SA", v0=v0, return_eigenvectors=False, tol=1e-9)[0]
            except spla.ArpackError as exc:
                raise NumericError(f"Lanczos ground energy failed: {exc}") from exc
        best = min(best, float(low))
    return best


# ------------------------------------------------------------ appendix checks


def _random_invertible(rng, dim, cond_cap=1e3):
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    spread = np.sqrt(cond_cap)
    svals = np.exp(np.linspace(np.log(1.0 / spread), np.log(spread), dim))
    return (q1 * svals) @ q2.conj().T


def verify_transformed_operator_identities(dim: int, seed: int = 0) -> CheckSuite:
    """Finite-dimensional checks of the two transformation identities:

    adjoint transport        (A C A^*)^* = A C^* A^*
    resolvent difference     (A T A^* + i)^{-1} - (B T B^* + i)^{-1}
        = (ATA*+i)^{-1} (B-A) T B^* (BTB*+i)^{-1}
          + (T A^* (A T A^* - i)^{-1})^* (B^*-A^*) (BTB*+i)^{-1}

    for random invertible A, B (condition below 1e3) and self-adjoint T.
    The first resolvent factor of the second summand carries the shift
    -i, the unique choice making the identity exact.
    """
    if dim > 256:
        raise ParameterError("dim must be <= 256")
    rng = np.random.default_rng(seed)
    suite = CheckSuite("transformed_operator_identities")
    tol = 1e-9
    eye = np.eye(dim)

    A = _random_invertible(rng, dim)
    C = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lhs = (A @ C @ A.conj().T).conj().T
    rhs = A @ C.conj().T @ A.conj().T
    dev = float(np.max(np.abs(lhs - rhs)))
    suite.add(CheckResult("adjoint_transport", dev <= tol, dev, tol))

    B = _random_invertible(rng, dim)
    T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = T + T.conj().T
    X = A @ T @ A.conj().T + 1j * eye
    Y = B @ T @ B.conj().T + 1j * eye
    Xm = A @ T @ A.conj().T - 1j * eye
    lhs_res = np.linalg.inv(X) - np.linalg.inv(Y)
    term1 = np.linalg.inv(X) @ (B - A) @ T @ B.conj().T @ np.linalg.inv(Y)
    term2 = (T @ A.conj().T @ np.linalg.inv(Xm)).conj().T @ (
        B.conj().T - A.conj().T
    ) @ np.linalg.inv(Y)
    dev_res = float(np.max(np.abs(lhs_res - (term1 + term2))))
    suite.add(CheckResult("resolvent_transport", dev_res <= tol, dev_res, tol))
    return suite


# --------------------------------------------------------- convergence study


@dataclass
class ConvergenceRow:
    Lambda: float
    e_trace: float
    resolvent_distance: float
    ground_energy_reg: float
    ground_energy_renorm: float


@dataclass
class ConvergenceReport:
    schedule: list
    rows: list = dataclass_field(default_factory=list)
    nonincreasing_ok: bool = False
    decay_ok: bool = False

    @property
    def passed(self) -> bool:
        return self.nonincreasing_ok and self.decay_ok

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _block_bounds(H_lim, H_L, z: complex, components, defect_lim: float, defect_L: float):
    """Upper bounds u_c >= ||D_c||_2 on the diagonal blocks of
    D = (H_L - z)^{-1} - (H_lim - z)^{-1} = R_L (H_lim - H_L) R_lim over
    ``components``, index arrays of blocks that both CSR operators leave
    invariant; ``defect_*`` is max|H - H^*| of each.  Each 2-norm is
    bounded by sqrt(||X||_1 ||X||_inf) of the entrywise |X|, and
    u_c = min(B1, B2):

    * B1 = ||dH_c|| / (g_L g_lim), dH = H_lim - H_L, with
      g = |Im z| - n_c defect / 2 a lower bound of the smallest singular
      value of H_c - z (n_c defect / 2 bounds the norm of the
      skew-Hermitian part); infinite unless both g > 0;
    * B2 = ||P_L |dH_c| P_lim|| / ((1 - x_L)(1 - x_lim)), the Neumann
      series bound, with P = diag 1/|h_ii - z|, O the off-diagonal part,
      x_L >= ||P_L O_L|| and x_lim >= ||O_lim P_lim||; infinite unless
      both x < 1.
    """
    sizes = np.array([len(idx) for idx in components])
    order = np.concatenate(components)
    starts = np.cumsum(sizes) - sizes

    def norm_bound(row_sums, col_sums):
        rows = np.maximum.reduceat(row_sums[order], starts)
        return np.sqrt(rows * np.maximum.reduceat(col_sums[order], starts))

    def bounded(num, a, b):  # num / (a b), infinite unless a > 0 and b > 0
        out = np.full(len(components), np.inf)
        np.divide(num, a * b, out=out, where=(a > 0) & (b > 0))
        return out

    abs_dH, abs_L, abs_lim = abs(H_lim - H_L), abs(H_L), abs(H_lim)
    ones = np.ones(H_lim.shape[0])
    g_L, g_lim = (abs(z.imag) - sizes * defect / 2 for defect in (defect_L, defect_lim))
    b1 = bounded(norm_bound(abs_dH @ ones, abs_dH.T @ ones), g_L, g_lim)

    h_L, h_lim = H_L.diagonal(), H_lim.diagonal()
    p_L, p_lim = 1.0 / np.abs(h_L - z), 1.0 / np.abs(h_lim - z)
    a_L, a_lim = np.abs(h_L), np.abs(h_lim)  # taken off |H| to leave |O|
    x_L = norm_bound(p_L * (abs_L @ ones - a_L), abs_L.T @ p_L - a_L * p_L)
    x_lim = norm_bound(abs_lim @ p_lim - a_lim * p_lim, p_lim * (abs_lim.T @ ones - a_lim))
    num = norm_bound(p_L * (abs_dH @ p_lim), p_lim * (abs_dH.T @ p_L))
    b2 = bounded(num, 1 - x_L, 1 - x_lim)
    return np.minimum(b1, b2)


def convergence_study(
    spec: HamiltonianSpec,
    schedule,
    opnorm_tol: float = 1e-6,
    opnorm_abs_tol: float = 1e-7,
    opnorm_max_iter: int = 500,
    seed: int = 0,
    decay_threshold: float = 0.10,
) -> ConvergenceReport:
    """Resolvent-distance study of regularized-plus-counterterm operators
    against the renormalized limit operator on a fixed grid.

    For each cutoff in the schedule, the coupling is truncated, the
    counterterm added, and D_Lambda = || (H_Lambda - z)^{-1} - (H_lim - z)^{-1} ||
    recorded at z = ``STUDY_Z``.  Verdict: PASS iff each distance is at
    most (1 + ``NONINCREASING_JITTER``) times the one before plus
    ``opnorm_abs_tol``, and the last distance is below
    ``decay_threshold`` times the first (or the first is 0).

    D = (H_Lambda - z)^{-1} - (H_lim - z)^{-1} = R_Lambda (H_lim - H_Lambda) R_lim
    is block-diagonal over the connected components of
    |H_lim| + |H_Lambda|, so D_Lambda is the largest of the block norms.
    On a singleton the block is the scalar
    1/(h_Lambda,ii - z) - 1/(h_lim,ii - z); s is the largest of these,
    computed exactly (0 without singletons).  Every other block c is
    bounded by u_c = min(B1, B2) without a solve (see ``_block_bounds``):
    B1 from ||(H - z)^{-1}|| <= 1/|Im z| for self-adjoint H, corrected by
    the Hermiticity defect of each operator, and B2 from the Neumann
    series about the diagonals.  A block with u_c <= s cannot attain the
    maximum and is pruned.  On the union U of the remaining blocks the
    largest singular value of D_U is the square root of the largest
    eigenvalue of D_U^* D_U, computed by Lanczos (ARPACK ``eigsh``) with
    both resolvents built on U only, and started from ``probe[U]`` for
    a vector ``probe`` drawn once from ``seed``.  D_Lambda = max(s,
    sigma_max(D_U)); when every block is pruned, D_Lambda = s and nothing
    is solved.

    s is exact up to rounding and a pruned block cannot change the
    maximum, so only sigma_max(D_U) carries an iteration error:
    ``opnorm_tol`` is the relative accuracy requested of its square,
    so it is accurate to about ``opnorm_tol / 2`` relative;
    ``opnorm_max_iter`` caps ARPACK's implicit restarts, beyond which
    ``NumericError`` is raised; an exactly zero D gives D_Lambda = 0.0.
    ``opnorm_abs_tol`` is the absolute floor below which an increase
    between successive distances counts as a tie in the nonincreasing check.
    """
    schedule = [float(L) for L in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise StructuralError("schedule must be strictly increasing")
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    H_lim = h_renormalized(basis, spec)
    defect = _hermiticity_defect(H_lim.matrix)
    if defect > 1e-12 * max(1.0, spec.lam):
        raise NumericError(f"renormalized operator hermiticity defect {defect:.3e}")
    totals = basis.lift(basis.totals)
    lim = H_lim.tocsr()
    g_lim = ground_energy(H_lim, seed=seed)
    report = ConvergenceReport(schedule=schedule)
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    U_lim, R_lim = None, None
    for Lam in schedule:
        H_L, E_L = h_cutoff(basis, spec, Lam)
        cut = H_L.tocsr()
        components, singletons = split_components(abs(lim) + abs(cut))
        steps = 1.0 / (cut.diagonal()[singletons] - STUDY_Z) - 1.0 / (
            lim.diagonal()[singletons] - STUDY_Z
        )
        dist = float(np.max(np.abs(steps), initial=0.0))
        bounds = []
        if components:
            bounds = _block_bounds(lim, cut, STUDY_Z, components, defect, _hermiticity_defect(cut))
        kept = [idx for idx, u in zip(components, bounds) if u > dist]
        if kept:
            U = np.sort(np.concatenate(kept))
            if not np.array_equal(U, U_lim):
                U_lim, R_lim = U, StructuredResolvent(lim[U][:, U], STUDY_Z, totals[U])
            R_L = StructuredResolvent(cut[U][:, U], STUDY_Z, totals[U])
            D = spla.LinearOperator(
                (len(U), len(U)),
                matvec=lambda x: R_L.solve(x) - R_lim.solve(x),
                rmatvec=lambda x: R_L.adjoint_solve(x) - R_lim.adjoint_solve(x),
                dtype=complex,
            )
            dist = max(dist, _top_singular(D, probe[U], opnorm_tol, opnorm_max_iter))
        g_reg = ground_energy(H_L, seed=seed)
        report.rows.append(
            ConvergenceRow(
                Lambda=Lam,
                e_trace=float(np.trace(E_L).real),
                resolvent_distance=dist,
                ground_energy_reg=g_reg,
                ground_energy_renorm=g_lim,
            )
        )
    dists = [r.resolvent_distance for r in report.rows]
    # absolute floor: distances below the opnorm resolution count as ties
    report.nonincreasing_ok = all(
        b <= a * (1.0 + NONINCREASING_JITTER) + opnorm_abs_tol for a, b in zip(dists, dists[1:])
    )
    report.decay_ok = dists[-1] < decay_threshold * dists[0] if dists[0] > 0 else True
    return report


# ------------------------------------------------------------- van Hove demo


@dataclass
class VanHoveRow:
    Lambda: float
    conjugation_deviation: float
    parity_expectation: float
    parity_oracle: float
    ground_energy: float
    ground_oracle: float


@dataclass
class VanHoveReport:
    schedule: list
    rows: list = dataclass_field(default_factory=list)
    conjugation_ok: bool = False
    parity_ok: bool = False
    energy_ok: bool = False

    @property
    def passed(self) -> bool:
        return self.conjugation_ok and self.parity_ok and self.energy_ok

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def vanhove_demo(
    grid: ModeGrid, profile, schedule, *, n_max: int, restrict_m: int
) -> VanHoveReport:
    """Super-critical scalar demonstration on the one-dimensional internal
    eigenvector subspace, for the scalar coupling v = ``profile`` (one
    value per mode of ``grid``) on the occupation basis of total boson
    number at most ``n_max``.

    For each cutoff Lambda of the schedule, v is truncated to
    omega < Lambda and three quantities are recorded:

    (i) the conjugation deviation, the 2-norm of
        W^* (H_Lambda + ||v_Lambda||_{b_1}^2 - z)^{-1} W - (dGamma(omega) - z)^{-1}
        on the states of total boson number at most ``restrict_m``
        (a truncation-safe block), with H_Lambda = dGamma(omega) + phi(v_Lambda),
        W the Weyl operator of omega^{-1} v_Lambda and z = ``STUDY_Z``;
    (ii) the parity expectation of the dressed vacuum W Omega, against
        its oracle exp(-2 ||omega^{-1} v_Lambda||_{b_0}^2);
    (iii) the ground energy of the uncorrected H_Lambda, against its
        oracle -||v_Lambda||_{b_1}^2.

    Verdict: PASS iff every deviation is at most ``CONJUGATION_TOL``, the
    parity expectations strictly decrease to below
    ``PARITY_FINAL_FRACTION`` times the first, and the ground energies
    strictly decrease by more than ``ENERGY_DROP`` in all.  The dressed
    operator is then unitarily equivalent to the free field energy while
    the dressed vacuum leaves every fixed vector and the energy diverges:
    no self-energy correction can produce a convergent limit.
    """
    schedule = [float(L) for L in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise StructuralError("schedule must be strictly increasing")
    basis = build_basis(grid, SpinSpace(1), n_max)
    sel = basis.sector(restrict_m)
    units = basis.unit_columns(sel)
    totals = basis.lift(basis.totals)
    v_ff = FormFactor(grid, np.asarray(profile, dtype=complex))
    r_free = 1.0 / (basis.lift(basis.energies)[sel] - STUDY_Z)
    omega_vac = vacuum(basis)
    par = parity(basis)

    report = VanHoveReport(schedule=schedule)
    for Lam in schedule:
        v_n = uv_truncate(v_ff, Lam)
        dress = FormFactor(grid, v_n.values[:, 0, 0] / grid.omegas)
        shift = bs_norm(v_n, 1.0) ** 2
        H_free = h_reg(basis, np.zeros((1, 1)), v_n)
        H_shifted = (H_free.tocsr() + shift * sp.identity(basis.dim, format="csr")).tocsr()
        apply_W, _ = weyl_action(basis, dress)
        solver = StructuredResolvent(H_shifted, STUDY_Z, totals)
        # Y = W[:, sel], so (W^* R W)[sel, sel] = Y^H R Y; W acts column by
        # column (a block expm_multiply is no faster at these sizes)
        Y = np.column_stack([apply_W(e) for e in units.T])
        block = Y.conj().T @ solver.solve(Y) - np.diag(r_free)
        deviation = float(np.linalg.norm(block, ord=2))

        psi = apply_W(omega_vac)
        parity_exp = float(np.vdot(psi, par @ psi).real)
        parity_oracle = float(np.exp(-2.0 * bs_norm(dress, 0.0) ** 2))
        g = ground_energy(H_free)
        g_oracle = -shift
        report.rows.append(
            VanHoveRow(
                Lambda=Lam,
                conjugation_deviation=deviation,
                parity_expectation=parity_exp,
                parity_oracle=parity_oracle,
                ground_energy=g,
                ground_oracle=g_oracle,
            )
        )
    devs = [r.conjugation_deviation for r in report.rows]
    pars = [r.parity_expectation for r in report.rows]
    grounds = [r.ground_energy for r in report.rows]
    report.conjugation_ok = all(d <= CONJUGATION_TOL for d in devs)
    report.parity_ok = (
        all(b < a for a, b in zip(pars, pars[1:]))
        and pars[-1] < PARITY_FINAL_FRACTION * pars[0]
    )
    report.energy_ok = (
        all(b < a for a, b in zip(grounds, grounds[1:]))
        and (grounds[0] - grounds[-1]) > ENERGY_DROP
    )
    return report
