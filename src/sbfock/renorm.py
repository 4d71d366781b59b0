"""Regularized and renormalized Hamiltonians and their cutoff behaviour.

``h_reg`` is the direct assembly S + dGamma(omega) + phi(V).  For
couplings whose high-frequency part splits into a normal and a
2-nilpotent piece, ``h_renormalized`` builds the cutoff-independent
operator

    S + W(omega^{-1} V_D) ( xi(V_N, V_N, lambda) - lambda + phi(V_le) ) W(omega^{-1} V_D)^*

whose resolvent is the limit of the regularized-plus-counterterm
resolvents.  ``convergence_study`` measures that approach on a fixed
grid; ``vanhove_demo`` exhibits the complementary divergence for
super-critical scalar couplings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _solvers
from ._solvers import StructuredResolvent, _top_singular, group_components, merge_labels, opnorm
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
)
from .ibc import xi
from .model import (
    STRUCTURE_TOL,
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    bs_norm,
    renorm_energy,
    require_structure,
    uv_truncate,
)
from .reports import CheckResult, CheckSuite

TRANSFORM_CHECK_DIM = 64  # dimension of the transformed-operator identity checks

# Fixed settings of the two studies
STUDY_Z = 1j  # spectral parameter of every resolvent
NONINCREASING_JITTER = 0.10  # convergence: allowed relative rise between distances
OPNORM_TOL = 1e-6  # convergence: relative Lanczos accuracy of the squared top singular value
OPNORM_ABS_TOL = 1e-7  # convergence: absolute floor below which a rise counts as a tie
DECAY_FRACTION = 0.10  # convergence: last distance below this share of the first
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
        if np.max(np.abs(S - S.conj().T)) > STRUCTURE_TOL:
            raise StructuralError(f"S must be symmetric (self-adjoint) within {STRUCTURE_TOL:g}")
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


def _reg_matrix(basis: OccupationBasis, S: np.ndarray, V: FormFactor) -> sp.csr_matrix:
    """The CSR matrix of S + dGamma(omega) + phi(V)."""
    S = np.atleast_2d(np.asarray(S))
    if S.shape != (basis.spin.dim, basis.spin.dim):
        raise StructuralError("S shape does not match basis spin dimension")
    return spin_operator(basis, S) + dgamma(basis, basis.grid.omegas) + field(basis, V)


def h_reg(basis: OccupationBasis, S: np.ndarray, V: FormFactor) -> Operator:
    """Regularized Hamiltonian S + dGamma(omega) + phi(V)."""
    return Operator(basis, _reg_matrix(basis, S, V))


def h_cutoff(basis: OccupationBasis, spec: HamiltonianSpec, Lam: float):
    """Regularized Hamiltonian at cutoff ``Lam`` with its self-energy
    counterterm, H_Lam = h_reg(S, V_Lam) + 1 (x) E_Lam.

    Returns H_Lam and the counterterm matrix E_Lam.
    """
    V_L = uv_truncate(spec.coupling.total(), Lam)
    E_L = renorm_energy(V_L)
    H_L = _reg_matrix(basis, spec.S, V_L) + spin_operator(basis, E_L)
    return Operator(basis, H_L), E_L


def h_renormalized(basis: OccupationBasis, spec: HamiltonianSpec) -> Operator:
    """Cutoff-independent Hamiltonian assembled through the boundary
    representation of the nilpotent part and the dressing transformation
    of the normal part.

    The sparse core xi(V_N, V_N, lambda) - lambda + phi(V_le) holds no
    lambda 1 term (``ibc.xi``) for the truncated W of the dressing (V_D != 0)
    to conjugate; the result is independent of spec.lam up to truncation.
    """
    require_structure(spec.coupling)
    core = xi(basis, spec.coupling.v_n, spec.coupling.v_n, spec.lam)
    core = core + field(basis, spec.coupling.v_le)
    if not spec.coupling.v_d.is_zero():
        dress = FormFactor(basis.grid, spec.coupling.v_d.values / basis.grid.omegas[:, None, None])
        W = weyl(basis, dress)
        core = sp.csr_matrix(W @ (core @ W.conj().T))
    mat = spin_operator(basis, spec.S) + core
    del core  # one H_lim-sized matrix fewer while the Operator is built
    return Operator(basis, mat)


def check_schedule(schedule) -> list:
    """The cutoffs of ``schedule`` as floats; ``StructuralError`` unless
    they are nonempty and strictly increasing."""
    schedule = [float(L) for L in schedule]
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise StructuralError("schedule must be a nonempty, strictly increasing list of cutoffs")
    return schedule


# ------------------------------------------------------------- linear algebra


def _certified_above(sub: sp.csr_matrix, mu: float, path) -> bool:
    """True when inertia proves lambda_min(sub) > mu (see ``ground_energy``):
    LAPACK ``potrf`` factors sub - mu on the dense ``path``, or its Schur
    complement on a Schur one, with the diagonal lowered by
    tau = (n+1)^2 eps ||.||_inf, a margin above the Cholesky backward
    error (Higham 2002, section 10.1).  ``False`` proves nothing."""
    if path in ("gmres", "lu"):
        return False
    A = (sub - mu * sp.identity(sub.shape[0], format="csr")).tocsr()
    a = A.toarray(order="F") if path == "dense" else _solvers.schur_complement(A, *path)[3]
    lange, potrf = sla.get_lapack_funcs(("lange", "potrf"), (a,))
    n = a.shape[0]
    a.flat[:: n + 1] -= (n + 1) ** 2 * np.finfo(float).eps * lange("I", a)
    return potrf(a, lower=True, overwrite_a=True, clean=False)[1] == 0


def ground_energy(H: Operator, seed: int = 0) -> float:
    """Smallest eigenvalue, as a Python float.

    H is split on ``H.labels``, the components of its nonzero pattern.  The
    search starts from the smallest singleton diagonal entry and visits
    the other components in ascending order of their Gershgorin lower
    bound, stopping at the first bound at or above the running minimum mu.

    A visited component H_c whose diagonal lies above mu is first
    certified by inertia (Sylvester's law) to lie above mu, and skipped:
    on its ``_solvers.component_path`` "dense" by a Cholesky factorization
    of H_c - mu; on a Schur path by Haynsworth's additivity
    In(H_c - mu) = In(D_EE - mu) + In(S(mu)), where the eliminated
    diagonal D_EE - mu is positive and the dense Schur complement S(mu)
    passes Cholesky.  Each Cholesky runs on a diagonal lowered by
    tau = (n+1)^2 eps ||.||_inf, a margin above its backward error.  Every
    other visited component (a diagonal entry at or below mu, a failed
    factorization, a GMRES or LU path) is solved densely on the dense
    path and by Lanczos (``eigsh``, started from a vector drawn from
    ``seed``) on the others.
    """
    mat = H.matrix
    components, singletons = group_components(H.labels)
    diag = mat.diagonal().real
    abs_rows = np.asarray(abs(mat).sum(axis=1)).ravel()
    gersh = diag - (abs_rows - np.abs(diag))
    bounds = [float(np.min(gersh[idx])) for idx in components]
    totals = H.basis.lift(H.basis.totals)
    best = float(np.min(diag[singletons])) if len(singletons) else np.inf
    rng = np.random.default_rng(seed)
    for c in np.argsort(bounds, kind="stable"):
        if bounds[c] >= best:
            break
        idx = components[c]
        sub = mat[idx][:, idx].tocsr()
        path = _solvers.component_path(sub, totals[idx])
        if np.min(diag[idx]) > best and _certified_above(sub, best, path):
            continue
        if path == "dense":
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


def _random_invertible(rng, dim):
    """Random dim x dim matrix of condition number 1e3."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    spread = np.sqrt(1e3)
    svals = np.exp(np.linspace(np.log(1.0 / spread), np.log(spread), dim))
    return (q1 * svals) @ q2.conj().T


def verify_transformed_operator_identities(seed: int = 0) -> CheckSuite:
    """Checks of the two transformation identities in dimension
    ``TRANSFORM_CHECK_DIM``:

    adjoint transport        (A C A^*)^* = A C^* A^*
    resolvent difference     (A T A^* + i)^{-1} - (B T B^* + i)^{-1}
        = (ATA*+i)^{-1} (B-A) T B^* (BTB*+i)^{-1}
          + (T A^* (A T A^* - i)^{-1})^* (B^*-A^*) (BTB*+i)^{-1}

    for random invertible A, B (condition below 1e3) and self-adjoint T.
    The first resolvent factor of the second summand carries the shift
    -i, the unique choice making the identity exact.
    """
    dim = TRANSFORM_CHECK_DIM
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
class StudyReport:
    """Outcome of a cutoff study: one row per cutoff of ``schedule`` and
    the named pass ``checks`` of the study; it passes iff every check
    holds."""

    schedule: list
    rows: list
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class ConvergenceRow:
    Lambda: float
    E_trace: float
    resolvent_distance: float
    ground_energy_reg: float
    ground_energy_renorm: float


def _neumann_terms(H, z: complex):
    """p = 1/|h - z| and the row sums P|O|1 and |O|P1 of P O and O P, for an
    exactly Hermitian canonical CSR H = diag h + O and P = diag p."""
    h = H.diagonal()
    p = 1.0 / np.abs(h - z)
    a = np.abs(h)  # taken off |H| to leave |O|
    abs_H = abs(H)
    return p, p * (abs_H @ np.ones(H.shape[0]) - a), abs_H @ p - a * p


def _block_bounds(H_lim, lim_terms, H_L, z: complex, components):
    """Upper bounds u_c >= ||D_c||_2 on the diagonal blocks of
    D = (H_L - z)^{-1} - (H_lim - z)^{-1} = R_L (H_lim - H_L) R_lim over
    ``components``, index arrays of blocks that both operators leave
    invariant.  Both are exactly Hermitian canonical CSR matrices, as an
    ``Operator`` stores them.  ``lim_terms`` are the
    ``_neumann_terms(H_lim, z)``, formed once per study; those of H_L are
    formed here.  Each 2-norm is bounded by sqrt(||X||_1 ||X||_inf) of the
    entrywise |X|, and u_c = min(B1, B2):

    * B1 = ||dH_c|| / |Im z|^2, dH = H_lim - H_L, since
      ||(H - z)^{-1}|| <= 1 / |Im z| for self-adjoint H;
    * B2 = ||P_L |dH_c| P_lim|| / ((1 - x_L)(1 - x_lim)), the Neumann
      series bound, with P = diag 1/|h_ii - z|, O the off-diagonal part,
      x_L >= ||P_L O_L|| and x_lim >= ||O_lim P_lim||; infinite unless
      both x < 1.

    The sums of |dH| are formed in the ``_solvers.row_blocks`` of H_lim,
    so no |dH| is formed in full.  As dH and O are exactly Hermitian with
    sorted rows, each column sum |X|^T x equals the row sum |X| x bit for
    bit, and only row sums are taken.
    """
    sizes = np.array([len(idx) for idx in components])
    order = np.concatenate(components)
    starts = np.cumsum(sizes) - sizes

    def norm_bound(row_sums, col_sums):
        rows = np.maximum.reduceat(row_sums[order], starts)
        return np.sqrt(rows * np.maximum.reduceat(col_sums[order], starts))

    p_lim, *lim_sums = lim_terms
    p_L, *L_sums = _neumann_terms(H_L, z)
    ones = np.ones(H_lim.shape[0])
    dH_ones, dH_p_lim, dH_p_L = np.empty((3, H_lim.shape[0]))
    for a, b in _solvers.row_blocks(H_lim.indptr):
        abs_dH = _solvers.rows_of(H_lim, a, b) - _solvers.rows_of(H_L, a, b)
        abs_dH.data = np.abs(abs_dH.data)
        dH_ones[a:b] = abs_dH @ ones
        dH_p_lim[a:b] = abs_dH @ p_lim
        dH_p_L[a:b] = abs_dH @ p_L
    b1 = norm_bound(dH_ones, dH_ones) / z.imag**2
    x_L = norm_bound(*L_sums)
    x_lim = norm_bound(*lim_sums)
    num = norm_bound(p_L * dH_p_lim, p_lim * dH_p_L)
    gap_L, gap_lim = 1 - x_L, 1 - x_lim
    b2 = np.full(len(components), np.inf)
    np.divide(num, gap_L * gap_lim, out=b2, where=(gap_L > 0) & (gap_lim > 0))
    return np.minimum(b1, b2)


def convergence_study(spec: HamiltonianSpec, schedule, seed: int = 0) -> StudyReport:
    """Resolvent-distance study of regularized-plus-counterterm operators
    against the renormalized limit operator on a fixed grid.

    The schedule must pass ``check_schedule`` before anything is built.
    For each cutoff in it, the coupling is truncated, the
    counterterm added, and D_Lambda = || (H_Lambda - z)^{-1} - (H_lim - z)^{-1} ||
    recorded at z = ``STUDY_Z``.  Verdict: PASS iff each distance is at
    most (1 + ``NONINCREASING_JITTER``) times the one before plus
    ``OPNORM_ABS_TOL``, and the last distance is below
    ``DECAY_FRACTION`` times the first (or the first is 0).

    D = (H_Lambda - z)^{-1} - (H_lim - z)^{-1} = R_Lambda (H_lim - H_Lambda) R_lim
    is block-diagonal over the connected components of
    |H_lim| + |H_Lambda|, so D_Lambda is the largest of the block norms.
    The blocks are merged from ``labels`` of H_lim and H_Lambda, so no sum
    is formed.  On a singleton the block is the scalar
    1/(h_Lambda,ii - z) - 1/(h_lim,ii - z); s is the largest of these,
    computed exactly (0 without singletons).  Every other block c is
    bounded by u_c = min(B1, B2) without a solve (see ``_block_bounds``):
    B1 from ||(H - z)^{-1}|| <= 1/|Im z| for self-adjoint H, and B2 from
    the Neumann series about the diagonals; the ``_neumann_terms`` of
    H_lim are computed once per study, those of H_Lambda once per cutoff.  A
    block with u_c <= s cannot attain the maximum and is pruned.  On the
    union U of the remaining blocks the largest singular value of D_U is
    the square root of the largest eigenvalue of D_U^* D_U, computed by
    Lanczos (ARPACK ``eigsh``) with both resolvents built on U only, and
    started from ``probe[U]`` for a vector ``probe`` drawn once from
    ``seed``.  D_Lambda = max(s, sigma_max(D_U)); when every block is
    pruned, D_Lambda = s and nothing is solved.

    s is exact up to rounding and a pruned block cannot change the
    maximum, so only sigma_max(D_U) carries an iteration error:
    ``OPNORM_TOL`` is the relative accuracy requested of its square,
    so it is accurate to about ``OPNORM_TOL / 2`` relative;
    ``_solvers.NORM_MAX_RESTARTS`` caps ARPACK's implicit restarts, beyond
    which ``NumericError`` is raised; an exactly zero D gives D_Lambda = 0.0.
    """
    schedule = check_schedule(schedule)
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    H_lim = h_renormalized(basis, spec)
    totals = basis.lift(basis.totals)
    lim = H_lim.matrix
    r_lim = 1.0 / (lim.diagonal() - STUDY_Z)  # singleton blocks of (H_lim - z)^{-1}
    g_lim = ground_energy(H_lim, seed=seed)
    lim_terms = _neumann_terms(lim, STUDY_Z)
    rows = []
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    U_lim, R_lim = None, None
    for Lam in schedule:
        H_L, E_L = h_cutoff(basis, spec, Lam)
        cut = H_L.matrix
        components, singletons = group_components(merge_labels(H_lim.labels, H_L.labels))
        steps = 1.0 / (cut.diagonal()[singletons] - STUDY_Z) - r_lim[singletons]
        dist = float(np.max(np.abs(steps), initial=0.0))
        bounds = []
        if components:
            bounds = _block_bounds(lim, lim_terms, cut, STUDY_Z, components)
        kept = [idx for idx, u in zip(components, bounds) if u > dist]
        if kept:
            U = np.sort(np.concatenate(kept))
            if not np.array_equal(U, U_lim):
                R_lim = StructuredResolvent(lim[U][:, U], STUDY_Z, totals[U], H_lim.labels[U])
                U_lim = U
            R_L = StructuredResolvent(cut[U][:, U], STUDY_Z, totals[U], H_L.labels[U])
            D = spla.LinearOperator(
                (len(U), len(U)),
                matvec=lambda x: R_L.solve(x) - R_lim.solve(x),
                rmatvec=lambda x: R_L.adjoint_solve(x) - R_lim.adjoint_solve(x),
                dtype=complex,
            )
            dist = max(dist, _top_singular(D, probe[U], OPNORM_TOL))
            del R_L, D  # not alive while the next cutoff is factored
        g_reg = ground_energy(H_L, seed=seed)
        rows.append(
            ConvergenceRow(
                Lambda=Lam,
                E_trace=float(np.trace(E_L).real),
                resolvent_distance=dist,
                ground_energy_reg=g_reg,
                ground_energy_renorm=g_lim,
            )
        )
    dists = [r.resolvent_distance for r in rows]
    checks = {
        "nonincreasing_ok": all(
            b <= a * (1.0 + NONINCREASING_JITTER) + OPNORM_ABS_TOL for a, b in zip(dists, dists[1:])
        ),
        "decay_ok": dists[-1] < DECAY_FRACTION * dists[0] if dists[0] > 0 else True,
    }
    return StudyReport(schedule, rows, checks)


# ------------------------------------------------------------- van Hove demo


@dataclass
class VanHoveRow:
    Lambda: float
    conjugation_deviation: float
    parity_expectation: float
    parity_oracle: float
    ground_energy: float
    ground_oracle: float


def vanhove_demo(
    grid: ModeGrid, profile, schedule, *, n_max: int, restrict_m: int
) -> StudyReport:
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
    schedule = check_schedule(schedule)
    if restrict_m < 0:
        raise ParameterError("sector bound m must be >= 0")
    basis = build_basis(grid, SpinSpace(1), n_max)
    sel = basis.sector(restrict_m)
    units = basis.unit_columns(sel)
    totals = basis.lift(basis.totals)
    v_ff = FormFactor(grid, profile)
    r_free = 1.0 / (basis.lift(basis.energies)[sel] - STUDY_Z)
    par = parity(basis)

    rows = []
    for Lam in schedule:
        v_n = uv_truncate(v_ff, Lam)
        dress = FormFactor(grid, v_n.values[:, 0, 0] / grid.omegas)
        shift = bs_norm(v_n, 1.0) ** 2
        H_free = h_reg(basis, np.zeros((1, 1)), v_n)
        apply_W, _ = weyl_action(basis, dress)
        solver = StructuredResolvent(H_free.matrix, STUDY_Z - shift, totals, H_free.labels)
        # Y = W[:, sel], so (W^* R W)[sel, sel] = Y^H R Y; W acts column by
        # column (a block expm_multiply is no faster at these sizes)
        Y = np.column_stack([apply_W(e) for e in units.T])
        block = Y.conj().T @ solver.solve(Y) - np.diag(r_free)
        deviation = float(np.linalg.norm(block, ord=2))

        # W Omega: the vacuum is the first state of the block; the copy is
        # contiguous, so np.vdot sums in the order of a plain vector
        psi = Y[:, 0].copy()
        parity_exp = float(np.vdot(psi, par @ psi).real)
        parity_oracle = float(np.exp(-2.0 * bs_norm(dress, 0.0) ** 2))
        g = ground_energy(H_free)
        g_oracle = -shift
        rows.append(
            VanHoveRow(
                Lambda=Lam,
                conjugation_deviation=deviation,
                parity_expectation=parity_exp,
                parity_oracle=parity_oracle,
                ground_energy=g,
                ground_oracle=g_oracle,
            )
        )
    devs = [r.conjugation_deviation for r in rows]
    pars = [r.parity_expectation for r in rows]
    grounds = [r.ground_energy for r in rows]
    checks = {
        "conjugation_ok": all(d <= CONJUGATION_TOL for d in devs),
        "parity_ok": (
            all(b < a for a, b in zip(pars, pars[1:]))
            and pars[-1] < PARITY_FINAL_FRACTION * pars[0]
        ),
        "energy_ok": (
            all(b < a for a, b in zip(grounds, grounds[1:]))
            and (grounds[0] - grounds[-1]) > ENERGY_DROP
        ),
    }
    return StudyReport(schedule, rows, checks)
