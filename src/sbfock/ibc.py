"""Interior-boundary-condition operators on the truncated basis.

``t_op`` (= ``theta0`` + ``theta1``) is the normal-ordered, number-
conserving remainder of a(F)(dGamma(omega)+lambda)^{-1}a*(F) after the
divergent counterterm <F,F>_{b_1} has been split off; ``g_op`` is the
bounded boundary factor a(F)(dGamma(omega)+lambda)^{-1}.  Together they
give the sandwiched representation

    xi(F, V, lambda) = (1+G)(dGamma(omega) + lambda - T_V)(1+G*)

whose nilpotent specialization reproduces the regularized Hamiltonian up
to the counterterm; the verification suite checks that identity and the
quantitative operator bounds numerically.

Sign convention for ``theta0``: the summand is
mu_i F_i^* [ (dGamma+omega_i+lambda)^{-1} - omega_i^{-1} ] F_i, the unique
choice under which the normal-ordering identity for ``t_op`` is exact.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, StructuralError, NumericError
from .fock import (
    OccupationBasis,
    Operator,
    annihilate,
    block_diag_operator,
    create,
    dgamma,
    function_of_dgamma,
    spin_operator,
)
from .model import FormFactor, bs_norm, ir_split
from .reports import CheckResult, CheckSuite

#: Absolute tolerance for identity checks on truncation-safe blocks.
IDENTITY_TOL = 1e-10

#: Relative slack allowed when checking operator inequalities.
INEQUALITY_SLACK = 1e-9


def _require_positive(lam: float):
    if not lam > 0:
        raise ParameterError("lambda must be positive")


def theta0(basis: OccupationBasis, F: FormFactor, lam: float) -> Operator:
    """Number-diagonal part: sum_i mu_i F_i^* [(dGamma+omega_i+lambda)^{-1} - omega_i^{-1}] F_i."""
    _require_positive(lam)
    omegas = basis.grid.omegas
    kernel = 1.0 / (basis.energies[:, None] + omegas[None, :] + lam) - 1.0 / omegas[None, :]
    fstar_f = np.einsum("iab,ibc->iac", F.values.conj().transpose(0, 2, 1), F.values)
    blocks = np.einsum("si,i,iab->sab", kernel, basis.grid.mus, fstar_f)
    return block_diag_operator(basis, blocks)


def theta1(basis: OccupationBasis, F: FormFactor, lam: float) -> Operator:
    """One-annihilation/one-creation normal-ordered block

        sum_{q,r} sqrt(mu_q mu_r) a*_q F_r^* (dGamma+omega_r+omega_q+lambda)^{-1} F_q a_r

    with the resolvent evaluated at the intermediate occupation.  Assembled
    per annihilated mode r via the pull-through identity
    a*_q (dGamma+omega_r+omega_q+lambda)^{-1} = (dGamma+omega_r+lambda)^{-1} a*_q,
    which turns each term into diag * a*(F) * a_r.  Preserves total boson
    number.
    """
    _require_positive(lam)
    if F.is_zero():
        return Operator(basis, sp.csr_matrix((basis.dim, basis.dim), dtype=complex))
    ad_full = create(basis, F).tocsr()
    omegas = basis.grid.omegas
    mus = basis.grid.mus
    eye_spin = sp.identity(basis.spin.dim, format="csr", dtype=complex)
    rows_acc, cols_acc, data_acc = [], [], []
    for r in range(basis.grid.n_modes):
        fr_star = sp.csr_matrix(F.values[r].conj().T)
        if fr_star.nnz == 0:
            continue
        a_r = basis.mode_lowering(r)
        if a_r.nnz == 0:
            continue
        right = ad_full @ spin_operator(basis, eye_spin, a_r)
        if right.nnz == 0:
            continue
        diag_vals = np.sqrt(mus[r]) / (basis.energies + omegas[r] + lam)
        left = spin_operator(basis, fr_star, sp.diags(diag_vals))
        term = (left @ right).tocoo()
        rows_acc.append(term.row)
        cols_acc.append(term.col)
        data_acc.append(term.data)
    if not rows_acc:
        return Operator(basis, sp.csr_matrix((basis.dim, basis.dim), dtype=complex))
    mat = sp.csr_matrix(
        (np.concatenate(data_acc), (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(basis.dim, basis.dim),
    )
    mat.sum_duplicates()
    return Operator(basis, mat)


def t_op(basis: OccupationBasis, F: FormFactor, lam: float) -> Operator:
    """T_{F,lambda} = theta0 + theta1; self-adjoint below the truncation edge."""
    return theta0(basis, F, lam) + theta1(basis, F, lam)


def g_op(basis: OccupationBasis, F: FormFactor, lam: float) -> Operator:
    """Bounded boundary factor a(F) (dGamma(omega) + lambda)^{-1}."""
    _require_positive(lam)
    resolvent = function_of_dgamma(basis, lambda E: 1.0 / (E + lam))
    return Operator(basis, (annihilate(basis, F).tocsr() @ resolvent.tocsr()).tocsr())


def _nilpotency_violation(F: FormFactor) -> float:
    prods = np.einsum("iab,jbc->ijac", F.values, F.values)
    return float(np.max(np.abs(prods))) if prods.size else 0.0


def nilpotent_inverse(
    basis: OccupationBasis, F: FormFactor, lam: float, tol: float = 1e-12
) -> tuple[Operator, Operator]:
    """Exact inverses (1 - G, 1 - G*) of (1 + G_{F,lambda}) and its adjoint,
    valid because G^2 = 0 for 2-nilpotent F.  Raises if F is not
    2-nilpotent or if the inverse check exceeds 1e-13."""
    violation = _nilpotency_violation(F)
    if violation > tol:
        raise StructuralError(
            f"form factor is not 2-nilpotent (max pairwise product {violation:.3e})"
        )
    G = g_op(basis, F, lam).tocsr()
    G2 = (G @ G).tocsr()
    G2.eliminate_zeros()
    if G2.nnz:
        raise StructuralError("G^2 has nonzero entries; nilpotency broken at matrix level")
    eye = sp.identity(basis.dim, format="csr", dtype=complex)
    left = Operator(basis, (eye - G).tocsr())
    check = ((eye + G) @ left.matrix).tocsr() - eye
    resid = np.max(np.abs(check.data)) if check.nnz else 0.0
    if resid > 1e-13:
        raise NumericError(f"(1+G)(1-G) deviates from identity by {resid:.3e}")
    return left, Operator(basis, (eye - G.conj().T).tocsr())


def xi(basis: OccupationBasis, F: FormFactor, V: FormFactor, lam: float) -> Operator:
    """Sandwiched generator (1 + G_F)(dGamma(omega) + lambda - T_V)(1 + G_F*)."""
    _require_positive(lam)
    G = g_op(basis, F, lam).tocsr()
    eye = sp.identity(basis.dim, format="csr", dtype=complex)
    core = (
        dgamma(basis, basis.grid.omegas).tocsr()
        + lam * eye
        - t_op(basis, V, lam).tocsr()
    )
    mat = ((eye + G) @ core @ (eye + G.conj().T)).tocsr()
    return Operator(basis, mat)


# ------------------------------------------------------------------ bounds


def _random_vectors(dim, count, rng):
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs <= 1e-300 else np.inf
    return lhs / rhs


def verify_ibc_bounds(
    basis: OccupationBasis,
    F: FormFactor,
    V: FormFactor,
    lam: float,
    s: float,
    n_samples: int = 100,
    seed: int = 0,
) -> CheckSuite:
    """Numerically check the quantitative bounds on Theta, G and xi.

    Each inequality is evaluated on ``n_samples`` random vectors; the
    reported violation is max(LHS/RHS) - 1 clipped at zero, and a check
    passes iff the max ratio stays below 1 + 1e-9.  Checks whose
    hypotheses fail (non-nilpotent or infrared-supported F for the
    domain-invariance bounds) are reported as SKIPPED.
    """
    _require_positive(lam)
    if not 1.0 <= s <= 2.0:
        raise ParameterError("s must lie in [1, 2]")
    rng = np.random.default_rng(seed)
    suite = CheckSuite("ibc_bounds")
    dim = basis.dim
    energies = basis.lift(basis.energies)
    psis = _random_vectors(dim, n_samples, rng)

    norm_F = bs_norm(F, s)
    norm_V = bs_norm(V, s)
    norm_diff = bs_norm(FormFactor(basis.grid, F.values - V.values), s)
    weight = (energies + lam) ** (s - 1.0)

    for ell, builder in ((0, theta0), (1, theta1)):
        th_F = builder(basis, F, lam).tocsr()
        th_V = builder(basis, V, lam).tocsr()
        # difference bound, then the single-factor specialization
        worst = 0.0
        for psi in psis:
            lhs = np.linalg.norm((th_F - th_V) @ psi)
            rhs = (norm_F + norm_V) * norm_diff * np.linalg.norm(weight * psi)
            worst = max(worst, _ratio(lhs, rhs))
        suite.add(
            CheckResult(
                f"theta{ell}_difference_bound",
                worst <= 1 + INEQUALITY_SLACK,
                max(worst - 1.0, 0.0),
                INEQUALITY_SLACK,
            )
        )
        worst = 0.0
        for psi in psis:
            lhs = np.linalg.norm(th_F @ psi)
            rhs = norm_F**2 * np.linalg.norm(weight * psi)
            worst = max(worst, _ratio(lhs, rhs))
        suite.add(
            CheckResult(
                f"theta{ell}_single_bound",
                worst <= 1 + INEQUALITY_SLACK,
                max(worst - 1.0, 0.0),
                INEQUALITY_SLACK,
            )
        )

    from .renorm import opnorm  # local import to avoid a cycle

    G = g_op(basis, F, lam)
    g_norm = opnorm(G)
    g_bound = norm_F * lam ** ((s - 2.0) / 2.0)
    suite.add(
        CheckResult(
            "g_norm_bound",
            _ratio(g_norm, g_bound) <= 1 + INEQUALITY_SLACK,
            max(_ratio(g_norm, g_bound) - 1.0, 0.0),
            INEQUALITY_SLACK,
            details={"opnorm": g_norm, "bound": g_bound},
        )
    )

    Gstar = G.tocsr().conj().T
    for r in (0.0, 1.0 - s / 2.0):
        worst = 0.0
        wr = (energies + lam) ** r
        for psi in psis:
            lhs = np.linalg.norm(wr * (Gstar @ psi))
            rhs = norm_F * lam ** (s / 2.0 - 1.0) * np.linalg.norm(wr * psi)
            worst = max(worst, _ratio(lhs, rhs))
        suite.add(
            CheckResult(
                f"g_star_weighted_bound_r={r:g}",
                worst <= 1 + INEQUALITY_SLACK,
                max(worst - 1.0, 0.0),
                INEQUALITY_SLACK,
            )
        )

    # Domain-invariance bounds require F = F_> and 2-nilpotent F.
    low, _ = ir_split(F, basis.grid.kappa)
    hypotheses_hold = _nilpotency_violation(F) <= 1e-12 and (
        low.is_zero() or F.is_zero()
    )
    if not hypotheses_hold:
        suite.add(
            CheckResult("ir_sector_invariance", True, 0.0, INEQUALITY_SLACK, skipped=True)
        )
        suite.add(
            CheckResult("fractional_domain_bound", True, 0.0, INEQUALITY_SLACK, skipped=True)
        )
        return suite

    xi_op = xi(basis, F, V, lam).tocsr()
    T_V = t_op(basis, V, lam).tocsr()
    res = 1.0 / (energies + lam)
    t_rel_norm = opnorm(Operator(basis, (T_V.multiply(res[None, :])).tocsr()))
    omega_low = np.where(basis.grid.omegas <= basis.grid.kappa, basis.grid.omegas, 0.0)
    dg_low = basis.lift(basis.occupations.astype(float) @ omega_low)
    proj = basis.lift((basis.totals <= max(basis.n_max - 2, 0)).astype(float))

    worst_inv = 0.0
    worst_frac = 0.0
    for psi in psis:
        psi_r = proj * psi
        nrm = np.linalg.norm(psi_r)
        if nrm < 1e-12:
            continue
        psi_r = psi_r / nrm
        xi_psi = xi_op @ psi_r
        rhs_common = (1.0 + g_norm) ** 2 * (1.0 + t_rel_norm) * np.linalg.norm(xi_psi)
        worst_inv = max(worst_inv, _ratio(np.linalg.norm(dg_low * psi_r), rhs_common))
        lhs_frac = np.linalg.norm(energies ** (1.0 - s / 2.0) * psi_r)
        rhs_frac = (
            (1.0 + norm_F * lam ** (s / 2.0 - 1.0)) ** 2
            * (1.0 + t_rel_norm)
            * np.linalg.norm(xi_psi)
        )
        worst_frac = max(worst_frac, _ratio(lhs_frac, rhs_frac))
    suite.add(
        CheckResult(
            "ir_sector_invariance",
            worst_inv <= 1 + INEQUALITY_SLACK,
            max(worst_inv - 1.0, 0.0),
            INEQUALITY_SLACK,
        )
    )
    suite.add(
        CheckResult(
            "fractional_domain_bound",
            worst_frac <= 1 + INEQUALITY_SLACK,
            max(worst_frac - 1.0, 0.0),
            INEQUALITY_SLACK,
        )
    )
    return suite


def restricted_block(op: Operator, m: int) -> np.ndarray:
    """Dense submatrix of the operator on the total-boson-number <= m sector."""
    idx = op.basis.sector(m)
    mat = op.matrix
    if sp.issparse(mat):
        return mat.tocsr()[np.ix_(idx, idx)].toarray()
    return np.asarray(mat)[np.ix_(idx, idx)]


def restricted_deviation(A: Operator, B: Operator, m: int) -> float:
    """Max-entry deviation of two operators on the total-number <= m block."""
    return float(np.max(np.abs(restricted_block(A, m) - restricted_block(B, m))))
