"""Interior-boundary-condition operators on the truncated basis.

``t_op`` (= ``theta0`` + ``theta1``) is the normal-ordered, number-
conserving remainder of a(F)(dGamma(omega)+lambda)^{-1}a*(F) after the
divergent counterterm <F,F>_{b_1} has been split off; ``g_op`` is the
bounded boundary factor a(F)(dGamma(omega)+lambda)^{-1}.  Together they
give the sandwiched representation

    xi(F, V, lambda) = (1+G)(dGamma(omega) + lambda - T_V)(1+G*)

which ``xi`` alone forms (as xi - lambda); its nilpotent specialization
reproduces the regularized Hamiltonian up to the counterterm.
``verify_ibc_bounds`` samples the quantitative operator bounds, the
domain bounds on the safe prefix of the basis.

Sign convention for ``theta0``: the summand is
mu_i F_i^* [ (dGamma+omega_i+lambda)^{-1} - omega_i^{-1} ] F_i, the unique
choice under which the normal-ordering identity for ``t_op`` is exact.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._solvers import opnorm, row_blocks
from .errors import ParameterError, StructuralError, NumericError
from .fock import (
    OccupationBasis,
    _entries,
    annihilate,
    block_diag_operator,
    create,
    dgamma,
    function_of_dgamma,
    spin_operator,
)
from .model import STRUCTURE_TOL, FormFactor, bs_norm, ir_split, nilpotency_violation
from .reports import BOUND_SAMPLES, INEQUALITY_SLACK, CheckResult, CheckSuite, bound_check

#: Absolute tolerance for identity checks on truncation-safe blocks.
IDENTITY_TOL = 1e-10


def _require_positive(lam: float):
    if not lam > 0:
        raise ParameterError("lambda must be positive")


def theta0(basis: OccupationBasis, F: FormFactor, lam: float) -> sp.csr_matrix:
    """Number-diagonal part: sum_i mu_i F_i^* [(dGamma+omega_i+lambda)^{-1} - omega_i^{-1}] F_i."""
    _require_positive(lam)
    omegas = basis.grid.omegas
    kernel = 1.0 / (basis.energies[:, None] + omegas[None, :] + lam) - 1.0 / omegas[None, :]
    fstar_f = np.einsum("iab,ibc->iac", F.values.conj().transpose(0, 2, 1), F.values)
    blocks = np.einsum("si,i,iab->sab", kernel, basis.grid.mus, fstar_f)
    return block_diag_operator(basis, blocks)


def theta1(basis: OccupationBasis, F: FormFactor, lam: float) -> sp.csr_matrix:
    """One-annihilation/one-creation normal-ordered block

        sum_{q,r} sqrt(mu_q mu_r) a*_q F_r^* (dGamma+omega_r+omega_q+lambda)^{-1} F_q a_r

    with the resolvent evaluated at the intermediate occupation.  Assembled
    per annihilated mode r via the pull-through identity
    a*_q (dGamma+omega_r+omega_q+lambda)^{-1} = (dGamma+omega_r+lambda)^{-1} a*_q,
    which turns each term into diag * a*(F) * a_r.  Preserves total boson
    number.

    Each mode's term is formed once; the terms are then summed in row
    blocks, each holding about as many of their entries as the largest
    term (at most that plus one row), so no staging array outgrows about
    one term.  Within a row the entries meet in the same order as in one
    sum over all rows (term by term), so the result is the same bit for
    bit.
    """
    _require_positive(lam)
    ad_full = create(basis, F)
    omegas = basis.grid.omegas
    mus = basis.grid.mus
    eye_spin = np.eye(basis.spin.dim)
    terms = []
    for r in range(basis.grid.n_modes):
        fr_star = F.values[r].conj().T
        if not np.any(fr_star):
            continue
        a_r = basis.mode_lowering(r)
        if a_r.nnz == 0:
            continue
        right = ad_full @ spin_operator(basis, eye_spin, a_r)
        if right.nnz == 0:
            continue
        diag_vals = np.sqrt(mus[r]) / (basis.energies + omegas[r] + lam)
        left = spin_operator(basis, fr_star, sp.diags(diag_vals))
        terms.append(left @ right)
    del ad_full
    if not terms:
        return sp.csr_matrix((basis.dim, basis.dim))
    if not any(np.iscomplexobj(_entries(t.data)) for t in terms):
        for t in terms:  # float64 when every entry is real
            t.data = _entries(t.data)
    staged = sum(t.indptr.astype(np.int64) for t in terms)  # row pointer of all the entries
    blocks = []
    for a, b in row_blocks(staged, max(t.nnz for t in terms)):
        data, rows, cols = [], [], []
        for t in terms:  # rows a:b of each term, as COO triplets in term order
            lo, hi = t.indptr[a], t.indptr[b]
            data.append(t.data[lo:hi])
            rows.append(np.repeat(np.arange(b - a), np.diff(t.indptr[a : b + 1])))
            cols.append(t.indices[lo:hi])
        block = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(b - a, basis.dim),
        )
        block.sum_duplicates()
        blocks.append(block)
    del terms, t, data, cols  # the last block's slices would keep every term alive
    return sp.vstack(blocks, format="csr")


def t_op(basis: OccupationBasis, F: FormFactor, lam: float) -> sp.csr_matrix:
    """T_{F,lambda} = theta0 + theta1; self-adjoint below the truncation edge."""
    return theta0(basis, F, lam) + theta1(basis, F, lam)


def g_op(basis: OccupationBasis, F: FormFactor, lam: float) -> sp.csr_matrix:
    """Bounded boundary factor a(F) (dGamma(omega) + lambda)^{-1}."""
    _require_positive(lam)
    resolvent = function_of_dgamma(basis, lambda E: 1.0 / (E + lam))
    return annihilate(basis, F) @ resolvent


def nilpotent_inverse(
    basis: OccupationBasis, F: FormFactor, lam: float
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Exact inverses (1 - G, 1 - G*) of (1 + G_{F,lambda}) and its adjoint,
    valid because G^2 = 0 for 2-nilpotent F.  Raises if F is not
    2-nilpotent (beyond ``model.STRUCTURE_TOL``) or if the inverse check
    exceeds 1e-13."""
    violation = nilpotency_violation(F.values)
    if violation > STRUCTURE_TOL:
        raise StructuralError(
            f"form factor is not 2-nilpotent (max pairwise product {violation:.3e})"
        )
    G = g_op(basis, F, lam)
    G2 = G @ G
    G2.eliminate_zeros()
    if G2.nnz:
        raise StructuralError("G^2 has nonzero entries; nilpotency broken at matrix level")
    eye = sp.identity(basis.dim, format="csr")
    left = eye - G
    check = (eye + G) @ left - eye
    resid = np.max(np.abs(check.data)) if check.nnz else 0.0
    if resid > 1e-13:
        raise NumericError(f"(1+G)(1-G) deviates from identity by {resid:.3e}")
    return left, eye - G.conj().T


def xi(basis: OccupationBasis, F: FormFactor, V: FormFactor, lam: float) -> sp.csr_matrix:
    """xi(F, V, lambda) - lambda, for xi = (1 + G)(dGamma(omega) + lambda - T)(1 + G*)
    with G = G_{F,lambda}, T = T_{V,lambda}.  As G (dGamma + lambda) = a for a = a(F),
    it is dGamma(omega) + a* + (a - (1 + G) T)(1 + G*): no lambda 1 term.  At most
    two products are alive at once; T is freed once the first is formed."""
    _require_positive(lam)
    a = annihilate(basis, F)
    G = a @ function_of_dgamma(basis, lambda E: 1.0 / (E + lam))
    T = t_op(basis, V, lam)
    eye = sp.identity(basis.dim, format="csr")
    left = (eye + G) @ T
    del T
    left = a - left
    left = left @ (eye + G.conj().T)
    return left + (dgamma(basis, basis.grid.omegas) + a.conj().T)


# ------------------------------------------------------------------ bounds


def verify_ibc_bounds(
    basis: OccupationBasis,
    F: FormFactor,
    V: FormFactor,
    lam: float,
    s: float,
    seed: int = 0,
) -> CheckSuite:
    """Numerically check the quantitative bounds on Theta, G and xi.

    Each inequality is evaluated on the same ``reports.BOUND_SAMPLES``
    random unit vectors of ``basis`` and judged by ``reports.bound_check``.
    The two domain-invariance bounds read the samples projected onto the
    truncation-safe block, so ``t_op`` and ``xi`` build them on the basis's
    ``safe_prefix``; the Theta, G and G* bounds use the whole basis.  Checks
    whose hypotheses fail (non-nilpotent or infrared-supported F for the
    domain bounds) are reported as SKIPPED.
    """
    _require_positive(lam)
    if not 1.0 <= s <= 2.0:
        raise ParameterError("s must lie in [1, 2]")
    rng = np.random.default_rng(seed)
    suite = CheckSuite("ibc_bounds")
    energies = basis.lift(basis.energies)
    # one sample per column
    shape = (BOUND_SAMPLES, basis.dim)
    psis = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T
    psis /= np.linalg.norm(psis, axis=0)

    def norms(X):
        return np.linalg.norm(X, axis=0)

    norm_F = bs_norm(F, s)
    norm_V = bs_norm(V, s)
    norm_diff = bs_norm(FormFactor(basis.grid, F.values - V.values), s)
    weighted = norms((energies + lam)[:, None] ** (s - 1.0) * psis)

    for ell, builder in ((0, theta0), (1, theta1)):
        th_F = builder(basis, F, lam)
        th_V = builder(basis, V, lam)
        # difference bound, then the single-factor specialization
        suite.add(
            bound_check(
                f"theta{ell}_difference_bound",
                norms((th_F - th_V) @ psis),
                (norm_F + norm_V) * norm_diff * weighted,
            )
        )
        suite.add(bound_check(f"theta{ell}_single_bound", norms(th_F @ psis), norm_F**2 * weighted))
    del th_F, th_V

    G = g_op(basis, F, lam)
    g_norm = opnorm(G)
    suite.add(bound_check("g_norm_bound", g_norm, norm_F * lam ** ((s - 2.0) / 2.0)))

    Gstar_psis = G.conj().T @ psis
    for r in (0.0, 1.0 - s / 2.0):
        wr = (energies + lam)[:, None] ** r
        suite.add(
            bound_check(
                f"g_star_weighted_bound_r={r:g}",
                norms(wr * Gstar_psis),
                norm_F * lam ** (s / 2.0 - 1.0) * norms(wr * psis),
            )
        )
    del G, Gstar_psis

    # Domain-invariance bounds require F = F_> and 2-nilpotent F.
    low, _ = ir_split(F, basis.grid.kappa)
    if nilpotency_violation(F.values) > STRUCTURE_TOL or not low.is_zero():
        for name in ("ir_sector_invariance", "fractional_domain_bound"):
            suite.add(CheckResult(name, True, 0.0, INEQUALITY_SLACK, skipped=True))
        return suite

    # T keeps the total boson number, so its norm t on the prefix is at most
    # that on the whole basis: the bounds can only get stricter there
    m, prefix = basis.safe_prefix()
    energies = prefix.lift(prefix.energies)
    t_rel_norm = opnorm(t_op(prefix, V, lam).multiply(1.0 / (energies + lam)[None, :]).tocsr())
    omega_low = np.where(basis.grid.omegas <= basis.grid.kappa, basis.grid.omegas, 0.0)
    dg_low = prefix.lift(prefix.occupations.astype(float) @ omega_low)
    proj = prefix.lift((prefix.totals <= m).astype(float))

    # the samples projected onto the truncation-safe block and renormalized;
    # those the projection (nearly) annihilates are dropped
    psis_r = proj[:, None] * psis[: prefix.dim]
    nrm = norms(psis_r)
    keep = nrm >= 1e-12
    psis_r = psis_r[:, keep] / nrm[keep]
    xi_psis = xi(prefix, F, V, lam) @ psis_r
    xi_psis += lam * psis_r  # xi psi, with lambda added to the dense samples alone
    xi_norms = norms(xi_psis) * (1.0 + t_rel_norm)
    del xi_psis  # one sample array fewer alive in the norms below
    suite.add(
        bound_check(
            "ir_sector_invariance",
            norms(dg_low[:, None] * psis_r),
            (1.0 + g_norm) ** 2 * xi_norms,
        )
    )
    suite.add(
        bound_check(
            "fractional_domain_bound",
            norms(energies[:, None] ** (1.0 - s / 2.0) * psis_r),
            (1.0 + norm_F * lam ** (s / 2.0 - 1.0)) ** 2 * xi_norms,
        )
    )
    return suite


def restricted_block(basis: OccupationBasis, X, m: int) -> np.ndarray:
    """Dense submatrix of the matrix ``X`` (dense or sparse, on the index
    of ``basis``) on the total-boson-number <= m sector."""
    idx = basis.sector(m)
    if sp.issparse(X):
        return X.tocsr()[np.ix_(idx, idx)].toarray()
    return np.asarray(X)[np.ix_(idx, idx)]


def restricted_deviation(basis: OccupationBasis, A, B, m: int) -> float:
    """Max-entry deviation of two matrices (dense or sparse, on the index
    of ``basis``) on the total-number <= m block."""
    return float(np.max(np.abs(restricted_block(basis, A, m) - restricted_block(basis, B, m))))
