"""Generalized Weyl (displacement) operators and their transformation laws.

``weyl(basis, F)`` is the matrix exponential of a(F) - a*(F).  The
generator is assembled on the truncated basis and is exactly
skew-adjoint there, so the exponential is unitary to machine precision;
what truncation costs is accuracy of individual matrix elements near the
top boson sectors, which is why every identity below is asserted on
sector-restricted blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _solvers
from .errors import NumericError, ResourceError, StructuralError
from .fock import (
    OccupationBasis,
    Operator,
    annihilate,
    dgamma,
    field,
    sector_projector,
)
from .model import FormFactor, bs_inner, bs_norm
from .reports import CheckResult, CheckSuite

#: Commutation hypotheses are considered satisfied below this threshold.
HYPOTHESIS_TOL = 1e-12


def displacement_generator(basis: OccupationBasis, F: FormFactor) -> sp.csr_matrix:
    """Skew-adjoint generator a(F) - a*(F) of the Weyl operator."""
    a = annihilate(basis, F).tocsr()
    return (a - a.conj().T).tocsr()


def weyl(basis: OccupationBasis, F: FormFactor) -> Operator:
    """Weyl operator exp(a(F) - a*(F)) as a dense matrix.

    This is exp(i phi(iF)) expanded with the antilinearity of a(.) in its
    argument.  Computed by scaling-and-squaring; unitary up to rounding
    because the truncated generator is exactly skew-adjoint.  Capped at
    ``_solvers.DENSE_SOLVE_CAP`` states.
    """
    cap = _solvers.DENSE_SOLVE_CAP
    if basis.dim > cap:
        raise ResourceError(f"dense Weyl operator at dimension {basis.dim} exceeds cap {cap}")
    K = displacement_generator(basis, F)
    W = sla.expm(K.toarray())
    if not np.all(np.isfinite(W)):
        raise NumericError("Weyl exponential produced non-finite entries")
    return Operator(basis, W)


def weyl_action(basis: OccupationBasis, F: FormFactor):
    """Matrix-free application of the Weyl operator and its adjoint,
    for dimensions where the dense exponential is not affordable."""
    K = displacement_generator(basis, F)
    return (
        lambda x: spla.expm_multiply(K, x),
        lambda x: spla.expm_multiply(-K, x),
    )


def conjugate(H: Operator, W: Operator) -> Operator:
    """Sandwich W H W^*."""
    if H.matrix.shape != W.matrix.shape:
        raise StructuralError("operator shapes do not match")
    Wm = W.dense() if sp.issparse(W.matrix) else W.matrix
    Hm = H.dense()
    return Operator(H.basis, Wm @ Hm @ Wm.conj().T)


def _pointwise_commutators_vanish(F: FormFactor, G: FormFactor) -> float:
    """Max violation of [F,G] = [F,G*] = [F,F*] = [F,F] = 0 (pointwise in
    the mode indices)."""
    worst = 0.0
    for A, B in ((F.values, G.values), (F.values, G.values.conj().transpose(0, 2, 1)),
                 (F.values, F.values.conj().transpose(0, 2, 1)), (F.values, F.values)):
        comm = np.einsum("iab,jbc->ijac", A, B) - np.einsum("jab,ibc->ijac", B, A)
        if comm.size:
            worst = max(worst, float(np.max(np.abs(comm))))
    return worst


def verify_weyl_transforms(
    basis: OccupationBasis, F: FormFactor, G: FormFactor, m: int | None = None
) -> CheckSuite:
    """Check the two conjugation laws of W(F) on a truncation-safe block:

        W(F) phi(G) W(F)^*  =  phi(G) + <F,G>_{b_0} + <G,F>_{b_0}
        W(F) dG(omega) W(F)^* = dG(omega) + phi(omega F) + <F,F>_{b_-1}

    Reported as SKIPPED when the pointwise commutation hypotheses fail,
    since the formulas do not apply then.
    """
    suite = CheckSuite("weyl_transforms")
    tol = 1e-7
    hyp = _pointwise_commutators_vanish(F, G)
    if hyp > HYPOTHESIS_TOL:
        suite.add(
            CheckResult(
                "field_transform", True, 0.0, tol, skipped=True, details={"hypothesis": hyp}
            )
        )
        suite.add(
            CheckResult(
                "number_transform", True, 0.0, tol, skipped=True, details={"hypothesis": hyp}
            )
        )
        return suite
    if m is None:
        m = max(basis.n_max - 3, 0)
    P = sector_projector(basis, m).tocsr()
    W = weyl(basis, F).matrix
    eye_fock = np.eye(basis.n_fock)

    phiG = field(basis, G).dense()
    lhs = W @ phiG @ W.conj().T
    shift = bs_inner(F, G, 0.0) + bs_inner(G, F, 0.0)
    rhs = phiG + np.kron(eye_fock, shift)
    dev = float(np.max(np.abs(P @ (lhs - rhs) @ P)))
    suite.add(CheckResult("field_transform", dev <= tol, dev, tol))

    dg = dgamma(basis, basis.grid.omegas).dense()
    omegaF = FormFactor(basis.grid, basis.grid.omegas[:, None, None] * F.values)
    lhs2 = W @ dg @ W.conj().T
    rhs2 = dg + field(basis, omegaF).dense() + np.kron(eye_fock, bs_inner(F, F, -1.0))
    dev2 = float(np.max(np.abs(P @ (lhs2 - rhs2) @ P)))
    suite.add(CheckResult("number_transform", dev2 <= tol, dev2, tol))
    return suite


def verify_weyl_continuity(
    basis: OccupationBasis,
    F: FormFactor,
    G: FormFactor,
    n_samples: int = 100,
    m: int | None = None,
    seed: int = 0,
) -> CheckSuite:
    """Check the displacement-continuity estimates.

    The difference of two Weyl operators is controlled by the generator
    difference: with H = i(F-G) (the phase produced by differentiating
    the displacement flow of exp(i phi(i tF))),

        ||(W(F)-W(G)) psi|| <= ||phi(H) psi|| + 1/2 ||(<F,H>_0 + <H,F>_0) psi||

    on states in the common domain, and for theta in {0, 1}

        ||(W(F)-W(G)) (1+dG(omega))^{-theta/2}||
            <= 2^{1-theta} (4 (||F-G||_0 v ||F-G||_1) + 1/2 ||<F,H>_0 + <H,F>_0||)^theta.
    """
    suite = CheckSuite("weyl_continuity")
    slack = 1e-9
    hyp = _pointwise_commutators_vanish(F, G)
    if hyp > HYPOTHESIS_TOL:
        for name in ("vector_bound", "theta0_norm_bound", "theta1_norm_bound"):
            suite.add(CheckResult(name, True, 0.0, slack, skipped=True))
        return suite
    if m is None:
        m = max(basis.n_max - 4, 0)
    rng = np.random.default_rng(seed)
    WF = weyl(basis, F).matrix
    WG = weyl(basis, G).matrix
    diff_ff = FormFactor(basis.grid, F.values - G.values)
    gen_ff = FormFactor(basis.grid, 1j * (F.values - G.values))
    phi_diff = field(basis, gen_ff).dense()
    pairing = bs_inner(F, gen_ff, 0.0) + bs_inner(gen_ff, F, 0.0)
    pairing_full = np.kron(np.eye(basis.n_fock), pairing)
    sel = np.repeat(basis.totals <= m, basis.spin.dim)

    worst = 0.0
    diff_W = WF - WG
    for _ in range(n_samples):
        psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        psi = np.where(sel, psi, 0.0)
        psi /= np.linalg.norm(psi)
        lhs = np.linalg.norm(diff_W @ psi)
        rhs = np.linalg.norm(phi_diff @ psi) + 0.5 * np.linalg.norm(pairing_full @ psi)
        if rhs == 0.0:
            worst = max(worst, 0.0 if lhs < 1e-300 else np.inf)
        else:
            worst = max(worst, lhs / rhs)
    suite.add(
        CheckResult("vector_bound", worst <= 1 + slack, max(worst - 1.0, 0.0), slack)
    )

    base = 4.0 * max(bs_norm(diff_ff, 0.0), bs_norm(diff_ff, 1.0)) + 0.5 * np.linalg.norm(
        pairing, ord=2
    )
    energies = np.repeat(basis.energies, basis.spin.dim)
    for theta, name in ((0.0, "theta0_norm_bound"), (1.0, "theta1_norm_bound")):
        weight = (1.0 + energies) ** (-theta / 2.0)
        mat = (diff_W * weight[None, :])[np.ix_(sel, sel)]
        lhs = np.linalg.norm(mat, ord=2)
        rhs = 2.0 ** (1.0 - theta) * base**theta
        ratio = 0.0 if rhs == 0.0 and lhs < 1e-300 else (np.inf if rhs == 0.0 else lhs / rhs)
        suite.add(CheckResult(name, ratio <= 1 + slack, max(ratio - 1.0, 0.0), slack))
    return suite
