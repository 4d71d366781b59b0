"""Generalized Weyl (displacement) operators and their transformation laws.

W(F) = exp(a(F) - a*(F)) is computed one way: ``weyl_action`` applies it,
or its adjoint, to a vector or a block of columns with the matrix-free
``expm_multiply`` (Al-Mohy & Higham 2011), without forming W.  ``weyl``
is that action on the identity, a dense ndarray for callers that need
the whole matrix.
The generator is assembled on the truncated basis and is exactly
skew-adjoint there, so W is unitary to machine precision; what
truncation costs is accuracy of individual matrix elements near the top
boson sectors, which is why every identity below is asserted on a
sector-restricted block, and the checks apply W only to the unit
columns of that block.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _solvers
from .errors import NumericError, ResourceError
from .fock import OccupationBasis, annihilate, dgamma, field, spin_operator
from .model import STRUCTURE_TOL, FormFactor, bs_inner, bs_norm, commutator_violation
from .reports import BOUND_SAMPLES, INEQUALITY_SLACK, CheckResult, CheckSuite, bound_check


def displacement_generator(basis: OccupationBasis, F: FormFactor) -> sp.csr_matrix:
    """Skew-adjoint generator a(F) - a*(F) of the Weyl operator."""
    a = annihilate(basis, F)
    return a - a.conj().T


def weyl(basis: OccupationBasis, F: FormFactor) -> np.ndarray:
    """Weyl operator exp(a(F) - a*(F)) as a dense ndarray: ``weyl_action``
    applied to the identity.

    This is exp(i phi(iF)) expanded with the antilinearity of a(.) in its
    argument; unitary up to rounding because the truncated generator is
    exactly skew-adjoint.  Capped at ``_solvers.DENSE_SOLVE_CAP`` states.
    """
    cap = _solvers.DENSE_SOLVE_CAP
    if basis.dim > cap:
        raise ResourceError(f"dense Weyl operator at dimension {basis.dim} exceeds cap {cap}")
    apply_W, _ = weyl_action(basis, F)
    W = apply_W(np.eye(basis.dim))
    if not np.all(np.isfinite(W)):
        raise NumericError("Weyl exponential produced non-finite entries")
    return W


def weyl_action(basis: OccupationBasis, F: FormFactor):
    """Matrix-free actions x -> W(F) x and x -> W(F)^* x.

    ``x`` is a vector or a (dim, k) block of columns.  Each call runs
    ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham 2011) on the
    sparse skew-adjoint generator K = a(F) - a*(F), with W^* = exp(-K);
    its cost grows with the number of columns and the norm of K, and it
    forms no array larger than ``x``.
    """
    K = displacement_generator(basis, F)
    return (
        lambda x: spla.expm_multiply(K, x),
        lambda x: spla.expm_multiply(-K, x),
    )


def _hypothesis_violation(F: FormFactor, G: FormFactor) -> float:
    """Max violation of [F,G] = [F,G*] = [F,F*] = [F,F] = 0 (pointwise in
    the mode indices)."""
    f, g = F.values, G.values
    partners = (g, g.conj().transpose(0, 2, 1), f.conj().transpose(0, 2, 1), f)
    return max(commutator_violation(f, b) for b in partners)


def verify_weyl_transforms(
    basis: OccupationBasis, F: FormFactor, G: FormFactor, m: int
) -> CheckSuite:
    """Check the two conjugation laws of W(F) on the block of total boson
    number at most ``m`` (truncation-safe a few levels below n_max):

        W(F) phi(G) W(F)^*  =  phi(G) + <F,G>_{b_0} + <G,F>_{b_0}
        W(F) dG(omega) W(F)^* = dG(omega) + phi(omega F) + <F,F>_{b_-1}

    Reported as SKIPPED when the pointwise commutation hypotheses fail,
    since the formulas do not apply then.
    """
    suite = CheckSuite("weyl_transforms")
    tol = 1e-7
    hyp = _hypothesis_violation(F, G)
    if hyp > STRUCTURE_TOL:
        for name in ("field_transform", "number_transform"):
            suite.add(CheckResult(name, True, 0.0, tol, skipped=True, details={"hypothesis": hyp}))
        return suite
    idx = basis.sector(m)
    _, apply_W_adjoint = weyl_action(basis, F)
    Y = apply_W_adjoint(basis.unit_columns(idx))  # W^*[:, idx]: (W X W^*)[idx, idx] = Y^H X Y

    def block_deviation(X, expected):
        lhs = Y.conj().T @ (X @ Y)
        return float(np.max(np.abs(lhs - expected[idx][:, idx].toarray())))

    phiG = field(basis, G)
    shift = bs_inner(F, G, 0.0) + bs_inner(G, F, 0.0)
    dev = block_deviation(phiG, phiG + spin_operator(basis, shift))
    suite.add(CheckResult("field_transform", dev <= tol, dev, tol))

    dg = dgamma(basis, basis.grid.omegas)
    omegaF = FormFactor(basis.grid, basis.grid.omegas[:, None, None] * F.values)
    shift2 = spin_operator(basis, bs_inner(F, F, -1.0))
    dev2 = block_deviation(dg, dg + field(basis, omegaF) + shift2)
    suite.add(CheckResult("number_transform", dev2 <= tol, dev2, tol))
    return suite


def verify_weyl_continuity(
    basis: OccupationBasis,
    F: FormFactor,
    G: FormFactor,
    m: int,
    seed: int = 0,
) -> CheckSuite:
    """Check the displacement-continuity estimates on
    ``reports.BOUND_SAMPLES`` random vectors of the block of total boson
    number at most ``m``.

    The difference of two Weyl operators is controlled by the generator
    difference: with H = i(F-G) (the phase produced by differentiating
    the displacement flow of exp(i phi(i tF))),

        ||(W(F)-W(G)) psi|| <= ||phi(H) psi|| + 1/2 ||(<F,H>_0 + <H,F>_0) psi||

    on states in the common domain, and for theta in {0, 1}

        ||(W(F)-W(G)) (1+dG(omega))^{-theta/2}||
            <= 2^{1-theta} (4 (||F-G||_0 v ||F-G||_1) + 1/2 ||<F,H>_0 + <H,F>_0||)^theta.
    """
    suite = CheckSuite("weyl_continuity")
    if _hypothesis_violation(F, G) > STRUCTURE_TOL:
        for name in ("vector_bound", "theta0_norm_bound", "theta1_norm_bound"):
            suite.add(CheckResult(name, True, 0.0, INEQUALITY_SLACK, skipped=True))
        return suite
    idx = basis.sector(m)
    units = basis.unit_columns(idx)
    rng = np.random.default_rng(seed)
    apply_WF, _ = weyl_action(basis, F)
    apply_WG, _ = weyl_action(basis, G)
    # every sample vector is supported on the sector block, so only its
    # columns of W(F) - W(G) are read
    diff_W = apply_WF(units) - apply_WG(units)
    diff_ff = FormFactor(basis.grid, F.values - G.values)
    gen_ff = FormFactor(basis.grid, 1j * (F.values - G.values))
    phi_diff = field(basis, gen_ff)[:, idx]
    pairing = bs_inner(F, gen_ff, 0.0) + bs_inner(gen_ff, F, 0.0)
    pairing_cols = spin_operator(basis, pairing)[:, idx]

    # sample k draws its real part, then its imaginary part, on the full
    # basis; its restriction to the block, normalized, is column k
    draws = rng.standard_normal((BOUND_SAMPLES, 2, basis.dim))
    psis = (draws[:, 0] + 1j * draws[:, 1])[:, idx].T
    psis /= np.linalg.norm(psis, axis=0)
    suite.add(
        bound_check(
            "vector_bound",
            np.linalg.norm(diff_W @ psis, axis=0),
            np.linalg.norm(phi_diff @ psis, axis=0)
            + 0.5 * np.linalg.norm(pairing_cols @ psis, axis=0),
        )
    )

    base = 4.0 * max(bs_norm(diff_ff, 0.0), bs_norm(diff_ff, 1.0)) + 0.5 * np.linalg.norm(
        pairing, ord=2
    )
    energies = basis.lift(basis.energies)[idx]
    for theta, name in ((0.0, "theta0_norm_bound"), (1.0, "theta1_norm_bound")):
        weight = (1.0 + energies) ** (-theta / 2.0)
        lhs = np.linalg.norm(diff_W[idx] * weight[None, :], ord=2)
        suite.add(bound_check(name, lhs, 2.0 ** (1.0 - theta) * base**theta))
    return suite
