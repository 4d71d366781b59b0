import math

import numpy as np
import pytest
import scipy.linalg as sla

from sbfock import (
    FormFactor,
    ModeGrid,
    SIGMA_MINUS,
    SIGMA_X,
    SpinSpace,
    bs_norm,
    separable,
    zero_form_factor,
)
from sbfock import _solvers
from sbfock.dressing import (
    displacement_generator,
    verify_weyl_continuity,
    verify_weyl_transforms,
    weyl,
)
from sbfock.fock import Operator, build_basis, parity, vacuum
from sbfock.ibc import restricted_block


def grid_of(omegas, mus=None, kappa=1.0):
    omegas = np.asarray(omegas, dtype=float)
    mus = np.ones_like(omegas) if mus is None else np.asarray(mus, dtype=float)
    return ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=kappa)


def one_mode_basis(n_max=16):
    g = grid_of([1.0], kappa=0.5)
    return g, build_basis(g, SpinSpace(1), n_max)


# --------------------------------------------------------------------- weyl


def test_weyl_zero_is_identity():
    g, basis = one_mode_basis(6)
    W = weyl(basis, zero_form_factor(g, 1)).dense()
    assert np.allclose(W, np.eye(basis.dim), atol=1e-15)


def test_weyl_exactly_unitary():
    g, basis = one_mode_basis(10)
    F = FormFactor(g, np.array([0.4 + 0.2j]))
    W = weyl(basis, F).dense()
    assert np.max(np.abs(W.conj().T @ W - np.eye(basis.dim))) <= 1e-13


def test_weyl_matches_dense_expm():
    # dense scaling-and-squaring of the whole generator is the oracle
    g = grid_of([0.6, 1.5, 2.5], mus=[0.5, 1.0, 1.2])
    basis = build_basis(g, SpinSpace(2), 6)
    F = separable(g, [0.3, 0.2 + 0.1j, 0.15], SIGMA_X)
    W = weyl(basis, F).dense()
    oracle = sla.expm(displacement_generator(basis, F).toarray())
    assert np.max(np.abs(W - oracle)) <= 1e-13


def coherent_column(basis, c):
    """Coherent-state series oracle: partial sums of exp(-c a^+) vacuum,
    normalized; valid for a single mode with real coupling c."""
    n = basis.dim
    col = np.zeros(n, dtype=complex)
    for k in range(n):
        idx = basis.index((k,))
        col[idx] = (-c) ** k / math.sqrt(math.factorial(k))
    return col * np.exp(-c * c / 2.0)


def test_weyl_matches_coherent_series():
    g, basis = one_mode_basis(18)
    c = 0.8
    F = FormFactor(g, np.array([c], dtype=complex))
    W = weyl(basis, F).matrix
    dressed = W @ vacuum(basis)
    assert np.max(np.abs(dressed - coherent_column(basis, c))) <= 1e-10


@pytest.mark.parametrize("c", [0.3, 0.7, 1.0])
def test_weyl_vacuum_overlap_and_parity(c):
    g, basis = one_mode_basis(16)
    F = FormFactor(g, np.array([c], dtype=complex))
    W = weyl(basis, F).matrix
    om = vacuum(basis)
    overlap = np.vdot(om, W @ om).real
    assert overlap == pytest.approx(np.exp(-(bs_norm(F, 0.0) ** 2) / 2.0), abs=1e-6)
    psi = W @ om
    par = parity(basis).dense()
    pexp = np.vdot(psi, par @ psi).real
    assert pexp == pytest.approx(np.exp(-2.0 * bs_norm(F, 0.0) ** 2), abs=1e-6)


def test_weyl_group_inverse():
    g = grid_of([0.8, 1.6])
    basis = build_basis(g, SpinSpace(1), 8)
    F = FormFactor(g, np.array([0.3, 0.2 + 0.1j]))
    WF = weyl(basis, F).matrix
    Wm = weyl(basis, FormFactor(g, -F.values)).matrix
    prod = Operator(basis, WF @ Wm)
    block = restricted_block(prod, basis.n_max - 2)
    assert np.max(np.abs(block - np.eye(block.shape[0]))) <= 1e-8


def test_weyl_strong_continuity_halving():
    g = grid_of([0.8, 1.6])
    basis = build_basis(g, SpinSpace(1), 8)
    F = FormFactor(g, np.array([0.4, 0.25]))
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index((1, 0))] = 1.0
    W_lim = weyl(basis, F).matrix
    prev = None
    for k in range(1, 5):
        Fk = FormFactor(g, F.values * (1.0 + 0.5**k))
        dev = np.linalg.norm((weyl(basis, Fk).matrix - W_lim) @ psi)
        if prev is not None:
            assert dev < prev
        prev = dev


# ----------------------------------------------------------- transformation


def test_weyl_transforms_zero_field():
    g = grid_of([0.8, 1.6])
    basis = build_basis(g, SpinSpace(1), 8)
    Z = zero_form_factor(g, 1)
    G = FormFactor(g, np.array([0.3, 0.1]))
    suite = verify_weyl_transforms(basis, Z, G)
    assert suite.passed
    assert suite.worst() <= 1e-12


def test_weyl_transforms_small_scalar():
    g = grid_of([1.0], kappa=0.5)
    basis = build_basis(g, SpinSpace(1), 12)
    t = 0.1
    F = FormFactor(g, np.array([t]))
    suite = verify_weyl_transforms(basis, F, F, m=basis.n_max - 6)
    assert suite.passed
    assert suite.worst() <= 1e-8


def test_weyl_transforms_normal_coupling():
    g = grid_of([0.6, 1.5, 2.5], mus=[0.5, 1.0, 1.2])
    basis = build_basis(g, SpinSpace(2), 10)
    v = np.array([0.0, 0.3, 0.2])  # high-frequency support
    V_D = separable(g, v, SIGMA_X)
    dress = FormFactor(g, V_D.values / g.omegas[:, None, None])
    suite = verify_weyl_transforms(basis, dress, V_D, m=basis.n_max - 6)
    assert suite.passed
    assert suite.worst() <= 1e-7


def test_weyl_transforms_skip_on_noncommuting():
    g = grid_of([0.8, 1.6])
    basis = build_basis(g, SpinSpace(2), 6)
    F = separable(g, [0.2, 0.1], SIGMA_MINUS)
    G = separable(g, [0.1, 0.2], SIGMA_X)
    suite = verify_weyl_transforms(basis, F, G)
    assert all(r.skipped for r in suite.results)
    assert suite.passed


# ------------------------------------------------------------- continuity


def test_weyl_continuity_equal_arguments():
    g = grid_of([0.8, 1.6])
    basis = build_basis(g, SpinSpace(1), 8)
    F = FormFactor(g, np.array([0.3, 0.2]))
    suite = verify_weyl_continuity(basis, F, F, n_samples=20)
    assert suite.passed


def test_weyl_continuity_small_field_vs_zero():
    g = grid_of([0.8, 1.6])
    basis = build_basis(g, SpinSpace(1), 10)
    F = FormFactor(g, np.array([0.25, 0.15]))
    Z = zero_form_factor(g, 1)
    suite = verify_weyl_continuity(basis, F, Z, n_samples=100)
    assert suite.passed


def test_weyl_continuity_spin_family():
    g = grid_of([0.6, 1.5, 2.5], mus=[0.5, 1.0, 1.2])
    basis = build_basis(g, SpinSpace(2), 10)
    rng = np.random.default_rng(2)
    F = separable(g, 0.2 * rng.standard_normal(3), SIGMA_X)
    G = separable(g, 0.2 * rng.standard_normal(3), SIGMA_X)
    suite = verify_weyl_continuity(basis, F, G, n_samples=100, m=basis.n_max - 4)
    assert suite.passed


# ------------------------------------------------------- above the dense cap


def test_weyl_checks_above_dense_cap():
    # both checks apply W only to the sector <= m columns, so a basis the
    # dense Weyl operator refuses is fine when m is small
    g = grid_of([0.6, 0.9, 1.3, 1.7, 2.2, 2.8, 3.5])
    basis = build_basis(g, SpinSpace(1), 8)
    assert basis.dim > _solvers.DENSE_SOLVE_CAP
    F = FormFactor(g, 0.1 * np.array([1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2]))
    G = FormFactor(g, 0.1 * np.array([0.9, 0.7, 0.7, 0.4, 0.5, 0.2, 0.3]))
    transforms = verify_weyl_transforms(basis, F, G, m=1)
    continuity = verify_weyl_continuity(basis, F, G, n_samples=20, m=1)
    for suite in (transforms, continuity):
        assert suite.passed
        assert not any(r.skipped for r in suite.results)
