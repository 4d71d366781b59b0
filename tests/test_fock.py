import math

import numpy as np
import pytest

from sbfock import (
    FormFactor,
    ModeGrid,
    NumericError,
    ParameterError,
    ResourceError,
    SIGMA_MINUS,
    SIGMA_X,
    SpinSpace,
    StructuralError,
    bs_inner,
    bs_norm,
    separable,
    zero_form_factor,
)
from sbfock.fock import (
    annihilate,
    basis_size,
    build_basis,
    create,
    dgamma,
    field,
    function_of_dgamma,
    parity,
    spin_operator,
    vacuum,
)


def grid_of(omegas, mus=None, kappa=1.0):
    omegas = np.asarray(omegas, dtype=float)
    mus = np.ones_like(omegas) if mus is None else np.asarray(mus, dtype=float)
    return ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=kappa)


def random_ff(grid, spin_dim, rng, scale=1.0):
    shape = (grid.n_modes, spin_dim, spin_dim)
    return FormFactor(grid, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


# --------------------------------------------------------------- build_basis


def test_basis_counts_small():
    assert build_basis(grid_of([1.0]), SpinSpace(1), 3).dim == 4
    assert build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 1).dim == 6


def test_basis_count_stars_and_bars():
    # independent count: spin * sum_n C(M + n - 1, n)
    expected = 2 * sum(math.comb(8 + n - 1, n) for n in range(5))
    assert expected == 990
    basis = build_basis(grid_of(np.linspace(1, 8, 8)), SpinSpace(2), 4)
    assert basis.dim == expected == basis_size(8, 2, 4)


def test_basis_cap():
    with pytest.raises(ResourceError):
        build_basis(grid_of(np.linspace(1, 2, 30)), SpinSpace(2), 6, max_states=10_000)


def test_basis_enumeration_order_and_index_maps():
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 2)
    # ascending total, lexicographic occupation, spin fastest
    occs = [tuple(o) for o in basis.occupations]
    assert occs == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for idx in range(basis.dim):
        occ, s = basis.state(idx)
        assert basis.index(occ, s) == idx
    with pytest.raises(StructuralError):
        basis.fock_rank((5, 5))


# ------------------------------------------------------------------- dgamma


def test_dgamma_examples():
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(1), 3)
    dg = dgamma(basis, [1.0, 2.0]).dense()
    assert dg[0, 0] == 0.0  # vacuum
    i = basis.index((2, 1))
    assert dg[i, i] == pytest.approx(4.0)
    num = dgamma(basis, [1.0, 1.0]).dense()
    for idx in range(basis.dim):
        occ, _ = basis.state(idx)
        assert num[idx, idx] == pytest.approx(sum(occ))


def test_dgamma_weight_length_checked():
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(1), 1)
    with pytest.raises(StructuralError):
        dgamma(basis, [1.0])


# ------------------------------------------------------------------- parity


def test_parity():
    basis = build_basis(grid_of([1.0, 3.0]), SpinSpace(2), 3)
    P = parity(basis).dense()
    assert P[0, 0] == 1.0
    one_boson = basis.index((1, 0))
    assert P[one_boson, one_boson] == -1.0
    assert np.array_equal(P @ P, np.eye(basis.dim))


# --------------------------------------------------------------- annihilate


def test_annihilate_kills_vacuum():
    rng = np.random.default_rng(0)
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 2)
    F = random_ff(basis.grid, 2, rng)
    a = annihilate(basis, F).dense()
    for s in range(2):
        assert np.allclose(a @ vacuum(basis, s), 0.0)


def test_annihilate_sigma_minus_flips_spin_up():
    basis = build_basis(grid_of([1.0]), SpinSpace(2), 2)
    F = separable(basis.grid, [1.0], SIGMA_MINUS)
    a = annihilate(basis, F).dense()
    # spin index 0 = up, 1 = down; sigma_-^* = sigma_+ raises down -> up
    psi = basis.unit_vector((1,), 1)
    out = a @ psi
    expected = basis.unit_vector((0,), 0)
    assert np.allclose(out, expected, atol=1e-15)


def test_vacuum_expectation_pins_weight_convention():
    rng = np.random.default_rng(1)
    omegas = np.array([0.7, 1.9, 3.2])
    mus = np.array([0.4, 1.3, 2.2])
    g = ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=1.0)
    basis = build_basis(g, SpinSpace(2), 2)
    for _ in range(5):
        F = random_ff(g, 2, rng)
        a = annihilate(basis, F).tocsr()
        ad = create(basis, F).tocsr()
        got = np.empty((2, 2), dtype=complex)
        for s in range(2):
            for t in range(2):
                got[s, t] = np.vdot(vacuum(basis, s), (a @ (ad @ vacuum(basis, t))))
        assert np.allclose(got, bs_inner(F, F, 0.0), atol=1e-12)


def test_annihilate_number_conservation():
    rng = np.random.default_rng(2)
    basis = build_basis(grid_of([1.0, 2.0, 3.0]), SpinSpace(2), 3)
    F = random_ff(basis.grid, 2, rng)
    a = annihilate(basis, F).dense()
    for i in range(basis.dim):
        for j in range(basis.dim):
            if abs(a[i, j]) > 0:
                assert basis.totals[i // 2] == basis.totals[j // 2] - 1


def test_annihilate_antilinear_create_linear():
    rng = np.random.default_rng(3)
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 2)
    F = random_ff(basis.grid, 2, rng)
    G = random_ff(basis.grid, 2, rng)
    c = 0.7 - 1.3j
    cFpG = FormFactor(basis.grid, c * F.values + G.values)
    a = annihilate(basis, cFpG).dense()
    expected = np.conj(c) * annihilate(basis, F).dense() + annihilate(basis, G).dense()
    assert np.allclose(a, expected, atol=1e-13)
    ad = create(basis, cFpG).dense()
    expected_c = c * create(basis, F).dense() + create(basis, G).dense()
    assert np.allclose(ad, expected_c, atol=1e-13)


def test_annihilate_grid_mismatch():
    basis = build_basis(grid_of([1.0]), SpinSpace(1), 1)
    other = separable(grid_of([2.0]), [1.0], np.eye(1))
    with pytest.raises(StructuralError):
        annihilate(basis, other)


# ------------------------------------------------------------- create/field


def test_field_zero_and_selfadjoint():
    rng = np.random.default_rng(4)
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 3)
    assert not np.any(field(basis, zero_form_factor(basis.grid, 2)).dense())
    F = random_ff(basis.grid, 2, rng)
    phi = field(basis, F).dense()
    assert np.array_equal(phi, phi.conj().T)


def test_field_vacuum_fluctuation():
    basis = build_basis(grid_of([1.0]), SpinSpace(1), 3)
    F = FormFactor(basis.grid, np.array([1.0]))
    phi = field(basis, F).dense()
    omega = vacuum(basis)
    assert np.vdot(omega, phi @ (phi @ omega)).real == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------------- function_of_dgamma


def test_function_of_dgamma():
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 3)
    dg = dgamma(basis, basis.grid.omegas).dense()
    assert np.allclose(function_of_dgamma(basis, lambda E: E).dense(), dg)
    assert np.allclose(function_of_dgamma(basis, lambda E: 1.0).dense(), np.eye(basis.dim))
    lam = 0.8
    inv = function_of_dgamma(basis, lambda E: 1.0 / (E + lam)).dense()
    prod = inv @ (dg + lam * np.eye(basis.dim))
    assert np.max(np.abs(prod - np.eye(basis.dim))) <= 1e-14


def test_function_of_dgamma_nonfinite():
    basis = build_basis(grid_of([1.0]), SpinSpace(1), 2)
    with pytest.raises(NumericError):
        function_of_dgamma(basis, lambda E: 1.0 / E)


# ------------------------------------------------------------- index layout


@pytest.mark.parametrize("spin_dim", [1, 2])
def test_layout_helpers(spin_dim):
    basis = build_basis(grid_of([1.0, 2.5]), SpinSpace(spin_dim), 3)
    states = [basis.state(i) for i in range(basis.dim)]
    totals = [int(occ.sum()) for occ, _ in states]
    assert np.array_equal(basis.lift(basis.totals), totals)
    energies = [occ @ basis.grid.omegas for occ, _ in states]
    assert np.allclose(basis.lift(basis.energies), energies, rtol=0.0, atol=1e-14)
    M = np.arange(spin_dim**2).reshape(spin_dim, spin_dim) + 1j
    assert np.array_equal(spin_operator(basis, M).toarray(), np.kron(np.eye(basis.n_fock), M))
    for m in range(basis.n_max + 2):
        idx = basis.sector(m)
        assert list(idx) == [i for i in range(basis.dim) if totals[i] <= m]
        assert np.array_equal(basis.unit_columns(idx), np.eye(basis.dim)[:, idx])
    with pytest.raises(ParameterError):
        basis.sector(-1)


# ------------------------------------------------------------ CCR identities


def commuting_pair(grid, rng, spin_dim):
    if spin_dim == 1:
        return random_ff(grid, 1, rng), random_ff(grid, 1, rng)
    v = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    w = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    return separable(grid, v, SIGMA_X), separable(grid, w, SIGMA_X)


@pytest.mark.parametrize("spin_dim", [1, 2])
def test_ccr_field_commutator(spin_dim):
    rng = np.random.default_rng(10 + spin_dim)
    basis = build_basis(grid_of([0.8, 1.7, 2.5], mus=[0.5, 1.0, 2.0]), SpinSpace(spin_dim), 4)
    idx = basis.sector(basis.n_max - 2)
    for _ in range(3):
        F, G = commuting_pair(basis.grid, rng, spin_dim)
        phiF = field(basis, F).dense()
        phiG = field(basis, G).dense()
        comm = phiF @ phiG - phiG @ phiF
        scalar = bs_inner(F, G, 0.0) - bs_inner(G, F, 0.0)
        expected = np.kron(np.eye(basis.n_fock), scalar)
        dev = (comm - expected)[np.ix_(idx, idx)]
        assert np.max(np.abs(dev)) <= 1e-10


@pytest.mark.parametrize("spin_dim", [1, 2])
def test_ccr_with_dgamma(spin_dim):
    # [dGamma(omega), phi(F)] = a*(omega F) - a(omega F) on truncation-safe blocks
    rng = np.random.default_rng(20 + spin_dim)
    basis = build_basis(grid_of([0.8, 1.7, 2.5], mus=[0.5, 1.0, 2.0]), SpinSpace(spin_dim), 4)
    idx = basis.sector(basis.n_max - 2)
    dg = dgamma(basis, basis.grid.omegas).dense()
    for _ in range(3):
        F = random_ff(basis.grid, spin_dim, rng)
        phi = field(basis, F).dense()
        omegaF = FormFactor(basis.grid, basis.grid.omegas[:, None, None] * F.values)
        expected = create(basis, omegaF).dense() - annihilate(basis, omegaF).dense()
        dev = ((dg @ phi - phi @ dg) - expected)[np.ix_(idx, idx)]
        assert np.max(np.abs(dev)) <= 1e-10


def test_field_relative_bound():
    rng = np.random.default_rng(30)
    basis = build_basis(grid_of([0.6, 1.5, 3.0], mus=[0.7, 1.0, 1.5]), SpinSpace(2), 4)
    dg = dgamma(basis, basis.grid.omegas).dense()
    half = np.diag(np.sqrt(1.0 + np.diag(dg).real))
    for _ in range(10):
        F = random_ff(basis.grid, 2, rng)
        damped = FormFactor(
            basis.grid, (1.0 + basis.grid.omegas ** (-0.5))[:, None, None] * F.values
        )
        bound = 2.0 * bs_norm(damped, 0.0)
        phi = field(basis, F).dense()
        for _ in range(10):
            psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            lhs = np.linalg.norm(phi @ psi)
            rhs = bound * np.linalg.norm(half @ psi)
            assert lhs <= rhs * (1 + 1e-9)
