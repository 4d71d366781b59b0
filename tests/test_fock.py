import math

import numpy as np
import pytest
import scipy.sparse as sp

from sbfock import (
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    NumericError,
    ParameterError,
    ResourceError,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SpinSpace,
    StructuralError,
    bs_inner,
    bs_norm,
    separable,
    zero_form_factor,
)
from sbfock.dressing import weyl
from sbfock.fock import (
    Operator,
    annihilate,
    basis_size,
    block_diag_operator,
    build_basis,
    create,
    dgamma,
    field,
    function_of_dgamma,
    parity,
    spin_operator,
    vacuum,
)
from sbfock.ibc import g_op, nilpotent_inverse, t_op, theta0, theta1, xi
from sbfock.renorm import HamiltonianSpec, h_cutoff, h_reg, h_renormalized


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
        build_basis(grid_of(np.linspace(1, 2, 30)), SpinSpace(2), 6)


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


@pytest.mark.parametrize("n_modes, n_max", [(1, 0), (1, 4), (2, 3), (3, 0), (4, 3), (6, 2), (7, 4)])
def test_enumeration_matches_itertools_and_caches_nothing(n_modes, n_max):
    import itertools

    import sbfock.fock as fock

    reference = sorted(
        (occ for occ in itertools.product(range(n_max + 1), repeat=n_modes) if sum(occ) <= n_max),
        key=lambda occ: (sum(occ), occ),
    )
    basis = build_basis(grid_of(np.linspace(1, 2, n_modes)), SpinSpace(1), n_max)
    assert basis.occupations.dtype == np.uint16 and basis.occupations.flags.c_contiguous
    assert [tuple(int(n) for n in occ) for occ in basis.occupations] == reference
    assert basis.totals.tolist() == [sum(occ) for occ in reference]
    # no cache at module level keeps the enumeration alive
    assert not [name for name, value in vars(fock).items() if hasattr(value, "cache_info")]


def test_occupation_keys_match_the_stacked_formula_within_budget():
    # the keys of a lowered table (every state with one boson removed per
    # occupied mode), as the basis ranks them; the old formula stacked the
    # uint64 row sums beside the occupations before the cast, about 5 times
    # the key bytes at 24 modes
    import tracemalloc

    from sbfock.fock import _occupation_keys, _occupations

    def stacked_keys(occupations):
        keyed = np.hstack([occupations.sum(axis=1)[:, None], occupations]).astype(">u2")
        return keyed.view(f"S{keyed.itemsize * keyed.shape[1]}").ravel()

    occs = _occupations(24, 3)
    rows, modes = np.nonzero(occs)
    lowered = occs[rows]
    lowered[np.arange(len(rows)), modes] -= 1
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        keys = _occupation_keys(lowered)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    want = stacked_keys(lowered)
    assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()
    assert peak <= 1.5 * keys.nbytes
    basis_keys = _occupation_keys(occs)  # ascending in basis order
    assert np.all(basis_keys[:-1] < basis_keys[1:])


# ------------------------------------------------------------------- dgamma


def test_dgamma_examples():
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(1), 3)
    dg = dgamma(basis, [1.0, 2.0]).toarray()
    assert dg[0, 0] == 0.0  # vacuum
    i = basis.index((2, 1))
    assert dg[i, i] == pytest.approx(4.0)
    num = dgamma(basis, [1.0, 1.0]).toarray()
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
    P = parity(basis).toarray()
    assert P[0, 0] == 1.0
    one_boson = basis.index((1, 0))
    assert P[one_boson, one_boson] == -1.0
    assert np.array_equal(P @ P, np.eye(basis.dim))


# --------------------------------------------------------------- annihilate


def test_annihilate_kills_vacuum():
    rng = np.random.default_rng(0)
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 2)
    F = random_ff(basis.grid, 2, rng)
    a = annihilate(basis, F).toarray()
    for s in range(2):
        assert np.allclose(a @ vacuum(basis, s), 0.0)


def test_annihilate_sigma_minus_flips_spin_up():
    basis = build_basis(grid_of([1.0]), SpinSpace(2), 2)
    F = separable(basis.grid, [1.0], SIGMA_MINUS)
    a = annihilate(basis, F).toarray()
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
    a = annihilate(basis, F).toarray()
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
    a = annihilate(basis, cFpG).toarray()
    expected = np.conj(c) * annihilate(basis, F).toarray() + annihilate(basis, G).toarray()
    assert np.allclose(a, expected, atol=1e-13)
    ad = create(basis, cFpG).toarray()
    expected_c = c * create(basis, F).toarray() + create(basis, G).toarray()
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
    assert not np.any(field(basis, zero_form_factor(basis.grid, 2)).toarray())
    F = random_ff(basis.grid, 2, rng)
    phi = field(basis, F).toarray()
    assert np.array_equal(phi, phi.conj().T)


def test_field_vacuum_fluctuation():
    basis = build_basis(grid_of([1.0]), SpinSpace(1), 3)
    F = FormFactor(basis.grid, np.array([1.0]))
    phi = field(basis, F).toarray()
    omega = vacuum(basis)
    assert np.vdot(omega, phi @ (phi @ omega)).real == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------------- function_of_dgamma


def test_function_of_dgamma():
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 3)
    dg = dgamma(basis, basis.grid.omegas).toarray()
    assert np.allclose(function_of_dgamma(basis, lambda E: E).toarray(), dg)
    assert np.allclose(function_of_dgamma(basis, lambda E: 1.0).toarray(), np.eye(basis.dim))
    lam = 0.8
    inv = function_of_dgamma(basis, lambda E: 1.0 / (E + lam)).toarray()
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
        phiF = field(basis, F).toarray()
        phiG = field(basis, G).toarray()
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
    dg = dgamma(basis, basis.grid.omegas).toarray()
    for _ in range(3):
        F = random_ff(basis.grid, spin_dim, rng)
        phi = field(basis, F).toarray()
        omegaF = FormFactor(basis.grid, basis.grid.omegas[:, None, None] * F.values)
        expected = create(basis, omegaF).toarray() - annihilate(basis, omegaF).toarray()
        dev = ((dg @ phi - phi @ dg) - expected)[np.ix_(idx, idx)]
        assert np.max(np.abs(dev)) <= 1e-10


def test_field_relative_bound():
    rng = np.random.default_rng(30)
    basis = build_basis(grid_of([0.6, 1.5, 3.0], mus=[0.7, 1.0, 1.5]), SpinSpace(2), 4)
    dg = dgamma(basis, basis.grid.omegas).toarray()
    half = np.diag(np.sqrt(1.0 + np.diag(dg).real))
    for _ in range(10):
        F = random_ff(basis.grid, 2, rng)
        damped = FormFactor(
            basis.grid, (1.0 + basis.grid.omegas ** (-0.5))[:, None, None] * F.values
        )
        bound = 2.0 * bs_norm(damped, 0.0)
        phi = field(basis, F).toarray()
        for _ in range(10):
            psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            lhs = np.linalg.norm(phi @ psi)
            rhs = bound * np.linalg.norm(half @ psi)
            assert lhs <= rhs * (1 + 1e-9)


# ------------------------------------------------------------ return types


def _spec(grid, B=SIGMA_X, phases=(1, 1, 1)):
    zero = zero_form_factor(grid, 2)
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.multiply([0.3, 0.0, 0.0], phases), B),
        v_d=separable(grid, np.multiply([0.0, 0.3, 0.2], phases), B),
        v_n=zero,
        s_n=1.5,
    )
    return HamiltonianSpec(S=np.diag([-1.0, 1.0]), coupling=coupling, lam=1.0, n_max=3)


# name -> (expected kind, builder of (basis, F, spec))
RETURN_KINDS = {
    "annihilate": ("csr", lambda b, F, spec: annihilate(b, F)),
    "create": ("csr", lambda b, F, spec: create(b, F)),
    "field": ("csr", lambda b, F, spec: field(b, F)),
    "dgamma": ("csr", lambda b, F, spec: dgamma(b, b.grid.omegas)),
    "parity": ("csr", lambda b, F, spec: parity(b)),
    "function_of_dgamma": ("csr", lambda b, F, spec: function_of_dgamma(b, lambda E: E + 1.0)),
    "block_diag_operator": (
        "csr",
        lambda b, F, spec: block_diag_operator(b, np.ones((b.n_fock, 2, 2))),
    ),
    "theta0": ("csr", lambda b, F, spec: theta0(b, F, 1.0)),
    "theta1": ("csr", lambda b, F, spec: theta1(b, F, 1.0)),
    "t_op": ("csr", lambda b, F, spec: t_op(b, F, 1.0)),
    "g_op": ("csr", lambda b, F, spec: g_op(b, F, 1.0)),
    "xi": ("csr", lambda b, F, spec: xi(b, F, F, 1.0)),
    "nilpotent_inverse_left": ("csr", lambda b, F, spec: nilpotent_inverse(b, F, 1.0)[0]),
    "nilpotent_inverse_right": ("csr", lambda b, F, spec: nilpotent_inverse(b, F, 1.0)[1]),
    "weyl": ("ndarray", lambda b, F, spec: weyl(b, F)),
    "h_reg": ("Operator", lambda b, F, spec: h_reg(b, spec.S, spec.coupling.total())),
    "h_cutoff": ("Operator", lambda b, F, spec: h_cutoff(b, spec, 3.0)[0]),
    "h_renormalized": ("Operator", lambda b, F, spec: h_renormalized(b, spec)),
}


@pytest.mark.parametrize("name", list(RETURN_KINDS))
def test_builder_return_types(name):
    # operator builders return CSR matrices, weyl a dense array, and the
    # Hamiltonian builders an Operator whose dense() is its matrix
    grid = grid_of([0.5, 2.0, 4.0], mus=[0.6, 1.0, 1.4])
    basis = build_basis(grid, SpinSpace(2), 3)
    F = separable(grid, [0.0, 0.4, 0.3], SIGMA_MINUS)
    kind, build = RETURN_KINDS[name]
    X = build(basis, F, _spec(grid))
    if kind == "csr":
        assert sp.issparse(X) and X.format == "csr"
    elif kind == "ndarray":
        assert isinstance(X, np.ndarray)
    else:
        assert isinstance(X, Operator) and X.matrix.format == "csr"
        X = X.dense()
        assert isinstance(X, np.ndarray)
    assert X.shape == (basis.dim, basis.dim)


# (spin matrix of F, spin matrix of the spec's coupling, phase of each mode)
DTYPE_CASES = {
    "real": (SIGMA_MINUS, SIGMA_X, (1, 1, 1)),
    "sigma_y": (SIGMA_Y, SIGMA_Y, (1, 1, 1)),
    "complex_profile": (SIGMA_MINUS, SIGMA_X, (1, 1j, 1)),
}
# Real on every case: dgamma and parity take no form factor, and the
# blocks F_i^* F_i = |v_i|^2 B^* B of theta0 are real matrices here.
ALWAYS_REAL = {"dgamma", "parity", "theta0"}
# Real also on sigma_y with a real profile: theta1's blocks F_r^* F_q are
# real multiples of sigma_y^* sigma_y = 1.
REAL_ON_SIGMA_Y = {"theta1", "t_op"}
DTYPE_BUILDERS = [
    "annihilate", "field", "dgamma", "parity", "theta0", "theta1", "t_op",
    "g_op", "xi", "h_reg", "h_cutoff", "h_renormalized", "weyl",
]


@pytest.mark.parametrize("case", list(DTYPE_CASES))
@pytest.mark.parametrize("name", DTYPE_BUILDERS)
def test_builder_dtype_follows_data(name, case):
    # real data is stored as float64, complex data as complex128
    grid = grid_of([0.5, 2.0, 4.0], mus=[0.6, 1.0, 1.4])
    basis = build_basis(grid, SpinSpace(2), 3)
    B_F, B_spec, phases = DTYPE_CASES[case]
    F = separable(grid, np.multiply([0.0, 0.4, 0.3], phases), B_F)
    X = RETURN_KINDS[name][1](basis, F, _spec(grid, B_spec, phases))
    X = X.matrix if isinstance(X, Operator) else X
    real = (
        case == "real"
        or name in ALWAYS_REAL
        or (case == "sigma_y" and name in REAL_ON_SIGMA_Y)
    )
    assert X.dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("omegas, n_max", [([1.0, 2.0, 3.0, 4.0], 6), ([0.5, 1.5], 9)])
def test_lowering_table_children_match_fock_rank(omegas, n_max):
    basis = build_basis(grid_of(omegas), SpinSpace(2), n_max)
    rows, modes, child, amps = basis.lowering_table()
    assert len(rows) == np.count_nonzero(basis.occupations)
    for k in range(len(rows)):
        occ = basis.occupations[rows[k]].copy()
        assert amps[k] == math.sqrt(occ[modes[k]])
        occ[modes[k]] -= 1
        assert child[k] == basis.fock_rank(occ)
