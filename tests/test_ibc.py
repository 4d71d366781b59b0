import numpy as np
import pytest
import scipy.sparse as sp

from sbfock import (
    FormFactor,
    ModeGrid,
    NumericError,
    ParameterError,
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
    build_basis,
    create,
    dgamma,
    field,
    function_of_dgamma,
)
from sbfock.ibc import (
    g_op,
    nilpotent_inverse,
    restricted_block,
    restricted_deviation,
    t_op,
    theta0,
    theta1,
    verify_ibc_bounds,
    xi,
)
from sbfock.renorm import opnorm


def grid_of(omegas, mus=None, kappa=1.0):
    omegas = np.asarray(omegas, dtype=float)
    mus = np.ones_like(omegas) if mus is None else np.asarray(mus, dtype=float)
    return ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=kappa)


def single_mode_setup():
    g = grid_of([1.0], kappa=0.5)
    basis = build_basis(g, SpinSpace(1), 4)
    F = FormFactor(g, np.array([1.0]))
    return g, basis, F


def random_ff(grid, spin_dim, rng, scale=0.3):
    shape = (grid.n_modes, spin_dim, spin_dim)
    return FormFactor(grid, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


def independent_t_oracle(basis, F, lam):
    """a(F)(dGamma+lam)^{-1}a*(F) - <F,F>_{b_1}, assembled from fock primitives."""
    a = annihilate(basis, F).tocsr()
    ad = create(basis, F).tocsr()
    res = function_of_dgamma(basis, lambda E: 1.0 / (E + lam)).tocsr()
    shift = sp.kron(sp.identity(basis.n_fock), sp.csr_matrix(bs_inner(F, F, 1.0)))
    return (a @ res @ ad - shift).tocsr()


# ------------------------------------------------------------------- theta0


def test_theta0_zero():
    g, basis, _ = single_mode_setup()
    Z = zero_form_factor(g, 1)
    assert not np.any(theta0(basis, Z, 1.0).toarray())


def test_theta0_single_mode_values():
    _, basis, F = single_mode_setup()
    th = theta0(basis, F, 1.0).toarray()
    vac = basis.index((0,))
    one = basis.index((1,))
    assert th[vac, vac] == pytest.approx(-0.5, abs=1e-15)
    assert th[one, one] == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_theta0_requires_positive_lambda():
    _, basis, F = single_mode_setup()
    with pytest.raises(ParameterError):
        theta0(basis, F, 0.0)


# ------------------------------------------------------------------- theta1


def test_theta1_zero_cases():
    g, basis, F = single_mode_setup()
    assert not np.any(theta1(basis, zero_form_factor(g, 1), 1.0).toarray())
    th = theta1(basis, F, 1.0).toarray()
    vac = basis.index((0,))
    assert not np.any(th[:, vac])  # annihilator hits the vacuum


def test_theta1_single_mode_value():
    _, basis, F = single_mode_setup()
    th = theta1(basis, F, 1.0).toarray()
    one = basis.index((1,))
    assert th[one, one] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_theta1_preserves_boson_number():
    rng = np.random.default_rng(0)
    g = grid_of([0.8, 1.9])
    basis = build_basis(g, SpinSpace(2), 3)
    F = random_ff(g, 2, rng)
    th = theta1(basis, F, 1.0).toarray()
    for i in range(basis.dim):
        for j in range(basis.dim):
            if abs(th[i, j]) > 0:
                assert basis.totals[i // 2] == basis.totals[j // 2]


def one_shot_theta1(basis, F, lam):
    # theta1 with the COO triplets of every mode's term staged and summed
    # in one conversion, as it was assembled before the row blocks
    from sbfock.fock import _entries, spin_operator

    ad_full = create(basis, F)
    omegas, mus = basis.grid.omegas, basis.grid.mus
    rows_acc, cols_acc, data_acc = [], [], []
    for r in range(basis.grid.n_modes):
        fr_star = F.values[r].conj().T
        if not np.any(fr_star):
            continue
        a_r = basis.mode_lowering(r)
        if a_r.nnz == 0:
            continue
        right = ad_full @ spin_operator(basis, np.eye(basis.spin.dim), a_r)
        if right.nnz == 0:
            continue
        diag_vals = np.sqrt(mus[r]) / (basis.energies + omegas[r] + lam)
        term = (spin_operator(basis, fr_star, sp.diags(diag_vals)) @ right).tocoo()
        rows_acc.append(term.row)
        cols_acc.append(term.col)
        data_acc.append(term.data)
    if not rows_acc:
        return sp.csr_matrix((basis.dim, basis.dim))
    mat = sp.csr_matrix(
        (_entries(np.concatenate(data_acc)), (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(basis.dim, basis.dim),
    )
    mat.sum_duplicates()
    return mat


@pytest.mark.parametrize("spin", ["scalar", "sigma_minus", "sigma_y", "complex"])
def test_theta1_in_row_blocks_equals_one_shot_bitwise(spin, monkeypatch):
    import sbfock.ibc as ibc
    from sbfock import SIGMA_Y
    from sbfock._solvers import row_blocks

    rng = np.random.default_rng(11)
    g = grid_of(np.geomspace(0.6, 9.0, 7))
    spin_dim = 1 if spin == "scalar" else 2
    profile = rng.uniform(0.2, 1.0, g.n_modes)
    if spin == "scalar":
        F = FormFactor(g, profile)
    elif spin == "complex":
        F = random_ff(g, 2, rng)
    else:
        F = separable(g, profile, SIGMA_MINUS if spin == "sigma_minus" else SIGMA_Y)
    basis = build_basis(g, SpinSpace(spin_dim), 4)
    blocks = []

    def recording(*args):
        blocks.extend(row_blocks(*args))
        return row_blocks(*args)

    monkeypatch.setattr(ibc, "row_blocks", recording)
    got = theta1(basis, F, 0.7)
    want = one_shot_theta1(basis, F, 0.7)
    assert len(blocks) > 3  # the terms were summed in several row blocks
    assert got.dtype == want.dtype
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# --------------------------------------------------------------------- t_op


def test_t_op_single_mode_value():
    _, basis, F = single_mode_setup()
    T = t_op(basis, F, 1.0).toarray()
    one = basis.index((1,))
    assert T[one, one] == pytest.approx(-1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("spin_dim", [1, 2, 4])
@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0])
def test_t_op_normal_ordering_oracle(spin_dim, lam):
    rng = np.random.default_rng(17 + spin_dim)
    g = grid_of([0.7, 1.3, 2.4], mus=[0.5, 1.0, 1.5])
    basis = build_basis(g, SpinSpace(spin_dim), 5)
    for _ in range(3):
        F = random_ff(g, spin_dim, rng)
        T = t_op(basis, F, lam)
        oracle = independent_t_oracle(basis, F, lam)
        assert restricted_deviation(basis, T, oracle, basis.n_max - 2) <= 1e-10


def test_t_op_selfadjoint_below_edge():
    rng = np.random.default_rng(5)
    g = grid_of([0.7, 1.3, 2.4])
    basis = build_basis(g, SpinSpace(2), 4)
    F = random_ff(g, 2, rng)
    block = restricted_block(basis, t_op(basis, F, 1.0), basis.n_max - 2)
    assert np.max(np.abs(block - block.conj().T)) <= 1e-13


# --------------------------------------------------------------------- g_op


def test_g_op_zero_and_lambda_guard():
    g, basis, F = single_mode_setup()
    assert not np.any(g_op(basis, zero_form_factor(g, 1), 1.0).toarray())
    with pytest.raises(ParameterError):
        g_op(basis, F, -1.0)


def test_g_op_nilpotent_square_is_zero():
    g = grid_of([1.5, 3.0])
    basis = build_basis(g, SpinSpace(2), 3)
    F = separable(g, [0.7, 0.4], SIGMA_MINUS)
    G = g_op(basis, F, 1.0).tocsr()
    sq = (G @ G).tocsr()
    sq.eliminate_zeros()
    assert sq.nnz == 0


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_g_op_norm_bound(s, lam):
    rng = np.random.default_rng(11)
    g = grid_of([0.8, 1.4, 2.7], mus=[0.6, 1.0, 1.3])
    basis = build_basis(g, SpinSpace(2), 4)
    for _ in range(3):
        F = random_ff(g, 2, rng, scale=0.7)
        G = g_op(basis, F, lam)
        assert opnorm(G) <= bs_norm(F, s) * lam ** ((s - 2.0) / 2.0) * (1 + 1e-9)


# --------------------------------------------------------- nilpotent_inverse


def test_nilpotent_inverse_zero():
    g, basis, _ = single_mode_setup()
    L, R = nilpotent_inverse(basis, zero_form_factor(g, 1), 1.0)
    assert np.allclose(L.toarray(), np.eye(basis.dim))
    assert np.allclose(R.toarray(), np.eye(basis.dim))


def test_nilpotent_inverse_sigma_minus():
    g = grid_of([1.5, 3.0])
    basis = build_basis(g, SpinSpace(2), 3)
    F = separable(g, [0.9, 0.5], SIGMA_MINUS)
    L, R = nilpotent_inverse(basis, F, 1.0)
    G = g_op(basis, F, 1.0).toarray()
    eye = np.eye(basis.dim)
    assert np.max(np.abs((eye + G) @ L.toarray() - eye)) <= 1e-13
    assert np.max(np.abs((eye + G.conj().T) @ R.toarray() - eye)) <= 1e-13


def test_nilpotent_inverse_rejects_sigma_x():
    g = grid_of([1.5])
    basis = build_basis(g, SpinSpace(2), 2)
    F = separable(g, [1.0], SIGMA_X)
    with pytest.raises(StructuralError):
        nilpotent_inverse(basis, F, 1.0)


# ----------------------------------------------------------------------- xi


def test_xi_zero_coupling_is_free_energy():
    g = grid_of([0.8, 1.9])
    basis = build_basis(g, SpinSpace(2), 3)
    Z = zero_form_factor(g, 2)
    lam = 1.3
    X = xi(basis, Z, Z, lam).toarray()
    expected = dgamma(basis, g.omegas).toarray()
    assert np.allclose(X, expected, atol=1e-14)


def h_reg_inline(basis, V):
    """dGamma(omega) + phi(V), assembled directly from fock primitives."""
    return (dgamma(basis, basis.grid.omegas).tocsr() + field(basis, V).tocsr()).tocsr()


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 1e6, 1e9])
def test_xi_boundary_identity_nilpotent(lam):
    g = grid_of([0.7, 1.3, 2.4], mus=[0.5, 1.0, 1.5])
    basis = build_basis(g, SpinSpace(2), 5)
    VN = separable(g, [0.0, 0.8, 0.5], SIGMA_MINUS)
    X = xi(basis, VN, VN, lam)
    target = h_reg_inline(basis, VN).tocsr() + sp.kron(
        sp.identity(basis.n_fock), sp.csr_matrix(bs_inner(VN, VN, 1.0))
    )
    assert restricted_deviation(basis, X, target.tocsr(), basis.n_max - 2) <= 1e-10


def test_xi_lambda_consistency_of_spectra():
    g = grid_of([0.7, 1.3, 2.4], mus=[0.5, 1.0, 1.5])
    basis = build_basis(g, SpinSpace(2), 5)
    VN = separable(g, [0.0, 0.8, 0.5], SIGMA_MINUS)
    m = basis.n_max - 2
    spectra = []
    for lam in (1.0, 3.0):
        block = restricted_block(basis, xi(basis, VN, VN, lam), m)
        assert np.max(np.abs(block - block.conj().T)) <= 1e-12
        spectra.append(np.linalg.eigvalsh((block + block.conj().T) / 2))
    assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-8


def test_lower_semibounded_core():
    # dGamma + lam - T_V has positive restricted block for small b_2 coupling
    rng = np.random.default_rng(23)
    g = grid_of([1.2, 1.9, 3.5])
    basis = build_basis(g, SpinSpace(2), 4)
    for _ in range(5):
        V = random_ff(g, 2, rng, scale=1.0)
        scale = 0.4 / bs_norm(V, 2.0)
        V = FormFactor(g, V.values * scale)
        lam = 1.0
        core = (
            dgamma(basis, g.omegas).tocsr()
            + lam * sp.identity(basis.dim, format="csr")
            - t_op(basis, V, lam).tocsr()
        )
        block = restricted_block(basis, core.tocsr(), basis.n_max - 2)
        evals = np.linalg.eigvalsh((block + block.conj().T) / 2)
        assert evals[0] > 0


# ------------------------------------------------------------------- bounds


def test_verify_ibc_bounds_zero_case():
    g = grid_of([1.5, 3.0])
    basis = build_basis(g, SpinSpace(2), 3)
    Z = zero_form_factor(g, 2)
    suite = verify_ibc_bounds(basis, Z, Z, 1.0, 1.5)
    assert suite.passed
    assert suite.worst() == 0.0


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
def test_verify_ibc_bounds_random(s):
    rng = np.random.default_rng(31)
    g = grid_of([0.7, 1.4, 2.8], mus=[0.6, 1.0, 1.5])
    basis = build_basis(g, SpinSpace(2), 4)
    vhi = np.where(g.omegas > 1.0, 0.6 * rng.standard_normal(3), 0.0)
    F = separable(g, vhi, SIGMA_MINUS)
    V = random_ff(g, 2, rng, scale=0.4)
    suite = verify_ibc_bounds(basis, F, V, 1.0, s)
    assert suite.passed


def test_verify_ibc_bounds_skips_domain_checks_without_nilpotency():
    g = grid_of([1.5, 3.0])
    basis = build_basis(g, SpinSpace(2), 3)
    F = separable(g, [0.5, 0.5], SIGMA_X)
    suite = verify_ibc_bounds(basis, F, F, 1.0, 1.5)
    skipped = [r for r in suite.results if r.skipped]
    assert {r.name for r in skipped} == {"ir_sector_invariance", "fractional_domain_bound"}
