import numpy as np
import pytest
import scipy.sparse as sp

from sbfock import (
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    NumericError,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    SpinSpace,
    StructuralError,
    bs_inner,
    renorm_energy,
    separable,
    zero_form_factor,
)
from sbfock.fock import Operator, annihilate, build_basis, create, dgamma, field
from sbfock.ibc import restricted_block, restricted_deviation
import sbfock.renorm as renorm
from sbfock.renorm import (
    HamiltonianSpec,
    ConvergenceReport,
    convergence_study,
    ground_energy,
    h_reg,
    h_renormalized,
    opnorm,
    vanhove_demo,
    verify_transformed_operator_identities,
)


def grid_of(omegas, mus=None, kappa=1.0):
    omegas = np.asarray(omegas, dtype=float)
    mus = np.ones_like(omegas) if mus is None else np.asarray(mus, dtype=float)
    return ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=kappa)


def make_spec(grid, v_le, B_le, v_d, B_D, v_n, B_N, dim, lam=1.0, n_max=6, S=None):
    zero = zero_form_factor(grid, dim)
    coupling = CouplingDecomposition(
        v_le=separable(grid, v_le, B_le) if B_le is not None else zero,
        v_d=separable(grid, v_d, B_D) if B_D is not None else zero,
        v_n=separable(grid, v_n, B_N) if B_N is not None else zero,
        s_n=1.5,
    )
    if S is None:
        S = np.diag(np.linspace(-1.0, 1.0, dim))
    return HamiltonianSpec(S=S, coupling=coupling, lam=lam, n_max=n_max)


# -------------------------------------------------------------------- h_reg


def test_h_reg_free_case():
    g = grid_of([0.8, 1.9])
    basis = build_basis(g, SpinSpace(1), 3)
    H = h_reg(basis, np.zeros((1, 1)), zero_form_factor(g, 1))
    assert np.allclose(H.dense(), dgamma(basis, g.omegas).dense())


def test_h_reg_van_hove_ground_energy():
    # one mode omega=2, mu=1, v=1: ground energy -|v|^2 mu / omega = -1/2
    g = grid_of([2.0], kappa=0.5)
    basis = build_basis(g, SpinSpace(1), 14)
    H = h_reg(basis, np.zeros((1, 1)), FormFactor(g, np.array([1.0])))
    assert ground_energy(H) == pytest.approx(-0.5, abs=1e-8)


def test_h_reg_matches_two_level_assembly():
    # A (x) Id + Id (x) dGamma + B* (x) a(v) + B (x) a*(v), via fock primitives
    g = grid_of([0.7, 1.6, 3.0], mus=[0.5, 1.2, 0.9])
    basis = build_basis(g, SpinSpace(2), 4)
    v = np.array([0.4, 0.7, 0.2])
    A, B = SIGMA_Z, SIGMA_X
    V = separable(g, v, B)
    H = h_reg(basis, A, V).dense()
    a_sc = annihilate(build_basis(g, SpinSpace(1), 4), FormFactor(g, v)).tocsr()
    eye_f = sp.identity(basis.n_fock, format="csr")
    direct = (
        sp.kron(eye_f, sp.csr_matrix(A))
        + dgamma(basis, g.omegas).tocsr()
        + sp.kron(a_sc, sp.csr_matrix(B.conj().T))
        + sp.kron(a_sc.conj().T, sp.csr_matrix(B))
    )
    assert np.max(np.abs(H - direct.toarray())) <= 1e-14


def test_h_reg_ground_below_vacuum_rayleigh():
    g = grid_of([0.7, 1.6], mus=[0.5, 1.2])
    basis = build_basis(g, SpinSpace(2), 5)
    V = separable(g, [0.5, 0.3], SIGMA_X)
    H = h_reg(basis, SIGMA_Z, V)
    g0 = ground_energy(H)
    Hd = H.dense()
    for psi_spin in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)):
        vec = np.zeros(basis.dim, dtype=complex)
        vec[0:2] = psi_spin  # vacuum occupation block
        assert g0 <= np.vdot(vec, Hd @ vec).real + 1e-12


# ----------------------------------------------------------- h_renormalized


def test_h_renormalized_zero_coupling():
    g = grid_of([0.8, 1.9])
    spec = make_spec(g, None, None, None, None, None, None, dim=2, n_max=3)
    basis = build_basis(g, SpinSpace(2), 3)
    H = h_renormalized(basis, spec)
    expected = h_reg(basis, spec.S, zero_form_factor(g, 2)).dense()
    assert np.max(np.abs(H.dense() - expected)) <= 1e-12


def renorm_identity_deviation(spec, m_off):
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    H = h_renormalized(basis, spec)
    V = spec.coupling.total()
    target = Operator(
        basis,
        (
            h_reg(basis, spec.S, V).tocsr()
            + sp.kron(sp.identity(basis.n_fock), sp.csr_matrix(renorm_energy(V)))
        ).tocsr(),
    )
    return restricted_deviation(H, target, spec.n_max - m_off)


def test_h_renormalized_pure_nilpotent_identity():
    g = grid_of([0.5, 2.0, 4.0], mus=[0.6, 1.0, 1.4])
    spec = make_spec(
        g, [0.5, 0, 0], SIGMA_MINUS, None, None, [0, 0.8, 0.5], SIGMA_MINUS, dim=2, n_max=6
    )
    assert renorm_identity_deviation(spec, 2) <= 1e-10


def test_h_renormalized_pure_normal_identity():
    g = grid_of([0.5, 2.0, 4.0], mus=[0.6, 1.0, 1.4])
    spec = make_spec(
        g, [0.3, 0, 0], SIGMA_X, [0, 0.3, 0.3], SIGMA_X, None, None, dim=2, n_max=10
    )
    assert renorm_identity_deviation(spec, 5) <= 1e-7


def test_h_renormalized_rejects_bad_structure():
    g = grid_of([0.5, 2.0])
    spec_args = dict(dim=2, n_max=4)
    with pytest.raises(StructuralError):
        spec = make_spec(g, None, None, [0, 0.5], SIGMA_MINUS, None, None, **spec_args)
        basis = build_basis(g, SpinSpace(2), 4)
        h_renormalized(basis, spec)


def test_h_renormalized_admissibility_gate_message():
    g = grid_of([1.5], kappa=1.0)
    big = separable(g, [3.0], SIGMA_MINUS)  # b_2 norm 3/1.5 = 2 > 1/2
    coupling = CouplingDecomposition(
        v_le=zero_form_factor(g, 2),
        v_d=zero_form_factor(g, 2),
        v_n=big,
        s_n=2.0,
    )
    spec = HamiltonianSpec(S=np.zeros((2, 2)), coupling=coupling, lam=1.0, n_max=3)
    basis = build_basis(g, SpinSpace(2), 3)
    with pytest.raises(StructuralError, match="infrared threshold"):
        h_renormalized(basis, spec)


def test_h_renormalized_lambda_independence():
    g = grid_of([0.5, 2.0, 4.0], mus=[0.6, 1.0, 1.4])
    spectra = []
    for lam in (0.5, 1.0, 2.0):
        spec = make_spec(
            g, [0.5, 0, 0], SIGMA_MINUS, None, None, [0, 0.8, 0.5], SIGMA_MINUS,
            dim=2, n_max=6, lam=lam,
        )
        basis = build_basis(g, SpinSpace(2), 6)
        block = restricted_block(h_renormalized(basis, spec), 4)
        spectra.append(np.linalg.eigvalsh((block + block.conj().T) / 2))
    assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-7
    assert np.max(np.abs(spectra[0] - spectra[2])) <= 1e-7


def test_assembled_hamiltonians_selfadjoint():
    g = grid_of([0.5, 2.0, 4.0], mus=[0.6, 1.0, 1.4])
    spec = make_spec(
        g, [0.3, 0, 0], SIGMA_X, [0, 0.3, 0.2], SIGMA_X, None, None, dim=2, n_max=8
    )
    basis = build_basis(g, SpinSpace(2), 8)
    for H in (h_reg(basis, spec.S, spec.coupling.total()), h_renormalized(basis, spec)):
        mat = H.dense()
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12


# ------------------------------------------------------------------- opnorm


def test_opnorm_trivial():
    assert opnorm(np.eye(5, dtype=complex)) == pytest.approx(1.0, rel=1e-8)
    assert opnorm(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0, rel=1e-8)


def test_opnorm_matches_svd():
    rng = np.random.default_rng(9)
    for n in (40, 200):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        exact = np.linalg.norm(A, 2)
        assert opnorm(A) == pytest.approx(exact, rel=1e-7)


def test_opnorm_nonconvergence_reports_best_estimate():
    A = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # non-normal, slow drift
    with pytest.raises(NumericError) as err:
        opnorm(A, rel_tol=0.0, max_iter=3)
    assert err.value.best_estimate is not None


def _verify_bound_operator(config, which):
    """G = a(v_N)(dGamma + lambda)^{-1} or T_V (dGamma + lambda)^{-1}, as
    the `verify` bound suite builds them from a shipped config."""
    from pathlib import Path

    from sbfock.cli import parse_config
    from sbfock.ibc import g_op, t_op

    spec, _, _ = parse_config(Path(__file__).resolve().parents[1] / "configs" / config)
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    if which == "G":
        return g_op(basis, spec.coupling.v_n, spec.lam).tocsr()
    res = 1.0 / (np.repeat(basis.energies, basis.spin.dim) + spec.lam)
    return t_op(basis, spec.coupling.total(), spec.lam).tocsr().multiply(res[None, :]).tocsr()


def _gapped_matrix(gap, n=60, seed=0):
    """Random n x n matrix with singular values 1, 1 - gap, 0.9, ..., 0.01."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    svals = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.9, 0.01, n - 2)])
    return (q1 * svals) @ q2.conj().T


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _verify_bound_operator("ex2_default.json", "G"), id="ex2_G"),
        pytest.param(lambda: _verify_bound_operator("ex2_default.json", "T"), id="ex2_T"),
        pytest.param(
            lambda: _verify_bound_operator("converge_supercritical.json", "T"), id="supercritical_T"
        ),
        pytest.param(lambda: _gapped_matrix(1e-3), id="gap_1e-3"),
        pytest.param(lambda: _gapped_matrix(1e-5), id="gap_1e-5"),
        pytest.param(lambda: _gapped_matrix(1e-7), id="gap_1e-7"),
        # ex1 has no 2-nilpotent part, so G is exactly zero
        pytest.param(lambda: _verify_bound_operator("ex1_dressing.json", "G"), id="ex1_G_zero"),
    ],
)
def test_opnorm_matches_dense_svd_to_1e9(make):
    A = make()
    exact = np.linalg.norm(A.toarray() if sp.issparse(A) else A, 2)
    assert opnorm(A) == pytest.approx(exact, rel=1e-9, abs=0)


# ------------------------------------------------------------ ground_energy


def test_ground_energy_trivial_and_guards():
    g = grid_of([1.0, 2.0])
    basis = build_basis(g, SpinSpace(1), 3)
    assert ground_energy(dgamma(basis, g.omegas)) == pytest.approx(0.0, abs=1e-12)
    bad = Operator(basis, np.triu(np.ones((basis.dim, basis.dim))) + 0j)
    with pytest.raises(StructuralError):
        ground_energy(bad)


def test_ground_energy_large_path_matches_closed_form():
    # scalar two-mode van Hove above the dense cap: exact value -sum mu v^2/omega
    g = grid_of([1.0, 2.0], mus=[1.0, 1.0], kappa=0.5)
    basis = build_basis(g, SpinSpace(1), 100)
    assert basis.dim > 4096
    v = np.array([0.5, 0.3])
    H = h_reg(basis, np.zeros((1, 1)), FormFactor(g, v))
    expected = -(0.25 / 1.0 + 0.09 / 2.0)
    assert ground_energy(H) == pytest.approx(expected, abs=1e-9)


def test_ground_energy_rotating_wave_singleton_is_python_float():
    # sigma_minus coupling leaves vacuum x spin-down decoupled at energy -1,
    # below every other component of this weakly coupled model
    g = grid_of([1.0, 2.0, 3.0, 4.0], mus=[1.0, 1.0, 1.0, 1.0])
    basis = build_basis(g, SpinSpace(2), 13)
    assert basis.dim > 4096
    H = h_reg(basis, SIGMA_Z.real, separable(g, np.full(4, 0.3), SIGMA_MINUS))
    assert repr(ground_energy(H)) == "-1.0"


def test_ground_energy_permuted_blocks_match_dense():
    # singletons and components on both sides of the Gershgorin cut, with
    # the minimum inside a component, scrambled by a random permutation
    rng = np.random.default_rng(5)
    g = grid_of([1.0, 2.0])
    basis = build_basis(g, SpinSpace(1), 9)
    blocks = [np.array([[d]]) for d in (0.5, -0.2, 3.0, 7.0)]
    for size, shift in ((3, -2.0), (5, -0.5), (4, 0.1), (6, 4.0), (2, 9.0)):
        X = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        blocks.append(0.3 * (X + X.conj().T) + shift * np.eye(size))
    sizes = sum(len(b) for b in blocks)
    blocks += [np.array([[1.0 + k]]) for k in range(basis.dim - sizes)]
    dense = sp.block_diag(blocks).toarray()
    perm = rng.permutation(basis.dim)
    dense = dense[perm][:, perm]
    H = Operator(basis, sp.csr_matrix(dense))
    assert ground_energy(H) == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)


def count_eigensolves(monkeypatch, fail=False):
    """Count (or, with ``fail``, forbid) the eigensolves of ground_energy."""
    import scipy.sparse.linalg as spla

    calls = []
    for module, name in ((np.linalg, "eigvalsh"), (spla, "eigsh")):
        original = getattr(module, name)

        def wrapped(*args, _original=original, _name=name, **kwargs):
            if fail:
                raise AssertionError(f"{_name} called")
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("cap", [None, 12])
def test_ground_energy_certifies_components_without_eigensolves(monkeypatch, cap):
    # rotating-wave model: its components (5, 14 and 30 states) have
    # Gershgorin bounds below the decoupled -1 singleton but lie above it,
    # so inertia alone proves -1 the minimum; cap=12 puts the 14-state
    # component on the Schur path
    from sbfock import _solvers

    g = grid_of([1.0, 1.5, 2.0, 2.5])
    basis = build_basis(g, SpinSpace(2), 5)
    H = h_reg(basis, SIGMA_Z.real, separable(g, np.full(4, 0.8), SIGMA_MINUS))
    expected = np.linalg.eigvalsh(H.dense())[0]
    schur_calls = []
    if cap is not None:
        monkeypatch.setattr(_solvers, "DENSE_SOLVE_CAP", cap)
        complement = _solvers.schur_complement

        def counted(*args):
            schur_calls.append(args[0].shape[0])
            return complement(*args)

        monkeypatch.setattr(_solvers, "schur_complement", counted)
    count_eigensolves(monkeypatch, fail=True)
    assert ground_energy(H) == -1.0 == pytest.approx(expected, abs=1e-12)
    assert (cap is None) == (not schur_calls)


def block_and_singletons(block, singles):
    """``block`` on the first states of a one-mode basis (boson number =
    index, so its last state is the block's top sector), then diagonal
    singletons."""
    basis = build_basis(grid_of([1.0]), SpinSpace(1), len(block) + len(singles) - 1)
    return Operator(basis, sp.block_diag([block, np.diag(singles)], format="csr"))


def chain(diag, hop):
    n = len(diag)
    return np.diag(np.asarray(diag, dtype=complex)) + np.diag(np.full(n - 1, hop), 1) + np.diag(
        np.full(n - 1, np.conj(hop)), -1
    )


def near_minimum_block():
    # complex Hermitian, lambda_min = -1 + 3e-13: above the singleton at -1,
    # but inside the (n+1)^2 eps ||H_c + 1||_inf ~ 6e-12 Cholesky margin
    rng = np.random.default_rng(0)
    n = 60
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    X = (Q * np.concatenate([[-1 + 3e-13], np.linspace(0.0, 2.0, n - 1)])) @ Q.conj().T
    return (X + X.conj().T) / 2


@pytest.mark.parametrize(
    "block, cap",
    [
        pytest.param(near_minimum_block(), None, id="within_margin"),
        # diagonal 0 above -1, lambda_min = -1.6 cos(pi/12) below it: the
        # Schur complement fails Cholesky
        pytest.param(chain(np.zeros(11), 0.8).real, 4, id="below"),
        # top (eliminated) diagonal -1.2 <= -1, where the Schur complement
        # alone would be positive definite
        pytest.param(chain([0.0] * 10 + [-1.2], 0.3 + 0.1j), 4, id="nonpositive_eliminated"),
    ],
)
def test_ground_energy_uncertified_components_are_eigensolved(monkeypatch, block, cap):
    from sbfock import _solvers

    H = block_and_singletons(block, [-1.0, 3.0, 5.0])
    expected = np.linalg.eigvalsh(H.dense())[0]
    if cap is not None:
        monkeypatch.setattr(_solvers, "DENSE_SOLVE_CAP", cap)
    calls = count_eigensolves(monkeypatch)
    assert ground_energy(H) == pytest.approx(expected, abs=1e-12)
    assert calls == ["eigvalsh" if cap is None else "eigsh"]


# ------------------------------------------------------- convergence_study


def test_convergence_study_constant_below_first_cutoff():
    # coupling supported below the first cutoff: distances constant at the
    # truncation floor
    g = grid_of([0.6, 0.9], mus=[0.4, 0.5], kappa=1.0)
    spec = make_spec(
        g, [0.4, 0.3], SIGMA_MINUS, None, None, None, None, dim=2, n_max=5, S=SIGMA_Z.real
    )
    rep = convergence_study(spec, [2.0, 4.0, 8.0], decay_threshold=2.0)
    d = [r.resolvent_distance for r in rep.rows]
    assert max(d) - min(d) <= 1e-9
    assert rep.nonincreasing_ok


def test_convergence_study_schedule_must_increase():
    g = grid_of([0.6, 0.9])
    spec = make_spec(g, [0.4, 0.3], SIGMA_MINUS, None, None, None, None, dim=2, n_max=3)
    with pytest.raises(StructuralError):
        convergence_study(spec, [2.0, 2.0])


@pytest.mark.slow
def test_convergence_study_normal_route_dense():
    # two-level system with a normal coupling, dressing route, critical decay
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(0.0, 1.0, 16.0, 6)
    om = grid.omegas
    scale = 0.1
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.where(om <= 1, v, 0) * scale, SIGMA_X),
        v_d=separable(grid, np.where(om > 1, v, 0) * scale, SIGMA_X),
        v_n=zero_form_factor(grid, 2),
        s_n=1.5,
    )
    spec = HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=1.0, n_max=5)
    rep = convergence_study(spec, [2.0, 4.0, 8.0, 16.0])
    assert rep.passed, [r.resolvent_distance for r in rep.rows]


@pytest.mark.slow
def test_convergence_study_supercritical_fails_by_design():
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(-0.5, 1.0, 16.0, 8)
    om = grid.omegas
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.where(om <= 1, v, 0), SIGMA_X),
        v_d=separable(grid, np.where(om > 1, v, 0), SIGMA_X),
        v_n=zero_form_factor(grid, 2),
        s_n=1.5,
    )
    spec = HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=1.0, n_max=4)
    rep = convergence_study(spec, [2.0, 4.0, 8.0, 16.0])
    assert not rep.passed
    assert rep.rows[-1].resolvent_distance > 0.5  # distance pinned away from zero


def supercritical_spec():
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(-0.5, 1.0, 16.0, 8)
    om = grid.omegas
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.where(om <= 1, v, 0), SIGMA_X),
        v_d=separable(grid, np.where(om > 1, v, 0), SIGMA_X),
        v_n=zero_form_factor(grid, 2),
        s_n=1.5,
    )
    return HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=1.0, n_max=4)


def boundary_route_spec(n_max=4):
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(0.0, 1.0, 16.0, 6)
    om = grid.omegas
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.where(om <= 1, v, 0), SIGMA_MINUS),
        v_d=zero_form_factor(grid, 2),
        v_n=separable(grid, np.where(om > 1, v, 0), SIGMA_MINUS),
        s_n=1.5,
    )
    return HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=1.0, n_max=n_max)


def dense_resolvent_distances(spec, schedule, z=1j):
    from sbfock.model import uv_truncate

    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    eye = np.eye(basis.dim)
    R_lim = np.linalg.inv(h_renormalized(basis, spec).dense() - z * eye)
    out = []
    for Lam in schedule:
        V_L = uv_truncate(spec.coupling.total(), Lam)
        H_L = h_reg(basis, spec.S, V_L).dense() + np.kron(np.eye(basis.n_fock), renorm_energy(V_L))
        out.append(float(np.linalg.norm(np.linalg.inv(H_L - z * eye) - R_lim, 2)))
    return out


@pytest.mark.parametrize(
    "make",
    [
        boundary_route_spec,
        supercritical_spec,
        # dimension 2: below what ARPACK accepts for one eigenvalue
        pytest.param(lambda: boundary_route_spec(n_max=0), id="vacuum_only"),
    ],
)
def test_convergence_study_distances_match_dense_svd(make):
    spec = make()
    schedule = [2.0, 4.0, 8.0, 16.0]
    assert build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max).dim <= 1000
    rep = convergence_study(spec, schedule)
    got = [r.resolvent_distance for r in rep.rows]
    assert got == pytest.approx(dense_resolvent_distances(spec, schedule), rel=0, abs=1e-9)


def rotating_wave_spec():
    # lambda = 1e5 rotating-wave model: at the last cutoff every block of D
    # is proved below the largest singleton entry
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(0.0, 1.0, 16.0, 4)
    om = grid.omegas
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.where(om <= 1, v, 0), SIGMA_MINUS),
        v_d=zero_form_factor(grid, 2),
        v_n=separable(grid, np.where(om > 1, v, 0), SIGMA_MINUS),
        s_n=1.5,
    )
    return HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=1e5, n_max=3)


def test_convergence_study_all_pruned_cutoff_needs_no_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a pruned cutoff must not solve")

    spec = rotating_wave_spec()
    monkeypatch.setattr(renorm, "_top_singular", forbidden)
    monkeypatch.setattr(renorm, "StructuredResolvent", forbidden)
    rep = convergence_study(spec, [16.0])
    [expected] = dense_resolvent_distances(spec, [16.0])
    assert rep.rows[0].resolvent_distance == pytest.approx(expected, rel=0, abs=1e-12)


def test_convergence_study_mixed_pruned_and_visited_blocks(monkeypatch):
    spec = rotating_wave_spec()
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    sizes = []

    def recording(H, *args):
        sizes.append(H.shape[0])
        return renorm._solvers.StructuredResolvent(H, *args)

    monkeypatch.setattr(renorm, "StructuredResolvent", recording)
    schedule = [2.0, 8.0, 16.0]
    rep = convergence_study(spec, schedule)
    got = [r.resolvent_distance for r in rep.rows]
    assert got == pytest.approx(dense_resolvent_distances(spec, schedule), rel=0, abs=1e-9)
    # some blocks were solved, but not all of them
    assert sizes and all(0 < n < basis.dim for n in sizes)


def random_block_pair(rng, components, n, kind, dtype, skew, z):
    """H_lim and H_L with the block pattern ``components``; H_lim carries
    a real antisymmetric part of size ``skew``.  ``tight``: the spectrum of
    H_lim clusters at Re z and H_L = H_lim - 1e-3, where the bounds are
    nearly attained."""

    def hermitian(k, scale):
        X = rng.standard_normal((k, k)).astype(dtype)
        if dtype is complex:
            X += 1j * rng.standard_normal((k, k))
        return scale * (X + X.conj().T) / 2

    H_lim = np.zeros((n, n), dtype=complex)
    H_L = np.zeros((n, n), dtype=complex)
    for idx in components:
        k = len(idx)
        block = np.ix_(idx, idx)
        anti = rng.standard_normal((k, k))
        if kind == "tight":
            H_lim[block] = z.real * np.eye(k) + hermitian(k, 0.01) + skew * (anti - anti.T)
            H_L[block] = H_lim[block] - 1e-3 * np.eye(k)
            continue
        scale = 0.05 if kind == "dominant" else 1.0
        H_lim[block] = hermitian(k, scale)
        if kind == "dominant":
            H_lim[idx, idx] += rng.choice([-1.0, 1.0], k) * rng.uniform(5.0, 10.0, k)
        H_L[block] = H_lim[block] + hermitian(k, scale)
        H_lim[block] += skew * (anti - anti.T)
    return H_lim, H_L


@pytest.mark.parametrize("z", [1j, 0.3 + 0.5j])
@pytest.mark.parametrize("kind", ["dominant", "not_dominant", "tight"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("skew", [0.0, 1e-3], ids=["hermitian", "skew"])
def test_block_bounds_dominate_dense_block_norms(z, kind, dtype, skew):
    rng = np.random.default_rng(7)
    sizes = [2, 3, 5, 8, 13, 21]
    n = sum(sizes)
    components = [np.sort(idx) for idx in np.split(rng.permutation(n), np.cumsum(sizes)[:-1])]
    for _ in range(5):
        H_lim, H_L = random_block_pair(rng, components, n, kind, dtype, skew, z)
        defects = [float(np.max(np.abs(H - H.conj().T))) for H in (H_lim, H_L)]
        u = renorm._block_bounds(sp.csr_matrix(H_lim), sp.csr_matrix(H_L), z, components, *defects)
        for idx, u_c in zip(components, u):
            block = np.ix_(idx, idx)
            eye = np.eye(len(idx))
            D_c = np.linalg.inv(H_L[block] - z * eye) - np.linalg.inv(H_lim[block] - z * eye)
            norm = np.linalg.norm(D_c, 2)
            assert norm * (1 - 1e-12) <= u_c < np.inf
            if kind == "dominant":  # the Neumann bound B2 is below ||dH_c|| / |Im z|^2 <= B1
                dH = H_lim[block] - H_L[block]
                assert u_c < np.linalg.norm(dH, 2) / z.imag**2
            if kind == "tight" and not skew:
                assert u_c <= 1.01 * norm


def test_convergence_study_lanczos_nonconvergence_raises():
    # one ARPACK restart does not resolve the clustered top singular values
    with pytest.raises(NumericError, match="did not converge"):
        convergence_study(supercritical_spec(), [2.0], opnorm_max_iter=1)


def test_convergence_study_zero_distance_passes():
    # no coupling and dyadic frequencies: H_Lambda and H_lim are the same
    # diagonal matrix, so D = 0 and Lanczos has no Krylov space to build
    g = grid_of([0.5, 2.0, 4.0], mus=[0.5, 1.0, 1.0])
    spec = make_spec(g, None, None, None, None, None, None, 2, n_max=3, S=SIGMA_Z.real)
    rep = convergence_study(spec, [2.0, 8.0])
    assert [r.resolvent_distance for r in rep.rows] == [0.0, 0.0]
    assert rep.verdict == "PASS"


# ------------------------------------------------------------- van Hove demo


def test_vanhove_zero_coupling_values():
    g = grid_of([1.0, 2.0], kappa=0.5)
    rep = vanhove_demo(g, np.zeros(2), [1.5, 3.0], n_max=6, restrict_m=2)
    for r in rep.rows:
        assert r.parity_expectation == pytest.approx(1.0, abs=1e-12)
        assert r.ground_energy == pytest.approx(0.0, abs=1e-10)
    assert not rep.passed  # nothing decays without coupling


def test_vanhove_single_mode_parity_value():
    # one mode omega=1, mu=1, v=1: dressed-vacuum parity expectation e^{-2}
    g = grid_of([1.0], kappa=0.5)
    rep = vanhove_demo(g, np.array([1.0]), [2.0], n_max=16, restrict_m=2)
    assert rep.rows[0].parity_expectation == pytest.approx(np.exp(-2.0), abs=1e-6)
    assert rep.rows[0].conjugation_deviation <= 1e-7


@pytest.mark.slow
def test_vanhove_canonical_schedule_parity_and_growth():
    # supercritical profile on [kappa/2, 256]: b_0 norm of the dressing grows
    # like log Lambda and the computed parity expectations strictly decrease
    from sbfock.model import FormFactor as FF
    from sbfock.model import bs_norm, power_law_grid, uv_truncate

    grid, v = power_law_grid(-0.5, 1.0, 256.0, 4)
    dress_sq = []
    for Lam in (4.0, 16.0, 64.0, 256.0):
        v_n = uv_truncate(FF(grid, v.astype(complex)), Lam)
        dress_sq.append(bs_norm(FF(grid, v_n.values[:, 0, 0] / grid.omegas), 0.0) ** 2)
        exact = np.log(2 * Lam)
        assert abs(dress_sq[-1] - exact) <= 0.20 * exact  # coarse 4-mode quadrature
    assert all(b > a for a, b in zip(dress_sq, dress_sq[1:]))
    rep = vanhove_demo(grid, v, [4.0, 16.0, 64.0, 256.0], n_max=24, restrict_m=2)
    pars = [r.parity_expectation for r in rep.rows]
    assert all(b < a for a, b in zip(pars, pars[1:]))
    assert pars[-1] < 0.05 * pars[0]
    assert rep.energy_ok


# ------------------------------------------------- transformed-operator ids


def test_transformed_identities_trivial_and_random():
    suite = verify_transformed_operator_identities(2, seed=1)
    assert suite.passed
    suite64 = verify_transformed_operator_identities(64, seed=2)
    assert suite64.passed
    assert suite64.worst() <= 1e-9


def test_transformed_identities_direct_small_case():
    # A = 2 Id, T = diag(1, 2): resolvent difference computed two ways
    A = 2.0 * np.eye(2, dtype=complex)
    B = np.eye(2, dtype=complex)
    T = np.diag([1.0, 2.0]).astype(complex)
    eye = np.eye(2)
    X = A @ T @ A.conj().T + 1j * eye
    Y = B @ T @ B.conj().T + 1j * eye
    lhs = np.linalg.inv(X) - np.linalg.inv(Y)
    term1 = np.linalg.inv(X) @ (B - A) @ T @ B.conj().T @ np.linalg.inv(Y)
    Xm = A @ T @ A.conj().T - 1j * eye
    term2 = (T @ A.conj().T @ np.linalg.inv(Xm)).conj().T @ (B - A).conj().T @ np.linalg.inv(Y)
    assert np.max(np.abs(lhs - (term1 + term2))) <= 1e-14


def test_transformed_identities_dim_guard():
    from sbfock.errors import ParameterError

    with pytest.raises(ParameterError):
        verify_transformed_operator_identities(512)
