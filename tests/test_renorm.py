import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sbfock import (
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    NumericError,
    ParameterError,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinSpace,
    StructuralError,
    bs_inner,
    renorm_energy,
    separable,
    zero_form_factor,
)
from sbfock.cli import parse_config
from sbfock.fock import (
    STATE_CAP,
    Operator,
    annihilate,
    build_basis,
    create,
    dgamma,
    field,
    spin_operator,
)
from sbfock.ibc import restricted_block, restricted_deviation, xi
from sbfock.model import uv_truncate
import sbfock.renorm as renorm
from sbfock.renorm import (
    HamiltonianSpec,
    convergence_study,
    ground_energy,
    h_reg,
    h_renormalized,
    opnorm,
    vanhove_demo,
    verify_transformed_operator_identities,
)


REPO = Path(__file__).resolve().parents[1]


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
    assert np.allclose(H.dense(), dgamma(basis, g.omegas).toarray())


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
    target = (
        h_reg(basis, spec.S, V).matrix
        + sp.kron(sp.identity(basis.n_fock), sp.csr_matrix(renorm_energy(V)))
    ).tocsr()
    return restricted_deviation(basis, H.matrix, target, spec.n_max - m_off)


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
        block = restricted_block(basis, h_renormalized(basis, spec).matrix, 4)
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
    # non-normal 2 x 2: the norm is the golden ratio
    A = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    assert opnorm(A) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15, abs=0)


def test_opnorm_matches_svd():
    rng = np.random.default_rng(9)
    for n in (40, 200):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        exact = np.linalg.norm(A, 2)
        assert opnorm(A) == pytest.approx(exact, rel=1e-7)


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
    assert ground_energy(Operator(basis, dgamma(basis, g.omegas))) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(StructuralError):
        Operator(basis, sp.csr_matrix(np.triu(np.ones((basis.dim, basis.dim))) + 0j))


def test_operator_stores_its_hermitian_part():
    # a defect below HERMITICITY_TOL is kept as ``defect``; the stored
    # matrix is (M + M^*)/2 exactly, and its ground energy is that of
    # the Hermitian part
    rng = np.random.default_rng(3)
    basis = build_basis(grid_of([1.0, 2.0]), SpinSpace(2), 3)
    n = basis.dim
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    anti = rng.standard_normal((n, n))
    M = (X + X.conj().T) / 2 + 0.5e-13 * (anti - anti.T) / np.max(np.abs(anti - anti.T))
    defect = np.max(np.abs(M - M.conj().T))
    assert 0.9e-13 < defect < 1.1e-13
    H = Operator(basis, sp.csr_matrix(M))
    assert H.defect == defect
    assert np.max(np.abs(H.matrix - H.matrix.conj().T)) == 0.0
    assert ground_energy(H) == np.linalg.eigvalsh((M + M.conj().T) / 2)[0]


def test_operator_matrix_is_canonical_csr():
    # the shipped ex2_default H_lim is stored with sorted indices and no
    # duplicates, so abs() does not reorder it in place
    spec, _, _ = parse_config(REPO / "configs" / "ex2_default.json")
    H = h_renormalized(build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max), spec)
    assert H.basis.dim == 1848
    indices = H.matrix.indices.copy()
    abs(H.matrix)
    assert np.array_equal(H.matrix.indices, indices)
    assert np.max(np.abs(H.matrix - H.matrix.conj().T)) == 0.0


def test_operator_matrix_holds_no_spare_room():
    # the ex2_default H_lim has a defect, so it is stored as a new sum
    # M + M^*; its arrays hold exactly its entries, not the nnz(M) + nnz(M^*)
    # that scipy's sum allocates
    spec, _, _ = parse_config(REPO / "configs" / "ex2_default.json")
    H = h_renormalized(build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max), spec)
    assert H.defect > 0
    for a in (H.matrix.data, H.matrix.indices):
        assert (a if a.base is None else a.base).size == H.matrix.nnz


def zero_coupling_spec():
    # dyadic frequencies and no coupling: H_lim = S + dGamma(omega)
    g = grid_of([0.5, 2.0, 4.0], mus=[0.5, 1.0, 1.0])
    return make_spec(g, None, None, None, None, None, None, 2, n_max=3, S=SIGMA_Z.real)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: rotating_wave_spec(), id="rotating_wave"),
    pytest.param(lambda: parse_config(REPO / "configs" / "ex2_default.json")[0], id="ex2_default"),
    pytest.param(lambda: zero_coupling_spec(), id="zero_coupling"),
])
def test_renormalized_lambda_shift_is_bitwise_the_three_term_sum(make):
    # xi returns xi - lambda, so H_lim is the sum S + xi + phi(V_le) with
    # no lambda 1 added or removed
    spec = make()
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    core = xi(basis, spec.coupling.v_n, spec.coupling.v_n, spec.lam)
    core = core + field(basis, spec.coupling.v_le)
    want = Operator(basis, spin_operator(basis, spec.S) + core)
    got = h_renormalized(basis, spec)
    assert got.defect == want.defect
    for name in ("data", "indices", "indptr"):
        assert getattr(got.matrix, name).tobytes() == getattr(want.matrix, name).tobytes()


@pytest.mark.parametrize(
    "defect, error, code",
    [pytest.param(1e-9, StructuralError, 2, id="hermiticity_tol")],
)
def test_renormalized_operator_defect_gates(tmp_path, monkeypatch, defect, error, code):
    # a defect above HERMITICITY_TOL is a structural error, judged by
    # Operator alone; xi gets an antisymmetric part of that defect between
    # the first two states
    from sbfock.cli import main

    config = REPO / "configs" / "ex2_default.json"
    spec, _, _ = parse_config(config)
    xi = renorm.xi
    skew = lambda n: sp.csr_matrix(([defect / 2, -defect / 2], ([0, 1], [1, 0])), shape=(n, n))
    monkeypatch.setattr(renorm, "xi", lambda basis, *args: xi(basis, *args) + skew(basis.dim))
    with pytest.raises(error):
        convergence_study(spec, [2.0])
    assert main(["converge", "--config", str(config), "--out", str(tmp_path / "out")]) == code


def test_dressed_defect_does_not_grow_with_lambda(tmp_path):
    # the core holds no lambda 1 for the truncated W to conjugate, so the
    # super-critical dressing model's H_lim stays Hermitian to rounding at
    # any lambda, and its study at lambda = 1e9 FAILs by design (exit 1)
    # with the rows of lambda = 1, as the limit does not depend on lambda
    import csv

    from sbfock.cli import main

    config = REPO / "configs" / "converge_supercritical.json"
    spec, schedule, _ = parse_config(config)
    assert not spec.coupling.v_d.is_zero()
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    for lam in (1.0, 1e3, 1e6, 1e9):
        H = h_renormalized(basis, HamiltonianSpec(spec.S, spec.coupling, lam, spec.n_max))
        assert H.defect <= 1e-14
    cfg = json.loads(config.read_text())
    cfg["ibc"]["lambda"] = 1e9
    shifted = tmp_path / "lambda_1e9.json"
    shifted.write_text(json.dumps(cfg))
    rows = {}
    for name, path in (("one", config), ("1e9", shifted)):
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / name)]) == 1
        with (tmp_path / name / "converge.csv").open(newline="") as fh:
            rows[name] = list(csv.DictReader(fh))
    assert len(rows["one"]) == len(rows["1e9"]) == len(schedule)
    for one, big in zip(rows["one"], rows["1e9"]):
        assert big["verdict"] == one["verdict"] == "FAIL"
        for key in ("Lambda", "E_trace", "resolvent_distance", "ground_energy_reg", "ground_energy_renorm"):
            assert float(big[key]) == pytest.approx(float(one[key]), rel=1e-13)


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


def _shipped_ex1_h_lim(tmp_path):
    spec, _, _ = parse_config(REPO / "configs" / "ex1_dressing.json")
    return h_renormalized(build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max), spec)


def _benchmark_config(tmp_path, workload):
    import inputs  # perfbench/, put on sys.path by the test

    configs, commands = inputs.build(workload, 1)
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(configs[commands[0].config]))
    return parse_config(path)


def _vanhove_h_at_8(tmp_path):
    spec, _, options = _benchmark_config(tmp_path, "vanhove")
    basis = build_basis(spec.grid, SpinSpace(1), options["vanhove_n_max"])
    v_8 = uv_truncate(FormFactor(spec.grid, options["profile"]), 8.0)
    return h_reg(basis, np.zeros((1, 1)), v_8)


def _study_h_lim(tmp_path):
    spec, _, _ = _benchmark_config(tmp_path, "study")
    return h_renormalized(build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max), spec)


@pytest.mark.parametrize(
    "make, path",
    [
        (_shipped_ex1_h_lim, "dense"),
        (_vanhove_h_at_8, "lanczos"),
        (_study_h_lim, "certificate"),
    ],
)
def test_ground_energy_real_and_complex_storage_agree(tmp_path, monkeypatch, make, path):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    H = make(tmp_path)
    assert H.matrix.dtype == np.float64
    as_complex = Operator(H.basis, H.matrix.astype(complex))
    g_real, g_complex = ground_energy(H), ground_energy(as_complex)
    assert g_real == pytest.approx(g_complex, rel=1e-12, abs=0)
    if path == "certificate":  # the vacuum x spin-down singleton
        assert g_real == g_complex == -1.0


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
    rep = convergence_study(spec, [2.0, 4.0, 8.0])
    d = [r.resolvent_distance for r in rep.rows]
    assert max(d) - min(d) <= 1e-9
    assert rep.checks["nonincreasing_ok"]


def test_convergence_study_schedule_must_increase():
    g = grid_of([0.6, 0.9])
    spec = make_spec(g, [0.4, 0.3], SIGMA_MINUS, None, None, None, None, dim=2, n_max=3)
    with pytest.raises(StructuralError):
        convergence_study(spec, [2.0, 2.0])


def test_empty_schedule_is_rejected_before_the_basis_is_built(monkeypatch):
    g = grid_of([0.6, 0.9])
    spec = make_spec(g, [0.4, 0.3], SIGMA_MINUS, None, None, None, None, dim=2, n_max=3)

    def no_basis(*args, **kwargs):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(renorm, "build_basis", no_basis)
    with pytest.raises(StructuralError, match="nonempty"):
        convergence_study(spec, [])
    with pytest.raises(StructuralError, match="nonempty"):
        vanhove_demo(g, np.array([0.4, 0.3]), [], n_max=4, restrict_m=2)


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


def supercritical_spec(B=SIGMA_X):
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(-0.5, 1.0, 16.0, 8)
    om = grid.omegas
    coupling = CouplingDecomposition(
        v_le=separable(grid, np.where(om <= 1, v, 0), B),
        v_d=separable(grid, np.where(om > 1, v, 0), B),
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
        # complex operators: the sigma_y coupling has imaginary entries
        pytest.param(lambda: supercritical_spec(SIGMA_Y), id="supercritical_sigma_y"),
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


def rotating_wave_spec(lambda_max=16.0, n_modes=4):
    # lambda = 1e5 rotating-wave model: at the last cutoff every block of D
    # is proved below the largest singleton entry
    from sbfock.model import power_law_grid

    grid, v = power_law_grid(0.0, 1.0, lambda_max, n_modes)
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


def test_convergence_study_one_structural_pass_per_operator(monkeypatch):
    # H_lim and each H_Lambda get one Hermitian part and one labeling of
    # their own matrix; no |H_lim| + |H_Lambda| is labeled, and the
    # resolvents on U take the operators' labels instead of labeling the
    # matrices on U: the only other labeling is one merge graph per cutoff
    spec = rotating_wave_spec()
    dim = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max).dim
    schedule = [2.0, 8.0, 16.0]
    built, passes, labeled = [], [], []

    def recording(fn, seen, key):
        def wrapped(*args):
            out = fn(*args)
            seen.append(key(args, out))
            return out

        return wrapped

    def first_arg(args, out):
        return args[0]

    solvers = renorm._solvers
    monkeypatch.setattr(
        renorm, "h_renormalized", recording(renorm.h_renormalized, built, lambda a, H: H.matrix)
    )
    monkeypatch.setattr(renorm, "h_cutoff", recording(renorm.h_cutoff, built, lambda a, out: out[0].matrix))
    monkeypatch.setattr(
        solvers, "hermitian_part", recording(solvers.hermitian_part, passes, lambda a, out: out[0])
    )
    monkeypatch.setattr(solvers, "component_labels", recording(solvers.component_labels, labeled, first_arg))
    merges = []
    monkeypatch.setattr(renorm, "merge_labels", recording(solvers.merge_labels, merges, lambda a, out: a))
    resolvents = []
    monkeypatch.setattr(
        renorm, "StructuredResolvent", recording(solvers.StructuredResolvent, resolvents, first_arg)
    )
    convergence_study(spec, schedule)
    full = [M for M in labeled if M.shape[0] == dim]
    assert len(built) == len(passes) == len(full) == 1 + len(schedule)
    assert all(a is b is c for a, b, c in zip(built, passes, full))
    assert len(merges) == len(schedule) and resolvents  # some blocks were solved
    graphs = [M for M in labeled if not any(M is H for H in built)]
    assert [M.shape[0] for M in graphs] == [sum(a.max() + 1 for a in pair) for pair in merges]


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
        if skew:  # no Operator holds such an H_lim, so no bound is taken on it
            with pytest.raises(StructuralError):
                Operator(build_basis(grid_of([1.0]), SpinSpace(1), n - 1), sp.csr_matrix(H_lim))
            continue
        lim = sp.csr_matrix(H_lim)
        u = renorm._block_bounds(lim, renorm._neumann_terms(lim, z), sp.csr_matrix(H_L), z, components)
        for idx, u_c in zip(components, u):
            block = np.ix_(idx, idx)
            eye = np.eye(len(idx))
            D_c = np.linalg.inv(H_L[block] - z * eye) - np.linalg.inv(H_lim[block] - z * eye)
            norm = np.linalg.norm(D_c, 2)
            assert norm * (1 - 1e-12) <= u_c < np.inf
            if kind == "dominant":  # the Neumann bound B2 is below ||dH_c|| / |Im z|^2 <= B1
                dH = H_lim[block] - H_L[block]
                assert u_c < np.linalg.norm(dH, 2) / z.imag**2
            if kind == "tight":
                assert u_c <= 1.01 * norm


def one_shot_block_bounds(H_lim, H_L, z, components):
    # the bounds with every H_lim term formed at the call, as they were
    # before those terms were formed once per study
    sizes = np.array([len(idx) for idx in components])
    order = np.concatenate(components)
    starts = np.cumsum(sizes) - sizes

    def norm_bound(row_sums, col_sums):
        rows = np.maximum.reduceat(row_sums[order], starts)
        return np.sqrt(rows * np.maximum.reduceat(col_sums[order], starts))

    abs_dH, abs_L, abs_lim = abs(H_lim - H_L), abs(H_L), abs(H_lim)
    ones = np.ones(H_lim.shape[0])
    b1 = norm_bound(abs_dH @ ones, abs_dH.T @ ones) / z.imag**2
    h_L, h_lim = H_L.diagonal(), H_lim.diagonal()
    p_L, p_lim = 1.0 / np.abs(h_L - z), 1.0 / np.abs(h_lim - z)
    a_L, a_lim = np.abs(h_L), np.abs(h_lim)
    x_L = norm_bound(p_L * (abs_L @ ones - a_L), abs_L.T @ p_L - a_L * p_L)
    x_lim = norm_bound(abs_lim @ p_lim - a_lim * p_lim, p_lim * (abs_lim.T @ ones - a_lim))
    num = norm_bound(p_L * (abs_dH @ p_lim), p_lim * (abs_dH.T @ p_L))
    gap_L, gap_lim = 1 - x_L, 1 - x_lim
    b2 = np.full(len(components), np.inf)
    np.divide(num, gap_L * gap_lim, out=b2, where=(gap_L > 0) & (gap_lim > 0))
    return np.minimum(b1, b2)


@pytest.mark.parametrize("z", [1j, 0.3 + 0.5j])
@pytest.mark.parametrize("kind", ["dominant", "not_dominant", "tight"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("skew", [0.0, 1e-3], ids=["hermitian", "skew"])
def test_block_bounds_with_lim_terms_formed_once_are_unchanged(z, kind, dtype, skew):
    # the H_lim terms are formed once and reused for two cutoff operators;
    # every bound equals the one-shot result bitwise.  The bounds take
    # exactly Hermitian operators, so skewed matrices enter as the
    # Hermitian parts an Operator stores
    rng = np.random.default_rng(7)
    sizes = [2, 3, 5, 8, 13, 21]
    n = sum(sizes)
    components = [np.sort(idx) for idx in np.split(rng.permutation(n), np.cumsum(sizes)[:-1])]

    def stored(X):
        return renorm._solvers.hermitian_part(sp.csr_matrix(X))[0]

    for _ in range(5):
        H_lim, H_L = random_block_pair(rng, components, n, kind, dtype, skew, z)
        _, H_L2 = random_block_pair(rng, components, n, kind, dtype, skew, z)
        lim = stored(H_lim)
        terms = renorm._neumann_terms(lim, z)
        for cut in (stored(H_L), stored(H_L2)):
            got = renorm._block_bounds(lim, terms, cut, z, components)
            want = one_shot_block_bounds(lim.copy(), cut, z, components)
            assert got.tobytes() == want.tobytes()


def test_block_bounds_allocation_budget():
    # a study-like pair (the rotating-wave model at 24 modes, dim 5,850):
    # one call allocates about one H_lim-sized matrix, |H_lim - H_Lambda|,
    # where the one-shot bounds copy it once more in abs() and also form
    # |H_lim|
    import tracemalloc

    from sbfock._solvers import group_components, merge_labels

    spec = rotating_wave_spec(lambda_max=256.0, n_modes=24)
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    H_lim = h_renormalized(basis, spec)
    H_L = renorm.h_cutoff(basis, spec, 4.0)[0]
    components, _ = group_components(merge_labels(H_lim.labels, H_L.labels))
    lim, cut = H_lim.matrix, H_L.matrix
    terms = renorm._neumann_terms(lim, renorm.STUDY_Z)
    lim_bytes = lim.data.nbytes + lim.indices.nbytes

    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    peak = traced_peak(renorm._block_bounds, lim, terms, cut, renorm.STUDY_Z, components)
    assert peak < 1.5 * lim_bytes
    one_shot = traced_peak(one_shot_block_bounds, lim, cut, renorm.STUDY_Z, components)
    assert one_shot > 2 * lim_bytes


def test_h_renormalized_allocation_budget():
    # the rotating-wave H_lim at 24 modes (dim 5,850): at its peak the
    # assembly holds the matrix, its adjoint and the row blocks of its
    # Hermitian part, plus one block's sums (4.1 times the bytes of H_lim).
    # With theta1's COO staging and the sums M - M^* and M + M^* formed in
    # full, the traced peak was 4.46 times those bytes
    import tracemalloc

    spec = rotating_wave_spec(lambda_max=256.0, n_modes=24)
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    basis.lowering_table()  # cached on the basis, built before tracing
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lim = h_renormalized(basis, spec).matrix
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * (lim.data.nbytes + lim.indices.nbytes)


def test_convergence_study_lanczos_nonconvergence_raises(monkeypatch):
    # one ARPACK restart does not resolve the clustered top singular values
    monkeypatch.setattr(renorm, "OPNORM_MAX_RESTARTS", 1)
    with pytest.raises(NumericError, match="did not converge"):
        convergence_study(supercritical_spec(), [2.0])


def test_convergence_study_zero_distance_passes():
    # no coupling and dyadic frequencies: H_Lambda and H_lim are the same
    # diagonal matrix, so D = 0 and Lanczos has no Krylov space to build
    rep = convergence_study(zero_coupling_spec(), [2.0, 8.0])
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


def test_vanhove_rejects_negative_sector_before_building_basis():
    # four modes at n_max 100 give C(104, 4) = 4,598,126 states, over the
    # cap, so only a check made before build_basis names the sector bound
    g = grid_of([0.7, 1.4, 2.8, 5.6], kappa=0.5)
    assert math.comb(104, 4) > STATE_CAP
    with pytest.raises(ParameterError, match="sector bound"):
        vanhove_demo(g, np.ones(4), [2.0], n_max=100, restrict_m=-1)


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
    assert rep.checks["energy_ok"]


# ------------------------------------------------- transformed-operator ids


def test_transformed_identities_trivial_and_random(monkeypatch):
    suite64 = verify_transformed_operator_identities(seed=2)
    assert suite64.passed
    assert suite64.worst() <= 1e-9
    monkeypatch.setattr(renorm, "TRANSFORM_CHECK_DIM", 2)
    assert verify_transformed_operator_identities(seed=1).passed


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
