import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import sbfock._solvers as solvers
from sbfock import CouplingDecomposition, ModeGrid, SIGMA_MINUS, SIGMA_Z, separable, zero_form_factor
from sbfock._solvers import StructuredResolvent
from sbfock.cli import parse_config
from sbfock.errors import NumericError
from sbfock.fock import SpinSpace, build_basis
from sbfock.renorm import HamiltonianSpec, h_cutoff, h_reg, h_renormalized

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def ex2_operators():
    om = np.geomspace(0.5, 16, 10)
    mu = np.diff(np.geomspace(0.45, 17, 11))
    g = ModeGrid(labels=om, omegas=om, mus=mu, kappa=1.0)
    basis = build_basis(g, SpinSpace(2), 3)
    v = np.ones(10)
    coupling = CouplingDecomposition(
        v_le=separable(g, np.where(om <= 1, v, 0), SIGMA_MINUS),
        v_d=zero_form_factor(g, 2),
        v_n=separable(g, np.where(om > 1, v, 0), SIGMA_MINUS),
        s_n=1.5,
    )
    spec = HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=50.0, n_max=3)
    H_ren = h_renormalized(basis, spec)
    H_reg = h_reg(basis, spec.S, coupling.total())
    totals = np.repeat(basis.totals, 2)
    return basis, H_ren, H_reg, totals


def residuals(solver, A_dense, rng, n=4):
    worst = 0.0
    worst_adj = 0.0
    for _ in range(n):
        b = rng.standard_normal(A_dense.shape[0]) + 1j * rng.standard_normal(A_dense.shape[0])
        x = solver.solve(b)
        worst = max(worst, np.linalg.norm(A_dense @ x - b) / np.linalg.norm(b))
        y = solver.adjoint_solve(b)
        worst_adj = max(
            worst_adj, np.linalg.norm(A_dense.conj().T @ y - b) / np.linalg.norm(b)
        )
    return worst, worst_adj


def test_dense_path_matches_inverse(ex2_operators):
    basis, H_ren, _, totals = ex2_operators
    rng = np.random.default_rng(0)
    solver = StructuredResolvent(H_ren.matrix, 1j, totals, H_ren.labels)
    A = H_ren.dense() - 1j * np.eye(basis.dim)
    fwd, adj = residuals(solver, A, rng)
    assert fwd <= 1e-12 and adj <= 1e-12


@pytest.mark.parametrize("which", ["ren", "reg"])
def test_structured_paths_forced(ex2_operators, which, monkeypatch):
    basis, H_ren, H_reg, totals = ex2_operators
    H = H_ren if which == "ren" else H_reg
    rng = np.random.default_rng(1)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 64)
    monkeypatch.setattr(solvers, "SCHUR_KEPT_CAP", 400)
    solver = StructuredResolvent(H.matrix, 1j, totals, H.labels)
    kinds = {type(s).__name__ for _, s in solver.parts}
    assert len(kinds) > 1  # several strategies exercised
    A = H.dense() - 1j * np.eye(basis.dim)
    fwd, adj = residuals(solver, A, rng)
    assert fwd <= 1e-9 and adj <= 1e-9


def scalar_field_operator():
    from sbfock.model import FormFactor

    om = np.array([0.7, 1.9])
    g = ModeGrid(labels=om, omegas=om, mus=np.array([0.8, 1.1]), kappa=1.0)
    basis = build_basis(g, SpinSpace(1), 8)
    H = h_reg(basis, np.zeros((1, 1)), FormFactor(g, np.array([0.8, 0.5])))
    return basis, H, basis.totals.astype(np.int64)


def test_sparse_lu_path_on_scalar_field_hamiltonian(monkeypatch):
    basis, H, totals = scalar_field_operator()
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 8)
    monkeypatch.setattr(solvers, "SCHUR_KEPT_CAP", 10)
    solver = StructuredResolvent(H.matrix, 1j, totals, H.labels)
    [(idx, part)] = solver.parts
    assert isinstance(part, solvers._SparseLUSolve) and len(idx) == basis.dim
    rng = np.random.default_rng(2)
    A = H.dense() - 1j * np.eye(basis.dim)
    fwd, adj = residuals(solver, A, rng)
    assert fwd <= 1e-11 and adj <= 1e-11


def test_gmres_zero_rhs_guard():
    A = sp.csr_matrix(np.diag([2.0, 3.0]) + 0j)
    g = solvers._GmresSolve(A)
    out = g.solve(np.zeros(2, dtype=complex))
    assert not np.any(out)


def test_singular_sparse_lu_raises_numeric_error():
    H = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NumericError, match="singular"):
        StructuredResolvent(H, 1.0, np.array([0, 1]), solvers.component_labels(H))


def test_singular_schur_complement_raises_numeric_error(monkeypatch):
    # eliminating state 2 leaves the Schur complement [[1, 1], [1, 1]]
    H = sp.csr_matrix(np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 1.0, 1.0]]))
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 2)
    with pytest.raises(NumericError, match="Schur"):
        StructuredResolvent(H, 0.0, np.array([0, 0, 1]), solvers.component_labels(H))


def test_zero_eliminated_diagonal_raises_numeric_error():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]) + 0j)
    with pytest.raises(NumericError, match="diagonal"):
        solvers._SchurSolve(A, np.array([0]), np.array([1]))


def assert_block_matches_columns(solver, n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    for method in (solver.solve, solver.adjoint_solve):
        X = method(B)
        cols = np.column_stack([method(np.ascontiguousarray(c)) for c in B.T])
        assert X.shape == B.shape
        assert np.linalg.norm(X - cols) <= 1e-13 * np.linalg.norm(cols)


def test_block_solves_match_columns_sparse_lu(ex2_operators):
    basis, H_ren, _, totals = ex2_operators
    solver = StructuredResolvent(H_ren.matrix, 1j, totals, H_ren.labels)
    [(_, part)] = solver.parts
    assert isinstance(part, solvers._SparseLUSolve)
    assert_block_matches_columns(part, basis.dim, 3)
    assert_block_matches_columns(solver, basis.dim, 4)


def test_block_solves_match_columns_schur(ex2_operators, monkeypatch):
    basis, H_ren, _, totals = ex2_operators
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 64)
    monkeypatch.setattr(solvers, "SCHUR_KEPT_CAP", 400)
    solver = StructuredResolvent(H_ren.matrix, 1j, totals, H_ren.labels)
    schur = [(idx, part) for idx, part in solver.parts if isinstance(part, solvers._SchurSolve)]
    assert schur
    for idx, part in schur:
        assert_block_matches_columns(part, len(idx), 5)
    assert_block_matches_columns(solver, basis.dim, 6)


def dense_coupled_operator(n=80, seed=7):
    # random real symmetric coupling, about 40 nonzeros per row
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=0.25, random_state=rng, format="csr")
    M = (M + M.T) * 0.02
    return (M + sp.diags(np.linspace(1.0, 4.0, n))).tocsr()


def test_dense_rows_above_cap_take_gmres(monkeypatch):
    H = dense_coupled_operator()
    n = H.shape[0]
    assert H.nnz > solvers.GMRES_MIN_ROW_NNZ * n
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 16)
    # one sector: the top sector is coupled internally, so Schur is ruled out
    solver = StructuredResolvent(H, 1j, np.zeros(n, dtype=np.int64), solvers.component_labels(H))
    [(idx, part)] = solver.parts
    assert isinstance(part, solvers._GmresSolve) and len(idx) == n
    assert_block_matches_columns(part, n, 8)
    assert_block_matches_columns(solver, n, 9)
    A = H.toarray() - 1j * np.eye(n)
    fwd, adj = residuals(solver, A, np.random.default_rng(10))
    assert fwd <= 1e-10 and adj <= 1e-10


def test_scalar_field_component_above_cap_takes_sparse_lu():
    # the van Hove operator: one scalar field component above the dense cap
    from sbfock.model import FormFactor, power_law_grid

    grid, profile = power_law_grid(-0.5, 1.0, 8.0, 4)
    basis = build_basis(grid, SpinSpace(1), 20)
    H = h_reg(basis, np.zeros((1, 1)), FormFactor(grid, np.asarray(profile, dtype=complex)))
    components, _ = solvers.group_components(H.labels)
    big = [idx for idx in components if len(idx) > solvers.DENSE_SOLVE_CAP]
    assert len(big) == 1
    assert H.matrix[big[0]][:, big[0]].nnz <= solvers.GMRES_MIN_ROW_NNZ * len(big[0])
    solver = StructuredResolvent(H.matrix, 1j, basis.totals.astype(np.int64), H.labels)
    [(idx, part)] = solver.parts
    assert isinstance(part, solvers._SparseLUSolve) and len(idx) == basis.dim


def shifted(M, z):
    return (M - z * sp.identity(M.shape[0], format="csr")).tocsr()


def schur_component(monkeypatch):
    # the largest component of the shipped ex2 H_lim: a Schur path above a cap of 64
    spec, _, _ = parse_config(CONFIGS / "ex2_default.json")
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    H = h_renormalized(basis, spec)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 64)
    idx = max(solvers.group_components(H.labels)[0], key=len)
    return H.matrix[idx][:, idx].tocsr(), basis.lift(basis.totals)[idx]


def gmres_component(monkeypatch):
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 16)
    H = dense_coupled_operator()
    return H, np.zeros(H.shape[0], dtype=np.int64)


def lu_component(monkeypatch):
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 8)
    monkeypatch.setattr(solvers, "SCHUR_KEPT_CAP", 10)
    _, H, totals = scalar_field_operator()
    return H.matrix, totals


@pytest.mark.parametrize(
    "make, kind",
    [(schur_component, tuple), (gmres_component, "gmres"), (lu_component, "lu")],
    ids=["schur", "gmres", "lu"],
)
def test_component_path_is_the_same_for_every_shift(monkeypatch, make, kind):
    # mu is a diagonal entry: H_c - mu stores one diagonal entry fewer than
    # H_c - 1j, and the path must not see it
    H_c, totals = make(monkeypatch)
    mu = float(H_c.diagonal()[1])
    at_mu, at_z = shifted(H_c, mu), shifted(H_c, 1j)
    assert at_mu.count_nonzero() == at_z.count_nonzero() - 1
    paths = [solvers.component_path(A, totals) for A in (H_c, at_mu, at_z)]
    if kind is tuple:
        assert all(isinstance(p, tuple) for p in paths)
        for keep, elim in paths[1:]:
            np.testing.assert_array_equal(keep, paths[0][0])
            np.testing.assert_array_equal(elim, paths[0][1])
    else:
        assert paths == [kind] * 3


def test_resolvent_on_restricted_labels_matches_relabelled(monkeypatch):
    # the study's use: U is a union of components of |H_lim| + |H_Lambda|,
    # so each operator's labels on U are the components of its matrix on U
    spec, _, _ = parse_config(CONFIGS / "ex2_default.json")
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    totals = basis.lift(basis.totals)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_CAP", 16)
    pair = [h_renormalized(basis, spec), h_cutoff(basis, spec, 4.0)[0]]
    merged, singletons = solvers.group_components(solvers.merge_labels(*(H.labels for H in pair)))
    U = np.sort(np.concatenate(merged[::2] + [singletons[::2]]))
    assert 0 < len(U) < basis.dim
    b = np.random.default_rng(11).standard_normal(len(U)) + 0j
    for H in pair:
        M = H.matrix[U][:, U]
        given = StructuredResolvent(M, 1j, totals[U], H.labels[U])
        relabelled = StructuredResolvent(M, 1j, totals[U], solvers.component_labels(M))
        assert len(given.parts) == len(relabelled.parts) > 1
        for (i, p), (j, q) in zip(given.parts, relabelled.parts):
            np.testing.assert_array_equal(i, j)
            assert type(p) is type(q)
        np.testing.assert_array_equal(given.solve(b), relabelled.solve(b))
    assert {type(p).__name__ for _, p in given.parts} == {"_SchurSolve", "_SparseLUSolve"}


def test_grouped_labels_weak_connectivity_and_order():
    # couplings only above the diagonal: no state reaches a smaller index,
    # so only weak connectivity joins them
    n = 10
    M = sp.lil_matrix((n, n), dtype=complex)
    M.setdiag(np.arange(1.0, n + 1))
    for i, j in [(6, 8), (0, 6), (3, 9), (2, 9), (4, 5)]:
        M[i, j] = 0.5 - 0.25j
    components, singletons = solvers.group_components(solvers.component_labels(M.tocsr()))
    assert [idx.tolist() for idx in components] == [[0, 6, 8], [2, 3, 9], [4, 5]]
    assert singletons.tolist() == [1, 7]


def test_operator_labels_are_the_weak_components():
    # an Operator's nonzero pattern is symmetric, so the strong components
    # of its labels are the weak ones, numbered alike
    spec, _, _ = parse_config(CONFIGS / "ex2_default.json")
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    for H in (h_renormalized(basis, spec), h_cutoff(basis, spec, 4.0)[0]):
        weak = solvers.component_labels(H.matrix)
        assert 1 < weak.max() + 1 < basis.dim
        np.testing.assert_array_equal(H.labels, weak)


def ex2_default_pair():
    # the shipped ex2 H_lim and its H_Lambda at Lambda = 4
    spec, _, _ = parse_config(CONFIGS / "ex2_default.json")
    basis = build_basis(spec.grid, SpinSpace(spec.spin_dim), spec.n_max)
    return h_renormalized(basis, spec).matrix, h_cutoff(basis, spec, 4.0)[0].matrix


def one_triangle_pair():
    # A couples only above its diagonal, so only weak connectivity joins
    # {0, 6, 8}; B adds 9 to A's {2, 3}, joins {4, 5, 7} and leaves 1 alone
    n = 10
    A = sp.lil_matrix((n, n))
    A.setdiag(np.arange(1.0, n + 1))
    for i, j in [(6, 8), (0, 6), (2, 3)]:
        A[i, j] = 0.5
    B = sp.lil_matrix((n, n), dtype=complex)
    B.setdiag(-np.arange(1.0, n + 1))
    for i, j in [(4, 5), (7, 5), (9, 3)]:
        B[i, j] = 0.25j
    return A.tocsr(), B.tocsr()


def explicit_zero_pair():
    # A stores a zero between the blocks {0, 1} and {2, 3}: no edge
    A = sp.csr_matrix(
        (np.array([1.0, 0.5, 0.5, 1.0, 0.0, 1.0, 0.5, 0.5, 1.0]),
         np.array([0, 1, 0, 1, 2, 2, 3, 2, 3]),
         np.array([0, 2, 5, 7, 9])),
        shape=(4, 4),
    )
    assert A.nnz == 9 and A[1, 2] == 0
    B = sp.identity(4, format="csr") * 2.0
    return A, B


@pytest.mark.parametrize("make", [ex2_default_pair, one_triangle_pair, explicit_zero_pair])
def test_merged_labels_match_split_of_abs_sum(make):
    A, B = make()
    merged = solvers.merge_labels(solvers.component_labels(A), solvers.component_labels(B))
    components, singletons = solvers.group_components(merged)
    expected, expected_singletons = solvers.group_components(solvers.component_labels(abs(A) + abs(B)))
    assert len(components) == len(expected)
    for got, want in zip(components, expected):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(singletons, expected_singletons)
    assert len(components) + len(singletons) < A.shape[0]  # some states were joined


def test_row_blocks_cover_the_rows_in_order():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 40, 500)
    counts[[0, 7, 499]] = [0, 300, 0]  # empty rows and a row longer than a block
    indptr = np.concatenate([[0], np.cumsum(counts)])
    for step in (None, 1, 50, 700, int(indptr[-1]) + 1):
        blocks = solvers.row_blocks(indptr, step)
        starts, ends = np.array(blocks).T
        assert starts[0] == 0 and ends[-1] == 500 and np.array_equal(starts[1:], ends[:-1])
        assert np.all(ends > starts)
        size = math.isqrt(500 * int(indptr[-1])) if step is None else step
        held = indptr[ends] - indptr[starts]
        assert np.all(held <= size + counts[starts])
    assert solvers.row_blocks(np.zeros(4, dtype=np.int32)) == [(0, 3)]  # no entries


def one_shot_hermitian_part(M):
    # the Hermitian part and the defect with M - M^* and M + M^* formed in
    # full, as they were before the row blocks
    M = M.tocsr()
    M.sum_duplicates()
    adj = M.conj().T.tocsr()
    defect = float(np.max(np.abs((M - adj).data), initial=0.0))
    if not defect:
        return M, defect
    S = M + adj
    return sp.csr_matrix((S.data * 0.5, S.indices.copy(), S.indptr), shape=S.shape), defect


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_part_of_a_skewed_matrix_in_row_blocks(dtype):
    # an asymmetric pattern with skewed values, and an entry that cancels
    # in M + M^*: the defect is max|M - M^*|, and the Hermitian part
    # equals the one-shot sum bit for bit
    rng = np.random.default_rng(5)
    n = 300
    X = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    if dtype is complex:
        X = X + 1j * rng.standard_normal((n, n)) * (X != 0)
    X[3, 8], X[8, 3] = 0.5, -0.5
    M = sp.csr_matrix(X)
    assert len(solvers.row_blocks(M.indptr)) > 3
    H, defect = solvers.hermitian_part(M.copy())
    assert defect == np.max(np.abs(X - X.conj().T))
    want, want_defect = one_shot_hermitian_part(M.copy())
    assert defect == want_defect and H.dtype == want.dtype
    for name in ("data", "indices", "indptr"):
        a, b = getattr(H, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert 8 not in H.indices[H.indptr[3] : H.indptr[4]]  # the cancelled entry is not stored
