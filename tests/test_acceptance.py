"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured worst-case quantity and runtime."""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sbfock import (
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    SpinSpace,
    bs_inner,
    bs_norm,
    power_law_grid,
    renorm_energy,
    separable,
    zero_form_factor,
)
from sbfock.cli import run_command
from sbfock.dressing import verify_weyl_continuity, verify_weyl_transforms, weyl
from sbfock.fock import (
    Operator,
    annihilate,
    build_basis,
    create,
    dgamma,
    field,
    function_of_dgamma,
    parity,
    vacuum,
)
from sbfock.ibc import (
    g_op,
    nilpotent_inverse,
    restricted_block,
    restricted_deviation,
    t_op,
    verify_ibc_bounds,
    xi,
)
from sbfock.renorm import (
    HamiltonianSpec,
    convergence_study,
    h_reg,
    h_renormalized,
    opnorm,
    vanhove_demo,
    verify_transformed_operator_identities,
)

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def grid_of(omegas, mus, kappa=1.0):
    omegas = np.asarray(omegas, dtype=float)
    return ModeGrid(labels=omegas, omegas=omegas, mus=np.asarray(mus, dtype=float), kappa=kappa)


def acceptance_grid():
    return grid_of([0.7, 1.4, 2.8], [0.6, 1.0, 1.5])


def random_ff(grid, spin_dim, rng, scale=0.3):
    shape = (grid.n_modes, spin_dim, spin_dim)
    return FormFactor(grid, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


def kron_power(B, k):
    out = B.copy()
    for _ in range(k - 1):
        out = np.kron(out, B)
    return out


# --------------------------------------------------------------- criterion 1


def test_criterion_1_normal_ordering_identity():
    t0 = time.perf_counter()
    g = acceptance_grid()
    rng = np.random.default_rng(100)
    worst = 0.0
    count = 0
    for spin_dim, n_factors in ((1, 7), (2, 7), (4, 6)):
        basis = build_basis(g, SpinSpace(spin_dim), 6)
        eye_fock = sp.identity(basis.n_fock, format="csr")
        for _ in range(n_factors):
            F = random_ff(g, spin_dim, rng)
            count += 1
            for lam in (0.5, 1.0, 5.0):
                T = t_op(basis, F, lam)
                a = annihilate(basis, F).tocsr()
                res = function_of_dgamma(basis, lambda E: 1.0 / (E + lam)).tocsr()
                oracle = a @ res @ a.conj().T - sp.kron(
                    eye_fock, sp.csr_matrix(bs_inner(F, F, 1.0))
                )
                dev = restricted_deviation(T, Operator(basis, oracle.tocsr()), basis.n_max - 2)
                worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert count == 20
    report(
        "1 normal-ordering identity",
        worst <= 1e-10 and elapsed < 10.0,
        f"max dev {worst:.3e}, {elapsed:.1f} s",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_boundary_identity():
    g = acceptance_grid()
    rng = np.random.default_rng(200)
    worst = 0.0
    for k in (1, 2):
        spin_dim = 2**k
        B = kron_power(SIGMA_MINUS, k)
        basis = build_basis(g, SpinSpace(spin_dim), 6)
        eye_fock = sp.identity(basis.n_fock, format="csr")
        v = np.where(g.omegas > g.kappa, 0.4 + 0.4 * rng.random(3), 0.0)
        VN = separable(g, v, B)
        h0 = Operator(
            basis, (dgamma(basis, g.omegas).tocsr() + field(basis, VN).tocsr()).tocsr()
        )
        for lam in (0.5, 1.0, 2.0, 5.0):
            X = xi(basis, VN, VN, lam)
            rhs = (
                X.tocsr()
                - sp.kron(eye_fock, sp.csr_matrix(bs_inner(VN, VN, 1.0)))
                - lam * sp.identity(basis.dim, format="csr")
            )
            dev = restricted_deviation(h0, Operator(basis, rhs.tocsr()), basis.n_max - 2)
            worst = max(worst, dev)
    report("2 boundary-condition identity", worst <= 1e-10, f"max dev {worst:.3e}")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_nilpotent_inversion():
    g = acceptance_grid()
    rng = np.random.default_rng(300)
    # rank-1 nilpotent with exactly orthogonal range and co-range
    # (disjoint supports keep the overlap an exact floating-point zero)
    u = np.array([1.0, 0.5 + 0.25j, 0.0])
    w = np.array([0.0, 0.0, 1.0 - 0.5j])
    rank1 = np.outer(u / np.linalg.norm(u), w.conj() / np.linalg.norm(w))
    factors = {
        "sigma_minus": (2, SIGMA_MINUS),
        "sigma_minus_tensor_square": (4, kron_power(SIGMA_MINUS, 2)),
        "sigma_minus_times_identity": (4, np.kron(SIGMA_MINUS, np.eye(2))),
        "rank_one": (3, rank1),
    }
    worst_inv = 0.0
    for name, (spin_dim, B) in factors.items():
        basis = build_basis(g, SpinSpace(spin_dim), 5)
        F = separable(g, 0.4 + 0.5 * rng.random(3), B)
        G = g_op(basis, F, 1.0).tocsr()
        sq = (G @ G).tocsr()
        sq.eliminate_zeros()
        assert sq.nnz == 0, f"G^2 not structurally zero for {name}"
        left, right = nilpotent_inverse(basis, F, 1.0)
        eye = np.eye(basis.dim)
        Gd = G.toarray()
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs((eye + Gd) @ left.dense() - eye))),
            float(np.max(np.abs((eye + Gd.conj().T) @ right.dense() - eye))),
        )
    report("3 nilpotent inversion", worst_inv <= 1e-13, f"max dev {worst_inv:.3e}")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_bound_suite():
    t0 = time.perf_counter()
    g = acceptance_grid()
    rng = np.random.default_rng(400)
    worst_ratio = 0.0

    # field relative bound: 100 (F, psi) pairs
    basis = build_basis(g, SpinSpace(2), 4)
    energies = np.repeat(basis.energies, 2)
    half = np.sqrt(1.0 + energies)
    for _ in range(10):
        F = random_ff(g, 2, rng, scale=0.8)
        damped = FormFactor(g, (1.0 + g.omegas ** (-0.5))[:, None, None] * F.values)
        bound = 2.0 * bs_norm(damped, 0.0)
        phi = field(basis, F).tocsr()
        for _ in range(10):
            psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            psi /= np.linalg.norm(psi)
            worst_ratio = max(
                worst_ratio, np.linalg.norm(phi @ psi) / (bound * np.linalg.norm(half * psi))
            )

    # boundary-operator bounds (theta difference/single, G norm, weighted G*,
    # domain invariance): 100 sample vectors per inequality and parameter set
    vhi = np.where(g.omegas > g.kappa, 0.5 + 0.3 * rng.random(3), 0.0)
    F_nil = separable(g, vhi, SIGMA_MINUS)
    for s, lam in ((1.0, 0.5), (1.5, 1.0), (2.0, 4.0)):
        V = random_ff(g, 2, rng, scale=0.5)
        suite = verify_ibc_bounds(basis, F_nil, V, lam, s, n_samples=100, seed=400)
        assert suite.passed, [r.name for r in suite.results if not (r.passed or r.skipped)]
        worst_ratio = max(worst_ratio, 1.0 + suite.worst())

    # G-norm bound on 100 random factors
    for _ in range(100):
        F = random_ff(g, 2, rng, scale=0.6)
        s = rng.choice([1.0, 1.5, 2.0])
        lam = rng.choice([0.5, 1.0, 4.0])
        ratio = opnorm(g_op(basis, F, lam)) / (bs_norm(F, s) * lam ** ((s - 2.0) / 2.0))
        worst_ratio = max(worst_ratio, ratio)

    # displacement continuity, 100 sample vectors per pair
    basis_w = build_basis(g, SpinSpace(2), 6)
    for seed in (401, 402):
        rng_w = np.random.default_rng(seed)
        F = separable(g, 0.2 * rng_w.standard_normal(3), SIGMA_X)
        G = separable(g, 0.2 * rng_w.standard_normal(3), SIGMA_X)
        suite = verify_weyl_continuity(basis_w, F, G, n_samples=100, seed=seed)
        assert suite.passed
        worst_ratio = max(worst_ratio, 1.0 + suite.worst())

    elapsed = time.perf_counter() - t0
    report(
        "4 bound suite",
        worst_ratio <= 1.0 + 1e-9 and elapsed < 60.0,
        f"max LHS/RHS {worst_ratio:.12f}, {elapsed:.1f} s",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_weyl_transformation_laws():
    g = grid_of([0.6, 1.5, 2.5], [0.5, 1.0, 1.2])
    basis = build_basis(g, SpinSpace(2), 12)
    rng = np.random.default_rng(500)
    worst = 0.0
    for target in (0.3, 0.5):
        v = rng.standard_normal(3)
        F = separable(g, v, SIGMA_X)
        F = FormFactor(g, F.values * (target / bs_norm(F, 0.0)))
        G = separable(g, rng.standard_normal(3), SIGMA_X)
        G = FormFactor(g, G.values * (0.4 / bs_norm(G, 0.0)))
        assert bs_norm(F, 0.0) <= 0.5 + 1e-12
        suite = verify_weyl_transforms(basis, F, G, m=basis.n_max - 8)
        assert suite.passed
        worst = max(worst, suite.worst())
    report("5 Weyl transformation laws", worst <= 1e-7, f"max dev {worst:.3e}")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_coherent_state_oracles():
    g = grid_of([1.0], [1.0], kappa=0.5)
    basis = build_basis(g, SpinSpace(1), 16)
    par = parity(basis).tocsr()
    om = vacuum(basis)
    worst = 0.0
    for c in (0.25, 0.5, 1.0):
        F = FormFactor(g, np.array([c], dtype=complex))
        norm_sq = bs_norm(F, 0.0) ** 2
        W = weyl(basis, F).matrix
        overlap = np.vdot(om, W @ om).real
        psi = W @ om
        pexp = np.vdot(psi, par @ psi).real
        worst = max(
            worst,
            abs(overlap - np.exp(-norm_sq / 2.0)),
            abs(pexp - np.exp(-2.0 * norm_sq)),
        )
    report("6 coherent-state oracles", worst <= 1e-6, f"max dev {worst:.3e}")


# --------------------------------------------------------------- criterion 7


def _identity_case(coupling_builder, n_max, m_off, lam=1.0, S=None):
    g = grid_of([0.5, 2.0, 4.0], [0.6, 1.0, 1.4])
    coupling = coupling_builder(g)
    dim = coupling.spin_dim
    if S is None:
        S = np.diag(np.linspace(-1.0, 1.0, dim))
    spec = HamiltonianSpec(S=S, coupling=coupling, lam=lam, n_max=n_max)
    basis = build_basis(g, SpinSpace(dim), n_max)
    H = h_renormalized(basis, spec)
    V = coupling.total()
    target = Operator(
        basis,
        (
            h_reg(basis, S, V).tocsr()
            + sp.kron(sp.identity(basis.n_fock), sp.csr_matrix(renorm_energy(V)))
        ).tocsr(),
    )
    return restricted_deviation(H, target, n_max - m_off)


def _ex1(g):
    return CouplingDecomposition(
        v_le=separable(g, [0.3, 0.0, 0.0], SIGMA_X),
        v_d=separable(g, [0.0, 0.3, 0.3], SIGMA_X),
        v_n=zero_form_factor(g, 2),
        s_n=1.5,
    )


def _ex2(g):
    return CouplingDecomposition(
        v_le=separable(g, [0.5, 0.0, 0.0], SIGMA_MINUS),
        v_d=zero_form_factor(g, 2),
        v_n=separable(g, [0.0, 0.8, 0.5], SIGMA_MINUS),
        s_n=1.5,
    )


def _ex3_normal(g):
    B = kron_power(SIGMA_X, 2)
    return CouplingDecomposition(
        v_le=separable(g, [0.3, 0.0, 0.0], B),
        v_d=separable(g, [0.0, 0.3, 0.2], B),
        v_n=zero_form_factor(g, 4),
        s_n=1.5,
    )


def _ex3_nilpotent(g):
    B = kron_power(SIGMA_MINUS, 2)
    return CouplingDecomposition(
        v_le=separable(g, [0.5, 0.0, 0.0], B),
        v_d=zero_form_factor(g, 4),
        v_n=separable(g, [0.0, 0.8, 0.5], B),
        s_n=1.5,
    )


def _mixed(g):
    BD = np.kron(SIGMA_X, np.eye(2))
    BN = np.kron(np.eye(2), SIGMA_MINUS)
    return CouplingDecomposition(
        v_le=separable(g, [0.3, 0.0, 0.0], BD),
        v_d=separable(g, [0.0, 0.3, 0.2], BD),
        v_n=separable(g, [0.0, 0.4, 0.3], BN),
        s_n=1.5,
    )


def test_criterion_7_renormalized_identity():
    cases = [
        ("Ex.1 normal", _ex1, 10, 5),
        ("Ex.2 nilpotent", _ex2, 6, 2),
        ("Ex.3 k=2 normal", _ex3_normal, 8, 5),
        ("Ex.3 k=2 nilpotent", _ex3_nilpotent, 6, 2),
        ("mixed commuting", _mixed, 8, 5),
    ]
    worst = 0.0
    for name, builder, n_max, m_off in cases:
        dev = _identity_case(builder, n_max, m_off)
        worst = max(worst, dev)
        assert dev <= 1e-7, f"{name}: {dev:.3e}"

    # lambda-independence of restricted spectra
    worst_spec = 0.0
    for builder, n_max, m_off in ((_ex2, 6, 2), (_ex1, 10, 5)):
        g = grid_of([0.5, 2.0, 4.0], [0.6, 1.0, 1.4])
        coupling = builder(g)
        dim = coupling.spin_dim
        S = np.diag(np.linspace(-1.0, 1.0, dim))
        basis = build_basis(g, SpinSpace(dim), n_max)
        spectra = []
        for lam in (0.5, 1.0, 2.0):
            spec = HamiltonianSpec(S=S, coupling=coupling, lam=lam, n_max=n_max)
            block = restricted_block(h_renormalized(basis, spec), n_max - m_off)
            spectra.append(np.linalg.eigvalsh((block + block.conj().T) / 2))
        worst_spec = max(
            worst_spec,
            float(np.max(np.abs(spectra[0] - spectra[1]))),
            float(np.max(np.abs(spectra[0] - spectra[2]))),
        )
    report(
        "7 renormalized-operator identity",
        worst <= 1e-7 and worst_spec <= 1e-7,
        f"max identity dev {worst:.3e}, max spectral drift {worst_spec:.3e}",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_convergence_study():
    t0 = time.perf_counter()
    results = []
    for beta in (0.0, -0.25):
        grid, v = power_law_grid(beta, 1.0, 256.0, 64)
        om = grid.omegas
        coupling = CouplingDecomposition(
            v_le=separable(grid, np.where(om <= 1.0, v, 0.0), SIGMA_MINUS),
            v_d=zero_form_factor(grid, 2),
            v_n=separable(grid, np.where(om > 1.0, v, 0.0), SIGMA_MINUS),
            s_n=1.5,
        )
        spec = HamiltonianSpec(S=SIGMA_Z.real, coupling=coupling, lam=1e5, n_max=3)
        rep = convergence_study(spec, [4.0, 16.0, 64.0, 256.0])
        d = [r.resolvent_distance for r in rep.rows]
        nonincreasing = all(b <= a * 1.1 + 1e-7 for a, b in zip(d, d[1:]))
        decay = d[-1] < 0.1 * d[0]
        results.append((beta, d, nonincreasing and decay and rep.passed))
    elapsed = time.perf_counter() - t0
    ok = all(r[2] for r in results) and elapsed < 300.0
    detail = "; ".join(
        f"beta={beta}: D {d[0]:.3e} -> {d[-1]:.3e}" for beta, d, _ in results
    )
    report("8 convergence study", ok, f"{detail}; {elapsed:.0f} s")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_vanhove_demo():
    t0 = time.perf_counter()
    grid, v = power_law_grid(-0.5, 1.0, 32.0, 4)
    rep = vanhove_demo(grid, v, [2.0, 4.0, 8.0, 20.0], n_max=28, restrict_m=4)
    devs = [r.conjugation_deviation for r in rep.rows]
    pars = [r.parity_expectation for r in rep.rows]
    grounds = [r.ground_energy for r in rep.rows]
    cond_i = all(dv <= 1e-7 for dv in devs)
    cond_ii = all(b < a for a, b in zip(pars, pars[1:])) and pars[-1] < 0.05 * pars[0]
    cond_iii = all(b < a for a, b in zip(grounds, grounds[1:])) and (
        grounds[0] - grounds[-1] > 2.0
    )
    elapsed = time.perf_counter() - t0
    report(
        "9 van Hove divergence demo",
        cond_i and cond_ii and cond_iii,
        f"max dev {max(devs):.3e}, parity {pars[0]:.3e}->{pars[-1]:.3e}, "
        f"ground {grounds[0]:.2f}->{grounds[-1]:.2f}, {elapsed:.0f} s",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_transformed_operator_identities():
    worst = 0.0
    for seed in (11, 12, 13):
        suite = verify_transformed_operator_identities(64, seed=seed)
        assert suite.passed
        worst = max(worst, suite.worst())
    report("10 transformed-operator identities", worst <= 1e-9, f"max dev {worst:.3e}")


# -------------------------------------------------------------- criterion 11


def test_criterion_11_cli_determinism(tmp_path):
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert run_command("converge", CONFIGS / "ex2_default.json", out) in (0, 1)
        assert run_command("verify", CONFIGS / "ex2_default.json", out) == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("converge.csv", "converge.json", "verify_results.csv", "verify.json")
    )
    verify_ok = (
        run_command("verify", CONFIGS / "ex1_dressing.json", tmp_path / "run_c") == 0
    )
    payload = json.loads((outs[0] / "verify.json").read_text())
    report(
        "11 CLI determinism",
        identical and verify_ok and payload["passed"],
        f"byte-identical reruns={identical}, shipped configs verify clean={verify_ok}",
    )
