import numpy as np
import pytest

from sbfock import (
    SIGMA_MINUS,
    SIGMA_X,
    CouplingDecomposition,
    FormFactor,
    ModeGrid,
    StructuralError,
    bs_inner,
    bs_norm,
    check_structure,
    ir_split,
    power_law_grid,
    renorm_energy,
    separable,
    uv_truncate,
    zero_form_factor,
)
from sbfock.reports import INEQUALITY_SLACK, bound_check

I2 = np.eye(2)


def grid_of(omegas, mus=None, kappa=1.0):
    omegas = np.asarray(omegas, dtype=float)
    mus = np.ones_like(omegas) if mus is None else np.asarray(mus, dtype=float)
    return ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=kappa)


def random_form_factor(grid, spin_dim, rng, scale=1.0):
    shape = (grid.n_modes, spin_dim, spin_dim)
    return FormFactor(grid, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


# ---------------------------------------------------------------- bs_inner


def test_bs_inner_zero():
    g = grid_of([1.0, 2.0])
    z = zero_form_factor(g, 2)
    assert np.array_equal(bs_inner(z, z, 1.0), np.zeros((2, 2)))


def test_bs_inner_single_mode_sigma_x():
    g = grid_of([4.0], mus=[2.0])
    F = separable(g, [1.0], SIGMA_X)
    assert np.allclose(bs_inner(F, F, 1.0), 0.5 * I2, atol=1e-15)


def test_bs_inner_two_modes():
    g = grid_of([1.0, 2.0])
    F = separable(g, [1.0, 1.0], SIGMA_X)
    assert np.allclose(bs_inner(F, F, 1.0), 1.5 * I2, atol=1e-15)


def test_bs_inner_conjugate_symmetry_and_psd():
    rng = np.random.default_rng(7)
    g = grid_of([0.5, 1.5, 3.0], mus=[0.3, 1.1, 0.8])
    for s in (-1.0, 0.0, 1.0, 2.0):
        F = random_form_factor(g, 3, rng)
        G = random_form_factor(g, 3, rng)
        assert np.allclose(bs_inner(F, G, s).conj().T, bs_inner(G, F, s), atol=1e-13)
        evals = np.linalg.eigvalsh(bs_inner(F, F, s))
        assert evals.min() >= -1e-12


def test_bs_inner_grid_mismatch():
    F = separable(grid_of([1.0]), [1.0], SIGMA_X)
    G = separable(grid_of([2.0]), [1.0], SIGMA_X)
    with pytest.raises(StructuralError):
        bs_inner(F, G, 0.0)


# ----------------------------------------------------------------- bs_norm


def test_bs_norm_zero():
    g = grid_of([1.0, 3.0])
    assert bs_norm(zero_form_factor(g, 2), 1.7) == 0.0


def test_bs_norm_sigma_minus_single_mode():
    g = grid_of([2.0])
    F = separable(g, [1.0], SIGMA_MINUS)
    assert bs_norm(F, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_bs_norm_three_modes_against_direct_sum():
    g = grid_of([1.0, 2.0, 4.0])
    F = separable(g, [1.0, 1.0, 1.0], SIGMA_X)
    # independent oracle: term-by-term summation with the known norm of sigma_x
    expected = 0.0
    for mu, omega in zip(g.mus, g.omegas):
        expected += mu * omega ** (-1.0) * 1.0**2
    assert expected == pytest.approx(1.75)
    assert bs_norm(F, 1.0) == pytest.approx(np.sqrt(1.75), rel=1e-14)


def test_bs_norm_high_part_inclusion_inequality():
    # for F supported on omega > kappa: sum mu w^{-s'} |F|^2 <= kappa^{s-s'} sum mu w^{-s}|F|^2, s' >= s
    rng = np.random.default_rng(11)
    g = grid_of([0.7, 1.3, 2.0, 8.0], kappa=1.0)
    F = random_form_factor(g, 2, rng)
    _, Fhigh = ir_split(F)
    for s, sp_ in [(0.0, 1.0), (1.0, 2.0), (0.5, 1.7), (1.0, 1.0)]:
        lhs = bs_norm(Fhigh, sp_) ** 2
        rhs = g.kappa ** (s - sp_) * bs_norm(Fhigh, s) ** 2
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------- ir_split


def test_ir_split_zero():
    g = grid_of([1.0, 2.0])
    lo, hi = ir_split(zero_form_factor(g, 2))
    assert lo.is_zero() and hi.is_zero()


def test_ir_split_threshold_partition():
    g = grid_of([0.5, 3.0])
    F = separable(g, [1.0, 1.0], SIGMA_X)
    lo, hi = ir_split(F)
    assert np.allclose(lo.values[0], SIGMA_X) and not np.any(lo.values[1])
    assert not np.any(hi.values[0]) and np.allclose(hi.values[1], SIGMA_X)


def test_ir_split_boundary_belongs_to_infrared():
    g = grid_of([1.0, 1.0])
    F = separable(g, [1.0, 1.0], SIGMA_X)
    lo, hi = ir_split(F)
    assert np.array_equal(lo.values, F.values)
    assert hi.is_zero()


def test_ir_split_reconstructs_exactly():
    rng = np.random.default_rng(3)
    g = grid_of([0.3, 0.9, 1.0, 1.1, 7.0])
    F = random_form_factor(g, 2, rng)
    lo, hi = ir_split(F)
    assert np.array_equal(lo.values + hi.values, F.values)


# ------------------------------------------------------------- uv_truncate


def test_uv_truncate_above_max_keeps_everything():
    rng = np.random.default_rng(5)
    g = grid_of([1.0, 2.0, 3.0])
    F = random_form_factor(g, 2, rng)
    assert np.array_equal(uv_truncate(F, 10.0).values, F.values)


def test_uv_truncate_below_min_zeroes_everything():
    g = grid_of([1.0, 2.0, 3.0])
    F = separable(g, [1.0, 1.0, 1.0], SIGMA_X)
    assert uv_truncate(F, 1.0).is_zero()


def test_uv_truncate_strict_inequality():
    g = grid_of([1.0, 2.0, 3.0])
    F = separable(g, [1.0, 1.0, 1.0], SIGMA_X)
    out = uv_truncate(F, 2.5)
    assert np.any(out.values[0]) and np.any(out.values[1]) and not np.any(out.values[2])


# --------------------------------------------------------- check_structure


def decomposition(grid, v_le, v_d, v_n, s_n=1.5):
    return CouplingDecomposition(v_le=v_le, v_d=v_d, v_n=v_n, s_n=s_n)


def test_check_structure_normal_sigma_x_passes():
    g = grid_of([2.0, 3.0], kappa=1.0)
    D = decomposition(
        g,
        zero_form_factor(g, 2),
        separable(g, [1.0, 0.5], SIGMA_X),
        zero_form_factor(g, 2),
    )
    assert check_structure(D).passed


def test_check_structure_nilpotent_sigma_minus_passes():
    g = grid_of([2.0, 3.0], kappa=1.0)
    D = decomposition(
        g,
        zero_form_factor(g, 2),
        zero_form_factor(g, 2),
        separable(g, [1.0, 0.5], SIGMA_MINUS),
    )
    suite = check_structure(D)
    assert suite.passed
    nil = next(r for r in suite.results if r.name == "nilpotency")
    assert nil.max_violation == 0.0


def test_check_structure_sigma_minus_not_normal():
    g = grid_of([2.0], kappa=1.0)
    D = decomposition(
        g,
        zero_form_factor(g, 2),
        separable(g, [1.0], SIGMA_MINUS),
        zero_form_factor(g, 2),
    )
    suite = check_structure(D)
    assert not suite.passed
    norm_check = next(r for r in suite.results if r.name == "normality")
    assert norm_check.max_violation == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["normal", "nilpotent"])
def test_check_structure_tensor_power_examples(k, kind):
    # many-spin couplings: k-fold tensor powers of sigma_x / sigma_minus
    B = SIGMA_X if kind == "normal" else SIGMA_MINUS
    Bk = B.copy()
    for _ in range(k - 1):
        Bk = np.kron(Bk, B)
    g = grid_of([2.0, 4.0], kappa=1.0)
    zero = zero_form_factor(g, 2**k)
    ff = separable(g, [0.7, 0.2], Bk)
    if kind == "normal":
        D = decomposition(g, zero, ff, zero)
    else:
        D = decomposition(g, zero, zero, ff)
    assert check_structure(D).passed


def test_check_structure_support_violation_detected():
    g = grid_of([0.5, 3.0], kappa=1.0)
    D = decomposition(
        g,
        zero_form_factor(g, 2),
        separable(g, [1.0, 1.0], SIGMA_X),  # nonzero on omega <= kappa
        zero_form_factor(g, 2),
    )
    suite = check_structure(D)
    support = next(r for r in suite.results if r.name == "support")
    assert not support.passed


def test_check_structure_admissibility_gate():
    g = grid_of([2.0], kappa=1.0)
    big = separable(g, [3.0], SIGMA_MINUS)  # b_2 norm = 3/2 > 1/2
    D = CouplingDecomposition(
        v_le=zero_form_factor(g, 2), v_d=zero_form_factor(g, 2), v_n=big, s_n=2.0
    )
    suite = check_structure(D)
    adm = next(r for r in suite.results if r.name == "admissibility")
    assert not adm.passed
    # declaring s_n < 2 opens the gate
    D2 = CouplingDecomposition(
        v_le=zero_form_factor(g, 2), v_d=zero_form_factor(g, 2), v_n=big, s_n=1.5
    )
    adm2 = next(r for r in check_structure(D2).results if r.name == "admissibility")
    assert adm2.passed


# ----------------------------------------------------------- renorm_energy


def test_renorm_energy_zero():
    g = grid_of([1.0, 2.0], kappa=0.5)
    assert np.array_equal(renorm_energy(zero_form_factor(g, 2)), np.zeros((2, 2)))


def test_renorm_energy_two_modes():
    g = grid_of([1.0, 2.0], kappa=0.5)
    F = separable(g, [1.0, 1.0], SIGMA_X)
    assert np.allclose(renorm_energy(F), 1.5 * I2, atol=1e-15)


def test_renorm_energy_matches_scalar_self_energy():
    # scalar spin, v = omega^{-1/2}: counterterm equals sum mu_i omega_i^{-2}
    omegas = np.array([0.8, 1.7, 3.1, 6.0])
    mus = np.array([0.5, 1.0, 2.0, 0.25])
    g = ModeGrid(labels=omegas, omegas=omegas, mus=mus, kappa=0.5)
    F = FormFactor(g, omegas ** (-0.5))
    expected = sum(m * w ** (-2.0) for m, w in zip(mus, omegas))
    assert renorm_energy(F)[0, 0].real == pytest.approx(expected, rel=1e-14)
    # positive semidefinite scalar
    assert renorm_energy(F)[0, 0].real > 0


# ---------------------------------------------------------- power_law_grid


def test_power_law_grid_validation():
    with pytest.raises(StructuralError):
        power_law_grid(0.0, 1.0, 0.5, 8)
    with pytest.raises(StructuralError):
        power_law_grid(0.0, 1.0, 256.0, 1)


def test_power_law_grid_log_growth_matches_integral():
    # beta = 0, cutoffs on cell edges: discrete b_1 norm^2 of v_Lambda tracks
    # int_{kappa/2}^{Lambda} dk/k = log(2 Lambda / kappa) within 5 %
    grid, v = power_law_grid(0.0, 1.0, 256.0, 72)
    F = FormFactor(grid, v)
    for Lam in (4.0, 16.0, 64.0, 256.0):
        discrete = bs_norm(uv_truncate(F, Lam * (1 + 1e-12)), 1.0) ** 2
        exact = np.log(2 * Lam / 1.0)
        assert abs(discrete - exact) <= 0.05 * exact


def test_power_law_grid_regularized_profile_bounded():
    # beta = 0: the (1+omega)^{-1}-damped profile has Lambda-independent b_0 norm
    norms = []
    for Lam in (64.0, 256.0, 1024.0):
        grid, v = power_law_grid(0.0, 1.0, Lam, 96)
        damped = FormFactor(grid, v / (1.0 + grid.omegas))
        exact = 1.0 / (1.0 + 0.5) - 1.0 / (1.0 + Lam)
        discrete = bs_norm(damped, 0.0) ** 2
        assert abs(discrete - exact) <= 0.05 * exact
        norms.append(discrete)
    assert max(norms) <= 1.0 / 1.5


def test_power_law_grid_supercritical_log_divergence():
    # beta = -1/2 (v = k^{1/2}): b_0 norm^2 of omega^{-1} v grows like log Lambda
    grid, v = power_law_grid(-0.5, 1.0, 256.0, 72)
    F = FormFactor(grid, v / grid.omegas)
    for Lam in (4.0, 64.0, 256.0):
        discrete = bs_norm(uv_truncate(F, Lam * (1 + 1e-12)), 0.0) ** 2
        exact = np.log(2 * Lam)
        assert abs(discrete - exact) <= 0.05 * exact


# ------------------------------------------------------------- bound_check


def test_bound_check_zero_rhs():
    ok = bound_check("b", 0.0, 0.0)
    assert ok.passed and ok.max_violation == 0.0
    bad = bound_check("b", [0.5, 1e-200], [1.0, 0.0])
    assert not bad.passed and bad.max_violation == np.inf


def test_bound_check_scalar_array_and_empty_agree():
    for lhs, rhs in ((0.5, 1.0), (2.0, 1.0), (0.0, 0.0), (1e-200, 0.0)):
        scalar = bound_check("b", lhs, rhs)
        array = bound_check("b", np.array([lhs, 0.0]), np.array([rhs, 1.0]))
        assert (scalar.passed, scalar.max_violation) == (array.passed, array.max_violation)
    empty = bound_check("b", np.array([]), np.array([]))
    assert empty.passed and empty.max_violation == 0.0


def test_bound_check_slack_edge():
    edge = 1.0 + INEQUALITY_SLACK
    assert bound_check("b", [0.5, edge], [1.0, 1.0]).passed
    above = bound_check("b", [0.5, np.nextafter(edge, np.inf)], [1.0, 1.0])
    assert not above.passed and above.max_violation > INEQUALITY_SLACK
