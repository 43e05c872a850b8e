import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from planeqm.bell import (
    _sign_model,
    _uniform_density,
    BUILTIN_MODELS,
    BellKind,
    HiddenVariableModel,
    ScanGrid,
    baby_bell_check,
    bell_state,
    classical_correlation,
    from_kron_order,
    joint_probabilities,
    quantum_correlation,
    sigma_tensor,
    sign_cosine_model,
    sign_projection_model,
    sin_inequality,
    singlet_correlation,
    to_kron_order,
    violation_scan,
)
from planeqm.measurement import evolution_operator
from planeqm.states import TWO_PI, _kron, projector, pure_state, rotation, sigma_phi

angles = st.floats(min_value=-10.0, max_value=10.0)

SQ2 = math.sqrt(2.0)


def basis_vectors_diag_first():
    # the four product basis vectors, as Kronecker-order coordinates
    u0, u1 = pure_state(0.0), pure_state(math.pi / 2)
    return [np.kron(u0, u0), np.kron(u1, u1), np.kron(u0, u1), np.kron(u1, u0)]


# ---------------------------------------------------------------------------
# states and operators


def test_bell_state_components():
    assert_allclose(bell_state(BellKind.PHI_PLUS), np.array([1, 1, 0, 0]) / SQ2, atol=1e-15)
    assert_allclose(bell_state(BellKind.PSI_MINUS), np.array([0, 0, -1, 1]) / SQ2, atol=1e-15)


def test_bell_states_are_orthonormal():
    stack = np.array([bell_state(kind) for kind in BellKind])
    assert_allclose(stack @ stack.T, np.eye(4), atol=1e-15)


def test_order_conversions_round_trip():
    # independent reference: diagonal-first component i is Kronecker slot perm[i]
    perm = [0, 3, 1, 2]
    inv = [perm.index(i) for i in range(4)]

    def reindex(a, idx):
        return a[idx] if a.ndim == 1 else a[np.ix_(idx, idx)]

    rng = np.random.default_rng(3)
    for shape in ((4,), (4, 4)):
        for _ in range(2000):
            a = rng.normal(size=shape)
            a[rng.random(shape) < 0.25] = 0.0
            a *= rng.choice([1.0, -1.0], shape)
            # a transposed operator is not C-contiguous
            for x in (a, a.T):
                assert _same_bits(from_kron_order(x), reindex(x, perm))
                assert _same_bits(to_kron_order(x), reindex(x, inv))
                assert _same_bits(to_kron_order(from_kron_order(x)), x)
                assert _same_bits(from_kron_order(to_kron_order(x)), x)
    for convert in (from_kron_order, to_kron_order):
        for shape in ((3,), (16,), (4, 4, 1), ()):
            with pytest.raises(ValueError, match=re.escape(f"4-vector or 4x4 matrix, got shape {shape}")):
                convert(np.zeros(shape))


def test_sigma_tensor_against_explicit_kron_oracle():
    # oracle: matrix elements <b_i| sigma (x) sigma |b_j> computed with
    # Kronecker-order basis vectors, independent of the reindexing helper
    for a, b in [(0.0, 0.0), (math.pi / 2, math.pi / 2), (0.7, 2.1)]:
        kron_op = np.kron(sigma_phi(a), sigma_phi(b))
        basis = basis_vectors_diag_first()
        expected = np.array([[bi @ kron_op @ bj for bj in basis] for bi in basis])
        assert_allclose(sigma_tensor(a, b), expected, atol=1e-14)


def _same_bits(got, want):
    # np.array_equal takes -0.0 == 0.0, so compare the signs of the zeros as well
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_kron_helper_is_bit_equal_to_numpy_kron():
    rng = np.random.default_rng(2000)
    for shape in ((2, 2), (2,)):
        for _ in range(2000):
            a, b = rng.normal(size=shape), rng.normal(size=shape)
            # signed zeros, in either factor
            a[rng.random(shape) < 0.25] = 0.0
            b[rng.random(shape) < 0.25] = -0.0
            a, b = a * rng.choice([1.0, -1.0], shape), b * rng.choice([1.0, -1.0], shape)
            assert _same_bits(_kron(a, b), np.kron(a, b))


def test_kron_call_sites_are_bit_equal_to_numpy_kron():
    rng = np.random.default_rng(2001)
    angles = [0.0, -0.0, math.pi / 2, -math.pi, *rng.uniform(-10.0, 10.0, 2000)]
    eigenvectors = {1: lambda phi: pure_state(phi / 2.0), -1: lambda phi: pure_state((phi + math.pi) / 2.0)}
    for a, b in zip(angles, rng.permutation(angles)):
        assert _same_bits(sigma_tensor(a, b), from_kron_order(np.kron(sigma_phi(a), sigma_phi(b))))
        psi = bell_state(BellKind.PSI_MINUS)
        # joint_probabilities reduces its angles mod 2 pi before it halves them
        amps = {
            (ea, eb): float(from_kron_order(np.kron(ua(a % TWO_PI), ub(b % TWO_PI))) @ psi)
            for ea, ua in eigenvectors.items() for eb, ub in eigenvectors.items()
        }
        assert joint_probabilities(BellKind.PSI_MINUS, a, b) == {key: amp * amp for key, amp in amps.items()}
    for g, r, phi in rng.uniform([0.0, 0.0, -10.0], [1.0, 1.0, 10.0], (200, 3)):
        # evolution_operator reduces phi mod pi before it adds the quarter turn
        e_par, e_perp = projector(phi % math.pi), projector(phi % math.pi + 0.5 * math.pi)
        want = np.kron(rotation(g * (1.0 + r) / 2.0), e_par) + np.kron(rotation(g * (1.0 - r) / 2.0), e_perp)
        assert _same_bits(evolution_operator(g, r, phi), want)


def test_sigma_tensor_examples():
    assert_allclose(sigma_tensor(0.0, 0.0), np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)
    s1s1 = sigma_tensor(math.pi / 2, math.pi / 2)
    assert_allclose(s1s1 @ s1s1, np.eye(4), atol=1e-14)


@given(angles, angles)
def test_sigma_tensor_structure(a, b):
    m = sigma_tensor(a, b)
    assert_allclose(m, m.T, atol=1e-12)
    assert_allclose(m @ m, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# quantum correlations


def test_quantum_correlation_examples():
    assert quantum_correlation(0.9, 0.9) == pytest.approx(-1.0, abs=1e-12)
    assert quantum_correlation(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert quantum_correlation(0.0, math.pi) == pytest.approx(1.0, abs=1e-12)


@given(angles, angles)
def test_quantum_correlation_closed_form(a, b):
    value = quantum_correlation(a, b)
    assert value == pytest.approx(-math.cos(a - b), abs=1e-12)
    assert abs(value) <= 1.0 + 1e-12


def test_joint_probabilities_perfect_anticorrelation():
    table = joint_probabilities(BellKind.PSI_MINUS, 0.3, 0.3)
    assert table[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert table[(-1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert table[(1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert table[(-1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_joint_probabilities_phi_plus_alignment():
    table = joint_probabilities(BellKind.PHI_PLUS, 0.0, 0.0)
    assert table[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert table[(-1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert table[(1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert table[(-1, 1)] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60)
@given(st.sampled_from(list(BellKind)), angles, angles)
def test_joint_probabilities_normalization_and_marginals(kind, a, b):
    table = joint_probabilities(kind, a, b)
    assert all(p >= -1e-15 for p in table.values())
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
    # maximal entanglement: both single-party marginals are unbiased
    for sign in (1, -1):
        assert table[(sign, 1)] + table[(sign, -1)] == pytest.approx(0.5, abs=1e-12)
        assert table[(1, sign)] + table[(-1, sign)] == pytest.approx(0.5, abs=1e-12)


@given(angles, angles)
def test_joint_probabilities_reproduce_singlet_correlation(a, b):
    table = joint_probabilities(BellKind.PSI_MINUS, a, b)
    signed_sum = sum(ea * eb * p for (ea, eb), p in table.items())
    assert signed_sum == pytest.approx(quantum_correlation(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# hidden-variable models


def test_model_registration_validation():
    with pytest.raises(ValueError, match="integrates"):
        HiddenVariableModel(
            epsilon=lambda phi, lam: np.ones_like(lam),
            density=lambda lam: np.full(np.shape(lam), 1.0 / math.pi),
        )
    with pytest.raises(ValueError, match="nonnegative"):
        HiddenVariableModel(
            epsilon=lambda phi, lam: np.ones_like(lam),
            density=lambda lam: np.cos(lam) / math.pi,
        )
    with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
        HiddenVariableModel(
            epsilon=lambda phi, lam: np.cos(phi - lam),
            density=lambda lam: np.full(np.shape(lam), 1.0 / TWO_PI),
        )
    with pytest.raises(ValueError, match="positive length"):
        HiddenVariableModel(
            epsilon=lambda phi, lam: np.ones_like(lam),
            density=lambda lam: np.ones_like(lam),
            domain=(1.0, 1.0),
        )
    # refused before any grid is built: no invalid-value warning, no integral
    for domain, end in (((-math.inf, 0.0), -math.inf), ((0.0, math.inf), math.inf), ((-math.inf, math.inf), -math.inf)):
        with pytest.raises(ValueError, match=f"^domain ends must be finite, got {end}$"):
            HiddenVariableModel(
                epsilon=lambda phi, lam: np.ones_like(lam),
                density=lambda lam: np.ones_like(lam),
                domain=domain,
            )


@pytest.mark.parametrize("domain", [(0.0, 1.0, 2.0), (1.0,), (), 5.0, None], ids=repr)
def test_model_refuses_a_malformed_domain(domain):
    with pytest.raises(ValueError) as info:
        HiddenVariableModel(
            epsilon=lambda phi, lam: np.ones_like(lam),
            density=lambda lam: np.ones_like(lam),
            domain=domain,
        )
    assert str(info.value) == f"domain must be a (lo, hi) pair, got {domain!r}"


@pytest.mark.parametrize("factory", [sign_cosine_model, sign_projection_model])
def test_builtin_models_are_built_once(factory):
    assert factory() is factory()
    assert BUILTIN_MODELS[factory().name]() is factory()


def test_sign_models_are_their_closed_forms():
    rng = np.random.default_rng(14)
    lam = rng.uniform(0.0, TWO_PI, 257)
    for phi in [0.0, math.pi, *rng.uniform(-7.0, 7.0, 50)]:
        assert np.array_equal(sign_cosine_model().epsilon(phi, lam), np.sign(np.cos(phi - lam)))
        assert np.array_equal(sign_projection_model().epsilon(phi, lam), np.sign(np.cos(phi / 2.0 - lam)))


def test_invalid_custom_model_still_raises_after_builtins_are_cached():
    with pytest.raises(ValueError, match="integrates"):
        HiddenVariableModel(
            epsilon=sign_cosine_model().epsilon,
            density=lambda lam: np.full(np.shape(lam), 1.0 / math.pi),
            name="sign-cos",
        )


@pytest.mark.parametrize("factory", [sign_cosine_model, sign_projection_model])
def test_builtin_densities_pass_the_full_registration_integral(factory):
    # a lambda around the built-in density is not the uniform density the
    # registration trusts, so the 2**20-point integral runs on it unchanged
    builtin = factory()
    sizes = []

    def density(lam):
        sizes.append(lam.size)
        return builtin.density(lam)

    HiddenVariableModel(epsilon=builtin.epsilon, density=density, name=builtin.name)
    assert sizes == [1 << 20]


def test_uniform_density_on_another_domain_is_integrated():
    with pytest.raises(ValueError, match="^density integrates to ") as info:
        HiddenVariableModel(epsilon=sign_cosine_model().epsilon, density=_uniform_density, domain=(0.0, math.pi))
    total = re.fullmatch(r"density integrates to (\S+), expected 1 within 1e-9", str(info.value))[1]
    assert float(total) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("density", [_uniform_density, lambda lam: np.full(np.shape(lam), 1.0 / TWO_PI)])
def test_outcome_probe_covers_the_whole_domain(density):
    # +-1 only below lam = 1, 0.5 on the rest of [0, 2 pi)
    def epsilon(phi, lam):
        return np.where(lam < 1.0, np.sign(np.cos(phi - lam)), 0.5)

    with pytest.raises(ValueError, match=r"^epsilon must take values in \{-1, \+1\}$"):
        HiddenVariableModel(epsilon=epsilon, density=density)


@pytest.mark.parametrize("factory", [sign_cosine_model, sign_projection_model])
def test_building_a_builtin_model_allocates_no_registration_grid(factory):
    _sign_model.cache_clear()
    tracemalloc.start()
    try:
        factory()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 2**20-point float grid alone is 8 MB
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [7, 4096])
@pytest.mark.parametrize("factory,scale", [(sign_cosine_model, 1.0), (sign_projection_model, 0.5)])
def test_builtin_singlet_correlation_is_the_midpoint_sum(factory, scale, n):
    # the n-point midpoint rule for -<eps(a, .) eps(b, .)>, written out apart from the library
    lam = (np.arange(n) + 0.5) * (TWO_PI / n)
    weights = np.full(n, 1.0 / TWO_PI) * TWO_PI
    phi_a, phi_b = np.random.default_rng(n).uniform(-7.0, 7.0, (2, 40))
    want = [
        -float((weights * np.where(np.cos(scale * a - lam) >= 0.0, 1.0, -1.0)
                * np.where(np.cos(scale * b - lam) >= 0.0, 1.0, -1.0)).mean())
        for a, b in zip(phi_a, phi_b)
    ]
    assert [singlet_correlation(factory(), a, b, n) for a, b in zip(phi_a, phi_b)] == want
    assert np.array_equal(singlet_correlation(factory(), phi_a, phi_b, n), want)


def sawtooth_overlap(pa, pb):
    # closed form of <sgn cos(pa-.) sgn cos(pb-.)> under a uniform hidden angle
    d = (pa - pb) % TWO_PI
    d = min(d, TWO_PI - d)
    return 1.0 - 2.0 * d / math.pi


def test_classical_correlation_examples():
    model = sign_cosine_model()
    assert classical_correlation(model, 1.3, 1.3) == pytest.approx(1.0)
    assert classical_correlation(model, 0.0, math.pi) == pytest.approx(-1.0)
    assert classical_correlation(model, 0.0, math.pi / 2, 4096) == pytest.approx(
        0.0, abs=2 / 4096
    )


@pytest.mark.parametrize(
    "pa,pb", [(0.3, 1.7), (2.0, 5.5), (0.0, 0.1), (4.4, 1.1)]
)
def test_classical_correlation_matches_sawtooth_oracle(pa, pb):
    model = sign_cosine_model()
    value = classical_correlation(model, pa, pb, 4096)
    assert value == pytest.approx(sawtooth_overlap(pa, pb), abs=10 / 4096)


def test_classical_correlation_monte_carlo_mode():
    # the midpoint grid is the one integration rule: there is no Monte-Carlo mode to select
    model = sign_cosine_model()
    for correlation in (classical_correlation, singlet_correlation):
        with pytest.raises(TypeError, match="method"):
            correlation(model, 0.4, 2.9, 200_000, method="mc", seed=5)
    with pytest.raises(ValueError, match="n_nodes"):
        classical_correlation(model, 0.0, 1.0, n_nodes=0)


def test_singlet_correlation_is_anti_aligned():
    model = sign_cosine_model()
    assert singlet_correlation(model, 0.7, 0.7) == pytest.approx(-1.0)
    assert singlet_correlation(model, 0.2, 1.5) == pytest.approx(
        -classical_correlation(model, 0.2, 1.5)
    )


def _counting_model():
    """A custom model, non-uniform density on its own domain, that counts its outcome evaluations."""
    calls = []

    def epsilon(phi, lam):
        calls.append(phi)
        return np.where(np.sin(2.0 * phi + lam) >= 0.0, 1.0, -1.0)

    model = HiddenVariableModel(epsilon=epsilon, density=lambda lam: (1.0 + np.cos(lam)) / TWO_PI, domain=(-math.pi, math.pi))
    calls.clear()  # registration probes epsilon once
    return model, calls


PHI_A = [0.3, 1.1, 0.3, -2.0, 1.1, 7.5]
PHI_B = [1.1, 0.3, 0.3, 5.0, -2.0, 7.5]


@pytest.mark.parametrize("correlation", [classical_correlation, singlet_correlation])
@pytest.mark.parametrize("model", ["sign-cos", "sign-projection", "custom"])
# the midpoint grid, which takes no seed, at 1000 nodes
@pytest.mark.parametrize("n_nodes", [pytest.param(1000, id="grid-None")])
def test_correlation_of_sequences_equals_per_pair_calls(correlation, model, n_nodes):
    built = BUILTIN_MODELS[model]() if model != "custom" else _counting_model()[0]
    for phi_a, phi_b in ((PHI_A, PHI_B), (np.array(PHI_A), tuple(PHI_B)), ([0.4], [0.4])):
        got = correlation(built, phi_a, phi_b, n_nodes)
        want = [correlation(built, a, b, n_nodes) for a, b in zip(phi_a, phi_b)]
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    assert type(correlation(built, 0.3, 1.1, n_nodes)) is float


def test_correlation_of_sequences_evaluates_each_angle_once():
    model, calls = _counting_model()
    singlet_correlation(model, PHI_A, PHI_B)
    assert sorted(calls) == sorted(set(PHI_A + PHI_B))


@pytest.mark.parametrize("phi_a,phi_b", [([0.1, 0.2], [0.3]), ([0.1], 0.3), ([[0.1]], [[0.3]])])
def test_correlation_refuses_unpaired_angles(phi_a, phi_b):
    with pytest.raises(ValueError, match="equal-length sequences"):
        singlet_correlation(sign_cosine_model(), phi_a, phi_b)


# ---------------------------------------------------------------------------
# the inequality


def test_baby_bell_check_trivial_and_quantum_triple():
    report = baby_bell_check(0.0, 0.0, 0.0)
    assert (report.lhs, report.rhs, report.violated) == (0.0, 1.0, False)

    # quantum correlations at (0, pi/3, 2pi/3)
    p_ab = quantum_correlation(0.0, math.pi / 3)
    p_ac = quantum_correlation(0.0, 2 * math.pi / 3)
    p_bc = quantum_correlation(math.pi / 3, 2 * math.pi / 3)
    assert_allclose([p_ab, p_ac, p_bc], [-0.5, 0.5, -0.5], atol=1e-12)
    report = baby_bell_check(p_ab, p_ac, p_bc)
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.5, abs=1e-12)
    assert report.violated


def test_baby_bell_check_rejects_out_of_range():
    with pytest.raises(ValueError, match="p_ac"):
        baby_bell_check(0.0, 1.5, 0.0)


@pytest.mark.parametrize("factory", [sign_cosine_model, sign_projection_model])
def test_classical_models_never_violate(factory):
    model = factory()
    rng = np.random.default_rng(20260810)
    slack = 10 / 4096
    for _ in range(100):
        pa, pb, pc = rng.uniform(0.0, TWO_PI, 3)
        report = baby_bell_check(
            singlet_correlation(model, pa, pb),
            singlet_correlation(model, pa, pc),
            singlet_correlation(model, pb, pc),
        )
        assert report.margin >= -slack


def test_sin_inequality_examples():
    boundary = sin_inequality(0.9, 0.0)
    assert (boundary.lhs, boundary.rhs, boundary.violated) == (0.0, 0.0, False)

    violated = sin_inequality(math.pi / 6, math.pi / 6)
    assert violated.lhs == pytest.approx(0.5, abs=1e-12)
    assert violated.rhs == pytest.approx(0.25, abs=1e-12)
    assert violated.violated

    edge = sin_inequality(math.pi / 4, math.pi / 4)
    assert edge.lhs == pytest.approx(edge.rhs, abs=1e-12)
    assert not edge.violated


@given(angles, angles)
def test_sin_inequality_structure(zeta, eta):
    report = sin_inequality(zeta, eta)
    assert 0.0 <= report.lhs <= 1.0 + 1e-12
    assert report.rhs == pytest.approx(sin_inequality(zeta, -eta).rhs, abs=1e-12)
    assert report.violated == (report.margin < -1e-12)


# ---------------------------------------------------------------------------
# scanning


def test_violation_scan_diagonal_region():
    grid = np.arange(0, 91) * (math.pi / 180.0)  # [0, pi/2] in 1-degree steps
    violated = grid[np.diagonal(violation_scan(grid, grid).violated)]
    expected = [eta for eta in grid if 0.0 < eta < math.pi / 4 - 1e-12]
    assert_allclose(violated, expected, atol=0)


def test_violation_scan_eta_right_angle_is_boundary():
    grid = violation_scan([math.pi / 2], [math.pi / 2])
    # reduces to |4 sin^2(eta) - 3| = 1 at the bound
    assert grid.lhs[0, 0] == pytest.approx(grid.rhs[0], abs=1e-12)
    assert not grid.violated[0, 0]


def test_violation_scan_empty_high_angle_region():
    grid = np.linspace(math.pi / 3, math.pi / 2, 40)
    assert not violation_scan(grid, grid).violated.any()


def test_violation_scan_rejects_empty_grids():
    with pytest.raises(ValueError, match="nonempty"):
        violation_scan([], [0.1])


def test_violation_scan_rejects_nested_grids():
    with pytest.raises(ValueError, match="one-dimensional"):
        violation_scan([[0.1, 0.2]], [0.1])


grid_axes = st.lists(angles, min_size=1, max_size=9)


@given(grid_axes, grid_axes)
def test_violation_scan_matches_pointwise_bound(zetas, etas):
    assume(len(zetas) != len(etas))
    grid = violation_scan(zetas, etas)
    assert grid.lhs.shape == (len(zetas), len(etas))
    assert (grid.zetas.tolist(), grid.etas.tolist()) == (zetas, etas)
    for (i, zeta), (j, eta) in itertools.product(enumerate(zetas), enumerate(etas)):
        report = sin_inequality(zeta, eta)
        values = (report.lhs, report.rhs, report.violated, report.margin)
        assert [type(v) for v in values] == [float, float, bool, float]
        assert (grid.lhs[i, j], grid.rhs[j], grid.violated[i, j], grid.margin[i, j]) == values
        # independent of the shared kernel: the bound straight from math.sin
        expected = abs(math.sin(zeta) ** 2 - math.sin(eta + zeta) ** 2)
        assert report.lhs == pytest.approx(expected, abs=8 * np.finfo(float).eps)
        assert report.rhs == pytest.approx(math.sin(eta) ** 2, abs=8 * np.finfo(float).eps)


def test_scan_grid_is_read_only_arrays():
    zetas, etas = [0.1, 0.2, 0.3], [0.4, 0.5]
    grid = violation_scan(zetas, etas)
    assert isinstance(grid, ScanGrid)
    assert not hasattr(grid, "__len__") and not hasattr(grid, "__getitem__")
    assert (grid.zetas.tolist(), grid.etas.tolist()) == (zetas, etas)
    assert (grid.lhs.shape, grid.rhs.shape) == ((3, 2), (2,))
    assert grid.violated.shape == grid.margin.shape == (3, 2)
    assert (grid.lhs.dtype, grid.violated.dtype) == (np.float64, np.bool_)
    for name in ("zetas", "etas", "lhs", "rhs", "violated", "margin"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name).flat[0] = 0
