import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from planeqm.measurement import (
    PARALLEL,
    PERPENDICULAR,
    DiracProfile,
    dirac_cumulative,
    evolution_operator,
    evolve_joint,
    exp_projector,
    measurement_outcomes,
    outcome_probability,
    sample_outcomes,
)
from planeqm.states import DensityParams, density_matrix, projector, rotation, sigma_phi

angles = st.floats(min_value=-10.0, max_value=10.0)
mixings = st.floats(min_value=0.0, max_value=1.0)
weights = st.floats(min_value=0.0, max_value=1.0)


def exp_series_oracle(theta, p, n_terms=30):
    # independent oracle: truncated power series of exp(theta TAU2 (x) P)
    tau2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    generator = theta * np.kron(tau2, p)
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, n_terms):
        term = term @ generator / k
        out = out + term
    return out


def partial_trace_pointer(m):
    # trace out the slow (pointer) slot of a 4x4 joint operator
    return m[0:2, 0:2] + m[2:4, 2:4]


# ---------------------------------------------------------------------------
# impulse profiles


def test_profile_validation():
    with pytest.raises(ValueError, match="eta"):
        DiracProfile(0.0, 0.0)
    with pytest.raises(ValueError, match="shape"):
        DiracProfile(0.0, 1.0, "triangle")


def test_box_cumulative_values():
    profile = DiracProfile(t_m=2.0, eta=0.5)
    assert dirac_cumulative(profile, 2.0 - 2 * 0.5) == 0.0
    assert dirac_cumulative(profile, 2.0) == 0.5
    assert dirac_cumulative(profile, 2.0 + 2 * 0.5) == 1.0


def test_gaussian_cumulative_values():
    profile = DiracProfile(t_m=-1.0, eta=0.25, shape="gaussian")
    assert dirac_cumulative(profile, -1.0) == pytest.approx(0.5, abs=1e-15)
    assert dirac_cumulative(profile, -1.0 - 8 * 0.25) == pytest.approx(0.0, abs=1e-12)
    assert dirac_cumulative(profile, -1.0 + 8 * 0.25) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", ["box", "gaussian"])
def test_cumulative_is_nondecreasing_and_bounded(shape):
    profile = DiracProfile(t_m=0.3, eta=0.7, shape=shape)
    ts = np.linspace(-5.0, 5.0, 400)
    vals = [dirac_cumulative(profile, t) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# exp of the coupled generator


def test_exp_projector_trivial_cases():
    assert_allclose(exp_projector(1.3, np.zeros((2, 2))), np.eye(4), atol=1e-15)
    assert_allclose(exp_projector(0.0, projector(0.4)), np.eye(4), atol=1e-15)


def test_exp_projector_matches_power_series():
    value = exp_projector(math.pi / 2, projector(0.0))
    assert_allclose(value, exp_series_oracle(math.pi / 2, projector(0.0)), atol=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0), angles)
def test_exp_projector_series_and_orthogonality(theta, phi):
    p = projector(phi)
    value = exp_projector(theta, p)
    assert_allclose(value, exp_series_oracle(theta, p), atol=1e-12)
    assert_allclose(value.T @ value, np.eye(4), atol=1e-12)


def test_exp_projector_rejects_non_projectors():
    with pytest.raises(ValueError, match="symmetric"):
        exp_projector(1.0, np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="idempotent"):
        exp_projector(1.0, 0.5 * np.eye(2))
    with pytest.raises(ValueError, match="2x2"):
        exp_projector(1.0, np.eye(3))


# ---------------------------------------------------------------------------
# evolution operator


def test_evolution_operator_examples():
    assert_allclose(evolution_operator(0.0, 0.7, 1.2), np.eye(4), atol=1e-15)
    phi = 0.8
    full_polarization = np.kron(rotation(1.0), projector(phi)) + np.kron(
        np.eye(2), projector(phi + math.pi / 2)
    )
    assert_allclose(evolution_operator(1.0, 1.0, phi), full_polarization, atol=1e-14)
    assert_allclose(
        evolution_operator(1.0, 0.0, phi), np.kron(rotation(0.5), np.eye(2)), atol=1e-14
    )


def test_evolution_operator_validation():
    with pytest.raises(ValueError, match="cumulative weight"):
        evolution_operator(1.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="degree of mixing"):
        evolution_operator(0.5, -0.5, 0.0)


@given(weights, mixings, angles)
def test_evolution_operator_is_orthogonal(g, r, phi):
    u = evolution_operator(g, r, phi)
    assert_allclose(u.T @ u, np.eye(4), atol=1e-12)


def test_tensor_product_factorization_convention():
    # (M (x) N)(u (x) v) = (M u) (x) (N v) under index = 2 i_A + i_B
    rng = np.random.default_rng(11)
    m, n = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    u, v = rng.normal(size=2), rng.normal(size=2)
    assert_allclose(np.kron(m, n) @ np.kron(u, v), np.kron(m @ u, n @ v), atol=1e-12)


# ---------------------------------------------------------------------------
# joint evolution


def test_evolve_joint_no_polarization_rotates_pointer_only():
    pointer, light = DensityParams(0.6, 0.3), DensityParams(0.8, 1.1)
    evolved = evolve_joint(pointer, light, 0.0, 0.9)
    rotated_pointer = density_matrix(DensityParams(0.6, 0.3 + 0.5))
    assert_allclose(evolved, np.kron(rotated_pointer, density_matrix(light)), atol=1e-13)


def test_evolve_joint_aligned_pure_light_is_fixed():
    phi = 0.7
    evolved = evolve_joint(DensityParams(0.0, 0.2), DensityParams(1.0, phi), 0.4, phi)
    assert_allclose(evolved, np.kron(0.5 * np.eye(2), projector(phi)), atol=1e-13)


def test_evolve_joint_generic_state_is_a_density():
    evolved = evolve_joint(DensityParams(0.5, 0.2), DensityParams(0.8, 0.1), 0.6, 0.9)
    assert np.trace(evolved) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(evolved, evolved.T, atol=1e-12)
    assert np.linalg.eigvalsh(evolved).min() >= -1e-10


@settings(max_examples=40)
@given(mixings, angles, mixings, angles, mixings, angles)
def test_evolve_joint_preserves_density_structure(s0, th0, r0, p0, r, phi):
    evolved = evolve_joint(DensityParams(s0, th0), DensityParams(r0, p0), r, phi)
    assert np.trace(evolved) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(evolved).min() >= -1e-10


# ---------------------------------------------------------------------------
# outcome probabilities


def test_outcome_probability_examples():
    assert outcome_probability(DensityParams(1.0, 0.4), 0.4, PARALLEL) == pytest.approx(1.0)
    assert outcome_probability(
        DensityParams(1.0, 0.0), math.pi / 4, PARALLEL
    ) == pytest.approx(0.5, abs=1e-15)
    for orientation in (PARALLEL, PERPENDICULAR):
        assert outcome_probability(DensityParams(0.0, 1.0), 2.2, orientation) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="orientation"):
        outcome_probability(DensityParams(0.5, 0.0), 0.0, "diagonal")


@pytest.mark.parametrize("orientation", [PARALLEL, PERPENDICULAR])
def test_outcome_probability_array_equals_scalar_calls(orientation):
    rng = np.random.default_rng(17)
    grids = [
        *(np.linspace(0.0, math.pi, steps) for steps in (2, 3, 17, 2047, 2048, 2049)),
        -rng.uniform(0.0, 50.0, 500),
        rng.uniform(-1e300, 1e300, 500),
        np.array([-0.0, -1e-300, -5e-324, 2 * math.pi, -2 * math.pi, 1e300, -1e300]),
    ]
    for r0, phi0 in [(1.0, 0.0), *zip(rng.uniform(0.0, 1.0, 4), rng.uniform(-10.0, 10.0, 4))]:
        light = DensityParams(float(r0), float(phi0))
        for grid in grids:
            got = outcome_probability(light, grid, orientation)
            want = [outcome_probability(light, phi, orientation) for phi in grid.tolist()]
            assert got.shape == grid.shape
            assert np.array_equal(got, want)
    assert type(outcome_probability(DensityParams(0.5, 0.3), 0.3, orientation)) is float


@given(mixings, angles, angles)
def test_outcome_probabilities_sum_to_one(r0, phi0, phi):
    light = DensityParams(r0, phi0)
    total = outcome_probability(light, phi, PARALLEL) + outcome_probability(
        light, phi, PERPENDICULAR
    )
    assert total == 1.0


@settings(max_examples=40)
@given(mixings, angles, mixings, angles, mixings, angles)
def test_closed_form_matches_trace_formula(s0, th0, r0, p0, r, phi):
    light = DensityParams(r0, p0)
    evolved = evolve_joint(DensityParams(s0, th0), light, r, phi)
    for orientation, proj in (
        (PARALLEL, projector(phi)),
        (PERPENDICULAR, projector(phi + math.pi / 2)),
    ):
        trace_value = float(np.trace(evolved @ np.kron(np.eye(2), proj)))
        assert trace_value == pytest.approx(
            outcome_probability(light, phi, orientation), abs=1e-12
        )


@settings(max_examples=40)
@given(mixings, angles, mixings, angles, mixings, angles)
def test_partial_trace_of_evolved_state(s0, th0, r0, p0, r, phi):
    # The diagonal part of the light's reduced state carries the outcome
    # weights; an extra traceless component survives from the pointer's
    # rotation cross terms (Tr R(r) = 2 cos r), proportional to sin of the
    # doubled misalignment.
    light = DensityParams(r0, p0)
    reduced = partial_trace_pointer(evolve_joint(DensityParams(s0, th0), light, r, phi))
    p_par = outcome_probability(light, phi, PARALLEL)
    assert float(np.trace(reduced @ projector(phi))) == pytest.approx(p_par, abs=1e-12)
    assert float(np.trace(reduced @ projector(phi + math.pi / 2))) == pytest.approx(
        1.0 - p_par, abs=1e-12
    )
    delta = phi - p0
    cross = -(r0 / 2) * math.sin(2 * delta) * math.cos(r) * sigma_phi(2 * phi + math.pi / 2)
    weights_part = p_par * projector(phi) + (1 - p_par) * projector(phi + math.pi / 2)
    assert_allclose(reduced, weights_part + cross, atol=1e-12)


def test_measurement_outcomes_branches():
    light = DensityParams(0.8, 0.1)
    par, perp = measurement_outcomes(light, 0.6, 0.9)
    assert (par.orientation, perp.orientation) == (PARALLEL, PERPENDICULAR)
    assert par.pointer_rotation == pytest.approx(0.8)
    assert perp.pointer_rotation == pytest.approx(0.2)
    assert par.probability + perp.probability == 1.0
    with pytest.raises(ValueError, match="degree of mixing"):
        measurement_outcomes(light, 1.4, 0.9)


# ---------------------------------------------------------------------------
# sampling


def test_sample_outcomes_degenerate_probabilities():
    assert sample_outcomes(1.0, 100, 7) == (100, 0)
    assert sample_outcomes(0.0, 100, 7) == (0, 100)


def test_sample_outcomes_deterministic_and_binomial():
    first = sample_outcomes(0.5, 100_000, 42)
    second = sample_outcomes(0.5, 100_000, 42)
    assert first == second
    count_parallel, count_perpendicular = first
    assert count_parallel + count_perpendicular == 100_000
    assert abs(count_parallel - 50_000) <= 474  # 3 sigma of Binomial(1e5, 1/2)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.87])
def test_sample_outcomes_frequency_converges(p, seed):
    n = 100_000
    count, _ = sample_outcomes(p, n, seed)
    assert abs(count / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_sample_outcomes_array_degenerate_probabilities_are_exact():
    counts, perpendicular = sample_outcomes(np.array([0.0, 1.0, 1.0, 0.0]), 100, 7)
    assert counts.tolist() == [0, 100, 100, 0]
    assert perpendicular.tolist() == [100, 0, 0, 100]


def test_sample_outcomes_array_frequencies_within_4_sigma():
    n = 100_000
    p = np.tile([0.1, 0.5, 0.87], 20)
    counts, perpendicular = sample_outcomes(p, n, np.random.SeedSequence(5))
    assert np.array_equal(counts + perpendicular, np.full(p.shape, n))
    assert np.all(np.abs(counts / n - p) < 4 * np.sqrt(p * (1 - p) / n))
    assert np.array_equal(counts, sample_outcomes(p, n, np.random.SeedSequence(5))[0])


@pytest.mark.parametrize("bad", [math.nan, 1.2, -0.1, math.inf])
def test_sample_outcomes_array_refuses_a_bad_probability(bad):
    with pytest.raises(ValueError, match=r"^probability must lie in \[0, 1\], got "):
        sample_outcomes(np.array([0.5, bad, 0.25]), 10, 0)


@pytest.mark.parametrize("empty", [np.array([]), []])
def test_sample_outcomes_of_no_probabilities_are_empty(empty):
    counts, perpendicular = sample_outcomes(empty, 10, 0)
    for array in (counts, perpendicular):
        assert array.shape == (0,) and array.dtype.kind == "i"


def test_sample_outcomes_draw_count_bound():
    count, perpendicular = sample_outcomes(0.5, 2**63 - 1, 3)
    assert type(count) is int and count + perpendicular == 2**63 - 1
    with pytest.raises(ValueError, match=f"at most {2**63 - 1}, got {2**63}$"):
        sample_outcomes(0.5, 2**63, 3)


def test_sample_outcomes_validation():
    with pytest.raises(ValueError, match="probability"):
        sample_outcomes(1.2, 10, 0)
    with pytest.raises(ValueError, match="positive"):
        sample_outcomes(0.5, 0, 0)
