import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from planeqm.states import (
    SIGMA1,
    SIGMA3,
    TAU2,
    TWO_PI,
    DensityParams,
    density_matrix,
    projector,
    pure_state,
    rotation,
    sigma_phi,
    spectral_decompose,
    tau2_conjugate,
    wrap_orientation,
    wrap_state_angle,
)

angles = st.floats(min_value=-20.0, max_value=20.0)
mixings = st.floats(min_value=0.0, max_value=1.0)


def test_pure_state_basis_vectors():
    assert_allclose(pure_state(0.0), [1.0, 0.0], atol=1e-15)
    assert_allclose(pure_state(math.pi / 2), [0.0, 1.0], atol=1e-15)


def test_pure_state_third_turn():
    assert_allclose(pure_state(math.pi / 3), [0.5, math.sqrt(3) / 2], atol=1e-15)


@given(angles)
def test_pure_state_unit_norm(phi):
    assert np.linalg.norm(pure_state(phi)) == pytest.approx(1.0, abs=1e-12)


def test_projector_axes():
    assert_allclose(projector(0.0), [[1, 0], [0, 0]], atol=1e-15)
    assert_allclose(projector(math.pi / 2), [[0, 0], [0, 1]], atol=1e-15)
    assert_allclose(projector(math.pi / 4), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


@given(angles)
def test_projector_structure(phi):
    e = projector(phi)
    assert_allclose(e @ e, e, atol=1e-12)
    assert_allclose(e, e.T, atol=1e-12)
    assert np.trace(e) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(e @ projector(phi + math.pi / 2), np.zeros((2, 2)), atol=1e-12)


def test_rotation_basics():
    assert_allclose(rotation(0.0), np.eye(2), atol=1e-15)
    assert_allclose(rotation(math.pi / 2), TAU2, atol=1e-15)
    assert_allclose(rotation(0.3) @ rotation(0.7), rotation(1.0), atol=1e-15)


@given(angles, angles)
def test_rotation_group_law(a, b):
    assert_allclose(rotation(a) @ rotation(b), rotation(a + b), atol=1e-12)
    r = rotation(a)
    assert_allclose(r.T @ r, np.eye(2), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_sigma_phi_pauli_endpoints():
    assert_allclose(sigma_phi(0.0), SIGMA3, atol=1e-15)
    assert_allclose(sigma_phi(math.pi / 2), SIGMA1, atol=1e-15)


def test_sigma_phi_eigenvectors_against_eigh():
    # independent oracle: numpy's symmetric eigendecomposition
    phi = math.pi / 3
    vals, vecs = np.linalg.eigh(sigma_phi(phi))
    assert_allclose(vals, [-1.0, 1.0], atol=1e-12)
    plus = vecs[:, 1]
    expected = pure_state(phi / 2)
    if plus @ expected < 0:
        plus = -plus
    assert_allclose(plus, expected, atol=1e-12)


@given(angles)
def test_sigma_phi_structure(phi):
    s = sigma_phi(phi)
    assert_allclose(s @ s, np.eye(2), atol=1e-12)
    assert_allclose(s, rotation(phi) @ SIGMA3, atol=1e-12)
    assert np.linalg.det(s) == pytest.approx(-1.0, abs=1e-12)


def test_density_matrix_endpoints():
    for phi in (0.0, 0.4, 2.9):
        assert_allclose(density_matrix(DensityParams(0.0, phi)), 0.5 * np.eye(2), atol=1e-15)
    assert_allclose(density_matrix(DensityParams(1.0, 0.0)), [[1, 0], [0, 0]], atol=1e-15)
    assert_allclose(
        density_matrix(DensityParams(1.0, math.pi / 4)), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
    )


def test_density_params_rejects_bad_mixing():
    with pytest.raises(ValueError, match="degree of mixing"):
        DensityParams(-0.1, 0.0)
    with pytest.raises(ValueError, match="degree of mixing"):
        DensityParams(1.1, 0.0)


@given(mixings, angles)
def test_density_matrix_structure(r, phi):
    rho = density_matrix(DensityParams(r, phi))
    assert_allclose(rho, rho.T, atol=1e-12)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert_allclose(np.linalg.eigvalsh(rho), [(1 - r) / 2, (1 + r) / 2], atol=1e-12)
    mixture = (1 + r) / 2 * projector(phi) + (1 - r) / 2 * projector(phi + math.pi / 2)
    assert_allclose(rho, mixture, atol=1e-12)


@given(mixings, angles)
def test_density_matrix_orientation_period_pi(r, phi):
    same = density_matrix(DensityParams(r, phi + math.pi))
    assert_allclose(same, density_matrix(DensityParams(r, phi)), atol=1e-12)


def test_spectral_decompose_canonical_cases():
    degenerate = spectral_decompose(0.5 * np.eye(2))
    assert degenerate == DensityParams(0.0, 0.0)
    assert degenerate.degenerate
    assert spectral_decompose(np.array([[1.0, 0.0], [0.0, 0.0]])) == DensityParams(1.0, 0.0)


def test_spectral_decompose_round_trip_example():
    params = spectral_decompose(density_matrix(DensityParams(0.6, 1.1)))
    assert params.r == pytest.approx(0.6, abs=1e-10)
    assert params.phi == pytest.approx(1.1, abs=1e-10)
    assert not params.degenerate


@given(st.floats(min_value=1e-4, max_value=1.0), st.floats(min_value=0.0, max_value=math.pi - 1e-9))
def test_spectral_decompose_inverts_density_matrix(r, phi):
    params = spectral_decompose(density_matrix(DensityParams(r, phi)))
    assert params.r == pytest.approx(r, abs=1e-10)
    assert params.phi == pytest.approx(phi, abs=1e-10)


@given(mixings, angles)
def test_spectral_decompose_matrix_round_trip(r, phi):
    rho = density_matrix(DensityParams(r, phi))
    assert_allclose(density_matrix(spectral_decompose(rho)), rho, atol=1e-10)


def test_spectral_decompose_distinct_diagnostics():
    with pytest.raises(ValueError, match="not symmetric"):
        spectral_decompose(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        spectral_decompose(np.array([[0.8, 0.0], [0.0, 0.8]]))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        spectral_decompose(np.array([[1.2, 0.0], [0.0, -0.2]]))
    with pytest.raises(ValueError, match="2x2"):
        spectral_decompose(np.eye(3))


def test_tau2_conjugate_shifts_by_quarter_turn():
    assert tau2_conjugate(DensityParams(0.3, 0.0)) == DensityParams(0.3, math.pi / 2)


def test_tau2_conjugate_degenerate_is_invariant_as_matrix():
    before = density_matrix(DensityParams(0.0, 1.0))
    after = density_matrix(tau2_conjugate(DensityParams(0.0, 1.0)))
    assert_allclose(after, before, atol=1e-15)


def test_tau2_conjugate_matches_matrix_conjugation():
    # oracle: TAU2 rho TAU2^-1 with TAU2^-1 = TAU2^T
    params = DensityParams(0.7, 0.4)
    conjugated = TAU2 @ density_matrix(params) @ TAU2.T
    assert_allclose(conjugated, density_matrix(tau2_conjugate(params)), atol=1e-12)


@given(mixings, angles)
def test_tau2_conjugate_matrix_identity(r, phi):
    params = DensityParams(r, phi)
    conjugated = TAU2 @ density_matrix(params) @ TAU2.T
    assert_allclose(conjugated, density_matrix(tau2_conjugate(params)), atol=1e-12)


@given(angles)
def test_angle_wrapping_ranges(phi):
    assert 0.0 <= wrap_state_angle(phi) < 2 * math.pi
    assert 0.0 <= wrap_orientation(phi) < math.pi


def _float_wrap(phi: float, period: float) -> float:
    """The scalar rule the wraps keep: Python's float modulo, the period itself mapped to 0."""
    wrapped = phi % period
    return 0.0 if wrapped == period else wrapped


def _same_bits(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("wrap,period", [(wrap_state_angle, TWO_PI), (wrap_orientation, math.pi)], ids=["state", "orientation"])
def test_angle_wraps_are_float_modulo_elementwise(wrap, period):
    rng = np.random.default_rng(24)
    tiny = [0.0, 1e-300, 5e-324, 1e-17, 1e308, math.inf, math.nan]
    multiples = [k * p for k in (1, 2, 3, 10, 1e6) for p in (math.pi, TWO_PI)]
    values = np.array(
        [sign * x for x in tiny + multiples for sign in (1.0, -1.0)]
        + [math.nextafter(x, d) for x in multiples for d in (0.0, math.inf)]
        + rng.uniform(-50.0, 50.0, 2000).tolist()
        + (rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300.0, 300.0, 2000)).tolist()
    )
    given_values = values.copy()
    want = np.array([_float_wrap(x, period) for x in values.tolist()])
    got = wrap(values)
    assert got.shape == values.shape and _same_bits(got, want)
    assert _same_bits(values, given_values)
    scalars = [wrap(x) for x in values.tolist()]
    assert {type(x) for x in scalars} == {float} and _same_bits(np.array(scalars), want)
    assert _same_bits(wrap(values.tolist()), want)

