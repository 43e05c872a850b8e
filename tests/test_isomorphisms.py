import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from planeqm.bell import BellKind, bell_state
from planeqm.isomorphisms import (
    DOWN,
    UP,
    Quaternion,
    bell_basis_matrix,
    cat,
    coherent_state,
    coherent_to_tensor,
    complex_from_coords,
    complex_pair_to_quaternion,
    complex_to_tensor,
    conjugation,
    d_half_matrix,
    flip,
    hamilton_product,
    quaternion_matrix,
    quaternion_to_complex_pair,
    real_rep,
    real_structure_coords,
    tensor_to_complex,
)

SQ2 = math.sqrt(2.0)

reals = st.floats(min_value=-5.0, max_value=5.0)
complex_pairs = st.tuples(reals, reals, reals, reals).map(
    lambda t: np.array([t[0] + 1j * t[1], t[2] + 1j * t[3]])
)
quaternions = st.tuples(reals, reals, reals, reals).map(lambda t: Quaternion(*t))


# ---------------------------------------------------------------------------
# basis correspondence


def test_tensor_to_complex_basis_images():
    assert_allclose(tensor_to_complex([1.0, 0.0, 0.0, 0.0]), [1.0, 0.0], atol=0)
    assert_allclose(tensor_to_complex([0.0, 1.0, 0.0, 0.0]), [0.0, -1.0], atol=0)
    assert_allclose(tensor_to_complex([0.0, 0.0, 1.0, 0.0]), [1j, 0.0], atol=0)
    assert_allclose(tensor_to_complex([0.0, 0.0, 0.0, 1.0]), [0.0, 1j], atol=0)


@given(st.tuples(reals, reals, reals, reals))
def test_tensor_to_complex_is_orthogonal_and_invertible(tup):
    v = np.array(tup)
    z = tensor_to_complex(v)
    assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(v), abs=1e-12)
    assert_allclose(complex_to_tensor(z), v, atol=1e-15)


@given(complex_pairs)
def test_real_structure_coords_round_trip(z):
    assert_allclose(complex_from_coords(real_structure_coords(z)), z, atol=0)


def test_tensor_to_complex_is_complex_from_coords_with_second_component_negated():
    for v in np.random.default_rng(14).normal(size=(200, 4)):
        assert np.array_equal(tensor_to_complex(v), complex_from_coords(v * [1.0, -1.0, 1.0, 1.0]))


def test_bell_basis_matrix_columns_and_orthogonality():
    b = bell_basis_matrix()
    assert_allclose(b.T @ b, np.eye(4), atol=1e-15)
    assert_allclose(b @ np.array([1.0, 0.0, 0.0, 0.0]), np.array([1, -1, 0, 0]) / SQ2, atol=1e-15)
    assert_allclose(b @ np.array([0.0, 0.0, 0.0, 1.0]), np.array([0, 0, -1, 1]) / SQ2, atol=1e-15)


def test_bell_basis_matrix_consistent_with_bell_states():
    # the k-th column must be the real-structure image of the k-th Bell state
    b = bell_basis_matrix()
    for idx, kind in enumerate(BellKind):
        component = np.zeros(4)
        component[idx] = 1.0
        via_matrix = b @ component
        via_states = real_structure_coords(tensor_to_complex(bell_state(kind)))
        assert_allclose(via_matrix, via_states, atol=1e-15)


# ---------------------------------------------------------------------------
# conjugation, flip, cat


def test_conjugation_values():
    assert_allclose(conjugation(np.array([1.0 + 0j, 0.0])), [1.0, 0.0], atol=0)
    assert_allclose(conjugation(np.array([1j, 0.0])), [-1j, 0.0], atol=0)


@given(complex_pairs)
def test_conjugation_is_an_involution(z):
    assert_allclose(conjugation(conjugation(z)), z, atol=0)


def test_flip_on_up_down():
    assert_allclose(flip(UP), DOWN, atol=0)
    assert_allclose(flip(DOWN), -UP, atol=0)


@given(complex_pairs)
def test_flip_squares_to_minus_identity(z):
    assert_allclose(flip(flip(z)), -z, atol=0)
    assert np.linalg.norm(flip(z)) == pytest.approx(np.linalg.norm(z), abs=1e-12)


def test_cat_builds_equal_weight_superpositions():
    assert_allclose(cat(UP), (UP + DOWN) / SQ2, atol=1e-15)
    assert_allclose(cat(DOWN), (-UP + DOWN) / SQ2, atol=1e-15)


def test_real_representations_and_multiplication_by_i():
    j = real_rep(lambda z: 1j * z)
    assert_allclose(j @ j, -np.eye(4), atol=0)

    c_rep = real_rep(conjugation)
    f_rep = real_rep(flip)
    cat_rep = real_rep(cat)
    assert_allclose(c_rep @ j, -(j @ c_rep), atol=0)  # antilinear
    assert_allclose(f_rep @ j, -(j @ f_rep), atol=0)  # antilinear
    assert_allclose(f_rep @ f_rep, -np.eye(4), atol=0)
    assert_allclose(cat_rep.T @ cat_rep, np.eye(4), atol=1e-15)

    # a complex-linear map commutes with J instead
    linear = real_rep(lambda z: (2.0 - 0.5j) * z)
    assert_allclose(linear @ j, j @ linear, atol=0)


@given(complex_pairs)
def test_real_rep_reproduces_flip_action(z):
    f_rep = real_rep(flip)
    assert_allclose(
        complex_from_coords(f_rep @ real_structure_coords(z)), flip(z), atol=1e-12
    )


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_state_poles_and_equator():
    assert_allclose(coherent_state(0.0, 1.7), UP, atol=1e-15)
    assert_allclose(coherent_state(math.pi, 0.0), DOWN, atol=1e-15)
    assert_allclose(coherent_state(math.pi / 2, 0.0), np.array([1.0, 1.0]) / SQ2, atol=1e-15)
    with pytest.raises(ValueError, match="colatitude"):
        coherent_state(-0.1, 0.0)
    with pytest.raises(ValueError, match="colatitude"):
        coherent_state(math.pi + 0.1, 0.0)


def test_d_half_matrix_examples():
    assert_allclose(d_half_matrix(0.0, 0.0), np.eye(2), atol=1e-15)
    assert_allclose(
        d_half_matrix(math.pi / 2, 0.0), np.array([[1.0, -1.0], [1.0, 1.0]]) / SQ2, atol=1e-15
    )


def explicit_rotation_matrix(theta, phi):
    # independent oracle: the standard entrywise form of the spin-half rotation
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]])


def test_d_half_matrix_flip_column_property_on_grid():
    thetas = np.linspace(0.0, math.pi, 50)
    phis = np.linspace(0.0, 2 * math.pi, 50)
    for theta in thetas:
        for phi in phis:
            expected = explicit_rotation_matrix(theta, phi)
            assert_allclose(d_half_matrix(theta, phi), expected, atol=1e-12)
            # the property itself, on the independently built matrix
            assert_allclose(expected[:, 1], flip(expected[:, 0]), atol=1e-12)


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=-7.0, max_value=7.0))
def test_d_half_matrix_is_special_unitary(theta, phi):
    d = d_half_matrix(theta, phi)
    assert_allclose(d.conj().T @ d, np.eye(2), atol=1e-12)
    assert np.linalg.det(d) == pytest.approx(1.0, abs=1e-12)
    # complex-linear: commutes with J in the real representation, orthogonally
    d_rep = real_rep(lambda z: d @ z)
    j = real_rep(lambda z: 1j * z)
    assert_allclose(d_rep @ j, j @ d_rep, atol=1e-12)
    assert_allclose(d_rep.T @ d_rep, np.eye(4), atol=1e-12)


def test_coherent_to_tensor_poles():
    assert_allclose(coherent_to_tensor(0.0, 2.2), [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    phi = 0.8
    assert_allclose(
        coherent_to_tensor(math.pi, phi),
        [0.0, -math.cos(phi), math.sin(phi), 0.0],
        atol=1e-15,
    )
    with pytest.raises(ValueError, match="colatitude"):
        coherent_to_tensor(4.0, 0.0)


@settings(max_examples=60)
@given(st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=-7.0, max_value=7.0))
def test_coherent_to_tensor_structure(theta, phi):
    v = coherent_to_tensor(theta, phi)
    assert v[3] == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=-7.0, max_value=7.0))
def test_coherent_to_tensor_vs_complex_correspondence(theta, phi):
    # Relative to the complex-pair image of the coherent state, the tensor
    # form keeps the first two components and swaps the two cross ones.
    direct = coherent_to_tensor(theta, phi)
    via_complex = complex_to_tensor(coherent_state(theta, phi))
    assert_allclose(direct[:2], via_complex[:2], atol=1e-13)
    assert_allclose(direct[2], via_complex[3], atol=1e-13)
    assert_allclose(direct[3], via_complex[2], atol=1e-13)


def test_coherent_to_tensor_is_coherent_state_components():
    rng = np.random.default_rng(14)
    thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, 30)]
    phis = [0.0, -0.0, math.pi, *rng.uniform(-7.0, 7.0, 30)]
    for theta, phi in itertools.product(thetas, phis):
        z = coherent_state(theta, phi)
        assert np.array_equal(coherent_to_tensor(theta, phi), [z[0].real, -z[1].real, z[1].imag, 0.0])


# ---------------------------------------------------------------------------
# quaternions


I_Q = Quaternion(0.0, 1.0, 0.0, 0.0)
J_Q = Quaternion(0.0, 0.0, 1.0, 0.0)
K_Q = Quaternion(0.0, 0.0, 0.0, 1.0)


def test_hamilton_product_unit_relations():
    assert hamilton_product(J_Q, K_Q) == I_Q
    assert hamilton_product(K_Q, I_Q) == J_Q
    assert hamilton_product(I_Q, J_Q) == K_Q
    assert hamilton_product(I_Q, I_Q) == Quaternion(-1.0, 0.0, 0.0, 0.0)


@given(quaternions, quaternions, quaternions)
def test_hamilton_product_associative_and_norm_multiplicative(p, q, s):
    left = hamilton_product(hamilton_product(p, q), s)
    right = hamilton_product(p, hamilton_product(q, s))
    assert_allclose(
        [left.q0, left.q1, left.q2, left.q3],
        [right.q0, right.q1, right.q2, right.q3],
        atol=1e-10,
    )
    pq = hamilton_product(p, q)
    assert pq.norm_squared == pytest.approx(p.norm_squared * q.norm_squared, rel=1e-10, abs=1e-10)


def test_quaternion_complex_pair_examples():
    assert_allclose(quaternion_to_complex_pair(Quaternion(1, 0, 0, 0)), [1.0, 0.0], atol=0)
    assert_allclose(quaternion_to_complex_pair(I_Q), [0.0, 1j], atol=0)
    assert_allclose(quaternion_to_complex_pair(K_Q), [1j, 0.0], atol=0)


@given(quaternions)
def test_quaternion_complex_pair_round_trip(q):
    z = quaternion_to_complex_pair(q)
    assert complex_pair_to_quaternion(z) == q
    assert np.linalg.norm(z) ** 2 == pytest.approx(q.norm_squared, rel=1e-12, abs=1e-12)


def test_quaternion_matrix_identity():
    assert_allclose(quaternion_matrix(Quaternion(1, 0, 0, 0)), np.eye(2), atol=0)


@given(quaternions)
# a subnormal component makes np.linalg.det's LU divide by zero; the
# closed-form 2x2 determinant has no such step
@example(Quaternion(0.0, 0.0, 2.225073858507e-311, 0.0))
def test_quaternion_matrix_determinant(q):
    m = quaternion_matrix(q)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det.real == pytest.approx(q.norm_squared, rel=1e-10, abs=1e-10)
    assert det.imag == pytest.approx(0.0, abs=1e-10)


@given(quaternions, quaternions)
def test_quaternion_matrix_is_multiplicative(p, q):
    product = quaternion_matrix(hamilton_product(p, q))
    assert_allclose(product, quaternion_matrix(p) @ quaternion_matrix(q), atol=1e-10)


def test_unit_quaternion_maps_into_su2():
    q = Quaternion(0.5, -0.5, 0.5, 0.5)
    m = quaternion_matrix(q)
    assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-14)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)
    assert q * q == hamilton_product(q, q)
