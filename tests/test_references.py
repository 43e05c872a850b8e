"""Closed forms checked against independent references.

``scipy.linalg.expm`` computes the matrix exponentials that
``measurement`` writes in closed form; sympy derives the quantized
operators, their commutator and the reduced-angle Bell bound from their
definitions, without calling the code under test.
"""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from numpy.testing import assert_allclose

from planeqm.bell import quantum_correlation, sin_inequality
from planeqm.measurement import evolution_operator, exp_projector
from planeqm.quantization import FourierSeries, commutator_e1_e2, quantize
from planeqm.states import TAU2, projector

ANGLES = [0.0, 0.4, 1.3, 2.9, -5.7]


# ---------------------------------------------------------------------------
# matrix exponentials against scipy.linalg.expm


@pytest.mark.parametrize("phi", ANGLES)
@pytest.mark.parametrize("theta", [0.0, 0.25, math.pi / 2, 2.0, -3.5, 11.0])
def test_exp_projector_matches_expm(theta, phi):
    p = projector(phi)
    assert_allclose(exp_projector(theta, p), scipy.linalg.expm(theta * np.kron(TAU2, p)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", ANGLES)
@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("g_value", [0.0, 0.5, 1.0])
def test_evolution_operator_matches_expm(g_value, r, phi):
    # the two generators commute (E_phi E_{phi+pi/2} = 0), so U is one exponential
    generator = g_value * (1.0 + r) / 2.0 * np.kron(TAU2, projector(phi)) + g_value * (
        1.0 - r
    ) / 2.0 * np.kron(TAU2, projector(phi + 0.5 * math.pi))
    assert_allclose(evolution_operator(g_value, r, phi), scipy.linalg.expm(generator), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# quantization, derived symbolically from its defining integral

phi, phi0 = sp.symbols("phi phi0", real=True)
r = sp.symbols("r", nonnegative=True)
A0, A1, B1, A2, B2, A3, B3 = sp.symbols("a0 a1 b1 a2 b2 a3 b3", real=True)
F = A0 + sum(a * sp.cos(k * phi) + b * sp.sin(k * phi) for k, a, b in ((1, A1, B1), (2, A2, B2), (3, A3, B3)))
SIGMA1, SIGMA3, TAU2_SYM = sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[1, 0], [0, -1]]), sp.Matrix([[0, -1], [1, 0]])


def _rho(theta):
    """rho(r, theta) = 1/2 I + (r/2) [cos(2 theta) SIGMA3 + sin(2 theta) SIGMA1]."""
    return sp.eye(2) / 2 + r / 2 * (sp.cos(2 * theta) * SIGMA3 + sp.sin(2 * theta) * SIGMA1)


@functools.cache
def _quantized(f):
    """A_f = integral over [0, 2 pi) of f(phi) rho(r, phi + phi0) d(phi)/pi, derived once per f."""
    integrand = sp.expand(sp.expand_trig(f * _rho(phi + phi0)))
    return integrand.applyfunc(lambda entry: sp.integrate(entry, (phi, 0, 2 * sp.pi)) / sp.pi)


def test_quantized_function_matches_closed_form():
    # <f> I + (r/2) [Cc' SIGMA3 + Cs' SIGMA1], with (Cc', Cs') = (a2, b2) rotated by 2 phi0
    cc = A2 * sp.cos(2 * phi0) - B2 * sp.sin(2 * phi0)
    cs = A2 * sp.sin(2 * phi0) + B2 * sp.cos(2 * phi0)
    closed_form = A0 * sp.eye(2) + r / 2 * (cc * SIGMA3 + cs * SIGMA1)
    assert sp.simplify(_quantized(F) - closed_form) == sp.zeros(2, 2)


@pytest.mark.parametrize(
    "coefficients,r_value,phi0_value",
    [
        ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.5, 0.0),
        ((0.3, -0.7, 0.2, 1.1, -0.4, 0.25, 0.9), 0.8, 1.3),
        ((-2.0, 0.5, 0.5, -0.6, 0.8, 0.0, -1.5), 1.0, 2.9),
        ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0), 0.35, -4.1),
    ],
)
def test_quantize_matches_symbolic_integral(coefficients, r_value, phi0_value):
    a0, a1, b1, a2, b2, a3, b3 = coefficients
    series = FourierSeries(a0, ((1, a1, b1), (2, a2, b2), (3, a3, b3)))
    values = {**dict(zip((A0, A1, B1, A2, B2, A3, B3), coefficients)), r: r_value, phi0: phi0_value}
    expected = np.array(_quantized(F).subs(values).evalf(), dtype=float)
    assert_allclose(quantize(series, r_value, phi0_value), expected, rtol=0, atol=1e-12)


def test_commutator_of_doubled_angle_images_is_rotation_generator():
    e1, e2 = _quantized(sp.cos(2 * phi)), _quantized(sp.sin(2 * phi))
    assert sp.simplify(e1 * e2 - e2 * e1 + r**2 / 2 * TAU2_SYM) == sp.zeros(2, 2)


@pytest.mark.parametrize("r_value,phi0_value", [(0.0, 0.0), (0.6, 0.7), (1.0, 2.2), (0.25, -3.0)])
def test_commutator_e1_e2_matches_symbolic_value(r_value, phi0_value):
    e1, e2 = _quantized(sp.cos(2 * phi)), _quantized(sp.sin(2 * phi))
    symbolic = (e1 * e2 - e2 * e1).subs({r: r_value, phi0: phi0_value})
    assert_allclose(commutator_e1_e2(r_value, phi0_value), np.array(symbolic.evalf(), dtype=float), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the reduced-angle Bell bound


def test_reduced_angle_bound_is_the_correlation_bound():
    # zeta = (phi_a - phi_b)/2, eta = (phi_b - phi_c)/2 and P(x, y) = -cos(x - y)
    zeta, eta, phi_c = sp.symbols("zeta eta phi_c", real=True)
    phi_b = phi_c + 2 * eta
    phi_a = phi_b + 2 * zeta

    def p(x, y):
        return -sp.cos(x - y)

    difference = p(phi_a, phi_b) - p(phi_a, phi_c)
    assert sp.simplify(difference - 2 * (sp.sin(zeta) ** 2 - sp.sin(zeta + eta) ** 2)) == 0
    assert sp.simplify(1 + p(phi_b, phi_c) - 2 * sp.sin(eta) ** 2) == 0


@pytest.mark.parametrize("zeta,eta", [(0.3, 0.3), (0.1, 0.9), (1.2, -0.4), (-0.7, 2.5), (0.0, 0.0)])
def test_sin_inequality_is_half_the_quantum_correlation_bound(zeta, eta):
    phi_c = 0.37
    phi_b = phi_c + 2 * eta
    phi_a = phi_b + 2 * zeta
    report = sin_inequality(zeta, eta)
    p_ab, p_ac, p_bc = (quantum_correlation(x, y) for x, y in ((phi_a, phi_b), (phi_a, phi_c), (phi_b, phi_c)))
    assert report.lhs == pytest.approx(abs(p_ab - p_ac) / 2, abs=1e-12)
    assert report.rhs == pytest.approx((1 + p_bc) / 2, abs=1e-12)
