import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from planeqm.quantization import (
    BorelSet,
    FourierSeries,
    commutator_e1_e2,
    fourier_coefficients,
    fourier_series_from_json,
    fourier_series_to_json,
    identity_residual,
    povm_element,
    quantize,
    superposition_density,
)
from planeqm.states import SIGMA1, SIGMA3, TAU2, TWO_PI, DensityParams, density_matrix, sigma_phi

#: numpy 2.0 renamed trapz to trapezoid; the declared floor, numpy 1.24, has only trapz
_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz

angles = st.floats(min_value=-10.0, max_value=10.0)
mixings = st.floats(min_value=0.0, max_value=1.0)
coeffs = st.floats(min_value=-5.0, max_value=5.0)


def random_series(rng, max_k=8):
    ks = rng.choice(np.arange(1, max_k + 1), size=rng.integers(1, 5), replace=False)
    terms = tuple((int(k), float(rng.normal()), float(rng.normal())) for k in ks)
    return FourierSeries(float(rng.normal()), terms)


# ---------------------------------------------------------------------------
# Fourier series plumbing


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_series_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        FourierSeries(bad)
    with pytest.raises(ValueError, match="finite"):
        FourierSeries.harmonic(2, ak=1.0, bk=bad)


def test_series_rejects_bad_harmonics():
    with pytest.raises(ValueError, match="distinct"):
        FourierSeries(0.0, ((2, 1.0, 0.0), (2, 0.0, 1.0)))
    with pytest.raises(ValueError, match="positive"):
        FourierSeries(0.0, ((0, 1.0, 0.0),))


@pytest.mark.parametrize("k", [2.7, True, "2"])
def test_series_rejects_non_integer_harmonics(k):
    with pytest.raises(ValueError, match="must be integers"):
        FourierSeries(0.0, ((k, 1.0, 0.0),))


def test_series_accepts_integral_float_harmonics():
    series = FourierSeries(0.0, ((2.0, 1.0, 0.0), (np.int64(3), 0.0, 1.0)))
    assert series.terms == ((2, 1.0, 0.0), (3, 0.0, 1.0))
    assert all(type(k) is int for k, _, _ in series.terms)


def test_series_evaluation_and_shift():
    f = FourierSeries(0.5, ((1, 1.0, -0.5), (3, 0.0, 2.0)))
    phis = np.linspace(0.0, TWO_PI, 17)
    expected = 0.5 + np.cos(phis) - 0.5 * np.sin(phis) + 2.0 * np.sin(3 * phis)
    assert_allclose(f(phis), expected, atol=1e-14)
    delta = 0.83
    assert_allclose(f.shifted(delta)(phis), f(phis - delta), atol=1e-13)


def test_series_json_round_trip():
    f = FourierSeries(1.5, ((2, 0.25, -1.0),))
    again = fourier_series_from_json(fourier_series_to_json(f))
    assert again == f
    assert fourier_series_from_json('{"a0": 1}') == FourierSeries.constant(1.0)
    with pytest.raises(ValueError):
        fourier_series_from_json('[1, 2]')
    with pytest.raises(ValueError):
        fourier_series_from_json('{"terms": [{"ak": 1.0}]}')
    # the series itself still takes numpy scalars
    assert FourierSeries(np.int64(1)) == FourierSeries.constant(1.0)


@pytest.mark.parametrize(
    "text,reason",
    [
        ('{"a0": "1"}', "coefficient 'a0' must be a number, got '1'"),
        ('{"a0": true}', "coefficient 'a0' must be a number, got True"),
        ('{"a0": null}', "coefficient 'a0' must be a number, got None"),
        ('{"terms": [{"k": 2, "ak": "0.5"}]}', "coefficient 'ak' must be a number, got '0.5'"),
        ('{"terms": [{"k": 2, "bk": false}]}', "coefficient 'bk' must be a number, got False"),
        ('{"ao": 1}', "unknown key 'ao'; expected a0, terms"),
        ('{"terms": [{"k": 2, "a": 1}]}', "unknown key 'a'; expected k, ak, bk"),
    ],
)
def test_series_json_refuses_unknown_keys_and_non_numbers(text, reason):
    with pytest.raises(ValueError) as excinfo:
        fourier_series_from_json(text)
    assert str(excinfo.value) == reason


def test_fourier_coefficients_constant():
    data = fourier_coefficients(FourierSeries.constant(1.0))
    assert (data.mean, data.cc, data.cs) == (1.0, 0.0, 0.0)


def test_fourier_coefficients_doubled_cosine():
    # oracle: the defining integrals, on a fine independent trapezoid grid
    phis = np.linspace(0.0, TWO_PI, 20001)
    vals = np.cos(2 * phis)
    mean = _trapezoid(vals, phis) / TWO_PI
    cc = _trapezoid(vals * np.cos(2 * phis), phis) / math.pi
    cs = _trapezoid(vals * np.sin(2 * phis), phis) / math.pi
    assert_allclose([mean, cc, cs], [0.0, 1.0, 0.0], atol=1e-9)

    data = fourier_coefficients(FourierSeries.harmonic(2, ak=1.0))
    assert (data.mean, data.cc, data.cs) == (0.0, 1.0, 0.0)
    sampled = fourier_coefficients(lambda p: np.cos(2 * p), 64)
    assert_allclose([sampled.mean, sampled.cc, sampled.cs], [0.0, 1.0, 0.0], atol=1e-13)


def test_fourier_coefficients_orthogonal_mode_vanishes():
    data = fourier_coefficients(lambda p: np.cos(4 * p), 64)
    assert_allclose([data.mean, data.cc, data.cs], [0.0, 0.0, 0.0], atol=1e-13)


def test_fourier_coefficients_scalar_only_callable():
    data = fourier_coefficients(lambda p: math.cos(2 * p), 64)
    assert_allclose([data.mean, data.cc, data.cs], [0.0, 1.0, 0.0], atol=1e-13)


def test_fourier_coefficients_rejects_small_grids():
    with pytest.raises(ValueError, match="at least 8"):
        fourier_coefficients(lambda p: np.cos(p), 7)
    with pytest.raises(ValueError, match="at least 8"):
        fourier_coefficients(FourierSeries.constant(1.0), 4)
    with pytest.raises(ValueError, match="at least 8"):
        fourier_coefficients(BorelSet.full_circle(), 4)


@pytest.mark.parametrize(
    "f",
    [FourierSeries(0.3, ((2, 1.5, -0.4), (8, 0.2, 0.9))), BorelSet(((0.5, 2.0), (3.0, 4.5)))],
    ids=["series", "borel-set"],
)
def test_closed_form_inputs_build_no_grid(f):
    # 10**18 nodes cannot be allocated: only a callable is ever sampled
    huge = 10**18
    assert fourier_coefficients(f, huge) == fourier_coefficients(f, 8)
    assert np.array_equal(quantize(f, 0.9, 0.6, huge), quantize(f, 0.9, 0.6))


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_path_matches_closed_form(seed):
    f = random_series(np.random.default_rng(seed))
    exact = fourier_coefficients(f)
    sampled = fourier_coefficients(lambda p: f(p), 64)
    assert_allclose(
        [sampled.mean, sampled.cc, sampled.cs], [exact.mean, exact.cc, exact.cs], atol=1e-9
    )


# ---------------------------------------------------------------------------
# the quantization map


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("phi0", [0.0, 0.7, 2.1])
def test_quantize_unity(r, phi0):
    assert_allclose(quantize(FourierSeries.constant(1.0), r, phi0), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("phi0", [0.0, 0.7, 2.1])
def test_quantize_doubled_angle_basis(r, phi0):
    e1_image = quantize(FourierSeries.harmonic(2, ak=1.0), r, phi0)
    e2_image = quantize(FourierSeries.harmonic(2, bk=1.0), r, phi0)
    assert_allclose(e1_image, 0.5 * r * sigma_phi(2 * phi0), atol=1e-14)
    assert_allclose(e2_image, 0.5 * r * sigma_phi(2 * phi0 + math.pi / 2), atol=1e-14)


def test_quantize_rejects_bad_mixing():
    with pytest.raises(ValueError, match="degree of mixing"):
        quantize(FourierSeries.constant(1.0), 1.2, 0.0)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1), coeffs, coeffs)
def test_quantize_linear(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    f, g = random_series(rng), random_series(rng)
    combined = FourierSeries(
        alpha * f.a0 + beta * g.a0,
        tuple(
            (k, alpha * f.coefficient(k)[0] + beta * g.coefficient(k)[0],
             alpha * f.coefficient(k)[1] + beta * g.coefficient(k)[1])
            for k in sorted({k for k, _, _ in f.terms} | {k for k, _, _ in g.terms})
        ),
    )
    lhs = quantize(combined, 0.7, 1.3)
    rhs = alpha * quantize(f, 0.7, 1.3) + beta * quantize(g, 0.7, 1.3)
    assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1), mixings, angles)
def test_quantize_real_and_symmetric(seed, r, phi0):
    f = random_series(np.random.default_rng(seed))
    out = quantize(f, r, phi0)
    assert_allclose(out, out.T, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1), angles, angles)
def test_quantize_covariance(seed, theta, phi0):
    f = random_series(np.random.default_rng(seed))
    assert_allclose(
        quantize(f.shifted(theta), 0.8, phi0), quantize(f, 0.8, phi0 + theta), atol=1e-12
    )


def test_quantize_rejects_overflowing_matrix():
    huge = FourierSeries(1.7e308, ((2, 1.7e308, 0.0),))
    with pytest.raises(ValueError, match="quantized matrix is not finite"):
        quantize(huge, 1.0, 0.0)


def test_quantize_sampled_agrees_with_series():
    f = FourierSeries(0.3, ((2, 1.5, -0.4), (8, 0.2, 0.9)))
    exact = quantize(f, 0.9, 0.6)
    sampled = quantize(lambda p: f(p), 0.9, 0.6, n_samples=64)
    assert_allclose(sampled, exact, atol=1e-9)


# ---------------------------------------------------------------------------
# resolution of the identity


def test_identity_residual_examples():
    assert identity_residual(0.0, 0.0, 16) <= 1e-15
    assert identity_residual(1.0, 0.3, 64) < 1e-12
    assert identity_residual(0.5, 2.0, 1024) < 1e-12


def node_sum_residual(r, phi0, n):
    # reference: one density matrix per quadrature node, summed in order
    acc = np.zeros((2, 2))
    for p in np.arange(n) * (TWO_PI / n):
        acc += density_matrix(DensityParams(r, phi0 + p))
    return float(np.abs(acc * (2.0 / n) - np.eye(2)).max())


@pytest.mark.parametrize("n", [8, 9, 1024])
@pytest.mark.parametrize("r,phi0", [(0.0, 0.0), (0.7, 1.3), (1.0, -2.4), (0.35, 7.9)])
def test_identity_residual_matches_node_sum(r, phi0, n):
    residual = identity_residual(r, phi0, n)
    assert abs(residual - node_sum_residual(r, phi0, n)) <= 1e-15
    assert residual <= 1e-15


def test_identity_residual_builds_no_per_node_matrices(monkeypatch):
    import planeqm.quantization as quantization

    def forbidden(*args, **kwargs):
        raise AssertionError("identity_residual must not build per-node densities")

    monkeypatch.setattr(quantization, "density_matrix", forbidden)
    monkeypatch.setattr(quantization, "DensityParams", forbidden)
    assert identity_residual(0.6, 0.2, 4096) < 1e-12


def test_identity_residual_rejects_bad_mixing():
    with pytest.raises(ValueError, match="degree of mixing"):
        identity_residual(-0.2, 0.0)


# ---------------------------------------------------------------------------
# commutator


def test_commutator_examples():
    assert_allclose(commutator_e1_e2(0.0, 0.5), np.zeros((2, 2)), atol=1e-15)
    assert_allclose(commutator_e1_e2(1.0, 0.0), -0.5 * TAU2, atol=1e-14)
    assert_allclose(commutator_e1_e2(0.6, 1.2), -0.18 * TAU2, atol=1e-14)


@given(mixings, angles)
def test_commutator_independent_of_offset(r, phi0):
    assert_allclose(commutator_e1_e2(r, phi0), -(r**2 / 2) * TAU2, atol=1e-12)


# ---------------------------------------------------------------------------
# convex superposition


def test_superposition_uniform_average():
    result = superposition_density(0.0, 1.7, 0.5, 256)
    assert_allclose(result.matrix, 0.5 * np.eye(2), atol=1e-12)
    assert result.convex


@pytest.mark.parametrize(
    "s,theta,r,convex",
    [
        (0.25, 0.0, 0.5, True),  # boundary r = 2s
        (0.5, 1.0, 0.5, False),  # weight dips negative
        (0.1, 1.0, 0.9, True),
        (0.5, 2.0, 1.0, True),  # boundary again
    ],
)
def test_superposition_reconstructs_density(s, theta, r, convex):
    result = superposition_density(s, theta, r, 1024)
    assert_allclose(result.matrix, density_matrix(DensityParams(s, theta)), atol=1e-10)
    assert result.convex is convex
    assert result.min_weight == pytest.approx(0.5 - s / r, abs=1e-15)


def test_superposition_rejects_degenerate_family():
    with pytest.raises(ValueError, match="\\(0, 1\\]"):
        superposition_density(0.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="target mixing"):
        superposition_density(1.2, 0.0, 0.5)


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("r", [5e-324, 1e-308])
def test_superposition_rejects_non_finite_matrix(r, n):
    # s/r overflows the weights: all-NaN at the smallest subnormal, inf at 1e-308;
    # no RuntimeWarning escapes, which the warning filter would turn into an error
    with pytest.raises(ValueError, match="superposition matrix is not finite"):
        superposition_density(1.0, 0.3, r, n)


# ---------------------------------------------------------------------------
# POVM


def test_borel_set_validation():
    with pytest.raises(ValueError, match="overlap"):
        BorelSet(((0.0, 2.0), (1.5, 3.0)))
    with pytest.raises(ValueError, match="2\\*pi"):
        BorelSet(((0.0, 7.0),))
    with pytest.raises(ValueError, match="2\\*pi"):
        BorelSet(((-0.5, 1.0),))
    touching = BorelSet(((0.0, 1.0), (1.0, 2.0)))
    assert touching.measure == pytest.approx(2.0)
    assert BorelSet().measure == 0.0


def test_povm_full_circle_and_empty():
    assert_allclose(povm_element(BorelSet.full_circle(), 1.0, 0.3), np.eye(2), atol=1e-12)
    assert_allclose(povm_element(BorelSet(), 0.7, 0.1), np.zeros((2, 2)), atol=1e-15)


def test_povm_half_circle_value():
    # oracle (frozen from a 2e6-node Riemann sum): the doubled-angle
    # integrals vanish over a half period, leaving exactly I/2
    n = 200_000
    phis = (np.arange(n) + 0.5) * (math.pi / n)
    riemann = np.zeros((2, 2))
    for entry, weight in ((SIGMA3, np.cos(2 * phis).mean()), (SIGMA1, np.sin(2 * phis).mean())):
        riemann += 0.5 * weight * entry
    riemann = 0.5 * np.eye(2) + riemann
    assert_allclose(riemann, 0.5 * np.eye(2), atol=1e-5)

    value = povm_element(BorelSet(((0.0, math.pi),)), 1.0, 0.0)
    assert_allclose(value, 0.5 * np.eye(2), atol=1e-12)


def test_povm_quarter_circle_value():
    # oracle value I/4 + SIGMA1/(2 pi), cross-checked by quadrature
    n = 200_000
    phis = (np.arange(n) + 0.5) * (math.pi / 2 / n)
    quad = (
        0.25 * np.eye(2)
        + 0.25 * np.cos(2 * phis).mean() * SIGMA3
        + 0.25 * np.sin(2 * phis).mean() * SIGMA1
    )
    expected = 0.25 * np.eye(2) + SIGMA1 / (2 * math.pi)
    assert_allclose(quad, expected, atol=1e-5)

    value = povm_element(BorelSet(((0.0, math.pi / 2),)), 1.0, 0.0)
    assert_allclose(value, expected, atol=1e-14)


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9), min_size=2, max_size=6),
    mixings,
    angles,
)
def test_povm_additive_and_positive(cuts, r, phi0):
    edges = sorted(set(cuts))
    pieces = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    if len(pieces) < 2:
        pieces = [(0.0, 1.0), (2.0, 3.0)]
    union = povm_element(BorelSet(tuple(pieces)), r, phi0)
    total = sum(povm_element(BorelSet((p,)), r, phi0) for p in pieces)
    assert_allclose(union, total, atol=1e-12)
    assert np.linalg.eigvalsh(union).min() >= -1e-12


def per_interval_povm(delta, r, phi0):
    # reference: the exact antiderivative of the density entries, interval by interval
    out = np.zeros((2, 2))
    for a, b in delta.intervals:
        c_term = math.sin(2.0 * (b + phi0)) - math.sin(2.0 * (a + phi0))
        s_term = math.cos(2.0 * (a + phi0)) - math.cos(2.0 * (b + phi0))
        out += ((b - a) / TWO_PI) * np.eye(2)
        out += (r / (4.0 * math.pi)) * (c_term * SIGMA3 + s_term * SIGMA1)
    return out


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI), max_size=8),
    mixings,
    angles,
)
def test_povm_is_quantization_of_indicator(cuts, r, phi0):
    edges = sorted(set(cuts))
    # every other gap between the cuts, so the pieces are disjoint and not always touching
    delta = BorelSet(tuple(zip(edges[::2], edges[1::2])))
    element = povm_element(delta, r, phi0)
    assert np.array_equal(element, quantize(delta, r, phi0))
    assert_allclose(element, per_interval_povm(delta, r, phi0), rtol=0, atol=1e-15)


def test_povm_monotone_positivity_on_intervals():
    for a, b in [(0.0, 0.3), (1.2, 4.0), (5.0, TWO_PI)]:
        val = povm_element(BorelSet(((a, b),)), 1.0, 0.9)
        assert np.linalg.eigvalsh(val).min() >= -1e-12
