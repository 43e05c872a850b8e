"""Parameter validation: one domain check, NaN and +-inf refused everywhere.

Every numeric parameter that a function checks goes through
``states.check_range``; these tests feed each of them NaN and +-inf, and
drive the CLI with unbounded float flags to check its exit-code contract.
Node and draw counts go through ``states.check_count``, which also
refuses non-integral values and booleans.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planeqm.bell import (
    baby_bell_check,
    check_angle_sums,
    classical_correlation,
    HiddenVariableModel,
    quantum_correlation,
    sign_cosine_model,
    singlet_correlation,
    sin_inequality,
    violation_scan,
)
from planeqm.cli import main
from planeqm.isomorphisms import coherent_state, coherent_to_tensor, d_half_matrix
from planeqm.measurement import (
    PARALLEL,
    PERPENDICULAR,
    DiracProfile,
    dirac_cumulative,
    evolution_operator,
    exp_projector,
    measurement_outcomes,
    outcome_probability,
    sample_outcomes,
)
from planeqm.quantization import (
    BorelSet,
    FourierSeries,
    fourier_coefficients,
    identity_residual,
    povm_element,
    quantize,
    superposition_density,
)
from planeqm.states import DensityParams, check_range, rotation, spectral_decompose

NAN, INF = math.nan, math.inf
SERIES = FourierSeries.harmonic(2, ak=1.0)
LIGHT = DensityParams(0.5, 0.3)


# ---------------------------------------------------------------------------
# the validator


def test_check_range_returns_the_value():
    assert check_range(0.25, "x must lie in [0, 1]", 0.0, 1.0) == 0.25
    assert check_range(-1e308, "x must be finite") == -1e308
    assert check_range(10**400, "n must be positive", 1) == 10**400


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_check_range_refuses_non_finite_values_whatever_the_bounds(value):
    with pytest.raises(ValueError, match=r"^x must be finite, got (nan|inf|-inf)$"):
        check_range(value, "x must be finite")


def test_check_range_message_and_bounds():
    with pytest.raises(ValueError) as info:
        check_range(1.5, "degree of mixing r must lie in [0, 1]", 0.0, 1.0)
    assert str(info.value) == "degree of mixing r must lie in [0, 1], got 1.5"
    # a strict lower bound 0 is the smallest positive float
    assert check_range(5e-324, "eta must be positive", math.ulp(0.0)) == 5e-324
    with pytest.raises(ValueError, match="got 0.0"):
        check_range(0.0, "eta must be positive", math.ulp(0.0))


ARRAYS = [
    [0.0, 0.5, 1.0],
    (1.0, 0.25),
    np.array(0.5),
    np.array([0.5, 1.0, 0.0]),
    np.array([[0.5], [1.0]]),
    range(2),
    np.array([]),
    [],
]


@pytest.mark.parametrize("value", ARRAYS, ids=["list", "tuple", "0-d", "1-d", "2-d", "range", "empty", "empty-list"])
def test_check_range_accepts_arrays_and_returns_them(value):
    assert check_range(value, "p must lie in [0, 1]", 0.0, 1.0) is value


@pytest.mark.parametrize(
    "value,got",
    [
        ([0.5, NAN, 0.25], "nan"),
        ((0.5, NAN, 0.25), "nan"),
        (np.array([0.5, NAN, 0.25]), "nan"),
        (np.array(NAN), "nan"),
        (np.array([INF, 0.5]), "inf"),
        (np.array([0.5, INF]), "inf"),
        (np.array([-INF, 0.5]), "-inf"),
        (np.array([0.5, -INF]), "-inf"),
        ([1e308, -INF, INF], "-inf"),
    ],
)
def test_check_range_refuses_non_finite_array_elements(value, got):
    with pytest.raises(ValueError) as info:
        check_range(value, "x must be finite")
    assert str(info.value) == f"x must be finite, got {got}"


def test_check_range_names_the_offending_extreme():
    # the minimum is checked first, then the maximum, each as a float
    for value, got in [
        (np.array([0.5, 1.5, 0.25]), "1.5"),
        ([0.5, -0.25, 0.75], "-0.25"),
        ((-0.25, 1.5), "-0.25"),
        (np.array([0, 2]), "2.0"),
    ]:
        with pytest.raises(ValueError) as info:
            check_range(value, "p must lie in [0, 1]", 0.0, 1.0)
        assert str(info.value) == f"p must lie in [0, 1], got {got}"
    tiny = np.array([5e-324, 1.0])
    assert check_range(tiny, "eta must be positive", math.ulp(0.0)) is tiny
    with pytest.raises(ValueError, match=r"^eta must be positive, got 0\.0$"):
        check_range(np.array([1.0, 0.0]), "eta must be positive", math.ulp(0.0))


# ---------------------------------------------------------------------------
# every validated parameter refuses NaN and +-inf

#: (function, parameter) -> call with that parameter replaced by ``x``.
CALLS = {
    "DensityParams.r": lambda x: DensityParams(x, 0.0),
    "DensityParams.phi": lambda x: DensityParams(0.5, x),
    "quantize.r": lambda x: quantize(SERIES, x, 0.0),
    "quantize.phi0": lambda x: quantize(SERIES, 0.5, x),
    "quantize.n_samples": lambda x: quantize(SERIES, 0.5, 0.0, x),
    "fourier_coefficients.n_samples": lambda x: fourier_coefficients(SERIES, x),
    "identity_residual.r": lambda x: identity_residual(x, 0.0),
    "identity_residual.phi0": lambda x: identity_residual(0.5, x),
    "identity_residual.n_samples": lambda x: identity_residual(0.5, 0.0, x),
    "povm_element.r": lambda x: povm_element(BorelSet(((0.0, 1.0),)), x, 0.0),
    "povm_element.phi0": lambda x: povm_element(BorelSet(((0.0, 1.0),)), 0.5, x),
    "superposition_density.s": lambda x: superposition_density(x, 0.0, 1.0, 8),
    "superposition_density.theta": lambda x: superposition_density(0.2, x, 1.0, 8),
    "superposition_density.r": lambda x: superposition_density(0.2, 0.0, x, 8),
    "superposition_density.n_samples": lambda x: superposition_density(0.2, 0.0, 1.0, x),
    "DiracProfile.t_m": lambda x: DiracProfile(x, 0.1),
    "DiracProfile.eta": lambda x: DiracProfile(0.0, x),
    "evolution_operator.g_value": lambda x: evolution_operator(x, 0.5, 0.0),
    "evolution_operator.r": lambda x: evolution_operator(0.5, x, 0.0),
    "evolution_operator.phi": lambda x: evolution_operator(0.5, 0.5, x),
    "measurement_outcomes.interaction_r": lambda x: measurement_outcomes(LIGHT, x, 0.0),
    "measurement_outcomes.interaction_phi": lambda x: measurement_outcomes(LIGHT, 0.5, x),
    "sample_outcomes.p_parallel": lambda x: sample_outcomes(x, 10, 0),
    "sample_outcomes.n": lambda x: sample_outcomes(0.5, x, 0),
    "coherent_state.theta": lambda x: coherent_state(x, 0.0),
    "coherent_state.phi": lambda x: coherent_state(1.0, x),
    "d_half_matrix.phi": lambda x: d_half_matrix(1.0, x),
    "coherent_to_tensor.theta": lambda x: coherent_to_tensor(x, 0.0),
    "coherent_to_tensor.phi": lambda x: coherent_to_tensor(1.0, x),
    "classical_correlation.phi_a": lambda x: classical_correlation(sign_cosine_model(), x, 0.0),
    "classical_correlation.phi_b": lambda x: classical_correlation(sign_cosine_model(), 0.0, x),
    "classical_correlation.n_nodes": lambda x: classical_correlation(sign_cosine_model(), 0.0, 0.0, x),
    "singlet_correlation.phi_a": lambda x: singlet_correlation(sign_cosine_model(), x, 0.0),
    "singlet_correlation.n_nodes": lambda x: singlet_correlation(sign_cosine_model(), 0.0, 0.0, x),
    "baby_bell_check.p_ab": lambda x: baby_bell_check(x, 0.0, 0.0),
    "baby_bell_check.p_ac": lambda x: baby_bell_check(0.0, x, 0.0),
    "baby_bell_check.p_bc": lambda x: baby_bell_check(0.0, 0.0, x),
    "sin_inequality.zeta": lambda x: sin_inequality(x, 0.3),
    "sin_inequality.eta": lambda x: sin_inequality(0.3, x),
    "violation_scan.zeta_grid": lambda x: violation_scan([0.1, x], [0.2, 0.3]),
    "violation_scan.eta_grid": lambda x: violation_scan([0.1, 0.2], [x, 0.3]),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
def test_validated_parameter_refuses_non_finite(call, value):
    with pytest.raises(ValueError, match=r", got "):
        call(value)


#: The entries of CALLS whose parameter is a node or draw count.
COUNTS = [
    "quantize.n_samples",
    "fourier_coefficients.n_samples",
    "identity_residual.n_samples",
    "superposition_density.n_samples",
    "sample_outcomes.n",
    "classical_correlation.n_nodes",
    "singlet_correlation.n_nodes",
]


@pytest.mark.parametrize("value", [8.5, 4096.5, 1e3 + 1e-9])
@pytest.mark.parametrize("name", COUNTS)
def test_count_refuses_non_integral_values(name, value):
    with pytest.raises(ValueError, match=rf" must be an integer, got {re.escape(repr(value))}$"):
        CALLS[name](value)


@pytest.mark.parametrize("name", COUNTS)
def test_count_refuses_booleans(name):
    with pytest.raises(ValueError, match=r", got True$"):
        CALLS[name](True)


def _plain(result):
    return dataclasses.astuple(result) if dataclasses.is_dataclass(result) else result


@pytest.mark.parametrize("name", COUNTS)
def test_count_accepts_integral_floats(name):
    np.testing.assert_equal(_plain(CALLS[name](1024.0)), _plain(CALLS[name](1024)))


def test_sample_outcomes_counts_are_ints_for_an_integral_float_n():
    counts = sample_outcomes(0.5, 10.0, 1)
    assert counts == sample_outcomes(0.5, 10, 1)
    assert [type(c) for c in counts] == [int, int]


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("correlation", [classical_correlation, singlet_correlation])
def test_correlation_refuses_a_non_finite_element(correlation, value):
    # the message of the call on that pair alone
    for label, pair in (("phi_a", ([0.0, value], [0.1, 0.2])), ("phi_b", ([0.0, 0.1], [0.2, value]))):
        with pytest.raises(ValueError, match=rf"^angle {label} must be finite, got {value}$"):
            correlation(sign_cosine_model(), *pair)


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", ["box", "gaussian"])
def test_dirac_cumulative_refuses_non_finite_time(shape, value):
    with pytest.raises(ValueError, match=r"^time t must be finite, got "):
        dirac_cumulative(DiracProfile(0.0, 0.1, shape), value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sin_inequality(1e308, 1e308),
        lambda: violation_scan([1e308], [0.0, 1e308]),
        lambda: violation_scan([-1e308, 0.0], [-1e308]),
        lambda: check_angle_sums(np.array([0.0, 1.7e308]), np.array([0.0, 1e307])),
    ],
    ids=["sin_inequality", "violation_scan-max", "violation_scan-min", "check_angle_sums"],
)
def test_overflowing_angle_sum_is_refused(call):
    with pytest.raises(ValueError, match="zeta, eta and zeta \\+ eta must be finite, got"):
        call()


def test_huge_finite_angles_are_accepted():
    assert sin_inequality(1e308, -1e308).rhs >= 0.0
    assert len(violation_scan([1e308, -1e308], [0.5])) == 2
    assert DensityParams(1.0, -1e308).phi == -1e308
    assert coherent_to_tensor(1.0, 1e308).shape == (4,)


# The checks that compare against a tolerance are written "not x <= tol",
# so that NaN fails them instead of slipping through "x > tol".


def test_nan_matrix_is_not_a_density():
    with pytest.raises(ValueError, match="not symmetric"):
        spectral_decompose(np.full((2, 2), NAN))
    with pytest.raises(ValueError, match="trace"):
        spectral_decompose([[NAN, 0.0], [0.0, 0.5]])


def test_nan_projector_is_refused():
    with pytest.raises(ValueError, match="symmetric"):
        exp_projector(0.3, np.full((2, 2), NAN))


def test_nan_density_is_refused():
    with pytest.raises(ValueError, match="integrates to nan"):
        HiddenVariableModel(
            epsilon=lambda phi, lam: np.ones_like(lam),
            density=lambda lam: np.full(np.shape(lam), NAN),
        )


def test_elementwise_closed_forms_keep_float_semantics():
    assert np.isnan(rotation(NAN)).all()
    assert math.isnan(quantum_correlation(NAN, 0.0))
    assert math.isnan(outcome_probability(LIGHT, NAN, PARALLEL))


# ---------------------------------------------------------------------------
# huge finite orientations in the identity check


@pytest.mark.parametrize("phi0", [1e10, -1e10, 5e307, 1e308, -1e308])
def test_identity_residual_reduces_huge_offsets(phi0):
    assert identity_residual(0.7, phi0) < 1e-15


@pytest.mark.parametrize("phi0", [1e10, -1e10, 5e307, 1e308, -1e308])
def test_povm_element_reduces_huge_offsets(phi0):
    # a POVM element is a quantization, so it is pi-periodic in phi0 as well
    delta = BorelSet(((0.0, 1.0), (2.5, 4.0)))
    np.testing.assert_allclose(
        povm_element(delta, 0.5, phi0), povm_element(delta, 0.5, phi0 % math.pi), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("phi", [1e10, -1e10, 5e307, 1e308, -1e308])
def test_outcome_probability_reduces_huge_polarizer_angles(phi):
    # cos 2(phi - phi0) is pi-periodic in phi, so phi and phi mod pi give the same values
    reduced = phi % math.pi
    for orientation in (PARALLEL, PERPENDICULAR):
        assert outcome_probability(LIGHT, phi, orientation) == pytest.approx(
            outcome_probability(LIGHT, reduced, orientation), abs=1e-12
        )
    for got, want in zip(measurement_outcomes(LIGHT, 0.5, phi), measurement_outcomes(LIGHT, 0.5, reduced)):
        assert got.probability == pytest.approx(want.probability, abs=1e-12)


def test_outcome_probability_of_edge_angles_equals_scalar_calls():
    phis = np.array([-1e-300, -0.0, 2 * math.pi, 4 * math.pi, 1e308, INF, NAN])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for orientation in (PARALLEL, PERPENDICULAR):
            got = outcome_probability(LIGHT, phis, orientation)
            want = np.array([outcome_probability(LIGHT, phi, orientation) for phi in phis.tolist()])
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.isnan(got[-2:]).all() and np.isfinite(got[:-2]).all()


# ---------------------------------------------------------------------------
# the CLI


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "bounds",
    [
        ("--zeta-min=-1e308", "--zeta-max=1e308"),
        ("--eta-min=-1e308", "--eta-max=1e308"),
        ("--zeta-min=1e308", "--zeta-max=1e308", "--eta-min=1e308", "--eta-max=1e308"),
    ],
    ids=["zeta-range", "eta-range", "sum"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bell_scan_overflow_exits_3_without_output(bounds, fmt):
    code, out, err = run("bell-scan", "--zeta-steps", "3", "--eta-steps", "2", "--format", fmt, *bounds)
    assert code == 3
    assert out == ""
    assert err.startswith("error: zeta, eta and zeta + eta must be finite, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("phi0", ["1e10", "5e307", "1e308"])
def test_identity_check_passes_for_huge_offsets(phi0):
    code, out, err = run("identity-check", "--r", "0.7", "--phi0", phi0, "--format", "csv")
    assert (code, err) == (0, "")
    header, row = out.strip().split("\n")
    record = dict(zip(header.split(","), row.split(",")))
    assert record["passed"] == "true"
    assert float(record["residual"]) < 1e-15


def _csv_values(out: str) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]


@pytest.mark.parametrize("phi0", [1e10, -1e10, 5e307, 1e308, -1e308])
def test_quantize_and_malus_reduce_huge_offsets(phi0):
    # both families are pi-periodic in phi0, so phi0 and phi0 mod pi give the same values
    reduced = phi0 % math.pi
    series = '{"a0": 1, "terms": [{"k": 2, "ak": 0.3, "bk": -0.2}]}'
    for argv in (["quantize", series, "--r", "0.5"], ["malus", "--r0", "1", "--steps", "3"]):
        code, out, err = run(*argv, f"--phi0={phi0!r}", "--format", "csv")
        assert (code, err) == (0, "")
        _, expected, _ = run(*argv, f"--phi0={reduced!r}", "--format", "csv")
        np.testing.assert_allclose(_csv_values(out), _csv_values(expected), rtol=0, atol=1e-12)


def _mc_column(seed: int) -> list[float]:
    # constant p = 1/2, so rows differ only by their random streams
    code, out, _ = run("malus", "--r0", "0", "--steps", "8", "--mc-n", "1000", "--seed", str(seed))
    assert code == 0
    return [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]


@pytest.mark.parametrize("seed", [6, 7, 100])
def test_malus_streams_of_neighbouring_seeds_are_independent(seed):
    mine, neighbour = _mc_column(seed), _mc_column(seed ^ 1)
    assert mine != neighbour
    # seed ^ row would give the neighbour row i the stream of row i ^ 1
    assert neighbour != [mine[i ^ 1] for i in range(len(mine))]


def test_sample_outcomes_accepts_spawned_seed_sequences():
    child_a, child_b = np.random.SeedSequence(7).spawn(2)
    assert sample_outcomes(0.5, 1000, child_a) == sample_outcomes(0.5, 1000, np.random.SeedSequence(7).spawn(1)[0])
    assert sample_outcomes(0.5, 1000, child_a) != sample_outcomes(0.5, 1000, child_b)


# Unbounded float flags (subnormals, +-1e308, nan, inf), bounded sizes.
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.5, 1.0, math.pi]),
)
unit = st.floats(min_value=0.0, max_value=1.0)


def _float_flags(draw, *names):
    return [f"--{name}={draw(floats)!r}" for name in names]


@st.composite
def requests(draw):
    command = draw(
        st.sampled_from(["quantize", "identity-check", "malus", "bell-scan", "correlate", "coherent", "iso-demo"])
    )
    argv = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    if draw(st.booleans()):
        argv.append("--degrees")
    if command == "identity-check":
        argv.append(f"--samples={draw(st.integers(min_value=-2, max_value=4096))}")
        if draw(st.booleans()):
            argv += _float_flags(draw, "tolerance")
    if command == "malus":
        argv.append(f"--seed={draw(st.integers(min_value=-1, max_value=2**64))}")
    if command == "quantize":
        series = {"a0": draw(floats), "terms": [{"k": draw(st.integers(1, 4)), "ak": draw(floats), "bk": draw(floats)}]}
        argv.insert(1, json.dumps(series))
        argv += [f"--r={draw(st.one_of(unit, floats))!r}", *_float_flags(draw, "phi0")]
    elif command == "identity-check":
        argv += [f"--r={draw(st.one_of(unit, floats))!r}", *_float_flags(draw, "phi0")]
    elif command == "malus":
        argv += [f"--r0={draw(st.one_of(unit, floats))!r}", *_float_flags(draw, "phi0")]
        argv.append(f"--steps={draw(st.integers(min_value=0, max_value=20))}")
        if draw(st.booleans()):
            argv.append(f"--mc-n={draw(st.integers(min_value=-1, max_value=1000))}")
    elif command == "bell-scan":
        argv.append(f"--zeta-steps={draw(st.integers(min_value=0, max_value=20))}")
        argv.append(f"--eta-steps={draw(st.integers(min_value=0, max_value=20))}")
        argv += [flag for flag in _float_flags(draw, "zeta-min", "zeta-max", "eta-min", "eta-max") if draw(st.booleans())]
    elif command == "correlate":
        argv += _float_flags(draw, "phi-a", "phi-b")
        if draw(st.booleans()):
            argv += _float_flags(draw, "phi-c")
        argv.append(f"--model={draw(st.sampled_from(['quantum', 'sign-cos', 'sign-projection']))}")
        argv.append(f"--n-nodes={draw(st.integers(min_value=-1, max_value=4096))}")
    elif command == "coherent":
        argv += [f"--theta={draw(st.one_of(st.floats(0.0, math.pi), floats))!r}", *_float_flags(draw, "phi")]
    return argv


def _refuse_constant(name):
    raise ValueError(f"JSON output contains {name}")


@settings(max_examples=300, deadline=None)
@given(requests())
def test_cli_contract_holds_for_every_input(argv):
    code, out, err = run(*argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
        assert err.strip()
    elif "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out, parse_constant=_refuse_constant)
    else:
        tokens = {token.strip().lower() for line in out.split("\n") for token in line.split(",")}
        assert not tokens & {"nan", "inf", "-inf", "infinity", "-infinity"}

