"""Covariant integral quantization of functions on the circle.

The density family rho(r, phi + phi0) resolves the identity against the
measure d(phi)/pi on [0, 2*pi):

    integral rho(r, phi + phi0) d(phi)/pi = I            (any r, phi0)

which turns every real function f on the circle into a symmetric operator

    A_f = <f> I + (r/2) [Cc(f_shifted) SIGMA3 + Cs(f_shifted) SIGMA1],

where <f> is the circle average, f_shifted(phi) = f(phi - phi0), and
Cc/Cs are the doubled-angle Fourier coefficients

    Cc(f) = integral f(phi) cos(2 phi) d(phi)/pi,
    Cs(f) = integral f(phi) sin(2 phi) d(phi)/pi.

Functions enter as finite Fourier series or Borel sets (coefficients in
closed form) or as callables sampled on a uniform periodic grid: the
equal-weight rectangle rule on [0, 2*pi) is spectrally accurate and exact
for trigonometric polynomials of degree < n/2.

The resolution of the identity is A_1 = I, and restricting the map to
characteristic functions of Borel sets yields the POVM F(delta) =
integral_over_delta rho d(phi)/pi, additive up to rounding in the last bits.
"""

from __future__ import annotations

__all__ = [
    "BorelSet", "CircleFunction", "FourierData", "FourierSeries", "SuperpositionResult",
    "commutator_e1_e2", "fourier_coefficients", "fourier_series_from_json",
    "fourier_series_to_json", "identity_residual", "povm_element", "quantize",
    "superposition_density",
]

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .states import TWO_PI, DensityParams, check_count, check_range, density_matrix, wrap_orientation

#: Default number of quadrature nodes for sampled functions.
DEFAULT_SAMPLES = 1024
MIN_SAMPLES = 8


def _rotate(a: float, b: float, angle: float) -> tuple[float, float]:
    """The (cos, sin) coefficient pair (a, b) rotated by ``angle``: for harmonic k, that of f(phi - angle/k)."""
    c, s = math.cos(angle), math.sin(angle)
    return a * c - b * s, a * s + b * c


@dataclass(frozen=True)
class FourierSeries:
    """Finite real Fourier series a0 + sum_k (ak cos(k phi) + bk sin(k phi)).

    ``terms`` holds (k, ak, bk) triples with distinct positive integer
    harmonics k.  This is the canonical exchange format for quantization
    inputs; see :func:`fourier_series_from_json` for the JSON form.
    """

    a0: float = 0.0
    terms: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(
            (_harmonic_index(k), float(ak), float(bk)) for k, ak, bk in self.terms
        )
        a0 = float(self.a0)
        finite = math.isfinite(a0) and all(
            math.isfinite(ak) and math.isfinite(bk) for _, ak, bk in cleaned
        )
        if not finite:
            raise ValueError("Fourier coefficients must be finite")
        ks = [k for k, _, _ in cleaned]
        if any(k < 1 for k in ks):
            raise ValueError("harmonic indices k must be positive integers")
        if len(set(ks)) != len(ks):
            raise ValueError("harmonic indices k must be distinct")
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "a0", a0)

    @classmethod
    def constant(cls, value: float) -> "FourierSeries":
        return cls(a0=value)

    @classmethod
    def harmonic(cls, k: int, ak: float = 0.0, bk: float = 0.0) -> "FourierSeries":
        return cls(0.0, ((k, ak, bk),))

    def __call__(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.full_like(phi, self.a0, dtype=float)
        for k, ak, bk in self.terms:
            out = out + ak * np.cos(k * phi) + bk * np.sin(k * phi)
        return out if out.shape else float(out)

    def coefficient(self, k: int) -> tuple[float, float]:
        """(ak, bk) of harmonic k, zero if absent."""
        for kk, ak, bk in self.terms:
            if kk == k:
                return ak, bk
        return 0.0, 0.0

    def shifted(self, delta: float) -> "FourierSeries":
        """The translated series phi -> f(phi - delta), again in closed form."""
        return FourierSeries(self.a0, tuple((k, *_rotate(ak, bk, k * delta)) for k, ak, bk in self.terms))


def _harmonic_index(k) -> int:
    """k as an int; integral numbers such as 2.0 pass, 2.7, +-inf, NaN, booleans and non-numbers do not."""
    try:
        if not isinstance(k, bool) and int(k) == k:
            return int(k)
    except (TypeError, ValueError, OverflowError):  # None, lists, "abc", "2.0"; +-inf, NaN
        pass
    raise ValueError(f"harmonic indices k must be integers, got {k!r}")


@dataclass(frozen=True)
class BorelSet:
    """Finite union of disjoint half-open intervals [a, b) inside [0, 2*pi)."""

    intervals: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        cleaned = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in cleaned:
            if not 0.0 <= a <= b <= TWO_PI:
                raise ValueError(
                    f"interval [{a}, {b}) must satisfy 0 <= a <= b <= 2*pi"
                )
        ordered = sorted(cleaned)
        for (_, b_prev), (a_next, _) in zip(ordered, ordered[1:]):
            if a_next < b_prev:
                raise ValueError("intervals overlap; a Borel set needs disjoint pieces")
        object.__setattr__(self, "intervals", cleaned)

    @classmethod
    def full_circle(cls) -> "BorelSet":
        return cls(((0.0, TWO_PI),))

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)


#: A function on [0, 2*pi): a finite Fourier series, a Borel set (its characteristic
#: function), or a callable sampled on the quadrature grid that accepts arrays.
CircleFunction = Union[FourierSeries, BorelSet, Callable[[np.ndarray], np.ndarray]]


def _json_numbers(obj: dict, names: tuple[str, ...], keys: tuple[str, ...]) -> list:
    """The numbers obj[name], 0.0 where absent; keys not in ``keys`` and non-numbers are refused."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}; expected {', '.join(keys)}")
    values = [obj.get(name, 0.0) for name in names]
    for name, value in zip(names, values):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"coefficient {name!r} must be a number, got {value!r}")
    return values


def fourier_series_from_json(data) -> FourierSeries:
    """Parse {"a0": number, "terms": [{"k": int, "ak": number, "bk": number}]}.

    Accepts a dict or a JSON string; missing coefficients default to 0,
    unknown keys and coefficients that are not numbers are refused.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("Fourier series JSON must be an object")
    (a0,) = _json_numbers(data, ("a0",), ("a0", "terms"))
    terms = data.get("terms", [])
    if not isinstance(terms, list):
        raise ValueError('"terms" must be a list of {k, ak, bk} objects')
    parsed = []
    for entry in terms:
        if not isinstance(entry, dict) or "k" not in entry:
            raise ValueError('each term needs at least a "k" harmonic index')
        parsed.append((entry["k"], *_json_numbers(entry, ("ak", "bk"), ("k", "ak", "bk"))))
    return FourierSeries(a0, tuple(parsed))


def fourier_series_to_json(series: FourierSeries) -> dict:
    return {
        "a0": series.a0,
        "terms": [{"k": k, "ak": ak, "bk": bk} for k, ak, bk in series.terms],
    }


@dataclass(frozen=True)
class FourierData:
    """Circle average plus the doubled-angle coefficients of a function."""

    mean: float
    cc: float
    cs: float

    def rotated(self, angle: float) -> "FourierData":
        """Coefficients of the series translated so that (cc, cs) rotates by ``angle``."""
        return FourierData(self.mean, *_rotate(self.cc, self.cs, angle))


def _quadrature_grid(n_samples: int) -> np.ndarray:
    return np.arange(n_samples) * (TWO_PI / n_samples)


def fourier_coefficients(f: CircleFunction, n_samples: int = DEFAULT_SAMPLES) -> FourierData:
    """Mean and doubled-angle coefficients of a circle function.

    Fourier series are read off in closed form (mean = a0, cc = a2,
    cs = b2), Borel sets from the antiderivatives of 1, cos(2 phi) and
    sin(2 phi); only callables are sampled, with the n_samples-point
    rectangle rule, exact for trigonometric polynomials of degree < n_samples/2.
    """
    n_samples = check_count(n_samples, "n_samples", MIN_SAMPLES)
    if isinstance(f, FourierSeries):
        a2, b2 = f.coefficient(2)
        return FourierData(f.a0, a2, b2)
    if isinstance(f, BorelSet):
        return FourierData(
            f.measure / TWO_PI,
            sum(math.sin(2.0 * b) - math.sin(2.0 * a) for a, b in f.intervals) / TWO_PI,
            sum(math.cos(2.0 * a) - math.cos(2.0 * b) for a, b in f.intervals) / TWO_PI,
        )
    phis = _quadrature_grid(n_samples)
    try:
        vals = np.asarray(f(phis), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != phis.shape:
        # scalar-only callable: fall back to a point-by-point evaluation
        vals = np.array([float(f(p)) for p in phis])
    # d(phi)/(2 pi) for the mean, d(phi)/pi for the doubled-angle pair
    mean = float(vals.mean())
    cc = float(2.0 * (vals * np.cos(2.0 * phis)).mean())
    cs = float(2.0 * (vals * np.sin(2.0 * phis)).mean())
    return FourierData(mean, cc, cs)


def quantize(
    f: CircleFunction,
    r: float,
    phi0: float,
    n_samples: int = DEFAULT_SAMPLES,
) -> np.ndarray:
    """Quantize a circle function against the rho(r, phi + phi0) family.

    A_f = <f> I + (r/2) [Cc' SIGMA3 + Cs' SIGMA1], where (Cc', Cs') are
    the doubled-angle coefficients of f(phi - phi0), i.e. the (cc, cs)
    pair of f rotated by 2*phi0.  The output is symmetric and linear in f;
    the constant function 1 maps to the identity for every (r, phi0), and
    a BorelSet to its POVM element.
    """
    check_range(r, "degree of mixing r must lie in [0, 1]", 0.0, 1.0)
    # the family is pi-periodic in phi0: reduce it before doubling, so a huge offset stays finite
    phi0 = wrap_orientation(check_range(phi0, "orientation offset phi0 must be finite"))
    data = fourier_coefficients(f, n_samples).rotated(2.0 * phi0)
    # mean * I + h * (cc * SIGMA3 + cs * SIGMA1) entry by entry, with the same
    # floating-point operations (signed zeros included); Python floats
    # overflow to inf or nan without a warning
    mean, cc, cs, h = float(data.mean), float(data.cc), float(data.cs), 0.5 * float(r)
    a11 = mean + h * (cc + cs * 0.0)
    a22 = mean + h * (-cc + cs * 0.0)
    a12 = mean * 0.0 + h * (cc * 0.0 + cs)
    if not (math.isfinite(a11) and math.isfinite(a12) and math.isfinite(a22)):
        raise ValueError("quantized matrix is not finite")
    return np.array([[a11, a12], [a12, a22]])


def identity_residual(r: float, phi0: float, n_samples: int = DEFAULT_SAMPLES) -> float:
    """Max-abs entry of (integral rho(r, phi + phi0) d(phi)/pi  -  I).

    The integral is the quantization of the constant 1, exactly I.  The
    constant is sampled on ``n_samples`` nodes, so the residual probes the
    rectangle rule and rounding (~1e-16); a FourierSeries constant is read
    off in closed form and would give an exact 0.
    """
    return float(np.abs(quantize(np.ones_like, r, phi0, n_samples) - np.eye(2)).max())


def commutator_e1_e2(r: float, phi0: float) -> np.ndarray:
    """Commutator of the quantized cos(2 phi) and sin(2 phi).

    Equals -(r^2/2) TAU2 for every phi0: the images of the doubled-angle
    basis functions close on the rotation generator, scaled by the squared
    degree of mixing.
    """
    a1 = quantize(FourierSeries.harmonic(2, ak=1.0), r, phi0)
    a2 = quantize(FourierSeries.harmonic(2, bk=1.0), r, phi0)
    return a1 @ a2 - a2 @ a1


@dataclass(frozen=True)
class SuperpositionResult:
    """Quadrature reconstruction of a density as a continuous mixture."""

    matrix: np.ndarray
    convex: bool
    min_weight: float


def superposition_density(
    s: float,
    theta: float,
    r: float,
    n_samples: int = DEFAULT_SAMPLES,
) -> SuperpositionResult:
    """Reconstruct rho(s, theta) as a weighted average of rho(r, phi + theta).

    Evaluates integral [1/2 + (s/r) cos(2 phi)] rho(r, phi + theta) d(phi)/pi
    with the rectangle rule.  The result equals density_matrix((s, theta)).
    The weight function is nonnegative (a genuinely convex mixture) exactly
    when r >= 2 s; its minimum 1/2 - s/r is reported.
    For a tiny r the weights 1/2 +- s/r cancel only up to a rounding error
    that grows like s/r: at s = 1 it is 5.2e-9 for r = 1e-8, against the
    1e-10 met at moderate r, and about 2e3 for r = 1e-20.  ROADMAP item 3's
    closed form (quantizing the weight's Fourier series) cancels nothing.
    """
    check_range(r, "mixing degree r of the integrand family must lie in (0, 1]", math.ulp(0.0), 1.0)
    check_range(s, "target mixing degree s must lie in [0, 1]", 0.0, 1.0)
    check_range(theta, "target orientation theta must be finite")
    n_samples = check_count(n_samples, "n_samples", MIN_SAMPLES)
    phis = _quadrature_grid(n_samples)
    acc = np.zeros((2, 2))
    # s/r overflows the weights for a tiny r; the check below refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        for p in phis:
            weight = 0.5 + (s / r) * math.cos(2.0 * p)
            acc += weight * density_matrix(DensityParams(r, theta + p))
    if not np.isfinite(acc).all():
        raise ValueError("superposition matrix is not finite")
    min_weight = 0.5 - s / r
    return SuperpositionResult(acc * (2.0 / n_samples), min_weight >= 0.0, min_weight)


def povm_element(delta: BorelSet, r: float, phi0: float) -> np.ndarray:
    """POVM value F(delta) = integral over delta of rho(r, phi + phi0) d(phi)/pi.

    The quantization of the characteristic function of ``delta``: positive
    semidefinite, the identity on the full circle, and additive over
    disjoint sets up to rounding in the last bits.
    """
    return quantize(delta, r, phi0)
