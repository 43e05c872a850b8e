"""Real 2x2 state algebra for orientations in the Euclidean plane.

Pure states are unit vectors u(phi) = (cos phi, sin phi).  Mixed states form
the two-parameter density family

    rho(r, phi) = 1/2 * I + (r/2) * sigma(2*phi),

where ``r`` in [0, 1] is the degree of mixing (0 = maximally mixed,
1 = pure) and ``phi`` the orientation.  ``sigma(phi)`` is the symmetric
unit-determinant-(-1) observable

    sigma(phi) = [[cos phi,  sin phi],
                  [sin phi, -cos phi]] = R(phi) @ SIGMA3,

with eigenvalues +/-1 and eigenvectors u(phi/2), u((phi+pi)/2).

Two angle conventions coexist on purpose: state angles are periodic mod
2*pi, while density orientations are periodic mod pi (rho(r, phi + pi) is
the same matrix as rho(r, phi)).  Use :func:`wrap_state_angle` and
:func:`wrap_orientation` respectively.

Everything here is a pure function over immutable inputs; matrices are
freshly allocated on every call.
"""

from __future__ import annotations

__all__ = [
    "DECOMPOSE_TOL", "SIGMA1", "SIGMA3", "STRUCTURAL_TOL", "TAU2", "TWO_PI", "DensityParams",
    "density_matrix", "projector", "pure_state", "rotation", "sigma_phi", "spectral_decompose",
    "tau2_conjugate", "wrap_orientation", "wrap_state_angle",
]

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Real Pauli matrices and the plane's rotation generator.
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])
TAU2 = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Tolerance for structural identities (symmetry, idempotence, ...).
STRUCTURAL_TOL = 1e-12
#: Tolerance for decomposition round trips (two trig evaluations deep).
DECOMPOSE_TOL = 1e-10


def check_range(value, what: str, lo: float = -math.inf, hi: float = math.inf):
    """The one domain check for numeric parameters: ``value`` if finite and in [lo, hi].

    Otherwise raises ValueError("<what>, got <value>").  A strict lower
    bound 0 is written ``math.ulp(0.0)``, the smallest positive float.
    A sequence or array is checked through its minimum, then its maximum,
    as floats (NaN anywhere makes both NaN); an empty one passes.
    """
    if hasattr(value, "__len__"):  # a list, tuple, range or array, not a number
        if np.size(value):
            check_range(float(np.min(value)), what, lo, hi)
            check_range(float(np.max(value)), what, lo, hi)
        return value
    if lo <= value <= hi and -math.inf < value < math.inf:
        return value
    raise ValueError(f"{what}, got {value}")


def check_count(value, name: str, lo: int = 1, hi: float = math.inf) -> int:
    """The one check for node and draw counts: ``value`` as an int if integral and in [lo, hi].

    Out-of-range and non-finite values get the :func:`check_range` message
    "<name> must be positive" (lo = 1) or "<name> must be at least <lo>",
    with " and at most <hi>" for a finite hi.  Integral floats such as
    1024.0 pass; 8.5 and booleans do not.
    """
    bounds = "positive" if lo == 1 else f"at least {lo}"
    check_range(value, f"{name} must be {bounds}" + ("" if hi == math.inf else f" and at most {hi}"), lo, hi)
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _wrap(phi, period: float):
    """``phi`` mod ``period`` in [0, period), elementwise in float64: ``np.mod`` is bit-equal to float ``%``.

    A Python float or int (``np.float64`` and ``bool`` included) is reduced
    with float ``%`` itself, which costs a fraction of numpy's scalar call.
    """
    if isinstance(phi, (float, int)):
        wrapped = float(phi) % period
        return 0.0 if wrapped == period else wrapped
    with np.errstate(invalid="ignore"):  # a non-finite angle wraps to NaN, as with %
        wrapped = np.mod(phi, period, dtype=float)
    # a tiny negative input can round the modulo up to the period itself
    if wrapped.ndim:
        wrapped[wrapped == period] = 0.0
        return wrapped
    return 0.0 if wrapped == period else float(wrapped)


def wrap_state_angle(phi):
    """Reduce a state angle, or an array of them, to the canonical range [0, 2*pi)."""
    return _wrap(phi, TWO_PI)


def wrap_orientation(phi):
    """Reduce a density orientation, or an array of them, to the canonical range [0, pi)."""
    return _wrap(phi, math.pi)


@dataclass(frozen=True)
class DensityParams:
    """Half-disk coordinates (r, phi) of a mixed state.

    ``r`` is the degree of mixing, ``phi`` the orientation in radians.
    The orientation is only defined mod pi; it is stored as given and
    canonicalized by the operations that need it.
    """

    r: float
    phi: float

    def __post_init__(self) -> None:
        check_range(self.r, "degree of mixing r must lie in [0, 1]", 0.0, 1.0)
        check_range(self.phi, "orientation phi must be finite")

    @property
    def degenerate(self) -> bool:
        """True for the maximally mixed state, whose orientation is arbitrary."""
        return self.r == 0.0


def pure_state(phi: float) -> np.ndarray:
    """Unit vector (cos phi, sin phi) representing the pure state at angle phi."""
    return np.array([math.cos(phi), math.sin(phi)])


def projector(phi: float) -> np.ndarray:
    """Orthogonal projector onto the pure state at angle phi.

    Returns [[cos^2, cos*sin], [cos*sin, sin^2]]; symmetric, idempotent,
    trace one.
    """
    u = pure_state(phi)
    return np.outer(u, u)


def rotation(phi: float) -> np.ndarray:
    """Plane rotation [[cos, -sin], [sin, cos]]; orthogonal with det +1."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def sigma_phi(phi: float) -> np.ndarray:
    """The +/-1 orientation observable R(phi) @ SIGMA3.

    Its +1 eigenvector is the pure state at phi/2, its -1 eigenvector the
    pure state at (phi + pi)/2.
    """
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [s, -c]])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.kron`` of two 2x2 matrices, or of two 2-vectors, as one broadcast product.

    Bit-equal to ``numpy.kron``, signed zeros included: each entry is the
    same single product, without ``numpy.kron``'s Python-level overhead.
    """
    if a.ndim == 1:
        return (a[:, None] * b).reshape(4)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _affine(mean: float, h: float, cc: float, cs: float) -> np.ndarray:
    """mean * I + h * (cc * SIGMA3 + cs * SIGMA1), entry by entry.

    The same floating-point operations as the matrix expression, signed
    zeros included; Python floats overflow to inf or nan without a warning.
    """
    a12 = mean * 0.0 + h * (cc * 0.0 + cs)
    return np.array([[mean + h * (cc + cs * 0.0), a12], [a12, mean + h * (-cc + cs * 0.0)]])


def density_matrix(p: DensityParams) -> np.ndarray:
    """Materialize the density matrix of the (r, phi) family.

    rho = 1/2 I + (r/2) sigma(2*phi); equivalently the convex mixture
    (1+r)/2 * projector(phi) + (1-r)/2 * projector(phi + pi/2).
    Symmetric, trace one, eigenvalues (1 +/- r)/2.  The orientation is
    reduced mod pi before doubling, so every finite phi gives a finite
    matrix; for phi in [0, pi) the value is bit-equal to the expression above.
    """
    phi2 = 2.0 * wrap_orientation(p.phi)
    return _affine(0.5, 0.5 * p.r, math.cos(phi2), math.sin(phi2))


def spectral_decompose(m: np.ndarray) -> DensityParams:
    """Recover (r, phi) from a density matrix.

    The inverse of :func:`density_matrix`: reads the mixing degree off the
    traceless part in closed form (no iterative eigensolver).  The returned
    orientation is canonical in [0, pi); the maximally mixed input maps to
    (0, 0) by convention.

    Raises:
        ValueError: if ``m`` is not symmetric, not trace one, or not
            positive semidefinite (each within 1e-10, with distinct
            messages).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not abs(m[0, 1] - m[1, 0]) <= DECOMPOSE_TOL:
        raise ValueError("matrix is not symmetric: off-diagonal entries differ")
    if not abs(m[0, 0] + m[1, 1] - 1.0) <= DECOMPOSE_TOL:
        raise ValueError(f"matrix trace is {m[0, 0] + m[1, 1]!r}, expected 1")

    # rho = 1/2 I + (r/2)(cos(2 phi) SIGMA3 + sin(2 phi) SIGMA1)
    x = m[0, 0] - 0.5
    y = 0.5 * (m[0, 1] + m[1, 0])
    r = 2.0 * math.hypot(x, y)
    if not r <= 1.0 + 2.0 * DECOMPOSE_TOL:
        raise ValueError(
            f"matrix is not positive semidefinite: smallest eigenvalue {(1.0 - r) / 2.0!r}"
        )
    if r <= STRUCTURAL_TOL:
        return DensityParams(0.0, 0.0)
    phi = wrap_orientation(0.5 * math.atan2(y, x))
    return DensityParams(min(r, 1.0), phi)


def tau2_conjugate(p: DensityParams) -> DensityParams:
    """Conjugation of rho(r, phi) by the quarter-turn generator TAU2.

    TAU2 rho TAU2^-1 = rho(r, phi + pi/2): the orientation rotates by a
    quarter turn while the mixing degree is untouched.  The orientation is
    reduced mod pi before the quarter turn is added, so a huge phi keeps
    it; the returned orientation is canonical in [0, pi).
    """
    return DensityParams(p.r, wrap_orientation(wrap_orientation(p.phi) + 0.5 * math.pi))
