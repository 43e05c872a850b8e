"""The isomorphism chain R^2 (x) R^2 ~ R^4 ~ C^2 ~ H (quaternions).

C^2 is viewed as R^4 through the real-structure basis {e1, e2, i*e1,
i*e2} with component order (x1, x2, y1, y2), i.e. z1 = x1 + i*y1,
z2 = x2 + i*y2.  The product basis of the two planes (diagonal-first
order, see :mod:`planeqm.bell`) corresponds to it via

    |00>          -> e1        |0 pi/2>   -> i*e1
    |pi/2 pi/2>   -> -e2       |pi/2 0>   -> i*e2

so Bell states become the columns of a fixed orthogonal 4x4 change of
basis.  Entanglement in the two-plane picture is carried on the complex
side by antilinear maps: the conjugation C z = conj(z), the flip
F(z1, z2) = (-conj(z2), conj(z1)) with F^2 = -1, and the cat operator
(1 + F)/sqrt(2) that builds equal-weight up/down superpositions.

Spin one-half coherent states (cos(theta/2), e^{i phi} sin(theta/2))
complete the picture: the 2x2 rotation matrix they generate has the flip
of its first column as its second column, and quaternions map to such
matrices multiplicatively, with determinant equal to the squared norm.

Complex vectors and matrices use numpy's complex dtype; antilinear
operators, which are not complex-linear, get honest real 4x4 matrices via
:func:`real_rep` (linear maps commute with multiplication by i there,
antilinear maps anticommute).
"""

from __future__ import annotations

__all__ = [
    "DOWN", "UP", "Quaternion", "bell_basis_matrix", "cat", "coherent_state", "coherent_to_tensor",
    "complex_from_coords", "complex_pair_to_quaternion", "complex_to_tensor", "conjugation",
    "d_half_matrix", "flip", "hamilton_product", "quaternion_matrix", "quaternion_to_complex_pair",
    "real_rep", "real_structure_coords", "tensor_to_complex",
]

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import BellKind, bell_state
from .states import check_range

UP = np.array([1.0 + 0.0j, 0.0 + 0.0j])
DOWN = np.array([0.0 + 0.0j, 1.0 + 0.0j])


# ---------------------------------------------------------------------------
# real structure of C^2


def real_structure_coords(z: np.ndarray) -> np.ndarray:
    """Coordinates (x1, x2, y1, y2) of a complex pair in the real-structure basis."""
    z = np.asarray(z, dtype=complex)
    return np.array([z[0].real, z[1].real, z[0].imag, z[1].imag])


def complex_from_coords(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_structure_coords`."""
    v = np.asarray(v, dtype=float)
    return np.array([v[0] + 1j * v[2], v[1] + 1j * v[3]])


def real_rep(op: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Real 4x4 matrix of a (possibly antilinear) map on C^2.

    Columns are the real-structure coordinates of the images of e1, e2,
    i*e1, i*e2.  Complex-linear maps commute with real_rep(z -> i z);
    antilinear maps anticommute with it.
    """
    basis = (UP, DOWN, 1j * UP, 1j * DOWN)
    return np.column_stack([real_structure_coords(op(b)) for b in basis])


#: Signs from diagonal-first components to real-structure coordinates: |pi/2 pi/2> -> -e2.
_TENSOR_SIGNS = np.array([1.0, -1.0, 1.0, 1.0])


def tensor_to_complex(v: np.ndarray) -> np.ndarray:
    """Complex pair of a two-plane vector given in diagonal-first order.

    |00> -> e1, |pi/2 pi/2> -> -e2, |0 pi/2> -> i*e1, |pi/2 0> -> i*e2;
    linear, norm-preserving, inverted by :func:`complex_to_tensor`.
    """
    return complex_from_coords(_TENSOR_SIGNS * np.asarray(v, dtype=float))


def complex_to_tensor(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tensor_to_complex`."""
    return _TENSOR_SIGNS * real_structure_coords(z)


def bell_basis_matrix() -> np.ndarray:
    """Orthogonal change of basis from Bell components to real-structure ones.

    Maps (x+, x-, y+, y-) -- the components along Phi+, Phi-, Psi+, Psi- --
    to (x1, x2, y1, y2); its k-th column is the real-structure image of the
    k-th Bell state.
    """
    return np.column_stack([real_structure_coords(tensor_to_complex(bell_state(kind))) for kind in BellKind])


# ---------------------------------------------------------------------------
# antilinear operators


def conjugation(z: np.ndarray) -> np.ndarray:
    """Componentwise complex conjugation; an antilinear involution."""
    return np.conj(np.asarray(z, dtype=complex))


def flip(z: np.ndarray) -> np.ndarray:
    """The antilinear flip (z1, z2) -> (-conj(z2), conj(z1)).

    Swaps up and down (F|up> = |down>, F|down> = -|up>), preserves norms,
    and squares to minus the identity.
    """
    z = np.asarray(z, dtype=complex)
    return np.array([-np.conj(z[1]), np.conj(z[0])])


def cat(z: np.ndarray) -> np.ndarray:
    """(1 + flip)/sqrt(2): sends up/down to their equal-weight superpositions."""
    z = np.asarray(z, dtype=complex)
    return (z + flip(z)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# spin one-half coherent states


def _coherent_parts(theta: float, phi: float) -> tuple[float, float, float]:
    """cos(theta/2), sin(theta/2) cos(phi) and sin(theta/2) sin(phi) of a sphere direction."""
    check_range(theta, "colatitude theta must lie in [0, pi]", 0.0, math.pi)
    check_range(phi, "azimuth phi must be finite")
    half = theta / 2.0
    return math.cos(half), math.sin(half) * math.cos(phi), math.sin(half) * math.sin(phi)


def coherent_state(theta: float, phi: float) -> np.ndarray:
    """Unit vector (cos(theta/2), e^{i phi} sin(theta/2)) for a sphere direction."""
    c, sc, ss = _coherent_parts(theta, phi)
    # (cos phi + i sin phi) * (sin(theta/2) + 0i) as complex multiplication forms it, signed zeros included
    return np.array([c, complex(sc - ss * 0.0, sc * 0.0 + ss)])


def d_half_matrix(theta: float, phi: float) -> np.ndarray:
    """The 2x2 unitary whose first column is the coherent state.

    Its second column is the flip of the first, making it an SU(2) element
    (unit determinant) for every direction.
    """
    first = coherent_state(theta, phi)
    return np.column_stack([first, flip(first)])


def coherent_to_tensor(theta: float, phi: float) -> np.ndarray:
    """Coherent state as an entangled two-plane vector, diagonal-first order.

    (cos(theta/2), -sin(theta/2) cos(phi), sin(theta/2) sin(phi), 0): the
    fourth component vanishes identically and the norm is one, so each
    upper-half-sphere direction is a pair of entangled plane angles.
    """
    c, sc, ss = _coherent_parts(theta, phi)
    return np.array([c, -sc, ss, 0.0])


# ---------------------------------------------------------------------------
# quaternions


@dataclass(frozen=True)
class Quaternion:
    """q0 + q1 i + q2 j + q3 k with the convention i = j k (+ even permutations)."""

    q0: float
    q1: float
    q2: float
    q3: float

    @property
    def norm_squared(self) -> float:
        return self.q0**2 + self.q1**2 + self.q2**2 + self.q3**2

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_squared)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return hamilton_product(self, other)


def hamilton_product(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product; norm-multiplicative and associative."""
    return Quaternion(
        p.q0 * q.q0 - p.q1 * q.q1 - p.q2 * q.q2 - p.q3 * q.q3,
        p.q0 * q.q1 + p.q1 * q.q0 + p.q2 * q.q3 - p.q3 * q.q2,
        p.q0 * q.q2 - p.q1 * q.q3 + p.q2 * q.q0 + p.q3 * q.q1,
        p.q0 * q.q3 + p.q1 * q.q2 - p.q2 * q.q1 + p.q3 * q.q0,
    )


def quaternion_to_complex_pair(q: Quaternion) -> np.ndarray:
    """Linear norm-preserving identification (q0 + i q3, q2 + i q1) of H with C^2."""
    return np.array([q.q0 + 1j * q.q3, q.q2 + 1j * q.q1])


def complex_pair_to_quaternion(z: np.ndarray) -> Quaternion:
    """Inverse of :func:`quaternion_to_complex_pair`."""
    z = np.asarray(z, dtype=complex)
    return Quaternion(z[0].real, z[1].imag, z[1].real, z[0].imag)


def quaternion_matrix(q: Quaternion) -> np.ndarray:
    """2x2 complex matrix with columns (Z_q, flip(Z_q)).

    A multiplicative representation: products of quaternions map to matrix
    products, the determinant is the squared norm, and unit quaternions
    land in SU(2).
    """
    z = quaternion_to_complex_pair(q)
    return np.column_stack([z, flip(z)])
