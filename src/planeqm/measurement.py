"""Polarizer-light interaction as a quantum measurement on R^2 (x) R^2.

The polarizer carries an orientation pointer (slot A), the light beam a
partially linear polarization state (slot B).  Joint operators use the
Kronecker convention index = 2*i_A + i_B (pointer slow, light fast), i.e.
plain ``numpy.kron``.

The interaction ramps up through a smeared impulse around the measurement
time; only its cumulative weight G(t) in [0, 1] matters.  At weight G the
evolution is the orthogonal operator

    U = R(G(1+r)/2) (x) E_phi  +  R(G(1-r)/2) (x) E_{phi+pi/2},

built from exp(theta TAU2 (x) P) = R(theta) (x) P + I (x) (I - P) for an
orthogonal projector P.  After the measurement (G = 1) the light is found
along the polarizer axis with probability (1 + r0 cos 2(phi - phi0))/2 --
the Malus law at full polarization r0 = 1 -- while the pointer rotates by
(1+r)/2, or along the perpendicular axis with the complementary
probability and pointer rotation (1-r)/2.
"""

from __future__ import annotations

__all__ = [
    "PARALLEL", "PERPENDICULAR", "DiracProfile", "MeasurementOutcome", "dirac_cumulative",
    "evolution_operator", "evolve_joint", "exp_projector", "measurement_outcomes",
    "outcome_probability", "sample_outcomes",
]

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    DensityParams, _kron, check_count, check_range, density_matrix, projector, rotation, wrap_orientation,
    wrap_state_angle,
)

PARALLEL = "parallel"
PERPENDICULAR = "perpendicular"

_PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class DiracProfile:
    """Smeared impulse of unit weight around the measurement time.

    ``t_m`` centres the interaction window, ``eta`` is its half-width.
    Two shapes are built in: "box" (uniform on the window, so the
    cumulative is a linear ramp) and "gaussian" (normal with sigma =
    eta/3, cumulative within 1e-12 of 1 by t_m + 8*eta).
    """

    t_m: float
    eta: float
    shape: str = "box"

    def __post_init__(self) -> None:
        check_range(self.t_m, "measurement time t_m must be finite")
        check_range(self.eta, "profile half-width eta must be positive", math.ulp(0.0))
        if self.shape not in ("box", "gaussian"):
            raise ValueError(f'profile shape must be "box" or "gaussian", got {self.shape!r}')


def dirac_cumulative(profile: DiracProfile, t: float) -> float:
    """Accumulated interaction weight G(t) in [0, 1] at time t."""
    check_range(t, "time t must be finite")
    if profile.shape == "box":
        ramp = (t - profile.t_m + profile.eta) / (2.0 * profile.eta)
        return min(1.0, max(0.0, ramp))
    sigma = profile.eta / 3.0
    return 0.5 * (1.0 + math.erf((t - profile.t_m) / (sigma * math.sqrt(2.0))))


def _rotate_on(a: float, p: np.ndarray, b: float, q: np.ndarray) -> np.ndarray:
    """R(a) (x) P + R(b) (x) Q: the pointer rotates by a on the range of P, by b on that of Q."""
    return _kron(rotation(a), p) + _kron(rotation(b), q)


def exp_projector(theta: float, p: np.ndarray) -> np.ndarray:
    """exp(theta TAU2 (x) P) for an orthogonal projector P.

    Collapses to R(theta) (x) P + I (x) (I - P): the rotation acts only on
    the range of P.  The result is orthogonal.

    Raises:
        ValueError: if ``p`` is not symmetric idempotent within 1e-10.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2):
        raise ValueError(f"projector must be 2x2, got shape {p.shape}")
    if not np.abs(p - p.T).max() <= _PROJECTOR_TOL:
        raise ValueError("projector must be symmetric")
    if not np.abs(p @ p - p).max() <= _PROJECTOR_TOL:
        raise ValueError("projector must be idempotent")
    return _rotate_on(theta, p, 0.0, np.eye(2) - p)


def evolution_operator(g_value: float, r: float, phi: float) -> np.ndarray:
    """Joint evolution at cumulative interaction weight ``g_value``.

    U = R(G(1+r)/2) (x) E_phi + R(G(1-r)/2) (x) E_{phi+pi/2}; orthogonal
    for every admissible argument.  G = 0 is the identity (no interaction
    yet), G = 1 the post-measurement operator.
    """
    check_range(g_value, "cumulative weight G must lie in [0, 1]", 0.0, 1.0)
    check_range(r, "degree of mixing r must lie in [0, 1]", 0.0, 1.0)
    check_range(phi, "orientation phi must be finite")
    e_par, e_perp = projector(phi), projector(phi + 0.5 * math.pi)
    return _rotate_on(g_value * (1.0 + r) / 2.0, e_par, g_value * (1.0 - r) / 2.0, e_perp)


def evolve_joint(
    pointer: DensityParams,
    light: DensityParams,
    interaction_r: float,
    interaction_phi: float,
) -> np.ndarray:
    """Post-measurement joint state U (rho_pointer (x) rho_light) U^T.

    Direct 4x4 conjugation by the G = 1 evolution operator; the result is
    symmetric, trace one, and positive semidefinite.
    """
    u = evolution_operator(1.0, interaction_r, interaction_phi)
    joint = _kron(density_matrix(pointer), density_matrix(light))
    return u @ joint @ u.T


def outcome_probability(light: DensityParams, interaction_phi, orientation: str):
    """Probability of finding the light along (or across) the polarizer axis.

    parallel:      (1 + r0 cos 2(phi - phi0)) / 2
    perpendicular: (1 - r0 cos 2(phi - phi0)) / 2

    with (r0, phi0) the light state and phi the polarizer axis.  These
    equal the trace of the evolved joint state against I (x) E_phi and
    I (x) E_{phi+pi/2}, independently of the pointer preparation.

    ``interaction_phi`` is one angle, giving a float, or an array of
    angles, giving an array of the same shape; both go through one numpy
    closed form, so an element of the array is bit-equal to the call on
    that angle alone.  A non-finite angle gives NaN, as float arithmetic
    would.
    """
    if orientation not in (PARALLEL, PERPENDICULAR):
        raise ValueError(f'orientation must be "{PARALLEL}" or "{PERPENDICULAR}", got {orientation!r}')
    # pi-periodic in both angles: reduce them before doubling, so a huge phi or phi0 stays finite;
    # the modulo leaves [0, 2 pi) as it is, the malus grid [0, pi] included
    phi = wrap_state_angle(interaction_phi)
    aligned = 0.5 * (1.0 + light.r * np.cos(2.0 * (phi - wrap_orientation(light.phi))))
    p = aligned if orientation == PARALLEL else 1.0 - aligned
    return p if np.ndim(interaction_phi) else float(p)


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of the polarizer measurement.

    ``pointer_rotation`` is the continuous pointer readout (1+r)/2 for the
    parallel branch, (1-r)/2 for the perpendicular one.
    """

    orientation: str
    pointer_rotation: float
    probability: float


def measurement_outcomes(
    light: DensityParams,
    interaction_r: float,
    interaction_phi: float,
) -> tuple[MeasurementOutcome, MeasurementOutcome]:
    """Both measurement branches; their probabilities sum to one exactly."""
    check_range(interaction_r, "degree of mixing r must lie in [0, 1]", 0.0, 1.0)
    check_range(interaction_phi, "interaction orientation phi must be finite")
    p_par = outcome_probability(light, interaction_phi, PARALLEL)
    return (
        MeasurementOutcome(PARALLEL, (1.0 + interaction_r) / 2.0, p_par),
        MeasurementOutcome(PERPENDICULAR, (1.0 - interaction_r) / 2.0, 1.0 - p_par),
    )


#: The largest draw count numpy's binomial sampler takes (a C long on 64-bit platforms).
_MAX_DRAWS = 2**63 - 1


def sample_outcomes(p_parallel, n: int, seed):
    """Count parallel/perpendicular outcomes over n seeded Bernoulli draws.

    The parallel count of n independent draws is Binomial(n, p_parallel),
    and it is drawn as such: one ``Generator.binomial`` call, whatever n.
    ``p_parallel`` is one probability, giving a pair of ints, or an array
    of them, giving a pair of integer arrays with one count per element,
    each over its own n draws.  ``n`` lies in [1, 2**63 - 1].

    Deterministic: identical (p_parallel, n, seed) always yields identical
    counts.  ``seed`` is anything ``numpy.random.default_rng`` takes; for
    independent batches pass the children of one
    ``numpy.random.SeedSequence(seed).spawn(n_batches)``, each of which
    owns its own generator state.

    Raises:
        ValueError: if a probability is NaN or outside [0, 1], or n is
            not an integer in [1, 2**63 - 1].
    """
    check_range(p_parallel, "probability must lie in [0, 1]", 0.0, 1.0)
    n = check_count(n, "sample count", hi=_MAX_DRAWS)
    count = np.random.default_rng(seed).binomial(n, p_parallel)
    if np.ndim(p_parallel):
        return count, n - count
    return int(count), n - int(count)
