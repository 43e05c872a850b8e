"""Bell states, quantum correlations, hidden-variable bounds, and scans.

Two-party states live on R^2_A (x) R^2_B.  This module (and the
isomorphism layer built on it) orders the product basis diagonal-first:

    index 0: |0>_A (x) |0>_B          index 2: |0>_A    (x) |pi/2>_B
    index 1: |pi/2>_A (x) |pi/2>_B    index 3: |pi/2>_A (x) |0>_B

:func:`from_kron_order` / :func:`to_kron_order` convert between this order
and the slot-lexicographic Kronecker order (index = 2*i_A + i_B) used by
the measurement module.

The singlet-state correlation of two orientation observables is
<Psi-| sigma(phi_a) (x) sigma(phi_b) |Psi-> = -cos(phi_a - phi_b).
Deterministic hidden-variable models predict pair correlations
P = -<eps(phi_a, .) eps(phi_b, .)> (the partner's outcomes anti-aligned,
as forced by perfect anticorrelation at equal angles), and every such
model obeys

    |P(a,b) - P(a,c)| <= 1 + P(b,c),

while the quantum correlation escapes the bound; in the reduced angles
zeta = (phi_a - phi_b)/2, eta = (phi_b - phi_c)/2 the bound reads
|sin^2 zeta - sin^2(eta + zeta)| <= sin^2 eta and fails on the diagonal
zeta = eta exactly for 0 < |eta| < pi/4.
"""

from __future__ import annotations

__all__ = [
    "BUILTIN_MODELS", "BellKind", "HiddenVariableModel", "InequalityReport", "ScanGrid",
    "ScanPoint", "baby_bell_check", "bell_state", "classical_correlation", "from_kron_order",
    "joint_probabilities", "quantum_correlation", "sigma_tensor", "sign_cosine_model",
    "sign_projection_model", "sin_inequality", "singlet_correlation", "to_kron_order",
    "violation_scan",
]

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .states import TWO_PI, _kron, check_count, check_range, pure_state, sigma_phi

#: Diagonal-first component i sits at Kronecker (lexicographic) slot _PERM[i].
_PERM = np.array([0, 3, 1, 2])
#: Flat Kronecker-order index of each diagonal-first entry, by array shape:
#: a 4-vector's components, a 4x4 operator's rows and columns alike.
_FLAT_PERM = {(4,): _PERM, (4, 4): 4 * _PERM[:, None] + _PERM}

#: Strict-violation tolerance: boundary cases report "not violated".
VIOLATION_TOL = 1e-12

DEFAULT_NODES = 4096


def _flat_perm(a: np.ndarray) -> np.ndarray:
    try:
        return _FLAT_PERM[a.shape]
    except KeyError:
        raise ValueError(f"expected a 4-vector or 4x4 matrix, got shape {a.shape}") from None


def from_kron_order(a: np.ndarray) -> np.ndarray:
    """Re-index a 4-vector or 4x4 operator from Kronecker to diagonal-first order."""
    a = np.asarray(a)
    return a.reshape(-1)[_flat_perm(a)]


def to_kron_order(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`from_kron_order`."""
    a = np.asarray(a)
    out = np.empty(a.shape, a.dtype)
    out.reshape(-1)[_flat_perm(a)] = a
    return out


class BellKind(Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


_SQRT_HALF = 1.0 / math.sqrt(2.0)

_BELL_COMPONENTS = {
    BellKind.PHI_PLUS: (1.0, 1.0, 0.0, 0.0),
    BellKind.PHI_MINUS: (1.0, -1.0, 0.0, 0.0),
    BellKind.PSI_PLUS: (0.0, 0.0, 1.0, 1.0),
    BellKind.PSI_MINUS: (0.0, 0.0, -1.0, 1.0),
}


def bell_state(kind: BellKind) -> np.ndarray:
    """One of the four maximally entangled states, in diagonal-first order.

    Phi+- = (|00> +- |pi/2 pi/2>)/sqrt(2),
    Psi+- = (+-|0 pi/2> + |pi/2 0>)/sqrt(2).
    """
    return _SQRT_HALF * np.array(_BELL_COMPONENTS[kind])


def sigma_tensor(phi_a: float, phi_b: float) -> np.ndarray:
    """sigma(phi_a) (x) sigma(phi_b) in diagonal-first order; squares to I."""
    return from_kron_order(_kron(sigma_phi(phi_a), sigma_phi(phi_b)))


def quantum_correlation(phi_a: float, phi_b: float) -> float:
    """Singlet expectation of the product observable, by matrix contraction.

    Equals -cos(phi_a - phi_b): perfect anticorrelation at equal angles.
    """
    psi = bell_state(BellKind.PSI_MINUS)
    return float(psi @ sigma_tensor(phi_a, phi_b) @ psi)


def joint_probabilities(
    kind: BellKind, phi_a: float, phi_b: float
) -> dict[tuple[int, int], float]:
    """Outcome table p(eps_a, eps_b) for measuring both orientation observables.

    Keys are the four sign pairs in {+1, -1}^2.  Probabilities are squared
    overlaps with the product eigenvectors of sigma(phi_a) (x) sigma(phi_b)
    (the +1 eigenvector of sigma(phi) is the pure state at phi/2); they sum
    to one, and the signed sum reproduces the quantum correlation for the
    singlet.
    """
    psi = bell_state(kind)
    eig_a = {1: pure_state(phi_a / 2.0), -1: pure_state((phi_a + math.pi) / 2.0)}
    eig_b = {1: pure_state(phi_b / 2.0), -1: pure_state((phi_b + math.pi) / 2.0)}
    table: dict[tuple[int, int], float] = {}
    for ea, ua in eig_a.items():
        for eb, ub in eig_b.items():
            amp = float(from_kron_order(_kron(ua, ub)) @ psi)
            table[(ea, eb)] = amp * amp
    return table


@dataclass(frozen=True)
class HiddenVariableModel:
    """Deterministic local model: outcome function and hidden-value density.

    ``epsilon(phi, lam)`` returns +-1 and ``density(lam)`` a nonnegative
    weight; both must accept numpy arrays of ``lam`` (evaluation is always
    vectorized over the hidden variable).  ``domain`` is the (lo, hi)
    integration range.  Registration checks that it is a pair of finite ends,
    that the outcomes are +-1 at 64 midpoints spread over the domain and
    that the density is nonnegative and integrates to one within 1e-9 on
    2**20 midpoints.
    The uniform density 1/(2 pi) of the built-in models, on its own
    domain [0, 2 pi), integrates to one by construction and skips that
    integral.
    """

    epsilon: Callable[[float, np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float] = (0.0, TWO_PI)
    name: str = "custom"

    def __post_init__(self) -> None:
        try:
            lo, hi = self.domain
        except (TypeError, ValueError):
            raise ValueError(f"domain must be a (lo, hi) pair, got {self.domain!r}") from None
        check_range((lo, hi), "domain ends must be finite")
        if not hi > lo:
            raise ValueError(f"domain ({lo}, {hi}) must have positive length")
        if not (self.density is _uniform_density and (lo, hi) == (0.0, TWO_PI)):
            dens = np.asarray(self.density(_midpoints(lo, hi, 1 << 20)), dtype=float)
            if dens.min() < 0.0:
                raise ValueError("density must be nonnegative")
            total = float(dens.mean() * (hi - lo))
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"density integrates to {total!r}, expected 1 within 1e-9")
        probe = np.asarray(self.epsilon(0.37, _midpoints(lo, hi, 64)), dtype=float)
        if not np.all(np.isin(probe, (-1.0, 1.0))):
            raise ValueError("epsilon must take values in {-1, +1}")


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def _uniform_density(lam: np.ndarray) -> np.ndarray:
    """The uniform hidden-direction density 1/(2 pi) of the built-in models."""
    return np.full(np.shape(lam), 1.0 / TWO_PI)


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


@functools.cache
def _sign_model(name: str, scale: float) -> HiddenVariableModel:
    """eps(phi, lam) = sgn(cos(scale * phi - lam)) with the uniform hidden direction, built once.

    Its density is :func:`_uniform_density`, so registration probes the
    outcomes and allocates no 2**20-point integral.
    """
    return HiddenVariableModel(
        epsilon=lambda phi, lam: _sign(np.cos(scale * phi - lam)),
        density=_uniform_density,
        name=name,
    )


def sign_cosine_model() -> HiddenVariableModel:
    """eps(phi, lam) = sgn(cos(phi - lam)), uniform hidden direction.

    Built once per process; later calls return the same (immutable) model.
    """
    return _sign_model("sign-cos", 1.0)


def sign_projection_model() -> HiddenVariableModel:
    """eps = sgn(u(phi/2) . u(lam)): the observable's +1 eigendirection projected on lam.

    Built once per process, like :func:`sign_cosine_model`.
    """
    return _sign_model("sign-projection", 0.5)


BUILTIN_MODELS: dict[str, Callable[[], HiddenVariableModel]] = {
    "sign-cos": sign_cosine_model,
    "sign-projection": sign_projection_model,
}


def _angle_pairs(phi_a, phi_b) -> list[tuple]:
    """The (phi_a, phi_b) pairs of two angles or of two equal-length sequences, every angle checked finite."""
    scalar = np.ndim(phi_a) == np.ndim(phi_b) == 0
    if not scalar and (np.ndim(phi_a) != 1 or np.ndim(phi_b) != 1 or len(phi_a) != len(phi_b)):
        raise ValueError("phi_a and phi_b must be two angles or two equal-length sequences of angles")
    check_range(phi_a, "angle phi_a must be finite")
    check_range(phi_b, "angle phi_b must be finite")
    return [(phi_a, phi_b)] if scalar else list(zip(phi_a, phi_b))


def classical_correlation(model: HiddenVariableModel, phi_a, phi_b, n_nodes: int = DEFAULT_NODES):
    """Expectation of eps(phi_a, .) eps(phi_b, .) under the model's density.

    integral density(lam) eps(phi_a, lam) eps(phi_b, lam) d(lam), by an
    n_nodes midpoint rule (error O(1/n) for the piecewise-constant
    built-ins).  Always lies in [-1, 1] up to integration error; equals +1
    at equal angles.  Note this is the overlap of one party's outcome
    function with itself at two settings; the anti-aligned pair
    expectation that enters the Bell bound is :func:`singlet_correlation`.

    ``phi_a`` and ``phi_b`` are two angles, giving a float, or two
    equal-length sequences, giving an array with one value per pair
    (phi_a[i], phi_b[i]).  The nodes and the density are evaluated once,
    and eps once per distinct angle, so each value is bit-equal to the
    call on its pair alone.
    """
    pairs = _angle_pairs(phi_a, phi_b)
    n_nodes = check_count(n_nodes, "n_nodes")
    lo, hi = model.domain
    lam = _midpoints(lo, hi, n_nodes)
    weights = np.asarray(model.density(lam), dtype=float) * (hi - lo)
    outcomes: dict = {}
    for angle in itertools.chain.from_iterable(pairs):
        if angle not in outcomes:
            outcomes[angle] = model.epsilon(angle, lam)
    values = [float((weights * outcomes[a] * outcomes[b]).mean()) for a, b in pairs]
    return np.array(values) if np.ndim(phi_a) else values[0]


def singlet_correlation(model: HiddenVariableModel, phi_a, phi_b, n_nodes: int = DEFAULT_NODES):
    """Pair correlation with the partner's outcomes anti-aligned.

    Perfect anticorrelation at equal angles forces eps_B = -eps_A, so the
    model's prediction for the product of the two parties' outcomes is the
    negative of :func:`classical_correlation`.  This is the quantity
    comparable with :func:`quantum_correlation` and bounded by
    :func:`baby_bell_check`.  Takes two angles or two equal-length
    sequences of them, as :func:`classical_correlation` does.
    """
    return -classical_correlation(model, phi_a, phi_b, n_nodes)


@dataclass(frozen=True)
class InequalityReport:
    """One evaluation of a correlation bound; violated means lhs > rhs."""

    lhs: float
    rhs: float
    violated: bool
    margin: float


def _verdict(lhs, rhs):
    """(violated, margin) of the bound lhs <= rhs, elementwise over numpy arrays."""
    return lhs > rhs + VIOLATION_TOL, rhs - lhs


def _report(lhs: float, rhs: float) -> InequalityReport:
    return InequalityReport(lhs, rhs, *_verdict(lhs, rhs))


def baby_bell_check(p_ab: float, p_ac: float, p_bc: float) -> InequalityReport:
    """Three-angle Bell bound |P_ab - P_ac| <= 1 + P_bc.

    Takes pair correlations in the singlet convention (equal angles give
    -1); every deterministic local model satisfies the bound, the quantum
    correlation -cos violates it for suitable angle triples.

    Raises:
        ValueError: if any correlation is not a number in [-1, 1].
    """
    bound = 1.0 + VIOLATION_TOL
    for label, value in (("p_ab", p_ab), ("p_ac", p_ac), ("p_bc", p_bc)):
        check_range(value, f"correlation {label} must lie in [-1, 1]", -bound, bound)
    return _report(abs(p_ab - p_ac), 1.0 + p_bc)


def check_angle_sums(zeta, eta) -> None:
    """Refuse reduced angles unless every zeta, eta and zeta + eta is finite.

    ``zeta`` and ``eta`` are floats or arrays; every sum of an element of
    one with an element of the other is checked, as on their Cartesian grid.
    """
    # every sum is finite when the extreme ones are, and then so are both angles: NaN propagates
    # through max/min and inf - inf is NaN; Python floats overflow to inf without a warning
    sums = [float(np.min(zeta)) + float(np.min(eta)), float(np.max(zeta)) + float(np.max(eta))]
    check_range(sums, "zeta, eta and zeta + eta must be finite")


def _sin_bound(zeta, eta):
    """(lhs, rhs) of the reduced-angle bound, broadcasting over numpy arrays."""
    check_angle_sums(zeta, eta)
    s_zeta, s_sum, s_eta = np.sin(zeta), np.sin(eta + zeta), np.sin(eta)
    return np.abs(s_zeta * s_zeta - s_sum * s_sum), s_eta * s_eta


def sin_inequality(zeta: float, eta: float) -> InequalityReport:
    """The same bound in reduced angles: |sin^2(zeta) - sin^2(eta+zeta)| <= sin^2(eta)."""
    lhs, rhs = _sin_bound(float(zeta), float(eta))
    return _report(float(lhs), float(rhs))


@dataclass(frozen=True)
class ScanPoint:
    zeta: float
    eta: float
    report: InequalityReport


@dataclass(frozen=True, eq=False)
class ScanGrid(Sequence):
    """The bound evaluated over a zeta x eta grid, as read-only arrays.

    ``lhs``, ``violated`` and ``margin`` have shape (len(zetas), len(etas));
    ``rhs`` depends on eta alone and has shape (len(etas),).  As a sequence
    the grid yields one :class:`ScanPoint` per grid point, zeta-major, with
    Python floats and bools, equal to :func:`sin_inequality` at that point.
    """

    zetas: np.ndarray
    etas: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    violated: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return self.lhs.size

    def __getitem__(self, index):
        flat = range(len(self))[index]
        if isinstance(flat, range):
            return [self[i] for i in flat]
        i, j = divmod(flat, self.etas.size)
        report = _report(float(self.lhs[i, j]), float(self.rhs[j]))
        return ScanPoint(float(self.zetas[i]), float(self.etas[j]), report)


def violation_scan(zeta_grid, eta_grid) -> ScanGrid:
    """Evaluate :func:`sin_inequality` over the Cartesian grid in one array pass.

    On the diagonal zeta = eta the violated set is exactly the open
    interval 0 < eta < pi/4 (boundary points report margin 0, not
    violated).
    """
    zetas = np.array(zeta_grid, dtype=float)
    etas = np.array(eta_grid, dtype=float)
    if zetas.ndim != 1 or etas.ndim != 1:
        raise ValueError("scan grids must be one-dimensional")
    if not zetas.size or not etas.size:
        raise ValueError("scan grids must be nonempty")
    lhs, rhs = _sin_bound(zetas[:, None], etas)
    grid = ScanGrid(zetas, etas, lhs, rhs, *_verdict(lhs, rhs))
    for array in (zetas, etas, lhs, rhs, grid.violated, grid.margin):
        array.flags.writeable = False
    return grid
