"""Quantum mechanics on the real Euclidean plane.

Orientations in the plane form the simplest nontrivial state space: this
package provides the 2x2 state algebra, covariant integral quantization of
circle functions with its POVM, the polarizer interaction as a quantum
measurement (Malus law, seeded sampling), Bell states with quantum and
hidden-variable correlations, and the isomorphism chain to C^2 and the
quaternions.  A CLI (``planeqm``) exposes reproducible scans and demos.
"""

from . import bell, isomorphisms, measurement, quantization, states
from .states import *
from .quantization import *
from .measurement import *
from .bell import *
from .isomorphisms import *

__version__ = "0.1.0"

__all__ = []
__all__ += states.__all__
__all__ += quantization.__all__
__all__ += measurement.__all__
__all__ += bell.__all__
__all__ += isomorphisms.__all__
