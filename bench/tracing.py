"""Spans recorded around planeqm's layer boundaries, from outside the package.

A :class:`Tracer` wraps callables so that every call records a span: its
name, start, end, the span that was open when it started (its parent) and
the operation id the benchmark loop assigned.  :func:`install` replaces the
public names that ``planeqm.cli`` and ``planeqm.quantization`` imported from
the other modules with such wrappers, so the library code runs unchanged
while its cross-module calls become visible.

Spans stay in flat in-memory arrays (the quadrature workload records tens of
thousands of per-node spans per operation) and are written out once, after
the measured loop.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Optional

import numpy as np


class Tracer:
    """In-memory span store; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack: list[int] = []
        #: Operation id stamped on every span; the benchmark loop sets it.
        self.op_id = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording a span called ``name`` around each call.

        ``units(args, kwargs)`` optionally extracts a work size from the
        call's arguments (draws, quadrature nodes).  It is stored with the
        span only when the call returns, so a rejected call does no work.
        """
        nid = self._intern(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, unit_store = self.start, self.end, self.units
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            unit_store.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if units is not None:
                unit_store[idx] = units(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "units": np.frombuffer(self.units, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        """Write every span as arrays plus the name table (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _arg(position: int, keyword: str, default: float):
    def extract(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get(keyword, default)

    return extract


#: Quadrature nodes of a density-family call, read from its ``n_samples``.
IDENTITY_NODES = _arg(2, "n_samples", 1024)
SUPERPOSITION_NODES = _arg(3, "n_samples", 1024)
#: Bernoulli draws of one ``sample_outcomes(p, n, seed)`` call.
DRAWS = _arg(1, "n", 0)


def SCAN_POINTS(args, kwargs) -> int:
    """Grid points of one ``violation_scan(zeta_grid, eta_grid)`` call; cli passes both positionally."""
    return len(args[0]) * len(args[1])


#: Names ``planeqm.cli`` imported from the layers below it -> span name.
CLI_IMPORTS = {
    "violation_scan": "bell.violation_scan",
    "quantum_correlation": "bell.correlation",
    "singlet_correlation": "bell.correlation",
    "baby_bell_check": "bell.baby_bell_check",
    "bell_basis_matrix": "isomorphisms.bell_basis_matrix",
    "cat": "isomorphisms.cat",
    "coherent_to_tensor": "isomorphisms.coherent_to_tensor",
    "flip": "isomorphisms.flip",
    "outcome_probability": "measurement.outcome_probability",
    "sample_outcomes": "measurement.sample_outcomes",
    "fourier_coefficients": "quantization.fourier_coefficients",
    "fourier_series_from_json": "quantization.fourier_series_from_json",
    "identity_residual": "quantization.identity_residual",
    "quantize": "quantization.quantize",
    "DensityParams": "states.DensityParams",
}

#: Names ``planeqm.quantization`` imported from ``planeqm.states``.
QUANTIZATION_IMPORTS = {
    "density_matrix": "states.density_matrix",
    "DensityParams": "states.DensityParams",
}

_UNITS = {
    "sample_outcomes": DRAWS,
    "identity_residual": IDENTITY_NODES,
    "violation_scan": SCAN_POINTS,
}


def install(tracer: Tracer) -> None:
    """Replace the imported names in ``planeqm.cli`` and ``planeqm.quantization``.

    The replacement is permanent for the process: a traced phase runs after
    the untraced one, in the same child process, and the process then ends.
    """
    import planeqm.cli as cli
    import planeqm.quantization as quantization

    for attr, span in CLI_IMPORTS.items():
        setattr(cli, attr, tracer.wrap(span, getattr(cli, attr), _UNITS.get(attr)))
    cli.BUILTIN_MODELS = {
        key: tracer.wrap("bell.model_build", factory) for key, factory in cli.BUILTIN_MODELS.items()
    }
    for attr, span in QUANTIZATION_IMPORTS.items():
        setattr(quantization, attr, tracer.wrap(span, getattr(quantization, attr)))


def per_op(tracer: Tracer) -> dict[str, dict[int, tuple[int, float, float]]]:
    """(calls, summed units, summed seconds) per span name and operation id.

    Besides the recorded names, ``cli.self`` holds each ``cli.main`` span
    minus the time its direct child spans cover, as one call per operation.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    out: dict[str, dict[int, tuple[int, float, float]]] = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name_id"] == nid
        if not mask.any():
            continue
        ops, inverse = np.unique(a["op"][mask], return_inverse=True)
        calls = np.bincount(inverse).tolist()
        units = np.bincount(inverse, weights=a["units"][mask]).tolist()
        seconds = np.bincount(inverse, weights=dur[mask]).tolist()
        out[name] = {op: (c, u, t) for op, c, u, t in zip(ops.tolist(), calls, units, seconds)}
    if "cli.main" in out:
        child_time = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child_time, a["parent"][has_parent], dur[has_parent])
        mains = np.flatnonzero(a["name_id"] == tracer.names.index("cli.main"))
        out["cli.self"] = {int(a["op"][i]): (1, 0.0, float(dur[i] - child_time[i])) for i in mains}
    return out
