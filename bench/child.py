"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object on stdout.  The process has a
single client and runs a closed loop: the next operation starts when the
previous one has ended and its output has been checked.  Only the call
itself is timed; garbage collection (scan), output checks and file
clean-up happen between timed intervals.

With ``--trace 0`` the loop runs untimed warm-up operations, then cycles
through the workload's operation list for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs whole passes of the list
untraced for half the time, installs the span wrappers from ``tracing``,
and runs whole passes traced for the other half; per-layer counts are
reported per pass and must repeat exactly from pass to pass.

``--setup-only MODULE`` only times the import of ``MODULE`` (``setup_s``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What ``setup_s`` imports for each workload: the CLI, or the library alone.
SETUP_MODULES = {"scan": "planeqm.cli", "quadrature": "planeqm", "requests": "planeqm.cli"}


def import_program(module: str) -> float:
    """Import ``module`` from this checkout's ``src``; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    importlib.import_module(module)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["planeqm"].__file__).resolve().parent.parent
    if origin != SRC.resolve():
        raise SystemExit(f"planeqm was imported from {origin}, not from {SRC}")
    return elapsed


class Phase:
    """Latencies, failures and per-operation counts of one measured loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.counts: list[dict] = []
        self.failures: list[str] = []

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def execute(wl, op, api, phase: Phase, tracer=None, op_id: int = -1) -> None:
    wl.prepare(op)
    if wl.collect_garbage:
        gc.collect()
    if tracer is not None:
        tracer.op_id = op_id
    error = None
    start = time.perf_counter()
    try:
        out = wl.run(op, api)
    except Exception:
        error = traceback.format_exc()
    latency = time.perf_counter() - start
    counts: dict = {}
    if error is None:
        try:
            counts = wl.check(op, out)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    phase.latencies.append(latency)
    phase.kinds.append(op.kind)
    phase.counts.append(counts)
    if error is not None:
        phase.failures.append(f"{op.kind}: {error}")


def run_loop(wl, api, seconds: float, tracer=None, whole_passes: bool = False) -> Phase:
    """Cycle through ``wl.ops`` until ``seconds`` have passed (at least one op, or one pass)."""
    phase, n, i = Phase(), len(wl.ops), 0
    start = time.perf_counter()
    while i == 0 or time.perf_counter() - start < seconds or (whole_passes and i % n):
        execute(wl, wl.ops[i % n], api, phase, tracer, i)
        i += 1
    return phase


def warm_up(wl, api) -> Phase:
    phase = Phase()
    for op in wl.warmup:
        execute(wl, op, api, phase)
    return phase


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(phase: Phase, import_s: float) -> dict:
    lat = phase.latencies
    metrics = {
        "setup_s": _metric(import_s, "s", 1),
        "op_p50_s": _metric(statistics.median(lat), "s", len(lat)),
        "ops_per_s": _metric(phase.ops_per_s, "1/s", len(lat)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    # p90 needs at least ten samples above it
    if len(lat) >= 100:
        metrics["op_p90_s"] = _metric(statistics.quantiles(lat, n=10)[-1], "s", len(lat))
    return metrics


def pass_counts(phase: Phase, spans: dict, ops_per_pass: int) -> list[dict]:
    """Counts summed per pass: outside counters plus span calls and units."""
    n_passes = len(phase.latencies) // ops_per_pass
    passes: list[dict] = [{} for _ in range(n_passes)]
    for op_id, counts in enumerate(phase.counts):
        target = passes[op_id // ops_per_pass]
        for key, value in counts.items():
            target[key] = target.get(key, 0) + value
    for name, per_op in spans.items():
        if name == "cli.self":
            continue
        for op_id, (calls, units, _) in per_op.items():
            target = passes[op_id // ops_per_pass]
            target[f"calls:{name}"] = target.get(f"calls:{name}", 0) + calls
            if units:
                target[f"units:{name}"] = target.get(f"units:{name}", 0) + int(units)
    return passes


def per_layer(spans: dict, counts: dict, n_passes: int, overhead_ratio: float) -> dict:
    def median_s(*names: str) -> dict:
        per_op: dict[int, float] = {}
        for name in names:
            for op_id, (_, _, seconds) in spans.get(name, {}).items():
                per_op[op_id] = per_op.get(op_id, 0.0) + seconds
        values = list(per_op.values())
        return _metric(statistics.median(values) if values else 0.0, "s", len(values))

    def count(*keys: str) -> dict:
        return _metric(sum(counts.get(k, 0) for k in keys), "count", n_passes)

    def ratio(num: str, den: tuple[str, ...], unit: str) -> dict:
        total = sum(counts.get(k, 0) for k in den)
        return _metric(counts.get(num, 0) / total if total else 0.0, unit, n_passes)

    iso = sorted(name for name in spans if name.startswith("isomorphisms."))
    nodes = ("units:quantization.identity_residual", "units:quantization.superposition_density")
    metrics = {
        "cli.self_s": median_s("cli.self"),
        "cli.output_bytes": dict(count("cli.output_bytes"), unit="bytes"),
        "cli.rows": count("cli.rows"),
        "cli.exit.0": count("cli.exit.0"),
        "cli.exit.2": count("cli.exit.2"),
        "cli.exit.3": count("cli.exit.3"),
        "cli.exit.unexpected": count("cli.exit.unexpected"),
        "bell.violation_scan.s": median_s("bell.violation_scan"),
        "bell.violation_scan.points": count("units:bell.violation_scan"),
        "bell.model_build.s": median_s("bell.model_build"),
        "bell.model_build.calls": count("calls:bell.model_build"),
        "bell.model_build.per_request": ratio("calls:bell.model_build", ("hv_requests",), "builds/request"),
        "bell.correlation.s": median_s("bell.correlation"),
        "bell.correlation.calls": count("calls:bell.correlation"),
    }
    for kind in ("identity_residual", "superposition_density", "quantize", "quantize_scalar",
                 "fourier_coefficients", "povm_element"):
        metrics[f"quantization.{kind}.s"] = median_s(f"quantization.{kind}")
    metrics.update({
        "quantization.callable_evals_per_quantize": ratio("quantize.evals", ("quantize.calls",), "evals/call"),
        "quantization.callable_evals_per_quantize_scalar":
            ratio("quantize_scalar.evals", ("quantize_scalar.calls",), "evals/call"),
        "states.density_matrix.calls": ratio("calls:states.density_matrix", nodes, "calls/node"),
        "states.density_matrix.s": median_s("states.density_matrix"),
        "states.DensityParams.calls": count("calls:states.DensityParams"),
        "measurement.sample_outcomes.s": median_s("measurement.sample_outcomes"),
        "measurement.sample_outcomes.draws": count("units:measurement.sample_outcomes"),
        "measurement.outcome_probability.calls": count("calls:measurement.outcome_probability"),
        "isomorphisms.s": median_s(*iso),
        "isomorphisms.calls": count(*(f"calls:{name}" for name in iso)),
        "trace.overhead_ratio": _metric(overhead_ratio, "ratio", n_passes),
    })
    return metrics


def kind_medians(phase: Phase) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(latency)
    return {k: {"p50_s": statistics.median(v), "samples": len(v)} for k, v in sorted(by_kind.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--setup-only", metavar="MODULE")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(json.dumps({"import_s": import_program(args.setup_only)}))
        return 0

    import_s = import_program(SETUP_MODULES[args.workload])
    import numpy

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    api = wl.api()
    warm = warm_up(wl, api)
    result = {"numpy": numpy.__version__}
    if args.trace == 0:
        phase = run_loop(wl, api, args.seconds)
        result["metrics"] = end_to_end(phase, import_s)
        result["kinds"] = kind_medians(phase)
        phases = [warm, phase]
    else:
        plain = run_loop(wl, api, args.seconds / 2.0, whole_passes=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_loop(wl, wl.api(tracer), args.seconds / 2.0, tracer, whole_passes=True)
        spans = tracing.per_op(tracer)
        passes = pass_counts(traced, spans, len(wl.ops))
        result["counts_repeat"] = all(p == passes[0] for p in passes)
        result["metrics"] = per_layer(spans, passes[0], len(passes), traced.ops_per_s / plain.ops_per_s)
        result["kinds"] = kind_medians(traced)
        result["spans"] = len(tracer)
        tracer.save(os.path.join(args.workdir, "spans.npz"))
        phases = [warm, plain, traced]
    result["attempted"] = sum(len(p.latencies) for p in phases)
    result["failures"] = [f for p in phases for f in p.failures]
    wl.prepare(None)  # removes the last operation's output file
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
