"""Inputs, operations and output checks of the benchmark workloads.

Each workload turns a seed into a fixed list of operations (one *pass*).
The benchmark loop cycles through that list; ``run`` is the timed call,
``prepare`` and ``check`` run outside the timed interval.  Checks test the
meaning of an output at the package's acceptance tolerances, not its bytes,
so a change that legitimately moves a last digit still passes.  ``check``
raises :class:`CheckError` on a wrong output and otherwise returns counts
measured from outside the package (rows, bytes, exit codes, callable
evaluations), which the loop sums per pass.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Strict-violation tolerance of the reduced-angle Bell bound.
VIOLATION_TOL = 1e-12
#: Closed-form agreement for quantities computed in a few float operations.
CLOSED_FORM_TOL = 1e-12
#: Superposition reconstruction against density_matrix (acceptance criterion 4).
SUPERPOSITION_TOL = 1e-10
#: Monte-Carlo frequencies: |freq - p| <= Z * sqrt(p (1 - p) / n) + 1 / n.
MC_Z = 6.0
#: Rows of a scan output whose lhs/rhs are compared with the closed form.
SCAN_SAMPLE_ROWS = 256


class CheckError(Exception):
    """An output that contradicts its closed form or expected exit code."""


def _close(label: str, got, want, tol: float) -> None:
    got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got_a.shape != want_a.shape:
        raise CheckError(f"{label}: shape {got_a.shape}, expected {want_a.shape}")
    err = float(np.max(np.abs(got_a - want_a))) if got_a.size else 0.0
    if not err <= tol:
        raise CheckError(f"{label}: off by {err!r} (tolerance {tol!r})")


def _expect(label: str, condition: bool) -> None:
    if not condition:
        raise CheckError(label)


# ---------------------------------------------------------------------------
# closed forms, written independently of the package


def sin_bound(zeta: float, eta: float) -> tuple[float, float]:
    """(lhs, rhs) of |sin^2 zeta - sin^2(eta + zeta)| <= sin^2 eta."""
    return abs(math.sin(zeta) ** 2 - math.sin(eta + zeta) ** 2), math.sin(eta) ** 2


def _wrap_pi(x: float) -> float:
    """Reduce an angle to [-pi, pi]."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def singlet_closed_form(model: str, phi_a: float, phi_b: float) -> float:
    """Pair correlation of the quantum singlet or a built-in hidden-variable model.

    Both built-in models are sign functions of a uniform hidden direction,
    so their overlap is linear in the reduced angle difference.
    """
    if model == "quantum":
        return -math.cos(phi_a - phi_b)
    delta = phi_a - phi_b if model == "sign-cos" else 0.5 * (phi_a - phi_b)
    return -(1.0 - 2.0 * abs(_wrap_pi(delta)) / math.pi)


def quantized_closed_form(a0: float, a2: float, b2: float, r: float, phi0: float) -> np.ndarray:
    """<f> I + (r/2)(Cc SIGMA3 + Cs SIGMA1), (Cc, Cs) = (a2, b2) rotated by 2 phi0."""
    c, s = math.cos(2.0 * phi0), math.sin(2.0 * phi0)
    cc, cs = a2 * c - b2 * s, a2 * s + b2 * c
    return np.array([[a0 + 0.5 * r * cc, 0.5 * r * cs], [0.5 * r * cs, a0 - 0.5 * r * cc]])


def density_closed_form(r: float, phi: float) -> np.ndarray:
    c, s = math.cos(2.0 * phi), math.sin(2.0 * phi)
    return np.array([[0.5 + 0.5 * r * c, 0.5 * r * s], [0.5 * r * s, 0.5 - 0.5 * r * c]])


# ---------------------------------------------------------------------------
# CLI plumbing shared by the scan and requests workloads


@dataclass
class CliResult:
    code: Any  # int from main(), or None when an exception escaped it
    stderr: str


def run_cli(main: Callable, argv: list[str]) -> CliResult:
    """One in-process ``planeqm`` invocation with stderr captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return CliResult(code, err.getvalue())


def _exit_counts(code) -> dict[str, int]:
    key = f"cli.exit.{code}" if code in (0, 2, 3) else "cli.exit.unexpected"
    return {key: 1}


def _check_exit(result: CliResult, expected: int) -> None:
    _expect("traceback on stderr", "Traceback" not in result.stderr)
    _expect(f"exit code {result.code!r}, expected {expected}", result.code == expected)
    if expected == 0:
        _expect(f"diagnostics on stderr: {result.stderr[:200]!r}", result.stderr == "")
    else:
        _expect(f"error message missing: {result.stderr[:200]!r}", result.stderr.startswith("error:"))


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list[dict], str]:
    """CSV records keyed by the header, plus the ``#`` trailer line if any."""
    lines = text.splitlines()
    header = lines[0].split(",")
    records, trailer = [], ""
    for line in lines[1:]:
        if line.startswith("#"):
            trailer = line
            continue
        cells = line.split(",")
        _expect(f"row has {len(cells)} cells, header {len(header)}", len(cells) == len(header))
        records.append(dict(zip(header, map(_value, cells))))
    return records, trailer


def check_scan_points(points, zetas, etas, sample) -> tuple[int, list[float]]:
    """Check scan records in zeta-major order; return (violated count, diagonal etas).

    Every record's flag must agree with its own lhs and rhs; the records in
    ``sample`` (or all, when ``sample`` is None) also match the closed form.
    """
    n_eta = len(etas)
    n_violated, diagonal, rows = 0, [], 0
    for i, (zeta, eta, lhs, rhs, violated, margin) in enumerate(points):
        _expect(f"row {i}: violated={violated} but lhs={lhs!r}, rhs={rhs!r}",
                violated == (lhs > rhs + VIOLATION_TOL))
        n_violated += violated
        if zeta == eta and violated:
            diagonal.append(eta)
        if sample is None or i in sample:
            _close(f"row {i} grid", (zeta, eta), (zetas[i // n_eta], etas[i % n_eta]), CLOSED_FORM_TOL)
            _close(f"row {i} lhs/rhs", (lhs, rhs), sin_bound(zeta, eta), CLOSED_FORM_TOL)
            _close(f"row {i} margin", margin, rhs - lhs, CLOSED_FORM_TOL)
        rows += 1
    _expect(f"{rows} rows, expected {len(zetas) * n_eta}", rows == len(zetas) * n_eta)
    return n_violated, diagonal


def check_scan_csv(path: str, zetas, etas, sample) -> int:
    """Stream-check a ``bell-scan`` CSV file; return its number of data rows."""
    trailer: list[str] = []

    def points(fh):
        for line in fh:
            if line.startswith("#"):
                trailer.append(line)
                return
            z, e, lhs, rhs, v, m = line.rstrip("\n").split(",")
            _expect(f"violated flag {v!r}", v in ("true", "false"))
            yield float(z), float(e), float(lhs), float(rhs), v == "true", float(m)

    with open(path, "r", encoding="utf-8") as fh:
        _expect("scan header", fh.readline() == "zeta,eta,lhs,rhs,violated,margin\n")
        n_violated, diagonal = check_scan_points(points(fh), zetas, etas, sample)
        _expect("content after the trailer", fh.read() == "")
    _expect("missing trailer", len(trailer) == 1)
    fields = dict(part.split("=", 1) for part in trailer[0][1:].split())
    n = len(zetas) * len(etas)
    _close("violated_fraction", float(fields["violated_fraction"]), n_violated / n, CLOSED_FORM_TOL)
    interval = fields["diagonal_violation_interval"]
    if diagonal:
        lo, hi = (float(x) for x in interval.strip("[]").split(","))
        _close("diagonal interval", (lo, hi), (min(diagonal), max(diagonal)), 0.0)
    else:
        _expect(f"diagonal interval {interval!r}, expected none", interval == "none")
    return n


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


class _CliWorkload:
    """Operations that are ``planeqm.cli.main(argv)`` calls writing to ``self.output``."""

    output: str

    def api(self, tracer=None) -> Callable:
        import planeqm.cli as cli

        return cli.main if tracer is None else tracer.wrap("cli.main", cli.main)

    def prepare(self, op) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.output)

    def run(self, op, main) -> CliResult:
        return run_cli(main, op.argv)


# ---------------------------------------------------------------------------
# scan: one large bell-scan per operation, CSV to --output


@dataclass
class ScanOp:
    argv: list[str]
    zetas: np.ndarray
    etas: np.ndarray
    sample: frozenset
    kind: str = "bell-scan"


class Scan(_CliWorkload):
    """``bell-scan`` on a large square grid through ``planeqm.cli.main``.

    The seed varies the angle ranges; the point count is fixed.
    """

    name = "scan"
    collect_garbage = True

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        rng = np.random.default_rng(seed)
        steps = 11 if tiny else 401
        self.output = os.path.join(workdir, "scan.csv")
        self.ops = []
        for _ in range(3):
            zmin, zmax = _uniform(rng, 0.0, 0.2), _uniform(rng, 1.3, 1.6)
            emin, emax = _uniform(rng, 0.0, 0.2), _uniform(rng, 1.3, 1.6)
            argv = [
                "bell-scan", "--zeta-steps", str(steps), "--eta-steps", str(steps),
                "--zeta-min", repr(zmin), "--zeta-max", repr(zmax),
                "--eta-min", repr(emin), "--eta-max", repr(emax),
                "--format", "csv", "--output", self.output,
            ]
            n = steps * steps
            sample = frozenset(rng.choice(n, size=min(SCAN_SAMPLE_ROWS, n), replace=False).tolist())
            self.ops.append(
                ScanOp(argv, np.linspace(zmin, zmax, steps), np.linspace(emin, emax, steps), sample)
            )
        self.warmup = self.ops[:1]

    def check(self, op: ScanOp, result: CliResult) -> dict[str, float]:
        counts = _exit_counts(result.code)
        _check_exit(result, 0)
        counts["cli.rows"] = check_scan_csv(self.output, op.zetas, op.etas, op.sample)
        counts["cli.output_bytes"] = os.path.getsize(self.output)
        return counts


# ---------------------------------------------------------------------------
# quadrature: direct library calls, no CLI


class TrigPoly:
    """Vectorized trigonometric polynomial that counts its evaluations."""

    def __init__(self, a0: float, terms: tuple[tuple[int, float, float], ...]) -> None:
        self.a0, self.terms, self.evals = a0, terms, 0

    def coefficient(self, k: int) -> tuple[float, float]:
        for kk, ak, bk in self.terms:
            if kk == k:
                return ak, bk
        return 0.0, 0.0

    def __call__(self, phi):
        self.evals += 1
        out = self.a0
        for k, ak, bk in self.terms:
            out = out + ak * np.cos(k * phi) + bk * np.sin(k * phi)
        return out


class ScalarTrigPoly(TrigPoly):
    """The same polynomial through ``math``: rejects arrays, so quantize falls back."""

    def __call__(self, phi):
        self.evals += 1
        phi = float(phi)
        out = self.a0
        for k, ak, bk in self.terms:
            out += ak * math.cos(k * phi) + bk * math.sin(k * phi)
        return out


@dataclass
class QuadOp:
    kind: str
    args: tuple


def _poly(rng, cls) -> TrigPoly:
    terms = tuple((k, _uniform(rng, -1, 1), _uniform(rng, -1, 1)) for k in (1, 2, 3, 4))
    return cls(_uniform(rng, -1, 1), terms)


class Quadrature:
    """A fixed cycle of quantization calls with seeded parameters.

    Per cycle: identity_residual and superposition_density on many nodes,
    quantize on a vectorized callable and on three scalar-only ones,
    fourier_coefficients, and one povm_element operation that evaluates two
    disjoint seeded Borel sets, their union and the full circle.  With the
    scalar-only calls three of eight, the median latency falls inside their
    band rather than on the edge between two kinds of call.
    """

    name = "quadrature"
    collect_garbage = False

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        from planeqm.quantization import BorelSet

        rng = np.random.default_rng(seed)
        nodes, poly_nodes, scalar_nodes = (64, 64, 16) if tiny else (16384, 4096, 1024)
        self.ops = []
        for _ in range(3):
            r = _uniform(rng, 0.2, 1.0)
            cuts = np.sort(rng.uniform(0.0, 2.0 * math.pi, 4)).tolist()
            sets = (
                BorelSet(((cuts[0], cuts[1]),)),
                BorelSet(((cuts[2], cuts[3]),)),
                BorelSet(((cuts[0], cuts[1]), (cuts[2], cuts[3]))),
                BorelSet.full_circle(),
            )
            self.ops += [
                QuadOp("identity_residual", (_uniform(rng, 0, 1), _uniform(rng, 0, math.pi), nodes)),
                QuadOp("superposition_density", (_uniform(rng, 0, r), _uniform(rng, 0, math.pi), r, nodes)),
                QuadOp("quantize", (_poly(rng, TrigPoly), _uniform(rng, 0, 1), _uniform(rng, 0, math.pi), poly_nodes)),
                *(QuadOp("quantize_scalar", (_poly(rng, ScalarTrigPoly), _uniform(rng, 0, 1),
                                             _uniform(rng, 0, math.pi), scalar_nodes)) for _ in range(3)),
                QuadOp("fourier_coefficients", (_poly(rng, TrigPoly), poly_nodes)),
                QuadOp("povm_element", (sets, _uniform(rng, 0, 1), _uniform(rng, 0, math.pi))),
            ]
        self.warmup = self.ops[:8]

    def api(self, tracer=None) -> dict[str, Callable]:
        import planeqm.quantization as q

        fns = {
            "identity_residual": q.identity_residual,
            "superposition_density": q.superposition_density,
            "quantize": q.quantize,
            "quantize_scalar": q.quantize,
            "fourier_coefficients": q.fourier_coefficients,
            "povm_element": q.povm_element,
        }
        if tracer is None:
            return fns
        from tracing import IDENTITY_NODES, SUPERPOSITION_NODES

        units = {"identity_residual": IDENTITY_NODES, "superposition_density": SUPERPOSITION_NODES}
        return {k: tracer.wrap(f"quantization.{k}", f, units.get(k)) for k, f in fns.items()}

    def prepare(self, op: QuadOp) -> None:
        pass

    def run(self, op: QuadOp, fns):
        if op.kind == "povm_element":
            sets, r, phi0 = op.args
            return [fns["povm_element"](delta, r, phi0) for delta in sets]
        return fns[op.kind](*op.args)

    def check(self, op: QuadOp, out) -> dict[str, float]:
        kind, args = op.kind, op.args
        if kind == "identity_residual":
            _expect(f"identity residual {out!r} not below 1e-12", 0.0 <= out < 1e-12)
            return {}
        if kind == "superposition_density":
            s, theta, r, _ = args
            _close("superposition matrix", out.matrix, density_closed_form(s, theta), SUPERPOSITION_TOL)
            _close("superposition min_weight", out.min_weight, 0.5 - s / r, CLOSED_FORM_TOL)
            _expect("superposition convex flag", out.convex == (r >= 2.0 * s))
            return {}
        if kind in ("quantize", "quantize_scalar"):
            poly, r, phi0, _ = args
            a2, b2 = poly.coefficient(2)
            _close(kind, out, quantized_closed_form(poly.a0, a2, b2, r, phi0), CLOSED_FORM_TOL)
            evals, poly.evals = poly.evals, 0
            return {f"{kind}.evals": evals, f"{kind}.calls": 1}
        if kind == "fourier_coefficients":
            poly = args[0]
            _close("fourier coefficients", (out.mean, out.cc, out.cs), (poly.a0, *poly.coefficient(2)),
                   CLOSED_FORM_TOL)
            return {}
        # povm_element: symmetric with trace |delta| / pi, additive over the
        # union, the identity on the full circle
        sets = args[0]
        for delta, element in zip(sets, out):
            _close("POVM symmetry", element[0, 1], element[1, 0], 0.0)
            _close("POVM trace", np.trace(element), delta.measure / math.pi, CLOSED_FORM_TOL)
        _close("POVM additivity", out[2], out[0] + out[1], CLOSED_FORM_TOL)
        _close("POVM of the full circle", out[3], np.eye(2), CLOSED_FORM_TOL)
        return {}


# ---------------------------------------------------------------------------
# requests: many short CLI requests, a seeded mix of all seven commands


@dataclass
class RequestOp:
    kind: str
    argv: list[str]
    fmt: str
    expected: int
    params: dict


#: Requests per pass for each kind (the composition is fixed; the seed
#: chooses order and parameters).  "bad-*" requests are malformed or out of
#: range and must exit with code 2 or 3.
REQUEST_MIX = {
    "correlate-hv": 14,
    "correlate-quantum": 4,
    "malus": 16,
    "quantize": 12,
    "identity-check": 16,
    "coherent": 10,
    "iso-demo": 8,
    "bell-scan": 12,
    "bad-json": 3,
    "bad-r": 3,
    "bad-samples": 2,
}


class Requests(_CliWorkload):
    """Short ``planeqm.cli.main(argv)`` requests, one client, closed loop."""

    name = "requests"
    collect_garbage = False

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        rng = np.random.default_rng(seed)
        self.output = os.path.join(workdir, "request.out")
        kinds = [k for k, n in REQUEST_MIX.items() for _ in range(1 if tiny else n)]
        self.ops = [self._make(kind, i, rng) for i, kind in enumerate(kinds)]
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.warmup = list(self.ops)

    def _make(self, kind: str, index: int, rng) -> RequestOp:
        fmt = ("csv", "json")[index % 2]
        u = functools.partial(_uniform, rng)
        out = ["--format", fmt, "--output", self.output]
        p: dict = {}
        if kind in ("correlate-hv", "correlate-quantum"):
            p = {"model": ("sign-cos", "sign-projection")[index % 4 // 2] if kind == "correlate-hv" else "quantum",
                 "phi_a": u(0, math.pi), "phi_b": u(0, math.pi), "phi_c": u(0, math.pi)}
            argv = ["correlate", "--phi-a", repr(p["phi_a"]), "--phi-b", repr(p["phi_b"]),
                    "--phi-c", repr(p["phi_c"]), "--model", p["model"]]
            return RequestOp(kind, argv + out, fmt, 0, p)
        if kind == "malus":
            p = {"r0": u(0, 1), "phi0": u(0, math.pi), "steps": int(rng.integers(8, 25)),
                 "mc_n": int(rng.integers(100, 401)), "seed": int(rng.integers(0, 1000))}
            argv = ["malus", "--r0", repr(p["r0"]), "--phi0", repr(p["phi0"]), "--steps", str(p["steps"]),
                    "--mc-n", str(p["mc_n"]), "--seed", str(p["seed"])]
            return RequestOp(kind, argv + out, fmt, 0, p)
        if kind == "quantize":
            p = {"a0": u(-1, 1), "a2": u(-1, 1), "b2": u(-1, 1), "a1": u(-1, 1), "r": u(0, 1), "phi0": u(0, math.pi)}
            series = {"a0": p["a0"], "terms": [{"k": 1, "ak": p["a1"]}, {"k": 2, "ak": p["a2"], "bk": p["b2"]}]}
            argv = ["quantize", json.dumps(series), "--r", repr(p["r"]), "--phi0", repr(p["phi0"])]
            return RequestOp(kind, argv + out, fmt, 0, p)
        if kind == "identity-check":
            p = {"r": u(0, 1), "phi0": u(0, math.pi)}
            argv = ["identity-check", "--r", repr(p["r"]), "--phi0", repr(p["phi0"])]
            return RequestOp(kind, argv + out, fmt, 0, p)
        if kind == "coherent":
            p = {"theta": u(0, math.pi), "phi": u(0, 2 * math.pi)}
            argv = ["coherent", "--theta", repr(p["theta"]), "--phi", repr(p["phi"])]
            return RequestOp(kind, argv + out, fmt, 0, p)
        if kind == "iso-demo":
            return RequestOp(kind, ["iso-demo", "--format", "json", "--output", self.output], "json", 0, p)
        if kind == "bell-scan":
            fmt = "json" if index % 5 < 3 else "csv"
            p = {"zeta_steps": int(rng.integers(4, 10)), "eta_steps": int(rng.integers(4, 10)),
                 "zeta_min": u(0, 0.3), "zeta_max": u(1.2, 1.6), "eta_min": u(0, 0.3), "eta_max": u(1.2, 1.6)}
            argv = ["bell-scan", "--zeta-steps", str(p["zeta_steps"]), "--eta-steps", str(p["eta_steps"]),
                    "--zeta-min", repr(p["zeta_min"]), "--zeta-max", repr(p["zeta_max"]),
                    "--eta-min", repr(p["eta_min"]), "--eta-max", repr(p["eta_max"]),
                    "--format", fmt, "--output", self.output]
            return RequestOp(kind, argv, fmt, 0, p)
        if kind == "bad-json":
            argv = ["quantize", '{"a0": %r, "terms": [' % u(-1, 1), "--r", repr(u(0, 1))]
            return RequestOp(kind, argv + out, fmt, 2, p)
        if kind == "bad-r":
            command = ("identity-check", "quantize")[index % 2]
            head = [command] + (['{"a0": 1.0}'] if command == "quantize" else [])
            return RequestOp(kind, head + ["--r", "1.5"] + out, fmt, 3, p)
        if kind == "bad-samples":
            argv = ["identity-check", "--r", repr(u(0, 1)), "--samples", "4"]
            return RequestOp(kind, argv + out, fmt, 3, p)
        raise ValueError(f"unknown request kind {kind!r}")

    def check(self, op: RequestOp, result: CliResult) -> dict[str, float]:
        counts = _exit_counts(result.code)
        _check_exit(result, op.expected)
        if op.kind == "correlate-hv":
            counts["hv_requests"] = 1
        if op.expected != 0:
            _expect("output written by a failed request", not os.path.exists(self.output))
            counts.update({"cli.rows": 0, "cli.output_bytes": 0})
            return counts
        with open(self.output, "r", encoding="utf-8") as fh:
            text = fh.read()
        if op.fmt == "json":
            data = json.loads(text)
            records = data if isinstance(data, list) else data.get("points", [data])
        else:
            records, trailer = parse_csv(text)
            data = records[0] if op.kind not in ("malus", "bell-scan") else {"trailer": trailer}
        CHECKS[op.kind](op.params, data, records)
        counts["cli.rows"] = len(records)
        counts["cli.output_bytes"] = len(text.encode("utf-8"))
        return counts


def _check_correlate(p: dict, d: dict, _records) -> None:
    model = p["model"]
    tol = CLOSED_FORM_TOL if model == "quantum" else 8.0 / d["n_nodes"] + CLOSED_FORM_TOL
    for key, (x, y) in (("p_ab", ("phi_a", "phi_b")), ("p_ac", ("phi_a", "phi_c")), ("p_bc", ("phi_b", "phi_c"))):
        _close(key, d[key], singlet_closed_form(model, p[x], p[y]), tol)
    _close("bell lhs/rhs", (d["lhs"], d["rhs"]), (abs(d["p_ab"] - d["p_ac"]), 1.0 + d["p_bc"]), CLOSED_FORM_TOL)
    _close("bell margin", d["margin"], d["rhs"] - d["lhs"], CLOSED_FORM_TOL)
    _expect("violated flag", d["violated"] == (d["lhs"] > d["rhs"] + VIOLATION_TOL))
    if model != "quantum":
        _expect(f"hidden-variable model {model} violates the classical bound", not d["violated"])


def _check_malus(p: dict, _d, records: list[dict]) -> None:
    _expect(f"{len(records)} malus rows, expected {p['steps']}", len(records) == p["steps"])
    n = p["mc_n"]
    for k, row in enumerate(records):
        phi = math.pi * k / (p["steps"] - 1)
        p_par = 0.5 * (1.0 + p["r0"] * math.cos(2.0 * (phi - p["phi0"])))
        _close(f"malus phi[{k}]", row["phi"], phi, CLOSED_FORM_TOL)
        _close(f"malus p_parallel[{k}]", row["p_parallel"], p_par, CLOSED_FORM_TOL)
        _close(f"malus p_perpendicular[{k}]", row["p_perpendicular"], 1.0 - p_par, CLOSED_FORM_TOL)
        bound = MC_Z * math.sqrt(p_par * (1.0 - p_par) / n) + 1.0 / n
        _close(f"malus mc_freq[{k}]", row["mc_freq"], p_par, bound)


def _check_quantize(p: dict, d: dict, _records) -> None:
    _close("mean/cc/cs", (d["mean"], d["cc"], d["cs"]), (p["a0"], p["a2"], p["b2"]), CLOSED_FORM_TOL)
    matrix = d["matrix"] if "matrix" in d else [[d["a11"], d["a12"]], [d["a21"], d["a22"]]]
    _close("quantized matrix", matrix, quantized_closed_form(p["a0"], p["a2"], p["b2"], p["r"], p["phi0"]),
           CLOSED_FORM_TOL)


def _check_identity(p: dict, d: dict, _records) -> None:
    _close("echoed r/phi0", (d["r"], d["phi0"]), (p["r"], p["phi0"]), 0.0)
    _expect(f"identity residual {d['residual']!r} not below 1e-12", 0.0 <= d["residual"] < 1e-12)
    _expect("identity-check not passed", d["passed"] is True)


def _check_coherent(p: dict, d: dict, _records) -> None:
    tensor = d["tensor"] if "tensor" in d else [d["t0"], d["t1"], d["t2"], d["t3"]]
    half, phi = 0.5 * p["theta"], p["phi"]
    want = (math.cos(half), -math.sin(half) * math.cos(phi), math.sin(half) * math.sin(phi), 0.0)
    _close("coherent tensor", tensor, want, CLOSED_FORM_TOL)


def _check_iso(_p, d: dict, _records) -> None:
    m = np.array(d["bell_matrix"])
    _close("Bell change of basis orthogonal", m @ m.T, np.eye(4), CLOSED_FORM_TOL)
    up, down = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
    _close("flip(UP) = DOWN", d["flip"]["up"], down, CLOSED_FORM_TOL)
    _close("flip(DOWN) = -UP", d["flip"]["down"], -np.array(up), CLOSED_FORM_TOL)
    _close("flip^2 = -1 on UP", d["flip_squared"]["up"], -np.array(up), CLOSED_FORM_TOL)
    _close("flip^2 = -1 on DOWN", d["flip_squared"]["down"], -np.array(down), CLOSED_FORM_TOL)
    s = 1.0 / math.sqrt(2.0)
    _close("cat(UP)", d["cat"]["up"], [[s, 0.0], [s, 0.0]], CLOSED_FORM_TOL)
    _close("cat(DOWN)", d["cat"]["down"], [[-s, 0.0], [s, 0.0]], CLOSED_FORM_TOL)


def _check_small_scan(p: dict, d: dict, records: list[dict]) -> None:
    zetas = np.linspace(p["zeta_min"], p["zeta_max"], p["zeta_steps"])
    etas = np.linspace(p["eta_min"], p["eta_max"], p["eta_steps"])
    keys = ("zeta", "eta", "lhs", "rhs", "violated", "margin")
    n_violated, _ = check_scan_points(([r[k] for k in keys] for r in records), zetas, etas, None)
    if "violated_fraction" in d:
        fraction = d["violated_fraction"]
    else:
        fraction = float(d["trailer"].split("violated_fraction=")[1].split()[0])
    _close("violated_fraction", fraction, n_violated / len(records), CLOSED_FORM_TOL)


CHECKS = {
    "correlate-hv": _check_correlate,
    "correlate-quantum": _check_correlate,
    "malus": _check_malus,
    "quantize": _check_quantize,
    "identity-check": _check_identity,
    "coherent": _check_coherent,
    "iso-demo": _check_iso,
    "bell-scan": _check_small_scan,
}

WORKLOADS = {w.name: w for w in (Scan, Quadrature, Requests)}
