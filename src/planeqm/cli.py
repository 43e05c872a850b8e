"""Command-line front end: reproducible scans and machine-readable demos.

Exit codes: 0 success, 1 check failed, 2 input-parse error, 3 domain
error.  Results go to stdout (or ``--output``); stderr carries diagnostics
only.  All angles are radians unless ``--degrees`` is given; outputs are
always radians.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .bell import BUILTIN_MODELS, quantum_correlation, baby_bell_check, singlet_correlation, violation_scan
from .isomorphisms import bell_basis_matrix, cat, coherent_to_tensor, flip, DOWN, UP
from .measurement import PARALLEL, outcome_probability, sample_outcomes
from .quantization import MIN_SAMPLES, fourier_coefficients, fourier_series_from_json, identity_residual, quantize
from .states import DensityParams


class _InputError(Exception):
    """Malformed user input or unusable files (bad JSON, unreadable input,
    unwritable output): exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(text: str, output: Optional[str]) -> None:
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise _InputError(f"cannot write {output or 'stdout'}: {exc.strerror or exc}") from exc


def _emit_json(obj, output: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2, allow_nan=False) + "\n", output)


def _emit_csv(header: list[str], rows: list[list], output: Optional[str], trailer: str = "") -> None:
    _emit_csv_lines(header, [",".join(map(_fmt, row)) for row in rows], output, trailer)


def _emit_csv_lines(header: list[str], lines, output: Optional[str], trailer: str = "") -> None:
    """Write already formatted CSV data lines between the header and the trailer."""
    parts = [",".join(header), *lines]
    if trailer:
        parts.append(trailer)
    parts.append("")  # the final newline, without copying the joined text
    _emit("\n".join(parts), output)


def _angle(value: float, args) -> float:
    return math.radians(value) if args.degrees else value


def _validate_common(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite")
    if args.samples < MIN_SAMPLES:
        raise ValueError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.tolerance <= 0.0:
        raise ValueError(f"--tolerance must be positive, got {args.tolerance}")


def _complex_vec(z: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in z]


# ---------------------------------------------------------------------------
# commands


def _cmd_quantize(args) -> int:
    text = args.fourier
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _InputError(f"cannot read Fourier series file: {exc}") from exc
    try:
        series = fourier_series_from_json(text)
    except (json.JSONDecodeError, ValueError, TypeError, OverflowError) as exc:
        raise _InputError(f"malformed Fourier series: {exc}") from exc

    data = fourier_coefficients(series)
    matrix = quantize(series, args.r, _angle(args.phi0, args), args.samples)
    if args.format == "csv":
        header = ["mean", "cc", "cs", "a11", "a12", "a21", "a22"]
        row = [data.mean, data.cc, data.cs, *[float(v) for v in matrix.ravel()]]
        _emit_csv(header, [row], args.output)
    else:
        _emit_json(
            {"matrix": matrix.tolist(), "mean": data.mean, "cc": data.cc, "cs": data.cs},
            args.output,
        )
    return 0


def _cmd_identity_check(args) -> int:
    residual = identity_residual(args.r, _angle(args.phi0, args), args.samples)
    passed = residual < args.tolerance
    payload = {
        "r": args.r,
        "phi0": _angle(args.phi0, args),
        "samples": args.samples,
        "residual": residual,
        "tolerance": args.tolerance,
        "passed": passed,
    }
    if args.format == "csv":
        _emit_csv(list(payload), [list(payload.values())], args.output)
    else:
        _emit_json(payload, args.output)
    return 0 if passed else 1


def _cmd_malus(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if args.mc_n is not None and args.mc_n < 1:
        raise ValueError(f"--mc-n must be positive, got {args.mc_n}")
    light = DensityParams(args.r0, _angle(args.phi0, args))
    header = ["phi", "p_parallel", "p_perpendicular"]
    if args.mc_n is not None:
        header.append("mc_freq")
    rows = []
    for i, phi in enumerate(np.linspace(0.0, math.pi, args.steps)):
        p_par = outcome_probability(light, float(phi), PARALLEL)
        row = [float(phi), p_par, 1.0 - p_par]
        if args.mc_n is not None:
            count, _ = sample_outcomes(p_par, args.mc_n, args.seed ^ i)
            row.append(count / args.mc_n)
        rows.append(row)
    if args.format == "json":
        _emit_json([dict(zip(header, row)) for row in rows], args.output)
    else:
        _emit_csv(header, rows, args.output)
    return 0


def _cmd_bell_scan(args) -> int:
    if args.zeta_steps < 1 or args.eta_steps < 1:
        raise ValueError("--zeta-steps and --eta-steps must be at least 1")
    zeta_lo, eta_lo = _angle(args.zeta_min, args), _angle(args.eta_min, args)
    # the upper defaults are pi/2 radians, whatever unit --degrees selects
    zeta_hi = math.pi / 2.0 if args.zeta_max is None else _angle(args.zeta_max, args)
    eta_hi = math.pi / 2.0 if args.eta_max is None else _angle(args.eta_max, args)
    zetas = np.linspace(zeta_lo, zeta_hi, args.zeta_steps)
    etas = np.linspace(eta_lo, eta_hi, args.eta_steps)
    grid = violation_scan(zetas, etas)

    fraction = int(np.count_nonzero(grid.violated)) / len(grid)
    diag_violated = grid.etas[np.nonzero(grid.violated & (grid.zetas[:, None] == grid.etas))[1]]
    if diag_violated.size:
        interval = (float(diag_violated.min()), float(diag_violated.max()))
        interval_text = f"[{_fmt(interval[0])},{_fmt(interval[1])}]"
    else:
        interval = None
        interval_text = "none"
    trailer = f"# violated_fraction={_fmt(fraction)} diagonal_violation_interval={interval_text}"

    # Columns, not cells: zeta, eta and rhs are formatted once per axis value
    # and repeated; only lhs, violated and margin vary per point.
    header = ["zeta", "eta", "lhs", "rhs", "violated", "margin"]
    as_csv = args.format != "json"

    def column(values: list):
        return map(repr, values) if as_csv else values

    zs, es, rs = (list(column(axis.tolist())) for axis in (grid.zetas, grid.etas, grid.rhs))
    flags = np.where(grid.violated, "true", "false") if as_csv else grid.violated
    columns = (
        [z for z in zs for _ in es],
        es * len(zs),
        column(grid.lhs.ravel().tolist()),
        rs * len(zs),
        flags.ravel().tolist(),
        column(grid.margin.ravel().tolist()),
    )
    if as_csv:
        _emit_csv_lines(header, map(",".join, zip(*columns)), args.output, trailer)
    else:
        _emit_json(
            {
                "points": [dict(zip(header, values)) for values in zip(*columns)],
                "violated_fraction": fraction,
                "diagonal_violation_interval": list(interval) if interval else None,
            },
            args.output,
        )
    return 0


def _cmd_correlate(args) -> int:
    phi_a, phi_b = _angle(args.phi_a, args), _angle(args.phi_b, args)
    phi_c = _angle(args.phi_c, args) if args.phi_c is not None else None

    if args.model == "quantum":
        def correlation(x, y):
            return quantum_correlation(x, y)
    else:
        model = BUILTIN_MODELS[args.model]()
        def correlation(x, y):
            return singlet_correlation(model, x, y, args.n_nodes)

    payload: dict = {"model": args.model, "phi_a": phi_a, "phi_b": phi_b}
    if args.model != "quantum":
        payload["n_nodes"] = args.n_nodes
    payload["p_ab"] = correlation(phi_a, phi_b)
    if phi_c is not None:
        payload["phi_c"] = phi_c
        payload["p_ac"] = correlation(phi_a, phi_c)
        payload["p_bc"] = correlation(phi_b, phi_c)
        report = baby_bell_check(payload["p_ab"], payload["p_ac"], payload["p_bc"])
        payload.update(
            {"lhs": report.lhs, "rhs": report.rhs, "violated": report.violated, "margin": report.margin}
        )
    if args.format == "csv":
        _emit_csv(list(payload), [list(payload.values())], args.output)
    else:
        _emit_json(payload, args.output)
    return 0


def _cmd_coherent(args) -> int:
    theta, phi = _angle(args.theta, args), _angle(args.phi, args)
    tensor = coherent_to_tensor(theta, phi)
    if args.format == "csv":
        _emit_csv(
            ["theta", "phi", "t0", "t1", "t2", "t3"],
            [[theta, phi, *[float(v) for v in tensor]]],
            args.output,
        )
    else:
        _emit_json({"theta": theta, "phi": phi, "tensor": tensor.tolist()}, args.output)
    return 0


def _cmd_iso_demo(args) -> int:
    if args.format == "csv":
        raise ValueError("iso-demo emits JSON only")
    _emit_json(
        {
            "bell_matrix": bell_basis_matrix().tolist(),
            "flip": {"up": _complex_vec(flip(UP)), "down": _complex_vec(flip(DOWN))},
            "cat": {"up": _complex_vec(cat(UP)), "down": _complex_vec(cat(DOWN))},
            "flip_squared": {"up": _complex_vec(flip(flip(UP))), "down": _complex_vec(flip(flip(DOWN)))},
        },
        args.output,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full argument tree, built on the first :func:`main` call and reused.

    Parsing never mutates the parser, so repeated ``main`` calls in one
    process share it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", type=int, default=1024, help="quadrature nodes (default 1024)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--tolerance", type=float, default=1e-12, help="check tolerance (default 1e-12)")
    common.add_argument("--output", default=None, help="write to this file instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    common.add_argument("--degrees", action="store_true", help="interpret angle inputs as degrees")

    parser = argparse.ArgumentParser(
        prog="planeqm",
        description="Quantum mechanics on the real Euclidean plane: scans and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", parents=[common], help="quantize a Fourier series on the circle")
    p.add_argument("fourier", help='inline JSON {"a0": ..., "terms": [...]} or a path to it')
    p.add_argument("--r", type=float, required=True, help="degree of mixing of the kernel family")
    p.add_argument("--phi0", type=float, default=0.0, help="kernel orientation offset")
    p.set_defaults(handler=_cmd_quantize)

    p = sub.add_parser("identity-check", parents=[common], help="residual of the resolution of the identity")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--phi0", type=float, default=0.0)
    p.set_defaults(handler=_cmd_identity_check)

    p = sub.add_parser("malus", parents=[common], help="transmission probabilities over a polarizer-angle grid")
    p.add_argument("--r0", type=float, required=True, help="light polarization degree")
    p.add_argument("--phi0", type=float, default=0.0, help="light orientation")
    p.add_argument("--steps", type=int, required=True, help="grid points over [0, pi]")
    p.add_argument("--mc-n", type=int, default=None, help="add a Monte-Carlo frequency column with n draws per row")
    p.set_defaults(handler=_cmd_malus)

    p = sub.add_parser("bell-scan", parents=[common], help="scan the correlation bound over (zeta, eta)")
    p.add_argument("--zeta-steps", type=int, required=True)
    p.add_argument("--eta-steps", type=int, required=True)
    p.add_argument("--zeta-min", type=float, default=0.0)
    p.add_argument("--zeta-max", type=float, default=None)
    p.add_argument("--eta-min", type=float, default=0.0)
    p.add_argument("--eta-max", type=float, default=None)
    p.set_defaults(handler=_cmd_bell_scan)

    p = sub.add_parser("correlate", parents=[common], help="quantum or hidden-variable pair correlations")
    p.add_argument("--phi-a", type=float, required=True)
    p.add_argument("--phi-b", type=float, required=True)
    p.add_argument("--phi-c", type=float, default=None, help="third angle: also check the Bell bound")
    p.add_argument("--model", choices=("quantum", *BUILTIN_MODELS), default="quantum")
    p.add_argument("--n-nodes", type=int, default=4096, help="hidden-variable quadrature nodes")
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("coherent", parents=[common], help="coherent state as an entangled plane pair")
    p.add_argument("--theta", type=float, required=True, help="colatitude in [0, pi]")
    p.add_argument("--phi", type=float, required=True, help="azimuth")
    p.set_defaults(handler=_cmd_coherent)

    p = sub.add_parser("iso-demo", parents=[common], help="Bell change of basis and flip/cat action table")
    p.set_defaults(handler=_cmd_iso_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _validate_common(args)
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
