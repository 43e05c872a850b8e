"""Command-line front end: reproducible scans and machine-readable demos.

Exit codes: 0 success, 1 check failed, 2 input-parse error, 3 domain
error (a size too large to allocate included).  Results go to stdout (or
``--output``); stderr carries diagnostics only.  All angles are radians
unless ``--degrees`` is given; outputs are always radians.  Identical
invocations produce byte-identical output.

Each request is parsed once, by its command's parser.  Only ``planeqm``,
``planeqm -h`` and an unknown command go to the top-level parser, which
prints its help or its error.

Every row is formatted by one writer, :func:`_emit_table`: ``malus`` and
``bell-scan`` stream theirs as a CSV table (their default) or as JSON,
block by block; the other commands write one JSON record (their default)
or a one-row CSV table.  No output is opened before its first block is
made, so a command that fails there writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .bell import (
    BUILTIN_MODELS,
    DEFAULT_NODES,
    baby_bell_check,
    check_angle_sums,
    quantum_correlation,
    singlet_correlation,
    violation_scan,
)
from .isomorphisms import bell_basis_matrix, cat, coherent_to_tensor, flip, DOWN, UP
from .measurement import _MAX_DRAWS, PARALLEL, outcome_probability, sample_outcomes
from .quantization import (
    DEFAULT_SAMPLES, MIN_SAMPLES, fourier_coefficients, fourier_series_from_json, identity_residual, quantize
)
from .states import DensityParams, check_range


class _InputError(Exception):
    """Malformed user input or unusable files (bad JSON, unreadable input,
    unwritable output): exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(chunks, output: Optional[str]) -> None:
    """Write an iterable of strings in order to ``output`` or stdout.

    The first string is made before the output is opened, so a command
    whose first block fails writes nothing.
    """
    chunks = iter(chunks)
    chunks = itertools.chain((next(chunks),), chunks)
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        else:
            for chunk in chunks:
                sys.stdout.write(chunk)
            # a stand-in stream that only writes has nothing to flush
            flush = getattr(sys.stdout, "flush", None)
            if flush is not None:
                flush()
    except OSError as exc:
        raise _InputError(f"cannot write {output or 'stdout'}: {exc.strerror or exc}") from exc


def _emit_json(obj, output: Optional[str]) -> None:
    _emit((json.dumps(obj, indent=2, allow_nan=False) + "\n",), output)


def _emit_table(args, fields, blocks, json_head="[\n", indent="  ", tail=lambda as_json: "]\n" if as_json else ""):
    """Write ``blocks`` as one CSV table, or with ``--format json`` as JSON objects, one chunk per block.

    Each block is one list per field, all of one length, of formatted
    values: floats by repr, as json.dumps writes them, and flags as
    false/true.  The JSON objects follow ``json_head`` at ``indent``, with
    the bytes of json.dumps(..., indent=2).  ``tail(as_json)`` is called
    after the last block and gives the text after the last row.
    """
    as_json = args.format == "json"
    if as_json:
        row = ",\n".join(f'{indent}  "{name}": %s' for name in fields)
        head, row, sep = json_head, f"{indent}{{\n{row}\n{indent}}}", ",\n"
    else:
        head, row, sep = ",".join(fields) + "\n", ",".join(["%s"] * len(fields)), "\n"
    # the text before each value of a row; a row's first value also closes the row before it
    *pieces, close = row.split("%s")
    pieces[0] = close + sep + pieces[0]

    def chunks():
        for i, columns in enumerate(blocks):
            rows, width = len(columns[0]), 2 * len(pieces)
            # piece, value, piece, value, ... row after row, filled one column at a time
            cells = [""] * (width * rows)
            for j, (piece, column) in enumerate(zip(pieces, columns)):
                cells[2 * j :: width], cells[2 * j + 1 :: width] = [piece] * rows, column
            if not i:  # the first row follows the head, not another row
                cells[0] = head + cells[0][len(close + sep) :]
            yield "".join(cells)
        yield close + "\n" + tail(as_json)

    _emit(chunks(), args.output)


def _emit_record(args, payload: dict, row: dict) -> None:
    """``payload`` as JSON, or with ``--format csv`` ``row`` as a one-row table."""
    if args.format == "csv":
        _emit_table(args, list(row), [[[_fmt(value)] for value in row.values()]])
    else:
        _emit_json(payload, args.output)


#: The argparse type of an angle flag, turned into radians by _validate_common (a
#: default does not pass through it); named so that argparse says "invalid float value".
_Angle = type("float", (float,), {})


def _validate_common(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite")
        if isinstance(value, _Angle):
            setattr(args, name, math.radians(value) if args.degrees else float(value))


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
    matrix = quantize(series, args.r, args.phi0)
    cells = [data.mean, data.cc, data.cs, *map(float, matrix.ravel())]
    _emit_record(
        args,
        {"matrix": matrix.tolist(), "mean": data.mean, "cc": data.cc, "cs": data.cs},
        dict(zip(("mean", "cc", "cs", "a11", "a12", "a21", "a22"), cells)),
    )
    return 0


def _cmd_identity_check(args) -> int:
    check_range(args.samples, f"--samples must be at least {MIN_SAMPLES}", MIN_SAMPLES)
    check_range(args.tolerance, "--tolerance must be positive", math.ulp(0.0))
    residual = identity_residual(args.r, args.phi0, args.samples)
    passed = residual < args.tolerance
    payload = {
        "r": args.r,
        "phi0": args.phi0,
        "samples": args.samples,
        "residual": residual,
        "tolerance": args.tolerance,
        "passed": passed,
    }
    _emit_record(args, payload, payload)
    return 0 if passed else 1


#: Grid points per output block of bell-scan, and rows per block of malus: the
#: arrays and formatted text held at once are bounded by one block.  A bell-scan
#: block is whole zeta rows when a row fits, and otherwise a piece of one row.
#: A malus block draws its --mc-n counts from one seed stream, so the mc_freq
#: bytes depend on this size.
_SCAN_BLOCK_POINTS = 2048


def _cmd_malus(args) -> int:
    check_range(args.seed, "--seed must be non-negative", 0)
    check_range(args.steps, "--steps must be at least 2", 2)
    if args.mc_n is not None:
        check_range(args.mc_n, f"--mc-n must be positive and at most {_MAX_DRAWS}", 1, _MAX_DRAWS)
    light = DensityParams(args.r0, args.phi0)
    phis = np.linspace(0.0, math.pi, args.steps)
    fields = ["phi", "p_parallel", "p_perpendicular"]
    if args.mc_n is not None:
        fields.append("mc_freq")

    def blocks():
        for block, start in enumerate(range(0, args.steps, _SCAN_BLOCK_POINTS)):
            phi = phis[start : start + _SCAN_BLOCK_POINTS]
            p_par = outcome_probability(light, phi, PARALLEL)
            columns = [phi, p_par, 1.0 - p_par]
            if args.mc_n is not None:
                # the block's own child stream, SeedSequence(seed).spawn(n_blocks)[block]
                seed = np.random.SeedSequence(args.seed, spawn_key=(block,))
                columns.append(sample_outcomes(p_par, args.mc_n, seed)[0] / args.mc_n)
            yield [list(map(repr, column.tolist())) for column in columns]

    _emit_table(args, fields, blocks())
    return 0


def _cmd_bell_scan(args) -> int:
    check_range(args.zeta_steps, "--zeta-steps must be at least 1", 1)
    check_range(args.eta_steps, "--eta-steps must be at least 1", 1)
    # a range wider than the largest float gives NaN nodes, which the check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        zetas = np.linspace(args.zeta_min, args.zeta_max, args.zeta_steps)
        etas = np.linspace(args.eta_min, args.eta_max, args.eta_steps)
    # the whole grid, before any output: the blocks are evaluated while writing
    check_angle_sums(zetas, etas)
    width = min(etas.size, _SCAN_BLOCK_POINTS)
    rows = _SCAN_BLOCK_POINTS // width
    violated, interval = 0, None

    def blocks():
        # zeta-major tiles; the violated count and the violated diagonal etas' min and max are
        # carried to the tail
        nonlocal violated, interval
        for start, left in itertools.product(range(0, zetas.size, rows), range(0, etas.size, width)):
            grid = violation_scan(zetas[start : start + rows], etas[left : left + width])
            if not start or width < etas.size:  # eta and rhs text, once per scan when rows fit
                eta_text, rhs = list(map(repr, grid.etas.tolist())), list(map(repr, grid.rhs.tolist()))
            violated += int(np.count_nonzero(grid.violated))
            diagonal = grid.etas[np.nonzero(grid.violated & (grid.zetas[:, None] == grid.etas))[1]]
            if diagonal.size:
                lo, hi = float(diagonal.min()), float(diagonal.max())
                interval = [lo, hi] if interval is None else [min(interval[0], lo), max(interval[1], hi)]
            zeta_text = list(map(repr, grid.zetas.tolist()))
            yield (
                [zeta for zeta in zeta_text for _ in eta_text],
                eta_text * len(zeta_text),
                list(map(repr, grid.lhs.ravel().tolist())),
                rhs * len(zeta_text),
                list(map(("false", "true").__getitem__, grid.violated.ravel().tolist())),
                list(map(repr, grid.margin.ravel().tolist())),
            )

    def tail(as_json: bool) -> str:
        fraction = violated / (zetas.size * etas.size)
        if as_json:  # the rest of json.dumps(payload, indent=2) of the whole payload
            summary = {"violated_fraction": fraction, "diagonal_violation_interval": interval}
            return "  ]," + json.dumps(summary, indent=2, allow_nan=False)[1:] + "\n"
        interval_text = f"[{_fmt(interval[0])},{_fmt(interval[1])}]" if interval else "none"
        return f"# violated_fraction={_fmt(fraction)} diagonal_violation_interval={interval_text}\n"

    fields = ("zeta", "eta", "lhs", "rhs", "violated", "margin")
    _emit_table(args, fields, blocks(), json_head='{\n  "points": [\n', indent="    ", tail=tail)
    return 0


def _cmd_correlate(args) -> int:
    check_range(args.n_nodes, "--n-nodes must be positive", 1)
    pairs = [(args.phi_a, args.phi_b)]
    if args.phi_c is not None:
        pairs += [(args.phi_a, args.phi_c), (args.phi_b, args.phi_c)]
    if args.model == "quantum":
        values = [quantum_correlation(x, y) for x, y in pairs]
    else:
        # one call for every pair: the model's outcomes are evaluated once per angle
        phi_x, phi_y = zip(*pairs)
        values = singlet_correlation(BUILTIN_MODELS[args.model](), phi_x, phi_y, args.n_nodes).tolist()

    payload: dict = {"model": args.model, "phi_a": args.phi_a, "phi_b": args.phi_b}
    if args.model != "quantum":
        payload["n_nodes"] = args.n_nodes
    payload["p_ab"] = values[0]
    if args.phi_c is not None:
        payload["phi_c"] = args.phi_c
        payload["p_ac"], payload["p_bc"] = values[1:]
        report = baby_bell_check(*values)
        payload.update(
            {"lhs": report.lhs, "rhs": report.rhs, "violated": report.violated, "margin": report.margin}
        )
    _emit_record(args, payload, payload)
    return 0


def _cmd_coherent(args) -> int:
    tensor = coherent_to_tensor(args.theta, args.phi)
    _emit_record(
        args,
        {"theta": args.theta, "phi": args.phi, "tensor": tensor.tolist()},
        dict(zip(("theta", "phi", "t0", "t1", "t2", "t3"), [args.theta, args.phi, *map(float, tensor)])),
    )
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser by name, built on the first
    :func:`main` call and reused.

    Parsing never mutates a parser, so repeated ``main`` calls in one
    process share them.
    """
    common = argparse.ArgumentParser(add_help=False)
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
    p.add_argument("--phi0", type=_Angle, default=0.0, help="kernel orientation offset")
    p.set_defaults(handler=_cmd_quantize)

    p = sub.add_parser("identity-check", parents=[common], help="residual of the resolution of the identity")
    # --tolerance before --r and --phi0: the first non-finite float flag is the one reported
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="quadrature nodes (default %(default)s)")
    p.add_argument("--tolerance", type=float, default=1e-12, help="check tolerance (default 1e-12)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--phi0", type=_Angle, default=0.0)
    p.set_defaults(handler=_cmd_identity_check)

    p = sub.add_parser("malus", parents=[common], help="transmission probabilities over a polarizer-angle grid")
    p.add_argument("--r0", type=float, required=True, help="light polarization degree")
    p.add_argument("--phi0", type=_Angle, default=0.0, help="light orientation")
    p.add_argument("--steps", type=int, required=True, help="grid points over [0, pi]")
    p.add_argument("--mc-n", type=int, default=None, help="add a Monte-Carlo frequency column with n draws per row")
    p.add_argument("--seed", type=int, default=0, help="random seed of the --mc-n draws (default 0)")
    p.set_defaults(handler=_cmd_malus)

    p = sub.add_parser("bell-scan", parents=[common], help="scan the correlation bound over (zeta, eta)")
    p.add_argument("--zeta-steps", type=int, required=True)
    p.add_argument("--eta-steps", type=int, required=True)
    p.add_argument("--zeta-min", type=_Angle, default=0.0)
    p.add_argument("--zeta-max", type=_Angle, default=math.pi / 2, help="default pi/2 radians, even with --degrees")
    p.add_argument("--eta-min", type=_Angle, default=0.0)
    p.add_argument("--eta-max", type=_Angle, default=math.pi / 2, help="default pi/2 radians, even with --degrees")
    p.set_defaults(handler=_cmd_bell_scan)

    p = sub.add_parser("correlate", parents=[common], help="quantum or hidden-variable pair correlations")
    p.add_argument("--phi-a", type=_Angle, required=True)
    p.add_argument("--phi-b", type=_Angle, required=True)
    p.add_argument("--phi-c", type=_Angle, help="third angle: also check the Bell bound")
    p.add_argument("--model", choices=("quantum", *BUILTIN_MODELS), default="quantum")
    p.add_argument("--n-nodes", type=int, default=DEFAULT_NODES, help="hidden-variable quadrature nodes")
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("coherent", parents=[common], help="coherent state as an entangled plane pair")
    p.add_argument("--theta", type=_Angle, required=True, help="colatitude in [0, pi]")
    p.add_argument("--phi", type=_Angle, required=True, help="azimuth")
    p.set_defaults(handler=_cmd_coherent)

    p = sub.add_parser("iso-demo", parents=[common], help="Bell change of basis and flip/cat action table")
    p.set_defaults(handler=_cmd_iso_demo)

    return parser, sub.choices


def _parse_request(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed once: by its command's parser, or by the top-level parser if it starts with no command."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    return parser.parse_args(argv) if command is None else command.parse_args(argv[1:])


def main(argv=None) -> int:
    try:
        args = _parse_request(sys.argv[1:] if argv is None else list(argv))
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
    except MemoryError as exc:
        # a size too large to allocate, e.g. numpy's "Unable to allocate ..."
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
