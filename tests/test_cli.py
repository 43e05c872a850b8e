import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from planeqm import cli
from planeqm.bell import (
    BUILTIN_MODELS,
    DEFAULT_NODES,
    baby_bell_check,
    quantum_correlation,
    sin_inequality,
    singlet_correlation,
    violation_scan,
)
from planeqm.cli import main
from planeqm.isomorphisms import coherent_to_tensor
from planeqm.measurement import PARALLEL, outcome_probability
from planeqm.quantization import fourier_coefficients, fourier_series_from_json, identity_residual, quantize
from planeqm.states import DensityParams

SQ2 = math.sqrt(2.0)
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class RecordingStream:
    """A write-only stdout stand-in that keeps each write as one chunk."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


# ---------------------------------------------------------------------------
# quantize


def test_quantize_constant_is_identity(capsys):
    code, out, _ = run(capsys, "quantize", '{"a0": 1}', "--r", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert_allclose(payload["matrix"], np.eye(2), atol=1e-15)
    assert payload["mean"] == 1.0


def test_quantize_doubled_cosine(capsys):
    series = '{"a0": 0, "terms": [{"k": 2, "ak": 1}]}'
    code, out, _ = run(capsys, "quantize", series, "--r", "1", "--phi0", "0")
    assert code == 0
    payload = json.loads(out)
    assert_allclose(payload["matrix"], [[0.5, 0.0], [0.0, -0.5]], atol=1e-15)
    assert (payload["cc"], payload["cs"]) == (1.0, 0.0)


def test_quantize_reads_series_from_file(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text('{"a0": 0, "terms": [{"k": 2, "bk": 1}]}')
    code, out, _ = run(capsys, "quantize", str(path), "--r", "1", "--phi0", "0")
    assert code == 0
    assert_allclose(json.loads(out)["matrix"], [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)


def test_quantize_csv_format(capsys):
    code, out, _ = run(capsys, "quantize", '{"a0": 1}', "--r", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mean,cc,cs,a11,a12,a21,a22"
    assert len(lines) == 2


def test_quantize_malformed_json_exits_2(capsys):
    code, out, err = run(capsys, "quantize", '{"a0": ', "--r", "0.5")
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_quantize_terms_not_a_list_exits_2(capsys):
    code, out, err = run(capsys, "quantize", '{"a0": 1, "terms": 5}', "--r", "0.5")
    assert (code, out) == (2, "")
    assert err == 'error: malformed Fourier series: "terms" must be a list of {k, ak, bk} objects\n'


def test_quantize_unreadable_series_file_exits_2(capsys, tmp_path):
    # the path exists, so it is read as a file; a directory cannot be
    code, out, err = run(capsys, "quantize", str(tmp_path), "--r", "0.5")
    assert (code, out) == (2, "")
    reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
    assert err == f"error: cannot read Fourier series file: {reason}\n"


def test_quantize_out_of_range_mixing_exits_3(capsys):
    code, _, err = run(capsys, "quantize", '{"a0": 1}', "--r", "1.5")
    assert code == 3
    assert "degree of mixing" in err


@pytest.mark.parametrize(
    "series,reason",
    [
        ('{"a0": 1e400}', "Fourier coefficients must be finite"),
        ('{"terms": [{"k": 1e400}]}', "harmonic indices k must be integers, got inf"),
    ],
)
def test_quantize_rejects_non_finite_series(capsys, series, reason):
    code, out, err = run(capsys, "quantize", series, "--r", "0.5", "--format", "json")
    assert code == 2
    assert out == ""
    assert err == f"error: malformed Fourier series: {reason}\n"


def test_quantize_overflowing_result_is_never_emitted_as_json(capsys):
    series = '{"a0": 1.7e308, "terms": [{"k": 2, "ak": 1.7e308}]}'
    code, out, err = run(capsys, "quantize", series, "--r", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_quantize_overflowing_result_exits_3_in_csv(capsys):
    series = '{"a0": 1.7e308, "terms": [{"k": 2, "ak": 1.7e308}]}'
    code, out, err = run(capsys, "quantize", series, "--r", "1", "--format", "csv")
    assert (code, out) == (3, "")
    assert err == "error: quantized matrix is not finite\n"


def test_quantize_non_integer_harmonic_exits_2(capsys):
    refused = (
        ("2.7", "2.7"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan"),
        ('"abc"', "'abc'"), ("null", "None"), ("[1]", "[1]"), ("{}", "{}"), ('"2.0"', "'2.0'"),
    )
    for k, shown in refused:
        series = f'{{"terms": [{{"k": {k}, "ak": 1}}]}}'
        code, out, err = run(capsys, "quantize", series, "--r", "1", "--format", "csv")
        assert (code, out) == (2, "")
        assert err == f"error: malformed Fourier series: harmonic indices k must be integers, got {shown}\n"


@pytest.mark.parametrize(
    "series,reason",
    [
        ('{"a0": "1"}', "coefficient 'a0' must be a number, got '1'"),
        ('{"a0": true}', "coefficient 'a0' must be a number, got True"),
        ('{"ao": 1}', "unknown key 'ao'; expected a0, terms"),
    ],
)
def test_quantize_refuses_non_numbers_and_unknown_keys(capsys, series, reason):
    code, out, err = run(capsys, "quantize", series, "--r", "0.5", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"error: malformed Fourier series: {reason}\n"


# JSON values of every type: huge and non-finite numbers, text, lists and objects, nested
_json_numbers = st.integers(1, 4) | st.integers(-(10**400), 10**400) | st.floats()
_json_values = st.recursive(
    st.none() | st.booleans() | _json_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _json_object(required, optional):
    """Objects with the ``required`` and any of the ``optional`` keys, half of them with an unknown key too."""
    known = st.fixed_dictionaries(required, optional=optional)
    unknown = st.dictionaries(st.text(max_size=3), _json_values, min_size=1, max_size=1)
    return known | st.builds(lambda a, b: {**a, **b}, known, unknown)


_coefficient = _json_numbers | _json_values
_term = _json_object({"k": _coefficient}, {"ak": _coefficient, "bk": _coefficient}) | _json_values
_series = _json_object({}, {"a0": _coefficient, "terms": st.lists(_term, max_size=3) | _json_values})


@settings(max_examples=150, deadline=None)
@given(_series)
def test_quantize_any_json_object_gives_a_result_or_one_error_line(series):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["quantize", json.dumps(series), "--r", "0.5"])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert "Traceback" not in err
    if code == 3:  # finite coefficients whose quantized matrix overflows: the documented domain error
        assert (out, err) == ("", "error: quantized matrix is not finite\n")
    else:
        assert code in (0, 2)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["quantize", '{"a0": 1}', "--r", "0.5", "--samples", "1024"],
        ["quantize", '{"a0": 1}', "--r", "0.5", "--tolerance", "1e-12"],
        ["bell-scan", "--zeta-steps", "2", "--eta-steps", "2", "--seed", "1"],
        ["coherent", "--theta", "1", "--phi", "0", "--tolerance", "1"],
        ["correlate", "--phi-a", "0", "--phi-b", "1", "--samples", "8"],
        ["identity-check", "--r", "0.5", "--seed", "0"],
        ["malus", "--r0", "1", "--steps", "3", "--samples", "1024"],
        ["iso-demo", "--seed", "0"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_of_another_command_exits_2(capsys, argv):
    # --samples and --tolerance belong to identity-check alone, --seed to malus alone
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    # the chosen command's usage, which lists its own flags, not the list of commands
    assert err.startswith(f"usage: planeqm {argv[0]} ")
    assert err.endswith(f"planeqm {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    assert "Traceback" not in err


def test_quantize_degrees_flag(capsys):
    series = '{"a0": 0, "terms": [{"k": 2, "ak": 1}]}'
    code, out, _ = run(capsys, "quantize", series, "--r", "1", "--phi0", "45", "--degrees")
    assert code == 0
    # at phi0 = pi/4 the image rotates onto the off-diagonal axis
    assert_allclose(json.loads(out)["matrix"], [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# identity-check


def test_identity_check_passes(capsys):
    code, out, _ = run(capsys, "identity-check", "--r", "0.7", "--phi0", "1.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["residual"] < 1e-12


def test_identity_check_degenerate(capsys):
    code, out, _ = run(capsys, "identity-check", "--r", "0", "--phi0", "0")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-14


def test_identity_check_artificial_bar_fails(capsys):
    code, out, _ = run(capsys, "identity-check", "--r", "0.7", "--phi0", "1.3", "--tolerance", "1e-20")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_identity_check_rejects_bad_samples(capsys):
    code, _, err = run(capsys, "identity-check", "--r", "0.5", "--samples", "4")
    assert code == 3
    assert "--samples" in err


# ---------------------------------------------------------------------------
# number boundary


@pytest.mark.parametrize(
    "argv,name",
    [
        (["malus", "--r0", "1", "--steps", "3", "--phi0", "nan"], "--phi0"),
        (["correlate", "--phi-a", "inf", "--phi-b", "0"], "--phi-a"),
        (["identity-check", "--r", "0.5", "--tolerance", "nan"], "--tolerance"),
        (["bell-scan", "--zeta-steps", "2", "--eta-steps", "2", "--eta-max=-inf"], "--eta-max"),
        (["coherent", "--theta", "1e400", "--phi", "0"], "--theta"),
    ],
)
def test_non_finite_arguments_exit_3(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {name} must be finite\n"


def test_negative_seed_exits_3(capsys):
    code, out, err = run(capsys, "malus", "--r0", "1", "--steps", "3", "--mc-n", "10", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err == "error: --seed must be non-negative, got -1\n"


#: 10**18 eight-byte nodes are 6.94 EiB, beyond any 64-bit address space,
#: so the allocation is refused without touching memory
_UNALLOCATABLE = str(10**18)


@pytest.mark.parametrize(
    "argv",
    [
        ["bell-scan", "--zeta-steps", _UNALLOCATABLE, "--eta-steps", "2"],
        ["correlate", "--model", "sign-cos", "--phi-a", "0", "--phi-b", "1", "--n-nodes", _UNALLOCATABLE],
        ["identity-check", "--r", "0.5", "--samples", _UNALLOCATABLE],
        ["malus", "--r0", "0.5", "--steps", _UNALLOCATABLE, "--mc-n", "1"],
    ],
    ids=["bell-scan", "correlate", "identity-check", "malus-mc"],
)
def test_unallocatable_size_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_malus_huge_draw_count_is_one_binomial_draw(capsys, fmt):
    # 10**18 draws per row allocate nothing: each row's count is one Binomial(n, p) draw
    n = 10**18
    code, out, err = run(capsys, "malus", "--r0", "0.5", "--steps", "3", "--mc-n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    rows = json.loads(out) if fmt == "json" else [
        dict(zip(("phi", "p_parallel", "p_perpendicular", "mc_freq"), map(float, line.split(","))))
        for line in out.strip().split("\n")[1:]
    ]
    assert len(rows) == 3
    for row in rows:
        p = row["p_parallel"]
        assert abs(row["mc_freq"] - p) <= 6 * math.sqrt(p * (1 - p) / n) + 1 / n


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_malus_refuses_draw_count_above_int64(capsys, fmt):
    too_many = str(2**63)
    code, out, err = run(capsys, "malus", "--r0", "0.5", "--steps", "3", "--mc-n", too_many, "--format", fmt)
    assert (code, out) == (3, "")
    assert err == f"error: --mc-n must be positive and at most {2**63 - 1}, got {too_many}\n"


# ---------------------------------------------------------------------------
# malus


def test_malus_headers_and_rows(capsys):
    code, out, _ = run(capsys, "malus", "--r0", "1", "--phi0", "0", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi,p_parallel,p_perpendicular"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert float(rows[0][1]) == 1.0  # aligned polarizer at phi = 0
    assert float(rows[1][0]) == pytest.approx(math.pi / 4)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-15)  # Malus at 45 degrees
    for row in rows:
        assert float(row[1]) + float(row[2]) == pytest.approx(1.0, abs=1e-15)


def test_malus_monte_carlo_column(capsys):
    code, out, _ = run(
        capsys, "malus", "--r0", "0.8", "--steps", "9", "--mc-n", "100000", "--seed", "7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi,p_parallel,p_perpendicular,mc_freq"
    for line in lines[1:]:
        _, p_par, _, freq = (float(x) for x in line.split(","))
        sigma = math.sqrt(max(p_par * (1 - p_par), 1e-12) / 100000)
        assert abs(freq - p_par) <= 4 * sigma + 1e-12


def test_malus_json_format(capsys):
    code, out, _ = run(capsys, "malus", "--r0", "0", "--steps", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["p_parallel"] for row in rows] == [0.5, 0.5, 0.5]


def test_malus_invalid_steps_exits_3(capsys):
    code, _, err = run(capsys, "malus", "--r0", "1", "--steps", "1")
    assert code == 3
    assert "--steps" in err


def test_malus_invalid_mixing_exits_3(capsys):
    code, _, _ = run(capsys, "malus", "--r0", "1.5", "--steps", "4")
    assert code == 3


def reference_malus(r0, steps, mc_n, seed, fmt):
    """malus output built whole: every row first, then one json.dumps or one CSV join.

    The rows of block b (``cli._SCAN_BLOCK_POINTS`` rows each) draw their
    counts from child b of ``SeedSequence(seed)``, one binomial draw per row.
    """
    light = DensityParams(r0, 0.0)
    header = ["phi", "p_parallel", "p_perpendicular"] + (["mc_freq"] if mc_n else [])
    phis = np.linspace(0.0, math.pi, steps).tolist()
    p_par = [outcome_probability(light, phi, PARALLEL) for phi in phis]
    rows = [[phi, p, 1.0 - p] for phi, p in zip(phis, p_par)]
    if mc_n:
        size = cli._SCAN_BLOCK_POINTS
        streams = np.random.SeedSequence(seed).spawn(-(-steps // size))
        for b, stream in enumerate(streams):
            counts = np.random.default_rng(stream).binomial(mc_n, p_par[b * size : (b + 1) * size])
            for row, count in zip(rows[b * size :], counts.tolist()):
                row.append(count / mc_n)
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    return "\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows)]) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mc_n", [None, 50])
@pytest.mark.parametrize("steps", [2, 19, 2 * cli._SCAN_BLOCK_POINTS + 3])
def test_malus_bytes_match_whole_output_reference(capsys, steps, mc_n, fmt):
    argv = ["malus", "--r0", "0.6", "--steps", str(steps), "--format", fmt, "--seed", "11"]
    if mc_n:
        argv += ["--mc-n", str(mc_n)]
    assert run(capsys, *argv) == (0, reference_malus(0.6, steps, mc_n, 11, fmt), "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_malus_writes_bounded_blocks(capsys, monkeypatch, tmp_path, fmt):
    steps = 4 * cli._SCAN_BLOCK_POINTS + 1
    argv = ["malus", "--r0", "0.3", "--steps", str(steps), "--mc-n", "10", "--format", fmt]
    stream = RecordingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    code = main(argv)
    monkeypatch.undo()
    assert code == 0
    # rows per chunk: CSV lines (the header rides with the first block), JSON objects
    rows = [chunk.count("\n") - (i == 0) if fmt == "csv" else chunk.count("{") for i, chunk in enumerate(stream.chunks)]
    assert sum(rows) == steps
    assert max(rows) == cli._SCAN_BLOCK_POINTS
    target = tmp_path / "malus.out"
    assert main([*argv, "--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == "".join(stream.chunks)


def test_malus_failing_draw_opens_no_output(capsys, monkeypatch, tmp_path):
    def unallocatable(*_):
        raise MemoryError("Unable to allocate the draws")

    monkeypatch.setattr(cli, "sample_outcomes", unallocatable)
    target = tmp_path / "malus.out"
    argv = ["malus", "--r0", "0.5", "--steps", "3", "--mc-n", "10", "--output", str(target)]
    assert run(capsys, *argv) == (3, "", "error: Unable to allocate the draws\n")
    assert not target.exists()


# ---------------------------------------------------------------------------
# bell-scan


def test_bell_scan_diagonal_interval(capsys):
    code, out, _ = run(capsys, "bell-scan", "--zeta-steps", "181", "--eta-steps", "181")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "zeta,eta,lhs,rhs,violated,margin"
    summary = lines[-1]
    assert summary.startswith("# violated_fraction=")
    interval = summary.split("diagonal_violation_interval=")[1]
    lo, hi = (float(x) for x in interval.strip("[]").split(","))
    step = (math.pi / 2) / 180
    assert lo == pytest.approx(step, abs=1e-12)
    assert hi == pytest.approx(math.pi / 4 - step, abs=1e-12)
    assert len(lines) == 181 * 181 + 2  # header + rows + summary


def test_bell_scan_singleton_zeta_grid_has_no_violations(capsys):
    code, out, _ = run(capsys, "bell-scan", "--zeta-steps", "1", "--eta-steps", "50")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.split(",")[4] == "false" for line in lines[1:-1])
    assert "violated_fraction=0.0 " in lines[-1]
    assert "diagonal_violation_interval=none" in lines[-1]


def test_bell_scan_restricted_region_is_empty(capsys):
    code, out, _ = run(
        capsys,
        "bell-scan",
        "--zeta-steps", "30", "--eta-steps", "30",
        "--zeta-min", str(math.pi / 3), "--eta-min", str(math.pi / 3),
    )
    assert code == 0
    assert "violated_fraction=0.0 " in out.strip().split("\n")[-1]


def test_bell_scan_degrees_keeps_right_angle_defaults(capsys):
    code, out, _ = run(capsys, "bell-scan", "--degrees", "--zeta-steps", "2", "--eta-steps", "2")
    assert code == 0
    last_row = out.strip().split("\n")[-2].split(",")
    assert (float(last_row[0]), float(last_row[1])) == (math.pi / 2, math.pi / 2)
    code, out, _ = run(
        capsys, "bell-scan", "--degrees", "--zeta-steps", "2", "--eta-steps", "2", "--zeta-max", "45"
    )
    assert code == 0
    last_row = out.strip().split("\n")[-2].split(",")
    assert (float(last_row[0]), float(last_row[1])) == (math.pi / 4, math.pi / 2)


def test_bell_scan_json_format(capsys):
    code, out, _ = run(
        capsys, "bell-scan", "--zeta-steps", "5", "--eta-steps", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 25
    assert set(payload["points"][0]) == {"zeta", "eta", "lhs", "rhs", "violated", "margin"}


def reference_scan(zetas, etas, fmt):
    """bell-scan output rebuilt one point and one cell at a time."""
    points = [(z, e, sin_inequality(z, e)) for z in zetas for e in etas]
    rows = [[z, e, r.lhs, r.rhs, r.violated, r.margin] for z, e, r in points]
    fraction = sum(r.violated for _, _, r in points) / len(points)
    diagonal = [e for z, e, r in points if z == e and r.violated]
    interval = [min(diagonal), max(diagonal)] if diagonal else None
    header = ["zeta", "eta", "lhs", "rhs", "violated", "margin"]
    if fmt == "json":
        payload = {
            "points": [dict(zip(header, row)) for row in rows],
            "violated_fraction": fraction,
            "diagonal_violation_interval": interval,
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    interval_text = f"[{cli._fmt(interval[0])},{cli._fmt(interval[1])}]" if interval else "none"
    lines = [",".join(header), *(",".join(cli._fmt(v) for v in row) for row in rows)]
    lines.append(f"# violated_fraction={cli._fmt(fraction)} diagonal_violation_interval={interval_text}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv,zetas,etas",
    [
        (
            ["--degrees", "--zeta-steps", "4", "--eta-steps", "3", "--zeta-max", "60"],
            np.linspace(0.0, math.radians(60), 4),
            np.linspace(0.0, math.pi / 2, 3),
        ),
        (["--zeta-steps", "13", "--eta-steps", "7"], np.linspace(0.0, math.pi / 2, 13), np.linspace(0.0, math.pi / 2, 7)),
    ],
)
def test_bell_scan_bytes_match_per_point_reference(capsys, argv, zetas, etas, fmt):
    code, out, err = run(capsys, "bell-scan", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == reference_scan(zetas.tolist(), etas.tolist(), fmt)


#: zeta rows per output block at 700 eta steps; 2 blocks and one row more
#: make a non-square grid whose zeta count is not a multiple of the block
_BLOCK_ROWS = cli._SCAN_BLOCK_POINTS // 700
_UNIT_BOUNDS = ["--zeta-min=-1", "--zeta-max=1", "--eta-min=-1", "--eta-max=1"]
_SCAN_GRIDS = {
    "1x1": (["--zeta-steps", "1", "--eta-steps", "1"], np.linspace(0.0, math.pi / 2, 1), np.linspace(0.0, math.pi / 2, 1)),
    "1x50": (["--zeta-steps", "1", "--eta-steps", "50"], np.linspace(0.0, math.pi / 2, 1), np.linspace(0.0, math.pi / 2, 50)),
    "50x1": (["--zeta-steps", "50", "--eta-steps", "1"], np.linspace(0.0, math.pi / 2, 50), np.linspace(0.0, math.pi / 2, 1)),
    "partial-block": (
        ["--zeta-steps", str(2 * _BLOCK_ROWS + 1), "--eta-steps", "700", "--zeta-max", "1.2"],
        np.linspace(0.0, 1.2, 2 * _BLOCK_ROWS + 1),
        np.linspace(0.0, math.pi / 2, 700),
    ),
    # rows wider than a block are split; the violated diagonal points at eta = -0.5 and 0.5
    # fall in different tiles, and the grid's step 2**-11 makes both of them grid points
    "split-row": (
        ["--zeta-steps", "5", "--eta-steps", str(2 * cli._SCAN_BLOCK_POINTS + 1), *_UNIT_BOUNDS],
        np.linspace(-1.0, 1.0, 5),
        np.linspace(-1.0, 1.0, 2 * cli._SCAN_BLOCK_POINTS + 1),
    ),
    "degrees": (
        ["--degrees", "--zeta-steps", "9", "--eta-steps", "6", "--zeta-min", "10", "--eta-max", "80"],
        np.linspace(math.radians(10), math.pi / 2, 9),
        np.linspace(0.0, math.radians(80), 6),
    ),
}


@pytest.fixture(scope="module", params=list(_SCAN_GRIDS), ids=list(_SCAN_GRIDS))
def scan_reference(request):
    argv, zetas, etas = _SCAN_GRIDS[request.param]
    return argv, {fmt: reference_scan(zetas.tolist(), etas.tolist(), fmt) for fmt in ("csv", "json")}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_bell_scan_matches_reference_on_stdout(capsys, scan_reference, fmt):
    argv, reference = scan_reference
    assert run(capsys, "bell-scan", *argv, "--format", fmt) == (0, reference[fmt], "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_bell_scan_matches_reference_in_output_file(capsys, tmp_path, scan_reference, fmt):
    argv, reference = scan_reference
    target = tmp_path / f"scan.{fmt}"
    assert run(capsys, "bell-scan", *argv, "--format", fmt, "--output", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == reference[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bell_scan_writes_bounded_blocks(capsys, monkeypatch, tmp_path, fmt):
    argv = ["bell-scan", "--zeta-steps", "301", "--eta-steps", "301", "--format", fmt]
    stream = RecordingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    code = main(argv)
    monkeypatch.undo()
    assert code == 0
    text = "".join(stream.chunks)
    assert max(map(len, stream.chunks)) <= len(text) / 8
    target = tmp_path / "scan.out"
    assert main([*argv, "--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == text
    if fmt == "json":
        assert len(json.loads(text)["points"]) == 301 * 301
    else:
        assert text.count("\n") == 301 * 301 + 2


@pytest.mark.parametrize(
    "zeta_steps,eta_steps", [(301, 401), (3, cli._SCAN_BLOCK_POINTS + 5), (2, 2 * cli._SCAN_BLOCK_POINTS + 5)]
)
def test_bell_scan_evaluates_bounded_blocks(capsys, monkeypatch, zeta_steps, eta_steps):
    calls = []

    def recording_scan(zeta_grid, eta_grid):
        calls.append((np.array(zeta_grid), np.array(eta_grid)))
        return violation_scan(zeta_grid, eta_grid)

    def points(zetas, etas):
        return np.stack(np.meshgrid(zetas, etas, indexing="ij"), axis=-1).reshape(-1, 2)

    monkeypatch.setattr(cli, "violation_scan", recording_scan)
    code, _, err = run(capsys, "bell-scan", "--zeta-steps", str(zeta_steps), "--eta-steps", str(eta_steps))
    assert (code, err) == (0, "")
    assert max(z.size * e.size for z, e in calls) <= cli._SCAN_BLOCK_POINTS
    # the calls' points are the grid, in zeta-major order
    grid = points(np.linspace(0.0, math.pi / 2, zeta_steps), np.linspace(0.0, math.pi / 2, eta_steps))
    assert np.array_equal(np.concatenate([points(z, e) for z, e in calls]), grid)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bell_scan_summary_spans_blocks(capsys, fmt):
    # the violated diagonal runs through many blocks, on both sides of zero
    code, out, err = run(capsys, "bell-scan", "--zeta-steps", "201", "--eta-steps", "201", *_UNIT_BOUNDS, "--format", fmt)
    assert (code, err) == (0, "")
    grid = violation_scan(np.linspace(-1.0, 1.0, 201), np.linspace(-1.0, 1.0, 201))
    diagonal = grid.etas[np.diag(grid.violated)]
    interval = [float(diagonal.min()), float(diagonal.max())]
    fraction = int(np.count_nonzero(grid.violated)) / grid.violated.size
    assert 201 // (cli._SCAN_BLOCK_POINTS // 201) > 2
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["violated_fraction"], payload["diagonal_violation_interval"]) == (fraction, interval)
    else:
        expected = f"# violated_fraction={fraction!r} diagonal_violation_interval=[{interval[0]!r},{interval[1]!r}]"
        assert out.strip().split("\n")[-1] == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bell_scan_overflow_in_last_rows_writes_nothing(capsys, tmp_path, fmt):
    # zeta + eta overflows only for zeta above 1.797e308 - 1e307: the last rows, in the second block
    argv = ["bell-scan", "--zeta-steps", "2000", "--eta-steps", "2", "--zeta-max", "1.7e308", "--eta-max", "1e307"]
    assert 2000 * 2 > cli._SCAN_BLOCK_POINTS
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("error: zeta, eta and zeta + eta must be finite, got ")
    target = tmp_path / "scan.out"
    assert run(capsys, *argv, "--format", fmt, "--output", str(target))[0] == 3
    assert not target.exists()


# ---------------------------------------------------------------------------
# correlate


def test_correlate_quantum_triple_violates(capsys):
    code, out, _ = run(
        capsys,
        "correlate",
        "--phi-a", "0", "--phi-b", str(math.pi / 3), "--phi-c", str(2 * math.pi / 3),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_ab"] == pytest.approx(-0.5, abs=1e-12)
    assert payload["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert payload["rhs"] == pytest.approx(0.5, abs=1e-12)
    assert payload["violated"] is True


def test_correlate_classical_model_respects_bound(capsys):
    code, out, _ = run(
        capsys,
        "correlate",
        "--model", "sign-cos",
        "--phi-a", "0", "--phi-b", "1.1", "--phi-c", "2.9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violated"] is False
    assert payload["n_nodes"] == 4096


def test_correlate_pair_only(capsys):
    code, out, _ = run(capsys, "correlate", "--phi-a", "0.4", "--phi-b", "0.4")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_ab"] == pytest.approx(-1.0, abs=1e-12)
    assert "lhs" not in payload


@pytest.mark.parametrize("model", ["quantum", "sign-cos"])
@pytest.mark.parametrize("n_nodes", ["0", "-5"])
def test_correlate_refuses_non_positive_nodes_for_every_model(capsys, model, n_nodes):
    argv = ["correlate", "--model", model, "--phi-a", "0", "--phi-b", "1", "--n-nodes", n_nodes]
    assert run(capsys, *argv) == (3, "", f"error: --n-nodes must be positive, got {n_nodes}\n")


# ---------------------------------------------------------------------------
# coherent


def test_coherent_north_pole(capsys):
    code, out, _ = run(capsys, "coherent", "--theta", "0", "--phi", "0")
    assert code == 0
    assert_allclose(json.loads(out)["tensor"], [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_coherent_entangled_example(capsys):
    code, out, _ = run(capsys, "coherent", "--theta", str(math.pi / 2), "--phi", str(math.pi / 2))
    assert code == 0
    tensor = json.loads(out)["tensor"]
    assert_allclose(tensor, [SQ2 / 2, 0.0, SQ2 / 2, 0.0], atol=1e-12)
    assert tensor[3] == 0.0


def test_coherent_out_of_range_exits_3(capsys):
    code, _, err = run(capsys, "coherent", "--theta", "4", "--phi", "0")
    assert code == 3
    assert "colatitude" in err


def test_coherent_degrees(capsys):
    code, out, _ = run(capsys, "coherent", "--theta", "90", "--phi", "90", "--degrees")
    assert code == 0
    assert_allclose(json.loads(out)["tensor"], [SQ2 / 2, 0.0, SQ2 / 2, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["correlate", "--phi-a", "{}", "--phi-b", "0", "--phi-c", "{}"],
        ["identity-check", "--r", "0.7", "--phi0", "{}"],
        ["malus", "--r0", "0.8", "--phi0", "{}", "--steps", "7", "--mc-n", "100", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_degrees_flag_gives_the_radian_bytes(capsys, argv, fmt):
    # every given angle turns into radians once, before the command reads it
    in_degrees = run(capsys, *[a.replace("{}", "45") for a in argv], "--degrees", "--format", fmt)
    in_radians = run(capsys, *[a.replace("{}", "0.7853981633974483") for a in argv], "--format", fmt)
    assert in_degrees[0] == 0
    assert in_degrees == in_radians
    if argv[0] == "identity-check" and fmt == "json":
        assert json.loads(in_degrees[1])["phi0"] == math.pi / 4


# ---------------------------------------------------------------------------
# whole-output references of the one-record commands


def cell(value):
    """A CSV cell as the reference writes it: flags false/true, floats by repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def reference_record(fmt, payload, row=None):
    """One record built whole: json.dumps of ``payload``, or the header and one row of ``row`` (default ``payload``)."""
    if fmt == "csv":
        row = payload if row is None else row
        return ",".join(row) + "\n" + ",".join(map(cell, row.values())) + "\n"
    return json.dumps(payload, indent=2) + "\n"


def quantize_record(text, r):
    series = fourier_series_from_json(text)
    data = fourier_coefficients(series)
    matrix = quantize(series, r, 0.0)
    payload = {"matrix": matrix.tolist(), "mean": data.mean, "cc": data.cc, "cs": data.cs}
    values = [data.mean, data.cc, data.cs, *matrix.ravel().tolist()]
    return payload, dict(zip(["mean", "cc", "cs", "a11", "a12", "a21", "a22"], values))


def identity_record(r, phi0, tolerance):
    residual = identity_residual(r, phi0, 1024)
    payload = {"r": r, "phi0": phi0, "samples": 1024, "residual": residual, "tolerance": tolerance}
    return {**payload, "passed": residual < tolerance}, None


def correlate_record(model, phi_a, phi_b, phi_c=None):
    if model == "quantum":
        correlation, payload = quantum_correlation, {"model": model, "phi_a": phi_a, "phi_b": phi_b}
    else:
        built = BUILTIN_MODELS[model]()
        payload = {"model": model, "phi_a": phi_a, "phi_b": phi_b, "n_nodes": DEFAULT_NODES}
        def correlation(x, y):
            return singlet_correlation(built, x, y, DEFAULT_NODES)
    payload["p_ab"] = correlation(phi_a, phi_b)
    if phi_c is not None:
        payload.update(phi_c=phi_c, p_ac=correlation(phi_a, phi_c), p_bc=correlation(phi_b, phi_c))
        report = baby_bell_check(payload["p_ab"], payload["p_ac"], payload["p_bc"])
        payload.update(lhs=report.lhs, rhs=report.rhs, violated=report.violated, margin=report.margin)
    return payload, None


def coherent_record(theta, phi):
    tensor = coherent_to_tensor(theta, phi).tolist()
    row = dict(zip(["theta", "phi", "t0", "t1", "t2", "t3"], [theta, phi, *tensor]))
    return {"theta": theta, "phi": phi, "tensor": tensor}, row


_SERIES = '{"a0": 1, "terms": [{"k": 2, "ak": 0.5, "bk": -0.25}, {"k": 3, "bk": 0.125}]}'
_RECORDS = {
    "quantize": (["quantize", _SERIES, "--r", "0.6"], 0, lambda: quantize_record(_SERIES, 0.6)),
    "identity-passed": (["identity-check", "--r", "0.7", "--phi0", "1.3"], 0, lambda: identity_record(0.7, 1.3, 1e-12)),
    "identity-failed": (
        ["identity-check", "--r", "0.7", "--phi0", "1.3", "--tolerance", "1e-20"],
        1,
        lambda: identity_record(0.7, 1.3, 1e-20),
    ),
    "correlate-quantum": (
        ["correlate", "--phi-a", "0.25", "--phi-b", "1.25", "--phi-c", "2.5"],
        0,
        lambda: correlate_record("quantum", 0.25, 1.25, 2.5),
    ),
    "correlate-sign-cos": (
        ["correlate", "--model", "sign-cos", "--phi-a", "0", "--phi-b", "1.1"],
        0,
        lambda: correlate_record("sign-cos", 0.0, 1.1),
    ),
    "coherent": (["coherent", "--theta", "1.2", "--phi", "0.5"], 0, lambda: coherent_record(1.2, 0.5)),
}


@pytest.mark.parametrize("fmt", [None, "csv", "json"], ids=["default", "csv", "json"])
@pytest.mark.parametrize("request_name", list(_RECORDS))
def test_record_bytes_match_whole_output_reference(capsys, request_name, fmt):
    argv, code, record = _RECORDS[request_name]
    expected = reference_record(fmt or "json", *record())
    assert run(capsys, *argv, *(["--format", fmt] if fmt else [])) == (code, expected, "")


def refuse(*_):
    raise ValueError("refused")


@pytest.mark.parametrize(
    "patched,argv",
    [
        ("quantize", ["quantize", '{"a0": 1}', "--r", "0.5"]),
        ("identity_residual", ["identity-check", "--r", "0.5"]),
        ("outcome_probability", ["malus", "--r0", "0.5", "--steps", "3"]),
        ("violation_scan", ["bell-scan", "--zeta-steps", "3", "--eta-steps", "3"]),
        ("quantum_correlation", ["correlate", "--phi-a", "0", "--phi-b", "1"]),
        ("coherent_to_tensor", ["coherent", "--theta", "1", "--phi", "0"]),
        ("bell_basis_matrix", ["iso-demo"]),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_first_block_opens_no_output(capsys, monkeypatch, tmp_path, patched, argv, fmt):
    monkeypatch.setattr(cli, patched, refuse)
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--format", fmt, "--output", str(target))
    assert (code, out) == (3, "")
    refused = "iso-demo emits JSON only" if argv[0] == "iso-demo" and fmt == "csv" else "refused"
    assert err == f"error: {refused}\n"
    assert not target.exists()


# ---------------------------------------------------------------------------
# iso-demo and plumbing


def test_iso_demo_payload(capsys):
    code, out, _ = run(capsys, "iso-demo")
    assert code == 0
    payload = json.loads(out)
    b = np.array(payload["bell_matrix"])
    assert_allclose(b.T @ b, np.eye(4), atol=1e-15)
    assert_allclose(payload["flip"]["up"], [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)
    assert_allclose(payload["flip"]["down"], [[-1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert_allclose(payload["cat"]["up"], [[SQ2 / 2, 0.0], [SQ2 / 2, 0.0]], atol=1e-12)
    assert_allclose(payload["flip_squared"]["up"], [[-1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_iso_demo_rejects_csv(capsys):
    code, _, err = run(capsys, "iso-demo", "--format", "csv")
    assert code == 3
    assert "JSON only" in err


def test_unknown_command_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_exits_2(capsys):
    assert run(capsys, "identity-check")[0] == 2


def test_output_file_and_determinism(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    args = [
        "bell-scan", "--zeta-steps", "11", "--eta-steps", "11", "--output", str(target)
    ]
    assert main(args) == 0
    first = target.read_bytes()
    assert main(args) == 0
    assert target.read_bytes() == first
    assert first.decode().startswith("zeta,eta,lhs,rhs,violated,margin\n")


def test_repeated_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "malus", "--r0", "0.7", "--steps", "7", "--mc-n", "1000")
    _, second, _ = run(capsys, "malus", "--r0", "0.7", "--steps", "7", "--mc-n", "1000")
    assert first == second


# ---------------------------------------------------------------------------
# I/O failures


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "coherent", "--theta", "0.1", "--phi", "0.2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


def test_failing_stdout_exits_2(capsys, monkeypatch):
    class FullStream:
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStream())
    code = main(["iso-demo"])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["identity-check", "--r", "0.5"],
        ["identity-check", "--r", "0.5", "--format", "csv"],
        ["bell-scan", "--zeta-steps", "2", "--eta-steps", "2"],
        ["iso-demo"],
    ],
    ids=["record-json", "record-csv", "table", "json"],
)
def test_empty_output_path_exits_2(capsys, monkeypatch, tmp_path, argv):
    # an empty path names no file; it does not mean stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--output", "")
    assert (code, out, err) == (2, "", "error: cannot write : No such file or directory\n")
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# one parse per request

#: A request each command accepts, required flags last
_MINIMAL_REQUESTS = {
    "quantize": ['{"a0": 1}', "--r", "0.5"],
    "identity-check": ["--r", "0.5"],
    "malus": ["--r0", "1", "--steps", "3"],
    "bell-scan": ["--zeta-steps", "2", "--eta-steps", "2"],
    "correlate": ["--phi-a", "0", "--phi-b", "1"],
    "coherent": ["--theta", "1", "--phi", "0"],
    "iso-demo": [],
}


def _benchmark_request_argvs(seeds):
    """The argvs of the benchmark's ``requests`` workload for ``seeds``."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
        return [op.argv for seed in seeds for op in workloads.Requests(seed, "out").ops]
    finally:
        del sys.modules[spec.name]


def _parse_corpus():
    corpus = _benchmark_request_argvs(range(4))
    for command, argv in _MINIMAL_REQUESTS.items():
        corpus += [
            [command, "-h"],
            [command, *argv, "--frobnicate", "1"],
            [command, *argv[:-2]],  # a required flag missing (iso-demo has none)
            [command, *argv, *(["--r0", "1"] if command == "bell-scan" else ["--zeta-steps", "3"])],
            [command, *argv, "--zeta-s", "3"],
            [command, *argv, "--format=json"],
        ]
    return corpus + [[], ["-h"], ["frobnicate"], ["--format", "json", "coherent", "--theta", "1", "--phi", "0"]]


def _parse_outcome(parse, argv):
    """(parsed flags but the command name, exit code, stdout, stderr) of ``parse(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    flags, code = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            flags = {k: v for k, v in vars(parse(argv)).items() if k != "command"}
        except SystemExit as exc:
            code = exc.code
    return flags, code, stdout.getvalue(), stderr.getvalue()


def _parse_through_top_level(argv):
    """The whole argv through the top-level parser, and unknown flags refused by the command's parser."""
    parser, commands = cli._build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def test_command_parser_parses_as_the_top_level_parser():
    corpus = _parse_corpus()
    assert len(corpus) == 4 * 100 + 6 * len(_MINIMAL_REQUESTS) + 4
    exits = set()
    for argv in corpus:
        once = _parse_outcome(cli._parse_request, argv)
        assert once == _parse_outcome(_parse_through_top_level, argv), argv
        exits.add(once[1])
    assert exits == {None, 0, 2}


# ---------------------------------------------------------------------------
# repeated in-process calls


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_interleaved_requests_match_isolated_runs(capsys):
    requests = [
        ["coherent", "--theta", "45", "--phi", "30", "--degrees"],
        ["coherent", "--theta", "1.2", "--phi", "0.5"],
        ["identity-check", "--r", "0.7", "--phi0", "1.3", "--format", "csv"],
        ["quantize", '{"a0": ', "--r", "0.5"],
        ["identity-check", "--r", "0.7", "--phi0", "1.3"],
        ["correlate", "--model", "sign-cos", "--phi-a", "0", "--phi-b", "60", "--phi-c", "120", "--degrees"],
        ["quantize", '{"a0": 1}', "--r", "1.5"],
        ["correlate", "--model", "sign-cos", "--phi-a", "0", "--phi-b", "1.1", "--format", "csv"],
        ["bell-scan", "--zeta-steps", "4", "--eta-steps", "3", "--degrees", "--zeta-max", "60"],
        ["bell-scan", "--zeta-steps", "4", "--eta-steps", "3"],
        ["malus", "--r0", "0.8", "--steps", "4", "--mc-n", "50", "--seed", "3", "--format", "json"],
        ["malus", "--r0", "0.8", "--steps", "4", "--mc-n", "50"],
    ]
    interleaved = [run(capsys, *argv) for argv in requests]
    assert [code for code, _, _ in interleaved] == [0, 0, 0, 2, 0, 0, 3, 0, 0, 0, 0, 0]
    for argv, result in zip(requests, interleaved):
        cli._build_parser.cache_clear()
        assert run(capsys, *argv) == result, argv
