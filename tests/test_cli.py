import errno
import json
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from planeqm import cli
from planeqm.bell import sin_inequality
from planeqm.cli import main

SQ2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_quantize_out_of_range_mixing_exits_3(capsys):
    code, _, err = run(capsys, "quantize", '{"a0": 1}', "--r", "1.5")
    assert code == 3
    assert "degree of mixing" in err


@pytest.mark.parametrize(
    "series,reason",
    [
        ('{"a0": 1e400}', "Fourier coefficients must be finite"),
        ('{"terms": [{"k": 1e400}]}', "cannot convert float infinity to integer"),
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
    code, out, err = run(capsys, "quantize", '{"terms": [{"k": 2.7, "ak": 1}]}', "--r", "1", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: malformed Fourier series: harmonic indices k must be integers, got 2.7\n"


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
