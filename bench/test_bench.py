"""Smoke self-test of the benchmark on tiny sizes.

    python3 -m pytest -q bench

Runs every workload untraced and traced through ``run.py --tiny``, checks the
result line against ``BENCHMARK.json``, and checks that each workload's
checker rejects a deliberately corrupted output.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import CheckError, CliResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = {"count", "bytes"}


def run_bench(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_emit_every_per_layer_metric_and_repeat_counts(workload):
    first, second = run_bench(workload, 1), run_bench(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        if unit in COUNT_UNITS or "/" in unit:
            assert first["metrics"][name] == second["metrics"][name], name


def test_scan_checker_rejects_flipped_violated_flag(tmp_path):
    import planeqm.cli as cli

    scan = workloads.Scan(7, str(tmp_path), tiny=True)
    op = scan.ops[0]
    assert cli.main(op.argv) == 0
    assert scan.check(op, CliResult(0, ""))["cli.rows"] == len(op.zetas) * len(op.etas)
    lines = Path(scan.output).read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[4] = "false" if cells[4] == "true" else "true"
    lines[5] = ",".join(cells)
    Path(scan.output).write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CheckError, match="violated"):
        scan.check(op, CliResult(0, ""))


def test_quadrature_checker_rejects_perturbed_matrix_entry(tmp_path):
    quad = workloads.Quadrature(7, str(tmp_path), tiny=True)
    fns = quad.api()
    op = next(o for o in quad.ops if o.kind == "superposition_density")
    out = quad.run(op, fns)
    quad.check(op, out)
    bad = out.matrix.copy()
    bad[0, 1] += 1e-8
    with pytest.raises(CheckError, match="superposition matrix"):
        quad.check(op, dataclasses.replace(out, matrix=bad))
    op = next(o for o in quad.ops if o.kind == "quantize")
    out = quad.run(op, fns)
    with pytest.raises(CheckError, match="quantize"):
        quad.check(op, out + np.array([[0.0, 0.0], [0.0, 1e-9]]))


def test_requests_checker_rejects_wrong_exit_code(tmp_path):
    import planeqm.cli as cli

    requests = workloads.Requests(7, str(tmp_path), tiny=True)
    good = next(o for o in requests.ops if o.expected == 0)
    bad = next(o for o in requests.ops if o.expected == 3)
    requests.prepare(good)
    result = requests.run(good, cli.main)
    requests.check(good, result)
    with pytest.raises(CheckError, match="exit code"):
        requests.check(good, CliResult(3, "error: out of range"))
    with pytest.raises(CheckError, match="exit code"):
        requests.check(bad, CliResult(2, "error: malformed"))
