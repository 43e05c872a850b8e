"""planeqm benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload {scan,quadrature,requests} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N        # every workload, untraced and traced

Each run starts ``child.py`` as a fresh process with BLAS pools pinned to one
thread, and ``setup_s`` as the median import time over several further fresh
processes.  The report lists every metric with its unit and sample count,
the environment, and (last line) one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are exactly
the end-to-end (``--trace 0``) or per-layer (``--trace 1``) names of
``BENCHMARK.json``.  Work files go to ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SETUP_MODULES

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
#: A run must end within this many seconds, set-up and checks included.
RUN_BUDGET_S = 170.0
#: Fresh processes timed for ``setup_s`` besides the workload's own child.
SETUP_PROBES = 8
#: Metrics the report shows that ``BENCHMARK.json`` does not bound:
#: ``error_rate`` is 0 on a correct program, and ``op_p90_s`` needs 100 samples.
REPORT_ONLY = ("op_p90_s", "error_rate")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": numpy_version, "commit": git_commit(), "platform": platform.platform(),
    }


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup = []
    if args.trace == 0:
        module = SETUP_MODULES[args.workload]
        run_child(["--setup-only", module], deadline)  # untimed: fills bytecode caches
        setup = [run_child(["--setup-only", module], deadline)["import_s"] for _ in range(SETUP_PROBES)]
    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
    child = run_child(child_args, deadline)
    metrics = child["metrics"]
    failures = child["failures"]
    attempted = child["attempted"]
    if args.trace == 0:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}
        metrics["error_rate"] = {"value": len(failures) / attempted, "unit": "ratio", "samples": attempted}
    correct = not failures and child.get("counts_repeat", True)
    report = {
        "environment": environment(args, child["numpy"]),
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "failures": failures[:20], "metrics": metrics, "kinds": child["kinds"],
        "counts_repeat": child.get("counts_repeat"), "spans": child.get("spans"),
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# planeqm benchmark  workload={env['workload']} seed={env['seed']} "
          f"trace={env['trace']} seconds={env['seconds']}")
    print("# environment " + json.dumps(env))
    print(f"# attempted={report['attempted']} failed={report['failed']} correct={report['correct']}"
          + ("" if report["counts_repeat"] is None else f" counts_repeat={report['counts_repeat']}"))
    for failure in report["failures"]:
        print("# FAILED " + failure.replace("\n", "\n#   "))
    print(f"{'metric':<50} {'value':>16} {'unit':<15} samples")
    for name, m in report["metrics"].items():
        print(f"{name:<50} {m['value']:>16.6g} {m['unit']:<15} {m['samples']}")
    if env["trace"] == 0 and "op_p90_s" not in report["metrics"]:
        print(f"{'op_p90_s':<50} {'n/a':>16} {'s':<15} fewer than 100 operations")
    for kind, k in report["kinds"].items():
        print(f"{'op_p50_s[' + kind + ']':<50} {k['p50_s']:>16.6g} {'s':<15} {k['samples']}")


def result_line(report: dict) -> str:
    metrics = {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in report["metrics"].items() if name not in REPORT_ONLY
    }
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SETUP_MODULES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.workload != "all":
        report = run_workload(args)
        print_report(report)
        print(result_line(report))
        return 0
    combined = {}
    for workload in SETUP_MODULES:
        for trace in (0, 1):
            report = run_workload(argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace}))
            print_report(report)
            combined[f"{workload}/trace{trace}"] = json.loads(result_line(report))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
