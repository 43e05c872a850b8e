"""The installed ``planeqm`` console script, run as a separate process.

The other CLI tests call ``planeqm.cli.main`` in-process; these run the
entry point that ``pip install`` puts on PATH, or ``python -m planeqm.cli``
where there is none, so the script's wiring, exit codes and stream
contract are checked end to end.  Each row of ``RUNS`` is one request with
its expected exit code and a check on each of stdout and stderr (None
checks nothing).  Outputs are checked by shape, not by their digits, which
may differ in the last place across numpy versions.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import planeqm


def valid_json(text: str) -> bool:
    json.loads(text)
    return True


def starts_with(prefix: str):
    return lambda text: text.startswith(prefix)


def equals(expected: str):
    return lambda text: text == expected


def one_error_line(text: str) -> bool:
    return text.startswith("error: ") and text.count("\n") == 1


CORRELATE_HEADER = "model,phi_a,phi_b,n_nodes,p_ab,phi_c,p_ac,p_bc,lhs,rhs,violated,margin\n"
HARMONIC_REFUSAL = "error: malformed Fourier series: harmonic indices k must be integers, got {}\n"

#: (argv, exit code, stdout check, stderr check)
RUNS = [
    (["identity-check", "--r", "0.7", "--phi0", "1.3"], 0, None, None),
    (["iso-demo"], 0, None, None),
    (["bell-scan", "--zeta-steps", "3", "--eta-steps", "3", "--degrees", "--zeta-max", "90"], 0, None, None),
    # multi-block JSON, without and with one binomial draw per row
    (["malus", "--r0", "0.5", "--steps", "5000", "--format", "json"], 0, valid_json, None),
    (["malus", "--r0", "0.5", "--steps", "5000", "--mc-n", "1000", "--seed", "3", "--format", "json"], 0, valid_json, None),
    # a draw count above 2**63 - 1: one error line, no traceback
    (["malus", "--r0", "0.5", "--steps", "3", "--mc-n", "9223372036854775808"], 3, None, one_error_line),
    # a non-finite and a non-numeric harmonic index: one line naming the index
    (["quantize", '{"terms": [{"k": Infinity, "ak": 1}]}', "--r", "0.5"], 2, None, equals(HARMONIC_REFUSAL.format("inf"))),
    (["quantize", '{"terms": [{"k": "abc", "ak": 1}]}', "--r", "0.5"], 2, None, equals(HARMONIC_REFUSAL.format("'abc'"))),
    # a bell-scan row wider than one block is split across blocks
    (["bell-scan", "--zeta-steps", "2", "--eta-steps", "5000", "--format", "json"], 0, valid_json, None),
    # both built-in hidden-variable models, registered by the installed package
    (["correlate", "--phi-a", "0", "--phi-b", "1", "--phi-c", "2", "--model", "sign-cos", "--format", "json"], 0, valid_json, None),
    (["correlate", "--model", "sign-projection", "--phi-a", "0", "--phi-b", "1", "--phi-c", "2", "--format", "csv"], 0, starts_with(CORRELATE_HEADER), None),
    # a flag of another command, and an unknown command: exit 2 with the right usage
    (["coherent", "--theta", "1", "--phi", "0", "--seed", "1"], 2, None, starts_with("usage: planeqm coherent ")),
    (["frobnicate"], 2, None, starts_with("usage: planeqm [-h]")),
    (["--help"], 0, None, None),
    # an empty --output is a file that cannot be opened, not stdout
    (["identity-check", "--r", "0.5", "--output", ""], 2, equals(""), equals("error: cannot write : No such file or directory\n")),
]


def command() -> list[str]:
    """The installed script, or this interpreter running the package's CLI module."""
    script = shutil.which("planeqm")
    return [script] if script else [sys.executable, "-m", "planeqm.cli"]


def environment() -> dict:
    """This process's environment, with the imported package findable by ``python -m``."""
    source = os.path.dirname(os.path.dirname(os.path.abspath(planeqm.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv,code,stdout_check,stderr_check", RUNS, ids=[" ".join(run[0])[:60] for run in RUNS])
def test_console_script(argv, code, stdout_check, stderr_check):
    done = subprocess.run(command() + argv, capture_output=True, text=True, env=environment(), timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    for check, text in ((stdout_check, done.stdout), (stderr_check, done.stderr)):
        assert check is None or check(text), text[:500]
