"""The command line outside the process: exit codes, one-line reports and stderr.

Each row of CASES runs `python -m qschur.cli COMMAND --config cfg.json ...`
in a child process on the `qschur` of this checkout and checks:

* the exit code;
* stderr: it contains the given text, or it is empty when that is "";
* the report, read from `--out` when the row passes `{out}` and from stdout
  otherwise: one line of JSON, on which the predicate holds.  A row
  without a predicate expects no report at all.

A new out-of-process check is a new row.
"""

import json
import os
import subprocess
import sys

import pytest

import qschur

from oracles import (HALFSPACE_BLASCHKE, HALFSPACE_SMALL_ZEROS, POLE_ZERO, THREE_SMALL_ZEROS,
                     crowded_halfspace_zeros)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qschur.__file__)))
TIMEOUT_S = 120
OUT = ("--out", "{out}")

S0 = {"kind": "constant", "value": [0.7, 0.0, 0.0, 0.0]}


def ball_zero(y, n):
    return {"domain": "ball", "points": [{"a": [0.0, y, 0.0, 0.0], "n": n}]}


def colligation(key):
    """A 1x1 colligation with one more, unknown, field: a colligation is
    (A, B, C, D, domain, x0), with no signature fields."""
    def entry(x):
        return {"rows": 1, "cols": 1, "entries": [[x, 0.0, 0.0, 0.0]]}
    return {"A": entry(0.5), "B": entry(1.0), "C": entry(1.0), "D": entry(0.5), key: entry(1.0)}


# (id, command, config, extra argv, exit code, stderr, predicate on the report)
CASES = [
    ("build-ball-degree-4", "blaschke-build",
     {"zeros": {"domain": "ball", "points": [{"a": [0.1, 0.5, 0.0, 0.2], "n": 2}],
                "spheres": [{"c": [-0.2, 0.0, 0.5, 0.0], "m": 1}]}},
     (), 0, "", lambda r: r["degree"] == 4),
    # twelve zeros 0.09 to 0.27 apart: the chain residual at a point is
    # small but not zero, and the set builds
    ("build-crowded-halfspace", "blaschke-build", {"zeros": crowded_halfspace_zeros().to_json()},
     OUT, 0, "", lambda r: r["degree"] == 12),
    # A = conj(0.5 i): the resolvent 1 - |p|^2 / 4 vanishes on |p| = 2 when Re p = 0
    ("realize-on-spectrum-sphere", "realize",
     {"blaschke_a": [0.0, 0.5, 0.0, 0.0], "points": [[0.1, 0.2, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]},
     (), 3, "resolvent singular at sphere (x=0, y=2)", None),
    ("realize-off-spectrum-sphere", "realize",
     {"blaschke_a": [0.0, 0.5, 0.0, 0.0], "points": [[0.1, 0.2, 0.0, 0.0]]},
     (), 0, "", lambda r: len(r["values"]) == 1),
    ("realize-colligation-j2", "realize",
     {"points": [[0.2, 0.1, 0.0, 0.0]], "colligation": colligation("j2")},
     (), 3, "config /colligation/j2: unknown field", None),
    ("realize-colligation-J2", "realize",
     {"points": [[0.2, 0.1, 0.0, 0.0]], "colligation": colligation("J2")},
     (), 3, "config /colligation/J2: unknown field", None),
    ("kl-check-norm-2-s0", "kl-check",
     {"b0": ball_zero(0.5, 1), "s0": dict(S0, value=[2.0, 0.0, 0.0, 0.0])},
     (), 3, "config /s0/value", None),
    # a zero of multiplicity 8 at 0.1 i: the denominator of S has den_0 =
    # 1e-16, not 0, so the identity leg expands
    ("kl-check-eightfold-zero", "kl-check", {"b0": ball_zero(0.1, 8), "s0": S0},
     OUT, 2, "", lambda r: "expansion failed" not in r["reason"]),
    # B0^{-*} has a fivefold pole at 0.03 i: its Taylor coefficients overflow
    # at truncation 48, without warnings, and the Gram of overflowed
    # coefficients proves nothing
    ("kl-check-fivefold-pole", "kl-check", {"b0": ball_zero(0.03, 5), "s0": S0},
     OUT, 2, "", lambda r: r["min_gram_eig"] is None),
    ("kl-check-small-zeros", "kl-check", {"b0": THREE_SMALL_ZEROS.to_json(), "s0": S0},
     OUT, 0, "", lambda r: r["verdict"] == "PASS"),
    # the identity leg overflows at 0.02 i, but the sampled kappa-hat 1 exceeds 0
    ("kl-check-low-target", "kl-check", {"b0": POLE_ZERO.to_json(), "s0": S0, "expected_kappa": 0},
     OUT, 1, "", lambda r: r["verdict"] == "FAIL"),
    ("kl-check-halfspace-side-scale", "kl-check",
     {"b0": HALFSPACE_SMALL_ZEROS.to_json(), "s0": dict(S0, domain="halfspace")},
     OUT, 0, "", lambda r: r["verdict"] == "PASS"),
    # transport runs no estimate; the negsq command carries a half-space
    # function to the ball itself and reads its index there
    ("transport-negsq-field", "transport", {"negsq": True, "schur": HALFSPACE_BLASCHKE},
     (), 3, "config /negsq: unknown field", None),
    ("negsq-halfspace", "negsq", {"schur": HALFSPACE_BLASCHKE},
     OUT, 0, "", lambda r: r["report"]["kappa_hat"] == 0),
]


@pytest.mark.parametrize("command, config, argv, code, stderr, check",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_cli_process(tmp_path, command, config, argv, code, stderr, check):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(dict(config, command=command)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", command, "--config", str(cfg),
         *(arg.format(out=out) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    assert proc.returncode == code, proc.stderr
    if stderr:
        assert stderr in proc.stderr
    else:
        assert proc.stderr == ""
    if "{out}" in argv:
        assert proc.stdout == ""
        report = out.read_text() if out.exists() else ""
    else:
        report = proc.stdout
    if check is None:
        assert report == ""
    else:
        # a report is exactly one line of JSON
        assert report.count("\n") == 1 and report.endswith("\n"), report
        assert check(json.loads(report)), report
