"""The command line outside the process: exit codes, one-line reports and stderr.

Each row of CASES runs `python -m qschur.cli COMMAND --config cfg.json ...`
in a child process on the `qschur` of this checkout, in a fresh working
directory, with `PYTHONWARNINGS=error::RuntimeWarning` as in the
in-process tests, so a numpy warning fails the row however its stderr is
matched.  Each row checks:

* the exit code;
* stderr: it is exactly the given text when that ends in a newline (""
  for an empty stderr), and contains it otherwise;
* the report, read from `--out` when the row passes `{out}` and from stdout
  otherwise: one line of JSON, on which the predicate holds.  A row
  without a predicate expects no report at all.  When the config names a
  `csv` file, the predicate gets its text as a second argument.

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


def scalar_poly(q):
    """The 1x1 constant polynomial q."""
    return {"shape": [1, 1], "coeffs": [{"rows": 1, "cols": 1, "entries": [q]}]}


def colligation(key):
    """A 1x1 colligation with one more, unknown, field: a colligation is
    (A, B, C, D, domain, x0), with no signature fields."""
    def entry(x):
        return {"rows": 1, "cols": 1, "entries": [[x, 0.0, 0.0, 0.0]]}
    return {"A": entry(0.5), "B": entry(1.0), "C": entry(1.0), "D": entry(0.5), key: entry(1.0)}


# (id, command, config, extra argv, exit code, stderr, predicate on the report)
CASES = [
    # seed, trials and batch come from the config alone, the report path from --out alone
    *[("%s-flag" % flag, "negsq", {"schur": HALFSPACE_BLASCHKE}, ("--" + flag, "1"),
       3, "unrecognized arguments: --%s 1" % flag, None) for flag in ("seed", "trials", "batch")],
    ("out-field", "negsq", {"schur": HALFSPACE_BLASCHKE, "out": "report.json"},
     (), 3, "qschur: config /out: unknown field\n", None),
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
    # |p|^2 overflows: the error names the point and the overflow, without numpy warnings
    ("realize-huge-point", "realize",
     {"blaschke_a": [0.0, 0.5, 0.0, 0.0], "points": [[0.2, 0.1, 1.3407807929942597e154, 0.0]]},
     (), 3, "qschur: |p|^2 overflows at p = [0.2, 0.1, 1.3407807929942597e+154, 0.0]\n", None),
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
    ("kl-check-s0-other-domain", "kl-check",
     {"b0": ball_zero(0.5, 1), "s0": dict(S0, domain="halfspace")},
     (), 3, "qschur: config /s0: B0 and S0 live in different domains\n", None),
    # a quotient's S0 keeps the same rule as kl-check's
    ("negsq-quotient-norm-3-s0", "negsq",
     {"trials": 4, "batch": 10,
      "schur": {"kind": "quotient", "b0": ball_zero(0.5, 1),
                "s0": dict(S0, value=[3.0, 0.0, 0.0, 0.0])}},
     (), 3, "qschur: config /schur/s0/value: constant S0 needs norm at most 1\n", None),
    # a zero of multiplicity 8 at 0.1 i: the denominator of S has den_0 =
    # 1e-16, not 0, so the identity leg expands
    ("kl-check-eightfold-zero", "kl-check", {"b0": ball_zero(0.1, 8), "s0": S0},
     OUT, 2, "", lambda r: "expansion failed" not in r["reason"]),
    # B0^{-*} has a fivefold pole at 0.03 i: its Taylor coefficients overflow
    # at truncation 48, without warnings, and the Gram of overflowed
    # coefficients proves nothing
    ("kl-check-fivefold-pole", "kl-check", {"b0": ball_zero(0.03, 5), "s0": S0},
     OUT, 2, "", lambda r: r["min_gram_eig"] is None),
    # B0^{-*} has a pole at 1e-4 i: the identity expansion overflows, and
    # says so by its status alone
    ("kl-check-pole-near-origin", "kl-check",
     {"b0": ball_zero(1e-4, 1), "s0": S0, "trials": 5, "batch": 15},
     OUT, 2, "", lambda r: r["verdict"] == "INCONCLUSIVE"),
    # B0^{-*} overflows when it is built for a zero this near the origin
    *[("kl-check-zero-%g-x%d" % (y, n), "kl-check",
       {"b0": ball_zero(y, n), "s0": S0, "trials": 5, "batch": 15},
       OUT, 2, "", lambda r: r["verdict"] == "INCONCLUSIVE")
      for y, n in ((1e-100, 3), (1e-200, 1), (1e-200, 3))],
    *[("negsq-quotient-zero-%g-x%d" % (y, n), "negsq",
       {"trials": 2, "batch": 6, "schur": {"kind": "quotient", "b0": ball_zero(y, n), "s0": S0}},
       (), 3, "qschur: matrix has a non-finite entry\n", None)
      for y, n in ((1e-100, 3), (1e-300, 2))],
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
    # a point at the pole of the Cayley map, or of a half-space realization,
    # is the one PoleError of quat.mobius
    ("transport-at-minus-x0", "transport",
     {"schur": HALFSPACE_BLASCHKE, "x0": 2.0,
      "points": [[0.5, 0.1, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0]]},
     (), 3, "qschur: evaluation on pole sphere (x=-2, y=0)\n", None),
    ("transport-at-one", "transport",
     {"schur": S0, "direction": "ball_to_halfspace", "points": [[1.0, 0.0, 0.0, 0.0]]},
     (), 3, "qschur: evaluation on pole sphere (x=1, y=0)\n", None),
    ("realize-halfspace-at-minus-x0", "realize",
     {"colligation": dict(colligation("x0"), x0=1.0, domain="halfspace"),
      "points": [[0.5, 0.2, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]},
     (), 3, "qschur: evaluation on pole sphere (x=-1, y=0)\n", None),
    ("negsq-halfspace", "negsq", {"schur": HALFSPACE_BLASCHKE},
     OUT, 0, "", lambda r: r["report"]["kappa_hat"] == 0),
    # S0 = 1.9e153 i, a rational spec since a constant one needs norm at most 1:
    # the Gram overflows, and only its non-finite entry is reported
    ("negsq-huge-quotient", "negsq",
     {"trials": 2, "batch": 6,
      "schur": {"kind": "quotient", "b0": ball_zero(0.5, 1),
                "s0": {"kind": "rational", "num": scalar_poly([0.0, 1.9063303196956244e153, 0.0, 0.0]),
                       "den": scalar_poly([1.0, 0.0, 0.0, 0.0])}}},
     (), 3, "qschur: matrix has a non-finite entry\n", None),
    ("dim-hb-few-points", "dim-hb", {"zeros": ball_zero(0.5, 3), "points": 2},
     (), 0, "", lambda r: r["dim"] == 2 and r["warning"].startswith("fewer than 3 deg(B)")),
    ("dim-hb-no-zeros", "dim-hb", {"zeros": {"domain": "ball"}, "csv": "eig.csv"},
     OUT, 0, "", lambda r, csv: (r["dim"], r["eigenvalues"], r["degree"], csv)
     == (0, [], 0, "index,eigenvalue\n")),
]


@pytest.mark.parametrize("command, config, argv, code, stderr, check",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_cli_process(tmp_path, command, config, argv, code, stderr, check):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(dict(config, command=command)))
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", command, "--config", str(cfg),
         *(arg.format(out=out) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=TIMEOUT_S, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    if not stderr or stderr.endswith("\n"):
        assert proc.stderr == stderr
    else:
        assert stderr in proc.stderr
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
        files = [(tmp_path / config["csv"]).read_text()] if "csv" in config else []
        assert check(json.loads(report), *files), report
