"""Command-line front end.

One command per pipeline, named by the first argument; configs are
strict JSON (unknown fields are rejected with JSON-pointer paths, in
nested objects too) and every report embeds the effective configuration
so runs are auditable and byte-identical under a fixed seed.  Exit
codes: 0 PASS/success, 1 FAIL, 2 INCONCLUSIVE, 3 usage or config error,
4 I/O error.
"""

import argparse
import functools
import os
import sys
import tempfile
import json
from dataclasses import dataclass

import numpy as np

from ._jsonutil import Validator, dump_json
from .blaschke import BALL, HALFSPACE, ZeroSet, build_product
from .errors import ConfigError, QSchurError
from .factorcheck import Budget, krein_langer_check, synthesize_generalized_schur
from .kernels import (
    CAYLEY_X0,
    SchurFunction,
    cayley_map,
    cayley_transport,
    estimate_dim_HB,
    estimate_neg_squares,
)
from .qlinalg import QMatrix, herm_eigen_neg
from .quat import Quaternion
from .realization import Colligation, colligation_from_blaschke_factor, realize_many, solve_stein
from .starpoly import SliceRational, StarPoly

COMMANDS = ("blaschke-build", "negsq", "dim-hb", "realize", "stein", "kl-check", "transport")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    command: str
    effective: dict     # full config after defaults, echoed into the report
    objects: dict       # parsed field values keyed by field name


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_SPEC_FIELDS = {
    "blaschke": ("zeros",),
    "quotient": ("b0", "s0"),
    "constant": ("value", "domain"),
    "rational": ("num", "den", "domain"),
}


def _parse_schur_spec(v, obj, path):
    if not isinstance(obj, dict):
        v.fail(path, "expected a Schur function spec")
        return None
    kind = v.string(obj.get("kind"), "%s/kind" % path, choices=tuple(_SPEC_FIELDS))
    if kind is None:
        return None
    v.check_object(obj, path, ("kind",) + _SPEC_FIELDS[kind])
    if kind == "blaschke":
        zs = ZeroSet.from_json(v, obj.get("zeros"), "%s/zeros" % path)
        product = None if zs is None else v.build("%s/zeros" % path, build_product, zs)
        return None if product is None else SchurFunction.from_product(product)
    if kind == "quotient":
        zs = ZeroSet.from_json(v, obj.get("b0"), "%s/b0" % path)
        s0 = None
        if obj.get("s0") is not None:
            s0 = _parse_schur_spec(v, obj.get("s0"), "%s/s0" % path)
        if zs is None or not v.ok():
            return None
        case = v.build(path, synthesize_generalized_schur, zs, s0)
        return None if case is None else case.s
    domain = v.string(obj.get("domain", BALL), "%s/domain" % path, choices=(BALL, HALFSPACE))
    if kind == "constant":
        comps = v.quaternion(obj.get("value"), "%s/value" % path)
        if comps is None or domain is None:
            return None
        return SchurFunction.constant(Quaternion(*comps), domain=domain)
    num = StarPoly.from_json(v, obj.get("num"), "%s/num" % path)
    den = StarPoly.from_json(v, obj.get("den"), "%s/den" % path)
    if num is None or den is None or domain is None:
        return None
    rat = v.build(path, SliceRational, num, den)
    return None if rat is None else SchurFunction(rat, domain=domain)


def _quaternions(message):
    """Check of an array of quaternions; message is what a non-array gets."""
    def check(v, value, path):
        if not isinstance(value, list):
            v.fail(path, message)
            return ()
        comps = [v.quaternion(entry, "%s/%d" % (path, idx)) for idx, entry in enumerate(value)]
        return tuple(Quaternion(*c) for c in comps if c is not None)
    return check


def _positive(v, value, path, below=None):
    x = v.number(value, path)
    if x is not None and not (x > 0 and (below is None or x < below)):
        v.fail(path, "must be positive" if below is None else "must lie in (0, %g)" % below)
        return None
    return x


_radius = functools.partial(_positive, below=1.0)


def _int(minimum):
    return functools.partial(Validator.integer, minimum=minimum)


def _csv_path(v, value, path):
    return v.string(value, path) or None     # an empty path writes no file


class _Required(str):
    """Default of a field that must be given; the string is what its absence reports."""


_MISSING = _Required("missing required field")
_BUDGET = Budget()

# Each command's fields in the order they are checked: key -> (check, default).
# A check is check(validator, value, pointer) -> parsed value.  An absent or
# null field takes its default unchecked (dim-hb points 0 means 3 deg B + 3);
# a check of None leaves the field to a step in _CROSS_CHECKS.
_COMMON = {"seed": (_int(0), _BUDGET.seed), "csv": (_csv_path, None)}
_FIELDS = {command: {**_COMMON, **fields} for command, fields in {
    "blaschke-build": {
        "zeros": (ZeroSet.from_json, _Required("expected a ZeroSet object")),
    },
    "negsq": {
        "schur": (_parse_schur_spec, _MISSING),
        "trials": (_int(1), _BUDGET.trials),
        "batch": (_int(1), _BUDGET.batch),
        "rho": (_radius, _BUDGET.rho),
        "cutoff": (_positive, _BUDGET.cutoff),
    },
    "dim-hb": {
        "zeros": (ZeroSet.from_json, _Required("expected a ZeroSet object")),
        "points": (_int(1), 0),
        "cutoff": (_positive, 1e-8),
        "radius": (_radius, 0.75),
    },
    "realize": {
        "points": (_quaternions("expected an array of quaternions"), ()),
        "colligation": (None, None),
        "blaschke_a": (None, None),
    },
    "stein": {
        "A": (QMatrix.from_json, _MISSING),
        "C": (QMatrix.from_json, _MISSING),
    },
    "kl-check": {
        "b0": (ZeroSet.from_json, _MISSING),
        "s0": (_parse_schur_spec, None),
        "expected_kappa": (_int(0), None),
        "trials": (_int(1), _BUDGET.trials),
        "batch": (_int(1), _BUDGET.batch),
        "identity_trunc": (_int(1), _BUDGET.identity_trunc),
        "rho": (_radius, _BUDGET.rho),
    },
    "transport": {
        "schur": (_parse_schur_spec, _MISSING),
        "x0": (_positive, CAYLEY_X0),
        "direction": (functools.partial(Validator.string,
                                        choices=("halfspace_to_ball", "ball_to_halfspace")),
                      "halfspace_to_ball"),
        "points": (_quaternions("expected an array"), ()),
    },
}.items()}


def _realize_colligation(v, raw, objects, effective):
    """The colligation, given as exactly one of colligation or blaschke_a."""
    if (raw.get("colligation") is None) == (raw.get("blaschke_a") is None):
        v.fail("/", "provide exactly one of colligation or blaschke_a")
    elif raw.get("blaschke_a") is not None:
        comps = v.quaternion(raw["blaschke_a"], "/blaschke_a")
        if comps is not None:
            q = Quaternion(*comps)
            if not 0.0 < q.norm() < 1.0:
                v.fail("/blaschke_a", "need 0 < |a| < 1")
            else:
                objects["colligation"] = v.build("/blaschke_a", colligation_from_blaschke_factor, q)
    else:
        objects["colligation"] = Colligation.from_json(v, raw["colligation"], "/colligation")


def _kl_domains(v, raw, objects, effective):
    b0, s0 = objects["b0"], objects["s0"]
    if b0 is not None and s0 is not None and s0.domain != b0.domain:
        v.fail("/s0", "S0 lives on the %s but B0 on the %s" % (s0.domain, b0.domain))
    # a constant S0 must be a Schur function, as synthesize_generalized_schur requires
    constant = s0 is not None and raw["s0"]["kind"] == "constant"
    if constant and s0.evaluate(0.0).norm() > 1.0 + 1e-14:
        v.fail("/s0/value", "constant S0 needs norm at most 1")
    effective.setdefault("s0", None)     # S0 = 1 is echoed as null


# checks that read several fields, run after the field that keys them
_CROSS_CHECKS = {("realize", "blaschke_a"): _realize_colligation, ("kl-check", "s0"): _kl_domains}


def _echo(parsed, value):
    """A field's copy in the report: zero sets and point lists in normal form."""
    if isinstance(parsed, ZeroSet):
        return parsed.to_json()
    if isinstance(parsed, tuple):
        return [p.to_json() for p in parsed]
    return value


def parse_config(text):
    """Parse and validate a config; returns RunConfig or raises ConfigError
    carrying the list of (path, message) violations.  An explicit null in
    a top-level field reads as an absent field."""
    v = Validator()
    try:
        raw = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError([("/", "malformed JSON: %s" % exc)])
    if not isinstance(raw, dict):
        raise ConfigError([("/", "config must be a JSON object")])
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError([("/command", "must be one of %s" % ", ".join(COMMANDS))])
    fields = _FIELDS[command]
    v.check_object(raw, "", ("command",) + tuple(fields))

    objects, effective = {}, {"command": command}
    for key, (check, default) in fields.items():
        value = parsed = raw.get(key)
        if value is None:
            if isinstance(default, _Required):
                v.fail("/" + key, default)
            else:
                value = parsed = default
        elif check is not None:
            parsed = check(v, value, "/" + key)
        objects[key] = parsed
        if parsed is not None:
            effective[key] = _echo(parsed, value)
        if (command, key) in _CROSS_CHECKS:
            _CROSS_CHECKS[command, key](v, raw, objects, effective)

    if not v.ok():
        raise ConfigError(v.violations)
    return RunConfig(command=command, effective=effective, objects=objects)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _run_blaschke_build(cfg):
    zeros = cfg.objects["zeros"]
    product = build_product(zeros)
    report = {
        "degree": product.degree(),
        "factors": [f.to_json() for f in product.factors],
        "product": product.rational.to_json(),
        "zero_residuals": [product.rational.eval_scalar(a).norm() for a, _ in zeros.points],
    }
    return EXIT_OK, report, None


def _run_negsq(cfg):
    s = cfg.objects["schur"]
    eff = cfg.effective
    if s.domain == HALFSPACE:
        s = cayley_transport(s, CAYLEY_X0)
    rep = estimate_neg_squares(
        s, trials=eff["trials"], batch=eff["batch"], seed=eff["seed"],
        rho=eff["rho"], cutoff=eff["cutoff"],
    )
    return EXIT_OK, {"report": rep.to_json()}, _eig_csv(rep.witness_eigenvalues)


def _run_dim_hb(cfg):
    zeros = cfg.objects["zeros"]
    eff = cfg.effective
    product = build_product(zeros)
    rep = estimate_dim_HB(product, count=eff["points"] or None, cutoff=eff["cutoff"],
                          seed=eff["seed"], radius=eff["radius"])
    body = {**rep.to_json(), "degree": product.degree()}
    return EXIT_OK, body, _eig_csv(rep.eigenvalues)


def _run_realize(cfg):
    col = cfg.objects["colligation"]
    pts = cfg.objects["points"]
    values = [{"p": p.to_json(), "value": QMatrix(v).to_json()}
              for p, v in zip(pts, realize_many(col, pts))]
    body = {
        "values": values,
        "coisometry_residual": col.coisometry_residual(),
        "colligation": col.to_json(),
    }
    return EXIT_OK, body, None


def _run_stein(cfg):
    a, c = cfg.objects["A"], cfg.objects["C"]
    p, residual = solve_stein(a, c)
    eigs, _ = herm_eigen_neg(p)
    # negative semidefinite: no eigenvalue above 1e-8 times max(1, spectral radius)
    cutoff = 1e-8 * max(1.0, float(np.max(np.abs(eigs))))
    body = {
        "P": p.to_json(),
        "residual": residual,
        "eigenvalues": [float(x) for x in eigs],
        "negative_semidefinite": bool(np.all(eigs <= cutoff)),
    }
    return EXIT_OK, body, _eig_csv(body["eigenvalues"])


def _run_kl_check(cfg):
    eff = cfg.effective
    case = synthesize_generalized_schur(cfg.objects["b0"], cfg.objects.get("s0"))
    budget = Budget(
        trials=eff["trials"], batch=eff["batch"], rho=eff["rho"], seed=eff["seed"],
        identity_trunc=eff["identity_trunc"],
    )
    verdict = krein_langer_check(case, budget, expected_kappa=eff.get("expected_kappa"))
    code = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE}[verdict.verdict]
    csv = _eig_csv(verdict.negsq.witness_eigenvalues) if verdict.negsq else None
    return code, verdict.to_json(), csv


def _run_transport(cfg):
    eff = cfg.effective
    x0 = float(eff["x0"])
    direction = eff["direction"]
    moved = cayley_transport(cfg.objects["schur"], x0, direction)
    mapped = [{"p": p.to_json(), "image": cayley_map(p, x0, direction).to_json()}
              for p in cfg.objects["points"]]
    body = {"x0": x0, "direction": direction, "mapped_points": mapped,
            "domain": moved.domain, "rational": moved.rational.to_json()}
    return EXIT_OK, body, None


_RUNNERS = {
    "blaschke-build": _run_blaschke_build,
    "negsq": _run_negsq,
    "dim-hb": _run_dim_hb,
    "realize": _run_realize,
    "stein": _run_stein,
    "kl-check": _run_kl_check,
    "transport": _run_transport,
}


def _eig_csv(eigenvalues):
    lines = ["index,eigenvalue"]
    for idx, val in enumerate(eigenvalues):
        lines.append("%d,%s" % (idx, dump_json(float(val))))
    return "\n".join(lines) + "\n"


def _atomic_write(path, data):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qschur-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dispatch(cfg, out=None):
    """Run a validated config; returns (exit code, report text), written to
    out when that path is given."""
    code, body, csv = _RUNNERS[cfg.command](cfg)
    report = {"command": cfg.command, "seed": cfg.effective["seed"],
              "config": cfg.effective}
    report.update(body)
    text = dump_json(report) + "\n"
    if out:
        _atomic_write(out, text)
    csv_path = cfg.effective.get("csv")
    if csv_path and csv is not None:
        _atomic_write(csv_path, csv)
    return code, text


@functools.cache
def _parser():
    """The argument parser, built on first use; parse_args keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Quaternionic Schur analysis pipelines (slice-regular "
                    "Blaschke products, negative squares, Krein-Langer checks).",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="report output path")
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        with open(args.config, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        print("qschur: cannot read config: %s" % exc, file=sys.stderr)
        return EXIT_IO

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for path, message in exc.violations:
            print("qschur: config %s: %s" % (path, message), file=sys.stderr)
        return EXIT_USAGE
    if cfg.command != args.command:
        print(
            "qschur: config command %r does not match subcommand %r"
            % (cfg.command, args.command),
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        code, text = dispatch(cfg, out=args.out)
    except QSchurError as exc:
        print("qschur: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("qschur: I/O failure: %s" % exc, file=sys.stderr)
        return EXIT_IO
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
