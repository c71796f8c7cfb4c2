"""Command-line front end.

One command per pipeline, named by the first argument; configs are
strict JSON (unknown fields are rejected with JSON-pointer paths) and
every report embeds the effective configuration so runs are auditable
and byte-identical under a fixed seed.  Exit codes: 0 PASS/success,
1 FAIL, 2 INCONCLUSIVE, 3 usage or config error, 4 I/O error.
"""

import argparse
import functools
import os
import sys
import tempfile
import json
from dataclasses import dataclass

import numpy as np

from ._jsonutil import Validator, dump_json, format_float
from .blaschke import BALL, HALFSPACE, ZeroSet, build_product
from .errors import ConfigError, QSchurError
from .factorcheck import (
    DEFAULT_SEED,
    Budget,
    cayley_map,
    cayley_transport,
    krein_langer_check,
    synthesize_generalized_schur,
)
from .kernels import SchurFunction, estimate_dim_HB, estimate_neg_squares
from .qlinalg import QMatrix
from .quat import Quaternion, sample_ball_points
from .realization import Colligation, colligation_from_blaschke_factor, realize_eval, solve_stein, stein_is_negative
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
    objects: dict       # parsed domain objects keyed by field name


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_zero_set(obj, path, v):
    if not isinstance(obj, dict):
        v.fail(path, "expected a ZeroSet object")
        return None
    for key in obj:
        if key not in ("domain", "points", "spheres"):
            v.fail("%s/%s" % (path, key), "unknown field")
    domain = v.string(obj.get("domain"), "%s/domain" % path, choices=(BALL, HALFSPACE))
    points = []
    spheres = []
    raw_points = obj.get("points", [])
    raw_spheres = obj.get("spheres", [])
    if not isinstance(raw_points, list):
        v.fail("%s/points" % path, "expected an array")
        raw_points = []
    if not isinstance(raw_spheres, list):
        v.fail("%s/spheres" % path, "expected an array")
        raw_spheres = []
    for idx, entry in enumerate(raw_points):
        epath = "%s/points/%d" % (path, idx)
        if not isinstance(entry, dict):
            v.fail(epath, "expected an object")
            continue
        for key in entry:
            if key not in ("a", "n"):
                v.fail("%s/%s" % (epath, key), "unknown field")
        comps = v.quaternion(entry.get("a"), "%s/a" % epath)
        mult = v.integer(entry.get("n", 1), "%s/n" % epath, minimum=1)
        if comps is None or mult is None:
            continue
        q = Quaternion(*comps)
        if domain == BALL and not q.norm() < 1.0:
            v.fail("%s/a" % epath, "ball zeros need |a| < 1")
            continue
        if domain == HALFSPACE and not q.re > 0.0:
            v.fail("%s/a" % epath, "half-space zeros need Re(a) > 0")
            continue
        points.append((q, mult))
    for idx, entry in enumerate(raw_spheres):
        epath = "%s/spheres/%d" % (path, idx)
        if not isinstance(entry, dict):
            v.fail(epath, "expected an object")
            continue
        for key in entry:
            if key not in ("c", "m"):
                v.fail("%s/%s" % (epath, key), "unknown field")
        comps = v.quaternion(entry.get("c"), "%s/c" % epath)
        mult = v.integer(entry.get("m", 1), "%s/m" % epath, minimum=1)
        if comps is None or mult is None:
            continue
        q = Quaternion(*comps)
        if domain == BALL and not q.norm() < 1.0:
            v.fail("%s/c" % epath, "ball spheres need |c| < 1")
            continue
        if domain == HALFSPACE and not q.re > 0.0:
            v.fail("%s/c" % epath, "half-space spheres need Re(c) > 0")
            continue
        if q.imag_modulus() < 1e-13 * max(1.0, q.norm()):
            v.fail("%s/c" % epath, "sphere representatives must be nonreal")
            continue
        spheres.append((q, mult))
    if domain is None or not v.ok():
        return None
    return _build(v, path, lambda: ZeroSet(domain, points, spheres).validate())


def _build(v, path, make, *args):
    """make(*args), or None with a violation at path if it raises a library error."""
    try:
        return make(*args)
    except QSchurError as exc:
        v.fail(path, str(exc))
        return None


def _field(raw, key, default):
    """raw[key], reading an explicit null as an absent field."""
    value = raw.get(key)
    return default if value is None else value


def _parse_schur_spec(obj, path, v):
    if not isinstance(obj, dict):
        v.fail(path, "expected a Schur function spec")
        return None
    kind = v.string(obj.get("kind"), "%s/kind" % path,
                    choices=("blaschke", "quotient", "constant", "rational"))
    if kind is None:
        return None
    if kind == "blaschke":
        for key in obj:
            if key not in ("kind", "zeros"):
                v.fail("%s/%s" % (path, key), "unknown field")
        zs = _parse_zero_set(obj.get("zeros"), "%s/zeros" % path, v)
        product = None if zs is None else _build(v, "%s/zeros" % path, build_product, zs)
        return None if product is None else SchurFunction.from_product(product)
    if kind == "quotient":
        for key in obj:
            if key not in ("kind", "b0", "s0"):
                v.fail("%s/%s" % (path, key), "unknown field")
        zs = _parse_zero_set(obj.get("b0"), "%s/b0" % path, v)
        s0 = None
        if obj.get("s0") is not None:
            s0 = _parse_schur_spec(obj.get("s0"), "%s/s0" % path, v)
        if zs is None or not v.ok():
            return None
        case = _build(v, path, synthesize_generalized_schur, zs, s0)
        return None if case is None else case.s
    if kind == "constant":
        for key in obj:
            if key not in ("kind", "value", "domain"):
                v.fail("%s/%s" % (path, key), "unknown field")
        comps = v.quaternion(obj.get("value"), "%s/value" % path)
        domain = v.string(obj.get("domain", BALL), "%s/domain" % path,
                          choices=(BALL, HALFSPACE))
        if comps is None or domain is None:
            return None
        return SchurFunction.constant(Quaternion(*comps), domain=domain)
    # rational
    for key in obj:
        if key not in ("kind", "num", "den", "domain"):
            v.fail("%s/%s" % (path, key), "unknown field")
    domain = v.string(obj.get("domain", BALL), "%s/domain" % path,
                      choices=(BALL, HALFSPACE))
    rat = _build(v, path, lambda: SliceRational(StarPoly.from_json(obj.get("num")),
                                                StarPoly.from_json(obj.get("den"))))
    if rat is None or domain is None:
        return None
    return SchurFunction.from_rational(rat, domain=domain)


_COMMON_KEYS = ("command", "seed", "out", "csv")

_SCHEMAS = {
    "blaschke-build": _COMMON_KEYS + ("zeros",),
    "negsq": _COMMON_KEYS + ("schur", "trials", "batch", "rho", "cutoff"),
    "dim-hb": _COMMON_KEYS + ("zeros", "points", "cutoff", "radius"),
    "realize": _COMMON_KEYS + ("colligation", "blaschke_a", "points"),
    "stein": _COMMON_KEYS + ("A", "C"),
    "kl-check": _COMMON_KEYS + (
        "b0", "s0", "expected_kappa", "trials", "batch", "rho", "identity_trunc"
    ),
    "transport": _COMMON_KEYS + ("schur", "x0", "direction", "points", "negsq",
                                 "trials", "batch"),
}


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
    v.check_object(raw, "", _SCHEMAS[command])

    seed = _field(raw, "seed", DEFAULT_SEED)
    if v.integer(seed, "/seed") is None:
        raise ConfigError(v.violations)
    out = raw.get("out")
    if out is not None and v.string(out, "/out") is None:
        raise ConfigError(v.violations)
    csv = raw.get("csv")
    if csv is not None and v.string(csv, "/csv") is None:
        raise ConfigError(v.violations)

    objects = {}
    effective = {"command": command, "seed": seed}
    if out:
        effective["out"] = out
    if csv:
        effective["csv"] = csv

    if command == "blaschke-build" or command == "dim-hb":
        zs = _parse_zero_set(raw.get("zeros"), "/zeros", v)
        if zs is not None:
            objects["zeros"] = zs
            effective["zeros"] = zs.to_json()
        if command == "dim-hb":
            effective["points"] = _field(raw, "points", 0)
            effective["cutoff"] = _field(raw, "cutoff", 1e-8)
            effective["radius"] = _field(raw, "radius", 0.75)
            if raw.get("points") is not None:
                v.integer(raw["points"], "/points", minimum=1)
            if raw.get("cutoff") is not None:
                v.number(raw["cutoff"], "/cutoff")
            if raw.get("radius") is not None:
                v.number(raw["radius"], "/radius")
    elif command == "negsq":
        spec = raw.get("schur")
        s = _parse_schur_spec(spec, "/schur", v) if spec is not None else None
        if spec is None:
            v.fail("/schur", "missing required field")
        if s is not None:
            objects["schur"] = s
            effective["schur"] = spec
        effective["trials"] = _field(raw, "trials", 200)
        effective["batch"] = _field(raw, "batch", 40)
        effective["rho"] = _field(raw, "rho", 0.9)
        effective["cutoff"] = _field(raw, "cutoff", 1e-8)
        for key in ("trials", "batch"):
            if raw.get(key) is not None:
                v.integer(raw[key], "/%s" % key, minimum=1)
        for key in ("rho", "cutoff"):
            if raw.get(key) is not None:
                v.number(raw[key], "/%s" % key)
    elif command == "realize":
        pts = _field(raw, "points", [])
        if not isinstance(pts, list):
            v.fail("/points", "expected an array of quaternions")
            pts = []
        parsed_pts = []
        for idx, entry in enumerate(pts):
            comps = v.quaternion(entry, "/points/%d" % idx)
            if comps is not None:
                parsed_pts.append(Quaternion(*comps))
        objects["points"] = parsed_pts
        effective["points"] = [p.to_json() for p in parsed_pts]
        if (raw.get("colligation") is None) == (raw.get("blaschke_a") is None):
            v.fail("/", "provide exactly one of colligation or blaschke_a")
        elif raw.get("blaschke_a") is not None:
            comps = v.quaternion(raw["blaschke_a"], "/blaschke_a")
            if comps is not None:
                q = Quaternion(*comps)
                if not 0.0 < q.norm() < 1.0:
                    v.fail("/blaschke_a", "need 0 < |a| < 1")
                else:
                    col = _build(v, "/blaschke_a", colligation_from_blaschke_factor, q)
                    if col is not None:
                        objects["colligation"] = col
                        effective["blaschke_a"] = raw["blaschke_a"]
        else:
            try:
                objects["colligation"] = Colligation.from_json(raw["colligation"])
                effective["colligation"] = raw["colligation"]
            except (QSchurError, KeyError, TypeError) as exc:
                v.fail("/colligation", "invalid colligation: %s" % exc)
    elif command == "stein":
        for key in ("A", "C"):
            if raw.get(key) is None:
                v.fail("/%s" % key, "missing required field")
                continue
            mat = _build(v, "/%s" % key, QMatrix.from_json, raw[key])
            if mat is not None:
                objects[key] = mat
                effective[key] = raw[key]
    elif command == "kl-check":
        zs = _parse_zero_set(raw.get("b0"), "/b0", v) if raw.get("b0") is not None else None
        if raw.get("b0") is None:
            v.fail("/b0", "missing required field")
        s0 = None
        if raw.get("s0") is not None:
            s0 = _parse_schur_spec(raw["s0"], "/s0", v)
        if zs is not None and s0 is not None and s0.domain != zs.domain:
            v.fail("/s0", "S0 lives on the %s but B0 on the %s" % (s0.domain, zs.domain))
        if zs is not None:
            objects["b0"] = zs
            objects["s0"] = s0
            effective["b0"] = zs.to_json()
            effective["s0"] = raw.get("s0")
        effective["trials"] = _field(raw, "trials", 200)
        effective["batch"] = _field(raw, "batch", 40)
        effective["rho"] = _field(raw, "rho", 0.9)
        effective["identity_trunc"] = _field(raw, "identity_trunc", 48)
        if raw.get("expected_kappa") is not None:
            v.integer(raw["expected_kappa"], "/expected_kappa", minimum=0)
            effective["expected_kappa"] = raw["expected_kappa"]
        for key in ("trials", "batch", "identity_trunc"):
            if raw.get(key) is not None:
                v.integer(raw[key], "/%s" % key, minimum=1)
        if raw.get("rho") is not None:
            v.number(raw["rho"], "/rho")
    elif command == "transport":
        spec = raw.get("schur")
        if spec is None:
            v.fail("/schur", "missing required field")
        else:
            s = _parse_schur_spec(spec, "/schur", v)
            if s is not None:
                objects["schur"] = s
                effective["schur"] = spec
        x0 = v.number(_field(raw, "x0", 1.0), "/x0")
        if x0 is not None and x0 <= 0:
            v.fail("/x0", "must be positive")
        effective["x0"] = _field(raw, "x0", 1.0)
        direction = v.string(_field(raw, "direction", "halfspace_to_ball"), "/direction",
                             choices=("halfspace_to_ball", "ball_to_halfspace"))
        effective["direction"] = _field(raw, "direction", "halfspace_to_ball")
        pts = _field(raw, "points", [])
        parsed_pts = []
        if not isinstance(pts, list):
            v.fail("/points", "expected an array")
        else:
            for idx, entry in enumerate(pts):
                comps = v.quaternion(entry, "/points/%d" % idx)
                if comps is not None:
                    parsed_pts.append(Quaternion(*comps))
        objects["points"] = parsed_pts
        effective["points"] = [p.to_json() for p in parsed_pts]
        effective["negsq"] = _field(raw, "negsq", False)
        if not isinstance(effective["negsq"], bool):
            v.fail("/negsq", "expected a boolean")
        effective["trials"] = _field(raw, "trials", 60)
        effective["batch"] = _field(raw, "batch", 40)
        for key in ("trials", "batch"):
            if raw.get(key) is not None:
                v.integer(raw[key], "/%s" % key, minimum=1)

    if not v.ok():
        raise ConfigError(v.violations)
    return RunConfig(command=command, effective=effective, objects=objects)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _run_blaschke_build(cfg):
    zeros = cfg.objects["zeros"]
    product = build_product(zeros)
    residuals = []
    for a, _ in zeros.points:
        residuals.append(product.eval(a).as_quaternion().norm())
    report = {
        "degree": product.degree(),
        "factors": [f.to_json() for f in product.factors],
        "product": product.rational.to_json(),
        "zero_residuals": residuals,
    }
    return EXIT_OK, report, None


def _run_negsq(cfg):
    s = cfg.objects["schur"]
    eff = cfg.effective
    if s.domain == HALFSPACE:
        s = cayley_transport(s, 1.0, "halfspace_to_ball")
    rep = estimate_neg_squares(
        s, trials=eff["trials"], batch=eff["batch"], seed=eff["seed"],
        rho=eff["rho"], cutoff=eff["cutoff"],
    )
    csv = _eig_csv(rep.witness_eigenvalues)
    return EXIT_OK, {"report": rep.to_json()}, csv


def _run_dim_hb(cfg):
    zeros = cfg.objects["zeros"]
    eff = cfg.effective
    product = build_product(zeros)
    kwargs = {"cutoff": eff["cutoff"], "seed": eff["seed"], "radius": eff["radius"]}
    if eff["points"]:
        rng = np.random.default_rng(eff["seed"])
        kwargs["points"] = sample_ball_points(rng, eff["points"], eff["radius"])
    rep = estimate_dim_HB(product, **kwargs)
    body = {"dim": rep.dim, "degree": product.degree(), "eigenvalues": rep.eigenvalues}
    if rep.warning:
        body["warning"] = rep.warning
    return EXIT_OK, body, _eig_csv(rep.eigenvalues)


def _run_realize(cfg):
    col = cfg.objects["colligation"]
    values = []
    for p in cfg.objects["points"]:
        values.append({"p": p.to_json(), "value": realize_eval(col, p).to_json()})
    body = {
        "values": values,
        "coisometry_residual": col.coisometry_residual(),
        "colligation": col.to_json(),
    }
    return EXIT_OK, body, None


def _run_stein(cfg):
    from .qlinalg import herm_eigen_neg

    p = solve_stein(cfg.objects["A"], cfg.objects["C"])
    a, c = cfg.objects["A"], cfg.objects["C"]
    residual = (a.adjoint() @ p @ a - p + c.adjoint() @ c).norm()
    eigs, _ = herm_eigen_neg(p)
    body = {
        "P": p.to_json(),
        "residual": residual,
        "eigenvalues": [float(x) for x in eigs],
        "negative_semidefinite": stein_is_negative(p),
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
    s = cfg.objects["schur"]
    x0 = float(eff["x0"])
    direction = eff["direction"]
    moved = cayley_transport(s, x0, direction)
    mapped = []
    for p in cfg.objects["points"]:
        image = cayley_map(p, x0, direction)
        mapped.append({"p": p.to_json(), "image": image.to_json()})
    body = {"x0": x0, "direction": direction, "mapped_points": mapped,
            "domain": moved.domain}
    body["rational"] = moved.rational.to_json()
    if eff["negsq"]:
        target = moved if moved.domain == BALL else s
        rep = estimate_neg_squares(
            target, trials=eff["trials"], batch=eff["batch"], seed=eff["seed"]
        )
        body["negsq"] = rep.to_json()
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
        lines.append("%d,%s" % (idx, format_float(val)))
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


def dispatch(cfg, out_override=None):
    """Run a validated config; returns (exit code, report text)."""
    code, body, csv = _RUNNERS[cfg.command](cfg)
    report = {"command": cfg.command, "seed": cfg.effective["seed"],
              "config": cfg.effective}
    report.update(body)
    text = dump_json(report) + "\n"
    out = out_override or cfg.effective.get("out")
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
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None)
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

    for key in ("trials", "batch"):
        val = getattr(args, key)
        if val is not None:
            if key in cfg.effective:
                cfg.effective[key] = val
            else:
                print("qschur: --%s does not apply to %s" % (key, cfg.command),
                      file=sys.stderr)
                return EXIT_USAGE
    if args.seed is not None:
        cfg.effective["seed"] = args.seed

    try:
        code, text = dispatch(cfg, out_override=args.out)
    except QSchurError as exc:
        print("qschur: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("qschur: I/O failure: %s" % exc, file=sys.stderr)
        return EXIT_IO
    if not (args.out or cfg.effective.get("out")):
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
