"""cli-light: qschur.cli.main in process over a seeded mix of cheap subcommands.

One round runs 24 configs twice each: once printing the report to
stdout, once writing it with --out and a csv table into the run's
temporary directory.  The mix is fixed; the seed only moves the zeros,
points and matrices:

* blaschke-build: zero sets of degree 1-4 on the ball and the half-space;
* dim-hb: ball zero sets of degree 1-4;
* transport: half-space Blaschke products of degree 1-4, four points each;
* realize: four single Blaschke factors, six points each;
* stein: A of order 1-4 and C with two rows.

dim-hb runs on ball zero sets only: on the half-space it reports a
dimension other than the degree (see CHANGES.md).
"""

import contextlib
import io
import json
import os

import numpy as np

import oracle

DEGREES = (1, 2, 3, 4)
# zero-set layout per degree: (point multiplicities, sphere multiplicities)
LAYOUT = {1: ((1,), ()), 2: ((), (1,)), 3: ((1,), (1,)), 4: ((2,), (1,))}
SPHERE_SEPARATION = 0.1   # in (Re, |Im|), keeps prescribed zeros on distinct spheres


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _zero(rng, domain, sphere):
    """A zero as (Re, |Im|, imaginary axis); spheres keep |Im| away from 0."""
    if domain == "ball":
        if sphere:
            x, y = rng.uniform(-0.4, 0.4), rng.uniform(0.25, 0.55)
        else:
            u = _unit(rng, 4) * rng.uniform(0.3, 0.7)
            x, y = u[0], np.linalg.norm(u[1:])
    else:
        x = rng.uniform(0.4, 1.4)
        y = rng.uniform(0.25, 1.0) if sphere else rng.uniform(0.0, 1.0)
    return x, y, _unit(rng, 3)


def zero_set(rng, domain, deg):
    """A zero set of the given degree as config JSON, on distinct spheres."""
    point_mults, sphere_mults = LAYOUT[deg]
    taken, out = [], {"domain": domain, "points": [], "spheres": []}
    for kind, mults in (("spheres", sphere_mults), ("points", point_mults)):
        for mult in mults:
            while True:
                x, y, axis = _zero(rng, domain, kind == "spheres")
                if all(abs(x - tx) >= SPHERE_SEPARATION or abs(y - ty) >= SPHERE_SEPARATION
                       for tx, ty in taken):
                    break
            taken.append((x, y))
            q = [float(x)] + [float(c) for c in y * axis]
            out[kind].append({"c": q, "m": mult} if kind == "spheres" else {"a": q, "n": mult})
    return out


def _ball_points(rng, count, radius):
    return [[float(c) for c in _unit(rng, 4) * radius * rng.random() ** 0.25]
            for _ in range(count)]


def _halfspace_points(rng, count):
    return [[float(rng.uniform(0.1, 2.0))] + [float(c) for c in _unit(rng, 3) * rng.uniform(0, 2)]
            for _ in range(count)]


def _qmatrix_json(a):
    rows, cols = a.shape[:2]
    return {"rows": rows, "cols": cols,
            "entries": [[float(v) for v in a[i, j]] for i in range(rows) for j in range(cols)]}


def configs(seed):
    """The round's configs as (config dict, what the checks expect)."""
    rng = np.random.default_rng([seed, 0xC11])
    out = []
    for deg in DEGREES:
        for domain in ("ball", "halfspace"):
            out.append(({"command": "blaschke-build", "seed": seed,
                         "zeros": zero_set(rng, domain, deg)},
                        {"command": "blaschke-build", "degree": deg}))
        out.append(({"command": "dim-hb", "seed": seed, "zeros": zero_set(rng, "ball", deg)},
                    {"command": "dim-hb", "degree": deg}))
        pts, x0 = _halfspace_points(rng, 4), float(rng.uniform(0.5, 2.0))
        out.append(({"command": "transport", "seed": seed, "x0": x0, "points": pts,
                     "direction": "halfspace_to_ball",
                     "schur": {"kind": "blaschke", "zeros": zero_set(rng, "halfspace", deg)}},
                    {"command": "transport", "points": pts, "x0": x0}))
        a = [float(c) for c in _unit(rng, 4) * rng.uniform(0.2, 0.8)]
        out.append(({"command": "realize", "seed": seed, "blaschke_a": a,
                     "points": _ball_points(rng, 6, 0.95)},
                    {"command": "realize"}))
        amat = rng.uniform(-0.15, 0.15, size=(deg, deg, 4))
        amat[np.arange(deg), np.arange(deg), 0] += rng.uniform(1.6, 3.0, size=deg)
        cmat = rng.normal(size=(2, deg, 4))
        out.append(({"command": "stein", "seed": seed,
                     "A": _qmatrix_json(amat), "C": _qmatrix_json(cmat)},
                    {"command": "stein", "A": amat, "C": cmat}))
    return out


class CliOp:
    """One config run through cli.main, to stdout or to files."""

    def __init__(self, index, config, expect, workdir, to_file):
        self.command = config["command"]
        self.expect = expect
        self.workdir = workdir
        self.to_file = to_file
        self.label = "%02d-%s-%s" % (index, self.command, "file" if to_file else "stdout")
        config = dict(config)
        if to_file:
            self.csv = os.path.join(workdir, "%s.csv" % self.label)
            config["csv"] = self.csv
        self.config = os.path.join(workdir, "%s.json" % self.label)
        with open(self.config, "w") as handle:
            json.dump(config, handle)

    def _out(self, round_index):
        return os.path.join(self.workdir, "%s-r%d.out.json" % (self.label, round_index))

    def run(self, round_index):
        from qschur.cli import main

        argv = [self.command, "--config", self.config]
        if self.to_file:
            argv += ["--out", self._out(round_index)]
            return main(argv), None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    def failed(self, output):
        return output[0] != 0

    def digest(self, output, round_index):
        """The report's text; a report file is read and removed."""
        if not self.to_file:
            return output[1]
        path = self._out(round_index)
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
        os.remove(path)
        return text

    def check(self, output, text):
        problems = oracle.check_cli_report(self.expect, text)
        if self.to_file and self.command in ("dim-hb", "stein"):
            with open(self.csv) as handle:
                problems += oracle.check_csv(handle.read(), json.loads(text)["eigenvalues"])
        return problems


def build(workload, seed, workdir):
    """One round: every config to stdout, then every config to files."""
    cfgs = configs(seed)
    return ([CliOp(i, c, e, workdir, False) for i, (c, e) in enumerate(cfgs)]
            + [CliOp(i, c, e, workdir, True) for i, (c, e) in enumerate(cfgs)])
