"""Blaschke factors and products with prescribed zeros.

Ball factors (|a| < 1):

    B_a(p)    = (1 - p conj(a))^{-*} * (a - p) conj(a)/|a|
              = (1 - 2Re(a)p + |a|^2 p^2)^{-1} (a - p(1 + a^2) + p^2 a) conj(a)/|a|
    B_[a](p)  = (1 - 2Re(a)p + p^2|a|^2)^{-1} (|a|^2 - 2Re(a)p + p^2)

Half-space factors (Re(a) > 0):

    b_a(p)    = (p + conj(a))^{-*} * (p - a)
              = (p^2 + 2Re(a)p + |a|^2)^{-1} (p^2 - a^2)
    b_[a](p)  = (p^2 + 2Re(a)p + |a|^2)^{-1} (p^2 - 2Re(a)p + |a|^2)

The zero-prescription builder places sphere factors first (they are
real-coefficient, hence central) and then point chains.  Each chain
factor is found by conjugating the prescribed point through the value of
the current residual function h (the partial product with the already
placed chain zeros extracted):

    alpha = h(a)^{-1} a h(a),

which reduces to the plain partial-product conjugation for the first
factor of each chain and makes the prescribed multiplicities hold by
construction.  a = 0 uses the convention B_0(p) = p so the builder stays
total; its star inverse is p^{-*}.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError
from .quat import Quaternion, as_quaternion, qdecompose
from .starpoly import SliceRational, StarPoly, left_root_extract

BALL = "ball"
HALFSPACE = "halfspace"
_DOMAINS = (BALL, HALFSPACE)
# a built product must vanish at its prescribed points within this
# tolerance, relative to the magnitude scale of its numerator there
PRODUCT_ZERO_TOL = 1e-10


def _check_domain(domain):
    if domain not in _DOMAINS:
        raise DomainError("domain must be 'ball' or 'halfspace'")


# the message for an entry outside the domain, formatted with (what, at)
_OUTSIDE = {BALL: "ball %s need |%s| < 1", HALFSPACE: "half-space %s need Re(%s) > 0"}


def inside(domain, q):
    """True when q lies in the domain: |q| < 1 on the ball, Re(q) > 0 on the half-space."""
    return q.norm() < 1.0 if domain == BALL else q.re > 0.0


def _point_rational(domain, a):
    """Point-factor rational with no domain validation (inverse factors
    legitimately sit outside the ball / half-space).  Its real denominator
    vector is built directly; its leading or constant coefficient is 1, so
    it is nonzero and is kept untrimmed."""
    if domain == BALL:
        if a.norm() == 0.0:
            return SliceRational.from_poly(StarPoly.real([0.0, 1.0]))
        den = np.array([1.0, -2.0 * a.re, a.normsq()])
        unit = a.conj() * (1.0 / a.norm())
        num = StarPoly.scalar(
            [a * unit, -((Quaternion.from_real(1.0) + a * a) * unit), a * unit]
        )
        return SliceRational._over(num, den)
    den = np.array([a.normsq(), 2.0 * a.re, 1.0])
    num = StarPoly.scalar([-(a * a), Quaternion(), Quaternion.from_real(1.0)])
    return SliceRational._over(num, den)


def _sphere_rational(domain, a):
    """Sphere-factor rational over its real denominator vector, as in
    _point_rational."""
    num = StarPoly.real([a.normsq(), -2.0 * a.re, 1.0])
    if domain == BALL:
        return SliceRational._over(num, np.array([1.0, -2.0 * a.re, a.normsq()]))
    return SliceRational._over(num, np.array([a.normsq(), 2.0 * a.re, 1.0]))


def blaschke_factor(domain, kind, a):
    """Rational form of a single Blaschke factor at a point or sphere.

    Ball point at a = 0 returns the convention B_0(p) = p (the zero
    prescription theorem assumes a != 0; this keeps the builder total).
    Sphere factors require a nonreal representative.
    """
    _check_domain(domain)
    a = as_quaternion(a)
    if kind not in ("point", "sphere"):
        raise DomainError("kind must be 'point' or 'sphere'")
    if kind == "sphere" and qdecompose(a).axis is None:
        raise DomainError("sphere factor needs a nonreal representative")
    if not inside(domain, a):
        raise DomainError(_OUTSIDE[domain] % (kind + " factors", "a"))
    if kind == "point":
        return _point_rational(domain, a)
    return _sphere_rational(domain, a)


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointFactor:
    a: Quaternion
    inverted: bool = False  # only for the a = 0 convention B_0(p) = p

    def rational(self, domain):
        if self.inverted:
            # star inverse of B_0(p) = p, i.e. p^{-*} = (p^2)^{-1} p
            return SliceRational(
                StarPoly.scalar([0.0, 1.0]), StarPoly.scalar([0.0, 0.0, 1.0])
            )
        return _point_rational(domain, self.a)

    def inverse(self, domain):
        if self.inverted:
            return PointFactor(self.a)
        if domain == BALL:
            if self.a.norm() == 0.0:
                return PointFactor(self.a, inverted=True)
            return PointFactor(self.a.conj().inverse())
        return PointFactor(-self.a.conj())

    def degree_contribution(self):
        return 1

    def to_json(self):
        return {"type": "point", "a": self.a.to_json(), "inverted": self.inverted}


@dataclass(frozen=True)
class SphereFactor:
    c: Quaternion

    def rational(self, domain):
        return _sphere_rational(domain, self.c)

    def inverse(self, domain):
        if domain == BALL:
            return SphereFactor(self.c.inverse())
        return SphereFactor(-self.c)

    def degree_contribution(self):
        return 2

    def to_json(self):
        return {"type": "sphere", "c": self.c.to_json()}


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------

@dataclass
class ZeroSet:
    """Finite prescribed zeros: points (a, n) and spheres (c, m)."""

    domain: str
    points: list = field(default_factory=list)
    spheres: list = field(default_factory=list)

    def violations(self):
        """The zero-set rules as (JSON pointer, message) pairs.

        Each entry lies in the domain, a sphere representative is nonreal,
        multiplicities are positive integers, and no entry shares a sphere
        with an earlier entry that kept the other rules.  Entries with
        point None (from_json could not read them) are skipped.
        """
        out = [] if self.domain in _DOMAINS else [("/domain", "must be one of ball|halfspace")]
        kept = []       # (entry, SphereRep) of the entries that kept every other rule
        for key, at, mult, noun, entries in (("points", "a", "n", "zeros", self.points),
                                             ("spheres", "c", "m", "spheres", self.spheres)):
            for idx, (q, count) in enumerate(entries):
                if q is None:
                    continue
                entry, q, found = "%s/%d" % (key, idx), as_quaternion(q), []
                rep = qdecompose(q)
                if count < 1 or int(count) != count:
                    found.append(("/%s/%s" % (entry, mult), "must be a positive integer"))
                if self.domain in _DOMAINS and not inside(self.domain, q):
                    found.append(("/%s/%s" % (entry, at), _OUTSIDE[self.domain] % (noun, at)))
                elif key == "spheres" and rep.axis is None:
                    found.append(("/%s/%s" % (entry, at), "sphere representatives must be nonreal"))
                if not found:
                    other = next((e for e, r in kept if r.same_sphere(rep)), None)
                    if other is None:
                        kept.append((entry, rep))
                    else:
                        found.append(("/%s/%s" % (entry, at), "shares a sphere with " + other))
                out += found
        return out

    def validate(self):
        """self, or DomainError naming the first violation's pointer."""
        out = self.violations()
        if out:
            raise DomainError("%s: %s" % out[0])
        return self

    def to_json(self):
        return {
            "domain": self.domain,
            "points": [{"a": as_quaternion(a).to_json(), "n": int(n)} for a, n in self.points],
            "spheres": [{"c": as_quaternion(c).to_json(), "m": int(m)} for c, m in self.spheres],
        }

    @classmethod
    def from_json(cls, v, obj, path):
        """The zero set at path of a config, or None with the violations
        recorded in v; a multiplicity defaults to 1."""
        if not isinstance(obj, dict):
            v.fail(path, "expected a ZeroSet object")
            return None
        before = len(v.violations)
        v.check_object(obj, path, ("domain", "points", "spheres"))
        parts = {}
        for key, at, mult in (("points", "a", "n"), ("spheres", "c", "m")):
            entries, parts[key] = obj.get(key, []), []
            if not isinstance(entries, list):
                v.fail("%s/%s" % (path, key), "expected an array")
                entries = []
            for idx, entry in enumerate(entries):
                epath = "%s/%s/%d" % (path, key, idx)
                comps = count = None
                if v.check_object(entry, epath, (at, mult)):
                    comps = v.quaternion(entry.get(at), "%s/%s" % (epath, at))
                    count = v.integer(entry.get(mult, 1), "%s/%s" % (epath, mult), minimum=1)
                # an entry that could not be read keeps its place, so later pointers hold
                q = None if comps is None or count is None else Quaternion(*comps)
                parts[key].append((q, count))
        zeros = cls(obj.get("domain"), parts["points"], parts["spheres"])
        for pointer, message in zeros.violations():
            v.fail(path + pointer, message)
        return zeros if len(v.violations) == before else None


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class FactoredProduct:
    """Ordered scalar Blaschke factors with a cached rational form and
    star inverse."""

    def __init__(self, domain, factors, rational=None):
        _check_domain(domain)
        self.domain = domain
        self.factors = tuple(factors)
        self._rational = rational
        self._inverse = None

    @classmethod
    def identity(cls, domain):
        return cls(domain, [], rational=SliceRational.one())

    @property
    def rational(self):
        if self._rational is None:
            acc = SliceRational.one()
            for f in self.factors:
                acc = acc.star(f.rational(self.domain))
            self._rational = acc
        return self._rational

    def inverse(self):
        """The reversed chain of factor inverses, built on the first call."""
        if self._inverse is None:
            inv = [f.inverse(self.domain) for f in reversed(self.factors)]
            self._inverse = FactoredProduct(self.domain, inv)
        return self._inverse

    def degree(self):
        return sum(f.degree_contribution() for f in self.factors)


def build_product(zeros):
    """Blaschke product vanishing exactly on a prescribed finite ZeroSet.

    Sphere factors come first as pointwise powers.  For each point a_r the
    chain factors are alpha = h(a_r)^{-1} a_r h(a_r) where h is the current
    residual (partial product with its a_r-chain extracted); every alpha
    stays on [a_r].  Infinite zero sets are out of scope.
    """
    zeros.validate()
    domain = zeros.domain
    factors = []
    acc = SliceRational.one()

    for c, m in zeros.spheres:
        c = as_quaternion(c)
        for _ in range(int(m)):
            fac = SphereFactor(c)
            factors.append(fac)
            acc = acc.star(fac.rational(domain))

    for a, n in zeros.points:
        a = as_quaternion(a)
        h = acc
        for _ in range(int(n)):
            # validate() put every entry on its own sphere, so h(a) != 0
            hv = h.eval_scalar(a)
            alpha = hv.inverse() * a * hv
            fac = PointFactor(alpha)
            factors.append(fac)
            frat = fac.rational(domain)
            acc = acc.star(frat)
            h = h.star(frat)
            # the residual keeps its own denominator, checked when it was built
            h = SliceRational._over(left_root_extract(h.num, a, 1e-8), h._dv)

    prod = FactoredProduct(domain, factors, rational=acc)
    for a, n in zeros.points:
        a = as_quaternion(a)
        val = prod.rational.eval_scalar(a)
        if val.norm() > PRODUCT_ZERO_TOL * max(1.0, prod.rational.num.eval_scale(a)):
            raise ConstructionError("built product misses prescribed zero %r" % (a,))
    return prod
