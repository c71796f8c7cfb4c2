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
from .qlinalg import QMatrix, herm_eigen_neg, complex_adjoint
from .quat import Quaternion, as_quaternion, qdecompose, same_sphere
from .starpoly import (
    SliceRational,
    StarPoly,
    left_root_extract,
    scalar_poly_times_matrix,
)

BALL = "ball"
HALFSPACE = "halfspace"
_DOMAINS = (BALL, HALFSPACE)


def _check_domain(domain):
    if domain not in _DOMAINS:
        raise DomainError("domain must be 'ball' or 'halfspace'")


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
    if kind == "point":
        if domain == BALL:
            if not a.norm() < 1.0:
                raise DomainError("ball point factor needs |a| < 1")
        elif a.re <= 0.0:
            raise DomainError("half-space point factor needs Re(a) > 0")
        return _point_rational(domain, a)
    if kind == "sphere":
        if qdecompose(a).axis is None:
            raise DomainError("sphere factor needs a nonreal representative")
        if domain == BALL and not a.norm() < 1.0:
            raise DomainError("ball sphere factor needs |a| < 1")
        if domain == HALFSPACE and a.re <= 0.0:
            raise DomainError("half-space sphere factor needs Re(a) > 0")
        return _sphere_rational(domain, a)
    raise DomainError("kind must be 'point' or 'sphere'")


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


@dataclass(frozen=True)
class PotapovFactor:
    """Matrix Blaschke-Potapov factor.

    kind 1 / 2:  I_r + (B_a(p) - 1) P   with P^2 = P, J P >= 0, |a| < 1
                 for the first kind and |a| > 1 for the second.
    kind 3 ball: I_r - k u (p + w0) * (p - w0)^{-*} u^* J, |w0| = 1,
                 u an r x 1 column with u^* J u = 0 and gain k > 0.
    kind 3 half-space: I_r - k u (p + w0)^{-*} u^* J with Re(w0) = 0.
    """

    kind: int
    J: QMatrix
    a: Quaternion = None
    P: QMatrix = None
    u: QMatrix = None
    k: float = 0.0
    w0: Quaternion = None
    inverted: bool = False

    @property
    def size(self):
        return self.J.rows

    def rational(self, domain):
        n = self.size
        eye = QMatrix.eye(n)
        if self.kind in (1, 2):
            fac = _point_rational(domain, self.a)
            den = fac.den
            diff = fac.num - scalar_poly_times_matrix(den, QMatrix.scalar(1.0))
            num = scalar_poly_times_matrix(den, eye) + scalar_poly_times_matrix(diff, self.P)
            return SliceRational(num, den)
        gain = -self.k if self.inverted else self.k
        if domain == BALL:
            # f = (p + w0) * (p - w0)^{-*}; |w0| = 1 makes sym(p - w0) real
            w = self.w0
            den = StarPoly.scalar([w.normsq(), -2.0 * w.re, 1.0])
            numf = StarPoly.scalar([-(w * w.conj()), w - w.conj(), 1.0])
        else:
            w = self.w0
            den = StarPoly.scalar([w.normsq(), 2.0 * w.re, 1.0])
            numf = StarPoly.scalar([w.conj(), 1.0])
        core = self.u @ self.u.adjoint() @ self.J
        num = scalar_poly_times_matrix(den, eye) - scalar_poly_times_matrix(numf, core).scale(gain)
        return SliceRational(num, den)

    def inverse(self, domain):
        if self.kind == 1:
            return PotapovFactor(kind=2, J=self.J, a=self.a.conj().inverse(), P=self.P)
        if self.kind == 2:
            return PotapovFactor(kind=1, J=self.J, a=self.a.conj().inverse(), P=self.P)
        return PotapovFactor(
            kind=3, J=self.J, u=self.u, k=self.k, w0=self.w0, inverted=not self.inverted
        )

    def degree_contribution(self):
        if self.kind in (1, 2):
            sv = np.linalg.svd(complex_adjoint(self.P), compute_uv=False)
            return int(round(np.sum(sv > 1e-8 * max(1.0, sv[0])) / 2.0))
        return 1

    def to_json(self):
        out = {"type": "potapov", "kind": self.kind, "J": self.J.to_json()}
        if self.kind in (1, 2):
            out["a"] = self.a.to_json()
            out["P"] = self.P.to_json()
        else:
            out["u"] = self.u.to_json()
            out["k"] = self.k
            out["w0"] = self.w0.to_json()
            out["inverted"] = self.inverted
        return out


def potapov_factor(domain, kind, *, a=None, P=None, J=None, u=None, k=None, w0=None):
    """Validated single Blaschke-Potapov factor wrapped as a product."""
    _check_domain(domain)
    if J is None:
        raise DomainError("potapov factor needs a signature matrix J")
    n = J.rows
    scale = max(1.0, J.norm())
    if J.herm_residual() > 1e-12 * scale or (J @ J - QMatrix.eye(n)).norm() > 1e-12 * scale:
        raise DomainError("J must be a signature matrix")
    if kind in (1, 2):
        a = as_quaternion(a)
        if P is None or P.shape != (n, n):
            raise DomainError("kinds 1 and 2 need a projection P of matching size")
        if (P @ P - P).norm() > 1e-10 * max(1.0, P.norm()):
            raise DomainError("projection violated: P^2 != P")
        jp = J @ P
        if jp.herm_residual() > 1e-10 * max(1.0, jp.norm()):
            raise DomainError("positivity violated: JP is not Hermitian")
        _, neg = herm_eigen_neg(QMatrix(0.5 * (jp.data + jp.adjoint().data)))
        if neg:
            raise DomainError("positivity violated: JP has negative eigenvalues")
        if kind == 1 and not a.norm() < 1.0:
            raise DomainError("first kind needs |a| < 1")
        if kind == 2 and not a.norm() > 1.0:
            raise DomainError("second kind needs |a| > 1")
        factor = PotapovFactor(kind=kind, J=J, a=a, P=P)
    elif kind == 3:
        w0 = as_quaternion(w0)
        if u is None or u.shape != (n, 1):
            raise DomainError("third kind needs a column vector u of length r")
        neutral = (u.adjoint() @ J @ u).as_quaternion()
        if neutral.norm() > 1e-10 * max(1.0, u.norm() ** 2):
            raise DomainError("neutrality violated: u^* J u != 0")
        if k is None or not k > 0.0:
            raise DomainError("gain violated: k must be positive")
        if domain == BALL and abs(w0.norm() - 1.0) > 1e-12:
            raise DomainError("ball third kind needs |w0| = 1")
        if domain == HALFSPACE and abs(w0.re) > 1e-12 * max(1.0, w0.norm()):
            raise DomainError("half-space third kind needs Re(w0) = 0")
        factor = PotapovFactor(kind=3, J=J, u=u, k=float(k), w0=w0)
    else:
        raise DomainError("potapov kind must be 1, 2, or 3")
    return FactoredProduct(domain, [factor], size=n)


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------

@dataclass
class ZeroSet:
    """Finite prescribed zeros: points (a, n) and spheres (c, m)."""

    domain: str
    points: list = field(default_factory=list)
    spheres: list = field(default_factory=list)

    def validate(self):
        _check_domain(self.domain)
        reps = []
        for a, n in self.points:
            a = as_quaternion(a)
            if n < 1 or int(n) != n:
                raise DomainError("point multiplicities are positive integers")
            if self.domain == BALL and not a.norm() < 1.0:
                raise DomainError("ball zeros need |a| < 1 (got %.4f)" % a.norm())
            if self.domain == HALFSPACE and not a.re > 0.0:
                raise DomainError("half-space zeros need Re(a) > 0")
            reps.append(qdecompose(a))
        sreps = []
        for c, m in self.spheres:
            c = as_quaternion(c)
            if m < 1 or int(m) != m:
                raise DomainError("sphere multiplicities are positive integers")
            if qdecompose(c).axis is None:
                raise DomainError("sphere representatives must be nonreal")
            if self.domain == BALL and not c.norm() < 1.0:
                raise DomainError("ball spheres need |c| < 1")
            if self.domain == HALFSPACE and not c.re > 0.0:
                raise DomainError("half-space spheres need Re(c) > 0")
            sreps.append(qdecompose(c))
        allreps = reps + sreps
        for i in range(len(allreps)):
            for j in range(i + 1, len(allreps)):
                if allreps[i].same_sphere(allreps[j]):
                    raise DomainError(
                        "prescribed zeros %d and %d share a sphere" % (i, j)
                    )
        return self

    def to_json(self):
        return {
            "domain": self.domain,
            "points": [{"a": as_quaternion(a).to_json(), "n": int(n)} for a, n in self.points],
            "spheres": [{"c": as_quaternion(c).to_json(), "m": int(m)} for c, m in self.spheres],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise DomainError("ZeroSet JSON must be an object")
        parts = {}
        for key, at, mult in (("points", "a", "n"), ("spheres", "c", "m")):
            entries = obj.get(key, [])
            if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
                raise DomainError("ZeroSet %s must be an array of objects" % key)
            parts[key] = []
            for e in entries:
                count = e.get(mult)
                if isinstance(count, bool) or not isinstance(count, int):
                    raise DomainError("ZeroSet %s need an integer %r" % (key, mult))
                parts[key].append((Quaternion.from_json(e.get(at)), count))
        return cls(obj.get("domain"), parts["points"], parts["spheres"]).validate()


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class FactoredProduct:
    """Ordered Blaschke/Potapov factors with a cached rational form and
    star inverse."""

    def __init__(self, domain, factors, size=1, rational=None):
        _check_domain(domain)
        self.domain = domain
        self.factors = tuple(factors)
        self.size = size
        self._rational = rational
        self._inverse = None

    @classmethod
    def identity(cls, domain, size=1):
        return cls(domain, [], size=size, rational=SliceRational.one(size))

    @property
    def rational(self):
        if self._rational is None:
            acc = SliceRational.one(self.size)
            for f in self.factors:
                fr = f.rational(self.domain)
                if fr.shape == (1, 1) and self.size > 1:
                    fr = SliceRational(
                        scalar_poly_times_matrix(fr.num, QMatrix.eye(self.size)), fr.den
                    )
                acc = acc.star(fr)
            self._rational = acc
        return self._rational

    def eval_many(self, points):
        return self.rational.eval_many(points)

    def inverse(self):
        """The reversed chain of factor inverses, built on the first call."""
        if self._inverse is None:
            inv = [f.inverse(self.domain) for f in reversed(self.factors)]
            self._inverse = FactoredProduct(self.domain, inv, size=self.size)
        return self._inverse

    def degree(self):
        return sum(f.degree_contribution() for f in self.factors)

    def to_json(self):
        return {
            "domain": self.domain,
            "size": self.size,
            "factors": [f.to_json() for f in self.factors],
            "rational": self.rational.to_json(),
        }


def build_product(zeros, zero_tol=1e-10):
    """Blaschke product vanishing exactly on a prescribed finite ZeroSet.

    Sphere factors come first as pointwise powers.  For each point a_r the
    chain factors are alpha = h(a_r)^{-1} a_r h(a_r) where h is the current
    residual (partial product with its a_r-chain extracted); every alpha
    stays on [a_r].  Infinite zero sets are out of scope.
    """
    zeros.validate()
    domain = zeros.domain
    factors = []
    acc = SliceRational.one(1)

    for c, m in zeros.spheres:
        c = as_quaternion(c)
        for _ in range(int(m)):
            factors.append(SphereFactor(c))
            acc = acc.star(blaschke_factor(domain, "sphere", c))

    for a, n in zeros.points:
        a = as_quaternion(a)
        h = acc
        for jdx in range(int(n)):
            hv = h.eval_scalar(a)
            if hv.norm() <= 1e-12 * max(1.0, h.num.eval_scale(a)):
                raise ConstructionError(
                    "partial product already vanishes at %r (sphere-distinctness "
                    "violated or repeated zero)" % (a,)
                )
            alpha = hv.inverse() * a * hv
            if not same_sphere(alpha, a, 1e-9):
                raise ConstructionError("chain update left the sphere of %r" % (a,))
            fac = PointFactor(alpha)
            factors.append(fac)
            frat = fac.rational(domain)
            acc = acc.star(frat)
            h = h.star(frat)
            # the residual keeps its own denominator, checked when it was built
            h = SliceRational._over(left_root_extract(h.num, a, 1e-8), h._dv)

    prod = FactoredProduct(domain, factors, size=1, rational=acc)
    for a, n in zeros.points:
        a = as_quaternion(a)
        val = prod.rational.eval_scalar(a)
        if val.norm() > zero_tol * max(1.0, prod.rational.num.eval_scale(a)):
            raise ConstructionError("built product misses prescribed zero %r" % (a,))
    return prod
