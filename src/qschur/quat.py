"""Quaternion scalars, sphere decomposition, and seeded point sampling.

A quaternion p = x0 + i x1 + j x2 + k x3 holds its components as four
Python floats, and its arithmetic is closed-form float arithmetic;
as_array() gives a read-only (4,) float64 array for array code, where
quaternions keep their (..., 4) storage (see _accel).  The unit
relations are i^2 = j^2 = k^2 = -1 and ij = -ji = k, jk = -kj = i,
ki = -ik = j.

Every nonreal p = x + I y (y > 0, I a purely imaginary unit) sweeps the
2-sphere [p] = {x + J y : J imaginary unit}, which is determined by the
pair (x, y) alone.  All randomness flows through explicitly passed
``numpy.random.Generator`` handles; there is no module-level RNG state.
"""

import math
import sys

import numpy as np

from .errors import DomainError

# a point counts as real when its imaginary modulus is below this times
# max(1, |p|); sphere membership and axis extraction are singular there
REAL_AXIS_RTOL = 1e-13
# the smallest normal float; a normsq below it has lost bits to underflow
_NORMAL_MIN = sys.float_info.min


class Quaternion:
    """Immutable quaternion scalar with closed-form arithmetic on floats."""

    __slots__ = ("_x0", "_x1", "_x2", "_x3")

    def __init__(self, x0=0.0, x1=0.0, x2=0.0, x3=0.0):
        self._x0 = float(x0)
        self._x1 = float(x1)
        self._x2 = float(x2)
        self._x3 = float(x3)

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (4,):
            raise DomainError("quaternion array must have shape (4,), got %s" % (arr.shape,))
        return cls(*arr.tolist())

    @classmethod
    def from_real(cls, x):
        return cls(x, 0.0, 0.0, 0.0)

    # -- components ---------------------------------------------------------

    @property
    def x0(self):
        return self._x0

    @property
    def x1(self):
        return self._x1

    @property
    def x2(self):
        return self._x2

    @property
    def x3(self):
        return self._x3

    @property
    def re(self):
        return self._x0

    def as_array(self):
        """Read-only (4,) float64 array of the components."""
        a = np.array((self._x0, self._x1, self._x2, self._x3))
        a.flags.writeable = False
        return a

    # -- algebra ------------------------------------------------------------

    def conj(self):
        return Quaternion(self._x0, -self._x1, -self._x2, -self._x3)

    def normsq(self):
        return self._x0 * self._x0 + self._x1 * self._x1 + self._x2 * self._x2 + self._x3 * self._x3

    def norm(self):
        # hypot, unlike the square root of normsq, neither under- nor overflows
        return math.hypot(self._x0, self._x1, self._x2, self._x3)

    __abs__ = norm

    def imag_modulus(self):
        return math.hypot(self._x1, self._x2, self._x3)

    def inverse(self):
        n2 = self.normsq()
        if _NORMAL_MIN <= n2 < math.inf:
            return Quaternion(self._x0 / n2, -self._x1 / n2, -self._x2 / n2, -self._x3 / n2)
        # normsq under- or overflowed: divide by the largest component first
        top = max(abs(self._x0), abs(self._x1), abs(self._x2), abs(self._x3))
        if top == 0.0:
            raise DomainError("zero quaternion has no inverse")
        s0, s1, s2, s3 = self._x0 / top, self._x1 / top, self._x2 / top, self._x3 / top
        m2 = s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3
        return Quaternion(s0 / m2 / top, -s1 / m2 / top, -s2 / m2 / top, -s3 / m2 / top)

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self._x0 + other._x0, self._x1 + other._x1,
                          self._x2 + other._x2, self._x3 + other._x3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self._x0 - other._x0, self._x1 - other._x1,
                          self._x2 - other._x2, self._x3 - other._x3)

    def __neg__(self):
        return Quaternion(-self._x0, -self._x1, -self._x2, -self._x3)

    def __mul__(self, other):
        other = _coerce(other)
        a0, a1, a2, a3 = self._x0, self._x1, self._x2, self._x3
        b0, b1, b2, b3 = other._x0, other._x1, other._x2, other._x3
        # grouped as the complex-pair product of _accel.qmul
        return Quaternion((a0 * b0 - a1 * b1) - (a2 * b2 + a3 * b3),
                          (a0 * b1 + a1 * b0) - (a3 * b2 - a2 * b3),
                          (a0 * b2 - a1 * b3) + (a2 * b0 + a3 * b1),
                          (a0 * b3 + a1 * b2) + (a3 * b0 - a2 * b1))

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            d = float(other)
            return Quaternion(self._x0 / d, self._x1 / d, self._x2 / d, self._x3 / d)
        return self * _coerce(other).inverse()

    def isclose(self, other, tol=1e-12):
        other = _coerce(other)
        scale = max(1.0, self.norm(), other.norm())
        dev = max(abs(self._x0 - other._x0), abs(self._x1 - other._x1),
                  abs(self._x2 - other._x2), abs(self._x3 - other._x3))
        return dev <= tol * scale

    def __repr__(self):
        return "Quaternion(%r, %r, %r, %r)" % (self._x0, self._x1, self._x2, self._x3)

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        """Array encoding [x0, x1, x2, x3] of finite doubles, read by Validator.quaternion."""
        return [self._x0, self._x1, self._x2, self._x3]


def _coerce(v):
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion.from_real(v)
    raise TypeError("cannot interpret %r as a quaternion" % (v,))


def as_quaternion(x):
    """x as a Quaternion: a Quaternion passes through, a real number is lifted."""
    return x if isinstance(x, Quaternion) else Quaternion.from_real(x)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


class ImaginaryUnit:
    """Purely imaginary unit quaternion; satisfies I^2 = -1 within 1e-14."""

    __slots__ = ("_q",)

    def __init__(self, direction):
        q = direction if isinstance(direction, Quaternion) else Quaternion.from_array(direction)
        if abs(q.re) > 1e-13 * max(1.0, q.norm()):
            raise DomainError("imaginary unit must have zero real part")
        n = q.imag_modulus()
        if n == 0.0:
            raise DomainError("imaginary unit needs a nonzero direction")
        self._q = Quaternion(0.0, q.x1 / n, q.x2 / n, q.x3 / n)

    @property
    def q(self):
        return self._q

    def __repr__(self):
        return "ImaginaryUnit(%r)" % (self._q,)


class SphereRep:
    """Sphere coordinates (x, y, axis) of p = x + axis*y with y >= 0.

    axis is None exactly when p is real; the sphere [p] is determined by
    (x, y) alone.
    """

    __slots__ = ("x", "y", "axis")

    def __init__(self, x, y, axis=None):
        self.x = float(x)
        self.y = float(y)
        self.axis = axis

    def same_sphere(self, other, tol=1e-12):
        scale = max(1.0, abs(self.x), abs(self.y), abs(other.x), abs(other.y))
        return abs(self.x - other.x) <= tol * scale and abs(self.y - other.y) <= tol * scale

    def __repr__(self):
        return "SphereRep(x=%r, y=%r, axis=%r)" % (self.x, self.y, self.axis)


def qdecompose(p, rtol=REAL_AXIS_RTOL):
    """Split p into SphereRep(x, y, axis); axis absent for real p."""
    p = _coerce(p)
    x = p.re
    y = p.imag_modulus()
    if y < rtol * max(1.0, p.norm()):
        return SphereRep(x, 0.0)
    axis = ImaginaryUnit(Quaternion(0.0, p.x1, p.x2, p.x3))
    return SphereRep(x, y, axis)


def same_sphere(p, q, tol=1e-12):
    """True when p and q lie on the same 2-sphere (equal x and y)."""
    return qdecompose(p).same_sphere(qdecompose(q), tol)


# ---------------------------------------------------------------------------
# seeded sampling; every caller passes its own Generator
# ---------------------------------------------------------------------------

def sample_imaginary_unit(rng):
    """Uniform random axis on the 2-sphere of imaginary units."""
    while True:
        v = rng.normal(size=3)
        n = np.sqrt(np.dot(v, v))
        if n > 1e-8:
            return ImaginaryUnit(Quaternion(0.0, v[0] / n, v[1] / n, v[2] / n))


def sample_ball_point(rng, radius=0.9):
    """Uniform random quaternion in the closed 4-ball of the given radius."""
    return Quaternion.from_array(sample_ball_points(rng, 1, radius)[0])


def sample_ball_points(rng, count, radius=0.9):
    """count uniform points of the closed 4-ball as a (count, 4) array,
    drawn from rng exactly as count calls of sample_ball_point draw them."""
    rows = np.empty((count, 4))
    scales = np.empty(count)
    for i in range(count):
        v = rows[i]
        while True:
            rng.standard_normal(out=v)
            n = math.sqrt(v.dot(v))
            if n > 1e-8:
                break
        scales[i] = radius * rng.random() ** 0.25 / n
    return rows * scales[:, None]


def sample_halfspace_point(rng, re_low=0.1, re_high=2.0, im_radius=2.0):
    """Random point with Re(p) in (re_low, re_high), imaginary part in a 3-ball."""
    x0 = rng.uniform(re_low, re_high)
    v = rng.normal(size=3)
    n = np.sqrt(np.dot(v, v))
    if n < 1e-12:
        v, n = np.array([1.0, 0.0, 0.0]), 1.0
    r = im_radius * rng.random() ** (1.0 / 3.0)
    v = v * (r / n)
    return Quaternion(x0, v[0], v[1], v[2])
