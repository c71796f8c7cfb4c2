"""Matrix polynomials and slice-rational functions under the star product.

A StarPoly stores coefficients on the right of the powers,

    f(p) = sum_n p^n f_n,      f_n in H^{r x s},

so the star product is plain coefficient convolution,
(f * g)_k = sum_{n+m=k} f_n g_m.  Left evaluation uses the splitting
formula: for p = x + I y (y >= 0, I an imaginary unit) and z = x + i y,
p^n = Re z^n + I Im z^n, so f(p) = Re F(z) + I Im F(z) with the
complex-slice function F(z) = sum_n z^n f_n, whose real and imaginary
parts are quaternion matrices.  Arrays of points go through eval_many,
one complex Vandermonde product; the value of a scalar function at a
single point (eval_scalar) uses the same formula on Python complex
numbers, one Horner sum per quaternion component.  For scalar f, g the
pointwise law  (f * g)(p) = f(p) g(f(p)^{-1} p f(p))  (with value 0 when
f(p) = 0) ties the star product back to ordinary products.

A SliceRational is a pair (num, den) with a matrix numerator and a 1x1
denominator with *real* coefficients.  Real-coefficient scalars are
central for the star product and commute with p, so the value is simply
den(p)^{-1} num(p); this representation is closed under star products
and covers every factor used downstream (denominators always arise from
symmetrizations, which are real).  The denominator is held as its real
coefficient vector: realness, the trim and the zero test are checked
once, where a denominator arrives as a StarPoly (the constructor, hence
JSON), and products and sums of real vectors stay real by type.  The
Taylor coefficients at 0 come in closed form: with g the real series of
1/den, the coefficients of den^{-1} num are the convolution g * num, and
g comes from a scalar recurrence on the real denominator coefficients.
"""

import numpy as np

from . import _accel
from .errors import (
    DomainError,
    ExpansionError,
    NotARootError,
    PoleError,
    ShapeError,
)
from .qlinalg import QMatrix, qmatmul_arr
from .quat import _NORMAL_MIN, I, ImaginaryUnit, Quaternion, as_quaternion, qdecompose

# imaginary residue allowed when a polynomial claims real coefficients
REAL_COEFF_RTOL = 1e-13
# default tolerance for root and divisibility decisions, relative to scale
ROOT_RTOL = 1e-10
# a denominator value at most this times its magnitude scale is a pole
POLE_RTOL = 1e-12
# the real coefficient vector of the denominator 1
_ONE = np.ones(1)
_ONE.flags.writeable = False


class StarPoly:
    """Polynomial with quaternion-matrix coefficients under the star product."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray):
            c = np.array(coeffs, dtype=np.float64)
        else:
            blocks = [b.data if isinstance(b, QMatrix) else np.asarray(b) for b in coeffs]
            c = np.array(blocks, dtype=np.float64)
        if c.ndim != 4 or c.shape[3] != 4:
            raise ShapeError("StarPoly coefficients must have shape (deg+1, r, s, 4)")
        if c.shape[0] == 0:
            c = np.zeros((1,) + c.shape[1:])
        c.flags.writeable = False
        self._c = c

    # -- constructors --------------------------------------------------------

    @classmethod
    def scalar(cls, values):
        """1x1 polynomial from a list of Quaternion or real coefficients."""
        rows = [(q.x0, q.x1, q.x2, q.x3) for q in map(as_quaternion, values)]
        return cls(np.array(rows).reshape(len(rows), 1, 1, 4))

    @classmethod
    def real(cls, values):
        """1x1 polynomial with the real coefficients values."""
        v = np.asarray(values, dtype=np.float64)
        c = np.zeros((v.size, 1, 1, 4))
        c[:, 0, 0, 0] = v
        return cls(c)

    @classmethod
    def constant(cls, block):
        block = block if isinstance(block, QMatrix) else QMatrix.scalar(block)
        return cls(block.data[None, ...])

    @classmethod
    def one(cls, n=1):
        return cls.constant(QMatrix.eye(n))

    @classmethod
    def zero(cls, rows=1, cols=1):
        return cls(np.zeros((1, rows, cols, 4)))

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self):
        return self._c.shape[0] - 1

    @property
    def shape(self):
        return (self._c.shape[1], self._c.shape[2])

    def coeff(self, n):
        if n < 0 or n > self.degree:
            return QMatrix.zeros(*self.shape)
        return QMatrix(self._c[n])

    def coeff_scale(self):
        """Largest coefficient Frobenius norm (at least a tiny floor)."""
        return float(max(np.max(_coeff_moduli(self._c)), 1e-300))

    def trim(self, rtol=0.0):
        """Drop trailing coefficients of norm <= rtol * scale."""
        mags = _coeff_moduli(self._c)
        cut = rtol * self.coeff_scale()
        d = self._c.shape[0] - 1
        while d > 0 and mags[d] <= cut:
            d -= 1
        return StarPoly(self._c[: d + 1])

    def is_zero(self, rtol=1e-14):
        return float(np.max(np.abs(self._c))) <= rtol

    def is_scalar(self):
        return self.shape == (1, 1)

    def is_real_coeff(self, rtol=REAL_COEFF_RTOL):
        resid = float(np.max(np.abs(self._c[..., 1:])))
        return resid <= rtol * self.coeff_scale()

    def real_vector(self):
        """Real coefficient list c_0..c_d for a real scalar polynomial."""
        if not self.is_scalar():
            raise DomainError("need a real scalar polynomial")
        if not self.is_real_coeff():
            raise DomainError("polynomial does not have real coefficients")
        return np.array(self._c[:, 0, 0, 0])

    # -- arithmetic ------------------------------------------------------------

    def _padded(self, d):
        if self.degree >= d:
            return self._c
        pad = np.zeros((d + 1,) + self._c.shape[1:])
        pad[: self._c.shape[0]] = self._c
        return pad

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeError("polynomial shapes differ")
        d = max(self.degree, other.degree)
        return StarPoly(self._padded(d) + other._padded(d))

    def __neg__(self):
        return StarPoly(-self._c)

    def star(self, other):
        """Star product by coefficient convolution; degrees add."""
        if isinstance(other, SliceRational):
            return SliceRational(self.star(other.num), other.den)
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                "star product mismatch %s * %s" % (self.shape, other.shape)
            )
        df, dg = self.degree, other.degree
        prod = qmatmul_arr(self._c[:, None], other._c[None, :])
        out = np.zeros((df + dg + 1, self.shape[0], other.shape[1], 4))
        # n ascending adds the terms f_n g_(k-n) of each out[k] in increasing
        # n, the order of the double-loop reference in the tests
        for n in range(df + 1):
            out[n : n + dg + 1] += prod[n]
        return StarPoly(out)

    # -- evaluation -------------------------------------------------------------

    def eval_many(self, points):
        """Batch left evaluation; points is an (B, 4) array."""
        unit, z = slice_split(points)
        return slice_join(unit, self.eval_slice(_powers(z, self.degree)))

    def eval_slice(self, powers):
        """F(z) = sum_n z^n f_n from the powers z^n, an (B, d + 1) complex
        array with d >= deg f, as a complex (B, r, s, 4) array."""
        c = self._c
        # einsum, unlike matmul, calls no BLAS: the first level-3 call of a
        # process adds about 0.2 MB of resident memory
        vals = np.einsum("bn,nk->bk", powers[:, : c.shape[0]], c.reshape(c.shape[0], -1))
        return vals.reshape((-1,) + c.shape[1:])

    def eval_scalar(self, p):
        """Value sum_n p^n f_n of a 1x1 polynomial at one point, as a Quaternion
        (see SliceRational.eval_scalar)."""
        return SliceRational._over(self, _ONE).eval_scalar(p)

    def eval_scale(self, p):
        """Magnitude scale sum_n |f_n| max(1,|p|)^n used for zero tests."""
        p = as_quaternion(p)
        base = max(1.0, p.norm())
        mags = _coeff_moduli(self._c)
        return float(sum(m * base**n for n, m in enumerate(mags)) + 1e-300)

    # -- JSON ---------------------------------------------------------------------

    def to_json(self):
        return {
            "shape": [self.shape[0], self.shape[1]],
            "coeffs": [self.coeff(n).to_json() for n in range(self.degree + 1)],
        }

    @classmethod
    def from_json(cls, v, obj, path):
        """The polynomial at path of a config, or None with the violations recorded in v."""
        if not v.check_object(obj, path, ("shape", "coeffs")):
            return None
        shape, coeffs = obj.get("shape"), obj.get("coeffs")
        if not isinstance(shape, list) or len(shape) != 2:
            v.fail(path + "/shape", "expected an array [rows, cols]")
            shape = None
        if not isinstance(coeffs, list) or not coeffs:
            v.fail(path + "/coeffs", "expected a non-empty array")
            return None
        blocks = [QMatrix.from_json(v, c, "%s/coeffs/%d" % (path, idx))
                  for idx, c in enumerate(coeffs)]
        if shape is None or None in blocks:
            return None
        for idx, b in enumerate(blocks):
            if b.shape != tuple(shape):
                v.fail("%s/coeffs/%d" % (path, idx),
                       "coefficient shape disagrees with declared shape")
                return None
        return cls(blocks)

    def __repr__(self):
        return "StarPoly(shape=%dx%d, degree=%d)" % (self.shape + (self.degree,))


# -------------------------------------------------------------------------------
# the complex slice
# -------------------------------------------------------------------------------

def slice_split(points):
    """Points p = x + I y of an (B, 4) array as (units I, complex z = x + i y).

    y >= 0, and the units form an (B, 4) array of imaginary quaternions;
    a real point gets the unit i.
    """
    pts = np.asarray(points, dtype=np.float64)
    im = pts[:, 1:]
    y = np.sqrt(np.einsum("ij,ij->i", im, im))
    unit = np.zeros_like(pts)
    np.divide(im, y[:, None], out=unit[:, 1:], where=y[:, None] > 0.0)
    if not y.all():
        unit[y == 0.0, 1] = 1.0
    return unit, pts[:, 0] + 1j * y


def slice_join(unit, values):
    """Re F + I Im F for complex-slice matrix values F of shape (B, r, s, 4)."""
    return _accel.qmul(unit[:, None, None, :], values.imag) + values.real


def _powers(z, d):
    """z^n for n = 0..d as an (B, d + 1) complex array."""
    out = np.empty((z.shape[0], d + 1), dtype=np.complex128)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1, out=out)




def _coeff_moduli(c):
    """Frobenius norms of the coefficients c[n] of a (d + 1, r, s, 4) array.

    A squared sum that is not a normal float has lost bits to underflow
    or overflowed; those coefficients are divided by their largest
    component before squaring."""
    with np.errstate(over="ignore"):
        sq = np.sum(c * c, axis=(1, 2, 3))
    mags = np.sqrt(sq)
    for n, v in enumerate(sq.tolist()):
        if not _NORMAL_MIN <= v < np.inf:
            top = np.max(np.abs(c[n]), initial=0.0)
            if 0.0 < top < np.inf:
                mags[n] = top * np.sqrt(np.sum(np.square(c[n] / top)))
    return mags


def _magnitude_scales(mags, points):
    """sum_n mags[n] max(1, |p|)^n at every point of an (B, 4) array."""
    base = np.maximum(1.0, np.sqrt(np.sum(points * points, axis=-1)))
    return np.sum(mags * base[:, None] ** np.arange(mags.size), axis=1) + 1e-300


# -------------------------------------------------------------------------------
# star-algebra operations
# -------------------------------------------------------------------------------

def left_root_extract(f, a, tol=ROOT_RTOL):
    """Factor f = (p - a) * g when f(a) = 0; returns g of one lower degree.

    Coefficient recursion from the top degree down:
    g_{d-1} = f_d, then g_{k-1} = f_k + a g_k.
    """
    if not f.is_scalar():
        raise ShapeError("root extraction works on scalar polynomials")
    a = as_quaternion(a)
    val = f.eval_scalar(a)
    if val.norm() > tol * f.eval_scale(a):
        raise NotARootError(
            "f(a) = %r is not zero within tolerance at a = %r" % (val, a)
        )
    d = f.degree
    if d == 0:
        # constant vanishing at a is the zero polynomial
        return StarPoly.zero()
    rows = f.coeffs[:, 0, 0].tolist()
    g = [None] * d
    g[d - 1] = Quaternion(*rows[d])
    for k in range(d - 1, 0, -1):
        g[k - 1] = Quaternion(*rows[k]) + a * g[k]
    return StarPoly.scalar(g)


def sphere_poly(a):
    """Real quadratic p^2 - 2 Re(a) p + |a|^2 vanishing on the sphere [a]."""
    a = as_quaternion(a)
    return StarPoly.scalar([a.normsq(), -2.0 * a.re, 1.0])


def scalar_poly_times_matrix(poly, m):
    """Scalar polynomial times a constant matrix: coefficients c_n M."""
    if not poly.is_scalar():
        raise ShapeError("need a scalar polynomial")
    md = m.data if isinstance(m, QMatrix) else np.asarray(m)
    out = _accel.qmul(poly.coeffs[:, 0, 0, None, None, :], md[None])
    return StarPoly(out)


def mul_real_poly(mp, w):
    """Matrix polynomial times the central real scalar polynomial with
    coefficient vector w."""
    out = np.zeros((mp.degree + len(w),) + mp.coeffs.shape[1:])
    for n, wn in enumerate(w):
        if wn != 0.0:
            out[n : n + mp.degree + 1] += wn * mp.coeffs
    return StarPoly(out)


def _real_star(a, b):
    """Product of the real polynomials with coefficient vectors a and b,
    summed in n ascending like StarPoly.star, so with the same bits."""
    out = np.zeros(a.size + b.size - 1)
    for n in range(a.size):
        out[n : n + b.size] += a[n] * b
    return out


def _real_den(dv, rtol=1e-15, zero="denominator is identically zero"):
    """A real denominator vector without its trailing coefficients of
    modulus <= rtol * max |dv|; DomainError(zero) when it vanishes."""
    mags = np.abs(dv)
    top = float(mags.max())
    cut = rtol * max(top, 1e-300)
    d = dv.size - 1
    while d > 0 and mags[d] <= cut:
        d -= 1
    if top <= 1e-14:
        raise DomainError(zero)
    return dv[: d + 1]


def divmod_real(f, d):
    """Polynomial division of f by a real scalar polynomial d.

    Real-coefficient scalars are central, so left and right division agree.
    Returns (quotient, remainder) with deg(remainder) < deg(d).
    """
    dv = d.real_vector()
    dd = len(dv) - 1
    while dd > 0 and dv[dd] == 0.0:
        dd -= 1
    lead = dv[dd]
    if lead == 0.0:
        raise DomainError("division by the zero polynomial")
    rem = np.array(f.coeffs)
    df = rem.shape[0] - 1
    if df < dd:
        return StarPoly.zero(*f.shape), StarPoly(rem)
    qc = np.zeros((df - dd + 1,) + rem.shape[1:])
    for k in range(df, dd - 1, -1):
        c = rem[k] / lead
        qc[k - dd] = c
        for i in range(dd + 1):
            rem[k - dd + i] -= dv[i] * c
    return StarPoly(qc), StarPoly(rem[:dd] if dd > 0 else rem[:1])


def _slice_pair_values(f, x, y, axis):
    """Values (f(x+Iy), f(x-Iy)) on the complex slice spanned by axis."""
    zp = Quaternion.from_real(x) + axis.q * y
    zm = Quaternion.from_real(x) - axis.q * y
    return f.eval_scalar(zp), f.eval_scalar(zm)


def find_sphere_zero(f, x, y, tol=ROOT_RTOL):
    """Zero of a scalar polynomial on the sphere (x, y), or None.

    On [p] the structure formula gives f(x+Jy) = alpha + J beta with slice
    data alpha, beta; a zero needs J = -alpha beta^{-1} to be an imaginary
    unit, and the candidate is confirmed by direct evaluation.  Returns the
    string "sphere" when f vanishes identically on the sphere.
    """
    axis = ImaginaryUnit(I)
    vp, vm = _slice_pair_values(f, x, y, axis)
    alpha = (vp + vm) / 2.0
    beta = (axis.q * (vm - vp)) / 2.0
    probe = Quaternion.from_real(x) + axis.q * y
    scale = f.eval_scale(probe)
    if beta.norm() <= tol * scale:
        if alpha.norm() <= tol * scale:
            return "sphere"
        return None
    jcand = -(alpha * beta.inverse())
    if abs(jcand.re) > 1e-6 or abs(jcand.norm() - 1.0) > 1e-6:
        return None
    jn = Quaternion(0.0, jcand.x1, jcand.x2, jcand.x3)
    m = jn.norm()
    if m == 0.0:
        return None
    q = Quaternion.from_real(x) + jn * (y / m)
    if f.eval_scalar(q).norm() <= 10.0 * tol * scale:
        return q
    return None


def zero_multiplicity(f, a, tol=ROOT_RTOL):
    """Kind and count of the zero of a scalar polynomial at a (or at [a]).

    Spherical zeros are powers of p^2 - 2 Re(a) p + |a|^2 dividing f; the
    count stops at the first non-dividing power.  Point zeros are counted
    by successive left root extraction, following the chain of zeros on
    [a] while it stays there.
    """
    if not f.is_scalar():
        raise ShapeError("zero multiplicity works on scalar polynomials")
    a = as_quaternion(a)
    f = f.trim(1e-13)
    rep = qdecompose(a)

    m = 0
    h = f
    if rep.axis is not None:
        sp = sphere_poly(a)
        while h.degree >= 2:
            q, r = divmod_real(h, sp)
            if r.coeff_scale() > tol * max(1.0, h.coeff_scale()):
                break
            m += 1
            h = q.trim(1e-13)

    count = 0
    g = h
    if g.eval_scalar(a).norm() <= tol * g.eval_scale(a) and not g.is_zero():
        g = left_root_extract(g, a, tol)
        count = 1
        while g.degree >= 1:
            # spherical factors are divided out, so a zero at a is g's one zero on [a]
            if g.eval_scalar(a).norm() <= tol * g.eval_scale(a):
                z = a
            else:
                z = None if rep.axis is None else find_sphere_zero(g, rep.x, rep.y, tol)
                if z is None or z == "sphere":
                    break
            g = left_root_extract(g, z, 10.0 * tol)
            count += 1

    if count > 0:
        return "point", count
    if m > 0:
        return "spherical", m
    raise NotARootError("polynomial does not vanish at %r or on its sphere" % (a,))


def extend_from_slice(h, axis, q):
    """Left slice extension of a function known on the slice of ``axis``.

    Evaluates ext(h)(x+Jy) = [h(x+Iy) + h(x-Iy) + J I (h(x-Iy) - h(x+Iy))]/2
    where q = x + Jy with y >= 0 canonically (qdecompose supplies y >= 0).
    h maps slice points to Quaternion or QMatrix values.
    """
    rep = qdecompose(q)
    zp = Quaternion.from_real(rep.x) + axis.q * rep.y
    zm = Quaternion.from_real(rep.x) - axis.q * rep.y
    vp = h(zp)
    vm = h(zm)
    if rep.axis is None:
        half = 0.5
        if isinstance(vp, QMatrix):
            return QMatrix((vp.data + vm.data) * half)
        return (vp + vm) / 2.0
    ji = rep.axis.q * axis.q
    if isinstance(vp, QMatrix):
        diff = vm - vp
        return QMatrix((vp.data + vm.data + diff.scale_left(ji).data) * 0.5)
    return (vp + vm + ji * (vm - vp)) / 2.0


# -------------------------------------------------------------------------------
# slice-rational functions
# -------------------------------------------------------------------------------

class SliceRational:
    """Quotient den(p)^{-1} num(p) with a real scalar denominator, held as
    its real coefficient vector."""

    __slots__ = ("_num", "_dv")

    def __init__(self, num, den):
        if not isinstance(num, StarPoly) or not isinstance(den, StarPoly):
            raise ShapeError("SliceRational needs StarPoly numerator and denominator")
        if not den.is_scalar():
            raise ShapeError("denominator must be 1x1")
        self._num = num
        self._dv = _real_den(den.real_vector())

    @classmethod
    def _over(cls, num, dv):
        """num over the real coefficient vector dv, already trimmed and nonzero."""
        out = cls.__new__(cls)
        out._num = num
        out._dv = dv
        return out

    @classmethod
    def from_poly(cls, p):
        return cls._over(p, _ONE)

    @classmethod
    def one(cls):
        return cls._over(StarPoly.one(), _ONE)

    @classmethod
    def constant(cls, block):
        return cls._over(StarPoly.constant(block), _ONE)

    @property
    def num(self):
        return self._num

    @property
    def den(self):
        return StarPoly.real(self._dv)

    @property
    def shape(self):
        return self._num.shape

    def is_scalar(self):
        return self._num.is_scalar()

    # -- evaluation ------------------------------------------------------------

    def eval_scalar(self, p):
        """Value of a scalar function at one point, as a Quaternion: the
        splitting formula of eval_many on Python complex numbers, with each
        quaternion component of F(z) = num(z) / den(z) summed by Horner's
        rule, and the pole test of eval_many."""
        if not self.is_scalar():
            raise ShapeError("scalar evaluation needs a 1x1 function")
        p = as_quaternion(p)
        y = p.imag_modulus()
        z = complex(p.re, y)
        # den(z) and the magnitude scale sum_n |d_n| max(1,|p|)^n
        base = max(1.0, p.norm())
        den, scale = 0j, 0.0
        for d in reversed(self._dv.tolist()):
            den = den * z + d
            scale = scale * base + abs(d)
        if abs(den) <= POLE_RTOL * (scale + 1e-300):
            rep = qdecompose(p)
            raise PoleError(rep.x, rep.y)
        f0 = f1 = f2 = f3 = 0j
        for c0, c1, c2, c3 in reversed(self._num.coeffs[:, 0, 0].tolist()):
            f0 = f0 * z + c0
            f1 = f1 * z + c1
            f2 = f2 * z + c2
            f3 = f3 * z + c3
        f0, f1, f2, f3 = f0 / den, f1 / den, f2 / den, f3 / den
        # Re F + I Im F; a real point gets the unit i, as in slice_split
        unit = Quaternion(0.0, p.x1 / y, p.x2 / y, p.x3 / y) if y > 0.0 else I
        return (unit * Quaternion(f0.imag, f1.imag, f2.imag, f3.imag)
                + Quaternion(f0.real, f1.real, f2.real, f3.real))

    def eval_many(self, points):
        """Batch values on an (B, 4) array: on the complex slice the real
        denominator is a complex number den(z) and S = Re F + I Im F with
        F(z) = num(z) / den(z); PoleError on the denominator's zero spheres,
        where |den(z)| is at most POLE_RTOL times its magnitude scale."""
        pts = np.asarray(points, dtype=np.float64)
        dv = self._dv
        unit, z = slice_split(pts)
        powers = _powers(z, max(self._num.degree, dv.size - 1))
        den = powers[:, : dv.size] @ dv
        bad = np.nonzero(np.abs(den) <= POLE_RTOL * _magnitude_scales(np.abs(dv), pts))[0]
        if bad.size:
            rep = qdecompose(Quaternion.from_array(pts[bad[0]]))
            raise PoleError(rep.x, rep.y)
        return slice_join(unit, self._num.eval_slice(powers) / den[:, None, None, None])

    def lift(self, rows):
        """f I_rows for a scalar f, the form in which it star-multiplies a
        function with that many rows; any other f is returned as is."""
        if rows == 1 or not self.is_scalar():
            return self
        return SliceRational._over(scalar_poly_times_matrix(self._num, QMatrix.eye(rows)), self._dv)

    # -- algebra -----------------------------------------------------------------

    def star(self, other):
        """(D1^{-1} N1) * (D2^{-1} N2) = (D1 D2)^{-1} (N1 * N2)."""
        if isinstance(other, StarPoly):
            other = SliceRational.from_poly(other)
        num = self._num.star(other._num)
        return SliceRational._over(num, _real_den(_real_star(self._dv, other._dv)))

    def __add__(self, other):
        if isinstance(other, StarPoly):
            other = SliceRational.from_poly(other)
        if self.shape != other.shape:
            raise ShapeError("rational shapes differ")
        num = mul_real_poly(self._num, other._dv) + mul_real_poly(other._num, self._dv)
        return SliceRational._over(num, _real_den(_real_star(self._dv, other._dv)))

    def __sub__(self, other):
        if isinstance(other, StarPoly):
            other = SliceRational.from_poly(other)
        return self + (-other)

    def __neg__(self):
        return SliceRational._over(-self._num, self._dv)

    # -- expansions ----------------------------------------------------------------

    def taylor(self, n):
        """Taylor truncation at 0: the real series g of 1/den from its scalar
        recurrence g_k = -(den_1 g_{k-1} + ... + den_k g_0) / den_0, then one
        convolution of g with the numerator coefficients.  The expansion
        fails only when den has a root at 0, that is den_0 == 0: a den_0
        that is merely small (a pole close to 0) still has its series."""
        dv = self._dv
        d0 = dv[0]
        if d0 == 0.0:
            raise ExpansionError("denominator vanishes at the expansion point 0")
        tail = (-dv[1 : n + 1] / d0).tolist()
        g = [1.0 / d0]
        for k in range(1, n + 1):
            acc = 0.0
            for i in range(min(k, len(tail))):
                acc += tail[i] * g[k - 1 - i]
            g.append(acc)
        nc = self._num.coeffs[: n + 1]
        lag = np.arange(n + 1)[:, None] - np.arange(nc.shape[0])[None, :]
        toeplitz = np.where(lag >= 0, np.array(g)[np.maximum(lag, 0)], 0.0)
        # einsum, unlike matmul, calls no BLAS (see StarPoly.eval_slice)
        out = np.einsum("kj,jx->kx", toeplitz, nc.reshape(nc.shape[0], -1))
        return StarPoly(out.reshape((n + 1,) + nc.shape[1:]))

    def compose_real_mobius(self, alpha, beta, gamma, delta):
        """Composition with the real Mobius map m(p) = (alpha + beta p)(gamma + delta p)^{-1}.

        Real coefficients keep every piece central, so substitution is done
        by clearing (gamma + delta p) powers against a common degree.
        """
        u = np.array([float(alpha), float(beta)])
        v = np.array([float(gamma), float(delta)])
        d = max(self._num.degree, self._dv.size - 1)

        powers_u = [_ONE]
        powers_v = [_ONE]
        for _ in range(d):
            powers_u.append(_real_star(powers_u[-1], u))
            powers_v.append(_real_star(powers_v[-1], v))

        def weigh(coeffs):
            # row n holds the d + 1 real coefficients of u^n v^(d - n)
            w = np.array([_real_star(powers_u[n], powers_v[d - n])
                          for n in range(coeffs.shape[0])])
            terms = w.reshape(w.shape + (1,) * (coeffs.ndim - 1)) * coeffs[:, None]
            # summed from 0.0, so that a coefficient whose terms are all -0.0 reads 0.0
            return terms.sum(axis=0, initial=0.0)

        num2 = StarPoly(weigh(self._num.coeffs))
        den2 = _real_den(weigh(self._dv), 1e-14, "composition produced a zero denominator")
        return SliceRational._over(num2, den2)

    # -- JSON --------------------------------------------------------------------------

    def to_json(self):
        return {"num": self._num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        return "SliceRational(shape=%dx%d, deg %d/%d)" % (
            self.shape + (self._num.degree, self._dv.size - 1)
        )

