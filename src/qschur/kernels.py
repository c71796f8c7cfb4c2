"""Schur kernels, Gram assembly, and negative-squares estimation.

The generalized Schur kernel on the unit ball is the power series

    K_S(p, q) = sum_n p^n (I - S(p) S(q)^*) conj(q)^n,

which gram evaluates in closed form, without truncation, on the complex
slices of p and q.  Write p = x + I y and q = u + J v
with imaginary units I, J and y, v >= 0, and z = x + i y, w = u + i v.
By the splitting formula p^n = Re z^n + I Im z^n and
conj(q)^n = Re w^n - J Im w^n, so with the Szego sums
E = (1 - z w)^{-1} and F = (1 - z conj(w))^{-1}, for any matrix M,

    sum_n p^n M conj(q)^n
        = 1/2 [Re(E+F) M + Im(E+F) I M - Im(E-F) M J + Re(E-F) I M J].

The Gram entries c_l^* K_S(p_l, p_j) c_j are therefore four real
weight matrices applied entrywise to the blocks of one quaternion
product Z^* diag(I_r, -I_s) Z, whose columns are [c; S^* c] and
[I c; S^* I c] for every point, since I - S_l S_j^* has rank at most
r + s in (l, j).

gram runs in two stages: _gram_columns evaluates S once at all the
points and builds their columns, and _gram_slice sums the kernel for a
stack of point sets, gram's being a stack of one.  estimate_neg_squares
runs both once per block of trials, and solves the block's Grams with
one qlinalg.herm_eigen_neg_arr call.  A block has TRIAL_BLOCK trials, or
fewer when the batch is above 40 points, so that its Gram stack holds
at most STACK_ENTRIES entries; its arrays are bounded for any number of
trials and any batch.  Within a block, a PoleError comes from the
per-point stage, before any Gram; the Gram stage then raises for the
first trial whose Gram fails, as that trial alone would.
schur_kernel_eval reads one value K_S(p, q) off the Gram at p and q with
identity columns.  _gram_columns, which every Gram passes, is the one
check that S lives on the ball; a half-space function gets there by
cayley_transport at x0 = CAYLEY_X0, which keeps its negative squares.

Gram matrices built from kernel sections drive two estimators:

* estimate_neg_squares: kappa-hat as the max count of strictly negative
  Gram eigenvalues over seeded random trials.  By construction this is a
  lower bound for the true number of negative squares; acceptance pairs
  it with a known target instead of claiming certification.
* estimate_dim_HB: the numerical rank of the Gram of K_B.

Double power series sum p^N C_{NM} conj(q)^M represent difference
kernels at a finite truncation.  A left star product with a Taylor
series X convolves its coefficients on the p-index, and a right one with
Y^* convolves the adjoint coefficients on the conj(q)-index: products
with lower-triangular block Toeplitz matrices T_X and T_Y^*, from which
kernel_identity_check builds both sides of the identity.  The
coefficients come from the closed form of starpoly.SliceRational.taylor:
the Taylor series of den^{-1} num is the convolution of num with the
real series of 1/den.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import _accel
from .blaschke import BALL, HALFSPACE, FactoredProduct, _check_domain, inside
from .errors import DivergenceError, DomainError, PoleError, ShapeError
from .qlinalg import (QMatrix, complex_adjoint, herm_eigen_neg, herm_eigen_neg_arr, qadjoint_arr,
                      qmatmul_arr)
from .quat import Quaternion, as_quaternion, qdecompose, sample_ball_points
from .starpoly import SliceRational, slice_split


def as_points(points):
    """The points as a float (B, 4) array; ShapeError for any other shape."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ShapeError("points array must have shape (B, 4)")
    return pts


# ---------------------------------------------------------------------------
# Schur functions
# ---------------------------------------------------------------------------

class SchurFunction:
    """A slice-rational matrix function on the ball or the half-space.

    The record is (rational, domain): rational is the one value source,
    so eval_many is its batch evaluation and taylor(n) its Taylor
    coefficients at 0, and its kernel is I - S(p) S(q)^*.
    """

    def __init__(self, rational, domain=BALL):
        _check_domain(domain)
        self.rational = rational
        self.domain = domain
        self.rows, self.cols = rational.shape

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_product(cls, product):
        return cls(product.rational, product.domain)

    @classmethod
    def constant(cls, value, domain=BALL):
        value = value if isinstance(value, QMatrix) else QMatrix.scalar(value)
        return cls(SliceRational.constant(value), domain)

    @classmethod
    def star_quotient(cls, left_scalar_rational, s0):
        """The star product f * S0 with a scalar left factor f.

        With real denominators the star product multiplies numerators by
        coefficient convolution and denominators as real polynomials, so
        the product is again one slice-rational function.
        """
        if not left_scalar_rational.is_scalar():
            raise ShapeError("the left quotient factor must be scalar")
        left = left_scalar_rational.lift(s0.rows)
        return cls(left.star(s0.rational), s0.domain)

    @classmethod
    def compose_real_mobius(cls, s, alpha, beta, gamma, delta, domain=None):
        """S after the real Mobius map (alpha + beta p)(gamma + delta p)^{-1}."""
        rat = s.rational.compose_real_mobius(alpha, beta, gamma, delta)
        return cls(rat, domain or s.domain)

    # -- evaluation -------------------------------------------------------------

    def eval_many(self, points):
        return self.rational.eval_many(as_points(points))

    def evaluate(self, p):
        p = as_quaternion(p)
        return QMatrix(self.eval_many(p.as_array().reshape(1, 4))[0])

    def taylor(self, n):
        return self.rational.taylor(n).coeffs

    def __repr__(self):
        return "SchurFunction(%s, %dx%d)" % (self.domain, self.rows, self.cols)


# ---------------------------------------------------------------------------
# Cayley transport
# ---------------------------------------------------------------------------

# the x0 at which half-space functions are carried to the ball and checked
CAYLEY_X0 = 1.0


def cayley_map(p, x0, direction="halfspace_to_ball"):
    """The real Mobius map between the right half-space and the unit ball."""
    p = as_quaternion(p)
    if not x0 > 0.0:
        raise DomainError("x0 must be positive")
    if direction == "halfspace_to_ball":
        den = p + Quaternion.from_real(x0)
        if den.norm() <= 1e-14 * max(1.0, p.norm()):
            raise DomainError("Cayley map pole at p = -x0")
        return (p - Quaternion.from_real(x0)) * den.inverse()
    if direction == "ball_to_halfspace":
        den = Quaternion.from_real(1.0) - p
        if den.norm() <= 1e-14 * max(1.0, p.norm()):
            raise DomainError("inverse Cayley map pole at p = 1")
        return (Quaternion.from_real(x0) + p * x0) * den.inverse()
    raise DomainError("unknown transport direction %r" % (direction,))


def cayley_transport(s, x0, direction="halfspace_to_ball"):
    """Compose a Schur function with the Cayley map, swapping its domain.

    halfspace_to_ball returns w -> S(x0 (1 + w)(1 - w)^{-1}) on the ball;
    ball_to_halfspace returns p -> S((p - x0)(p + x0)^{-1}).  s is a
    SchurFunction or a FactoredProduct, whose rational is carried.  The
    map has real coefficients, so the rational is composed by direct
    substitution; index preservation is checked by the callers that
    compare sampling estimates, not assumed.
    """
    if not x0 > 0.0:
        raise DomainError("x0 must be positive")
    if direction == "halfspace_to_ball":
        if s.domain != HALFSPACE:
            raise DomainError("source must live on the half-space")
        return SchurFunction.compose_real_mobius(s, x0, x0, 1.0, -1.0, domain=BALL)
    if direction == "ball_to_halfspace":
        if s.domain != BALL:
            raise DomainError("source must live on the ball")
        return SchurFunction.compose_real_mobius(s, -x0, 1.0, x0, 1.0, domain=HALFSPACE)
    raise DomainError("unknown transport direction %r" % (direction,))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def base_kernel(domain, p, q):
    """Positive base kernel: sum p^n conj(q)^n on the ball, the kernel of
    S = 0; its half-space counterpart is
    (conj(p)+conj(q)) (|p|^2 + 2 Re(p) conj(q) + conj(q)^2)^{-1}."""
    p = as_quaternion(p)
    q = as_quaternion(q)
    if domain == BALL:
        return schur_kernel_eval(SchurFunction.constant(0.0), p, q).as_quaternion()
    if domain == HALFSPACE:
        qc = q.conj()
        den = Quaternion.from_real(p.normsq()) + (2.0 * p.re) * qc + qc * qc
        if den.norm() <= 1e-14 * max(1.0, p.normsq() + q.normsq()):
            rep = qdecompose(p)
            raise PoleError(rep.x, rep.y, "half-space kernel denominator vanished")
        return (p.conj() + qc) * den.inverse()
    raise DomainError("domain must be 'ball' or 'halfspace'")


def _szego_weights(z):
    """The four real weights of _gram_slice for stacks (T, B) of complex
    slice points, as one (T, 2, 2, B, B) array: Re and -Im of (E + F)/2,
    -Im and -Re of (E - F)/2, with E = (1 - z_l z_j)^{-1} and
    F = (1 - z_l conj(z_j))^{-1}, filled in place."""
    for rho in (np.abs(z).max(axis=-1) ** 2).tolist():
        if rho >= 1.0:
            raise DivergenceError("kernel series diverges: |p||q| = %.4f >= 1" % rho)
    e, f = z[:, :, None] * z[:, None, :], z[:, :, None] * z.conj()[:, None, :]
    for g in (e, f):
        np.divide(1.0, np.subtract(1.0, g, out=g), out=g)
    w = np.empty((z.shape[0], 2, 2) + e.shape[1:])
    # c^* I = -(I c)^*, so the weights of the I rows change sign
    np.add(e.real, f.real, out=w[:, 0, 0])
    np.subtract(f.imag, e.imag, out=w[:, 0, 1])
    np.add(e.imag, f.imag, out=w[:, 1, 0])
    np.negative(w[:, 1, 0], out=w[:, 1, 0])
    np.subtract(f.real, e.real, out=w[:, 1, 1])
    w *= 0.5
    return w


def schur_kernel_eval(s, p, q):
    """K_S(p, q) in closed form: the (p, q) block of the Gram at the points
    p and q with identity columns."""
    r = s.rows
    pts = np.repeat([as_quaternion(p).as_array(), as_quaternion(q).as_array()], r, axis=0)
    g = gram(s, pts, np.tile(QMatrix.eye(r).data, (2, 1, 1)))
    return QMatrix(g.data[:r, r:])


def gram(s, points, vectors):
    """Gram matrix with entries c_l^* K_S(w_l, w_j) c_j, Hermitian up to
    rounding (herm_eigen_neg symmetrizes it).

    points is an (B, 4) array and vectors an (B, r, 4) array, one column
    c_l per point.
    """
    pts = as_points(points)
    vecs = np.asarray(vectors, dtype=np.float64)
    if pts.shape[0] == 0:
        raise ShapeError("need at least one point")
    if vecs.shape[0] != pts.shape[0]:
        raise ShapeError("need one vector per point")
    if vecs.shape[1] != s.rows:
        raise ShapeError("vectors must have length %d" % s.rows)
    z, cols = _gram_columns(s, pts, vecs)
    return QMatrix(_gram_slice(s.rows, z[None], cols[None])[0])


def _gram_columns(s, pts, vecs):
    """Per-point stage of gram: the complex slice points z and the columns
    [c; S^* c], [I c; S^* I c] of every point as a (B, r + s, 2, 4) array.
    The one check that S lives on the ball."""
    if s.domain != BALL:
        raise DomainError("the Schur kernel is summed on the ball; "
                          "use cayley_transport for half-space functions")
    unit, z = slice_split(pts)
    x = np.stack([vecs, _accel.qmul(unit[:, None, :], vecs)], axis=2)
    return z, np.concatenate([x, qmatmul_arr(qadjoint_arr(s.eval_many(pts)), x)], axis=1)


def _gram_slice(r, z, cols):
    """Per-slice stage of gram: the raw Grams, as a (T, B, B, 4) array,
    from _gram_columns' output for T sets of B points, stacked as
    (T, B) and (T, B, r + s, 2, 4) arrays, for an S with r rows."""
    t_count, b_count, k = z.shape[0], z.shape[1], cols.shape[2]
    weights = _szego_weights(z)
    # Z is the (r + s) x 2B matrix of all the columns, the I columns last
    zmat = cols.transpose(0, 2, 3, 1, 4).reshape(t_count, k, 2 * b_count, 4)
    # chi(Z) with the two complex columns of each quaternion column side by
    # side: the top rows of chi(Z)^* chi(sig) chi(Z) then hold the pairs of
    # P = Z^* sig Z, entry by entry.  chi(sig) = chi(diag(I_r, -I_s)) negates
    # the S^* c rows of each half of chi(Z), rows r..k and k+r..2k.
    chi = complex_adjoint(zmat).reshape(t_count, 2 * k, 2, -1).swapaxes(2, 3)
    sig_chi = chi.reshape(t_count, 2, k, -1).copy()
    np.negative(sig_chi[:, :, r:], out=sig_chi[:, :, r:])
    prod = chi[..., 0].conj().swapaxes(1, 2) @ sig_chi.reshape(t_count, 2 * k, -1)
    prod = prod.view(np.float64).reshape(t_count, 2, b_count, 2, b_count, 4)
    return np.einsum("thklj,thlkjc->tljc", weights, prod)


TRIAL_BLOCK = 16   # most trials per block of estimate_neg_squares
# most Gram entries in a block's stack, TRIAL_BLOCK trials of the standard
# 40 points: a larger batch takes fewer trials per block, down to one
STACK_ENTRIES = TRIAL_BLOCK * 40 * 40


def sample_gram_vectors(rng, batch, r):
    """Random unit column vectors, one per sampled point."""
    v = rng.normal(size=(batch, r, 4))
    nrm = np.sqrt(np.sum(v * v, axis=(1, 2)))[:, None, None]
    return v / nrm


@dataclass
class NegSquaresReport:
    """Sampling-based lower bound for the number of negative squares."""

    kappa_hat: int
    trials: int
    batch: int
    cutoff: float
    seed: int
    witness_points: list
    witness_vectors: list
    witness_eigenvalues: list

    def to_json(self):
        return {
            "kappa_hat": self.kappa_hat,
            "trials": self.trials,
            "cutoff": self.cutoff,
            "witness": {
                "points": self.witness_points,
                "vectors": self.witness_vectors,
                "eigenvalues": self.witness_eigenvalues,
            },
        }


def estimate_neg_squares(s, trials=200, batch=40, seed=0x5C05, rho=0.9,
                         cutoff=1e-8, tol=1e-9):
    """Max negative Gram eigenvalue count over seeded random trials.

    Points are sampled in |p| <= rho on the ball; each trial derives its
    generator from (seed, trial-index) so runs are schedule independent.
    The estimate never decreases as trials grow and is a lower bound of
    the true count by construction.  tol is accepted for callers that
    pass it and changes no result: the kernel is summed in closed form.

    Trials run in blocks of TRIAL_BLOCK, or of STACK_ENTRIES // batch^2
    when that is fewer (at least one).  A block evaluates S once at all
    its points, builds its Grams as one stack and solves them with one
    eigvalsh call.  A PoleError comes from the block's points as a whole,
    so it may come from a later trial than one whose Gram fails; otherwise
    the first failing trial of a block raises what it would raise alone:
    NumericError for a non-finite Gram, PrecondError for a non-Hermitian
    one, then NumericError for a failed solve or a broken chi pairing.
    trials, batch and seed must be integers (not bools), the seed >= 0.
    """
    for name, value in (("trials", trials), ("batch", batch), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError("%s must be an integer" % name)
    if seed < 0:
        raise DomainError("seed must be non-negative")
    if trials < 1:
        raise DomainError("need at least one trial")
    if batch < 1:
        raise DomainError("need at least one point per trial")
    if not 0.0 < rho < 1.0:
        raise DomainError("sampling radius rho must lie in (0, 1)")
    if not 0.0 < cutoff < np.inf:
        raise DomainError("cutoff must be a finite positive number")
    block = max(1, min(TRIAL_BLOCK, STACK_ENTRIES // batch**2))
    best, witness = -1, None
    for start in range(0, trials, block):
        draws = []
        for t in range(start, min(start + block, trials)):
            rng = np.random.default_rng([int(seed), t])
            draws.append((sample_ball_points(rng, batch, rho),
                          sample_gram_vectors(rng, batch, s.rows)))
        z, cols = _gram_columns(s, *map(np.concatenate, zip(*draws)))
        shape = (len(draws), batch)
        # herm_eigen_neg_arr symmetrizes, so the raw Grams give the same
        # bits; they are freed before the next block's are built
        eigs, negs = herm_eigen_neg_arr(
            _gram_slice(s.rows, z.reshape(shape), cols.reshape(shape + cols.shape[1:])), cutoff)
        i = negs.index(max(negs))
        if negs[i] > best:
            best, witness = negs[i], draws[i] + (eigs[i],)
    pts, vecs, eigs = witness
    return NegSquaresReport(
        kappa_hat=int(best),
        trials=int(trials),
        batch=int(batch),
        cutoff=float(cutoff),
        seed=int(seed),
        witness_points=pts.tolist(),
        witness_vectors=vecs.tolist(),
        witness_eigenvalues=eigs.tolist(),
    )


@dataclass
class DimHBReport:
    dim: int
    eigenvalues: list
    warning: str = None

    def to_json(self):
        out = {"dim": self.dim, "eigenvalues": self.eigenvalues}
        if self.warning:
            out["warning"] = self.warning
        return out


def estimate_dim_HB(b, points=None, cutoff=1e-8, seed=17, radius=0.75):
    """Numerical rank of the Gram of K_B; equals deg B for Blaschke products.

    Needs a genuine product.  A half-space product is first carried to
    the ball by cayley_transport at CAYLEY_X0, which keeps its degree;
    points are ball points either way.  With fewer than 3 deg(B)
    points the result carries an instability warning.
    """
    for f in b.factors:
        if getattr(f, "inverted", False):
            raise DomainError("dim H(B) needs a genuine Blaschke product")
        center = getattr(f, "a", None) or getattr(f, "c", None)
        if center is not None and not inside(b.domain, center):
            raise DomainError("dim H(B) needs zeros inside the domain")
    if not 0.0 < cutoff < np.inf:
        raise DomainError("cutoff must be a finite positive number")
    deg = b.degree()
    if deg == 0:
        return DimHBReport(0, [])
    s = cayley_transport(b, CAYLEY_X0) if b.domain == HALFSPACE else SchurFunction.from_product(b)
    if points is None:
        rng = np.random.default_rng(seed)
        points = sample_ball_points(rng, 3 * deg + 3, radius)
    pts = as_points(points)
    warning = None
    if pts.shape[0] * s.rows < 3 * deg:
        warning = "fewer than 3 deg(B) kernel sections; rank may be unstable"
    # one section per point and identity column, point-major
    b_count, r = pts.shape[0], s.rows
    cols = np.tile(QMatrix.eye(r).data, (b_count, 1, 1))
    g = gram(s, np.repeat(pts, r, axis=0), cols)
    eigs, _ = herm_eigen_neg(g, cutoff)
    lam_max = float(np.max(eigs)) if eigs.size else 0.0
    dim = int(np.sum(eigs > cutoff * max(lam_max, 1e-300)))
    return DimHBReport(dim, [float(x) for x in eigs], warning)


# ---------------------------------------------------------------------------
# double power series kernels
# ---------------------------------------------------------------------------

class DoubleSeriesKernel:
    """Finite expansion sum_{n,m <= N} p^n C[n][m] conj(q)^m."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.float64)
        if c.ndim != 5 or c.shape[0] != c.shape[1] or c.shape[4] != 4:
            raise ShapeError("coefficients must have shape (N+1, N+1, r, c, 4)")
        self.coeffs = c

    @property
    def trunc(self):
        return self.coeffs.shape[0] - 1

    @property
    def block_shape(self):
        return (self.coeffs.shape[2], self.coeffs.shape[3])

    @classmethod
    def from_schur_taylor(cls, taylor, trunc):
        """Kernel coefficients C_{NM} = I delta_{NM} - sum_c s_{N-c} s_{M-c}^*,
        the blocks of I - T_S T_S^*; with sandwich, the tests' reference
        composition of the identity leg."""
        s = np.asarray(taylor, dtype=np.float64)
        t, r = trunc + 1, s.shape[1]
        t_s = _toeplitz(s, t)
        c = _roll(-_qmatmul_rows(t_s, qadjoint_arr(t_s), r), t, r, r)
        c[np.arange(t), np.arange(t)] += QMatrix.eye(r).data
        return cls(c)

    def sandwich(self, left_taylor):
        """B(p) * K(p,q) *_r B(q)^* = T_B K T_B^*: convolve Taylor
        coefficients of B on the p-index from the left and their adjoints
        on the conj(q)-index from the right."""
        b = np.asarray(left_taylor, dtype=np.float64)
        t, r = self.trunc + 1, b.shape[1]
        tb = _toeplitz(b, t)
        out = _qmatmul_rows(_qmatmul_rows(tb, _unroll(self.coeffs), r), qadjoint_arr(tb), r)
        return DoubleSeriesKernel(_roll(out, t, r, r))

    def eval_gram(self, points):
        """Hermitianized Gram P C P^* of the truncated kernel at the given
        points, with P[(l, u), (n, v)] = p_l^n delta_{uv}."""
        pts = as_points(points)
        b, t, r = pts.shape[0], self.trunc + 1, self.block_shape[0]
        pw = _accel.qpow_table(pts, self.trunc)
        power = pw[:, None, :, None, :] * np.eye(r)[None, :, None, :, None]
        power = power.reshape(b * r, t * r, 4)
        gdata = _qmatmul_rows(_qmatmul_rows(power, _unroll(self.coeffs), r),
                              qadjoint_arr(power), r)
        return QMatrix(0.5 * (gdata + qadjoint_arr(gdata)))


def _qmatmul_rows(a, b, rows):
    """Product of an unrolled (n, k, 4) matrix with a (k, m, 4) matrix, taken
    as a stack of its block rows of the given height.

    With scalar blocks numpy then takes its matrix-vector path: the first
    matrix-matrix product through OpenBLAS adds about 0.25 MB of resident
    memory, more than the whole identity check needs otherwise.
    """
    n = a.shape[0]
    return qmatmul_arr(a.reshape(n // rows, rows, -1, 4), b).reshape(n, b.shape[1], 4)


def _unroll(blocks):
    """Block array (T1, T2, r, c, 4) as one (T1 r, T2 c, 4) matrix."""
    t1, t2, r, c = blocks.shape[:4]
    return np.transpose(blocks, (0, 2, 1, 3, 4)).reshape(t1 * r, t2 * c, 4)


def _roll(matrix, t, r, c):
    """Inverse of _unroll for a (t r, t c, 4) matrix."""
    return np.transpose(matrix.reshape(t, r, t, c, 4), (0, 2, 1, 3, 4))


def _toeplitz(coeffs, t):
    """Unrolled lower-triangular block Toeplitz matrix with block (N, k) =
    coeffs[N - k], from the first t coefficients (missing ones are 0)."""
    # t - 1 zero blocks ahead of the coefficients serve every negative lag
    padded = np.zeros((2 * t - 1,) + coeffs.shape[1:])
    padded[t - 1 : t - 1 + min(t, coeffs.shape[0])] = coeffs[:t]
    lag = np.arange(t)[:, None] - np.arange(t)[None, :]
    return _unroll(padded[t - 1 + lag])


def _weighted_tables(sides, radius):
    """Radius-weighted tables of the stacked sides of _identity_sides: the
    norms ||C_{NM}|| radius^(N+M) of all three as a (3, t, t) array, from
    one radius^(N+M) table and one reduction, and the Hermitian residuals
    max |C_{NM} - C_{MN}^*| of the two weighted sides K_S - K_B and
    B * K_{S0} *_r B^*."""
    t = sides.shape[1]
    w = radius ** (np.arange(t)[:, None] + np.arange(t)[None, :])
    norms = np.sqrt(np.sum(sides**2, axis=(3, 4, 5))) * w
    weighted = sides[:2] * w[:, :, None, None, None]
    resid = np.max(np.abs(weighted - qadjoint_arr(weighted.swapaxes(1, 2))),
                   axis=(1, 2, 3, 4, 5))
    return norms, resid


def _boundary_band(norms):
    """Sum of the weighted norms along the truncation boundary band."""
    return float(np.sum(norms[-1, :]) + np.sum(norms[:, -1]) - norms[-1, -1])


@dataclass
class KernelIdentityReport:
    """Outcome of the factorization kernel identity at finite truncation."""

    status: str                 # "ok", "fail" or "inconclusive"
    max_coeff_dev: float
    min_gram_eig: float
    max_abs_gram_eig: float     # the scale of the relative positivity rule
    hermitian_residual: float
    trunc: int
    tail_bound: float
    vacuous: bool = False       # K_S - K_B is zero at this truncation

    def to_json(self):
        return asdict(self)


def _min_pole_radius(rational):
    """Smallest modulus among the complex roots of the real denominator."""
    dv = rational.den.real_vector()
    nz = np.nonzero(np.abs(dv) > 1e-300)[0]
    if nz.size == 0 or nz[-1] == 0:
        return np.inf
    roots = np.roots(dv[: nz[-1] + 1][::-1])
    mags = np.abs(roots)
    mags = mags[mags > 1e-12]
    return float(np.min(mags)) if mags.size else np.inf


def _identity_sides(s_taylor, b_taylor, s0_taylor, trunc):
    """Coefficients of K_S - K_B, of B * K_{S0} *_r B^* and of their
    difference, stacked in that order as one (3, t, t, r, r, 4) block
    array, t = trunc + 1, from the Taylor data of S, B and S0."""
    t, r = trunc + 1, s_taylor.shape[1]
    t_s, t_b = _toeplitz(s_taylor, t), _toeplitz(b_taylor, t)
    p_s = _qmatmul_rows(t_s, qadjoint_arr(t_s), r)
    p_b = _qmatmul_rows(t_b, qadjoint_arr(t_b), r)
    m = _qmatmul_rows(t_b, _toeplitz(s0_taylor, t), r)
    q = _qmatmul_rows(m, qadjoint_arr(m), r)
    sides = np.empty((3,) + p_s.shape)
    np.subtract(p_b, p_s, out=sides[0])
    np.subtract(p_b, q, out=sides[1])
    np.subtract(q, p_s, out=sides[2])
    # _roll of each side, as views into the one array
    return sides.reshape(3, t, r, t, r, 4).transpose(0, 1, 3, 2, 4, 5)


# bounds of kernel_identity_check on the weighted tail and the deviation
IDENTITY_TAIL_TOL = 1e-9
IDENTITY_DEV_TOL = 1e-9


def kernel_identity_check(s, b0, s0, trunc=48, gram_points=12, gram_radius=None, seed=11):
    """Check K_S - K_B = B(p) * (K_{S0}) *_r B(q)^* with B = B0^{-*}.

    S, B0 and S0 must live on the ball (transport half-space data first).
    B0^{-*} is b0.inverse(), the one cached inverse that
    synthesize_generalized_schur (or, for a half-space case,
    transport_case_to_ball) builds S from, of degree 2 deg B0; a scalar
    B0 acts on an r-row S0 as B0^{-*} I_r.

    At the given truncation both sides are products of block Toeplitz
    matrices of Taylor coefficients, in which the identity terms cancel:
        K_S - K_B = T_B T_B^* - T_S T_S^*,
        B * K_{S0} *_r B^* = T_B T_B^* - M M^*,
    with M = T_B T_{S0}, so the deviation is M M^* - T_S T_S^*.

    B0^{-*} has poles exactly at the zeros of B0, inside the ball, so its
    Taylor coefficients grow like (pole radius)^(-n).  The comparison and
    the tail bound are therefore taken in the radius-weighted norm
    ||C_{NM}|| rho^(N+M), with the Gram sample radius pulled strictly
    inside the smallest pole sphere.  The three coefficient arrays (both
    sides and their difference) are stacked, so one rho^(N+M) table and
    one reduction give all three norm tables, and one more pass the
    Hermitian residual of both weighted sides.  Coefficients that
    overflow leave these non-finite, without a warning, and the status
    'inconclusive'.

    The report carries the weighted coefficient deviation, the Hermitian
    symmetry residual, and the minimum and largest absolute Gram
    eigenvalues of the difference kernel (its positivity is the content
    of the factorization step).  If the truncation cannot bound the tail
    below IDENTITY_TAIL_TOL, or the tail or the deviation is not finite,
    the status is 'inconclusive', never a silent pass, and both Gram
    eigenvalues are NaN: the Gram would come from overflowed
    coefficients.  With the tail bounded, a deviation above
    IDENTITY_DEV_TOL max(1, largest weighted coefficient norm of the two
    sides) is a 'fail': the deviation is judged relative to the scale of
    the sides, whose rounding it carries.  When every weighted
    coefficient of K_S - K_B is within IDENTITY_DEV_TOL of zero (S = B,
    for instance), the identity holds trivially and the report says so
    with vacuous=True; the status is unaffected.
    """
    if not isinstance(b0, FactoredProduct):
        raise ShapeError("b0 must be a FactoredProduct")
    if any(f.domain != BALL for f in (s, b0, s0)):
        raise DomainError("the identity expansion runs on the ball; transport first")

    binv = b0.inverse().rational.lift(s.rows)
    if gram_radius is None:
        pole = _min_pole_radius(binv)
        gram_radius = 0.6 if not np.isfinite(pole) else min(0.6, 0.45 * pole)

    sides = _identity_sides(s.taylor(trunc), binv.taylor(trunc).coeffs, s0.taylor(trunc), trunc)
    with np.errstate(over="ignore", invalid="ignore"):
        norms, resid = _weighted_tables(sides, gram_radius)
        lhs_norms, rhs_norms = norms[0], norms[1]
        dev = float(np.max(norms[2]))
        band = max(_boundary_band(lhs_norms), _boundary_band(rhs_norms))
        inner = max(lhs_norms[: trunc, : trunc].max(), rhs_norms[: trunc, : trunc].max(),
                    1e-300)
        ratio = min(band / inner, 0.97) if inner > 0 else 0.0
        tail_bound = band / max(1.0 - ratio, 0.03) ** 2
    vacuous = float(np.max(lhs_norms)) <= IDENTITY_DEV_TOL
    herm = max(float(resid[0]), float(resid[1]))

    min_eig = max_eig = float("nan")
    if np.isfinite(tail_bound) and np.isfinite(dev):
        rng = np.random.default_rng(seed)
        pts = sample_ball_points(rng, gram_points, gram_radius)
        eigs, _ = herm_eigen_neg(DoubleSeriesKernel(sides[0]).eval_gram(pts))
        min_eig, max_eig = float(np.min(eigs)), float(np.max(np.abs(eigs)))

    # NaN and inf compare False, so a non-finite tail or deviation falls
    # to "inconclusive" rather than to "ok"
    if not (tail_bound <= IDENTITY_TAIL_TOL and np.isfinite(dev)):
        status = "inconclusive"
    else:
        scale = max(1.0, float(np.max(norms[:2])))
        status = "ok" if dev <= IDENTITY_DEV_TOL * scale else "fail"
    return KernelIdentityReport(
        status=status,
        max_coeff_dev=dev,
        min_gram_eig=min_eig,
        max_abs_gram_eig=max_eig,
        hermitian_residual=herm,
        trunc=trunc,
        tail_bound=float(tail_bound),
        vacuous=vacuous,
    )


def moebius_identity_check(s, x0, p, q):
    """Residual of the index-preserving Mobius identity at one point pair.

    With b(p) = (p + x0)(1 + p x0)^{-1} the kernel of S o b factors as
    (1 - x0^2)(1 + p x0)^{-1} K_S(b(p), b(q)) (1 + conj(q) x0)^{-1};
    both kernels come from schur_kernel_eval, the left one of the composed
    rational S o b, and the norm of the difference is returned.
    """
    if not (-1.0 < x0 < 1.0):
        raise DomainError("x0 must lie in (-1, 1)")
    p = as_quaternion(p)
    q = as_quaternion(q)

    def mob(v):
        den = Quaternion.from_real(1.0) + v * x0
        if den.norm() <= 1e-13 * max(1.0, v.norm()):
            rep = qdecompose(v)
            raise PoleError(rep.x, rep.y, "Mobius pole at p = -1/x0")
        return (v + Quaternion.from_real(x0)) * den.inverse()

    lhs = schur_kernel_eval(SchurFunction.compose_real_mobius(s, x0, 1.0, 1.0, x0), p, q)
    inner = schur_kernel_eval(s, mob(p), mob(q))
    left = (Quaternion.from_real(1.0) + p * x0).inverse() * (1.0 - x0 * x0)
    right = (Quaternion.from_real(1.0) + q.conj() * x0).inverse()
    rhs = inner.scale_left(left).scale_right(right)
    return (lhs - rhs).norm()
