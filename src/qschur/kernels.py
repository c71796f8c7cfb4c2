"""Schur kernels, Gram assembly, and negative-squares estimation.

The generalized Schur kernel on the unit ball is the power series

    K_S(p, q) = sum_n p^n (J2 - S(p) J1 S(q)^*) conj(q)^n,

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
product Z^* diag(J2, -J1) Z, whose columns are [c; S^* c] and
[I c; S^* I c] for every point, since J2 - S_l J1 S_j^* has rank at
most r + s in (l, j).

gram runs in two stages: _gram_columns evaluates S once at all the
points and builds their columns, and _gram_slice sums the kernel for one
set of points.  estimate_neg_squares runs the first once per block of
TRIAL_BLOCK trials and the second once per trial, with the complex
adjoint of diag(J2, -J1) built once per call, so its per-point arrays
are O(TRIAL_BLOCK batch) for any number of trials.  schur_kernel_eval
reads one value K_S(p, q) off the Gram at p and q with identity columns.

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

from dataclasses import dataclass

import numpy as np

from . import _accel
from .blaschke import BALL, HALFSPACE, FactoredProduct
from .errors import (
    DivergenceError,
    DomainError,
    PoleError,
    PrecondError,
    ShapeError,
)
from .qlinalg import (QMatrix, SignatureMatrix, complex_adjoint, herm_eigen_neg,
                      qadjoint_arr, qmatmul_arr)
from .quat import Quaternion, as_quaternion, qdecompose, sample_ball_points
from .starpoly import SliceRational, slice_split


def as_points(points):
    """Normalize a list of Quaternion (or an (B,4) array) to an (B,4) array."""
    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ShapeError("points array must have shape (B, 4)")
        return pts
    return np.array([p.as_array() for p in points], dtype=np.float64)


# ---------------------------------------------------------------------------
# Schur functions
# ---------------------------------------------------------------------------

class SchurFunction:
    """A slice-rational matrix function with signature data.

    The record is (rational, domain, J1, J2, label): rational is the one
    value source, so eval_many is its batch evaluation and taylor(n) its
    Taylor coefficients at 0; J1 and J2 are the signature matrices of the
    kernel J2 - S(p) J1 S(q)^*, and domain is the ball or the half-space.
    """

    def __init__(self, rational, domain=BALL, J1=None, J2=None, label=""):
        if domain not in (BALL, HALFSPACE):
            raise DomainError("domain must be 'ball' or 'halfspace'")
        self.rational = rational
        self.domain = domain
        self.rows, self.cols = rational.shape
        self.J1 = J1 if J1 is not None else SignatureMatrix.identity(self.cols)
        self.J2 = J2 if J2 is not None else SignatureMatrix.identity(self.rows)
        self.label = label

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_product(cls, product, J1=None, J2=None, label=""):
        return cls(product.rational, product.domain, J1, J2, label or "blaschke-product")

    @classmethod
    def constant(cls, value, domain=BALL, J1=None, J2=None, label="constant"):
        value = value if isinstance(value, QMatrix) else QMatrix.scalar(value)
        return cls(SliceRational.constant(value), domain, J1, J2, label)

    @classmethod
    def star_quotient(cls, left_scalar_rational, s0, label="star-quotient"):
        """The star product f * S0 with a scalar left factor f.

        With real denominators the star product multiplies numerators by
        coefficient convolution and denominators as real polynomials, so
        the product is again one slice-rational function.
        """
        if not left_scalar_rational.is_scalar():
            raise ShapeError("the left quotient factor must be scalar")
        left = left_scalar_rational.lift(s0.rows)
        return cls(left.star(s0.rational), s0.domain, s0.J1, s0.J2, label)

    @classmethod
    def compose_real_mobius(cls, s, alpha, beta, gamma, delta, domain=None, label=""):
        """S after the real Mobius map (alpha + beta p)(gamma + delta p)^{-1}."""
        rat = s.rational.compose_real_mobius(alpha, beta, gamma, delta)
        return cls(rat, domain or s.domain, s.J1, s.J2, label or s.label)

    # -- evaluation -------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def eval_many(self, points):
        return self.rational.eval_many(as_points(points))

    def evaluate(self, p):
        p = as_quaternion(p)
        return QMatrix(self.eval_many(p.as_array().reshape(1, 4))[0])

    def taylor(self, n):
        return self.rational.taylor(n).coeffs

    def __repr__(self):
        return "SchurFunction(%s, %dx%d, %s)" % (
            self.domain, self.rows, self.cols, self.label or "unlabeled",
        )


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


def _szego_halves(z, w):
    """(E + F)/2 and (E - F)/2 with E = (1 - z w)^{-1}, F = (1 - z conj(w))^{-1}
    for every pair of complex slice points, as (B1, B2) arrays."""
    rho = float(np.max(np.abs(z)) * np.max(np.abs(w)))
    if rho >= 1.0:
        raise DivergenceError("kernel series diverges: |p||q| = %.4f >= 1" % rho)
    e = 1.0 / (1.0 - np.multiply.outer(z, w))
    f = 1.0 / (1.0 - np.multiply.outer(z, w.conj()))
    return 0.5 * (e + f), 0.5 * (e - f)


def schur_kernel_eval(s, p, q):
    """K_S(p, q) in closed form: the (p, q) block of the Gram at the points
    p and q with identity columns."""
    if s.domain != BALL:
        raise DomainError("direct kernel series applies on the ball; transport first")
    r = s.rows
    pts = np.repeat([as_quaternion(p).as_array(), as_quaternion(q).as_array()], r, axis=0)
    g = gram(s, pts, np.tile(QMatrix.eye(r).data, (2, 1, 1)))
    return QMatrix(g.data[:r, r:])


def gram(s, points, vectors):
    """Gram matrix with entries c_l^* K_S(w_l, w_j) c_j, Hermitian up to
    rounding (herm_eigen_neg symmetrizes it).

    vectors is an (B, r, 4) array (or list of r x 1 QMatrix columns).
    """
    pts = as_points(points)
    if isinstance(vectors, np.ndarray):
        vecs = np.asarray(vectors, dtype=np.float64)
    else:
        vecs = np.array([v.data[:, 0, :] for v in vectors], dtype=np.float64)
    if vecs.shape[0] != pts.shape[0]:
        raise ShapeError("need one vector per point")
    if vecs.shape[1] != s.rows:
        raise ShapeError("vectors must have length %d" % s.rows)
    return _gram_slice(_chi_signature(s), *_gram_columns(s, pts, vecs))


def _gram_columns(s, pts, vecs):
    """Per-point stage of gram: the complex slice points z and the columns
    [c; S^* c], [I c; S^* I c] of every point as a (B, r + s, 2, 4) array."""
    unit, z = slice_split(pts)
    x = np.stack([vecs, _accel.qmul(unit[:, None, :], vecs)], axis=2)
    return z, np.concatenate([x, qmatmul_arr(qadjoint_arr(s.eval_many(pts)), x)], axis=1)


def _chi_signature(s):
    """chi(diag(J2, -J1)), the middle factor of the Gram product Z^* sig Z."""
    r, k = s.rows, s.rows + s.cols
    sig = np.zeros((k, k, 4))
    sig[:r, :r], sig[r:, r:] = s.J2.matrix.data, -s.J1.matrix.data
    return complex_adjoint(sig)


def _gram_slice(chi_sig, z, cols):
    """Per-slice stage of gram: the raw Gram from _gram_columns' output and
    _chi_signature of S."""
    b_count, k = z.shape[0], cols.shape[1]
    half_sum, half_diff = _szego_halves(z, z)
    # Z is the (r + s) x 2B matrix of all the columns, the I columns last
    zmat = cols.transpose(1, 2, 0, 3).reshape(k, 2 * b_count, 4)
    # chi(Z) with the two complex columns of each quaternion column side by
    # side: the top rows of chi(Z)^* chi(sig) chi(Z) then hold the pairs of
    # P = Z^* sig Z, entry by entry
    chi = complex_adjoint(zmat).reshape(2 * k, 2, -1).swapaxes(1, 2)
    prod = chi[:, :, 0].conj().T @ (chi_sig @ chi.reshape(2 * k, -1))
    prod = prod.view(np.float64).reshape(2, b_count, 2, b_count, 4)
    # c^* I = -(I c)^*, so the weights of the I rows change sign
    weights = np.array([[half_sum.real, -half_diff.imag], [-half_sum.imag, -half_diff.real]])
    return QMatrix(np.einsum("hklj,hlkjc->ljc", weights, prod))


TRIAL_BLOCK = 16   # trials per evaluation of S in estimate_neg_squares


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

    A block of TRIAL_BLOCK trials shares one per-point stage, so a
    PoleError may come from a later trial of the block than the last
    Gram solved.
    """
    if s.domain != BALL:
        raise DomainError("negative-squares sampling runs on the ball; "
                          "use cayley_transport for half-space functions")
    if trials < 1:
        raise DomainError("need at least one trial")
    if not 0.0 < rho < 1.0:
        raise DomainError("sampling radius rho must lie in (0, 1)")
    if not 0.0 < cutoff < np.inf:
        raise DomainError("cutoff must be a finite positive number")
    best, witness, chi_sig = -1, None, _chi_signature(s)
    for start in range(0, trials, TRIAL_BLOCK):
        draws = []
        for t in range(start, min(start + TRIAL_BLOCK, trials)):
            rng = np.random.default_rng([int(seed), t])
            draws.append((sample_ball_points(rng, batch, rho),
                          sample_gram_vectors(rng, batch, s.rows)))
        z, cols = _gram_columns(s, *map(np.concatenate, zip(*draws)))
        for i, (pts, vecs) in enumerate(draws):
            part = slice(i * batch, (i + 1) * batch)
            # herm_eigen_neg symmetrizes, so the raw Gram gives the same bits
            eigs, neg = herm_eigen_neg(_gram_slice(chi_sig, z[part], cols[part]), cutoff)
            if neg > best:
                best, witness = neg, (pts, vecs, eigs)
    pts, vecs, eigs = witness
    return NegSquaresReport(
        kappa_hat=int(best),
        trials=int(trials),
        batch=int(batch),
        cutoff=float(cutoff),
        seed=int(seed),
        witness_points=[list(map(float, row)) for row in pts],
        witness_vectors=[[list(map(float, q)) for q in vec] for vec in vecs],
        witness_eigenvalues=[float(x) for x in eigs],
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

    Needs a genuine product (kind-2/3 Potapov factors would put poles
    inside the ball).  A half-space product is first carried to the ball
    by the Cayley map w -> (1 + w)(1 - w)^{-1}, which keeps its degree;
    points are ball points either way.  With fewer than 3 deg(B) points
    the result carries an instability warning.
    """
    for f in b.factors:
        kind = getattr(f, "kind", None)
        if kind in (2, 3) or getattr(f, "inverted", False):
            raise DomainError("dim H(B) needs a genuine Blaschke product")
        center = getattr(f, "a", None) or getattr(f, "c", None)
        if center is not None:
            inside = center.norm() < 1.0 if b.domain == BALL else center.re > 0.0
            if not inside:
                raise DomainError("dim H(B) needs zeros inside the domain")
    if not 0.0 < cutoff < np.inf:
        raise DomainError("cutoff must be a finite positive number")
    deg = b.degree()
    if deg == 0:
        return DimHBReport(0, [])
    s = SchurFunction.from_product(b)
    if b.domain == HALFSPACE:
        s = SchurFunction.compose_real_mobius(s, 1.0, 1.0, 1.0, -1.0, domain=BALL)
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
    def from_schur_taylor(cls, taylor, j1, j2, trunc):
        """Kernel coefficients C_{NM} = J2 delta_{NM} - sum_c s_{N-c} J1 s_{M-c}^*,
        the blocks of J2 (x) I - T_{S J1} T_S^*; with sandwich, the tests'
        reference composition of the identity leg."""
        s = np.asarray(taylor, dtype=np.float64)
        t, r = trunc + 1, s.shape[1]
        sj = qmatmul_arr(s, np.broadcast_to(j1.data, s.shape[:1] + j1.data.shape))
        c = _roll(-_qmatmul_rows(_toeplitz(sj, t), qadjoint_arr(_toeplitz(s, t)), r), t, r, r)
        c[np.arange(t), np.arange(t)] += j2.data
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
    hermitian_residual: float
    trunc: int
    tail_bound: float
    vacuous: bool = False       # K_S - K_B is zero at this truncation

    def to_json(self):
        return {
            "status": self.status,
            "max_coeff_dev": self.max_coeff_dev,
            "min_gram_eig": self.min_gram_eig,
            "hermitian_residual": self.hermitian_residual,
            "trunc": self.trunc,
            "tail_bound": self.tail_bound,
            "vacuous": self.vacuous,
        }


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


def _identity_sides(s_taylor, b_taylor, s0_taylor, j1, trunc):
    """Coefficients of K_S - K_B, of B * K_{S0} *_r B^* and of their
    difference, stacked in that order as one (3, t, t, r, r, 4) block
    array, t = trunc + 1, from the Taylor data of S, B and S0 and S0's
    signature J1."""
    t, r, c0 = trunc + 1, s_taylor.shape[1], s0_taylor.shape[2]
    t_s, t_b = _toeplitz(s_taylor, t), _toeplitz(b_taylor, t)
    p_s = _qmatmul_rows(t_s, qadjoint_arr(t_s), r)
    p_b = _qmatmul_rows(t_b, qadjoint_arr(t_b), r)
    m = _qmatmul_rows(t_b, _toeplitz(s0_taylor, t), r)
    m_j = m
    if not np.array_equal(j1.data, QMatrix.eye(c0).data):
        # T_{S0 J1} = T_{S0} (I (x) J1): J1 acts on each block column
        m_j = qmatmul_arr(m.reshape(t * r, t, c0, 4), j1.data).reshape(m.shape)
    q = _qmatmul_rows(m_j, qadjoint_arr(m), r)
    sides = np.empty((3,) + p_s.shape)
    np.subtract(p_b, p_s, out=sides[0])
    np.subtract(p_b, q, out=sides[1])
    np.subtract(q, p_s, out=sides[2])
    # _roll of each side, as views into the one array
    return sides.reshape(3, t, r, t, r, 4).transpose(0, 1, 3, 2, 4, 5)


def kernel_identity_check(s, b0, s0, trunc=48, gram_points=12, gram_radius=None,
                          seed=11, tail_tol=1e-9, dev_tol=1e-9):
    """Check K_S - K_B = B(p) * (K_{S0}) *_r B(q)^* with B = B0^{-*}.

    S, B0 and S0 must live on the ball (transport half-space data first),
    and S must carry identity signatures.  B0^{-*} is b0.inverse(), the
    one cached inverse that synthesize_generalized_schur (or, for a
    half-space case, transport_case_to_ball) builds S from, of degree
    2 deg B0; a scalar B0 acts on an r-row S0 as B0^{-*} I_r.

    At the given truncation both sides are products of block Toeplitz
    matrices of Taylor coefficients, in which the J2 terms cancel:
        K_S - K_B = T_B T_B^* - T_S T_S^*,
        B * K_{S0} *_r B^* = T_B T_B^* - M_J M^*,
    with M = T_B T_{S0} and M_J = M (I (x) J1), so the deviation is
    M_J M^* - T_S T_S^*.

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
    symmetry residual, and the minimum Gram eigenvalue of the difference
    kernel (its positivity is the content of the factorization step).
    If the truncation cannot bound the tail below tail_tol, or the tail
    or the deviation is not finite, the status is 'inconclusive', never a
    silent pass; with the tail bounded, a deviation above dev_tol is a
    'fail'.  When every weighted coefficient of K_S - K_B is within
    dev_tol of zero (S = B, for instance), the identity holds trivially
    and the report says so with vacuous=True; the status is unaffected.
    """
    if not isinstance(b0, FactoredProduct):
        raise ShapeError("b0 must be a FactoredProduct")
    if any(f.domain != BALL for f in (s, b0, s0)):
        raise DomainError("the identity expansion runs on the ball; transport first")
    eye_r, eye_s = QMatrix.eye(s.rows), QMatrix.eye(s.cols)
    if (s.J1.matrix - eye_s).norm() > 1e-12 or (s.J2.matrix - eye_r).norm() > 1e-12:
        raise PrecondError("the factorization identity applies to identity signatures")

    binv = b0.inverse().rational.lift(s.rows)
    if gram_radius is None:
        pole = _min_pole_radius(binv)
        gram_radius = 0.6 if not np.isfinite(pole) else min(0.6, 0.45 * pole)

    sides = _identity_sides(s.taylor(trunc), binv.taylor(trunc).coeffs, s0.taylor(trunc),
                            s0.J1.matrix, trunc)
    with np.errstate(over="ignore", invalid="ignore"):
        norms, resid = _weighted_tables(sides, gram_radius)
        lhs_norms, rhs_norms = norms[0], norms[1]
        dev = float(np.max(norms[2]))
        band = max(_boundary_band(lhs_norms), _boundary_band(rhs_norms))
        inner = max(lhs_norms[: trunc, : trunc].max(), rhs_norms[: trunc, : trunc].max(),
                    1e-300)
        ratio = min(band / inner, 0.97) if inner > 0 else 0.0
        tail_bound = band / max(1.0 - ratio, 0.03) ** 2
    vacuous = float(np.max(lhs_norms)) <= dev_tol
    herm = max(float(resid[0]), float(resid[1]))

    rng = np.random.default_rng(seed)
    pts = sample_ball_points(rng, gram_points, gram_radius)
    g = DoubleSeriesKernel(sides[0]).eval_gram(pts)
    eigs, _ = herm_eigen_neg(g)
    min_eig = float(np.min(eigs))

    # NaN and inf compare False, so a non-finite tail or deviation falls
    # to "inconclusive" rather than to "ok"
    if not (tail_bound <= tail_tol and np.isfinite(dev)):
        status = "inconclusive"
    else:
        status = "ok" if dev <= dev_tol else "fail"
    return KernelIdentityReport(
        status=status,
        max_coeff_dev=dev,
        min_gram_eig=min_eig,
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
