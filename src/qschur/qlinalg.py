"""Quaternionic matrices via the complex-adjoint representation.

A QMatrix keeps its entries as a float64 array of shape (rows, cols, 4).
Writing an entry as p = A + B j with complex A = x0 + i x1, B = x2 + i x3
(the same memory read as complex pairs, _accel.as_pairs) gives the
complex adjoint

    chi(M) = [[A, B], [-conj(B), conj(A)]]

of doubled size, a *-algebra homomorphism: chi(MN) = chi(M) chi(N) and
chi(M^*) = chi(M)^*.  Its top block row gives products as four complex
matmuls, (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j.  Hermitian
eigenvalues, inversion, and condition estimates all route through chi;
eigenvalues of chi(H) come in exact pairs and one representative per
pair is reported.
"""

import math

import numpy as np

from . import _accel
from .errors import NumericError, PrecondError, ShapeError
from .quat import Quaternion, as_quaternion

# refuse inversion beyond this 1-norm condition estimate on chi(M)
COND_LIMIT = 1e12
# largest gap within a chi eigenvalue pair, relative to the spectral radius
PAIRING_RTOL = 1e-9


def qmatmul_arr(a, b):
    """Quaternion matrix product on component arrays (..., r, t, 4) x (..., t, c, 4)."""
    a, b = _accel.as_pairs(a), _accel.as_pairs(b)
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    lead = np.broadcast_shapes(a0.shape[:-2], b0.shape[:-2])
    out = np.empty(lead + (a0.shape[-2], b0.shape[-1], 2), dtype=np.complex128)
    np.subtract(a0 @ b0, a1 @ b1.conj(), out=out[..., 0])
    np.add(a0 @ b1, a1 @ b0.conj(), out=out[..., 1])
    return out.view(np.float64)


_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def qadjoint_arr(a):
    """Conjugate transpose on a component array (..., r, c, 4)."""
    # one C-order pass; a product with -1 is an exact negation
    return np.multiply(np.swapaxes(a, -3, -2), _CONJ_SIGNS, order="C")


class QMatrix:
    """Dense rectangular quaternion matrix; immutable after construction."""

    __slots__ = ("_d",)

    def __init__(self, data):
        d = np.array(data, dtype=np.float64)
        if d.ndim != 3 or d.shape[2] != 4:
            raise ShapeError("QMatrix data must have shape (rows, cols, 4)")
        d.flags.writeable = False
        self._d = d

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls(np.zeros((rows, cols, 4)))

    @classmethod
    def eye(cls, n):
        d = np.zeros((n, n, 4))
        d[np.arange(n), np.arange(n), 0] = 1.0
        return cls(d)

    @classmethod
    def from_real(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError("expected a 2-d real array")
        d = np.zeros(arr.shape + (4,))
        d[..., 0] = arr
        return cls(d)

    @classmethod
    def scalar(cls, q):
        q = as_quaternion(q)
        return cls(q.as_array().reshape(1, 1, 4))

    @classmethod
    def diag(cls, quats):
        n = len(quats)
        d = np.zeros((n, n, 4))
        for i, q in enumerate(quats):
            q = as_quaternion(q)
            d[i, i] = q.as_array()
        return cls(d)

    # -- shape and access ----------------------------------------------------

    @property
    def rows(self):
        return self._d.shape[0]

    @property
    def cols(self):
        return self._d.shape[1]

    @property
    def shape(self):
        return (self._d.shape[0], self._d.shape[1])

    @property
    def data(self):
        return self._d

    def entry(self, i, j):
        return Quaternion.from_array(self._d[i, j])

    def is_scalar(self):
        return self.shape == (1, 1)

    def as_quaternion(self):
        if not self.is_scalar():
            raise ShapeError("only 1x1 matrices convert to a quaternion")
        return Quaternion.from_array(self._d[0, 0])

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeError("addition needs equal shapes %s vs %s" % (self.shape, other.shape))
        return QMatrix(self._d + other._d)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ShapeError("subtraction needs equal shapes %s vs %s" % (self.shape, other.shape))
        return QMatrix(self._d - other._d)

    def __neg__(self):
        return QMatrix(-self._d)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError("matmul mismatch %s @ %s" % (self.shape, other.shape))
        return QMatrix(qmatmul_arr(self._d, other._d))

    def adjoint(self):
        return QMatrix(qadjoint_arr(self._d))

    def scale_left(self, q):
        """q * M with a scalar quaternion (or real) acting entrywise from the left."""
        q = as_quaternion(q)
        return QMatrix(_accel.qmul(q.as_array(), self._d))

    def scale_right(self, q):
        q = as_quaternion(q)
        return QMatrix(_accel.qmul(self._d, q.as_array()))

    def norm(self):
        """Frobenius norm over all real components."""
        return float(np.sqrt(np.sum(self._d * self._d)))

    def herm_residual(self):
        return (self - self.adjoint()).norm()

    def __repr__(self):
        return "QMatrix(shape=%dx%d)" % self.shape

    # -- JSON -----------------------------------------------------------------

    def to_json(self):
        entries = [
            [float(self._d[i, j, k]) for k in range(4)]
            for i in range(self.rows)
            for j in range(self.cols)
        ]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json(cls, v, obj, path):
        """The matrix at path of a config, or None with the violations recorded in v."""
        if not v.check_object(obj, path, ("rows", "cols", "entries")):
            return None
        rows = v.integer(obj.get("rows"), path + "/rows", minimum=1)
        cols = v.integer(obj.get("cols"), path + "/cols", minimum=1)
        entries = obj.get("entries")
        if not isinstance(entries, list):
            v.fail(path + "/entries", "expected an array")
            return None
        if rows is None or cols is None:
            return None
        if len(entries) != rows * cols:
            v.fail(path + "/entries", "expected %d entries, got %d" % (rows * cols, len(entries)))
            return None
        comps = [v.quaternion(e, "%s/entries/%d" % (path, idx)) for idx, e in enumerate(entries)]
        if None in comps:
            return None
        return cls(np.array(comps).reshape(rows, cols, 4))


def hstack(mats):
    return QMatrix(np.concatenate([m.data for m in mats], axis=1))


def vstack(mats):
    return QMatrix(np.concatenate([m.data for m in mats], axis=0))


# ---------------------------------------------------------------------------
# complex adjoint
# ---------------------------------------------------------------------------

def complex_adjoint(m):
    """chi(M): complex matrix of doubled size with chi(MN) = chi(M) chi(N).

    A component array (..., r, c, 4) gives the stack (..., 2r, 2c)."""
    d = _accel.as_pairs(m.data if isinstance(m, QMatrix) else m)
    if d.ndim < 3:
        raise ShapeError("complex adjoint needs a (..., rows, cols, 4) array")
    a, b = d[..., 0], d[..., 1]
    r, c = a.shape[-2:]
    # filled block by block: no temporaries beside the result
    z = np.empty(a.shape[:-2] + (2 * r, 2 * c), dtype=np.complex128)
    z[..., :r, :c], z[..., :r, c:] = a, b
    np.negative(np.conjugate(b, out=z[..., r:, :c]), out=z[..., r:, :c])
    np.conjugate(a, out=z[..., r:, c:])
    return z


def _from_chi_arr(z):
    """Components (..., r, c, 4) of a stack of complex adjoints (..., 2r, 2c);
    averages the two structured blocks for robustness."""
    r, c = z.shape[-2] // 2, z.shape[-1] // 2
    d = np.empty(z.shape[:-2] + (r, c, 2), dtype=np.complex128)
    d[..., 0] = 0.5 * (z[..., :r, :c] + np.conj(z[..., r:, c:]))
    d[..., 1] = 0.5 * (z[..., :r, c:] - np.conj(z[..., r:, :c]))
    return d.view(np.float64)


def from_complex_adjoint(z):
    """Inverse of chi; averages the two structured blocks for robustness."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 2 or z.shape[0] % 2 or z.shape[1] % 2:
        raise ShapeError("complex adjoint must be 2r x 2c")
    return QMatrix(_from_chi_arr(z))


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------

def herm_eigen_neg(h, cutoff=1e-8):
    """Eigenvalues of a Hermitian quaternionic matrix and the negative count.

    Works on chi(H); its 2n real eigenvalues occur in exact pairs and the
    returned array keeps one representative per pair (ascending).  The
    negative count applies the relative cutoff against the spectral radius,
    since kernel Gram matrices are frequently near-singular and a raw sign
    test is noise.  A stack of one through herm_eigen_neg_arr.
    """
    reps, negatives = herm_eigen_neg_arr(h.data[None], cutoff)
    return reps[0], negatives[0]


def herm_eigen_neg_arr(d, cutoff=1e-8):
    """herm_eigen_neg on a stack (T, n, n, 4) of matrices, with one
    eigvalsh call: their (T, n) spectra and the list of T negative counts.

    Raises for the first failing matrix in stack order, with the error
    that matrix alone would give, in the order of the checks: NumericError
    for a non-finite entry, PrecondError if it is not Hermitian,
    NumericError if the solver fails or the chi pairing is violated.
    A NumericError's index is the failing matrix's place in the stack.
    """
    if d.ndim != 4 or d.shape[1] != d.shape[2]:
        raise ShapeError("Hermitian eigenvalues need a square matrix")
    sym = qadjoint_arr(d)
    # the checks one matrix at a time, up to the first that fails; a BLAS
    # dot product overflows to inf without a warning, and no inf - inf of
    # a non-finite entry is taken
    k, unfit = 0, None
    for h, a in zip(d, sym):
        sq = np.vdot(h, h)
        if not (math.isfinite(sq) or np.isfinite(h).all()):
            unfit = NumericError("matrix has a non-finite entry", index=k)
            break
        skew = h - a
        # ||H - H^*|| <= 1e-10 max(1, ||H||), squared
        if not np.vdot(skew, skew) <= 1e-20 * max(1.0, sq):
            unfit = PrecondError("matrix is not Hermitian within 1e-10 relative")
            break
        k += 1
    # 1/2 (H + H^*) before chi: half the data of chi(H) + chi(H)^*, and
    # the same bits but for the sign of the zero imaginary parts on the
    # diagonal, which eigvalsh does not read
    sym = sym[:k]
    sym += d[:k]
    sym *= 0.5
    z = complex_adjoint(sym)
    del sym
    solved, failure = k, None
    try:
        # ascending, so the chi pairs are neighbours
        lam = np.linalg.eigvalsh(z)
    except np.linalg.LinAlgError:
        # one failure fails the whole stack: solve one at a time up to it
        lam = np.zeros(z.shape[:-1])
        for i in range(k):
            try:
                lam[i] = np.linalg.eigvalsh(z[i])
            except np.linalg.LinAlgError as exc:
                solved, failure = i, exc
                break
    lam = lam[:solved]
    rho = np.abs(lam).max(axis=-1, initial=1.0)
    pairs = lam.reshape(solved, d.shape[1], 2)
    lo, hi = pairs[..., 0], pairs[..., 1]
    # ascending, so each gap is the upper value less the lower
    gap = (hi - lo).max(axis=-1, initial=0.0)
    paired = (gap <= PAIRING_RTOL * rho).tolist()
    if False in paired:
        m = paired.index(False)
        raise NumericError("chi eigenvalue pairing violated (gap %.3e)" % gap[m], index=m)
    if failure is not None:
        raise NumericError("eigenvalue solver failed: %s" % failure, index=solved)
    if unfit is not None:
        raise unfit
    reps = 0.5 * (lo + hi)
    return reps, (reps < -cutoff * rho[:, None]).sum(axis=-1).tolist()


def qinv_arr(a):
    """Inverses of square matrices stacked as (..., n, n, 4), through chi.

    Raises NumericError for the first matrix, in C order of the stack,
    that is numerically singular or whose 1-norm condition estimate on
    chi exceeds COND_LIMIT; the error's index is its flat position.
    """
    z = complex_adjoint(a)
    if z.shape[-1] != z.shape[-2]:
        raise ShapeError("inversion needs square matrices")
    flat = z.reshape((-1,) + z.shape[-2:])
    singular = np.zeros(flat.shape[0], dtype=bool)
    try:
        zinv = np.linalg.inv(flat)
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: invert one at a time
        zinv = np.full_like(flat, np.nan)
        for k, zk in enumerate(flat):
            try:
                zinv[k] = np.linalg.inv(zk)
            except np.linalg.LinAlgError:
                singular[k] = True
    # 1-norms are the largest column sums
    cond = np.abs(flat).sum(axis=-2).max(axis=-1) * np.abs(zinv).sum(axis=-2).max(axis=-1)
    bad = np.flatnonzero(singular | ~(cond <= COND_LIMIT))
    if bad.size:
        k = int(bad[0])
        if singular[k]:
            raise NumericError("matrix is numerically singular", condition=np.inf, index=k)
        raise NumericError("matrix too ill-conditioned to invert (cond~%.3e)" % cond[k],
                           condition=float(cond[k]), index=k)
    return _from_chi_arr(zinv.reshape(z.shape))


def qmatrix_inv(m):
    """Inverse through chi(M); refuses condition estimates beyond 1e12."""
    if m.rows != m.cols:
        raise ShapeError("inversion needs a square matrix")
    return QMatrix(qinv_arr(m.data))

