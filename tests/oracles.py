"""Slow reference implementations that the fast paths are tested against.

Each one is a frozen copy of an earlier, more direct implementation:

* qnormsq and qinv: componentwise |a|^2 and quaternion inverse;
* polyval_batch: left evaluation sum_n p^n C_n by quaternion Horner, the
  reference for the split evaluation of StarPoly and SliceRational;
* rational_values: den(p)^{-1} num(p) from Horner values, with the same
  pole test as SliceRational.eval_many;
* kernel_sum and mid_matrices: the Schur kernel block by block as
  (1 - 2 Re(q) p + |q|^2 p^2)^{-1} (M - p M q) on a dense array of
  M[l, j] = J2 - S_l J1 S_j^*, the reference for the split Gram;
* gram and estimate_neg_squares: the Gram and the estimator built from
  those pieces;
* sample_ball_points_loop: the per-point sampling loop that
  quat.sample_ball_points must repeat bit for bit.
"""

import numpy as np

from qschur import _accel
from qschur.errors import DivergenceError, PoleError
from qschur.kernels import sample_gram_vectors
from qschur.qlinalg import QMatrix, herm_eigen_neg, qadjoint_arr, qmatmul_arr
from qschur.quat import Quaternion, qdecompose


def qnormsq(a):
    a = np.asarray(a, dtype=np.float64)
    return np.sum(a * a, axis=-1)


def qinv(a):
    """Componentwise quaternion inverse conj(a)/|a|^2; caller guards zeros."""
    a = np.asarray(a, dtype=np.float64)
    return _accel.qconj(a) / qnormsq(a)[..., None]


def polyval_batch(coeffs, points):
    """Left evaluation sum_n p^n C_n by Horner from the top degree down."""
    d1 = coeffs.shape[0]
    b = points.shape[0]
    val = np.broadcast_to(coeffs[d1 - 1], (b,) + coeffs.shape[1:]).copy()
    for n in range(d1 - 2, -1, -1):
        val = _accel.qmul(points[:, None, None, :], val) + coeffs[n]
    return val


def rational_values(rational, points, pole_rtol=1e-12):
    """den(p)^{-1} num(p) at every point of an (B, 4) array, by Horner."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    dv = polyval_batch(rational.den.coeffs, pts)[:, 0, 0, :]
    dmag = np.sqrt(np.sum(dv * dv, axis=-1))
    bad = np.nonzero(dmag <= pole_rtol * rational.den.eval_scales(pts))[0]
    if bad.size:
        rep = qdecompose(Quaternion.from_array(pts[bad[0]]))
        raise PoleError(rep.x, rep.y)
    nv = polyval_batch(rational.num.coeffs, pts)
    return _accel.qmul(qinv(dv)[:, None, None, :], nv)


def kernel_sum(left, mid, right):
    """sum_n p_l^n M[l, j] conj(q_j)^n for every pair, block by block as
    (1 - 2 Re(q) p + |q|^2 p^2)^{-1} (M - p M q)."""
    rho = float(np.sqrt(np.max(qnormsq(left)) * np.max(qnormsq(right))))
    if rho >= 1.0:
        raise DivergenceError("kernel series diverges: |p||q| = %.4f >= 1" % rho)
    p = left[:, None, :]
    q = right[None, :, :]
    den = qnormsq(q)[..., None] * _accel.qmul(p, p) - 2.0 * q[..., :1] * p
    den[..., 0] += 1.0
    p = p[:, :, None, None, :]
    q = q[:, :, None, None, :]
    num = mid - _accel.qmul(_accel.qmul(p, mid), q)
    return _accel.qmul(qinv(den)[:, :, None, None, :], num)


def mid_matrices(svals, j1, j2):
    """M[l, j] = J2 - S_l J1 S_j^* from batched values svals (B, r, s, 4)."""
    t = qmatmul_arr(svals, np.broadcast_to(j1.data, svals.shape[:1] + j1.data.shape))
    sadj = qadjoint_arr(svals)
    mid = qmatmul_arr(t[:, None], sadj[None, :])
    return j2.data[None, None] - mid


def gram(s, pts, vecs):
    """Raw Gram c_l^* K_S(p_l, p_j) c_j as a (B, B, 4) array, from Horner
    values of S and the dense kernel blocks."""
    mid = mid_matrices(rational_values(s.rational, pts), s.J1.matrix, s.J2.matrix)
    kmat = kernel_sum(pts, mid, pts)
    cadj = qadjoint_arr(vecs[:, :, None, :])
    cvec = vecs[:, :, None, :]
    return qmatmul_arr(cadj[:, None], qmatmul_arr(kmat, cvec[None, :]))[..., 0, 0, :]


def sample_ball_points_loop(rng, count, radius=0.9):
    """count uniform points of the closed 4-ball, one row at a time."""
    out = np.empty((count, 4))
    for i in range(count):
        while True:
            v = rng.normal(size=4)
            n = np.sqrt(np.dot(v, v))
            if n > 1e-8:
                break
        r = radius * rng.random() ** 0.25
        out[i] = v * (r / n)
    return out


def estimate_neg_squares(s, trials, batch, seed, rho=0.9, cutoff=1e-8):
    """kernels.estimate_neg_squares from the reference pieces: returns
    (kappa_hat, witness points, witness eigenvalues)."""
    best, witness = -1, None
    for t in range(trials):
        rng = np.random.default_rng([int(seed), t])
        pts = sample_ball_points_loop(rng, batch, rho)
        vecs = sample_gram_vectors(rng, batch, s.rows)
        eigs, neg = herm_eigen_neg(QMatrix(gram(s, pts, vecs)), cutoff)
        if neg > best:
            best, witness = neg, (pts, eigs)
    return best, witness[0], witness[1]
