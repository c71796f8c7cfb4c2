"""Batched quaternion helpers on numpy arrays.

Quaternions travel as float64 arrays whose last axis has length 4,
ordered (x0, x1, x2, x3) for p = x0 + i x1 + j x2 + k x3.  The same
memory read as complex128 pairs (A, B) = (x0 + i x1, x2 + i x3) gives
p = A + B j, and since j z = conj(z) j the Hamilton product is
(A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j: four complex products
in place of sixteen real ones.

series_sandwich and double_series sum power series term by term; the
kernels compute the same sums in closed form or as block-Toeplitz
products, and the tests keep these two as their slow reference.
slice_split and qpow_table share one imaginary modulus and one z^n table.
"""

import numpy as np

from .errors import ShapeError

# sys.float_info.min, the smallest normal float: a square below it lost bits
NORMAL_MIN = 2.2250738585072014e-308


def as_pairs(a):
    """(..., 4) components as (..., 2) complex pairs (A, B), p = A + B j:
    a view, copied only when the last axis is not contiguous float64."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 0 or a.shape[-1] != 4:
        raise ShapeError("quaternion arrays need a last axis of length 4, not %s" % (a.shape,))
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return a.view(np.complex128)


def qmul(a, b):
    """Hamilton product on broadcastable (..., 4) arrays."""
    a, b = as_pairs(a), as_pairs(b)
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    np.subtract(a0 * b0, a1 * b1.conj(), out=out[..., 0])
    np.add(a0 * b1, a1 * b0.conj(), out=out[..., 1])
    return out.view(np.float64)


def qconj(a):
    a = np.asarray(a, dtype=np.float64)
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def row_norms(rows, sq=None):
    """Euclidean norms of the rows of a 2-d array from their squared sums sq,
    by default einsum's: sqrt(sq) bit for bit, except where sq is not a
    normal float (it lost bits to underflow, or overflowed), whose rows are
    divided by their largest component before squaring."""
    if sq is None:
        sq = np.einsum("ij,ij->i", rows, rows)
    out = np.sqrt(sq)
    if not (NORMAL_MIN <= sq.min(initial=np.inf) and sq.max(initial=0.0) < np.inf):
        top = np.max(np.abs(rows), axis=1, initial=0.0)
        fix = ~((sq >= NORMAL_MIN) & (sq < np.inf)) & (top > 0.0) & (top < np.inf)
        out[fix] = top[fix] * np.sqrt(np.sum(np.square(rows[fix] / top[fix, None]), axis=1))
    return out


def slice_split(points):
    """Points p = x + I y of an (B, 4) array as (units I, complex z = x + i y),
    y >= 0; the units are imaginary, and a real point gets the unit i."""
    pts = np.asarray(points, dtype=np.float64)
    y = row_norms(pts[:, 1:])
    unit = np.zeros_like(pts)
    np.divide(pts[:, 1:], y[:, None], out=unit[:, 1:], where=y[:, None] > 0.0)
    if not y.all():
        unit[y == 0.0, 1] = 1.0
    return unit, pts[:, 0] + 1j * y


def powers(z, d):
    """z^n for n = 0..d as an (B, d + 1) complex array."""
    out = np.empty((z.shape[0], d + 1), dtype=np.complex128)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1, out=out)


def qpow_table(points, nmax):
    """Powers p_l^n for n = 0..nmax, shape (B, nmax + 1, 4), by the
    splitting formula: for p = x + v with imaginary part v of norm y and
    z = x + i y, p^n = Re z^n + v Im z^n / y, one complex cumprod."""
    pts = np.asarray(points, dtype=np.float64)
    y = row_norms(pts[:, 1:])
    zpow = powers(pts[:, 0] + 1j * y, nmax)
    # a real point has Im z^n = 0, and so no imaginary part
    ratio = np.divide(zpow.imag, y[:, None], out=np.zeros(zpow.shape), where=y[:, None] > 0.0)
    out = np.empty(zpow.shape + (4,))
    out[..., 0] = zpow.real
    out[..., 1:] = ratio[:, :, None] * pts[:, None, 1:]
    return out


def series_sandwich(pw, mid, qwc):
    """sum_n pw[l, n] mid[l, j] qwc[j, n], one term at a time."""
    out = np.zeros_like(mid)
    for n in range(pw.shape[1]):
        left = pw[:, None, n, None, None, :]
        right = qwc[None, :, n, None, None, :]
        out += qmul(qmul(left, mid), right)
    return out


def double_series(pw, coeffs, qwc):
    """sum_{n,m} pw[l, n] coeffs[n, m] qwc[j, m], one index at a time."""
    t1 = coeffs.shape[0]
    b1 = pw.shape[0]
    r, c = coeffs.shape[2], coeffs.shape[3]
    tmp = np.zeros((b1, t1, r, c, 4))
    for n in range(t1):
        tmp += qmul(pw[:, n, None, None, None, :], coeffs[None, n])
    b2 = qwc.shape[0]
    out = np.zeros((b1, b2, r, c, 4))
    for m in range(t1):
        out += qmul(tmp[:, None, m], qwc[None, :, m, None, None, :])
    return out
