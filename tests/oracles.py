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
* estimate_neg_squares_per_trial: the estimator one trial at a time,
  each trial's points through the whole of kernels.gram, the reference
  for its blocks of trials;
* sample_ball_points_loop: the per-point sampling loop that
  quat.sample_ball_points must repeat bit for bit;
* herm_eigen_neg_chi: the Hermitian test and the symmetrization taken on
  chi(H), whose spectrum qlinalg.herm_eigen_neg must repeat bit for bit;
* taylor_recursive: Taylor coefficients of a SliceRational by recursive
  division, coefficient by coefficient, the reference for its one
  convolution;
* realified: a real-coefficient polynomial with its imaginary residues
  checked and zeroed, so that realified(D1.star(D2)).trim(1e-15) is the
  reference for the real denominator product of SliceRational;
* qpow_table_loop: quaternion powers by repeated products, the reference
  for the complex-slice power table;
* series_sum_pair (with tail_terms): the kernel series cut once its
  geometric tail is below a tolerance, the reference for
  kernels.schur_kernel_eval;
* dump_json_isinstance: the report writer as a chain of isinstance
  branches, whose bytes and errors _jsonutil.dump_json must repeat;
* scalar_poly_per_coeff: a 1x1 StarPoly from one (1, 1, 4) array per
  coefficient, whose bits StarPoly.scalar must repeat;
* point_rational_checked and sphere_rational_checked: the Blaschke factor
  rationals with StarPoly denominators through the checking constructor,
  whose bits the factors built over real vectors must repeat;
* realize_eval_pointwise (with resolvent_inverse): the transfer function
  of a colligation one point at a time by QMatrix products and one
  qmatrix_inv, the reference for the stacked realization.realize_many;
* weighted_norms and hermitian_residual: the radius-weighted coefficient
  norms and the Hermitian residual of one double-series kernel at a
  time, whose bits kernels.kernel_identity_check's stacked pass over both
  sides and their difference must repeat;
* star_inverse (with star_inv_scalar and star_conj_sym): the closed-form
  star inverse (D^{-1} N)^{-*} = (N^s)^{-1} N^c D of a scalar rational,
  the reference for the factor-chain inverse of a Blaschke product.

The test-only helpers below them build inputs for the tests and give
independent evaluations: the pointwise-product law of a Blaschke chain,
the degree of a zero set, right-quaternionic Gram-Schmidt and the random
half-space colligation built on it, a QMatrix from Quaternion entries,
the point of a sphere representation, and the cancellation of common
real factors of a rational.
"""

import json

import numpy as np

from qschur import _accel, kernels
from qschur._jsonutil import format_float
from qschur.blaschke import BALL, HALFSPACE
from qschur.errors import (DivergenceError, DomainError, ExpansionError, NumericError,
                           PoleError, PrecondError, ShapeError, SpectrumError)
from qschur.kernels import NegSquaresReport, sample_gram_vectors
from qschur.qlinalg import (QMatrix, complex_adjoint, herm_eigen_neg, qadjoint_arr, qmatmul_arr,
                            qmatrix_inv, random_qmatrix)
from qschur.quat import Quaternion, as_quaternion, qdecompose, sample_ball_points
from qschur.realization import Colligation
from qschur.starpoly import REAL_COEFF_RTOL, SliceRational, StarPoly, divmod_real, mul_real_poly


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


def herm_eigen_neg_chi(h, cutoff=1e-8, pairing_rtol=1e-9):
    """qlinalg.herm_eigen_neg with the Hermitian test and 1/2 (Z + Z^*)
    taken on Z = chi(H)."""
    if h.rows != h.cols:
        raise ShapeError("Hermitian eigenvalues need a square matrix")
    z = complex_adjoint(h)
    zh = z.conj().T
    skew = z - zh
    # chi doubles the squared norm of every entry: ||chi(M)||_F^2 = 2 ||M||_F^2
    scale = max(1.0, np.sqrt(0.5 * np.vdot(z, z).real))
    if np.sqrt(0.5 * np.vdot(skew, skew).real) > 1e-10 * scale:
        raise PrecondError("matrix is not Hermitian within 1e-10 relative")
    z += zh
    z *= 0.5
    try:
        lam = np.linalg.eigvalsh(z)
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigenvalue solver failed: %s" % exc)
    rho = max(1.0, float(np.max(np.abs(lam))) if lam.size else 0.0)
    pairs = lam.reshape(-1, 2)
    gap = float(np.max(np.abs(pairs[:, 0] - pairs[:, 1]))) if pairs.size else 0.0
    if gap > pairing_rtol * rho:
        raise NumericError("chi eigenvalue pairing violated (gap %.3e)" % gap)
    reps = 0.5 * (pairs[:, 0] + pairs[:, 1])
    negatives = int(np.sum(reps < -cutoff * rho))
    return reps, negatives


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


def estimate_neg_squares_per_trial(s, trials=200, batch=40, seed=0x5C05, rho=0.9,
                                   cutoff=1e-8):
    """kernels.estimate_neg_squares with S evaluated once per trial."""
    best, witness = -1, None
    for t in range(trials):
        rng = np.random.default_rng([int(seed), t])
        pts = sample_ball_points(rng, batch, rho)
        vecs = sample_gram_vectors(rng, batch, s.rows)
        eigs, neg = herm_eigen_neg(kernels.gram(s, pts, vecs), cutoff)
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


def taylor_recursive(rational, n):
    """Taylor truncation at 0 by recursive division of real coefficients."""
    dv = rational.den.real_vector()
    d0 = dv[0]
    if d0 == 0.0:
        raise ExpansionError("denominator vanishes at the expansion point 0")
    r, s = rational.shape
    num = rational.num.coeffs
    out = np.zeros((n + 1, r, s, 4))
    for k in range(n + 1):
        acc = num[k].copy() if k < num.shape[0] else np.zeros((r, s, 4))
        for i in range(1, min(k, len(dv) - 1) + 1):
            acc -= dv[i] * out[k - i]
        out[k] = acc / d0
    return out


def realified(poly, rtol=REAL_COEFF_RTOL):
    """Copy with imaginary residues zeroed; requires real coefficients."""
    if not poly.is_real_coeff(rtol):
        raise DomainError("polynomial does not have real coefficients")
    c = np.array(poly.coeffs)
    c[..., 1:] = 0.0
    return StarPoly(c)


def qpow_table_loop(points, nmax):
    """Powers p_l^n for n = 0..nmax, shape (B, nmax + 1, 4), one product a step."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    out = np.zeros((pts.shape[0], nmax + 1, 4))
    out[:, 0, 0] = 1.0
    for n in range(1, nmax + 1):
        out[:, n] = _accel.qmul(out[:, n - 1], pts)
    return out


MAX_SERIES_TERMS = 4000


def tail_terms(rho, mnorm, tol):
    """Smallest N with mnorm * rho^(N+1) / (1 - rho) < tol (rho = |p||q|)."""
    if rho >= 1.0:
        raise DivergenceError("kernel series diverges: |p||q| = %.4f >= 1" % rho)
    if rho == 0.0 or mnorm == 0.0:
        return 0
    n = int(np.ceil(np.log(tol * (1.0 - rho) / mnorm) / np.log(rho))) - 1
    return min(max(n, 0), MAX_SERIES_TERMS)


def series_sum_pair(p, mid, q, tol=1e-12):
    """Truncated sum_n p^n M conj(q)^n for one pair of points, cut once
    its geometric tail is below tol."""
    p = p if isinstance(p, Quaternion) else Quaternion.from_real(p)
    q = q if isinstance(q, Quaternion) else Quaternion.from_real(q)
    rho = p.norm() * q.norm()
    n = tail_terms(rho, max(mid.norm(), 1e-300), tol)
    pw = qpow_table_loop(p.as_array().reshape(1, 4), n)
    qw = qpow_table_loop(q.as_array().reshape(1, 4), n)
    out = _accel.series_sandwich(pw, mid.data[None, None], _accel.qconj(qw))
    return QMatrix(out[0, 0])


def dump_json_isinstance(obj, indent=0):
    """Sorted keys and 17-significant-digit doubles, one isinstance test
    after another."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dump_json_isinstance(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            "%s%s: %s" % (inner, json.dumps(str(k)), dump_json_isinstance(obj[k], indent + 2))
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError("cannot serialize %r" % type(obj))


# ---------------------------------------------------------------------------
# test-only helpers
# ---------------------------------------------------------------------------

def eval_pointwise_chain(product, p):
    """A scalar Blaschke product at p through the pointwise-product law:
    f(p) g(f(p)^{-1} p f(p)) ... factor by factor."""
    if product.size != 1:
        raise ShapeError("pointwise chain evaluation needs scalar factors")
    p = p if isinstance(p, Quaternion) else Quaternion.from_real(p)
    acc = Quaternion.from_real(1.0)
    q = p
    for f in product.factors:
        acc = acc * f.rational(product.domain).eval_scalar(q)
        if acc.norm() == 0.0:
            return Quaternion()
        q = acc.inverse() * p * acc
    return acc


def total_degree(zeros):
    """sum n over the points plus sum 2 m over the spheres of a ZeroSet."""
    return sum(n for _, n in zeros.points) + sum(2 * m for _, m in zeros.spheres)


def orthonormalize_columns(m):
    """Right-quaternionic Gram-Schmidt; returns a matrix with orthonormal columns."""
    d = np.array(m.data)
    rows, cols = d.shape[0], d.shape[1]
    out = np.zeros_like(d)
    kept = 0
    for j in range(cols):
        v = d[:, j].copy()
        for i in range(kept):
            u = out[:, i]
            # s = <u, v> = sum conj(u_k) v_k ; subtract u * s (right scaling)
            s = np.zeros(4)
            for k in range(rows):
                s = s + _accel.qmul(_accel.qconj(u[k]), v[k])
            for k in range(rows):
                v[k] = v[k] - _accel.qmul(u[k], s)
        nrm = np.sqrt(np.sum(v * v))
        if nrm < 1e-12:
            continue
        out[:, kept] = v / nrm
        kept += 1
    if kept < cols:
        raise NumericError("columns were numerically dependent")
    return QMatrix(out)


def random_halfspace_colligation(rng, n, r, s, x0):
    """Coisometric half-space colligation from a random unitary operator
    matrix; A is recovered from the B-block relation B = -(I + x0 A)."""
    m = orthonormalize_columns(random_qmatrix(rng, n + r, n + s))
    bblk = QMatrix(m.data[:n, :n])
    f = QMatrix(m.data[:n, n:])
    g = QMatrix(m.data[n:, :n])
    h = QMatrix(m.data[n:, n:])
    amat = (-(bblk + QMatrix.eye(n))).scale_left(1.0 / x0)
    return Colligation(A=amat, B=f, C=g, D=h, domain=HALFSPACE, x0=x0)


def qmatrix_from_entries(rows_of_quats):
    """QMatrix from nested lists of Quaternion entries."""
    return QMatrix(np.array([[q.as_array() for q in row] for row in rows_of_quats]))


def reconstruct(rep):
    """The point x + axis y of a SphereRep (x itself when axis is None)."""
    if rep.axis is None:
        return Quaternion.from_real(rep.x)
    return Quaternion.from_real(rep.x) + rep.axis.q * rep.y


def normalize(rational, tol=1e-9):
    """Divide out common real-polynomial factors found by root matching.

    Factors the denominator into real linear/quadratic pieces via its
    complex roots and removes any piece that also divides every entry of
    the numerator.
    """
    num, den = rational.num, rational.den
    changed = True
    while changed and den.degree > 0:
        changed = False
        roots = np.roots(den.real_vector()[::-1])
        seen = []
        for z in roots:
            if any(abs(z - w) <= tol * max(1.0, abs(w)) for w in seen):
                continue
            seen.append(z)
            if abs(z.imag) <= tol * max(1.0, abs(z)):
                piece = StarPoly.scalar([-z.real, 1.0])
            else:
                piece = StarPoly.scalar([abs(z) ** 2, -2.0 * z.real, 1.0])
            qd, rd = divmod_real(den, piece)
            if rd.coeff_scale() > tol * den.coeff_scale():
                continue
            qn, rn = divmod_real(num, piece)
            if rn.coeff_scale() > tol * max(1.0, num.coeff_scale()):
                continue
            num, den = qn, realified(qd).trim(1e-14)
            changed = True
            break
    return SliceRational(num, den)


def scalar_poly_per_coeff(values):
    """1x1 polynomial built one (1, 1, 4) component array per coefficient."""
    return StarPoly(np.array([as_quaternion(v).as_array().reshape(1, 1, 4) for v in values]))


def point_rational_checked(domain, a):
    """Point-factor rational with its denominator as a StarPoly, checked,
    trimmed and tested for zero by the SliceRational constructor."""
    scalar = scalar_poly_per_coeff
    if domain == BALL:
        if a.norm() == 0.0:
            return SliceRational(scalar([0.0, 1.0]), StarPoly.one())
        den = scalar([1.0, -2.0 * a.re, a.normsq()])
        unit = a.conj() * (1.0 / a.norm())
        num = scalar([a * unit, -((Quaternion.from_real(1.0) + a * a) * unit), a * unit])
        return SliceRational(num, den)
    den = scalar([a.normsq(), 2.0 * a.re, 1.0])
    num = scalar([-(a * a), Quaternion(), Quaternion.from_real(1.0)])
    return SliceRational(num, den)


def sphere_rational_checked(domain, a):
    """Sphere-factor rational through the checking constructor."""
    scalar = scalar_poly_per_coeff
    num = scalar([a.normsq(), -2.0 * a.re, 1.0])
    if domain == BALL:
        return SliceRational(num, scalar([1.0, -2.0 * a.re, a.normsq()]))
    return SliceRational(num, scalar([a.normsq(), 2.0 * a.re, 1.0]))


def resolvent_inverse(a, p):
    """(I - 2 Re(p) A + |p|^2 A^2)^{-1}, raising SpectrumError when p lies
    on an S-spectrum sphere of A."""
    n = a.rows
    eye = QMatrix.eye(n)
    res = eye - (a.scale_left(2.0 * p.re)) + (a @ a).scale_left(p.normsq())
    try:
        return qmatrix_inv(res)
    except NumericError as exc:
        rep = qdecompose(p)
        raise SpectrumError(
            "resolvent singular at sphere (x=%.6g, y=%.6g): %s" % (rep.x, rep.y, exc)
        )


def realize_eval_pointwise(col, p):
    """The transfer function of a colligation at one quaternion, by
    QMatrix products and one inverse (see realization.realize_many)."""
    p = as_quaternion(p)
    if col.domain == BALL:
        rinv = resolvent_inverse(col.A, p)
        ca = col.C @ col.A
        left = col.C - ca.scale_left(p.conj())
        return col.D + (left @ rinv @ col.B).scale_left(p)

    x0 = float(col.x0)
    shift = p + Quaternion.from_real(x0)
    if shift.norm() <= 1e-13 * max(1.0, p.norm()):
        rep = qdecompose(p)
        raise PoleError(rep.x, rep.y, "half-space evaluation at p = -x0")
    phi = (p - Quaternion.from_real(x0)) * shift.inverse()
    rinv = resolvent_inverse(col.A, phi)
    ga = col.G @ col.A
    left = col.G - ga.scale_left(phi.conj())
    term = (left @ rinv @ col.F).scale_left(p - Quaternion.from_real(x0))
    return col.H - term


def weighted_norms(coeffs, radius):
    """Norms of the blocks C_{NM} of a (t, t, r, c, 4) double series scaled
    by radius^(N+M), the natural magnitude of each term on the bidisk of
    that radius."""
    mags = np.sqrt(np.sum(coeffs**2, axis=(2, 3, 4)))
    t = coeffs.shape[0]
    return mags * radius ** (np.arange(t)[:, None] + np.arange(t)[None, :])


def hermitian_residual(coeffs):
    """Max componentwise |C_{NM} - C_{MN}^*| of a (t, t, r, r, 4) double series."""
    swapped = np.transpose(coeffs, (1, 0, 3, 2, 4)).copy()
    swapped[..., 1:] = -swapped[..., 1:]
    return float(np.max(np.abs(coeffs - swapped)))


def star_conj_sym(f):
    """Conjugate f^c and symmetrization f^s = f * f^c of a scalar polynomial;
    f^s has real coefficients and comes back as a real polynomial."""
    if not f.is_scalar():
        raise ShapeError("conjugate/symmetrization is unsupported for matrix input")
    c = np.array(f.coeffs)
    c[..., 1:] = -c[..., 1:]
    fc = StarPoly(c)
    return fc, StarPoly.real(f.star(fc).real_vector())


def star_inv_scalar(f, rtol=1e-12):
    """Star inverse of a scalar polynomial as the rational (f^s)^{-1} f^c."""
    ft = f.trim(rtol)
    if ft.is_zero():
        raise DomainError("zero polynomial has no star inverse")
    fc, fs = star_conj_sym(ft)
    return SliceRational(fc, fs)


def star_inverse(rational):
    """(D^{-1} N)^{-*} = (N^s)^{-1} N^c D for a scalar rational, with the
    conjugate N^c and the real symmetrization N^s = N * N^c."""
    if not rational.is_scalar():
        raise DomainError("the closed-form star inverse needs a scalar rational")
    inv = star_inv_scalar(rational.num)
    return SliceRational(mul_real_poly(inv.num, rational.den.real_vector()), inv.den)
