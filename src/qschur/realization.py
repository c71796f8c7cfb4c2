"""Colligation-backed realizations S(p) = D + p C * (I - pA)^{-*} B.

The slice extension of C(I - xA)^{-1} off the real axis is

    C * (I - pA)^{-*} = (C - conj(p) C A)(I - 2 Re(p) A + |p|^2 A^2)^{-1},

so ball evaluation needs the resolvent I - 2Re(p)A + |p|^2 A^2 to be
invertible (p outside the S-spectrum spheres of A).  Half-space
colligations store the paper's blocks (A, F, G, H) as (A, B, C, D); the
derived block -(I + x0 A) completes the coisometric operator matrix.
realize_many evaluates a whole list of points in one batched pass: the
resolvents of all points form one stack with one inversion, and an
error is reported for the first failing point in point order.

State spaces are plain quaternionic coordinate spaces; indefinite
metrics appear only through finite Gram matrices handled elsewhere.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _accel
from .blaschke import BALL, HALFSPACE, _check_domain
from .errors import (
    DomainError,
    IllPosedError,
    NumericError,
    PoleError,
    ShapeError,
    SpectrumError,
)
from .qlinalg import (
    QMatrix,
    complex_adjoint,
    from_complex_adjoint,
    hstack,
    qinv_arr,
    qmatmul_arr,
    vstack,
)
from .quat import Quaternion, as_quaternion, qdecompose


@dataclass
class Colligation:
    """Operator matrix (A, B, C, D) on Hilbert coefficient spaces.

    Ball: the operator matrix is [[A, B], [C, D]].  Half-space: the
    paper's (A, F, G, H) are stored as (A, B, C, D) with positive x0,
    and the operator matrix is [[-(I + x0 A), B], [C, D]].
    """

    A: QMatrix
    B: QMatrix
    C: QMatrix
    D: QMatrix
    domain: str = BALL
    x0: float = None

    def __post_init__(self):
        n = self.A.rows
        if self.A.cols != n:
            raise ShapeError("A must be square")
        if self.B.rows != n or self.C.cols != n:
            raise ShapeError("B and C must match the state dimension")
        if self.D.shape != (self.C.rows, self.B.cols):
            raise ShapeError("D must be C.rows x B.cols")
        _check_domain(self.domain)
        if self.x0 is not None:
            if isinstance(self.x0, bool) or not isinstance(self.x0, numbers.Real):
                raise DomainError("x0 must be a real number, not %r" % (self.x0,))
            if not math.isfinite(self.x0):
                raise DomainError("x0 must be finite")
        if self.domain == HALFSPACE:
            if self.x0 is None or not self.x0 > 0.0:
                raise DomainError("half-space colligations need x0 > 0")

    @property
    def state_dim(self):
        return self.A.rows

    def b_block(self):
        """Half-space operator matrix block -(I + x0 A)."""
        if self.domain != HALFSPACE:
            raise DomainError("b_block is a half-space notion")
        eye = QMatrix.eye(self.state_dim)
        return -(eye + self.A.scale_left(self.x0))

    def operator_matrix(self):
        if self.domain == BALL:
            top = hstack([self.A, self.B])
        else:
            top = hstack([self.b_block(), self.B])
        bot = hstack([self.C, self.D])
        return vstack([top, bot])

    def coisometry_residual(self):
        """||M M^* - I|| for the operator matrix M; zero for a coisometry."""
        m = self.operator_matrix()
        return (m @ m.adjoint() - QMatrix.eye(m.rows)).norm()

    def to_json(self):
        out = {
            "A": self.A.to_json(),
            "B": self.B.to_json(),
            "C": self.C.to_json(),
            "D": self.D.to_json(),
            "domain": self.domain,
        }
        if self.x0 is not None:
            out["x0"] = float(self.x0)
        return out

    @classmethod
    def from_json(cls, v, obj, path):
        """The colligation at path of a config, or None with the violations
        recorded in v."""
        if not v.check_object(obj, path, ("A", "B", "C", "D", "domain", "x0")):
            return None
        blocks = {key: QMatrix.from_json(v, obj.get(key), "%s/%s" % (path, key)) for key in "ABCD"}
        if None in blocks.values():
            return None
        return v.build(path, lambda: cls(**blocks, domain=obj.get("domain", BALL),
                                         x0=obj.get("x0")))


def _stack(quats):
    """A list of quaternions as a (B, 1, 1, 4) array, one 1x1 matrix each."""
    return np.array([(q.x0, q.x1, q.x2, q.x3) for q in quats]).reshape(-1, 1, 1, 4)


def realize_many(col, points):
    """Values of the transfer function of a colligation at every point of a
    sequence of quaternions, as one (B, r, s, 4) array.

    Ball:  D + p (C - conj(p) C A)(I - 2Re(p)A + |p|^2 A^2)^{-1} B,
    which reduces to D + x C (I - xA)^{-1} B at real x.  Half-space:
    D - (p - x0)(C - phib C A)(|phi|^2 A^2 - 2Re(phi) A + I)^{-1} B with
    phi = (p - x0)(p + x0)^{-1} and phib its conjugate; the (p - x0)
    prefactor annihilates the second term at p = x0, so S(x0) = D.

    The resolvents of all points are inverted as one stack.  The error
    is that of the first failing point: PoleError at p = -x0, or
    SpectrumError when phi lies on an S-spectrum sphere of A.
    """
    pts = [as_quaternion(p) for p in points]
    pole = None
    if col.domain == BALL:
        phis, pres = pts, pts
    else:
        x0 = Quaternion.from_real(float(col.x0))
        phis, pres = [], []
        for p in pts:
            shift = p + x0
            if shift.norm() <= 1e-13 * max(1.0, p.norm()):
                rep = qdecompose(p)
                pole = PoleError(rep.x, rep.y, "half-space evaluation at p = -x0")
                break
            pres.append(p - x0)
            phis.append(pres[-1] * shift.inverse())
    phi = _stack(phis)
    c0, c1, c2, c3 = (phi[..., k:k + 1] for k in range(4))
    a = col.A.data
    # a huge point overflows here, and qinv_arr rejects its resolvent
    with np.errstate(over="ignore", invalid="ignore"):
        normsq = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3    # summed as Quaternion.normsq
        res = QMatrix.eye(col.state_dim).data - (2.0 * c0) * a + normsq * qmatmul_arr(a, a)
    try:
        rinv = qinv_arr(res)
    except NumericError as exc:
        rep = qdecompose(phis[exc.index])
        raise SpectrumError(
            "resolvent singular at sphere (x=%.6g, y=%.6g): %s" % (rep.x, rep.y, exc)
        )
    if pole is not None:
        raise pole
    # C - conj(phi) C A, times the resolvent inverse and B
    left = col.C.data - _accel.qmul(_accel.qconj(phi), qmatmul_arr(col.C.data, a))
    pre = phi if col.domain == BALL else _stack(pres)
    term = _accel.qmul(pre, qmatmul_arr(qmatmul_arr(left, rinv), col.B.data))
    return col.D.data + term if col.domain == BALL else col.D.data - term


def realize_eval(col, p):
    """The transfer function at one quaternion, as a QMatrix (see realize_many)."""
    return QMatrix(realize_many(col, [p])[0])


def colligation_from_blaschke_factor(a):
    """One-dimensional unitary ball colligation whose transfer function is B_a.

    Coefficients sit on the slice of a so the geometric series in
    A = conj(a) reproduces (1 - 2Re(a)p + |a|^2 p^2)^{-1}-type data; the
    classical disk formulas guide the ansatz and the result is verified
    numerically, with D = B_a(0) = |a|.
    """
    a = as_quaternion(a)
    r = a.norm()
    if not 0.0 < r < 1.0:
        raise DomainError("need 0 < |a| < 1")
    root = float(np.sqrt(1.0 - r * r))
    amat = QMatrix.scalar(a.conj())
    bmat = QMatrix.scalar(root)
    cmat = QMatrix.scalar(a.conj() * (-root / r))
    dmat = QMatrix.scalar(r)
    return Colligation(A=amat, B=bmat, C=cmat, D=dmat, domain=BALL)


def backward_shift_colligation(s, n):
    """Matrix shadow of the backward-shift realization on the Taylor data
    of a SchurFunction.

    The state space is the truncated coefficient space of dimension n*r:
    A shifts coefficients down ((Af)_k = f_{k+1}, top row zero), B loads
    the shifted Taylor coefficients of S, C reads f(0), and D = s_0.  The
    transfer function reproduces the degree-n Taylor polynomial of S
    exactly (A is nilpotent, so the series is finite).
    """
    if n < 1:
        raise DomainError("truncation must be at least 1")
    coeffs = s.taylor(n)
    r, scols = coeffs.shape[1], coeffs.shape[2]

    adata = np.zeros((n * r, n * r, 4))
    for blk in range(n - 1):
        for u in range(r):
            adata[blk * r + u, (blk + 1) * r + u, 0] = 1.0
    bdata = np.zeros((n * r, scols, 4))
    for blk in range(n):
        bdata[blk * r : (blk + 1) * r] = coeffs[blk + 1]
    cdata = np.zeros((r, n * r, 4))
    for u in range(r):
        cdata[u, u, 0] = 1.0
    return Colligation(
        A=QMatrix(adata), B=QMatrix(bdata), C=QMatrix(cdata), D=QMatrix(coeffs[0]),
        domain=BALL,
    )


# relative residual above which solve_stein refuses its solution
STEIN_RESIDUAL_TOL = 1e-9


def solve_stein(a, c):
    """Unique Hermitian P with A^* P A = P - C^* C, negative semidefinite,
    and the residual ||A^* P A - P + C^* C|| of its tolerance test, as
    (P, residual).

    Requires every eigenvalue of chi(A) strictly outside the closed unit
    disk; solved by vectorizing the equation over the complex adjoint.
    """
    if a.rows != a.cols:
        raise ShapeError("A must be square")
    if c.cols != a.rows:
        raise ShapeError("C must have as many columns as A")
    alpha = complex_adjoint(a)
    lam = np.linalg.eigvals(alpha)
    if np.min(np.abs(lam)) <= 1.0 + 1e-12:
        raise IllPosedError(
            "spectral hypothesis violated: chi(A) has an eigenvalue of modulus "
            "%.6f inside the closed unit disk" % float(np.min(np.abs(lam)))
        )
    gamma = complex_adjoint(c)
    qmat = gamma.conj().T @ gamma
    m = alpha.shape[0]
    eye = np.eye(m * m)
    op = eye - np.kron(alpha.T, alpha.conj().T)
    try:
        vec = np.linalg.solve(op, qmat.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericError("Stein system singular: %s" % exc)
    pmat = vec.reshape(m, m, order="F")
    pmat = 0.5 * (pmat + pmat.conj().T)
    p = from_complex_adjoint(pmat)
    p = QMatrix(0.5 * (p.data + p.adjoint().data))
    resid = (a.adjoint() @ p @ a - p + c.adjoint() @ c).norm()
    scale = max(1.0, p.norm(), (c.adjoint() @ c).norm())
    if resid > STEIN_RESIDUAL_TOL * scale:
        raise NumericError("Stein residual %.3e exceeds tolerance" % resid)
    return p, resid

