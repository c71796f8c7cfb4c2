"""Checks made apart from qschur, in plain numpy.

Quaternions are (..., 4) float arrays ordered (x0, x1, x2, x3) for
x0 + i x1 + j x2 + k x3.  Nothing here imports qschur: the Schur kernel
is summed in closed form, the complex adjoint and its eigenvalues are
formed here, and CLI reports are judged from their parsed JSON.  Every
check returns a list of problems; an empty list means the result passed.
"""

import json

import numpy as np

# Roundoff allowance on top of the series truncation the program declares.
EIG_RTOL = 1e-12
MIN_EIG_TOL = 1e-8       # positivity of K_S - K_B, absolute, as the program states it
RESIDUAL_TOL = 1e-10     # zero residuals, coisometry and Stein residuals
IMAGE_TOL = 1e-12        # Cayley images against the numpy formula


def qmul(a, b):
    """Hamilton product of broadcastable (..., 4) arrays."""
    a0, a1, a2, a3 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    b0, b1, b2, b3 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def qconj(a):
    return np.asarray(a, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def qinv(a):
    a = np.asarray(a, dtype=float)
    return qconj(a) / np.sum(a * a, axis=-1)[..., None]


def qreal(x):
    """Real numbers as quaternions."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape + (4,))
    out[..., 0] = x
    return out


def cayley(p, x0):
    """(p - x0)(p + x0)^{-1}, the half-space to ball map."""
    return qmul(p - qreal(x0), qinv(p + qreal(x0)))


def adjoint(g):
    """Conjugate transpose of an (n, n, 4) quaternion matrix."""
    return qconj(np.swapaxes(g, 0, 1))


def chi_eigenvalues(g):
    """One eigenvalue per pair of the complex adjoint of Hermitian g, ascending."""
    h = 0.5 * (g + adjoint(g))
    a = h[..., 0] + 1j * h[..., 1]
    b = h[..., 2] + 1j * h[..., 3]
    z = np.block([[a, b], [-b.conj(), a.conj()]])
    lam = np.sort(np.linalg.eigvalsh(0.5 * (z + z.conj().T)))
    return 0.5 * (lam[0::2] + lam[1::2])


def kernel_closed_form(p, mid, q):
    """sum_n p_l^n M_lj conj(q_j)^n for 1x1 blocks, without truncation.

    X - p X conj(q) = M is solved entrywise by
    X = (1 - 2 Re(q) p + |q|^2 p^2)^{-1} (M - p M q).
    """
    pl = p[:, None, :]
    qj = q[None, :, :]
    den = (qreal(1.0) - 2.0 * qj[..., :1] * pl
           + np.sum(qj * qj, axis=-1)[..., None] * qmul(pl, pl))
    return qmul(qinv(den), mid - qmul(qmul(pl, mid), qj))


def outer_mid(fp, fq):
    """F(p_l) F(q_j)^* for scalar values fp (L, 4), fq (J, 4)."""
    return qmul(fp[:, None, :], qconj(fq)[None, :, :])


def negative_count(eigs, cutoff):
    """The program's rule: eigenvalues below -cutoff * max(1, spectral radius)."""
    rho = max(1.0, float(np.max(np.abs(eigs)))) if len(eigs) else 1.0
    return int(np.sum(np.asarray(eigs) < -cutoff * rho))


# ---------------------------------------------------------------------------
# Krein-Langer reports
# ---------------------------------------------------------------------------

def witness_gram(points, vectors, svals):
    """Gram c_l^* K_S(w_l, w_j) c_j of the witness, from values S(w_l)."""
    mid = qreal(1.0) - outer_mid(svals, svals)
    k = kernel_closed_form(points, mid, points)
    return qmul(qmul(qconj(vectors)[:, None, :], k), vectors[None, :, :])


def check_witness(eigs_reported, kappa_hat, cutoff, kernel_tol, points, vectors, svals):
    """Recompute the witness Gram and compare its eigenvalues with the report.

    The program truncates each kernel series once its tail is below
    kernel_tol, and the witness vectors have unit norm, so each Gram entry
    may differ from the closed form by kernel_tol and each eigenvalue by
    batch * kernel_tol (Weyl).  Roundoff adds EIG_RTOL of the spectral
    radius.
    """
    problems = []
    eigs = chi_eigenvalues(witness_gram(points, vectors, svals))
    rep = np.asarray(eigs_reported, dtype=float)
    if rep.shape != eigs.shape:
        return ["witness has %d eigenvalues, recomputed %d" % (rep.size, eigs.size)]
    scale = max(1.0, float(np.max(np.abs(eigs))))
    dev = float(np.max(np.abs(np.sort(rep) - eigs)))
    allowed = len(points) * kernel_tol + EIG_RTOL * scale
    if not dev <= allowed:
        problems.append("witness eigenvalues deviate by %.3e (allowed %.3e)" % (dev, allowed))
    neg = negative_count(eigs, cutoff)
    if neg != kappa_hat:
        problems.append("recomputed witness Gram has %d negative eigenvalues, "
                        "kappa-hat is %d" % (neg, kappa_hat))
    return problems


def check_difference_kernel(points, svals, bvals):
    """Closed-form Gram of K_S - K_B = sum p^n (B B^* - S S^*) conj(q)^n is PSD."""
    mid = outer_mid(bvals, bvals) - outer_mid(svals, svals)
    g = kernel_closed_form(points, mid, points)
    low = float(np.min(chi_eigenvalues(g)))
    if not low >= -MIN_EIG_TOL:
        return ["K_S - K_B has eigenvalue %.3e below -%.0e" % (low, MIN_EIG_TOL)]
    return []


def check_identity(rep, min_eig_tol, tol=1e-9):
    """The identity report certifies what it claims, by the program's own tolerances.

    Status ok, coefficient deviation, Hermitian residual and tail bound
    within tol, and no Gram eigenvalue of K_S - K_B below -min_eig_tol.
    """
    problems = []
    if rep.status != "ok":
        problems.append("identity status %s" % rep.status)
    for name in ("max_coeff_dev", "hermitian_residual", "tail_bound"):
        value = getattr(rep, name)
        if not value <= tol:
            problems.append("%s %.3e above %.0e" % (name, value, tol))
    if not rep.min_gram_eig >= -min_eig_tol:
        problems.append("Gram of K_S - K_B has eigenvalue %.3e" % rep.min_gram_eig)
    return problems


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def check_cli_report(expect, text):
    """Judge one report of a cheap CLI command against the generated input.

    expect holds what the benchmark knows from its own config: the
    command, the degree counted from the zero data, and for transport the
    points and x0.
    """
    try:
        doc = json.loads(text)
    except (TypeError, ValueError) as exc:
        return ["report is not JSON: %s" % exc]
    cmd = expect["command"]
    problems = []
    if doc.get("command") != cmd:
        problems.append("report command %r" % doc.get("command"))
    if cmd == "blaschke-build":
        if doc["degree"] != expect["degree"]:
            problems.append("degree %s, counted %d" % (doc["degree"], expect["degree"]))
        bad = [r for r in doc["zero_residuals"] if not r < RESIDUAL_TOL]
        if bad:
            problems.append("zero residuals %s" % bad)
    elif cmd == "dim-hb":
        if not doc["dim"] == doc["degree"] == expect["degree"]:
            problems.append("dim %s, degree %s, counted %d"
                            % (doc["dim"], doc["degree"], expect["degree"]))
    elif cmd == "realize":
        if not doc["coisometry_residual"] < RESIDUAL_TOL:
            problems.append("coisometry residual %.3e" % doc["coisometry_residual"])
        for item in doc["values"]:
            vals = np.array(item["value"]["entries"], dtype=float)
            if np.linalg.norm(item["p"]) < 1.0 and not np.all(
                    np.linalg.norm(vals, axis=-1) <= 1.0 + RESIDUAL_TOL):
                problems.append("value of modulus > 1 at %s" % item["p"])
    elif cmd == "stein":
        problems += _check_stein(doc, expect)
    elif cmd == "transport":
        pts = np.array([m["p"] for m in doc["mapped_points"]], dtype=float)
        imgs = np.array([m["image"] for m in doc["mapped_points"]], dtype=float)
        if pts.shape != np.shape(expect["points"]) or not np.array_equal(pts, expect["points"]):
            problems.append("transport echoed other points")
        else:
            dev = float(np.max(np.abs(imgs - cayley(pts, expect["x0"]))))
            if not dev <= IMAGE_TOL:
                problems.append("Cayley images deviate by %.3e" % dev)
    return problems


def _qmatrix(obj):
    return np.array(obj["entries"], dtype=float).reshape(obj["rows"], obj["cols"], 4)


def _qmatmul(a, b):
    return np.sum(qmul(a[:, :, None, :], b[None, :, :, :]), axis=1)


def _check_stein(doc, expect):
    """The report's residual, and A^* P A - P + C^* C recomputed from P."""
    problems = []
    if not doc["residual"] < RESIDUAL_TOL:
        problems.append("reported Stein residual %.3e" % doc["residual"])
    a, c, p = expect["A"], expect["C"], _qmatrix(doc["P"])
    res = _qmatmul(_qmatmul(adjoint(a), p), a) - p + _qmatmul(adjoint(c), c)
    if not np.linalg.norm(res) < RESIDUAL_TOL:
        problems.append("recomputed Stein residual %.3e" % np.linalg.norm(res))
    return problems


def check_csv(text, eigenvalues):
    """The csv table lists exactly the report's eigenvalues."""
    lines = text.strip().split("\n")
    if lines[0] != "index,eigenvalue":
        return ["csv header %r" % lines[0]]
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    if vals != list(eigenvalues):
        return ["csv eigenvalues differ from the report"]
    return []
