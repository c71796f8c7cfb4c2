import warnings

import numpy as np
import pytest

from qschur.errors import ConfigError, NumericError, PrecondError, ShapeError
from qschur.qlinalg import (
    QMatrix,
    complex_adjoint,
    from_complex_adjoint,
    herm_eigen_neg,
    herm_eigen_neg_arr,
    qadjoint_arr,
    qinv_arr,
    qmatrix_inv,
)
from qschur.quat import I, J, Quaternion

from oracles import (herm_eigen_neg_chi, orthonormalize_columns, qmatrix_from_entries,
                     random_qmatrix, read_json)


def test_complex_adjoint_examples():
    assert np.allclose(complex_adjoint(QMatrix.scalar(J)), [[0, 1], [-1, 0]])
    assert np.allclose(complex_adjoint(QMatrix.scalar(I)), [[1j, 0], [0, -1j]])
    eigs = np.linalg.eigvals(complex_adjoint(QMatrix.scalar(2.0)))
    assert np.allclose(sorted(eigs.real), [2.0, 2.0]) and np.allclose(eigs.imag, 0.0)


def test_complex_adjoint_homomorphism(rng):
    for _ in range(15):
        m = random_qmatrix(rng, 3, 4)
        n = random_qmatrix(rng, 4, 2)
        lhs = complex_adjoint(m @ n)
        rhs = complex_adjoint(m) @ complex_adjoint(n)
        assert np.max(np.abs(lhs - rhs)) < 1e-11
        assert np.max(np.abs(complex_adjoint(m.adjoint()) - complex_adjoint(m).conj().T)) < 1e-13


@pytest.mark.parametrize("shape", [(1, 1, 4), (3, 5, 4), (40, 40, 4), (6, 2, 1, 4),
                                   (2, 3, 2, 4, 4)])
def test_qadjoint_arr_is_the_negated_transposed_copy(rng, shape):
    a = rng.standard_normal(shape)
    a[..., ::2, :, 1] = 0.0
    a[..., 1::3, :, 2] = -0.0
    ref = np.swapaxes(a, -3, -2).copy()
    ref[..., 1:] = -ref[..., 1:]
    out = qadjoint_arr(a)
    assert out.flags.c_contiguous and out.tobytes() == ref.tobytes()


def test_complex_adjoint_roundtrip(rng):
    m = random_qmatrix(rng, 3, 5)
    back = from_complex_adjoint(complex_adjoint(m))
    assert (back - m).norm() < 1e-13


def test_herm_eigen_examples():
    eigs, neg = herm_eigen_neg(QMatrix.diag([1.0, -1.0]))
    assert np.allclose(eigs, [-1.0, 1.0]) and neg == 1

    h = qmatrix_from_entries([[Quaternion(), J], [-J, Quaternion()]])
    # independent route: eigenvalues of the explicit 4x4 complex adjoint
    brute = np.linalg.eigvalsh(complex_adjoint(h))
    eigs, neg = herm_eigen_neg(h)
    assert np.allclose(np.repeat(eigs, 2), brute, atol=1e-12)
    assert np.allclose(eigs, [-1.0, 1.0]) and neg == 1

    eigs, neg = herm_eigen_neg(QMatrix.zeros(3, 3))
    assert neg == 0 and np.allclose(eigs, 0.0)


def test_herm_eigen_pairing(rng):
    for _ in range(10):
        m = random_qmatrix(rng, 5, 5)
        h = QMatrix(0.5 * (m.data + m.adjoint().data))
        lam = np.sort(np.linalg.eigvalsh(complex_adjoint(h)))
        rho = max(1.0, np.max(np.abs(lam)))
        assert np.max(np.abs(lam[0::2] - lam[1::2])) < 1e-9 * rho
        herm_eigen_neg(h)  # must not raise


def test_herm_eigen_rejects_non_hermitian(rng):
    m = random_qmatrix(rng, 3, 3)
    with pytest.raises(PrecondError):
        herm_eigen_neg(m)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_herm_eigen_repeats_the_chi_side_symmetrization(rng, n):
    # raw Grams are Hermitian only up to rounding, so H and H^* differ in
    # their last bits, as here; a diagonal matrix has exact zero entries
    for _ in range(20):
        m = random_qmatrix(rng, n, n)
        h = 0.5 * (m.data + m.adjoint().data)
        h *= 1.0 + 1e-13 * rng.standard_normal(h.shape)
        for mat in (QMatrix(h), QMatrix(h * np.eye(n)[..., None])):
            fast, neg = herm_eigen_neg(mat, 1e-3)
            slow, neg_slow = herm_eigen_neg_chi(mat, 1e-3)
            assert fast.tobytes() == slow.tobytes() and neg == neg_slow
    m = random_qmatrix(rng, n + 1, n + 1)
    for f in (herm_eigen_neg, herm_eigen_neg_chi):
        with pytest.raises(PrecondError, match="not Hermitian within 1e-10"):
            f(m)


def hermitian_stack(rng, t, n):
    """t random Hermitian n x n matrices, Hermitian only up to rounding in
    their last bits, as raw Grams are."""
    m = rng.standard_normal((t, n, n, 4))
    h = 0.5 * (m + qadjoint_arr(m))
    h *= 1.0 + 1e-13 * rng.standard_normal(h.shape)
    return h


@pytest.mark.parametrize("t, n", [(1, 1), (3, 5), (16, 12), (10, 40), (2, 0)])
def test_stacked_eigensolve_repeats_the_one_matrix_eigensolve(rng, t, n):
    h = hermitian_stack(rng, t, n)
    # a diagonal matrix in the stack has exact zero entries
    h[0] *= np.eye(n)[..., None]
    eigs, negs = herm_eigen_neg_arr(h, 1e-3)
    assert eigs.shape == (t, n) and len(negs) == t
    for i in range(t):
        one, neg = herm_eigen_neg(QMatrix(h[i]), 1e-3)
        assert eigs[i].tobytes() == one.tobytes() and negs[i] == neg


# values of H[0, 0] that mark a matrix for faulty_solver
SOLVER_FAILS, PAIRING_BREAKS = 123.0, 77.0


def faulty_solver(monkeypatch):
    """eigvalsh failing on any stack or matrix that holds a matrix whose
    chi starts with SOLVER_FAILS, and splitting the lowest pair of one
    that starts with PAIRING_BREAKS, as a broken chi pairing would."""
    solve = np.linalg.eigvalsh

    def faulty(z):
        first = np.atleast_1d(z[..., 0, 0].real)
        if np.any(first == SOLVER_FAILS):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        lam = solve(z)
        lam.reshape(first.size, lam.shape[-1])[first == PAIRING_BREAKS, 0] -= 1.0
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", faulty)


@pytest.mark.parametrize("faults, error, index", [
    ({2: "skew", 4: "pairing"}, PrecondError, None),
    ({1: "pairing", 3: "skew"}, NumericError, 1),
    ({3: "nan", 4: "skew"}, NumericError, 3),
    ({0: "skew", 1: "inf"}, PrecondError, None),
    ({2: "inf", 4: "pairing"}, NumericError, 2),
    ({2: "solver", 3: "skew"}, NumericError, 2),
    ({1: "pairing", 2: "solver"}, NumericError, 1),
])
def test_stacked_eigensolve_raises_for_the_first_failing_matrix(rng, monkeypatch, faults,
                                                                 error, index):
    # each matrix alone raises its own error; the stack raises the first
    h = hermitian_stack(rng, 6, 4)
    for i, fault in faults.items():
        if fault == "skew":
            h[i, 0, 1, 2] += 1e-3
        elif fault in ("nan", "inf"):
            h[i, 1, 1, 0] = float(fault)
        else:
            h[i, 0, 0] = [SOLVER_FAILS if fault == "solver" else PAIRING_BREAKS, 0.0, 0.0, 0.0]
    faulty_solver(monkeypatch)
    with pytest.raises(error) as info:
        herm_eigen_neg_arr(h)
    if index is not None:
        assert info.value.index == index
    with pytest.raises(error) as alone:
        herm_eigen_neg(QMatrix(h[min(faults)]))
    assert str(alone.value) == str(info.value)
    texts = {"skew": "matrix is not Hermitian within 1e-10 relative",
             "pairing": "chi eigenvalue pairing violated",
             "nan": "matrix has a non-finite entry", "inf": "matrix has a non-finite entry",
             "solver": "eigenvalue solver failed: Eigenvalues did not converge"}
    assert str(info.value).startswith(texts[faults[min(faults)]])


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_herm_eigen_rejects_non_finite_entries_without_warnings(value):
    h = np.zeros((3, 3, 4))
    h[1, 2, 0] = h[2, 1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite entry"):
            herm_eigen_neg(QMatrix(h))
        # finite entries whose squares overflow are not non-finite
        h[1, 2, 0] = h[2, 1, 0] = 1e200
        eigs, neg = herm_eigen_neg(QMatrix(h))
    assert np.array_equal(eigs, [-1e200, 0.0, 1e200]) and neg == 1


def test_signature_invariance_under_unitary(rng):
    for _ in range(8):
        m = random_qmatrix(rng, 4, 4)
        h = QMatrix(0.5 * (m.data + m.adjoint().data))
        u = orthonormalize_columns(random_qmatrix(rng, 4, 4))
        _, neg = herm_eigen_neg(h)
        _, neg2 = herm_eigen_neg(u.adjoint() @ h @ u)
        assert neg == neg2


def test_inverse_examples(rng):
    assert (qmatrix_inv(QMatrix.eye(3)) - QMatrix.eye(3)).norm() < 1e-14
    inv = qmatrix_inv(QMatrix.diag([I, J]))
    assert inv.entry(0, 0).isclose(-I) and inv.entry(1, 1).isclose(-J)
    for _ in range(10):
        m = random_qmatrix(rng, 4, 4)
        minv = qmatrix_inv(m)
        assert (m @ minv - QMatrix.eye(4)).norm() < 1e-10


def test_inverse_rejects_singular():
    with pytest.raises(NumericError):
        qmatrix_inv(QMatrix.zeros(2, 2))


def test_stacked_inverse_repeats_the_one_matrix_inverse(rng):
    stack = rng.uniform(-1.0, 1.0, size=(2, 3, 3, 3, 4))
    inv = qinv_arr(stack)
    assert inv.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(inv[idx], qmatrix_inv(QMatrix(stack[idx])).data)
    assert qinv_arr(stack[:0]).shape == (0, 3, 3, 3, 4)


def test_stacked_inverse_names_the_first_failing_matrix():
    good = QMatrix.diag([I, Quaternion(0.5, 0.0, -1.0, 2.0)]).data
    ill = QMatrix.diag([1.0, 1e-14]).data
    zero = np.zeros((2, 2, 4))
    for layout, index, text in (
        ([good, ill, zero], 1, "matrix too ill-conditioned to invert (cond~1.000e+14)"),
        ([good, zero, ill], 1, "matrix is numerically singular"),
        ([zero, good, good], 0, "matrix is numerically singular"),
    ):
        stack = np.array(layout)
        with pytest.raises(NumericError) as info:
            qinv_arr(stack)
        assert info.value.index == index and str(info.value) == text
        with pytest.raises(NumericError) as one:
            qmatrix_inv(QMatrix(stack[index]))
        assert str(one.value) == text and one.value.condition == info.value.condition
    with pytest.raises(ShapeError):
        qinv_arr(np.zeros((2, 3, 4)))


def test_qmatrix_json_roundtrip(rng):
    m = random_qmatrix(rng, 2, 3)
    back = read_json(QMatrix.from_json, m.to_json())
    assert (back - m).norm() == 0.0


@pytest.mark.parametrize("obj, violations", [
    ({"rows": 1, "cols": 1, "entries": [[1, 0, 0, 0]], "extra": 1},
     [("/extra", "unknown field")]),
    ({"rows": 0, "cols": 1, "entries": []}, [("/rows", "must be >= 1")]),
    ({"rows": 1, "cols": 2, "entries": [[1, 0, 0, 0]]},
     [("/entries", "expected 2 entries, got 1")]),
    ({"rows": 1, "cols": 2, "entries": [[1, 0, 0], [0, 0, 0, "x"]]},
     [("/entries/0", "expected a 4-element array [x0,x1,x2,x3]"),
      ("/entries/1/3", "expected a number")]),
    ({"cols": 1, "entries": 5},
     [("/rows", "expected an integer"), ("/entries", "expected an array")]),
    ([1, 0, 0, 0], [("/", "expected an object")]),
])
def test_qmatrix_json_reader_names_every_violation(obj, violations):
    with pytest.raises(ConfigError) as err:
        read_json(QMatrix.from_json, obj)
    assert err.value.violations == violations


def test_adjoint_involution(rng):
    m = random_qmatrix(rng, 3, 2)
    n = random_qmatrix(rng, 2, 4)
    assert (m.adjoint().adjoint() - m).norm() == 0.0
    assert ((m @ n).adjoint() - n.adjoint() @ m.adjoint()).norm() < 1e-12
