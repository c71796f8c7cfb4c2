"""The complex-pair quaternion kernels against the componentwise formulas.

_accel.qmul and qlinalg.qmatmul_arr read (..., 4) float64 components as
(..., 2) complex pairs p = A + B j and multiply with four complex
products.  The sixteen-term real formulas they replaced are kept here as
the reference; both are run on broadcast shapes and on sliced,
transposed, negative-stride, broadcast, empty and integer inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from qschur._accel import as_pairs, qmul, qpow_table
from qschur.errors import ShapeError
from qschur.qlinalg import QMatrix, complex_adjoint, from_complex_adjoint, qmatmul_arr

from oracles import qpow_table_loop


def qmul16(a, b):
    """Hamilton product, component by component."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def qmatmul16(a, b):
    """Quaternion matrix product, component by component."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
            a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
            a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
            a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
        ],
        axis=-1,
    )


LAYOUTS = ("contiguous", "sliced", "transposed", "negative", "broadcast",
           "broadcast-last", "strided-last", "integer")


def layout(rng, shape, kind):
    """An array of the given shape (last axis 4) stored in the given way."""
    lead = shape[:-1]
    if kind == "contiguous":
        return rng.uniform(-2, 2, size=shape)
    if kind == "sliced":
        big = rng.uniform(-2, 2, size=tuple(2 * n + 1 for n in lead) + (4,))
        return big[tuple(slice(1, None, 2) for _ in lead)]
    if kind == "transposed":
        return np.moveaxis(rng.uniform(-2, 2, size=lead[::-1] + (4,)),
                           range(len(lead)), range(len(lead))[::-1])
    if kind == "negative":
        return rng.uniform(-2, 2, size=shape)[(slice(None, None, -1),) * len(shape)]
    if kind == "broadcast":
        return np.broadcast_to(rng.uniform(-2, 2, size=(1,) * len(lead) + (4,)), shape)
    if kind == "broadcast-last":
        return np.broadcast_to(rng.uniform(-2, 2, size=lead + (1,)), shape)
    if kind == "strided-last":
        return rng.uniform(-2, 2, size=lead + (8,))[..., ::2]
    return rng.integers(-5, 6, size=shape)


def abs_sum(a):
    """sum_i |x_i| per quaternion: the scale of its products' rounding error."""
    return np.sum(np.abs(np.asarray(a, dtype=np.float64)), axis=-1)


@settings(max_examples=300, deadline=None)
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       kinds=st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS)),
       seed=st.integers(0, 2**32 - 1))
def test_qmul_matches_sixteen_term_formula(shapes, kinds, seed):
    rng = np.random.default_rng(seed)
    a = layout(rng, shapes.input_shapes[0] + (4,), kinds[0])
    b = layout(rng, shapes.input_shapes[1] + (4,), kinds[1])
    got, ref = qmul(a, b), qmul16(a, b)
    assert got.dtype == np.float64 and got.shape == ref.shape == shapes.result_shape + (4,)
    bound = (abs_sum(a) * abs_sum(b))[..., None]
    assert np.all(np.abs(got - ref) <= 1e-15 * bound)


@settings(max_examples=300, deadline=None)
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3),
       dims=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       kinds=st.tuples(st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS)),
       seed=st.integers(0, 2**32 - 1))
def test_qmatmul_matches_sixteen_term_formula(shapes, dims, kinds, seed):
    rng = np.random.default_rng(seed)
    r, t, c = dims
    a = layout(rng, shapes.input_shapes[0] + (r, t, 4), kinds[0])
    b = layout(rng, shapes.input_shapes[1] + (t, c, 4), kinds[1])
    got, ref = qmatmul_arr(a, b), qmatmul16(a, b)
    assert got.dtype == np.float64
    assert got.shape == ref.shape == shapes.result_shape + (r, c, 4)
    bound = (abs_sum(a) @ abs_sum(b))[..., None]
    assert np.all(np.abs(got - ref) <= 1e-15 * bound)


@pytest.mark.parametrize("kind", LAYOUTS)
def test_as_pairs_copies_only_a_strided_last_axis(kind):
    a = layout(np.random.default_rng(5), (3, 2, 4), kind)
    pairs = as_pairs(a)
    assert pairs.dtype == np.complex128 and pairs.shape == (3, 2, 2)
    assert np.array_equal(pairs.real, a[..., 0::2]) and np.array_equal(pairs.imag, a[..., 1::2])
    copies = kind in ("negative", "broadcast-last", "strided-last", "integer")
    assert np.shares_memory(pairs, a) != copies


@settings(max_examples=100, deadline=None)
@given(dims=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       kind=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_complex_adjoint_is_a_star_homomorphism(dims, kind, seed):
    rng = np.random.default_rng(seed)
    r, t, c = dims
    a = layout(rng, (r, t, 4), kind)
    b = QMatrix(rng.uniform(-2, 2, size=(t, c, 4)))
    ca = complex_adjoint(a)
    x, y = a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]
    assert np.array_equal(ca, np.block([[x, y], [-np.conj(y), np.conj(x)]]))
    lhs = complex_adjoint(QMatrix(a) @ b)
    rhs = ca @ complex_adjoint(b)
    assert np.max(np.abs(lhs - rhs), initial=0.0) <= 1e-14 * max(1, t) * 16
    assert np.array_equal(complex_adjoint(QMatrix(a).adjoint()), ca.conj().T)
    assert np.array_equal(from_complex_adjoint(ca).data, QMatrix(a).data)


@pytest.mark.parametrize("call", [
    lambda: as_pairs(np.zeros((2, 3))),
    lambda: as_pairs(np.float64(1.0)),
    lambda: qmul(np.zeros(3), np.zeros(4)),
    lambda: qmul(np.zeros(4), np.zeros((2, 5))),
    lambda: qmatmul_arr(np.zeros((2, 2, 5)), np.zeros((2, 2, 5))),
    lambda: complex_adjoint(np.zeros((2, 2, 3))),
])
def test_last_axis_other_than_4_raises(call):
    with pytest.raises(ShapeError):
        call()


def test_qpow_table_matches_repeated_products():
    # the complex-slice table against one quaternion product a power, on
    # random points with |p| <= 1.5, real points and the origin
    rng = np.random.default_rng(0x90)
    pts = rng.normal(size=(60, 4))
    pts *= (1.5 * rng.random(60) ** 0.25 / np.linalg.norm(pts, axis=1))[:, None]
    pts[:4, 1:] = 0.0
    pts[4] = 0.0
    pts[5] = [0.0, 1e-9, -2e-9, 0.0]
    for nmax in (0, 1, 2, 7, 20, 48):
        fast = qpow_table(pts, nmax)
        ref = qpow_table_loop(pts, nmax)
        scale = np.linalg.norm(pts, axis=1)[:, None] ** np.arange(nmax + 1)
        err = np.linalg.norm(fast - ref, axis=-1)
        assert fast.shape == (60, nmax + 1, 4)
        assert np.all(err <= 1e-14 * scale), nmax
        # real points have real powers
        assert np.all(fast[:5, :, 1:] == 0.0)
