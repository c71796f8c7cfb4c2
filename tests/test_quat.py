import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur import _accel
from qschur._jsonutil import Validator
from qschur.errors import ConfigError, DomainError
from qschur.quat import (
    I,
    J,
    K,
    ONE,
    ImaginaryUnit,
    Quaternion,
    qdecompose,
    same_sphere,
    sample_ball_point,
    sample_ball_points,
    sample_halfspace_point,
    sample_imaginary_unit,
)

from oracles import qinv, qnormsq, read_json, reconstruct, sample_ball_points_loop

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_multiplication_table_exact():
    # i^2 = j^2 = k^2 = -1, ij = -ji = k, jk = -kj = i, ki = -ik = j
    minus_one = Quaternion.from_real(-1.0)
    for unit in (I, J, K):
        assert (unit * unit).isclose(minus_one, 0.0)
    assert (I * J).isclose(K, 0.0) and (J * I).isclose(-K, 0.0)
    assert (J * K).isclose(I, 0.0) and (K * J).isclose(-I, 0.0)
    assert (K * I).isclose(J, 0.0) and (I * K).isclose(-J, 0.0)


def test_product_example_one_plus_i():
    a = Quaternion(1.0, 1.0, 0.0, 0.0)
    assert (a * a.conj()).isclose(Quaternion.from_real(2.0), 0.0)
    assert (a * a.conj()).isclose(Quaternion.from_real(2.0))


@given(quats, quats)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(a, b):
    lhs = (a * b).norm()
    rhs = a.norm() * b.norm()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(quats, quats)
@settings(max_examples=100, deadline=None)
def test_conj_antihomomorphism(a, b):
    assert (a * b).conj().isclose(b.conj() * a.conj(), 1e-12)


def test_inverse_examples():
    assert I.inverse().isclose(-I)
    assert Quaternion.from_real(2.0).inverse().isclose(Quaternion.from_real(0.5))
    p = Quaternion(1.0, 1.0, 1.0, 1.0)
    expect = Quaternion(0.25, -0.25, -0.25, -0.25)
    assert p.inverse().isclose(expect)
    assert (p * p.inverse()).isclose(ONE, 1e-14)


def test_inverse_of_zero_raises():
    with pytest.raises(DomainError):
        Quaternion().inverse()


# component moduli from 1e-300 to 1e300, with either sign, or exactly zero
wide = st.one_of(
    st.just(0.0),
    st.tuples(st.floats(-300.0, 300.0), st.booleans()).map(
        lambda t: (-1.0 if t[1] else 1.0) * 10.0 ** t[0]),
)


def within_one_ulp_of_exact_norm(q):
    """|norm(q) - |q|| <= ulp(norm(q)), decided exactly on squares."""
    r = q.norm()
    exact = sum(Fraction(c) ** 2 for c in q.to_json())
    ulp = Fraction(math.ulp(r))
    low = max(Fraction(r) - ulp, Fraction(0))
    return low * low <= exact <= (Fraction(r) + ulp) ** 2


@example(Quaternion(0.0, 0.0, 0.0, 5.1e-218))
@example(Quaternion(1e200, 0.0, 0.0, 0.0))
@example(Quaternion(1e300, -1e300, 1e300, 1e-300))
@settings(max_examples=400, deadline=None)
@given(st.builds(Quaternion, wide, wide, wide, wide))
def test_norm_and_inverse_do_not_under_or_overflow(q):
    assert within_one_ulp_of_exact_norm(q)
    assert within_one_ulp_of_exact_norm(Quaternion(0.0, q.x1, q.x2, q.x3))
    assert abs(q.imag_modulus() - Quaternion(0.0, q.x1, q.x2, q.x3).norm()) == 0.0
    if q.norm() == 0.0:
        with pytest.raises(DomainError):
            q.inverse()
        return
    unit = q * q.inverse()
    assert max(abs(unit.x0 - 1.0), abs(unit.x1), abs(unit.x2), abs(unit.x3)) <= 1e-15


def test_inverse_keeps_the_closed_form_on_normal_squares():
    for q in (Quaternion(0.3, -1.0, 2.5, 1e-3), Quaternion(1e150, 1.0, 0.0, -2.0)):
        n2 = q.normsq()
        assert q.inverse().to_json() == [q.x0 / n2, -q.x1 / n2, -q.x2 / n2, -q.x3 / n2]


def test_decompose_examples():
    rep = qdecompose(Quaternion(1.0, 2.0, 0.0, 0.0))
    assert rep.x == 1.0 and rep.y == 2.0
    assert rep.axis.q.isclose(I)

    rep = qdecompose(Quaternion.from_real(3.0))
    assert rep.x == 3.0 and rep.y == 0.0 and rep.axis is None

    rep = qdecompose(Quaternion(1.0, 1.0, 1.0, 1.0))
    assert abs(rep.y - np.sqrt(3.0)) < 1e-15
    third = 1.0 / np.sqrt(3.0)
    assert rep.axis.q.isclose(Quaternion(0.0, third, third, third))


@given(quats)
@settings(max_examples=200, deadline=None)
def test_decompose_roundtrip(p):
    rep = qdecompose(p)
    assert reconstruct(rep).isclose(p, 1e-13)


def test_same_sphere_relation(rng):
    pts = [Quaternion.from_array(rng.uniform(-2, 2, size=4)) for _ in range(12)]
    for p in pts:
        assert same_sphere(p, p)
        assert same_sphere(p, p.conj())
    for p in pts:
        for q in pts:
            assert same_sphere(p, q) == same_sphere(q, p)
    # transitivity on a constructed triple
    rep = qdecompose(pts[0])
    if rep.axis is not None:
        axis2 = ImaginaryUnit(J)
        q2 = Quaternion.from_real(rep.x) + axis2.q * rep.y
        axis3 = ImaginaryUnit(K)
        q3 = Quaternion.from_real(rep.x) + axis3.q * rep.y
        assert same_sphere(pts[0], q2) and same_sphere(q2, q3) and same_sphere(pts[0], q3)


def test_imaginary_unit_squares_to_minus_one(rng):
    for _ in range(25):
        unit = sample_imaginary_unit(rng)
        assert (unit.q * unit.q).isclose(Quaternion.from_real(-1.0), 1e-14)


def test_sampling_regions(rng):
    for _ in range(200):
        assert sample_ball_point(rng, 0.9).norm() <= 0.9 + 1e-12
    for _ in range(200):
        p = sample_halfspace_point(rng, 0.1, 2.0)
        assert 0.1 <= p.re <= 2.0


@pytest.mark.parametrize("seed", [0, 1, 7, 0x5C05])
@pytest.mark.parametrize("radius", [0.02, 0.6, 0.9, 1.0])
def test_sample_ball_points_repeat_the_per_point_draws(seed, radius):
    loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    loop = np.array([sample_ball_point(loop_rng, radius).as_array() for _ in range(25)])
    batch = sample_ball_points(batch_rng, 25, radius)
    assert batch.shape == (25, 4) and batch.tobytes() == loop.tobytes()
    # both leave the generator at the same state
    assert batch_rng.random() == loop_rng.random()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 50), st.sampled_from([0.02, 0.6, 0.9, 1.0, 2.5]))
def test_sample_ball_points_repeat_the_frozen_loop(seed, count, radius):
    loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    loop = sample_ball_points_loop(loop_rng, count, radius)
    batch = sample_ball_points(batch_rng, count, radius)
    assert batch.shape == (count, 4) and batch.tobytes() == loop.tobytes()
    assert batch_rng.random() == loop_rng.random()


@pytest.mark.parametrize("count", [1, 12, 40])
def test_sample_ball_points_repeat_the_loop_on_trial_generators(count):
    # the estimator draws every trial from its own (seed, trial) generator
    for seed in (0, 1, 0x5C05):
        for t in range(100):
            loop = sample_ball_points_loop(np.random.default_rng([seed, t]), count, 0.9)
            batch = sample_ball_points(np.random.default_rng([seed, t]), count, 0.9)
            assert np.array_equal(batch, loop) and batch.tobytes() == loop.tobytes()


def test_json_roundtrip():
    p = Quaternion(0.5, -1.25, 3.0, -0.0625)
    assert Quaternion(*read_json(Validator.quaternion, p.to_json())).isclose(p, 0.0)
    with pytest.raises(ConfigError):
        read_json(Validator.quaternion, [1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        read_json(Validator.quaternion, [1.0, float("nan"), 0.0, 0.0])


# the float closed forms against the array kernels: every difference is
# rounding, at most 1e-15 times the operands' norm product (with a floor
# for products that underflow)
UNDERFLOW = 1e-290


def size(q):
    """|q| without the underflow of the sum of squares."""
    return math.hypot(*q.to_json())


@given(quats, quats)
@settings(max_examples=300, deadline=None)
def test_scalar_algebra_matches_the_array_kernels(a, b):
    na, nb = size(a), size(b)
    prod = np.array((a * b).to_json())
    assert np.max(np.abs(prod - _accel.qmul(a.as_array(), b.as_array()))) <= 1e-15 * na * nb + UNDERFLOW
    assert np.array_equal(np.array(a.conj().to_json()), _accel.qconj(a.as_array()))
    assert abs(a.normsq() - qnormsq(a.as_array())) <= 1e-15 * na * na + UNDERFLOW
    # the array reference on components scaled by a power of two, since its
    # sum of squares underflows where imag_modulus (a hypot) does not
    shift = math.frexp(max(abs(a.x1), abs(a.x2), abs(a.x3)))[1]
    imag = np.ldexp(np.sqrt(qnormsq(np.ldexp(a.as_array()[1:], -shift))), shift)
    assert abs(a.imag_modulus() - imag) <= 1e-15 * na + UNDERFLOW
    if a.normsq() > 1e-280:
        inv = np.array(a.inverse().to_json())
        assert np.max(np.abs(inv - qinv(a.as_array()))) <= 1e-15 / na


@given(quats, quats, quats)
@settings(max_examples=200, deadline=None)
def test_product_is_associative_and_multiplicative_to_rounding(a, b, c):
    na, nb, nc = size(a), size(b), size(c)
    lhs, rhs = np.array(((a * b) * c).to_json()), np.array((a * (b * c)).to_json())
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * na * nb * nc + UNDERFLOW
    assert abs(size(a * b) - na * nb) <= 1e-15 * na * nb + UNDERFLOW


@given(quats)
@settings(max_examples=100, deadline=None)
def test_as_array_is_a_read_only_copy_of_the_components(p):
    arr = p.as_array()
    assert arr.shape == (4,) and arr.dtype == np.float64
    assert arr.tolist() == [p.x0, p.x1, p.x2, p.x3] == p.to_json()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 1.0
    assert Quaternion.from_array(arr).to_json() == p.to_json()


def test_components_are_immutable_floats():
    p = Quaternion(1, np.float64(2.0), np.int64(3), 0.5)
    assert [type(v) for v in p.to_json()] == [float] * 4
    with pytest.raises(AttributeError):
        p.x0 = 2.0
    with pytest.raises(AttributeError):
        p.extra = 1.0


@pytest.mark.parametrize("arr, message", [
    ([1.0, 2.0, 3.0], "quaternion array must have shape (4,), got (3,)"),
    (np.zeros((2, 4)), "quaternion array must have shape (4,), got (2, 4)"),
    (5.0, "quaternion array must have shape (4,), got ()"),
])
def test_from_array_errors_are_unchanged(arr, message):
    with pytest.raises(DomainError) as err:
        Quaternion.from_array(arr)
    assert str(err.value) == message


# a quaternion in JSON is read by Validator.quaternion: one violation, at the
# array for a bad shape and at the first bad component otherwise
@pytest.mark.parametrize("obj, pointer, message", [
    pytest.param([1.0, 2.0, 3.0], "", "expected a 4-element array [x0,x1,x2,x3]", id="short"),
    pytest.param("1234", "", "expected a 4-element array [x0,x1,x2,x3]", id="string"),
    pytest.param({"x0": 1.0}, "", "expected a 4-element array [x0,x1,x2,x3]", id="object"),
    pytest.param([1.0, True, 0.0, 0.0], "/1", "expected a number", id="bool-component"),
    pytest.param([1.0, "2", 0.0, 0.0], "/1", "expected a number", id="string-component"),
    pytest.param([1.0, None, 0.0, 0.0], "/1", "expected a number", id="null-component"),
    pytest.param([1.0, float("inf"), 0.0, 0.0], "/1", "non-finite number", id="inf-component"),
    pytest.param([float("nan"), 0.0, 0.0, 0.0], "/0", "non-finite number", id="nan-component"),
])
def test_quaternion_json_errors_name_pointer_and_message(obj, pointer, message):
    with pytest.raises(ConfigError) as err:
        read_json(Validator.quaternion, obj)
    assert err.value.violations == [(pointer, message)]
