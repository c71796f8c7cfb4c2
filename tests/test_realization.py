import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.blaschke import blaschke_factor
from qschur.errors import DomainError, IllPosedError, PoleError, QSchurError, ShapeError, SpectrumError
from qschur.kernels import SchurFunction
from qschur.qlinalg import QMatrix, complex_adjoint, herm_eigen_neg, qmatrix_inv
from qschur.quat import I, J, Quaternion, sample_ball_point, sample_halfspace_point, sample_imaginary_unit
from qschur.realization import (
    Colligation,
    backward_shift_colligation,
    colligation_from_blaschke_factor,
    realize_eval,
    realize_many,
    solve_stein,
)
from qschur.starpoly import SliceRational, StarPoly, extend_from_slice

from oracles import (isometry_residual, random_halfspace_colligation, random_qmatrix,
                     read_json, realize_eval_pointwise, resolvent_inverse, stein_is_negative)


def test_realize_degenerate_state():
    col = Colligation(
        A=QMatrix.zeros(1, 1),
        B=QMatrix.scalar(J),
        C=QMatrix.scalar(I),
        D=QMatrix.scalar(0.25),
    )
    p = Quaternion(0.1, 0.2, -0.3, 0.4)
    expect = Quaternion.from_real(0.25) + p * (I * J)
    assert realize_eval(col, p).as_quaternion().isclose(expect, 1e-14)


def test_realize_real_axis_reduction(rng):
    a = QMatrix(rng.uniform(-0.3, 0.3, size=(3, 3, 4)))
    b = random_qmatrix(rng, 3, 2)
    c = random_qmatrix(rng, 2, 3)
    d = random_qmatrix(rng, 2, 2)
    col = Colligation(A=a, B=b, C=c, D=d)
    for x in (0.0, 0.3, -0.45):
        direct = d + (c @ qmatrix_inv(QMatrix.eye(3) - a.scale_left(x)) @ b).scale_left(x)
        assert (realize_eval(col, Quaternion.from_real(x)) - direct).norm() < 1e-11


def test_blaschke_factor_colligation(rng):
    for _ in range(6):
        a = sample_ball_point(rng, 0.85)
        if a.norm() < 0.05:
            continue
        col = colligation_from_blaschke_factor(a)
        assert col.coisometry_residual() < 1e-12
        assert isometry_residual(col) < 1e-12
        assert col.D.as_quaternion().isclose(Quaternion.from_real(a.norm()))
        fac = blaschke_factor("ball", "point", a)
        for _ in range(6):
            p = sample_ball_point(rng, 0.9)
            assert realize_eval(col, p).as_quaternion().isclose(fac.eval_scalar(p), 1e-10)


def test_blaschke_colligation_real_point_classical():
    col = colligation_from_blaschke_factor(Quaternion.from_real(0.5))
    for x in (-0.4, 0.0, 0.3, 0.8):
        expect = (0.5 - x) / (1 - 0.5 * x)
        got = realize_eval(col, Quaternion.from_real(x)).as_quaternion()
        assert got.isclose(Quaternion.from_real(expect), 1e-13)


def test_blaschke_colligation_domain():
    with pytest.raises(DomainError):
        colligation_from_blaschke_factor(Quaternion())
    with pytest.raises(DomainError):
        colligation_from_blaschke_factor(Quaternion.from_real(1.5))


def test_contraction_inequality(rng):
    # coisometric identity-signature colligations satisfy A^*A + C^*C <= I
    for _ in range(5):
        a = sample_ball_point(rng, 0.8)
        if a.norm() < 0.05:
            continue
        col = colligation_from_blaschke_factor(a)
        gap = QMatrix.eye(1) - col.A.adjoint() @ col.A - col.C.adjoint() @ col.C
        eigs, _ = herm_eigen_neg(QMatrix(0.5 * (gap.data + gap.adjoint().data)))
        assert np.min(eigs) >= -1e-10


def test_backward_shift_polynomial_exact(rng):
    s0 = Quaternion(0.1, 0.2, 0, 0)
    s1 = Quaternion(0, 0, 0.3, 0)
    s2 = Quaternion(0, -0.2, 0, 0.4)
    rat = SliceRational.from_poly(StarPoly.scalar([s0, s1, s2]))
    s = SchurFunction(rat)
    col = backward_shift_colligation(s, 2)
    for _ in range(10):
        p = sample_ball_point(rng, 0.9)
        assert realize_eval(col, p).as_quaternion().isclose(rat.eval_scalar(p), 1e-12)


def test_backward_shift_reads_value_at_zero(rng):
    # C applied to a coefficient stack returns f(0) = f_0
    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0, 0.5, 0, 0)))
    col = backward_shift_colligation(s, 5)
    stack = random_qmatrix(rng, col.state_dim, 1)
    assert (col.C @ stack - QMatrix(stack.data[:1])).norm() < 1e-14
    assert col.D.as_quaternion().isclose(Quaternion.from_real(0.5))


def test_backward_shift_taylor_tail(rng):
    a = Quaternion(0, 0.5, 0, 0)
    s = SchurFunction(blaschke_factor("ball", "point", a))
    col = backward_shift_colligation(s, 12)
    worst = 0.0
    for x in np.linspace(-0.5, 0.5, 21):
        v1 = realize_eval(col, Quaternion.from_real(x)).as_quaternion()
        v2 = s.evaluate(Quaternion.from_real(x)).as_quaternion()
        worst = max(worst, (v1 - v2).norm())
    assert worst < 2.0 * 0.5**13


def test_backward_shift_observable(rng):
    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0.2, 0.4, 0, 0)))
    col = backward_shift_colligation(s, 4)
    rows = [col.C]
    power = col.A
    for _ in range(col.state_dim - 1):
        rows.append(col.C @ power)
        power = col.A @ power
    from qschur.qlinalg import complex_adjoint, vstack

    stacked = vstack(rows)
    sv = np.linalg.svd(complex_adjoint(stacked), compute_uv=False)
    assert np.sum(sv > 1e-10 * sv[0]) == 2 * col.state_dim


def test_realize_spectrum_error():
    col = Colligation(
        A=QMatrix.scalar(2.0), B=QMatrix.scalar(1.0),
        C=QMatrix.scalar(1.0), D=QMatrix.scalar(0.0),
    )
    with pytest.raises(SpectrumError):
        realize_eval(col, Quaternion.from_real(0.5))


def test_slice_extension_consistency(rng):
    a = sample_ball_point(rng, 0.7)
    if a.norm() < 0.05:
        a = Quaternion(0.3, 0.4, 0, 0)
    col = colligation_from_blaschke_factor(a)
    ax = sample_imaginary_unit(rng)
    for _ in range(10):
        q = sample_ball_point(rng, 0.9)
        v1 = realize_eval(col, q)
        v2 = extend_from_slice(lambda z: realize_eval(col, z), ax, q)
        assert (v1 - v2).norm() < 1e-11


def test_stein_scalar_exact():
    p, resid = solve_stein(QMatrix.scalar(2.0), QMatrix.scalar(1.0))
    assert abs(p.entry(0, 0).re + 1.0 / 3.0) < 1e-14
    assert p.entry(0, 0).imag_modulus() < 1e-15
    assert stein_is_negative(p)
    assert resid < 1e-14


def test_stein_zero_observation():
    p, resid = solve_stein(QMatrix.scalar(2.0), QMatrix.zeros(1, 1))
    assert p.norm() < 1e-13 and resid < 1e-13


def test_stein_random_instances(rng):
    for n in (2, 3, 5, 8):
        for _ in range(3):
            d = np.zeros((n, n, 4))
            d[np.arange(n), np.arange(n), 0] = rng.uniform(1.7, 3.0)
            a = QMatrix(d + rng.uniform(-0.15, 0.15, size=(n, n, 4)))
            c = random_qmatrix(rng, 2, n)
            p, resid = solve_stein(a, c)
            assert p.herm_residual() < 1e-12 * max(1.0, p.norm())
            # the returned residual is the Stein residual of the returned P
            assert resid == (a.adjoint() @ p @ a - p + c.adjoint() @ c).norm()
            assert resid < 1e-9 * max(1.0, p.norm())
            assert stein_is_negative(p)


def test_stein_rejects_spectrum_inside_disk():
    with pytest.raises(IllPosedError):
        solve_stein(QMatrix.scalar(0.5), QMatrix.scalar(1.0))
    with pytest.raises(IllPosedError):
        solve_stein(QMatrix.scalar(1.0), QMatrix.scalar(1.0))


def test_halfspace_colligation(rng):
    col = random_halfspace_colligation(rng, 3, 2, 2, 1.0)
    assert col.coisometry_residual() < 1e-12
    # value at the base point x0 is exactly D (the paper's H)
    assert (realize_eval(col, Quaternion.from_real(1.0)) - col.D).norm() < 1e-13
    # real-axis reduction D - (p - x0) C (I - phi A)^{-1} B
    for x in (0.4, 2.0, 3.5):
        phi = (x - 1.0) / (x + 1.0)
        inner = qmatrix_inv(QMatrix.eye(3) - col.A.scale_left(phi))
        direct = col.D - (col.C @ inner @ col.B).scale_left(x - 1.0)
        assert (realize_eval(col, Quaternion.from_real(x)) - direct).norm() < 1e-11
    # the formula is its own slice extension
    ax = sample_imaginary_unit(rng)
    for _ in range(6):
        q = sample_halfspace_point(rng, 0.4, 2.0, 1.0)
        v1 = realize_eval(col, q)
        v2 = extend_from_slice(lambda z: realize_eval(col, z), ax, q)
        assert (v1 - v2).norm() < 1e-10


def test_halfspace_b_block():
    rng = np.random.default_rng(5)
    col = random_halfspace_colligation(rng, 2, 1, 1, 0.7)
    expect = -(QMatrix.eye(2) + col.A.scale_left(0.7))
    assert (col.b_block() - expect).norm() < 1e-14


def test_colligation_validation():
    with pytest.raises(ShapeError):
        Colligation(A=QMatrix.zeros(2, 3), B=QMatrix.zeros(2, 1),
                    C=QMatrix.zeros(1, 2), D=QMatrix.zeros(1, 1))
    with pytest.raises(DomainError):
        Colligation(A=QMatrix.zeros(1, 1), B=QMatrix.zeros(1, 1),
                    C=QMatrix.zeros(1, 1), D=QMatrix.zeros(1, 1),
                    domain="halfspace")


def test_coisometry_residual_examples():
    # a 0-dimensional state leaves the operator matrix [[D]]: ||D D^* - 1||
    def residual(d):
        return Colligation(A=QMatrix.zeros(0, 0), B=QMatrix.zeros(0, 1),
                           C=QMatrix.zeros(1, 0), D=QMatrix.scalar(d)).coisometry_residual()
    assert residual(I) == 0.0
    assert residual(0.5) == 0.75
    with pytest.raises(ShapeError):
        Colligation(A=QMatrix.zeros(0, 0), B=QMatrix.zeros(0, 1),
                    C=QMatrix.zeros(1, 0), D=QMatrix.zeros(1, 2))


def test_colligation_json_roundtrip(rng):
    col = random_halfspace_colligation(rng, 2, 2, 2, 1.25)
    back = read_json(Colligation.from_json, col.to_json())
    assert (back.A - col.A).norm() == 0.0
    assert (back.B - col.B).norm() == 0.0
    assert back.domain == "halfspace" and back.x0 == 1.25
    ball = colligation_from_blaschke_factor(Quaternion(0, 0.5, 0, 0))
    back = read_json(Colligation.from_json, ball.to_json())
    assert (back.D - ball.D).norm() == 0.0


def test_colligation_rejects_bad_x0():
    blocks = dict(A=QMatrix.zeros(1, 1), B=QMatrix.zeros(1, 1),
                  C=QMatrix.zeros(1, 1), D=QMatrix.zeros(1, 1))
    for x0 in (float("inf"), float("nan"), True, np.bool_(True), "1.0", [1.0], -1.0, 0.0):
        with pytest.raises(DomainError):
            Colligation(x0=x0, domain="halfspace", **blocks)
    for x0 in (float("inf"), True, "1.0", [1.0]):
        with pytest.raises(DomainError):
            Colligation(x0=x0, **blocks)
    assert Colligation(x0=np.float64(0.5), domain="halfspace", **blocks).x0 == 0.5
    assert Colligation(x0=-1.0, **blocks).to_json()["x0"] == -1.0


# -- the batched realization against the per-point oracle -------------------

def _slice_point(z, unit):
    """The quaternion Re z + unit |Im z| for a complex z and a unit 3-vector."""
    return Quaternion(z.real, *(abs(z.imag) * unit))


def _phi(col, p):
    if col.domain == "ball":
        return p
    x0 = Quaternion.from_real(col.x0)
    return (p - x0) * (p + x0).inverse()


def _operand_scale(col, p):
    """|D| + |pre| (|C| + |phi| |C A|) |R^{-1}| |B|, R the resolvent at phi,
    with pre = p on the ball and p - x0 on the half-space."""
    phi = _phi(col, p)
    pre = p if col.domain == "ball" else p - Quaternion.from_real(col.x0)
    rinv = resolvent_inverse(col.A, phi)
    return col.D.norm() + pre.norm() * (col.C.norm() + phi.norm() * (col.C @ col.A).norm()) \
        * rinv.norm() * col.B.norm()


def _oracle(col, pts):
    """The per-point values, or the first error as (type, message)."""
    try:
        return [realize_eval_pointwise(col, p) for p in pts]
    except QSchurError as exc:
        return type(exc), str(exc)


@st.composite
def colligations_and_points(draw):
    """A ball or half-space colligation with state dimension 1-3 and
    r, s in {1, 2}, and 0-6 points: random, real, x0, on or near an
    S-spectrum sphere of A, and -x0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, r, s = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    domain = draw(st.sampled_from(["ball", "halfspace"]))
    x0 = float(rng.uniform(0.3, 2.5)) if domain == "halfspace" else None
    col = Colligation(A=QMatrix(rng.uniform(-0.6, 0.6, size=(n, n, 4))), B=random_qmatrix(rng, n, s),
                      C=random_qmatrix(rng, r, n), D=random_qmatrix(rng, r, s), domain=domain, x0=x0)
    lam = np.linalg.eigvals(complex_adjoint(col.A))
    pts = []
    for kind in draw(st.lists(st.sampled_from(["random", "real", "x0", "on", "near", "pole"]),
                              max_size=6)):
        unit = rng.normal(size=3)
        unit /= np.linalg.norm(unit)
        if kind == "random":
            pts.append(Quaternion(*rng.uniform(-1.0, 1.0, size=4)))
        elif kind == "real":
            pts.append(Quaternion.from_real(rng.uniform(-1.0, 1.0)))
        elif kind == "x0":
            pts.append(Quaternion.from_real(x0 if x0 is not None else 0.0))
        elif kind == "pole":
            pts.append(Quaternion.from_real(-x0 if x0 is not None else -0.5))
        else:
            # phi = 1/lambda puts phi on an S-spectrum sphere of A
            phi = 1.0 / lam[rng.integers(lam.size)] * (1.0 if kind == "on" else 1.0 + 1e-6)
            z = phi if domain == "ball" else x0 * (1.0 + phi) / (1.0 - phi)
            pts.append(_slice_point(z, unit))
    return col, pts


@settings(max_examples=150, deadline=None)
@given(case=colligations_and_points())
def test_realize_many_matches_the_pointwise_oracle(case):
    col, pts = case
    expect = _oracle(col, pts)
    if isinstance(expect, tuple):
        with pytest.raises(expect[0]) as info:
            realize_many(col, pts)
        assert str(info.value) == expect[1]
        return
    got = realize_many(col, pts)
    assert got.shape == (len(pts),) + col.D.shape + (4,)
    for p, value, ref in zip(pts, got, expect):
        assert np.max(np.abs(value - ref.data)) <= 1e-14 * _operand_scale(col, p)
        one = realize_eval(col, p)
        assert np.array_equal(one.data, realize_many(col, [p])[0])


def test_realize_many_of_no_points_is_empty():
    col = random_halfspace_colligation(np.random.default_rng(3), 2, 2, 2, 0.8)
    assert realize_many(col, []).shape == (0, 2, 2, 4)
    assert realize_many(colligation_from_blaschke_factor(Quaternion(0, 0.5, 0, 0)), ()).shape \
        == (0, 1, 1, 4)


def test_first_failing_point_decides_the_error():
    # A = 1/2 on the half-space with x0 = 1: phi = 2 puts the resolvent on
    # the spectrum sphere (x=2, y=0), which p = -3 reaches; p = -1 is -x0
    col = Colligation(A=QMatrix.scalar(0.5), B=QMatrix.scalar(1.0), C=QMatrix.scalar(1.0),
                      D=QMatrix.scalar(0.0), domain="halfspace", x0=1.0)
    ok, spec, pole = Quaternion(0.3, 0.2, 0, 0), Quaternion.from_real(-3.0), Quaternion.from_real(-1.0)
    for pts, kind in (([ok, spec, pole], SpectrumError), ([ok, pole, spec], PoleError)):
        expect = _oracle(col, pts)
        assert expect[0] is kind
        with pytest.raises(kind) as info:
            realize_many(col, pts)
        assert str(info.value) == expect[1]
    assert "resolvent singular at sphere (x=2, y=0): matrix is numerically singular" \
        in _oracle(col, [spec])[1]
    assert _oracle(col, [pole])[1] == "half-space evaluation at p = -x0"


def test_singular_and_ill_conditioned_points_in_one_stack():
    # on the ball with A = diag(1/2, 1/10) the resolvent diag((1 - p/2)^2,
    # (1 - p/10)^2) is singular at p = 2 and ill-conditioned next to it
    col = Colligation(A=QMatrix.diag([0.5, 0.1]), B=QMatrix.from_real(np.ones((2, 1))),
                      C=QMatrix.from_real(np.ones((1, 2))), D=QMatrix.scalar(0.0))
    near, on, ok = (Quaternion.from_real(2.0 * (1.0 + 1e-7)), Quaternion.from_real(2.0),
                    Quaternion.from_real(0.1))
    for pts in ([ok, near, on], [ok, on, near], [on, ok], [near]):
        expect = _oracle(col, pts)
        assert expect[0] is SpectrumError
        with pytest.raises(SpectrumError) as info:
            realize_many(col, pts)
        assert str(info.value) == expect[1]
    assert "numerically singular" in _oracle(col, [ok, on, near])[1]
    assert "ill-conditioned" in _oracle(col, [ok, near, on])[1]
