import numpy as np
import pytest

from qschur.blaschke import (
    FactoredProduct,
    PointFactor,
    ZeroSet,
    blaschke_factor,
    build_product,
    potapov_factor,
)
from qschur.errors import ConstructionError, DomainError
from qschur.qlinalg import QMatrix
from qschur.quat import (
    ONE,
    Quaternion,
    qdecompose,
    same_sphere,
    sample_ball_point,
    sample_halfspace_point,
    sample_imaginary_unit,
)
from qschur.starpoly import zero_multiplicity

from oracles import eval_pointwise_chain, total_degree


def sphere_points(c, rng, count=8):
    rep = qdecompose(c)
    for _ in range(count):
        ax = sample_imaginary_unit(rng)
        yield Quaternion.from_real(rep.x) + ax.q * rep.y


def test_ball_point_factor_rational_form():
    a = Quaternion(0.1, 0.4, -0.2, 0.3)
    b = blaschke_factor("ball", "point", a)
    # den = 1 - 2 Re(a) p + |a|^2 p^2
    assert b.den.coeff(0).as_quaternion().isclose(ONE)
    assert b.den.coeff(1).as_quaternion().isclose(Quaternion.from_real(-2 * a.re))
    assert b.den.coeff(2).as_quaternion().isclose(Quaternion.from_real(a.normsq()))
    # num = (a - p(1 + a^2) + p^2 a) conj(a)/|a|
    unit = a.conj() * (1.0 / a.norm())
    assert b.num.coeff(0).as_quaternion().isclose(a * unit)
    assert b.num.coeff(1).as_quaternion().isclose(-(ONE + a * a) * unit)
    assert b.num.coeff(2).as_quaternion().isclose(a * unit)


def test_ball_point_factor_values(rng):
    for _ in range(25):
        a = sample_ball_point(rng, 0.9)
        if a.norm() < 1e-3:
            continue
        b = blaschke_factor("ball", "point", a)
        assert b.eval_scalar(a).norm() < 1e-12
        assert b.eval_scalar(Quaternion()).isclose(Quaternion.from_real(a.norm()), 1e-13)


def test_zero_convention():
    b = blaschke_factor("ball", "point", Quaternion())
    assert b.num.degree == 1 and b.den.degree == 0
    p = Quaternion(0.1, 0.2, 0.3, 0.0)
    assert b.eval_scalar(p).isclose(p)


def test_sphere_factor_vanishes_on_sphere(rng):
    c = Quaternion(0.3, 0.2, -0.1, 0.4)
    b = blaschke_factor("ball", "sphere", c)
    for q in sphere_points(c, rng):
        assert b.eval_scalar(q).norm() < 1e-12


def test_sphere_factor_rejects_real():
    with pytest.raises(DomainError):
        blaschke_factor("ball", "sphere", Quaternion.from_real(0.5))
    with pytest.raises(DomainError):
        blaschke_factor("halfspace", "sphere", Quaternion.from_real(0.5))


def test_halfspace_point_factor():
    a = Quaternion(0.7, 0.5, -0.2, 0.1)
    b = blaschke_factor("halfspace", "point", a)
    # (p^2 + 2 Re(a) p + |a|^2)^{-1} (p^2 - a^2)
    assert b.den.coeff(1).as_quaternion().isclose(Quaternion.from_real(2 * a.re))
    assert b.den.coeff(0).as_quaternion().isclose(Quaternion.from_real(a.normsq()))
    assert b.num.coeff(0).as_quaternion().isclose(-(a * a))
    assert b.num.coeff(1).as_quaternion().norm() == 0.0
    assert b.num.coeff(2).as_quaternion().isclose(ONE)
    assert b.eval_scalar(a).norm() < 1e-13
    with pytest.raises(DomainError):
        blaschke_factor("halfspace", "point", Quaternion(-0.5, 1, 0, 0))


def test_halfspace_sphere_factor(rng):
    c = Quaternion(0.6, 0.8, 0.1, -0.3)
    b = blaschke_factor("halfspace", "sphere", c)
    for q in sphere_points(c, rng):
        assert b.eval_scalar(q).norm() < 1e-12


def test_modulus_bounds(rng):
    a = Quaternion(0.2, 0.4, 0.1, -0.3)
    b = blaschke_factor("ball", "point", a)
    for x in np.linspace(-0.95, 0.95, 19):
        assert b.eval_scalar(Quaternion.from_real(x)).norm() < 1.0
    # boundary of a slice: |B_a| = 1
    for _ in range(10):
        ax = sample_imaginary_unit(rng)
        theta = rng.uniform(0, 2 * np.pi)
        e = Quaternion.from_real(np.cos(theta)) + ax.q * np.sin(theta)
        assert abs(b.eval_scalar(e).norm() - 1.0) < 1e-12
    h = blaschke_factor("halfspace", "point", Quaternion(0.8, 0.3, 0, 0))
    for x in np.linspace(0.05, 3.0, 20):
        assert h.eval_scalar(Quaternion.from_real(x)).norm() < 1.0


def test_inverse_factor_roundtrips(rng):
    # B_a * B_{conj(a)^{-1}} = 1 and B_[c] * B_[c^{-1}] = 1
    from qschur.blaschke import SphereFactor

    for _ in range(5):
        a = sample_ball_point(rng, 0.8)
        if a.norm() < 0.05:
            continue
        prod = blaschke_factor("ball", "point", a).star(
            PointFactor(a).inverse("ball").rational("ball")
        )
        assert PointFactor(a).inverse("ball").a.isclose(a.conj().inverse())
        c = sample_ball_point(rng, 0.8)
        if c.imag_modulus() < 1e-3:
            continue
        prods = blaschke_factor("ball", "sphere", c).star(
            SphereFactor(c).inverse("ball").rational("ball")
        )
        for _ in range(5):
            p = sample_ball_point(rng, 0.7)
            assert prod.eval_scalar(p).isclose(ONE, 1e-9)
            assert prods.eval_scalar(p).isclose(ONE, 1e-9)


def test_build_single_point_is_plain_factor():
    a = Quaternion(0, 0.5, 0, 0)
    prod = build_product(ZeroSet("ball", points=[(a, 1)]))
    assert len(prod.factors) == 1
    assert prod.factors[0].a.isclose(a)  # alpha_11 = a_1


def test_build_two_points_conjugation_rule(rng):
    # 0.5i and 0.5j share the sphere (x=0, y=0.5), which the zero-set
    # invariants reject, so the update rule is exercised on a
    # sphere-distinct pair
    a1 = Quaternion(0, 0.5, 0, 0)
    a2 = Quaternion(0.3, 0, 0.5, 0)
    prod = build_product(ZeroSet("ball", points=[(a1, 1), (a2, 1)]))
    # second factor carries alpha_21 = B_1(a_2)^{-1} a_2 B_1(a_2)
    b1val = blaschke_factor("ball", "point", a1).eval_scalar(a2)
    alpha21 = b1val.inverse() * a2 * b1val
    assert prod.factors[1].a.isclose(alpha21, 1e-12)
    for a in (a1, a2):
        assert prod.rational.eval_left(a).as_quaternion().norm() < 1e-10
    assert same_sphere(prod.factors[1].a, a2)


def test_build_sphere_only():
    c = Quaternion(0, 0.5, 0, 0)
    prod = build_product(ZeroSet("ball", spheres=[(c, 1)]))
    assert len(prod.factors) == 1 and prod.degree() == 2


def test_build_multiplicity_chain(rng):
    a = Quaternion(0.2, 0.5, 0, 0)
    for n in (2, 3):
        prod = build_product(ZeroSet("ball", points=[(a, n)]))
        assert zero_multiplicity(prod.rational.num, a) == ("point", n)
        for f in prod.factors:
            assert same_sphere(f.a, a)


def test_build_random_sets_multiplicities(rng):
    built = 0
    while built < 8:
        pts = []
        spheres = []
        budget = int(rng.integers(1, 7))
        while budget > 0:
            if rng.random() < 0.4 and budget >= 2:
                c = sample_ball_point(rng, 0.75)
                if c.imag_modulus() < 0.05:
                    continue
                spheres.append((c, 1))
                budget -= 2
            else:
                n = int(rng.integers(1, min(budget, 2) + 1))
                pts.append((sample_ball_point(rng, 0.75), n))
                budget -= n
        try:
            zs = ZeroSet("ball", pts, spheres).validate()
        except DomainError:
            continue
        try:
            prod = build_product(zs)
        except ConstructionError:
            continue
        built += 1
        assert prod.degree() == total_degree(zs)
        for a, n in pts:
            assert prod.rational.eval_left(a).as_quaternion().norm() < 1e-10
            assert zero_multiplicity(prod.rational.num, a) == ("point", n)
        for c, m in spheres:
            for q in sphere_points(c, rng, 4):
                assert prod.rational.eval_left(q).as_quaternion().norm() < 1e-10
            assert zero_multiplicity(prod.rational.num, c) == ("spherical", m)


def test_build_rejects_shared_sphere():
    a = Quaternion(0, 0.5, 0, 0)
    with pytest.raises(DomainError):
        ZeroSet("ball", points=[(a, 1), (Quaternion(0, 0, 0.5, 0), 1)]).validate()


def test_product_inverse_roundtrip(rng):
    zs = ZeroSet(
        "ball",
        points=[(Quaternion(0.2, 0.5, 0, 0), 1)],
        spheres=[(Quaternion(0.1, 0, 0, 0.4), 1)],
    )
    prod = build_product(zs)
    inv = prod.inverse()
    assert [type(f).__name__ for f in inv.factors] == [
        type(f).__name__ for f in reversed(prod.factors)
    ]
    both = prod.rational.star(inv.rational)
    for _ in range(20):
        p = sample_ball_point(rng, 0.7)
        assert both.eval_scalar(p).isclose(ONE, 1e-9)


def test_product_inverse_is_built_once():
    prod = build_product(ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 2)]))
    assert prod.inverse() is prod.inverse()
    empty = FactoredProduct.identity("halfspace")
    assert empty.inverse() is empty.inverse() and empty.inverse().factors == ()


def test_pointwise_chain_matches_rational(rng):
    zs = ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 2),
                                 (Quaternion(-0.3, 0, 0.4, 0), 1)])
    prod = build_product(zs)
    for _ in range(20):
        p = sample_ball_point(rng, 0.8)
        value = prod.rational.eval_left(p).as_quaternion()
        assert value.isclose(eval_pointwise_chain(prod, p), 1e-10)


def test_degree_examples():
    zs = ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 2)],
                 spheres=[(Quaternion(0.3, 0, 0.4, 0), 1)])
    assert build_product(zs).degree() == 4
    single = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    assert single.degree() == 1
    assert FactoredProduct.identity("ball").degree() == 0


def test_halfspace_build_and_inverse(rng):
    zs = ZeroSet("halfspace", points=[(Quaternion(0.6, 0.4, 0, 0), 1),
                                      (Quaternion(1.1, 0, 0.5, 0), 1)])
    prod = build_product(zs)
    for a, _ in zs.points:
        assert prod.rational.eval_left(a).as_quaternion().norm() < 1e-11
    inv = prod.inverse()
    both = prod.rational.star(inv.rational)
    for _ in range(10):
        p = sample_halfspace_point(rng, 0.2, 2.0, 1.0)
        assert both.eval_scalar(p).isclose(ONE, 1e-9)


def test_potapov_factor_kinds(rng):
    a = Quaternion(0, 0.5, 0, 0)
    jm = QMatrix.eye(2)
    proj = QMatrix.from_real(np.array([[1.0, 0.0], [0.0, 0.0]]))

    full = potapov_factor("ball", 1, a=a, P=QMatrix.eye(2), J=jm)
    b = blaschke_factor("ball", "point", a)
    p = Quaternion(0.2, 0.1, 0, 0.05)
    val = full.rational.eval_left(p)
    bval = b.eval_scalar(p)
    for idx in range(2):
        assert val.entry(idx, idx).isclose(bval, 1e-12)

    none = potapov_factor("ball", 1, a=a, P=QMatrix.zeros(2, 2), J=jm)
    assert (none.rational.eval_left(p) - QMatrix.eye(2)).norm() < 1e-13

    fac = potapov_factor("ball", 1, a=a, P=proj, J=jm)
    inv = fac.inverse()
    assert inv.factors[0].kind == 2
    both = fac.rational.star(inv.rational)
    for _ in range(5):
        w = sample_ball_point(rng, 0.6)
        assert (both.eval_left(w) - QMatrix.eye(2)).norm() < 1e-9
    assert fac.degree() == 1


def test_potapov_third_kind(rng):
    jm = QMatrix.from_real(np.diag([1.0, -1.0]))
    u = QMatrix(np.array([[[1.0, 0, 0, 0]], [[1.0, 0, 0, 0]]]))  # (1,1)^T is J-neutral
    w0 = Quaternion(0, 1.0, 0, 0)
    fac = potapov_factor("ball", 3, u=u, k=0.5, w0=w0, J=jm)
    inv = fac.inverse()
    both = fac.rational.star(inv.rational)
    for _ in range(5):
        p = sample_ball_point(rng, 0.5)
        assert (both.eval_left(p) - QMatrix.eye(2)).norm() < 1e-10
    assert fac.degree() == 1

    hs = potapov_factor("halfspace", 3, u=u, k=1.0, w0=w0, J=jm)
    assert hs.factors[0].kind == 3


def test_potapov_payload_validation():
    jm = QMatrix.eye(2)
    bad_proj = QMatrix.from_real(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DomainError, match="projection"):
        potapov_factor("ball", 1, a=Quaternion(0, 0.5, 0, 0), P=bad_proj, J=jm)
    with pytest.raises(DomainError, match="first kind"):
        potapov_factor("ball", 1, a=Quaternion.from_real(2.0), P=QMatrix.eye(2), J=jm)
    u_bad = QMatrix(np.array([[[1.0, 0, 0, 0]], [[0.0, 0, 0, 0]]]))
    with pytest.raises(DomainError, match="neutrality"):
        potapov_factor("ball", 3, u=u_bad, k=1.0, w0=Quaternion(0, 1, 0, 0), J=jm)
    u = QMatrix(np.array([[[1.0, 0, 0, 0]], [[1.0, 0, 0, 0]]]))
    jm2 = QMatrix.from_real(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError, match="gain"):
        potapov_factor("ball", 3, u=u, k=-1.0, w0=Quaternion(0, 1, 0, 0), J=jm2)
    with pytest.raises(DomainError, match="w0"):
        potapov_factor("ball", 3, u=u, k=1.0, w0=Quaternion(0, 0.5, 0, 0), J=jm2)


def test_zeroset_json_roundtrip():
    zs = ZeroSet(
        "ball",
        points=[(Quaternion(0, 0.5, 0, 0), 2)],
        spheres=[(Quaternion(0.3, 0, 0.4, 0), 1)],
    )
    back = ZeroSet.from_json(zs.to_json())
    assert back.domain == "ball"
    assert back.points[0][1] == 2 and back.points[0][0].isclose(Quaternion(0, 0.5, 0, 0))
    with pytest.raises(DomainError):
        ZeroSet.from_json({"domain": "ball", "points": [{"a": [1.5, 0, 0, 0], "n": 1}]})


@pytest.mark.parametrize("obj", [
    {"domain": "ball", "points": [{"n": 1}]},
    {"domain": "ball", "points": [5]},
    {"domain": "ball", "points": 5},
    {"domain": "ball", "spheres": "ab"},
    {"domain": "ball", "points": [{"a": [0, 0.5, 0, 0], "n": "x"}]},
    {"domain": "ball", "points": [{"a": [0, 0.5, 0, 0], "n": 1.5}]},
    {"domain": "ball", "spheres": [{"c": [0, 0.5, 0, 0]}]},
])
def test_zeroset_from_json_rejects_malformed_entries(obj):
    with pytest.raises(DomainError):
        ZeroSet.from_json(obj)


def test_cached_rational_matches_factor_chain(rng):
    zs = ZeroSet("ball", points=[(Quaternion(0.1, 0.6, 0, 0), 1),
                                 (Quaternion(-0.2, 0, 0.45, 0), 2)])
    prod = build_product(zs)
    rebuilt = FactoredProduct(prod.domain, prod.factors, size=1)
    for _ in range(20):
        p = sample_ball_point(rng, 0.75)
        assert prod.rational.eval_left(p).as_quaternion().isclose(
            rebuilt.rational.eval_left(p).as_quaternion(), 1e-11
        )
