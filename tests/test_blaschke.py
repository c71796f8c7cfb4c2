import numpy as np
import pytest

from qschur.blaschke import (
    FactoredProduct,
    PointFactor,
    ZeroSet,
    blaschke_factor,
    build_product,
)
from qschur.errors import ConfigError, ConstructionError, DomainError
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

from oracles import (crowded_halfspace_zeros, eval_left, eval_pointwise_chain, left_root_count,
                     read_json, total_degree)


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
        assert eval_left(prod.rational, a).as_quaternion().norm() < 1e-10
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
            assert eval_left(prod.rational, a).as_quaternion().norm() < 1e-10
            assert zero_multiplicity(prod.rational.num, a) == ("point", n)
        for c, m in spheres:
            for q in sphere_points(c, rng, 4):
                assert eval_left(prod.rational, q).as_quaternion().norm() < 1e-10
            assert zero_multiplicity(prod.rational.num, c) == ("spherical", m)


def test_build_crowded_halfspace_set():
    # a residual value of 8.9e-10 at a point once read as "already vanishes";
    # validate() keeps every entry on its own sphere, so the set builds
    zs = crowded_halfspace_zeros()
    prod = build_product(zs)
    assert prod.degree() == 12
    for a, n in zs.points:
        assert prod.rational.eval_scalar(a).norm() < 1e-15
        assert left_root_count(prod.rational.num, a, n + 1) == n
        # after one extraction at the first point the residual still vanishes
        # there, while its slice data of norm 5.3e-8 once read as "sphere"
        assert zero_multiplicity(prod.rational.num, a) == ("point", n)
    assert zero_multiplicity(prod.rational.num, zs.spheres[0][0]) == ("spherical", 1)


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
        value = eval_left(prod.rational, p).as_quaternion()
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
        assert eval_left(prod.rational, a).as_quaternion().norm() < 1e-11
    inv = prod.inverse()
    both = prod.rational.star(inv.rational)
    for _ in range(10):
        p = sample_halfspace_point(rng, 0.2, 2.0, 1.0)
        assert both.eval_scalar(p).isclose(ONE, 1e-9)


def test_zeroset_json_roundtrip():
    zs = ZeroSet(
        "ball",
        points=[(Quaternion(0, 0.5, 0, 0), 2)],
        spheres=[(Quaternion(0.3, 0, 0.4, 0), 1)],
    )
    back = read_json(ZeroSet.from_json, zs.to_json())
    assert back.domain == "ball"
    assert back.points[0][1] == 2 and back.points[0][0].isclose(Quaternion(0, 0.5, 0, 0))
    with pytest.raises(ConfigError) as err:
        read_json(ZeroSet.from_json, {"domain": "ball", "points": [{"a": [1.5, 0, 0, 0], "n": 1}]})
    assert err.value.violations == [("/points/0/a", "ball zeros need |a| < 1")]
    # an absent multiplicity reads as 1
    back = read_json(ZeroSet.from_json, {"domain": "ball", "spheres": [{"c": [0, 0.5, 0, 0]}]})
    assert back.spheres[0][1] == 1


@pytest.mark.parametrize("obj, violations", [
    ({"domain": "ball", "points": [{"n": 1}]},
     [("/points/0/a", "expected a 4-element array [x0,x1,x2,x3]")]),
    ({"domain": "ball", "points": [5]}, [("/points/0", "expected an object")]),
    ({"domain": "ball", "points": 5}, [("/points", "expected an array")]),
    ({"domain": "ball", "spheres": "ab"}, [("/spheres", "expected an array")]),
    ({"domain": "ball", "points": [{"a": [0, 0.5, 0, 0], "n": "x"}]},
     [("/points/0/n", "expected an integer")]),
    ({"domain": "ball", "points": [{"a": [0, 0.5, 0, 0], "n": 1.5}]},
     [("/points/0/n", "expected an integer")]),
    ({"domain": "ball", "spheres": [{"c": [0, 0.5, 0, 0], "m": 0}]},
     [("/spheres/0/m", "must be >= 1")]),
], ids=["obj%d" % k for k in range(7)])
def test_zeroset_from_json_rejects_malformed_entries(obj, violations):
    with pytest.raises(ConfigError) as err:
        read_json(ZeroSet.from_json, obj)
    assert err.value.violations == violations


def test_zeroset_reports_every_bad_entry_and_the_later_of_two_on_one_sphere():
    obj = {"domain": "ball",
           "points": [{"a": [1.5, 0, 0, 0]}, {"a": [0, 0.5, 0, 0], "n": 0},
                      {"a": [0, 0.5, 0, 0], "zzz": 1}, {"a": [0, 0, 0.5, 0]}],
           "spheres": [{"c": [0.3, 0, 0, 0]}, {"c": [0, 0, 0, 0.5]}]}
    with pytest.raises(ConfigError) as err:
        read_json(ZeroSet.from_json, obj)
    # what the reader finds comes first, then the zero-set rules
    assert err.value.violations == [
        ("/points/1/n", "must be >= 1"),
        ("/points/2/zzz", "unknown field"),
        ("/points/0/a", "ball zeros need |a| < 1"),
        ("/points/3/a", "shares a sphere with points/2"),
        ("/spheres/0/c", "sphere representatives must be nonreal"),
        ("/spheres/1/c", "shares a sphere with points/2"),
    ]


@pytest.mark.parametrize("zeros, message", [
    (ZeroSet("ball", [(Quaternion(2, 0, 0, 0), 1)]), "/points/0/a: ball zeros need |a| < 1"),
    (ZeroSet("halfspace", spheres=[(Quaternion(-1, 1, 0, 0), 1)]),
     "/spheres/0/c: half-space spheres need Re(c) > 0"),
    (ZeroSet("ball", [(Quaternion(0, 0.5, 0, 0), 0)]), "/points/0/n: must be a positive integer"),
    (ZeroSet("disk", [(Quaternion(0, 0.5, 0, 0), 1)]), "/domain: must be one of ball|halfspace"),
])
def test_zeroset_validate_names_the_first_violation(zeros, message):
    with pytest.raises(DomainError) as err:
        zeros.validate()
    assert str(err.value) == message


def test_cached_rational_matches_factor_chain(rng):
    zs = ZeroSet("ball", points=[(Quaternion(0.1, 0.6, 0, 0), 1),
                                 (Quaternion(-0.2, 0, 0.45, 0), 2)])
    prod = build_product(zs)
    rebuilt = FactoredProduct(prod.domain, prod.factors)
    for _ in range(20):
        p = sample_ball_point(rng, 0.75)
        assert eval_left(prod.rational, p).as_quaternion().isclose(
            eval_left(rebuilt.rational, p).as_quaternion(), 1e-11
        )
