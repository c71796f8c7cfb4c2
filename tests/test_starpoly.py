import json
import math
import pathlib
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qschur._jsonutil import dump_json
from qschur.blaschke import _point_rational, _sphere_rational
from qschur.errors import (ConfigError, DomainError, ExpansionError, NotARootError, PoleError,
                           ShapeError)
from qschur.qlinalg import qmatmul_arr
from qschur.quat import I, J, K, ONE, ImaginaryUnit, Quaternion, qdecompose, sample_ball_point
from qschur.starpoly import (
    SliceRational,
    StarPoly,
    divmod_real,
    extend_from_slice,
    left_root_extract,
    slice_split,
    sphere_poly,
    zero_multiplicity,
)

from oracles import (eval_left, eval_scales, normalize, point_rational_checked, polyval_batch,
                     rational_values, read_json, realified, scalar_poly_per_coeff, sphere_rational_checked,
                     star_conj_sym, star_inv_scalar, star_inverse, taylor_recursive)

comp = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, comp, comp, comp, comp)
scalar_polys = st.lists(quats, min_size=1, max_size=5).map(StarPoly.scalar)


def star_double_loop(f, g):
    """Reference star product: one quaternion matrix product per coefficient pair."""
    out = np.zeros((f.degree + g.degree + 1, f.shape[0], g.shape[1], 4))
    for n in range(f.degree + 1):
        for m in range(g.degree + 1):
            out[n + m] += qmatmul_arr(f.coeffs[n], g.coeffs[m])
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def matrix_polys(rows, cols):
    entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
    return st.integers(0, 6).flatmap(
        lambda deg: st.lists(entries, min_size=(deg + 1) * rows * cols * 4,
                             max_size=(deg + 1) * rows * cols * 4)
        .map(lambda xs: StarPoly(np.array(xs).reshape(deg + 1, rows, cols, 4))))


inner_dims = st.integers(1, 3)
# 1x1 * 1x1, 2x3 * 3x2 and r x s * s x t
PAIR_SHAPES = st.one_of(st.just((1, 1, 1)), st.just((2, 3, 2)),
                        st.tuples(inner_dims, inner_dims, inner_dims))


@st.composite
def star_operands(draw):
    r, s, t = draw(PAIR_SHAPES)
    return draw(matrix_polys(r, s)), draw(matrix_polys(s, t))


@given(star_operands())
@settings(max_examples=80, deadline=None)
def test_star_matches_the_double_loop_bit_for_bit(fg):
    f, g = fg
    assert_same_bits(f.star(g).coeffs, star_double_loop(f, g))


@given(star_operands(), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rational_star_matches_the_double_loop_bit_for_bit(fg, d1, d2):
    f, g = fg
    d1, d2 = [1.0] + d1, [1.0] + d2           # nonzero real denominators
    a = SliceRational(f, StarPoly.scalar(d1))
    b = SliceRational(g, StarPoly.scalar(d2))
    prod = a.star(b)
    assert_same_bits(prod.num.coeffs, star_double_loop(f, g))
    den = realified(StarPoly(star_double_loop(a.den, b.den))).trim(1e-15)
    assert_same_bits(prod.den.coeffs, den.coeffs)


# real denominator coefficients, with magnitudes whose products fall below
# the 1e-15 trim and signed zeros
den_coeffs = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e-8, -3e-8, 2e-16, 0.0, -0.0]))


@given(st.lists(quats, min_size=1, max_size=3), st.lists(quats, min_size=1, max_size=3),
       st.lists(den_coeffs, max_size=4), st.lists(den_coeffs, max_size=4))
@example([ONE], [ONE], [1e-8], [1e-8])             # the product's p^2 term is trimmed
@example([ONE], [ONE], [-0.0, 1.0], [])
@settings(max_examples=150, deadline=None)
def test_den_product_is_the_realified_star_bit_for_bit(n1, n2, d1, d2):
    a = SliceRational(StarPoly.scalar(n1), StarPoly.scalar([1.0] + d1))
    b = SliceRational(StarPoly.scalar(n2), StarPoly.scalar([1.0] + d2))
    ref = realified(a.den.star(b.den)).trim(1e-15)
    for got in (a.star(b), a + b, a - b):
        assert_same_bits(got.den.coeffs, ref.coeffs)
    # a polynomial operand has the denominator 1; the sum from 0.0 turns -0.0 into 0.0
    assert_same_bits(a.star(b.num).den.coeffs, realified(a.den.star(StarPoly.one())).coeffs)


def test_constructor_checks_the_arriving_denominator():
    one = StarPoly.one()
    with pytest.raises(DomainError, match="does not have real coefficients"):
        SliceRational(one, StarPoly.scalar([1.0, Quaternion(0.5, 1e-6, 0.0, 0.0)]))
    # a residue below REAL_COEFF_RTOL of the scale is accepted and dropped
    r = SliceRational(one, StarPoly.scalar([2.0, Quaternion(0.5, 0.0, 1e-14, 0.0)]))
    assert r.den.coeffs.tolist() == [[[[2.0, 0.0, 0.0, 0.0]]], [[[0.5, 0.0, 0.0, 0.0]]]]
    for zero in (StarPoly.zero(), StarPoly.scalar([0.0, 1e-15, -1e-15])):
        with pytest.raises(DomainError, match="identically zero"):
            SliceRational(one, zero)
    with pytest.raises(ShapeError):
        SliceRational(one, StarPoly.one(2))


def test_trailing_denominator_coefficient_at_1e16_of_the_scale_is_trimmed():
    one = StarPoly.one()
    assert SliceRational(one, StarPoly.scalar([2.0, 0.5, 2e-16])).den.degree == 1
    assert SliceRational(one, StarPoly.scalar([2.0, 0.5, -2e-16, 2e-16])).den.degree == 1
    assert SliceRational(one, StarPoly.scalar([2.0, 0.5, 3e-15])).den.degree == 2
    f = SliceRational(one, StarPoly.scalar([1.0, 1e-8]))
    assert f.star(f).den.degree == 1 and (f + f).den.degree == 1


def test_to_json_bytes_on_the_kl_cases(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import kl

    for index, spec in enumerate(kl.CASES):
        ball = kl.CaseOp(index, spec, None).ball
        for rat in (ball.s.rational, ball.b0.rational, ball.s0.rational,
                    ball.b0.inverse().rational):
            text = dump_json(rat.to_json())
            # the real denominator prints as the realified StarPoly did,
            # with imaginary parts 0
            assert text == dump_json({"num": rat.num.to_json(), "den": realified(rat.den).to_json()})
            for block in rat.to_json()["den"]["coeffs"]:
                assert [dump_json(x) for x in block["entries"][0][1:]] == ["0.0", "0.0", "0.0"]
            obj = json.loads(text)
            back = SliceRational(read_json(StarPoly.from_json, obj["num"]),
                                 read_json(StarPoly.from_json, obj["den"]))
            assert dump_json(back.to_json()) == text


def compose_real_mobius_loop(rat, alpha, beta, gamma, delta):
    """Reference substitution: one scaled block per power coefficient."""
    u = StarPoly.scalar([float(alpha), float(beta)])
    v = StarPoly.scalar([float(gamma), float(delta)])
    d = max(rat.num.degree, rat.den.degree)
    powers_u, powers_v = [StarPoly.one()], [StarPoly.one()]
    for _ in range(d):
        powers_u.append(powers_u[-1].star(u))
        powers_v.append(powers_v[-1].star(v))

    def weigh(poly):
        r, s = poly.shape
        acc = StarPoly.zero(r, s)
        for n in range(poly.degree + 1):
            w = powers_u[n].star(powers_v[d - n]).real_vector()
            term = np.zeros((len(w), r, s, 4))
            for k, wk in enumerate(w):
                term[k] = wk * poly.coeffs[n]
            acc = acc + StarPoly(term)
        return acc

    return weigh(rat.num), realified(weigh(rat.den)).trim(1e-14)


@given(PAIR_SHAPES.flatmap(lambda rst: matrix_polys(rst[0], rst[1])),
       st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=3),
       st.sampled_from([(0.5, 1.0, 1.0, 0.5), (1.0, 1.0, 1.0, -1.0), (-1.0, 1.0, 1.0, 1.0)]))
@example(StarPoly.scalar([0.5]), [0.5], (1.0, 1.0, 1.0, -1.0))   # the sum keeps 0.0, not -0.0
@settings(max_examples=60, deadline=None)
def test_compose_real_mobius_matches_the_loop_bit_for_bit(f, den, mobius):
    rat = SliceRational(f, StarPoly.scalar([1.0] + den))
    num, den2 = compose_real_mobius_loop(rat, *mobius)
    assume(not den2.is_zero())
    got = rat.compose_real_mobius(*mobius)
    assert_same_bits(got.num.coeffs, num.coeffs)
    assert_same_bits(got.den.coeffs, den2.coeffs)


def pmi():
    return StarPoly.scalar([-I, ONE])  # p - i


def pmj():
    return StarPoly.scalar([-J, ONE])  # p - j


def test_star_mul_frozen_example():
    h = pmi().star(pmj())
    # (p - i)(p - j) = p^2 - p(i + j) + k, constant term from i j = k
    assert h.degree == 2
    assert h.coeff(0).as_quaternion().isclose(K, 0.0)
    assert h.coeff(1).as_quaternion().isclose(-(I + J), 0.0)
    assert h.coeff(2).as_quaternion().isclose(ONE, 0.0)


def test_star_identity():
    f = StarPoly.scalar([Quaternion(0.3, 1, 0, 2), K, ONE])
    g = f.star(StarPoly.one())
    assert g.degree == f.degree
    for n in range(f.degree + 1):
        assert g.coeff(n).as_quaternion().isclose(f.coeff(n).as_quaternion(), 0.0)


@given(quats)
@settings(max_examples=50, deadline=None)
def test_symmetrized_linear_factor(a):
    # (p - a)(p - conj a) = p^2 - 2 Re(a) p + |a|^2
    f = StarPoly.scalar([-a, ONE])
    g = StarPoly.scalar([-a.conj(), ONE])
    h = f.star(g)
    assert h.coeff(0).as_quaternion().isclose(Quaternion.from_real(a.normsq()), 1e-13)
    assert h.coeff(1).as_quaternion().isclose(Quaternion.from_real(-2 * a.re), 1e-13)


@given(scalar_polys, scalar_polys, scalar_polys)
@settings(max_examples=60, deadline=None)
def test_star_associative(f, g, h):
    lhs = f.star(g).star(h)
    rhs = f.star(g.star(h))
    scale = max(1.0, lhs.coeff_scale(), rhs.coeff_scale())
    assert np.max(np.abs(lhs.coeffs - rhs._padded(lhs.degree))) <= 1e-12 * scale


def test_conj_sym_examples():
    a = Quaternion(0.2, 0.4, -0.1, 0.3)
    f = StarPoly.scalar([ONE, -a.conj()])  # 1 - p conj(a)
    fc, fs = star_conj_sym(f)
    assert fc.coeff(1).as_quaternion().isclose(-a)
    assert fs.coeff(0).as_quaternion().isclose(ONE)
    assert fs.coeff(1).as_quaternion().isclose(Quaternion.from_real(-2 * a.re))
    assert fs.coeff(2).as_quaternion().isclose(Quaternion.from_real(a.normsq()))
    # sym commutes: f * fc = fc * f
    assert np.max(np.abs(f.star(fc).coeffs - fc.star(f).coeffs)) < 1e-13

    g = StarPoly.scalar([a.conj(), ONE])  # p + conj(a)
    _, gs = star_conj_sym(g)
    assert gs.coeff(1).as_quaternion().isclose(Quaternion.from_real(2 * a.re))

    real_poly = StarPoly.scalar([1.0, -0.5])
    rc, rs = star_conj_sym(real_poly)
    assert np.max(np.abs(rc.coeffs - real_poly.coeffs)) == 0.0
    assert np.max(np.abs(rs.coeffs - real_poly.star(real_poly).coeffs)) < 1e-15


def test_conj_sym_rejects_matrix():
    f = StarPoly([np.zeros((2, 2, 4))])
    with pytest.raises(ShapeError):
        star_conj_sym(f)


def test_eval_examples():
    psq = StarPoly.scalar([Quaternion(), Quaternion(), ONE])
    assert psq.eval_scalar(J).isclose(Quaternion.from_real(-1.0))
    assert pmi().eval_scalar(I).norm() == 0.0
    h = pmi().star(pmj())
    assert h.eval_scalar(J).isclose(2 * K)
    # independent route: the pointwise product law f(p) g(f(p)^{-1} p f(p))
    fval = pmi().eval_scalar(J)
    moved = fval.inverse() * J * fval
    assert (fval * pmj().eval_scalar(moved)).isclose(2 * K, 1e-14)


@given(scalar_polys, scalar_polys, quats)
@settings(max_examples=80, deadline=None)
def test_pointwise_product_law(f, g, p):
    prod_val = f.star(g).eval_scalar(p)
    fval = f.eval_scalar(p)
    scale = max(1.0, f.eval_scale(p) * g.eval_scale(p))
    if fval.norm() <= 1e-9 * f.eval_scale(p):
        assert prod_val.norm() <= 1e-7 * scale
    else:
        # f(p)^{-1} p f(p) = conj(u) p u with u = f(p) / |f(p)|, which stays
        # finite where the inverse of a subnormal f(p) overflows
        u = fval / fval.norm()
        moved = u.conj() * p * u
        assert prod_val.isclose(fval * g.eval_scalar(moved), 1e-11 * scale)


def test_star_inverse_paper_identity():
    # (p + I)^{-*} = (p^2 + 1)^{-1} (p - I)
    f = StarPoly.scalar([I, ONE])
    inv = star_inv_scalar(f)
    assert inv.den.coeff(0).as_quaternion().isclose(ONE)
    assert inv.den.coeff(1).as_quaternion().norm() == 0.0
    assert inv.den.coeff(2).as_quaternion().isclose(ONE)
    assert inv.num.coeff(0).as_quaternion().isclose(-I)
    assert inv.num.coeff(1).as_quaternion().isclose(ONE)


def test_star_inverse_roundtrip(rng):
    for _ in range(10):
        coeffs = [Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(3)]
        f = StarPoly.scalar(coeffs)
        if f.coeff_scale() < 0.1:
            continue
        inv = star_inv_scalar(f)
        prod = f.star(inv)
        for _ in range(6):
            p = sample_ball_point(rng, 0.9)
            try:
                val = prod.eval_scalar(p)
            except PoleError:
                continue
            assert val.isclose(ONE, 1e-11 * max(1.0, f.eval_scale(p) ** 2))


def test_star_inverse_zero_poly():
    with pytest.raises(DomainError):
        star_inv_scalar(StarPoly.zero())


def test_left_root_extract_examples():
    h = pmi().star(pmj())
    g = left_root_extract(h, I)
    assert g.degree == 1
    assert g.coeff(0).as_quaternion().isclose(-J)
    remul = StarPoly.scalar([-I, ONE]).star(g)
    assert np.max(np.abs(remul.coeffs - h.coeffs)) < 1e-14

    assert left_root_extract(StarPoly.scalar([-I, ONE]), I).coeff(0).as_quaternion().isclose(ONE)

    f = StarPoly.scalar([1.0, 0.0, 1.0])  # p^2 + 1
    g = left_root_extract(f, I)
    assert g.coeff(0).as_quaternion().isclose(I)
    assert g.coeff(1).as_quaternion().isclose(ONE)


def test_left_root_extract_rejects_nonroot():
    with pytest.raises(NotARootError):
        left_root_extract(pmi(), J)


def test_left_root_property(rng):
    for _ in range(15):
        coeffs = [Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(4)]
        a = Quaternion.from_array(rng.uniform(-0.8, 0.8, 4))
        g = StarPoly.scalar(coeffs)
        f = StarPoly.scalar([-a, ONE]).star(g)
        g2 = left_root_extract(f, a)
        resid = StarPoly.scalar([-a, ONE]).star(g2)
        assert np.max(np.abs(resid.coeffs - f.coeffs)) < 1e-11 * max(1.0, f.coeff_scale())


def test_zero_multiplicity_examples():
    assert zero_multiplicity(pmi().star(pmj()), I) == ("point", 2)
    assert zero_multiplicity(StarPoly.scalar([1.0, 0.0, 1.0]), I) == ("spherical", 1)
    assert zero_multiplicity(pmi(), I) == ("point", 1)


def test_zero_multiplicity_spherical_powers():
    sp = sphere_poly(Quaternion(0.1, 0.5, 0, 0))
    f = sp.star(sp)
    assert zero_multiplicity(f, Quaternion(0.1, 0.5, 0, 0)) == ("spherical", 2)
    with pytest.raises(NotARootError):
        zero_multiplicity(sp, Quaternion(0.9, 0.5, 0, 0))


def test_divmod_real(rng):
    d = StarPoly.scalar([0.5, -1.0, 1.0])
    f = StarPoly.scalar([Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(6)])
    q, r = divmod_real(f, d)
    recon = q.star(d) + r
    assert np.max(np.abs(recon.coeffs - f._padded(recon.degree))) < 1e-12


def test_taylor_examples():
    geo = SliceRational(StarPoly.one(), StarPoly.scalar([1.0, -0.5]))
    t = geo.taylor(8)
    for n in range(9):
        assert t.coeff(n).as_quaternion().isclose(Quaternion.from_real(0.5**n), 1e-14)

    num = StarPoly.scalar([K, ONE])
    plain = SliceRational(num, StarPoly.one()).taylor(4)
    assert plain.coeff(0).as_quaternion().isclose(K)
    assert plain.coeff(1).as_quaternion().isclose(ONE)
    assert plain.coeff(3).as_quaternion().norm() == 0.0


def test_taylor_expansion_point_error():
    r = SliceRational(StarPoly.one(), StarPoly.scalar([0.0, 1.0]))
    with pytest.raises(ExpansionError):
        r.taylor(3)
    with pytest.raises(ExpansionError):
        taylor_recursive(r, 3)


def test_taylor_expands_a_pole_near_the_origin():
    # (p^2 + 0.01)^8, the denominator of a zero of multiplicity 8 at 0.1 i,
    # has den_0 = 1e-16: the pole is near 0, not at it, so the series exists
    den = np.array([1.0])
    for _ in range(8):
        den = np.convolve(den, [0.01, 0.0, 1.0])
    rat = SliceRational(StarPoly.one(), StarPoly.real(den))
    t = rat.taylor(4).coeffs[:, 0, 0, 0]
    assert t[0] == pytest.approx(1e16) and t[2] == pytest.approx(-8e18) and t[1] == t[3] == 0.0
    assert np.allclose(rat.taylor(4).coeffs, taylor_recursive(rat, 4), rtol=1e-12, atol=0.0)


def real_denominator(rng, deg):
    """Real coefficients of a degree-deg polynomial from real roots and
    conjugate pairs; the first root lies inside the unit ball, so the
    Taylor coefficients of 1/den grow."""
    den = np.array([rng.uniform(0.5, 2.0)])
    while den.size <= deg:
        rad = rng.uniform(0.3, 0.9) if den.size == 1 else rng.uniform(0.3, 3.0)
        if deg - den.size >= 1 and rng.random() < 0.6:
            theta = rng.uniform(0.0, np.pi)
            den = np.convolve(den, [rad * rad, -2.0 * rad * np.cos(theta), 1.0])
        else:
            den = np.convolve(den, [rng.choice([-1.0, 1.0]) * rad, -1.0])
    return den


@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
def test_taylor_matches_the_recursive_reference(shape):
    # the one convolution against the coefficient-by-coefficient recursion,
    # numerator and denominator degrees 0-8 and truncations 0-48; the scale
    # of coefficient k is sum_j G_(k-j) |num_j| with G the series of
    # 1/(|d_0| - |d_1| p - ... ), the magnitude that either recursion carries
    rng = np.random.default_rng(0x7A7 + shape[1])
    for den_deg in range(9):
        for num_deg in range(9):
            den = real_denominator(rng, den_deg)
            num = rng.normal(size=(num_deg + 1,) + shape + (4,))
            rat = SliceRational(StarPoly(num), StarPoly.scalar(list(den)))
            majorant = np.abs(den)
            majorant[1:] = -majorant[1:]
            for n in ((9 * den_deg + num_deg) % 49, 48):
                fast = rat.taylor(n).coeffs
                ref = taylor_recursive(rat, n)
                assert fast.shape == ref.shape == (n + 1,) + shape + (4,)
                big = taylor_recursive(SliceRational(StarPoly.one(), StarPoly.scalar(list(majorant))), n)
                sizes = np.sqrt(np.sum(num * num, axis=(1, 2, 3)))
                scale = np.convolve(big[:, 0, 0, 0], sizes)[: n + 1]
                err = np.sqrt(np.sum((fast - ref) ** 2, axis=(1, 2, 3)))
                assert np.all(err <= 1e-12 * scale), (den_deg, num_deg, n)


def test_star_inverse_closed_form(rng):
    # (D^{-1} N)^{-*} star-multiplies back to 1 at random points
    den = StarPoly.scalar([1.0, -0.4, 0.2])
    num = StarPoly.scalar([Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(3)])
    rat = SliceRational(num, den)
    inv = star_inverse(rat)
    prod = rat.star(inv)
    for _ in range(10):
        p = sample_ball_point(rng, 0.9)
        assert prod.eval_scalar(p).isclose(ONE, 1e-10)
    with pytest.raises(DomainError):
        star_inverse(SliceRational(StarPoly.one(2), StarPoly.one()))


def test_rational_pole_error():
    r = SliceRational(StarPoly.one(), StarPoly.scalar([1.0, 0.0, 1.0]))
    with pytest.raises(PoleError) as info:
        eval_left(r, I)
    assert abs(info.value.x) < 1e-12 and abs(info.value.y - 1.0) < 1e-12


def test_batch_pole_guard_matches_pointwise_scale(rng):
    den = StarPoly.scalar([0.34, -0.6, 1.0, 0.25, -0.5])
    pts = rng.normal(size=(30, 4)) * rng.uniform(0.1, 3.0, size=(30, 1))
    pointwise = [den.eval_scale(Quaternion.from_array(x)) for x in pts]
    assert np.allclose(eval_scales(den, pts), pointwise, rtol=1e-14, atol=0.0)
    # a point on the pole sphere p^2 + 1 = 0 among regular ones
    r = SliceRational(StarPoly.one(), StarPoly.scalar([1.0, 0.0, 1.0]))
    ok = np.array([[0.3, 0.1, 0, 0], [0.0, 0.2, 0.5, 0]])
    assert r.eval_many(ok).shape == (2, 1, 1, 4)
    with pytest.raises(PoleError) as info:
        r.eval_many(np.vstack([ok, [[0.0, 0.6, 0.0, 0.8]]]))
    assert abs(info.value.x) < 1e-12 and abs(info.value.y - 1.0) < 1e-12


def test_extension_examples():
    ax = ImaginaryUnit(I)
    assert extend_from_slice(lambda z: z * z, ax, J).isclose(Quaternion.from_real(-1.0))
    q = Quaternion(0.3, 0.1, -0.4, 0.2)
    assert extend_from_slice(lambda z: z, ax, q).isclose(q, 1e-14)
    assert extend_from_slice(lambda z: z - I, ax, J).isclose(J - I, 1e-14)


def test_structure_formula_reproduces_eval(rng):
    # restriction to one slice determines the polynomial everywhere
    for _ in range(10):
        coeffs = [Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(4)]
        f = StarPoly.scalar(coeffs)
        ax = ImaginaryUnit(Quaternion(0, *rng.normal(size=3)))
        for _ in range(10):
            q = Quaternion.from_array(rng.uniform(-1, 1, 4))
            direct = f.eval_scalar(q)
            ext = extend_from_slice(lambda z: f.eval_scalar(z), ax, q)
            assert direct.isclose(ext, 1e-11 * max(1.0, f.eval_scale(q)))


def test_degree_additivity(rng):
    f = StarPoly.scalar([ONE, I, ONE])
    g = StarPoly.scalar([J, ONE])
    assert f.star(g).trim(1e-12).degree == f.degree + g.degree


def test_compose_real_mobius(rng):
    rat = SliceRational(StarPoly.scalar([0.3, 1.0]), StarPoly.scalar([1.0, -0.25]))
    composed = rat.compose_real_mobius(0.5, 0.5, 1.0, -1.0)
    for _ in range(10):
        w = sample_ball_point(rng, 0.6)
        num = Quaternion.from_real(0.5) + w * 0.5
        den = Quaternion.from_real(1.0) - w
        moved = num * den.inverse()
        assert composed.eval_scalar(w).isclose(rat.eval_scalar(moved), 1e-11)


def test_normalize_reduces_common_factor():
    common = StarPoly.scalar([1.0, 2.0, 1.5])
    num = StarPoly.scalar([0.5, 1.0]).star(common)
    den = realified(StarPoly.scalar([1.0, -0.5]).star(common))
    reduced = normalize(SliceRational(num, den))
    assert reduced.den.degree == 1
    assert reduced.num.degree == 1


def test_json_roundtrip():
    f = StarPoly.scalar([ONE, I, -J])
    back = read_json(StarPoly.from_json, f.to_json())
    assert np.max(np.abs(back.coeffs - f.coeffs)) == 0.0
    r = SliceRational(f, StarPoly.scalar([1.0, 0.0, 0.25]))
    obj = r.to_json()
    back = SliceRational(read_json(StarPoly.from_json, obj["num"]),
                         read_json(StarPoly.from_json, obj["den"]))
    assert np.max(np.abs(back.num.coeffs - r.num.coeffs)) == 0.0
    assert np.max(np.abs(back.den.coeffs - r.den.coeffs)) == 0.0


HALF = {"rows": 1, "cols": 1, "entries": [[0.5, 0, 0, 0]]}


@pytest.mark.parametrize("obj, violations", [
    ({"shape": [1, 1], "coeffs": [HALF], "zzz": 0}, [("/zzz", "unknown field")]),
    ({"shape": 5, "coeffs": [HALF]}, [("/shape", "expected an array [rows, cols]")]),
    ({"shape": [1, 1], "coeffs": []}, [("/coeffs", "expected a non-empty array")]),
    ({"shape": [1, 1], "coeffs": [HALF, dict(HALF, rows=0)]}, [("/coeffs/1/rows", "must be >= 1")]),
    ({"shape": [1, 2], "coeffs": [HALF]},
     [("/coeffs/0", "coefficient shape disagrees with declared shape")]),
])
def test_starpoly_json_reader_names_every_violation(obj, violations):
    with pytest.raises(ConfigError) as err:
        read_json(StarPoly.from_json, obj)
    assert err.value.violations == violations


# -- split evaluation against quaternion Horner --------------------------------

EVAL_SHAPES = st.sampled_from(((1, 1), (2, 3), (3, 2)))
unit_comp = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def eval_points(draw):
    """1-6 points with |p| <= 2: general ones, real ones (y = 0) and the origin."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("general", "real", "origin")))
        p = np.array(draw(st.lists(unit_comp, min_size=4, max_size=4)))
        rows.append(p if kind == "general" else
                    np.array([p[0], 0.0, 0.0, 0.0]) * 2.0 if kind == "real" else np.zeros(4))
    return np.array(rows)


# imaginary parts whose squared modulus is subnormal, zero or infinite
SLICE_EDGE_ROWS = ([0.5, 0.0, 0.0, 3.668e-162], [0.5, 1e-170, 1e-170, 0.0],
                   [0.0, 1e200, 1e200, 0.0])


@given(eval_points())
@example(np.array([SLICE_EDGE_ROWS[0]]))
@example(np.array([SLICE_EDGE_ROWS[1]]))
@example(np.array([SLICE_EDGE_ROWS[2]]))
def test_slice_split_gives_unit_and_slice_point(pts):
    unit, z = slice_split(pts)
    assert np.all(unit[:, 0] == 0.0) and np.allclose(np.linalg.norm(unit, axis=1), 1.0)
    assert np.all(z.imag >= 0.0)
    rebuilt = unit * z.imag[:, None]
    rebuilt[:, 0] = z.real
    assert np.allclose(rebuilt, pts, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("row", SLICE_EDGE_ROWS)
def test_slice_split_scales_tiny_and_huge_imaginary_parts(row):
    # y = |Im p| is taken as hypot would: no row is read as real, and
    # unit * y gives back each imaginary component to rounding
    unit, z = slice_split(np.array([row]))
    assert z.real[0] == row[0] and np.isclose(z.imag[0], math.hypot(*row[1:]), rtol=1e-15, atol=0.0)
    assert abs(np.linalg.norm(unit[0]) - 1.0) <= 1e-15
    assert np.allclose(unit[0] * z.imag[0], [0.0] + row[1:], rtol=1e-15, atol=0.0)


@st.composite
def eval_polys(draw, max_degree=8):
    deg = draw(st.integers(0, max_degree))
    r, c = draw(EVAL_SHAPES)
    xs = draw(st.lists(comp, min_size=(deg + 1) * r * c * 4, max_size=(deg + 1) * r * c * 4))
    return StarPoly(np.array(xs).reshape(deg + 1, r, c, 4))


def assert_within_scale(fast, slow, scales, rtol):
    err = np.max(np.abs(fast - slow).reshape(fast.shape[0], -1), axis=1)
    assert np.all(err <= rtol * scales), (err, scales)


@settings(max_examples=150, deadline=None)
@given(eval_polys(), eval_points())
def test_split_eval_matches_horner(f, pts):
    scales = eval_scales(f, pts)
    assert_within_scale(f.eval_many(pts), polyval_batch(f.coeffs, pts), scales, 1e-13)
    if f.is_scalar():
        one = f.eval_scalar(Quaternion.from_array(pts[0])).as_array()
        assert_within_scale(one[None], polyval_batch(f.coeffs, pts[:1])[:, 0, 0], scales[:1], 1e-13)


@st.composite
def pole_free_rationals(draw):
    """A rational whose real denominator stays >= 1 in modulus on |p| <= 2:
    den_0 = 1 + sum_n |den_n| 2^n."""
    num = draw(eval_polys(max_degree=6))
    tail = draw(st.lists(unit_comp, min_size=0, max_size=4))
    den = [1.0 + sum(abs(d) * 2.0 ** (n + 1) for n, d in enumerate(tail))] + tail
    return SliceRational(num, StarPoly.scalar(den))


@settings(max_examples=150, deadline=None)
@given(pole_free_rationals(), eval_points())
def test_split_rational_eval_matches_horner(f, pts):
    slow = rational_values(f, pts)
    scales = eval_scales(f.num, pts) * eval_scales(f.den, pts)
    assert_within_scale(f.eval_many(pts), slow, scales, 1e-13)
    one = eval_left(f, Quaternion.from_array(pts[0])).data
    assert_within_scale(one[None], slow[:1], scales[:1], 1e-13)


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(0.05, 0.9), st.lists(unit_comp, min_size=3, max_size=3),
       st.lists(unit_comp, min_size=2, max_size=2), eval_points(), st.booleans())
def test_split_pole_error_at_the_same_points(x, y, axis, extra, pts, on_sphere):
    # den vanishes on the sphere (x, y); with on_sphere one point is put there
    v = np.array(axis)
    assume(np.linalg.norm(v) > 1e-3)
    den = sphere_poly(Quaternion(x, y, 0.0, 0.0)).star(StarPoly.scalar([1.0, 0.25 * extra[0]]))
    f = SliceRational(StarPoly.scalar([1.0, extra[1]]), den)
    if on_sphere:
        pts = pts.copy()
        pts[-1] = np.concatenate([[x], y * v / np.linalg.norm(v)])
    for p in pts:
        try:
            rational_values(f, p[None])
            slow = None
        except PoleError as exc:
            slow = (exc.x, exc.y)
        try:
            f.eval_many(p[None])
            fast = None
        except PoleError as exc:
            fast = (exc.x, exc.y)
        assert fast == slow
    if on_sphere:
        with pytest.raises(PoleError):
            f.eval_many(pts)


# -- one scalar point on Python complex numbers --------------------------------

@st.composite
def scalar_rationals(draw):
    """A scalar rational whose denominator vanishes on the sphere (x, y),
    with the sphere data: den = (p^2 - 2 x p + x^2 + y^2)(1 + e p)."""
    num = draw(eval_polys(max_degree=6).filter(lambda f: f.is_scalar()))
    x, y = draw(st.floats(-0.9, 0.9)), draw(st.floats(0.05, 0.9))
    extra = draw(unit_comp)
    den = sphere_poly(Quaternion(x, y, 0.0, 0.0)).star(StarPoly.scalar([1.0, 0.25 * extra]))
    return SliceRational(num, den), x, y


@st.composite
def scalar_points(draw, x, y):
    """Points as eval_points draws them, and points on the sphere (x, y)
    and 1e-9 off it, in the real part or in the modulus of the imaginary part."""
    rows = list(draw(eval_points()))
    v = np.array(draw(st.lists(unit_comp, min_size=3, max_size=3)))
    assume(np.linalg.norm(v) > 1e-3)
    v = v / np.linalg.norm(v)
    for dx, dy in ((0.0, 0.0), (1e-9, 0.0), (0.0, 1e-9), (-1e-9, -1e-9)):
        rows.append(np.concatenate([[x + dx], (y + dy) * v]))
    return np.array(rows)


def value_or_pole(fn, p):
    try:
        return fn(p), None
    except PoleError as exc:
        return None, (exc.x, exc.y)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_scalar_matches_eval_many(data):
    rat, x, y = data.draw(scalar_rationals())
    pts = data.draw(scalar_points(x, y))
    dv = rat.den.real_vector()
    for p in pts:
        q = Quaternion.from_array(p)
        fast, fast_pole = value_or_pole(rat.eval_scalar, q)
        slow, slow_pole = value_or_pole(lambda _: rat.eval_many(p[None])[0, 0, 0], q)
        assert fast_pole == slow_pole
        # F = N / D moves by |dN| / |D| + |N| |dD| / |D|^2 under rounding of N and D
        pnum = rat.num.eval_scale(q)
        pden = rat.den.eval_scale(q)
        z = complex(p[0], float(np.linalg.norm(p[1:])))
        dabs = abs(np.polyval(dv[::-1], z))
        if fast_pole is None:
            scale = pnum * (1.0 / dabs + pden / dabs**2)
            assert np.max(np.abs(fast.as_array() - slow)) <= 1e-13 * scale
        poly = rat.num
        assert np.max(np.abs(poly.eval_scalar(q).as_array() - poly.eval_many(p[None])[0, 0, 0])) \
            <= 1e-13 * pnum


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(0.05, 0.9), eval_polys(max_degree=4))
def test_eval_scalar_raises_on_the_pole_sphere_as_eval_many(x, y, num):
    assume(num.is_scalar())
    den = sphere_poly(Quaternion(x, y, 0.0, 0.0))
    rat = SliceRational(num, den)
    for p in (Quaternion(x, y, 0.0, 0.0), Quaternion(x, 0.0, -y, 0.0), Quaternion(x, 0.0, 0.6 * y, 0.8 * y)):
        with pytest.raises(PoleError) as fast:
            rat.eval_scalar(p)
        with pytest.raises(PoleError) as slow:
            rat.eval_many(p.as_array()[None])
        assert (fast.value.x, fast.value.y) == (slow.value.x, slow.value.y)


def test_eval_scalar_needs_a_scalar():
    m = StarPoly(np.zeros((2, 2, 1, 4)))
    with pytest.raises(ShapeError):
        m.eval_scalar(I)
    with pytest.raises(ShapeError):
        SliceRational.from_poly(m).eval_scalar(I)


def test_eval_scalar_gives_real_points_the_unit_i():
    # f(p) = p i at a real point x is x i
    f = StarPoly.scalar([0.0, I])
    assert f.eval_scalar(0.5).to_json() == [0.0, 0.5, 0.0, 0.0]
    assert SliceRational.from_poly(f).eval_scalar(Quaternion(-0.25)).to_json() == [0.0, -0.25, 0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(quats, comp), min_size=1, max_size=6))
def test_scalar_keeps_the_bits_of_the_per_coefficient_arrays(values):
    assert_same_bits(StarPoly.scalar(values).coeffs, scalar_poly_per_coeff(values).coeffs)


def assert_same_rational(fast, slow):
    assert_same_bits(fast.num.coeffs, slow.num.coeffs)
    assert_same_bits(fast.den.coeffs, slow.den.coeffs)


ball_zeros = st.builds(Quaternion, unit_comp, unit_comp, unit_comp, unit_comp).filter(
    lambda a: a.norm() < 1.0)


@settings(max_examples=200, deadline=None)
@given(ball_zeros, st.sampled_from(("ball", "halfspace")))
@example(Quaternion(), "ball")
@example(Quaternion(0.0, 0.5, 0.0, 0.0), "ball")
def test_factor_rationals_keep_the_bits_of_the_checked_route(a, domain):
    if domain == "halfspace":
        a = Quaternion(abs(a.re) + 0.05, a.x1, a.x2, a.x3)
    # the factors of the product and of its star inverse (points outside the
    # ball, kept where their squared modulus is finite)
    inverse = -a.conj() if domain == "halfspace" else a.conj().inverse() if a.norm() > 1e-60 else a
    for b in (a, inverse):
        checked = point_rational_checked(domain, b)
        # the checking constructor trims a top coefficient below 1e-15 of the
        # largest; the vector built directly keeps it
        if checked.den.degree == 2:
            assert_same_rational(_point_rational(domain, b), checked)
        if qdecompose(b).axis is not None:
            checked = sphere_rational_checked(domain, b)
            if checked.den.degree == 2:
                assert_same_rational(_sphere_rational(domain, b), checked)


def test_factor_rational_keeps_a_tiny_top_coefficient():
    a = Quaternion(1e-9, 0.0, 1e-9, 0.0)
    assert point_rational_checked("ball", a).den.degree == 1
    fast = _point_rational("ball", a)
    assert fast.den.degree == 2 and fast.den.real_vector()[2] == a.normsq()


def _exact_modulus(block):
    """sqrt of the exact sum of squares of a coefficient, to 50 digits."""
    sq = sum(Fraction(float(v)) ** 2 for v in block.ravel())
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt()


@pytest.mark.parametrize("size", [1e-200, 1e200, 1.0])
def test_coefficient_moduli_neither_under_nor_overflow(rng, size):
    c = rng.uniform(-1.0, 1.0, size=(4, 2, 2, 4)) * size
    c[2] = 0.0
    f = StarPoly(c)
    pts = np.array([[0.5, 0.0, 0.0, 0.0], [1.5, 0.5, -0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale, scales = f.coeff_scale(), eval_scales(f, pts)
        pointwise = [f.eval_scale(Quaternion.from_array(x)) for x in pts]
        trimmed = f.trim(1e-3)
    exact = [_exact_modulus(block) for block in c]
    top = max(exact)
    assert abs(Decimal(scale) - top) <= Decimal(1e-15) * top
    for x, s in zip(pts, scales):
        base = max(Decimal(1), Decimal(float(np.linalg.norm(x))))
        ref = sum(m * base**n for n, m in enumerate(exact))
        assert abs(Decimal(s) - ref) <= Decimal(1e-15) * ref
    assert np.allclose(scales, pointwise, rtol=1e-14, atol=0.0)
    assert trimmed.degree == 3
    if size == 1.0:
        # normal squared sums keep the plain formula's bits
        assert scale == float(np.max(np.sqrt(np.sum(c * c, axis=(1, 2, 3)))))
