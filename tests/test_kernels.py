import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qschur import _accel, kernels
from qschur.blaschke import ZeroSet, blaschke_factor, build_product
from qschur._jsonutil import dump_json
from qschur.errors import DivergenceError, DomainError, PoleError, ShapeError
from qschur.factorcheck import synthesize_generalized_schur, transport_case_to_ball
from qschur.kernels import (
    DoubleSeriesKernel,
    SchurFunction,
    base_kernel,
    estimate_dim_HB,
    estimate_neg_squares,
    gram,
    kernel_identity_check,
    moebius_identity_check,
    sample_gram_vectors,
    schur_kernel_eval,
)
from qschur.qlinalg import (
    QMatrix,
    herm_eigen_neg,
    herm_eigen_neg_arr,
    qadjoint_arr,
    qmatmul_arr,
)
from qschur.quat import I, ONE, Quaternion, sample_ball_point, sample_ball_points
from qschur.starpoly import SliceRational, StarPoly

import oracles
from oracles import estimate_neg_squares as dense_estimate
from oracles import estimate_neg_squares_per_trial
from oracles import gram as dense_gram
from oracles import series_sum_pair

def brute_series(p, q, terms=400):
    acc = Quaternion()
    pn = Quaternion.from_real(1.0)
    qn = Quaternion.from_real(1.0)
    for _ in range(terms):
        acc = acc + pn * qn.conj()
        pn = pn * p
        qn = qn * q
    return acc


def test_base_kernel_examples(rng):
    assert base_kernel("ball", Quaternion(0.3, 0.1, 0, 0), Quaternion()).isclose(ONE)
    p, q = 0.4, -0.3
    assert base_kernel("ball", Quaternion.from_real(p), Quaternion.from_real(q)).isclose(
        Quaternion.from_real(1.0 / (1.0 - p * q))
    )
    x = 0.7
    assert base_kernel(
        "halfspace", Quaternion.from_real(x), Quaternion.from_real(x)
    ).isclose(Quaternion.from_real(1.0 / (2 * x)))


def test_base_kernel_matches_series(rng):
    for _ in range(30):
        p = sample_ball_point(rng, 0.8)
        q = sample_ball_point(rng, 0.8)
        closed = base_kernel("ball", p, q)
        series = brute_series(p, q)
        tail = (p.norm() * q.norm()) ** 400 / (1 - p.norm() * q.norm())
        assert (closed - series).norm() <= 1e-11 + tail


def test_base_kernel_divergence():
    with pytest.raises(DivergenceError):
        base_kernel("ball", Quaternion.from_real(1.2), Quaternion.from_real(0.9))


def test_schur_kernel_zero_function(rng):
    zero = SchurFunction.constant(Quaternion())
    for _ in range(10):
        p = sample_ball_point(rng, 0.8)
        q = sample_ball_point(rng, 0.8)
        val = schur_kernel_eval(zero, p, q).as_quaternion()
        assert val.isclose(base_kernel("ball", p, q), 1e-10)


def test_schur_kernel_unitary_constant_vanishes(rng):
    s = SchurFunction.constant(I)  # |i| = 1, so 1 - S S^* = 0
    p = sample_ball_point(rng, 0.7)
    q = sample_ball_point(rng, 0.7)
    assert schur_kernel_eval(s, p, q).norm() < 1e-14


def test_schur_kernel_diag_positive(rng):
    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0, 0.5, 0, 0)))
    for _ in range(20):
        w = sample_ball_point(rng, 0.85)
        val = schur_kernel_eval(s, w, w).as_quaternion()
        assert val.re >= -1e-10
        assert val.imag_modulus() < 1e-9


def test_closed_form_kernel_matches_series(rng):
    # K_S(p, q) of a 1 x 1 and a 2 x 2 polynomial S against the term-by-term series
    for r in (1, 2):
        s = SchurFunction(SliceRational(StarPoly(rng.uniform(-0.5, 0.5, size=(3, r, r, 4))),
                                        StarPoly.one()))
        for _ in range(6):
            p, q = sample_ball_point(rng, 0.9), sample_ball_point(rng, 0.9)
            mid = QMatrix.eye(r) - s.evaluate(p) @ s.evaluate(q).adjoint()
            series = series_sum_pair(p, mid, q, tol=1e-12)
            assert np.max(np.abs(schur_kernel_eval(s, p, q).data - series.data)) < 1e-11


def test_gram_hermitian_and_positive(rng):
    a = Quaternion(0, 0.5, 0, 0)
    s = SchurFunction(blaschke_factor("ball", "point", a))
    pts = np.array([sample_ball_point(rng, 0.8).as_array() for _ in range(12)])
    vecs = sample_gram_vectors(rng, 12, 1)
    g = gram(s, pts, vecs)
    assert g.herm_residual() < 1e-10 * max(1.0, g.norm())
    eigs, neg = herm_eigen_neg(g)
    assert neg == 0
    assert np.min(eigs) > -1e-10
    g3 = gram(s, pts[:3], vecs[:3])
    eigs3, _ = herm_eigen_neg(g3)
    assert np.min(eigs3) > -1e-10

    zero = SchurFunction.constant(Quaternion())
    w = sample_ball_point(rng, 0.5)
    g1 = gram(zero, w.as_array()[None], sample_gram_vectors(rng, 1, 1))
    assert g1.entry(0, 0).re > 0.0


def test_neg_squares_schur_zero(rng):
    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0, 0.5, 0, 0)))
    rep = estimate_neg_squares(s, trials=25, batch=25, seed=3)
    assert rep.kappa_hat == 0


def test_neg_squares_inverse_factor():
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    s = SchurFunction(b.inverse().rational)
    rep = estimate_neg_squares(s, trials=25, batch=25, seed=3)
    assert rep.kappa_hat == 1


def test_neg_squares_degree_two():
    b = build_product(
        ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1),
                                (Quaternion(0.3, 0, 0.5, 0), 1)])
    )
    s0 = SchurFunction.from_product(
        build_product(ZeroSet("ball", points=[(Quaternion(0, 0, 0.3, 0), 1)]))
    )
    s = SchurFunction.star_quotient(b.inverse().rational, s0)
    rep = estimate_neg_squares(s, trials=40, batch=35, seed=3)
    assert rep.kappa_hat == 2


def test_neg_squares_monotone_in_trials():
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    s = SchurFunction(b.inverse().rational)
    values = [
        estimate_neg_squares(s, trials=t, batch=20, seed=12).kappa_hat
        for t in (1, 5, 15)
    ]
    assert values == sorted(values)


def test_neg_squares_requires_ball():
    # every Gram goes through the one check in _gram_columns; gram on a
    # half-space product of index 0 once returned a Gram with eigenvalues
    # -7.86, -0.197 and -3.4e-4
    s = SchurFunction.constant(Quaternion.from_real(0.5), domain="halfspace")
    b = SchurFunction.from_product(
        build_product(ZeroSet("halfspace", points=[(Quaternion(0.6, 0.5, 0, 0), 1)])))
    pts = sample_ball_points(np.random.default_rng(1), 6, 0.5)
    calls = [
        lambda f: estimate_neg_squares(f, trials=1),
        lambda f: gram(f, pts, np.tile(QMatrix.eye(1).data, (6, 1, 1))),
        lambda f: schur_kernel_eval(f, Quaternion(0.1), Quaternion(0.2)),
    ]
    for f in (s, b):
        for call in calls:
            with pytest.raises(DomainError, match="cayley_transport"):
                call(f)


def test_neg_squares_report_json():
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    rep = estimate_neg_squares(s, trials=2, batch=5, seed=1)
    doc = rep.to_json()
    assert doc["kappa_hat"] == 0 and doc["trials"] == 2
    assert len(doc["witness"]["points"]) == 5
    assert len(doc["witness"]["eigenvalues"]) == 5


def test_dim_hb_examples():
    b1 = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    assert estimate_dim_HB(b1).dim == 1
    bs = build_product(ZeroSet("ball", spheres=[(Quaternion(0.2, 0.4, 0, 0), 1)]))
    assert estimate_dim_HB(bs).dim == 2
    b3 = build_product(ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 3)]))
    assert estimate_dim_HB(b3).dim == 3


def test_dim_hb_halfspace_products():
    # half-space products are carried to the ball before the Gram is formed
    a = Quaternion(0.6, 0.5, 0, 0)
    one = build_product(ZeroSet("halfspace", points=[(a, 1)]))
    assert estimate_dim_HB(one).dim == 1
    two = build_product(ZeroSet("halfspace", points=[(a, 1), (Quaternion(1.0, 0, 0.6, 0), 1)]))
    assert estimate_dim_HB(two).dim == 2
    sphere = build_product(ZeroSet("halfspace", spheres=[(Quaternion(0.8, 0.5, 0, 0), 1)]))
    assert estimate_dim_HB(sphere).dim == 2


def test_dim_hb_rejects_inverse_factors():
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    with pytest.raises(DomainError):
        estimate_dim_HB(b.inverse())


def test_dim_hb_warning_on_few_points(rng):
    b = build_product(ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 3)]))
    pts = np.array([sample_ball_point(rng, 0.7).as_array() for _ in range(4)])
    rep = estimate_dim_HB(b, points=pts)
    assert rep.warning is not None


def test_kernel_identity_trivial_cases():
    from qschur.blaschke import FactoredProduct

    s0 = SchurFunction.constant(Quaternion.from_real(0.7))
    empty = FactoredProduct.identity("ball")
    rep = kernel_identity_check(s0, empty, s0, trunc=24)
    assert rep.status == "ok"
    assert rep.max_coeff_dev < 1e-14
    assert rep.hermitian_residual < 1e-10


def test_kernel_identity_inverse_factor_case():
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    s0 = SchurFunction.constant(Quaternion.from_real(1.0))
    s = SchurFunction.star_quotient(b.inverse().rational, s0)
    rep = kernel_identity_check(s, b, s0, trunc=40)
    assert rep.status == "ok"
    assert rep.min_gram_eig >= -1e-8
    assert rep.hermitian_residual < 1e-10


def test_kernel_identity_nontrivial_case():
    b = build_product(
        ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1),
                                (Quaternion(0.3, 0, 0.5, 0), 1)])
    )
    s0 = SchurFunction.from_product(
        build_product(ZeroSet("ball", points=[(Quaternion(0, 0, 0.3, 0), 1)]))
    )
    s = SchurFunction.star_quotient(b.inverse().rational, s0)
    rep = kernel_identity_check(s, b, s0, trunc=48)
    assert rep.status == "ok"
    assert rep.max_coeff_dev < 1e-9
    assert rep.min_gram_eig >= -1e-8
    small = kernel_identity_check(s, b, s0, trunc=6)
    assert small.status == "inconclusive"


def test_kernel_identity_needs_ball_input():
    # half-space data expanded at 0 with the ball kernel says nothing about
    # the half-space kernel, whatever the status would read
    from qschur.factorcheck import synthesize_generalized_schur, transport_case_to_ball

    case = synthesize_generalized_schur(
        ZeroSet("halfspace", points=[(Quaternion(0.6, 0.5, 0, 0), 1)]), 0.7)
    wrong = SchurFunction.constant(Quaternion.from_real(0.5), domain="halfspace")
    for s0 in (case.s0, wrong):
        with pytest.raises(DomainError):
            kernel_identity_check(case.s, case.b0, s0, trunc=20)
    ball = transport_case_to_ball(case)
    with pytest.raises(DomainError):
        kernel_identity_check(ball.s, case.b0, ball.s0, trunc=20)
    with pytest.raises(DomainError):
        kernel_identity_check(case.s, ball.b0, ball.s0, trunc=20)
    assert kernel_identity_check(ball.s, ball.b0, ball.s0, trunc=20,
                                 gram_radius=0.09).status == "ok"


def test_kernel_identity_scalar_b0_on_two_rows():
    # B0 I_2 with a point and a sphere: deg B0 = 3, so ind S = 2 x 3
    from qschur.factorcheck import Budget, krein_langer_check

    zeros = ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)],
                    spheres=[(Quaternion(0.2, 0, 0.5, 0), 1)])
    s0 = SchurFunction.constant(QMatrix.eye(2).scale_left(Quaternion.from_real(0.6)))
    case = synthesize_generalized_schur(zeros, s0)
    assert case.expected_kappa == 6
    assert kernel_identity_check(case.s, case.b0, case.s0, trunc=40).status == "ok"
    wrong = SchurFunction.constant(QMatrix.eye(2).scale_left(Quaternion.from_real(0.5)))
    assert kernel_identity_check(case.s, case.b0, wrong, trunc=40).status == "fail"
    rep = krein_langer_check(case, Budget(trials=20))
    assert (rep.verdict, rep.kappa_hat) == ("PASS", 6)
    assert krein_langer_check(case, Budget(trials=20), expected_kappa=5).verdict == "FAIL"


def loop_from_schur_taylor(s, trunc):
    """C_{NM} = I delta_{NM} - sum_k s_{N-k} s_{M-k}^*, one term at a time."""
    r, t = s.shape[1], trunc + 1
    sadj = qadjoint_arr(s)
    c = np.zeros((t, t, r, r, 4))
    for nn in range(t):
        c[nn, nn] += QMatrix.eye(r).data
        for mm in range(t):
            for k in range(min(nn, mm) + 1):
                c[nn, mm] -= qmatmul_arr(s[nn - k], sadj[mm - k])
    return c


def loop_sandwich(coeffs, b):
    """sum_{a,b} b_a C_{N-a, M-b} b_b^*, one term at a time."""
    t, r = coeffs.shape[0], b.shape[1]
    badj = qadjoint_arr(b)
    out = np.zeros((t, t, r, r, 4))
    for nn in range(t):
        for mm in range(t):
            for a in range(min(nn + 1, b.shape[0])):
                for bb in range(min(mm + 1, b.shape[0])):
                    out[nn, mm] += qmatmul_arr(
                        qmatmul_arr(b[a], coeffs[nn - a, mm - bb]), badj[bb])
    return out


def test_from_schur_taylor_matches_loop(rng):
    trunc = 7
    for r, c in ((1, 1), (2, 2), (2, 1)):
        taylor = rng.uniform(-1.0, 1.0, size=(trunc + 1, r, c, 4))
        fast = DoubleSeriesKernel.from_schur_taylor(taylor, trunc).coeffs
        assert np.max(np.abs(fast - loop_from_schur_taylor(taylor, trunc))) < 1e-13


def test_sandwich_matches_loop(rng):
    trunc = 6
    for r, rc, nb in ((1, 1, trunc + 1), (2, 2, trunc + 1), (2, 1, 3)):
        coeffs = rng.uniform(-1.0, 1.0, size=(trunc + 1, trunc + 1, rc, rc, 4))
        b = rng.uniform(-1.0, 1.0, size=(nb, r, rc, 4))
        fast = DoubleSeriesKernel(coeffs).sandwich(b).coeffs
        assert np.max(np.abs(fast - loop_sandwich(coeffs, b))) < 1e-12


@pytest.mark.parametrize("r, c", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_identity_sides_match_the_kernel_composition(rng, r, c):
    # K_S - K_B and T_B K_{S0} T_B^* as differences of from_schur_taylor
    # kernels and a sandwich, against the four products of the identity leg
    trunc = 7
    decay = 0.6 ** np.arange(trunc + 1)[:, None, None, None]
    s_tay, s0_tay = (rng.uniform(-1.0, 1.0, size=(trunc + 1, r, c, 4)) * decay for _ in "ab")
    b_tay = rng.uniform(-1.0, 1.0, size=(trunc + 1, r, r, 4)) * decay
    lhs_ref = (DoubleSeriesKernel.from_schur_taylor(s_tay, trunc).coeffs
               - DoubleSeriesKernel.from_schur_taylor(b_tay, trunc).coeffs)
    rhs_ref = DoubleSeriesKernel.from_schur_taylor(s0_tay, trunc).sandwich(b_tay).coeffs
    lhs, rhs, diff = kernels._identity_sides(s_tay, b_tay, s0_tay, trunc)
    for fast, ref in ((lhs, lhs_ref), (rhs, rhs_ref), (diff, lhs_ref - rhs_ref)):
        assert fast.shape == (trunc + 1, trunc + 1, r, r, 4)
        assert np.max(np.abs(fast - ref)) <= 1e-13


KL_CASES = {
    "kappa0": ("ball", [], [], 0.7),
    "kappa1": ("ball", [((0, .5, 0, 0), 1)], [], None),
    "kappa2": ("ball", [((0, .5, 0, 0), 1), ((.3, 0, .5, 0), 1)], [],
               ZeroSet("ball", points=[(Quaternion(0, 0, .3, 0), 1)])),
    "kappa3": ("ball", [((.2, .5, 0, 0), 2), ((-.3, 0, .4, 0), 1)], [], 0.8),
    "sphere": ("ball", [((0, .5, 0, 0), 1)], [((.2, 0, .5, 0), 1)], 0.7),
    "halfspace": ("halfspace", [((.6, .5, 0, 0), 1), ((1.0, 0, .6, 0), 1)], [], 0.7),
}


def synthesized_kl_case(label):
    """The case as synthesize_generalized_schur builds it, on its own domain."""
    domain, points, spheres, s0 = KL_CASES[label]
    zeros = ZeroSet(domain, points=[(Quaternion(*a), n) for a, n in points],
                    spheres=[(Quaternion(*c), m) for c, m in spheres])
    return synthesize_generalized_schur(zeros if points else None, s0)


def kl_gram_radius(case):
    """The Gram radius of the kl-identity benchmark: 0.25 x the smallest pole
    modulus of B0^{-*}, at most 0.35."""
    return min(0.35, 0.25 * kernels._min_pole_radius(case.b0.inverse().rational))


@pytest.mark.parametrize("trunc", [20, 48])
@pytest.mark.parametrize("label", sorted(KL_CASES))
def test_kernel_identity_is_accurate_on_the_kl_cases(label, trunc):
    case = transport_case_to_ball(synthesized_kl_case(label))
    rep = kernel_identity_check(case.s, case.b0, case.s0, trunc=trunc,
                                gram_radius=kl_gram_radius(case))
    assert rep.status == "ok" and rep.max_coeff_dev <= 1e-12
    assert rep.vacuous == (label == "kappa1")


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def assert_tables_match_the_oracles(sides, radius):
    """The stacked norm tables and Hermitian residuals against the per-kernel
    oracles, bit for bit; returns the reference deviation and residual."""
    norms, resid = kernels._weighted_tables(sides, radius)
    for side, table in zip(sides, norms):
        assert same_bits(table, oracles.weighted_norms(side, radius))
    t = sides.shape[1]
    w = radius ** (np.arange(t)[:, None, None, None, None]
                   + np.arange(t)[None, :, None, None, None])
    for side, value in zip(sides[:2], resid):
        assert same_bits(value, oracles.hermitian_residual(side * w))
    return (float(np.max(oracles.weighted_norms(sides[2], radius))),
            max(oracles.hermitian_residual(sides[0] * w), oracles.hermitian_residual(sides[1] * w)))


@pytest.mark.parametrize("trunc", [20, 48])
@pytest.mark.parametrize("label", sorted(KL_CASES))
def test_stacked_identity_tables_match_the_oracles_on_the_kl_cases(label, trunc):
    case = transport_case_to_ball(synthesized_kl_case(label))
    radius = kl_gram_radius(case)
    binv = case.b0.inverse().rational.lift(case.s.rows)
    sides = kernels._identity_sides(case.s.taylor(trunc), binv.taylor(trunc).coeffs,
                                    case.s0.taylor(trunc), trunc)
    dev, herm = assert_tables_match_the_oracles(sides, radius)
    rep = kernel_identity_check(case.s, case.b0, case.s0, trunc=trunc, gram_radius=radius)
    assert same_bits(rep.max_coeff_dev, dev) and same_bits(rep.hermitian_residual, herm)


@given(r=st.sampled_from([1, 2]), c=st.sampled_from([1, 2]), trunc=st.integers(1, 9),
       radius=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_identity_tables_match_the_oracles_on_random_taylor_data(r, c, trunc,
                                                                       radius, seed):
    rng = np.random.default_rng(seed)
    s_tay, s0_tay = (rng.uniform(-1.0, 1.0, size=(trunc + 1, r, c, 4)) for _ in "ab")
    b_tay = rng.uniform(-1.0, 1.0, size=(trunc + 1, r, r, 4))
    assert_tables_match_the_oracles(kernels._identity_sides(s_tay, b_tay, s0_tay, trunc),
                                    radius)


@pytest.mark.parametrize("label", sorted(KL_CASES))
def test_identity_leg_inverts_no_factor_after_synthesis(label, monkeypatch):
    # the B0^{-*} that S was built from is the one the identity leg expands
    from qschur.blaschke import PointFactor, SphereFactor

    case = synthesized_kl_case(label)
    calls = []
    for cls in (PointFactor, SphereFactor):
        def counted(self, domain, _inverse=cls.inverse):
            calls.append(type(self).__name__)
            return _inverse(self, domain)
        monkeypatch.setattr(cls, "inverse", counted)
    ball = transport_case_to_ball(case)
    assert ball.b0.inverse() is ball.b0.inverse()
    kernel_identity_check(ball.s, ball.b0, ball.s0, trunc=20, gram_radius=kl_gram_radius(ball))
    assert calls == []


def test_eval_gram_matches_double_series(rng):
    trunc = 9
    for r in (1, 2):
        coeffs = rng.uniform(-1.0, 1.0, size=(trunc + 1, trunc + 1, r, r, 4))
        pts = np.array([sample_ball_point(rng, 0.7).as_array() for _ in range(5)])
        fast = DoubleSeriesKernel(coeffs).eval_gram(pts).data
        pw = _accel.qpow_table(pts, trunc)
        kmat = _accel.double_series(pw, coeffs, _accel.qconj(pw))
        slow = np.transpose(kmat, (0, 2, 1, 3, 4)).reshape(5 * r, 5 * r, 4)
        slow = 0.5 * (slow + qadjoint_arr(slow))
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_double_series_kernel_hermitian():
    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0, 0.5, 0, 0)))
    k = DoubleSeriesKernel.from_schur_taylor(s.taylor(12), 12)
    assert oracles.hermitian_residual(k.coeffs) < 1e-12


def test_moebius_identity(rng):
    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0.1, 0.4, 0, 0)))
    p = sample_ball_point(rng, 0.6)
    q = sample_ball_point(rng, 0.6)
    assert moebius_identity_check(s, 0.0, p, q) < 1e-12

    zero = SchurFunction.constant(Quaternion())
    for _ in range(5):
        p = sample_ball_point(rng, 0.6)
        q = sample_ball_point(rng, 0.6)
        assert moebius_identity_check(zero, 0.3, p, q) < 1e-10

    for _ in range(20):
        p = sample_ball_point(rng, 0.55)
        q = sample_ball_point(rng, 0.55)
        assert moebius_identity_check(s, 0.3, p, q) < 1e-9


def test_schur_kernel_divergence():
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    with pytest.raises(DivergenceError):
        schur_kernel_eval(s, Quaternion.from_real(1.1), Quaternion.from_real(0.95))


def test_blaschke_taylor_head():
    # B_a(0) = |a| shows up as the zeroth Taylor coefficient
    rat = blaschke_factor("ball", "point", Quaternion(0, 0.5, 0, 0))
    head = rat.taylor(3).coeff(0).as_quaternion()
    assert head.isclose(Quaternion.from_real(0.5), 1e-14)


def test_witness_reproduces_kappa_hat():
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    s = SchurFunction(b.inverse().rational)
    rep = estimate_neg_squares(s, trials=10, batch=20, seed=2)
    pts = np.array(rep.witness_points)
    vecs = np.array(rep.witness_vectors)
    g = gram(s, pts, vecs)
    _, neg = herm_eigen_neg(g, rep.cutoff)
    assert neg == rep.kappa_hat


def test_moebius_index_invariance():
    # Lemma-style invariance: kappa-hat of S o b matches kappa-hat of S
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    s = SchurFunction(b.inverse().rational)
    x0 = 0.3
    composed = SchurFunction.compose_real_mobius(s, x0, 1.0, 1.0, x0)
    k1 = estimate_neg_squares(s, trials=25, batch=25, seed=6).kappa_hat
    k2 = estimate_neg_squares(composed, trials=25, batch=25, seed=6).kappa_hat
    assert k1 == k2 == 1


# -- the split Gram against the dense quaternion kernel ------------------------

gram_comp = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_schur_functions(draw, rows):
    """An r x 2 slice-rational S with a pole-free denominator on the ball."""
    deg = draw(st.integers(0, 4))
    size = (deg + 1) * rows * 2 * 4
    num = np.array(draw(st.lists(gram_comp, min_size=size, max_size=size)))
    tail = draw(st.lists(gram_comp, min_size=0, max_size=2))
    den = [1.0 + sum(abs(d) for d in tail)] + tail
    return SchurFunction(SliceRational(StarPoly(num.reshape(deg + 1, rows, 2, 4)),
                                       StarPoly.scalar(den)))


@st.composite
def ball_sections(draw, rows):
    """1-8 points with |p| < 0.95, some real, and one vector per point."""
    count = draw(st.integers(1, 8))
    raw = np.array(draw(st.lists(gram_comp, min_size=4 * count, max_size=4 * count)))
    pts = raw.reshape(count, 4)
    pts[::3, 1:] = 0.0
    norms = np.linalg.norm(pts, axis=1)
    pts = np.where((norms > 0.95)[:, None], pts * (0.95 / np.maximum(norms, 1e-300))[:, None], pts)
    size = count * rows * 4
    vecs = np.array(draw(st.lists(gram_comp, min_size=size, max_size=size)))
    return pts, vecs.reshape(count, rows, 4)


def norms(a):
    """Frobenius norm of each a[b], for a stack of quaternion arrays."""
    return np.sqrt(np.sum(a * a, axis=tuple(range(1, a.ndim))))


def gram_cases():
    return st.integers(1, 3).flatmap(
        lambda rows: st.tuples(matrix_schur_functions(rows), ball_sections(rows)))


@settings(max_examples=120, deadline=None)
@given(gram_cases())
def test_split_gram_matches_dense_kernel_gram(case):
    s, (pts, vecs) = case
    fast = gram(s, pts, vecs).data
    slow = dense_gram(s, pts, vecs)
    # the split Gram cancels terms of the size |c_l||c_j| (||I|| + ||S_l|| ||S_j||)
    # / (1 - |p_l||p_j|) in another order than the dense one, so it may miss
    # an exact 0 by a rounding of that size
    cnorm, snorm, pnorm = norms(vecs), norms(s.eval_many(pts)), norms(pts)
    terms = (np.multiply.outer(cnorm, cnorm)
             * (np.sqrt(s.rows) + np.multiply.outer(snorm, snorm))
             / (1.0 - np.multiply.outer(pnorm, pnorm)))
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow)) + 1e-15 * np.max(terms)


@settings(max_examples=100, deadline=None)
@given(st.lists(gram_comp, min_size=4, max_size=4), st.floats(1.0 + 1e-9, 2.0), st.integers(0, 3))
def test_gram_diverges_off_the_open_ball(direction, radius, others):
    # |p| = 1 itself is checked on the axes, where the norm has no rounding
    v = np.array(direction)
    assume(np.linalg.norm(v) > 1e-3)
    rng = np.random.default_rng(others)
    pts = np.vstack([rng.uniform(-0.4, 0.4, size=(others, 4)), v / np.linalg.norm(v) * radius])
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    with pytest.raises(DivergenceError):
        gram(s, pts, sample_gram_vectors(rng, others + 1, 1))
    for axis in np.vstack([np.eye(4), -np.eye(4)]):
        with pytest.raises(DivergenceError):
            gram(s, np.vstack([pts[:others], axis]), sample_gram_vectors(rng, others + 1, 1))


def test_estimator_matches_the_dense_reference_on_the_benchmark_cases(monkeypatch):
    # the six kl-sample cases of the benchmark at 20 trials: the estimator
    # built on the split Gram and on the dense one reach the same kappa-hat
    # at the same witness points
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import kl

    for op in kl.build("kl-sample", 0x5C05, None):
        rep = estimate_neg_squares(op.ball.s, trials=20, batch=40, seed=0x5C05)
        kappa, pts, eigs = dense_estimate(op.ball.s, trials=20, batch=40, seed=0x5C05)
        assert rep.kappa_hat == kappa, op.label
        assert np.array_equal(np.array(rep.witness_points), pts), op.label
        scale = np.max(np.abs(eigs))
        assert np.max(np.abs(np.array(rep.witness_eigenvalues) - eigs)) <= 1e-12 * scale


# -- the blocked estimator against the per-trial loop ---------------------------

def ball_form(domain, points, s0):
    zeros = ZeroSet(domain, points=[(Quaternion(*a), n) for a, n in points])
    return transport_case_to_ball(synthesize_generalized_schur(zeros, s0)).s


ESTIMATOR_CASES = {
    "kappa3": lambda: ball_form("ball", [((.2, .5, 0, 0), 2), ((-.3, 0, .4, 0), 1)], 0.8),
    "two-rows": lambda: ball_form("ball", [((0, .5, 0, 0), 1)], SchurFunction.constant(
        QMatrix(np.array([[[0.6, 0, 0, 0]], [[0, 0.3, 0.2, 0]]])))),
    "halfspace": lambda: ball_form("halfspace", [((.6, .5, 0, 0), 1), ((1.0, 0, .6, 0), 1)], 0.7),
}


def record_spectra(monkeypatch):
    """The bytes of every trial's spectrum: a list per stack that the
    estimator solves, and one list of those that the per-trial reference
    solves one at a time."""
    fast, slow = [], []

    def stacked(grams, cutoff):
        eigs, negs = herm_eigen_neg_arr(grams, cutoff)
        fast.append([e.tobytes() for e in eigs])
        return eigs, negs

    def one(h, cutoff):
        eigs, neg = herm_eigen_neg(h, cutoff)
        slow.append(eigs.tobytes())
        return eigs, neg

    monkeypatch.setattr(kernels, "herm_eigen_neg_arr", stacked)
    monkeypatch.setattr(oracles, "herm_eigen_neg", one)
    return fast, slow


@pytest.mark.parametrize("trials", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("label", sorted(ESTIMATOR_CASES))
def test_blocked_estimator_matches_the_per_trial_reference(monkeypatch, label, trials):
    # 15, 16 and 17 trials end just short of, on and past a block boundary;
    # 33 runs two whole blocks and one trial.  kappa-hat is reached at
    # trial 0 on most cases, so the spectrum of every trial is compared too.
    s = ESTIMATOR_CASES[label]()
    stacks, slow_spectra = record_spectra(monkeypatch)
    fast = estimate_neg_squares(s, trials=trials, batch=40, seed=0x5C05)
    slow = estimate_neg_squares_per_trial(s, trials=trials, batch=40, seed=0x5C05)
    assert dump_json(fast.to_json()) == dump_json(slow.to_json())
    assert [len(st) for st in stacks] == [16] * (trials // 16) + [trials % 16] * (trials % 16 > 0)
    assert sum(stacks, []) == slow_spectra and len(slow_spectra) == trials


@pytest.mark.parametrize("trials, batch, sizes", [(3, 90, [3]), (17, 50, [10, 7]),
                                                  (2, 170, [1, 1])])
def test_batches_above_the_stack_cap_match_the_per_trial_reference(monkeypatch, trials,
                                                                     batch, sizes):
    # a stack holds at most 16 x 40^2 Gram entries: 10 trials of 50
    # points, 3 of 90 and one of 170
    s = ESTIMATOR_CASES["two-rows"]()
    stacks, slow_spectra = record_spectra(monkeypatch)
    fast = estimate_neg_squares(s, trials=trials, batch=batch, seed=0x5C05)
    slow = estimate_neg_squares_per_trial(s, trials=trials, batch=batch, seed=0x5C05)
    assert dump_json(fast.to_json()) == dump_json(slow.to_json())
    assert [len(st) for st in stacks] == sizes
    assert sum(stacks, []) == slow_spectra and len(slow_spectra) == trials


@pytest.mark.parametrize("batch", [0, -1])
def test_neg_squares_rejects_an_empty_batch(batch):
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    with pytest.raises(DomainError, match="at least one point"):
        estimate_neg_squares(s, trials=1, batch=batch)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 2.5}, "trials must be an integer"),
    ({"trials": True}, "trials must be an integer"),
    ({"batch": 2.5}, "batch must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be non-negative"),
])
def test_neg_squares_rejects_non_integer_counts_and_negative_seeds(kwargs, message):
    # each of these once escaped as a TypeError or numpy's ValueError, or ran
    # as a different integer (True as one trial, 1.5 as seed 1)
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    with pytest.raises(DomainError, match=message):
        estimate_neg_squares(s, **dict({"trials": 1, "batch": 2}, **kwargs))


def test_gram_rejects_an_empty_point_set():
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    with pytest.raises(ShapeError, match="at least one point"):
        gram(s, np.zeros((0, 4)), np.zeros((0, 1, 4)))


def test_blocked_estimator_stops_at_the_per_trial_pole():
    # a point of trial 45, inside the block of trials 32-47, lies 5e-4 from
    # the pole sphere of the order-4 zero at 0.5 i
    s = ball_form("ball", [((0, .5, 0, 0), 4)], 0.7)
    with pytest.raises(PoleError) as fast:
        estimate_neg_squares(s, seed=0x5C05)
    with pytest.raises(PoleError) as slow:
        estimate_neg_squares_per_trial(s, seed=0x5C05)
    assert (fast.value.x, fast.value.y) == (slow.value.x, slow.value.y)


@pytest.mark.parametrize("kwargs", [
    {"rho": 0.0}, {"rho": -0.9}, {"rho": 1.0}, {"rho": 1.5}, {"rho": float("nan")},
    {"cutoff": 0.0}, {"cutoff": -1.0}, {"cutoff": float("inf")}, {"cutoff": float("nan")},
])
def test_neg_squares_rejects_radius_and_cutoff_out_of_range(kwargs):
    s = SchurFunction.constant(Quaternion.from_real(0.5))
    with pytest.raises(DomainError):
        estimate_neg_squares(s, trials=1, batch=2, **kwargs)


@pytest.mark.parametrize("cutoff", [0.0, -1.0, float("inf"), float("nan")])
def test_dim_hb_rejects_cutoff_out_of_range(cutoff):
    b = build_product(ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)]))
    with pytest.raises(DomainError):
        estimate_dim_HB(b, cutoff=cutoff)
