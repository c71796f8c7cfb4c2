import dataclasses
import json
import warnings

import numpy as np
import pytest

from qschur import _accel
from qschur._jsonutil import dump_json
from qschur.blaschke import FactoredProduct, ZeroSet, blaschke_factor, build_product
from qschur.errors import DomainError
from qschur.factorcheck import (
    Budget,
    krein_langer_check,
    synthesize_generalized_schur,
    transport_case_to_ball,
)
from qschur.kernels import (CAYLEY_X0, IDENTITY_DEV_TOL, SchurFunction, cayley_map,
                            cayley_transport, estimate_neg_squares, kernel_identity_check)
from qschur.quat import Quaternion, sample_ball_point, sample_halfspace_point

from oracles import (HALFSPACE_SMALL_ZEROS, POLE_ZERO, THREE_SMALL_ZEROS, corpus_400,
                     corpus_zero_sets, qinv, star_inverse)

SMALL = Budget(trials=30, batch=30)

A_I = Quaternion(0, 0.5, 0, 0)
A_J = Quaternion(0.3, 0, 0.5, 0)


def test_synthesize_simple_quotient():
    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]))
    assert case.expected_kappa == 1
    # S = B^{-*}: its value times B's value is 1
    b = case.b0.rational
    for x in (0.2, -0.3, 0.6):
        p = Quaternion.from_real(x)
        assert (case.s.evaluate(p).as_quaternion() * b.eval_scalar(p)).isclose(
            Quaternion.from_real(1.0), 1e-10
        )



def pointwise_quotient(f, s0, pts):
    """The pointwise law (f * S0)(p) = f(p) S0(f(p)^{-1} p f(p)) for a
    scalar f, with value 0 where f(p) = 0: the reference for the
    multiplied rational."""
    fv = f.eval_many(pts)[:, 0, 0, :]
    zero = np.sqrt(np.sum(fv * fv, axis=-1)) <= 1e-14
    finv = np.where(zero[:, None], np.array([1.0, 0, 0, 0]), qinv(fv))
    moved = _accel.qmul(_accel.qmul(finv, pts), fv)
    out = _accel.qmul(fv[:, None, None, :], s0.eval_many(moved))
    out[zero] = 0.0
    return out


def convolved_taylor(f, s0, n):
    """Taylor coefficients of f * S0 as the convolution of both expansions."""
    fc = f.taylor(n).coeffs
    sc = s0.taylor(n)
    out = np.zeros((n + 1,) + sc.shape[1:])
    for a in range(n + 1):
        for b in range(n + 1 - a):
            out[a + b] += _accel.qmul(fc[a, 0, 0], sc[b])
    return out


QUOTIENT_CASES = {
    "kappa2": lambda: synthesize_generalized_schur(
        ZeroSet("ball", points=[(A_I, 1), (A_J, 1)]),
        ZeroSet("ball", points=[(Quaternion(0, 0, 0.3, 0), 1)]),
    ),
    "kappa3": lambda: synthesize_generalized_schur(
        ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 2),
                                (Quaternion(-0.3, 0, 0.4, 0), 1)]),
        0.8,
    ),
    "halfspace": lambda: transport_case_to_ball(synthesize_generalized_schur(
        ZeroSet("halfspace", points=[(Quaternion(0.6, 0.5, 0, 0), 1)]),
        ZeroSet("halfspace", points=[(Quaternion(1.2, 0, 0.4, 0), 1)]),
    )),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_matches_pointwise_law(name, rng):
    case = QUOTIENT_CASES[name]()
    f = case.b0.inverse().rational
    pts = np.array([sample_ball_point(rng, 0.8).as_array() for _ in range(20)])
    lazy = pointwise_quotient(f, case.s0, pts)
    assert np.max(np.abs(case.s.eval_many(pts) - lazy)) <= 1e-12 * np.max(np.abs(lazy))
    n = 32
    conv = convolved_taylor(f, case.s0, n)
    scale = np.max(np.abs(conv), axis=(1, 2, 3))
    assert np.all(np.max(np.abs(case.s.taylor(n) - conv), axis=(1, 2, 3)) <= 1e-12 * scale)

def test_synthesize_empty_product_is_schur():
    case = synthesize_generalized_schur(None, 0.7)
    assert case.expected_kappa == 0
    assert case.s is case.s0


def test_synthesize_rejects_non_contractive_constant():
    with pytest.raises(DomainError):
        synthesize_generalized_schur(None, 1.5)


def test_krein_langer_pass_kappa_0_and_1():
    r0 = krein_langer_check(synthesize_generalized_schur(None, 0.7), SMALL)
    assert r0.verdict == "PASS" and r0.kappa_hat == 0 and r0.deg_b0 == 0

    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]))
    r1 = krein_langer_check(case, SMALL)
    assert r1.verdict == "PASS" and r1.kappa_hat == 1 and r1.deg_b0 == 1
    assert r1.min_gram_eig >= -1e-8


def test_krein_langer_negative_control():
    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]))
    rep = krein_langer_check(case, SMALL, expected_kappa=2)
    assert rep.verdict == "FAIL"
    assert "kappa" in rep.reason


@pytest.mark.parametrize("seed", [0x5C05, 1, 2, 3])
def test_positivity_is_judged_relative_to_the_gram_scale(seed):
    case = synthesize_generalized_schur(THREE_SMALL_ZEROS, 0.7)
    rep = krein_langer_check(case, Budget(seed=seed))
    assert (rep.verdict, rep.kappa_hat, rep.reason) == ("PASS", 3, "")
    assert rep.identity.status == "ok"
    assert rep.min_gram_eig < -Budget().min_eig_tol
    assert rep.identity.max_abs_gram_eig > 1e7


@pytest.mark.parametrize("c", [1.3, 1.01, 1.001])
@pytest.mark.parametrize("zeros", [
    ZeroSet("ball", points=[(A_I, 1)]),
    ZeroSet("ball", points=[(Quaternion(0.2, 0.3, 0, 0), 2)]),
], ids=["0.5i", "(0.2+0.3i)^2"])
def test_non_schur_s0_breaks_the_relative_positivity_rule(zeros, c):
    # S = B0^{-*} * c with c > 1 satisfies the identity, but K_{S0} = (1 - c^2)
    # times the base kernel is negative, and so is K_S - K_B
    s0 = SchurFunction.constant(Quaternion.from_real(c))
    case = synthesize_generalized_schur(zeros, s0)
    rep = kernel_identity_check(case.s, case.b0, case.s0)
    assert rep.status == "ok"
    assert rep.min_gram_eig < -Budget().min_eig_tol * max(1.0, rep.max_abs_gram_eig)


def test_kappa_hat_above_the_target_fails_when_the_identity_is_inconclusive():
    # the pole of B0^{-*} at 0.02 i overflows the identity leg, but the
    # sampled kappa-hat 1 is a lower bound on ind S, already above 0
    case = synthesize_generalized_schur(POLE_ZERO, 0.7)
    rep = krein_langer_check(case, Budget(trials=20), expected_kappa=0)
    assert rep.identity.status == "inconclusive"
    assert (rep.verdict, rep.kappa_hat) == ("FAIL", 1)
    assert rep.reason == "kappa-hat 1 exceeds target 0"


def test_krein_langer_identity_negative_control():
    # S = B^{-*} * 1 paired with the wrong S0 = 0.5: the identity deviates
    # beyond a certified tail, which is a FAIL, not an INCONCLUSIVE
    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]))
    wrong = dataclasses.replace(case, s0=SchurFunction.constant(Quaternion.from_real(0.5)))
    rep = krein_langer_check(wrong, Budget(trials=5, batch=15))
    assert rep.identity.status == "fail"
    assert rep.identity.tail_bound <= 1e-9 < rep.identity.max_coeff_dev
    assert rep.verdict == "FAIL"
    assert "deviation" in rep.reason and "tail" in rep.reason


@pytest.mark.parametrize("seed", [0x5C05, 1, 2])
def test_identity_deviation_is_judged_relative_to_the_side_scale(seed):
    case = synthesize_generalized_schur(HALFSPACE_SMALL_ZEROS, 0.7)
    rep = krein_langer_check(case, Budget(seed=seed))
    assert (rep.verdict, rep.kappa_hat, rep.reason) == ("PASS", 3, "")
    assert rep.identity.status == "ok"
    assert rep.identity_residual > IDENTITY_DEV_TOL


def test_halfspace_case_checks_the_s_it_is_given():
    # the perfbench half-space case with the S0 = 0.5 factor swapped in: its
    # S still comes from S0 = 0.7, so the identity fails
    zeros = ZeroSet("halfspace", points=[(Quaternion(0.6, 0.5, 0, 0), 1),
                                         (Quaternion(1.0, 0, 0.6, 0), 1)])
    case = synthesize_generalized_schur(zeros, 0.7)
    rep = krein_langer_check(case)
    assert (rep.verdict, rep.kappa_hat) == ("PASS", 2)
    assert rep.identity_residual < 1e-13
    wrong = dataclasses.replace(case, s0=synthesize_generalized_schur(zeros, 0.5).s0)
    rep = krein_langer_check(wrong)
    assert rep.identity.status == "fail" and rep.verdict == "FAIL"


def test_verdict_coverage_corpus():
    # every verdict of the corpus obeys the decision table; PASS counts may
    # only rise
    rng = np.random.default_rng(2026)
    sets = corpus_zero_sets(rng, "ball", 24) + corpus_zero_sets(rng, "halfspace", 8)
    budget = Budget(trials=20)
    passes = 0
    for zeros in sets:
        case = synthesize_generalized_schur(zeros, 0.7)
        kappa = case.expected_kappa
        true = krein_langer_check(case, budget)
        assert true.verdict in ("PASS", "INCONCLUSIVE"), (zeros, true.reason)
        passes += true.verdict == "PASS"

        wrong = dataclasses.replace(case, s0=synthesize_generalized_schur(zeros, 0.5).s0)
        rep = krein_langer_check(wrong, budget)
        assert rep.verdict != "PASS", zeros
        if rep.identity is not None and rep.identity.status != "inconclusive":
            assert rep.verdict == "FAIL", (zeros, rep.reason)

        low = krein_langer_check(case, budget, expected_kappa=kappa - 1)
        if low.negsq is not None:
            assert low.verdict == "FAIL", (zeros, low.reason)

        high = krein_langer_check(case, budget, expected_kappa=kappa + 1)
        ok = high.identity is not None and high.identity.status == "ok"
        assert high.verdict == ("FAIL" if ok else "INCONCLUSIVE"), (zeros, high.reason)
    assert passes >= 10


def test_kappa_hat_below_the_target_is_inconclusive_within_the_bound():
    # corpus set 64 (deg B0 = 5): at the standard budget the sampling leg
    # reaches kappa-hat 4 while the identity leg is ok.  A lower bound short
    # of the target refutes nothing, but a target above r deg B0, the bound
    # on ind S that an ok identity certifies, cannot be met
    case = synthesize_generalized_schur(corpus_400()[64], 0.7)
    rep = krein_langer_check(case)
    assert rep.identity.status == "ok"
    assert (rep.verdict, rep.kappa_hat, rep.deg_b0) == ("INCONCLUSIVE", 4, 5)
    assert rep.reason == "kappa-hat 4 below target 5 after 200 trials"
    high = krein_langer_check(case, expected_kappa=6)
    assert (high.verdict, high.kappa_hat) == ("FAIL", 4)
    assert high.reason == "kappa-hat 4 below target 6, which exceeds the bound r deg B0 = 5"


@pytest.mark.parametrize("index", [240, 247, 259, 270, 339, 346])
def test_identity_leg_does_not_fail_genuine_clustered_halfspace_sets(index):
    # 9-12 zeros clustered near the Cayley point: the Gram radius from the
    # estimated pole radius keeps these genuine sets inconclusive, while one
    # of 0.45 x the smallest Cayley-image modulus of the zero data would read
    # deviations of 1.1e-9 to 3.4e-5 of the side scale as a "fail"
    case = transport_case_to_ball(synthesize_generalized_schur(corpus_400()[index], 0.7))
    rep = kernel_identity_check(case.s, case.b0, case.s0, seed=Budget().seed + 1)
    assert rep.status != "fail"


def test_vacuous_identity_leg_is_flagged():
    # S0 = 1 gives S = B, so K_S - K_B = 0 and the identity holds trivially;
    # the flag is reported and the verdict stays PASS
    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]))
    rep = krein_langer_check(case, Budget(trials=5, batch=15))
    assert rep.verdict == "PASS" and rep.identity.vacuous
    assert rep.identity.to_json()["vacuous"] is True
    assert rep.to_json()["identity_vacuous"] is True
    assert rep.reason.startswith("identity leg is vacuous (S = B")
    assert "the kappa leg carries the claim" in rep.reason

    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]), 0.7)
    rep = krein_langer_check(case, Budget(trials=5, batch=15))
    assert rep.verdict == "PASS" and not rep.identity.vacuous
    assert rep.identity.to_json()["vacuous"] is False
    assert "identity_vacuous" not in rep.to_json()
    assert rep.reason == ""


def test_krein_langer_inconclusive_truncation():
    case = synthesize_generalized_schur(
        ZeroSet("ball", points=[(A_I, 1)]),
        ZeroSet("ball", points=[(Quaternion(0, 0, 0.3, 0), 1)]),
    )
    rep = krein_langer_check(case, Budget(trials=5, batch=15, identity_trunc=4))
    assert rep.verdict == "INCONCLUSIVE"


@pytest.mark.parametrize("wrong_s0", [None, 0.5])
def test_non_finite_identity_tail_is_inconclusive(wrong_s0):
    # B0^{-*} with its pole at 0.02 i has Taylor coefficients near 50^n, whose
    # squares overflow at truncation 48: the tail bound is NaN, which certifies
    # nothing, whether S0 is the true 0.7 or a wrong 0.5
    case = synthesize_generalized_schur(POLE_ZERO, 0.7)
    if wrong_s0 is not None:
        case = dataclasses.replace(
            case, s0=SchurFunction.constant(Quaternion.from_real(wrong_s0)))
    # the overflow is part of the input, not news: no RuntimeWarning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = krein_langer_check(case, Budget(trials=2, batch=15))
    assert rep.budget.identity_trunc == 48
    assert rep.identity.status == "inconclusive"
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.reason == "identity tail bound is not finite"
    doc = json.loads(dump_json(rep.to_json()))
    assert doc["verdict"] == "INCONCLUSIVE"
    assert doc["identity_tail_bound"] is None
    assert doc["min_gram_eig"] is None


def test_fivefold_pole_near_the_origin_warns_nothing():
    # B0^{-*} with a fivefold pole at 0.03 i overflows in the identity leg's
    # norms and boundary band; the verdict is INCONCLUSIVE and stderr stays clean
    case = synthesize_generalized_schur(
        ZeroSet("ball", points=[(Quaternion(0, 0.03, 0, 0), 5)]), 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = krein_langer_check(case, Budget(trials=2, batch=15))
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.reason.startswith("identity tail bound is not finite")


# B0 zero data of the benchmark's six Krein-Langer cases: (domain, points, spheres)
BENCH_B0 = (
    ("ball", (), ()),
    ("ball", (((0, .5, 0, 0), 1),), ()),
    ("ball", (((0, .5, 0, 0), 1), ((.3, 0, .5, 0), 1)), ()),
    ("ball", (((.2, .5, 0, 0), 2), ((-.3, 0, .4, 0), 1)), ()),
    ("ball", (((0, .5, 0, 0), 1),), (((.2, 0, .5, 0), 1),)),
    ("halfspace", (((.6, .5, 0, 0), 1), ((1.0, 0, .6, 0), 1)), ()),
)


@pytest.mark.parametrize("domain,points,spheres", BENCH_B0)
def test_closed_form_inverse_matches_the_factor_chain(domain, points, spheres):
    # B0^{-*} = (N^s)^{-1} N^c D from B0's own rational against the reversed
    # chain of factor inverses, carried to the ball for the half-space case
    zeros = ZeroSet(domain, [(Quaternion(*a), n) for a, n in points],
                    [(Quaternion(*c), m) for c, m in spheres])
    b0 = build_product(zeros) if points or spheres else FactoredProduct.identity(domain)
    closed, chain = star_inverse(b0.rational), b0.inverse().rational
    if domain == "halfspace":
        ball_b0 = transport_case_to_ball(synthesize_generalized_schur(b0, 0.7)).b0
        closed = star_inverse(ball_b0.rational)
        chain = cayley_transport(b0.inverse(), CAYLEY_X0).rational
    for n in (20, 48):
        fast, ref = closed.taylor(n).coeffs, chain.taylor(n).coeffs
        err = np.sqrt(np.sum((fast - ref) ** 2, axis=(1, 2, 3)))
        assert np.all(err <= 1e-12 * np.sqrt(np.sum(ref * ref, axis=(1, 2, 3))))


def test_pole_in_the_sampling_leg_is_inconclusive():
    # a zero of multiplicity 4 at 0.5 i: trial 45 of seed 0x5C05 draws a point
    # 5e-4 from the pole sphere of S, where evaluation raises PoleError
    case = synthesize_generalized_schur(
        ZeroSet("ball", points=[(A_I, 4)]), 0.7)
    rep = krein_langer_check(case, Budget())
    assert rep.verdict == "INCONCLUSIVE" and rep.negsq is None
    assert rep.reason.startswith("sampling leg failed: evaluation on pole sphere")
    doc = json.loads(dump_json(rep.to_json()))
    assert doc["kappa_hat"] is None and doc["reason"] == rep.reason


def test_zero_at_origin_stops_before_sampling(monkeypatch):
    # B0 vanishes at 0, so the identity expansion fails; the sampling leg
    # must not run at all
    from qschur import factorcheck

    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampling leg ran")

    monkeypatch.setattr(factorcheck, "estimate_neg_squares", no_sampling)
    case = synthesize_generalized_schur(ZeroSet("ball", points=[(Quaternion(), 1)]), 0.7)
    rep = krein_langer_check(case, Budget())
    assert rep.verdict == "INCONCLUSIVE" and rep.kappa_hat is None and rep.negsq is None
    assert rep.reason == "identity expansion failed: denominator vanishes at the expansion point 0"
    doc = json.loads(dump_json(rep.to_json()))
    assert doc["kappa_hat"] is None and doc["identity_residual"] is None


def test_inconclusive_reason_names_both_legs():
    # 0.1 i of multiplicity 8: den_0 of S is 1e-16, not 0, so the identity
    # leg expands and fails to certify its tail, and the sampling leg meets
    # a pole sphere; the reason names both and kappa-hat is null
    case = synthesize_generalized_schur(
        ZeroSet("ball", points=[(Quaternion(0, 0.1, 0, 0), 8)]), 0.7)
    rep = krein_langer_check(case, Budget())
    assert rep.verdict == "INCONCLUSIVE" and rep.kappa_hat is None
    assert "expansion failed" not in rep.reason
    assert rep.reason.startswith("identity truncation insufficient")
    assert "; sampling leg failed: evaluation on pole sphere" in rep.reason


def test_verdict_json_shape():
    case = synthesize_generalized_schur(ZeroSet("ball", points=[(A_I, 1)]))
    rep = krein_langer_check(case, Budget(trials=5, batch=15))
    doc = rep.to_json()
    for key in ("verdict", "kappa_hat", "deg_B0", "identity_residual",
                "min_gram_eig", "budget"):
        assert key in doc
    assert doc["budget"]["trials"] == 5


def test_composition_consistency(rng):
    # f = g * h implies f o b = (g o b) * (h o b) for the real Mobius b
    g = blaschke_factor("ball", "point", A_I)
    h = blaschke_factor("ball", "point", A_J)
    f = g.star(h)
    x0 = 0.3
    fb = f.compose_real_mobius(x0, 1.0, 1.0, x0)
    gb = g.compose_real_mobius(x0, 1.0, 1.0, x0)
    hb = h.compose_real_mobius(x0, 1.0, 1.0, x0)
    both = gb.star(hb)
    for _ in range(10):
        p = sample_ball_point(rng, 0.6)
        assert fb.eval_scalar(p).isclose(both.eval_scalar(p), 1e-10)


def test_cayley_map_examples():
    assert cayley_map(Quaternion.from_real(1.0), 1.0).isclose(Quaternion())
    assert cayley_map(Quaternion.from_real(0.0), 1.0).isclose(Quaternion.from_real(-1.0))
    # inverse direction brings 0 back to x0
    assert cayley_map(Quaternion(), 1.0, "ball_to_halfspace").isclose(
        Quaternion.from_real(1.0)
    )
    with pytest.raises(DomainError):
        cayley_map(Quaternion.from_real(1.0), -1.0)


def test_cayley_roundtrip(rng):
    for _ in range(20):
        p = sample_halfspace_point(rng, 0.1, 2.0)
        w = cayley_map(p, 1.0, "halfspace_to_ball")
        assert w.norm() < 1.0
        back = cayley_map(w, 1.0, "ball_to_halfspace")
        assert back.isclose(p, 1e-12)


def test_transported_halfspace_factor_is_schur(rng):
    a = Quaternion(0.8, 0.4, 0.1, 0.0)
    s_hs = SchurFunction(blaschke_factor("halfspace", "point", a), domain="halfspace")
    s_ball = cayley_transport(s_hs, 1.0, "halfspace_to_ball")
    assert s_ball.domain == "ball"
    rep = estimate_neg_squares(s_ball, trials=20, batch=25, seed=4)
    assert rep.kappa_hat == 0
    for _ in range(10):
        w = sample_ball_point(rng, 0.8)
        hs_point = cayley_map(w, 1.0, "ball_to_halfspace")
        assert s_ball.evaluate(w).as_quaternion().isclose(
            s_hs.evaluate(hs_point).as_quaternion(), 1e-10
        )


def test_transport_direction_validation():
    s = SchurFunction.constant(Quaternion.from_real(0.5), domain="ball")
    with pytest.raises(DomainError):
        cayley_transport(s, 1.0, "halfspace_to_ball")
    moved = cayley_transport(s, 1.0, "ball_to_halfspace")
    assert moved.domain == "halfspace"


def test_halfspace_case_end_to_end():
    case = synthesize_generalized_schur(
        ZeroSet("halfspace", points=[(Quaternion(0.6, 0.5, 0, 0), 1)]),
        ZeroSet("halfspace", points=[(Quaternion(1.2, 0, 0.4, 0), 1)]),
    )
    assert case.domain == "halfspace"
    moved = transport_case_to_ball(case)
    assert moved.domain == "ball"
    assert moved.b0.degree() == 1
    rep = krein_langer_check(case, SMALL)
    assert rep.verdict == "PASS" and rep.kappa_hat == 1


def test_index_preserved_under_transport():
    # the same sampling budget on both sides of the Cayley map
    case = synthesize_generalized_schur(
        ZeroSet("halfspace", points=[(Quaternion(0.7, 0.6, 0, 0), 1)])
    )
    moved = transport_case_to_ball(case)
    rep = estimate_neg_squares(moved.s, trials=25, batch=30, seed=21)
    assert rep.kappa_hat == case.expected_kappa == 1
