"""Acceptance criteria, one test per criterion, each printing a PASS line.

Budgets and tolerances are pinned here; the verification suite is fully
seed-deterministic, including the standard sampling budget of 200 trials
with batches of 40 points at radius 0.9 and seed 0x5C05.
"""

import json

import numpy as np

from qschur.blaschke import (
    SphereFactor,
    PointFactor,
    ZeroSet,
    blaschke_factor,
    build_product,
)
from qschur.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, main
from qschur.factorcheck import Budget, krein_langer_check, synthesize_generalized_schur
from qschur.kernels import (
    SchurFunction,
    base_kernel,
    estimate_dim_HB,
    estimate_neg_squares,
    gram,
    sample_gram_vectors,
)
from qschur.qlinalg import QMatrix, complex_adjoint, herm_eigen_neg
from qschur.quat import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    qdecompose,
    sample_ball_point,
    sample_halfspace_point,
    sample_imaginary_unit,
)
from qschur.realization import (
    backward_shift_colligation,
    colligation_from_blaschke_factor,
    realize_eval,
    solve_stein,
)
from qschur.starpoly import (
    SliceRational,
    StarPoly,
    extend_from_slice,
    zero_multiplicity,
)

from oracles import eval_left, random_qmatrix, series_sum_pair, stein_is_negative

STANDARD = Budget()  # trials=200, batch=40, rho=0.9, seed=0x5C05


def _report(n, label):
    print("ACCEPTANCE %d (%s): PASS" % (n, label))


def random_unit_boundary(rng):
    ax = sample_imaginary_unit(rng)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return Quaternion.from_real(np.cos(theta)) + ax.q * np.sin(theta)


def test_criterion_1_quaternion_algebra():
    minus_one = Quaternion.from_real(-1.0)
    assert (I * I).isclose(minus_one, 0.0)
    assert (J * J).isclose(minus_one, 0.0)
    assert (K * K).isclose(minus_one, 0.0)
    assert (I * J).isclose(K, 0.0) and (J * I).isclose(-K, 0.0)
    assert (J * K).isclose(I, 0.0) and (K * J).isclose(-I, 0.0)
    assert (K * I).isclose(J, 0.0) and (I * K).isclose(-J, 0.0)

    rng = np.random.default_rng(0x5C05)
    comps = rng.uniform(-3.0, 3.0, size=(10_000, 2, 4))
    for a4, b4 in comps:
        a, b = Quaternion.from_array(a4), Quaternion.from_array(b4)
        rhs = a.norm() * b.norm()
        assert abs((a * b).norm() - rhs) <= 1e-12 * max(1.0, rhs)
    _report(1, "quaternion algebra")


def test_criterion_2_blaschke_vanishing():
    rng = np.random.default_rng(0x5C05 + 2)
    for _ in range(100):
        a = sample_ball_point(rng, 0.9)
        if a.norm() < 1e-4:
            continue
        assert blaschke_factor("ball", "point", a).eval_scalar(a).norm() < 1e-10
    for _ in range(50):
        c = sample_ball_point(rng, 0.9)
        if c.imag_modulus() < 1e-3:
            continue
        fac = blaschke_factor("ball", "sphere", c)
        rep = qdecompose(c)
        for _ in range(8):
            ax = sample_imaginary_unit(rng)
            q = Quaternion.from_real(rep.x) + ax.q * rep.y
            assert fac.eval_scalar(q).norm() < 1e-10
    for _ in range(100):
        a = sample_halfspace_point(rng, 0.1, 2.0)
        assert blaschke_factor("halfspace", "point", a).eval_scalar(a).norm() < 1e-10
    for _ in range(50):
        c = sample_halfspace_point(rng, 0.1, 2.0)
        if c.imag_modulus() < 1e-3:
            continue
        fac = blaschke_factor("halfspace", "sphere", c)
        rep = qdecompose(c)
        for _ in range(8):
            ax = sample_imaginary_unit(rng)
            q = Quaternion.from_real(rep.x) + ax.q * rep.y
            assert fac.eval_scalar(q).norm() < 1e-10
    _report(2, "Blaschke vanishing")


def test_criterion_3_star_inverse_roundtrips():
    rng = np.random.default_rng(0x5C05 + 3)
    for _ in range(10):
        a = sample_ball_point(rng, 0.85)
        if a.norm() < 0.05:
            continue
        prod = blaschke_factor("ball", "point", a).star(
            PointFactor(a).inverse("ball").rational("ball")
        )
        c = sample_ball_point(rng, 0.85)
        if c.imag_modulus() < 0.05:
            continue
        prods = blaschke_factor("ball", "sphere", c).star(
            SphereFactor(c).inverse("ball").rational("ball")
        )
        for _ in range(20):
            p = sample_ball_point(rng, 0.75)
            assert prod.eval_scalar(p).isclose(ONE, 1e-9)
            assert prods.eval_scalar(p).isclose(ONE, 1e-9)
    _report(3, "star-inverse roundtrips")


def _random_zero_sets(rng, count, max_degree=6):
    made = 0
    while made < count:
        pts, spheres, budget = [], [], int(rng.integers(1, max_degree + 1))
        while budget > 0:
            if rng.random() < 0.35 and budget >= 2:
                c = sample_ball_point(rng, 0.8)
                if c.imag_modulus() < 0.05:
                    continue
                m = 1 if budget < 4 or rng.random() < 0.7 else 2
                spheres.append((c, m))
                budget -= 2 * m
            else:
                n = int(rng.integers(1, min(budget, 3) + 1))
                a = sample_ball_point(rng, 0.8)
                if a.norm() < 0.02:
                    continue
                pts.append((a, n))
                budget -= n
        try:
            yield ZeroSet("ball", pts, spheres)
        except Exception:
            continue
        made += 1


def test_criterion_4_zero_prescription_builder():
    rng = np.random.default_rng(0x5C05 + 4)
    for zs in _random_zero_sets(rng, 25):
        prod = build_product(zs)
        for a, n in zs.points:
            assert eval_left(prod.rational, a).as_quaternion().norm() < 1e-10
            assert zero_multiplicity(prod.rational.num, a) == ("point", n)
        for c, m in zs.spheres:
            rep = qdecompose(c)
            for _ in range(8):
                ax = sample_imaginary_unit(rng)
                q = Quaternion.from_real(rep.x) + ax.q * rep.y
                assert eval_left(prod.rational, q).as_quaternion().norm() < 1e-10
            assert zero_multiplicity(prod.rational.num, c) == ("spherical", m)
    _report(4, "zero-prescription builder")


def test_criterion_5_degree_law_and_dim_hb():
    rng = np.random.default_rng(0x5C05 + 5)
    for zs in _random_zero_sets(rng, 10):
        prod = build_product(zs)
        expected = sum(n for _, n in zs.points) + sum(2 * m for _, m in zs.spheres)
        assert prod.degree() == expected
        assert estimate_dim_HB(prod).dim == expected
    # three factors on one sphere span a 3-dimensional space
    chain3 = build_product(ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 3)]))
    assert chain3.degree() == 3
    assert estimate_dim_HB(chain3).dim == 3
    _report(5, "degree law and dim H(B)")


def test_criterion_6_kernel_consistency():
    rng = np.random.default_rng(0x5C05 + 6)
    one = QMatrix.eye(1)
    for _ in range(200):
        p = sample_ball_point(rng, 0.8)
        q = sample_ball_point(rng, 0.8)
        closed = base_kernel("ball", p, q)
        series = series_sum_pair(p, one, q, tol=1e-12).as_quaternion()
        # truncation guarantees the tail below 1e-12; float roundoff on top
        assert (closed - series).norm() < 1e-11 * max(1.0, closed.norm())

    s = SchurFunction(blaschke_factor("ball", "point", Quaternion(0.1, 0.5, 0, 0)))
    for _ in range(5):
        pts = np.array([sample_ball_point(rng, 0.85).as_array() for _ in range(15)])
        vecs = sample_gram_vectors(rng, 15, 1)
        raw = gram(s, pts, vecs)
        assert raw.herm_residual() < 1e-10 * max(1.0, raw.norm())

    for _ in range(10):
        m = random_qmatrix(rng, 5, 5)
        h = QMatrix(0.5 * (m.data + m.adjoint().data))
        lam = np.sort(np.linalg.eigvalsh(complex_adjoint(h)))
        rho = max(1.0, float(np.max(np.abs(lam))))
        assert np.max(np.abs(lam[0::2] - lam[1::2])) < 1e-9 * rho
    _report(6, "kernel consistency")


KL_CASES = {
    0: lambda: synthesize_generalized_schur(None, 0.7),
    1: lambda: synthesize_generalized_schur(
        ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1)])
    ),
    2: lambda: synthesize_generalized_schur(
        ZeroSet("ball", points=[(Quaternion(0, 0.5, 0, 0), 1),
                                (Quaternion(0.3, 0, 0.5, 0), 1)]),
        ZeroSet("ball", points=[(Quaternion(0, 0, 0.3, 0), 1)]),
    ),
    3: lambda: synthesize_generalized_schur(
        ZeroSet("ball", points=[(Quaternion(0.2, 0.5, 0, 0), 2),
                                (Quaternion(-0.3, 0, 0.4, 0), 1)]),
        0.8,
    ),
}


def test_criterion_7_krein_langer_desk_scale():
    for kappa, make in KL_CASES.items():
        case = make()
        assert case.expected_kappa == kappa
        rep = krein_langer_check(case, STANDARD)
        assert rep.verdict == "PASS", (kappa, rep.reason)
        assert rep.kappa_hat == kappa == rep.deg_b0
        tail = rep.to_json()["identity_tail_bound"]
        assert tail == rep.identity.tail_bound and 0.0 <= tail <= 1e-9
        if kappa > 0:
            assert rep.min_gram_eig >= -1e-8
    # negative controls: inflating the expected index flips the verdict
    for kappa in (0, 2):
        case = KL_CASES[kappa]()
        rep = krein_langer_check(case, STANDARD, expected_kappa=kappa + 1)
        assert rep.verdict == "FAIL"
    _report(7, "Krein-Langer desk scale")


def test_criterion_8_realizations():
    rng = np.random.default_rng(0x5C05 + 8)
    for _ in range(6):
        a = sample_ball_point(rng, 0.85)
        if a.norm() < 0.05:
            continue
        col = colligation_from_blaschke_factor(a)
        assert col.coisometry_residual() < 1e-10
        fac = blaschke_factor("ball", "point", a)
        for _ in range(30):
            p = sample_ball_point(rng, 0.9)
            assert realize_eval(col, p).as_quaternion().isclose(
                fac.eval_scalar(p), 1e-10
            )
        gap = QMatrix.eye(1) - col.A.adjoint() @ col.A - col.C.adjoint() @ col.C
        eigs, _ = herm_eigen_neg(QMatrix(0.5 * (gap.data + gap.adjoint().data)))
        assert np.min(eigs) >= -1e-10

    coeffs = [Quaternion(0.2, 0.1, 0, 0), Quaternion(0, 0, 0.3, 0),
              Quaternion(0, -0.25, 0, 0.1)]
    rat = SliceRational.from_poly(StarPoly.scalar(coeffs))
    col = backward_shift_colligation(SchurFunction(rat), 2)
    for _ in range(20):
        p = sample_ball_point(rng, 0.95)
        assert realize_eval(col, p).as_quaternion().isclose(
            rat.eval_scalar(p), 1e-12
        )
    _report(8, "realizations")


def test_criterion_9_stein_equation():
    rng = np.random.default_rng(0x5C05 + 9)
    p, _ = solve_stein(QMatrix.scalar(2.0), QMatrix.scalar(1.0))
    assert abs(p.entry(0, 0).re + 1.0 / 3.0) < 1e-14
    count = 0
    while count < 20:
        n = int(rng.integers(1, 9))
        d = np.zeros((n, n, 4))
        d[np.arange(n), np.arange(n), 0] = rng.uniform(1.6, 3.0)
        a = QMatrix(d + rng.uniform(-0.15, 0.15, size=(n, n, 4)))
        c = random_qmatrix(rng, int(rng.integers(1, 4)), n)
        sol, _ = solve_stein(a, c)
        resid = (a.adjoint() @ sol @ a - sol + c.adjoint() @ c).norm()
        assert resid < 1e-9 * max(1.0, sol.norm())
        assert stein_is_negative(sol)
        count += 1
    _report(9, "Stein equation")


def test_criterion_10_moebius_and_cayley():
    from qschur.factorcheck import transport_case_to_ball
    from qschur.kernels import cayley_map, moebius_identity_check

    rng = np.random.default_rng(0x5C05 + 10)
    functions = [
        SchurFunction.constant(Quaternion()),
        SchurFunction.constant(Quaternion.from_real(0.6)),
        SchurFunction(blaschke_factor("ball", "point", Quaternion(0, 0.5, 0, 0))),
        SchurFunction(blaschke_factor("ball", "point", Quaternion(0.2, 0, 0.4, 0))),
        SchurFunction(blaschke_factor("ball", "sphere", Quaternion(0.2, 0.4, 0, 0))),
    ]
    x0s = (0.3, -0.25)
    combos = [(s, x0) for s in functions for x0 in x0s]
    assert len(combos) == 10
    for s, x0 in combos:
        for _ in range(20):
            p = sample_ball_point(rng, 0.55)
            q = sample_ball_point(rng, 0.55)
            assert moebius_identity_check(s, x0, p, q) < 1e-9

    assert cayley_map(Quaternion.from_real(1.0), 1.0).isclose(Quaternion(), 1e-15)

    # index preserved under transport on the half-space corpus
    probe = Budget(trials=60, batch=30, seed=0x5C05)
    corpus = [
        (synthesize_generalized_schur(
            ZeroSet("halfspace", points=[(Quaternion(0.7, 0.6, 0, 0), 1)])), 1),
        (synthesize_generalized_schur(
            ZeroSet("halfspace", points=[(Quaternion(0.6, 0.5, 0, 0), 1)]),
            ZeroSet("halfspace", points=[(Quaternion(1.2, 0, 0.4, 0), 1)])), 1),
    ]
    for case, kappa in corpus:
        moved = transport_case_to_ball(case)
        rep = estimate_neg_squares(moved.s, trials=probe.trials,
                                   batch=probe.batch, seed=probe.seed)
        assert rep.kappa_hat == kappa
    _report(10, "Moebius and Cayley")


def test_criterion_11_structure_formula():
    rng = np.random.default_rng(0x5C05 + 11)
    for _ in range(20):
        deg = int(rng.integers(1, 5))
        coeffs = [Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(deg + 1)]
        f = StarPoly.scalar(coeffs)
        ax = sample_imaginary_unit(rng)
        for _ in range(50):
            q = Quaternion.from_array(rng.uniform(-1, 1, 4))
            direct = f.eval_scalar(q)
            ext = extend_from_slice(lambda z: f.eval_scalar(z), ax, q)
            assert direct.isclose(ext, 1e-11 * max(1.0, f.eval_scale(q)))
    _report(11, "structure formula")


def test_criterion_12_cli_contract(tmp_path):
    zeros = {"domain": "ball", "points": [{"a": [0.0, 0.5, 0.0, 0.0], "n": 1}]}
    cfg_path = tmp_path / "kl.json"
    cfg_path.write_text(json.dumps(
        {"command": "kl-check", "b0": zeros, "trials": 20, "batch": 25, "seed": 3}
    ))
    outs = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for out in outs:
        assert main(["kl-check", "--config", str(cfg_path), "--out", out]) == EXIT_OK
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()

    bad_path = tmp_path / "klbad.json"
    bad_path.write_text(json.dumps(
        {"command": "kl-check", "b0": zeros, "expected_kappa": 2,
         "trials": 10, "batch": 20}
    ))
    assert main(["kl-check", "--config", str(bad_path),
                 "--out", str(tmp_path / "c.json")]) == EXIT_FAIL

    inc_path = tmp_path / "klinc.json"
    inc_path.write_text(json.dumps(
        {"command": "kl-check", "b0": zeros,
         "s0": {"kind": "blaschke",
                "zeros": {"domain": "ball",
                          "points": [{"a": [0.0, 0.0, 0.3, 0.0], "n": 1}]}},
         "identity_trunc": 4, "trials": 5, "batch": 15}
    ))
    assert main(["kl-check", "--config", str(inc_path),
                 "--out", str(tmp_path / "d.json")]) == EXIT_INCONCLUSIVE
    _report(12, "CLI contract")
