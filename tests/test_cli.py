import copy
import json
import os
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qschur import blaschke, cli
from qschur.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
)
from qschur.errors import ConfigError
from qschur.starpoly import StarPoly, zero_multiplicity

from oracles import (HALFSPACE_BLASCHKE, HALFSPACE_SMALL_ZEROS, POLE_ZERO, THREE_SMALL_ZEROS,
                     corpus_400, crowded_halfspace_zeros, left_root_count, read_json)

BALL_ZEROS = {"domain": "ball", "points": [{"a": [0.0, 0.5, 0.0, 0.0], "n": 1}]}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_minimal_kl_config():
    cfg = parse_config(json.dumps({"command": "kl-check", "b0": BALL_ZEROS}).encode())
    assert cfg.command == "kl-check"
    assert cfg.effective["seed"] == 0x5C05
    assert cfg.effective["trials"] == 200


def test_parse_rejects_ball_modulus():
    bad = {"command": "kl-check",
           "b0": {"domain": "ball", "points": [{"a": [1.2, 0, 0, 0], "n": 1}]}}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(bad).encode())
    paths = [p for p, _ in info.value.violations]
    assert any(p.endswith("/points/0/a") for p in paths)


def test_parse_rejects_nan_and_unknown_fields():
    bad = json.dumps(
        {"command": "kl-check", "b0": BALL_ZEROS, "mystery": 1}
    )
    with pytest.raises(ConfigError) as info:
        parse_config(bad.encode())
    assert any(p == "/mystery" for p, _ in info.value.violations)

    nan_cfg = ('{"command": "kl-check", "b0": {"domain": "ball", '
               '"points": [{"a": [NaN, 0, 0, 0], "n": 1}]}}')
    with pytest.raises(ConfigError):
        parse_config(nan_cfg.encode())


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError):
        parse_config(b"{nope")


def test_kl_check_pass_and_reports_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path, "kl.json",
        {"command": "kl-check", "b0": BALL_ZEROS, "trials": 15, "batch": 20, "seed": 9},
    )
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["kl-check", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["kl-check", "--config", cfg, "--out", out2]) == EXIT_OK
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    doc = json.loads(b1)
    assert doc["verdict"] == "PASS"
    assert doc["kappa_hat"] == 1 and doc["deg_B0"] == 1
    assert doc["identity_vacuous"] is True      # S0 = 1, so S = B
    assert doc["seed"] == 9
    assert doc["config"]["command"] == "kl-check"


def test_kl_check_scalar_b0_matrix_s0(tmp_path):
    # B0 multiplies S0 = 0.5 I_2 as B0 I_2, a product of degree 2 deg B0
    half_eye = {"rows": 2, "cols": 2, "entries": [[0.5, 0, 0, 0], [0, 0, 0, 0],
                                                  [0, 0, 0, 0], [0.5, 0, 0, 0]]}
    s0 = {"kind": "rational", "num": {"shape": [2, 2], "coeffs": [half_eye]},
          "den": {"shape": [1, 1], "coeffs": [ONE]}}
    cfg = write_config(
        tmp_path, "klmat.json",
        {"command": "kl-check", "b0": BALL_ZEROS, "s0": s0, "trials": 10, "batch": 20,
         "identity_trunc": 32},
    )
    out = str(tmp_path / "klmat-out.json")
    assert main(["kl-check", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out, "rb").read())
    assert doc["verdict"] == "PASS" and doc["kappa_hat"] == 2 and doc["deg_B0"] == 1
    assert "identity_vacuous" not in doc


def test_kl_check_negative_control_exit_1(tmp_path):
    cfg = write_config(
        tmp_path, "klbad.json",
        {"command": "kl-check", "b0": BALL_ZEROS, "expected_kappa": 2,
         "trials": 10, "batch": 20},
    )
    out = str(tmp_path / "r.json")
    assert main(["kl-check", "--config", cfg, "--out", out]) == EXIT_FAIL
    assert json.loads(open(out).read())["verdict"] == "FAIL"


def test_kl_check_verdict_rules_through_the_cli(tmp_path):
    # three small zeros: PASS, the Gram minimum being rounding; 0.02 i with
    # target 0: the sampled kappa-hat 1 exceeds it although the identity leg
    # is inconclusive; three small half-space zeros: PASS, the identity
    # deviation being rounding against the scale of its sides
    small, pole, halfspace = (z.to_json() for z in (THREE_SMALL_ZEROS, POLE_ZERO,
                                                     HALFSPACE_SMALL_ZEROS))
    s0 = {"kind": "constant", "value": [0.7, 0.0, 0.0, 0.0]}
    for name, extra, code, verdict, kappa in (
            ("small", {"b0": small}, EXIT_OK, "PASS", 3),
            ("pole", {"b0": pole, "expected_kappa": 0}, EXIT_FAIL, "FAIL", 1),
            ("halfspace", {"b0": halfspace, "s0": dict(s0, domain="halfspace")},
             EXIT_OK, "PASS", 3)):
        cfg = write_config(tmp_path, name + ".json", {"command": "kl-check", "s0": s0, **extra})
        out = str(tmp_path / (name + "-r.json"))
        assert main(["kl-check", "--config", cfg, "--out", out]) == code
        doc = json.loads(open(out).read())
        assert (doc["verdict"], doc["kappa_hat"]) == (verdict, kappa)


def test_kl_check_inconclusive_exit_2(tmp_path):
    cfg = write_config(
        tmp_path, "klinc.json",
        {"command": "kl-check", "b0": BALL_ZEROS,
         "s0": {"kind": "blaschke",
                "zeros": {"domain": "ball",
                          "points": [{"a": [0.0, 0.0, 0.3, 0.0], "n": 1}]}},
         "identity_trunc": 4, "trials": 5, "batch": 15},
    )
    out = str(tmp_path / "r.json")
    assert main(["kl-check", "--config", cfg, "--out", out]) == EXIT_INCONCLUSIVE
    assert json.loads(open(out).read())["verdict"] == "INCONCLUSIVE"


def test_kl_check_pole_in_sampling_exit_2(tmp_path):
    # a valid config whose sampling leg meets a pole sphere of S (seed 0x5C05)
    cfg = write_config(
        tmp_path, "klpole.json",
        {"command": "kl-check",
         "b0": {"domain": "ball", "points": [{"a": [0.0, 0.5, 0.0, 0.0], "n": 4}]},
         "s0": {"kind": "constant", "value": [0.7, 0.0, 0.0, 0.0]}},
    )
    out = str(tmp_path / "r.json")
    assert main(["kl-check", "--config", cfg, "--out", out]) == EXIT_INCONCLUSIVE
    doc = json.loads(open(out).read())
    assert doc["verdict"] == "INCONCLUSIVE" and doc["kappa_hat"] is None
    assert "pole sphere" in doc["reason"]


def test_kl_check_zero_at_origin_exit_2(tmp_path):
    # B0^{-*} has its pole at the expansion point 0, so the identity leg
    # has no residual to report: it is written as null, not NaN
    cfg = write_config(
        tmp_path, "klorigin.json",
        {"command": "kl-check", "trials": 2, "batch": 10,
         "b0": {"domain": "ball", "points": [{"a": [0.0, 0.0, 0.0, 0.0], "n": 1}]},
         "s0": {"kind": "constant", "value": [0.7, 0.0, 0.0, 0.0]}},
    )
    out = str(tmp_path / "r.json")
    assert main(["kl-check", "--config", cfg, "--out", out]) == EXIT_INCONCLUSIVE
    doc = json.loads(open(out).read())
    assert doc["identity_residual"] is None and doc["min_gram_eig"] is None
    assert doc["reason"].startswith("identity expansion failed")


def test_usage_error_exit_3(tmp_path):
    bad = write_config(tmp_path, "bad.json", {"command": "kl-check"})
    assert main(["kl-check", "--config", bad]) == EXIT_USAGE
    malformed = tmp_path / "broken.json"
    malformed.write_text("{")
    assert main(["kl-check", "--config", str(malformed)]) == EXIT_USAGE
    # config command disagreeing with the subcommand
    cfg = write_config(tmp_path, "negsq.json",
                       {"command": "negsq",
                        "schur": {"kind": "blaschke", "zeros": BALL_ZEROS}})
    assert main(["kl-check", "--config", cfg]) == EXIT_USAGE


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = write_config(tmp_path, "build.json", {"command": "blaschke-build", "zeros": BALL_ZEROS})
    assert main(["blaschke-build", "--config", cfg]) == EXIT_OK
    first = capsys.readouterr().out
    for argv in ([], ["no-such-command", "--config", cfg], ["blaschke-build"],
                 ["blaschke-build", "--config", cfg, "--trials", "5"]):
        assert main(argv) == EXIT_USAGE, argv
    capsys.readouterr()
    assert main(["blaschke-build", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_missing_config_exit_4(tmp_path):
    assert main(["kl-check", "--config", str(tmp_path / "nope.json")]) == EXIT_IO


def test_negsq_on_blaschke_factor(tmp_path):
    cfg = write_config(
        tmp_path, "negsq.json",
        {"command": "negsq",
         "schur": {"kind": "blaschke", "zeros": BALL_ZEROS},
         "trials": 10, "batch": 15, "csv": str(tmp_path / "eigs.csv")},
    )
    out = str(tmp_path / "r.json")
    assert main(["negsq", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["report"]["kappa_hat"] == 0
    csv = open(tmp_path / "eigs.csv").read()
    assert csv.startswith("index,eigenvalue\n")
    assert len(csv.strip().splitlines()) == 16


def test_negsq_quotient_spec(tmp_path):
    cfg = write_config(
        tmp_path, "negsq2.json",
        {"command": "negsq",
         "schur": {"kind": "quotient", "b0": BALL_ZEROS, "s0": None},
         "trials": 10, "batch": 20},
    )
    out = str(tmp_path / "r.json")
    assert main(["negsq", "--config", cfg, "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["report"]["kappa_hat"] == 1


def test_dim_hb_command(tmp_path):
    cfg = write_config(
        tmp_path, "dim.json",
        {"command": "dim-hb",
         "zeros": {"domain": "ball",
                   "points": [{"a": [0.2, 0.5, 0.0, 0.0], "n": 2}]}},
    )
    out = str(tmp_path / "r.json")
    assert main(["dim-hb", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["dim"] == 2 and doc["degree"] == 2


def test_dim_hb_command_halfspace(tmp_path):
    cfg = write_config(
        tmp_path, "dim_hs.json",
        {"command": "dim-hb",
         "zeros": {"domain": "halfspace",
                   "points": [{"a": [0.6, 0.5, 0.0, 0.0], "n": 1},
                              {"a": [1.0, 0.0, 0.6, 0.0], "n": 1}]}},
    )
    out = str(tmp_path / "r.json")
    assert main(["dim-hb", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["dim"] == 2 and doc["degree"] == 2


def test_realize_command(tmp_path):
    cfg = write_config(
        tmp_path, "real.json",
        {"command": "realize", "blaschke_a": [0.0, 0.5, 0.0, 0.0],
         "points": [[0.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.0, 0.0]]},
    )
    out = str(tmp_path / "r.json")
    assert main(["realize", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["coisometry_residual"] < 1e-12
    first = doc["values"][0]["value"]["entries"][0]
    assert abs(first[0] - 0.5) < 1e-12  # B_a(0) = |a|


def test_stein_command(tmp_path):
    cfg = write_config(
        tmp_path, "stein.json",
        {"command": "stein",
         "A": {"rows": 1, "cols": 1, "entries": [[2.0, 0.0, 0.0, 0.0]]},
         "C": {"rows": 1, "cols": 1, "entries": [[1.0, 0.0, 0.0, 0.0]]}},
    )
    out = str(tmp_path / "r.json")
    assert main(["stein", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert abs(doc["P"]["entries"][0][0] + 1.0 / 3.0) < 1e-14
    assert doc["negative_semidefinite"] is True


def test_transport_command(tmp_path, capsys):
    transport = {"command": "transport", "schur": HALFSPACE_BLASCHKE,
                 "x0": 1.0, "direction": "halfspace_to_ball",
                 "points": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]}
    cfg = write_config(tmp_path, "tr.json", transport)
    out = str(tmp_path / "r.json")
    assert main(["transport", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["mapped_points"][0]["image"] == [0, 0, 0, 0]
    assert doc["mapped_points"][1]["image"] == [-1, 0, 0, 0]
    assert doc["domain"] == "ball"
    assert "negsq" not in doc and "trials" not in doc["config"]
    # the index of the same spec is the negsq command's, which transports it too
    cfg = write_config(tmp_path, "ns.json", {"command": "negsq", "schur": HALFSPACE_BLASCHKE,
                                             "trials": 8, "batch": 15})
    assert main(["negsq", "--config", cfg, "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["report"]["kappa_hat"] == 0
    # transport runs no estimate, so its old estimate fields are unknown
    cfg = write_config(tmp_path, "bad.json", dict(transport, negsq=True))
    assert main(["transport", "--config", cfg]) == EXIT_USAGE
    assert "qschur: config /negsq: unknown field" in capsys.readouterr().err


def test_blaschke_build_command(tmp_path):
    cfg = write_config(
        tmp_path, "bb.json",
        {"command": "blaschke-build",
         "zeros": {"domain": "ball",
                   "points": [{"a": [0.0, 0.5, 0.0, 0.0], "n": 1},
                              {"a": [0.3, 0.0, 0.5, 0.0], "n": 1}]}},
    )
    out = str(tmp_path / "r.json")
    assert main(["blaschke-build", "--config", cfg, "--out", out]) == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["degree"] == 2
    assert all(r < 1e-10 for r in doc["zero_residuals"])
    assert len(doc["factors"]) == 2


def test_blaschke_build_crowded_halfspace_set(tmp_path):
    cfg = write_config(tmp_path, "bb.json", {"command": "blaschke-build",
                                             "zeros": crowded_halfspace_zeros().to_json()})
    out = str(tmp_path / "r.json")
    assert main(["blaschke-build", "--config", cfg, "--out", out]) == EXIT_OK
    assert json.loads(open(out).read())["degree"] == 12


def test_blaschke_build_corpus_ratchet(tmp_path):
    # every corpus set builds through the CLI, and the numerator read back
    # from the report gives up each point exactly n times; zero_multiplicity
    # still misreads 13 of the 899 entries, 10 point zeros whose
    # sphere-division remainder passes as spherical and 3 undercounts
    sets = corpus_400()
    out = str(tmp_path / "r.json")
    failed, entries, misread = [], 0, []
    for index, zeros in enumerate(sets):
        cfg = write_config(tmp_path, "bb.json", {"command": "blaschke-build",
                                                 "zeros": zeros.to_json()})
        if main(["blaschke-build", "--config", cfg, "--out", out]) != EXIT_OK:
            failed.append(index)
            continue
        num = read_json(StarPoly.from_json, json.loads(open(out).read())["product"]["num"])
        for a, n in zeros.points:
            assert left_root_count(num, a, n + 1) == n, (index, a, n)
        for kind, items in (("point", zeros.points), ("spherical", zeros.spheres)):
            for a, n in items:
                entries += 1
                if zero_multiplicity(num, a) != (kind, n):
                    misread.append(index)
    assert failed == []
    assert entries == 899 and len(misread) <= 13, misread


def test_float_formatting_shortest_repr():
    from qschur._jsonutil import dump_json

    assert dump_json({"x": 0.1, "y": 1 / 3}) == '{"x": 0.1, "y": 0.3333333333333333}'
    with pytest.raises(ValueError):
        dump_json(float("inf"))


ONE = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0, 0.0, 0.0]]}
HALF = {"rows": 1, "cols": 1, "entries": [[0.5, 0.0, 0.0, 0.0]]}
RATIONAL = {"kind": "rational", "num": {"shape": [1, 1], "coeffs": [HALF]},
            "den": {"shape": [1, 1], "coeffs": [ONE]}}
EYE2 = {"rows": 2, "cols": 2, "entries": [[1.0, 0, 0, 0], [0.0, 0, 0, 0],
                                          [0.0, 0, 0, 0], [1.0, 0, 0, 0]]}
HALFSPACE_COLLIGATION = {"A": HALF, "B": ONE, "C": ONE, "D": HALF, "domain": "halfspace"}


@pytest.mark.parametrize("payload, pointer", [
    ({"command": "negsq",
      "schur": {"kind": "quotient", "b0": BALL_ZEROS,
                "s0": {"kind": "constant", "value": [0.5, 0, 0, 0],
                       "domain": "halfspace"}}},
     "/schur"),
    ({"command": "negsq", "schur": dict(RATIONAL, num={"shape": 5, "coeffs": [HALF]})},
     "/schur/num/shape"),
    ({"command": "negsq", "schur": dict(RATIONAL, num={"shape": [1, 1], "coeffs": 5})},
     "/schur/num/coeffs"),
    ({"command": "stein", "A": {"rows": 1, "cols": 1, "entries": 5}, "C": ONE},
     "/A/entries"),
    ({"command": "kl-check", "b0": BALL_ZEROS,
      "s0": {"kind": "constant", "value": [0.5, 0, 0, 0], "domain": "halfspace"}},
     "/s0"),
    pytest.param({"command": "kl-check", "b0": BALL_ZEROS,
                  "s0": {"kind": "constant", "value": [2.0, 0, 0, 0]}},
                 "/s0/value", id="kl-check-s0-norm-2"),
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": {"A": HALF, "B": ONE, "C": ONE, "D": HALF, "J1": EYE2}},
                 "/colligation/J1", id="realize-j1-2x2-beside-1-column-b"),
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": dict(HALFSPACE_COLLIGATION, x0=float("inf"))},
                 "/colligation", id="realize-halfspace-x0-inf"),
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": dict(HALFSPACE_COLLIGATION, x0=True)},
                 "/colligation", id="realize-halfspace-x0-true"),
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": dict(HALFSPACE_COLLIGATION, domain="ball", x0="abc")},
                 "/colligation", id="realize-ball-x0-string"),
    # unknown or missing fields inside nested objects
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": {"A": HALF, "B": ONE, "C": ONE, "D": HALF, "j2": ONE}},
                 "/colligation/j2", id="realize-colligation-j2-misspelled"),
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": {"B": ONE, "C": ONE, "D": HALF}},
                 "/colligation/A", id="realize-colligation-without-a"),
    pytest.param({"command": "realize", "points": [[0.2, 0.1, 0, 0]],
                  "colligation": {"A": HALF, "B": ONE, "C": ONE, "D": HALF, "J1": None}},
                 "/colligation/J1", id="realize-colligation-j1-null"),
    pytest.param({"command": "stein", "A": dict(HALF, extra=1), "C": ONE},
                 "/A/extra", id="stein-a-extra-key"),
    pytest.param({"command": "negsq", "schur": dict(RATIONAL, num=dict(RATIONAL["num"], zzz=0))},
                 "/schur/num/zzz", id="negsq-rational-num-extra-key"),
    pytest.param({"command": "blaschke-build",
                  "zeros": {"domain": "ball", "points": [{"a": [0.1, 0.5, 0, 0]},
                                                         {"a": [0.1, 0, 0, 0.5]}]}},
                 "/zeros/points/1/a", id="blaschke-build-two-zeros-on-one-sphere"),
])
def test_hostile_config_exit_3_with_pointer(tmp_path, capsys, payload, pointer):
    cfg = write_config(tmp_path, "hostile.json", payload)
    assert main([payload["command"], "--config", cfg]) == EXIT_USAGE
    assert "qschur: config %s: " % pointer in capsys.readouterr().err


CHEAP_CONFIGS = (
    {"command": "blaschke-build", "zeros": BALL_ZEROS},
    {"command": "negsq", "trials": 2, "batch": 6, "rho": 0.9,
     "schur": {"kind": "quotient", "b0": BALL_ZEROS,
               "s0": {"kind": "constant", "value": [0.5, 0, 0, 0], "domain": "ball"}}},
    {"command": "negsq", "trials": 2, "batch": 6, "schur": RATIONAL},
    {"command": "dim-hb", "zeros": BALL_ZEROS, "points": 6, "cutoff": 1e-8, "radius": 0.75,
     "seed": 3},
    {"command": "realize", "blaschke_a": [0.0, 0.5, 0.0, 0.0], "points": [[0.2, 0.1, 0, 0]]},
    {"command": "realize", "points": [[0.2, 0.1, 0, 0]],
     "colligation": {"A": HALF, "B": ONE, "C": ONE, "D": HALF, "domain": "ball"}},
    {"command": "stein", "A": HALF, "C": ONE},
    {"command": "transport", "x0": 1.0, "direction": "halfspace_to_ball",
     "points": [[1.0, 0.0, 0.0, 0.0]], "schur": HALFSPACE_BLASCHKE},
    {"command": "kl-check", "b0": BALL_ZEROS, "trials": 2, "batch": 6,
     "identity_trunc": 4, "expected_kappa": 1, "seed": 5},
)


def cheap_config(command):
    return copy.deepcopy(next(c for c in CHEAP_CONFIGS if c["command"] == command))


@pytest.mark.parametrize("command, key, value", [
    ("blaschke-build", "seed", -1),
    ("negsq", "seed", -1),
    ("negsq", "trials", 0),
    ("negsq", "batch", 0),
    ("negsq", "rho", "x"),
    ("negsq", "cutoff", True),
    ("dim-hb", "seed", -1),
    ("dim-hb", "points", 0),
    ("dim-hb", "cutoff", "x"),
    ("dim-hb", "radius", [0.5]),
    ("realize", "seed", 1.5),
    ("stein", "seed", -1),
    ("kl-check", "seed", -1),
    ("kl-check", "expected_kappa", -1),
    ("kl-check", "trials", 0),
    ("kl-check", "batch", -1),
    ("kl-check", "identity_trunc", 0),
    ("kl-check", "rho", "x"),
    ("transport", "seed", -1),
    ("transport", "x0", 0),
    # transport runs no estimate: these are unknown fields now
    ("transport", "trials", 0),
    ("transport", "batch", 1.5),
    # bounds beyond the type: a cutoff > 0, a radius in (0, 1)
    ("negsq", "rho", 0),
    ("negsq", "rho", 1.0),
    ("negsq", "cutoff", -1),
    ("negsq", "cutoff", 0),
    ("dim-hb", "cutoff", -1),
    ("dim-hb", "radius", 0),
    ("dim-hb", "radius", 1.5),
    ("kl-check", "rho", 0),
    ("kl-check", "rho", 1.5),
    ("kl-check", "rho", -0.9),
])
def test_bad_numeric_field_exit_3_with_pointer(tmp_path, capsys, command, key, value):
    payload = dict(cheap_config(command), **{key: value})
    cfg = write_config(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg]) == EXIT_USAGE
    assert "qschur: config /%s: " % key in capsys.readouterr().err


def json_paths(node, path=()):
    """Pointer paths, as key tuples, of every value below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def lookup(node, path):
    for key in path:
        node = node[key]
    return node


FIELDS = [(idx, path) for idx, cfg in enumerate(CHEAP_CONFIGS) for path in json_paths(cfg)]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                    st.text(max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(FIELDS), value=VALUES)
def test_fuzz_wrong_type_fields_never_raise(fuzz_dir, field, value):
    idx, path = field
    payload = copy.deepcopy(CHEAP_CONFIGS[idx])
    assume(type(value) is not type(lookup(payload, path)))
    lookup(payload, path[:-1])[path[-1]] = value
    cfg = fuzz_dir / "config.json"
    cfg.write_text(json.dumps(payload))
    argv = [CHEAP_CONFIGS[idx]["command"], "--config", str(cfg),
            "--out", str(fuzz_dir / "report.json")]
    assert main(argv) in range(5)


@pytest.mark.parametrize("command", ["blaschke-build", "dim-hb", "kl-check", "negsq"])
def test_each_config_zero_set_runs_the_rules_once(tmp_path, monkeypatch, command):
    # a ZeroSet keeps the zero-set rules from its construction on, so
    # nothing downstream runs them again
    calls = []
    rules = blaschke._violations
    monkeypatch.setattr(blaschke, "_violations", lambda *args: calls.append(args) or rules(*args))
    cfg = write_config(tmp_path, "one.json", cheap_config(command))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.json")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("a", [[0.0, 1.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
def test_realize_blaschke_a_off_the_punctured_ball_exit_3(tmp_path, capsys, a):
    cfg = write_config(tmp_path, "r.json", dict(cheap_config("realize"), blaschke_a=a))
    assert main(["realize", "--config", cfg]) == EXIT_USAGE
    assert capsys.readouterr().err == "qschur: config /blaschke_a: need 0 < |a| < 1\n"


def test_readme_cli_table_names_every_config_field():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    table = readme.split("| command | field | default | check |", 1)[1].split("\n\n", 1)[0]
    documented, command = {}, None
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        command = cells[1].strip().strip("`") or command
        documented.setdefault(command, set()).update(re.findall(r"`(\w+)`", cells[2]))
    # seed and csv, common to every command, are named above the table
    assert {c: f | {"seed", "csv"} for c, f in documented.items()} == {
        c: set(f) for c, f in cli._FIELDS.items()}
