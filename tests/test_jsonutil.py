"""The report writer against its contract: one line of JSON with sorted
keys and shortest round-trip floats, ValueError on a non-finite float,
TypeError on a type JSON does not know.  The expected outcome of every
value comes from an isinstance chain written out here."""

import contextlib
import enum
import io
import json
import math
import pathlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur._jsonutil import dump_json
from qschur.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def key_text(key):
    """The JSON spelling of a dict key."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, bool):
        return {None: "null", True: "true", False: "false"}[key]
    if isinstance(key, float):
        return repr(key)
    if isinstance(key, int):
        return str(int(key))
    raise TypeError("key %r" % (key,))


def isinstance_chain(obj):
    """What json.loads reads back from dump_json(obj), with tuples as lists
    and keys in their JSON spelling; raises the error dump_json must raise.
    Keys are visited sorted, as the writer visits them."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite")
        return obj
    if isinstance(obj, (list, tuple)):
        return [isinstance_chain(v) for v in obj]
    if isinstance(obj, dict):
        return {key_text(k): isinstance_chain(obj[k]) for k in sorted(obj)}
    raise TypeError(type(obj).__name__)


def assert_same(obj):
    try:
        expected = isinstance_chain(obj)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            dump_json(obj)
        return
    text = dump_json(obj)
    assert text.isascii() and "\n" not in text
    assert json.loads(text) == expected


def test_every_cli_light_report_is_written_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cli_mix

    configs = cli_mix.configs(0x5C05)
    assert len(configs) == 24
    for index, (config, _) in enumerate(configs):
        path = tmp_path / ("%02d.json" % index)
        path.write_text(json.dumps(config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([config["command"], "--config", str(path)]) == 0
        text = out.getvalue()
        report = json.loads(text)
        assert dump_json(report) + "\n" == text


class Color(enum.IntEnum):
    RED = 1


class Label(str):
    pass


class Rows(list):
    pass


@pytest.mark.parametrize("obj", [
    float("nan"), float("inf"), -float("inf"),
    [1.0, float("nan")], {"a": [float("inf")]}, {"a": -float("inf")},
    np.float64(float("nan")), [np.float64(float("inf"))],
    True, False, [True, 0, None], {"flag": False},
    np.float64(0.1), [np.float64(-0.0), np.float32(0.5)], {"x": np.float64(1e300)},
    (), (1.5, "a", (2, [])), {"t": (0.25, None)},
    {1: "one", 2: 2.0}, {2.5: 1}, {None: 1}, {1: 1, "a": 2}, {True: 1.0},
    "", "é☃ \"q\" \\ \n\t\x00", Label("sub"), {Label("k"): Label("v")},
    Color.RED, [Color.RED], -0.0, 5e-324, 1.7976931348623157e308, 2**80,
    {}, [], [[]], {"a": {}}, OrderedDict([("b", 1.0), ("a", [2.0])]), Rows([1.0, "x"]),
    {1, 2}, object(), np.int64(3), [np.int64(3)], {"a": np.arange(2)}, b"bytes", 1j,
])
def test_hostile_values_match_the_isinstance_chain(obj):
    assert_same(obj)


def test_non_finite_floats_raise_value_error():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for obj in (bad, [bad], {"k": bad}, [0.5, {"k": (bad,)}]):
            with pytest.raises(ValueError):
                dump_json(obj)


def test_unknown_types_raise_type_error():
    for bad in ({1, 2}, object(), np.int64(3), b"x", 1j):
        for obj in (bad, [bad], {"k": bad}):
            with pytest.raises(TypeError):
                dump_json(obj)


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.floats().map(np.float64))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3)),
    max_leaves=20)


@given(trees)
@settings(max_examples=300, deadline=None)
def test_random_trees_match_the_isinstance_chain(obj):
    assert_same(obj)
