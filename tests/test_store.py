"""Tests for the on-disk result store."""

import gc
import json
import os
import stat
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mems4.store import (
    SCHEMA_VERSION, atomic_write_text, canonical_json, write_csv, write_json, write_json_list,
)


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
)
def test_artifacts_get_the_mode_open_would_give(tmp_path, umask, mode):
    # mkstemp creates 0600; an artifact must be 0666 less the umask, like
    # a file made by open(), and the text must still land whole.
    old = os.umask(umask)
    try:
        write_json(tmp_path / "config.json", {"a": 1})
        write_csv(tmp_path / "tables" / "bounds.csv", ["n"], [[1]])
        atomic_write_text(tmp_path / "plain.txt", "x\n")
    finally:
        os.umask(old)
    for name in ("config.json", "tables/bounds.csv", "plain.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
    assert (tmp_path / "plain.txt").read_text() == "x\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "plain.txt", "tables"]


def _stdlib(obj) -> str:
    """The encoding every JSON artifact keeps, from the standard library."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# JSON trees: every scalar json writes (control, non-ASCII, astral and
# lone-surrogate characters, big ints, signed zeros, subnormals, nan and
# infinities), tuples beside lists, and dicts whose keys are all text,
# all numbers (bools among them) or the one key None.
_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1e-310, float("nan"), float("inf"), -float("inf")])
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**600, 2**600) | _FLOATS
    | st.text(st.characters(blacklist_categories=()))
    | st.text(st.sampled_from("\x00\x1f\x7f\"\\/\n\té€\U0001d49c\ud800"))
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner)
        | st.dictionaries(st.one_of(st.integers(), _FLOATS, st.booleans()), inner)
        | st.dictionaries(st.none(), inner)
    ),
    max_leaves=30,
)
_FILES = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


@given(_TREES)
def test_canonical_json_is_the_stdlib_encoding(obj):
    assert canonical_json(obj) == _stdlib(obj)


@_FILES
@given(st.dictionaries(st.text(), _TREES, max_size=4))
def test_written_json_is_the_stdlib_encoding(tmp_path, obj):
    write_json(tmp_path / "a.json", obj)
    expected = _stdlib({"schema_version": SCHEMA_VERSION, **obj})
    assert (tmp_path / "a.json").read_bytes() == expected.encode()


@_FILES
@given(st.lists(_TREES, max_size=5), st.dictionaries(st.text().map("d".__add__), _TREES, max_size=3))
def test_written_json_list_is_the_stdlib_encoding(tmp_path, items, fields):
    write_json_list(tmp_path / "s.json", "candidates", iter(items), lambda: fields)
    expected = _stdlib({"schema_version": SCHEMA_VERSION, "candidates": items, **fields})
    assert (tmp_path / "s.json").read_bytes() == expected.encode()


@pytest.mark.parametrize("obj", [
    Fraction(1, 3), [1, {"a": Fraction(1, 3)}], {Fraction(1, 3): 1}, {(1, 2): 1},
    {"a": 1, 2: 1}, {None: 1, 0: 1}, {1.5: 1, "b": 2}, {1, 2}, b"x",
], ids=["fraction", "nested-fraction", "fraction-key", "tuple-key", "str-and-int-keys",
        "none-and-int-keys", "float-and-str-keys", "set", "bytes"])
def test_encoder_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _stdlib(obj)
    with pytest.raises(TypeError):
        canonical_json(obj)


def test_streamed_list_leaves_no_garbage(tmp_path):
    # Each item's encoding builds no reference cycle, so a search of any
    # size leaves nothing for the cycle collector.
    item = {"claim": {"terms": [["1/2", "4/3"]]}, "trail": [{"step": "input", "degree": 3}],
            "flags": [True, None, 2.5], "passed": False}
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        write_json_list(tmp_path / "s.json", "candidates", iter([item] * 256),
                        lambda: {"passing_count": 0})
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_streamed_json_equals_canonical_json(tmp_path):
    obj = {
        "empty": [[], {}, [[]], {"a": {}}],
        "text": "Δ²u = λ/(1−u)², \u00e9\U0001d49c \"q\" \\",
        "floats": [0.1, 1e-310, 1e308, -0.0, 1.0],
        "big": 2**400 - 1,
        "flags": [True, False, None],
        "nested": {"z": [1, {"y": [2.5, "x"]}], "a": 0},
    }
    write_json(tmp_path / "a.json", obj)
    expected = canonical_json({"schema_version": SCHEMA_VERSION, **obj})
    assert expected == _stdlib({"schema_version": SCHEMA_VERSION, **obj})
    assert (tmp_path / "a.json").read_bytes() == expected.encode()
    assert json.loads((tmp_path / "a.json").read_text())["big"] == 2**400 - 1


@pytest.mark.parametrize("items", [
    [],
    [{}],
    [{"b": [1, {"c": []}], "a": "line\nbreak \u00e9", "d": None}, 2.5, "x", [[]], {"e": {}}],
], ids=["empty", "one-empty-dict", "mixed"])
def test_streamed_list_equals_canonical_json(tmp_path, items):
    # The list's items are written as an iterator yields them, the other
    # fields after it; the bytes are canonical_json's, "candidates": []
    # included for no items.
    fields = {"notes": ["n"], "passing_count": 0}
    write_json_list(tmp_path / "s.json", "candidates", iter(items), lambda: fields)
    expected = canonical_json({"schema_version": SCHEMA_VERSION, "candidates": items, **fields})
    assert expected == _stdlib({"schema_version": SCHEMA_VERSION, "candidates": items, **fields})
    assert (tmp_path / "s.json").read_bytes() == expected.encode()
    if not items:
        assert '  "candidates": [],\n' in expected


def test_streamed_list_key_must_sort_first(tmp_path):
    with pytest.raises(ValueError):
        write_json_list(tmp_path / "s.json", "rows", iter([1]), lambda: {"notes": []})
    assert not any(tmp_path.iterdir())


def test_failed_json_write_leaves_the_old_file(tmp_path):
    target = tmp_path / "search.json"
    target.write_text("old\n")
    # The encoder reaches the Fraction after a long list; the old file
    # stays and no temporary file is left.
    obj = {"a": list(range(100000)), "b": Fraction(1, 3)}
    with pytest.raises(TypeError):
        write_json(target, obj)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["search.json"]
