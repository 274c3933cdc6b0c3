"""Tests for the on-disk result store."""

import json
import os
import stat
import tracemalloc
from fractions import Fraction

import pytest

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
    assert (tmp_path / "s.json").read_bytes() == expected.encode()
    if not items:
        assert '  "candidates": [],\n' in expected


def test_streamed_list_key_must_sort_first(tmp_path):
    with pytest.raises(ValueError):
        write_json_list(tmp_path / "s.json", "rows", iter([1]), lambda: {"notes": []})
    assert not any(tmp_path.iterdir())


def test_json_write_memory_does_not_grow_with_the_document(tmp_path):
    rows = [{"index": i, "fraction": f"{i}/{i + 7}", "decimal": i / 7, "ok": i % 2 == 0}
            for i in range(10000)]
    encoded = len(canonical_json({"schema_version": SCHEMA_VERSION, "rows": rows}))
    assert encoded >= 1_000_000
    tracemalloc.start()
    try:
        write_json(tmp_path / "big.json", {"rows": rows})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.json").stat().st_size == encoded
    assert peak < encoded / 4


def test_failed_json_write_leaves_the_old_file(tmp_path):
    target = tmp_path / "search.json"
    target.write_text("old\n")
    # The list encodes to far more than the file buffer, so chunks are on
    # disk before the encoder reaches the Fraction.
    obj = {"a": list(range(100000)), "b": Fraction(1, 3)}
    with pytest.raises(TypeError):
        write_json(target, obj)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["search.json"]
