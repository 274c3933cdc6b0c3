"""Tests for the on-disk result store."""

import os
import stat

import pytest

from mems4.store import atomic_write_text, write_csv, write_json


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
