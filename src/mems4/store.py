"""On-disk result store: deterministic run directories, atomic writes.

Layout per run: <out>/<command>-<confighash>/ containing config.json plus
branch.jsonl, profiles/*.csv, certificates/*.json, tables/*.csv as the
command produces them.  Every JSON artifact carries a schema_version
field and every CSV starts with a header row; no timestamps are written,
so reruns with identical configuration are byte-identical.

Every artifact is one text that atomic_write_text writes through a
temporary file and a rename, except search.json, which write_json_list
streams into its temporary file one candidate at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable

from mems4.closed_forms import format_rational, rational_to_decimal

SCHEMA_VERSION = 1


def rational_json(x: Fraction) -> dict:
    """Bit-exact fraction string plus a 17-digit decimal for humans."""
    return {"fraction": format_rational(x), "decimal": rational_to_decimal(x)}


_INF = float("inf")


def _scalar_text(x) -> str | None:
    """json's text of None, a bool, an int or a float (NaN and the
    infinities as json writes them); None for any other value."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == _INF or x == -_INF:
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    return None


def _encode(obj, parts: list[str], newline: str) -> None:
    """Append the text of obj to parts as json.dumps(obj, sort_keys=True,
    indent=2) writes it on a line that starts with ``newline`` ("\n" and
    the line's indent).  Raises TypeError where json does: on a value or
    a key of another type, and on keys that do not sort."""
    if isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        head, sep = "[" + inner, "," + inner
        for value in obj:
            parts.append(head)
            head = sep
            _encode(value, parts, inner)
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        head, sep = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            text = key if isinstance(key, str) else _scalar_text(key)
            if text is None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
            parts.append(head + _quote(text) + ": ")
            head = sep
            _encode(value, parts, inner)
        parts.append(newline + "}")
    else:
        text = _scalar_text(obj)
        if text is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        parts.append(text)


def canonical_json(obj) -> str:
    """The one encoding of every JSON artifact and of the run key:
    json.dumps(obj, sort_keys=True, indent=2) plus a newline."""
    parts: list[str] = []
    _encode(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


@contextmanager
def _atomic_file(path: Path):
    """Open a temporary text file beside path; it replaces path by rename
    when the block ends, and is unlinked if the block raises.  The file
    gets the mode open() would give a new file, 0666 less the umask, not
    mkstemp's owner-only 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Write text to path through a temporary file and a rename."""
    with _atomic_file(path) as fh:
        fh.write(text)


def write_json(path: Path, obj: dict) -> None:
    """Write canonical_json of obj with schema_version as one text."""
    atomic_write_text(path, canonical_json({"schema_version": SCHEMA_VERSION, **obj}))


def write_json_list(path: Path, key: str, items: Iterable, fields: Callable[[], dict]) -> None:
    """Write canonical_json of {key: list(items), **fields()} (with
    schema_version, as write_json) without building the list: each item is
    encoded whole, at list depth, and written as the iterator yields it, then
    fields() is called, so it may report what the iteration counted.
    ``key`` must sort before every key of fields()."""
    with _atomic_file(path) as fh:
        fh.write("{\n  " + _quote(key) + ": [")
        count = 0
        for count, item in enumerate(items, 1):
            parts = [",\n    " if count > 1 else "\n    "]
            _encode(item, parts, "\n    ")
            fh.write("".join(parts))
        fh.write("\n  ]" if count else "]")
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update(fields())
        if min(payload) <= key:
            raise ValueError(f"field {min(payload)!r} does not sort after {key!r}")
        fh.write("," + canonical_json(payload)[1:])


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_jsonl(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def run_directory(out_root: Path, command: str, config_dict: dict) -> Path:
    """Deterministic per-run directory keyed by the canonical config."""
    digest = hashlib.sha256(canonical_json(config_dict).encode()).hexdigest()[:10]
    run = out_root / f"{command}-{digest}"
    run.mkdir(parents=True, exist_ok=True)
    return run


def default_out_root() -> Path:
    env = os.environ.get("MEMS4_OUT")
    return Path(env) if env else Path("mems4-out")
