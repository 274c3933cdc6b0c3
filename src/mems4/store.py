"""On-disk result store: deterministic run directories, atomic writes.

Layout per run: <out>/<command>-<confighash>/ containing config.json plus
branch.jsonl, profiles/*.csv, certificates/*.json, tables/*.csv as the
command produces them.  Every JSON artifact carries a schema_version
field and every CSV starts with a header row; no timestamps are written,
so reruns with identical configuration are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

from mems4.closed_forms import format_rational, rational_to_decimal

SCHEMA_VERSION = 1


def rational_json(x: Fraction) -> dict:
    """Bit-exact fraction string plus a 17-digit decimal for humans."""
    return {"fraction": format_rational(x), "decimal": rational_to_decimal(x)}


# The one encoding of every JSON artifact and of the run key.
_JSON_OPTIONS = {"sort_keys": True, "indent": 2}


def canonical_json(obj) -> str:
    return json.dumps(obj, **_JSON_OPTIONS) + "\n"


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
    """Write canonical_json of the payload, encoded chunk by chunk into the
    file: memory stays flat however large the document is."""
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(obj)
    with _atomic_file(path) as fh:
        json.dump(payload, fh, **_JSON_OPTIONS)
        fh.write("\n")


def write_json_list(path: Path, key: str, items: Iterable, fields: Callable[[], dict]) -> None:
    """Write canonical_json of {key: list(items), **fields()} (with
    schema_version, as write_json) without building the list: each item is
    encoded into the file as the iterator yields it, then fields() is
    called, so it may report what the iteration counted.  ``key`` must
    sort before every key of fields().  canonical_json writes no raw
    newline inside a string, so an item's text at list depth is its own
    canonical text with 4 more spaces after each newline."""
    encoder = json.JSONEncoder(**_JSON_OPTIONS)
    with _atomic_file(path) as fh:
        fh.write("{\n  " + json.dumps(key) + ": [")
        count = 0
        for count, item in enumerate(items, 1):
            fh.write(",\n    " if count > 1 else "\n    ")
            for chunk in encoder.iterencode(item):
                fh.write(chunk.replace("\n", "\n    "))
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
