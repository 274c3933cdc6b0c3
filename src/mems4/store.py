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
