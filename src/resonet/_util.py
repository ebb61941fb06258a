"""Small shared helpers."""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import tempfile
from contextlib import contextmanager
from importlib import resources

from .errors import ParseError, UnknownPresetError


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    A failed write never leaves a partial file at the destination.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def open_utf8(path):
    """path opened as UTF-8 text; bytes that do not decode, wherever they
    are read, raise ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from err


def is_whole(value, least: int) -> bool:
    """True for a finite real number >= least with no fractional part, not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value) and least <= value == int(value)


@functools.cache
def bundled_table(filename: str) -> dict:
    """A JSON file shipped in the package's data directory, read once per
    process. The package is found by its own name, so a copy imported
    under another name reads its own data."""
    return json.loads((resources.files(__package__) / "data" / filename).read_text())


def lookup(table: dict, name: str):
    """The entry of table whose key is name, ignoring case."""
    for key, value in table.items():
        if key.lower() == name.lower():
            return value
    raise UnknownPresetError(name, sorted(table))
