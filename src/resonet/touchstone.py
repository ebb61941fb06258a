"""Touchstone v1 and CSV serialization of two-port responses.

One row per point, ascending in frequency: `# GHz S RI R 50` Touchstone
rows carry S11, S21, S12, S22 (9 columns), CSV rows S11, S21 only (5), so
a CSV response has s12 and s22 None. Both writers take a
FrequencyResponse; the Touchstone writer refuses one without s12 and s22.
The Touchstone reader takes any frequency unit from the first option
line, which must precede the data (v1.1 voids later ones), but only RI
S-parameter data.

Both directions work on whole arrays: the writer formats every row with
one `%.17g` template (17 significant digits, so each float reads back
exactly), and the readers convert all of a file's rows in one call of
numpy's text reader, reading row by row only to name the line of a bad
row or to read a token only float() reads.
"""

from __future__ import annotations

import numpy as np

from ._util import atomic_write_text, open_utf8
from .errors import InvalidSpecError, ParseError
from .response import FrequencyResponse

CSV_HEADER = "freq_hz,s11_re,s11_im,s21_re,s21_im"

_UNIT_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _write_rows(path, header: str, sep: str, unit: float, grid, *entries) -> None:
    """The header, then per point the frequency in `unit` Hz and (re, im) of
    each entry, each at 17 significant digits."""
    columns = [grid / unit]
    for entry in entries:
        columns += [entry.real, entry.imag]
    row = sep.join(["%.17g"] * len(columns))
    lines = [header, *(row % tuple(values) for values in np.column_stack(columns).tolist())]
    atomic_write_text(str(path), "\n".join(lines) + "\n")


def _parse_rows(path, rows, width: int, unit: float, sep: str | None = None) -> FrequencyResponse:
    """The response in rows of frequency in `unit` Hz, then (re, im) of S11,
    S21 and, in 9 columns, S12, S22; rows[i] is line i + 1 and blank rows
    are skipped. ParseError for a bad row (by line number), no rows or a
    non-increasing grid.

    One call of numpy's text reader converts every row, with comments off,
    so a # is a bad token. It reads a strict subset of what float() reads
    (not 1_0 or non-ASCII digits), rounded the same way; when it fails or
    gets the wrong width, the rows are read one by one."""
    if not any(rows):
        raise ParseError(f"{path}: no data rows")
    try:
        data = np.loadtxt(rows, delimiter=sep, comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != width:
        data = _parse_row_by_row(rows, width, sep)
    freq = data[:, 0] * unit
    if freq.size > 1 and not np.all(np.diff(freq) > 0):
        raise ParseError(f"{path}: frequencies must be strictly increasing")
    s = data[:, 1::2] + 1j * data[:, 2::2]
    return FrequencyResponse(grid=freq, **dict(zip(("s11", "s21", "s12", "s22"), s.T)))


def _parse_row_by_row(rows, width: int, sep: str | None) -> np.ndarray:
    """The non-blank rows as a float array, one float() per token, or
    ParseError naming the first row that is not `width` numbers."""
    values = []
    for lineno, text in enumerate(rows, 1):
        if not text:
            continue
        tokens = text.split(sep)
        try:
            values.append([float(tok) for tok in tokens])
        except ValueError as err:
            raise ParseError(f"line {lineno}: {err}") from err
        if len(tokens) != width:
            raise ParseError(f"line {lineno}: expected {width} columns, got {len(tokens)}")
    return np.array(values)


def write_touchstone(path, resp: FrequencyResponse) -> None:
    """Write a 2-port Touchstone v1 file (RI data, GHz, 50 ohm reference).

    Rows carry S11, S21, S12, S22, so resp must have s12 and s22; a
    response without them (one read from CSV) raises InvalidSpecError
    before anything is written. The reference impedance is labeling only:
    the normalized model is impedance-agnostic.
    """
    if resp.s12 is None or resp.s22 is None:
        raise InvalidSpecError("Touchstone rows need s12 and s22, which this response does not have")
    _write_rows(path, "# GHz S RI R 50", " ", 1e9, resp.grid, resp.s11, resp.s21, resp.s12, resp.s22)


def read_touchstone(path) -> FrequencyResponse:
    """Parse a 2-port Touchstone v1 file into a FrequencyResponse.

    Column order follows the v1 two-port convention: S11, S21, S12, S22;
    the response keeps all four. Raises ParseError with a line number for
    anything unreadable.
    """
    with open_utf8(path) as handle:
        rows = [raw.split("!", 1)[0].strip() for raw in handle]
    unit = _UNIT_SCALE["ghz"]
    options = [i for i, row in enumerate(rows) if row.startswith("#")]
    if options:
        if any(rows[: options[0]]):
            raise ParseError(f"line {options[0] + 1}: the option line must precede the data")
        unit = _parse_option_line(rows[options[0]], options[0] + 1)
        for i in options:
            rows[i] = ""
    return _parse_rows(path, rows, 9, unit)


def _parse_option_line(line: str, lineno: int) -> float:
    scale = _UNIT_SCALE["ghz"]
    tokens = iter(line[1:].lower().split())
    for tok in tokens:
        if tok in _UNIT_SCALE:
            scale = _UNIT_SCALE[tok]
        elif tok == "r":
            next(tokens, None)  # the reference impedance
        elif tok in ("ma", "db"):
            raise ParseError(f"line {lineno}: only RI-format data is supported, got {tok.upper()}")
        elif tok in ("y", "z", "g", "h"):
            raise ParseError(f"line {lineno}: only S-parameter data is supported, got {tok.upper()}")
        elif tok not in ("s", "ri"):
            raise ParseError(f"line {lineno}: unrecognized option {tok!r}")
    return scale


def write_csv(path, resp: FrequencyResponse) -> None:
    """Write `freq_hz,s11_re,s11_im,s21_re,s21_im` rows."""
    _write_rows(path, CSV_HEADER, ",", 1.0, resp.grid, resp.s11, resp.s21)


def read_csv(path) -> FrequencyResponse:
    """Parse a CSV file of write_csv's layout; s12 and s22 are None."""
    with open_utf8(path) as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise ParseError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
        rows = ["", *(raw.strip() for raw in handle)]
    return _parse_rows(path, rows, 5, 1.0, ",")


def read_response(path) -> FrequencyResponse:
    """Dispatch on extension: .csv reads as CSV, anything else as Touchstone."""
    if str(path).lower().endswith(".csv"):
        return read_csv(path)
    return read_touchstone(path)
