"""Design-file persistence, config parsing, and bundled reference designs.

Design files are JSON with keys mirroring the model field names. Floats
round-trip exactly because they are serialized at shortest-exact
precision, so parse(serialize(d)) reproduces every numeric field.

Two config formats are read here, both JSON objects: the synthesis config
(load_filter_config: order, f0_hz, ripple_db, bandwidth_hz or fbw) and the
optimizer config (load_optimizer_config). Design files and both configs
are read as strict JSON: the constants NaN and Infinity are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from ._util import atomic_write_text, bundled_table, lookup, open_utf8
from ._version import __version__
from .coupling import CouplingMatrix, from_couplings
from .errors import InvalidSpecError, ParseError
from .polynomials import CharacteristicPolynomials, extract_polynomials
from .prototype import (
    CouplingTargets,
    FilterSpec,
    LowpassPrototype,
    chebyshev_g_values,
    spec_to_couplings,
)


@dataclass
class DesignFile:
    """Everything the forward synthesis chain produces for one filter."""

    spec: FilterSpec
    prototype: LowpassPrototype
    targets: CouplingTargets
    matrix: CouplingMatrix
    polynomials: CharacteristicPolynomials | None = None
    provenance: dict = field(default_factory=dict)


def _provenance() -> dict:
    return {
        "tool": f"resonet {__version__}",
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def synthesize_design(spec: FilterSpec) -> DesignFile:
    """Run the full forward chain: prototype, targets, matrix, polynomials."""
    targets = spec_to_couplings(spec)
    matrix = from_couplings(targets, spec.fbw)
    return DesignFile(
        spec=spec,
        prototype=chebyshev_g_values(spec.order, spec.ripple_db),
        targets=targets,
        matrix=matrix,
        polynomials=extract_polynomials(matrix),
        provenance=_provenance(),
    )


def _roots_to_pairs(roots) -> list[list[float]]:
    return [[r.real, r.imag] for r in roots]


def _pairs_to_roots(pairs) -> tuple[complex, ...]:
    return tuple(complex(re, im) for re, im in pairs)


def design_to_dict(design: DesignFile) -> dict:
    out = {
        "spec": {
            "order": design.spec.order,
            "f0_hz": design.spec.f0_hz,
            "bandwidth_hz": design.spec.bandwidth_hz,
            "ripple_db": design.spec.ripple_db,
        },
        "prototype": {"g": list(design.prototype.g)},
        "targets": {
            "qe_in": design.targets.qe_in,
            "qe_out": design.targets.qe_out,
            "k": list(design.targets.k),
        },
        "matrix": {
            "n": design.matrix.n,
            "m": design.matrix.m.tolist(),
            "qe1": design.matrix.qe1,
            "qen": design.matrix.qen,
        },
        "provenance": dict(design.provenance),
    }
    if design.polynomials is not None:
        out["polynomials"] = {
            "e_roots": _roots_to_pairs(design.polynomials.e_roots),
            "f_roots": _roots_to_pairs(design.polynomials.f_roots),
            "p_roots": _roots_to_pairs(design.polynomials.p_roots),
            "epsilon": design.polynomials.epsilon,
        }
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_rows(value, width=None) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and len(row) == (width or len(value[0])) and all(map(_is_number, row))
        for row in value
    )


# What a checked read can demand of a JSON value: a test and its name.
_NUMBER = (_is_number, "a number")
_INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
_STRING = (lambda v: isinstance(v, str), "a string")
_LISTS = (lambda v: isinstance(v, list) and all(isinstance(k, list) for k in v), "a list of lists")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_NUMBERS = (lambda v: _is_rows([v]), "a list of numbers")
_ROWS = (_is_rows, "a list of equal-length rows of numbers")
_PAIRS = (lambda v: _is_rows(v, width=2), "a list of [re, im] pairs")


def _require(record: dict, key: str, where: str, kind=None):
    if key not in record:
        raise ParseError(f"{where}: missing key {key!r}")
    value = record[key]
    if kind is not None and not kind[0](value):
        raise ParseError(f"{where}: {key!r} must be {kind[1]}, got {value!r}")
    return value


def design_from_dict(data: dict) -> DesignFile:
    spec = filter_spec_from_config(_require(data, "spec", "design file", _OBJECT), where="design spec")
    prototype_rec = _require(data, "prototype", "design file", _OBJECT)
    prototype = LowpassPrototype(g=tuple(_require(prototype_rec, "g", "prototype", _NUMBERS)))
    targets_rec = _require(data, "targets", "design file", _OBJECT)
    targets = CouplingTargets(
        qe_in=_require(targets_rec, "qe_in", "targets", _NUMBER),
        qe_out=_require(targets_rec, "qe_out", "targets", _NUMBER),
        k=tuple(_require(targets_rec, "k", "targets", _NUMBERS)),
    )
    matrix_rec = _require(data, "matrix", "design file", _OBJECT)
    n = _require(matrix_rec, "n", "matrix", _INTEGER)
    matrix = CouplingMatrix(
        m=_require(matrix_rec, "m", "matrix", _ROWS),
        qe1=_require(matrix_rec, "qe1", "matrix", _NUMBER),
        qen=_require(matrix_rec, "qen", "matrix", _NUMBER),
    )
    if not spec.order == n == matrix.n == len(prototype.g) - 2 == len(targets.k) + 1:
        raise InvalidSpecError(
            f"design sections disagree: spec order {spec.order}, matrix n {n}, {matrix.n}x{matrix.n} matrix, "
            f"{len(prototype.g)} g-values, {len(targets.k)} couplings"
        )
    polynomials = None
    if "polynomials" in data:
        rec = _require(data, "polynomials", "design file", _OBJECT)
        polynomials = CharacteristicPolynomials(
            e_roots=_pairs_to_roots(_require(rec, "e_roots", "polynomials", _PAIRS)),
            f_roots=_pairs_to_roots(_require(rec, "f_roots", "polynomials", _PAIRS)),
            p_roots=_pairs_to_roots(_require(rec, "p_roots", "polynomials", _PAIRS)),
            epsilon=_require(rec, "epsilon", "polynomials", _NUMBER),
        )
    provenance = _require(data, "provenance", "design file", _OBJECT) if "provenance" in data else {}
    return DesignFile(
        spec=spec,
        prototype=prototype,
        targets=targets,
        matrix=matrix,
        polynomials=polynomials,
        provenance=dict(provenance),
    )


def _non_finite_key(value, key: str) -> str | None:
    """The dotted key of the first non-finite float in a JSON-ready value."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for inner_key, inner in items:
        found = _non_finite_key(inner, f"{key}.{inner_key}")
        if found:
            return found
    return None


def design_json(design: DesignFile) -> str:
    """The design as strict JSON text; InvalidSpecError naming the first
    value that is not finite (a ladder with a zero coupling has epsilon =
    inf), which a JSON design file cannot hold."""
    record = design_to_dict(design)
    try:
        return json.dumps(record, indent=2, allow_nan=False)
    except ValueError as err:
        key = _non_finite_key(record, "design")
        raise InvalidSpecError(f"{key} is not finite; a JSON design file holds finite numbers only") from err


def save_design(design: DesignFile, path) -> None:
    """Write design_json(design); nothing is written if it raises."""
    atomic_write_text(str(path), design_json(design) + "\n")


def _read_json(path) -> dict:
    def finite(literal):
        value = float(literal)  # NaN, Infinity, or inf past the float range, as for 1e400
        if not math.isfinite(value):
            shown = literal if len(literal) <= 20 else f"{literal[:20]}... ({len(literal)} characters)"
            raise InvalidSpecError(f"{path}: {shown} is not a finite number; JSON inputs hold finite numbers only")
        return value

    def whole(literal):
        finite(literal)
        return int(literal)

    with open_utf8(path) as handle:
        text = handle.read()
    try:
        data = json.loads(text, parse_constant=finite, parse_float=finite, parse_int=whole)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


def load_design(path) -> DesignFile:
    return design_from_dict(_read_json(path))


def load_filter_config(path) -> FilterSpec:
    """Parse a synthesis config: order, f0_hz, ripple_db, and either
    bandwidth_hz or fbw."""
    data = _read_json(path)
    return filter_spec_from_config(data, where=str(path))


# The optimizer config's keys and the kind each must have.
_OPTIMIZER_KEYS = {
    "free_parameters": _LISTS,
    "allow_cross_couplings": _BOOLEAN,
    "perturb": _NUMBER,
    "seed": _INTEGER,
    "max_iter": _NUMBER,
    "tol": _NUMBER,
    "step_floor": _NUMBER,
    "method": _STRING,
}


def load_optimizer_config(path) -> dict:
    """Parse an optimizer config into the keys it gives, each checked
    against its kind (ParseError otherwise). A key the file leaves out
    stays absent, so the default below applies. A key not listed here is
    refused with ParseError naming it, so a misspelt setting cannot run
    with its default.

    - free_parameters: list of keys such as ["m", 1, 2], ["qe1"], ["qen"];
      default every superdiagonal coupling (ladder_free_parameters).
    - allow_cross_couplings: true or false; default false.
    - perturb: number; the start's free parameters are scaled by
      1 + U(-perturb, perturb) before refinement (optimizer.perturbed).
      Absent or 0 means no perturbation.
    - seed: integer, the perturbation seed; absent means fresh entropy.
    - max_iter: number; default 2000.
    - tol: number; default 1e-10.
    - step_floor: number; default 1e-9.
    - method: string, "gradient", "sweep" or "nelder-mead"; default
      "gradient".

    The values' ranges are checked where they are used.
    """
    data = _read_json(path)
    unknown = sorted(set(data) - set(_OPTIMIZER_KEYS))
    if unknown:
        raise ParseError(f"{path}: unknown optimizer config key {unknown[0]!r}")
    return {
        key: _require(data, key, "optimizer config", kind)
        for key, kind in _OPTIMIZER_KEYS.items()
        if key in data
    }


def filter_spec_from_config(data: dict, where: str = "config") -> FilterSpec:
    order = _require(data, "order", where, _NUMBER)
    f0_hz = _require(data, "f0_hz", where, _NUMBER)
    ripple_db = _require(data, "ripple_db", where, _NUMBER)
    if "bandwidth_hz" in data:
        bandwidth_hz = _require(data, "bandwidth_hz", where, _NUMBER)
    elif "fbw" in data:
        bandwidth_hz = _require(data, "fbw", where, _NUMBER) * f0_hz
    else:
        raise ParseError(f"{where}: missing key 'bandwidth_hz' (or 'fbw')")
    return FilterSpec(order=order, f0_hz=f0_hz, bandwidth_hz=bandwidth_hz, ripple_db=ripple_db)


def bundled_design_names() -> tuple[str, ...]:
    return tuple(sorted(bundled_table("reference_designs.json")["designs"]))


def bundled_design(name: str) -> dict:
    """Full bundled record: filter config, waveguide band, and the
    reference physical dimensions (EM-derived data, not computed here)."""
    return lookup(bundled_table("reference_designs.json")["designs"], name)


def bundled_filter_spec(name: str) -> FilterSpec:
    record = bundled_design(name)
    return filter_spec_from_config(record["spec"], where=f"bundled design {name!r}")
