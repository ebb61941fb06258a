"""Where the benchmark hooks `resonet`, and the per-layer figures it reports.

Each hook sits at the module attribute the caller looks up: `optimizer.cost`
calls `s_parameters` through `resonet.optimizer`, the CLI calls everything
through the names `resonet.cli` imported. A hook whose attribute is gone, or
whose module is not loaded in this process, records no calls.
"""

from __future__ import annotations

import math
import os

import numpy as np

from spans import WrapSpec, self_times


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _sweep_size(args, kwargs, result):
    points = kwargs.get("points", args[4] if len(args) > 4 else None)
    return {"n": int(args[0].n), "points": int(points)}


WRAPS = (
    WrapSpec("resonet.optimizer", "optimize", "optimizer.optimize", lambda a, k, r: r.iterations),
    WrapSpec("resonet.cli", "optimize", "optimizer.optimize", lambda a, k, r: r.iterations),
    WrapSpec("resonet.optimizer", "cost", "optimizer.cost", lambda a, k, r: r),
    WrapSpec("resonet.optimizer", "s_parameters", "response.s_parameters"),
    WrapSpec("resonet.response", "system_matrix", "coupling.system_matrix"),
    WrapSpec("resonet.response", "sweep_two_port", "response.sweep_two_port", _sweep_size, memory=True),
    WrapSpec("resonet.cli", "sweep_two_port", "response.sweep_two_port", _sweep_size, memory=True),
    WrapSpec("resonet.cli", "write_touchstone", "touchstone.write_touchstone", _file_bytes),
    WrapSpec("resonet.cli", "write_csv", "touchstone.write_csv", _file_bytes),
    WrapSpec("resonet.cli", "read_response", "touchstone.read_response", _file_bytes),
    WrapSpec("resonet.cli", "synthesize_design", "designfile.synthesize_design"),
    WrapSpec("resonet.cli", "save_design", "designfile.save_design"),
    WrapSpec("resonet.cli", "load_design", "designfile.load_design"),
    WrapSpec("resonet.designfile", "extract_polynomials", "polynomials.extract_polynomials"),
    WrapSpec("resonet.cli", "extract_polynomials", "polynomials.extract_polynomials"),
    WrapSpec("resonet.cli", "analyze_response", "response.analyze_response"),
    WrapSpec("resonet.cli", "find_peaks", "extraction.find_peaks"),
    WrapSpec("resonet.cli", "extract_k", "extraction.extract_k"),
    WrapSpec("resonet.cli", "extract_qe", "extraction.extract_qe"),
)
SUBCOMMANDS = ("synthesize", "sweep", "analyze", "optimize", "extract")
LAYERS = ("optimizer", "response", "coupling", "touchstone", "designfile", "polynomials", "extraction", "cli")
SPAN_NAMES = tuple(dict.fromkeys([w.name for w in WRAPS] + ["cli.import", "cli.main"]))

# (name, unit, better); mean durations are per call and include callees.
PER_LAYER = (
    ("optimizer.optimize.ms", "ms", "lower"),
    ("optimizer.iterations_per_solution", "count", "lower"),
    ("optimizer.cost.calls_per_solution", "count", "lower"),
    ("optimizer.cost.us", "us", "lower"),
    ("optimizer.cost.improving_ratio", "ratio", "higher"),
    ("response.s_parameters.calls", "count", "lower"),
    ("response.s_parameters.us", "us", "lower"),
    ("coupling.system_matrix.calls", "count", "lower"),
    ("response.sweep.ns_per_point.n4", "ns", "lower"),
    ("response.sweep.ns_per_point.n8", "ns", "lower"),
    ("response.sweep.ns_per_point.n16", "ns", "lower"),
    ("response.sweep.peak_alloc_mb", "MB", "lower"),
    ("touchstone.write_touchstone.ms", "ms", "lower"),
    ("touchstone.write_csv.ms", "ms", "lower"),
    ("touchstone.read_response.ms", "ms", "lower"),
    ("touchstone.bytes_per_s", "B/s", "higher"),
    ("designfile.synthesize_design.us", "us", "lower"),
    ("designfile.save_design.us", "us", "lower"),
    ("designfile.load_design.us", "us", "lower"),
    ("polynomials.extract_polynomials.us", "us", "lower"),
    ("response.analyze_response.ms", "ms", "lower"),
    ("extraction.find_peaks.us", "us", "lower"),
    ("extraction.extract_k.us", "us", "lower"),
    ("extraction.extract_qe.us", "us", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    *((f"cli.{c}.ms", "ms", "lower") for c in SUBCOMMANDS),
    *((f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    *((f"{name}.errors", "count", "lower") for name in SPAN_NAMES),
)

_MEAN_DURATIONS = {
    "optimizer.optimize.ms": ("optimizer.optimize", 1e6),
    "optimizer.cost.us": ("optimizer.cost", 1e3),
    "response.s_parameters.us": ("response.s_parameters", 1e3),
    "touchstone.write_touchstone.ms": ("touchstone.write_touchstone", 1e6),
    "touchstone.write_csv.ms": ("touchstone.write_csv", 1e6),
    "touchstone.read_response.ms": ("touchstone.read_response", 1e6),
    "designfile.synthesize_design.us": ("designfile.synthesize_design", 1e3),
    "designfile.save_design.us": ("designfile.save_design", 1e3),
    "designfile.load_design.us": ("designfile.load_design", 1e3),
    "polynomials.extract_polynomials.us": ("polynomials.extract_polynomials", 1e3),
    "response.analyze_response.ms": ("response.analyze_response", 1e6),
    "extraction.find_peaks.us": ("extraction.find_peaks", 1e3),
    "extraction.extract_k.us": ("extraction.extract_k", 1e3),
    "extraction.extract_qe.us": ("extraction.extract_qe", 1e3),
    "cli.import_s": ("cli.import", 1e9),
}


def _ratio(a, b):
    return a / b if b else 0.0


def summarize(tracer) -> dict:
    """Per span name: calls, inclusive and self nanoseconds, errors."""
    cols = tracer.columns()
    selfs = self_times(cols["parent"], cols["start"], cols["end"])
    dur = cols["end"] - cols["start"]
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = cols["name_id"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "incl_ns": int(dur[mask].sum()),
            "self_ns": int(selfs[mask].sum()),
            "errors": int(cols["error"][mask].sum()),
        }
    return out


def per_layer_metrics(tracer, overhead_ratio: float) -> tuple[dict, dict]:
    """Every PER_LAYER figure from the traced spans; returns (values, summary)."""
    cols = tracer.columns()
    summary = summarize(tracer)
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "errors": 0}
    stat = lambda name: summary.get(name, empty)
    ids = {name: nid for nid, name in enumerate(tracer.names)}
    of = lambda name: cols["name_id"] == ids.get(name, -1)

    ops = stat("op")["calls"]
    op_ns = stat("op")["incl_ns"]
    solutions = stat("optimizer.optimize")["calls"]
    v = {}
    for metric, (name, scale) in _MEAN_DURATIONS.items():
        s = stat(name)
        v[metric] = _ratio(s["incl_ns"], s["calls"]) / scale
    v["optimizer.iterations_per_solution"] = _ratio(float(np.nansum(cols["value"][of("optimizer.optimize")])), solutions)
    v["optimizer.cost.calls_per_solution"] = _ratio(stat("optimizer.cost")["calls"], solutions)
    v["optimizer.cost.improving_ratio"] = _improving_ratio(cols, of("optimizer.cost"))
    v["response.s_parameters.calls"] = _ratio(stat("response.s_parameters")["calls"], ops)
    v["coupling.system_matrix.calls"] = _ratio(stat("coupling.system_matrix")["calls"], ops)

    points = {4: [0, 0], 8: [0, 0], 16: [0, 0]}
    peak = 0
    for sid, attrs in tracer.attrs.items():
        if tracer.names[cols["name_id"][sid]] == "response.sweep_two_port":
            peak = max(peak, attrs.get("peak_alloc", 0))
            if attrs.get("n") in points:
                acc = points[attrs["n"]]
                acc[0] += int(cols["end"][sid] - cols["start"][sid])
                acc[1] += attrs["points"]
    for n, (ns, count) in points.items():
        v[f"response.sweep.ns_per_point.n{n}"] = _ratio(ns, count)
    v["response.sweep.peak_alloc_mb"] = peak / 2**20

    io_names = ("touchstone.write_touchstone", "touchstone.write_csv", "touchstone.read_response")
    io_bytes = sum(float(np.nansum(cols["value"][of(n)])) for n in io_names)
    io_ns = sum(stat(n)["incl_ns"] for n in io_names)
    v["touchstone.bytes_per_s"] = _ratio(io_bytes, io_ns / 1e9)

    cli_inside = stat("cli.import")["incl_ns"] + stat("cli.main")["incl_ns"]
    cli_ops = stat("cli.main")["calls"]
    v["cli.startup_s"] = _ratio(op_ns - cli_inside, ops) / 1e9 if cli_ops else 0.0
    by_command = {c: [0, 0] for c in SUBCOMMANDS}
    for sid, attrs in tracer.attrs.items():
        if attrs.get("command") in by_command:
            acc = by_command[attrs["command"]]
            acc[0] += int(cols["end"][sid] - cols["start"][sid])
            acc[1] += 1
    for c, (ns, count) in by_command.items():
        v[f"cli.{c}.ms"] = _ratio(ns, count) / 1e6

    for layer in LAYERS:
        ns = sum(s["self_ns"] for name, s in summary.items() if name.split(".")[0] == layer)
        v[f"{layer}.self_ms_per_op"] = _ratio(ns, ops) / 1e6
    v["trace.coverage"] = 1.0 - _ratio(stat("op")["self_ns"], op_ns) if ops else 0.0
    v["trace.overhead_ratio"] = overhead_ratio
    for name in SPAN_NAMES:
        v[f"{name}.errors"] = stat(name)["errors"]
    return v, summary


def _improving_ratio(cols, mask) -> float:
    """Share of cost calls that lower the running minimum of their op; the
    first call of an op only sets it."""
    values = cols["value"][mask]
    ops = cols["op"][mask]
    improving = 0
    best, current = math.inf, None
    for op, value in zip(ops.tolist(), values.tolist()):
        if op != current:
            current, best = op, value
            continue
        if value < best:
            best = value
            improving += 1
    return _ratio(improving, values.size)
