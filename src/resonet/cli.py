"""Command-line interface.

Subcommands: synthesize, sweep, extract, optimize, waveguide, analyze.
Exit codes: 0 ok, 2 parse error, 3 invalid specification or arguments,
4 file I/O, 5 extraction/analysis failure, 6 numerical failure.

Importing this module loads no numpy: `--version`, `--help` and usage
errors run on argparse and the bundled JSON tables alone, and so does
`waveguide`, which needs only `math`. Each other subcommand imports the
modules it runs when it is called, and numpy with them.
"""

from __future__ import annotations

import argparse
import sys

from ._util import bundled_table
from ._version import __version__
from .errors import InvalidSpecError, ResonetError

EXIT_OK = 0
EXIT_IO = 4  # every other failure code is the exit_code of its ResonetError


def _synthesis_report(design) -> str:
    spec = design.spec
    t = design.targets
    lines = [
        f"Chebyshev bandpass synthesis, order {spec.order}",
        f"  f0        {spec.f0_hz / 1e9:.6g} GHz",
        f"  bandwidth {spec.bandwidth_hz / 1e6:.6g} MHz  (FBW {spec.fbw:.6g})",
        f"  ripple    {spec.ripple_db:.6g} dB",
        "",
        "g-values: " + ", ".join(f"{g:.6f}" for g in design.prototype.g),
        "",
    ]
    labels = ["Q_ea", "Q_eb"] + [f"K_c{i}" for i in range(1, spec.order)]
    values = [f"{t.qe_in:.3f}", f"{t.qe_out:.3f}"] + [f"{k:.3f}" for k in t.k]
    width = max(8, max(len(v) for v in values) + 2)
    lines.append("  " + "".join(f"{h:<{width}}" for h in labels))
    lines.append("  " + "".join(f"{v:<{width}}" for v in values))
    lines.append("")
    mvals = ", ".join(
        f"m{i}{i + 1}={design.matrix.m[i - 1, i]:.6f}" for i in range(1, spec.order)
    )
    lines.append(f"normalized couplings: {mvals}")
    lines.append(
        f"normalized external loading: qe1={design.matrix.qe1:.6f}, qen={design.matrix.qen:.6f}"
    )
    if design.polynomials is not None:
        cp = design.polynomials
        fmt = lambda roots: " ".join(f"({r.real:+.6f}, {r.imag:+.6f})" for r in roots)
        lines += [
            "",
            "characteristic polynomials (prototype domain, roots as (re, im)):",
            f"  poles E:             {fmt(cp.e_roots)}",
            f"  reflection zeros F:  {fmt(cp.f_roots)}",
            f"  transmission zeros P: {fmt(cp.p_roots) if cp.p_roots else 'none (all at infinity)'}",
            f"  ripple constant epsilon: {cp.epsilon:.6f}",
        ]
    return "\n".join(lines)


def _cmd_synthesize(args) -> int:
    from .designfile import bundled_filter_spec, load_filter_config, save_design, synthesize_design

    if args.preset:
        spec = bundled_filter_spec(args.preset)
    else:
        spec = load_filter_config(args.config)
    design = synthesize_design(spec)
    save_design(design, args.out)
    print(_synthesis_report(design))
    print(f"\ndesign written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .designfile import load_design
    from .response import sweep
    from .touchstone import write_csv, write_touchstone

    design = load_design(args.design)
    resp = sweep(design.matrix, design.spec, args.f_start * 1e9, args.f_stop * 1e9, args.points)
    write = write_touchstone if args.format == "touchstone" else write_csv
    write(args.out, resp)
    print(
        f"swept {args.points} points, {args.f_start:g}-{args.f_stop:g} GHz; "
        f"{args.format} data written to {args.out}"
    )
    return EXIT_OK


def _peak_amplitudes(resp, freqs):
    import numpy as np

    idx = np.clip(np.searchsorted(resp.grid, freqs), 0, len(resp) - 1)
    return np.abs(resp.s21[idx])


def _cmd_extract(args) -> int:
    import numpy as np

    from .extraction import PeakPair, extract_k, extract_qe, find_peaks
    from .touchstone import read_response

    resp = read_response(args.response)
    if args.mode == "k":
        freqs = find_peaks(resp, expected=2)
        if freqs.size > 2:
            best = np.argsort(_peak_amplitudes(resp, freqs))[-2:]
            freqs = np.sort(freqs[best])
        pair = PeakPair(f_p1=float(freqs[0]), f_p2=float(freqs[1]))
        k = extract_k(pair)
        print(f"resonance peaks: f_p1 = {pair.f_p1 / 1e9:.6f} GHz, f_p2 = {pair.f_p2 / 1e9:.6f} GHz")
        print(f"coupling coefficient k = {k:.6f}")
    else:
        freqs = find_peaks(resp, expected=1)
        f_peak = float(freqs[int(np.argmax(_peak_amplitudes(resp, freqs)))])
        qe = extract_qe(resp, f_peak)
        print(f"resonance peak: f0 = {f_peak / 1e9:.6f} GHz")
        print(f"external quality factor Qe = {qe:.3f}")
    return EXIT_OK


def _resolve_seed(config: dict):
    """The config's seed, an integer as load_optimizer_config read it, or None."""
    seed = config.get("seed")
    if seed is not None and seed < 0:
        raise InvalidSpecError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _refuse_doomed_start(design, problem) -> None:
    """Raise save_design's InvalidSpecError before the first iteration when
    the start's ripple constant is not finite and no free coupling is zero.
    A zero coupling can cut the path from port to port (S21 = 0, epsilon =
    inf), and the optimizer may close it if it is free; with none free,
    epsilon stays out of range (as for qe1 = qen = 1e-150) and the result
    could not be saved. A start whose polynomials cannot be extracted is
    left to the optimizer, as before."""
    import dataclasses

    from .designfile import design_json
    from .polynomials import extract_polynomials

    start = problem.initial
    if any(key[0] == "m" and key[1] < key[2] and start.m[key[1] - 1, key[2] - 1] == 0
           for key in problem.free_parameters):
        return
    try:
        polynomials = extract_polynomials(start)
    except ResonetError:
        return
    design_json(dataclasses.replace(design, matrix=start, polynomials=polynomials))


def _cmd_optimize(args) -> int:
    import dataclasses

    import numpy as np

    from .designfile import load_design, load_optimizer_config, save_design
    from .optimizer import CostConfig, OptimizationProblem, ladder_free_parameters, optimize, perturbed
    from .polynomials import extract_polynomials

    design = load_design(args.design)
    config = load_optimizer_config(args.config) if args.config else {}

    free = config.get("free_parameters")
    problem = OptimizationProblem(
        initial=design.matrix,
        spec=design.spec,
        free_parameters=ladder_free_parameters(design.matrix.n) if free is None else free,
        cost_config=CostConfig.from_spec(design.spec),
        allow_cross_couplings=config.get("allow_cross_couplings", False),
    )
    perturb = config.get("perturb")
    if perturb:
        problem = perturbed(problem, np.random.default_rng(_resolve_seed(config)), perturb)
        print(f"perturbed {len(problem.free_parameters)} free parameter(s) by up to "
              f"{perturb * 100:g}%")

    _refuse_doomed_start(design, problem)
    # Only the keys the config gives: optimize's signature holds the defaults.
    settings = {key: config[key] for key in ("max_iter", "tol", "step_floor", "method") if key in config}
    result = optimize(
        problem,
        **settings,
        on_iteration=lambda i, c, s: print(f"iter {i:5d}  cost {c:.6e}  max_step {s:.3e}"),
    )

    updated = dataclasses.replace(design, matrix=result.final, polynomials=extract_polynomials(result.final))
    out = args.out or args.design
    save_design(updated, out)
    print(f"converged={result.converged} iterations={result.iterations} "
          f"final_cost={result.final_cost:.6e}")
    mvals = ", ".join(
        f"m{i}{i + 1}={result.final.m[i - 1, i]:.6f}" for i in range(1, result.final.n)
    )
    print(f"optimized couplings: {mvals}")
    print(f"design written to {out}")
    return EXIT_OK


def _cmd_waveguide(args) -> int:
    from .waveguide import band_preset, cutoff_frequency, guided_wavelength

    if args.name:
        preset = band_preset(args.name)
        a = preset.a
        print(f"{preset.name}: broad wall a = {preset.a * 1e3:.4g} mm, "
              f"narrow wall b = {preset.b * 1e3:.4g} mm")
        print(f"TE10 cutoff: {preset.cutoff / 1e9:.4f} GHz")
        print(f"recommended band: {preset.band_start / 1e9:g}-{preset.band_stop / 1e9:g} GHz")
    elif args.a_mm is not None:
        a = args.a_mm * 1e-3
        print(f"broad wall a = {args.a_mm:g} mm")
        print(f"TE10 cutoff: {cutoff_frequency(a) / 1e9:.4f} GHz")
    else:
        raise InvalidSpecError("give a preset name or --a-mm")
    if args.at_ghz is not None:
        lam = guided_wavelength(a, args.at_ghz * 1e9)
        print(f"guided wavelength at {args.at_ghz:g} GHz: {lam * 1e3:.4f} mm")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .response import analyze_response
    from .touchstone import read_response

    resp = read_response(args.response)
    metrics = analyze_response(resp, args.level_db)
    print(f"passband at |S11| <= {args.level_db:g} dB:")
    print(f"  center frequency:  {metrics.f_center / 1e9:.6f} GHz")
    print(f"  bandwidth:         {metrics.bandwidth_at_level / 1e6:.3f} MHz")
    print(f"  max in-band |S11|: {metrics.max_inband_s11_db:.3f} dB")
    print(f"  reflection zeros:  {metrics.reflection_zero_count}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonet",
        description="Coupled-resonator bandpass filter synthesis and analysis.",
    )
    parser.add_argument("--version", action="version", version=f"resonet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="bandpass spec -> prototype, couplings, matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON config with order, f0_hz, ripple_db, bandwidth_hz|fbw")
    presets = ", ".join(sorted(bundled_table("reference_designs.json")["designs"]))
    group.add_argument("--preset", help=f"bundled design: {presets}")
    p.add_argument("--out", default="design.json", help="design file to write")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("sweep", help="evaluate S-parameters over a frequency grid")
    p.add_argument("--design", required=True)
    p.add_argument("--f-start", type=float, required=True, help="start frequency, GHz")
    p.add_argument("--f-stop", type=float, required=True, help="stop frequency, GHz")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--format", choices=("touchstone", "csv"), default="touchstone")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("extract", help="extract k or Qe from a response file")
    p.add_argument("--response", required=True, help="Touchstone (.s2p) or CSV file")
    p.add_argument("--mode", choices=("k", "qe"), required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("optimize", help="refine coupling-matrix entries against the spec")
    p.add_argument("--design", required=True)
    p.add_argument("--config", help="JSON optimizer config, every key optional: free_parameters (list of keys, "
                   "default the ladder couplings), allow_cross_couplings (default false), perturb (fraction, "
                   "absent or 0: none), seed (default fresh entropy), max_iter (2000), tol (1e-10), "
                   "step_floor (1e-9), method (gradient, sweep or nelder-mead; default gradient)")
    p.add_argument("--out", help="output design file (default: overwrite input)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("waveguide", help="TE10 cutoff, band, guided wavelength")
    p.add_argument("name", nargs="?", help="preset name, e.g. WG16 or WR3")
    p.add_argument("--a-mm", type=float, help="broad wall width in mm")
    p.add_argument("--at-ghz", type=float, help="query frequency for guided wavelength")
    p.set_defaults(func=_cmd_waveguide)

    p = sub.add_parser("analyze", help="passband metrics of a response file")
    p.add_argument("--response", required=True)
    p.add_argument("--level-db", type=float, default=-20.0)
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResonetError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
