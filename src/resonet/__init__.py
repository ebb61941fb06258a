"""resonet: synthesis and analysis of coupled-resonator bandpass filters.

From a bandpass specification the toolkit produces Chebyshev low-pass
prototypes, external-Q/coupling targets, normalized coupling matrices,
S-parameter sweeps and characteristic polynomials; it refines matrices
against the specification by least squares on the analytic Jacobian,
and it solves the inverse problems of extracting coupling coefficients
and external quality factors from sampled responses. Rectangular-waveguide TE10 helpers and
Touchstone/CSV/design-file I/O round out the CLI.

Importing the package loads only `__version__`. Each other public name,
and each submodule read as an attribute (`resonet.response`), imports its
submodule on first use (PEP 562), so `import resonet` costs no numpy until
a numerical name is read.
"""

import importlib

from ._version import __version__

_SUBMODULES = {
    "coupling": ("CouplingMatrix", "from_couplings", "pole_matrix", "system_matrix"),
    "designfile": (
        "DesignFile", "bundled_design", "bundled_design_names", "bundled_filter_spec", "load_design",
        "load_filter_config", "load_optimizer_config", "save_design", "synthesize_design",
    ),
    "errors": (
        "BelowCutoffError", "InsufficientPeaksError", "InsufficientSpanError", "InvalidSpecError",
        "NoPassbandError", "NumericalError", "ParseError", "ResonetError", "SingularFrequencyError",
        "UnknownPresetError",
    ),
    "extraction": ("PeakPair", "extract_k", "extract_qe", "find_peaks"),
    "optimizer": (
        "CostConfig", "OptimizationProblem", "OptimizationResult", "cost", "ladder_free_parameters",
        "optimize", "perturbed",
    ),
    "polynomials": ("CharacteristicPolynomials", "extract_polynomials", "response_from_polynomials"),
    "prototype": ("CouplingTargets", "FilterSpec", "LowpassPrototype", "chebyshev_g_values", "spec_to_couplings"),
    "response": (
        "FrequencyResponse", "ResponseMetrics", "analyze_response", "band_edge_frequencies",
        "normalized_frequency", "s_matrix", "s_parameters", "sweep",
    ),
    "touchstone": ("read_csv", "read_response", "read_touchstone", "write_csv", "write_touchstone"),
    "waveguide": ("WaveguideSpec", "band_preset", "cutoff_frequency", "guided_wavelength", "preset_names"),
}
_MODULE_OF = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
