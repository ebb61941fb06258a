"""resonet: synthesis and analysis of coupled-resonator bandpass filters.

From a bandpass specification the toolkit produces Chebyshev low-pass
prototypes, external-Q/coupling targets, normalized coupling matrices,
S-parameter sweeps and characteristic polynomials; it refines matrices
against the specification by least squares on the analytic Jacobian,
and it solves the inverse problems of extracting coupling coefficients
and external quality factors from sampled responses. Rectangular-waveguide TE10 helpers and
Touchstone/CSV/design-file I/O round out the CLI.
"""

from ._version import __version__
from .coupling import CouplingMatrix, from_couplings, pole_matrix, system_matrix
from .designfile import (
    DesignFile,
    bundled_design,
    bundled_design_names,
    bundled_filter_spec,
    load_design,
    load_filter_config,
    load_optimizer_config,
    save_design,
    synthesize_design,
)
from .errors import (
    BelowCutoffError,
    InsufficientPeaksError,
    InsufficientSpanError,
    InvalidSpecError,
    NoPassbandError,
    NumericalError,
    ParseError,
    ResonetError,
    SingularFrequencyError,
    UnknownPresetError,
)
from .extraction import PeakPair, extract_k, extract_qe, find_peaks
from .optimizer import (
    CostConfig,
    OptimizationProblem,
    OptimizationResult,
    cost,
    ladder_free_parameters,
    optimize,
    perturbed,
)
from .polynomials import (
    CharacteristicPolynomials,
    extract_polynomials,
    response_from_polynomials,
)
from .prototype import (
    CouplingTargets,
    FilterSpec,
    LowpassPrototype,
    chebyshev_g_values,
    spec_to_couplings,
)
from .response import (
    FrequencyResponse,
    ResponseMetrics,
    analyze_response,
    band_edge_frequencies,
    normalized_frequency,
    s_matrix,
    s_parameters,
    sweep,
)
from .touchstone import read_csv, read_response, read_touchstone, write_csv, write_touchstone
from .waveguide import (
    WaveguideSpec,
    band_preset,
    cutoff_frequency,
    guided_wavelength,
    preset_names,
)

__all__ = [
    "__version__",
    "BelowCutoffError",
    "CharacteristicPolynomials",
    "CostConfig",
    "CouplingMatrix",
    "CouplingTargets",
    "DesignFile",
    "FilterSpec",
    "FrequencyResponse",
    "InsufficientPeaksError",
    "InsufficientSpanError",
    "InvalidSpecError",
    "LowpassPrototype",
    "NoPassbandError",
    "NumericalError",
    "OptimizationProblem",
    "OptimizationResult",
    "ParseError",
    "PeakPair",
    "ResonetError",
    "ResponseMetrics",
    "SingularFrequencyError",
    "UnknownPresetError",
    "WaveguideSpec",
    "analyze_response",
    "band_edge_frequencies",
    "band_preset",
    "bundled_design",
    "bundled_design_names",
    "bundled_filter_spec",
    "chebyshev_g_values",
    "cost",
    "cutoff_frequency",
    "extract_k",
    "extract_polynomials",
    "extract_qe",
    "find_peaks",
    "from_couplings",
    "guided_wavelength",
    "ladder_free_parameters",
    "load_design",
    "load_filter_config",
    "load_optimizer_config",
    "normalized_frequency",
    "optimize",
    "perturbed",
    "pole_matrix",
    "preset_names",
    "read_csv",
    "read_response",
    "read_touchstone",
    "response_from_polynomials",
    "s_matrix",
    "s_parameters",
    "save_design",
    "spec_to_couplings",
    "sweep",
    "synthesize_design",
    "system_matrix",
    "write_csv",
    "write_touchstone",
]
