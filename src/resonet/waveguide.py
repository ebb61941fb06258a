"""Rectangular-waveguide TE10 physics and bundled band presets.

Only the dominant mode matters here: cutoff at f_c = c / 2a (propagation
is impossible for free-space wavelengths above twice the broad wall
width) and the standard dispersion of the guided wavelength above cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._util import bundled_table, lookup
from .errors import BelowCutoffError, InvalidSpecError

C0 = 299_792_458.0  # speed of light in vacuum, m/s, exact


@dataclass(frozen=True)
class WaveguideSpec:
    """Rectangular waveguide geometry and recommended band, SI units."""

    name: str
    a: float  # broad wall width, m
    b: float  # narrow wall height, m
    band_start: float  # Hz
    band_stop: float  # Hz

    def __post_init__(self):
        if not self.a > self.b > 0:
            raise InvalidSpecError("need broad wall a > narrow wall b > 0")
        if not self.band_start > cutoff_frequency(self.a):
            raise InvalidSpecError("recommended band must start above the TE10 cutoff")
        if not self.band_stop > self.band_start:
            raise InvalidSpecError("band_stop must exceed band_start")

    @property
    def cutoff(self) -> float:
        return cutoff_frequency(self.a)


def cutoff_frequency(a: float) -> float:
    """TE10 cutoff frequency c / (2 a) for broad wall width a in meters."""
    if not 0 < a < math.inf:
        raise InvalidSpecError(f"broad wall width must be positive and finite, got {a}")
    return C0 / (2.0 * a)


def guided_wavelength(a: float, f_hz: float) -> float:
    """TE10 guided wavelength at frequency f, meters.

    lambda_g = (c / f) / sqrt(1 - (f_c / f)^2): always longer than the
    free-space wavelength, approaching it from above as f grows and
    diverging at cutoff.
    """
    if not math.isfinite(f_hz):
        raise InvalidSpecError(f"frequency must be finite, got {f_hz}")
    fc = cutoff_frequency(a)
    if not f_hz > fc:
        raise BelowCutoffError(
            f"{f_hz} Hz is at or below the {fc:.6g} Hz TE10 cutoff (evanescent)"
        )
    return (C0 / f_hz) / math.sqrt(1.0 - (fc / f_hz) ** 2)


@functools.cache
def _load_presets() -> dict[str, WaveguideSpec]:
    return {
        name: WaveguideSpec(
            name=name,
            a=rec["a_mm"] * 1e-3,
            b=rec["b_mm"] * 1e-3,
            band_start=rec["band_start_ghz"] * 1e9,
            band_stop=rec["band_stop_ghz"] * 1e9,
        )
        for name, rec in bundled_table("waveguide_bands.json")["presets"].items()
    }


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_load_presets()))


def band_preset(name: str) -> WaveguideSpec:
    """Bundled rectangular-waveguide band preset, case-insensitive lookup."""
    return lookup(_load_presets(), name)
