"""Inverse design helpers: coupling and external-Q extraction from responses.

These invert the standard bench procedure: a weakly loaded resonator pair
shows two resonance peaks whose splitting encodes the inter-resonator
coupling, and a singly loaded resonator's 3 dB width encodes its external
quality factor. Any FrequencyResponse works, including ones parsed from
measured two-port files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientPeaksError,
    InsufficientSpanError,
    InvalidSpecError,
)
from .response import FrequencyResponse, _interp_crossing

# Relative prominence below which a bump is ripple, not a resonance.
PEAK_PROMINENCE = 0.01


@dataclass(frozen=True)
class PeakPair:
    """Two resonance peak frequencies; the constructor orders them."""

    f_p1: float
    f_p2: float

    def __post_init__(self):
        if not (0 < self.f_p1 < math.inf and 0 < self.f_p2 < math.inf):
            raise InvalidSpecError(f"peak frequencies must be positive and finite, got {self.f_p1} and {self.f_p2}")
        if self.f_p1 > self.f_p2:
            lo, hi = self.f_p2, self.f_p1
            object.__setattr__(self, "f_p1", lo)
            object.__setattr__(self, "f_p2", hi)


def extract_k(peaks: PeakPair) -> float:
    """Coupling coefficient from resonance splitting.

    k = (f_p2^2 - f_p1^2) / (f_p2^2 + f_p1^2), positive branch (the
    Hong-Lancaster formula used on measured and EM data). The sign
    distinguishing electric from magnetic coupling is not recoverable from
    magnitude data. Scale-invariant and zero for coincident peaks.

    This is not the exact inverse of the coupling-matrix model: a pair
    with m12 = k / FBW has its peaks where (f_p2 - f_p1) / sqrt(f_p1 f_p2)
    = k, so on model sweeps this returns tanh(2 asinh(k / 2)) = k - 3k^3/8
    + ..., about 4e-4 low at k = 0.1.
    """
    a = peaks.f_p1 * peaks.f_p1
    b = peaks.f_p2 * peaks.f_p2
    return (b - a) / (b + a)


def _parabolic_vertex(x, y, i):
    """Vertex of the parabola through three samples around index i."""
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return x[i], y[i]
    d = 0.5 * (y[i - 1] - y[i + 1]) / denom
    step = 0.5 * (x[i + 1] - x[i - 1])
    return x[i] + d * step, y[i] - 0.25 * (y[i - 1] - y[i + 1]) * d


def _prominent_maxima(y: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of y whose prominence is at least
    `prominence`, ascending: the indices that SciPy's signal.find_peaks(y,
    prominence=prominence) returns.

    A local maximum is a run of equal samples whose nearest different
    neighbours on both sides are strictly lower; it reports its middle
    index, rounded down. A run that touches either end never counts. Its
    prominence is its height minus the higher of two bases, each the
    minimum between it and the nearest strictly higher sample on that side
    (or the end of y if there is none).
    """
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    v = y[starts]  # one value per run of equal samples
    keep = []
    for j in np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1:
        higher = np.flatnonzero(v > v[j])
        k = np.searchsorted(higher, j)
        lo = higher[k - 1] + 1 if k > 0 else 0
        hi = higher[k] if k < higher.size else v.size
        if v[j] - max(v[lo:j].min(), v[j + 1 : hi].min()) >= prominence:
            keep.append((starts[j] + starts[j + 1] - 1) // 2)
    return np.array(keep, dtype=np.intp)


def find_peaks(resp: FrequencyResponse, expected: int | None = None) -> np.ndarray:
    """Resonance peak frequencies from |S21|, ascending.

    A peak is a local maximum of |S21| with prominence >= PEAK_PROMINENCE
    x the largest |S21|. A flat top counts once, at its middle sample
    (rounded down), and only if the nearest different samples on both
    sides are lower; a maximum on the first or last sample never counts.
    Each peak is refined by three-point parabolic interpolation. When
    `expected` is given and fewer peaks are found, raises
    InsufficientPeaksError carrying the count found.
    """
    if len(resp) < 3:
        raise InvalidSpecError("peak finding needs at least 3 samples")
    mag = np.abs(resp.s21)
    idx = _prominent_maxima(mag, PEAK_PROMINENCE * mag.max())
    freqs = np.array([_parabolic_vertex(resp.grid, mag, i)[0] for i in idx])
    if expected is not None and freqs.size < expected:
        raise InsufficientPeaksError(found=int(freqs.size), needed=int(expected))
    return freqs


def extract_qe(resp: FrequencyResponse, f0: float) -> float:
    """External quality factor from a singly loaded resonator response.

    Qe = f0 / (f_hi - f_lo) where f_lo and f_hi are the frequencies at
    which |S21| falls 3 dB below its (parabola-refined) peak. With the far
    port much more weakly coupled than the input, the loaded Q this
    measures approximates the input external Q.
    """
    if len(resp) < 3:
        raise InvalidSpecError("Q extraction needs at least 3 samples")
    if not 0 < f0 < math.inf:
        raise InvalidSpecError(f"f0 must be positive and finite, got {f0}")
    mag = np.abs(resp.s21)
    ipk = int(np.argmax(mag))
    if ipk in (0, mag.size - 1):
        raise InsufficientSpanError("resonance peak sits at the grid boundary")
    _, peak = _parabolic_vertex(resp.grid, mag, ipk)
    half = peak / math.sqrt(2.0)

    left = np.nonzero(mag[:ipk] < half)[0]
    right = np.nonzero(mag[ipk:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise InsufficientSpanError("3 dB points fall outside the sampled span")
    lo = left[-1]
    hi = ipk + right[0]
    f = resp.grid
    f_lo = _interp_crossing(f[lo], mag[lo], f[lo + 1], mag[lo + 1], half)
    f_hi = _interp_crossing(f[hi - 1], mag[hi - 1], f[hi], mag[hi], half)
    return f0 / (f_hi - f_lo)
