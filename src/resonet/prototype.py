"""Chebyshev low-pass prototype synthesis and bandpass coupling targets.

The classical narrowband design flow reduces a bandpass requirement
(center frequency, bandwidth, passband ripple) to the normalized low-pass
ladder prototype. The prototype element values then fix the external
quality factors of the end resonators and the coupling coefficients
between adjacent resonators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import is_whole
from .errors import InvalidSpecError

# The classical rounding of 40 / ln 10 = 17.3718, kept as the design constant.
_RIPPLE_CONSTANT = 17.37


def _realized_ripple_db(ripple_db: float) -> float:
    """The ripple chebyshev_g_values realizes when asked for ripple_db."""
    return ripple_db * (40.0 / math.log(10.0)) / _RIPPLE_CONSTANT


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass design intent.

    Attributes:
        order: number of resonators, n >= 2
        f0_hz: center frequency in Hz
        bandwidth_hz: absolute bandwidth in Hz, 0 < bandwidth < f0
        ripple_db: passband ripple in dB, > 0
    """

    order: int
    f0_hz: float
    bandwidth_hz: float
    ripple_db: float

    def __post_init__(self):
        if not is_whole(self.order, least=2):
            raise InvalidSpecError(f"order must be an integer >= 2, got {self.order}")
        object.__setattr__(self, "order", int(self.order))
        if not 0 < self.f0_hz < math.inf:
            raise InvalidSpecError(f"f0_hz must be positive and finite, got {self.f0_hz}")
        if not 0 < self.bandwidth_hz < self.f0_hz:
            raise InvalidSpecError(
                f"bandwidth_hz must satisfy 0 < bandwidth < f0, got {self.bandwidth_hz}"
            )
        if not 0 < self.ripple_db < math.inf:
            raise InvalidSpecError(f"ripple_db must be positive and finite, got {self.ripple_db}")

    @property
    def fbw(self) -> float:
        """Fractional bandwidth, bandwidth / f0."""
        return self.bandwidth_hz / self.f0_hz


@dataclass(frozen=True)
class LowpassPrototype:
    """Normalized ladder element values g0 .. g(n+1), cutoff at 1 rad/s."""

    g: tuple[float, ...]

    def __post_init__(self):
        if len(self.g) < 3:
            raise InvalidSpecError("prototype needs at least g0, g1 and g_{n+1}")
        if self.g[0] != 1.0:
            raise InvalidSpecError("g0 must be exactly 1")
        if any(not gi > 0 for gi in self.g):
            raise InvalidSpecError("all element values must be positive")

    @property
    def order(self) -> int:
        return len(self.g) - 2


@dataclass(frozen=True)
class CouplingTargets:
    """Bandpass-domain design targets.

    qe_in and qe_out are the external quality factors loading the first
    and last resonator; k holds the n-1 coupling coefficients between
    adjacent resonators, each in [0, 1). k = 0 marks an uncoupled pair,
    which is also what extract_k reports for coincident peaks.
    """

    qe_in: float
    qe_out: float
    k: tuple[float, ...]

    def __post_init__(self):
        if not (self.qe_in > 0 and self.qe_out > 0):
            raise InvalidSpecError("external quality factors must be positive")
        if any(not 0 <= ki < 1 for ki in self.k):
            raise InvalidSpecError("coupling coefficients must lie in [0, 1)")

    @property
    def order(self) -> int:
        return len(self.k) + 1


def chebyshev_g_values(order: int, ripple_db: float) -> LowpassPrototype:
    """Element values of the equiripple (Chebyshev) low-pass prototype.

    Closed form, with L the ripple in dB:

        beta  = ln(coth(L / 17.37))
        gamma = sinh(beta / 2n)
        a_i   = sin((2i - 1) pi / 2n)
        b_i   = gamma^2 + sin^2(i pi / n)
        g1    = 2 a_1 / gamma
        g_i   = 4 a_{i-1} a_i / (b_{i-1} g_{i-1})      for i = 2 .. n

    g0 = 1 always; g_{n+1} = coth^2(beta / 4) for even order and 1 for
    odd order (even-order equiripple prototypes are mismatched at the
    load, which the external Q conversion absorbs).

    17.37 is the classical rounding of 40 / ln 10 = 17.3718 and is kept
    as the design constant. The prototype therefore realizes a ripple of
    L * (40 / ln 10) / 17.37 = 1.0001 L rather than L exactly, and its
    in-band reflection peaks at eps / sqrt(1 + eps^2) for that ripple.
    """
    if not is_whole(order, least=1):
        raise InvalidSpecError(f"order must be an integer >= 1, got {order}")
    if not 0 < ripple_db < math.inf:
        raise InvalidSpecError(f"ripple_db must be positive and finite, got {ripple_db}")
    n = int(order)

    beta = math.log(1.0 / math.tanh(ripple_db / _RIPPLE_CONSTANT))
    gamma = math.sinh(beta / (2 * n))

    g = [1.0, 2.0 * math.sin(math.pi / (2 * n)) / gamma]
    for i in range(2, n + 1):
        a_prev = math.sin((2 * i - 3) * math.pi / (2 * n))
        a_cur = math.sin((2 * i - 1) * math.pi / (2 * n))
        b_prev = gamma * gamma + math.sin((i - 1) * math.pi / n) ** 2
        g.append(4.0 * a_prev * a_cur / (b_prev * g[i - 1]))
    if n % 2 == 0:
        coth = 1.0 / math.tanh(beta / 4.0)
        g.append(coth * coth)
    else:
        g.append(1.0)
    return LowpassPrototype(g=tuple(g))


def spec_to_couplings(spec: FilterSpec) -> CouplingTargets:
    """Convert a bandpass requirement into external Qs and couplings.

    With FBW the fractional bandwidth:

        Qe_in  = g0 g1 / FBW
        Qe_out = g_n g_{n+1} / FBW
        k_i    = FBW / sqrt(g_i g_{i+1})    for i = 1 .. n-1

    Chebyshev prototypes make the adjacent-element products palindromic,
    so the returned k sequence is symmetric and qe_in equals qe_out.
    """
    g = chebyshev_g_values(spec.order, spec.ripple_db).g
    fbw = spec.fbw
    n = spec.order
    return CouplingTargets(
        qe_in=g[0] * g[1] / fbw,
        qe_out=g[n] * g[n + 1] / fbw,
        k=tuple(fbw / math.sqrt(g[i] * g[i + 1]) for i in range(1, n)),
    )
