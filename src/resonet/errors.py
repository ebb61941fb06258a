"""Exception types shared across the toolkit."""


class ResonetError(Exception):
    """Base class for all toolkit errors. exit_code is the status the
    `resonet` command exits with when the error reaches it."""
    exit_code = 1


class InvalidSpecError(ResonetError):
    """A design specification or argument violates its constraints."""
    exit_code = 3


class ParseError(ResonetError):
    """A config, design, or response file could not be parsed."""
    exit_code = 2


class SingularFrequencyError(ResonetError):
    """The filter matrix is numerically singular at the requested frequency."""
    exit_code = 6


class BelowCutoffError(ResonetError):
    """The requested frequency does not propagate in the waveguide."""
    exit_code = 3


class UnknownPresetError(ResonetError):
    """An unknown preset name was requested."""
    exit_code = 3

    def __init__(self, name: str, available):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown preset {name!r}; available: {', '.join(self.available)}"
        )


class InsufficientPeaksError(ResonetError):
    """Fewer resonance peaks were found than the operation requires."""
    exit_code = 5

    def __init__(self, found: int, needed: int):
        self.found = found
        self.needed = needed
        super().__init__(f"found {found} peak(s), need {needed}")


class InsufficientSpanError(ResonetError):
    """The sampled frequency span does not bracket the 3 dB points or the passband."""
    exit_code = 5


class NoPassbandError(ResonetError):
    """No region of the response stays below the requested reflection level."""
    exit_code = 5


class NumericalError(ResonetError):
    """An eigenvalue solve or optimization step failed numerically."""
    exit_code = 6
