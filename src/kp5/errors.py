"""Exception hierarchy for the kp5 toolkit.

Everything raised on purpose derives from Kp5Error so callers can catch
toolkit failures without swallowing programming errors.
"""

from __future__ import annotations


class Kp5Error(Exception):
    """Base class for all kp5 errors."""


class SpectralSymmetryError(Kp5Error):
    """Full-plane coefficients are not Hermitian, so they are not a real field."""


class IllPosedInversionError(Kp5Error):
    """The x-antiderivative was asked for on data with mass on the zero-x-frequency fiber."""


class SigmaOverflowError(Kp5Error):
    """An analyticity weight would overflow double precision on this grid.
    The message names the largest admissible sigma1 at the requested sigma2."""


class PicardDivergenceError(Kp5Error):
    """Successive-approximation distances stopped contracting."""


class BlowUpError(Kp5Error):
    """The numerical solution left the trusted regime (NaN/Inf or runaway norm).

    Carries the time at which the run aborted and whatever diagnostics
    records were collected before the abort.
    """

    def __init__(self, msg: str, time: float, records=()):
        super().__init__(msg)
        self.time = time
        self.records = list(records)


class ConfigError(Kp5Error):
    """A run configuration failed validation. Names the offending field."""

    def __init__(self, field: str, msg: str):
        super().__init__(f"{field}: {msg}")
        self.field = field
        self.reason = msg


class InadmissibleParamsError(ConfigError):
    """Norm orders violate the admissible range for the bilinear estimate.
    The field is the order whose range broke."""


class SnapshotFormatError(Kp5Error):
    """A snapshot file is corrupt or violates a spectral invariant."""
