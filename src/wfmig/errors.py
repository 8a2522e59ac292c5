"""Exception hierarchy. Every error carries a stable machine-readable code."""


class WfmigError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class NotEnabledError(WfmigError):
    """A transition was fired from a marking in which it is not enabled."""

    code = "NOT_ENABLED"


class UnsafeFiringError(WfmigError):
    """Firing would put a second token into a place (net is not 1-bounded)."""

    code = "UNSAFE_FIRING"


class StateLimitError(WfmigError):
    """Reachability exploration hit the configured state limit."""

    code = "STATE_LIMIT_EXCEEDED"


class TtsLimitError(WfmigError):
    """The TTS closure hit the configured limit on (marking, TTS) states."""

    code = "TTS_LIMIT_EXCEEDED"


class UnsafeNetError(WfmigError):
    """Exploration discovered a firing that violates 1-boundedness."""

    code = "UNSAFE_NET"


class BoundTooSmallError(WfmigError):
    """Oracle enumeration was asked to use a bound below the sufficiency bound."""

    code = "BOUND_TOO_SMALL"


class NetFormatError(WfmigError):
    """A net file cannot be read or is malformed, or an output file cannot
    be written. Codes: PARSE_ERROR, UNKNOWN_ENDPOINT, NON_BIPARTITE_ARC,
    DUPLICATE_NAME, WRITE_ERROR."""

    code = "PARSE_ERROR"
