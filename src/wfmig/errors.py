"""Exception hierarchy: the errors a command reports, each with a stable
machine-readable code, the first word of its one stderr line."""


class WfmigError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class StateLimitError(WfmigError):
    """Reachability exploration hit the configured state limit."""

    code = "STATE_LIMIT_EXCEEDED"


class TtsLimitError(WfmigError):
    """The TTS closure hit the configured limit on (marking, TTS) states."""

    code = "TTS_LIMIT_EXCEEDED"


class UnsafeNetError(WfmigError):
    """Exploration discovered a firing that violates 1-boundedness."""

    code = "UNSAFE_NET"


class NetFormatError(WfmigError):
    """A net file cannot be read or is malformed, or an output file cannot
    be written. Codes: PARSE_ERROR, UNKNOWN_ENDPOINT, NON_BIPARTITE_ARC,
    DUPLICATE_NAME, WRITE_ERROR."""

    code = "PARSE_ERROR"
