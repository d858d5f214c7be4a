"""Error taxonomy shared across the toolkit.

The CLI maps these onto stable exit codes: parse errors → 1, cap/feasibility
guards → 2, solver failures → 3, verification mismatches → 4.  A MemoryError
(the instance outgrew the machine) also exits 2, like a size cap.
"""


class NncpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(NncpError):
    """Malformed circuit / solution / coupling input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapError(NncpError):
    """A size guard was exceeded (enumeration caps, baseline n-limit, ...)."""


class SolverError(NncpError):
    """The solve or reconstruction pipeline failed internally."""


class VerificationError(NncpError):
    """A produced solution failed independent verification."""
