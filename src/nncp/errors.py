"""Error taxonomy shared across the toolkit.

Each class carries its stable CLI exit code as ``exit_code``: parse errors
→ 1, cap/feasibility guards → 2, solver failures → 3, verification
mismatches → 4.  A MemoryError (the instance outgrew the machine) also
exits 2, like a size cap.
"""


class NncpError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(NncpError):
    """Malformed circuit / solution / coupling input."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapError(NncpError):
    """A size guard was exceeded (enumeration caps, baseline n-limit, ...)."""

    exit_code = 2


class SolverError(NncpError):
    """The solve or reconstruction pipeline failed internally."""

    exit_code = 3


class VerificationError(NncpError):
    """A produced solution failed independent verification."""

    exit_code = 4
