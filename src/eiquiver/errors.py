"""Error taxonomy: the one place that decides what an error is.

Each class carries its machine-readable `finding`, the CLI's `exit_code`
and its stderr `label`.  Only a ValidationError's finding is per
instance and printed (it leads the message); the class-level findings
of the others are not.  A MemoryError counts as an OutOfMemory, and so
does the SystemError numpy raises in its place when an allocation fails
(is_out_of_memory).  No other module defines an exception class.
"""

# The message of the SystemError that numpy raises, in place of a
# MemoryError, when an allocation fails
NUMPY_OUT_OF_MEMORY = "error return without exception set"


def is_out_of_memory(e: BaseException) -> bool:
    """Whether e is a MemoryError or numpy's SystemError with the message
    NUMPY_OUT_OF_MEMORY; any other SystemError is a bug."""
    return isinstance(e, MemoryError) or (
        isinstance(e, SystemError) and str(e) == NUMPY_OUT_OF_MEMORY)


def clear_frames(e: BaseException | None) -> None:
    """Clear the locals of every finished frame in the tracebacks of e
    and of the exceptions it was raised while handling, so that the data
    a failed call held is freed before its error is reported.  The
    tracebacks keep their files and line numbers.  (traceback.clear_frames
    on each, without importing traceback into every run.)"""
    while e is not None:
        tb = e.__traceback__
        while tb is not None:
            try:
                tb.tb_frame.clear()
            except RuntimeError:   # a frame that is still executing
                pass
            tb = tb.tb_next
        e = e.__context__


class EIQuiverError(Exception):
    """Base class for all package errors; a bare one is a bug."""
    finding, exit_code, label = "invariant", 1, "invariant failure"


class SchemaError(EIQuiverError):
    """Malformed input document (bad JSON shape, missing keys, bad types)."""
    finding, exit_code, label = "schema", 3, "schema error"


class ValidationError(EIQuiverError):
    """The input breaks a hypothesis of the theory (a category axiom, a
    group, a splitting prime, a bound); its finding leads its message."""
    exit_code, label = 2, "validation error"

    def __init__(self, finding: str, message: str):
        self.finding = finding
        super().__init__(f"{finding}: {message}")


class OutOfMemory(ValidationError):
    """A MemoryError: the input needs more memory than the process can
    allocate, and no size check rejected it first.  Its own finding
    keeps it apart from the checks' `too-large`."""
    finding = "out-of-memory"

    def __init__(self):
        super().__init__(self.finding, "the input needs more memory than "
                         "this process can allocate")


class InvariantError(EIQuiverError):
    """A theory-level invariant failed; indicates a bug, not bad input."""


class OracleMismatch(EIQuiverError):
    """Independent oracle disagrees with the primary computation."""
    finding, exit_code, label = "oracle-mismatch", 4, "oracle mismatch"
