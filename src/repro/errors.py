"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ParameterError(ReproError):
    """Raised when CKKS or hardware parameters are inconsistent."""


class LevelError(ReproError):
    """Raised when a ciphertext does not have enough levels for an operation."""


class ScaleMismatchError(ReproError):
    """Raised when operands of a homomorphic op carry incompatible scales."""


class EvalKeyError(ReproError):
    """Raised when a required evaluation key is missing."""


#: Backwards-compatible alias for the pre-rename spelling.
KeyError_ = EvalKeyError


class LayoutError(ReproError):
    """Raised when a PIM data layout request cannot be satisfied."""


class ScheduleError(ReproError):
    """Raised when a kernel trace cannot be scheduled."""


class VerificationError(ReproError):
    """Raised when a result fails an integrity check (residue checksum
    mismatch or a ciphertext invariant violation)."""


class FaultError(ReproError):
    """Raised when an injected fault exhausts every recovery path
    (bounded retry and GPU fallback)."""


class SerializationError(ReproError):
    """Raised when a serialized artifact (ciphertext/key archive,
    checkpoint, baseline) is corrupted, truncated, or of the wrong
    kind — a clean one-line diagnosis instead of a numpy/zipfile
    traceback."""


class CheckpointError(SerializationError):
    """Raised when a serve checkpoint cannot be resumed: unreadable,
    truncated, or recorded for a different job matrix/policy."""


class AdmissionError(ReproError):
    """Raised when the admission controller refuses a job at enqueue:
    rate-limited, queue full, or predicted completion past its
    deadline — the overload layer's one-line rejection."""
