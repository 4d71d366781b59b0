"""Exception taxonomy shared by all modules."""


class SbfockError(Exception):
    """Base class for all library errors."""


class StructuralError(SbfockError):
    """Inputs violate a structural contract (grid mismatch, shape, symmetry)."""


class ParameterError(SbfockError):
    """A scalar parameter is outside its admissible range."""


class NumericError(SbfockError):
    """A numerical routine failed (singular solve, non-finite value, no convergence)."""


class ResourceError(SbfockError):
    """The request exceeds a configured size cap."""


class ConfigError(SbfockError):
    """A run configuration is malformed or violates an invariant."""

    def __init__(self, message, key_path=None, line=None):
        loc = ""
        if key_path:
            loc += f" at {key_path}"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key_path = key_path
        self.line = line
