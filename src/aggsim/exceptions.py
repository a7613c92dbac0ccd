"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """An argument violates a documented precondition."""


class ConstructionFailed(RuntimeError):
    """A randomized construction exhausted its retry budget."""


class DivergenceDetected(RuntimeError):
    """NaN/Inf appeared in the solver state."""

    def __init__(self, iteration):
        self.iteration = iteration
        super().__init__(f"non-finite state at iteration {iteration}")


class InconsistentResult(RuntimeError):
    """Two computations of one quantity disagree beyond their tolerance."""


class OutOfValidityRegion(InvalidArgument):
    """Parameters are outside the region where a formula is derived."""


class UnsupportedDegree(InvalidArgument):
    """Polynomial degree outside the supported range."""


class ConfigError(ValueError):
    """A config file could not be parsed or fails validation."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key '{key}'")
        prefix = " (".join([""] + loc) + ")" * len(loc) if loc else ""
        super().__init__(message + prefix)
