"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An argument violates a documented precondition or type invariant."""


class ParseError(ValueError):
    """A file could not be parsed.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(ParseError):
    """A structured file has a missing, unknown, or ill-typed field."""

    def __init__(self, message: str, field: str | None = None):
        if field is not None:
            message = f"field '{field}': {message}"
        super().__init__(message)
        self.field = field


class NormalizationError(ValueError):
    """A task row to normalize is degenerate (constant, or too wide a range).  Names the task."""

    def __init__(self, message: str, task: str | None = None):
        super().__init__(message)
        self.task = task


class DivergenceError(RuntimeError):
    """The optimizer produced a non-finite value.

    ``step`` is the number of completed optimizer updates when the value was
    detected; ``parameter`` names the offending quantity ("loss" when the
    objective itself went non-finite).
    """

    def __init__(self, step: int, parameter: str):
        super().__init__(f"non-finite {parameter} after {step} optimizer steps")
        self.step = step
        self.parameter = parameter
