"""Exception types shared across the package."""


class QubitCapError(ValueError):
    """Requested register size exceeds the simulator cap."""


class ShapeError(ValueError):
    """Array or sequence dimensions do not match the operation's contract."""


class SchemaError(ValueError):
    """Input is malformed: a table missing a required column, carrying an
    unknown code or holding a line the CSV reader cannot parse, or a model
    file that lacks or mistypes a key."""


class AugmentationError(ValueError):
    """Oversampling cannot proceed (e.g. a singleton minority class)."""


class SplitError(ValueError):
    """Train/validation/test split request is invalid for the given data."""


class DivergenceError(ValueError):
    """Training left a model's parameters non-finite.  ``index`` is the
    model's place in the stack that :func:`hybrid.fit` trained, or, raised
    by :func:`hybrid.fit_all`, the job's place in its jobs."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index
