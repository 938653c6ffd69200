"""Exception types shared across the package."""


class QubitCapError(ValueError):
    """Requested register size exceeds the simulator cap."""


class ShapeError(ValueError):
    """Array or sequence dimensions do not match the operation's contract."""


class SchemaError(ValueError):
    """Tabular input is missing a required column or carries an unknown code."""


class AugmentationError(ValueError):
    """Oversampling cannot proceed (e.g. a singleton minority class)."""


class SplitError(ValueError):
    """Train/validation/test split request is invalid for the given data."""


class DivergenceError(ValueError):
    """Training left a model's parameters non-finite.  ``index`` is the
    model's place in the stack that was trained (0 for a single model)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index
