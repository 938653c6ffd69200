"""Exception types shared across the package, and the checked reader of JSON
documents that names a malformed key in a SchemaError."""
from dataclasses import MISSING, fields
from typing import get_type_hints

# the name of each JSON value's type, by the Python type json.load gives it
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


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


def json_type(value) -> str:
    """The name of ``value``'s JSON type, as an error message gives it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(doc, key: str, kind, source: str, where: str = "", default=MISSING):
    """``doc[key]``, which must be a JSON value of Python type ``kind``, or of
    one of the types of a tuple ``kind`` (a boolean is not an integer), or
    ``default`` if given and ``key`` is absent; otherwise a SchemaError naming
    ``source`` and the key, ``where`` its path."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(doc) is not dict or key not in doc:
        if default is not MISSING:
            return default
        raise SchemaError(f"{source}: no {where + key!r} key")
    if type(doc[key]) not in kinds:
        names = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise SchemaError(f"{source}: {where + key!r} must be {names}, "
                          f"not {json_type(doc[key])}")
    return doc[key]


def json_dataclass(cls, doc, source: str, path: str):
    """The dataclass ``cls`` built from the JSON object ``doc`` at ``path``:
    each field is read by :func:`json_field` as its type hint says, a field
    with a default may be absent, and one that defaults to None may be null.
    An unknown key is a SchemaError like a missing or mistyped one."""
    if type(doc) is not dict:
        raise SchemaError(f"{source}: {path!r} must be an object, not {json_type(doc)}")
    kinds = get_type_hints(cls)
    for key in doc:
        if key not in kinds:
            raise SchemaError(f"{source}: unknown key {path + '.' + key!r}")
    return cls(**{f.name: json_field(doc, f.name, kinds[f.name] if f.default is not None
                                     else (kinds[f.name], type(None)),
                                     source, path + ".", f.default)
                  for f in fields(cls)})
