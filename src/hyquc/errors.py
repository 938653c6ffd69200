"""Exception types shared across the package, the contexts that prefix an
error's message or name the file a byte that is not UTF-8 came from, and the
checked reader of JSON documents that names a malformed key in a SchemaError."""
import re
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import lru_cache
from itertools import chain
from typing import get_type_hints

import numpy as np

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


@contextmanager
def prefixed(prefix: str):
    """Prefixes the message of a ValueError raised inside with ``prefix: ``;
    the error keeps its type and attributes."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{prefix}: {exc}",)
        raise


@contextmanager
def utf8_file(path):
    """Refuses a byte that is not UTF-8, met while ``path`` is read inside,
    with a SchemaError naming the file and the line of the first such byte."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise SchemaError(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 "
                              f"({exc.reason})") from None
        raise


def json_type(value) -> str:
    """The name of ``value``'s JSON type, as an error message gives it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(doc, key: str, kind, source: str, where: str = "", default=MISSING):
    """``doc[key]``, which must be a JSON value of ``kind``, or of one of the
    kinds of a tuple ``kind``, or ``default`` if given and ``key`` is absent;
    otherwise a SchemaError naming ``source`` and the key, ``where`` its path.
    A kind is the Python type json.load gives (a boolean is not an integer),
    or an array kind ``[item]``: an array whose elements are all of kind
    ``item`` and, where ``item`` is an array kind too, all as long as the
    first.  An error in an element names the element's path."""
    if type(doc) is not dict or key not in doc:
        if default is not MISSING:
            return default
        raise SchemaError(f"{source}: no {where + key!r} key")
    value, kinds = doc[key], kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if type(k) is list and type(value) is list:
            _check_elements(value, k[0], source, where + key)
            return value
        if type(value) is k:
            return value
    raise _mistyped(source, where + key, kinds, value)


def _mistyped(source: str, path: str, kinds: tuple, value) -> SchemaError:
    names = " or ".join("an array" if type(k) is list else _JSON_TYPES[k] for k in kinds)
    return SchemaError(f"{source}: {path!r} must be {names}, not {json_type(value)}")


def _check_elements(items: list, kind, source: str, path: str):
    """Checks that each element of the array at ``path`` is of ``kind`` and,
    for an array kind, that the arrays at each depth are all as long as the
    first.  A depth costs one set of types and one of lengths, not a call per
    element; the error names the first bad element."""
    shape, level = (len(items),), items
    while True:
        expected = list if type(kind) is list else kind
        if not set(map(type, level)) <= {expected}:
            j = next(j for j, item in enumerate(level) if type(item) is not expected)
            raise _mistyped(source, path + _index(j, shape), (kind,), level[j])
        if expected is not list:
            return
        if len(set(map(len, level))) > 1:
            j = next(j for j, row in enumerate(level) if len(row) != len(level[0]))
            raise SchemaError(f"{source}: {path + _index(j, shape)!r} must hold "
                              f"{len(level[0])} elements like {path + _index(0, shape)!r}, "
                              f"not {len(level[j])}")
        shape += (len(level[0]) if level else 0,)
        level, kind = list(chain.from_iterable(level)), kind[0]


def _index(j: int, shape: tuple) -> str:
    """The ``[i][k]...`` index of element ``j`` of an array of ``shape`` laid flat."""
    return "".join(f"[{i}]" for i in np.unravel_index(j, shape))


def json_dataclass(cls, doc, source: str, path: str):
    """The dataclass ``cls`` built from the JSON object ``doc`` at ``path``:
    each field is read by :func:`json_field` as its type hint says, a field
    with a default may be absent, and one that defaults to None may be null.
    An unknown key is a SchemaError like a missing or mistyped one, and so is
    a value the dataclass's own checks refuse: the error names the key its
    message starts with, or else the object."""
    if type(doc) is not dict:
        raise SchemaError(f"{source}: {path!r} must be an object, not {json_type(doc)}")
    kinds = _type_hints(cls)
    for key in doc:
        if key not in kinds:
            raise SchemaError(f"{source}: unknown key {path + '.' + key!r}")
    values = {f.name: json_field(doc, f.name, kinds[f.name] if f.default is not None
                                 else (kinds[f.name], type(None)),
                                 source, path + ".", f.default)
              for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        name = re.match(r"\w*", str(exc)).group()
        where = path + "." + name if name in kinds else path
        raise SchemaError(f"{source}: {where!r}: {exc}") from None


# a class's type hints, resolved once: resolving them costs more than a document
_type_hints = lru_cache(maxsize=None)(get_type_hints)
