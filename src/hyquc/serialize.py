"""Versioned on-disk model document: circuit spec, quantum angles, head layers,
class mapping and the fitted preprocessing pipeline.

JSON with Python's shortest-roundtrip float encoding, so a save/load cycle is
lossless at full double precision.  Files are written atomically
(write-then-rename).
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import MISSING, asdict, fields
from typing import get_type_hints

import numpy as np

from .errors import SchemaError
from .hybrid import HybridModel
from .nn import DenseLayer, MLPHead
from .pipeline import RowTypePipeline
from .qsim import CircuitSpec

FORMAT = "hyquc-model"
VERSION = 1

# the name of each JSON value's type, by the Python type json.load gives it
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def model_to_dict(model: HybridModel, pipeline: RowTypePipeline = None) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "row_type": model.row_type,
        "n_classes": model.n_classes,
        "spec": asdict(model.spec),
        "qweights": model.qweights.tolist(),
        "head": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in model.head.layers
        ],
        "pipeline": pipeline.to_dict() if pipeline is not None else None,
    }


def _field(doc, key: str, kind: type, source: str, where: str = "", default=MISSING):
    """``doc[key]``, which must be a JSON value of Python type ``kind`` (a
    boolean is not an integer), or ``default`` if given and ``key`` is absent;
    otherwise a SchemaError naming ``source`` and the key, ``where`` its path."""
    if type(doc) is not dict or key not in doc:
        if default is not MISSING:
            return default
        raise SchemaError(f"{source}: no {where + key!r} key")
    if type(doc[key]) is not kind:
        raise SchemaError(f"{source}: {where + key!r} must be {_JSON_TYPES[kind]}, "
                          f"not {_json_type(doc[key])}")
    return doc[key]


def model_from_dict(doc: dict, source: str = "model document"):
    """The model and pipeline of a model document.  A document that is not
    a JSON object, or that lacks or mistypes a field of the model, is a
    SchemaError naming ``source`` and the key."""
    if type(doc) is not dict:
        raise SchemaError(f"{source}: a model document is a JSON object, "
                          f"not {_json_type(doc)}")
    if doc.get("format") != FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    spec = _field(doc, "spec", dict, source)
    kinds = get_type_hints(CircuitSpec)
    for key in spec:
        if key not in kinds:
            raise SchemaError(f"{source}: unknown key {'spec.' + key!r}")
    spec = CircuitSpec(**{f.name: _field(spec, f.name, kinds[f.name], source, "spec.", f.default)
                          for f in fields(CircuitSpec)})
    head = MLPHead([
        DenseLayer(np.array(_field(layer, "weights", list, source, f"head[{i}].")),
                   np.array(_field(layer, "bias", list, source, f"head[{i}].")),
                   _field(layer, "activation", str, source, f"head[{i}]."))
        for i, layer in enumerate(_field(doc, "head", list, source))
    ])
    model = HybridModel(spec, np.array(_field(doc, "qweights", list, source)), head,
                        _field(doc, "n_classes", int, source),
                        _field(doc, "row_type", str, source, default=""))
    pipeline = (RowTypePipeline.from_dict(doc["pipeline"])
                if doc.get("pipeline") else None)
    return model, pipeline


def save_model(path, model: HybridModel, pipeline: RowTypePipeline = None) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model, pipeline), indent=2))


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh), path)
