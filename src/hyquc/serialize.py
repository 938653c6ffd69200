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
from dataclasses import asdict

import numpy as np

from .errors import SchemaError, json_dataclass, json_field, json_type
from .hybrid import HybridModel
from .nn import DenseLayer, MLPHead
from .pipeline import RowTypePipeline
from .qsim import CircuitSpec

FORMAT = "hyquc-model"
VERSION = 1


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


def model_to_dict(model: HybridModel, pipeline: RowTypePipeline) -> dict:
    """The model document of a row type's model and its fitted preprocessing."""
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
        "pipeline": pipeline.to_dict(),
    }


def model_from_dict(doc: dict, source: str = "model document"):
    """The model and the pipeline of a model document.  A document that is
    not a JSON object, or that lacks or mistypes a key of the model or of its
    pipeline or an element of one of their arrays, is a SchemaError naming
    ``source`` and the key or the element."""
    if type(doc) is not dict:
        raise SchemaError(f"{source}: a model document is a JSON object, "
                          f"not {json_type(doc)}")
    if doc.get("format") != FORMAT:
        raise ValueError("not a model document")
    if type(doc.get("version")) is not int or doc["version"] != VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    spec = json_dataclass(CircuitSpec, json_field(doc, "spec", dict, source), source, "spec")
    head = MLPHead([
        DenseLayer(np.array(json_field(layer, "weights", [[float]], source, f"head[{i}].")),
                   np.array(json_field(layer, "bias", [float], source, f"head[{i}].")),
                   json_field(layer, "activation", str, source, f"head[{i}]."))
        for i, layer in enumerate(json_field(doc, "head", list, source))
    ])
    qweights = np.array(json_field(doc, "qweights", [[[float]]], source))
    model = HybridModel(spec, qweights, head, json_field(doc, "n_classes", int, source),
                        json_field(doc, "row_type", str, source, default=""))
    pipeline = json_field(doc, "pipeline", dict, source)
    return model, RowTypePipeline.from_dict(pipeline, source, "pipeline.")


def save_model(path, model: HybridModel, pipeline: RowTypePipeline) -> None:
    """Write the model document of ``model`` and ``pipeline`` to ``path``."""
    atomic_write_text(path, json.dumps(model_to_dict(model, pipeline), indent=2))


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh), path)
