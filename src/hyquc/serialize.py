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


def model_from_dict(doc: dict):
    if doc.get("format") != FORMAT:
        raise ValueError("not a model document")
    if doc.get("version") != VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    spec = CircuitSpec(**doc["spec"])
    head = MLPHead([
        DenseLayer(np.array(l["weights"]), np.array(l["bias"]), l["activation"])
        for l in doc["head"]
    ])
    model = HybridModel(spec, np.array(doc["qweights"]), head,
                        int(doc["n_classes"]), doc.get("row_type", ""))
    pipeline = (RowTypePipeline.from_dict(doc["pipeline"])
                if doc.get("pipeline") else None)
    return model, pipeline


def save_model(path, model: HybridModel, pipeline: RowTypePipeline = None) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model, pipeline), indent=2))


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
