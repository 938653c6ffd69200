"""Versioned on-disk model document: circuit spec, quantum angles, head layers,
class mapping and the fitted preprocessing pipeline.

JSON with Python's shortest-roundtrip float encoding, so a save/load cycle is
lossless at full double precision.  Files are written atomically
(write-then-rename) as UTF-8, and read as UTF-8 with a leading byte-order mark
skipped.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import SchemaError, json_dataclass, json_field, json_type, utf8_file
from .hybrid import HybridModel
from .nn import DenseLayer, MLPHead
from .pipeline import RowTypePipeline
from .qsim import CircuitSpec

FORMAT = "hyquc-model"
VERSION = 1
AXIS_KEY = "embedding_rotation_axis"  # of the spec: "Y", or "X" in older files


def atomic_write_text(path, text: str) -> None:
    """Write as UTF-8 via a temp file in the same directory, then rename.  An
    OSError names ``path``, not the temp file, which is removed."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _check_class_names(names: list, n_classes: int, source: str) -> None:
    if len(set(names)) != len(names) or len(names) != n_classes:
        raise SchemaError(f"{source}: 'pipeline.class_names' must hold n_classes, "
                          f"{n_classes}, distinct names, not {names}")


def model_to_dict(model: HybridModel, pipeline: RowTypePipeline) -> dict:
    """The model document of a row type's model and its fitted preprocessing.
    A pipeline whose class names are not the head's ``n_classes`` distinct
    names is a SchemaError, since :func:`model_from_dict` would refuse the
    document."""
    _check_class_names(pipeline.class_names, model.n_classes, "model document")
    return {
        "format": FORMAT,
        "version": VERSION,
        "row_type": pipeline.row_type,
        "n_classes": model.n_classes,
        "spec": {"n_qubits": model.spec.n_qubits, "n_layers": model.spec.n_layers,
                 AXIS_KEY: "Y", "entangler_range": model.spec.entangler_range},
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
    not a JSON object, that lacks or mistypes a key of the model or of its
    pipeline or an element of one of their arrays, or whose values or
    widths the model, a head layer or the pipeline refuse, or whose copies
    of a fact (the class count, the row type) disagree, is a SchemaError
    naming ``source`` and the key, the element or the head layer.  A file
    that embeds with RX loads as the RY model it equals: layer 0's gamma
    angles shifted by -pi/2."""
    if type(doc) is not dict:
        raise SchemaError(f"{source}: a model document is a JSON object, "
                          f"not {json_type(doc)}")
    if doc.get("format") != FORMAT:
        raise ValueError("not a model document")
    if type(doc.get("version")) is not int or doc["version"] != VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    spec = json_field(doc, "spec", dict, source)
    axis = json_field(spec, AXIS_KEY, str, source, "spec.", default="Y")
    spec = json_dataclass(CircuitSpec, {k: v for k, v in spec.items() if k != AXIS_KEY},
                          source, "spec")
    if axis not in ("Y", "X"):
        why = ": RZ leaves |0...0> unchanged up to a phase" if axis == "Z" else ""
        raise SchemaError(f"{source}: 'spec.{AXIS_KEY}': "
                          f"{AXIS_KEY} must be 'Y' or 'X', not {axis!r}{why}")
    layers = []
    for i, layer in enumerate(json_field(doc, "head", list, source)):
        where = f"head[{i}]"
        args = (np.array(json_field(layer, "weights", [[float]], source, where + ".")),
                np.array(json_field(layer, "bias", [float], source, where + ".")),
                json_field(layer, "activation", str, source, where + "."))
        try:
            layers.append(DenseLayer(*args))
        except ValueError as exc:
            raise SchemaError(f"{source}: {where!r}: {exc}") from None
    qweights = np.array(json_field(doc, "qweights", [[[float]]], source))
    n_classes = json_field(doc, "n_classes", int, source)
    row_type = json_field(doc, "row_type", str, source, default=None)
    try:
        model = HybridModel(spec, qweights, MLPHead(layers))
    except ValueError as exc:  # a width or a value the model's own checks refuse
        raise SchemaError(f"{source}: {exc}") from None
    if axis == "X":
        # RX(t)|0> = e^{-i pi/4} RZ(-pi/2) RY(t)|0>, and layer 0's Rot gates
        # start with RZ(gamma): an RX model is the RY model with gamma - pi/2
        model.qweights[0, :, 2] -= np.pi / 2
    if model.n_classes != n_classes:
        raise SchemaError(f"{source}: head output width {model.n_classes} "
                          f"!= n_classes {n_classes}")
    pipeline = json_field(doc, "pipeline", dict, source)
    width = json_field(pipeline, "n_components", int, source, "pipeline.")
    if width != spec.n_qubits:
        raise SchemaError(f"{source}: 'pipeline.n_components' must equal 'spec.n_qubits', "
                          f"{spec.n_qubits}, not {width}")
    pipeline = RowTypePipeline.from_dict(pipeline, source, "pipeline.")
    if row_type is not None and row_type != pipeline.row_type:
        raise SchemaError(f"{source}: 'row_type' {row_type!r} differs from "
                          f"'pipeline.row_type' {pipeline.row_type!r}")
    _check_class_names(pipeline.class_names, n_classes, source)
    return model, pipeline


def save_model(path, model: HybridModel, pipeline: RowTypePipeline) -> None:
    """Write the model document of ``model`` and ``pipeline`` to ``path``."""
    atomic_write_text(path, json.dumps(model_to_dict(model, pipeline), indent=2))


def load_model(path):
    """The model and the pipeline of the model file at ``path``; a file that
    is not UTF-8 JSON is a SchemaError naming it, like a malformed document
    (see :func:`model_from_dict`)."""
    with open(path, encoding="utf-8-sig") as fh, utf8_file(path):
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    return model_from_dict(doc, path)
