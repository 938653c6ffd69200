"""Per-layer tracing of hyquc from outside the package.

The tracer replaces the public functions of each hyquc module with wrappers
that record wall time, calls and work counts, and restores them afterwards.
A layer's self time is the time of its spans minus the time of the spans
they caused, so the self times of all layers add up to the traced time
spent inside hyquc calls.
"""
from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MB = float(1 << 20)


def _jacobian_counts(counts, args, kwargs, result):
    features, spec = args[0], args[2] if len(args) > 2 else kwargs["spec"]
    rows, n = len(features), spec.n_qubits
    shifted = 2 * 3 * spec.n_layers * n  # two shifted circuits per angle
    counts["qgrad.jacobian_batch.circuits"] += rows * shifted
    counts["qgrad.jacobian_batch.buffer_mb"] = max(
        counts["qgrad.jacobian_batch.buffer_mb"], rows * shifted * (1 << n) * 16 / MB)


def _forward_counts(counts, args, kwargs, result):
    counts["qsim.forward_batch.rows"] += len(args[0])


def _smote_counts(counts, args, kwargs, result):
    counts["pipeline.smote.rows_out"] += len(result.y)


# (module, attribute, layer, work counter); "Class.method" patches a method.
# Activations inside nn.dense_* are left unwrapped so that the dense layers'
# self times include them.
TARGETS = [
    ("qgrad", "jacobian_batch", "qgrad.jacobian_batch", _jacobian_counts),
    ("qsim", "forward_batch", "qsim.forward_batch", _forward_counts),
    ("qsim", "quantum_layer_forward", "qsim.other", None),
    ("qsim", "random_weights", "qsim.other", None),
    ("nn", "dense_forward", "nn.dense_forward", None),
    ("nn", "dense_backward", "nn.dense_backward", None),
    ("nn", "sgd_update", "nn.sgd_update", None),
    ("nn", "init_head", "nn.other", None),
    *(("hybrid", name, "hybrid.self", None) for name in (
        "init_model", "hybrid_forward", "forward_probs", "loss_and_grads",
        "apply_gradients", "evaluate", "train_epoch", "fit", "predict",
        "kfold_split", "grid_search")),
    ("pipeline", "load_csv", "pipeline.load_csv", None),
    ("pipeline", "ColumnEncoder.fit", "pipeline.encode", None),
    ("pipeline", "ColumnEncoder.transform", "pipeline.encode", None),
    ("pipeline", "encode_labels", "pipeline.encode", None),
    ("pipeline", "pca_fit", "pipeline.pca", None),
    ("pipeline", "pca_transform", "pipeline.pca", None),
    ("pipeline", "select_components", "pipeline.pca", None),
    ("pipeline", "smote_oversample", "pipeline.smote", _smote_counts),
    ("pipeline", "RowTypePipeline.transform_features", "pipeline.replay", None),
    ("pipeline", "RowTypePipeline.transform", "pipeline.replay", None),
    *(("pipeline", name, "pipeline.other", None) for name in (
        "load_row_type_map", "partition_by_row_type", "drop_inapplicable_columns",
        "drop_high_missing", "stratified_split_indices", "scale_to_angle_range",
        "apply_angle_scaling")),
    *(("serialize", name, "serialize", None) for name in (
        "atomic_write_text", "model_to_dict", "model_from_dict", "save_model",
        "load_model")),
    ("pipeline", "RowTypePipeline.to_dict", "serialize", None),
    ("pipeline", "RowTypePipeline.from_dict", "serialize", None),
    *(("metrics", name, "metrics", None) for name in (
        "confusion_matrix", "per_class_prf", "accuracy", "macro_weighted_avg",
        "roc_auc_ovr", "cohens_kappa", "build_report", "MetricsReport.to_json")),
    # cli binds load_config by name, so it is patched where cli looks it up
    ("cli", "load_config", "config", None),
    *(("cli", name, "cli.self", None) for name in (
        "cmd_train", "cmd_gridsearch", "cmd_evaluate", "cmd_predict", "fit_row_type")),
]

LAYERS = sorted({layer for _, _, layer, _ in TARGETS})
CALLS = ["qgrad.jacobian_batch", "qsim.forward_batch", "hybrid.predict",
         "hybrid.apply_gradients"]
COUNTS = ["qgrad.jacobian_batch.circuits", "qgrad.jacobian_batch.buffer_mb",
          "qsim.forward_batch.rows", "pipeline.smote.rows_out"]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"hyquc.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(replacements):
    """Set ``(owner, name, value)`` attributes for the duration of the block."""
    saved = [(owner, name, inspect.getattr_static(owner, name))
             for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _rebind(static, wrapper):
    """Keep a classmethod a classmethod once its function is wrapped."""
    return classmethod(wrapper) if isinstance(static, classmethod) else wrapper


def _unwrap(static):
    return static.__func__ if isinstance(static, classmethod) else static


class Tracer:
    """Self time per layer, calls per function and work counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []

    def _wrap(self, fn, qualname, layer, counter):
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - t0
                self._stack.pop()
                self.self_s[layer] += spent - children[0]
                if self._stack:
                    self._stack[-1][0] += spent
                self.calls[qualname] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def replacements(self) -> list:
        out = []
        for module, attr, layer, counter in TARGETS:
            owner, name = _resolve(module, attr)
            static = inspect.getattr_static(owner, name)
            qualname = f"{module}.{attr.split('.')[-1]}"
            out.append((owner, name, _rebind(
                static, self._wrap(_unwrap(static), qualname, layer, counter))))
        return out

    def metrics(self) -> dict:
        """Per-layer figures for one traced operation."""
        out = {f"{layer}.s": self.self_s[layer] for layer in LAYERS}
        out.update({f"{name}.calls": self.calls[name] for name in CALLS})
        out.update({name: self.counts[name] for name in COUNTS})
        return out


def fit_row_counter(totals: dict):
    """Replacement for ``hybrid.fit`` that adds training rows x epochs to
    ``totals["rows"]``: the one hook kept in untraced runs."""
    hybrid = importlib.import_module("hyquc.hybrid")
    fit = hybrid.fit

    def counted(model, train_set, val_set, config):
        x = train_set.X if hasattr(train_set, "X") else train_set[0]
        totals["rows"] += len(np.asarray(x)) * config.epochs
        return fit(model, train_set, val_set, config)

    return [(hybrid, "fit", counted)]
