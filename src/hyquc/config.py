"""Run configuration: an INI-style file with one section per concern and one
``[row_type:NAME]`` section per row type for exclusions and class merges.
``SCHEMA`` is the whole format: each key's field and value parser."""
from __future__ import annotations

import configparser
import difflib
import math
import os
from dataclasses import dataclass, field

from . import hybrid
from .errors import SchemaError, SplitError, utf8_file
from .hybrid import HyperGrid
from .nn import ACTIVATIONS
from .pipeline import check_split_fractions


@dataclass
class RowTypeOptions:
    exclude_columns: list = field(default_factory=list)
    merges: list = field(default_factory=list)  # [(from_class, into_class), ...]


@dataclass
class RunConfig:
    csv_path: str
    label_column: str = "IRAC"
    row_type_column: str = None
    row_type_map_path: str = None
    missing_threshold: float = 0.70
    date_format: str = None
    split_fractions: tuple = (0.70, 0.15, 0.15)
    n_qubits: int = 5
    n_layers: int = 2
    entangler_range: int = 1
    pca_components: int = 5
    hidden: tuple = (8, 8)
    hidden_activation: str = "sigmoid"
    epochs: int = 50
    learning_rate: float = 0.01
    batch_size: int = 16
    seed: int = 0
    smote_k: int = 5
    grid: HyperGrid = None  # keys absent from [grid] keep HyperGrid's defaults
    cv_folds: int = 3
    out_dir: str = "hyquc-out"
    row_types: dict = field(default_factory=dict)  # name -> RowTypeOptions

    def options_for(self, row_type: str) -> RowTypeOptions:
        return self.row_types.get(row_type, RowTypeOptions())

    def new_model(self, n_qubits: int, n_layers: int, n_classes: int,
                  rng) -> hybrid.HybridModel:
        """A fresh model with this config's circuit and head settings: the
        builder of every model that ``train`` and ``gridsearch`` fit."""
        spec = hybrid.circuit_spec(n_qubits, n_layers, self.entangler_range)
        return hybrid.init_model(spec, n_classes, rng, hidden=self.hidden,
                                 hidden_activation=self.hidden_activation)


def _value(kind, requirement: str, rule=lambda value: True):
    """A parser reading ``kind(raw)``, refused unless ``rule`` accepts it."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except (KeyError, ValueError):
            value = None
        if value is None or not rule(value):
            raise ValueError(f"must be {requirement}, got {raw!r}")
        return value
    return parse


def _split_list(raw: str) -> list:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _list(item):
    return lambda raw: tuple(item(v) for v in _split_list(raw))


def _choices(item):
    """A [grid] list: ``item`` checks each value, and at least one is given."""
    def parse(raw: str):
        values = _list(item)(raw)
        if not values:
            raise ValueError(f"must list at least one value, got {raw!r}")
        return values
    return parse


def _merges(raw: str) -> list:
    parts = [part.strip() for part in raw.split(";") if part.strip()]
    for part in parts:
        if "->" not in part:
            raise ValueError(f"must be FROM->INTO merges separated by ';', got {part!r}")
    return [tuple(s.strip() for s in part.split("->", 1)) for part in parts]


# numpy's seeding takes only nonnegative integers
_seed = _value(int, "an integer >= 0", lambda v: v >= 0)
_count = _value(int, "an integer >= 1", lambda v: v >= 1)
_float = _value(float, "a number")
_rate = _value(float, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)
_path = os.fspath  # a path, resolved against the config file's directory

# section -> key -> (field, parser): [split] keys fill split_fractions by index,
# [grid] keys but folds fill a HyperGrid, [row_type:NAME] keys RowTypeOptions.
SCHEMA = {
    "data": {
        "csv": ("csv_path", _path),
        "label_column": ("label_column", str),
        "row_type_column": ("row_type_column", str),
        "row_type_map": ("row_type_map_path", _path),
        "missing_threshold": ("missing_threshold", _value(
            float, "a number in (0, 1]", lambda v: 0 < v <= 1)),
        "date_format": ("date_format", lambda raw: raw or None),
    },
    "split": {"train": (0, _float), "val": (1, _float), "test": (2, _float)},
    "model": {
        "n_qubits": ("n_qubits", _count),
        "n_layers": ("n_layers", _count),
        "entangler_range": ("entangler_range", _count),
        "pca_components": ("pca_components", _count),
        "hidden": ("hidden", _list(_count)),
        "hidden_activation": ("hidden_activation", _value(
            str, f"one of {', '.join(ACTIVATIONS)}", ACTIVATIONS.__contains__)),
    },
    "train": {
        "epochs": ("epochs", _count),
        "learning_rate": ("learning_rate", _rate),
        "batch_size": ("batch_size", _count),
        "seed": ("seed", _seed),
        "smote_k": ("smote_k", _count),
    },
    "grid": {
        "n_layers": ("n_layers_choices", _choices(_count)),
        "n_qubits": ("n_qubits_choices", _choices(_count)),
        "learning_rates": ("learning_rates", _choices(_rate)),
        "batch_sizes": ("batch_sizes", _choices(_count)),
        "epochs": ("epoch_choices", _choices(_count)),
        "folds": ("cv_folds", _value(int, "an integer >= 2", lambda v: v >= 2)),
    },
    "output": {"dir": ("out_dir", _path)},
    "row_type:NAME": {
        "exclude_columns": ("exclude_columns", _split_list),
        "merge_classes": ("merges", _merges),
    },
}


def _unknown(kind: str, name: str, valid) -> SchemaError:
    close = difflib.get_close_matches(name, valid, n=1)
    hint = f"did you mean {close[0]!r}?" if close else f"valid: {', '.join(valid)}"
    return SchemaError(f"unknown {kind} {name!r}; {hint}")


def load_config(path) -> RunConfig:
    """The run configuration in ``path``. A section or key not in SCHEMA is
    refused with the nearest valid name; a bad value names its section and key,
    and a byte that is not UTF-8 its line."""
    parser = configparser.ConfigParser()
    try:
        with utf8_file(path):
            if not parser.read(path, encoding="utf-8-sig"):
                raise SchemaError(f"cannot read config file {path!r}")
    except configparser.Error as exc:  # no section header, a duplicate, ...
        raise SchemaError(" ".join(str(exc).split())) from None
    base = os.path.dirname(os.path.abspath(path))
    sections = {}  # section -> {field: value}
    for section in parser.sections():
        keys = SCHEMA.get("row_type:NAME" if section.startswith("row_type:") else section)
        if keys is None:
            raise _unknown("section", section, list(SCHEMA))
        sections[section] = {}
        for key in parser[section]:
            if key not in keys:
                raise _unknown(f"key in [{section}]", key, list(keys))
            name, parse = keys[key]
            try:
                value = parse(parser[section][key])
            except configparser.Error as exc:  # a lone % starts an interpolation
                raise SchemaError(
                    f"[{section}] {key}: {exc}; write %% for a literal %") from None
            except ValueError as exc:
                raise SchemaError(f"[{section}] {key}: {key} {exc}") from None
            sections[section][name] = os.path.join(base, value) if parse is _path else value
    split = sections.pop("split", {})
    grid = sections.pop("grid", None)
    row_types = {section.split(":", 1)[1].strip(): RowTypeOptions(**sections.pop(section))
                 for section in list(sections) if section.startswith("row_type:")}
    fields = {name: value for keys in sections.values() for name, value in keys.items()}
    if "csv_path" not in fields:
        raise SchemaError("config needs [data] csv = <path>")
    cfg = RunConfig(**fields, row_types=row_types)
    cfg.split_fractions = tuple(split.get(i, f) for i, f in enumerate(cfg.split_fractions))
    try:
        check_split_fractions(cfg.split_fractions)
    except SplitError as exc:
        raise SchemaError(f"[split] {exc}") from None
    if grid is not None:
        cfg.cv_folds = grid.pop("cv_folds", cfg.cv_folds)
        cfg.grid = HyperGrid(**grid)
    return cfg
