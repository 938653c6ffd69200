"""Run configuration: an INI-style file with one section per concern and one
``[row_type:NAME]`` section per row type for exclusions and class merges."""
from __future__ import annotations

import configparser
import difflib
import math
import os
from dataclasses import dataclass, field

from .errors import SchemaError
from .hybrid import HyperGrid


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
    embedding_axis: str = "Y"
    entangler_range: int = 1
    pca_components: int = 5
    hidden: tuple = (8, 8)
    hidden_activation: str = "sigmoid"
    single_layer_head: bool = False
    epochs: int = 50
    learning_rate: float = 0.01
    batch_size: int = 16
    seed: int = 0
    smote_k: int = 5
    grid: HyperGrid = None
    cv_folds: int = 3
    out_dir: str = "hyquc-out"
    row_types: dict = field(default_factory=dict)  # name -> RowTypeOptions

    def options_for(self, row_type: str) -> RowTypeOptions:
        return self.row_types.get(row_type, RowTypeOptions())


# every key each section may hold; ``[row_type:NAME]`` sections hold ROW_TYPE_KEYS
SECTION_KEYS = {
    "data": ("csv", "label_column", "row_type_column", "row_type_map",
             "missing_threshold", "date_format"),
    "split": ("train", "val", "test"),
    "model": ("n_qubits", "n_layers", "embedding_axis", "entangler_range",
              "pca_components", "hidden", "hidden_activation", "single_layer_head"),
    "train": ("epochs", "learning_rate", "batch_size", "seed", "smote_k"),
    "grid": ("n_layers", "n_qubits", "learning_rates", "batch_sizes", "epochs", "folds"),
    "output": ("dir",),
}
ROW_TYPE_KEYS = ("exclude_columns", "merge_classes")


def _unknown(kind: str, name: str, valid) -> SchemaError:
    close = difflib.get_close_matches(name, valid, n=1)
    hint = f"did you mean {close[0]!r}?" if close else f"valid: {', '.join(valid)}"
    return SchemaError(f"unknown {kind} {name!r}; {hint}")


def _check_names(parser: configparser.ConfigParser) -> None:
    """Reject a section or key the loader does not read, naming the
    nearest valid one: a typo would otherwise leave its default in force."""
    for section in parser.sections():
        if section.startswith("row_type:"):
            valid = ROW_TYPE_KEYS
        elif section in SECTION_KEYS:
            valid = SECTION_KEYS[section]
        else:
            raise _unknown("section", section, [*SECTION_KEYS, "row_type:NAME"])
        for key in parser[section]:
            if key not in valid:
                raise _unknown(f"key in [{section}]", key, valid)


def _learning_rate(raw: float, where: str) -> float:
    if not (math.isfinite(raw) and raw >= 0):
        raise SchemaError(f"{where} must be a finite number >= 0, got {raw!r}")
    return raw


def _split_list(raw: str) -> list:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _ints(raw: str) -> tuple:
    return tuple(int(v) for v in _split_list(raw))


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in _split_list(raw))


def _number(section, key: str, parse, default):
    """The key's value read by ``parse`` (``default`` when absent); a value
    that does not parse raises SchemaError naming the section and the key."""
    if key not in section:
        return default
    try:
        return parse(section[key])
    except ValueError as exc:
        raise SchemaError(f"[{section.name}] {key}: {exc}") from None


def _parse_merges(raw: str) -> list:
    merges = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            raise SchemaError(f"merge {part!r} must look like FROM->INTO")
        src, dst = (s.strip() for s in part.split("->", 1))
        merges.append((src, dst))
    return merges


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise SchemaError(f"cannot read config file {path!r}")
    _check_names(parser)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    if "data" not in parser or "csv" not in parser["data"]:
        raise SchemaError("config needs [data] csv = <path>")
    data = parser["data"]
    cfg = RunConfig(csv_path=resolve(data.get("csv")))
    cfg.label_column = data.get("label_column", cfg.label_column)
    cfg.row_type_column = data.get("row_type_column", None)
    cfg.row_type_map_path = resolve(data.get("row_type_map", None))
    cfg.missing_threshold = _number(data, "missing_threshold", float,
                                    cfg.missing_threshold)
    cfg.date_format = data.get("date_format", None) or None

    if "split" in parser:
        split = parser["split"]
        cfg.split_fractions = (_number(split, "train", float, 0.70),
                               _number(split, "val", float, 0.15),
                               _number(split, "test", float, 0.15))

    if "model" in parser:
        model = parser["model"]
        cfg.n_qubits = _number(model, "n_qubits", int, cfg.n_qubits)
        cfg.n_layers = _number(model, "n_layers", int, cfg.n_layers)
        cfg.embedding_axis = model.get("embedding_axis", cfg.embedding_axis)
        cfg.entangler_range = _number(model, "entangler_range", int, cfg.entangler_range)
        cfg.pca_components = _number(model, "pca_components", int, cfg.pca_components)
        cfg.hidden = _number(model, "hidden", _ints, cfg.hidden)
        cfg.hidden_activation = model.get("hidden_activation", cfg.hidden_activation)
        cfg.single_layer_head = model.getboolean("single_layer_head",
                                                 cfg.single_layer_head)

    if "train" in parser:
        train = parser["train"]
        cfg.epochs = _number(train, "epochs", int, cfg.epochs)
        rate = _number(train, "learning_rate", float, cfg.learning_rate)
        cfg.learning_rate = _learning_rate(rate, "[train] learning_rate")
        cfg.batch_size = _number(train, "batch_size", int, cfg.batch_size)
        cfg.seed = _number(train, "seed", int, cfg.seed)
        cfg.smote_k = _number(train, "smote_k", int, cfg.smote_k)

    if "grid" in parser:
        grid = parser["grid"]
        cfg.grid = HyperGrid(
            _number(grid, "n_layers", _ints, (1,)),
            _number(grid, "n_qubits", _ints, (2,)),
            tuple(_learning_rate(v, "[grid] learning_rates")
                  for v in _number(grid, "learning_rates", _floats, (0.01,))),
            _number(grid, "batch_sizes", _ints, (16,)),
            _number(grid, "epochs", _ints, (50,)),
        )
        cfg.cv_folds = _number(grid, "folds", int, cfg.cv_folds)

    if "output" in parser:
        cfg.out_dir = resolve(parser["output"].get("dir", cfg.out_dir))

    for section in parser.sections():
        if not section.startswith("row_type:"):
            continue
        name = section.split(":", 1)[1].strip()
        opts = RowTypeOptions()
        opts.exclude_columns = _split_list(parser[section].get("exclude_columns", ""))
        opts.merges = _parse_merges(parser[section].get("merge_classes", ""))
        cfg.row_types[name] = opts

    return cfg
