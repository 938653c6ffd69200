"""Command-line entry point: train, gridsearch, evaluate, predict.

Artifacts are written atomically; a (config, seed) pair reproduces every
emitted number byte-for-byte.
"""
from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from . import hybrid, metrics, pipeline as pl, serialize
from .config import RunConfig, _seed, _unknown, load_config
from .errors import SchemaError, ShapeError, prefixed
from .hybrid import TrainConfig

log = logging.getLogger("hyquc")

LOSS_CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"


def _row_type_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _safe_name(row_type: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", row_type) or "default"


def _fit_pipeline(raw: pl.TabularDataset, row_type: str, cfg: RunConfig, seed: int,
                  components: int, width: int):
    """Fit the row type's preprocessing with the run config's settings."""
    opts = cfg.options_for(row_type)
    return pl.RowTypePipeline.fit(
        raw, row_type, seed=seed, components=components, width=width,
        split_fractions=cfg.split_fractions, missing_threshold=cfg.missing_threshold,
        exclude_columns=opts.exclude_columns, merges=opts.merges,
        date_format=cfg.date_format)


class _Prepared(NamedTuple):
    """A row type ready to train: its fitted preprocessing, its training and
    test splits and the training run of its fresh model, which holds the
    SMOTE'd training rows and the validation split."""

    seed: int
    pipe: pl.RowTypePipeline
    report: pl.PreprocessReport
    train: pl.RowTypeDataset
    test: pl.RowTypeDataset
    job: hybrid.FitJob


def _prepare(raw: pl.TabularDataset, row_type: str, cfg: RunConfig, seed: int) -> _Prepared:
    """Preprocess a row type, SMOTE its training split and initialise its model."""
    pipe, report, train_ds, val_ds, test_ds = _fit_pipeline(
        raw, row_type, cfg, seed, components=cfg.pca_components, width=cfg.n_qubits)
    report.counts_before_smote = train_ds.class_counts()
    train_aug = pl.smote_oversample(train_ds, cfg.smote_k, seed)
    report.counts_after_smote = train_aug.class_counts()

    model = cfg.new_model(pipe.n_components, cfg.n_layers, len(pipe.class_names),
                          np.random.default_rng(seed))
    tconf = TrainConfig(cfg.epochs, cfg.learning_rate, cfg.batch_size, rng_seed=seed)
    return _Prepared(seed, pipe, report, train_ds, test_ds,
                     hybrid.FitJob(model, train_aug, val_ds, tconf, f"row type {row_type!r}"))


def _report(ds: pl.RowTypeDataset, probs, extra: dict) -> metrics.MetricsReport:
    """The metrics report of class probabilities ``probs`` for the rows of
    ``ds``, each predicted as its likeliest class (ties to the lowest index)."""
    preds = np.argmax(probs, axis=1)
    cm = metrics.confusion_matrix(ds.y, preds, len(ds.class_names), ds.class_names)
    return metrics.build_report(cm, probs, ds.y, extra=extra)


def _assess(prep: _Prepared, model, history, cfg: RunConfig):
    """The evaluation report of a trained row type on its three splits; the
    validation scores are those its fit's last epoch gave (``history[-1]``)."""
    train_loss, train_acc, _ = hybrid.evaluate(model, prep.train.X, prep.train.y)
    test_loss, test_acc, probs = hybrid.evaluate(model, prep.test.X, prep.test.y)
    return _report(prep.test, probs, extra={
        "train_accuracy": train_acc,
        "val_accuracy": history[-1].val_accuracy,
        "test_accuracy": test_acc,
        "train_loss": train_loss,
        "val_loss": history[-1].val_loss,
        "test_loss": test_loss,
        "seed": prep.seed,
        "split_fractions": list(cfg.split_fractions),
    })


def fit_row_type(raw: pl.TabularDataset, row_type: str, cfg: RunConfig, seed: int):
    """Full per-row-type training: preprocess, SMOTE the training split, fit,
    evaluate on validation and test.  The fit is a stack of one of the path
    :func:`cmd_train` takes for every row type at once."""
    prep = _prepare(raw, row_type, cfg, seed)
    [(model, history)] = hybrid.fit_all([prep.job])
    return model, prep.pipe, history, _assess(prep, model, history, cfg), prep.report


def _loss_csv(history) -> str:
    lines = [LOSS_CSV_HEADER]
    for i, rec in enumerate(history, 1):
        lines.append(f"{i},{rec.train_loss!r},{rec.train_accuracy!r},"
                     f"{rec.val_loss!r},{rec.val_accuracy!r}")
    return "\n".join(lines) + "\n"


def _load_partitions(cfg: RunConfig):
    data = pl.load_csv(cfg.csv_path, cfg.label_column, cfg.row_type_column)
    partitions = {"default": data}
    if cfg.row_type_column is not None:
        code_map = (pl.load_row_type_map(cfg.row_type_map_path)
                    if cfg.row_type_map_path else None)
        partitions = pl.partition_by_row_type(data, code_map)
    # a typo'd [row_type:NAME] section would otherwise be silently ignored
    for name in cfg.row_types:
        if name not in partitions:
            raise _unknown(f"row type in [row_type:{name}]", name, sorted(partitions))
    tags = {}
    for row_type in sorted(partitions):
        other = tags.setdefault(_safe_name(row_type), row_type)
        if other != row_type:
            raise SchemaError(f"row types {other!r} and {row_type!r} would overwrite "
                              f"each other's artifact files *_{_safe_name(row_type)}.*")
    return partitions


def _set_up(cfg: RunConfig, prepare) -> dict:
    """Row type -> ``prepare(raw, row_type, cfg, seed)``, called for every row
    type in sorted order with its seed; an error names the row type."""
    partitions = _load_partitions(cfg)
    prepared = {}
    for i, row_type in enumerate(sorted(partitions)):
        with prefixed(f"row type {row_type!r}"):
            prepared[row_type] = prepare(partitions[row_type], row_type, cfg,
                                         _row_type_seed(cfg.seed, i))
    return prepared


def cmd_train(cfg: RunConfig) -> int:
    """Prepare every row type, train them all (row types of one model layout
    in lockstep, see :func:`hybrid.fit_all`), then evaluate each and write
    its artifacts; a row type whose set-up fails stops the run before any
    training and creates no output directory."""
    prepared = _set_up(cfg, _prepare)
    os.makedirs(cfg.out_dir, exist_ok=True)
    fits = hybrid.fit_all([prep.job for prep in prepared.values()])
    for (row_type, prep), (model, history) in zip(prepared.items(), fits):
        rep = _assess(prep, model, history, cfg)
        _write_artifacts(cfg.out_dir, row_type, model, prep.pipe, history, rep, prep.report)
        print(f"[{row_type}] test accuracy {rep.accuracy:.4f}, "
              f"val accuracy {rep.extra['val_accuracy']:.4f}")
    return 0


def _write_artifacts(out_dir: str, row_type: str, model, pipe, history, rep, report):
    """A trained row type's model, metrics, loss history and preprocessing audit."""
    tag = _safe_name(row_type)
    serialize.save_model(os.path.join(out_dir, f"model_{tag}.json"), model, pipe)
    serialize.atomic_write_text(os.path.join(out_dir, f"metrics_{tag}.json"), rep.to_json())
    serialize.atomic_write_text(
        os.path.join(out_dir, f"loss_history_{tag}.csv"), _loss_csv(history))
    serialize.atomic_write_text(os.path.join(out_dir, f"preprocess_{tag}.json"),
                                json.dumps(report.to_dict(), indent=2))


def _prepare_search(raw: pl.TabularDataset, row_type: str, cfg: RunConfig, seed: int):
    """A row type's grid: its (combination, fold) jobs, named by the row type,
    and their ranking (see :func:`hybrid.grid_jobs`)."""
    width = max(cfg.grid.n_qubits_choices)
    pipe, _, train_ds, _, _ = _fit_pipeline(raw, row_type, cfg, seed,
                                            components=width, width=width)
    if train_ds.X.shape[1] < width:
        raise ShapeError(f"only {train_ds.X.shape[1]} components available for a "
                         f"{width}-qubit grid choice")

    def augment(X, y):
        # one neighbour table per fold and width serves every combination's draw
        ds = pl.RowTypeDataset(X, y, pipe.class_names)
        table = pl.smote_neighbors(ds, cfg.smote_k)

        def draw(s):
            out = pl.smote_oversample(ds, cfg.smote_k, s, table)
            return out.X, out.y

        return draw

    jobs, rank = hybrid.grid_jobs(cfg.grid, train_ds, cfg.cv_folds, seed, augment,
                                  cfg.new_model)
    return [job._replace(name=f"row type {row_type!r}: {job.name}") for job in jobs], rank


def cmd_gridsearch(cfg: RunConfig) -> int:
    """:func:`cmd_train`'s path for the grid: set up every row type, train all
    their fits at once, then rank each row type and write its results."""
    if cfg.grid is None:
        raise SchemaError("config has no [grid] section")
    grids = _set_up(cfg, _prepare_search)
    os.makedirs(cfg.out_dir, exist_ok=True)
    fits = iter(hybrid.fit_all([job for jobs, _ in grids.values() for job in jobs]))
    for row_type, (jobs, rank) in grids.items():
        best, leaderboard = rank([next(fits) for _ in jobs])
        _write_grid(cfg.out_dir, row_type, best, leaderboard)
        print(f"[{row_type}] best: {best}")
    return 0


def _write_grid(out_dir: str, row_type: str, best: dict, leaderboard) -> None:
    """A row type's grid-search leaderboard and winning settings."""
    tag = _safe_name(row_type)
    lines = [",".join(["rank", *best, "mean_val_macro_f1", "mean_val_accuracy"])]
    for rank, res in enumerate(leaderboard, 1):
        lines.append(",".join(map(repr, [rank, *res.params.values(),
                                         res.mean_val_macro_f1, res.mean_val_accuracy])))
    serialize.atomic_write_text(os.path.join(out_dir, f"leaderboard_{tag}.csv"),
                                "\n".join(lines) + "\n")
    winner = ("[model]\n"
              f"n_qubits = {best['n_qubits']}\n"
              f"n_layers = {best['n_layers']}\n\n"
              "[train]\n"
              f"epochs = {best['epochs']}\n"
              f"learning_rate = {best['learning_rate']!r}\n"
              f"batch_size = {best['batch_size']}\n")
    serialize.atomic_write_text(os.path.join(out_dir, f"winner_{tag}.cfg"), winner)


def cmd_evaluate(model_path: str, data_path: str, out_path: str = None) -> int:
    """Report one model file on its routed rows, or every row if it records no
    codes; the rows left out, if any, are logged once the report is written."""
    if os.path.isdir(model_path):
        raise SchemaError(f"{model_path!r} is a directory; evaluate takes one "
                          "model_<type>.json file")
    models = _load_models(model_path)
    [(row_type, (_, model, pipe))] = models.items()
    data = pl.load_csv(data_path, pipe.label_column)
    routes = ({row_type: list(range(len(data)))} if pipe.row_type_codes is None
              else _routes(models, data))
    idxs = routes.get(row_type)
    if idxs is None:
        raise SchemaError(f"no row of {data_path} has a {pipe.row_type_column!r} code "
                          f"that {model_path} records, {pipe.row_type_codes}")
    with prefixed(f"row type {row_type!r}"):  # an error names the input row
        ds = pipe.transform(data.take(idxs), rows=idxs)
    _, acc, probs = hybrid.evaluate(model, ds.X, ds.y)
    text = _report(ds, probs, extra={"test_accuracy": acc}).to_json()
    if out_path:
        serialize.atomic_write_text(out_path, text)
    print(text)
    if len(idxs) < len(data):
        log.info("%d of %d rows left out: %s records none of their %r codes, %s",
                 len(data) - len(idxs), len(data), model_path, pipe.row_type_column,
                 ", ".join(map(repr, sorted(set(routes) - {row_type}))))
    return 0


def _load_models(model_path: str) -> dict:
    """Row type -> (path, model, pipeline) of one model file or of a
    directory's model_*.json files, which must hold one model per row type
    and name one row-type column."""
    if os.path.isdir(model_path):
        paths = sorted(glob.glob(os.path.join(model_path, "model_*.json")))
        if not paths:
            raise SchemaError(f"no model_*.json files in {model_path!r}")
    else:
        paths = [model_path]
    loaded = [(path, *serialize.load_model(path)) for path in paths]
    column = loaded[0][2].row_type_column
    models = {}
    for path, model, pipe in loaded:
        if pipe.row_type_column != column:
            raise SchemaError(f"{paths[0]} and {path} name different row-type columns, "
                              f"{column!r} and {pipe.row_type_column!r}")
        if pipe.row_type in models:
            raise SchemaError(f"{models[pipe.row_type][0]} and {path} both hold a model "
                              f"for row type {pipe.row_type!r}")
        models[pipe.row_type] = path, model, pipe
    return models


def _routes(models: dict, data: pl.TabularDataset, code_map: dict = None) -> dict:
    """Row type -> its row indices in ``data``, the one rule for which loaded
    model scores a row.  A code maps through ``code_map`` or else through the
    codes the files record (no two files may record one); an unmapped code is
    its own row type.  With no row-type column, one model takes every row."""
    column = next(iter(models.values()))[2].row_type_column
    if column not in data.column_names:
        if len(models) > 1:
            raise SchemaError(f"input has no {column!r} column and multiple models are loaded")
        return {next(iter(models)): list(range(len(data)))}
    if code_map is None:
        code_map = {}
        for row_type, (path, _, pipe) in models.items():
            for code in pipe.row_type_codes or ():
                if code_map.setdefault(code, row_type) != row_type:
                    raise SchemaError(f"{models[code_map[code]][0]} and {path} both record "
                                      f"the row-type code {code!r}")
    return pl.route_rows(data, column, code_map)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where csv.QUOTE_MINIMAL quotes it."""
    return '"%s"' % text.replace('"', '""') if re.search('[,"\r\n]', text) else text


def _scored_fields(row_type: str, class_names, probs) -> list:
    """The row_type, status, predicted_class and probabilities fields of each
    scored row, formatted a class column at a time; argmax ties go to the
    lowest class index."""
    names = [_csv_field(name) for name in class_names]
    cols = [map(f"{name}=".__add__, map(repr, col))
            for name, col in zip(class_names, probs.T.tolist())]
    probs_text = map(";".join, zip(*cols))
    if names != class_names:  # a name that needs quotes quotes the field
        probs_text = map(_csv_field, probs_text)
    head = f"{_csv_field(row_type)},ok,"
    return [f"{head}{names[k]},{text}"
            for k, text in zip(np.argmax(probs, axis=1).tolist(), probs_text)]


def cmd_predict(model_path: str, input_path: str, out_path: str = None,
                row_type_map_path: str = None) -> int:
    models = _load_models(model_path)
    data = pl.load_csv(input_path, None)
    code_map = pl.load_row_type_map(row_type_map_path) if row_type_map_path else None
    by_type = _routes(models, data, code_map)

    lines = [None] * len(data)
    for rt, idxs in sorted(by_type.items()):
        fields = [f"{_csv_field(rt)},no_model,,"] * len(idxs)
        if rt in models:
            _, model, pipe = models[rt]
            # an error names the input row, as the output does
            with prefixed(f"row type {rt!r}"):
                X = pipe.transform_features(data.take(idxs), rows=idxs)
            fields = _scored_fields(rt, pipe.class_names, hybrid.forward_probs(model, X))
        for i, text in zip(idxs, fields):
            lines[i] = f"{i},{text}"
    text = "\n".join(["row,row_type,status,predicted_class,probabilities", *lines]) + "\n"
    if out_path:
        serialize.atomic_write_text(out_path, text)
    else:
        print(text, end="")
    return 0 if set(by_type) <= set(models) else 2


def _seed_flag(raw: str) -> int:
    """``--seed``'s value, refused by argparse like a config file's seed."""
    try:
        return _seed(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# built by the first main call of a process: parse_args keeps no state
# between calls, so one parser serves them all
_PARSER = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyquc",
        description="Per-row-type hybrid quantum-classical tabular classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "gridsearch"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=_seed_flag, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("evaluate")
    p.add_argument("--model", required=True, action="append")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("predict")
    p.add_argument("--model", required=True, action="append",
                   help="model file or a directory of model_*.json files")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--row-type-map", default=None)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.command in ("train", "gridsearch"):
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.out is not None:
                cfg.out_dir = args.out
            return cmd_train(cfg) if args.command == "train" else cmd_gridsearch(cfg)
        if len(args.model) > 1:  # each command scores one model file or directory
            raise SchemaError(f"--model may be given once, not for each of "
                              f"{', '.join(map(repr, args.model))}")
        if args.command == "evaluate":
            return cmd_evaluate(args.model[0], args.data, args.out)
        return cmd_predict(args.model[0], args.input, args.out, args.row_type_map)
    except (ValueError, OSError) as exc:  # every hyquc error is a ValueError
        print(f"hyquc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
