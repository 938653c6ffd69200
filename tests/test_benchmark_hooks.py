"""The benchmark's hooks into hyquc resolve: every function its tracer wraps
by name, and ``hybrid.fit``, which its row counter wraps, still exist, and
the counter counts every training row of a run."""
import configparser
import importlib.util
import json
import os

import numpy as np

from hyquc import cli, hybrid
from hyquc.hybrid import TrainConfig
from hyquc.qsim import CircuitSpec

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracing.py")
RUN_CFG = os.path.join(os.path.dirname(__file__), "data", "run.cfg")


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = load_tracing()
    replacements = tracing.Tracer().replacements()
    assert len(replacements) == len(tracing.TARGETS)
    # resolving patches nothing
    assert hybrid.fit.__module__ == "hyquc.hybrid"


def test_fit_row_counter_counts_rows_times_epochs():
    totals = {"rows": 0}
    [(owner, name, counted)] = load_tracing().fit_row_counter(totals)
    assert (owner, name) == (hybrid, "fit")
    rng = np.random.default_rng(0)
    model = hybrid.init_model(CircuitSpec(2, 1), 2, rng)
    # as fit_all calls fit: a stack of one on stacked rows
    data = hybrid.StackedSet(rng.uniform(0, np.pi, (6, 2)), np.array([0, 1] * 3), (6,))
    counted([model], data, None, TrainConfig(2, 0.1, 4))
    assert totals["rows"] == 12


def test_fit_row_counter_counts_every_training_row_of_train(tmp_path):
    totals = {"rows": 0}
    tracing = load_tracing()
    with tracing.patched(tracing.fit_row_counter(totals)):
        assert cli.main(["train", "--config", RUN_CFG, "--out", str(tmp_path)]) == 0
    cfg = configparser.ConfigParser()
    cfg.read(RUN_CFG)
    smoted = 0
    for name in os.listdir(tmp_path):
        if name.startswith("preprocess_"):
            with open(tmp_path / name) as fh:
                smoted += sum(json.load(fh)["counts_after_smote"].values())
    assert smoted > 0
    assert totals["rows"] == smoted * cfg.getint("train", "epochs")
