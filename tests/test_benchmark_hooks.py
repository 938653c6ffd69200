"""The benchmark's hooks into hyquc resolve: every function its tracer wraps
by name, and ``hybrid.fit``, which its row counter wraps, still exist."""
import importlib.util
import os

import numpy as np

from hyquc import hybrid
from hyquc.hybrid import TrainConfig
from hyquc.qsim import CircuitSpec

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracing.py")


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
    data = (rng.uniform(0, np.pi, (6, 2)), np.array([0, 1] * 3))
    counted(model, data, None, TrainConfig(2, 0.1, 4))
    assert totals["rows"] == 12
