#!/usr/bin/env python3
"""Benchmark of hyquc's training, grid-search and bulk-scoring paths.

Run from the root of a source checkout; hyquc is imported from ``src/`` and
nothing needs installing:

    python3 benchmark/run.py --workload fixture-train --seed 1 --seconds 20 --trace 0

One invocation runs one workload in its own process: it generates the inputs
from ``--seed``, sets up, repeats the workload's operation for ``--seconds``
(whole operations only), checks every output and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, with set-up and operation
times corrected for the host's speed (see ``Clock``); ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics.
``--workload all`` runs every workload, untraced and traced, each in a
process of its own. See README.md in this directory.
"""
import os
import sys
import time

# fixed BLAS threading (at most nproc): one thread keeps timings steady, and
# the matrix products here are too small to gain from more
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import configparser
import contextlib
import csv
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, "tests", "data")
FIXTURE_CFG = os.path.join(DATA, "run.cfg")
FIXTURE_CSV = os.path.join(DATA, "synth.csv")
FIXTURE_MAP = os.path.join(DATA, "rowtypes.map")
REQUIRED = [os.path.join(ROOT, "src", "hyquc", "cli.py"), FIXTURE_CFG, FIXTURE_CSV,
            FIXTURE_MAP, os.path.join(ROOT, "tools", "make_fixture.py")]

SETUP_REPEATS = 3
PROB_TOL = 1e-9
REFERENCE_NOMINAL_S = 0.12        # about reference_seconds() on the development VM
TRAIN_EPOCHS = 2                  # fixture-train: the fixture config, epochs cut
TRAIN_LEARNING_RATE = 0.1         # and raised so that 2 epochs learn
HOLDOUT_PER_TYPE = 300            # fixture-train held-out rows per row type
MIN_FIXTURE_ACCURACY = 0.90
WIDE_ROWS = 60                    # wide-train training portfolio
WIDE_PORTFOLIO_SEED = 20260101    # fixed, like the committed fixture
WIDE_HOLDOUT = 1000
WIDE_ORACLE_SAMPLE = 48           # dense 1024 x 1024 gates: a sample suffices
SERVING_EPOCHS = 1                # bulk-score: serving models, fixture seed
SERVING_LEARNING_RATE = 0.1
BULK_PER_TYPE = 1_000
BULK_ORACLE_SAMPLE = 500
MIN_BULK_ACCURACY = 0.90


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


if not all(os.path.isfile(p) for p in REQUIRED):
    fail("run from a hyquc source checkout: needs src/hyquc, tests/data and "
         "tools/make_fixture.py")

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from hyquc import cli  # noqa: E402


_REF_STATE = np.random.default_rng(0).standard_normal(1 << 16) * (1 + 0j)


def reference_seconds() -> float:
    """Wall time of a fixed computation that uses no hyquc code: an
    interpreter-bound integer loop, then arithmetic over a 1 MB complex array.
    Run between timed steps, it measures how fast the host runs this process
    at the time."""
    t = time.perf_counter()
    total = 0
    for i in range(1_200_000):
        total += i * i
    state = _REF_STATE
    for _ in range(240):
        state = state * np.exp(0.1j)
    if total != 575999280000200000 or not np.isfinite(state[0]):
        fail("reference computation gave a wrong result")
    return time.perf_counter() - t


class Clock:
    """Times steps, each followed by the reference computation.  A step's
    corrected time is its wall time x REFERENCE_NOMINAL_S / the mean of the
    reference times just before and just after it: its wall time at the
    host speed at which the reference takes REFERENCE_NOMINAL_S."""

    def __init__(self):
        self.refs = [reference_seconds()]

    @contextlib.contextmanager
    def step(self, result: dict):
        t = time.perf_counter()
        yield
        result["wall"] = time.perf_counter() - t
        self.refs.append(reference_seconds())
        result["corrected"] = result["wall"] * REFERENCE_NOMINAL_S / statistics.mean(self.refs[-2:])


def start_cli() -> None:
    """The start-up of one hyquc command line: a fresh interpreter that
    imports the CLI."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import hyquc.cli"], env=env, check=True)


def hyquc(*args) -> int:
    """One hyquc command line, as a user would type it; stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def write_config(path, base: str = None, **sections) -> str:
    """Write an INI config: ``base`` (a config file) overridden by
    ``sections`` (section name -> {key: value})."""
    cfg = configparser.ConfigParser()
    if base:
        cfg.read(base)
    for section, values in sections.items():
        if not cfg.has_section(section):
            cfg.add_section(section)
        for key, value in values.items():
            cfg.set(section, key, str(value))
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def fixture_config(path, **train) -> str:
    return write_config(path, FIXTURE_CFG,
                        data={"csv": FIXTURE_CSV, "row_type_map": FIXTURE_MAP},
                        train=train)


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def artifact_bytes(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_predictions(pred_path, table, code_map, models_dir, sample) -> tuple:
    """Check a ``predict`` output against the generated table; returns
    (ok, accuracy against the generator's labels).

    One line per input row, each ``ok`` and routed to the row type its code
    maps to; probabilities nonnegative, summing to 1, with the predicted class
    their argmax; the rows in ``sample`` match the oracle to PROB_TOL.
    """
    lines = read_csv(pred_path)
    if lines[0] != ["row", "row_type", "status", "predicted_class", "probabilities"] \
            or len(lines) != len(table.rows) + 1:
        return False, 0.0
    ok, correct, probs = True, 0, []
    code = table.header.index(gen.CODE)
    for i, (line, row) in enumerate(zip(lines[1:], table.rows)):
        index, row_type, status, predicted, text = line
        pairs = [item.split("=") for item in text.split(";")] if text else []
        p = np.array([float(v) for _, v in pairs])
        names = [name for name, _ in pairs]
        ok &= (int(index) == i and status == "ok" and row_type == code_map[row[code]]
               and len(p) > 0 and bool(np.all(p >= 0))
               and abs(p.sum() - 1.0) <= PROB_TOL
               and predicted == names[int(np.argmax(p))])
        correct += predicted == table.labels[i]
        probs.append(p)
    by_type = {}
    for i in sample:
        by_type.setdefault(table.row_types[i], []).append(i)
    for row_type, idx in by_type.items():
        doc = oracle.load(os.path.join(models_dir, f"model_{row_type}.json"))
        expected = oracle.probabilities(doc, table.header, [table.rows[i] for i in idx])
        got = np.array([probs[i] for i in idx])
        ok &= got.shape == expected.shape and bool(np.all(np.abs(got - expected) <= PROB_TOL))
    return bool(ok), correct / len(table.rows)


def loss_history_ok(out_dir, epochs: int, must_fall: bool) -> bool:
    """One finite row per epoch; with ``must_fall`` the last epoch's train
    loss is below the first's."""
    files = [f for f in os.listdir(out_dir) if f.startswith("loss_history_")]
    if not files:
        return False
    for name in files:
        rows = read_csv(os.path.join(out_dir, name))[1:]
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        if len(rows) != epochs or not np.all(np.isfinite(values)):
            return False
        if must_fall and not values[-1, 0] < values[0, 0]:
            return False
    return True


@dataclass
class Round:
    out: str
    wall: float
    corrected: float
    codes: list
    rows: int
    tracer: object = None


class Workload:
    """Inputs, the timed operation and its checks for one workload."""

    name = ""
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: str) -> None:
        raise NotImplementedError

    def operation(self, out: str) -> list:
        """Run the operation, writing to ``out``; returns the exit codes."""
        raise NotImplementedError

    def rows(self, counted: int) -> int:
        """Rows pushed through the model; ``counted`` is training rows x
        epochs summed over every fit."""
        return counted

    def check(self, rounds: list) -> tuple:
        """(ok flag per round, holdout accuracy)."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """``train`` with the config's own seed, so that every run trains the same
    models; the workload seed draws the held-out rows.  Every round must write
    the same bytes as the first."""

    min_rounds = 2
    epochs = 0
    min_accuracy = None   # None: the accuracy and loss-fall checks are off
    oracle_sample = None  # None: every held-out row

    def operation(self, out):
        return [hyquc("train", "--config", self.cfg, "--out", out)]

    def check(self, rounds):
        ref = artifact_bytes(rounds[0].out)
        identical = all(artifact_bytes(r.out) == ref for r in rounds)
        # byte-identical rounds serve identical models: score the first
        preds = os.path.join(os.path.dirname(self.cfg), "holdout_predictions.csv")
        code = hyquc("predict", "--model", rounds[0].out, "--input", self.holdout_csv,
                     "--out", preds, "--row-type-map", self.map)
        n = len(self.holdout.rows)
        sample = range(n) if self.oracle_sample is None else \
            np.random.default_rng(self.seed).choice(n, self.oracle_sample, replace=False)
        scored, accuracy = check_predictions(preds, self.holdout, self.code_map,
                                             rounds[0].out, sample)
        if self.min_accuracy is not None:
            scored &= accuracy >= self.min_accuracy
        must_fall = self.min_accuracy is not None
        ok = [identical and scored and code == 0 and r.codes == [0]
              and loss_history_ok(r.out, self.epochs, must_fall) for r in rounds]
        return ok, accuracy


class FixtureTrain(TrainWorkload):
    """The committed fixture and its config, epochs cut to TRAIN_EPOCHS."""

    name = "fixture-train"
    epochs = TRAIN_EPOCHS
    min_accuracy = MIN_FIXTURE_ACCURACY

    def setup(self, work):
        self.cfg = fixture_config(os.path.join(work, "run.cfg"), epochs=self.epochs,
                                  learning_rate=TRAIN_LEARNING_RATE)
        self.map, self.code_map = FIXTURE_MAP, gen.fixture_code_map()
        self.holdout = gen.fixture_table(self.seed, HOLDOUT_PER_TYPE)
        self.holdout_csv = os.path.join(work, "holdout.csv")
        self.holdout.write(self.holdout_csv, labelled=False)


class WideTrain(TrainWorkload):
    """A generated portfolio of one row type whose PCA fills 10 qubits.

    At this width the circuit's outputs barely vary with the input, so a few
    epochs do not learn (see README): the accuracy and loss-fall checks are
    off here and held-out accuracy sits near the 1/3 class share.
    """

    name = "wide-train"
    epochs = 2
    oracle_sample = WIDE_ORACLE_SAMPLE

    def setup(self, work):
        portfolio = os.path.join(work, "wide.csv")
        gen.wide_table(WIDE_PORTFOLIO_SEED, WIDE_ROWS).write(portfolio)
        self.map = os.path.join(work, "wide.map")
        with open(self.map, "w") as fh:
            fh.write(f"{gen.WIDE_CODE} = {gen.WIDE_TYPE}\n")
        self.code_map = {gen.WIDE_CODE: gen.WIDE_TYPE}
        self.cfg = write_config(
            os.path.join(work, "wide.cfg"),
            data={"csv": portfolio, "row_type_map": self.map, "label_column": gen.LABEL,
                  "row_type_column": gen.CODE},
            model={"n_qubits": 10, "n_layers": 2, "pca_components": 10,
                   "hidden": 16, "hidden_activation": "relu"},
            train={"epochs": self.epochs, "learning_rate": 0.3, "batch_size": 16,
                   "seed": 7, "smote_k": 5})
        self.holdout = gen.wide_table(self.seed, WIDE_HOLDOUT)
        self.holdout_csv = os.path.join(work, "holdout.csv")
        self.holdout.write(self.holdout_csv, labelled=False)


class FixtureGridsearch(Workload):
    """``gridsearch`` on the fixture's own [grid], seeded by the workload
    seed; holdout accuracy is the rank-1 mean validation-fold accuracy."""

    name = "fixture-gridsearch"

    def setup(self, work):
        self.cfg = fixture_config(os.path.join(work, "run.cfg"))
        grid = configparser.ConfigParser()
        grid.read(FIXTURE_CFG)
        grid = grid["grid"]

        def values(key, kind):
            return [kind(v) for v in grid[key].split(",") if v.strip()]

        self.combos = sorted(itertools.product(
            values("n_layers", int), values("n_qubits", int),
            values("learning_rates", float), values("batch_sizes", int),
            values("epochs", int)))

    def operation(self, out):
        return [hyquc("gridsearch", "--config", self.cfg, "--seed", self.seed,
                      "--out", out)]

    def _leaderboard_ok(self, out, row_type) -> tuple:
        lines = read_csv(os.path.join(out, f"leaderboard_{row_type}.csv"))[1:]
        entries = [((int(r[1]), int(r[2]), float(r[3]), int(r[4]), int(r[5])),
                    float(r[6]), float(r[7])) for r in lines]
        scores = [(f1, acc) for _, f1, acc in entries]
        winner = configparser.ConfigParser()
        winner.read(os.path.join(out, f"winner_{row_type}.cfg"))
        best = (winner.getint("model", "n_layers"), winner.getint("model", "n_qubits"),
                winner.getfloat("train", "learning_rate"),
                winner.getint("train", "batch_size"), winner.getint("train", "epochs"))
        ok = (sorted(p for p, _, _ in entries) == self.combos
              and [int(r[0]) for r in lines] == list(range(1, len(lines) + 1))
              and all(0.0 <= v <= 1.0 for pair in scores for v in pair)
              and scores == sorted(scores, reverse=True)
              and best == entries[0][0])
        return ok, scores[0][1]

    def check(self, rounds):
        ok, accuracies = [], []
        for r in rounds:
            results = [self._leaderboard_ok(r.out, rt) for rt in gen.FIXTURE_TYPES]
            ok.append(r.codes == [0] and all(good for good, _ in results))
            accuracies.append(statistics.mean(acc for _, acc in results))
        return ok, statistics.median(accuracies)


class BulkScore(Workload):
    """``predict`` over generated rows of both fixture row types, then
    ``evaluate`` per row type on a labelled copy.  The serving models are
    trained in set-up from the fixture with its own seed."""

    name = "bulk-score"

    def setup(self, work):
        self.models = os.path.join(work, "models")
        cfg = fixture_config(os.path.join(work, "serving.cfg"), epochs=SERVING_EPOCHS,
                             learning_rate=SERVING_LEARNING_RATE)
        if hyquc("train", "--config", cfg, "--out", self.models) != 0:
            fail("training the serving models failed")
        self.table = gen.fixture_table(self.seed, BULK_PER_TYPE)
        self.input = os.path.join(work, "bulk.csv")
        self.table.write(self.input, labelled=False)
        self.labelled = {}
        for row_type in gen.FIXTURE_TYPES:
            keep = [i for i, rt in enumerate(self.table.row_types) if rt == row_type]
            path = os.path.join(work, f"labelled_{row_type}.csv")
            self.table.write(path, keep=keep)
            self.labelled[row_type] = (path, keep)

    def operation(self, out):
        os.makedirs(out)
        codes = [hyquc("predict", "--model", self.models, "--input", self.input,
                       "--out", os.path.join(out, "predictions.csv"),
                       "--row-type-map", FIXTURE_MAP)]
        for row_type, (path, _) in self.labelled.items():
            codes.append(hyquc("evaluate", "--model",
                               os.path.join(self.models, f"model_{row_type}.json"),
                               "--data", path,
                               "--out", os.path.join(out, f"report_{row_type}.json")))
        return codes

    def rows(self, counted):
        return 2 * len(self.table.rows)

    def check(self, rounds):
        n = len(self.table.rows)
        sample = np.random.default_rng(self.seed).choice(n, BULK_ORACLE_SAMPLE, replace=False)
        ok, accuracies = [], []
        for r in rounds:
            pred_path = os.path.join(r.out, "predictions.csv")
            good, accuracy = check_predictions(pred_path, self.table,
                                               gen.fixture_code_map(), self.models, sample)
            predicted = [line[3] for line in read_csv(pred_path)[1:]]
            for row_type, (_, keep) in self.labelled.items():
                with open(os.path.join(r.out, f"report_{row_type}.json")) as fh:
                    report = json.load(fh)
                hits = sum(predicted[i] == self.table.labels[i] for i in keep)
                good &= (sum(c["support"] for c in report["per_class"]) == len(keep)
                         and abs(report["accuracy"] - hits / len(keep)) <= 1e-12)
            ok.append(good and accuracy >= MIN_BULK_ACCURACY and r.codes == [0, 0, 0])
            accuracies.append(accuracy)
        return ok, statistics.median(accuracies)


WORKLOADS = {w.name: w for w in (FixtureTrain, WideTrain, FixtureGridsearch, BulkScore)}


def timed_round(workload, out, traced: bool, clock: Clock) -> Round:
    totals, timing = {"rows": 0}, {}
    tracer = tracing.Tracer() if traced else None
    with tracing.patched(tracing.fit_row_counter(totals)), \
            tracing.patched(tracer.replacements() if traced else []):
        with clock.step(timing):
            codes = workload.operation(out)
    return Round(out, timing["wall"], timing["corrected"], codes,
                 workload.rows(totals["rows"]), tracer)


def per_layer(rounds) -> dict:
    """Per-layer figures per operation: means over the traced rounds."""
    traced = [r for r in rounds if r.tracer is not None]
    untraced_wall = statistics.median(r.wall for r in rounds if r.tracer is None)
    figures = [r.tracer.metrics() for r in traced]
    out = {k: statistics.mean(f[k] for f in figures) for k in figures[0]}
    wall = statistics.mean(r.wall for r in traced)
    attributed = sum(out[f"{layer}.s"] for layer in tracing.LAYERS)
    out.update({"trace.wall.s": wall, "trace.attributed.s": attributed,
                "trace.unattributed.s": wall - attributed,
                "trace.overhead.s": wall - untraced_wall})
    return out


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".rows") or name.endswith(".rows_out"):
        return "rows"
    if name.endswith(".s"):
        return "s"
    return "count"


def run(workload: Workload, seconds: int, traced: bool) -> dict:
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{workload.seed}-{os.getpid()}")
    try:
        clock, setups = Clock(), []
        for k in range(SETUP_REPEATS):
            directory = os.path.join(work, f"setup{k}")
            os.makedirs(directory)
            timing = {}
            with clock.step(timing):
                workload.setup(directory)
                start_cli()
            setups.append(timing)
        rounds = []
        deadline = time.perf_counter() + seconds
        min_rounds = max(workload.min_rounds, 2 if traced else 1)
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            out = os.path.join(work, f"round{len(rounds)}")
            rounds.append(timed_round(workload, out, traced and len(rounds) % 2 == 1, clock))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            ok, accuracy = workload.check(rounds)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # missing or malformed outputs: every operation counts as failed
            print(f"benchmark: outputs unreadable: {exc!r}", file=sys.stderr)
            ok, accuracy = [False] * len(rounds), 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in rounds if r.tracer is None]
    print(f"uncorrected: setup {statistics.median(t['wall'] for t in setups):.4g} s, "
          f"operation {statistics.median(r.wall for r in timed):.4g} s; corrected: "
          f"operation {statistics.median(r.corrected for r in timed):.4g} s; reference "
          f"{min(clock.refs):.4g}-{max(clock.refs):.4g} s (nominal {REFERENCE_NOMINAL_S} s)")
    if traced:
        metrics = {name: (value, unit(name)) for name, value in per_layer(rounds).items()}
    else:
        metrics = {
            "setup_s": (statistics.median(t["corrected"] for t in setups), "s"),
            "wall_s": (statistics.median(r.corrected for r in timed), "s"),
            "rows_per_s": (statistics.median(r.rows / r.corrected for r in timed), "rows/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "holdout_accuracy": (accuracy, "fraction"),
        }
    failed = ok.count(False)
    return {"correct": failed == 0, "attempted": len(ok), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    status = 0
    for name in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(f"== {name} trace={traced}")
            print(proc.stdout, end="")
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  attempted {result['attempted']}"
          f"  failed {result['failed']}  blas threads {BLAS_THREADS}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
