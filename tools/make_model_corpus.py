#!/usr/bin/env python3
"""Write the committed model-file corpus into tests/data/models/.

Each entry is a directory holding one trained model file (``model.json``),
the ``predict`` output of ``input.csv`` scored with the fixture's row-type
map (``predict.csv``) and the ``evaluate`` report of ``input.csv``
(``evaluate.json``).  ``input.csv`` is the first 20 rows of the fixture, so
it holds both row types and both agriculture codes.  Every model is trained
from the committed fixture and ``tests/data/run.cfg``, with the entry's
settings changed, so reruns write the same bytes on one machine.  The
``row_type_codes`` entry keeps the codes its file records, so its
``evaluate`` report covers only its own row type's rows.

The committed ``x_embedding`` entry is not written here: its model embeds
with RX, which no new model does, and it was written at commit 0c7cbd7.  It
is kept as an old file, the case the corpus exists to check; it loads as
the RY model it equals.

tests/test_corpus.py scores every entry and compares with what is stored
here; it never runs this tool.  Run from the repository root:

    PYTHONPATH=src python3 tools/make_model_corpus.py
"""
import contextlib
import dataclasses
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "tests", "data")
OUT = os.path.join(DATA, "models")
INPUT_ROWS = 20

from hyquc import cli, serialize  # noqa: E402
from hyquc.config import load_config  # noqa: E402


def settings(**values):
    return lambda cfg: dataclasses.replace(cfg, **values)


RUN_CFG = settings()


# entry name -> (edit of the run.cfg settings, the row type whose model is
# kept, whether the file keeps its pipeline.row_type_codes key).  The entries
# written before the key existed are written without it, as they were then.
ENTRIES = {
    "runcfg_agriculture": (RUN_CFG, "agriculture", False),
    "runcfg_personal": (RUN_CFG, "personal", False),
    "sigmoid_two_hidden": (settings(hidden=(8, 6), hidden_activation="sigmoid"), "personal",
                           False),
    "wide_10q_3l": (settings(n_qubits=10, n_layers=3, pca_components=10, epochs=5),
                    "agriculture", False),
    "row_type_codes": (RUN_CFG, "agriculture", True),
}


def write_input():
    with open(os.path.join(DATA, "synth.csv"), encoding="utf-8") as fh:
        lines = fh.readlines()[:INPUT_ROWS + 1]
    with open(os.path.join(OUT, "input.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def train(edit, work) -> str:
    """The directory of ``train`` on run.cfg with ``edit`` applied."""
    cfg = edit(load_config(os.path.join(DATA, "run.cfg")))
    cfg.out_dir = tempfile.mkdtemp(dir=work)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_train(cfg)
    return cfg.out_dir


def write_entry(name, trained_dir, row_type, codes):
    entry = os.path.join(OUT, name)
    os.makedirs(entry, exist_ok=True)
    model = os.path.join(entry, "model.json")
    trained, pipe = serialize.load_model(os.path.join(trained_dir, f"model_{row_type}.json"))
    if not codes:
        pipe.row_type_codes = None
    serialize.save_model(model, trained, pipe)
    data = os.path.join(OUT, "input.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["predict", "--model", model, "--input", data,
                  "--row-type-map", os.path.join(DATA, "rowtypes.map"),
                  "--out", os.path.join(entry, "predict.csv")])
        if cli.main(["evaluate", "--model", model, "--data", data,
                     "--out", os.path.join(entry, "evaluate.json")]) != 0:
            sys.exit(f"evaluate of {name} failed")


def main():
    os.makedirs(OUT, exist_ok=True)
    write_input()
    with tempfile.TemporaryDirectory() as work:
        runs = {}  # entries with one edit share its training run
        for name, (edit, row_type, codes) in ENTRIES.items():
            if edit not in runs:
                runs[edit] = train(edit, work)
            write_entry(name, runs[edit], row_type, codes)


if __name__ == "__main__":
    main()
