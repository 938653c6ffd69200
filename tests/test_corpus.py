"""The committed model-file corpus (tests/data/models/, written by
tools/make_model_corpus.py) still scores as it did when it was written.

Each entry's model file is scored with ``predict`` and ``evaluate`` on the
corpus input and compared with the stored output: text exactly, and each
probability and report float to ``rel_tol=1e-12``, since the BLAS kernels
(and so the last bits) depend on the CPU.  The corpus is never regenerated
here."""
import csv
import io
import json
import math
import os

import pytest

from hyquc import cli

CORPUS = os.path.join(os.path.dirname(__file__), "data", "models")
ROW_TYPE_MAP = os.path.join(os.path.dirname(__file__), "data", "rowtypes.map")
ENTRIES = sorted(name for name in os.listdir(CORPUS)
                 if os.path.isdir(os.path.join(CORPUS, name)))


def assert_close(got, want, where="report"):
    """``got`` equals ``want`` with each float within ``rel_tol=1e-12``."""
    assert type(got) is type(want), where
    if type(want) is float:
        assert math.isclose(got, want, rel_tol=1e-12), (where, got, want)
    elif type(want) is dict:
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif type(want) is list:
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def probabilities(field: str) -> list:
    """``[name, probability]`` pairs of a ``predict`` probabilities field."""
    return [[name, float(p)] for name, p in
            (item.rsplit("=", 1) for item in field.split(";"))] if field else []


def test_corpus_is_not_empty():
    assert len(ENTRIES) >= 6


@pytest.mark.parametrize("name", ENTRIES)
def test_entry_scores_as_stored(name, tmp_path, capsys):
    entry = os.path.join(CORPUS, name)
    model, data = os.path.join(entry, "model.json"), os.path.join(CORPUS, "input.csv")

    out = tmp_path / "predict.csv"
    rc = cli.main(["predict", "--model", model, "--input", data,
                   "--row-type-map", ROW_TYPE_MAP, "--out", str(out)])
    with open(os.path.join(entry, "predict.csv")) as fh:
        want = list(csv.reader(fh))
    got = list(csv.reader(io.StringIO(out.read_text())))
    assert rc == (2 if any(row[2] == "no_model" for row in want[1:]) else 0)
    assert got[0] == want[0]
    assert [row[:4] for row in got] == [row[:4] for row in want]
    for g, w in zip(got[1:], want[1:]):
        assert_close(probabilities(g[4]), probabilities(w[4]), f"row {w[0]}")

    out = tmp_path / "evaluate.json"
    assert cli.main(["evaluate", "--model", model, "--data", data, "--out", str(out)]) == 0
    with open(os.path.join(entry, "evaluate.json")) as fh:
        assert_close(json.loads(out.read_text()), json.load(fh))
    assert capsys.readouterr().err == ""
