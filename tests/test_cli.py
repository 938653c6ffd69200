"""Command-line workflows: config parsing, artifact layout, determinism and
exit codes."""
import configparser
import csv
import json
import os
import re

import numpy as np
import pytest

from hyquc import cli, hybrid, pipeline as pl, serialize
from hyquc.config import SCHEMA, load_config
from hyquc.errors import SchemaError
from hyquc.pipeline import TabularDataset

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

CONFIG_TEMPLATE = """\
[data]
csv = data.csv
label_column = grade
row_type_column = SEGCD

[split]
train = 0.70
val = 0.15
test = 0.15

[model]
n_qubits = 2
n_layers = 1
pca_components = 2
hidden = 8
hidden_activation = relu

[train]
epochs = 25
learning_rate = 0.1
batch_size = 8
seed = 3
smote_k = 2

[grid]
n_layers = 1
n_qubits = 2
learning_rates = 0.05
batch_sizes = 8
epochs = 1
folds = 2
"""


def write_dataset(path):
    """Two row types, three mildly imbalanced well-separated classes."""
    rng = np.random.default_rng(42)
    centers = {"g1": (0.2, 0.2), "g2": (1.5, 1.5), "g3": (2.8, 0.4)}
    lines = ["SEGCD,grade,F1,F2"]
    for seg in ("T1", "T2"):
        for label, n in (("g1", 24), ("g2", 18), ("g3", 18)):
            cx, cy = centers[label]
            for _ in range(n):
                x = cx + rng.normal(0, 0.15)
                y = cy + rng.normal(0, 0.15)
                lines.append(f"{seg},{label},{x:.4f},{y:.4f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cliwork")
    write_dataset(d / "data.csv")
    (d / "run.cfg").write_text(CONFIG_TEMPLATE)
    return d


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "trained"
    rc = cli.main(["train", "--config", str(workdir / "run.cfg"),
                   "--out", str(out)])
    assert rc == 0
    return out


def train_with(tmp_path, data, extra=""):
    """Exit code of ``hyquc train`` on ``data`` with the template config plus
    ``extra``, writing to ``tmp_path / "out"``."""
    p = tmp_path / "extra.cfg"
    p.write_text(CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {data}") + extra)
    return cli.main(["train", "--config", str(p), "--out", str(tmp_path / "out")])


class TestConfigLoading:
    def test_committed_fixture_config(self):
        cfg = load_config(os.path.join(DATA_DIR, "run.cfg"))
        assert cfg.label_column == "grade"
        assert cfg.row_type_column == "SEGCD"
        assert cfg.n_qubits == 5 and cfg.n_layers == 2
        assert cfg.epochs == 50 and cfg.learning_rate == 0.01
        assert os.path.isabs(cfg.csv_path)
        assert os.path.exists(cfg.csv_path)

    def test_grid_section(self, workdir):
        cfg = load_config(str(workdir / "run.cfg"))
        assert cfg.grid is not None
        assert cfg.grid.n_layers_choices == (1,)
        assert cfg.grid.learning_rates == (0.05,)
        assert cfg.cv_folds == 2

    def test_row_type_section(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE + "\n[row_type:T1]\n"
                     "exclude_columns = A, B\n"
                     "merge_classes = g3->g2; g2->g1\n")
        cfg = load_config(str(p))
        opts = cfg.options_for("T1")
        assert opts.exclude_columns == ["A", "B"]
        assert opts.merges == [("g3", "g2"), ("g2", "g1")]
        assert cfg.options_for("T2").merges == []

    def test_malformed_merge(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE + "\n[row_type:T1]\nmerge_classes = g3:g2\n")
        with pytest.raises(SchemaError):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(SchemaError):
            load_config("/nonexistent/nope.cfg")

    def test_missing_csv_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[data]\nlabel_column = x\n")
        with pytest.raises(SchemaError):
            load_config(str(p))

    @pytest.mark.parametrize("old, new, message", [
        ("n_qubits = 2", "n_qubits = five", r"^\[model\] n_qubits: .*'five'"),
        ("learning_rate = 0.1", "learning_rate = fast",
         r"^\[train\] learning_rate: .*'fast'"),
        ("hidden = 8", "hidden = 8, x", r"^\[model\] hidden: .*'x'"),
        ("n_layers = 1", "n_layers = 1\nembedding_axis = y",
         r"^\[model\] embedding_axis: .*'y'"),
        ("n_layers = 1", "n_layers = 1\nsingle_layer_head = maybe",
         r"^\[model\] single_layer_head: .*'maybe'"),
        ("hidden_activation = relu", "hidden_activation = tanh",
         r"^\[model\] hidden_activation: .*'tanh'"),
    ])
    def test_bad_number_names_section_and_key(self, tmp_path, old, new, message):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(old, new, 1))
        with pytest.raises(SchemaError, match=message):
            load_config(str(p))

    def test_readme_example_loads(self, tmp_path):
        with open(os.path.join(DATA_DIR, "..", "..", "README.md")) as fh:
            block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        cfg = load_config(str(p))
        assert cfg.hidden == (8, 8) and cfg.hidden_activation == "sigmoid"
        assert cfg.row_type_map_path == str(tmp_path / "codes.map")
        assert cfg.grid.n_qubits_choices == (2, 3, 4)
        assert cfg.options_for("personal").merges == [("Loss", "Doubtful")]
        assert cfg.date_format == "%Y-%m-%d"  # %% is a literal %
        # the example shows every key of the schema once
        ini = configparser.ConfigParser()
        ini.read_string(block)
        shown = {("row_type:NAME" if section.startswith("row_type:") else section, key)
                 for section in ini.sections() for key in ini[section]}
        assert shown == {(section, key) for section, keys in SCHEMA.items() for key in keys}

    @pytest.mark.parametrize("old, new, message", [
        ("learning_rate = 0.1", "learning_rat = 0.5",
         r"unknown key in \[train\] 'learning_rat'; did you mean 'learning_rate'\?"),
        ("[train]", "[trian]", r"unknown section 'trian'; did you mean 'train'\?"),
        ("folds = 2", "folds = 2\n[row_type:T1]\nexclude_column = F2",
         r"unknown key in \[row_type:T1\] 'exclude_column'; "
         r"did you mean 'exclude_columns'\?"),
    ])
    def test_typo_names_nearest_valid_name(self, tmp_path, old, new, message):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(old, new))
        with pytest.raises(SchemaError, match=message):
            load_config(str(p))

    @pytest.mark.parametrize("section, key, value, message", [
        ("model", "n_qubits", "0", None), ("model", "n_layers", "0", None),
        ("model", "pca_components", "0", None), ("model", "entangler_range", "0", None),
        ("train", "epochs", "0", None), ("train", "batch_size", "0", None),
        ("train", "smote_k", "0", None),
        ("model", "hidden", "8, -1", r"^\[model\] hidden: hidden must be an integer >= 0"),
        ("grid", "n_layers", "1, 0", None), ("grid", "n_qubits", "0, 2", None),
        ("grid", "batch_sizes", "8, -1", None), ("grid", "epochs", "0", None),
        ("grid", "folds", "1", "folds must be an integer >= 2"),
        ("grid", "n_layers", "", r"^\[grid\] n_layers: n_layers must list at least one"),
        ("data", "missing_threshold", "0", r"must be a number in \(0, 1\]"),
        ("data", "missing_threshold", "1.5", r"must be a number in \(0, 1\]"),
        ("split", "train", "0.8", r"^\[split\] fractions must sum to 1"),
        ("split", "test", "nan", r"^\[split\] need three nonnegative fractions"),
    ])
    def test_out_of_range_value_refused_at_load(self, tmp_path, section, key, value,
                                                 message):
        ini = configparser.ConfigParser()
        ini.read_string(CONFIG_TEMPLATE)
        ini[section][key] = value
        p = tmp_path / "c.cfg"
        with open(p, "w") as fh:
            ini.write(fh)
        with pytest.raises(SchemaError, match=message or
                           rf"^\[{section}\] {key}: {key} must be an integer >= 1"):
            load_config(str(p))

    @pytest.mark.parametrize("old, new", [("n_qubits = 2", "n_qubits = 17"),
                                          ("hidden = 8", "hidden = 0")])
    def test_values_that_run_stay_accepted(self, tmp_path, old, new):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(old, new, 1))
        load_config(str(p))

    @pytest.mark.parametrize("text, message", [
        ("csv = data.csv\n" + CONFIG_TEMPLATE, "contains no section headers"),
        (CONFIG_TEMPLATE + "[model]\nn_qubits = 3\n", "section 'model' already exists"),
        (CONFIG_TEMPLATE.replace("seed = 3", "seed = 3\nseed = 4"),
         "option 'seed' in section 'train' already exists"),
        (CONFIG_TEMPLATE.replace("grade\n", "grade\ndate_format = %Y-%m-%d\n", 1),
         r"\[data\] date_format: .*write %% for a literal %"),
    ], ids=["no-header", "duplicate-section", "duplicate-key", "lone-percent"])
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, text, message):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        assert cli.main(["train", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hyquc: error: ") and err.count("\n") == 1
        assert re.search(message, err)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "-0.5"),
        ("learning_rates", "0.05, nan"),
    ])
    def test_learning_rate_must_be_finite(self, tmp_path, key, value):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(f"{key} = 0.", f"{key} = {value}\n#"))
        with pytest.raises(SchemaError, match=f"{key} must be a finite number"):
            load_config(str(p))


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        p = tmp_path / "f.txt"
        serialize.atomic_write_text(p, "one\n")
        serialize.atomic_write_text(p, "two\n")
        assert p.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [p]  # no temp files left behind


class TestTrain:
    def test_artifacts_per_row_type(self, trained):
        for tag in ("T1", "T2"):
            for stem in ("model", "metrics", "preprocess"):
                assert (trained / f"{stem}_{tag}.json").exists()
            assert (trained / f"loss_history_{tag}.csv").exists()

    def test_loss_csv_shape(self, trained):
        lines = (trained / "loss_history_T1.csv").read_text().splitlines()
        assert lines[0] == cli.LOSS_CSV_HEADER
        assert len(lines) == 26  # header + one row per epoch
        row = lines[1].split(",")
        assert row[0] == "1"
        assert all(np.isfinite(float(v)) for v in row[1:])

    def test_metrics_json_contract(self, trained):
        doc = json.loads((trained / "metrics_T2.json").read_text())
        assert doc["class_names"] == ["g1", "g2", "g3"]
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert len(doc["per_class"]) == 3
        assert "val_accuracy" in doc["extra"]

    def test_preprocess_report(self, trained):
        doc = json.loads((trained / "preprocess_T1.json").read_text())
        assert doc["row_type"] == "T1"
        assert doc["applied_components"] == 2
        before = doc["counts_before_smote"]
        after = doc["counts_after_smote"]
        assert len(set(after.values())) == 1  # balanced after oversampling
        assert all(after[k] >= before[k] for k in before)

    def test_model_round_trip(self, trained):
        model, pipe = serialize.load_model(str(trained / "model_T1.json"))
        assert model.row_type == "T1"
        assert pipe.row_type == "T1"
        assert model.spec.n_qubits == 2

    def test_seeded_reruns_byte_identical(self, workdir, trained):
        out2 = workdir / "trained2"
        assert cli.main(["train", "--config", str(workdir / "run.cfg"),
                         "--out", str(out2)]) == 0
        for name in sorted(os.listdir(trained)):
            assert (trained / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_changes_run(self, workdir, trained):
        out3 = workdir / "trained3"
        assert cli.main(["train", "--config", str(workdir / "run.cfg"),
                         "--seed", "9", "--out", str(out3)]) == 0
        a = (trained / "loss_history_T1.csv").read_text()
        b = (out3 / "loss_history_T1.csv").read_text()
        assert a != b

    def test_unknown_row_type_code(self, workdir, tmp_path, capsys):
        (tmp_path / "partial.map").write_text("T1 = personal\n")
        cfg_text = CONFIG_TEMPLATE.replace(
            "row_type_column = SEGCD",
            "row_type_column = SEGCD\nrow_type_map = "
            + str(tmp_path / "partial.map"))
        cfg_text = cfg_text.replace("csv = data.csv",
                                    f"csv = {workdir / 'data.csv'}")
        p = tmp_path / "bad.cfg"
        p.write_text(cfg_text)
        rc = cli.main(["train", "--config", str(p), "--out",
                       str(tmp_path / "out")])
        assert rc == 1
        assert "'T2'" in capsys.readouterr().err

    def test_diverging_run_names_row_type_epoch_and_batch(self, workdir, tmp_path,
                                                          capsys):
        cfg_text = CONFIG_TEMPLATE.replace("learning_rate = 0.1", "learning_rate = 1e308")
        cfg_text = cfg_text.replace("csv = data.csv", f"csv = {workdir / 'data.csv'}")
        p = tmp_path / "diverge.cfg"
        p.write_text(cfg_text)
        assert cli.main(["train", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.search(r"row type 'T1': training diverged at epoch 1, batch \d+ of \d+",
                         err), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_warns_nothing_first(self, workdir, tmp_path, capsys):
        # numpy's overflow warnings, errors here, must not precede the named one
        self.test_diverging_run_names_row_type_epoch_and_batch(workdir, tmp_path, capsys)

    def test_absent_exclusion_logged_once(self, workdir, tmp_path, caplog):
        p = tmp_path / "exclude.cfg"
        p.write_text(CONFIG_TEMPLATE.replace("csv = data.csv",
                                             f"csv = {workdir / 'data.csv'}")
                     + "\n[row_type:T1]\nexclude_columns = NOPE\n")
        cfg = load_config(str(p))
        raw = cli._load_partitions(cfg)["T1"]
        with caplog.at_level("INFO", logger="hyquc.pipeline"):
            cli.fit_row_type(raw, "T1", cfg, seed=0)
        assert sum("'NOPE'" in rec.message for rec in caplog.records) == 1

    def test_small_class_error_names_class(self, workdir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text((workdir / "data.csv").read_text()
                        + "T1,rare,0.1,0.1\nT1,rare,0.2,0.2\n")
        assert train_with(tmp_path, data) == 1
        assert ("row type 'T1': class 'rare' has fewer rows than splits"
                in capsys.readouterr().err)

    def test_missing_config_exits_nonzero(self, capsys):
        assert cli.main(["train", "--config", "/nope/missing.cfg"]) == 1
        assert "error" in capsys.readouterr().err


class TestClassMerges:
    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_typo_row_type_section_refused(self, workdir, tmp_path, capsys, command):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {workdir / 'data.csv'}")
                     + "\n[row_type:T1x]\nmerge_classes = g3->g2\n")
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert ("unknown row type in [row_type:T1x] 'T1x'; did you mean 'T1'?"
                in capsys.readouterr().err)

    def test_chain_applies_in_order(self, workdir, tmp_path):
        # a fourth T1 class is left beside g1 once the chain folds g3 and g2
        # into it, so the row type still trains
        rng = np.random.default_rng(4)
        g4 = [f"T1,g4,{x:.4f},{y:.4f}" for x, y in rng.normal(2.8, 0.15, size=(18, 2))]
        data = tmp_path / "four.csv"
        data.write_text((workdir / "data.csv").read_text() + "\n".join(g4) + "\n")
        rc = train_with(tmp_path, data,
                        "\n[row_type:T1]\nmerge_classes = g3->g2; g2->g1\n")
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "preprocess_T1.json").read_text())
        assert doc["counts_before_smote"] == {"g1": 42, "g4": 12}
        doc = json.loads((tmp_path / "out" / "metrics_T2.json").read_text())
        assert doc["class_names"] == ["g1", "g2", "g3"]

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_chain_to_one_class_refused(self, workdir, tmp_path, capsys, command):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {workdir / 'data.csv'}")
                     + "\n[row_type:T1]\nmerge_classes = g3->g2; g2->g1\n")
        assert cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert ("row type 'T1': merges g3->g2; g2->g1 leave one class, 'g1'; "
                "a model needs at least two" in capsys.readouterr().err)

    @pytest.mark.parametrize("merges, unknown", [("Los->g1", "'Los'"),
                                                 ("g3->g9", "'g9'")])
    def test_unknown_class_names_row_type_and_class(self, workdir, tmp_path, capsys,
                                                    merges, unknown):
        rc = train_with(tmp_path, workdir / "data.csv",
                        f"\n[row_type:T1]\nmerge_classes = {merges}\n")
        assert rc == 1
        assert re.search(f"row type 'T1': merge .*unknown class {unknown}",
                         capsys.readouterr().err)

    def test_replay_without_merged_away_class(self, workdir, tmp_path, capsys):
        assert train_with(tmp_path, workdir / "data.csv",
                          "\n[row_type:T1]\nmerge_classes = g3->g2\n") == 0
        lines = (workdir / "data.csv").read_text().splitlines()
        no_g3 = tmp_path / "no_g3.csv"
        no_g3.write_text("\n".join(line for line in lines if ",g3," not in line) + "\n")
        model = str(tmp_path / "out" / "model_T1.json")
        for data in (no_g3, workdir / "data.csv"):
            capsys.readouterr()
            assert cli.main(["evaluate", "--model", model, "--data", str(data)]) == 0
            assert json.loads(capsys.readouterr().out)["class_names"] == ["g1", "g2"]


class TestGridsearch:
    def test_singleton_grid(self, workdir, capsys):
        out = workdir / "grid"
        rc = cli.main(["gridsearch", "--config", str(workdir / "run.cfg"),
                       "--out", str(out)])
        assert rc == 0
        for tag in ("T1", "T2"):
            lines = (out / f"leaderboard_{tag}.csv").read_text().splitlines()
            assert lines[0].startswith("rank,n_layers,n_qubits")
            assert len(lines) == 2  # one combination
            assert lines[1].startswith("1,1,2,0.05,8,1,")
            winner = configparser.ConfigParser()
            winner.read(out / f"winner_{tag}.cfg")
            assert winner["model"]["n_qubits"] == "2"
            assert winner["train"]["batch_size"] == "8"

    def test_embedding_axis_reaches_the_leaderboard(self, workdir, tmp_path):
        boards = {}
        for axis in ("X", "Y"):
            p = tmp_path / f"{axis}.cfg"
            p.write_text(CONFIG_TEMPLATE.replace(
                "csv = data.csv", f"csv = {workdir / 'data.csv'}").replace(
                "[model]\n", f"[model]\nembedding_axis = {axis}\n"))
            out = tmp_path / axis
            assert cli.main(["gridsearch", "--config", str(p), "--out", str(out)]) == 0
            boards[axis] = [(out / f"leaderboard_{tag}.csv").read_text()
                            for tag in ("T1", "T2")]
        assert boards["X"] != boards["Y"]

    def test_diverging_fit_names_combination_fold_epoch_and_batch(self, workdir, tmp_path,
                                                                 capsys):
        p = tmp_path / "diverge.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(
            "csv = data.csv", f"csv = {workdir / 'data.csv'}").replace(
            "learning_rates = 0.05", "learning_rates = 0.05,1e308"))
        assert cli.main(["gridsearch", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(
            r"^hyquc: error: row type 'T1': combination 2 of 2 \(n_layers=1, n_qubits=2, "
            r"learning_rate=1e\+308, batch_size=8, epochs=1\), fold 1 of 2: training "
            r"diverged at epoch 1, batch \d+ of \d+: the parameters are no longer finite",
            err), err

    def test_grid_section_required(self, workdir, tmp_path, capsys):
        cfg_text = CONFIG_TEMPLATE[:CONFIG_TEMPLATE.index("[grid]")].replace(
            "csv = data.csv", f"csv = {workdir / 'data.csv'}")
        p = tmp_path / "nogrid.cfg"
        p.write_text(cfg_text)
        assert cli.main(["gridsearch", "--config", str(p)]) == 1
        assert "[grid]" in capsys.readouterr().err


class TestEvaluate:
    def test_report_written(self, workdir, trained, tmp_path, capsys):
        out = tmp_path / "eval.json"
        rc = cli.main(["evaluate", "--model", str(trained / "model_T1.json"),
                       "--data", str(workdir / "data.csv"),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["class_names"] == ["g1", "g2", "g3"]
        assert 0.0 <= doc["accuracy"] <= 1.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_deterministic(self, workdir, trained, tmp_path):
        args = ["evaluate", "--model", str(trained / "model_T2.json"),
                "--data", str(workdir / "data.csv")]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_data_rejected(self, trained, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("SEGCD,grade,F1,F2\n")
        rc = cli.main(["evaluate", "--model", str(trained / "model_T1.json"),
                       "--data", str(p)])
        assert rc == 1
        assert "no data rows" in capsys.readouterr().err


class TestPredict:
    def write_input(self, path, rows):
        lines = ["SEGCD,F1,F2"] + [f"{s},{x},{y}" for s, x, y in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_routes_by_row_type(self, trained, tmp_path):
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2), ("T2", 1.5, 1.5),
                             ("T1", 2.8, 0.4)])
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(trained),
                       "--input", str(p), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,row_type,status,predicted_class,probabilities"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            row, rt, status, cls, probs = line.split(",")
            assert int(row) == i
            assert status == "ok"
            assert cls in ("g1", "g2", "g3")
            vals = [float(kv.split("=")[1]) for kv in probs.split(";")]
            assert abs(sum(vals) - 1.0) < 1e-12

    def test_class_centers_recovered(self, trained, tmp_path):
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2), ("T1", 1.5, 1.5)])
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(trained),
                        "--input", str(p), "--out", str(out)]) == 0
        preds = [line.split(",")[3] for line in
                 out.read_text().splitlines()[1:]]
        assert preds == ["g1", "g2"]

    def test_unmapped_row_type_flagged(self, trained, tmp_path):
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2), ("ZZ", 0.2, 0.2)])
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(trained),
                       "--input", str(p), "--out", str(out)])
        assert rc == 2
        lines = out.read_text().splitlines()
        assert lines[2].split(",")[2] == "no_model"
        assert lines[1].split(",")[2] == "ok"

    def test_probabilities_match_batched_forward(self, trained, tmp_path):
        p = tmp_path / "in.csv"
        rows = [("T1", 0.2, 0.2), ("T2", 1.5, 1.5), ("T1", 2.8, 0.4),
                ("T2", 0.3, 2.9), ("T1", 1.4, 1.6)]
        self.write_input(p, rows)
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(trained),
                         "--input", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        data = pl.load_csv(p, None)
        for rt in ("T1", "T2"):
            model, pipe = serialize.load_model(trained / f"model_{rt}.json")
            idx = [i for i, row in enumerate(rows) if row[0] == rt]
            sub = TabularDataset(data.column_names, [data.rows[i] for i in idx])
            want = hybrid.forward_probs(model, pipe.transform_features(sub))
            for i, w in zip(idx, want):
                got = [float(kv.split("=")[1])
                       for kv in lines[i].split(",")[4].split(";")]
                np.testing.assert_allclose(got, w, rtol=0, atol=1e-12)
                assert lines[i].split(",")[3] == pipe.class_names[int(np.argmax(w))]

    def test_quoted_header_routes_by_row_type(self, trained, tmp_path):
        p = tmp_path / "in.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerows([["SEGCD", "F1", "F2"], ["T1", "0.2", "0.2"],
                              ["T2", "1.5", "1.5"]])
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(trained),
                       "--input", str(p), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()[1:]
        assert [line.split(",")[1:3] for line in lines] == [["T1", "ok"], ["T2", "ok"]]

    def test_single_model_file_no_row_type_column(self, trained, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("F1,F2\n0.2,0.2\n")
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(trained / "model_T1.json"),
                       "--input", str(p), "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].split(",")[1] == "T1"

    def test_prints_to_stdout_without_out(self, trained, tmp_path, capsys):
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2)])
        assert cli.main(["predict", "--model", str(trained),
                        "--input", str(p)]) == 0
        assert capsys.readouterr().out.startswith(
            "row,row_type,status,predicted_class,probabilities")

    def test_empty_model_dir(self, tmp_path, capsys):
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2)])
        assert cli.main(["predict", "--model", str(tmp_path),
                        "--input", str(p)]) == 1
        assert "model_*.json" in capsys.readouterr().err
