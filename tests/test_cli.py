"""Command-line workflows: config parsing, artifact layout, determinism and
exit codes."""
import configparser
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyquc import cli, errors, hybrid, pipeline as pl, serialize
from hyquc.config import SCHEMA, load_config
from hyquc.errors import DivergenceError, SchemaError
from test_hybrid import per_fit_rank

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


def train_with(tmp_path, data, extra="", command="train"):
    """Exit code of ``hyquc train`` (or ``command``) on ``data`` with the
    template config plus ``extra``, writing to ``tmp_path / "out"``."""
    p = tmp_path / "extra.cfg"
    p.write_text(CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {data}") + extra)
    return cli.main([command, "--config", str(p), "--out", str(tmp_path / "out")])


@pytest.fixture
def unequal(workdir, tmp_path):
    """The template data with 12 more T1 rows of class g2, so that the row
    types train on unequal row counts."""
    rng = np.random.default_rng(5)
    extra = [f"T1,g2,{x:.4f},{y:.4f}" for x, y in rng.normal(1.5, 0.15, size=(12, 2))]
    data = tmp_path / "unequal.csv"
    data.write_text((workdir / "data.csv").read_text() + "\n".join(extra) + "\n")
    return data


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
        ("n_layers = 1", "n_layers = 1\nentangler_range = one",
         r"^\[model\] entangler_range: .*'one'"),
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

    def test_single_layer_head_refused_as_unknown_key(self, tmp_path):
        # an empty `hidden` is the one way to a head without hidden layers
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace("n_layers = 1", "n_layers = 1\n"
                                             "single_layer_head = true", 1))
        with pytest.raises(SchemaError) as info:
            load_config(str(p))
        assert str(info.value) == (
            "unknown key in [model] 'single_layer_head'; valid: n_qubits, n_layers, "
            "entangler_range, pca_components, hidden, hidden_activation")

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_embedding_axis_refused_as_unknown_key(self, workdir, tmp_path, capsys,
                                                   command, axis):
        # every model embeds with RY: RX is RY with shifted angles, RZ embeds nothing
        extra = tmp_path / "axis.cfg"
        extra.write_text(CONFIG_TEMPLATE.replace(
            "csv = data.csv", f"csv = {workdir / 'data.csv'}").replace(
            "[model]\n", f"[model]\nembedding_axis = {axis}\n"))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(extra), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "hyquc: error: unknown key in [model] 'embedding_axis'; valid: n_qubits, "
            "n_layers, entangler_range, pca_components, hidden, hidden_activation\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("model", "n_qubits", "0", None), ("model", "n_layers", "0", None),
        ("model", "pca_components", "0", None), ("model", "entangler_range", "0", None),
        ("train", "epochs", "0", None), ("train", "batch_size", "0", None),
        ("train", "smote_k", "0", None),
        ("model", "hidden", "0", None),
        ("model", "hidden", "8, -1", r"^\[model\] hidden: hidden must be an integer >= 1"),
        ("grid", "n_layers", "1, 0", None), ("grid", "n_qubits", "0, 2", None),
        ("grid", "batch_sizes", "8, -1", None), ("grid", "epochs", "0", None),
        ("grid", "folds", "1", "folds must be an integer >= 2"),
        ("grid", "n_layers", "", r"^\[grid\] n_layers: n_layers must list at least one"),
        ("data", "missing_threshold", "0", r"must be a number in \(0, 1\]"),
        ("data", "missing_threshold", "1.5", r"must be a number in \(0, 1\]"),
        ("split", "train", "0.8", r"^\[split\] fractions must sum to 1"),
        ("split", "test", "nan", r"^\[split\] need three nonnegative fractions"),
        ("train", "seed", "-1", r"^\[train\] seed: seed must be an integer >= 0, got '-1'$"),
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
                                          ("hidden = 8", "hidden =")])
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

    def test_zero_hidden_width_refused_before_training(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(open(os.path.join(DATA_DIR, "run.cfg")).read()
                       .replace("csv = synth.csv", f"csv = {DATA_DIR}/synth.csv")
                       .replace("row_type_map = rowtypes.map",
                                f"row_type_map = {DATA_DIR}/rowtypes.map")
                       .replace("hidden = 16", "hidden = 0")
                       .replace("epochs = 50", "epochs = 3"))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "hyquc: error: [model] hidden: hidden must be an integer >= 1, got '0'\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "-0.5"),
        ("learning_rates", "0.05, nan"),
    ])
    def test_learning_rate_must_be_finite(self, tmp_path, key, value):
        p = tmp_path / "c.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(f"{key} = 0.", f"{key} = {value}\n#"))
        with pytest.raises(SchemaError, match=f"{key} must be a finite number"):
            load_config(str(p))

    def test_byte_order_mark_skipped(self, workdir, tmp_path):
        # Excel's "CSV UTF-8" export, and some editors, start a file with one
        p = tmp_path / "bom.cfg"
        p.write_bytes(b"\xef\xbb\xbf" + (workdir / "run.cfg").read_bytes())
        bare, bom = load_config(str(workdir / "run.cfg")), load_config(str(p))
        bom.csv_path = bare.csv_path  # resolved against each file's directory
        assert bom == bare

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        # the codec's own text names neither the file nor the line
        p = tmp_path / "latin.cfg"
        p.write_bytes(CONFIG_TEMPLATE.encode() + b"# d\xe9j\xe0 vu\n")
        line = CONFIG_TEMPLATE.count("\n") + 1
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:{line}: byte 0xe9 is not UTF-8 (invalid continuation byte)")):
            load_config(str(p))


class TestEncoding:
    def test_commands_read_and_write_utf8_only(self, tmp_path):
        """``train``, ``gridsearch``, ``predict`` and ``evaluate`` on the
        fixture, in a process that makes EncodingWarning an error: no file is
        opened in the locale's default encoding."""
        for name in ("synth.csv", "rowtypes.map", "run.cfg"):
            with open(os.path.join(DATA_DIR, name), "rb") as fh:
                (tmp_path / name).write_bytes(fh.read())
        cfg, data = tmp_path / "run.cfg", str(tmp_path / "synth.csv")
        cfg.write_text(cfg.read_text().replace("epochs = 50", "epochs = 1"))
        models = str(tmp_path / "train")
        runs = [["train", "--config", str(cfg), "--out", models],
                ["gridsearch", "--config", str(cfg), "--out", str(tmp_path / "grid")],
                ["predict", "--model", models, "--input", data,
                 "--row-type-map", str(tmp_path / "rowtypes.map"),
                 "--out", str(tmp_path / "predictions.csv")],
                ["evaluate", "--model", os.path.join(models, "model_agriculture.json"),
                 "--data", data, "--out", str(tmp_path / "evaluate.json")]]
        code = ("import json, sys\nfrom hyquc import cli\n"
                "for argv in json.loads(sys.argv[1]):\n    assert cli.main(argv) == 0, argv\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", code, json.dumps(runs)],
                              capture_output=True, encoding="utf-8", env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "evaluate.json").exists()


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        p = tmp_path / "f.txt"
        serialize.atomic_write_text(p, "one\n")
        serialize.atomic_write_text(p, "two\n")
        assert p.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [p]  # no temp files left behind

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
    def test_write_error_names_the_out_path(self, workdir, trained, tmp_path, capsys,
                                            command, target):
        out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path / "out"
        if target == "a-dir":
            out.mkdir()
        model, data = str(trained / "model_T1.json"), str(workdir / "data.csv")
        argv = (["evaluate", "--model", model, "--data", data] if command == "evaluate"
                else ["predict", "--model", model, "--input", data])
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hyquc: error: [Errno ") and err.endswith(f": {str(out)!r}\n")
        assert ".tmp-" not in err
        assert [p.name for p in tmp_path.rglob("*")] == (
            [] if target == "missing-dir" else ["out"])


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

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_negative_seed_flag_refused_before_any_file_is_read(self, tmp_path, capsys,
                                                                monkeypatch, command):
        monkeypatch.setattr(cli, "load_config", lambda path: pytest.fail("config read"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(tmp_path / "run.cfg"), "--seed", "-3",
                      "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --seed: must be an integer >= 0, got '-3'\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_failed_set_up_stops_before_training(self, workdir, tmp_path, capsys,
                                                 monkeypatch):
        # T1 sets up; T2's merges leave one class, so nothing may train or be written
        fits, fit = [], hybrid.fit
        monkeypatch.setattr(hybrid, "fit", lambda *args: fits.append(args) or fit(*args))
        assert train_with(tmp_path, workdir / "data.csv",
                          "\n[row_type:T2]\nmerge_classes = g3->g2; g2->g1\n") == 1
        assert ("row type 'T2': merges g3->g2; g2->g1 leave one class"
                in capsys.readouterr().err)
        assert fits == []
        assert not os.path.exists(tmp_path / "out")

    def test_missing_config_exits_nonzero(self, capsys):
        assert cli.main(["train", "--config", "/nope/missing.cfg"]) == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """``hyquc train`` on the committed run.cfg, with the module that made
    each ``hybrid.evaluate`` call."""
    out = tmp_path_factory.mktemp("fixture_run")
    callers, evaluate = [], hybrid.evaluate

    def recording(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return evaluate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hybrid, "evaluate", recording)
        assert cli.main(["train", "--config", os.path.join(DATA_DIR, "run.cfg"),
                         "--out", str(out)]) == 0
    return out, callers


class TestFinalValidationScore:
    """The reported validation scores are the fit's last epoch's, which
    scored the trained parameters on the validation split."""

    def test_train_evaluates_the_train_and_test_splits_per_row_type(self, fixture_run):
        _, callers = fixture_run
        assert callers.count("hyquc.cli") == 2 * 2  # agriculture and personal

    @pytest.mark.parametrize("tag", ["agriculture", "personal"])
    def test_metrics_val_scores_are_the_last_loss_history_row(self, fixture_run, tag):
        out, _ = fixture_run
        extra = json.loads((out / f"metrics_{tag}.json").read_text())["extra"]
        last = (out / f"loss_history_{tag}.csv").read_text().splitlines()[-1].split(",")
        assert [float(last[3]), float(last[4])] == [extra["val_loss"], extra["val_accuracy"]]
        assert [last[3], last[4]] == [repr(extra["val_loss"]), repr(extra["val_accuracy"])]


class TestHeaderOnlyInput:
    """``load_csv`` refuses a file with a header and no rows, for every
    command (``evaluate``'s case is in TestEvaluate)."""

    @pytest.mark.parametrize("command", ["train", "gridsearch", "predict"])
    def test_refused_with_no_data_rows(self, trained, tmp_path, capsys, command):
        p = tmp_path / "empty.csv"
        p.write_text("SEGCD,grade,F1,F2\n")
        if command == "predict":
            rc = cli.main(["predict", "--model", str(trained), "--input", str(p)])
        else:
            rc = train_with(tmp_path, p, command=command)
        assert rc == 1
        assert capsys.readouterr().err == f"hyquc: error: {p}: no data rows\n"


def per_row_type_train(cfg_path, out):
    """``hyquc train`` as a plain loop of one ``hybrid.fit_all`` of one job per
    row type: the reference that the lockstep train must reproduce byte for
    byte."""
    cfg = load_config(str(cfg_path))
    os.makedirs(out)
    partitions = cli._load_partitions(cfg)
    for i, row_type in enumerate(sorted(partitions)):
        prep = cli._prepare(partitions[row_type], row_type, cfg,
                            cli._row_type_seed(cfg.seed, i))
        [(model, history)] = hybrid.fit_all([prep.job])
        cli._write_artifacts(str(out), row_type, model, prep.pipe, history,
                             cli._assess(prep, model, history, cfg), prep.report)


def count_fits(monkeypatch, totals):
    """Wrap hybrid.fit to add training rows x epochs per call, as the
    benchmark's row counter does, and to record each call's stack size."""
    fit = hybrid.fit

    def counted(model, train_set, val_set, config):
        totals["rows"] += len(train_set.X) * config.epochs
        totals["stacks"].append(len(model))
        return fit(model, train_set, val_set, config)

    monkeypatch.setattr(hybrid, "fit", counted)


class TestLockstepTrain:
    """``train`` fits the row types of one model layout as one stack, with
    the artifacts of a plain per-row-type loop."""

    def run_both(self, tmp_path, monkeypatch, cfg_text):
        """(stacked, separate) fit counts of ``train`` and of the reference
        loop on ``cfg_text``, whose artifacts must be byte-identical."""
        p = tmp_path / "run.cfg"
        p.write_text(cfg_text)
        stacked, separate = {"rows": 0, "stacks": []}, {"rows": 0, "stacks": []}
        count_fits(monkeypatch, stacked)
        assert cli.main(["train", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        monkeypatch.undo()
        count_fits(monkeypatch, separate)
        per_row_type_train(p, tmp_path / "ref")
        names = sorted(os.listdir(tmp_path / "ref"))
        assert len(names) == 8 and sorted(os.listdir(tmp_path / "out")) == names
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name
        return stacked, separate

    @pytest.mark.parametrize("extra, stacks", [
        ("", [2]),
        # T1 merged down to two classes has a head of its own
        ("\n[row_type:T1]\nmerge_classes = g3->g2\n", [1, 1]),
    ], ids=["one-layout", "two-layouts"])
    def test_artifacts_equal_a_per_row_type_loop(self, unequal, tmp_path, monkeypatch,
                                                 extra, stacks):
        stacked, separate = self.run_both(
            tmp_path, monkeypatch,
            CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {unequal}") + extra)
        assert stacked["stacks"] == stacks and separate["stacks"] == [1, 1]
        sizes = [sum(json.loads((tmp_path / "out" / f"preprocess_{tag}.json").read_text())
                     ["counts_after_smote"].values()) for tag in ("T1", "T2")]
        assert sizes[0] != sizes[1]

    def test_fit_calls_count_the_rows_of_the_separate_fits(self, unequal, tmp_path,
                                                           monkeypatch):
        stacked, separate = self.run_both(
            tmp_path, monkeypatch, CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {unequal}"))
        assert stacked["rows"] == separate["rows"] > 0

    def test_ten_qubit_row_types_exceed_the_amplitude_budget(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        lines = ["SEGCD,grade," + ",".join(f"F{j}" for j in range(1, 11))]
        for seg in ("T1", "T2"):
            for label, center in (("g1", 0.5), ("g2", 2.0)):
                for row in rng.normal(center, 0.3, size=(20, 10)):
                    lines.append(f"{seg},{label}," + ",".join(f"{v:.4f}" for v in row))
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg_text = (CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {data}")
                    .replace("n_qubits = 2\nn_layers = 1\npca_components = 2",
                             "n_qubits = 10\nn_layers = 1\npca_components = 10")
                    .replace("epochs = 25", "epochs = 1")
                    .replace("batch_size = 8", "batch_size = 16"))
        stacked, _ = self.run_both(tmp_path, monkeypatch, cfg_text)
        # two models * min(B, m) * 2**n = 2 * 16 * 1024 amplitudes exceed the budget
        assert stacked["stacks"] == [1, 1]


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


def per_row_type_gridsearch(cfg_path, out):
    """``hyquc gridsearch`` as a plain loop over the row types of one
    ``hybrid.fit_all`` of the row type's grid, with a SMOTE call of its own
    per fit and one ``hybrid.evaluate`` per fit: the reference that the
    one-``fit_all`` gridsearch, with its shared neighbour tables and
    stacked fold scoring, must reproduce byte for byte."""
    cfg = load_config(str(cfg_path))
    os.makedirs(out)
    partitions = cli._load_partitions(cfg)
    width = max(cfg.grid.n_qubits_choices)
    for i, row_type in enumerate(sorted(partitions)):
        seed = cli._row_type_seed(cfg.seed, i)
        pipe, _, train_ds, _, _ = cli._fit_pipeline(partitions[row_type], row_type, cfg,
                                                    seed, components=width, width=width)

        def augment(X, y, names=pipe.class_names):
            def draw(s):
                ds = pl.smote_oversample(pl.RowTypeDataset(X, y, names),
                                         cfg.smote_k, s)
                return ds.X, ds.y

            return draw

        jobs, _ = hybrid.grid_jobs(cfg.grid, train_ds, cfg.cv_folds, seed, augment=augment,
                                   new_model=cfg.new_model)
        folds = hybrid.kfold_split(train_ds.y, cfg.cv_folds, seed)
        best, leaderboard = per_fit_rank(cfg.grid, (train_ds.X, train_ds.y), folds,
                                         [model for model, _ in hybrid.fit_all(jobs)])
        cli._write_grid(str(out), row_type, best, leaderboard)


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

    def test_artifacts_equal_a_per_row_type_loop(self, unequal, tmp_path, monkeypatch):
        # two layouts (n_layers), two learning rates and two folds: per row
        # type 8 fits, which the reference trains as two stacks of 4
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG_TEMPLATE.replace("csv = data.csv", f"csv = {unequal}")
                     .replace("n_layers = 1\nn_qubits = 2\nlearning_rates = 0.05",
                              "n_layers = 1,2\nn_qubits = 2\nlearning_rates = 0.05,0.1"))
        stacked, separate = {"rows": 0, "stacks": []}, {"rows": 0, "stacks": []}
        count_fits(monkeypatch, stacked)
        assert cli.main(["gridsearch", "--config", str(p), "--out",
                         str(tmp_path / "out")]) == 0
        monkeypatch.undo()
        count_fits(monkeypatch, separate)
        per_row_type_gridsearch(p, tmp_path / "ref")
        names = sorted(os.listdir(tmp_path / "ref"))
        assert len(names) == 4 and sorted(os.listdir(tmp_path / "out")) == names
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name
        assert stacked["stacks"] == [8, 8] and separate["stacks"] == [4, 4, 4, 4]
        assert stacked["rows"] == separate["rows"] > 0

    def test_failed_set_up_stops_before_training(self, workdir, tmp_path, capsys,
                                                 monkeypatch):
        # T1 sets up; T2's merges leave one class, so nothing may train or be written
        fits, fit = [], hybrid.fit
        monkeypatch.setattr(hybrid, "fit", lambda *args: fits.append(args) or fit(*args))
        assert train_with(tmp_path, workdir / "data.csv",
                          "\n[row_type:T2]\nmerge_classes = g3->g2; g2->g1\n",
                          command="gridsearch") == 1
        assert ("row type 'T2': merges g3->g2; g2->g1 leave one class"
                in capsys.readouterr().err)
        assert fits == []
        assert not os.path.exists(tmp_path / "out")

    def test_grid_wider_than_the_data_refused(self, workdir, tmp_path, capsys):
        cfg_text = CONFIG_TEMPLATE.replace("n_qubits = 2\nlearning_rates",
                                           "n_qubits = 2,3\nlearning_rates")
        p = tmp_path / "wide.cfg"
        p.write_text(cfg_text.replace("csv = data.csv", f"csv = {workdir / 'data.csv'}"))
        assert cli.main(["gridsearch", "--config", str(p), "--out",
                         str(tmp_path / "out")]) == 1
        assert ("row type 'T1': only 2 components available for a 3-qubit grid choice"
                in capsys.readouterr().err)

    def test_grid_section_required(self, workdir, tmp_path, capsys):
        cfg_text = CONFIG_TEMPLATE[:CONFIG_TEMPLATE.index("[grid]")].replace(
            "csv = data.csv", f"csv = {workdir / 'data.csv'}")
        p = tmp_path / "nogrid.cfg"
        p.write_text(cfg_text)
        assert cli.main(["gridsearch", "--config", str(p)]) == 1
        assert "[grid]" in capsys.readouterr().err


def fixture_config(tmp_path, csv_text, epochs=None):
    """The committed run.cfg over ``csv_text``, with its epochs replaced."""
    text = open(os.path.join(DATA_DIR, "run.cfg")).read()
    (tmp_path / "rowtypes.map").write_text(
        open(os.path.join(DATA_DIR, "rowtypes.map")).read())
    (tmp_path / "synth.csv").write_text(csv_text)
    if epochs is not None:
        text = text.replace("epochs = 50", f"epochs = {epochs}")
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


class TestGridsearchSmote:
    """gridsearch builds one SMOTE neighbour table per fold and width and
    draws every combination's rows from it."""

    def test_one_table_per_fold_and_width(self, tmp_path, monkeypatch):
        tables, draws = [], []
        neighbors, oversample = pl.smote_neighbors, pl.smote_oversample
        monkeypatch.setattr(pl, "smote_neighbors", lambda ds, k: tables.append(
            ds.X.tobytes()) or neighbors(ds, k))
        monkeypatch.setattr(pl, "smote_oversample", lambda ds, k, seed, table=None: (
            draws.append(table is not None) or oversample(ds, k, seed, table)))
        assert cli.main(["gridsearch", "--config", os.path.join(DATA_DIR, "run.cfg"),
                         "--out", str(tmp_path)]) == 0
        # one table per row type, fold and width (2 x 3 x 2), and one draw
        # from a table per combination, fold and row type (8 x 3 x 2)
        assert len(tables) == len(set(tables)) == 12
        assert draws == [True] * 48

    def test_a_single_sample_class_in_a_fold_names_the_fold(self, tmp_path, capsys):
        # 3 personal rows of g3: the training split holds 2 of them, and the
        # training rows of folds 1 and 2 hold one each
        lines = open(os.path.join(DATA_DIR, "synth.csv")).read().splitlines()
        g3 = [i for i, line in enumerate(lines) if line.startswith("PL01,g3,")]
        cfg = fixture_config(tmp_path, "\n".join(
            line for i, line in enumerate(lines) if i not in g3[3:]) + "\n", epochs=1)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
        capsys.readouterr()
        assert cli.main(["gridsearch", "--config", cfg, "--out",
                         str(tmp_path / "grid")]) == 1
        assert capsys.readouterr().err == (
            "hyquc: error: row type 'personal': fold 1 of 3's training rows at "
            "n_qubits=2: class 'g3' has a single sample, cannot oversample\n")
        assert not os.path.exists(tmp_path / "grid")


class TestParser:
    def test_two_main_calls_build_one_parser(self, monkeypatch, capsys):
        builds, build = [], cli._build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        for _ in range(2):
            assert cli.main(["evaluate", "--model", "missing.json", "--data", "x.csv"]) == 1
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["bogus"],
                                      ["predict", "--model", "m"]])
    def test_help_and_usage_errors_repeat_byte_for_byte(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "_PARSER", None)
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            outputs.append((exit_info.value.code, *capsys.readouterr()))
        with pytest.raises(SystemExit) as exit_info:
            cli._build_parser().parse_args(argv)
        assert outputs == [(exit_info.value.code, *capsys.readouterr())] * 2

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_repeated_model_refused(self, fixture_run, tmp_path, capsys, command):
        # argparse would keep only the second: predict flagged the first
        # model's rows no_model and evaluate reported the second model
        first, second = (str(fixture_run[0] / f"model_{tag}.json")
                         for tag in ("agriculture", "personal"))
        out = tmp_path / "out"
        data = ["--data" if command == "evaluate" else "--input",
                os.path.join(DATA_DIR, "synth.csv")]
        assert cli.main([command, "--model", first, "--model", second, *data,
                         "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"hyquc: error: --model may be given once, not "
                                           f"for each of {first!r}, {second!r}\n")
        assert not out.exists()


class TestRowTypeErrors:
    """train and gridsearch name the row type an error came from and keep the
    error's type."""

    @pytest.mark.parametrize("command, old, new", [
        ("train", "learning_rate = 0.1", "learning_rate = 1e308"),
        ("gridsearch", "learning_rates = 0.05", "learning_rates = 0.05,1e308"),
    ])
    def test_divergence_stays_a_divergence_error(self, workdir, tmp_path, command,
                                                 old, new):
        p = tmp_path / "diverge.cfg"
        p.write_text(CONFIG_TEMPLATE.replace(
            "csv = data.csv", f"csv = {workdir / 'data.csv'}").replace(old, new))
        cfg = load_config(str(p))
        cfg.out_dir = str(tmp_path / "out")
        run = cli.cmd_train if command == "train" else cli.cmd_gridsearch
        with pytest.raises(DivergenceError, match=r"^row type 'T1': "):
            run(cfg)


class TestArtifactNameCollision:
    """Row types whose artifact file names collide are refused before anything
    trains or is written."""

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    @pytest.mark.parametrize("first, second, tag", [
        ("a b", "a_b", "a_b"),
        ("", "default", "default"),
    ])
    def test_colliding_row_types_refused(self, workdir, tmp_path, capsys, monkeypatch,
                                         command, first, second, tag):
        fits, fit = [], hybrid.fit
        monkeypatch.setattr(hybrid, "fit", lambda *args: fits.append(args) or fit(*args))
        text = (workdir / "data.csv").read_text()
        data = tmp_path / "data.csv"
        data.write_text(text.replace("\nT1,", f"\n{first},")
                        .replace("\nT2,", f"\n{second},"))
        assert train_with(tmp_path, data, command=command) == 1
        assert (f"row types {first!r} and {second!r} would overwrite each other's "
                f"artifact files *_{tag}.*") in capsys.readouterr().err
        assert fits == []
        assert not os.path.exists(tmp_path / "out")


class TestArtifactLayout:
    """The key order of every artifact document is part of its format."""

    def test_model_file_keys(self, trained):
        doc = json.loads((trained / "model_T1.json").read_text())
        assert list(doc["spec"]) == ["n_qubits", "n_layers", "embedding_rotation_axis",
                                     "entangler_range"]
        for column in doc["pipeline"]["encoder_columns"]:
            assert list(column) == ["name", "kind", "median", "categories"]

    def test_metrics_file_keys(self, trained):
        doc = json.loads((trained / "metrics_T1.json").read_text())
        assert list(doc) == ["format", "version", "class_names", "per_class", "accuracy",
                             "macro", "weighted", "roc_auc", "kappa", "extra"]
        for entry in doc["per_class"]:
            assert list(entry) == ["class", "precision", "recall", "f1", "support",
                                   "degenerate"]

    def test_leaderboard_header(self, workdir, tmp_path):
        assert cli.main(["gridsearch", "--config", str(workdir / "run.cfg"),
                         "--out", str(tmp_path)]) == 0
        header = (tmp_path / "leaderboard_T1.csv").read_text().splitlines()[0]
        assert header == ("rank,n_layers,n_qubits,learning_rate,batch_size,epochs,"
                          "mean_val_macro_f1,mean_val_accuracy")


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

    def test_model_directory_refused(self, workdir, trained, capsys):
        # predict takes a directory of models; evaluate takes one model file
        rc = cli.main(["evaluate", "--model", str(trained),
                       "--data", str(workdir / "data.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: {str(trained)!r} is a directory; evaluate takes one "
            "model_<type>.json file\n")


class TestPredict:
    def write_input(self, path, rows):
        lines = ["SEGCD,F1,F2"] + [f"{s},{x},{y}" for s, x, y in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_cells_that_do_not_parse_are_logged(self, trained, tmp_path, caplog):
        # they score as the column's median, like a missing cell
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", "N/A", 0.2), ("T1", 1.5, 1.5), ("T2", 2.8, "?")])
        with caplog.at_level("INFO", logger="hyquc"):
            assert cli.main(["predict", "--model", str(trained), "--input", str(p)]) == 0
        assert [rec.getMessage() for rec in caplog.records] == [
            "non-numeric values in 1 of 2 cells of 'F1' treated as missing",
            "non-numeric values in 1 of 1 cells of 'F2' treated as missing"]

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
            sub = data.take(idx)
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

    def test_non_finite_cell_names_row_type_and_input_row(self, trained, tmp_path, capsys):
        # input row 3 is the second T2 row: the error names it as the output would
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2), ("T2", 1.5, 1.5), ("T1", 2.8, 0.4),
                             ("T2", "inf", 0.4)])
        assert cli.main(["predict", "--model", str(trained), "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            "hyquc: error: row type 'T2': column 'F1', row 3: non-finite number 'inf'\n")

    def test_output_fields_quoted_as_csv(self, trained, tmp_path):
        # a row type or class name holding a comma or a quote stays one field
        doc = json.loads((trained / "model_T1.json").read_text())
        doc["row_type"] = doc["pipeline"]["row_type"] = 'T1, "north"'
        doc["pipeline"]["class_names"] = ["g,1", 'g"2', "g3"]
        (tmp_path / "models").mkdir()
        (tmp_path / "models" / "model_T1.json").write_text(json.dumps(doc))
        (tmp_path / "codes.map").write_text('T1 = T1, "north"\nT2 = agri,culture\n')
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2), ("T2", 1.5, 1.5), ("T1", 1.5, 1.5)])
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(tmp_path / "models"), "--input", str(p),
                         "--row-type-map", str(tmp_path / "codes.map"),
                         "--out", str(out)]) == 2
        text = out.read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert [row[:4] for row in rows[1:]] == [
            ["0", 'T1, "north"', "ok", "g,1"], ["1", "agri,culture", "no_model", ""],
            ["2", 'T1, "north"', "ok", 'g"2']]
        assert [kv.split("=")[0] for kv in rows[1][4].split(";")] == ["g,1", 'g"2', "g3"]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text

    def test_empty_model_dir(self, tmp_path, capsys):
        p = tmp_path / "in.csv"
        self.write_input(p, [("T1", 0.2, 0.2)])
        assert cli.main(["predict", "--model", str(tmp_path),
                        "--input", str(p)]) == 1
        assert "model_*.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        # a second T1 model, which sorts after the first, with one angle changed
        (lambda doc: doc["qweights"][0][0].__setitem__(0, 0.5),
         "{0}/model_T1.json and {0}/model_zz_copy.json both hold a model for row type 'T1'"),
        (lambda doc: doc.update(row_type="T3")
         or doc["pipeline"].update(row_type="T3", row_type_column="SEG"),
         "{0}/model_T1.json and {0}/model_zz_copy.json name different row-type "
         "columns, 'SEGCD' and 'SEG'"),
    ])
    def test_conflicting_model_files_refused(self, trained, tmp_path, capsys, edit, message):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_T1.json", "model_T2.json"):
            (models / name).write_text((trained / name).read_text())
        doc = json.loads((trained / "model_T1.json").read_text())
        edit(doc)
        (models / "model_zz_copy.json").write_text(json.dumps(doc))
        p, out = tmp_path / "in.csv", tmp_path / "pred.csv"
        self.write_input(p, [("T1", 0.2, 0.2), ("T2", 1.5, 1.5)])
        assert cli.main(["predict", "--model", str(models), "--input", str(p),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"hyquc: error: {message.format(models)}\n"
        assert not out.exists()


class TestRouting:
    """``predict`` and ``evaluate`` send each input row to a model by one
    rule: through ``--row-type-map`` when it is given, else through the
    row-type codes that the model files record."""

    SYNTH = os.path.join(DATA_DIR, "synth.csv")
    MAP = os.path.join(DATA_DIR, "rowtypes.map")

    def synth_rows(self):
        with open(self.SYNTH) as fh:
            return fh.read().splitlines()

    def test_model_files_record_their_codes(self, fixture_run):
        for tag, codes in (("agriculture", ["AG01", "AG02"]), ("personal", ["PL01"])):
            doc = json.loads((fixture_run[0] / f"model_{tag}.json").read_text())
            assert doc["pipeline"]["row_type_codes"] == codes

    def test_evaluate_scores_only_its_own_rows_as_predict_does(self, fixture_run, tmp_path,
                                                             monkeypatch):
        models, out, preds = fixture_run[0], tmp_path / "eval.json", tmp_path / "pred.csv"
        scored, evaluate = [], hybrid.evaluate

        def recording(*args):
            result = evaluate(*args)
            scored.append(result[2])
            return result

        monkeypatch.setattr(hybrid, "evaluate", recording)
        assert cli.main(["evaluate", "--model", str(models / "model_agriculture.json"),
                         "--data", self.SYNTH, "--out", str(out)]) == 0
        assert cli.main(["predict", "--model", str(models), "--input", self.SYNTH,
                         "--row-type-map", self.MAP, "--out", str(preds)]) == 0
        report = json.loads(out.read_text())
        own = [i for i, line in enumerate(self.synth_rows()[1:]) if line.startswith("AG")]
        assert sum(c["support"] for c in report["per_class"]) == len(own) == 600
        lines = list(csv.reader(io.StringIO(preds.read_text())))[1:]
        [probs] = scored
        assert [lines[i][3] for i in own] == [report["class_names"][k]
                                              for k in np.argmax(probs, axis=1)]

    def test_predict_without_map_routes_by_recorded_codes(self, fixture_run, tmp_path):
        outs = []
        for row_type_map in ([], ["--row-type-map", self.MAP]):
            out = tmp_path / f"pred{len(outs)}.csv"
            assert cli.main(["predict", "--model", str(fixture_run[0]), "--input", self.SYNTH,
                             *row_type_map, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("codes", [["AG01", "AG02"], []])
    def test_evaluate_refuses_a_file_that_no_row_routes_to(self, fixture_run, tmp_path,
                                                          capsys, codes):
        doc = json.loads((fixture_run[0] / "model_agriculture.json").read_text())
        doc["pipeline"]["row_type_codes"] = codes
        model, data, out = tmp_path / "model.json", tmp_path / "pl.csv", tmp_path / "eval.json"
        model.write_text(json.dumps(doc))
        header, *rows = self.synth_rows()
        data.write_text("\n".join([header, *(r for r in rows if r.startswith("PL"))]) + "\n")
        assert cli.main(["evaluate", "--model", str(model), "--data", str(data),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: no row of {data} has a 'SEGCD' code that {model} records, "
            f"{codes}\n")
        assert not out.exists()

    def test_two_files_recording_one_code_refused_without_map(self, fixture_run, tmp_path,
                                                             capsys):
        models, out = tmp_path / "models", tmp_path / "pred.csv"
        models.mkdir()
        for tag in ("agriculture", "personal"):
            doc = json.loads((fixture_run[0] / f"model_{tag}.json").read_text())
            if tag == "personal":
                doc["pipeline"]["row_type_codes"] = ["AG02", "PL01"]
            (models / f"model_{tag}.json").write_text(json.dumps(doc))
        argv = ["predict", "--model", str(models), "--input", self.SYNTH, "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: {models}/model_agriculture.json and {models}/model_personal.json "
            "both record the row-type code 'AG02'\n")
        assert not out.exists()
        assert cli.main(argv + ["--row-type-map", self.MAP]) == 0

    def test_evaluate_logs_the_rows_it_leaves_out(self, fixture_run, tmp_path, caplog):
        model = fixture_run[0] / "model_agriculture.json"
        header, *rows = self.synth_rows()
        renamed, own = tmp_path / "renamed.csv", tmp_path / "own.csv"
        renamed.write_text("\n".join([header, *(r.replace("AG02,", "AG03,", 1)
                                                for r in rows)]) + "\n")
        own.write_text("\n".join([header, *(r for r in rows if r.startswith("AG"))]) + "\n")
        logged = {}
        for data in (renamed, self.SYNTH, own):
            caplog.clear()
            with caplog.at_level("INFO", logger="hyquc"):
                assert cli.main(["evaluate", "--model", str(model), "--data", str(data),
                                 "--out", str(tmp_path / "eval.json")]) == 0
            logged[data] = [rec.getMessage() for rec in caplog.records if rec.name == "hyquc"]
        assert logged == {
            renamed: [f"909 of 1200 rows left out: {model} records none of their 'SEGCD' "
                      "codes, 'AG03', 'PL01'"],
            self.SYNTH: [f"600 of 1200 rows left out: {model} records none of their "
                         "'SEGCD' codes, 'PL01'"],
            own: []}

    def test_byte_order_mark_copy_scores_as_the_bare_file(self, fixture_run, tmp_path):
        models = fixture_run[0]
        bom = tmp_path / "bom.csv"
        with open(self.SYNTH, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        outputs = {}
        for name, data in (("bare", self.SYNTH), ("bom", bom)):
            out = tmp_path / name
            out.mkdir()
            for tag in ("agriculture", "personal"):
                assert cli.main(["evaluate", "--model", str(models / f"model_{tag}.json"),
                                 "--data", str(data), "--out", str(out / f"{tag}.json")]) == 0
            for i, row_type_map in enumerate(([], ["--row-type-map", self.MAP])):
                assert cli.main(["predict", "--model", str(models), "--input", str(data),
                                 *row_type_map, "--out", str(out / f"pred{i}.csv")]) == 0
            outputs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert len(outputs["bom"]) == 4 and outputs["bom"] == outputs["bare"]

    def test_evaluate_error_names_the_input_row(self, fixture_run, tmp_path, capsys):
        # the third agriculture row, after personal rows: its number in the
        # file is not its number among the routed rows
        header, *rows = self.synth_rows()
        i = [j for j, r in enumerate(rows) if r.startswith("AG")][2]
        assert i != 2
        code, grade, _, rest = rows[i].split(",", 3)
        rows[i] = f"{code},{grade},inf,{rest}"
        data = tmp_path / "data.csv"
        data.write_text("\n".join([header, *rows]) + "\n")
        assert cli.main(["evaluate", "--model",
                         str(fixture_run[0] / "model_agriculture.json"),
                         "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: row type 'agriculture': column 'F1', row {i}: "
            "non-finite number 'inf'\n")


class TestHostileInput:
    """A malformed model file or an unparseable CSV line stops the command
    with one named error and exit code 1, never a traceback."""

    @pytest.mark.parametrize("edit, message", [
        *((lambda doc, key=key: doc.pop(key), f"no {key!r} key")
          for key in ("spec", "qweights", "head", "n_classes")),
        (lambda doc: doc["spec"].update(n_qubits="5"),
         "'spec.n_qubits' must be an integer, not a string"),
        (lambda doc: doc["spec"].update(depth=2), "unknown key 'spec.depth'"),
        (lambda doc: doc["spec"].pop("n_layers"), "no 'spec.n_layers' key"),
        (lambda doc: doc["spec"].update(n_layers=0), "'spec.n_layers': n_layers must be >= 1"),
        (lambda doc: doc["spec"].update(n_qubits=40),
         "'spec.n_qubits': n_qubits=40 exceeds the simulator cap of 16"),
        (lambda doc: doc["spec"].update(embedding_rotation_axis="Q"),
         "'spec.embedding_rotation_axis': embedding_rotation_axis must be 'Y' or 'X', "
         "not 'Q'"),
        (lambda doc: doc["head"][0].pop("bias"), "no 'head[0].bias' key"),
        (lambda doc: doc.update(head={}), "'head' must be an array, not an object"),
        (lambda doc: doc.update(n_classes=True), "'n_classes' must be an integer, not a boolean"),
        (lambda doc: doc.pop("pipeline"), "no 'pipeline' key"),
        (lambda doc: doc.update(pipeline=None), "'pipeline' must be an object, not null"),
        (lambda doc: doc["pipeline"].pop("pca_mean"), "no 'pipeline.pca_mean' key"),
        (lambda doc: doc["pipeline"].pop("date_format"), "no 'pipeline.date_format' key"),
        (lambda doc: doc["pipeline"].update(encoder_columns=3),
         "'pipeline.encoder_columns' must be an array, not an integer"),
        (lambda doc: doc["pipeline"]["encoder_columns"][0].pop("kind"),
         "no 'pipeline.encoder_columns[0].kind' key"),
        (lambda doc: doc["pipeline"]["encoder_columns"].__setitem__(0, "F1"),
         "'pipeline.encoder_columns[0]' must be an object, not a string"),
        (lambda doc: doc["pipeline"]["encoder_columns"][0].update(scale=2.0),
         "unknown key 'pipeline.encoder_columns[0].scale'"),
        (lambda doc: doc["pipeline"]["encoder_columns"][0].update(kind="ordinal"),
         "'pipeline.encoder_columns[0].kind' must be one of numeric, date, categorical, "
         "not 'ordinal'"),
        (lambda doc: doc["pipeline"]["encoder_columns"][0].update(median=None),
         "'pipeline.encoder_columns[0]' is a numeric column without median"),
        (lambda doc: doc["pipeline"].update(class_names="x"),
         "'pipeline.class_names' must be an array, not a string"),
        (lambda doc: doc["pipeline"].update(label_column=1),
         "'pipeline.label_column' must be a string or null, not an integer"),
        (lambda doc: doc["spec"].update(n_qubits=4),
         "weights must have shape (1, 4, 3), got (1, 2, 3)"),
        (lambda doc: doc.update(n_classes=4), "head output width 3 != n_classes 4"),
        (lambda doc: doc["head"][0].update(activation="tanh"),
         "'head[0]': unknown activation 'tanh'"),
        # written as Infinity, which json.load reads like 1e400
        (lambda doc: doc["qweights"][0][0].__setitem__(0, float("inf")),
         "weights must be finite"),
        (lambda doc: doc["pipeline"].update(n_components=9),
         "'pipeline.n_components' must equal 'spec.n_qubits', 2, not 9"),
        (lambda doc: doc["pipeline"]["scale_mins"].pop(),
         "'pipeline.scale_mins' must hold 2 elements, one per component, not 1"),
        (lambda doc: doc["pipeline"]["class_names"].pop(),
         "'pipeline.class_names' must hold n_classes, 3, distinct names, not ['g1', 'g2']"),
        (lambda doc: doc["pipeline"]["class_names"].append("g4"),
         "'pipeline.class_names' must hold n_classes, 3, distinct names, "
         "not ['g1', 'g2', 'g3', 'g4']"),
        (lambda doc: doc["pipeline"].update(class_names=["g1", "g1", "g3"]),
         "'pipeline.class_names' must hold n_classes, 3, distinct names, "
         "not ['g1', 'g1', 'g3']"),
        (lambda doc: doc.update(row_type="T2"),
         "'row_type' 'T2' differs from 'pipeline.row_type' 'T1'"),
        (lambda doc: doc["pipeline"]["encoder_columns"].append(
            doc["pipeline"]["encoder_columns"][0]),
         "'pipeline.encoder_columns' encode 3 features, but 'pipeline.pca_mean' holds 2"),
    ], ids=["no-spec", "no-qweights", "no-head", "no-n_classes", "spec-string-n_qubits",
            "spec-unknown-key", "spec-no-n_layers", "spec-zero-n_layers",
            "spec-n_qubits-over-cap", "spec-unknown-axis", "head-layer-no-bias", "head-object",
            "boolean-n_classes", "no-pipeline", "null-pipeline", "pipeline-no-pca_mean",
            "pipeline-no-date_format", "pipeline-integer-encoder_columns",
            "encoder-column-no-kind", "encoder-column-string", "encoder-column-unknown-key",
            "encoder-column-unknown-kind", "encoder-column-null-median",
            "pipeline-string-class_names", "pipeline-integer-label_column",
            "spec-n_qubits-off-weights", "n_classes-off-head", "head-unknown-activation",
            "infinite-qweight", "n_components-off-spec", "short-scale_mins",
            "short-class_names", "long-class_names", "repeated-class_names",
            "row_type-off-pipeline", "repeated-encoder_column"])
    def test_malformed_model_file_names_file_and_key(self, workdir, trained, tmp_path,
                                                      capsys, edit, message):
        doc = json.loads((trained / "model_T1.json").read_text())
        edit(doc)
        bad = tmp_path / "model_T1.json"
        bad.write_text(json.dumps(doc))
        for argv in (["evaluate", "--model", str(bad), "--data", str(workdir / "data.csv")],
                     ["predict", "--model", str(bad), "--input", str(workdir / "data.csv")]):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"hyquc: error: {bad}: {message}\n"

    @pytest.mark.parametrize("cut, message", [
        (lambda text: text[:300], "not valid JSON: Expecting"),
        (lambda text: text.replace('"g1"', '"g\xe9"', 1),
         "byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    ], ids=["truncated", "latin-1"])
    def test_unreadable_model_file_named(self, workdir, trained, tmp_path, capsys, cut,
                                         message):
        # one file of a model directory may be the bad one
        bad = tmp_path / "models"
        bad.mkdir()
        for name in ("model_T1.json", "model_T2.json"):
            (bad / name).write_bytes((trained / name).read_bytes())
        path = bad / "model_T2.json"
        path.write_bytes(cut(path.read_text()).encode("latin-1"))
        for argv in (["evaluate", "--model", str(path), "--data", str(workdir / "data.csv")],
                     ["predict", "--model", str(bad), "--input", str(workdir / "data.csv")]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"hyquc: error: {path}:") and message in err
            assert err.count("\n") == 1

    def test_model_file_with_byte_order_mark_loads(self, trained, tmp_path):
        path = tmp_path / "model_T1.json"
        path.write_bytes(b"\xef\xbb\xbf" + (trained / "model_T1.json").read_bytes())
        (model, pipe), (want, want_pipe) = (
            serialize.load_model(p) for p in (path, trained / "model_T1.json"))
        np.testing.assert_array_equal(model.qweights, want.qweights)
        assert pipe.to_dict() == want_pipe.to_dict()

    def test_input_byte_that_is_not_utf8_names_file_and_line(self, trained, tmp_path,
                                                              capsys):
        # past the first 8 KiB, which the reader decodes as one piece
        with open(os.path.join(DATA_DIR, "synth.csv"), "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[300] = b"\xe9" + lines[300]
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"\n".join(lines))
        assert cli.main(["predict", "--model", str(trained), "--input", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: {bad}:301: byte 0xe9 is not UTF-8 (invalid continuation byte)\n")

    def test_model_file_not_an_object(self, workdir, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("[1, 2]")
        assert cli.main(["evaluate", "--model", str(bad),
                         "--data", str(workdir / "data.csv")]) == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: {bad}: a model document is a JSON object, not an array\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(format="other"), "not a model document"),
        (lambda doc: doc.update(version=2), "unsupported model version 2"),
    ], ids=["format", "version"])
    def test_format_and_version_messages_kept(self, workdir, trained, tmp_path, capsys,
                                              edit, message):
        doc = json.loads((trained / "model_T1.json").read_text())
        edit(doc)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--model", str(bad),
                         "--data", str(workdir / "data.csv")]) == 1
        assert capsys.readouterr().err == f"hyquc: error: {message}\n"

    def test_boolean_version_refused(self, workdir, trained, tmp_path, capsys):
        # True == 1 in Python, but a JSON boolean is not the version number 1
        doc = json.loads((trained / "model_T1.json").read_text())
        doc["version"] = True
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--model", str(bad),
                         "--data", str(workdir / "data.csv")]) == 1
        assert capsys.readouterr().err == "hyquc: error: unsupported model version True\n"

    def test_spec_without_its_defaulted_keys_loads(self, workdir, trained, tmp_path):
        doc = json.loads((trained / "model_T1.json").read_text())
        del doc["spec"]["embedding_rotation_axis"], doc["spec"]["entangler_range"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--model", str(path),
                         "--data", str(workdir / "data.csv")]) == 0

    def test_z_embedding_model_file_refused(self, workdir, trained, tmp_path, capsys):
        doc = json.loads((trained / "model_T1.json").read_text())
        doc["spec"]["embedding_rotation_axis"] = "Z"
        bad = tmp_path / "model_T1.json"
        bad.write_text(json.dumps(doc))
        for argv in (["evaluate", "--model", str(bad), "--data", str(workdir / "data.csv")],
                     ["predict", "--model", str(bad), "--input", str(workdir / "data.csv")]):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                f"hyquc: error: {bad}: 'spec.embedding_rotation_axis': "
                "embedding_rotation_axis must be 'Y' or 'X', not 'Z': RZ "
                "leaves |0...0> unchanged up to a phase\n")

    def test_x_embedding_model_file_scores_as_y_with_shifted_gamma(self, workdir, trained,
                                                                  tmp_path):
        # an older model file may embed with RX, which is RY after RZ(-pi/2)
        doc = json.loads((trained / "model_T1.json").read_text())
        x_doc = json.loads(json.dumps(doc))
        x_doc["spec"]["embedding_rotation_axis"] = "X"
        for wire in doc["qweights"][0]:
            wire[2] -= np.pi / 2
        probs = {}
        for name, model in (("X", x_doc), ("Y", doc)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "model_T1.json").write_text(json.dumps(model))
            (tmp_path / name / "model_T2.json").write_text((trained / "model_T2.json").read_text())
            out = tmp_path / name / "predictions.csv"
            assert cli.main(["predict", "--model", str(tmp_path / name),
                             "--input", str(workdir / "data.csv"), "--out", str(out)]) == 0
            rows = list(csv.reader(io.StringIO(out.read_text())))
            probs[name] = np.array([[float(p.split("=")[1]) for p in row[-1].split(";")]
                                    for row in rows[1:]])
        np.testing.assert_allclose(probs["X"], probs["Y"], rtol=0, atol=1e-12)

    def test_type_hints_resolved_once_per_class(self, fixture_run):
        # each cache miss is one get_type_hints call: CircuitSpec and ColumnSpec
        errors._type_hints.cache_clear()
        for _ in range(2):
            serialize.load_model(fixture_run[0] / "model_agriculture.json")
        info = errors._type_hints.cache_info()
        assert (info.misses, info.currsize) == (2, 2) and info.hits > 0

    def test_overflowing_cell_names_row_type(self, tmp_path, capsys):
        # 1e308 is finite, but the PCA covariance of its column overflows
        for name in ("synth.csv", "rowtypes.map", "run.cfg"):
            with open(os.path.join(DATA_DIR, name)) as fh:
                (tmp_path / name).write_text(fh.read())
        lines = (tmp_path / "synth.csv").read_text().split("\n")
        column = lines[0].split(",").index("F1")
        for i in range(1, 11):  # some of them fall in the training split
            cells = lines[i].split(",")
            cells[column] = "1e308"
            lines[i] = ",".join(cells)
        (tmp_path / "synth.csv").write_text("\n".join(lines))
        assert cli.main(["train", "--config", str(tmp_path / "run.cfg"),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "hyquc: error: row type 'agriculture': feature values too large for PCA: "
            "their covariance overflows\n")

    def test_over_long_csv_field_names_file_and_line(self, trained, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("SEGCD,F1,F2\nT1,0.2,0.2\nT1," + "9" * 140_000 + ",0.1\n")
        assert cli.main(["predict", "--model", str(trained), "--input", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"hyquc: error: {p}:3: field larger than field limit (131072)\n")


    # the mutations of model_agriculture.json that leave a document the schema
    # takes: a defaulted key dropped, or a value of another type the key takes
    ACCEPTED = {("row_type", "drop"), ("spec.embedding_rotation_axis", "drop"),
                ("spec.entangler_range", "drop"),
                ("pipeline.encoder_columns[0].categories", "drop"),
                ("pipeline.encoder_columns[0].categories", "an array"),
                ("pipeline.date_format", "a string"), ("pipeline.row_type_column", "null"),
                ("pipeline.row_type_codes", "drop")}

    def test_every_key_dropped_or_retyped_is_one_named_error(self, fixture_run, tmp_path,
                                                              capsys):
        """Each key path of a trained model file (the first element of an
        array of objects stands for the rest) is dropped, then replaced by a
        value of each JSON type it does not have.  ``evaluate`` exits 0 on
        the ACCEPTED mutations and otherwise 1 with one error line and no
        ``--out`` file; a traceback would fail the test by raising."""
        doc = json.loads((fixture_run[0] / "model_agriculture.json").read_text())
        samples = {"an object": {}, "an array": [], "a string": "x", "an integer": 1,
                   "a number": 0.5, "a boolean": True, "null": None}

        def key_paths(value, path=()):
            items = (value.items() if type(value) is dict else
                     [(0, value[0])] if type(value) is list and value
                     and type(value[0]) is dict else [])
            for key, child in items:
                yield path + (key,)
                yield from key_paths(child, path + (key,))

        model, out = tmp_path / "model.json", tmp_path / "eval.json"
        argv = ["evaluate", "--model", str(model),
                "--data", os.path.join(DATA_DIR, "synth.csv"), "--out", str(out)]
        paths, accepted, refused = 0, set(), []
        for path in key_paths(doc):
            paths += 1
            name = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:]
            value = doc
            for key in path:
                value = value[key]
            for mutation, new in [("drop", None), *((kind, v) for kind, v in samples.items()
                                                    if type(v) is not type(value))]:
                mutated = json.loads(json.dumps(doc))
                owner = mutated
                for key in path[:-1]:
                    owner = owner[key]
                if mutation == "drop":
                    del owner[path[-1]]
                else:
                    owner[path[-1]] = new
                model.write_text(json.dumps(mutated))
                rc = cli.main(argv)
                err = capsys.readouterr().err
                if rc == 0 and out.exists():
                    accepted.add((name, mutation))
                    out.unlink()
                elif not (rc == 1 and err.startswith("hyquc: error: ")
                          and err.count("\n") == 1 and not out.exists()):
                    refused.append((name, mutation, rc, err))
        assert paths == 37
        assert refused == []
        assert accepted == self.ACCEPTED

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["pipeline"].update(merges=[3]),
         "'pipeline.merges[0]' must be an array, not an integer"),
        (lambda doc: doc["pipeline"]["scale_mins"].__setitem__(0, {}),
         "'pipeline.scale_mins[0]' must be a number, not an object"),
        (lambda doc: doc["qweights"][0][0].__setitem__(0, "a"),
         "'qweights[0][0][0]' must be a number, not a string"),
        (lambda doc: doc["pipeline"]["pca_mean"].__setitem__(0, "a"),
         "'pipeline.pca_mean[0]' must be a number, not a string"),
        (lambda doc: doc["pipeline"].update(class_names=[1, 2, 3]),
         "'pipeline.class_names[0]' must be a string, not an integer"),
        (lambda doc: doc["pipeline"].update(merges=[["g3"]]),
         "'pipeline.merges[0]' must hold 2 class names, not 1"),
        (lambda doc: doc["pipeline"]["pca_components"][1].pop(),
         "'pipeline.pca_components[1]' must hold 11 elements like "
         "'pipeline.pca_components[0]', not 10"),
        (lambda doc: doc["head"][0]["bias"].__setitem__(0, True),
         "'head[0].bias[0]' must be a number, not a boolean"),
        (lambda doc: doc["pipeline"].update(exclude_columns=[1]),
         "'pipeline.exclude_columns[0]' must be a string, not an integer"),
        (lambda doc: doc["pipeline"]["encoder_columns"][6]["categories"].__setitem__(0, 1),
         "'pipeline.encoder_columns[6].categories[0]' must be a string, not an integer"),
        (lambda doc: doc["pipeline"]["pca_mean"].pop(),
         "'pipeline.pca_components' rows must hold 10 elements like 'pipeline.pca_mean', "
         "not 11"),
        (lambda doc: doc["pipeline"]["pca_components"].pop(),
         "'pipeline.n_components' must be at least 1 and at most the row count of "
         "'pipeline.pca_components', 4, not 5"),
        (lambda doc: doc["pipeline"]["scale_maxs"].append(1.0),
         "'pipeline.scale_maxs' must hold 5 elements, one per component, not 6"),
        (lambda doc: doc["pipeline"]["encoder_columns"][6].update(categories=[]),
         "'pipeline.encoder_columns' encode 7 features, but 'pipeline.pca_mean' holds 11"),
        (lambda doc: doc["pipeline"]["encoder_columns"][6]["categories"].__setitem__(1, "east"),
         "'pipeline.encoder_columns[6].categories' must hold distinct names, "
         "not ['east', 'east', 'south', 'west']"),
    ], ids=["integer-merge", "object-scale_min", "string-qweight", "string-pca_mean",
            "integer-class_names", "one-name-merge", "ragged-pca_components",
            "boolean-bias", "integer-exclude_column", "integer-category",
            "short-pca_mean", "short-pca_components", "long-scale_maxs",
            "empty-categories", "repeated-category"])
    def test_malformed_array_element_names_file_and_element(self, fixture_run, tmp_path,
                                                            capsys, edit, message):
        doc = json.loads((fixture_run[0] / "model_agriculture.json").read_text())
        assert doc["pipeline"]["encoder_columns"][6]["kind"] == "categorical"
        edit(doc)
        bad, out = tmp_path / "model.json", tmp_path / "eval.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--model", str(bad), "--out", str(out),
                         "--data", os.path.join(DATA_DIR, "synth.csv")]) == 1
        assert capsys.readouterr().err == f"hyquc: error: {bad}: {message}\n"
        assert not out.exists()

    def test_every_array_element_retyped_is_one_named_error(self, fixture_run, tmp_path,
                                                            capsys):
        """The first leaf of each nonempty array of a trained model file (an
        array of objects is walked into instead) is replaced by a value of
        each JSON type it does not have.  ``evaluate`` exits 1 with one error
        line that names the element, and writes no ``--out`` file."""
        doc = json.loads((fixture_run[0] / "model_agriculture.json").read_text())
        samples = [{}, [], "x", 1, 0.5, True, None]

        def first_leaves(value, path=()):
            if type(value) is dict:
                for key, child in value.items():
                    yield from first_leaves(child, path + (key,))
            elif type(value) is list and value and type(value[0]) is dict:
                for i, child in enumerate(value):
                    yield from first_leaves(child, path + (i,))
            elif type(value) is list and value:
                while type(value) is list:
                    value, path = value[0], path + (0,)
                yield path, value

        model, out = tmp_path / "model.json", tmp_path / "eval.json"
        argv = ["evaluate", "--model", str(model),
                "--data", os.path.join(DATA_DIR, "synth.csv"), "--out", str(out)]
        leaves, wrong = [], []
        for path, leaf in first_leaves(doc):
            name = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:]
            leaves.append(name)
            for new in (v for v in samples if type(v) is not type(leaf)):
                mutated = json.loads(json.dumps(doc))
                owner = mutated
                for key in path[:-1]:
                    owner = owner[key]
                owner[path[-1]] = new
                model.write_text(json.dumps(mutated))
                rc = cli.main(argv)
                err = capsys.readouterr().err
                if not (rc == 1 and err.startswith(f"hyquc: error: {model}: {name!r} ")
                        and err.count("\n") == 1 and not out.exists()):
                    wrong.append((name, new, rc, err))
        assert leaves == [
            "qweights[0][0][0]", "head[0].weights[0][0]", "head[0].bias[0]",
            "head[1].weights[0][0]", "head[1].bias[0]", "pipeline.dropped_missing[0]",
            "pipeline.class_names[0]", "pipeline.encoder_columns[6].categories[0]",
            "pipeline.pca_mean[0]", "pipeline.pca_components[0][0]",
            "pipeline.pca_explained_variance[0]", "pipeline.scale_mins[0]",
            "pipeline.scale_maxs[0]", "pipeline.row_type_codes[0]"]
        assert wrong == []


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The bytes of the committed fixture's CSV, row-type map and config (set
    to one epoch, so that a train takes about 0.1 s), and a directory of the
    models they train."""
    files = {}
    for name in ("synth.csv", "rowtypes.map", "run.cfg"):
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            files[name] = fh.read()
    files["run.cfg"] = files["run.cfg"].replace(b"epochs = 50", b"epochs = 1")
    d = tmp_path_factory.mktemp("fuzz")
    for name, data in files.items():
        (d / name).write_bytes(data)
    assert fuzz_run(["train", "--config", str(d / "run.cfg"), "--out", str(d / "models")]) \
        == (0, "")
    return files, d / "models"


def fuzz_run(argv):
    """The exit code and stderr of one in-process command; an exception that
    escapes ``cli.main`` fails the test with its traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # an argparse usage error
            rc = exc.code
    return rc, err.getvalue()


@st.composite
def mutated(draw, data: bytes, separator: str) -> bytes:
    """``data`` with one line's key dropped, or one of its cells (fields
    split by ``separator``) retyped, padded or made over-long, or up to four
    of its bytes overwritten."""
    kind = draw(st.sampled_from(["drop", "retype", "pad", "overlong", "corrupt"]))
    if kind == "corrupt":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    lines = data.decode().split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(separator)
    j = draw(st.integers(0, len(cells) - 1))
    if kind == "drop":
        # a CSV row loses a cell; a config or map line loses its key
        cells = cells[:j] + cells[j + 1:] if separator == "," else []
    elif kind == "retype":
        cells[j] = draw(st.sampled_from(["", "x", "0", "-1", "1.5", "nan", "inf", "1e308",
                                         "%", "a, b", "g1->", "g1->g1; x", "\u00e9", '"']))
    elif kind == "pad":
        cells[j] = f" \t{cells[j]}  "
    else:
        cells[j] = draw(st.sampled_from("9x")) * 140_000
    lines[i] = separator.join(cells)
    return "\n".join(lines).encode()


class TestFuzz:
    """``train``, ``predict`` and ``evaluate`` on mutated copies of the
    fixture's CSV, row-type map and config: each run exits 0 (or 2, where
    ``predict`` flags rows of a row type without a model) with no error
    line, or 1 with exactly one ``hyquc: error:`` line, never a traceback,
    and leaves no half-written ``.tmp-*`` file in its output directory."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_inputs_exit_cleanly(self, fuzz_inputs, tmp_path_factory, data):
        files, models = fuzz_inputs
        target = data.draw(st.sampled_from(sorted(files)), label="target")
        files = dict(files)
        files[target] = data.draw(
            mutated(files[target], "," if target == "synth.csv" else "="), label="mutated")
        d = tmp_path_factory.mktemp("fuzz_case")
        for name, content in files.items():
            (d / name).write_bytes(content)
        csv_path, map_path, out = str(d / "synth.csv"), str(d / "rowtypes.map"), d / "out"
        out.mkdir()
        runs = [
            ("train", ["train", "--config", str(d / "run.cfg"), "--out", str(out / "train")]),
            ("predict", ["predict", "--model", str(models), "--input", csv_path,
                         "--row-type-map", map_path, "--out", str(out / "predictions.csv")]),
            ("evaluate", ["evaluate", "--model", str(models / "model_personal.json"),
                          "--data", csv_path, "--out", str(out / "report.json")]),
        ]
        for command, argv in runs:
            rc, err = fuzz_run(argv)
            if rc == 1:
                assert err.count("\n") == 1 and err.startswith("hyquc: error: "), (command, err)
            else:
                assert rc == 0 or (rc == 2 and command == "predict"), (command, rc, err)
                assert "hyquc: error:" not in err, (command, err)
            assert "Traceback" not in err
            left = [name for _, _, names in os.walk(out) for name in names
                    if name.startswith(".tmp-")]
            assert left == [], (command, left)
