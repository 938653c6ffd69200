"""Data pipeline: partitioning, cleaning, encoding, merge, PCA, scaling,
SMOTE and stratified splitting."""
import numpy as np
import pytest

from hyquc import pipeline as pl
from hyquc.errors import AugmentationError, SchemaError, ShapeError, SplitError
from hyquc.pipeline import RowTypeDataset, TabularDataset

# class structure of the two published loan portfolios
AGRI_COUNTS = {"Standard": 17496, "Sub Standard": 294, "Doubtful": 2577,
               "Loss": 210}
PERSONAL_COUNTS = {"Standard": 4398, "Sub Standard": 126, "Doubtful": 129,
                   "Loss": 3}

# columns of the published missing-value table for the personal portfolio
# (4656 rows): every fraction exceeds the 0.70 threshold
PERSONAL_MISSING = {
    "OPINIONDT": 4436, "DIRFINFLG": 4656, "SANAUTCD": 3838, "DOCREVDT": 4229,
    "PRISECCD2": 4406, "RENEWALDT": 4656, "INSEXPDT": 4439, "TFRDT": 4216,
    "REASONCD": 4181, "RECALLDT": 4216, "WOSACD": 4568,
}


def loan_table(counts_by_type):
    """Raw table with one row per (loan type, class) count."""
    rows = []
    for loan_type, counts in counts_by_type.items():
        for label, count in counts.items():
            rows.extend([[loan_type, label, "1.0"]] * count)
    return TabularDataset(["LOANTYPE", "IRAC", "AMT"], rows,
                          label_column="IRAC", row_type_column="LOANTYPE")


def missing_value_table():
    """4656-row table reproducing the published per-column missing counts,
    plus fully observed columns that must survive the threshold."""
    n = 4656
    names = ["IRAC", "KEPT1", "KEPT2", *PERSONAL_MISSING]
    rows = []
    for i in range(n):
        row = ["Standard", "1.5", "x"]
        for col, miss in PERSONAL_MISSING.items():
            row.append(None if i < miss else "7")
        rows.append(row)
    return TabularDataset(names, rows, label_column="IRAC")


class TestPartition:
    def test_published_portfolio_sizes(self):
        data = loan_table({"Agriculture Loan": AGRI_COUNTS,
                           "Personal Loan": PERSONAL_COUNTS})
        parts = pl.partition_by_row_type(data)
        assert len(parts["Agriculture Loan"]) == 20577
        assert len(parts["Personal Loan"]) == 4656

    def test_single_type(self):
        data = loan_table({"Personal Loan": {"Standard": 5}})
        parts = pl.partition_by_row_type(data)
        assert list(parts) == ["Personal Loan"]
        assert parts["Personal Loan"].rows == data.rows

    def test_counting_oracle(self):
        rng = np.random.default_rng(2)
        types = rng.choice(["a", "b", "c"], size=100)
        data = TabularDataset(["T", "L"], [[t, "x"] for t in types],
                              label_column="L", row_type_column="T")
        parts = pl.partition_by_row_type(data)
        assert sum(len(p) for p in parts.values()) == 100
        for t in "abc":
            assert len(parts[t]) == int(np.sum(types == t))

    def test_code_map_grouping(self):
        data = TabularDataset(["T", "L"], [["A1", "x"], ["A2", "x"], ["B1", "y"]],
                              label_column="L", row_type_column="T")
        parts = pl.partition_by_row_type(
            data, {"A1": "agri", "A2": "agri", "B1": "personal"})
        assert len(parts["agri"]) == 2
        assert len(parts["personal"]) == 1

    def test_unknown_code(self):
        data = TabularDataset(["T", "L"], [["ZZ", "x"]],
                              label_column="L", row_type_column="T")
        with pytest.raises(SchemaError, match="'ZZ'"):
            pl.partition_by_row_type(data, {"A1": "agri"})

    def test_missing_row_type_column(self):
        data = TabularDataset(["L"], [["x"]], label_column="L")
        with pytest.raises(SchemaError):
            pl.partition_by_row_type(data)


class TestDropInapplicable:
    def test_listed_columns_removed(self):
        data = TabularDataset(["DRYLAND", "WETLAND", "IRAC"],
                              [["1", "2", "Standard"]], label_column="IRAC")
        out = pl.drop_inapplicable_columns(data, ["DRYLAND", "WETLAND"])
        assert out.column_names == ["IRAC"]

    def test_empty_exclusion_unchanged(self):
        data = TabularDataset(["A", "IRAC"], [["1", "x"]], label_column="IRAC")
        out = pl.drop_inapplicable_columns(data, [])
        assert out.column_names == data.column_names
        assert out.rows == data.rows

    def test_nonexistent_column_logged(self, caplog):
        data = TabularDataset(["A", "IRAC"], [["1", "x"]], label_column="IRAC")
        with caplog.at_level("INFO", logger="hyquc.pipeline"):
            out = pl.drop_inapplicable_columns(data, ["NOPE"])
        assert out.column_names == data.column_names
        assert any("NOPE" in rec.message for rec in caplog.records)


class TestDropHighMissing:
    def test_published_columns_dropped(self):
        data = missing_value_table()
        out, dropped = pl.drop_high_missing(data, 0.70)
        assert {name for name, _ in dropped} == set(PERSONAL_MISSING)
        assert out.column_names == ["IRAC", "KEPT1", "KEPT2"]
        # reported fractions match the published counts
        fractions = dict(dropped)
        assert fractions["DIRFINFLG"] == 1.0
        assert abs(fractions["SANAUTCD"] - 3838 / 4656) < 1e-12

    def test_retained_columns_below_threshold(self):
        data = missing_value_table()
        out, _ = pl.drop_high_missing(data, 0.70)
        for frac in pl.missing_fractions(out).values():
            assert frac <= 0.70

    def test_threshold_is_strict(self):
        # exactly at the threshold stays
        rows = [["x", None], ["x", None], ["x", None], ["x", None],
                ["x", None], ["x", None], ["x", None], ["x", "1"],
                ["x", "1"], ["x", "1"]]
        data = TabularDataset(["L", "C"], rows, label_column="L")
        out, dropped = pl.drop_high_missing(data, 0.70)
        assert dropped == []
        assert "C" in out.column_names

    def test_label_column_protected(self):
        data = TabularDataset(["L", "C"], [[None, "1"]] * 4 + [["x", "1"]],
                              label_column="L")
        out, dropped = pl.drop_high_missing(data, 0.70)
        assert "L" in out.column_names

    def test_threshold_validation(self):
        data = TabularDataset(["L"], [["x"]], label_column="L")
        with pytest.raises(ValueError):
            pl.drop_high_missing(data, 0.0)


class TestImputeAndEncode:
    def test_median_imputation(self):
        data = TabularDataset(["V", "L"], [["1", "a"], [None, "a"], ["3", "b"]],
                              label_column="L")
        ds = pl.impute_and_encode(data)
        np.testing.assert_array_equal(ds.X[:, 0], [1.0, 2.0, 3.0])

    def test_categorical_indicators(self):
        data = TabularDataset(["C", "L"],
                              [["A", "a"], ["B", "a"], [None, "b"]],
                              label_column="L")
        ds = pl.impute_and_encode(data)
        assert ds.X.shape == (3, 3)  # A, B, missing
        np.testing.assert_array_equal(ds.X, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_date_parsing(self):
        data = TabularDataset(["D", "L"],
                              [["1970-01-02", "a"], [None, "b"],
                               ["1970-01-04", "a"]],
                              label_column="L")
        ds = pl.impute_and_encode(data, date_format="%Y-%m-%d")
        np.testing.assert_array_equal(ds.X[:, 0], [1.0, 2.0, 3.0])

    def test_all_missing_column_dropped(self, caplog):
        data = TabularDataset(["V", "W", "L"],
                              [[None, "1", "a"], [None, "2", "b"]],
                              label_column="L")
        with caplog.at_level("INFO", logger="hyquc.pipeline"):
            ds = pl.impute_and_encode(data)
        assert ds.X.shape == (2, 1)
        assert any("'V'" in rec.message for rec in caplog.records)

    def test_finiteness_on_random_fixture(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(60):
            num = "" if rng.random() < 0.3 else f"{rng.normal():.3f}"
            cat = rng.choice(["u", "v", ""])
            rows.append([num or None, cat or None, "a" if rng.random() < 0.5
                         else "b"])
        data = TabularDataset(["N", "C", "L"], rows, label_column="L")
        ds = pl.impute_and_encode(data)
        assert np.all(np.isfinite(ds.X))

    def test_unseen_category_treated_missing(self):
        enc = pl.ColumnEncoder().fit(
            TabularDataset(["C", "L"], [["A", "a"], ["B", "a"]],
                           label_column="L"))
        X = enc.transform(TabularDataset(["C", "L"], [["Z", "a"]],
                                         label_column="L"))
        np.testing.assert_array_equal(X, [[0, 0, 1]])

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_non_finite_cell_named_on_fit(self, cell):
        data = TabularDataset(["V", "L"], [["1", "a"], ["2", "b"], [cell, "a"]],
                              label_column="L")
        with pytest.raises(SchemaError, match=r"column 'V', row 2: non-finite"):
            pl.ColumnEncoder().fit(data)

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_non_finite_cell_named_on_transform(self, cell):
        enc = pl.ColumnEncoder().fit(
            TabularDataset(["V", "L"], [["1", "a"], ["2", "b"]], label_column="L"))
        with pytest.raises(SchemaError, match=r"column 'V', row 1: non-finite"):
            enc.transform(TabularDataset(["V", "L"], [["3", "a"], [cell, "a"]],
                                         label_column="L"))

    def test_missing_columns_on_transform(self):
        enc = pl.ColumnEncoder().fit(
            TabularDataset(["A", "L"], [["1", "a"]], label_column="L"))
        with pytest.raises(SchemaError, match="missing columns"):
            enc.transform(TabularDataset(["B", "L"], [["1", "a"]],
                                         label_column="L"))


class TestMergeMinorityClass:
    def published_personal(self):
        labels = []
        for name, count in PERSONAL_COUNTS.items():
            labels.extend([name] * count)
        y, class_names = pl.encode_labels(labels)
        X = np.zeros((len(y), 2))
        return RowTypeDataset("personal", X, y, class_names)

    def test_published_consolidation(self):
        ds = self.published_personal()
        merged = pl.merge_minority_class(ds, "Loss", "Doubtful")
        counts = merged.class_counts()
        assert counts["Doubtful"] == 132
        assert len(merged.class_names) == 3
        assert "Loss" not in merged.class_names

    def test_merge_into_itself(self):
        ds = self.published_personal()
        out = pl.merge_minority_class(ds, "Loss", "Loss")
        assert out.class_counts() == ds.class_counts()

    def test_row_count_invariant(self):
        ds = self.published_personal()
        merged = pl.merge_minority_class(ds, "Sub Standard", "Standard")
        assert len(merged.y) == len(ds.y)
        assert sum(merged.class_counts().values()) == 4656

    def test_unknown_class(self):
        ds = self.published_personal()
        with pytest.raises(ValueError):
            pl.merge_minority_class(ds, "Nope", "Standard")


class TestMergeLabels:
    def test_chain_applies_in_order(self):
        merged, left = pl.merge_labels(["a", "b", "c", "d"], [("c", "b"), ("b", "a")],
                                       ["a", "b", "c", "d"])
        assert merged == ["a", "a", "a", "d"]
        assert left == ["a", "d"]

    @pytest.mark.parametrize("merges, unknown", [
        ([("x", "a")], "'x'"),
        ([("a", "x")], "'x'"),
        ([("b", "a"), ("b", "c")], "'b'"),
    ])
    def test_unknown_class_at_its_point_in_the_chain(self, merges, unknown):
        with pytest.raises(SchemaError, match=f"unknown class {unknown}"):
            pl.merge_labels(["a", "b"], merges, ["a", "b", "c"])


class TestPCA:
    def test_collinear_data(self):
        t = np.linspace(0, 1, 30)
        X = np.stack([2 * t, -t], axis=1)
        model = pl.pca_fit(X, 2)
        direction = np.array([2, -1]) / np.sqrt(5)
        assert abs(abs(model.components[0] @ direction) - 1.0) < 1e-10
        assert model.explained_variance[1] < 1e-20

    def test_isotropic_orthonormal(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 2))
        model = pl.pca_fit(X, 2)
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(2), atol=1e-10)
        ratio = model.explained_variance[0] / model.explained_variance[1]
        assert ratio < 2.0

    def test_orthonormality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X = rng.normal(size=(40, 6))
            model = pl.pca_fit(X, 4)
            np.testing.assert_allclose(model.components @ model.components.T,
                                       np.eye(4), atol=1e-10)
            assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_transform_mean_is_zero(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4))
        model = pl.pca_fit(X, 3)
        z = pl.pca_transform(model, X.mean(axis=0)[None, :])
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 5))
        model = pl.pca_fit(X, 5)
        back = pl.pca_inverse(model, pl.pca_transform(model, X))
        np.testing.assert_allclose(back, X, atol=1e-8)

    def test_transformed_variances_descending(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 5)) * np.array([5, 3, 2, 1, 0.5])
        model = pl.pca_fit(X, 5)
        var = pl.pca_transform(model, X).var(axis=0)
        assert np.all(np.diff(var) <= 1e-12)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        a = pl.pca_fit(X, 3)
        b = pl.pca_fit(X.copy(), 3)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_k_validation(self):
        X = np.zeros((5, 3))
        with pytest.raises(ValueError):
            pl.pca_fit(X, 4)
        with pytest.raises(ValueError):
            pl.pca_fit(X[:1], 1)

    def test_transform_shape_mismatch(self):
        model = pl.pca_fit(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(ShapeError):
            pl.pca_transform(model, np.zeros((2, 4)))


class TestSelectComponents:
    def test_published_clamps(self):
        model = pl.pca_fit(np.random.default_rng(1).normal(size=(100, 50)), 45)
        assert pl.select_components(model, 43, cap=5) == 5
        assert pl.select_components(model, 38, cap=5) == 5
        assert pl.select_components(model, 3, cap=5) == 3

    def test_availability_clamp(self):
        model = pl.pca_fit(np.random.default_rng(2).normal(size=(10, 3)), 2)
        assert pl.select_components(model, 10, cap=16) == 2


class TestAngleScaling:
    def test_affine_map(self):
        X = np.array([[0.0], [1.0], [2.0]])
        scaled, bounds = pl.scale_to_angle_range(X)
        np.testing.assert_allclose(scaled[:, 0], [0, np.pi / 2, np.pi],
                                   atol=1e-15)

    def test_constant_column(self):
        scaled, _ = pl.scale_to_angle_range(np.array([[5.0], [5.0]]))
        np.testing.assert_array_equal(scaled, np.pi / 2)

    def test_out_of_range_clipped(self):
        X = np.array([[0.0], [1.0]])
        _, bounds = pl.scale_to_angle_range(X)
        out = pl.apply_angle_scaling(np.array([[-3.0], [9.0]]), bounds)
        np.testing.assert_array_equal(out[:, 0], [0.0, np.pi])

    def test_bounds_replay(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        scaled, bounds = pl.scale_to_angle_range(X)
        np.testing.assert_array_equal(pl.apply_angle_scaling(X, bounds), scaled)


class TestSmote:
    def make(self, rng, counts):
        X, y = [], []
        for c, n in enumerate(counts):
            X.append(rng.normal(c * 10.0, 1.0, size=(n, 3)))
            y.append(np.full(n, c))
        return RowTypeDataset("t", np.vstack(X), np.concatenate(y),
                              [str(c) for c in range(len(counts))])

    def test_balanced_unchanged(self):
        ds = self.make(np.random.default_rng(1), [5, 5])
        out = pl.smote_oversample(ds, 3, seed=0)
        np.testing.assert_array_equal(out.X, ds.X)
        np.testing.assert_array_equal(out.y, ds.y)

    def test_growth_and_collinearity(self):
        ds = self.make(np.random.default_rng(2), [10, 4])
        out = pl.smote_oversample(ds, 3, seed=3)
        counts = out.class_counts()
        assert counts == {"0": 10, "1": 10}
        originals = ds.X[ds.y == 1]
        synthetics = out.X[len(ds.X):]
        assert len(synthetics) == 6
        for s in synthetics:
            # brute force: s must sit on a segment between two originals
            found = False
            for i in range(len(originals)):
                for j in range(len(originals)):
                    if i == j:
                        continue
                    d = originals[j] - originals[i]
                    r = s - originals[i]
                    denom = d @ d
                    lam = (r @ d) / denom
                    if -1e-9 <= lam <= 1 + 1e-9 and \
                            np.linalg.norm(r - lam * d) < 1e-9:
                        found = True
            assert found

    def test_originals_preserved(self):
        ds = self.make(np.random.default_rng(4), [8, 3])
        out = pl.smote_oversample(ds, 2, seed=5)
        np.testing.assert_array_equal(out.X[:len(ds.X)], ds.X)
        np.testing.assert_array_equal(out.y[:len(ds.y)], ds.y)

    def test_bounding_box_property(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            ds = self.make(rng, [12, 5, 7])
            out = pl.smote_oversample(ds, 4, seed=seed)
            for c in range(3):
                orig = ds.X[ds.y == c]
                lo, hi = orig.min(axis=0), orig.max(axis=0)
                synth = out.X[len(ds.X):][out.y[len(ds.y):] == c]
                assert np.all(synth >= lo - 1e-12)
                assert np.all(synth <= hi + 1e-12)

    def test_singleton_class_error(self):
        ds = self.make(np.random.default_rng(7), [5, 1])
        with pytest.raises(AugmentationError, match="'1'"):
            pl.smote_oversample(ds, 3, seed=0)

    def test_seeded_determinism(self):
        ds = self.make(np.random.default_rng(8), [9, 4])
        a = pl.smote_oversample(ds, 3, seed=11)
        b = pl.smote_oversample(ds, 3, seed=11)
        np.testing.assert_array_equal(a.X, b.X)


class TestStratifiedSplit:
    def test_boundary_fractions_rejected(self):
        y = np.zeros(20, dtype=int)
        with pytest.raises(SplitError):
            pl.stratified_split_indices(y, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(SplitError):
            pl.stratified_split_indices(y, (0.92, 0.04, 0.04), seed=0)

    def test_published_sizes(self):
        y = np.array([0] * 870 + [1] * 32 + [2] * 30)
        tr, va, te = pl.stratified_split_indices(y, (0.70, 0.15, 0.15), seed=1)
        assert (len(tr), len(va), len(te)) == (652, 140, 140)

    def test_partition_and_stratification(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 3, size=200)
        tr, va, te = pl.stratified_split_indices(y, (0.70, 0.15, 0.15), seed=3)
        all_idx = np.concatenate([tr, va, te])
        assert sorted(all_idx) == list(range(200))
        for c in range(3):
            n_c = np.sum(y == c)
            for part, frac in ((tr, 0.70), (va, 0.15), (te, 0.15)):
                got = np.sum(y[part] == c)
                assert abs(got - n_c * frac) <= 1.0

    def test_small_class_error_names_class(self):
        ds = RowTypeDataset("t", np.zeros((5, 2)),
                            np.array([0, 0, 0, 1, 1]), ["big", "small"])
        with pytest.raises(SplitError, match="'small'"):
            pl.split_train_val_test(ds, (0.70, 0.15, 0.15), seed=0)

    def test_seeded_determinism(self):
        y = np.random.default_rng(5).integers(0, 3, size=100)
        a = pl.stratified_split_indices(y, (0.70, 0.15, 0.15), seed=9)
        b = pl.stratified_split_indices(y, (0.70, 0.15, 0.15), seed=9)
        for x, z in zip(a, b):
            np.testing.assert_array_equal(x, z)


class TestRowTypePipelineReplay:
    def build(self):
        rng = np.random.default_rng(10)
        rows = []
        for i in range(40):
            rows.append([f"{rng.normal():.4f}", f"{rng.normal():.4f}",
                         rng.choice(["p", "q"]),
                         "a" if i % 2 else "b"])
        data = TabularDataset(["N1", "N2", "C", "L"], rows, label_column="L")
        encoder = pl.ColumnEncoder().fit(data)
        X = encoder.transform(data)
        pca = pl.pca_fit(X, 2)
        z = pl.pca_transform(pca, X)[:, :2]
        scaled, bounds = pl.scale_to_angle_range(z)
        pipe = pl.RowTypePipeline(
            row_type="t", exclude_columns=[], dropped_missing=[], merges=[],
            class_names=["a", "b"], encoder=encoder, pca=pca, n_components=2,
            bounds=bounds, label_column="L")
        return data, pipe, scaled

    def test_replay_matches_fit(self):
        data, pipe, scaled = self.build()
        np.testing.assert_array_equal(pipe.transform_features(data), scaled)

    def test_transform_encodes_labels(self):
        data, pipe, _ = self.build()
        ds = pipe.transform(data)
        assert ds.class_names == ["a", "b"]
        assert set(np.unique(ds.y)) == {0, 1}

    def test_dict_round_trip(self):
        data, pipe, scaled = self.build()
        back = pl.RowTypePipeline.from_dict(pipe.to_dict())
        np.testing.assert_array_equal(back.transform_features(data), scaled)


class TestRowTypePipelineFit:
    def test_one_class_refused(self):
        rows = [[f"{0.1 * i:.1f}", str(i % 3), "a"] for i in range(30)]
        data = TabularDataset(["N1", "N2", "L"], rows, label_column="L")
        with pytest.raises(SchemaError, match="^the labels hold one class, 'a'; "
                                              "a model needs at least two$"):
            pl.RowTypePipeline.fit(data, "t", seed=0, components=2, width=2,
                                   split_fractions=(0.7, 0.15, 0.15))


class TestLoaders:
    def test_load_csv_missing_cells(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,B\n1,\n,2\n")
        data = pl.load_csv(str(p), label_column="A")
        assert data.rows == [["1", None], [None, "2"]]

    def test_load_csv_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(SchemaError):
            pl.load_csv(str(p), label_column="A")

    def test_row_type_map(self, tmp_path):
        p = tmp_path / "m.map"
        p.write_text("# comment\nA1 = agri\nB1 = personal  # trailing\n\n")
        assert pl.load_row_type_map(str(p)) == {"A1": "agri", "B1": "personal"}

    def test_row_type_map_malformed(self, tmp_path):
        p = tmp_path / "m.map"
        p.write_text("just a line\n")
        with pytest.raises(SchemaError):
            pl.load_row_type_map(str(p))

    def test_rectangularity(self):
        with pytest.raises(SchemaError):
            TabularDataset(["A", "B"], [["1"]], label_column="A")
