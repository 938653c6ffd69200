"""Data pipeline: partitioning, cleaning, encoding, merge, PCA, scaling,
SMOTE and stratified splitting."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_smote_neighbors

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
    return TabularDataset.from_rows(["LOANTYPE", "IRAC", "AMT"], rows,
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
            row.append("" if i < miss else "7")
        rows.append(row)
    return TabularDataset.from_rows(names, rows, label_column="IRAC")


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
        assert parts["Personal Loan"].columns == data.columns

    def test_counting_oracle(self):
        rng = np.random.default_rng(2)
        types = rng.choice(["a", "b", "c"], size=100)
        data = TabularDataset.from_rows(["T", "L"], [[t, "x"] for t in types],
                                        label_column="L", row_type_column="T")
        parts = pl.partition_by_row_type(data)
        assert sum(len(p) for p in parts.values()) == 100
        for t in "abc":
            assert len(parts[t]) == int(np.sum(types == t))

    def test_code_map_grouping(self):
        data = TabularDataset.from_rows(["T", "L"], [["A1", "x"], ["A2", "x"], ["B1", "y"]],
                                        label_column="L", row_type_column="T")
        parts = pl.partition_by_row_type(
            data, {"A1": "agri", "A2": "agri", "B1": "personal"})
        assert len(parts["agri"]) == 2
        assert len(parts["personal"]) == 1

    def test_unknown_code(self):
        data = TabularDataset.from_rows(["T", "L"], [["ZZ", "x"]],
                                        label_column="L", row_type_column="T")
        with pytest.raises(SchemaError, match="'ZZ'"):
            pl.partition_by_row_type(data, {"A1": "agri"})

    def test_first_unknown_code_in_row_order_named(self):
        for codes, first in ((["A1", "YY", "ZZ", "YY"], "YY"), (["ZZ", "A1", "YY"], "ZZ")):
            data = TabularDataset.from_rows(["T", "L"], [[c, "x"] for c in codes],
                                            label_column="L", row_type_column="T")
            with pytest.raises(SchemaError, match=f"^unknown row-type code {first!r}$"):
                pl.partition_by_row_type(data, {"A1": "agri"})

    def test_route_rows_keeps_unmapped_codes(self):
        data = TabularDataset.from_rows(["T"], [["B1"], ["ZZ"], [""], ["A1"], ["B1"], [" "]])
        assert pl.route_rows(data, "T") == {"B1": [0, 4], "ZZ": [1], "": [2, 5], "A1": [3]}
        # row types in the order of their first row, each row's index in row order
        assert pl.route_rows(data, "T", {"A1": "agri", "B1": "agri", "": "blank"}) == \
            {"agri": [0, 3, 4], "ZZ": [1], "blank": [2, 5]}

    def test_missing_row_type_column(self):
        data = TabularDataset.from_rows(["L"], [["x"]], label_column="L")
        with pytest.raises(SchemaError):
            pl.partition_by_row_type(data)


class TestDropInapplicable:
    def test_listed_columns_removed(self):
        data = TabularDataset.from_rows(["DRYLAND", "WETLAND", "IRAC"],
                                        [["1", "2", "Standard"]], label_column="IRAC")
        out = pl.drop_inapplicable_columns(data, ["DRYLAND", "WETLAND"])
        assert out.column_names == ["IRAC"]

    def test_empty_exclusion_unchanged(self):
        data = TabularDataset.from_rows(["A", "IRAC"], [["1", "x"]], label_column="IRAC")
        out = pl.drop_inapplicable_columns(data, [])
        assert out.column_names == data.column_names
        assert out.columns == data.columns

    def test_nonexistent_column_logged(self, caplog):
        data = TabularDataset.from_rows(["A", "IRAC"], [["1", "x"]], label_column="IRAC")
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
        rows = [["x", ""], ["x", ""], ["x", ""], ["x", ""],
                ["x", ""], ["x", ""], ["x", ""], ["x", "1"],
                ["x", "1"], ["x", "1"]]
        data = TabularDataset.from_rows(["L", "C"], rows, label_column="L")
        out, dropped = pl.drop_high_missing(data, 0.70)
        assert dropped == []
        assert "C" in out.column_names

    def test_label_column_protected(self):
        data = TabularDataset.from_rows(["L", "C"], [["", "1"]] * 4 + [["x", "1"]],
                                        label_column="L")
        out, dropped = pl.drop_high_missing(data, 0.70)
        assert "L" in out.column_names

    def test_threshold_validation(self):
        data = TabularDataset.from_rows(["L"], [["x"]], label_column="L")
        with pytest.raises(ValueError):
            pl.drop_high_missing(data, 0.0)


def encoded(data: TabularDataset, date_format: str = None) -> np.ndarray:
    """The features of ``data`` encoded by a ColumnEncoder fitted on it."""
    return pl.ColumnEncoder(date_format).fit(data).transform(data)


class TestImputeAndEncode:
    def test_median_imputation(self):
        data = TabularDataset.from_rows(["V", "L"], [["1", "a"], ["", "a"], ["3", "b"]],
                                        label_column="L")
        X = encoded(data)
        np.testing.assert_array_equal(X[:, 0], [1.0, 2.0, 3.0])

    def test_categorical_indicators(self):
        data = TabularDataset.from_rows(["C", "L"],
                                        [["A", "a"], ["B", "a"], ["", "b"]],
                                        label_column="L")
        X = encoded(data)
        assert X.shape == (3, 3)  # A, B, missing
        np.testing.assert_array_equal(X, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_date_parsing(self):
        data = TabularDataset.from_rows(["D", "L"],
                                        [["1970-01-02", "a"], ["", "b"],
                               ["1970-01-04", "a"]],
                                        label_column="L")
        X = encoded(data, "%Y-%m-%d")
        np.testing.assert_array_equal(X[:, 0], [1.0, 2.0, 3.0])

    def test_all_missing_column_dropped(self, caplog):
        data = TabularDataset.from_rows(["V", "W", "L"],
                                        [["", "1", "a"], ["", "2", "b"]],
                                        label_column="L")
        with caplog.at_level("INFO", logger="hyquc.pipeline"):
            X = encoded(data)
        assert X.shape == (2, 1)
        assert any("'V'" in rec.message for rec in caplog.records)

    def test_finiteness_on_random_fixture(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(60):
            num = "" if rng.random() < 0.3 else f"{rng.normal():.3f}"
            cat = rng.choice(["u", "v", ""])
            rows.append([num, cat, "a" if rng.random() < 0.5
                         else "b"])
        data = TabularDataset.from_rows(["N", "C", "L"], rows, label_column="L")
        X = encoded(data)
        assert np.all(np.isfinite(X))

    def test_unseen_category_treated_missing(self):
        enc = pl.ColumnEncoder().fit(
            TabularDataset.from_rows(["C", "L"], [["A", "a"], ["B", "a"]],
                                     label_column="L"))
        X = enc.transform(TabularDataset.from_rows(["C", "L"], [["Z", "a"]],
                                                   label_column="L"))
        np.testing.assert_array_equal(X, [[0, 0, 1]])

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_non_finite_cell_named_on_fit(self, cell):
        data = TabularDataset.from_rows(["V", "L"], [["1", "a"], ["2", "b"], [cell, "a"]],
                                        label_column="L")
        with pytest.raises(SchemaError, match=r"column 'V', row 2: non-finite"):
            pl.ColumnEncoder().fit(data)

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_non_finite_cell_named_on_transform(self, cell):
        enc = pl.ColumnEncoder().fit(
            TabularDataset.from_rows(["V", "L"], [["1", "a"], ["2", "b"]], label_column="L"))
        with pytest.raises(SchemaError, match=r"column 'V', row 1: non-finite"):
            enc.transform(TabularDataset.from_rows(["V", "L"], [["3", "a"], [cell, "a"]],
                                                   label_column="L"))

    def test_missing_columns_on_transform(self):
        enc = pl.ColumnEncoder().fit(
            TabularDataset.from_rows(["A", "L"], [["1", "a"]], label_column="L"))
        with pytest.raises(SchemaError, match="missing columns"):
            enc.transform(TabularDataset.from_rows(["B", "L"], [["1", "a"]],
                                                   label_column="L"))

    def test_parse_stops_at_the_first_cell_that_does_not_parse(self):
        # a column that is not numeric (or not dates) is known from that cell on
        seen = []

        def parse(cell):
            seen.append(cell)
            return None if cell == "x" else 1.0

        assert pl._parse_column(["1", "x", "2", "y"], parse=parse) is None
        assert seen == ["1", "x"]
        assert pl._parse_column(["1", "x", None], 5.0, parse).tolist() == [1.0, 5.0, 5.0]


# characters str.strip() removes; float() rejects the last four
PADDING = ["\t", " ", "\u2003", "\x1c", "\x1d", "\x1e", "\x1f"]


class TestPaddedCells:
    """A cell padded with whitespace encodes bit for bit like the bare cell."""

    def table(self, pad):
        rows = [["1.5", "1970-01-02", "A", "a", "T1"],
                ["-2", "1970-01-04", "B", "b", "T2"],
                ["3e1", "1970-01-05", "A", "a", "T1"],
                ["", "", "", "b", "T2"]]
        return TabularDataset.from_rows(
            ["N", "D", "C", "L", "T"], [[pad + c + pad for c in row] for row in rows],
            label_column="L", row_type_column="T")

    @pytest.mark.parametrize("pad", PADDING)
    def test_padded_cells_encode_like_bare_ones(self, pad):
        bare, padded = self.table(""), self.table(pad)
        enc = pl.ColumnEncoder("%Y-%m-%d").fit(bare)
        assert [s.kind for s in enc.columns] == ["numeric", "date", "categorical"]
        assert pl.ColumnEncoder("%Y-%m-%d").fit(padded).columns == enc.columns
        assert enc.transform(padded).tobytes() == enc.transform(bare).tobytes()
        (y, names), (y0, names0) = (pl.encode_labels(t.column("L")) for t in (padded, bare))
        assert (y.tobytes(), names) == (y0.tobytes(), names0)
        assert pl.route_rows(padded, "T") == {"T1": [0, 2], "T2": [1, 3]}


class TestMergeMinorityClass:
    def published_personal(self):
        labels = []
        for name, count in PERSONAL_COUNTS.items():
            labels.extend([name] * count)
        y, class_names = pl.encode_labels(labels)
        X = np.zeros((len(y), 2))
        return RowTypeDataset(X, y, class_names)

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
        return RowTypeDataset(np.vstack(X), np.concatenate(y),
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


def tied_rows(seed, d, counts):
    """A RowTypeDataset of coordinates on a coarse grid, so that duplicate
    rows and tied distances are common."""
    X = np.random.default_rng(seed).integers(-2, 3, size=(sum(counts), d)) / 2.0
    y = np.repeat(np.arange(len(counts)), counts)
    return RowTypeDataset(X, y, [str(c) for c in range(len(counts))])


def assert_same_table(table, ref):
    assert len(table) == len(ref)
    for got, want in zip(table, ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)


class TestSmoteNeighbors:
    @pytest.mark.parametrize("d", range(1, 21))
    def test_distances_sum_in_the_order_of_np_sum(self, d):
        # the tables keep their bytes only if each distance rounds as the
        # (rows, c, d) tensor's np.sum rounds it; grid data would sum exactly
        rng = np.random.default_rng(d)
        X = rng.normal(size=(40, d)) * rng.uniform(0.01, 100, size=d)
        rows = X[3:14]
        want = np.sum((rows[:, None, :] - X[None, :, :]) ** 2, axis=2)
        got = pl._squared_distances(rows, np.ascontiguousarray(X.T))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 16),
           counts=st.lists(st.integers(2, 24), min_size=2, max_size=4),
           k=st.integers(1, 6), budget=st.integers(1, 600))
    def test_blocked_table_equals_the_dense_tensor(self, seed, d, counts, k, budget):
        ds = tied_rows(seed, d, counts)
        ref = oracle_smote_neighbors(ds.X, ds.y, len(counts), k)
        assert_same_table(pl.smote_neighbors(ds, k), ref)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl, "SMOTE_BLOCK_ELEMENTS", budget)
            assert_same_table(pl.smote_neighbors(ds, k), ref)

    @pytest.mark.parametrize("count", [3, 4, 5, 8, 9, 13])
    def test_class_sizes_around_a_block_boundary(self, monkeypatch, count):
        # blocks of 4 rows: a class of 3 takes one partial block, 4 one
        # full one, 5 a full one and one row, and so on
        d = 3
        monkeypatch.setattr(pl, "SMOTE_BLOCK_ELEMENTS", 4 * count * d)
        rng = np.random.default_rng(count)
        X = rng.integers(0, 2, size=(count + 20, d)).astype(float)
        y = np.repeat([0, 1], [count, 20])
        ds = RowTypeDataset(X, y, ["a", "b"])
        assert_same_table(pl.smote_neighbors(ds, 3),
                          oracle_smote_neighbors(X, y, 2, 3))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6),
           counts=st.lists(st.integers(2, 15), min_size=2, max_size=3),
           k=st.integers(1, 5))
    def test_synthetics_lie_between_a_row_and_its_neighbours(self, seed, d, counts, k):
        ds = tied_rows(seed, d, counts)
        table = pl.smote_neighbors(ds, k)
        out = pl.smote_oversample(ds, k, seed, table)
        same = pl.smote_oversample(ds, k, seed)
        np.testing.assert_array_equal(out.X, same.X)
        np.testing.assert_array_equal(out.y, same.y)
        synth_X, synth_y = out.X[len(ds.X):], out.y[len(ds.y):]
        for c, neighbors in enumerate(table):
            if neighbors is None:
                assert not np.any(synth_y == c)
                continue
            Xc = ds.X[ds.y == c]
            # every (row, neighbour) segment of the class, as base + lam * seg
            base = np.repeat(Xc, neighbors.shape[1], axis=0)
            seg = Xc[neighbors.ravel()] - base
            norm = (seg * seg).sum(axis=1)
            for s in synth_X[synth_y == c]:
                r = s - base
                lam = (r * seg).sum(axis=1) / np.where(norm > 0, norm, 1.0)
                off = np.linalg.norm(r - lam[:, None] * seg, axis=1)
                assert np.any((off < 1e-9) & (lam >= -1e-12) & (lam <= 1 + 1e-12))

    def test_a_3000_row_class_builds_its_table_in_bounded_memory(self):
        # the whole (c, c, d) tensor of this class is 3000**2 * 5 * 8 B = 360 MB
        rng = np.random.default_rng(9)
        y = np.repeat([0, 1], [3001, 3000])
        ds = RowTypeDataset(rng.normal(size=(len(y), 5)), y, ["a", "b"])
        tracemalloc.start()
        try:
            table = pl.smote_neighbors(ds, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table[0] is None and table[1].shape == (3000, 5)
        assert peak < 64 * 2 ** 20, peak


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
        with pytest.raises(SplitError, match="'small'"):
            pl.stratified_split_indices(np.array([0, 0, 0, 1, 1]), (0.70, 0.15, 0.15),
                                        seed=0, class_names=["big", "small"])

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
        data = TabularDataset.from_rows(["N1", "N2", "C", "L"], rows, label_column="L")
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


class TestReplayReadsOnlyTheEncoderColumns:
    """A fitted pipeline replays on the raw table without copying it: the
    columns dropped before the encoder was fitted change nothing."""

    def fit(self):
        rng = np.random.default_rng(11)
        names = ["N1", "X", "N2", "S", "C", "L"]
        rows = [[f"{rng.normal():.4f}", f"{rng.normal():.4f}", f"{rng.normal():.4f}",
                 f"{rng.normal():.4f}" if i % 5 == 0 else "",
                 rng.choice(["p", "q"]), "a" if i % 2 else "b"] for i in range(40)]
        data = TabularDataset.from_rows(names, rows, label_column="L")
        pipe = pl.RowTypePipeline.fit(data, "t", seed=0, components=2, width=2,
                                      split_fractions=(0.6, 0.2, 0.2),
                                      exclude_columns=["X"])[0]
        return data, pipe

    def test_dropped_columns_change_no_bit(self):
        data, pipe = self.fit()
        assert (pipe.exclude_columns, pipe.dropped_missing) == (["X"], ["S"])
        keep = [j for j, name in enumerate(data.column_names) if name not in ("X", "S")]
        slim = TabularDataset([data.column_names[j] for j in keep],
                              [data.columns[j] for j in keep], len(data), label_column="L")
        assert pipe.transform_features(data).tobytes() == \
            pipe.transform_features(slim).tobytes()

    def test_input_left_unmodified(self):
        data, pipe = self.fit()
        names, columns = list(data.column_names), [list(col) for col in data.columns]
        pipe.transform_features(data)
        assert (data.column_names, data.columns) == (names, columns)


class TestRowTypePipelineFit:
    def test_one_class_refused(self):
        rows = [[f"{0.1 * i:.1f}", str(i % 3), "a"] for i in range(30)]
        data = TabularDataset.from_rows(["N1", "N2", "L"], rows, label_column="L")
        with pytest.raises(SchemaError, match="^the labels hold one class, 'a'; "
                                              "a model needs at least two$"):
            pl.RowTypePipeline.fit(data, "t", seed=0, components=2, width=2,
                                   split_fractions=(0.7, 0.15, 0.15))


class TestLoaders:
    def test_load_csv_missing_cells(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,B\n1,\n,2\n")
        data = pl.load_csv(str(p), label_column="A")
        assert data.columns == [["1", None], [None, "2"]]

    def test_load_csv_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(SchemaError):
            pl.load_csv(str(p), label_column="A")

    def test_load_csv_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("A,B\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}: no data rows$"):
            pl.load_csv(str(p), label_column="A")
        # the table's own checks come first
        with pytest.raises(SchemaError, match="^label column 'L' not present$"):
            pl.load_csv(str(p), label_column="L")

    def test_load_csv_skips_byte_order_mark(self, tmp_path):
        # a leading BOM would otherwise be part of the first header name
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfA,B\n1,\n,2\n")
        data = pl.load_csv(str(p), label_column="A")
        assert data.column_names == ["A", "B"]
        assert data.columns == [["1", None], [None, "2"]]

    def test_load_csv_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        # the codec's own text names neither the file nor the line
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfA,B\n1,2\n3,caf\xe9\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:3: byte 0xe9 is not UTF-8 (invalid continuation byte)")):
            pl.load_csv(str(p), label_column="A")

    def test_row_type_map(self, tmp_path):
        p = tmp_path / "m.map"
        p.write_text("# comment\nA1 = agri\nB1 = personal  # trailing\n\nA1 = agri\n")
        assert pl.load_row_type_map(str(p)) == {"A1": "agri", "B1": "personal"}

    def test_row_type_map_skips_byte_order_mark(self, tmp_path):
        p = tmp_path / "m.map"
        p.write_bytes(b"\xef\xbb\xbfA1 = agri\nB1 = personal\n")
        assert pl.load_row_type_map(str(p)) == {"A1": "agri", "B1": "personal"}

    def test_row_type_map_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "m.map"
        p.write_bytes(b"A1 = agri\nB1 = personal\nC1 = \xff\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:3: byte 0xff is not UTF-8 (invalid start byte)")):
            pl.load_row_type_map(str(p))

    def test_row_type_map_code_with_two_row_types_refused(self, tmp_path):
        # the last line would otherwise win and route A1's rows to another model
        p = tmp_path / "m.map"
        p.write_text("A1 = agri\nB1 = personal\nA1 = personal\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:3: code 'A1' maps to 'personal', but an earlier line maps it "
                "to 'agri'")):
            pl.load_row_type_map(str(p))

    def test_row_type_map_empty_row_type_refused(self, tmp_path):
        # the code's rows would otherwise go to a row type named ""
        p = tmp_path / "m.map"
        p.write_text("A1 = agri\nB1 =   # personal\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:2: code 'B1' has an empty row type")):
            pl.load_row_type_map(str(p))

    def test_row_type_map_malformed(self, tmp_path):
        p = tmp_path / "m.map"
        p.write_text("just a line\n")
        with pytest.raises(SchemaError):
            pl.load_row_type_map(str(p))

    def test_duplicate_column_refused(self):
        with pytest.raises(SchemaError, match="^duplicate column 'F1'$"):
            TabularDataset.from_rows(["F1", "F1", "L"], [["1", "2", "a"]], label_column="L")

    def test_load_csv_duplicate_header_refused(self, tmp_path):
        # the second F1's values would otherwise be lost behind the first's
        p = tmp_path / "d.csv"
        p.write_text("F1,F1,L\n1,4,a\n2,5,b\n3,6,a\n")
        with pytest.raises(SchemaError, match="duplicate column 'F1'"):
            pl.load_csv(str(p), label_column="L")

    def test_table_without_columns_keeps_its_rows(self, tmp_path):
        # a blank header line: the rows are there, so the file is not "no data rows"
        p = tmp_path / "b.csv"
        p.write_text("\n\n\n")
        data = pl.load_csv(str(p), None)
        assert (data.column_names, data.columns, len(data)) == ([], [], 2)

    def test_column_is_the_tables_own_list(self):
        data = TabularDataset.from_rows(["A", "L"], [[" 1", "a"], ["\x1c", "b"]])
        assert data.column("A") is data.columns[0]
        assert data.column("A") == ["1", None]

    def test_rectangularity(self):
        with pytest.raises(SchemaError):
            TabularDataset.from_rows(["A", "B"], [["1"]], label_column="A")
