"""The column-at-a-time loader, encoder and prediction formatter match their
per-cell references bit for bit, errors included."""
import csv
import io
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyquc import cli, pipeline as pl
from hyquc.errors import SchemaError

import reference_pipeline as ref
from test_pipeline import PADDING

DATE_FORMAT = "%Y-%m-%d"
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1_000", "1__0", "+.5", "5.", "-0", "1e-400", "0x1f", "--1"]),
)
NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e400", "-1e400"])
DATES = st.dates(date(1900, 1, 1), date(2100, 12, 31)).map(lambda d: d.strftime(DATE_FORMAT))
WORDS = st.one_of(st.sampled_from(["A", "B", "north", "a b", 'say "hi"', "x,y", "two\nlines"]),
                  st.text(alphabet="ab ,\"", max_size=3))
BLANKS = st.sampled_from(["", " ", "\t", "\u2003", "\x1c", " \x1f "])
CELLS = {"numeric": NUMBERS, "date": DATES, "word": WORDS,
         "mixed": st.one_of(NUMBERS, DATES, WORDS,
                            st.sampled_from(["2021-02-30", "1970-1-2", "19700102"]))}


@st.composite
def padded(draw, cells):
    """A cell of ``cells``, now and then a non-finite number, padded; or a
    blank cell, which loads as missing."""
    pick = draw(st.integers(0, 24))
    if pick < 4:
        return draw(BLANKS)
    pad = st.sampled_from(["", *PADDING])
    return draw(pad) + draw(NON_FINITE if pick == 4 else cells) + draw(pad)


@st.composite
def csv_text(draw, kinds):
    """A CSV with one column per kind, plus a label column, under a random
    quoting rule, so quoted cells, embedded separators and newlines occur."""
    n = draw(st.integers(0, 12))
    columns = [draw(st.lists(padded(CELLS[kind]), min_size=n, max_size=n)) for kind in kinds]
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow([f"C{j}" for j in range(len(kinds))] + ["L"])
    writer.writerows([*row, "a"] for row in zip(*columns))
    return buf.getvalue()


TABLES = st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4).flatmap(
    lambda kinds: st.tuples(csv_text(kinds), csv_text(kinds)))


def outcome(call):
    """What ``call()`` returns, or the type and text of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def transformed(encoder, data):
    """The shape and bytes of ``encoder.transform(data)``, or its error."""
    X = outcome(lambda: encoder.transform(data))
    return (X.shape, X.tobytes()) if isinstance(X, np.ndarray) else X


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("columnar")


def loaded(loader, directory, text):
    """``loader``'s table of ``text``, or the type and text of its error (a
    header-only text has no data rows)."""
    path = directory / "t.csv"
    path.write_text(text, newline="")
    return outcome(lambda: loader(str(path), "L"))


def contents(data):
    """A loaded table's names, cells and row count, or its loader's error."""
    if isinstance(data, pl.TabularDataset):
        return data.column_names, data.columns, len(data)
    return data


@settings(max_examples=150, deadline=None)
@given(TABLES, st.sampled_from([None, DATE_FORMAT]))
def test_load_fit_and_transform_match_per_cell_reference(csv_dir, tables, date_format):
    fit_text, replay_text = tables
    data = loaded(pl.load_csv, csv_dir, fit_text)
    assert contents(data) == contents(loaded(ref.load_csv, csv_dir, fit_text))
    other = loaded(pl.load_csv, csv_dir, replay_text)
    assert contents(other) == contents(loaded(ref.load_csv, csv_dir, replay_text))
    # a header-only table still reaches the encoders when built from its rows
    header = next(csv.reader(io.StringIO(fit_text)))
    if not isinstance(data, pl.TabularDataset):
        data = pl.TabularDataset.from_rows(header, [], "L")
    if not isinstance(other, pl.TabularDataset):
        other = pl.TabularDataset.from_rows(header, [], "L")

    enc, ref_enc = pl.ColumnEncoder(date_format), ref.ColumnEncoder(date_format)
    fitted = outcome(lambda: repr(enc.fit(data).columns))
    assert fitted == outcome(lambda: repr(ref_enc.fit(data).columns))
    if isinstance(fitted, str):
        assert transformed(enc, data) == transformed(ref_enc, data)
        # other rows: unseen categories, and cells that no longer parse
        assert transformed(enc, other) == transformed(ref_enc, other)


def test_load_matches_reference_across_row_blocks(csv_dir):
    # a 2,100-row file, with blank and padded cells on both sides of the
    # 1,024-row block edges that an earlier loader cleaned its rows in
    rng = np.random.default_rng(0)
    cells = rng.choice(["1.5", "a", " b ", "", " ", "\x1c", "\u2003x"], size=(2100, 3))
    cells[[1023, 1024, 2047, 2048], 0] = [" ", "", "\x1c", ""]
    buf = io.StringIO()
    csv.writer(buf).writerows([["C0", "C1", "L"], *cells.tolist()])
    data = loaded(pl.load_csv, csv_dir, buf.getvalue())
    assert contents(data) == contents(loaded(ref.load_csv, csv_dir, buf.getvalue()))


PADS = st.text(alphabet="".join(PADDING), max_size=2)


@st.composite
def bare_and_padded(draw):
    """The same CSV twice, under one quoting rule: as drawn, and with each
    data cell padded on either side with what ``str.strip`` removes."""
    width = draw(st.integers(1, 4))
    cell = st.tuples(st.one_of(NUMBERS, DATES, WORDS, BLANKS), PADS, PADS)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=10))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))

    def text(cells):
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=quoting)
        writer.writerow([f"C{j}" for j in range(width)] + ["L"])
        writer.writerows([*row, "a"] for row in cells)
        return buf.getvalue()

    return (text([[c for c, _, _ in row] for row in rows]),
            text([[left + c + right for c, left, right in row] for row in rows]))


@settings(max_examples=100, deadline=None)
@given(bare_and_padded())
def test_padded_cells_load_like_bare_ones(csv_dir, texts):
    bare, padded = (contents(loaded(pl.load_csv, csv_dir, text)) for text in texts)
    assert padded == bare


@pytest.mark.parametrize("cell", ["inf", " nan", "1e400\x1c"])
def test_transform_names_the_row_it_is_given(cell):
    enc = pl.ColumnEncoder().fit(
        pl.TabularDataset.from_rows(["V"], [["1"], ["2"]]))
    data = pl.TabularDataset.from_rows(["V"], [["3"], [""], [cell]])
    for rows, named in ((None, 2), ([5, 9, 17], 17)):
        with pytest.raises(SchemaError, match=re.escape(
                f"column 'V', row {named}: non-finite number {cell.strip()!r}")):
            enc.transform(data, rows)


def test_unseen_categories_logged_once_per_column(caplog):
    enc = pl.ColumnEncoder().fit(
        pl.TabularDataset.from_rows(["C", "D"], [["A", "x"], ["B", "y"]]))
    data = pl.TabularDataset.from_rows(["C", "D"], [["Z", "x"], ["", "y"], [" Q ", "x"],
                                                    ["Z", "w"], [" A", "y"]])
    with caplog.at_level("INFO", logger="hyquc.pipeline"):
        X = enc.transform(data)
    assert [rec.getMessage() for rec in caplog.records] == [
        "unseen categories in 3 of 5 cells of 'C' treated as missing",
        "unseen categories in 1 of 5 cells of 'D' treated as missing"]
    np.testing.assert_array_equal(X[:, :3], [[0, 0, 1], [0, 0, 1], [0, 0, 1],
                                             [0, 0, 1], [1, 0, 0]])


def test_unparsed_cells_logged_once_per_column(caplog):
    enc = pl.ColumnEncoder("%Y-%m-%d").fit(pl.TabularDataset.from_rows(
        ["N", "D"], [["1", "2020-01-01"], ["3", "2020-01-03"]]))
    data = pl.TabularDataset.from_rows(["N", "D"], [["N/A", "2020-01-02"], ["", "soon"],
                                                    ["5", ""], ["?", "2020-01-01"]])
    with caplog.at_level("INFO", logger="hyquc.pipeline"):
        X = enc.transform(data)
    assert [rec.getMessage() for rec in caplog.records] == [
        "non-numeric values in 2 of 4 cells of 'N' treated as missing",
        "non-date values in 1 of 4 cells of 'D' treated as missing"]
    np.testing.assert_array_equal(X, [[2, 18263], [2, 18263], [5, 18263], [2, 18262]])
    caplog.clear()
    with caplog.at_level("INFO", logger="hyquc.pipeline"):
        enc.transform(pl.TabularDataset.from_rows(["N", "D"], [["", ""]]))
    assert caplog.records == []


def per_cell_fields(row_type, names, row):
    """A scored row's fields as the per-cell formatting built them."""
    probs = ";".join(f"{n}={p!r}" for n, p in zip(names, row))
    return [row_type, "ok", names[int(np.argmax(row))], probs]


PROBS = st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.floats(0, 1), min_size=k, max_size=k), min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(PROBS, st.sampled_from([["g1", "g2", "g3", "g4", "g5"],
                               ["Sub Standard", "a,b", 'say "x"', "two\nlines", "cr\r"]]),
       st.sampled_from(["personal", "agri,culture"]))
def test_formatter_matches_per_cell_formatting(rows, names, row_type):
    probs = np.array(rows)
    names = names[:probs.shape[1]]
    for line, row in zip(cli._scored_fields(row_type, names, probs), probs.tolist()):
        fields = per_cell_fields(row_type, names, row)
        buf = io.StringIO()
        csv.writer(buf).writerow(fields)  # QUOTE_MINIMAL
        assert line + "\r\n" == buf.getvalue()
        if not any(set(',"\r\n') & set(f) for f in fields):
            assert line == ",".join(fields)
