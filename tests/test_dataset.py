import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.dataset import (CANONICAL_SCHEMA, DERIVED_COLUMNS,
                              FeatureMatrix, SyntheticSpec,
                              correlation_report, encode_months,
                              generate_synthetic, load_csv, pearson,
                              read_blocks, render_csv, write_csv)
from teayield.errors import DataError
from teayield.evaluation import holdout_split
from teayield.preprocess import PreprocessState, fit_scaler

from conftest import (block_sizes, csv_edits, mutate_csv, random_matrix,
                      with_blank_lines)

# The file the fuzz property mutates: twelve rows with one extra column.
FUZZ_SCHEMA = CANONICAL_SCHEMA + ("distractor_1",)
FUZZ_TEXT = render_csv(generate_synthetic(12, 5, SyntheticSpec(n_distractors=1)))


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


EXTRA_SCHEMA = CANONICAL_SCHEMA + ("distractor_1",)


def sample_row(month=1, yield_kg=50.0):
    return [2010, month, 5.0, 15.0, 60.0, 100.0, 5.5, 500.0, "basic", 0, yield_kg]


class TestLoadCsv:
    def test_loads_120_rows(self, tmp_path):
        m = generate_synthetic(120, 3)
        path = tmp_path / "d.csv"
        write_csv(m, path)
        loaded = load_csv(path)
        assert loaded.n_samples == 120

    def test_blank_yield_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [sample_row(m + 1) for m in range(11)]
        rows.append(sample_row(12))
        rows[4][10] = ""
        write_rows(path, CANONICAL_SCHEMA, rows)
        with pytest.raises(DataError, match=r"row 5.*yield"):
            load_csv(path)

    def test_reordered_columns_give_identical_matrix(self, tmp_path):
        m = generate_synthetic(40, 9)
        a = tmp_path / "a.csv"
        write_csv(m, a)
        text = a.read_text(encoding="utf-8").splitlines()
        header = text[0].split(",")
        order = list(range(len(header)))[::-1]
        b = tmp_path / "b.csv"
        shuffled = [",".join(line.split(",")[i] for i in order) for line in text]
        b.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
        ma, mb = load_csv(a), load_csv(b)
        assert ma.column_names == mb.column_names
        np.testing.assert_array_equal(ma.values, mb.values)
        np.testing.assert_array_equal(ma.target, mb.target)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv")

    def test_missing_and_extra_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        header = list(CANONICAL_SCHEMA[:-1]) + ["bogus"]
        write_rows(path, header, [sample_row()[:-1] + [1.0]])
        with pytest.raises(DataError, match="header mismatch"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    @pytest.mark.parametrize("schema", [None, CANONICAL_SCHEMA])
    def test_blank_first_line_is_an_empty_file(self, tmp_path, schema):
        path = tmp_path / "d.csv"
        write_rows(path, CANONICAL_SCHEMA, [sample_row()])
        path.write_text("\n" + path.read_text(encoding="utf-8"),
                        encoding="utf-8")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path, schema)

    def test_schema_none_takes_the_extras_from_the_header(self, tmp_path):
        m = generate_synthetic(30, 5, SyntheticSpec(n_distractors=2))
        path = tmp_path / "d.csv"
        write_csv(m, path)
        text = path.read_text(encoding="utf-8").replace(
            "distractor_1", "extra_b").replace("distractor_2", "extra_a")
        path.write_text(text, encoding="utf-8")
        auto = load_csv(path, None)
        listed = load_csv(path, CANONICAL_SCHEMA + ("extra_b", "extra_a"))
        assert auto.column_names == listed.column_names
        assert auto.column_names.index("extra_b") < auto.column_names.index("extra_a")
        np.testing.assert_array_equal(auto.values, listed.values)
        np.testing.assert_array_equal(auto.target, listed.target)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        write_rows(path, CANONICAL_SCHEMA, [])
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_range_violation_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        bad = sample_row()
        bad[4] = 140.0  # humidity out of range
        write_rows(path, CANONICAL_SCHEMA, [sample_row(), bad])
        with pytest.raises(DataError, match="row 2.*humidity"):
            load_csv(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        lines = [",".join(CANONICAL_SCHEMA)] + [
            ",".join(str(c) for c in sample_row())]
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        assert load_csv(path).n_samples == 1

    def test_round_trip_is_identity(self, tmp_path):
        m = load_csv(self._write_synthetic(tmp_path))
        path2 = tmp_path / "again.csv"
        write_csv(m, path2)
        m2 = load_csv(path2)
        assert m.column_names == m2.column_names
        np.testing.assert_array_equal(m.values, m2.values)
        np.testing.assert_array_equal(m.target, m2.target)
        assert m.carried == m2.carried

    @staticmethod
    def _write_synthetic(tmp_path):
        path = tmp_path / "synth.csv"
        write_csv(generate_synthetic(35, 11), path)
        return path

    def test_extra_schema_columns_become_features(self, tmp_path):
        m = generate_synthetic(30, 5, SyntheticSpec(n_distractors=2))
        path = tmp_path / "d.csv"
        write_csv(m, path)
        loaded = load_csv(path, CANONICAL_SCHEMA + ("distractor_1", "distractor_2"))
        assert "distractor_1" in loaded.column_names
        np.testing.assert_array_equal(loaded.column("distractor_1"),
                                      m.column("distractor_1"))


class TestLoadCsvRangeRules:
    """The range rules on data rows, checked by ``load_csv``."""

    @pytest.mark.parametrize("cell, value, message", [
        (1, 13, "month must be in 1..12, got 13"),
        (2, 20.0, "min_temp 20.0 exceeds max_temp 15.0"),
        (4, 100.5, "humidity must be in [0, 100], got 100.5"),
        (5, -1.0, "rainfall must be >= 0, got -1.0"),
        (6, 14.5, "soil_ph must be in [0, 14], got 14.5"),
        (10, -2.0, "yield must be >= 0, got -2.0"),
    ], ids=["month", "min_above_max", "humidity", "rainfall", "soil_ph",
            "yield"])
    def test_rule_names_row_and_value(self, tmp_path, cell, value, message):
        rows = [sample_row(), sample_row(), sample_row()]
        rows[1][cell] = value
        path = tmp_path / "d.csv"
        write_rows(path, CANONICAL_SCHEMA, rows)
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: row 2: {message}"

    @staticmethod
    def line(row) -> str:
        """A data line under ``EXTRA_SCHEMA``: ``None`` a good row, ``""``
        a blank line, ``"short"`` a good row one cell short, and a dict a
        good row with those cells replaced."""
        if row == "":
            return row
        cells = sample_row() + [0.5]
        for name, value in (row if isinstance(row, dict) else {}).items():
            cells[EXTRA_SCHEMA.index(name)] = value
        return ",".join(map(str, cells[:-1] if row == "short" else cells))

    @pytest.mark.parametrize("rows, message", [
        ([None, {"humidity": 140}, {"min_temp": "warm"}],
         "row 2: humidity must be in [0, 100], got 140.0"),
        ([None, {"min_temp": "warm"}, {"humidity": 140}],
         "row 2: column 'min_temp': cannot parse 'warm' as a number"),
        ([None, "", {"humidity": 140}, {"min_temp": "warm"}],
         "row 3: humidity must be in [0, 100], got 140.0"),
        ([None, {"humidity": 140, "distractor_1": "x"}],
         "row 2: humidity must be in [0, 100], got 140.0"),
        ([None, {"distractor_1": "x"}, {"humidity": 140}],
         "row 2: column 'distractor_1': cannot parse 'x' as a number"),
        ([None, {"month": 13, "pesticide_used": "maybe"}],
         "row 2: column 'pesticide_used': cannot parse 'maybe' as a boolean"),
        ([None, {"month": 13, "yield": -1.0}],
         "row 2: month must be in 1..12, got 13"),
        ([None, {"min_temp": 20.0, "humidity": -3.0}],
         "row 2: min_temp 20.0 exceeds max_temp 15.0"),
        ([None, {"soil_ph": 15.0}, "short"],
         "row 2: soil_ph must be in [0, 14], got 15.0"),
        ([None, "short", {"soil_ph": 15.0}], "row 2 has 11 cells, expected 12"),
        ([None, {"max_temp": "inf"}, {"rainfall": -1.0}],
         "row 2: column 'max_temp': non-finite value 'inf'"),
    ], ids=["range before later parse", "parse before later range",
            "blank rows are counted", "range before extra cell in a row",
            "extra cell before later range", "parse before range in a row",
            "month rule first", "min_temp rule before humidity",
            "range before later cell count", "cell count before later range",
            "non-finite before later range"])
    def test_the_earliest_row_and_first_check_win(self, tmp_path, rows,
                                                   message):
        lines = [",".join(EXTRA_SCHEMA)] + [self.line(row) for row in rows]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_csv(path, EXTRA_SCHEMA)
        assert str(err.value) == f"{path}: {message}"


def finite(lo=None, hi=None):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def loadable_matrices(draw):
    """``(m, schema, has yield)``: a matrix in the layout ``load_csv``
    builds, with the target all zeros when the file it is written to has no
    yield column."""
    n = draw(st.integers(1, 5))
    extras = tuple(f"extra_{i}" for i in range(draw(st.integers(0, 2))))
    has_yield = draw(st.booleans())

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    low = np.array(column(finite(-1e300, 1e300)))
    high = low + np.array(column(finite(0.0, 1e300)))
    months = column(st.integers(1, 12))
    features = [low, high, column(finite(0.0, 100.0)), column(finite(0.0)),
                column(finite(0.0, 14.0)), *(column(finite()) for _ in extras)]
    values = np.column_stack([*features, encode_months(months),
                              (low + high) / 2.0])
    names = ("min_temp", "max_temp", "humidity", "rainfall", "soil_ph",
             *extras, *DERIVED_COLUMNS)
    target = column(finite(0.0)) if has_yield else [0.0] * n
    # Any text a UTF-8 file can hold; the loader strips cells.
    text = st.text(st.characters(blacklist_categories=("Cs",))).map(str.strip)
    carried = {"year": column(st.integers(-10**12, 10**12)), "month": months,
               "labor_cost": column(finite()), "labor_training": column(text),
               "pesticide_used": column(st.integers(0, 1))}
    m = FeatureMatrix(names, values, target, carried=carried)
    return m, CANONICAL_SCHEMA + extras, has_yield


def drop_column(text: str, name: str) -> str:
    # Every cell quoted: csv.writer would leave a carriage return bare.
    rows = list(csv.reader(io.StringIO(text, newline="")))
    drop = rows[0].index(name)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
        [c for j, c in enumerate(row) if j != drop] for row in rows)
    return out.getvalue()


class TestLoadCsvProperties:
    @given(loadable_matrices())
    @settings(max_examples=60, deadline=None)
    def test_load_of_write_gives_the_matrix_back(self, case):
        m, schema, has_yield = case
        text = render_csv(m)
        if not has_yield:
            text = drop_column(text, "yield")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text, encoding="utf-8", newline="")
            loaded = load_csv(path, schema, require_target=has_yield)
        assert loaded.column_names == m.column_names
        assert loaded.values.tobytes() == m.values.tobytes()
        assert loaded.target.tobytes() == m.target.tobytes()
        assert loaded.carried == m.carried
        for key, col in m.carried.items():
            assert [type(v) for v in loaded.carried[key]] == [type(v) for v in col]

    def test_labor_training_text_round_trips(self, tmp_path):
        m = generate_synthetic(12, 4)
        labels = ("a\rb", 'say "hi", twice', "two\nlines", "c\r\nd", "plain")
        carried = dict(m.carried, labor_training=labels * 2 + labels[:2])
        m = FeatureMatrix(m.column_names, m.values, m.target, carried=carried)
        path = tmp_path / "d.csv"
        write_csv(m, path)
        assert load_csv(path).carried == m.carried

    @given(edits=csv_edits(), require_target=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_mutated_files_load_or_raise_data_error(self, edits,
                                                    require_target):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(mutate_csv(FUZZ_TEXT, edits))
            try:
                m = load_csv(path, FUZZ_SCHEMA, require_target)
            except DataError:
                return
        assert np.all(np.isfinite(m.values)) and np.all(np.isfinite(m.target))

    def test_unreadable_csv_is_a_data_error(self, tmp_path):
        # An unclosed quote runs the rest of the file into one cell, past
        # the csv module's field size limit.
        path = tmp_path / "d.csv"
        write_rows(path, CANONICAL_SCHEMA, [sample_row()] * 12000)
        text = path.read_text(encoding="utf-8")
        cut = text.index("\n") + 1
        path.write_text(text[:cut] + '"' + text[cut:], encoding="utf-8")
        with pytest.raises(DataError, match="unreadable CSV"):
            load_csv(path)

    def test_peak_allocation_per_row(self, tmp_path):
        """``load_csv`` parses into one buffer per column, not into objects
        per row.  On this 20,000-row file with three extra columns a loader
        that built a dict of cells and a validated record per row peaked at
        about 965 traced bytes per row, and the column buffers peak at about
        390; the budget sits between the two."""
        n = 20_000
        path = tmp_path / "d.csv"
        write_csv(generate_synthetic(n, 3, SyntheticSpec.canonical()), path)
        schema = CANONICAL_SCHEMA + tuple(f"distractor_{i}" for i in (1, 2, 3))
        tracemalloc.start()
        try:
            m = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.n_samples == n
        assert peak / n < 600


def outcome(read):
    """What ``read()`` returns, or the message of the DataError it raises."""
    try:
        return read()
    except DataError as exc:
        return str(exc)


def joined(blocks: list[FeatureMatrix]) -> FeatureMatrix:
    return FeatureMatrix(
        blocks[0].column_names, np.vstack([b.values for b in blocks]),
        np.concatenate([b.target for b in blocks]),
        carried={k: sum((b.carried[k] for b in blocks), ())
                 for k in blocks[0].carried})


def assert_same_matrix(a: FeatureMatrix, b: FeatureMatrix) -> None:
    assert a.column_names == b.column_names
    assert a.values.tobytes() == b.values.tobytes()
    assert a.target.tobytes() == b.target.tobytes()
    assert a.carried == b.carried


class TestReadBlocks:
    """``read_blocks`` is ``load_csv`` cut into blocks of ``block`` rows,
    the last holding the rest: the same rows, bits and errors."""

    @pytest.fixture(scope="class")
    def lines(self):
        return render_csv(generate_synthetic(12_289, 5)).splitlines(
            keepends=True)

    @pytest.mark.parametrize("n,edges", [
        (1, [0, 1]), (4095, [0, 4095]), (4096, [0, 4096]),
        (4097, [0, 4096, 4097]), (8191, [0, 4096, 8191]),
        (8192, [0, 4096, 8192]), (8193, [0, 4096, 8192, 8193]),
        (12289, [0, 4096, 8192, 12288, 12289])])
    def test_the_last_block_takes_the_remainder(self, lines, tmp_path, n,
                                                edges):
        """Even a last block of one row stands alone."""
        path = tmp_path / "d.csv"
        path.write_text("".join(lines[:n + 1]), encoding="utf-8")
        sizes = [b.n_samples for b in read_blocks(path, block=4096)]
        assert np.cumsum([0, *sizes]).tolist() == edges

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 9, 11, 12])
    @pytest.mark.parametrize("blank_every", [0, 2, 5])
    def test_blocks_are_the_loaded_rows_cut_at_the_edges(self, tmp_path, n,
                                                         blank_every):
        """Blank rows are skipped and do not count towards a block."""
        text = "".join(FUZZ_TEXT.splitlines(keepends=True)[:n + 1])
        if blank_every:
            text = with_blank_lines(text, blank_every)
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        blocks = list(read_blocks(path, FUZZ_SCHEMA, block=3))
        assert [b.n_samples for b in blocks] == block_sizes(n, 3)
        assert_same_matrix(joined(blocks), load_csv(path, FUZZ_SCHEMA))

    @pytest.mark.parametrize("faults,row", [
        ([(8, 4, "150"), (11, 0, "x")], 8),
        ([(5, 2, "x"), (11, 4, "150")], 5),
        ([(7, 4, "150"), (8, 0, "")], 7),
        ([(9, 4, "150"), (9, 7, "x")], 9),
        ([(11, 7, "x"), (12, 1, "13")], 11),
        ([(12, 1, "13")], 12),
    ], ids=["range before cell", "cell before range",
            "range then cell in a block", "range before extra cell in a row",
            "extra cell", "range in the last block"])
    def test_a_late_bad_row_is_the_one_load_csv_names(self, tmp_path, faults,
                                                      row):
        """Rows are 1-based data rows and blank lines count: the file has
        one after every second line, so data row r is file row r + r // 2
        (header excluded)."""
        rows = list(csv.reader(io.StringIO(FUZZ_TEXT)))
        for r, column, cell in faults:
            rows[r][column] = cell
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        path = tmp_path / "d.csv"
        path.write_text(with_blank_lines(out.getvalue(), 2), encoding="utf-8")
        expected = outcome(lambda: load_csv(path, FUZZ_SCHEMA))
        assert isinstance(expected, str)
        assert expected.startswith(f"{path}: row {row + row // 2}")
        for block in (1, 2, 3, 5):
            assert outcome(lambda: list(read_blocks(
                path, FUZZ_SCHEMA, block=block))) == expected

    @given(edits=csv_edits(), block=st.integers(1, 6),
           require_target=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_mutated_files_give_what_load_csv_gives(self, edits, block,
                                                    require_target):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(mutate_csv(FUZZ_TEXT, edits))
            args = (path, FUZZ_SCHEMA, require_target)
            whole = outcome(lambda: load_csv(*args))
            blocks = outcome(lambda: list(read_blocks(*args, block=block)))
        if isinstance(whole, str):
            assert blocks == whole
        else:
            assert [b.n_samples for b in blocks] == block_sizes(
                whole.n_samples, block)
            assert_same_matrix(joined(blocks), whole)


class TestAvgTempIsBuiltAtLoad:
    """The reader builds avg_temp = (min_temp + max_temp) / 2 as the last
    column, and no file or schema column may take a derived column's name."""

    @staticmethod
    def load_temps(tmp_path, lo: float, hi: float) -> FeatureMatrix:
        row = sample_row()
        row[2:4] = [lo, hi]
        path = tmp_path / "d.csv"
        write_rows(path, CANONICAL_SCHEMA, [row])
        return load_csv(path)

    def test_midpoint(self, tmp_path):
        m = self.load_temps(tmp_path, 10.0, 30.0)
        assert m.column_names[-1] == "avg_temp"
        assert m.column("avg_temp")[0] == 20.0

    def test_degenerate_equality(self, tmp_path):
        assert self.load_temps(tmp_path, 15.0, 15.0).column("avg_temp")[0] == 15.0

    def test_matches_recomputation(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(generate_synthetic(50, 8, SyntheticSpec(n_distractors=1)), path)
        m = load_csv(path, None)
        assert m.column_names == (
            "min_temp", "max_temp", "humidity", "rainfall", "soil_ph",
            "distractor_1", "month_sin", "month_cos", "avg_temp")
        expected = (m.column("min_temp") + m.column("max_temp")) / 2.0
        assert m.column("avg_temp").tobytes() == expected.tobytes()

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        header = [c for c in CANONICAL_SCHEMA if c != "max_temp"]
        write_rows(path, header, [sample_row()[:3] + sample_row()[4:]])
        with pytest.raises(DataError, match="max_temp"):
            load_csv(path, None)

    @pytest.mark.parametrize("n, seed, spec", [
        (12, 0, SyntheticSpec()), (120, 42, SyntheticSpec.canonical()),
        (37, 5, SyntheticSpec(n_distractors=2, n_outliers=1))])
    def test_the_generator_gives_the_loaded_matrix(self, tmp_path, n, seed,
                                                   spec):
        m = generate_synthetic(n, seed, spec)
        path = tmp_path / "d.csv"
        write_csv(m, path)
        loaded = load_csv(path, None)
        assert m.column_names[-1] == "avg_temp"
        assert loaded.column_names == m.column_names
        assert loaded.values.tobytes() == m.values.tobytes()
        assert loaded.target.tobytes() == m.target.tobytes()
        assert loaded.carried == m.carried

    @pytest.mark.parametrize("name", ["avg_temp", "month_sin", "month_cos"])
    @pytest.mark.parametrize("listed", [False, True], ids=["header", "schema"])
    def test_a_derived_name_is_refused_before_any_row(self, tmp_path, name,
                                                       listed):
        """The first data row is bad too: the name is refused first."""
        bad = sample_row()
        bad[4] = 140.0
        path = tmp_path / "d.csv"
        write_rows(path, [*CANONICAL_SCHEMA, name], [bad + [1.0]])
        schema = CANONICAL_SCHEMA + (name,) if listed else None
        for read in (lambda: load_csv(path, schema),
                     lambda: next(read_blocks(path, schema, block=1))):
            with pytest.raises(DataError) as err:
                read()
            assert str(err.value) == (
                f"{path}: column {name!r} is derived when the file is read; "
                "the file and the schema may not name it")

    @pytest.mark.parametrize("name", ["month_03", "month_12"])
    @pytest.mark.parametrize("listed", [False, True], ids=["header", "schema"])
    def test_a_month_like_name_is_an_ordinary_feature(self, tmp_path, name,
                                                       listed):
        """No encoding derives ``month_NN`` columns: such a file column is
        read as an extra feature and written back."""
        path = tmp_path / "d.csv"
        write_rows(path, [*CANONICAL_SCHEMA, name],
                   [sample_row(3) + [7.5], sample_row(12) + [-1.25]])
        schema = CANONICAL_SCHEMA + (name,) if listed else None
        m = load_csv(path, schema)
        assert m.column_names == (
            "min_temp", "max_temp", "humidity", "rainfall", "soil_ph", name,
            *DERIVED_COLUMNS)
        assert m.column(name).tolist() == [7.5, -1.25]
        assert m.column("month_sin").tobytes() == encode_months(
            np.array([3, 12]))[:, 0].tobytes()
        assert_same_matrix(joined(list(read_blocks(path, schema, block=1))), m)
        again = tmp_path / "again.csv"
        again.write_text(render_csv(m), encoding="utf-8", newline="")
        assert_same_matrix(load_csv(again, schema), m)


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.normal(size=30)
        assert pearson(x, x) == 1.0

    def test_sign_flip(self, rng):
        x = rng.normal(size=30)
        assert pearson(x, -x) == -1.0

    def test_hand_example(self):
        # centered cross products: 4 / sqrt(5 * 5)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(DataError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0),
           st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_affine_invariance(self, seed, a, b):
        r = np.random.default_rng(seed)
        x = r.normal(size=20)
        y = r.normal(size=20)
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-12)


class TestCorrelationReport:
    def test_unit_diagonal(self, rng):
        rep = correlation_report(random_matrix(rng, 30, 2))
        np.testing.assert_array_equal(np.diag(rep.matrix), [1.0, 1.0])

    def test_duplicated_column_gives_unit_off_diagonal(self, rng):
        x = rng.normal(size=25)
        m = FeatureMatrix(("a", "b"), np.column_stack([x, x]), rng.normal(size=25))
        rep = correlation_report(m)
        assert rep.matrix[0, 1] == 1.0

    def test_matches_pairwise_pearson(self, rng):
        m = random_matrix(rng, 40, 4)
        rep = correlation_report(m)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert rep.matrix[i, j] == pytest.approx(
                        pearson(m.values[:, i], m.values[:, j]), abs=0)
            assert rep.target_correlations[i] == pytest.approx(
                pearson(m.values[:, i], m.target), abs=0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_range(self, seed):
        m = random_matrix(np.random.default_rng(seed), 20, 5)
        rep = correlation_report(m)
        np.testing.assert_array_equal(rep.matrix, rep.matrix.T)
        assert np.all(rep.matrix >= -1.0) and np.all(rep.matrix <= 1.0)
        np.testing.assert_array_equal(np.diag(rep.matrix), np.ones(5))

    def test_constant_column_named(self, rng):
        m = FeatureMatrix(("a", "flat"),
                          np.column_stack([rng.normal(size=20), np.ones(20)]),
                          rng.normal(size=20))
        with pytest.raises(DataError, match="flat"):
            correlation_report(m)


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec.canonical()
        a = generate_synthetic(60, 9, spec)
        b = generate_synthetic(60, 9, spec)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.target, b.target)
        assert a.carried == b.carried

    def test_noiseless_matches_ground_truth(self):
        from teayield.dataset import ground_truth_log_yield

        spec = SyntheticSpec(noise_scale=0.0, n_outliers=2)
        m = generate_synthetic(50, 4, spec)
        avg = (m.column("min_temp") + m.column("max_temp")) / 2.0
        clean = ground_truth_log_yield(avg, m.column("rainfall"),
                                       m.column("soil_ph"), m.column("humidity"),
                                       np.array(m.carried["month"]), spec)
        np.testing.assert_allclose(m.target, np.exp(clean), rtol=1e-12)

    def test_negative_ph_coefficient_gives_negative_correlation(self):
        m = generate_synthetic(10000, 5, SyntheticSpec(ph_coef=-0.5))
        assert pearson(m.column("soil_ph"), m.target) < 0

    def test_distractors_uncorrelated_at_large_n(self):
        m = generate_synthetic(10000, 6, SyntheticSpec(n_distractors=3))
        for d in ("distractor_1", "distractor_2", "distractor_3"):
            assert abs(pearson(m.column(d), m.target)) < 0.05

    def test_too_few_samples(self):
        with pytest.raises(DataError, match="at least 10"):
            generate_synthetic(5, 0)

    def test_negative_noise_scale(self):
        with pytest.raises(DataError, match="noise_scale"):
            SyntheticSpec(noise_scale=-0.1)

    def test_ranges_respect_schema(self):
        m = generate_synthetic(500, 21, SyntheticSpec.canonical())
        assert np.all(m.column("min_temp") <= m.column("max_temp"))
        assert np.all((m.column("humidity") >= 0) & (m.column("humidity") <= 100))
        assert np.all(m.column("rainfall") >= 0)
        assert np.all((m.column("soil_ph") >= 0) & (m.column("soil_ph") <= 14))
        assert np.all(m.target >= 0)

    def test_target_is_right_skewed(self):
        m = generate_synthetic(2000, 17, SyntheticSpec.canonical())
        y = m.target
        skew = np.mean((y - y.mean()) ** 3) / np.mean((y - y.mean()) ** 2) ** 1.5
        assert skew > 0.5


class TestFeatureMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            FeatureMatrix(("a",), [[np.nan]], [1.0])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="unique"):
            FeatureMatrix(("a", "a"), [[1.0, 2.0]], [1.0])

    def test_values_are_read_only(self, rng):
        m = random_matrix(rng, 5, 2)
        with pytest.raises(ValueError):
            m.values[0, 0] = 99.0

    def test_subset_and_take_rows(self, rng):
        m = random_matrix(rng, 6, 3)
        sub = m.subset(("x2", "x0"))
        assert sub.column_names == ("x2", "x0")
        np.testing.assert_array_equal(sub.column("x2"), m.column("x2"))
        rows = m.take_rows([4, 1])
        np.testing.assert_array_equal(rows.target, m.target[[4, 1]])

    def test_only_whole_records_carry_provenance(self, tmp_path):
        """Model input, a ``subset`` or a chain's output, holds no carried
        column; the rows of a loaded file keep theirs, so a hold-out side
        writes and loads back whole."""
        path = tmp_path / "d.csv"
        write_csv(generate_synthetic(30, 3), path)
        m = load_csv(path)
        names = ("rainfall", "soil_ph")
        chain = PreprocessState(
            selected_features=names, scaler=fit_scaler(m.subset(names)),
            log_target=True, target_center=0.0, target_scale=1.0)
        assert m.subset(names).carried == {}
        assert chain.apply_features(m).carried == {}
        assert m.take_rows([4, 1]).carried == {
            key: (col[4], col[1]) for key, col in m.carried.items()}
        train, _ = holdout_split(m, 0.3, 7)
        write_csv(train, tmp_path / "train.csv")
        assert_same_matrix(load_csv(tmp_path / "train.csv"), train)
