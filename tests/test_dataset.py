import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.dataset import (CANONICAL_SCHEMA, MONTH_ENCODINGS,
                              FeatureMatrix, SyntheticSpec, correlation_report,
                              derive_avg_temp, encode_months,
                              generate_synthetic, load_csv, month_columns,
                              pearson, render_csv, write_csv)
from teayield.errors import DataError

from conftest import csv_edits, mutate_csv, random_matrix

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
    """``(m, schema, month encoding, has yield)``: a matrix in the layout
    ``load_csv`` builds, with the target all zeros when the file it is
    written to has no yield column."""
    n = draw(st.integers(1, 5))
    extras = tuple(f"extra_{i}" for i in range(draw(st.integers(0, 2))))
    encoding = draw(st.sampled_from(MONTH_ENCODINGS))
    has_yield = draw(st.booleans())

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    low = np.array(column(finite(-1e300, 1e300)))
    high = low + np.array(column(finite(0.0, 1e300)))
    months = column(st.integers(1, 12))
    features = [low, high, column(finite(0.0, 100.0)), column(finite(0.0)),
                column(finite(0.0, 14.0)), *(column(finite()) for _ in extras)]
    values = np.column_stack([*features, encode_months(months, encoding)])
    names = ("min_temp", "max_temp", "humidity", "rainfall", "soil_ph",
             *extras, *month_columns(encoding))
    target = column(finite(0.0)) if has_yield else [0.0] * n
    # Any text a UTF-8 file can hold; the loader strips cells.
    text = st.text(st.characters(blacklist_categories=("Cs",))).map(str.strip)
    carried = {"year": column(st.integers(-10**12, 10**12)), "month": months,
               "labor_cost": column(finite()), "labor_training": column(text),
               "pesticide_used": column(st.integers(0, 1))}
    m = FeatureMatrix(names, values, target, carried=carried)
    return m, CANONICAL_SCHEMA + extras, encoding, has_yield


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
        m, schema, encoding, has_yield = case
        text = render_csv(m)
        if not has_yield:
            text = drop_column(text, "yield")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text, encoding="utf-8", newline="")
            loaded = load_csv(path, schema, encoding, require_target=has_yield)
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

    @given(edits=csv_edits(), encoding=st.sampled_from(MONTH_ENCODINGS),
           require_target=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_mutated_files_load_or_raise_data_error(self, edits, encoding,
                                                    require_target):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(mutate_csv(FUZZ_TEXT, edits))
            try:
                m = load_csv(path, FUZZ_SCHEMA, encoding, require_target)
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


class TestDeriveAvgTemp:
    def test_midpoint(self):
        m = FeatureMatrix(("min_temp", "max_temp"), [[10.0, 30.0]], [1.0])
        assert derive_avg_temp(m).column("avg_temp")[0] == 20.0

    def test_degenerate_equality(self):
        m = FeatureMatrix(("min_temp", "max_temp"), [[15.0, 15.0]], [1.0])
        assert derive_avg_temp(m).column("avg_temp")[0] == 15.0

    def test_matches_recomputation(self, rng):
        lo = rng.normal(size=50)
        hi = lo + rng.uniform(0.1, 5.0, size=50)
        m = FeatureMatrix(("min_temp", "max_temp"), np.column_stack([lo, hi]),
                          rng.normal(size=50))
        expected = (lo + hi) / 2.0
        np.testing.assert_allclose(derive_avg_temp(m).column("avg_temp"),
                                   expected, atol=0)

    def test_missing_column(self):
        m = FeatureMatrix(("min_temp",), [[1.0]], [1.0])
        with pytest.raises(DataError, match="max_temp"):
            derive_avg_temp(m)


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
