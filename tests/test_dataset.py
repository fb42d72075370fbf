import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teayield.dataset import (CANONICAL_SCHEMA, FeatureMatrix, SampleRecord,
                              SyntheticSpec, correlation_report,
                              derive_avg_temp, generate_synthetic, load_csv,
                              pearson, write_csv)
from teayield.errors import DataError

from conftest import random_matrix


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


class TestSampleRecord:
    def test_min_above_max_rejected(self):
        with pytest.raises(DataError, match="min_temp"):
            SampleRecord(2010, 1, 20.0, 10.0, 50.0, 10.0, 7.0, 1.0, "basic",
                         False, 5.0)

    def test_month_range(self):
        with pytest.raises(DataError, match="month"):
            SampleRecord(2010, 13, 1.0, 2.0, 50.0, 10.0, 7.0, 1.0, "basic",
                         False, 5.0)


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
