"""A row's prediction depends only on the row and the model.

Any subset, permutation or blocking of a scoring file's rows gives each row
the bits it gets when the whole file is scored as one block, through
``predict_ensemble`` and through ``teayield predict``.  The file holds more
than 25,000 rows: a BLAS product over that many rows is split between
threads, and a row at the edge of a thread's share was rounded by another
kernel when the networks scored rows through BLAS.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teayield import cli, ensemble
from teayield.cli import main
from teayield.dataset import (FeatureMatrix, SyntheticSpec,
                              generate_synthetic, load_csv, write_csv)
from teayield.ensemble import predict_ensemble
from teayield.serialize import save_model

from test_cli import scoring_model

N_ROWS = 30_001
HIDDEN = (5, 28)


class Bulk:
    """The scoring file's lines, its rows as read, the saved models, and
    each model's predictions of every row scored in one block.  Its repr is
    short, as a failing example prints it."""

    def __init__(self, lines: list[str], matrix: FeatureMatrix,
                 models: dict, preds: dict):
        self.lines, self.matrix = lines, matrix
        self.models, self.preds = models, preds

    def __repr__(self) -> str:
        return f"Bulk({self.matrix.n_samples} rows)"


@pytest.fixture(scope="module")
def bulk(tmp_path_factory) -> Bulk:
    work = tmp_path_factory.mktemp("rows")
    data = work / "all.csv"
    write_csv(generate_synthetic(N_ROWS, 11, SyntheticSpec.canonical()), data)
    m = load_csv(data, None, require_target=False)
    models, preds = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "SCORE_BLOCK", N_ROWS)
        for hidden in HIDDEN:
            model = scoring_model(hidden)
            models[hidden] = work / f"h{hidden}.json"
            save_model(model, models[hidden])
            preds[hidden] = predict_ensemble(model, m)
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    return Bulk(lines, m, models, preds)


def predict_file(bulk, hidden: int, rows, block: int, path, monkeypatch):
    """``teayield predict``'s predictions of the file's data ``rows``, in
    that order, read and scored in blocks of ``block`` rows."""
    lines = bulk.lines
    path.write_text(lines[0] + "".join(lines[r + 1] for r in rows),
                    encoding="utf-8")
    out = path.with_suffix(".out.csv")
    monkeypatch.setattr(cli, "SCORE_BLOCK", block)
    monkeypatch.setattr(ensemble, "SCORE_BLOCK", block)
    assert main(["predict", "--data", str(path),
                 "--model", str(bulk.models[hidden]),
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(line.split(",")[1]) for line in text])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


row_lists = st.lists(st.integers(0, N_ROWS - 1), min_size=1, max_size=300)


@given(hidden=st.sampled_from(HIDDEN), rows=row_lists,
       block=st.integers(1, 400))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_rows_in_any_blocks_keep_their_bits(bulk, hidden, rows, block,
                                                monkeypatch):
    """Rows drawn with repeats and in any order: a subset and a
    permutation at once."""
    model = scoring_model(hidden)
    monkeypatch.setattr(ensemble, "SCORE_BLOCK", block)
    got = predict_ensemble(model, bulk.matrix.take_rows(rows))
    assert same_bits(got, bulk.preds[hidden][rows])


@given(hidden=st.sampled_from(HIDDEN), rows=row_lists,
       block=st.integers(1, 64))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_predict_gives_any_rows_their_bits(bulk, hidden, rows, block,
                                           tmp_path, monkeypatch):
    got = predict_file(bulk, hidden, rows, block, tmp_path / "rows.csv",
                       monkeypatch)
    assert same_bits(got, bulk.preds[hidden][rows])


@pytest.mark.parametrize("hidden", HIDDEN)
def test_the_whole_file_reversed_in_blocks_keeps_its_bits(bulk, hidden,
                                                          tmp_path,
                                                          monkeypatch):
    """Every row, in the default blocks of ``predict``, last row first."""
    rows = np.arange(N_ROWS)[::-1]
    got = predict_file(bulk, hidden, rows, ensemble.SCORE_BLOCK,
                       tmp_path / "reversed.csv", monkeypatch)
    assert same_bits(got, bulk.preds[hidden][rows])
