"""Shared fixtures and the benchmark configuration used by the heavier tests.

The bench configuration is the shipped defaults, ``PipelineConfig()``, at
the pinned master seed 10; ``benchmarks/bench.ini`` is its rendering.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from teayield.config import PipelineConfig
from teayield.dataset import FeatureMatrix, SyntheticSpec, generate_synthetic
from teayield.serialize import _dec_array, _enc_array


def bench_config(seed: int = 10) -> PipelineConfig:
    return replace(PipelineConfig(), seed=seed)


def tiny_config(seed: int = 10) -> PipelineConfig:
    """``bench_config`` cut down to run in seconds: 50-epoch networks, a pool
    of three, 5 folds and one network replicate per stage-report cell."""
    base = bench_config(seed)
    mlp = replace(base.mlp, epochs=50)
    return replace(base, mlp=mlp, cv_folds=5, mlp_replicates=1,
                   ensemble=replace(base.ensemble, pool_size=3,
                                    mlp=replace(mlp, hidden_size=5)))


def assert_no_child_left() -> None:
    """Every child process this one started has been reaped: ``waitpid``
    finds none to wait for, running or ended."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def corrupt_model_doc(doc: dict, path: tuple | None, key: str,
                      change) -> None:
    """Replace or add one entry of a model document, in place.

    ``path`` leads from ``doc["model"]`` to the object holding ``key``, or
    is None for the document itself.  A callable ``change`` maps the value
    stored there, decoded if it is an array, to the value to store instead;
    any other value is stored as given, also under a key the object does not
    hold.
    """
    obj = doc if path is None else doc["model"]
    for step in path or ():
        obj = obj[step]
    if not callable(change):
        obj[key] = change
        return
    old = obj[key]
    if isinstance(old, dict):
        obj[key] = _enc_array(change(_dec_array(old, key)))
    else:
        obj[key] = change(old)


def planted_outlier_rows(m: FeatureMatrix, spec: SyntheticSpec) -> set[int]:
    """The generator plants outliers on the highest-rainfall rows."""
    if spec.n_outliers == 0:
        return set()
    order = np.argsort(m.column("rainfall"))[::-1]
    return set(int(i) for i in order[:spec.n_outliers])


def drop_planted_rows(raw: FeatureMatrix, subset: FeatureMatrix,
                      spec: SyntheticSpec) -> FeatureMatrix:
    """Remove rows of ``subset`` that are planted outliers in ``raw``.

    Corrupted rows are unpredictable by construction, so hold-out scoring in
    the bench runs uses the clean rows only (training keeps the corruption).
    Rows are matched through the year/month provenance columns.
    """
    planted = planted_outlier_rows(raw, spec)
    raw_keys = {(y, mo): i for i, (y, mo) in enumerate(
        zip(raw.carried["year"], raw.carried["month"]))}
    keep = [j for j in range(subset.n_samples)
            if raw_keys[(subset.carried["year"][j],
                         subset.carried["month"][j])] not in planted]
    return subset.take_rows(keep)


@pytest.fixture(scope="session")
def canonical_raw() -> FeatureMatrix:
    return generate_synthetic(120, 42, SyntheticSpec.canonical())


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_matrix(rng, n: int, f: int, target_noise: float = 1.0) -> FeatureMatrix:
    values = rng.normal(size=(n, f))
    beta = rng.normal(size=f)
    target = values @ beta + target_noise * rng.normal(size=n)
    return FeatureMatrix(tuple(f"x{i}" for i in range(f)), values, target)


# Replacement cells for ``mutate_csv``; the last one becomes a lone 0xff byte.
FUZZ_CELLS = ("", "nan", "inf", "1e400", "-0", " 3 ", "\udcff")


def csv_edits():
    """Strategy for up to four edits of a CSV file, for ``mutate_csv``."""
    n = st.integers(0, 2**16)
    return st.lists(st.tuples(st.sampled_from(("drop", "swap", "set", "byte")),
                              n, n, n), max_size=4)


def mutate_csv(text: str, edits, sep: str = ",") -> bytes:
    """The bytes of CSV ``text`` after ``edits``.

    Each edit is ``(kind, a, b, c)``, its numbers taken modulo the size they
    index: ``drop`` removes cell b of line a, ``swap`` exchanges cells b and
    c of line a, ``set`` replaces cell b of line a by ``FUZZ_CELLS[c]``, and
    ``byte`` sets byte a of the encoded file to c (mod 256) once the cell
    edits are done.  Lines are split into cells at each ``sep``: plain
    commas by default, ``"="`` to edit the keys and values of an INI file.
    """
    lines = [line.split(sep) for line in text.splitlines()]
    byte_edits = []
    for kind, a, b, c in edits:
        if kind == "byte":
            byte_edits.append((a, c))
            continue
        cells = lines[a % len(lines)]
        if not cells:
            continue
        j = b % len(cells)
        if kind == "drop":
            del cells[j]
        elif kind == "swap":
            k = c % len(cells)
            cells[j], cells[k] = cells[k], cells[j]
        else:
            cells[j] = FUZZ_CELLS[c % len(FUZZ_CELLS)]
    data = bytearray("".join(sep.join(cells) + "\n" for cells in lines)
                     .encode("utf-8", "surrogateescape"))
    for a, c in byte_edits:
        data[a % len(data)] = c % 256
    return bytes(data)


def block_sizes(n: int, block: int) -> list[int]:
    """The sizes of the blocks that ``n`` rows are read and scored in:
    ``block`` rows each, and the last holds the rest, even one row."""
    return [min(block, n - lo) for lo in range(0, n, block)]


def with_blank_lines(text: str, every: int) -> str:
    """``text`` with a blank row after every ``every``-th line: by turns an
    empty line and a line of empty cells."""
    out = []
    for i, line in enumerate(text.splitlines(keepends=True), start=1):
        out.append(line)
        if i % every == 0:
            out.append("\n" if i % (2 * every) else ",,,\n")
    return "".join(out)
