"""Small shared helpers."""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext

import numpy as np


def derive_seed(*parts: int) -> int:
    """Deterministically mix integers into a child seed.

    All randomness in the package flows from one master seed; sub-tasks
    (learner index, fold index, pipeline stage, ...) get their own streams
    through this mixer so results do not depend on execution order.

    Part lists give independent streams unless they differ only by trailing
    zeros within the first four parts: numpy's ``SeedSequence`` pads its
    entropy with zeros to four words, so ``derive_seed(7) ==
    derive_seed(7, 0) == derive_seed(7, 0, 0)``.  So a tag that is followed
    by an index counted from 0 is not also used alone.  Every output of the
    package depends on these values, so they stay as they are.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"seed parts must be non-negative, got {parts}")
    return int(np.random.SeedSequence(list(parts)).generate_state(2, np.uint32)[0])


def as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def write_table(path, header, rows) -> None:
    """Write a report table as CSV: UTF-8, ``\\n`` line ends, a header row
    and then ``rows``; to standard output when ``path`` is None."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
