"""Benchmark steps that need numpy and teayield, run as child processes.

``run.py`` imports neither: a child inherits its parent's resident size up to
``exec``, so a lean parent keeps each command's ``ru_maxrss`` its own.

    python3 benchmarks/helper.py inputs WORK ROWS TRAIN_SEED FRESH_ROWS FRESH_SEED SPLIT
    python3 benchmarks/helper.py reload MODEL
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent / "bench.ini"
HOLDOUT_STREAM = 5  # pipeline's seed-stream tag for the hold-out split


def inputs(work: str, rows: str, train_seed: str, fresh_rows: str,
           fresh_seed: str, split: str) -> int:
    """Write train.csv, fresh.csv and, with SPLIT=1, the training side of
    the hold-out split that ``evaluate`` makes, as train_split.csv.  Print
    the library versions as JSON.  Importing ``teayield.cli`` here writes
    the bytecode caches before any command is timed."""
    import numpy
    import scipy

    import teayield.cli  # noqa: F401
    from teayield.config import load_config
    from teayield.dataset import SyntheticSpec, generate_synthetic, write_csv
    from teayield.evaluation import holdout_split
    from teayield.util import derive_seed

    spec = SyntheticSpec.canonical()
    out = Path(work)
    raw = generate_synthetic(int(rows), int(train_seed), spec)
    write_csv(raw, out / "train.csv")
    if split == "1":
        cfg = load_config(CONFIG)
        train, _ = holdout_split(raw, cfg.holdout_fraction,
                                 derive_seed(cfg.seed, HOLDOUT_STREAM))
        write_csv(train, out / "train_split.csv")
    write_csv(generate_synthetic(int(fresh_rows), int(fresh_seed), spec),
              out / "fresh.csv")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")}}))
    return 0


def reload(path: str) -> int:
    """Exit 0 when the model reloads and re-serialises to identical bytes."""
    from teayield.errors import TeaYieldError
    from teayield.serialize import load_model, model_to_json

    try:
        text = model_to_json(load_model(path))
    except TeaYieldError as exc:
        print(f"model does not reload: {exc}", file=sys.stderr)
        return 1
    if text.encode("utf-8") != Path(path).read_bytes():
        print("reloaded model re-serialises to different bytes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    sys.exit({"inputs": inputs, "reload": reload}[command](*args))
