"""Benchmark of the ``teayield`` command line: train, evaluate and predict.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload canonical-train --seed 1 --seconds 30 --trace 0

One closed-loop client runs each command as a fresh ``python3 -m
teayield.cli`` child (``src`` on ``PYTHONPATH``), one at a time; the next
command starts when the previous child has exited.  The training sets are
fixed per workload (generator seed 42, so the 120-row set is the tests'
``canonical_raw``); ``--seed`` draws the 50,000-row scoring file.  Training
time depends on the data through early stopping and the learner-selection
stop, so a training set drawn per seed would measure the data, not the code.

Every output is checked; an operation that fails a check counts as failed.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
medians over the passes that fit in ``--seconds`` (at least one), and over
the CLI import times taken between commands.  With ``--trace 1`` the run times the fitting command untraced,
then runs the workload's commands under ``spans.py`` and reports per-layer
metrics.  The line before the last holds the details: machine, versions,
per-command times and the SHA-256 of every output.  See NOTES.md.

This process imports neither numpy nor teayield (``helper.py`` does that
work in children), so the resident size each child inherits up to ``exec``
stays small next to the peak it reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "bench.ini"
TRAIN_DATA_SEED = 42
FRESH_ROWS = 50_000
FRESH_SEED_OFFSET = 1_000_000  # keeps scoring seeds clear of TRAIN_DATA_SEED


@dataclass(frozen=True)
class Workload:
    rows: int
    fit: str  # the command whose wall time is fit_s: "train" or "evaluate"


WORKLOADS = {
    # Small n: an epoch costs tens of microseconds, mostly call overhead.
    "canonical-train": Workload(120, "train"),
    # Twice the rows: each pool fit sees about 185, so more of an epoch is
    # compute and temporaries, and the O(n^2) relief loop grows 4-fold.
    "scaled-train": Workload(240, "train"),
    # Stage report plus the ensemble on the 84-row training split; the
    # predict step scores with a model trained on that same split.
    "canonical-evaluate": Workload(120, "evaluate"),
}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    user_s: float
    sys_s: float
    status: int


class Runner:
    """Launches children from the checkout root and logs their output."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.log = work / "children.log"
        env = dict(os.environ)
        # Users import from warm bytecode caches; let the first import write them.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def run(self, argv: list[str], stdout=None) -> Child:
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=stdout or log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted or terminated: leave no child behind.
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime,
                     usage.ru_stime, proc.returncode)

    def cli(self, args: list[str], spans: Path | None = None) -> Child:
        if spans is None:
            return self.run([sys.executable, "-m", "teayield.cli", *args])
        return self.run([sys.executable, str(HERE / "spans.py"), str(spans), *args])

    def helper(self, *args: str, stdout=None) -> Child:
        return self.run([sys.executable, str(HERE / "helper.py"), *args], stdout)

    def log_tail(self, lines: int = 20) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_column(path: Path, name: str) -> list[float]:
    # Row by row: a list of 50,000 row dicts would raise this process's peak
    # resident size, which every later child inherits.
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        at = next(reader).index(name)
        return [float(row[at]) for row in reader]


def rmse(pred, truth) -> float:
    return math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, truth)) / len(truth))


def log_rmse(pred, truth) -> float:
    return rmse([math.log(p) for p in pred], [math.log(t) for t in truth])


class Inputs:
    """Files and reference values for one workload and seed."""

    def __init__(self, runner: Runner, work: Path, name: str, seed: int):
        self.workload = WORKLOADS[name]
        split = self.workload.fit == "evaluate"
        versions = work / "versions.json"
        with open(versions, "wb") as out:
            child = runner.helper("inputs", str(work), str(self.workload.rows),
                                  str(TRAIN_DATA_SEED), str(FRESH_ROWS),
                                  str(FRESH_SEED_OFFSET + seed), str(int(split)),
                                  stdout=out)
        if child.status != 0:
            raise RuntimeError("cannot write the inputs:\n" + runner.log_tail())
        self.versions = json.loads(versions.read_text())
        self.data = work / "train.csv"
        self.model_data = work / "train_split.csv" if split else self.data
        self.fresh = work / "fresh.csv"
        self.fresh_yield = read_column(self.fresh, "yield")
        # The "beats the mean" check compares against predicting the mean
        # yield of the rows the model was trained on.
        mean = statistics.fmean(read_column(self.model_data, "yield"))
        self.mean_rmse = rmse([mean] * FRESH_ROWS, self.fresh_yield)


class Pass:
    """One pass over a workload's commands, with every output checked.

    With ``setup`` given, the pass times a fresh import of the CLI at its
    start and after each command, so that the set-up samples are spread
    over the pass.
    """

    def __init__(self, runner: Runner, inputs: Inputs, out: Path,
                 traced: bool, fit_only: bool = False,
                 setup: list[float] | None = None):
        self.runner = runner
        self.inputs = inputs
        self.out = out
        self.traced = traced
        self.setup = setup
        self.children: dict[str, Child] = {}
        self.failures: list[str] = []
        self.digests: dict[str, str | None] = {}
        self.values: dict[str, float] = {}
        self.span_files: list[Path] = []
        out.mkdir(parents=True)
        self.time_setup()
        evaluate = inputs.workload.fit == "evaluate"
        if evaluate:
            self.evaluate()
        if not (evaluate and fit_only):
            self.train()
        if not fit_only:
            self.predict()

    def time_setup(self) -> None:
        if self.setup is None:
            return
        child = self.runner.run([sys.executable, "-c", "import teayield.cli"])
        if child.status != 0:
            raise RuntimeError("cannot import teayield.cli:\n"
                               + self.runner.log_tail())
        self.setup.append(child.wall_s)

    def command(self, name: str, args: list[str]) -> Child:
        spans = None
        if self.traced:
            spans = self.out / f"spans_{name}.json"
            self.span_files.append(spans)
        child = self.runner.cli([name, *args, "--config", str(CONFIG)], spans)
        self.children[name] = child
        self.time_setup()
        return child

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def train(self) -> None:
        # `train` exits with code 2 after training when the --model directory
        # is missing, so the directory is made first.
        model = self.out / "model" / "model.json"
        model.parent.mkdir()
        child = self.command("train", ["--data", str(self.inputs.model_data),
                                       "--model", str(model)])
        self.digests["model"] = sha256(model)
        if child.status != 0:
            return self.fail(f"train exited with {child.status}")
        if self.runner.helper("reload", str(model)).status != 0:
            self.fail("train: the model does not reload to identical bytes")

    def predict(self) -> None:
        preds_path = self.out / "predictions.csv"
        child = self.command("predict", [
            "--data", str(self.inputs.fresh),
            "--model", str(self.out / "model" / "model.json"),
            "--out", str(preds_path)])
        self.digests["predictions"] = sha256(preds_path)
        if child.status != 0:
            return self.fail(f"predict exited with {child.status}")
        try:
            preds = read_column(preds_path, "prediction")
        except (OSError, StopIteration, IndexError, ValueError) as exc:
            return self.fail(f"predict: unreadable predictions: {exc}")
        if len(preds) != FRESH_ROWS:
            return self.fail(f"predict: {len(preds)} predictions for {FRESH_ROWS} rows")
        if not all(math.isfinite(p) and p > 0.0 for p in preds):
            return self.fail("predict: non-finite or non-positive prediction")
        self.values["fresh_rmse"] = rmse(preds, self.inputs.fresh_yield)
        self.values["fresh_log_rmse"] = log_rmse(preds, self.inputs.fresh_yield)
        if not self.values["fresh_rmse"] < self.inputs.mean_rmse:
            self.fail(f"predict: RMSE {self.values['fresh_rmse']:.3f} does not "
                      f"beat the training mean ({self.inputs.mean_rmse:.3f})")

    def evaluate(self) -> None:
        report_dir = self.out / "evaluate"
        child = self.command("evaluate", ["--data", str(self.inputs.data),
                                          "--out", str(report_dir)])
        self.digests["stage_report"] = sha256(report_dir / "stage_report.csv")
        if child.status != 0:
            return self.fail(f"evaluate exited with {child.status}")
        try:
            cells = [float(row["cv_rmse"])
                     for row in read_rows(report_dir / "stage_report.csv")]
            holdout = {row["metric"]: row["value"]
                       for row in read_rows(report_dir / "holdout_metrics.csv")}
            value = float(holdout["rmse"])
        except (OSError, KeyError, ValueError) as exc:
            return self.fail(f"evaluate: unreadable report: {exc}")
        if not cells or not all(math.isfinite(c) and c > 0.0 for c in cells):
            return self.fail("evaluate: stage report is empty or has a bad cell")
        if not (math.isfinite(value) and value > 0.0):
            return self.fail(f"evaluate: bad hold-out RMSE {value!r}")
        self.values["holdout_rmse"] = value

    def record(self) -> dict:
        return {"traced": self.traced,
                "commands": {name: vars(c) for name, c in self.children.items()},
                "values": self.values, "digests": self.digests,
                "failures": self.failures}


def environment(root: Path, libraries: dict) -> dict:
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"machine": platform.machine(), "platform": platform.platform(),
            "node": platform.node(), "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), **libraries,
            "blas_threads": threads or "default", "commit": commit(root)}


def commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def end_to_end(setup: list[float], passes: list[Pass],
               workload: Workload) -> dict:
    median = statistics.median
    fits = [p.children[workload.fit] for p in passes]
    return {
        "setup_s": (median(setup), "s"),
        "fit_s": (median([c.wall_s for c in fits]), "s"),
        "peak_rss_mb": (median([c.rss_mb for c in fits]), "MB"),
        "predict_rss_mb": (median([p.children["predict"].rss_mb for p in passes]),
                           "MB"),
        "fresh_rmse": (median([p.values["fresh_rmse"] for p in passes]), "kg"),
        "fresh_log_rmse": (median([p.values["fresh_log_rmse"] for p in passes]),
                           "log_kg"),
    }


def per_layer(untraced: Pass, traced: Pass) -> dict:
    from spans import layer_metrics

    metrics = layer_metrics([json.loads(p.read_text())["spans"]
                             for p in traced.span_files])
    fit = untraced.inputs.workload.fit
    metrics["trace.overhead_ratio"] = (
        traced.children[fit].wall_s / untraced.children[fit].wall_s, "ratio")
    metrics["proc.predict_rows_per_s"] = (
        FRESH_ROWS / traced.children["predict"].wall_s, "1/s")
    # CPU time of the traced commands: a BLAS spin or a second busy core
    # shows as cpu_s above the wall time.
    children = traced.children.values()
    metrics["proc.cpu_s"] = (sum(c.user_s + c.sys_s for c in children), "s")
    metrics["proc.sys_s"] = (sum(c.sys_s for c in children), "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "teayield" / "cli.py").is_file():
        print("benchmark: run from the root of a teayield checkout "
              "(src/teayield/cli.py not found)", file=sys.stderr)
        return 2
    work = root / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work)
    setup: list[float] = []
    passes: list[Pass] = []
    try:
        inputs = Inputs(runner, work, args.workload, args.seed)
        if args.trace:
            # The untraced fit is the reference for the tracing overhead.
            passes.append(Pass(runner, inputs, work / "untraced", False,
                               fit_only=True))
            passes.append(Pass(runner, inputs, work / "traced", True))
        else:
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                passes.append(Pass(runner, inputs, work / f"pass{len(passes)}",
                                   False, setup=setup))
                now = time.perf_counter()
                if passes[-1].failures or now - start + (now - began) > args.seconds:
                    break
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in p.failures]
    digests = [p.digests for p in passes]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "train_data_seed": TRAIN_DATA_SEED,
        "fresh_data_seed": FRESH_SEED_OFFSET + args.seed,
        "environment": environment(root, inputs.versions), "setup_s": setup,
        "passes": [p.record() for p in passes],
        # A changed digest is reported here, not counted as a failure.
        "digests_repeat": all(d.get(k) == v for d in digests
                              for k, v in digests[0].items() if k in d),
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    for message in failures:
        print(f"benchmark: failed: {message}", file=sys.stderr)
    if failures:
        print(runner.log_tail(), file=sys.stderr)
        metrics = {}
    elif args.trace:
        metrics = per_layer(passes[0], passes[1])
    else:
        metrics = end_to_end(setup, passes, WORKLOADS[args.workload])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(p.children) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
