"""End-to-end benchmark of mweid, with an optional per-layer traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload train-short --seed 1 --seconds 20 --trace 0

Set-up generates seeded .cupt corpora under .bench_work/ (and, for
tag-eval, trains the checkpoint that is timed). The timed part repeats
the workload's ``mweid`` CLI calls, in process through
``mweid.cli.main``, for about ``--seconds`` seconds, checks every output
and reports medians of the calls' times, each scaled by the machine-speed
probe timed around it (see ``probe``). With ``--trace 1`` untraced
and traced repetitions alternate; the traced ones give the per-layer
metrics and the pair gives the cost of tracing.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment, the corpus sizes and details of the run. The exit code
is 0 whenever the run completes, 2 when there is no mweid source to
benchmark.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported anywhere in this process.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _key in THREAD_ENV:
    os.environ[_key] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import (CheckFailed, check_checkpoint, check_eval_report,
                    check_exit, check_tagged, check_train_outputs)
from corpusgen import LANGUAGES, generate
from layers import PER_LAYER, repetition_metrics
from tracer import Tracer
from workloads import END_TO_END, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPETITIONS = 3

# Other tenants of a shared machine slow the CPU itself, by up to 2x in
# phases that last from seconds to minutes: process CPU time grows with
# wall time, so it is not descheduling. Fixed work of the kinds mweid
# does, timed just before and just after every timed call, slows with
# them. Each call's time is scaled by PROBE_S (the probe's fastest time
# on the 2-vCPU x86 VM the bounds were set on) over the mean of its two
# probes: the time the call would take on that machine when idle.
PROBE_S = 0.0105
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((8, 32))
_PROBE_B = _PROBE_RNG.standard_normal((32, 16))
_PROBE_RECORDS = [{"name": f"w{i}", "data": [float(j) for j in range(20)]}
                  for i in range(700)]


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and list work,
    small numpy products and a JSON round trip, about a third each."""
    started = time.perf_counter()
    counts, pairs = {}, []
    for i in range(25000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        pairs.append((i, 2 * i))
        if len(pairs) > 64:
            pairs.clear()
    for _ in range(800):
        product = _PROBE_A @ _PROBE_B
        np.maximum(product, 0.0) * 0.5 + product
    json.loads(json.dumps(_PROBE_RECORDS))
    return time.perf_counter() - started


def import_mweid():
    """Import mweid from this checkout's src/, never from anywhere else."""
    if not (SRC / "mweid" / "__init__.py").is_file():
        raise ImportError(f"no mweid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mweid.cli
    import mweid.evaluation
    import mweid.model
    if Path(mweid.__file__).resolve().parent != (SRC / "mweid").resolve():
        raise ImportError(f"mweid was imported from {mweid.__file__}")
    return mweid


def _git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "commit": _git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "seed": seed,
    }


class Runner:
    """Runs one workload's CLI calls, checks their outputs, counts failures."""

    def __init__(self, name: str, seed: int, work: Path, mweid):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.cli = mweid.cli.main
        # Bound before any tracing starts, so checks never record spans.
        self.load = mweid.model.MweTagger.load
        self.round2 = mweid.evaluation.round2
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # Untraced calls that passed their checks: (command, seconds,
        # mean of the probes before and after the call).
        self.calls: list[tuple[str, float, float]] = []
        self.tracer: Tracer | None = None
        self.reference_summary = None
        self.reference_f1 = None
        self.data = work / "data"
        self.sizes: dict = {}

    # -- one CLI call ------------------------------------------------------
    def _call(self, argv):
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is None:
                    code = self.cli(argv)
                else:
                    with self.tracer:
                        code = self.tracer.span(f"cli.{argv[0]}", self.cli, argv)
        except Exception:  # a crash is a failed operation, not a failed run
            code = None
            sink.write(traceback.format_exc())
        return code, time.perf_counter() - start, sink.getvalue()

    def checked(self, argv, check):
        """Run ``mweid <argv>`` and ``check()``; (seconds, check result).

        A failed call or check returns (None, None) and counts as failed.
        """
        self.attempted += 1
        gc.collect()  # every call starts from a collected heap
        before = probe() if self.tracer is None else None
        code, seconds, output = self._call([str(a) for a in argv])
        after = probe() if self.tracer is None else None
        try:
            check_exit(code, argv[0])
            result = check()
        except Exception as err:  # any error in reading an output fails the call
            self.failed += 1
            self.failures.append(f"{argv[0]}: {err!r}; output: {output[-500:]!r}")
            return None, None
        if before is not None:
            self.calls.append((argv[0], seconds, (before + after) / 2))
        return seconds, result

    # -- the workload's operations -------------------------------------------
    def _split(self, split: str, language: str) -> Path:
        return self.data / f"{split}_{language}.cupt"

    def setup(self) -> None:
        """Generate the corpora (and, for tag-eval, train the checkpoint)."""
        shutil.rmtree(self.data, ignore_errors=True)
        self.sizes = generate(self.workload.corpus, self.seed, self.data)
        split = self.workload.tag_split
        (self.data / f"{split}_all.cupt").write_text(
            "".join(self._split(split, lang).read_text(encoding="utf-8")
                    for lang in LANGUAGES), encoding="utf-8")
        if not self.workload.timed_train:
            self.train(self.data / "model")

    def train(self, out: Path):
        w = self.workload
        argv = ["train", "--out", out, "--epochs", w.epochs, "--seed", self.seed]
        for lang in LANGUAGES:
            argv += ["--train", f"{lang}={self._split('train', lang)}"]
            if w.dev:
                argv += ["--dev", f"{lang}={self._split('dev', lang)}"]
        for setting in w.train_settings:
            argv += ["--set", setting]

        def check():
            summary = check_train_outputs(out)
            check_checkpoint(out / "checkpoint.json", self.load)
            if w.dev:
                check_checkpoint(out / "checkpoint_best.json", self.load)
            if self.reference_summary is None:
                self.reference_summary = summary
            elif summary != self.reference_summary:
                raise CheckFailed("a repeated seeded training run gave a "
                                  "different summary.json")
            return summary

        shutil.rmtree(out, ignore_errors=True)
        return self.checked(argv, check)

    def checkpoint(self, model_dir: Path) -> Path:
        name = "checkpoint_best.json" if self.workload.dev else "checkpoint.json"
        return model_dir / name

    def tag_and_eval(self, model_dir: Path):
        gold = self.data / f"{self.workload.tag_split}_all.cupt"
        pred = self.work / "pred.cupt"
        report = self.work / "eval.json"
        for stale in (pred, report):
            stale.unlink(missing_ok=True)
        tag_s, _ = self.checked(["tag", self.checkpoint(model_dir), gold, pred],
                                lambda: check_tagged(gold, pred))
        argv = ["eval", gold, pred, "--report", report]
        for lang in LANGUAGES:
            argv += ["--train", self._split("train", lang)]
        eval_s, _ = self.checked(argv, lambda: self.check_eval(report))
        return tag_s, eval_s

    def check_eval(self, report: Path) -> float:
        """Positive global F1, equal to every earlier repetition's and, with
        a dev set, to the best dev F1 of a training run that passed its
        checks."""
        f1 = check_eval_report(report)
        if self.workload.dev:
            if self.reference_summary is None:
                raise CheckFailed("no training run passed its checks, so the "
                                  "best dev F1 is unknown")
            best = self.round2(self.reference_summary["best_dev_global_f1"])
            if f1 != best:
                raise CheckFailed(f"global F1 {f1} of the best checkpoint on "
                                  f"dev differs from training's {best}")
        if self.reference_f1 is None:
            self.reference_f1 = f1
        elif f1 != self.reference_f1:
            raise CheckFailed(f"global F1 {f1} differs from an earlier "
                              f"repetition's {self.reference_f1}")
        return f1

    def repetition(self, index: int) -> dict:
        """One pass of the timed CLI calls; returns each call's seconds."""
        seconds = {}
        if self.workload.timed_train:
            model_dir = self.work / f"model{index % 2}"
            seconds["train"], _ = self.train(model_dir)
        else:
            model_dir = self.data / "model"
        seconds["tag"], seconds["eval"] = self.tag_and_eval(model_dir)
        return seconds

    # -- sizes ---------------------------------------------------------------
    def tokens(self, split: str) -> int:
        return sum(self.sizes["files"][f"{split}_{lang}.cupt"]["tokens"]
                   for lang in LANGUAGES)

    def sentences(self, split: str) -> int:
        return sum(self.sizes["files"][f"{split}_{lang}.cupt"]["sentences"]
                   for lang in LANGUAGES)

    def repetition_work(self, model_dir: Path) -> dict:
        w = self.workload
        train_epochs = self.sentences("train") * w.epochs if w.timed_train else 0
        dev_epochs = self.sentences("dev") * w.epochs if w.timed_train and w.dev else 0
        checkpoint = self.checkpoint(model_dir)
        return {"model_sentences": train_epochs + dev_epochs
                + self.sentences(w.tag_split),
                "train_sentence_epochs": train_epochs,
                "checkpoint_mb": (checkpoint.stat().st_size / 1e6
                                  if checkpoint.is_file() else 0.0)}


def _repeat_until(deadline: float, body, minimum: int) -> int:
    """Call ``body(i)`` until another call would end after ``deadline``."""
    count = 0
    while True:
        started = time.perf_counter()
        body(count)
        count += 1
        if count >= minimum and time.perf_counter() + (time.perf_counter()
                                                       - started) > deadline:
            return count


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and details."""
    w = runner.workload
    setups = []  # (seconds, mean of the probes before and after)
    for _ in range(w.setup_repeats):
        before = probe()
        started = time.perf_counter()
        runner.setup()
        setups.append((time.perf_counter() - started, (before + probe()) / 2))

    repetitions = _repeat_until(time.perf_counter() + seconds, runner.repetition,
                                MIN_REPETITIONS)

    tokens = {"train": runner.tokens("train") * w.epochs,
              "tag": runner.tokens(w.tag_split),
              "eval": runner.tokens(w.tag_split)}

    # Medians over the calls of each command (on tag-eval the training
    # calls are those of set-up), each call scaled by its probes.
    def rate(command, scaled=True):
        times = [s * PROBE_S / p if scaled else s
                 for c, s, p in runner.calls if c == command]
        return tokens[command] / statistics.median(times) if times else None

    values = {"setup_s": statistics.median(s * PROBE_S / p for s, p in setups)}
    values.update({f"{command}_tok_per_s": rate(command) for command in tokens})
    values["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    unscaled = {"setup_s": statistics.median(s for s, _ in setups)}
    unscaled.update({f"{command}_tok_per_s": rate(command, scaled=False)
                     for command in tokens})
    summary = runner.reference_summary or {}
    details = {"final_tag_loss": summary.get("final_tag_loss"),
               "global_f1": runner.reference_f1,
               "unscaled": unscaled, "repetitions": repetitions,
               "setups": setups, "calls": runner.calls, "tokens_per_call": tokens}
    return values, details


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Traced run: per-layer metrics, medians over traced repetitions."""
    runner.setup()
    tracer = Tracer()
    untraced_walls, traced_walls, per_rep = [], [], []

    def pair(index):
        untraced_walls.append(sum(v or 0.0 for v in runner.repetition(2 * index).values()))
        first = len(tracer.start)
        tracer.counters.clear()
        runner.tracer = tracer
        try:
            walls = runner.repetition(2 * index + 1)
        finally:
            runner.tracer = None
        traced_walls.append(sum(v or 0.0 for v in walls.values()))
        names, name, start, end, parent = tracer.arrays()
        local_parent = np.where(parent[first:] >= first, parent[first:] - first, -1)
        per_rep.append(repetition_metrics(
            names, name[first:], start[first:], end[first:], local_parent,
            dict(tracer.counters), runner.repetition_work(
                runner.work / f"model{(2 * index + 1) % 2}"
                if runner.workload.timed_train else runner.data / "model")))

    deadline = time.perf_counter() + seconds
    _repeat_until(deadline, pair, 1)
    tracer.save(spans_path)

    values = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(untraced_walls) - 1.0)
    details = {"traced_repetitions": len(per_rep), "untraced_walls": untraced_walls,
               "traced_walls": traced_walls, "spans": len(tracer.start),
               "spans_file": str(spans_path.relative_to(ROOT))}
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        mweid = import_mweid()
    except ImportError as err:
        print(f"error: cannot benchmark: {err}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, work, mweid)
    started = time.perf_counter()
    try:
        if args.trace:
            values, details = measure_traced(runner, args.seconds,
                                             results / f"{tag}-spans.npz")
            wanted = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            values, details = measure(runner, args.seconds)
            wanted = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name, _ in wanted if values.get(name) is None]
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "corpus": runner.sizes, "details": details,
              "wall_s": time.perf_counter() - started,
              "failures": runner.failures, "missing_metrics": missing}
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values.get(name) or 0.0, "unit": unit}
                    for name, unit in wanted},
    }
    (results / f"{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
