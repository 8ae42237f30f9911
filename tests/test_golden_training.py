"""Seeded training, tagging and scoring pinned to committed bytes.

Each run below is a list of ``mweid`` commands on copies of the bundled
fixtures. All runs share one temporary working directory and use
relative paths, because ``config.json`` holds the corpus paths and
``out_dir``. ``golden/training.json`` holds each run's commands and the
SHA-256 of every file the run writes. For each checkpoint it also holds the
stored data of every parameter, so a failure can say by how many units in
the last place each parameter moved.

The file records the numpy version, the BLAS build, the BLAS core (the
kernel OpenBLAS selected for the CPU) and numpy's SIMD extensions that
made it. Bits can depend on the code paths a CPU selects, so a failure
names all four for the build that made the file and for the one running;
the tests do not skip on another build.

A change that alters training floats by design regenerates the file with

    PYTHONPATH=src python tests/test_golden_training.py

and says so where it records its changes to test data.
"""

import base64
import contextlib
import ctypes
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import mweid
from mweid.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
TRAINING = GOLDEN / "training.json"


def _train(out, *extra, epochs=60):
    """The call that made ``golden/checkpoint_v2.json`` (see
    ``test_golden.py``), with ``extra`` arguments after it."""
    return ["train", "--train", "RO=ro.cupt", "--train", "FR=fr.cupt",
            "--out", out, "--epochs", str(epochs), "--seed", "7",
            "--set", "model.embedding_dim=4", "--set", "model.hidden_dim=8",
            "--set", "model.disc_hidden_dim=4",
            "--set", "trainer.batch_size=2", "--set", "trainer.alpha=0.5",
            *extra]


# Run name -> its commands, run in this order. ``model.lam`` would pin
# nothing here: ``mweid train`` passes ``trainer.lam`` to every step.
RUNS = {
    "golden": [_train("golden")],
    "no_li": [_train("no_li", "--use-li", "false")],
    "no_adv": [_train("no_adv", "--use-adv", "false")],
    "dann_ramp": [_train("dann_ramp",
                         "--set", "trainer.lambda_schedule=dann_ramp",
                         "--set", "trainer.lam=0.3")],
    "clip_grad": [_train("clip_grad", "--set", "trainer.clip_grad=0.05")],
    "window0": [_train("window0", "--set", "model.window=0")],
    "batch1": [_train("batch1", "--set", "trainer.batch_size=1")],
    # Dev F1 first peaks at epoch 58 of 60, so one run saves its last
    # epoch as the best and the other an earlier one.
    "dev_best_last": [_train("dev_best_last", "--dev", "RO=ro.cupt",
                             epochs=58)],
    "dev_best_earlier": [_train("dev_best_earlier", "--dev", "RO=ro.cupt")],
    "tag_eval": [
        ["tag", "dev_best_last/checkpoint_best.json", "RO=ro.cupt",
         "tagged.cupt"],
        ["eval", "ro.cupt", "tagged.cupt", "--train", "RO=ro.cupt",
         "--train", "FR=fr.cupt", "--report", "eval.json"]],
}


def blas_core() -> str | None:
    """The name of the kernel OpenBLAS selected for this CPU, or None where
    numpy bundles no OpenBLAS that tells it."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def numpy_build() -> dict:
    """The numpy version, BLAS build, BLAS core and SIMD extensions
    running."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": blas_core(),
            "simd": np.__config__.CONFIG["SIMD Extensions"]}


def _files(root: Path) -> set[Path]:
    return {path.relative_to(root) for path in root.rglob("*") if path.is_file()}


def _parameters(path: Path) -> dict[str, list[str]]:
    return {name: entry["data"] for name, entry
            in json.loads(path.read_text())["parameters"].items()}


def run_all(root: Path) -> dict[str, dict]:
    """Run every run in ``root``; for each, the SHA-256 of the files it
    wrote and the stored parameters of each checkpoint among them."""
    for lang in ("ro", "fr"):
        shutil.copy(mweid.fixture_path(f"synthetic_{lang}.cupt"),
                    root / f"{lang}.cupt")
    results = {}
    before = _files(root)
    cwd = Path.cwd()
    os.chdir(root)
    try:
        for name, calls in RUNS.items():
            for call in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main(call)
                assert status == EXIT_OK, (name, call, status)
            written = sorted(_files(root) - before)
            before |= set(written)
            results[name] = {
                "calls": [" ".join(call) for call in calls],
                "sha256": {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
                           for path in written},
                "checkpoints": {str(path): _parameters(path) for path in written
                                if path.name.startswith("checkpoint")}}
    finally:
        os.chdir(cwd)
    return results


def _floats(chunks: list[str]) -> np.ndarray:
    return np.frombuffer(b"".join(base64.b64decode(c) for c in chunks), "<f8")


def _ordered(values: np.ndarray) -> list[int]:
    """The float64 bit patterns as integers that count ulps across zero."""
    bits = values.view(np.int64)
    return [-(int(b) & 0x7FFFFFFFFFFFFFFF) if b < 0 else int(b) for b in bits]


def ulp_report(want: dict[str, list[str]], got: dict[str, list[str]]) -> str:
    """Per parameter, the largest difference in units in the last place."""
    lines = []
    for name in sorted(set(want) | set(got)):
        if name not in want or name not in got:
            lines.append(f"  {name}: only in {'golden' if name in want else 'run'}")
            continue
        a, b = _floats(want[name]), _floats(got[name])
        if a.shape != b.shape:
            lines.append(f"  {name}: {a.size} values, now {b.size}")
            continue
        worst = max((abs(x - y) for x, y in zip(_ordered(a), _ordered(b))),
                    default=0)
        lines.append(f"  {name}: {worst} ulp")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden():
    if not TRAINING.is_file():
        pytest.fail(f"{TRAINING} is missing")
    return json.loads(TRAINING.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("training"))


def builds(golden) -> str:
    """The builds that made the golden file and this run, for a failure."""
    return f"golden made with {golden['build']}, this run with {numpy_build()}"


@pytest.mark.parametrize("name", list(RUNS))
def test_run_writes_the_golden_bytes(name, golden, results):
    want, got = golden["runs"][name], results[name]
    assert want["calls"] == got["calls"], \
        f"the run's calls changed; {builds(golden)}"
    assert sorted(want["sha256"]) == sorted(got["sha256"]), \
        f"{name} wrote other files; {builds(golden)}"
    for path, digest in want["sha256"].items():
        if got["sha256"][path] == digest:
            continue
        message = (f"{name}: {path} differs from the golden bytes; "
                   f"{builds(golden)}")
        if path in want["checkpoints"]:
            message += "\n" + ulp_report(want["checkpoints"][path],
                                         got["checkpoints"][path])
        pytest.fail(message)


def test_the_golden_call_retrains_the_golden_checkpoint(golden, results):
    want = (GOLDEN / "checkpoint_v2.json").read_bytes()
    assert results["golden"]["sha256"]["golden/checkpoint.json"] \
        == hashlib.sha256(want).hexdigest(), builds(golden)


def test_the_checkpoints_relate_as_the_runs_do(golden, results):
    def digest(run, name):
        return results[run]["sha256"][f"{run}/{name}"]

    # Scoring a dev corpus leaves training as it is, and a best checkpoint
    # holds the state of its epoch.
    assert digest("dev_best_earlier", "checkpoint.json") \
        == digest("golden", "checkpoint.json"), builds(golden)
    assert digest("dev_best_earlier", "checkpoint_best.json") \
        == digest("dev_best_last", "checkpoint_best.json") \
        == digest("dev_best_last", "checkpoint.json"), builds(golden)
    # Each variant of the golden call pins a checkpoint of its own.
    variants = [digest(run, "checkpoint.json") for run in RUNS
                if run not in ("dev_best_earlier", "tag_eval")]
    assert len(set(variants)) == len(variants), builds(golden)


def test_the_ulp_report_names_each_parameter():
    want = {"a": [base64.b64encode(np.array([1.0, -0.0]).tobytes()).decode()],
            "b": [base64.b64encode(np.array([2.0]).tobytes()).decode()]}
    got = {"a": [base64.b64encode(
        np.array([np.nextafter(1.0, 2.0), np.nextafter(0.0, 1.0)])
        .tobytes()).decode()]}
    assert ulp_report(want, got) == "  a: 1 ulp\n  b: only in golden"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        payload = {"build": numpy_build(), "runs": run_all(Path(scratch))}
    TRAINING.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
