"""The run configuration of ``mweid train``: how it is merged, checked and
written, and the runs it reproduces."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import mweid
from mweid import cli
from mweid.cli import EXIT_CONFIG, EXIT_OK, main
from mweid.corpus import parse_cupt_file
from mweid.model import ModelConfig
from mweid.trainer import TrainerConfig

RO = mweid.fixture_path("synthetic_ro.cupt")
FR = mweid.fixture_path("synthetic_fr.cupt")
ARTIFACTS = ("checkpoint.json", "checkpoint_best.json", "report.jsonl",
             "summary.json")
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def train_args(out, *extra):
    return ["train", "--train", f"RO={RO}", "--train", f"FR={FR}",
            "--dev", f"RO={RO}", "--out", str(out), "--epochs", "3",
            "--seed", "1", "--set", "trainer.alpha=0.5",
            "--set", "trainer.batch_size=2", *extra]


def written_config(out) -> dict:
    return json.loads((Path(out) / "config.json").read_text())


def refuse_parse(*args, **kwargs):
    raise AssertionError("a corpus was parsed")


class TestWrittenInFull:
    def test_config_json_holds_every_field(self, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(out)) == EXIT_OK
        config = written_config(out)
        assert list(config) == sorted(["model", "trainer", "train", "dev",
                                       "out_dir"])
        assert config["model"] == {**asdict(ModelConfig()), "seed": 1}
        assert config["trainer"] == {**asdict(TrainerConfig()), "alpha": 0.5,
                                     "batch_size": 2, "epochs": 3, "seed": 1}
        assert config["trainer"]["clip_grad"] is None
        assert config["train"] == [f"RO={RO}", f"FR={FR}"]
        assert config["dev"] == [f"RO={RO}"]
        assert config["out_dir"] == str(out)

    def test_replay_reproduces_every_artifact(self, tmp_path):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(train_args(first)) == EXIT_OK
        assert main(["train", "--config", str(first / "config.json"),
                     "--out", str(replay)]) == EXIT_OK
        for name in ARTIFACTS:
            assert (replay / name).read_bytes() == (first / name).read_bytes()
        assert written_config(replay) == {**written_config(first),
                                          "out_dir": str(replay)}

    def test_partial_config_takes_current_defaults(self, tmp_path):
        # A config.json as written before every field was: only the settings
        # that the flags and --set gave.
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({
            "dev": [f"RO={RO}"], "model": {"seed": 1},
            "out_dir": str(tmp_path / "from_partial"),
            "train": [f"RO={RO}", f"FR={FR}"],
            "trainer": {"alpha": 0.5, "batch_size": 2, "epochs": 3,
                        "seed": 1}}))
        assert main(["train", "--config", str(partial)]) == EXIT_OK
        full = tmp_path / "full"
        assert main(train_args(full)) == EXIT_OK
        from_full = tmp_path / "from_full"
        assert main(["train", "--config", str(full / "config.json"),
                     "--out", str(from_full)]) == EXIT_OK
        for name in ARTIFACTS:
            assert (tmp_path / "from_partial" / name).read_bytes() \
                == (from_full / name).read_bytes()


class TestPrecedence:
    def test_set_overrides_epochs_flag(self, tmp_path):
        for order, out in ((["--epochs", "2", "--set", "trainer.epochs=3"],
                            tmp_path / "flag_first"),
                           (["--set", "trainer.epochs=3", "--epochs", "2"],
                            tmp_path / "set_first")):
            assert main(["train", "--train", f"RO={RO}", "--out", str(out),
                         *order]) == EXIT_OK
            assert written_config(out)["trainer"]["epochs"] == 3
            assert len((out / "report.jsonl").read_text().splitlines()) == 3

    def test_set_overrides_one_of_the_seeds(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--train", f"RO={RO}", "--out", str(out),
                     "--epochs", "1", "--seed", "1",
                     "--set", "model.seed=2"]) == EXIT_OK
        config = written_config(out)
        assert (config["model"]["seed"], config["trainer"]["seed"]) == (2, 1)
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["config"]["seed"] == 2

    def test_set_corrects_a_bad_file_value(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": [f"RO={RO}"],
                                    "model": {"window": -1},
                                    "trainer": {"epochs": 1}}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()
        assert main(["train", "--config", str(path), "--out", str(out),
                     "--set", "model.window=1"]) == EXIT_OK
        assert written_config(out)["model"]["window"] == 1

    def test_flags_append_to_the_file_corpora(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": [f"RO={RO}"],
                                    "trainer": {"epochs": 1}}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--train", f"FR={FR}",
                     "--out", str(out)]) == EXIT_OK
        assert written_config(out)["train"] == [f"RO={RO}", f"FR={FR}"]

    def test_a_value_that_is_not_json_is_a_string(self, tmp_path):
        bare, quoted = tmp_path / "bare", tmp_path / "quoted"
        for value, out in (("dann_ramp", bare), ('"dann_ramp"', quoted)):
            assert main(["train", "--train", f"RO={RO}", "--out", str(out),
                         "--epochs", "1", "--set",
                         f"trainer.lambda_schedule={value}"]) == EXIT_OK
        config = written_config(bare)
        assert config["trainer"]["lambda_schedule"] == "dann_ramp"
        assert config == {**written_config(quoted), "out_dir": str(bare)}


class TestUnknownSectionKey:
    KNOWN = {"model": ", ".join(asdict(ModelConfig())),
             "trainer": ", ".join(asdict(TrainerConfig()))}

    @pytest.mark.parametrize("section, key", [("model", "windw"),
                                              ("trainer", "epoch")])
    def test_set_names_section_key_and_fields(
            self, tmp_path, capsys, monkeypatch, section, key):
        monkeypatch.setattr(cli, "iter_cupt", refuse_parse)
        out = tmp_path / "run"
        assert main(["train", "--train", f"RO={RO}", "--out", str(out),
                     "--set", f"{section}.{key}=3"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: bad --set value: unknown key {key!r} in {section!r}; "
            f"expected one of {self.KNOWN[section]}\n")
        assert not out.exists()

    def test_file_names_section_key_and_fields(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(cli, "iter_cupt", refuse_parse)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": {"windw": 3}}))
        assert main(["train", "--config", str(path), "--train", f"RO={RO}",
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: bad config file: unknown key 'windw' in 'model'; "
            f"expected one of {self.KNOWN['model']}\n")


class TestBlasThreads:
    def test_import_pins_one_thread(self):
        for name in BLAS_THREAD_ENV:
            assert os.environ[name] == "1"

    def test_checkpoint_bytes_do_not_depend_on_thread_count(self, tmp_path):
        # 20 copies of each fixture, all in one batch: each step sums over
        # more than 1,000 token rows, where more BLAS threads sum numpy's
        # products in another order.
        for lang, path in (("ro", RO), ("fr", FR)):
            (tmp_path / f"{lang}.cupt").write_text(
                Path(path).read_text(encoding="utf-8") * 20, encoding="utf-8")
        rows = sum(len(sentence.tokens) for lang in ("ro", "fr")
                   for sentence in parse_cupt_file(tmp_path / f"{lang}.cupt"))
        assert rows > 1000
        src = str(Path(mweid.__file__).resolve().parents[1])
        checkpoints = []
        for threads in (None, "1", "2"):
            env = {key: value for key, value in os.environ.items()
                   if key not in BLAS_THREAD_ENV}
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH"))))
            if threads is not None:
                env.update(dict.fromkeys(BLAS_THREAD_ENV, threads))
            out = f"run_{threads}"
            subprocess.run(
                [sys.executable, "-m", "mweid.cli", "train",
                 "--train", "RO=ro.cupt", "--train", "FR=fr.cupt",
                 "--out", out, "--epochs", "1", "--seed", "1",
                 "--set", "trainer.batch_size=1000"],
                cwd=tmp_path, env=env, check=True, capture_output=True)
            checkpoints.append((tmp_path / out / "checkpoint.json").read_bytes())
        assert checkpoints[1] == checkpoints[0]
        assert checkpoints[2] == checkpoints[0]
