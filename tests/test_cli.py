"""Command-line interface: subcommands, exit codes, file contracts."""

import gc
import itertools
import json
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mweid
from mweid import cli
from mweid import model as model_mod
from mweid.cli import (EXIT_ALIGNMENT, EXIT_CONFIG, EXIT_GRADCHECK, EXIT_OK,
                       EXIT_PARSE, EXIT_TRAIN, main)
from mweid.corpus import (_write_atomic, parse_cupt, parse_cupt_file,
                          serialize_corpus)
from mweid.model import ModelConfig, MweTagger
from mweid.trainer import TrainerConfig, train
from mweid.corpus import merge_corpora
from conftest import cupt_text

RO = mweid.fixture_path("synthetic_ro.cupt")
FR = mweid.fixture_path("synthetic_fr.cupt")


def run(args):
    return main(args)


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the paths were checked")


def _refuse_reading(monkeypatch):
    """Make the CLI's corpus reader refuse to run."""
    monkeypatch.setattr(cli, "iter_cupt", _refuse_work)


def _watch_forks(monkeypatch):
    """The pids of the children ``os.fork`` makes from now on."""
    pids, fork = [], os.fork

    def watched():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", watched)
    return pids


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(autouse=True)
def _no_stray_child():
    """End, at the end of its test, a forked child that returned into the
    test, so that it never runs the rest of the session."""
    pid = os.getpid()
    yield
    if os.getpid() != pid:
        os._exit(70)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    """Show every test two CPUs, so that ``eval`` forks on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def eval_both_ways(monkeypatch, capsys, argv, report=None,
                   end=lambda: os._exit(1)):
    """Run ``mweid eval <argv>`` three ways: with the training corpora read
    in a forked child; with one CPU, so in-process; and forked with a child
    that calls ``end`` in place of ``seen_lemma_keys``, so that this process
    reads them. Check that the first and the third forked one child and
    reaped it, the second forked none, each left no more descriptors open
    than it found, and all gave the same exit code, stdout, stderr and
    report bytes (None for no report); return those."""
    parent, seen_lemma_keys = os.getpid(), cli.seen_lemma_keys

    def failed(sentences):
        if os.getpid() == parent:
            return seen_lemma_keys(sentences)
        end()

    outcomes = []
    for way in ("forked", "in-process", "failed child"):
        with monkeypatch.context() as patch:
            pids = _watch_forks(patch)
            if way == "in-process":
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            elif way == "failed child":
                patch.setattr(cli, "seen_lemma_keys", failed)
            open_fds = len(os.listdir("/proc/self/fd"))
            code = run(["eval", *map(str, argv)])
            assert len(os.listdir("/proc/self/fd")) == open_fds, way
        assert len(pids) == (way != "in-process") and all(map(_reaped, pids))
        written = report is not None and report.exists()
        outcomes.append((code, *capsys.readouterr(),
                         report.read_bytes() if written else None))
        if written:
            report.unlink()
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0]


def train_args(out, epochs=3, extra=()):
    return ["train", "--train", f"RO={RO}", "--train", f"FR={FR}",
            "--out", str(out), "--epochs", str(epochs), "--seed", "1",
            "--set", "trainer.alpha=0.5", "--set", "trainer.batch_size=2",
            *extra]


class TestTrain:
    def test_smoke_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, epochs=4)) == EXIT_OK
        assert (out / "checkpoint.json").is_file()
        assert (out / "config.json").is_file()
        report = (out / "report.jsonl").read_text().splitlines()
        assert len(report) == 4
        assert json.loads(report[0])["epoch"] == 1

    def test_refuses_nonempty_outdir(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "junk").write_text("x")
        assert run(train_args(out)) == EXIT_CONFIG
        assert run(train_args(out, extra=["--force"])) == EXIT_OK

    def test_failed_run_leaves_directory_retryable(self, tmp_path,
                                                   monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("diverged")

        out = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "train", broken)
            assert run(train_args(out)) == EXIT_TRAIN
        assert not out.exists()
        assert run(train_args(out)) == EXIT_OK

    def test_divergence_exits_4_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            assert run(["train", "--train", f"RO={RO}", "--train", f"FR={FR}",
                        "--out", str(out), "--epochs", "3",
                        "--set", "trainer.alpha=10000"]) == EXIT_TRAIN
        assert "training diverged at epoch" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dev_corpus_exits_4_and_writes_nothing(self, tmp_path,
                                                         capsys):
        empty = tmp_path / "empty.cupt"
        empty.write_text("")
        out = tmp_path / "run"
        assert run(train_args(out, extra=["--dev", f"RO={empty}"])) \
            == EXIT_TRAIN
        assert "training failed: dev corpus is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_setting_is_a_config_error(self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, extra=["--set", "model.lam=Infinity"])) \
            == EXIT_CONFIG
        assert not out.exists()

    def test_missing_train_file(self, tmp_path):
        args = ["train", "--train", f"RO={tmp_path}/absent.cupt",
                "--out", str(tmp_path / "o")]
        assert run(args) == EXIT_CONFIG

    def test_config_file_with_overrides(self, tmp_path):
        config = {
            "train": [f"RO={RO}"],
            "out_dir": str(tmp_path / "from_config"),
            "model": {"embedding_dim": 4, "hidden_dim": 6,
                      "disc_hidden_dim": 4, "seed": 1,
                      "use_adversarial": False},
            "trainer": {"alpha": 0.3, "epochs": 2, "seed": 1},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert run(["train", "--config", str(config_path),
                    "--set", "trainer.epochs=3"]) == EXIT_OK
        resolved = json.loads(
            (tmp_path / "from_config" / "config.json").read_text())
        assert resolved["trainer"]["epochs"] == 3
        report = (tmp_path / "from_config" / "report.jsonl").read_text()
        assert len(report.splitlines()) == 3
        # The echoed configuration re-runs to the same checkpoint.
        again = tmp_path / "again"
        assert run(["train", "--config",
                    str(tmp_path / "from_config" / "config.json"),
                    "--out", str(again)]) == EXIT_OK
        assert (again / "checkpoint.json").read_bytes() == \
            (tmp_path / "from_config" / "checkpoint.json").read_bytes()

    @pytest.mark.parametrize("content, extra", [
        (b"[1, 2]", []),
        (b'{"model": null, "train": []}', ["--seed", "1"]),
        (b'{"trainer": [1]}', []),
        (b'{"train": "RO=x.cupt"}', []),
        (b'{"dev": [1]}', []),
        (b'{"out_dir": 5}', []),
        (b'{"out_dir": "caf\xe9"}', []),
        (b'{"mdoel": {"window": 3}}', []),
        (b'{"epochs": 50}', []),
    ], ids=["list", "null-model", "list-trainer", "string-train", "int-dev",
            "int-out-dir", "not-utf8", "misspelt-section", "unknown-key"])
    def test_malformed_config_file(self, tmp_path, capsys, content, extra):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(content)
        out = tmp_path / "run"
        assert run(["train", "--config", str(config_path), "--train", f"RO={RO}",
                    "--out", str(out), *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: bad config file: ")
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["train=5", "dev=[1]", "out_dir=5",
                                         "mdoel.window=3", "epochs=50"])
    def test_set_value_of_the_wrong_type(self, tmp_path, capsys, setting):
        out = tmp_path / "run"
        assert run(train_args(out, extra=["--set", setting])) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: bad --set value: ")
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--set", "trainer.epochs=2.5"], "epochs must be an integer"),
        (["--set", "trainer.batch_size=2.0"], "batch_size must be an integer"),
        (["--set", "model.window=1.5"], "window must be an integer"),
        (["--set", "trainer.epochs=true"], "epochs must be an integer"),
        (["--set", 'model.use_adversarial="no"'],
         "use_adversarial must be true or false"),
        (["--set", "trainer.alpha=true"], "alpha must be a number"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["float-epochs", "float-batch-size", "float-window", "bool-epochs",
            "string-adversarial", "bool-alpha", "negative-seed"])
    def test_setting_of_the_wrong_type_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, extra, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a corpus was parsed")

        monkeypatch.setattr(cli, "iter_cupt", refuse)
        out = tmp_path / "run"
        assert run(train_args(out, extra=extra)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: bad configuration: {message}")
        assert not out.exists()

    def test_output_directory_that_is_a_file(self, tmp_path, capsys,
                                             monkeypatch):
        _refuse_reading(monkeypatch)
        out = tmp_path / "F"
        out.write_text("kept")
        assert run(train_args(out)) == EXIT_CONFIG
        assert f"error: output directory {out} is not a directory" \
            in capsys.readouterr().err
        assert out.read_text() == "kept"

    def test_output_directory_under_a_file(self, tmp_path, capsys,
                                           monkeypatch):
        _refuse_reading(monkeypatch)
        parent = tmp_path / "F"
        parent.write_text("kept")
        assert run(train_args(parent / "run")) == EXIT_CONFIG
        assert f"error: cannot create {parent / 'run'}: {parent} is not a " \
            f"directory" in capsys.readouterr().err
        assert parent.read_text() == "kept"

    def test_bad_config_value(self, tmp_path):
        assert run(train_args(tmp_path / "r",
                              extra=["--set", "trainer.alpha=-1"])) \
            == EXIT_CONFIG

    def test_dev_corpus_writes_best_checkpoint(self, tmp_path):
        out = tmp_path / "with_dev"
        assert run(train_args(out, epochs=3,
                              extra=["--dev", f"RO={RO}"])) == EXIT_OK
        assert (out / "checkpoint_best.json").is_file()
        MweTagger.load(out / "checkpoint_best.json")
        summary = json.loads((out / "summary.json").read_text())
        assert "best_epoch" in summary

    def test_best_final_epoch_is_copied_not_re_encoded(self, tmp_path,
                                                      monkeypatch):
        saved = []
        save = MweTagger.save

        def counting_save(model, path):
            saved.append(path)
            return save(model, path)

        monkeypatch.setattr(MweTagger, "save", counting_save)
        out = tmp_path / "run"
        assert run(train_args(out, epochs=1,
                              extra=["--dev", f"RO={RO}"])) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["best_epoch"] == 1
        assert saved == [out / "checkpoint.json"]
        assert (out / "checkpoint_best.json").read_bytes() \
            == (out / "checkpoint.json").read_bytes()

    def test_earlier_best_epoch_saves_its_own_state(self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, epochs=3,
                              extra=["--dev", f"RO={RO}"])) == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["best_epoch"] == 1
        # The first epoch of a seeded run is the whole of a one-epoch run.
        one_epoch = tmp_path / "one_epoch"
        assert run(train_args(one_epoch, epochs=1)) == EXIT_OK
        best = (out / "checkpoint_best.json").read_bytes()
        assert best == (one_epoch / "checkpoint.json").read_bytes()
        assert best != (out / "checkpoint.json").read_bytes()

    def test_forced_run_without_dev_removes_an_earlier_best_checkpoint(
            self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, epochs=2,
                              extra=["--dev", f"RO={RO}"])) == EXIT_OK
        assert (out / "checkpoint_best.json").is_file()
        assert run(train_args(out, epochs=2, extra=["--force"])) == EXIT_OK
        assert sorted(path.name for path in out.iterdir()) == [
            "checkpoint.json", "config.json", "report.jsonl", "summary.json"]

    def test_model_lam_changes_only_the_stored_config(self, tmp_path):
        # train passes trainer.lam, by its schedule, to every step, so
        # model.lam is never the coefficient in effect.
        outs = [tmp_path / name for name in ("lam_1", "lam_03")]
        for out, lam in zip(outs, ("1.0", "0.3")):
            assert run(train_args(out, epochs=20, extra=[
                "--dev", f"RO={RO}", "--set", f"model.lam={lam}",
                "--set", "trainer.lambda_schedule=dann_ramp"])) == EXIT_OK
        for name in ("report.jsonl", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("checkpoint.json", "checkpoint_best.json"):
            first, second = (json.loads((out / name).read_text())
                             for out in outs)
            assert (first["config"]["lam"], second["config"]["lam"]) == (1.0, 0.3)
            del first["config"]["lam"], second["config"]["lam"]
            assert first == second, name

    def test_flags_disable_li_and_adv(self, tmp_path):
        out = tmp_path / "plain"
        assert run(train_args(out, extra=["--use-li", "false",
                                          "--use-adv", "false"])) == EXIT_OK
        payload = json.loads((out / "checkpoint.json").read_text())
        assert payload["config"]["use_lateral_inhibition"] is False
        assert payload["config"]["use_adversarial"] is False
        assert "discriminator.w1" not in payload["parameters"]

    def test_baseline_flags_reproduce_library_training(self, tmp_path):
        out = tmp_path / "base"
        assert run(train_args(out, epochs=3, extra=["--use-li", "false",
                                                    "--use-adv", "false"])) \
            == EXIT_OK
        cli_model = MweTagger.load(out / "checkpoint.json")

        corpus = merge_corpora([(parse_cupt_file(RO), "RO"),
                                (parse_cupt_file(FR), "FR")])
        lib_model = MweTagger.build(
            ModelConfig(seed=1, use_lateral_inhibition=False,
                        use_adversarial=False), corpus)
        train(lib_model, corpus, None,
              TrainerConfig(alpha=0.5, epochs=3, batch_size=2, seed=1))
        for p in lib_model.parameters():
            q = next(x for x in cli_model.parameters() if x.name == p.name)
            assert np.array_equal(p.data, q.data), p.name


class TestTag:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, epochs=2)) == EXIT_OK
        return out / "checkpoint.json"

    def test_output_is_valid_cupt_with_columns_preserved(self, checkpoint,
                                                         tmp_path):
        pred_path = tmp_path / "pred.cupt"
        assert run(["tag", str(checkpoint), RO, str(pred_path)]) == EXIT_OK
        pred = parse_cupt_file(pred_path)
        gold = parse_cupt_file(RO)
        assert len(pred) == len(gold)
        for gold_sentence, pred_sentence in zip(gold, pred):
            for g, p in zip(gold_sentence.tokens, pred_sentence.tokens):
                assert (g.form, g.lemma, g.columns) == \
                    (p.form, p.lemma, p.columns)
        # non-MWE columns byte-identical: strip the last column and compare
        def without_mwe(text):
            return "\n".join(
                line.rsplit("\t", 1)[0] if "\t" in line else line
                for line in text.splitlines())
        assert without_mwe(pred_path.read_text()) == \
            without_mwe(open(RO).read())

    def test_empty_corpus_in_empty_out(self, checkpoint, tmp_path):
        empty = tmp_path / "empty.cupt"
        empty.write_text("")
        out = tmp_path / "empty_pred.cupt"
        assert run(["tag", str(checkpoint), str(empty), str(out)]) == EXIT_OK
        assert out.read_text() == ""

    def test_output_reparse_roundtrip(self, checkpoint, tmp_path):
        pred_path = tmp_path / "pred.cupt"
        run(["tag", str(checkpoint), FR, str(pred_path)])
        text = pred_path.read_text()
        assert serialize_corpus(parse_cupt(text)) == text

    def test_existing_output_needs_force(self, checkpoint, tmp_path):
        out = tmp_path / "pred.cupt"
        out.write_text("occupied")
        assert run(["tag", str(checkpoint), RO, str(out)]) == EXIT_CONFIG
        assert run(["tag", str(checkpoint), RO, str(out), "--force"]) == EXIT_OK

    def test_existing_output_refused_before_tagging(self, checkpoint, tmp_path,
                                                   monkeypatch, capsys):
        out = tmp_path / "pred.cupt"
        out.write_text("occupied")

        def refuse(*args):
            raise AssertionError("tagging started")

        monkeypatch.setattr(cli.MweTagger, "load", refuse)
        monkeypatch.setattr(cli, "predict_corpus", refuse)
        assert run(["tag", str(checkpoint), RO, str(out)]) == EXIT_CONFIG
        assert f"output file {out} exists (use --force)" \
            in capsys.readouterr().err
        assert out.read_text() == "occupied"

    def test_output_in_a_missing_directory(self, checkpoint, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.setattr(cli.MweTagger, "load", _refuse_work)
        _refuse_reading(monkeypatch)
        out = tmp_path / "missing" / "out.cupt"
        assert run(["tag", str(checkpoint), RO, str(out)]) == EXIT_CONFIG
        assert f"error: no such directory: {out.parent}" \
            in capsys.readouterr().err
        assert not out.parent.exists()

    def test_output_that_is_a_directory(self, checkpoint, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.setattr(cli.MweTagger, "load", _refuse_work)
        _refuse_reading(monkeypatch)
        out = tmp_path / "D"
        out.mkdir()
        assert run(["tag", str(checkpoint), RO, str(out), "--force"]) \
            == EXIT_CONFIG
        assert f"error: output {out} is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value, message", [
        ("window", 1.0, "window must be an integer, got 1.0"),
        ("use_adversarial", "no", "use_adversarial must be true or false"),
    ], ids=["float-window", "string-adversarial"])
    def test_checkpoint_config_of_the_wrong_type_exits_2(
            self, tmp_path, capsys, key, value, message):
        path = tmp_path / "model.json"
        corpus = merge_corpora([(parse_cupt_file(RO), "RO")])
        MweTagger.build(ModelConfig(), corpus).save(path)
        payload = json.loads(path.read_text())
        payload["config"][key] = value
        path.write_text(json.dumps(payload))
        out = tmp_path / "p.cupt"
        assert run(["tag", str(path), RO, str(out)]) == EXIT_CONFIG
        assert f"error: bad checkpoint: bad config: {message}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first, message", [
        ("B-L:V", "tagset: invalid MWE category code: 'L:V'"),
        ("X-{}", "tagset must be 'O', then B-c, I-c for each category"),
        ("B-{}\tx", "tagset: invalid MWE category code: 'IRV\\tx'"),
    ], ids=["bad-code", "bad-prefix", "tab-in-code"])
    def test_checkpoint_tagset_out_of_layout_exits_2(
            self, tmp_path, capsys, monkeypatch, first, message):
        # Before, a bad code failed with exit 3 after tagging the whole input,
        # and a bad prefix tagged as a gap and exited 0.
        path = tmp_path / "model.json"
        corpus = merge_corpora([(parse_cupt_file(RO), "RO")])
        MweTagger.build(ModelConfig(), corpus).save(path)
        payload = json.loads(path.read_text())
        payload["tagset"][1] = first.format(payload["tagset"][1][2:])
        path.write_text(json.dumps(payload))
        _refuse_reading(monkeypatch)
        out = tmp_path / "p.cupt"
        assert run(["tag", str(path), RO, str(out)]) == EXIT_CONFIG
        assert f"error: bad checkpoint: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_input_is_a_parse_error(self, checkpoint, tmp_path,
                                             capsys):
        bad = tmp_path / "bad.cupt"
        bad.write_bytes(b"1\tb\xe9\tb\tX\t_\t_\t_\t_\t_\t_\t*\n")
        out = tmp_path / "p.cupt"
        assert run(["tag", str(checkpoint), str(bad), str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err \
            == f"error: parse error: {bad}: byte 3 (0xe9) is not UTF-8\n"
        assert not out.exists()

    def test_bare_path_whose_name_starts_with_a_code_and_equals(
            self, checkpoint, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data=ro.cupt").write_bytes(open(RO, "rb").read())
        for name, corpus in (("want.cupt", RO), ("got.cupt", "data=ro.cupt")):
            assert run(["tag", str(checkpoint), corpus, name]) == EXIT_OK
        assert (tmp_path / "got.cupt").read_bytes() \
            == (tmp_path / "want.cupt").read_bytes()

    def test_non_canonical_token_id_is_a_parse_error(self, checkpoint,
                                                      tmp_path, capsys):
        bad = tmp_path / "bad.cupt"
        bad.write_text("01\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*\n")
        out = tmp_path / "p.cupt"
        assert run(["tag", str(checkpoint), str(bad), str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == (f"error: parse error: {bad}:1: "
                                           f"token id '01' is not written as 1\n")
        assert not out.exists()

    def test_groups_give_the_bytes_of_one_pass(self, checkpoint, tmp_path,
                                               monkeypatch, capsys):
        # 150 copies of the fixture: 4,650 token rows in sentences of 5-7,
        # read as 2 groups at GROUP_TOKENS, 600 groups at 11 rows (one or
        # two sentences each), a sentence per group at 3 rows (each one
        # longer than that) and one group at 2**30.
        single = tmp_path / "single.cupt"
        assert run(["tag", str(checkpoint), RO, str(single)]) == EXIT_OK
        corpus = tmp_path / "ro150.cupt"
        corpus.write_bytes(open(RO, "rb").read() * 150)
        for group in (model_mod.GROUP_TOKENS, 11, 3, 1 << 30):
            monkeypatch.setattr(model_mod, "GROUP_TOKENS", group)
            out = tmp_path / f"pred_{group}.cupt"
            capsys.readouterr()
            assert run(["tag", str(checkpoint), str(corpus), str(out)]) \
                == EXIT_OK
            assert capsys.readouterr().out == f"tagged 750 sentences -> {out}\n"
            assert out.read_bytes() == single.read_bytes() * 150, group

    def test_fault_after_written_groups_leaves_the_output(
            self, checkpoint, tmp_path, capsys):
        corpus = tmp_path / "late.cupt"
        corpus.write_bytes(open(RO, "rb").read() * 150
                           + b"01\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*\n")
        out = tmp_path / "pred.cupt"
        out.write_text("kept")
        assert run(["tag", str(checkpoint), str(corpus), str(out),
                    "--force"]) == EXIT_PARSE
        # The fixture has 47 lines.
        assert capsys.readouterr().err == (f"error: parse error: {corpus}:7051: "
                                           f"token id '01' is not written as 1\n")
        assert out.read_text() == "kept"
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["late.cupt", "pred.cupt", "run"]

    def test_every_caller_tags_the_same_blocks(self, checkpoint, tmp_path,
                                               monkeypatch):
        # 3 copies of the fixture (sentences of 6, 5, 6, 7, 7 rows) cut into
        # groups of 17, 20, 18, 18 and 20 rows at 20, so in 8-row blocks one
        # group leaves a 1-row block and none ends on a multiple of 8.
        monkeypatch.setattr(model_mod, "GROUP_TOKENS", 20)
        monkeypatch.setattr(model_mod, "CHUNK_TOKENS", 8)
        corpus = tmp_path / "ro3.cupt"
        corpus.write_bytes(open(RO, "rb").read() * 3)
        blocks, tagging = [], []
        predict_tags = model_mod.MweTagger.predict_tags
        features = model_mod.FeatureExtractor.features

        def recorded_tags(model, sentences):
            tagging.append(True)
            try:
                return predict_tags(model, sentences)
            finally:
                tagging.pop()

        def recorded_features(extractor, batch):
            if tagging:
                blocks[-1].append(batch.windows.tolist())
            return features(extractor, batch)

        monkeypatch.setattr(model_mod.MweTagger, "predict_tags", recorded_tags)
        monkeypatch.setattr(model_mod.FeatureExtractor, "features",
                            recorded_features)
        blocks.append([])
        assert run(["tag", str(checkpoint), str(corpus),
                    str(tmp_path / "pred.cupt")]) == EXIT_OK
        blocks.append([])
        mweid.predict_corpus(MweTagger.load(checkpoint),
                             parse_cupt_file(corpus))
        blocks.append([])
        train(MweTagger.load(checkpoint),
              merge_corpora([(parse_cupt_file(RO), "RO")]),
              parse_cupt_file(corpus), TrainerConfig(epochs=1))
        tagged, predicted, dev_epoch = blocks
        assert [len(block) for block in tagged] \
            == [8, 8, 1, 8, 8, 4, 8, 8, 2, 8, 8, 2, 8, 8, 4]
        assert predicted == tagged
        assert dev_epoch == tagged

    def test_bad_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(["tag", str(bad), RO, str(tmp_path / "p.cupt")]) \
            == EXIT_CONFIG

    def test_checkpoint_failing_its_checks_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        corpus = merge_corpora([(parse_cupt_file(RO), "RO")])
        MweTagger.build(ModelConfig(), corpus).save(path)
        payload = json.loads(path.read_text())
        del payload["parameters"]["classifier.head_b"]
        path.write_text(json.dumps(payload))
        out = tmp_path / "p.cupt"
        assert run(["tag", str(path), RO, str(out)]) == EXIT_CONFIG
        assert "bad checkpoint: parameter classifier.head_b is missing" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_invalid_base64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        corpus = merge_corpora([(parse_cupt_file(RO), "RO")])
        MweTagger.build(ModelConfig(), corpus).save(path)
        payload = json.loads(path.read_text())
        data = payload["parameters"]["extractor.embedding"]["data"]
        data[-1] = data[-1][:-4] + "!!!!"
        path.write_text(json.dumps(payload))
        out = tmp_path / "p.cupt"
        assert run(["tag", str(path), RO, str(out)]) == EXIT_CONFIG
        assert "error: bad checkpoint: parameter extractor.embedding is " \
            "missing or malformed" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_gold_vs_gold_and_report(self, tmp_path, capsys, monkeypatch):
        report = tmp_path / "report.json"
        code, table, _, written = eval_both_ways(
            monkeypatch, capsys, [RO, RO, "--train", f"RO={RO}", "--report",
                                  report], report)
        assert code == EXIT_OK
        assert "100.00" in table
        payload = json.loads(written)
        assert payload["global"]["f1"] == 100.0
        assert payload["unseen"]["gold"] == 0

    def test_missing_file_no_partial_report(self, tmp_path):
        report = tmp_path / "report.json"
        assert run(["eval", RO, str(tmp_path / "nope.cupt"),
                    "--train", f"RO={RO}", "--report", str(report)]) \
            == EXIT_CONFIG
        assert not report.exists()

    def test_report_in_a_missing_directory(self, tmp_path, capsys,
                                           monkeypatch):
        _refuse_reading(monkeypatch)
        report = tmp_path / "missing" / "e.json"
        assert run(["eval", RO, RO, "--train", f"RO={RO}",
                    "--report", str(report)]) == EXIT_CONFIG
        assert f"error: no such directory: {report.parent}" \
            in capsys.readouterr().err
        assert not report.parent.exists()

    @pytest.mark.parametrize("role, spelling", [
        ("gold", "ro.cupt"), ("pred", "ro.cupt"), ("train", "ro.cupt"),
        ("pred", "./sub/../ro.cupt"), ("train", "link.cupt")])
    def test_a_report_that_names_an_input_is_refused(
            self, tmp_path, capsys, monkeypatch, role, spelling):
        _refuse_reading(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        copy = tmp_path / "ro.cupt"
        copy.write_bytes(Path(RO).read_bytes())
        (tmp_path / "link.cupt").symlink_to(copy)
        gold, pred, train = (str(copy) if role == name else RO
                             for name in ("gold", "pred", "train"))
        assert run(["eval", gold, pred, "--train", f"FR={FR}", "--train",
                    f"RO={train}", "--report", spelling]) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"error: --report {spelling} names the input {copy}\n"
        assert copy.read_bytes() == Path(RO).read_bytes()

    def test_alignment_mismatch_exit_code(self, tmp_path):
        assert run(["eval", RO, FR, "--train", f"RO={RO}"]) == EXIT_ALIGNMENT

    def test_parse_error_exit_code(self, tmp_path):
        broken = tmp_path / "broken.cupt"
        broken.write_text("1\tonly\tthree\n")
        assert run(["eval", str(broken), str(broken), "--train",
                    f"RO={RO}"]) == EXIT_PARSE

    # Gold and predictions are read in lockstep, training after them, a few
    # bytes at a time; each fault is still reported as a whole read of gold,
    # then of predictions, then of training would meet it. Files: "ro" is
    # the RO fixture seven times (329 lines, 9,219 bytes, so more than one
    # 8,192-byte chunk of text mode), "late" it followed by a bad row (line
    # 330), "early" a bad row (line 1) followed by it, "bytes" "early" with
    # a bad byte at its end, in the second chunk, "fr+1" the FR fixture with
    # one sentence more than RO.
    @pytest.mark.parametrize("gold, pred, train, code, message", [
        ("late", "early", "ro", EXIT_PARSE,
         "parse error: {late}:330: expected 11 tab-separated columns, got 3"),
        ("ro", "late", "early", EXIT_PARSE,
         "parse error: {late}:330: expected 11 tab-separated columns, got 3"),
        ("late", "ro", "early", EXIT_PARSE,
         "parse error: {late}:330: expected 11 tab-separated columns, got 3"),
        ("ro", "ro", "late", EXIT_PARSE,
         "parse error: {late}:330: expected 11 tab-separated columns, got 3"),
        ("ro1", "fr+1", "ro", EXIT_ALIGNMENT,
         "alignment error: gold has 5 sentences, predictions have 6"),
        ("ro1", "fr", "ro", EXIT_ALIGNMENT,
         "alignment error: sentence 'ro-1': gold and predicted token "
         "sequences differ"),
        ("ro1", "fr+1", "early", EXIT_PARSE,
         "parse error: {early}:1: expected 11 tab-separated columns, got 3"),
        ("bytes", "early", "ro", EXIT_PARSE,
         "parse error: {bytes}: byte 9233 (0xe9) is not UTF-8"),
        ("ro", "bytes", "early", EXIT_PARSE,
         "parse error: {bytes}: byte 9233 (0xe9) is not UTF-8"),
        ("ro", "ro", "bytes", EXIT_PARSE,
         "parse error: {bytes}: byte 9233 (0xe9) is not UTF-8"),
    ], ids=["gold-row-after-pred-row", "pred-against-train",
            "gold-against-train", "train-alone", "count-against-tokens",
            "tokens", "train-against-count", "gold-late-byte",
            "pred-late-byte", "train-late-byte"])
    def test_faults_keep_the_order_of_whole_reads(
            self, tmp_path, capsys, monkeypatch, gold, pred, train, code,
            message):
        monkeypatch.setattr(mweid.corpus, "PIECE_CHARS", 512)
        ro, fr = (open(path, "rb").read() for path in (RO, FR))
        bad = b"1\tonly\tthree\n"
        texts = {"ro": ro * 7, "late": ro * 7 + bad,
                 "early": bad + b"\n" + ro * 7,
                 "bytes": bad + b"\n" + ro * 7 + b"\xe9\n",
                 "ro1": ro, "fr": fr, "fr+1": fr + fr[:fr.index(b"\n\n") + 2]}
        paths = {}
        for name, data in texts.items():
            paths[name] = tmp_path / f"{name}.cupt"
            paths[name].write_bytes(data)
        assert len(texts["bytes"]) - 2 == 9233
        report = tmp_path / "report.json"
        assert eval_both_ways(
            monkeypatch, capsys, [paths[gold], paths[pred], "--train",
                                  paths[train], "--report", report], report) \
            == (code, "", f"error: {message.format(**paths)}\n", None)

    @pytest.mark.parametrize("pred, code", [(RO, EXIT_OK),
                                            (FR, EXIT_ALIGNMENT)],
                             ids=["aligned", "mismatch"])
    def test_training_is_read_after_gold_and_predictions(
            self, tmp_path, monkeypatch, capsys, pred, code):
        reads, iter_cupt, cmd_eval = [], cli.iter_cupt, cli.cmd_eval

        def logged(path, language=None):
            for sentence in iter_cupt(path, language):
                reads[-1].append(path)
                yield sentence

        def marked(args):
            reads.append([])
            return cmd_eval(args)

        monkeypatch.setattr(cli, "iter_cupt", logged)
        monkeypatch.setattr(cli, "cmd_eval", marked)
        train = tmp_path / "train.cupt"
        with open(RO, "rb") as fixture:
            train.write_bytes(fixture.read())
        assert eval_both_ways(monkeypatch, capsys,
                              [RO, pred, "--train", f"RO={train}"])[0] == code
        # A forked child's reads are not logged here: the forked run read
        # only gold and predictions here. The in-process run and the one
        # whose child failed each read training here, after gold and
        # predictions.
        runs = [[(is_train, set(paths)) for is_train, paths in
                 itertools.groupby(log, lambda path: path == str(train))]
                for log in reads]
        both = [(False, {str(RO), str(pred)})]
        assert runs == [both, both + [(True, {str(train)})],
                        both + [(True, {str(train)})]]

    @staticmethod
    def forked_then_patched(monkeypatch, capsys, tmp_path, name, patched):
        """Run one eval with the training corpora read in a forked child,
        then one with ``os.<name>`` replaced by ``patched``; check that the
        second forked no child, gave the first's exit code 0, stdout and
        report bytes, and left no more descriptors open than before it."""
        report = tmp_path / "report.json"
        argv = ["eval", RO, RO, "--train", f"RO={RO}", "--train", f"FR={FR}",
                "--report", str(report)]
        outcomes = []
        for patch_it in (False, True):
            with monkeypatch.context() as patch:
                pids = _watch_forks(patch)
                if patch_it:
                    patch.setattr(os, name, patched)
                open_fds = len(os.listdir("/proc/self/fd"))
                code = run(argv)
                assert len(os.listdir("/proc/self/fd")) == open_fds
            assert len(pids) == (not patch_it) and all(map(_reaped, pids))
            outcomes.append((code, capsys.readouterr().out,
                             report.read_bytes()))
            report.unlink()
        assert outcomes[0][0] == EXIT_OK and "100.00" in outcomes[0][1]
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("name", ["pipe", "fork"])
    def test_a_failed_fork_reads_training_in_process(
            self, tmp_path, monkeypatch, capsys, name):
        calls = []

        def refused():
            calls.append(name)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        self.forked_then_patched(monkeypatch, capsys, tmp_path, name, refused)
        assert calls == [name]

    def test_no_fork_where_the_threads_cannot_be_listed(
            self, tmp_path, monkeypatch, capsys):
        listdir, calls = os.listdir, []

        def unlisted(path="."):
            if path == "/proc/self/task":  # as on a system without /proc
                calls.append(path)
                raise FileNotFoundError(2, "No such file or directory", path)
            return listdir(path)

        with monkeypatch.context() as patch:
            patch.setattr(os, "listdir", unlisted)
            assert cli._can_fork() is False
        self.forked_then_patched(monkeypatch, capsys, tmp_path, "listdir",
                                 unlisted)
        assert len(calls) == 2

    def test_no_fork_on_one_cpu(self, monkeypatch):
        for cpus, forks in (({3}, False), ({0, 3}, True), (None, True)):
            if cpus is None:  # as where the call does not exist
                monkeypatch.delattr(os, "sched_getaffinity")
            else:
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: cpus)
            assert cli._can_fork() is forks, cpus

    @pytest.mark.parametrize("ending", ["exit-1", "sigkill", "picklable",
                                        "unpicklable"])
    def test_a_child_that_ends_without_keys_leaves_the_read_here(
            self, tmp_path, monkeypatch, capsys, ending):
        class Planted(Exception):  # a local class does not pickle
            pass

        def fail(error):
            raise error

        end = {"exit-1": lambda: os._exit(1),
               "sigkill": lambda: os.kill(os.getpid(), signal.SIGKILL),
               "picklable": lambda: fail(ValueError("planted")),
               "unpicklable": lambda: fail(Planted("planted"))}[ending]
        parent, log = os.getpid(), tmp_path / "after_run.log"
        report = tmp_path / "report.json"
        try:
            code, table, _, _ = eval_both_ways(
                monkeypatch, capsys, [RO, RO, "--train", f"RO={RO}",
                                      "--train", f"FR={FR}", "--report",
                                      report], report, end)
        finally:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            if os.getpid() != parent:  # a child that got this far
                os._exit(0)
        assert code == EXIT_OK and "100.00" in table
        assert log.read_text() == f"{parent}\n"


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert run(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "expected-fail (ok)" in out
        assert "gradient check passed" in out

    def test_injected_error_detected(self, capsys):
        assert run(["gradcheck", "--inject-error"]) == EXIT_GRADCHECK
        assert "corrupted_adjoint" in capsys.readouterr().out

    @pytest.mark.parametrize("inject", [False, True])
    def test_each_line_names_its_case_and_status(self, capsys, inject):
        ops = ["matmul", "sigmoid", "relu", "embedding", "embedding_window",
               "cross_entropy", "zero_diag", "lateral_inhibition_relaxed",
               "linear"]
        want = [(name, "ok") for name in ops]
        if inject:
            want.append(("corrupted_adjoint", "FAIL"))
        # The negative control comes after every case and is not counted.
        want.append(("hard_heaviside_control", "expected-fail (ok)"))
        argv = ["gradcheck", "--inject-error"] if inject else ["gradcheck"]
        code = run(argv)
        *lines, summary = capsys.readouterr().out.splitlines()
        rows = [re.fullmatch(r"(\S+) +max relative error \S+  (.+)", line)
                for line in lines]
        assert [row.groups() for row in rows] == want
        if inject:
            assert code == EXIT_GRADCHECK
            assert summary == "gradient check FAILED: corrupted_adjoint"
        else:
            assert code == EXIT_OK
            assert summary == ("gradient check passed (9 operations, "
                               "threshold 1e-05)")

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["x", "w", "b"])
    def test_linear_case_checks_the_vjp_of_each_input(self, monkeypatch,
                                                       index):
        linear = cli.ad.linear

        def corrupted(*inputs):
            node = linear(*inputs)
            pairs = list(node.vjps)
            parent, vjp = pairs[index]
            pairs[index] = (parent, lambda g: vjp(g) * 1.01)
            node.vjps = tuple(pairs)
            return node

        monkeypatch.setattr(cli.ad, "linear", corrupted)
        cases, _, _ = cli._gradcheck_cases(corrupt_adjoint=False)
        [(params, f)] = [(params, f) for name, params, f in cases
                         if name == "linear"]
        assert cli.ad.finite_difference_check(f, params) \
            > cli.GRADCHECK_THRESHOLD

    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-1e-5"])
    def test_step_must_be_finite_and_positive(self, capsys, step):
        assert run(["gradcheck", f"--step={step}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --step must be a finite number "
                                       "> 0, got ")
        assert captured.out == ""


class TestStats:
    def test_fixture_counts(self, capsys):
        assert run(["stats", f"RO={RO}", f"FR={FR}"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all" in out and "RO" in out and "FR" in out
        assert "IRV=4" in out  # 2 per fixture file

    def test_non_utf8_corpus_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cupt"
        bad.write_bytes(open(RO, "rb").read() + b"\xe9\n")
        assert run(["stats", f"RO={RO}", f"RO={bad}"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parse error: {bad}: byte " in captured.err

    def test_bare_path_whose_name_starts_with_a_code_and_equals(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["stats", RO]) == EXIT_OK
        want = capsys.readouterr()
        (tmp_path / "data=ro.cupt").write_bytes(open(RO, "rb").read())
        assert run(["stats", "data=ro.cupt"]) == EXIT_OK
        assert capsys.readouterr() == want
        # With ro.cupt there too, the spec is a language code and a path.
        (tmp_path / "ro.cupt").write_bytes(open(RO, "rb").read())
        assert run(["stats", "data=ro.cupt"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2].startswith("data ")


class TestUnopenable:
    """An input or checkpoint that exists but cannot be opened exits 2 with
    one error line naming it, and writes nothing. Tests run as root read
    any file whatever its mode, so ``open`` is replaced in the reading
    module instead."""
    CHECKPOINT = Path(__file__).parent / "golden" / "checkpoint_v1.json"

    @staticmethod
    def refuse(monkeypatch, module, path):
        """Make ``open`` in ``module`` refuse ``path`` as a file this
        process may not read; every other path opens as before."""
        def refused(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(module, "open", refused, raising=False)
        return f"error: [Errno 13] Permission denied: '{path}'\n"

    @pytest.fixture
    def copy(self, tmp_path):
        copy = tmp_path / "ro.cupt"
        copy.write_bytes(Path(RO).read_bytes())
        return copy

    def test_stats(self, monkeypatch, capsys, copy):
        error = self.refuse(monkeypatch, mweid.corpus, copy)
        assert run(["stats", f"RO={RO}", str(copy)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize("which", ["input", "checkpoint"])
    def test_tag(self, tmp_path, monkeypatch, capsys, copy, which):
        module, path = (model_mod, self.CHECKPOINT) if which == "checkpoint" \
            else (mweid.corpus, copy)
        error = self.refuse(monkeypatch, module, path)
        out = tmp_path / "tagged.cupt"
        assert run(["tag", str(self.CHECKPOINT), str(copy), str(out)]) \
            == EXIT_CONFIG
        assert capsys.readouterr() == ("", error)
        assert sorted(tmp_path.iterdir()) == [copy]

    def test_train(self, tmp_path, monkeypatch, capsys, copy):
        error = self.refuse(monkeypatch, mweid.corpus, copy)
        out = tmp_path / "run"
        assert run(["train", "--train", f"RO={copy}", "--out", str(out),
                    "--epochs", "1"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", error)
        assert not out.exists()

    @pytest.mark.parametrize("which", ["gold", "train"])
    def test_eval(self, tmp_path, monkeypatch, capsys, copy, which):
        # For "train" the forked child's read fails too, so it sends nothing
        # and this process's read raises.
        error = self.refuse(monkeypatch, mweid.corpus, copy)
        gold, train = (copy, RO) if which == "gold" else (RO, copy)
        report = tmp_path / "report.json"
        assert eval_both_ways(monkeypatch, capsys,
                              [gold, RO, "--train", f"RO={train}",
                               "--report", report], report) \
            == (EXIT_CONFIG, "", error, None)


class TestInputsCheckedFirst:
    @pytest.mark.parametrize("argv, message", [
        (["train", "--train", RO, "--out", "{tmp}/o"],
         f"training/eval inputs need a language code: LANG={RO}"),
        (["train", "--train", f"RO={RO}", "--dev", "RO={missing}",
          "--out", "{tmp}/o"], "no such file: {missing}"),
        (["eval", RO, RO, "--train", f"RO={RO}", "--train", "{missing}"],
         "no such file: {missing}"),
        (["stats", f"RO={RO}", "{missing}"], "no such file: {missing}"),
        (["tag", "{tmp}/model.json", "{missing}", "{tmp}/p.cupt"],
         "no such file: {missing}"),
    ], ids=["bare-train", "missing-dev", "eval-missing-train",
            "stats-missing-second", "tag-missing-input"])
    def test_usage_error_before_any_input_is_read(
            self, tmp_path, capsys, monkeypatch, argv, message):
        # Parsing and loading refuse, so each call must stop at its spec.
        _refuse_reading(monkeypatch)
        monkeypatch.setattr(cli.MweTagger, "load", _refuse_work)
        (tmp_path / "model.json").write_text("{}")
        names = {"tmp": tmp_path, "missing": tmp_path / "missing.cupt"}
        assert run([arg.format(**names) for arg in argv]) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"error: {message.format(**names)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--train", "data=ro.cupt", "--out", "o"],
         "training/eval inputs need a language code: LANG=data=ro.cupt"),
        (["stats", "data=fr.cupt"], "no such file: fr.cupt"),
    ], ids=["train-bare-path-with-equals", "neither-path"])
    def test_spec_with_an_equals_sign(self, tmp_path, capsys, monkeypatch,
                                      argv, message):
        _refuse_reading(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data=ro.cupt").write_bytes(open(RO, "rb").read())
        assert run(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["train", "--train", f"RO={RO}", "--out", "{tmp}/o",
          "--set", "trainer.alpha"],
         "--set needs key=value, got 'trainer.alpha'"),
        (["train", "--train", f"RO={RO}", "--out", "{tmp}/o",
          "--set", "out_dir.x=1"],
         "--set out_dir.x: out_dir is not a section"),
        (["train", "--out", "{tmp}/o"],
         "no training files given (config 'train' or --train)"),
        (["train", "--train", f"RO={RO}"],
         "no output directory given (config 'out_dir' or --out)"),
        (["train", "--config", "{tmp}/missing.json", "--train", f"RO={RO}",
          "--out", "{tmp}/o"], "no such config file: {tmp}/missing.json"),
        (["tag", "{tmp}/missing.json", f"RO={RO}", "{tmp}/o"],
         "no such checkpoint: {tmp}/missing.json"),
    ], ids=["set-without-equals", "set-through-a-value", "no-train",
            "no-out", "missing-config", "missing-checkpoint"])
    def test_message_and_exit_2_before_any_input_is_read(
            self, tmp_path, capsys, monkeypatch, argv, message):
        _refuse_reading(monkeypatch)
        monkeypatch.setattr(cli.MweTagger, "load", _refuse_work)
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"error: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "o").exists()


class TestOverfitReproduction:
    def test_tagging_gold_with_overfit_model_reproduces_gold(self, tmp_path):
        out = tmp_path / "overfit"
        assert run(["train", "--train", f"RO={RO}", "--train", f"FR={FR}",
                    "--out", str(out), "--epochs", "300", "--seed", "1",
                    "--set", "trainer.alpha=0.5",
                    "--set", "trainer.batch_size=2",
                    "--set", "model.embedding_dim=16",
                    "--set", "model.hidden_dim=32"]) == EXIT_OK
        for source in (RO, FR):
            pred = tmp_path / ("pred_" + source.rsplit("/", 1)[-1])
            assert run(["tag", str(out / "checkpoint.json"), source,
                        str(pred)]) == EXIT_OK
            # The fixtures have no overlapping MWEs and carry canonical
            # columns, so a perfectly overfit model reproduces them exactly.
            assert pred.read_text() == open(source).read()


class TestWarnings:
    def test_overlap_warning_is_one_line_without_a_source_location(
            self, tmp_path, capsys):
        corpus = tmp_path / "overlap.cupt"
        corpus.write_text(cupt_text([("a", "a", "1:VID"), ("b", "b", "1;2:IRV"),
                                     ("c", "c", "2")]))
        assert run(["train", "--train", f"RO={corpus}", "--out",
                    str(tmp_path / "run"), "--epochs", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: tokens [2] belong to more than one MWE; flat IOB2 tags "
            "keep only the earliest-starting instance"]
        assert "corpus.py" not in captured.err
        assert "warnings.warn" not in captured.err
        assert captured.out.startswith("trained 1 epochs; final tag loss ")


class TestDeterminism:
    def test_identical_seeded_runs_byte_identical(self, tmp_path):
        for name in ("one", "two"):
            assert run(train_args(tmp_path / name, epochs=3)) == EXIT_OK
        a, b = tmp_path / "one", tmp_path / "two"
        for file_name in ("checkpoint.json", "report.jsonl", "summary.json"):
            assert (a / file_name).read_bytes() == (b / file_name).read_bytes()


class TestAtomicWrite:
    def test_failing_writer_leaves_previous_file(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text("previous\n")

        def half_then_fail(handle):
            handle.write("{\"epochs\": ")
            handle.flush()
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_atomic(path, half_then_fail)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.cupt"
        path.write_text("a much longer previous content\n")
        _write_atomic(path, lambda handle: handle.write("new\n"))
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.cupt"]


class TestCollector:
    """``main`` runs a command with the cyclic collector paused, which is
    sound only while a command leaves no cyclic garbage that grows with its
    work, and it hands the caller's collector setting back."""

    @staticmethod
    def garbage_after(argv):
        """(exit code, unreachable objects that ``mweid <argv>`` left)."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()  # so that no collection runs before the count
        try:
            code = run([str(arg) for arg in argv])
            return code, gc.collect()
        finally:
            if enabled:
                gc.enable()

    def test_cyclic_garbage_does_not_grow_with_work(self, tmp_path, capsys):
        larger = tmp_path / "larger.cupt"
        larger.write_text(open(RO, encoding="utf-8").read() * 20,
                          encoding="utf-8")
        pairs = {"train": [train_args(tmp_path / f"run{epochs}", epochs)
                           for epochs in (1, 4)],
                 "tag": [], "eval": []}
        checkpoint = tmp_path / "run4" / "checkpoint.json"
        for corpus in (RO, larger):
            pred = tmp_path / f"pred_{len(pairs['tag'])}.cupt"
            pairs["tag"].append(["tag", checkpoint, corpus, pred])
            pairs["eval"].append(["eval", corpus, pred, "--train", f"RO={RO}"])
        for command, calls in pairs.items():
            (small, small_garbage), (large, large_garbage) = (
                self.garbage_after(argv) for argv in calls)
            assert small == large == EXIT_OK, command
            assert small_garbage == large_garbage, command

    @pytest.mark.parametrize("argv, code", [
        (["stats", f"RO={RO}"], EXIT_OK),
        (["stats", "{tmp}/missing.cupt"], EXIT_CONFIG),
        (["stats", "{tmp}/broken.cupt"], EXIT_PARSE),
        (["stats", "--no-such-flag"], SystemExit),
        (["stats", f"RO={RO}"], RuntimeError),
    ], ids=["ok", "config-error", "parse-error", "bad-flag", "crash"])
    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_callers_setting_is_restored(self, tmp_path, capsys, monkeypatch,
                                         argv, code, caller_enabled):
        (tmp_path / "broken.cupt").write_text("1\tonly\tthree\n")
        stats, during = cli.corpus_mod.corpus_stats, []

        def watched(corpus):
            during.append(gc.isenabled())
            if code is RuntimeError:
                raise RuntimeError("a command that crashes")
            return stats(corpus)

        monkeypatch.setattr(cli.corpus_mod, "corpus_stats", watched)
        enabled = gc.isenabled()
        (gc.enable if caller_enabled else gc.disable)()
        try:
            argv = [arg.format(tmp=tmp_path) for arg in argv]
            if isinstance(code, int):
                assert run(argv) == code
            else:
                with pytest.raises(code):
                    run(argv)
            assert gc.isenabled() is caller_enabled
        finally:
            (gc.enable if enabled else gc.disable)()
        assert not any(during)
        # ``stats`` counts as it reads, so its parse error is met in the body.
        assert len(during) == (code in (EXIT_OK, EXIT_PARSE, RuntimeError))


class TestBoundedMemory:
    """``tag``, ``eval`` and ``stats`` read a corpus block by block (and
    ``tag`` tags it a group at a time), so a larger input leaves the traced
    peak where it was. Groups and pieces are made small, so that both
    inputs span many of them."""

    @staticmethod
    def traced_peak(argv):
        """The peak of the memory ``mweid <argv>`` allocates, in bytes."""
        tracemalloc.start()
        try:
            assert run([str(arg) for arg in argv]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_input(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(model_mod, "GROUP_TOKENS", 128)
        monkeypatch.setattr(mweid.corpus, "PIECE_CHARS", 4096)
        checkpoint = tmp_path / "model.json"
        MweTagger.build(ModelConfig(), merge_corpora([(parse_cupt_file(RO),
                                                       "RO")])).save(checkpoint)
        calls = []
        for copies in (20, 200):  # 620 and 6,200 token rows
            corpus = tmp_path / f"ro{copies}.cupt"
            corpus.write_bytes(open(RO, "rb").read() * copies)
            pred = tmp_path / f"pred{copies}.cupt"
            calls.append([["tag", checkpoint, corpus, pred, "--force"],
                          ["eval", corpus, pred, "--train", f"RO={RO}"],
                          ["stats", corpus]])
        # Untraced first, so that what numpy and Python cache on a first
        # call is charged to neither peak.
        for argv in calls[1]:
            assert run([str(arg) for arg in argv]) == EXIT_OK
        peaks = [[self.traced_peak(argv) for argv in each] for each in calls]
        # Whole corpora in memory made the larger peaks 2.3 (tag), 9.3 (eval)
        # and 8.9 (stats) times the smaller ones.
        for command, small, large in zip(("tag", "eval", "stats"), *peaks):
            assert large < 1.2 * small, (command, small, large)
