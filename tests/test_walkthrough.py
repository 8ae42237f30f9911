"""The README's CLI walkthrough, run through ``mweid.cli.main`` with
relative paths in a fresh directory.

Two seeded training runs on the bundled fixtures are shared by the module:
``run1`` (300 epochs, dev ``ro.cupt``, one tagging group) and ``run150``
(30 epochs, dev ``ro150.cupt``, 150 copies of ``ro.cupt``: 4,650 token rows,
so two groups of at most 4,096). The checks here are those no other test
makes; the rest of the walkthrough is held by the tests of ``test_cli.py``,
``test_run_config.py``, ``test_golden.py`` and ``test_golden_training.py``.
"""

import json
import shutil

import pytest

import mweid
from mweid.cli import EXIT_OK, EXIT_PARSE, main
from mweid.evaluation import round2

COPIES = 150
TRAIN = ["--train", "RO=ro.cupt", "--train", "FR=fr.cupt", "--seed", "1",
         "--set", "trainer.alpha=0.5", "--set", "trainer.batch_size=2"]
SEEN = ["--train", "RO=ro.cupt", "--train", "FR=fr.cupt"]


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    """A directory holding the fixtures, ``ro.cupt`` with CRLF and with
    lone-CR line ends, ``ro150.cupt``, the two runs, ``predictions.cupt``
    (``run1`` tagging ``ro.cupt``) and its ``eval.json``; the working
    directory while the module runs."""
    root = tmp_path_factory.mktemp("walkthrough")
    for lang in ("ro", "fr"):
        shutil.copy(mweid.fixture_path(f"synthetic_{lang}.cupt"),
                    root / f"{lang}.cupt")
    text = (root / "ro.cupt").read_text(encoding="utf-8")
    for name, end in (("ro_crlf.cupt", "\r\n"), ("ro_cr.cupt", "\r")):
        (root / name).write_text(text, encoding="utf-8", newline=end)
    (root / "ro150.cupt").write_bytes((root / "ro.cupt").read_bytes() * COPIES)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for calls in (
                ["train", *TRAIN, "--dev", "RO=ro.cupt", "--out", "run1",
                 "--epochs", "300"],
                ["train", *TRAIN, "--dev", "RO=ro150.cupt", "--out", "run150",
                 "--epochs", "30"],
                ["tag", "run1/checkpoint.json", "RO=ro.cupt",
                 "predictions.cupt"],
                ["eval", "ro.cupt", "predictions.cupt", *SEEN,
                 "--report", "eval.json"]):
            assert main(calls) == EXIT_OK, calls
        yield root


@pytest.mark.parametrize("name", ["ro_crlf.cupt", "ro_cr.cupt"])
def test_line_ends_do_not_change_the_tags(walk, name):
    assert main(["tag", "run1/checkpoint.json", f"RO={name}",
                 f"tagged_{name}"]) == EXIT_OK
    assert (walk / f"tagged_{name}").read_bytes() \
        == (walk / "predictions.cupt").read_bytes()


def test_a_crlf_gold_scores_to_the_same_report(walk):
    assert main(["eval", "ro_crlf.cupt", "predictions.cupt", *SEEN,
                 "--report", "eval_crlf.json"]) == EXIT_OK
    assert (walk / "eval_crlf.json").read_bytes() \
        == (walk / "eval.json").read_bytes()


def test_copies_score_the_counts_of_one_copy_times_their_number(walk):
    # ``mweid tag`` of ro150.cupt writes these bytes (test_cli.py, TestTag).
    (walk / "predictions150.cupt").write_bytes(
        (walk / "predictions.cupt").read_bytes() * COPIES)
    assert main(["eval", "ro150.cupt", "predictions150.cupt", *SEEN,
                 "--report", "eval150.json"]) == EXIT_OK
    one, many = (json.loads((walk / name).read_text())
                 for name in ("eval.json", "eval150.json"))
    for side in ("global", "unseen"):
        for count in ("gold", "predicted", "matched"):
            assert many[side][count] == COPIES * one[side][count], (side, count)


def test_a_bad_byte_past_the_first_pieces_names_its_offset(walk, capsys):
    data = (walk / "ro150.cupt").read_bytes() + b"\xe9\n"
    (walk / "ro150_bad.cupt").write_bytes(data)
    assert main(["tag", "run1/checkpoint.json", "RO=ro150_bad.cupt",
                 "ro150_bad_tagged.cupt"]) == EXIT_PARSE
    assert capsys.readouterr().err == ("error: parse error: ro150_bad.cupt: "
                                       "byte 197550 (0xe9) is not UTF-8\n")
    assert len(data) - 2 == 197550
    assert not (walk / "ro150_bad_tagged.cupt").exists()


@pytest.mark.parametrize("run, dev", [("run1", "ro.cupt"),
                                      ("run150", "ro150.cupt")])
def test_the_best_checkpoint_scores_as_training_recorded(walk, run, dev):
    # Training's dev epochs and ``mweid tag`` then ``mweid eval`` share one
    # scorer and tag the same blocks, with one tagging group and with two.
    assert main(["tag", f"{run}/checkpoint_best.json", f"RO={dev}",
                 f"{run}_best.cupt"]) == EXIT_OK
    assert main(["eval", dev, f"{run}_best.cupt", *SEEN,
                 "--report", f"{run}_best.json"]) == EXIT_OK
    summary = json.loads((walk / run / "summary.json").read_text())
    epochs = (walk / run / "report.jsonl").read_text().splitlines()
    (best,) = [record for record in map(json.loads, epochs)
               if record["epoch"] == summary["best_epoch"]]
    scores = json.loads((walk / f"{run}_best.json").read_text())
    assert (scores["global"]["f1"], scores["unseen"]["f1"]) \
        == (round2(summary["best_dev_global_f1"]),
            round2(best["dev_unseen_f1"]))
