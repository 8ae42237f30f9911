"""Tests of the benchmark's own parts: generator, output checks, tracer.

Run with the rest of the suite, or alone:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from checks import (CheckFailed, check_checkpoint, check_eval_report,
                    check_exit, check_tagged, check_train_outputs, strict_json)
from corpusgen import CorpusSpec, generate
from layers import PER_LAYER, tail_percentile
from tracer import Tracer, self_times
from workloads import END_TO_END

SMALL = CorpusSpec(vocab=50, min_len=1, max_len=12, mwe_rate=0.2, mwe_types=12,
                   split_tokens=(("train", 300), ("test", 100)))


# -- self-time arithmetic ----------------------------------------------------

def test_self_times_of_a_hand_built_tree():
    #        0 root [0, 10]
    #       /            \
    #   1 a [1, 4]     2 b [5, 9]
    #      |
    #   3 c [2, 3]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 4.0, 1.0]
    assert own.sum() == 10.0  # self times add up to the root's wall time


def test_self_times_count_overlapping_children_once():
    # Children [1, 5] and [3, 7] cover [1, 7]; [8, 12] is clipped to [8, 10].
    own = self_times([0.0, 1.0, 3.0, 8.0], [10.0, 5.0, 7.0, 12.0], [-1, 0, 0, 0])
    assert own[0] == 10.0 - 6.0 - 2.0


def test_tracer_records_names_parents_and_times():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("corpus.inner", lambda x: x + 1)
    outer = tracer.wrap("evaluation.outer", lambda x: inner(x) * inner(x))
    assert tracer.span("cli.eval", outer, 2) == 9
    names, name, start, end, parent = tracer.arrays()
    assert [names[i] for i in name] == ["cli.eval", "evaluation.outer",
                                        "corpus.inner", "corpus.inner"]
    assert parent.tolist() == [-1, 0, 1, 1]
    assert start.tolist() == [0.0, 1.0, 2.0, 5.0]
    assert end.tolist() == [10.0, 9.0, 3.0, 8.0]


def test_tracer_patches_names_imported_elsewhere_and_restores_them():
    from mweid import autodiff, corpus, inhibition, model, trainer

    originals = (trainer.encode_tags, inhibition.matmul, inhibition._node,
                 model.MweTagger.forward)
    tracer = Tracer()
    with tracer:
        assert trainer.encode_tags is not originals[0]
        assert corpus.encode_tags is trainer.encode_tags
        assert inhibition.matmul is autodiff.matmul
        assert inhibition.matmul is not originals[1]
        assert inhibition._node is autodiff._node is not originals[2]
        a = autodiff.Parameter(np.ones((2, 2)), "a")
        autodiff.backward(autodiff.sum_all(autodiff.matmul(a, a)))
    assert (trainer.encode_tags, inhibition.matmul, inhibition._node,
            model.MweTagger.forward) == originals
    names, name, _, _, parent = tracer.arrays()
    spans = [names[i] for i in name]
    assert spans[:5] == ["autodiff.fwd.matmul", "autodiff.node", "autodiff.fwd.sum",
                         "autodiff.node", "autodiff.backward"]
    assert parent[:5].tolist() == [-1, 0, -1, 2, -1]
    assert spans[5] == "autodiff.topo_order" and parent[5] == 4
    assert "autodiff.bwd.matmul" in spans
    assert all(parent[i] == 4 for i, s in enumerate(spans)
               if s.startswith("autodiff.bwd."))
    assert tracer.counters["autodiff.nodes"] == 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(200)))[0] == 95.0
    assert tail_percentile(list(range(10)))[0] == 50.0
    assert tail_percentile([]) == (0.0, 0.0)


# -- corpus generator --------------------------------------------------------

def test_generator_is_seeded_and_parseable(tmp_path):
    from mweid.corpus import extract_mwes, parse_cupt_file, seen_lemma_keys

    sizes = generate(SMALL, 7, tmp_path / "a")
    generate(SMALL, 7, tmp_path / "b")
    generate(SMALL, 8, tmp_path / "c")
    for name in sizes["files"]:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        assert first != (tmp_path / "c" / name).read_bytes()
        corpus = parse_cupt_file(tmp_path / "a" / name)
        assert sum(len(s) for s in corpus) == sizes["files"][name]["tokens"]
        assert sum(len(extract_mwes(s)) for s in corpus) \
            == sizes["files"][name]["mwes"] > 0
    train = parse_cupt_file(tmp_path / "a" / "train_RO.cupt")
    test = parse_cupt_file(tmp_path / "a" / "test_RO.cupt")
    seen = seen_lemma_keys(train)
    assert any(m.lemma_key not in seen for s in test for m in extract_mwes(s))


# -- output checks on corrupted outputs ---------------------------------------

def test_nonzero_exit_fails():
    check_exit(0, "train")
    for code in (2, 4, None):
        with pytest.raises(CheckFailed):
            check_exit(code, "train")


def test_strict_json_rejects_nan_and_infinity():
    assert strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', "{"):
        with pytest.raises(CheckFailed):
            strict_json(text)


def _train_outputs(directory: Path, losses, summary_loss=None):
    directory.mkdir(exist_ok=True)
    records = [{"epoch": i + 1, "tag_loss": loss, "lang_loss": 0.7}
               for i, loss in enumerate(losses)]
    (directory / "report.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    final = losses[-1] if summary_loss is None else summary_loss
    (directory / "summary.json").write_text(json.dumps(
        {"epochs": len(losses), "final_tag_loss": final, "final_lang_loss": 0.7}))
    return directory


def test_train_outputs_checks(tmp_path):
    good = _train_outputs(tmp_path / "good", [0.9, 0.5])
    assert check_train_outputs(good)["final_tag_loss"] == 0.5
    corrupted = [
        _train_outputs(tmp_path / "nan", [0.9, math.nan]),
        _train_outputs(tmp_path / "summary_nan", [0.9, 0.5], summary_loss=math.nan),
        _train_outputs(tmp_path / "flat", [0.5, 0.5]),
    ]
    truncated = _train_outputs(tmp_path / "truncated", [0.9, 0.5])
    (truncated / "report.jsonl").write_text('{"epoch": 1, "tag_loss": 0.9}\n')
    corrupted.append(truncated)
    for directory in corrupted:
        with pytest.raises(CheckFailed):
            check_train_outputs(directory)


def test_checkpoint_check(tmp_path):
    import mweid
    from mweid.corpus import merge_corpora, parse_cupt_file
    from mweid.model import ModelConfig, MweTagger

    corpus = merge_corpora([
        (parse_cupt_file(mweid.fixture_path("synthetic_ro.cupt")), "RO"),
        (parse_cupt_file(mweid.fixture_path("synthetic_fr.cupt")), "FR")])
    path = tmp_path / "checkpoint.json"
    MweTagger.build(ModelConfig(), corpus).save(path)
    check_checkpoint(path, MweTagger.load)

    payload = json.loads(path.read_text())
    payload["parameters"]["classifier.head_b"]["data"][0] = math.nan
    (tmp_path / "nan.json").write_text(json.dumps(payload))
    del payload["parameters"]["classifier.head_b"]
    (tmp_path / "missing.json").write_text(json.dumps(payload))
    (tmp_path / "truncated.json").write_text(path.read_text()[:100])
    for name in ("nan.json", "missing.json", "truncated.json"):
        with pytest.raises(CheckFailed):
            check_checkpoint(tmp_path / name, MweTagger.load)


def test_tagged_output_may_differ_only_in_column_11(tmp_path):
    generate(SMALL, 1, tmp_path)
    source = tmp_path / "test_RO.cupt"
    lines = source.read_text(encoding="utf-8").split("\n")
    token = next(i for i, line in enumerate(lines) if line[:1].isdigit())

    def variant(name, edit):
        changed = list(lines)
        edit(changed)
        path = tmp_path / name
        path.write_text("\n".join(changed), encoding="utf-8")
        return path

    def set_column(column, value):
        def edit(changed):
            cols = changed[token].split("\t")
            cols[column] = value
            changed[token] = "\t".join(cols)
        return edit

    check_tagged(source, variant("mwe.cupt", set_column(10, "1:VID")))
    corrupted = [
        variant("form.cupt", set_column(1, "other")),
        variant("lemma.cupt", set_column(2, "other")),
        variant("comment.cupt", lambda c: c.__setitem__(0, "# sent_id = x")),
        variant("dropped.cupt", lambda c: c.pop(token)),
    ]
    for path in corrupted:
        with pytest.raises(CheckFailed):
            check_tagged(source, path)


def test_eval_report_needs_positive_global_f1(tmp_path):
    def report(f1):
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({"global": {"f1": f1}}))
        return path

    assert check_eval_report(report(42.5)) == 42.5
    for f1 in (0.0, math.nan, None):
        with pytest.raises(CheckFailed):
            check_eval_report(report(f1))


def test_eval_after_a_failed_training_run_counts_as_failed(tmp_path):
    from types import SimpleNamespace

    import run

    report = tmp_path / "eval.json"

    def cli(argv):  # exits 0 every time; training diverges in epoch 2
        if argv[0] == "train":
            out = Path(argv[argv.index("--out") + 1])
            out.mkdir(parents=True)
            (out / "summary.json").write_text(json.dumps(
                {"epochs": 2, "final_tag_loss": math.nan, "final_lang_loss": 0.7,
                 "best_dev_global_f1": 40.0}))
            (out / "report.jsonl").write_text(
                '{"tag_loss": 0.9, "lang_loss": 0.7}\n'
                '{"tag_loss": NaN, "lang_loss": 0.7}\n')
        elif argv[0] == "eval":
            report.write_text(json.dumps({"global": {"f1": 40.0}}))
        return 0

    mweid = SimpleNamespace(cli=SimpleNamespace(main=cli),
                            model=SimpleNamespace(MweTagger=SimpleNamespace(load=None)),
                            evaluation=SimpleNamespace(round2=lambda x: round(x, 2)))
    runner = run.Runner("train-long", 1, tmp_path, mweid)
    assert runner.train(tmp_path / "model") == (None, None)
    assert runner.checked(["eval"], lambda: runner.check_eval(report)) == (None, None)
    assert (runner.attempted, runner.failed) == (2, 2)
    # An error other than CheckFailed while checking also fails the call.
    runner.reference_summary = {}
    assert runner.checked(["eval"], lambda: runner.check_eval(report)) == (None, None)
    assert (runner.attempted, runner.failed) == (3, 3)
    runner.reference_summary = {"best_dev_global_f1": 40.0}
    assert runner.checked(["eval"], lambda: runner.check_eval(report))[1] == 40.0
    assert (runner.attempted, runner.failed) == (4, 3)


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
