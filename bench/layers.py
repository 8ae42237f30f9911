"""Per-layer metrics of one traced repetition, derived from its spans.

Span names are ``<layer>.<what>``; the layers are mweid's modules. The
top-level spans are the CLI calls the benchmark made (``cli.train``,
``cli.tag``, ``cli.eval``); together they are the traced wall time, and
the self times of all spans of a repetition add up to it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import self_times

OPS = ("matmul", "add", "mul", "relu", "concat", "embedding", "softmax_ce",
       "grad_reverse", "mean0", "scale", "transpose", "zero_diag", "heaviside")
LAYERS = ("autodiff", "inhibition", "model", "trainer", "corpus", "evaluation",
          "cli")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("autodiff.nodes_per_token", "count", "lower"),
     ("autodiff.backward.s", "s", "lower"),
     ("autodiff.backward.self_s", "s", "lower"),
     ("autodiff.node.s", "s", "lower"),
     ("autodiff.topo_order.s", "s", "lower"),
     ("autodiff.fwd_arith.s", "s", "lower")]
    + [(f"autodiff.fwd_s.{op}", "s", "lower") for op in OPS]
    + [(f"autodiff.bwd_s.{op}", "s", "lower") for op in OPS]
    + [("autodiff.embedding.bwd_dense_mb", "MB", "lower"),
       ("inhibition.li_forward.s", "s", "lower"),
       ("inhibition.gate_open_frac", "ratio", "higher"),
       ("model.forward.s", "s", "lower"),
       ("model.forward.calls_per_sent", "count", "lower"),
       ("model.extractor.s", "s", "lower"),
       ("model.classifier.s", "s", "lower"),
       ("model.discriminator.s", "s", "lower"),
       ("model.save.s", "s", "lower"),
       ("model.checkpoint_mb", "MB", "lower"),
       ("model.load.s", "s", "lower"),
       ("model.build.s", "s", "lower"),
       ("trainer.train_step.self_s", "s", "lower"),
       ("trainer.gold_tag_ids.s", "s", "lower"),
       ("trainer.step_ms.p50", "ms", "lower"),
       ("trainer.step_ms.p99", "ms", "lower"),
       ("corpus.encode_tags.s", "s", "lower"),
       ("corpus.encode_tags.calls_per_sent_epoch", "count", "lower"),
       ("corpus.parse_cupt.s", "s", "lower"),
       ("corpus.serialize_corpus.s", "s", "lower"),
       ("corpus.with_instances.s", "s", "lower"),
       ("corpus.decode_tags.s", "s", "lower"),
       ("corpus.extract_mwes.s", "s", "lower"),
       ("corpus.extract_mwes.calls_per_sent", "count", "lower"),
       ("corpus.seen_lemma_keys.calls", "count", "lower"),
       ("evaluation.predict_corpus.s", "s", "lower"),
       ("evaluation.predict_corpus.self_s", "s", "lower"),
       ("evaluation.evaluate.s", "s", "lower"),
       ("evaluation.match_mwes.s", "s", "lower"),
       ("cli.self_s", "s", "lower")]
    + [(f"layer.{layer}.self_frac", "ratio", "lower") for layer in LAYERS]
    + [("share.tape_of_step", "ratio", "lower"),
       ("share.bookkeeping_of_step", "ratio", "lower"),
       ("share.arith_of_step", "ratio", "lower"),
       ("share.embedding_save_of_train", "ratio", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def tail_percentile(samples, wanted: float = 99.0, beyond: int = 10):
    """The highest percentile up to ``wanted`` with ``beyond`` samples above it.

    Returns (percentile, value); (0, 0.0) when there are no samples.
    """
    n = len(samples)
    if not n:
        return 0.0, 0.0
    percentile = min(wanted, max(50.0, float(np.floor(100.0 * (1 - beyond / n)))))
    return percentile, float(np.percentile(samples, percentile))


def _within(names, name, parent, target: str) -> np.ndarray:
    """Flag each span that has an ancestor (or is itself) called ``target``."""
    flags = np.zeros(len(name), dtype=bool)
    if target not in names:
        return flags
    target_id = names.index(target)
    for index in range(len(name)):
        up = parent[index]
        flags[index] = name[index] == target_id or (up >= 0 and flags[up])
    return flags


def repetition_metrics(names, name, start, end, parent, counters, rep) -> dict:
    """Per-layer metrics of one traced repetition.

    ``name``, ``start``, ``end`` and ``parent`` hold only this
    repetition's spans, with parents renumbered to local indices (-1 for
    the top-level CLI spans). ``counters`` are the tracer's counts for
    the repetition; ``rep`` gives the work it did: ``model_sentences``
    (sentences passed through the model), ``train_sentence_epochs`` and
    ``checkpoint_mb``.
    """
    duration = end - start
    own = self_times(start, end, parent)
    wall = float(duration[parent < 0].sum())
    if abs(float(own.sum()) - wall) > 1e-9 * max(wall, 1.0):
        raise ValueError(f"self times sum to {own.sum()}, traced wall is {wall}")

    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for name_id in np.unique(name):
        mask = name == name_id
        key = names[name_id]
        total[key] = float(duration[mask].sum())
        self_total[key] = float(own[mask].sum())
        calls[key] = int(mask.sum())

    in_step = _within(names, name, parent, "trainer.train_step")
    in_eval = _within(names, name, parent, "evaluation.evaluate")
    fwd_ids = [i for i, key in enumerate(names) if key.startswith("autodiff.fwd.")]
    bwd_ids = [i for i, key in enumerate(names) if key.startswith("autodiff.bwd.")]
    tape_ids = [names.index(key) for key in ("autodiff.node", "autodiff.topo_order")
                if key in names]
    backward_id = names.index("autodiff.backward") if "autodiff.backward" in names else -1

    def in_step_s(ids, times):
        return float(times[np.isin(name, ids) & in_step].sum())

    # Tape: node construction, ordering the tape, and the walk itself
    # (backward's self time: adjoint bookkeeping and sums). Arithmetic:
    # each operation's forward without its node construction, and the
    # backward rules.
    bookkeeping_in_step = in_step_s(tape_ids, duration)
    tape_in_step = bookkeeping_in_step + in_step_s([backward_id], own)
    arith_in_step = in_step_s(fwd_ids, own) + in_step_s(bwd_ids, duration)
    extract_id = names.index("corpus.extract_mwes") \
        if "corpus.extract_mwes" in names else -1
    extract_in_eval = int(((name == extract_id) & in_eval).sum())
    steps_ms = 1e3 * duration[name == names.index("trainer.train_step")] \
        if "trainer.train_step" in names else np.zeros(0)
    _, p99 = tail_percentile(steps_ms)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "autodiff.nodes_per_token": ratio(counters.get("autodiff.nodes", 0.0),
                                          counters.get("model.forward.tokens", 0.0)),
        "autodiff.backward.s": total["autodiff.backward"],
        "autodiff.backward.self_s": self_total["autodiff.backward"],
        "autodiff.node.s": total["autodiff.node"],
        "autodiff.topo_order.s": total["autodiff.topo_order"],
        "autodiff.fwd_arith.s": sum(self_total[names[i]] for i in fwd_ids),
    }
    for op in OPS:
        metrics[f"autodiff.fwd_s.{op}"] = total[f"autodiff.fwd.{op}"]
    for op in OPS:
        metrics[f"autodiff.bwd_s.{op}"] = total[f"autodiff.bwd.{op}"]
    metrics.update({
        "autodiff.embedding.bwd_dense_mb":
            counters.get("autodiff.embedding.bwd_dense_bytes", 0.0) / 1e6,
        "inhibition.li_forward.s": total["inhibition.li_forward"],
        "inhibition.gate_open_frac": ratio(counters.get("inhibition.gate_open", 0.0),
                                           counters.get("inhibition.gate_total", 0.0)),
        "model.forward.s": total["model.forward"],
        "model.forward.calls_per_sent": ratio(calls["model.forward"],
                                              rep["model_sentences"]),
        "model.extractor.s": total["model.extractor"],
        "model.classifier.s": total["model.classifier"],
        "model.discriminator.s": total["model.discriminator"],
        "model.save.s": total["model.save"],
        "model.checkpoint_mb": rep["checkpoint_mb"],
        "model.load.s": total["model.load"],
        "model.build.s": total["model.build"],
        "trainer.train_step.self_s": self_total["trainer.train_step"],
        "trainer.gold_tag_ids.s": total["trainer.gold_tag_ids"],
        "trainer.step_ms.p50": float(np.median(steps_ms)) if len(steps_ms) else 0.0,
        "trainer.step_ms.p99": p99,
        "corpus.encode_tags.s": total["corpus.encode_tags"],
        "corpus.encode_tags.calls_per_sent_epoch": ratio(
            calls["corpus.encode_tags"], rep["train_sentence_epochs"]),
        "corpus.parse_cupt.s": total["corpus.parse_cupt"],
        "corpus.serialize_corpus.s": total["corpus.serialize_corpus"],
        "corpus.with_instances.s": total["corpus.with_instances"],
        "corpus.decode_tags.s": total["corpus.decode_tags"],
        "corpus.extract_mwes.s": total["corpus.extract_mwes"],
        "corpus.extract_mwes.calls_per_sent": ratio(
            extract_in_eval, counters.get("evaluation.pairs", 0.0)),
        "corpus.seen_lemma_keys.calls": float(calls["corpus.seen_lemma_keys"]),
        "evaluation.predict_corpus.s": total["evaluation.predict_corpus"],
        "evaluation.predict_corpus.self_s": self_total["evaluation.predict_corpus"],
        "evaluation.evaluate.s": total["evaluation.evaluate"],
        "evaluation.match_mwes.s": total["evaluation.match_mwes"],
        "cli.self_s": sum(value for key, value in self_total.items()
                          if key.startswith("cli.")),
    })
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_frac"] = ratio(
            sum(value for key, value in self_total.items()
                if key.split(".", 1)[0] == layer), wall)
    metrics["share.tape_of_step"] = ratio(tape_in_step, total["trainer.train_step"])
    metrics["share.bookkeeping_of_step"] = ratio(bookkeeping_in_step,
                                                 total["trainer.train_step"])
    metrics["share.arith_of_step"] = ratio(arith_in_step, total["trainer.train_step"])
    metrics["share.embedding_save_of_train"] = ratio(
        total["autodiff.bwd.embedding"] + total["model.save"], total["cli.train"])
    return metrics
