"""Outside-in tracer for mweid: spans around calls into each layer.

The tracer changes nothing in ``mweid``'s source. It replaces each
traced function in every ``mweid`` module namespace that holds it, so a
function imported by name elsewhere (``trainer`` imports ``encode_tags``,
``inhibition`` imports the autodiff ops, ``cli`` imports ``train``) is
traced at every call site. Methods are replaced on their class.

Each span has a name, a start, an end and the span that was open when
it started (its parent). Spans stay in memory in flat arrays and are
written out once, by ``save``. Per-operation backward time comes from
wrapping the ``vjps`` closures of every node a traced operation returns.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Autodiff operations: each call builds exactly one tape node. Their
# spans are named after the node's ``op`` ("autodiff.fwd.mean0").
AUTODIFF_OPS = ("matmul", "transpose", "add", "mul", "scale", "sigmoid", "relu",
                "sum_all", "mean", "concat", "embedding_lookup",
                "softmax_cross_entropy", "grad_reverse")
INHIBITION_OPS = ("zero_diag", "heaviside_surrogate")

# Plain functions: (module, function name) -> span name.
FUNCTIONS = {
    ("autodiff", "backward"): "autodiff.backward",
    # Tape bookkeeping, so it can be told apart from the arithmetic: every
    # operation builds its node through _node, and backward orders the
    # tape with _topo_order; both are looked up as module globals.
    ("autodiff", "_node"): "autodiff.node",
    ("autodiff", "_topo_order"): "autodiff.topo_order",
    ("corpus", "parse_cupt_file"): "corpus.parse_cupt_file",
    ("corpus", "parse_cupt"): "corpus.parse_cupt",
    ("corpus", "serialize_corpus"): "corpus.serialize_corpus",
    ("corpus", "extract_mwes"): "corpus.extract_mwes",
    ("corpus", "encode_tags"): "corpus.encode_tags",
    ("corpus", "decode_tags"): "corpus.decode_tags",
    ("corpus", "with_instances"): "corpus.with_instances",
    ("corpus", "merge_corpora"): "corpus.merge_corpora",
    ("corpus", "seen_lemma_keys"): "corpus.seen_lemma_keys",
    ("evaluation", "evaluate"): "evaluation.evaluate",
    ("evaluation", "match_mwes"): "evaluation.match_mwes",
    ("evaluation", "predict_corpus"): "evaluation.predict_corpus",
    ("evaluation", "format_table"): "evaluation.format_table",
    ("trainer", "train"): "trainer.train",
    ("trainer", "train_step"): "trainer.train_step",
    ("trainer", "gold_tag_ids"): "trainer.gold_tag_ids",
}
# Methods: (module, class, method) -> span name.
METHODS = {
    ("model", "MweTagger", "build"): "model.build",
    ("model", "MweTagger", "load"): "model.load",
    ("model", "MweTagger", "save"): "model.save",
    ("model", "MweTagger", "forward"): "model.forward",
    ("model", "FeatureExtractor", "features"): "model.extractor",
    ("model", "TagClassifier", "logits"): "model.classifier",
    ("model", "LanguageDiscriminator", "logits"): "model.discriminator",
    ("inhibition", "LateralInhibitionLayer", "forward"): "inhibition.li_forward",
}


def _forward_tokens(tracer, args):
    tracer.counters["model.forward.tokens"] += len(args[1])


def _evaluated_pairs(tracer, args):
    tracer.counters["evaluation.pairs"] += len(args[0])


# Counts taken from a call's arguments, at the same boundary as its span.
ARGUMENT_COUNTS = {"model.forward": _forward_tokens,
                   "evaluation.evaluate": _evaluated_pairs}


class Tracer:
    """Span recorder; ``install`` patches mweid, ``uninstall`` restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        index = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        count = ARGUMENT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def wrap_op(self, fn):
        """Trace an operation and the backward closures of its node."""
        pending = self.name_id(f"autodiff.fwd.{fn.__name__}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(pending)
            try:
                node = fn(*args, **kwargs)
            finally:
                self.close(index)
            op = node.op
            self.name[index] = self.name_id(f"autodiff.fwd.{op}")
            self.counters["autodiff.nodes"] += 1
            if op == "heaviside":
                self.counters["inhibition.gate_open"] += float(node.data.sum())
                self.counters["inhibition.gate_total"] += node.data.size
            backward_id = self.name_id(f"autodiff.bwd.{op}")
            node.vjps = tuple((parent, self._wrap_vjp(vjp, backward_id, op, parent))
                              for parent, vjp in node.vjps)
            return node
        return traced

    def _wrap_vjp(self, vjp, name_id: int, op: str, parent):
        dense_bytes = parent.data.size * 8 if op == "embedding" else 0

        def traced_vjp(g):
            if dense_bytes:
                self.counters["autodiff.embedding.bwd_dense_bytes"] += dense_bytes
            index = self.open(name_id)
            try:
                return vjp(g)
            finally:
                self.close(index)
        return traced_vjp

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        from mweid import autodiff, corpus, evaluation, inhibition, model, trainer

        modules = {"autodiff": autodiff, "corpus": corpus, "evaluation": evaluation,
                   "inhibition": inhibition, "model": model, "trainer": trainer}
        replacements = {}
        for op in AUTODIFF_OPS:
            original = getattr(autodiff, op)
            replacements[id(original)] = (original, self.wrap_op(original))
        for op in INHIBITION_OPS:
            original = getattr(inhibition, op)
            replacements[id(original)] = (original, self.wrap_op(original))
        for (module, function), name in FUNCTIONS.items():
            original = getattr(modules[module], function)
            replacements[id(original)] = (original, self.wrap(name, original))
        namespaces = [module for key, module in sys.modules.items()
                      if key == "mweid" or key.startswith("mweid.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])
        for (module, cls_name, method), name in METHODS.items():
            cls = getattr(modules[module], cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                self._patch(cls, method, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(cls, method, self.wrap(name, raw))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------
    def arrays(self):
        """(names, name ids, starts, ends, parents) as numpy arrays."""
        return (list(self.names), np.array(self.name, dtype=np.int32),
                np.array(self.start), np.array(self.end),
                np.array(self.parent, dtype=np.int32))

    def save(self, path) -> None:
        """Write every span once, as a compressed numpy archive."""
        names, name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(names), name=name, start=start,
                            end=end, parent=parent)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping children are not subtracted twice.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    result = end - start
    children = defaultdict(list)
    for child in np.flatnonzero(parent >= 0).tolist():
        children[int(parent[child])].append(child)
    for index, kids in children.items():
        lo, hi = start[index], end[index]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered, run_start, run_end = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[index] -= covered
    return result
