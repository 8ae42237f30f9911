"""Shared builders for corpus fixtures used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import mweid
from mweid import autodiff as ad
from mweid.corpus import (Corpus, Sentence, Token, VmweCategory, parse_cupt,
                          parse_cupt_file)

CATEGORY_POOL = ("VID", "LVC.full", "LVC.cause", "IRV")


def make_sentence(forms, instances=(), sent_id="s", language=None,
                  lemmas=None):
    """Build a Sentence directly from forms and (category, positions) pairs.

    Instance ids are assigned 1..m in the given order; the first listed
    position carries the category, per the CUPT convention.
    """
    lemmas = list(lemmas) if lemmas is not None else [f.lower() for f in forms]
    per_token: dict[int, list] = {}
    for number, (category, positions) in enumerate(instances, start=1):
        ordered = sorted(positions)
        for rank, position in enumerate(ordered):
            per_token.setdefault(position, []).append(
                (number, VmweCategory(category) if rank == 0 else None))
    tokens = []
    for index, form in enumerate(forms, start=1):
        memberships = tuple(per_token.get(index, []))
        if memberships:
            raw = ";".join(f"{m}:{c}" if c is not None else str(m)
                           for m, c in memberships)
        else:
            raw = "*"
        tokens.append(Token(id=index, form=form, lemma=lemmas[index - 1],
                            columns="X\t_\t_\t_\t_\t_\t_",
                            mwe_tags=memberships, mwe_raw=raw))
    return Sentence(tokens=tuple(tokens), sent_id=sent_id, language=language)


def dense_lookup(table, ids):
    """``ad.embedding_lookup`` with the dense rule the row-sparse adjoint
    replaced: a zero vocab x e array with the rows added in by np.add.at.
    The reference for the row-sparse embedding gradient."""
    flat = np.asarray(ids, dtype=np.int64).reshape(-1)
    vocab, width = table.shape

    def vjp(g):
        grad = np.zeros((vocab, width))
        np.add.at(grad, flat, g.reshape(flat.size, width))
        return grad

    return ad.Tensor(table.data[flat].reshape(len(ids), -1),
                     vjps=((table, vjp),), op="embedding")


def reference_backward(loss):
    """``ad.backward`` as it was before contributions went straight into
    gradients: every vjp of the tape is called, the ones into constant
    leaves included, and every node's contributions, a Parameter's too,
    are summed in walk order (densified when two meet). Each Parameter
    then gets its sum added once; constants' sums are dropped. The
    reference for the walk."""
    def dense(adjoint):
        return adjoint.dense() if isinstance(adjoint, ad.RowSparse) else adjoint

    # The depth-first walk ad._topo_order makes, with every leaf in it.
    order, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent, _ in node.vjps
                         if id(parent) not in visited)
    adjoints = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        adjoint = adjoints.pop(id(node))
        if not node.vjps:
            if isinstance(node, ad.Parameter):
                node.accumulate(adjoint)
            continue
        for parent, vjp in node.vjps:
            contribution = vjp(adjoint)
            key = id(parent)
            if key in adjoints:
                adjoints[key] = dense(adjoints[key]) + dense(contribution)
            else:
                adjoints[key] = contribution


def refuse_constant_vjps(loss):
    """Replace every vjp that routes into a constant leaf of ``loss``'s
    tape with one that fails the test; return how many were replaced."""
    replaced = 0

    def refuse(g):
        raise AssertionError("backward called the vjp of a constant")

    for node in ad._topo_order(loss):
        pairs = []
        for parent, vjp in node.vjps:
            if not parent.vjps and not isinstance(parent, ad.Parameter):
                vjp = refuse
                replaced += 1
            pairs.append((parent, vjp))
        node.vjps = tuple(pairs)
    return replaced


def bits(array):
    """The float64 bit patterns of ``array``: equal only if bitwise equal,
    so 0.0 and -0.0 differ."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def corpus_of(*sentences, language=None):
    if language is not None:
        from dataclasses import replace
        sentences = tuple(replace(s, language=language) for s in sentences)
    return Corpus(sentences=tuple(sentences))


def cupt_text(rows, sent_id="s1", text=None):
    """Render (form, lemma, mwe) rows as one CUPT sentence block."""
    lines = [f"# sent_id = {sent_id}"]
    if text is not None:
        lines.append(f"# text = {text}")
    for index, (form, lemma, mwe) in enumerate(rows, start=1):
        lines.append("\t".join((str(index), form, lemma, "X",
                                "_", "_", "_", "_", "_", "_", mwe)))
    return "\n".join(lines) + "\n\n"


def parse_rows(rows, **kwargs):
    return parse_cupt(cupt_text(rows), **kwargs).sentences[0]


def random_sentence(rng: np.random.Generator, sent_id="g",
                    interleave_probability=0.25) -> Sentence:
    """A random sentence with non-overlapping MWEs, possibly gapped.

    Instances of one category never interleave (flat IOB2 tags cannot
    represent that), but instances of different categories may, and any
    instance may contain gaps. Forms mix case and diacritics so lemma
    keys exercise case folding.
    """
    pool = ["Casa", "verde", "fură", "Somnul", "da", "FOC", "la", "gândi",
            "apă", "mare", "şi", "text"]
    n = int(rng.integers(1, 13))
    forms = [pool[rng.integers(len(pool))] for _ in range(n)]
    instances = []
    available = list(range(1, n + 1))
    if int(rng.integers(4)) < interleave_probability * 4 and n >= 4:
        # One interleaved pair of distinct categories: {i, i+2}, {i+1, i+3}.
        start = int(rng.integers(1, n - 2))
        cat_a, cat_b = rng.choice(len(CATEGORY_POOL), size=2, replace=False)
        instances.append((CATEGORY_POOL[cat_a], [start, start + 2]))
        instances.append((CATEGORY_POOL[cat_b], [start + 1, start + 3]))
        available = [i for i in available
                     if i < start or i > start + 3]
    remaining = available
    while remaining and len(instances) < 4 and rng.random() < 0.7:
        # Carve a contiguous run of free positions, keep a random subset:
        # subsetting creates gap tokens inside the instance.
        run_start = int(rng.integers(len(remaining)))
        run = [remaining[run_start]]
        j = run_start + 1
        while j < len(remaining) and remaining[j] == run[-1] + 1 \
                and len(run) < 5:
            run.append(remaining[j])
            j += 1
        size = int(rng.integers(1, len(run) + 1))
        members = sorted(rng.choice(run, size=size, replace=False).tolist())
        category = CATEGORY_POOL[rng.integers(len(CATEGORY_POOL))]
        instances.append((category, members))
        remaining = [i for i in remaining if i not in set(run)]
    instances.sort(key=lambda inst: min(inst[1]))
    return make_sentence(forms, instances, sent_id=sent_id)


@pytest.fixture(scope="session")
def ro_corpus():
    return parse_cupt_file(mweid.fixture_path("synthetic_ro.cupt"), language="RO")


@pytest.fixture(scope="session")
def fr_corpus():
    return parse_cupt_file(mweid.fixture_path("synthetic_fr.cupt"), language="FR")


@pytest.fixture(scope="session")
def bilingual_corpus(ro_corpus, fr_corpus):
    from mweid.corpus import merge_corpora
    from dataclasses import replace
    bare_ro = Corpus(tuple(replace(s, language=None) for s in ro_corpus))
    bare_fr = Corpus(tuple(replace(s, language=None) for s in fr_corpus))
    return merge_corpora([(bare_ro, "RO"), (bare_fr, "FR")])
