"""MWE-based scoring: exact-match precision/recall/F1, global and unseen.

A predicted MWE counts as correct only when some gold MWE covers the
identical token-index set (no partial credit); category agreement is
optional and off by default. The unseen scores restrict both sides to
instances whose lemma key never occurs as an annotated MWE in the
training corpus. All arithmetic is kept at full precision; percentages
are rounded half-up to two decimals only for display.

``score`` folds per-sentence pairs of instance lists: those ``aligned``
extracts as it reads gold and predictions in lockstep (for ``evaluate``
and ``mweid eval``), or training's dev gold (extracted once per run) and
decoded predictions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import zip_longest
from typing import Iterable

from .corpus import (Corpus, CuptError, MweInstance, Sentence, decode_tags,
                     extract_mwes, seen_lemma_keys, with_instances)


class TokenizationMismatch(ValueError):
    """Gold and predicted sentences disagree on the token sequence."""


class AlignmentMismatch(ValueError):
    """Gold and predicted corpora are not sentence-aligned."""


@dataclass
class Scores:
    """Precision/recall/F1 as percentages, plus the raw counts."""

    gold: int
    predicted: int
    matched: int

    @property
    def precision(self) -> float:
        return 100.0 * self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)


@dataclass
class EvalResult:
    global_scores: Scores
    unseen_scores: Scores
    category_sensitive: bool = False

    def as_dict(self) -> dict:
        def block(scores: Scores) -> dict:
            return {**asdict(scores), "precision": round2(scores.precision),
                    "recall": round2(scores.recall), "f1": round2(scores.f1)}

        return {"category_sensitive": self.category_sensitive,
                "global": block(self.global_scores),
                "unseen": block(self.unseen_scores)}


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of two percentages; 0 when both are 0."""
    total = precision + recall
    return 2.0 * precision * recall / total if total > 0 else 0.0


def round2(value: float) -> float:
    """Round half-up to 2 decimals (display convention)."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"),
                                               rounding=ROUND_HALF_UP))


def _match_key(instance: MweInstance, category_sensitive: bool):
    if category_sensitive:
        return (instance.token_indices, str(instance.category))
    return instance.token_indices


def _check_tokenization(gold: Sentence, pred: Sentence) -> None:
    if gold.forms() != pred.forms():
        raise TokenizationMismatch(
            f"sentence {gold.sent_id!r}: gold and predicted token sequences "
            f"differ")


def match_mwes(gold: Sentence, pred: Sentence,
               category_sensitive: bool = False) -> list[tuple[MweInstance, MweInstance]]:
    """Pair up predicted instances with exact-token-set gold instances.

    Each gold instance absorbs at most one prediction (and vice versa);
    duplicates beyond the gold multiplicity stay unmatched.
    """
    _check_tokenization(gold, pred)
    return _pair(extract_mwes(gold), extract_mwes(pred), category_sensitive)


def _pair(gold_instances: list[MweInstance], pred_instances: list[MweInstance],
          category_sensitive: bool) -> list[tuple[MweInstance, MweInstance]]:
    available: dict = {}
    for instance in gold_instances:
        available.setdefault(_match_key(instance, category_sensitive),
                             []).append(instance)
    pairs = []
    for instance in pred_instances:
        bucket = available.get(_match_key(instance, category_sensitive))
        if bucket:
            pairs.append((bucket.pop(0), instance))
    return pairs


def score(pairs, seen: Iterable,
          category_sensitive: bool = False) -> EvalResult:
    """Fold one (gold instances, predicted instances) pair per sentence into
    Counters of the lemma keys of gold, predicted and matched instances (a
    match counted by its gold instance), so memory grows with the distinct
    keys, not the sentences. The unseen side is read off at the end: the
    keys not in ``seen``, an iterable of the seen keys that is read only
    after the last pair."""
    gold, predicted, matched = Counter(), Counter(), Counter()
    for gold_instances, pred_instances in pairs:
        if gold_instances:
            gold.update(instance.lemma_key for instance in gold_instances)
        if pred_instances:
            predicted.update(instance.lemma_key for instance in pred_instances)
            if gold_instances:
                matched.update(g.lemma_key for g, _ in _pair(
                    gold_instances, pred_instances, category_sensitive))
    seen = set(seen)

    def unseen(counts: Counter) -> int:
        return sum(n for key, n in counts.items() if key not in seen)

    return EvalResult(
        Scores(gold.total(), predicted.total(), matched.total()),
        Scores(unseen(gold), unseen(predicted), unseen(matched)),
        category_sensitive)


def aligned(gold: Iterable[Sentence], pred: Iterable[Sentence]):
    """Yield each sentence pair's (gold instances, predicted instances) for
    ``score``, reading gold and predictions in lockstep.

    Once every pair is yielded, a sentence count mismatch raises
    AlignmentMismatch, then the first pair whose tokens differ raises
    TokenizationMismatch. Parse faults come as a read of all of gold, then
    all of predictions, would meet them: gold's is raised where it is met,
    and a CuptError from predictions waits until gold ends.
    """
    held, mismatch, n_gold, n_pred = [], None, 0, 0

    def until_fault(sentences):
        try:
            yield from sentences
        except CuptError as err:
            held.append(err)

    for gold_sentence, pred_sentence in zip_longest(gold, until_fault(pred)):
        n_gold += gold_sentence is not None
        n_pred += pred_sentence is not None
        if gold_sentence is None or pred_sentence is None:
            continue
        if mismatch is None:
            try:
                _check_tokenization(gold_sentence, pred_sentence)
            except TokenizationMismatch as err:
                mismatch = err
        yield extract_mwes(gold_sentence), extract_mwes(pred_sentence)
    if held:
        raise held[0]
    if n_gold != n_pred:
        raise AlignmentMismatch(
            f"gold has {n_gold} sentences, predictions have {n_pred}")
    if mismatch is not None:
        raise mismatch


def evaluate(gold: Corpus, pred: Corpus, train: Corpus,
             category_sensitive: bool = False) -> EvalResult:
    """Score a predicted corpus against gold, globally and on unseen MWEs.

    The corpora must be sentence-aligned and agree on every sentence's
    tokens (see ``aligned``). Each sentence's instances are extracted once
    and counted by ``score``, with the unseen side keyed by
    ``seen_lemma_keys(train)``.
    """
    return score(aligned(gold, pred), seen_lemma_keys(train),
                 category_sensitive)


def predict_corpus(model, corpus: Corpus) -> Corpus:
    """Rewrite every sentence's MWE column from the tags ``model.predict_tags``
    gives it (ties pick the lowest tag index), with no lemma keys, which
    only scoring reads."""
    return Corpus(sentences=tuple(map(with_instances, corpus, map(
        decode_tags, model.predict_tags(corpus)))))


def format_table(result: EvalResult, label: str = "model") -> str:
    """Render one result as a two-block P/R/F1 table."""
    header1 = f"{'':<24}{'Global MWE':^23} {'Unseen MWE':^23}"
    header2 = (f"{'Model':<24}{'P':>7}{'R':>8}{'F1':>8} "
               f"{'P':>7}{'R':>8}{'F1':>8}")
    g, u = result.global_scores, result.unseen_scores
    row = (f"{label:<24}{round2(g.precision):>7.2f}{round2(g.recall):>8.2f}"
           f"{round2(g.f1):>8.2f} {round2(u.precision):>7.2f}"
           f"{round2(u.recall):>8.2f}{round2(u.f1):>8.2f}")
    return "\n".join((header1, header2, row))
