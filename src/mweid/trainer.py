"""Joint SGD training of tagger and adversarial language discriminator.

One backward pass over the combined loss realizes three plain-SGD
update rules at learning rate alpha:

  * classifier parameters move along the tag-loss gradient only,
  * discriminator parameters along the language-loss gradient only,
  * extractor parameters along (tag-loss gradient minus lam times the
    language-loss gradient), the minus supplied by the reversal layer.

The tag loss is the mean token-level cross-entropy over the whole
batch; the language loss is the mean sentence-level cross-entropy. No
momentum, weight decay, or loss weighting beyond lam is applied;
gradient-norm clipping is available behind a flag. The model's arena
zeroes and updates every dense parameter with one call each; the
embedding table is zeroed and updated in the rows a step used. Fixed
seeds give bitwise-reproducible parameters. A dev corpus is scored
after every epoch from the instances decoded from its tags.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .corpus import (Corpus, Sentence, decode_tags, encode_tags, extract_mwes,
                     seen_lemma_keys)
from .evaluation import score
from .model import Batch, MweTagger, check_fields

SCHEDULES = ("constant", "dann_ramp")


class EmptyBatch(ValueError):
    """train_step, or train's training or dev corpus, has no sentences."""


class TrainingDiverged(ArithmeticError):
    """Training produced a non-finite loss or parameter.

    ``epoch`` and ``step`` (counted from 1 over the whole run) locate the
    step after which it was found.
    """

    def __init__(self, what: str, epoch: int, step: int):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: "
                         f"{what}")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class TrainerConfig:
    alpha: float = 0.1
    lam: float = 1.0
    lambda_schedule: str = "constant"
    epochs: int = 10
    batch_size: int = 1
    seed: int = 0
    shuffle: bool = True
    clip_grad: float | None = None

    def validate(self) -> None:
        check_fields(self)
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.lambda_schedule not in SCHEDULES:
            raise ValueError(
                f"lambda_schedule must be one of {SCHEDULES}, "
                f"got {self.lambda_schedule!r}")
        if self.clip_grad is not None and self.clip_grad <= 0:
            raise ValueError("clip_grad must be > 0 when set")

    __post_init__ = validate


@dataclass
class EpochRecord:
    epoch: int
    tag_loss: float
    lang_loss: float
    lang_accuracy: float | None
    dev_global_f1: float | None = None
    dev_unseen_f1: float | None = None


@dataclass
class TrainingReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    best_dev_global_f1: float | None = None
    best_state: dict[str, np.ndarray] | None = None

    def to_jsonl(self) -> str:
        """One epoch per line, for appending-friendly log files."""
        return "".join(json.dumps(asdict(record), allow_nan=False) + "\n"
                       for record in self.epochs)

    def summary(self) -> dict:
        summary = {
            "epochs": len(self.epochs),
            "final_tag_loss": self.epochs[-1].tag_loss if self.epochs else None,
            "final_lang_loss": self.epochs[-1].lang_loss if self.epochs else None,
        }
        if self.best_epoch is not None:
            summary["best_epoch"] = self.best_epoch
            summary["best_dev_global_f1"] = self.best_dev_global_f1
        return summary


def lambda_at(schedule: str, progress: float, lam_max: float) -> float:
    """Reversal coefficient at training progress p in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {progress}")
    if schedule == "constant":
        return lam_max
    if schedule == "dann_ramp":
        return lam_max * (2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0)
    raise ValueError(f"unknown schedule {schedule!r}")


def gold_tag_ids(model: MweTagger, sentence: Sentence) -> np.ndarray:
    tags = encode_tags(sentence)
    try:
        return np.array([model.tag_index[tag] for tag in tags], dtype=np.int64)
    except KeyError as err:
        raise ValueError(
            f"gold tag {err.args[0]!r} not in the model tagset; the model "
            f"must be built on (a superset of) this corpus") from None


def _clip_gradients(params, max_norm: float) -> None:
    """Scale the live rows of every gradient so that their joint norm, a
    sum over those rows only, is at most ``max_norm``."""
    total = math.sqrt(sum(float(np.sum(np.square(p.grad[p.rows])))
                          for p in params))
    if total > max_norm:
        factor = max_norm / total
        for param in params:
            param.grad[param.rows] *= factor


def encode(model: MweTagger, sentences) -> Batch:
    """The sentences as one Batch with gold tag ids and, when the model has
    a discriminator, language ids."""
    batch = model.extractor.encode(sentences)
    languages = None
    if model.discriminator is not None:
        languages = np.array([model.discriminator.language_id(s.language)
                              for s in sentences], dtype=np.int64)
    return replace(batch, languages=languages,
                   tags=np.concatenate([gold_tag_ids(model, s) for s in sentences]))


def train_step(model: MweTagger, batch: list[Sentence] | Batch, alpha: float,
               lam: float | None = None,
               clip_grad: float | None = None) -> tuple[float, float, int]:
    """One SGD step on a batch; returns (tag loss, language loss, #correct
    language predictions).

    ``batch`` is a list of sentences or their ``encode``. The tag loss is
    the mean cross-entropy over all the batch's tokens, the language loss
    the mean over its sentences. The two losses are backpropagated
    together: disjoint paths keep the classifier free of language gradient
    and the discriminator free of tag gradient, while the reversal layer
    hands the extractor the negated, lam-scaled discriminator gradient.
    """
    if not isinstance(batch, Batch):
        if not batch:
            raise EmptyBatch("train_step needs at least one sentence")
        batch = encode(model, batch)
    dense, table = model.arena, model.extractor.embedding
    dense.zero_grad()
    table.zero_grad()

    tag_logits, lang_logits = model.forward(batch, lam=lam)
    loss_y = ad.softmax_cross_entropy(tag_logits, batch.tags)
    total, lang_loss, lang_correct = loss_y, 0.0, 0
    if lang_logits is not None:
        loss_lg = ad.softmax_cross_entropy(lang_logits, batch.languages)
        total = ad.add(loss_y, loss_lg)
        lang_loss = float(loss_lg.data)
        lang_correct = int(np.sum(lang_logits.data.argmax(axis=1)
                                  == batch.languages))

    ad.backward(total)
    if clip_grad is not None:
        _clip_gradients(model.parameters(), clip_grad)
    dense.data -= alpha * dense.grad
    # Any other row of the table would get x - alpha * 0.0 == x.
    table.data[table.rows] -= alpha * table.grad[table.rows]
    return float(loss_y.data), lang_loss, lang_correct


def train(model: MweTagger, train_corpus: Corpus,
          dev_corpus: Corpus | None = None,
          config: TrainerConfig | None = None) -> TrainingReport:
    """Run the full training loop; deterministic under a fixed seed.

    When a dev corpus is supplied, its lemmas and gold are taken once per
    run; each epoch tags it with ``model.predict_tags``, scores the
    instances decoded from those tags against that gold and keeps the
    best-global-F1 parameters on the report.
    """
    config = config or TrainerConfig()
    sentences = list(train_corpus)
    if not sentences:
        raise EmptyBatch("training corpus is empty")
    if dev_corpus is not None:
        if not dev_corpus.sentences:
            raise EmptyBatch("dev corpus is empty")
        dev_lemmas = [sentence.lemmas() for sentence in dev_corpus]
        dev_gold = [extract_mwes(sentence) for sentence in dev_corpus]
        seen = seen_lemma_keys(train_corpus)

    data = encode(model, sentences)
    rng = np.random.default_rng(config.seed)
    n_batches = (len(sentences) + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * n_batches
    report = TrainingReport()
    step = 0
    for epoch in range(1, config.epochs + 1):
        # One gather per epoch; each step's batch is a view of it.
        epoch_data = data.select(rng.permutation(len(sentences))) \
            if config.shuffle else data
        tag_loss_sum = 0.0
        lang_loss_sum = 0.0
        lang_correct = 0
        for start in range(0, len(sentences), config.batch_size):
            stop = min(start + config.batch_size, len(sentences))
            batch = epoch_data.sentences(start, stop)
            progress = step / (total_steps - 1) if total_steps > 1 else 1.0
            lam = lambda_at(config.lambda_schedule, progress, config.lam)
            tag_loss, lang_loss, correct = train_step(
                model, batch, config.alpha, lam=lam, clip_grad=config.clip_grad)
            step += 1
            if not math.isfinite(tag_loss + lang_loss):
                raise TrainingDiverged("the loss is not finite", epoch, step)
            tag_loss_sum += tag_loss * len(batch)
            lang_loss_sum += lang_loss * (stop - start)
            lang_correct += correct
        if not all(np.isfinite(p.data).all() for p in model.parameters()):
            raise TrainingDiverged("a parameter is not finite", epoch, step)
        record = EpochRecord(
            epoch=epoch,
            tag_loss=tag_loss_sum / len(data),
            lang_loss=lang_loss_sum / len(sentences),
            lang_accuracy=(lang_correct / len(sentences)
                           if model.discriminator is not None else None))
        if dev_corpus is not None:
            tags = map(decode_tags, model.predict_tags(dev_corpus), dev_lemmas)
            result = score(zip(dev_gold, tags, strict=True), seen)
            record.dev_global_f1 = result.global_scores.f1
            record.dev_unseen_f1 = result.unseen_scores.f1
            if (report.best_dev_global_f1 is None
                    or record.dev_global_f1 > report.best_dev_global_f1):
                report.best_epoch = epoch
                report.best_dev_global_f1 = record.dev_global_f1
                report.best_state = {name: array.copy() for name, array
                                     in model.state_arrays().items()}
        report.epochs.append(record)
    return report
