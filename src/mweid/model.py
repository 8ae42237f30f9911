"""Windowed feed-forward tagger with optional inhibition and adversary.

Three components share one set of token features:

  * FeatureExtractor: trainable embeddings, a fixed-radius context
    window concatenation, and a relu feed-forward layer.
  * TagClassifier: optional lateral-inhibition gating, then a linear
    head over the IOB2 tag alphabet.
  * LanguageDiscriminator: a gradient-reversal layer over the
    mean-pooled sentence features, then a small relu MLP predicting the
    sentence's language. Reversal makes the extractor *oppose* the
    discriminator, pushing features toward language invariance.

All parameters are float64 and initialized from one seeded generator in
a fixed draw order (extractor, classifier, discriminator last), so
models that differ only in the adversarial flag share identical
extractor/classifier initial weights.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .corpus import (BadMweColumn, Corpus, Sentence, VmweCategory,
                     _write_atomic, extract_mwes)
from .inhibition import INITIAL_BIAS, LateralInhibitionLayer

PAD_ID = 0
UNK_ID = 1
_RESERVED = ("<pad>", "<unk>")

# Token rows of one forward in MweTagger.predict_tags. A block's activations
# grow with its rows, so the bound caps peak memory: tagging 30,036 rows in 8
# groups took 15.3 ms and traced 9.5 MB with one forward per group, and 5.4 ms
# and 1.2 MB in 512-row blocks (one AMD EPYC thread, OpenBLAS 0.3.31).
CHUNK_TOKENS = 512
# Token rows per tag_groups group. Larger groups spread each group's encode,
# decode and serialize: at most 2,048 rows tagged 2-3% fewer tokens a second.
GROUP_TOKENS = 4096

CHECKPOINT_FORMAT = "mweid-checkpoint"
CHECKPOINT_VERSION = 2
# Float64 values per base64 string of a version-2 parameter's "data" list.
CHUNK_VALUES = 4096


class UnknownLanguage(ValueError):
    """A sentence's language label is not in the discriminator's set."""


class CheckpointError(ValueError):
    """A checkpoint file is not a valid checkpoint of this format/version."""


# Config field annotations (strings, as annotations are not evaluated here)
# -> what a value must be and the types it may have. A bool is never a number.
_FIELD_TYPES = {"int": ("an integer", (int,)),
                "float": ("a number", (int, float)),
                "float | None": ("a number or null", (int, float, type(None))),
                "bool": ("true or false", (bool,)),
                "str": ("a string", (str,))}


def check_fields(config) -> None:
    """Raise ValueError naming the first field of a config whose value is
    not of its annotated type, or is a NaN or infinite float (every other
    check then compares finite numbers)."""
    for field in fields(config):
        value = getattr(config, field.name)
        what, types = _FIELD_TYPES[field.type]
        if not isinstance(value, types) \
                or (isinstance(value, bool) and bool not in types):
            raise ValueError(f"{field.name} must be {what}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    """Model settings, checked when made; ``dataclasses.replace`` checks again.

    ``lam`` is only the default of library calls to ``MweTagger.forward``
    and ``train_step``: ``mweid train`` always passes ``TrainerConfig.lam``."""
    embedding_dim: int = 16
    window: int = 1
    hidden_dim: int = 32
    disc_hidden_dim: int = 16
    steepness: float = 10.0
    use_lateral_inhibition: bool = True
    use_adversarial: bool = True
    lam: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        check_fields(self)
        for name in ("embedding_dim", "hidden_dim", "disc_hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.steepness <= 0:
            raise ValueError("steepness must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    __post_init__ = validate


def tag_groups(sentences):
    """The sentences in tuples of at most GROUP_TOKENS token rows (a longer
    sentence is a group of its own): how ``MweTagger.predict_tags`` cuts
    what it tags, so its blocks, and the last bits of each logit, depend on
    the corpus alone. A group regroups to itself."""
    group, rows = [], 0
    for sentence in sentences:
        if group and rows + len(sentence) > GROUP_TOKENS:
            yield tuple(group)
            group, rows = [], 0
        group.append(sentence)
        rows += len(sentence)
    if group:
        yield tuple(group)


def _tag_layout(categories) -> list[str]:
    """"O" first, then B-/I- per distinct category in sorted order.

    The position in this list is the tag's logit index; prediction ties
    resolve to the lowest index, so the ordering is part of the model's
    observable behaviour and is stored in checkpoints.
    """
    tagset = ["O"]
    for category in sorted(set(categories)):
        tagset.extend((f"B-{category}", f"I-{category}"))
    return tagset


@dataclass(frozen=True, eq=False)
class Batch:
    """Sentences encoded as one block of token rows.

    ``windows[i]`` holds the vocabulary ids of token i's context window,
    ``PAD_ID`` beyond its sentence's edges; sentence b owns the rows
    ``offsets[b]:offsets[b + 1]``. Training fills in ``tags``, the gold
    tag id of each token, and ``languages``, the language id of each
    sentence. ``len()`` counts tokens, as it does for a Sentence.
    """

    windows: np.ndarray
    offsets: np.ndarray
    tags: np.ndarray | None = None
    languages: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.windows)

    def select(self, indices) -> "Batch":
        """The sentences at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        starts = self.offsets[indices]
        lengths = self.offsets[indices + 1] - starts
        offsets = np.cumsum(np.concatenate(([0], lengths)))
        rows = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return Batch(self.windows[rows], offsets,
                     None if self.tags is None else self.tags[rows],
                     None if self.languages is None else self.languages[indices])

    def sentences(self, start: int, stop: int) -> "Batch":
        """Sentences ``start:stop``, their arrays views of this batch's."""
        first, last = self.offsets[start], self.offsets[stop]
        return Batch(self.windows[first:last],
                     self.offsets[start:stop + 1] - first,
                     None if self.tags is None else self.tags[first:last],
                     None if self.languages is None
                     else self.languages[start:stop])

    def pooling(self) -> np.ndarray:
        """[B, N] matrix that averages each sentence's token rows."""
        lengths = np.diff(self.offsets)
        return np.repeat(np.eye(len(lengths)) / lengths, lengths, axis=1)


class FeatureExtractor:
    """Embedding table + context window + one relu feed-forward layer."""

    def __init__(self, vocab: dict[str, int], embedding: Parameter,
                 hidden_w: Parameter, hidden_b: Parameter, window: int):
        self.vocab = vocab
        self.embedding = embedding
        self.hidden_w = hidden_w
        self.hidden_b = hidden_b
        self.window = window

    def parameters(self) -> list[Parameter]:
        return [self.embedding, self.hidden_w, self.hidden_b]

    def encode(self, sentences) -> Batch:
        """The sentences as one Batch of window-id rows; no sentences give
        windows of shape (0, 2w + 1) and offsets [0]."""
        offsets = np.cumsum([0] + [len(s) for s in sentences])
        # One id stream with w PAD_IDs before, between and after the
        # sentences: token i's window is the stream slice starting at
        # starts[i], so no window reaches into a neighbouring sentence.
        w = self.window
        starts = np.arange(offsets[-1]) \
            + w * np.repeat(np.arange(len(sentences)), np.diff(offsets))
        stream = np.full(max(offsets[-1] + w * (len(sentences) + 1), 2 * w + 1),
                         PAD_ID, dtype=np.int64)
        get = self.vocab.get
        stream[starts + w] = [get(t.form, UNK_ID) for s in sentences for t in s.tokens]
        return Batch(sliding_window_view(stream, 2 * w + 1)[starts], offsets)

    def features(self, sentence: Sentence | Batch) -> Tensor:
        """One hidden-width row per token; windows padded at sentence edges."""
        batch = sentence if isinstance(sentence, Batch) else self.encode([sentence])
        window = ad.embedding_lookup(self.embedding, batch.windows)
        return ad.relu(ad.add(ad.matmul(window, self.hidden_w), self.hidden_b))


class TagClassifier:
    """Optional lateral-inhibition gate, then a linear head over tags."""

    def __init__(self, inhibition: LateralInhibitionLayer | None,
                 head_w: Parameter, head_b: Parameter):
        self.inhibition = inhibition
        self.head_w = head_w
        self.head_b = head_b

    def parameters(self) -> list[Parameter]:
        params = [] if self.inhibition is None else self.inhibition.parameters()
        return params + [self.head_w, self.head_b]

    def logits(self, features: Tensor) -> Tensor:
        gated = features if self.inhibition is None else self.inhibition.forward(features)
        return ad.add(ad.matmul(gated, self.head_w), self.head_b)


class LanguageDiscriminator:
    """Gradient reversal, one relu layer, and a linear head over languages."""

    def __init__(self, languages: list[str], w1: Parameter, b1: Parameter,
                 w2: Parameter, b2: Parameter):
        self.languages = languages
        self.lang_index = {code: i for i, code in enumerate(languages)}
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def logits(self, pooled: Tensor, lam: float) -> Tensor:
        reversed_ = ad.grad_reverse(pooled, lam)
        hidden = ad.relu(ad.add(ad.matmul(reversed_, self.w1), self.b1))
        return ad.add(ad.matmul(hidden, self.w2), self.b2)

    def language_id(self, code: str | None) -> int:
        if code is None or code not in self.lang_index:
            raise UnknownLanguage(
                f"language {code!r} not in {self.languages}")
        return self.lang_index[code]


class MweTagger:
    """The assembled architecture plus its label/language inventories."""

    def __init__(self, config: ModelConfig, extractor: FeatureExtractor,
                 classifier: TagClassifier,
                 discriminator: LanguageDiscriminator | None,
                 tagset: list[str]):
        self.config = config
        self.extractor = extractor
        self.classifier = classifier
        self.discriminator = discriminator
        self.tagset = tagset
        self.tag_index = {tag: i for i, tag in enumerate(tagset)}

    @classmethod
    def build(cls, config: ModelConfig, corpus: Corpus) -> "MweTagger":
        """Seeded random weights over inventories read in one pass of
        ``corpus``: its forms in first-occurrence order after <pad> and
        <unk>, its categories' tags (``_tag_layout``), its sorted languages."""
        vocab = {form: index for index, form in enumerate(_RESERVED)}
        categories, languages = set(), set()
        for sentence in corpus:
            for token in sentence.tokens:
                if token.form not in vocab:
                    vocab[token.form] = len(vocab)
            for instance in extract_mwes(sentence):
                categories.add(str(instance.category))
            languages.add(sentence.language)
        languages.discard(None)
        rng = np.random.default_rng(config.seed)

        def drawn(name, shape, fill=None):
            data = (rng.uniform(-0.1, 0.1, size=shape) if fill is None
                    else np.full(shape, fill))
            return Parameter(data, name)

        return cls._wire(config, vocab, _tag_layout(categories),
                         sorted(languages), drawn)

    @classmethod
    def _wire(cls, config: ModelConfig, vocab: dict[str, int],
              tagset: list[str], languages: list[str], param) -> "MweTagger":
        """Assemble the model; the one place that names and shapes parameters.

        ``param(name, shape, fill)`` returns each parameter in a fixed
        order (extractor, classifier, discriminator last). ``fill`` is the
        constant initial value of a parameter that is not drawn at random.
        """
        e, h, d = config.embedding_dim, config.hidden_dim, config.disc_hidden_dim
        extractor = FeatureExtractor(
            vocab, param("extractor.embedding", (len(vocab), e)),
            param("extractor.hidden_w", ((2 * config.window + 1) * e, h)),
            param("extractor.hidden_b", (h,)), config.window)
        inhibition = None
        if config.use_lateral_inhibition:
            inhibition = LateralInhibitionLayer(
                param("classifier.li.weight", (h, h), fill=0.0),
                param("classifier.li.bias", (h,), fill=INITIAL_BIAS),
                config.steepness)
        classifier = TagClassifier(
            inhibition, param("classifier.head_w", (h, len(tagset))),
            param("classifier.head_b", (len(tagset),)))
        discriminator = None
        if config.use_adversarial:
            # Drawn last: toggling the adversary leaves all other draws intact.
            n = max(len(languages), 1)
            discriminator = LanguageDiscriminator(
                languages, param("discriminator.w1", (h, d)),
                param("discriminator.b1", (d,)), param("discriminator.w2", (d, n)),
                param("discriminator.b2", (n,)))
        return cls(config, extractor, classifier, discriminator, tagset)

    def parameters(self) -> list[Parameter]:
        params = self.extractor.parameters() + self.classifier.parameters()
        if self.discriminator is not None:
            params += self.discriminator.parameters()
        return params

    def feature_parameters(self) -> list[Parameter]:
        return self.extractor.parameters()

    def forward(self, batch: Batch,
                lam: float | None = None) -> tuple[Tensor, Tensor | None]:
        """Tag logits [n, |tagset|] and, if adversarial, language logits.

        The batch's n token rows pass through each layer together, and
        mean pooling gives one language-logit row per sentence. The
        reversal coefficient, by default ``config.lam`` (``train`` always
        passes one), shapes gradients only, not forward values.
        """
        features = self.extractor.features(batch)
        tag_logits = self.classifier.logits(features)
        lang_logits = None
        if self.discriminator is not None:
            pooled = ad.matmul(ad.tensor(batch.pooling()), features)
            lang_logits = self.discriminator.logits(
                pooled, self.config.lam if lam is None else lam)
        return tag_logits, lang_logits

    def predict_tags(self, sentences) -> list[list[str]]:
        """Each sentence's argmax tags; ties pick the lowest tag index.

        Each ``tag_groups`` group of the sentences is encoded once, and only
        the extractor and the tag classifier run, over blocks of
        CHUNK_TOKENS rows counted from the group's first row.
        """
        tags = []
        for group in tag_groups(sentences):
            batch = self.extractor.encode(group)
            tag_ids = []
            for start in range(0, len(batch), CHUNK_TOKENS):
                rows = batch.windows[start:start + CHUNK_TOKENS]
                # A token's row already pads its sentence's edges, so a block
                # may cut through sentences; tagging never reads the offsets.
                block = Batch(rows, np.array([0, len(rows)]))
                # One statement, so each block's graph is freed before the
                # next block's is built.
                tag_ids.extend(self.classifier.logits(
                    self.extractor.features(block)).data.argmax(axis=1).tolist())
            names = [self.tagset[i] for i in tag_ids]
            offsets = batch.offsets.tolist()
            tags.extend(names[a:b] for a, b in zip(offsets, offsets[1:]))
        return tags

    def predict_language(self, sentence: Sentence) -> str:
        if self.discriminator is None:
            raise UnknownLanguage("model has no language discriminator")
        _, lang_logits = self.forward(self.extractor.encode([sentence]))
        return self.discriminator.languages[int(lang_logits.data.argmax())]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for param in self.parameters():
            value = state[param.name]
            if value.shape != param.data.shape:
                raise CheckpointError(
                    f"parameter {param.name}: shape {value.shape} does not "
                    f"match model shape {param.data.shape}")
            param.data[...] = value

    def save(self, path) -> str:
        """Write a version-2 JSON checkpoint, atomically, and return the
        text written.

        Each parameter's values are stored as their exact little-endian
        float64 bytes, so reloading reproduces predictions bitwise. A
        non-finite parameter raises ValueError naming it before any file
        is opened, so ``path`` is left as it was.
        """
        params = self.parameters()
        for p in params:
            if not np.isfinite(p.data).all():
                raise ValueError(f"parameter {p.name} has non-finite values")
        text = json.dumps({
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab": list(self.extractor.vocab),
            "tagset": self.tagset,
            "languages": (self.discriminator.languages
                          if self.discriminator is not None else []),
            "parameters": {p.name: {"shape": list(p.data.shape),
                                    "data": _base64_chunks(p.data)}
                           for p in params},
        }, allow_nan=False) + "\n"
        _write_atomic(path, lambda handle: handle.write(text))
        return text

    @classmethod
    def load(cls, path) -> "MweTagger":
        """Read a version-1 or version-2 checkpoint; CheckpointError if invalid.

        Checked: format and version, the config, duplicate-free
        inventories, the tagset's layout, and exactly the wired parameters
        with their wired shapes and finite values. Version 1 stores each
        parameter's values as a list of numbers; version 2 as a list of
        base64 strings whose decoded bytes, joined, are ``<f8`` values.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except ValueError as err:
            raise CheckpointError(f"{path} is not JSON: {err}") from err
        if not isinstance(payload, dict) \
                or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        version = payload.get("version")
        if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            config = ModelConfig(**payload.get("config"))
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"bad config: {err}") from err
        vocab, tagset, languages = (_inventory(payload, key)
                                    for key in ("vocab", "tagset", "languages"))
        if tuple(vocab[:len(_RESERVED)]) != _RESERVED:
            raise CheckpointError(f"vocab must start with {', '.join(_RESERVED)}")
        _check_tagset(tagset)
        stored = payload.get("parameters")
        if not isinstance(stored, dict):
            raise CheckpointError("parameters must be an object")
        model = cls._wire(config, {form: i for i, form in enumerate(vocab)},
                          tagset, languages, _stored_source(stored, version))
        unexpected = stored.keys() - model.state_arrays().keys()
        if unexpected:
            raise CheckpointError(f"unexpected parameters {sorted(unexpected)}")
        return model


def _base64_chunks(data: np.ndarray) -> list[str]:
    """The ``<f8`` bytes of ``data`` in C order, as base64 strings of at
    most CHUNK_VALUES values each."""
    flat = np.ascontiguousarray(data, dtype="<f8").reshape(-1)
    return [base64.b64encode(flat[start:start + CHUNK_VALUES]).decode("ascii")
            for start in range(0, len(flat), CHUNK_VALUES)]


def _stored_values(data, version: int) -> np.ndarray:
    """A parameter's stored "data" as a flat float64 array; TypeError or
    ValueError if it is not the list its version writes."""
    if version == 1:
        if not isinstance(data, list) \
                or not all(type(x) in (int, float) for x in data):
            raise TypeError("version-1 data must be a list of numbers")
        return np.array(data, dtype=np.float64)
    if not isinstance(data, list) or not all(type(x) is str for x in data):
        raise TypeError("version-2 data must be a list of base64 strings")
    raw = b"".join(base64.b64decode(chunk, validate=True) for chunk in data)
    return np.frombuffer(raw, dtype="<f8")


def _inventory(payload: dict, key: str) -> list[str]:
    items = payload.get(key)
    if not isinstance(items, list) or not all(isinstance(i, str) for i in items) \
            or len(set(items)) != len(items):
        raise CheckpointError(f"{key} must be a list of distinct strings")
    return items


def _check_tagset(tagset: list[str]) -> None:
    """Raise CheckpointError unless ``tagset`` is the ``_tag_layout`` of valid
    category codes, as ``MweTagger.build`` makes it."""
    categories = [tag[2:] for tag in tagset[1::2]]
    try:
        for code in categories:
            VmweCategory(code)
    except BadMweColumn as err:
        raise CheckpointError(f"tagset: {err}") from err
    if tagset != _tag_layout(categories):
        raise CheckpointError(f"tagset must be 'O', then B-c, I-c for each "
                              f"category c in sorted order, got {tagset}")


def _stored_source(stored: dict, version: int):
    """Parameter source for ``MweTagger._wire`` that reads a checkpoint."""

    def param(name, shape, fill=None):
        try:
            saved_shape = tuple(stored[name]["shape"])
            data = _stored_values(stored[name]["data"], version)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise CheckpointError(
                f"parameter {name} is missing or malformed: {err!r}") from err
        if saved_shape != shape or data.shape != (math.prod(shape),):
            raise CheckpointError(
                f"parameter {name}: {data.size} values of shape {saved_shape} "
                f"do not match model shape {shape}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"parameter {name} has non-finite values")
        return Parameter(data.reshape(shape), name)

    return param
