"""CUPT (CoNLL-U Plus) corpus handling for verbal MWE identification.

Reads and writes the 11-column .cupt format used by the PARSEME shared
tasks (columns ID FORM LEMMA UPOS XPOS FEATS HEAD DEPREL DEPS MISC
PARSEME:MWE), converts span-style MWE annotations to per-token IOB2 tag
sequences and back, merges per-language corpora, and computes the
lemma-multiset keys used to decide whether a test MWE was seen in
training.
"""

from __future__ import annotations

import gc
import io
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple

CUPT_COLUMNS = ("ID", "FORM", "LEMMA", "UPOS", "XPOS", "FEATS",
                "HEAD", "DEPREL", "DEPS", "MISC", "PARSEME:MWE")
N_COLUMNS = len(CUPT_COLUMNS)
# _NUMERALS[n] is token id n as CUPT writes it: a row whose id field equals
# the numeral its position expects needs no int() or further check.
_NUMERALS = tuple(map(str, range(1024)))
# Characters that ``iter_cupt`` reads from a file at a time: of 4 to 128 Ki,
# the size that decoded and split a 1.5 MB corpus fastest.
PIECE_CHARS = 1 << 15


class CuptError(ValueError):
    """Base class for corpus format errors."""


class MalformedLine(CuptError):
    """A token line does not have the expected number of columns."""


class BadMweColumn(CuptError):
    """The PARSEME:MWE field cannot be interpreted."""


class DanglingMweId(CuptError):
    """An MWE id is referenced but no member token carries its category."""


class NonContiguousIds(CuptError):
    """Token ids or MWE ids within a sentence are not 1..n."""


class DuplicateLanguageCode(CuptError):
    """A sentence would be re-stamped with a conflicting language code."""


class OverlapUnrepresentable(UserWarning):
    """A token belongs to more than one MWE; flat tags keep only one."""


@dataclass(frozen=True)
class VmweCategory:
    """A verbal MWE category code such as VID or LVC.full.

    Unknown codes are preserved verbatim so corpora from any language
    round-trip unchanged; a valid code fits in one MWE field.
    """

    code: str

    def __post_init__(self):
        if not self.code or any(char in self.code for char in ":;\t\r\n"):
            raise BadMweColumn(f"invalid MWE category code: {self.code!r}")

    def __str__(self) -> str:
        return self.code


class Token(NamedTuple):
    """One syntactic word of a sentence (integer-id CoNLL-U row).

    ``columns`` is the text of the UPOS..MISC columns (4-10) exactly as
    read, inner tabs included, which mweid never interprets; ``mwe_raw``
    preserves the PARSEME:MWE field exactly as read so that serialization
    is byte-faithful even for unannotated ("_") input.

    A named tuple: the parser builds one with no Python-level call, and
    ``_replace`` makes a changed copy.
    """

    id: int
    form: str
    lemma: str
    columns: str
    mwe_tags: tuple[tuple[int, VmweCategory | None], ...]
    mwe_raw: str = "*"


@dataclass(frozen=True)
class MweInstance:
    """One annotated MWE: its id, category, member tokens and lemma key.

    ``lemma_key`` is the sorted tuple of case-folded member lemmas: a
    canonical multiset, invariant under member order and letter case.
    """

    mwe_id: int
    category: VmweCategory
    token_indices: tuple[int, ...]
    lemma_key: tuple[str, ...]

    def __post_init__(self):
        if not self.token_indices:
            raise CuptError(f"MWE {self.mwe_id} has no member tokens")
        if list(self.token_indices) != sorted(set(self.token_indices)):
            raise CuptError(
                f"MWE {self.mwe_id} token indices must be strictly increasing: "
                f"{self.token_indices}")


@dataclass(frozen=True)
class Sentence:
    """A parsed sentence: tokens plus everything needed to re-serialize it.

    ``comments`` are the verbatim '#' lines preceding the first row.
    ``extra_rows`` holds multiword-token ranges (ids like "3-4"), empty
    nodes (ids like "5.1") and '#' lines that follow a row, as
    (position, raw line) pairs, where position counts how many real
    tokens precede the row; these rows carry no MWE annotation and are
    excluded from tagging.
    """

    tokens: tuple[Token, ...]
    sent_id: str = ""
    language: str | None = None
    comments: tuple[str, ...] = ()
    extra_rows: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if not self.tokens:
            raise CuptError("sentence has no tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of sentences."""

    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


@dataclass
class CorpusStats:
    """Token/sentence/MWE counts, overall and per language."""

    n_sentences: int = 0
    n_tokens: int = 0
    n_mwes: int = 0
    by_category: dict[str, int] = field(default_factory=dict)
    by_language: dict[str, "CorpusStats"] = field(default_factory=dict)


def _parse_mwe_field(raw: str) -> tuple[tuple[int, VmweCategory | None], ...]:
    """Parse a PARSEME:MWE column value into (id, category) memberships.

    "*" and "_" mean no membership; "3" is a bare continuation of MWE 3;
    "1:VID" marks the category-bearing first component of MWE 1;
    semicolons separate multiple memberships.
    """
    raw = raw.strip()
    if raw in ("*", "_", ""):
        return ()
    memberships = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            raise BadMweColumn(f"empty item in MWE field {raw!r}")
        head, sep, cat = part.partition(":")
        try:
            mwe_id = int(head)
        except ValueError:
            raise BadMweColumn(f"MWE id {head!r} is not an integer") from None
        if mwe_id < 1:
            raise BadMweColumn(f"MWE id must be positive, got {mwe_id}")
        membership = (mwe_id, VmweCategory(cat) if sep else None)
        if any(mwe_id == seen for seen, _ in memberships):
            raise BadMweColumn(f"duplicate membership {part!r} of MWE {mwe_id}")
        memberships.append(membership)
    return tuple(memberships)


def format_mwe_field(memberships) -> str:
    """Render memberships as a canonical PARSEME:MWE value ("*" if none)."""
    if not memberships:
        return "*"
    items = []
    for mwe_id, category in sorted(memberships, key=lambda m: m[0]):
        items.append(f"{mwe_id}:{category}" if category is not None else str(mwe_id))
    return ";".join(items)


def _check_mwe_rules(tokens):
    """Check that MWE ids are 1..m and each MWE's category sits on its first
    member only; return ({id: member token ids}, {id: category}).
    """
    members: dict[int, list[int]] = {}
    bearers: dict[int, list[int]] = {}
    categories: dict[int, VmweCategory] = {}
    for tok in tokens:
        for mwe_id, category in tok.mwe_tags:
            members.setdefault(mwe_id, []).append(tok.id)
            if category is not None:
                bearers.setdefault(mwe_id, []).append(tok.id)
                categories[mwe_id] = category
    ids = sorted(members)
    if ids != list(range(1, len(ids) + 1)):
        raise NonContiguousIds(f"MWE ids {ids} do not form 1..{len(ids)}")
    for mwe_id, positions in members.items():
        carrying = bearers.get(mwe_id, [])
        if not carrying:
            raise DanglingMweId(
                f"MWE {mwe_id} has no category-bearing component")
        if len(carrying) > 1:
            raise BadMweColumn(
                f"MWE {mwe_id} carries a category on tokens "
                f"{carrying}; only one component may bear it")
        if carrying[0] != min(positions):
            raise BadMweColumn(
                f"MWE {mwe_id} category must sit on its first "
                f"component (token {min(positions)}), found on {carrying[0]}")
    return members, categories


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block, then restore the
    caller's setting. Corpora, tape nodes, batches and reports hold no
    cycles: reference counting frees them, and a collection finds nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_cupt(text: str, language: str | None = None,
               source: str = "<string>") -> Corpus:
    """Parse CUPT text into a Corpus, stamping ``language`` on each sentence.

    Sentence blocks are separated by blank lines; '#' lines are kept
    verbatim; multiword-token ranges and empty nodes are preserved but
    excluded from the token sequence. LF, CRLF and a lone CR each end a
    line, as in a file opened in text mode. One pass over the lines builds
    every sentence, with the cyclic garbage collector paused (see
    ``collector_paused``); a CuptError names its row, or its block's first
    line for a check of the whole block.
    """
    text = io.StringIO(text, newline=None).getvalue()
    with collector_paused():
        return Corpus(tuple(_parse((text,), language, source)))


def _parse(pieces, language: str | None, source: str):
    """Yield the Sentence of each block of the LF-ended text that comes in
    ``pieces`` as the blank line after it, or the end, closes it: the one
    row loop of ``parse_cupt`` and ``iter_cupt``."""
    # Each MWE field read so far -> (its memberships, itself), shared by tokens.
    memo: dict[str, tuple] = {}
    first = None  # index of the current block's first line
    try:
        for index, line in enumerate(chain.from_iterable(_lines(pieces))):
            if not line or line.isspace():
                if first is None:
                    continue  # a blank line between blocks
                if not tokens:
                    raise MalformedLine(
                        "sentence block contains no token lines")
                if not in_order:
                    ids = [t.id for t in tokens]
                    if ids != list(range(1, len(ids) + 1)):
                        raise NonContiguousIds(
                            f"token ids {ids} are not 1..{len(ids)}")
                _check_mwe_rules(annotated)
                sent_id = ""
                for comment in comments:
                    key, sep, value = comment[1:].partition("=")
                    if sep and key.strip() == "sent_id":
                        sent_id = value.strip()
                yield Sentence(
                    tokens=tuple(tokens), sent_id=sent_id,
                    language=language, comments=tuple(comments),
                    extra_rows=tuple(extra_rows))
                first = None
                continue
            if first is None:
                first = index
                comments, tokens, annotated, extra_rows = [], [], [], []
                in_order = True
            if line.startswith("#"):
                if tokens or extra_rows:
                    # After a row: kept in place, never read for sent_id.
                    extra_rows.append((len(tokens), line))
                else:
                    comments.append(line)
                continue
            n_columns = line.count("\t") + 1
            if n_columns != N_COLUMNS:
                raise MalformedLine(f"expected {N_COLUMNS} tab-separated "
                                    f"columns, got {n_columns}")
            head, _, mwe = line.rpartition("\t")
            raw_id, form, lemma, columns = head.split("\t", 3)
            tok_id = len(tokens) + 1
            if tok_id >= len(_NUMERALS) or raw_id != _NUMERALS[tok_id]:
                if "-" in raw_id or "." in raw_id:
                    # Range or empty-node row: no MWE annotation, kept
                    # verbatim.
                    extra_rows.append((len(tokens), line))
                    continue
                try:
                    tok_id = int(raw_id)
                except ValueError:
                    raise MalformedLine(
                        f"token id {raw_id!r} is not an integer") from None
                if str(tok_id) != raw_id:
                    raise MalformedLine(
                        f"token id {raw_id!r} is not written as {tok_id}")
                in_order = False
            parsed = memo.get(mwe)
            if parsed is None:
                parsed = memo[mwe] = (_parse_mwe_field(mwe), mwe)
            tags, raw = parsed
            # No Python-level call: the fields are a tuple of the right type.
            token = tuple.__new__(Token, (tok_id, form, lemma, columns,
                                          tags, raw))
            tokens.append(token)
            if tags:
                annotated.append(token)
    except CuptError as err:
        # A row names its own line. The checks of a whole block run at
        # the blank line that ends it and name the block's first line.
        at = first if not line or line.isspace() else index
        raise type(err)(f"{source}:{at + 1}: {err}") from None


def _lines(pieces):
    """The lines of the LF-ended text that comes in ``pieces``, without
    their ends, as one list per piece."""
    rest = ""
    for piece in pieces:
        *lines, rest = (rest + piece).split("\n")
        yield lines
    yield [rest, ""]  # a blank line ends the last block


def iter_cupt(path, language: str | None = None):
    """Yield the sentences of a UTF-8 CUPT file one block at a time, as
    ``parse_cupt`` of its text with the path as ``source`` would build
    them, reading it in text mode PIECE_CHARS characters at a time: memory
    holds one piece and one block, not the file.

    A CuptError is raised where the reader meets it, after the sentences
    before it were yielded. A byte that is not UTF-8 names the path and its
    offset, and comes before any row fault of the file: after a row fault
    the rest of the file is still decoded, though not parsed. The offset is
    read from the file position, so ``path`` must be a regular file.
    """
    with open(path, encoding="utf-8", newline=None) as handle:
        pieces = iter(partial(handle.read, PIECE_CHARS), "")
        try:
            try:
                yield from _parse(pieces, language, str(path))
            except CuptError:
                for _ in pieces:
                    pass
                raise
        except UnicodeDecodeError as err:
            # The text layer decodes each chunk right after reading it, and
            # the UTF-8 decoder's ``err.object`` is the bytes of a character
            # it held back from the chunk before, followed by this chunk.
            offset = handle.buffer.tell() - len(err.object) + err.start
            raise CuptError(f"{path}: byte {offset} "
                            f"(0x{err.object[err.start]:02x}) is not "
                            f"UTF-8") from None


def parse_cupt_file(path, language: str | None = None) -> Corpus:
    """Parse a UTF-8 CUPT file: the sentences of ``iter_cupt``, read with
    the cyclic garbage collector paused."""
    with collector_paused():
        return Corpus(tuple(iter_cupt(path, language)))


def _write_atomic(path, write) -> None:
    """Create or replace the text file ``path`` all at once.

    ``write(handle)`` fills a new file in the same directory, which then
    takes the place of ``path``; if ``write`` raises, ``path`` is left as
    it was and the new file is removed.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def serialize_sentence(sentence: Sentence) -> str:
    lines = list(sentence.comments)
    extras = list(sentence.extra_rows)
    for position, token in enumerate(sentence.tokens):
        while extras and extras[0][0] <= position:
            lines.append(extras.pop(0)[1])
        lines.append("\t".join((str(token.id), token.form, token.lemma,
                                token.columns, token.mwe_raw)))
    lines.extend(raw for _, raw in extras)
    return "\n".join(lines)


def serialize_corpus(corpus: Corpus) -> str:
    """Render a corpus as CUPT text (one blank line after each sentence)."""
    return "".join(serialize_sentence(s) + "\n\n" for s in corpus)


def extract_mwes(sentence: Sentence) -> list[MweInstance]:
    """Collect one MweInstance per distinct MWE id, ordered by id."""
    annotated = [token for token in sentence.tokens if token.mwe_tags]
    if not annotated:
        return []
    try:
        members, categories = _check_mwe_rules(annotated)
    except CuptError as err:
        raise type(err)(f"sentence {sentence.sent_id!r}: {err}") from None
    tokens = sentence.tokens
    instances = []
    for mwe_id in sorted(members):
        indices = tuple(sorted(members[mwe_id]))
        instances.append(MweInstance(
            mwe_id=mwe_id, category=categories[mwe_id], token_indices=indices,
            lemma_key=make_lemma_key(tokens[i - 1].lemma for i in indices)))
    return instances


def make_lemma_key(lemmas) -> tuple[str, ...]:
    """Canonical multiset of case-folded lemmas (sorted tuple)."""
    return tuple(sorted(lemma.casefold() for lemma in lemmas))


def encode_tags(sentence: Sentence) -> list[str]:
    """Encode MWE annotations as per-token IOB2 tags with category.

    Each MWE's first member gets "B-<cat>", later members "I-<cat>", and
    everything else (including gap tokens inside a discontinuous MWE)
    "O". A token belonging to several MWEs keeps only the one whose
    instance starts earliest (ties: smaller id); the dropped memberships
    are signalled with an OverlapUnrepresentable warning but remain in
    the Sentence itself, so evaluation against gold stays exact.
    """
    instances = sorted(extract_mwes(sentence),
                       key=lambda inst: (inst.token_indices[0], inst.mwe_id))
    overlaps = [token.id for token in sentence.tokens if len(token.mwe_tags) > 1]
    if overlaps:
        warnings.warn(OverlapUnrepresentable(
            f"tokens {overlaps} belong to more than one MWE; flat IOB2 tags "
            f"keep only the earliest-starting instance"))
    tags = ["O"] * len(sentence.tokens)
    for inst in instances:
        prefix = "B-"
        for position in inst.token_indices:
            if tags[position - 1] == "O":
                tags[position - 1] = f"{prefix}{inst.category}"
                prefix = "I-"
    return tags


def decode_tags(tags: list[str], lemmas=None) -> list[MweInstance]:
    """Decode IOB2 tags back into MWE instances (lenient, never raises).

    "B-X" opens a new instance of category X. "I-X" attaches to the most
    recently opened X instance, skipping any "O" gap in between; an
    orphan "I-X" with no open X instance starts one. Any other tag, and
    one whose X is no valid category code, is a gap. Instances are
    renumbered 1..m in order of their first token. ``lemmas`` (one per
    tag) supplies the lemma keys; without them keys are empty.
    """
    spans: list[tuple[VmweCategory, list[int]]] = []
    open_span: dict[str, int] = {}
    for position, tag in enumerate(tags, start=1):
        prefix, cat = tag[:2], tag[2:]
        if prefix not in ("B-", "I-"):
            continue  # anything else, including "O", is a gap
        if prefix == "I-" and cat in open_span:
            spans[open_span[cat]][1].append(position)
            continue
        try:
            category = VmweCategory(cat)
        except BadMweColumn:
            continue  # so is a tag whose category code is invalid
        open_span[cat] = len(spans)
        spans.append((category, [position]))
    instances = []
    for number, (category, positions) in enumerate(spans, start=1):
        key = (make_lemma_key(lemmas[i - 1] for i in positions)
               if lemmas is not None else ())
        instances.append(MweInstance(
            mwe_id=number, category=category,
            token_indices=tuple(positions), lemma_key=key))
    return instances


def with_instances(sentence: Sentence, instances: list[MweInstance]) -> Sentence:
    """Rewrite a sentence's MWE column from the given instances.

    All other columns, comments and extra rows are untouched, so the
    serialized output differs from the input only in the last column. A
    token whose MWE field is already what the instances make of it is
    kept as it is, and so is a sentence with no token changed.
    """
    per_token: dict[int, list[tuple[int, VmweCategory | None]]] = {}
    for inst in instances:
        first = inst.token_indices[0]
        for position in inst.token_indices:
            per_token.setdefault(position, []).append(
                (inst.mwe_id, inst.category if position == first else None))
    tokens = []
    changed = False
    for token in sentence.tokens:
        found = per_token.get(token.id)
        if found or token.mwe_tags or token.mwe_raw != "*":
            memberships = tuple(sorted(found or (), key=lambda m: m[0]))
            raw = format_mwe_field(memberships)
            if memberships != token.mwe_tags or raw != token.mwe_raw:
                token = token._replace(mwe_tags=memberships, mwe_raw=raw)
                changed = True
        tokens.append(token)
    if not changed:
        return sentence
    return Sentence(tuple(tokens), sentence.sent_id, sentence.language,
                    sentence.comments, sentence.extra_rows)


def merge_corpora(parts: list[tuple[Corpus, str]]) -> Corpus:
    """Concatenate corpora, stamping each sentence with its language code.

    Several parts may share a code (a language split across files); a
    sentence already stamped with a *different* code is an ambiguity and
    raises DuplicateLanguageCode.
    """
    sentences: list[Sentence] = []
    for corpus, code in parts:
        for sentence in corpus:
            if sentence.language is not None and sentence.language != code:
                raise DuplicateLanguageCode(
                    f"sentence {sentence.sent_id!r} already carries language "
                    f"{sentence.language!r}, cannot re-stamp as {code!r}")
            sentences.append(replace(sentence, language=code))
    return Corpus(sentences=tuple(sentences))


def seen_lemma_keys(train: Iterable[Sentence]) -> set[tuple[str, ...]]:
    """Lemma keys of every annotated MWE in the training sentences (a Corpus,
    or sentences read one at a time).

    A test MWE is *unseen* exactly when its lemma key is absent from
    this set (category plays no role).
    """
    return {instance.lemma_key
            for sentence in train for instance in extract_mwes(sentence)}


def corpus_stats(corpus: Iterable[Sentence]) -> CorpusStats:
    """Count tokens, sentences and MWEs per category and per language, in
    one pass over the sentences."""
    stats = CorpusStats()
    for sentence in corpus:
        language = sentence.language or "?"
        lang_stats = stats.by_language.setdefault(language, CorpusStats())
        for bucket in (stats, lang_stats):
            bucket.n_sentences += 1
            bucket.n_tokens += len(sentence.tokens)
        for instance in extract_mwes(sentence):
            code = str(instance.category)
            for bucket in (stats, lang_stats):
                bucket.n_mwes += 1
                bucket.by_category[code] = bucket.by_category.get(code, 0) + 1
    return stats
