"""Seeded generator of bilingual (RO/FR) .cupt corpora with verbal MWEs.

Per language it builds a lexicon of VMWE types (2-3 component words, a
category, an optional gap) and places instances of them among filler
tokens drawn from a Zipf distribution. A share of the types is held out
of the train split, so dev and test contain unseen lemma keys.

The properties that decide which layer of mweid does the work are the
fields of ``CorpusSpec``: vocabulary size (embedding table width and the
dense embedding backward), sentence-length range (tape nodes per token)
and MWE density (work done by the corpus and evaluation layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LANGUAGES = ("RO", "FR")
CATEGORIES = ("VID", "LVC.full")
SYLLABLES = {
    "RO": ("ra", "ma", "te", "lu", "ci", "no", "să", "pe", "vi", "do", "ră",
           "gu", "şi", "ta", "re", "mo", "bu", "ze", "ne", "fă"),
    "FR": ("le", "ou", "an", "ré", "mi", "ba", "ton", "qui", "gé", "su",
           "pa", "ri", "lo", "chè", "du", "fa", "ven", "ni", "ce", "joa"),
}
NO_COLUMNS = ("_",) * 6  # XPOS FEATS HEAD DEPREL DEPS MISC
# Few MWE words, each seen often: a short training run learns them, so
# the learning guards (final loss, F1) vary little from seed to seed.
VERBS_PER_CATEGORY = 2
NOUNS_PER_CATEGORY = 4
HELDOUT_FRAC = 0.2    # share of MWE types kept out of the train split
LITERAL_RATE = 0.01   # chance that a filler is an MWE word used literally


@dataclass(frozen=True)
class CorpusSpec:
    """What one workload's corpora look like (all counts per language)."""

    vocab: int                  # filler forms the Zipf distribution draws from
    min_len: int                # sentence length range, in tokens
    max_len: int
    mwe_rate: float             # chance that a token position starts an MWE
    mwe_types: int              # VMWE types in the lexicon
    split_tokens: tuple[tuple[str, int], ...]  # (split name, tokens) pairs
    zipf: float = 1.05          # exponent of the filler and type distributions


@dataclass(frozen=True)
class MweType:
    category: str
    components: tuple[str, ...]  # a verb, then one or two nouns
    gap: bool


def _word(index: int, syllables: tuple[str, ...]) -> str:
    """The index-th pseudo-word: at least two syllables, all distinct."""
    base = len(syllables)
    parts = []
    index += base  # skip the one-syllable words
    while index:
        index, digit = divmod(index, base)
        parts.append(syllables[digit])
    return "".join(reversed(parts))


def _zipf_cdf(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return np.cumsum(weights / weights.sum())


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    return min(int(np.searchsorted(cdf, rng.random(), side="right")),
               len(cdf) - 1)


class Language:
    """One language's words, lexicon and sentence sampler.

    An MWE type is a verb from a small pool followed by one or two nouns,
    so verbs recur across types (as light verbs do) and the tagger sees
    each verb often enough to learn it within a few epochs.
    """

    def __init__(self, code: str, spec: CorpusSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng([seed, LANGUAGES.index(code), 0])
        n_verbs = VERBS_PER_CATEGORY * len(CATEGORIES)
        n_nouns = NOUNS_PER_CATEGORY * len(CATEGORIES)
        order = rng.permutation(spec.vocab + n_verbs + n_nouns)
        words = [_word(int(i), SYLLABLES[code]) for i in order]
        self.fillers = words[:spec.vocab]
        self.verbs = words[spec.vocab:spec.vocab + n_verbs]
        self.nouns = words[spec.vocab + n_verbs:]
        self.filler_cdf = _zipf_cdf(spec.vocab, spec.zipf)
        self.types = self._lexicon(rng)
        heldout = max(1, int(round(HELDOUT_FRAC * len(self.types))))
        held = set(rng.choice(len(self.types), size=heldout,
                              replace=False).tolist())
        self.seen_types = [t for i, t in enumerate(self.types) if i not in held]
        self.all_cdf = _zipf_cdf(len(self.types), spec.zipf)
        self.seen_cdf = _zipf_cdf(len(self.seen_types), spec.zipf)

    def _lexicon(self, rng) -> list[MweType]:
        """Distinct types: a verb plus one (70%) or two (30%) nouns.

        Each verb and noun belongs to one category, so a word's tag is
        learnable from the word itself; literal uses keep it ambiguous.
        """
        singles, pairs = [], []
        for verb_index, verb in enumerate(self.verbs):
            category = verb_index % len(CATEGORIES)
            nouns = self.nouns[category::len(CATEGORIES)]
            singles += [(category, (verb, noun)) for noun in nouns]
            pairs += [(category, (verb, a, b)) for i, a in enumerate(nouns)
                      for b in nouns[i + 1:]]
        candidates = singles + pairs
        if len(candidates) < self.spec.mwe_types:
            raise ValueError(f"only {len(candidates)} distinct MWE types possible")
        weights = np.array([0.7 / len(singles)] * len(singles)
                           + [0.3 / len(pairs)] * len(pairs))
        chosen = rng.choice(len(candidates), size=self.spec.mwe_types,
                            replace=False, p=weights / weights.sum())
        return [MweType(category=CATEGORIES[candidates[i][0]],
                        components=candidates[i][1],
                        gap=bool(rng.random() < 0.3)) for i in chosen.tolist()]

    def _filler(self, rng) -> tuple[str, str]:
        if rng.random() < LITERAL_RATE:
            pool = self.verbs if rng.random() < 0.5 else self.nouns
            return pool[int(rng.integers(len(pool)))], "VERB"
        return self.fillers[_draw(rng, self.filler_cdf)], "NOUN"

    def sentence(self, rng, seen_only: bool) -> list[tuple[str, str, str]]:
        """(form, upos, PARSEME:MWE) rows of one sentence."""
        types, cdf = ((self.seen_types, self.seen_cdf) if seen_only
                      else (self.types, self.all_cdf))
        length = int(rng.integers(self.spec.min_len, self.spec.max_len + 1))
        rows: list[tuple[str, str, str]] = []
        n_mwes = 0
        while len(rows) < length:
            room = length - len(rows)
            if room >= 2 and rng.random() < self.spec.mwe_rate:
                mwe = types[_draw(rng, cdf)]
                gap = int(rng.integers(1, 3)) if mwe.gap else 0
                if len(mwe.components) + gap <= room:
                    n_mwes += 1
                    verb, *nouns = mwe.components
                    rows.append((verb, "VERB", f"{n_mwes}:{mwe.category}"))
                    for _ in range(gap):
                        form, upos = self._filler(rng)
                        rows.append((form, upos, "*"))
                    for noun in nouns:
                        rows.append((noun, "NOUN", str(n_mwes)))
                    continue
            form, upos = self._filler(rng)
            rows.append((form, upos, "*"))
        return rows


def _render(rows, sent_id: str) -> str:
    forms = [form for form, _, _ in rows]
    forms[0] = forms[0][:1].upper() + forms[0][1:]
    lines = [f"# sent_id = {sent_id}", f"# text = {' '.join(forms)}"]
    for number, ((form, upos, mwe), shown) in enumerate(zip(rows, forms), start=1):
        lines.append("\t".join((str(number), shown, form, upos, *NO_COLUMNS, mwe)))
    return "\n".join(lines) + "\n\n"


def generate(spec: CorpusSpec, seed: int, out_dir) -> dict:
    """Write ``<split>_<LANG>.cupt`` for every split and language.

    The same ``spec`` and ``seed`` give byte-identical files.

    Returns the sizes of what was written: sentences, tokens and MWEs
    per file, plus the distinct train forms (the model's vocabulary).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes: dict = {"files": {}}
    train_forms: set[str] = set()
    for lang_index, code in enumerate(LANGUAGES):
        language = Language(code, spec, seed)
        for split_index, (split, tokens) in enumerate(spec.split_tokens, start=1):
            rng = np.random.default_rng([seed, lang_index, split_index])
            parts, n_tokens, n_mwes = [], 0, 0
            while n_tokens < tokens:
                rows = language.sentence(rng, seen_only=split == "train")
                parts.append(_render(rows, f"{code.lower()}-{split}-{len(parts) + 1}"))
                n_tokens += len(rows)
                n_mwes += sum(1 for _, _, mwe in rows if ":" in mwe)
                if split == "train":
                    train_forms.update(form for form, _, _ in rows)
            name = f"{split}_{code}.cupt"
            (out_dir / name).write_text("".join(parts), encoding="utf-8")
            sizes["files"][name] = {"sentences": len(parts), "tokens": n_tokens,
                                    "mwes": n_mwes}
    sizes["train_vocab"] = len(train_forms)
    return sizes

