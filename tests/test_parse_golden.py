"""A committed digest of what the CUPT parser makes of 2,000 generated texts.

``golden/parse_outcomes.json`` holds, for each text ``golden_texts``
draws from ``SEED``, the first 16 hex digits of the sha256 of its
outcome: every token's fields, each sentence's ``sent_id``, language,
``comments`` and ``extra_rows``, and the serialization; or the error's
type and message. A change to the parser that alters any outcome fails
here. The tests never write the golden file; for an intended change of
outcomes, regenerate it from the repo root by

    PYTHONPATH=src python tests/test_parse_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from mweid.corpus import CuptError, parse_cupt, serialize_corpus

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.json"
SEED = 1302
N_TEXTS = 2000

FORMS = ("a", "Casă", "b c", "_", "", "fură", "#x", "ŞI")
CATEGORIES = ("VID", "LVC.full", "IRV", "VPC.semi")
BAD_IDS = ("x", "", "0", "-1", " 1", "01", "1.0", "3-")
ODD_FIELDS = ("_", "", " 1:VID ", "1:", "1:A:B", "1;1", "1:VID;1:",
              "3:IRV;1", ":", ";", "0", "x:VID", "1:VID;", "1:IR\rV", "1",
              "2", "1:VID", "1;2", "2:LVC.full")
COMMENTS = ("# text = a b", "#", "# sent_id=t", "# sent_id = mid", "# note")
BLANKS = ("", "", " ", "\t ")
LINE_ENDS = ("\n", "\r\n", "\r")


def _row(rng, raw_id, mwe):
    form = rng.choice(FORMS)
    return [raw_id, form, form.lower(), "X", "_", "_", "_", "_", "_", "_", mwe]


def _block(rng) -> list[str]:
    """One sentence block, usually well formed, with rare faults."""
    n = rng.randint(1, 6)
    fields = ["*"] * n
    for mwe_id in range(1, rng.choice((0, 0, 1, 1, 2)) + 1):
        members = sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
        category = rng.choice(CATEGORIES)
        for rank, index in enumerate(members):
            item = f"{mwe_id}:{category}" if rank == 0 else str(mwe_id)
            fields[index] = item if fields[index] == "*" \
                else f"{fields[index]};{item}"
    lines = []
    if rng.random() < 0.7:
        lines.append(f"# sent_id = s{rng.randint(1, 99)}")
    if rng.random() < 0.3:
        lines.append(rng.choice(COMMENTS))
    if rng.random() < 0.03:
        return lines or ["#"]  # a block of '#' lines only
    for index in range(n):
        if rng.random() < 0.1:  # multiword-token range
            lines.append("\t".join(_row(rng, f"{index + 1}-{index + 2}", "_")))
        raw_id = str(index + 1)
        if rng.random() < 0.04:
            raw_id = rng.choice(BAD_IDS)
        mwe = fields[index] if rng.random() >= 0.06 else rng.choice(ODD_FIELDS)
        row = _row(rng, raw_id, mwe)
        if rng.random() < 0.03:  # a column too few or too many
            row = row[:-2] + row[-1:] if rng.random() < 0.5 else row + ["_"]
        lines.append("\t".join(row))
        if rng.random() < 0.05:  # empty node
            lines.append("\t".join(_row(rng, f"{index + 1}.1", "_")))
        if rng.random() < 0.02:  # '#' line after a row
            lines.append(rng.choice(COMMENTS))
    return lines


def golden_text(rng: random.Random) -> str:
    """A CUPT-shaped text of 0-4 blocks: mostly valid, with whitespace-only
    blank lines and LF, CRLF or lone-CR line ends, one kind or mixed."""
    eol = rng.choice(LINE_ENDS + (None,))  # None: each line picks its own
    lines = [rng.choice(BLANKS)] if rng.random() < 0.2 else []
    for number in range(rng.choice((0, 1, 1, 2, 2, 3, 4))):
        if number:  # rarely no blank line, so two blocks run together
            lines += [rng.choice(BLANKS)
                      for _ in range(rng.choice((0, 1, 1, 1, 1, 2)))]
        lines += _block(rng)
    text = "".join(line + (eol or rng.choice(LINE_ENDS)) for line in lines)
    if text and rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return text


def golden_texts(seed: int = SEED, count: int = N_TEXTS):
    """``count`` (text, language) pairs drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [(golden_text(rng), rng.choice((None, "RO"))) for _ in range(count)]


def outcome(text: str, language) -> list:
    """What ``parse_cupt`` makes of a text, as plain JSON values."""
    try:
        corpus = parse_cupt(text, language=language)
    except CuptError as err:
        return [type(err).__name__, str(err)]
    sentences = [[[[t.id, t.form, t.lemma, t.columns,
                    [[mwe_id, None if category is None else category.code]
                     for mwe_id, category in t.mwe_tags], t.mwe_raw]
                   for t in s.tokens],
                  s.sent_id, s.language, list(s.comments),
                  [list(row) for row in s.extra_rows]]
                 for s in corpus]
    return [sentences, serialize_corpus(corpus)]


def digest(text: str, language) -> str:
    encoded = json.dumps(outcome(text, language), ensure_ascii=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def test_generated_texts_cover_the_cases():
    texts = [text for text, _ in golden_texts()]
    split = [re.split(r"\r\n|\r|\n", text) for text in texts]
    lines = {line for text_lines in split for line in text_lines}
    rows = [line.split("\t") for line in lines if "\t" in line.strip()]
    assert {"x", "", "0", "1-2", "1.1"} <= {row[0] for row in rows}
    assert {"1:", "1:A:B", "1;1", "1:VID;1:", "3:IRV;1"} \
        <= {row[-1] for row in rows if len(row) == 11}
    assert {10, 12} <= {len(row) for row in rows}
    assert {"", " ", "\t "} <= lines
    assert any("\r\n" in text for text in texts)
    assert any("\r" in text.replace("\r\n", "") for text in texts)
    assert any(text.startswith("#") for text in texts)
    assert any(line.startswith("#") and "\t" in previous
               for text_lines in split
               for previous, line in zip(text_lines, text_lines[1:]))
    parsed = sum(isinstance(outcome(text, language)[0], list)
                 for text, language in golden_texts(count=200))
    assert 40 <= parsed <= 160  # both outcomes are well represented


def test_parse_outcomes_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert (golden["seed"], len(golden["digests"])) == (SEED, N_TEXTS)
    for index, (text, language) in enumerate(golden_texts()):
        assert digest(text, language) == golden["digests"][index], \
            f"text {index}: {text!r} (language {language!r})"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_parse_golden.py --write")
    digests = [digest(text, language) for text, language in golden_texts()]
    GOLDEN.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=0)
                      + "\n", encoding="utf-8")
