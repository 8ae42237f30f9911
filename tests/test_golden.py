"""Committed checkpoints of both versions and their tags, compared byte
for byte.

``golden/checkpoint_v1.json`` was trained on the bundled fixtures, and
``golden/tagged_ro.cupt`` is its tagging of the RO fixture, from the repo
root and while checkpoints were version 1 (each float as decimal text), by

    mweid train --train RO=src/mweid/fixtures/synthetic_ro.cupt \\
        --train FR=src/mweid/fixtures/synthetic_fr.cupt --out golden \\
        --epochs 60 --seed 7 --set model.embedding_dim=4 \\
        --set model.hidden_dim=8 --set model.disc_hidden_dim=4 \\
        --set trainer.batch_size=2 --set trainer.alpha=0.5
    mweid tag golden/checkpoint.json src/mweid/fixtures/synthetic_ro.cupt \\
        tests/golden/tagged_ro.cupt

``golden/checkpoint_v2.json`` is the same model in version 2 (exact
float64 bytes), written by

    python -c 'from mweid.model import MweTagger; MweTagger.load(
        "tests/golden/checkpoint_v1.json").save("tests/golden/checkpoint_v2.json")'

``golden/rows_ro.cupt`` has CRLF line ends, multiword-token ranges, an
empty node, '#' lines after a row, "_" MWE fields and a token in two MWEs;
``golden/tagged_rows_ro.cupt`` is its tagging by

    mweid tag tests/golden/checkpoint_v2.json tests/golden/rows_ro.cupt \\
        tests/golden/tagged_rows_ro.cupt

while ``mweid tag`` still wrote ``serialize_corpus`` of ``predict_corpus``,
which rewrites each sentence from its decoded instances. Tagging is
idempotent: ``tagged_rows_ro.cupt`` tagged again gives its own bytes back.

A change that fails here changes what an existing checkpoint means, the
bytes a checkpoint is saved as, or the bytes ``mweid tag`` writes. The
tests never write the golden files; a missing one fails them.
"""

import json
from pathlib import Path

import numpy as np

import mweid
from mweid.cli import EXIT_OK, main
from mweid.corpus import extract_mwes, parse_cupt_file
from mweid.model import MweTagger

GOLDEN = Path(__file__).parent / "golden"
CHECKPOINT_V1 = GOLDEN / "checkpoint_v1.json"
CHECKPOINT_V2 = GOLDEN / "checkpoint_v2.json"
TAGGED = GOLDEN / "tagged_ro.cupt"
ROWS = GOLDEN / "rows_ro.cupt"
TAGGED_ROWS = GOLDEN / "tagged_rows_ro.cupt"


def test_load_then_save_reproduces_the_checkpoint(tmp_path):
    # Version 1 loads to exactly the floats its decimal text denotes.
    stored = json.loads(CHECKPOINT_V1.read_text())["parameters"]
    for param in MweTagger.load(CHECKPOINT_V1).parameters():
        want = np.array(stored[param.name]["data"], dtype=np.float64)
        assert np.array_equal(param.data.reshape(-1).view(np.int64),
                              want.view(np.int64)), param.name
    # Either version saves to the version-2 golden bytes and tags the
    # fixture to the golden tags.
    for source in (CHECKPOINT_V1, CHECKPOINT_V2):
        again = tmp_path / f"again_{source.name}"
        MweTagger.load(source).save(again)
        assert again.read_bytes() == CHECKPOINT_V2.read_bytes(), source.name
        out = tmp_path / f"tagged_{source.stem}.cupt"
        assert main(["tag", str(source), mweid.fixture_path("synthetic_ro.cupt"),
                     str(out)]) == EXIT_OK
        assert out.read_bytes() == TAGGED.read_bytes(), source.name


def test_tagging_the_fixture_reproduces_the_tags(tmp_path):
    # The tags hold predicted MWEs, so they show the tag head at work.
    assert any(extract_mwes(sentence) for sentence in parse_cupt_file(TAGGED))
    out = tmp_path / "tagged.cupt"
    assert main(["tag", str(CHECKPOINT_V1), mweid.fixture_path("synthetic_ro.cupt"),
                 str(out)]) == EXIT_OK
    assert out.read_bytes() == TAGGED.read_bytes()


def test_tagging_extra_rows_reproduces_the_tags(tmp_path):
    # The input keeps its rows and comments, but not its CRLF line ends, and
    # its token in two MWEs is rewritten from the predicted tags.
    raw = ROWS.read_bytes()
    assert b"\r\n" in raw and b"\n3-4\t" in raw.replace(b"\r", b"")
    assert b"\t_\r\n" in raw and b"\t1;2:VID\r\n" in raw
    assert any(extract_mwes(sentence) for sentence in parse_cupt_file(TAGGED_ROWS))
    out = tmp_path / "tagged.cupt"
    assert main(["tag", str(CHECKPOINT_V2), str(ROWS), str(out)]) == EXIT_OK
    assert out.read_bytes() == TAGGED_ROWS.read_bytes()


def test_tagging_the_tags_gives_them_back(tmp_path):
    # The input's MWE column is not all "*", and each row is written from
    # the text it was read as plus the new field, around a range, an empty
    # node and '#' lines after rows.
    raw = TAGGED_ROWS.read_bytes()
    assert b"\t1:IRV\n" in raw and b"\n3-4\t" in raw and b"\n4.1\t" in raw
    assert b"\n# a comment after a row\n" in raw
    out = tmp_path / "retagged.cupt"
    assert main(["tag", str(CHECKPOINT_V2), str(TAGGED_ROWS), str(out)]) \
        == EXIT_OK
    assert out.read_bytes() == raw
