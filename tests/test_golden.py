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

A change that fails here changes what an existing checkpoint means, or
the bytes a checkpoint is saved as. The tests never write the golden
files; a missing one fails them.
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
