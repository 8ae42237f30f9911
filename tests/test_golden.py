"""A committed version-1 checkpoint and its tags, compared byte for byte.

``golden/checkpoint_v1.json`` was trained on the bundled fixtures, and
``golden/tagged_ro.cupt`` is its tagging of the RO fixture, from the repo
root by

    mweid train --train RO=src/mweid/fixtures/synthetic_ro.cupt \\
        --train FR=src/mweid/fixtures/synthetic_fr.cupt --out golden \\
        --epochs 60 --seed 7 --set model.embedding_dim=4 \\
        --set model.hidden_dim=8 --set model.disc_hidden_dim=4 \\
        --set trainer.batch_size=2 --set trainer.alpha=0.5
    mweid tag golden/checkpoint.json src/mweid/fixtures/synthetic_ro.cupt \\
        tests/golden/tagged_ro.cupt

A change that fails here changes what an existing checkpoint means. The
tests never write the golden files; a missing one fails them.
"""

from pathlib import Path

import mweid
from mweid.cli import EXIT_OK, main
from mweid.corpus import extract_mwes, parse_cupt_file
from mweid.model import MweTagger

GOLDEN = Path(__file__).parent / "golden"
CHECKPOINT = GOLDEN / "checkpoint_v1.json"
TAGGED = GOLDEN / "tagged_ro.cupt"


def test_load_then_save_reproduces_the_checkpoint(tmp_path):
    again = tmp_path / "again.json"
    MweTagger.load(CHECKPOINT).save(again)
    assert again.read_bytes() == CHECKPOINT.read_bytes()


def test_tagging_the_fixture_reproduces_the_tags(tmp_path):
    # The tags hold predicted MWEs, so they show the tag head at work.
    assert any(extract_mwes(sentence) for sentence in parse_cupt_file(TAGGED))
    out = tmp_path / "tagged.cupt"
    assert main(["tag", str(CHECKPOINT), mweid.fixture_path("synthetic_ro.cupt"),
                 str(out)]) == EXIT_OK
    assert out.read_bytes() == TAGGED.read_bytes()
