"""Multilingual verbal MWE identification toolkit.

Corpus handling for the CUPT format, a small differentiable tagger with
a lateral-inhibition gating layer, adversarial language-invariant
training via gradient reversal, and PARSEME-style global/unseen
MWE-based evaluation.
"""

import os
from importlib.resources import files

# Seeded runs are byte-identical at one BLAS thread: set before numpy loads.
os.environ.update(dict.fromkeys((
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"))

from .corpus import (Corpus, MweInstance, Sentence, Token, VmweCategory,
                     corpus_stats, decode_tags, encode_tags, extract_mwes,
                     iter_cupt, merge_corpora, parse_cupt, parse_cupt_file,
                     seen_lemma_keys, serialize_corpus)
from .evaluation import EvalResult, Scores, evaluate, match_mwes, predict_corpus
from .model import ModelConfig, MweTagger
from .trainer import TrainerConfig, TrainingReport, train, train_step

__version__ = "0.1.0"

__all__ = [
    "Corpus", "MweInstance", "Sentence", "Token", "VmweCategory",
    "corpus_stats", "decode_tags", "encode_tags", "extract_mwes", "iter_cupt",
    "merge_corpora", "parse_cupt", "parse_cupt_file", "seen_lemma_keys",
    "serialize_corpus", "EvalResult", "Scores", "evaluate", "match_mwes",
    "predict_corpus", "ModelConfig", "MweTagger", "TrainerConfig",
    "TrainingReport", "train", "train_step", "fixture_path",
]


def fixture_path(name: str) -> str:
    """Absolute path of a bundled fixture corpus (e.g. "synthetic_ro.cupt")."""
    return str(files("mweid").joinpath("fixtures", name))
