"""The benchmark's workloads and the end-to-end metrics it reports.

Each workload stresses different layers (see README.md):

* train-short: many 1-12-token sentences, small vocabulary, batch 16.
  Per-node arithmetic is tiny, so time goes to the autodiff tape, the
  trainer's per-sentence loss assembly and per-epoch tag encoding.
* train-long: 40-80-token sentences, large vocabulary, window 2,
  batch 1, a dev set scored every epoch. Per-node arithmetic, the dense
  embedding backward and the JSON checkpoints dominate.
* tag-eval: a checkpoint trained during set-up tags a large test split,
  which is then scored. Forward only: parse, decode, serialize and
  evaluation matching do most of the work.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpusgen import CorpusSpec

# (name, unit) of every end-to-end metric; each workload reports all.
END_TO_END = (("setup_s", "s"), ("train_tok_per_s", "tok/s"),
              ("tag_tok_per_s", "tok/s"), ("eval_tok_per_s", "tok/s"),
              ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    epochs: int
    train_settings: tuple[str, ...]  # --set overrides for mweid train
    dev: bool             # train with the dev split, scored every epoch
    timed_train: bool     # False: training is set-up, only tag+eval are timed
    setup_repeats: int    # set-ups per run; setup_s is the fastest

    @property
    def tag_split(self) -> str:
        """The split tagged and scored after training."""
        return "dev" if self.dev else "test"


WORKLOADS = {
    "train-short": Workload(
        corpus=CorpusSpec(vocab=500, min_len=1, max_len=12, mwe_rate=0.08,
                          mwe_types=30,
                          split_tokens=(("train", 3000), ("test", 2000))),
        epochs=3,
        train_settings=("trainer.batch_size=16",
                        'trainer.lambda_schedule="dann_ramp"',
                        "trainer.alpha=2.0"),
        dev=False, timed_train=True, setup_repeats=9),
    "train-long": Workload(
        corpus=CorpusSpec(vocab=20000, min_len=40, max_len=80, mwe_rate=0.05,
                          mwe_types=30, zipf=0.6,
                          split_tokens=(("train", 6000), ("dev", 2000))),
        epochs=2,
        train_settings=("model.window=2", "trainer.batch_size=1",
                        "trainer.alpha=1.0"),
        dev=True, timed_train=True, setup_repeats=9),
    "tag-eval": Workload(
        corpus=CorpusSpec(vocab=20000, min_len=5, max_len=40, mwe_rate=0.05,
                          mwe_types=30,
                          split_tokens=(("train", 3000), ("test", 15000))),
        epochs=3,
        train_settings=("trainer.batch_size=4", "trainer.alpha=1.0"),
        dev=False, timed_train=False, setup_repeats=7),
}
