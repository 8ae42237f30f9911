"""Trainer: update routing, reversal arithmetic, loops, determinism."""

import functools
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from mweid import autodiff as ad
from mweid import corpus as corpus_mod
from mweid import evaluation, trainer
from mweid import model as model_mod
from mweid.corpus import Corpus
from mweid.model import (PAD_ID, UNK_ID, ModelConfig, MweTagger,
                         UnknownLanguage)
from mweid.trainer import (EmptyBatch, TrainerConfig, TrainingDiverged,
                           gold_tag_ids, lambda_at, train, train_step)
from conftest import (bits, corpus_of, dense_lookup, make_sentence,
                      random_sentence, reference_backward, refuse_constant_vjps)


def training_corpus():
    return corpus_of(
        make_sentence(["ana", "fura", "somnul", "azi"], [("VID", [2, 3])],
                      language="RO"),
        make_sentence(["el", "se", "gândi", "des"], [("IRV", [2, 3])],
                      language="RO"),
        make_sentence(["le", "chat", "fait", "faim"], [("LVC.full", [3, 4])],
                      language="FR"),
        make_sentence(["je", "me", "souviens", "bien"], [("IRV", [2, 3])],
                      language="FR"),
        make_sentence(["ils", "prennent", "la", "porte"], [("VID", [2, 3, 4])],
                      language="FR"))


def build(corpus, **overrides):
    defaults = dict(embedding_dim=4, window=1, hidden_dim=6, disc_hidden_dim=4,
                    use_lateral_inhibition=True, use_adversarial=True,
                    lam=1.0, seed=2)
    defaults.update(overrides)
    return MweTagger.build(ModelConfig(**defaults), corpus)


class TestLambdaSchedule:
    def test_constant(self):
        for p in (0.0, 0.3, 1.0):
            assert lambda_at("constant", p, 1.7) == 1.7

    def test_ramp_starts_at_zero(self):
        assert lambda_at("dann_ramp", 0.0, 2.0) == 0.0

    def test_ramp_endpoint(self):
        expected = 2.0 * (2.0 / (1.0 + math.exp(-10.0)) - 1.0)
        assert lambda_at("dann_ramp", 1.0, 2.0) == pytest.approx(
            expected, rel=1e-15)
        assert expected == pytest.approx(2.0 * 0.9999, rel=1e-4)

    def test_progress_bounds(self):
        with pytest.raises(ValueError):
            lambda_at("constant", 1.5, 1.0)

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown schedule 'cosine'"):
            lambda_at("cosine", 0.5, 1.0)


class TestTrainStep:
    def test_empty_batch(self):
        model = build(training_corpus())
        with pytest.raises(EmptyBatch):
            train_step(model, [], 0.1)

    def test_unknown_language(self):
        corpus = training_corpus()
        model = build(corpus)
        alien = make_sentence(["was", "ist"], language="DE")
        with pytest.raises(UnknownLanguage):
            train_step(model, [alien], 0.1)

    def test_gold_tag_outside_the_tagset(self):
        model = build(training_corpus())
        alien = make_sentence(["ana", "cauza"], [("LVC.cause", [1, 2])],
                              language="RO")
        with pytest.raises(ValueError, match="gold tag 'B-LVC.cause' not in "
                           "the model tagset"):
            gold_tag_ids(model, alien)

    def test_losses_are_finite_and_positive(self):
        corpus = training_corpus()
        model = build(corpus)
        tag_loss, lang_loss, _ = train_step(model, list(corpus), 0.1)
        assert 0 < tag_loss < 20 and 0 < lang_loss < 20

    def test_lambda_zero_matches_baseline_bitwise(self):
        corpus = training_corpus()
        adversarial = build(corpus, lam=0.0)
        baseline = build(corpus, use_adversarial=False)
        for _ in range(3):
            train_step(adversarial, list(corpus), 0.2, lam=0.0)
            train_step(baseline, list(corpus), 0.2)
        names = {p.name for p in baseline.parameters()}
        adv = {p.name: p.data for p in adversarial.parameters()}
        for p in baseline.parameters():
            assert np.array_equal(p.data, adv[p.name]), p.name
        # while the discriminator still moved on its own loss
        fresh = build(corpus, lam=0.0)
        moved = [not np.array_equal(p.data, q.data)
                 for p, q in zip(adversarial.discriminator.parameters(),
                                 fresh.discriminator.parameters())]
        assert any(moved)
        assert names == {p.name for p in baseline.parameters()}

    def test_default_lambda_is_the_model_config_lam(self):
        corpus = training_corpus()
        grads = {}
        for lam in (None, 0.7, 1.0):
            model = build(corpus, lam=0.7)
            train_step(model, list(corpus), 0.2, lam=lam)
            grads[lam] = [p.grad for p in model.parameters()]
        assert all(np.array_equal(a, b) for a, b in zip(grads[None], grads[0.7]))
        assert not all(np.array_equal(a, b)
                       for a, b in zip(grads[None], grads[1.0]))

    def test_gradient_routing_disjoint(self):
        corpus = training_corpus()
        model = build(corpus)
        s = corpus.sentences[0]
        batch = model.extractor.encode([s])
        params = model.parameters()

        ad.zero_grads(params)
        tag_logits, lang_logits = model.forward(batch, lam=1.0)
        ad.backward(ad.softmax_cross_entropy(tag_logits,
                                             gold_tag_ids(model, s)))
        for p in model.discriminator.parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.grad)), p.name

        ad.zero_grads(params)
        tag_logits, lang_logits = model.forward(batch, lam=1.0)
        lang_id = model.discriminator.language_id(s.language)
        ad.backward(ad.softmax_cross_entropy(lang_logits, [lang_id]))
        for p in model.classifier.parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.grad)), p.name

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_reversal_scales_feature_gradient_exactly(self, lam):
        # Power-of-two coefficients commute exactly through the linear
        # backward operations, so equality is bitwise, tolerance zero.
        corpus = training_corpus()
        model = build(corpus)
        s = corpus.sentences[2]
        disc = model.discriminator
        lang_id = disc.language_id(s.language)
        feature_params = model.feature_parameters()

        def discriminator_loss(pooled):
            hidden = ad.relu(ad.add(ad.matmul(pooled, disc.w1), disc.b1))
            logits = ad.add(ad.matmul(hidden, disc.w2), disc.b2)
            return ad.softmax_cross_entropy(logits, [lang_id])

        ad.zero_grads(feature_params)
        pooled = ad.mean(model.extractor.features(s), axis=0)
        ad.backward(discriminator_loss(pooled))
        unreversed = {p.name: p.grad.copy() for p in feature_params}

        ad.zero_grads(feature_params)
        pooled = ad.mean(model.extractor.features(s), axis=0)
        ad.backward(discriminator_loss(ad.grad_reverse(pooled, lam)))
        for p in feature_params:
            assert np.array_equal(p.grad, -lam * unreversed[p.name]), p.name

    def test_loss_decreases_over_steps(self):
        corpus = training_corpus()
        model = build(corpus)
        losses = [train_step(model, list(corpus), 0.3)[0] for _ in range(100)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_clipping_caps_global_norm(self):
        corpus = training_corpus()
        model = build(corpus)
        before = {p.name: p.data.copy() for p in model.parameters()}
        train_step(model, list(corpus), alpha=1.0, lam=1.0, clip_grad=1e-6)
        total_move = sum(np.sum((p.data - before[p.name]) ** 2)
                         for p in model.parameters())
        assert math.sqrt(total_move) <= 1.0 * 1e-6 * 1.0001


class TestTrainLoop:
    def test_same_seed_identical_runs(self):
        corpus = training_corpus()
        cfg = TrainerConfig(alpha=0.2, lam=1.0, epochs=5, batch_size=2, seed=3)
        model_a = build(corpus)
        report_a = train(model_a, corpus, None, cfg)
        model_b = build(corpus)
        report_b = train(model_b, corpus, None, cfg)
        assert report_a.to_jsonl() == report_b.to_jsonl()
        for p, q in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(p.data, q.data), p.name

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("lam", -0.5, "lam must be >= 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("clip_grad", 0.0, "clip_grad must be > 0 when set")])
    def test_setting_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("alpha", float("nan")), ("lam", float("inf")),
        ("clip_grad", float("nan"))])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainerConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("batch_size", 2.0, "batch_size must be an integer, got 2.0"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("alpha", True, "alpha must be a number, got True"),
        ("shuffle", "no", "shuffle must be true or false, got 'no'"),
        ("clip_grad", False, "clip_grad must be a number or null"),
        ("lambda_schedule", 1, "lambda_schedule must be a string, got 1"),
        ("seed", -1, "seed must be >= 0"),
    ], ids=["float-epochs", "float-batch-size", "bool-epochs", "bool-alpha",
            "string-shuffle", "bool-clip-grad", "int-schedule",
            "negative-seed"])
    def test_setting_of_the_wrong_type_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainerConfig(**{field: value}).validate()

    def test_float_settings_take_integers(self):
        TrainerConfig(alpha=1, lam=0, clip_grad=5).validate()

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(lambda_schedule="linear").validate()

    @pytest.mark.parametrize("name", [f.name for f in fields(TrainerConfig)])
    def test_every_setting_refuses_assignment(self, name):
        config = TrainerConfig()
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="^epochs must be >= 1$"):
            replace(TrainerConfig(), epochs=0)

    def test_empty_corpus_rejected(self):
        model = build(training_corpus())
        with pytest.raises(EmptyBatch):
            train(model, Corpus(sentences=()), None, TrainerConfig(epochs=1))

    def test_empty_dev_corpus_rejected_before_the_first_step(self, monkeypatch):
        corpus = training_corpus()
        model = build(corpus)
        before = {name: array.copy() for name, array in model.state_arrays().items()}
        steps = []
        monkeypatch.setattr(trainer, "train_step",
                            lambda *args, **kwargs: steps.append(args))
        with pytest.raises(EmptyBatch, match="^dev corpus is empty$"):
            train(model, corpus, Corpus(sentences=()), TrainerConfig(epochs=1))
        assert steps == []
        for name, array in model.state_arrays().items():
            assert np.array_equal(array, before[name]), name

    def test_report_one_record_per_epoch(self):
        corpus = training_corpus()
        model = build(corpus)
        report = train(model, corpus, None,
                       TrainerConfig(alpha=0.2, epochs=7, batch_size=2, seed=0))
        assert [r.epoch for r in report.epochs] == list(range(1, 8))
        assert all(math.isfinite(r.tag_loss) and math.isfinite(r.lang_loss)
                   for r in report.epochs)

    def test_dev_tracking_keeps_best_state(self):
        corpus = training_corpus()
        model = build(corpus)
        report = train(model, corpus, corpus,
                       TrainerConfig(alpha=0.3, epochs=6, batch_size=2, seed=1))
        assert report.best_epoch is not None
        assert report.best_state is not None
        assert report.best_dev_global_f1 == max(
            r.dev_global_f1 for r in report.epochs)

    def test_seen_keys_computed_once_per_run(self, monkeypatch):
        calls = []
        original = corpus_mod.seen_lemma_keys

        def counting(corpus):
            calls.append(corpus)
            return original(corpus)

        monkeypatch.setattr(trainer, "seen_lemma_keys", counting)
        monkeypatch.setattr(evaluation, "seen_lemma_keys", counting)
        corpus = training_corpus()
        report = train(build(corpus), corpus, corpus,
                       TrainerConfig(alpha=0.3, epochs=3, batch_size=2, seed=1))
        assert all(r.dev_global_f1 is not None for r in report.epochs)
        assert len(calls) == 1

    def test_dev_gold_extracted_once_per_run(self, monkeypatch):
        calls, rewrites = [], []
        extract, rewrite = corpus_mod.extract_mwes, corpus_mod.with_instances

        def counting(sentence):
            calls.append(sentence)
            return extract(sentence)

        def counting_rewrites(sentence, instances):
            rewrites.append(sentence)
            return rewrite(sentence, instances)

        for module in (corpus_mod, evaluation, trainer, model_mod):
            monkeypatch.setattr(module, "extract_mwes", counting, raising=False)
            monkeypatch.setattr(module, "with_instances", counting_rewrites,
                                raising=False)
        corpus = training_corpus()
        dev = corpus_of(*(replace(s, sent_id=f"dev{i}")
                          for i, s in enumerate(corpus)))
        report = train(build(corpus), corpus, dev,
                       TrainerConfig(alpha=0.3, epochs=3, batch_size=2, seed=1))
        assert all(r.dev_global_f1 is not None for r in report.epochs)
        per_dev_sentence = [sum(call is sentence for call in calls)
                            for sentence in dev]
        assert per_dev_sentence == [1] * len(dev)
        assert rewrites == []

    def test_each_epoch_tags_the_dev_groups(self, monkeypatch):
        monkeypatch.setattr(model_mod, "GROUP_TOKENS", 8)  # 3 groups of dev
        encoded = []
        original = model_mod.FeatureExtractor.encode

        def counting(extractor, sentences):
            encoded.append(list(sentences))
            return original(extractor, sentences)

        monkeypatch.setattr(model_mod.FeatureExtractor, "encode", counting)
        corpus = training_corpus()
        dev = corpus_of(*(replace(s, sent_id=f"dev{i}")
                          for i, s in enumerate(corpus)))
        report = train(build(corpus), corpus, dev,
                       TrainerConfig(alpha=0.3, epochs=3, batch_size=2, seed=1))
        assert all(r.dev_global_f1 is not None for r in report.epochs)
        groups = [list(group) for group in model_mod.tag_groups(dev)]
        assert len(groups) == 3
        assert [sentences for sentences in encoded
                if sentences[0].sent_id.startswith("dev")] == groups * 3

    def test_dev_scores_are_evaluate_of_the_tagged_dev_corpus(self):
        rng = np.random.default_rng(7)
        corpus, dev = (corpus_of(*[random_sentence(rng, sent_id=f"{side}{i}")
                                   for i in range(30)], language="RO")
                       for side in ("t", "d"))
        model = MweTagger.build(ModelConfig(seed=3), corpus)
        for param in model.parameters():  # random tags, some of them right
            param.data[...] = rng.uniform(-0.5, 0.5, param.shape)
        report = train(model, corpus, dev,
                       TrainerConfig(alpha=0.01, epochs=2, batch_size=4, seed=3))
        result = evaluation.evaluate(dev, evaluation.predict_corpus(model, dev),
                                     corpus)
        last = report.epochs[-1]
        assert last.dev_global_f1 == result.global_scores.f1 > 0
        assert last.dev_unseen_f1 == result.unseen_scores.f1 > 0

    def test_shuffle_off_is_sequential_and_deterministic(self):
        corpus = training_corpus()
        cfg = TrainerConfig(alpha=0.2, epochs=3, batch_size=2, seed=5,
                            shuffle=False)
        model_a = build(corpus)
        train(model_a, corpus, None, cfg)
        model_b = build(corpus)
        train(model_b, corpus, None, cfg)
        for p, q in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(p.data, q.data)


class TestDivergence:
    def test_non_finite_loss_stops_training(self):
        corpus = training_corpus()
        with pytest.raises(TrainingDiverged, match="loss is not finite") as err:
            with np.errstate(all="ignore"):
                train(build(corpus), corpus, None,
                      TrainerConfig(alpha=1e4, epochs=5, batch_size=2))
        assert err.value.epoch >= 1 and err.value.step >= 1

    def test_non_finite_parameter_found_at_epoch_end(self):
        # An embedding row that no training sentence reads keeps every
        # loss finite; only the per-epoch parameter check sees it.
        corpus = training_corpus()
        model = build(corpus_of(*corpus, make_sentence(["unread"],
                                                       language="RO")))
        model.extractor.embedding.data[model.extractor.vocab["unread"]] = np.inf
        with pytest.raises(TrainingDiverged, match="parameter") as err:
            train(model, corpus, None,
                  TrainerConfig(alpha=0.1, epochs=3, batch_size=2))
        assert (err.value.epoch, err.value.step) == (1, 3)


def test_tags_encoded_once_per_run(monkeypatch):
    calls = []
    original = corpus_mod.encode_tags

    def counting(sentence):
        calls.append(sentence)
        return original(sentence)

    monkeypatch.setattr(trainer, "encode_tags", counting)
    corpus = training_corpus()
    train(build(corpus), corpus, None,
          TrainerConfig(alpha=0.3, epochs=4, batch_size=2, seed=1))
    assert len(calls) == len(corpus)


# --------------------------------------------------------------------------
# The batched step against the per-sentence graph it replaced. This
# reference lives here only: one forward per sentence (a lookup per window
# column, then concat; mean pooling), the tag losses weighted by
# len(s)/total_tokens and summed, the language losses averaged.
# --------------------------------------------------------------------------

def _reference_features(extractor, sentence):
    ids = [extractor.vocab.get(t.form, UNK_ID) for t in sentence.tokens]
    w, n = extractor.window, len(ids)
    padded = np.concatenate([[PAD_ID] * w, ids, [PAD_ID] * w]).astype(np.int64)
    slices = [ad.embedding_lookup(extractor.embedding, padded[k:k + n])
              for k in range(2 * w + 1)]
    window = slices[0] if len(slices) == 1 else ad.concat(slices)
    return ad.relu(ad.add(ad.matmul(window, extractor.hidden_w),
                          extractor.hidden_b))


def _reference_gradients(model, batch, lam):
    params = model.parameters()
    ad.zero_grads(params)
    total_tokens = sum(len(s) for s in batch)
    tag_terms, lang_terms, correct = [], [], 0
    for sentence in batch:
        features = _reference_features(model.extractor, sentence)
        token_ce = ad.softmax_cross_entropy(model.classifier.logits(features),
                                            gold_tag_ids(model, sentence))
        tag_terms.append(ad.scale(token_ce, len(sentence) / total_tokens))
        if model.discriminator is not None:
            lang_id = model.discriminator.language_id(sentence.language)
            lang_logits = model.discriminator.logits(ad.mean(features, axis=0),
                                                     lam)
            lang_terms.append(ad.softmax_cross_entropy(lang_logits, [lang_id]))
            correct += int(lang_logits.data.argmax()) == lang_id
    loss_y = functools.reduce(ad.add, tag_terms)
    total, lang_loss = loss_y, 0.0
    if lang_terms:
        loss_lg = ad.scale(functools.reduce(ad.add, lang_terms),
                           1.0 / len(batch))
        total, lang_loss = ad.add(loss_y, loss_lg), float(loss_lg.data)
    ad.backward(total)
    return ((float(loss_y.data), lang_loss, correct),
            {p.name: p.grad.copy() for p in params})


@pytest.mark.parametrize("batch_size", [1, 3, 16])
@pytest.mark.parametrize("window", [0, 1, 2])
@pytest.mark.parametrize("use_li", [False, True])
@pytest.mark.parametrize("use_adv, lam", [(False, None), (True, 0.0),
                                          (True, 0.7)])
def test_batched_step_matches_per_sentence_reference(batch_size, window,
                                                     use_li, use_adv, lam):
    rng = np.random.default_rng(1000 * batch_size + 10 * window + use_li)
    sentences = [replace(random_sentence(rng, sent_id=f"g{i}"),
                         language=("RO", "FR")[int(rng.integers(2))])
                 for i in range(24)]
    corpus = corpus_of(*sentences)
    model = build(corpus, window=window, use_lateral_inhibition=use_li,
                  use_adversarial=use_adv, hidden_dim=8)
    for param in model.parameters():  # gates that differ between tokens
        param.data = rng.uniform(-0.5, 0.5, param.shape)
    reference = build(corpus, window=window, use_lateral_inhibition=use_li,
                      use_adversarial=use_adv, hidden_dim=8)
    reference.load_state_arrays(model.state_arrays())
    batch = [sentences[i] for i in rng.choice(len(sentences), batch_size,
                                              replace=False)]

    losses = train_step(model, batch, 0.1, lam=lam)
    want_losses, want_grads = _reference_gradients(reference, batch, lam)
    assert losses[2] == want_losses[2]
    assert losses[:2] == pytest.approx(want_losses[:2], rel=1e-12, abs=0)
    for param in model.parameters():
        want = want_grads[param.name]
        assert np.abs(param.grad - want).max() <= 1e-12 * np.abs(want).max(), \
            param.name


# --------------------------------------------------------------------------
# The row-sparse embedding gradient against the dense rule it replaced.
# This reference lives in the tests only: a dense vocab x e embedding
# adjoint (conftest.dense_lookup), every gradient zeroed and every
# parameter updated in full. The float operations per entry are the same,
# so the two agree bitwise.
# --------------------------------------------------------------------------

def _dense_step(model, batch, alpha, lam, clip_grad, monkeypatch):
    params = model.parameters()
    for param in params:
        param.grad = np.zeros_like(param.data)
        param.rows = ad.ALL_ROWS
    with monkeypatch.context() as patch:
        patch.setattr(ad, "embedding_lookup", dense_lookup)
        tag_logits, lang_logits = model.forward(batch, lam=lam)
    total = ad.softmax_cross_entropy(tag_logits, batch.tags)
    if lang_logits is not None:
        total = ad.add(total, ad.softmax_cross_entropy(lang_logits,
                                                       batch.languages))
    ad.backward(total)
    norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    clipped = clip_grad is not None and norm > clip_grad
    if clipped:
        for param in params:
            param.grad = param.grad * (clip_grad / norm)
    for param in params:
        param.data = param.data - alpha * param.grad
    return clipped


@pytest.mark.parametrize("window", [0, 2])
@pytest.mark.parametrize("clip_grad", [None, 1e-2])
def test_row_sparse_steps_match_dense_reference(window, clip_grad, monkeypatch):
    rng = np.random.default_rng(50 + window)
    sentences = [replace(random_sentence(rng, sent_id=f"r{i}"),
                         language=("RO", "FR")[int(rng.integers(2))])
                 for i in range(30)]
    # Forms no training sentence uses give rows no step may touch.
    corpus = corpus_of(*sentences, make_sentence(
        [f"unused{i}" for i in range(20)], language="RO"))
    model = build(corpus, window=window, hidden_dim=8)
    for param in model.parameters():
        param.data = rng.uniform(-0.5, 0.5, param.shape)
    reference = build(corpus, window=window, hidden_dim=8)
    reference.load_state_arrays(model.state_arrays())
    data = trainer.encode(model, sentences)
    table = model.extractor.embedding
    repeated = False
    for _ in range(6):
        batch = data.select(rng.choice(len(sentences), int(rng.integers(1, 5)),
                                       replace=False))
        repeated |= len(np.unique(batch.windows)) < batch.windows.size
        before = table.data.copy()
        train_step(model, batch, 0.3, lam=0.7, clip_grad=clip_grad)
        clipped = _dense_step(reference, batch, 0.3, 0.7, clip_grad,
                              monkeypatch)
        assert clipped == (clip_grad is not None)
        for param, want in zip(model.parameters(), reference.parameters()):
            assert np.array_equal(param.data, want.data), param.name
            assert np.array_equal(param.grad, want.grad), param.name
        unused = np.setdiff1d(np.arange(len(before)), batch.windows)
        assert np.array_equal(table.data[unused], before[unused])
        assert table.rows.tolist() == np.unique(batch.windows).tolist()
    assert repeated and (window == 2) == (PAD_ID in data.windows)
    ad.zero_grads(model.parameters())
    for param in model.parameters():
        assert not param.grad.any(), param.name


def test_clip_norm_over_written_rows_matches_dense_norm():
    # On a 4,000-row table the squares of the written rows alone are summed
    # in another order than the dense array's, so the two norms may differ
    # in the last bits; the clipped gradients must agree with clipping by
    # the dense norm within 1e-12 relative.
    orders_differ = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        table = ad.Parameter(np.zeros((4000, 16)), "table")
        table.rows = np.unique(rng.integers(0, 4000, 600))
        table.grad[table.rows] = rng.normal(size=(len(table.rows), 16))
        dense = ad.Parameter(np.zeros((8, 4)), "dense")
        dense.grad += rng.normal(size=(8, 4))
        dense.rows = ad.ALL_ROWS
        orders_differ += bool(np.sum(np.square(table.grad[table.rows]))
                              != np.sum(np.square(table.grad)))
        before = [table.grad.copy(), dense.grad.copy()]
        norm = math.sqrt(sum(float(np.sum(grad * grad)) for grad in before))
        trainer._clip_gradients([table, dense], norm / 4)
        for param, grad in zip((table, dense), before):
            np.testing.assert_allclose(param.grad, grad / 4, rtol=1e-12, atol=0)
    assert orders_differ


def test_steps_write_every_parameter_in_place(monkeypatch):
    given = {}

    def recording(data, name):
        given[name] = (data, data.copy())
        return ad.Parameter(data, name)

    corpus = training_corpus()
    with monkeypatch.context() as patch:
        patch.setattr(model_mod, "Parameter", recording)
        model = build(corpus)
    params = model.parameters()
    arrays = [(param.data, param.grad) for param in params]
    table = model.extractor.embedding
    data = trainer.encode(model, list(corpus))
    rng = np.random.default_rng(8)
    for _ in range(4):
        batch = data.select(rng.choice(len(corpus), 2, replace=False))
        train_step(model, batch, 0.5, lam=0.7, clip_grad=1e-3)
        norm = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
        assert norm == pytest.approx(1e-3, rel=1e-12)  # clipping fired
        for param, (value, grad) in zip(params, arrays):
            assert param.data is value and param.grad is grad, param.name
            if param is not table:
                assert param.rows is ad.ALL_ROWS, param.name
        assert table.rows.tolist() == np.unique(batch.windows).tolist()
    assert len(given) == len(params)
    for name, (array, before) in given.items():
        assert np.array_equal(array, before), name


# --------------------------------------------------------------------------
# The training loop against the loop it replaced: one ``data.select`` per
# step, of the step's slice of the epoch's order, then ``train_step``.
# --------------------------------------------------------------------------

def _reference_train(model, corpus, config):
    data = trainer.encode(model, list(corpus))
    n = len(corpus)
    rng = np.random.default_rng(config.seed)
    total_steps = config.epochs * -(-n // config.batch_size)
    report, step = trainer.TrainingReport(), 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        tag_sum = lang_sum = 0.0
        correct_sum = 0
        for start in range(0, n, config.batch_size):
            indices = order[start:start + config.batch_size]
            batch = data.select(indices)
            progress = step / (total_steps - 1) if total_steps > 1 else 1.0
            lam = lambda_at(config.lambda_schedule, progress, config.lam)
            tag_loss, lang_loss, correct = train_step(
                model, batch, config.alpha, lam=lam, clip_grad=config.clip_grad)
            step += 1
            tag_sum += tag_loss * len(batch)
            lang_sum += lang_loss * len(indices)
            correct_sum += correct
        report.epochs.append(trainer.EpochRecord(
            epoch=epoch, tag_loss=tag_sum / len(data), lang_loss=lang_sum / n,
            lang_accuracy=correct_sum / n))
    return report


@pytest.mark.parametrize("batch_size", [1, 3, 16])
@pytest.mark.parametrize("clip_grad", [None, 0.05])
@pytest.mark.parametrize("schedule", ["constant", "dann_ramp"])
@pytest.mark.parametrize("shuffle", [True, False])
def test_train_matches_select_per_step_reference(batch_size, clip_grad,
                                                 schedule, shuffle):
    rng = np.random.default_rng(60 + batch_size)
    corpus = corpus_of(*(replace(random_sentence(rng, sent_id=f"t{i}"),
                                 language=("RO", "FR")[i % 2])
                         for i in range(23)))
    config = TrainerConfig(alpha=0.4, lam=0.8, lambda_schedule=schedule,
                           epochs=3, batch_size=batch_size, seed=4,
                           shuffle=shuffle, clip_grad=clip_grad)
    model, reference = build(corpus, hidden_dim=8), build(corpus, hidden_dim=8)
    report = train(model, corpus, None, config)
    expected = _reference_train(reference, corpus, config)
    assert report.to_jsonl() == expected.to_jsonl()
    for param, want in zip(model.parameters(), reference.parameters()):
        assert np.array_equal(bits(param.data), bits(want.data)), param.name


def test_step_never_calls_a_constant_vjp_and_keeps_gradients():
    # The pooling matrix is a constant leaf of every adversarial step.
    corpus = training_corpus()
    model, reference = build(corpus), build(corpus)
    batch = trainer.encode(model, list(corpus)).select([3, 0, 4])
    losses = []
    for tagger in (model, reference):
        ad.zero_grads(tagger.parameters())
        tag_logits, lang_logits = tagger.forward(batch, lam=0.6)
        losses.append(ad.add(ad.softmax_cross_entropy(tag_logits, batch.tags),
                             ad.softmax_cross_entropy(lang_logits,
                                                      batch.languages)))
    assert refuse_constant_vjps(losses[0]) == 1
    ad.backward(losses[0])
    reference_backward(losses[1])
    for param, want in zip(model.parameters(), reference.parameters()):
        assert np.array_equal(bits(param.grad), bits(want.grad)), param.name
        assert np.array_equal(param.rows, want.rows), param.name
