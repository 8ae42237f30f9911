"""Evaluation: exact-match counting, F1 identities, unseen restriction."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mweid import corpus as corpus_mod
from mweid import evaluation, inhibition
from mweid import model as model_mod
from mweid.corpus import Corpus
from mweid.evaluation import (AlignmentMismatch, EvalResult, Scores,
                              TokenizationMismatch, evaluate, f1_score,
                              format_table, match_mwes, round2, score)
from mweid.model import ModelConfig, MweTagger
from mweid.trainer import TrainerConfig, train
from conftest import corpus_of, make_sentence, random_sentence


def percentages(scores: Scores):
    return (round2(scores.precision), round2(scores.recall), round2(scores.f1))


class TestArithmetic:
    def test_harmonic_mean_identities_from_published_rows(self):
        assert f1_score(90.73, 93.74) == pytest.approx(92.21, abs=0.005)
        assert f1_score(52.97, 70.69) == pytest.approx(60.56, abs=0.005)

    def test_zero_cases(self):
        assert f1_score(0.0, 0.0) == 0.0
        assert f1_score(0.0, 50.0) == 0.0

    def test_round2_half_up(self):
        assert round2(45.105) == 45.11
        assert round2(45.104) == 45.10
        assert round2(0.005) == 0.01

    @given(st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=200)
    def test_f1_between_min_and_max(self, p, r):
        f1 = f1_score(p, r)
        assert 0.0 <= f1 <= max(p, r) + 1e-9
        assert f1 <= (p + r) / 2 + 1e-9

    def test_scores_counts_to_percentages(self):
        scores = Scores(gold=3, predicted=2, matched=1)
        assert percentages(scores) == (50.0, 33.33, 40.0)

    def test_scores_degenerate(self):
        scores = Scores(gold=0, predicted=0, matched=0)
        assert percentages(scores) == (0.0, 0.0, 0.0)


class TestMatching:
    def test_perfect_prediction(self):
        s = make_sentence(["a", "b", "c"], [("VID", [1, 2])])
        assert len(match_mwes(s, s)) == 1

    def test_partial_span_is_no_match(self):
        gold = make_sentence(["a", "b", "c"], [("VID", [1, 2, 3])])
        pred = make_sentence(["a", "b", "c"], [("VID", [1, 2])])
        assert match_mwes(gold, pred) == []

    def test_category_sensitivity_modes(self):
        gold = make_sentence(["a", "b"], [("IRV", [1, 2])])
        pred = make_sentence(["a", "b"], [("VID", [1, 2])])
        assert len(match_mwes(gold, pred)) == 1
        assert match_mwes(gold, pred, category_sensitive=True) == []

    def test_each_gold_matches_at_most_once(self):
        gold = make_sentence(["a", "b", "c", "d"],
                             [("VID", [1, 2]), ("VID", [3, 4])])
        pred = make_sentence(["a", "b", "c", "d"], [("VID", [1, 2])])
        assert len(match_mwes(gold, pred)) == 1

    def test_tokenization_mismatch(self):
        gold = make_sentence(["a", "b"])
        pred = make_sentence(["a", "c"])
        with pytest.raises(TokenizationMismatch):
            match_mwes(gold, pred)


def eval_counts(result: EvalResult):
    g, u = result.global_scores, result.unseen_scores
    return ((g.gold, g.predicted, g.matched), (u.gold, u.predicted, u.matched))


class TestEvaluate:
    def setup_method(self):
        self.train = corpus_of(
            make_sentence(["se", "gândi"], [("IRV", [1, 2])]))

    def test_perfection(self):
        gold = corpus_of(make_sentence(["se", "gândi", "des"],
                                       [("IRV", [1, 2])]))
        result = evaluate(gold, gold, self.train)
        assert percentages(result.global_scores) == (100.0, 100.0, 100.0)

    def test_empty_predictions_no_division_error(self):
        gold = corpus_of(make_sentence(["se", "gândi"], [("IRV", [1, 2])]))
        pred = corpus_of(make_sentence(["se", "gândi"]))
        result = evaluate(gold, pred, self.train)
        assert percentages(result.global_scores) == (0.0, 0.0, 0.0)
        assert percentages(result.unseen_scores) == (0.0, 0.0, 0.0)

    def test_hand_counted_fixture(self):
        gold = corpus_of(
            make_sentence(["a", "b", "c", "d"],
                          [("VID", [1, 2]), ("IRV", [3, 4])]),
            make_sentence(["e", "f"], [("LVC.full", [1, 2])]))
        pred = corpus_of(
            make_sentence(["a", "b", "c", "d"], [("VID", [1, 2])]),
            make_sentence(["e", "f"], [("VID", [1,])]))
        result = evaluate(gold, pred, self.train)
        assert eval_counts(result)[0] == (3, 2, 1)
        assert percentages(result.global_scores) == (50.0, 33.33, 40.0)

    def test_unseen_restriction_both_sides(self):
        # "se gândi" is seen; "da foc" is not.
        gold = corpus_of(
            make_sentence(["se", "gândi"], [("IRV", [1, 2])]),
            make_sentence(["da", "foc"], [("LVC.cause", [1, 2])]))
        pred = corpus_of(
            make_sentence(["se", "gândi"], [("IRV", [1, 2])]),
            make_sentence(["da", "foc"], [("LVC.cause", [1, 2])]))
        result = evaluate(gold, pred, self.train)
        assert eval_counts(result) == ((2, 2, 2), (1, 1, 1))

    def test_extracts_each_sentence_once(self, monkeypatch):
        calls = []
        original = corpus_mod.extract_mwes

        def counting(sentence):
            calls.append(sentence)
            return original(sentence)

        monkeypatch.setattr(evaluation, "extract_mwes", counting)
        monkeypatch.setattr(corpus_mod, "extract_mwes", counting)
        gold = corpus_of(
            make_sentence(["se", "gândi"], [("IRV", [1, 2])]),
            make_sentence(["da", "foc", "azi"], [("LVC.cause", [1, 2])]),
            make_sentence(["nimic"]))
        evaluate(gold, gold, self.train)
        assert len(calls) == 2 * len(gold) + len(self.train)

    def test_unseen_is_category_insensitive(self):
        gold = corpus_of(make_sentence(["Se", "Gândi"], [("VID", [1, 2])]))
        result = evaluate(gold, gold, self.train)
        # same lemma key as the IRV training instance, so it counts as seen
        assert result.unseen_scores.gold == 0

    def test_alignment_mismatch(self):
        gold = corpus_of(make_sentence(["a"]), make_sentence(["b"]))
        pred = corpus_of(make_sentence(["a"]))
        with pytest.raises(AlignmentMismatch):
            evaluate(gold, pred, self.train)

    def test_count_mismatch_comes_before_a_tokenization_mismatch(self):
        gold = corpus_of(make_sentence(["a"]), make_sentence(["b"]))
        with pytest.raises(AlignmentMismatch,
                           match="^gold has 2 sentences, predictions have 1$"):
            evaluate(gold, corpus_of(make_sentence(["x"])), self.train)
        with pytest.raises(TokenizationMismatch):
            evaluate(gold, corpus_of(make_sentence(["x"]), make_sentence(["b"])),
                     self.train)

    def test_a_prediction_parse_fault_waits_for_the_end_of_gold(self):
        read = []

        def gold():
            for forms in (["a"], ["b"]):
                read.append(forms)
                yield make_sentence(forms)

        def pred():
            yield make_sentence(["x"])  # its tokens differ, and one is missing
            raise corpus_mod.MalformedLine("pred.cupt:3: bad row")

        with pytest.raises(corpus_mod.MalformedLine, match="^pred.cupt:3: "):
            list(evaluation.aligned(gold(), pred()))
        assert read == [["a"], ["b"]]

    def test_monotonicity_spurious_prediction(self):
        gold = corpus_of(make_sentence(["a", "b", "c"], [("VID", [1, 2])]))
        pred_good = corpus_of(make_sentence(["a", "b", "c"], [("VID", [1, 2])]))
        pred_extra = corpus_of(make_sentence(["a", "b", "c"],
                                             [("VID", [1, 2]), ("IRV", [3])]))
        good = evaluate(gold, pred_good, self.train)
        extra = evaluate(gold, pred_extra, self.train)
        assert extra.global_scores.precision <= good.global_scores.precision
        assert extra.global_scores.recall == good.global_scores.recall

    def test_monotonicity_dropped_prediction(self):
        gold = corpus_of(make_sentence(["a", "b", "c", "d"],
                                       [("VID", [1, 2]), ("IRV", [3, 4])]))
        both = corpus_of(make_sentence(["a", "b", "c", "d"],
                                       [("VID", [1, 2]), ("IRV", [3, 4])]))
        one = corpus_of(make_sentence(["a", "b", "c", "d"], [("VID", [1, 2])]))
        assert evaluate(gold, one, self.train).global_scores.recall < \
            evaluate(gold, both, self.train).global_scores.recall

    def test_unseen_counts_bounded_by_global(self):
        rng = np.random.default_rng(5)
        from conftest import random_sentence
        gold = corpus_of(*[random_sentence(rng, f"g{i}") for i in range(30)])
        train = corpus_of(*[random_sentence(rng, f"t{i}") for i in range(10)])
        result = evaluate(gold, gold, train)
        assert result.unseen_scores.matched <= result.global_scores.matched
        assert result.unseen_scores.gold <= result.global_scores.gold

    def test_emitted_rows_satisfy_f1_identity(self):
        gold = corpus_of(make_sentence(["a", "b", "c", "d"],
                                       [("VID", [1, 2]), ("IRV", [3, 4])]))
        pred = corpus_of(make_sentence(["a", "b", "c", "d"],
                                       [("VID", [1, 2]), ("VID", [3,])]))
        result = evaluate(gold, pred, self.train)
        for scores in (result.global_scores, result.unseen_scores):
            rounded_f1 = round2(scores.f1)
            recomputed = f1_score(round2(scores.precision),
                                  round2(scores.recall))
            assert abs(rounded_f1 - recomputed) < 0.01 + 1e-9


class TestReporting:
    def test_table_layout(self):
        result = evaluate(
            corpus_of(make_sentence(["a", "b"], [("VID", [1, 2])])),
            corpus_of(make_sentence(["a", "b"], [("VID", [1, 2])])),
            Corpus(sentences=()))
        table = format_table(result, label="demo")
        assert "Global MWE" in table and "Unseen MWE" in table
        assert "100.00" in table

    def test_as_dict_round_trips_counts(self):
        result = evaluate(
            corpus_of(make_sentence(["a", "b"], [("VID", [1, 2])])),
            corpus_of(make_sentence(["a", "b"])),
            Corpus(sentences=()))
        payload = result.as_dict()
        assert payload["global"]["gold"] == 1
        assert payload["global"]["predicted"] == 0
        assert payload["global"]["f1"] == 0.0


class TestPredictCorpus:
    """Batched tagging against tagging each sentence alone."""

    @staticmethod
    def one_by_one(model, corpus):
        return Corpus(sentences=tuple(
            corpus_mod.with_instances(s, corpus_mod.decode_tags(
                model.predict_tags([s])[0],
                lemmas=s.lemmas())) for s in corpus))

    @staticmethod
    def trained_model(corpus):
        model = MweTagger.build(ModelConfig(seed=3), corpus)
        train(model, corpus, None,
              TrainerConfig(alpha=0.5, epochs=30, batch_size=4, seed=3))
        return model

    def test_fixtures(self, bilingual_corpus):
        model = self.trained_model(bilingual_corpus)
        predicted = evaluation.predict_corpus(model, bilingual_corpus)
        assert predicted == self.one_by_one(model, bilingual_corpus)
        assert any(corpus_mod.extract_mwes(s) for s in predicted)

    def test_random_corpus_across_chunks(self):
        rng = np.random.default_rng(21)
        corpus = corpus_of(*[random_sentence(rng, sent_id=f"r{i}")
                             for i in range(200)], language="RO")
        assert sum(len(s) for s in corpus) > 2 * model_mod.CHUNK_TOKENS
        model = self.trained_model(corpus)
        predicted = evaluation.predict_corpus(model, corpus)
        assert predicted == self.one_by_one(model, corpus)
        assert any(corpus_mod.extract_mwes(s) for s in predicted)

    def test_tagging_runs_only_the_tag_head(self, bilingual_corpus,
                                            monkeypatch):
        model = self.trained_model(bilingual_corpus)
        sentence = bilingual_corpus.sentences[0]
        expected = evaluation.predict_corpus(model, bilingual_corpus)
        tags = model.predict_tags([sentence])

        def refuse(*args, **kwargs):
            raise AssertionError("the language path ran")

        monkeypatch.setattr(model_mod.LanguageDiscriminator, "logits", refuse)
        monkeypatch.setattr(model_mod.Batch, "pooling", refuse)
        assert evaluation.predict_corpus(model, bilingual_corpus) == expected
        assert model.predict_tags([sentence]) == tags
        with pytest.raises(AssertionError, match="the language path ran"):
            model.predict_language(sentence)

    def test_tagging_never_computes_the_gate_slope(self, bilingual_corpus,
                                                   monkeypatch):
        model = self.trained_model(bilingual_corpus)
        assert model.config.use_lateral_inhibition
        expected = evaluation.predict_corpus(model, bilingual_corpus)

        def refuse(x):
            raise AssertionError("the surrogate slope was computed")

        monkeypatch.setattr(inhibition, "_expit", refuse)
        assert evaluation.predict_corpus(model, bilingual_corpus) == expected
        with pytest.raises(AssertionError, match="surrogate slope"):
            train(model, bilingual_corpus, None, TrainerConfig(epochs=1))

    def test_tagging_builds_no_lemma_key(self, bilingual_corpus, monkeypatch):
        model = self.trained_model(bilingual_corpus)
        keys = []
        make_lemma_key = corpus_mod.make_lemma_key

        def counting(lemmas):
            keys.append(lemmas)
            return make_lemma_key(lemmas)

        monkeypatch.setattr(corpus_mod, "make_lemma_key", counting)
        predicted = evaluation.predict_corpus(model, bilingual_corpus)
        assert keys == []
        assert any(corpus_mod.extract_mwes(s) for s in predicted)

    def test_block_size_does_not_change_the_tags(self, bilingual_corpus,
                                                 monkeypatch):
        model = self.trained_model(bilingual_corpus)
        expected = self.one_by_one(model, bilingual_corpus)
        assert any(corpus_mod.extract_mwes(s) for s in expected)
        for block in (1, 7, 10**6):
            monkeypatch.setattr(model_mod, "CHUNK_TOKENS", block)
            assert evaluation.predict_corpus(model, bilingual_corpus) \
                == expected

    def test_no_features_call_exceeds_a_block(self, bilingual_corpus,
                                              monkeypatch):
        model = self.trained_model(bilingual_corpus)
        forms = [t.form for s in bilingual_corpus for t in s.tokens]
        n = 2 * model_mod.CHUNK_TOKENS + 5
        long = make_sentence((forms * (n // len(forms) + 1))[:n],
                             sent_id="long")
        corpus = Corpus(sentences=(*bilingual_corpus.sentences, long))
        expected = self.one_by_one(model, corpus)
        rows = []
        features = model_mod.FeatureExtractor.features

        def counted(extractor, batch):
            rows.append(len(batch))
            return features(extractor, batch)

        monkeypatch.setattr(model_mod.FeatureExtractor, "features", counted)
        assert evaluation.predict_corpus(model, corpus) == expected
        assert sum(rows) == sum(len(s) for s in corpus)
        assert max(rows) <= model_mod.CHUNK_TOKENS

    def test_each_block_graph_is_freed_before_the_next(self, bilingual_corpus,
                                                       monkeypatch):
        model = self.trained_model(bilingual_corpus)
        long = make_sentence(["x"] * (2 * model_mod.CHUNK_TOKENS + 5))
        outputs, live = [], []
        features = model_mod.FeatureExtractor.features

        def tracked(extractor, batch):
            live.append(sum(ref() is not None for ref in outputs))
            out = features(extractor, batch)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(model_mod.FeatureExtractor, "features", tracked)
        model.predict_tags([long])
        assert live == [0, 0, 0]


def decoded(model, corpus):
    """Each sentence's instances, lemma keys included, decoded from the tags
    of the whole corpus."""
    tags = model.predict_tags(corpus)
    return [corpus_mod.decode_tags(sentence_tags, sentence.lemmas())
            for sentence_tags, sentence in zip(tags, corpus, strict=True)]


def orphan_tags(tags):
    """The "I-X" tags that open an instance: no "B-X" or "I-X" before them."""
    opened, orphans = set(), []
    for tag in tags:
        if tag[:2] in ("B-", "I-"):
            if tag[:2] == "I-" and tag[2:] not in opened:
                orphans.append(tag)
            opened.add(tag[2:])
    return orphans


class TestScore:
    """``score`` over decoded instances (``decoded``) against the reference
    path: tagged sentences rewritten by ``predict_corpus``, extracted again
    and scored by ``evaluate``."""

    @staticmethod
    def untrained_model(corpus):
        """A model whose random tags include orphan "I-" tags."""
        return MweTagger.build(ModelConfig(seed=2), corpus)

    @pytest.fixture(scope="class", params=["untrained", "trained"])
    def model(self, request, bilingual_corpus):
        if request.param == "trained":
            return TestPredictCorpus.trained_model(bilingual_corpus)
        return self.untrained_model(bilingual_corpus)

    @staticmethod
    def with_overlap(corpus):
        """``corpus`` and a gold sentence whose second token is in two MWEs."""
        forms = corpus.sentences[0].forms()[:4]
        overlap = make_sentence(forms, [("VID", [1, 2, 3]), ("LVC.full", [2, 4])],
                                sent_id="overlap", language="RO")
        assert len(overlap.tokens[1].mwe_tags) == 2
        return Corpus(sentences=(*corpus.sentences, overlap))

    def test_hand_counted_instances(self):
        forms = ["se", "gândi", "da", "foc"]
        gold = [corpus_mod.extract_mwes(make_sentence(
            forms, [("IRV", [1, 2]), ("LVC.cause", [3, 4])]))]
        pred = [corpus_mod.extract_mwes(make_sentence(
            forms, [("VID", [1, 2]), ("LVC.cause", [3, 4])]))]
        seen = {("gândi", "se")}
        assert eval_counts(score(zip(gold, pred), seen)) \
            == ((2, 2, 2), (1, 1, 1))
        assert eval_counts(score(zip(gold, pred), seen,
                                 category_sensitive=True)) \
            == ((2, 2, 1), (1, 1, 1))
        # Equal keys in two sentences count twice: the fold keeps multiplicity.
        assert eval_counts(score(zip(gold * 2, pred * 2), seen)) \
            == ((4, 4, 4), (2, 2, 2))

    def test_untrained_model_tags_orphans(self, bilingual_corpus):
        model = self.untrained_model(bilingual_corpus)
        tags = model.predict_tags(bilingual_corpus)
        assert any(orphan_tags(sentence_tags) for sentence_tags in tags)

    def test_instances_are_the_rewritten_sentences_extracted(
            self, model, bilingual_corpus):
        corpus = self.with_overlap(bilingual_corpus)
        instances = decoded(model, corpus)
        predicted = evaluation.predict_corpus(model, corpus)
        assert len(instances) == len(predicted) == len(corpus)
        for index, sentence in enumerate(predicted):
            assert instances[index] == corpus_mod.extract_mwes(sentence), index
        keys = [i.lemma_key for sentence in instances for i in sentence]
        assert keys and all(keys)

    @pytest.mark.parametrize("category_sensitive", [False, True])
    def test_score_is_evaluate_of_the_rewritten_corpus(
            self, model, bilingual_corpus, ro_corpus, category_sensitive):
        corpus = self.with_overlap(bilingual_corpus)
        gold = [corpus_mod.extract_mwes(sentence) for sentence in corpus]
        seen = corpus_mod.seen_lemma_keys(ro_corpus)
        result = score(zip(gold, decoded(model, corpus), strict=True), seen,
                       category_sensitive)
        assert result.as_dict() == evaluate(
            corpus, evaluation.predict_corpus(model, corpus), ro_corpus,
            category_sensitive).as_dict()
        assert result.global_scores.predicted > 0
        assert result.unseen_scores.gold > 0

    def test_empty_corpus(self, model, ro_corpus):
        empty = Corpus(sentences=())
        assert model.predict_tags([]) == []
        assert evaluation.predict_corpus(model, empty) == empty
        result = score([], corpus_mod.seen_lemma_keys(ro_corpus))
        assert result.as_dict() == evaluate(empty, empty, ro_corpus).as_dict()
        assert result.global_scores == Scores(0, 0, 0)
