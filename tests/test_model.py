"""Model assembly: features, forward paths, prediction, checkpoints."""

import base64
import inspect
import io
import json
import math
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from mweid import model as model_mod
from mweid.model import (CHUNK_VALUES, Batch, CheckpointError, ModelConfig,
                         MweTagger, PAD_ID, UNK_ID, UnknownLanguage)
from conftest import bits, corpus_of, make_sentence, random_sentence


def small_config(**overrides):
    defaults = dict(embedding_dim=4, window=1, hidden_dim=6, disc_hidden_dim=5,
                    steepness=10.0, use_lateral_inhibition=True,
                    use_adversarial=True, lam=1.0, seed=0)
    defaults.update(overrides)
    return ModelConfig(**defaults)


@pytest.fixture
def tiny_corpus():
    return corpus_of(
        make_sentence(["ana", "are", "mere"], [("VID", [2, 3])], language="RO"),
        make_sentence(["le", "chat", "dort"], [("IRV", [1, 2])], language="FR"))


class TestInventories:
    def test_vocab_order_and_reserved_ids(self, tiny_corpus):
        vocab = MweTagger.build(small_config(), tiny_corpus).extractor.vocab
        assert vocab["<pad>"] == PAD_ID and vocab["<unk>"] == UNK_ID
        assert vocab["ana"] == 2  # first-occurrence order
        assert list(vocab)[2:] == ["ana", "are", "mere", "le", "chat", "dort"]

    def test_tagset_layout(self, tiny_corpus):
        assert MweTagger.build(small_config(), tiny_corpus).tagset == \
            ["O", "B-IRV", "I-IRV", "B-VID", "I-VID"]

    def test_one_pass_gives_vocab_tagset_and_languages(self, tiny_corpus):
        # A one-shot iterator: build reads its corpus once.
        model = MweTagger.build(small_config(), iter(tiny_corpus))
        listed = MweTagger.build(small_config(), tiny_corpus)
        assert model.extractor.vocab == listed.extractor.vocab
        assert list(model.extractor.vocab) == list(listed.extractor.vocab)
        assert model.tagset == listed.tagset
        assert model.discriminator.languages == ["FR", "RO"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(hidden_dim=0).validate()
        with pytest.raises(ValueError):
            small_config(lam=-1.0).validate()

    def test_nonpositive_steepness_rejected(self):
        with pytest.raises(ValueError, match="^steepness must be > 0$"):
            small_config(steepness=0.0)

    @pytest.mark.parametrize("name, value, message", [
        ("window", 1.5, "window must be an integer, got 1.5"),
        ("hidden_dim", 6.0, "hidden_dim must be an integer, got 6.0"),
        ("embedding_dim", True, "embedding_dim must be an integer, got True"),
        ("steepness", True, "steepness must be a number, got True"),
        ("use_adversarial", "no", "use_adversarial must be true or false"),
        ("use_lateral_inhibition", 1, "use_lateral_inhibition must be true"),
        ("seed", -1, "seed must be >= 0"),
    ], ids=["float-window", "float-hidden-dim", "bool-embedding-dim",
            "bool-steepness", "string-adversarial", "int-inhibition",
            "negative-seed"])
    def test_config_value_of_the_wrong_type(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            small_config(**{name: value}).validate()

    def test_float_fields_take_integers(self):
        small_config(steepness=10, lam=0).validate()


class TestConfig:
    @pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)])
    def test_every_field_refuses_assignment(self, name):
        config = small_config()
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))

    def test_replace_checks_again_with_the_message_of_validate(self):
        unchecked = small_config()
        object.__setattr__(unchecked, "window", -1)
        with pytest.raises(ValueError) as by_validate:
            unchecked.validate()
        with pytest.raises(ValueError) as by_replace:
            replace(small_config(), window=-1)
        assert str(by_replace.value) == str(by_validate.value) \
            == "window must be >= 0"

    def test_a_saved_window_is_the_built_one(self, tiny_corpus, tmp_path):
        # A window set after build would not fit hidden_w, and load would
        # reject the checkpoint that save wrote.
        model = MweTagger.build(small_config(), tiny_corpus)
        with pytest.raises(FrozenInstanceError):
            model.config.window = 2
        model.save(tmp_path / "model.json")
        assert MweTagger.load(tmp_path / "model.json").config == model.config

    def test_lam_is_kept_by_the_config_alone(self, tiny_corpus, tmp_path):
        # A second copy of lam could differ from the one save writes, and a
        # reloaded model would then train with another default.
        model = MweTagger.build(small_config(lam=0.5), tiny_corpus)
        with pytest.raises(FrozenInstanceError):
            model.config.lam = 0.0
        assert not hasattr(model.discriminator, "lam")
        assert "lam" not in inspect.signature(
            model_mod.LanguageDiscriminator).parameters
        model.save(tmp_path / "model.json")
        assert MweTagger.load(tmp_path / "model.json").config.lam == 0.5


class TestFeatures:
    def test_single_token_row_count(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        s = make_sentence(["ana"])
        feats = model.extractor.features(s)
        assert feats.shape == (1, 6)

    def test_purity(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        s = tiny_corpus.sentences[0]
        first = model.extractor.features(s).data
        second = model.extractor.features(s).data
        assert np.array_equal(first, second)

    def test_locality_beyond_window(self, tiny_corpus):
        model = MweTagger.build(small_config(window=1), tiny_corpus)
        a = make_sentence(["ana", "are", "mere", "le", "chat"])
        b = make_sentence(["ana", "are", "mere", "le", "dort"])
        fa = model.extractor.features(a).data
        fb = model.extractor.features(b).data
        # Only rows within distance 1 of the changed last token may move.
        assert np.array_equal(fa[:3], fb[:3])
        assert not np.array_equal(fa[4], fb[4])

    def test_unknown_forms_map_to_unk(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        ids = model.extractor.encode([make_sentence(["neverseen"])]).windows[:, 1]
        assert ids.tolist() == [UNK_ID]


class TestForward:
    def test_lambda_does_not_change_forward_values(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        s = tiny_corpus.sentences[0]
        batch = model.extractor.encode([s])
        tags0, langs0 = model.forward(batch, lam=0.0)
        tags5, langs5 = model.forward(batch, lam=5.0)
        assert np.array_equal(tags0.data, tags5.data)
        assert np.array_equal(langs0.data, langs5.data)

    def test_logit_shapes(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            s = make_sentence([f"w{rng.integers(5)}" for _ in range(n)])
            tag_logits, lang_logits = model.forward(model.extractor.encode([s]))
            assert tag_logits.shape == (n, len(model.tagset))
            assert lang_logits.shape == (1, 2)

    def test_baseline_parity_with_independent_path(self, tiny_corpus):
        # With gating and adversary off, the model must equal a plain
        # windowed tagger computed here with raw numpy.
        config = small_config(use_lateral_inhibition=False,
                              use_adversarial=False)
        model = MweTagger.build(config, tiny_corpus)
        s = tiny_corpus.sentences[1]
        tag_logits, lang_logits = model.forward(model.extractor.encode([s]))
        assert lang_logits is None

        emb = model.extractor.embedding.data
        ids = np.array([model.extractor.vocab.get(t.form, UNK_ID) for t in s.tokens])
        padded = np.concatenate([[PAD_ID], ids, [PAD_ID]])
        window = np.concatenate([emb[padded[i:i + len(ids)]]
                                 for i in range(3)], axis=1)
        hidden = np.maximum(
            window @ model.extractor.hidden_w.data
            + model.extractor.hidden_b.data, 0.0)
        expected = hidden @ model.classifier.head_w.data \
            + model.classifier.head_b.data
        assert np.array_equal(tag_logits.data, expected)

    def test_baseline_parameter_count(self, tiny_corpus):
        config = small_config(use_lateral_inhibition=False,
                              use_adversarial=False)
        model = MweTagger.build(config, tiny_corpus)
        v = len(model.extractor.vocab)
        e, h, t = 4, 6, len(model.tagset)
        expected = v * e + (3 * e) * h + h + h * t + t
        assert sum(p.data.size for p in model.parameters()) == expected

    def test_toggling_heads_keeps_shared_init(self, tiny_corpus):
        base = MweTagger.build(small_config(use_adversarial=False,
                                            use_lateral_inhibition=False),
                               tiny_corpus)
        full = MweTagger.build(small_config(), tiny_corpus)
        for name in ("extractor.embedding", "extractor.hidden_w",
                     "extractor.hidden_b", "classifier.head_w",
                     "classifier.head_b"):
            a = next(p for p in base.parameters() if p.name == name)
            b = next(p for p in full.parameters() if p.name == name)
            assert np.array_equal(a.data, b.data), name


class TestPredict:
    def test_deterministic(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        s = tiny_corpus.sentences[0]
        assert model.predict_tags([s]) == model.predict_tags([s])

    def test_output_length(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        s = make_sentence(["a", "b", "c", "d"])
        assert len(model.predict_tags([s])[0]) == 4

    def test_tie_breaks_to_lowest_index(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        # Zero head weights and bias force all-equal logits per token.
        model.classifier.head_w.data = np.zeros_like(
            model.classifier.head_w.data)
        model.classifier.head_b.data = np.zeros_like(
            model.classifier.head_b.data)
        assert model.predict_tags([make_sentence(["ana", "are"])]) \
            == [["O", "O"]]

    def test_tags_per_sentence_match_each_sentence_alone(self):
        rng = np.random.default_rng(8)
        sentences = [random_sentence(rng, sent_id=f"r{i}") for i in range(150)]
        model = MweTagger.build(small_config(), corpus_of(*sentences))
        for param in model.parameters():
            param.data[...] = rng.uniform(-1, 1, param.shape)
        batch = model.extractor.encode(sentences)
        offsets = batch.offsets.tolist()
        block = model_mod.CHUNK_TOKENS
        assert any(a < block < b for a, b in zip(offsets, offsets[1:]))
        tags = model.predict_tags(iter(sentences))
        assert [len(t) for t in tags] == [len(s) for s in sentences]
        assert tags == [model.predict_tags([s])[0] for s in sentences]
        assert len({tag for sentence_tags in tags for tag in sentence_tags}) > 1

    def test_unknown_language_raises(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        with pytest.raises(UnknownLanguage):
            model.discriminator.language_id("DE")

    def test_language_without_a_discriminator_raises(self, tiny_corpus):
        model = MweTagger.build(small_config(use_adversarial=False),
                                tiny_corpus)
        with pytest.raises(UnknownLanguage,
                           match="model has no language discriminator"):
            model.predict_language(tiny_corpus.sentences[0])


class TestTagGroups:
    @staticmethod
    def row_counts(lengths, group_tokens, monkeypatch):
        """The row count of each sentence of each group, at group_tokens."""
        monkeypatch.setattr(model_mod, "GROUP_TOKENS", group_tokens)
        sentences = [make_sentence(["x"] * n) for n in lengths]
        return [[len(s) for s in group]
                for group in model_mod.tag_groups(sentences)]

    def test_no_sentences_give_no_group(self):
        assert list(model_mod.tag_groups([])) == []

    def test_a_longer_sentence_is_a_group_of_its_own(self, monkeypatch):
        assert self.row_counts([2, 7, 1, 9], 5, monkeypatch) \
            == [[2], [7], [1], [9]]

    def test_a_group_that_fills_the_bound_closes_there(self, monkeypatch):
        assert self.row_counts([2, 3, 1, 4, 5], 5, monkeypatch) \
            == [[2, 3], [1, 4], [5]]

    def test_each_group_regroups_to_itself(self, monkeypatch):
        monkeypatch.setattr(model_mod, "GROUP_TOKENS", 20)
        rng = np.random.default_rng(4)
        sentences = [random_sentence(rng, sent_id=f"r{i}") for i in range(60)]
        groups = list(model_mod.tag_groups(sentences))
        assert [s for group in groups for s in group] == sentences
        assert len(groups) > 5 and any(len(g) > 1 for g in groups)
        for group in groups:
            assert list(model_mod.tag_groups(group)) == [group]


class TestCheckpoint:
    def test_save_load_reproduces_predictions_bitwise(self, tiny_corpus,
                                                      tmp_path):
        model = MweTagger.build(small_config(seed=9), tiny_corpus)
        path = tmp_path / "model.json"
        model.save(path)
        clone = MweTagger.load(path)
        for s in tiny_corpus:
            batch = model.extractor.encode([s])
            original, _ = model.forward(batch)
            reloaded, _ = clone.forward(batch)
            assert np.array_equal(original.data, reloaded.data)

    def test_save_is_deterministic(self, tiny_corpus, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        MweTagger.build(small_config(seed=4), tiny_corpus).save(a)
        MweTagger.build(small_config(seed=4), tiny_corpus).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_returns_the_text_it_wrote(self, tiny_corpus, tmp_path):
        path = tmp_path / "model.json"
        text = MweTagger.build(small_config(), tiny_corpus).save(path)
        assert text.encode("utf-8") == path.read_bytes()

    def test_parameters_not_an_object_rejected(self, tiny_corpus, tmp_path):
        path = tmp_path / "model.json"
        MweTagger.build(small_config(), tiny_corpus).save(path)
        payload = json.loads(path.read_text())
        payload["parameters"] = list(payload["parameters"].items())
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError,
                           match="^parameters must be an object$"):
            MweTagger.load(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError):
            MweTagger.load(path)

    def test_wrong_version_rejected(self, tiny_corpus, tmp_path):
        path = tmp_path / "model.json"
        MweTagger.build(small_config(), tiny_corpus).save(path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            MweTagger.load(path)

    def test_state_array_shape_mismatch(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        state = model.state_arrays()
        state["extractor.hidden_b"] = np.zeros(99)
        with pytest.raises(CheckpointError):
            model.load_state_arrays(state)

    def test_load_state_arrays_copies_into_the_same_arrays(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        arrays = {p.name: p.data for p in model.parameters()}
        state = MweTagger.build(small_config(seed=5), tiny_corpus).state_arrays()
        loaded = {name: value.copy() for name, value in state.items()}
        model.load_state_arrays(state)
        for value in state.values():
            value += 1.0
        for param in model.parameters():
            assert param.data is arrays[param.name], param.name
            assert np.array_equal(param.data, loaded[param.name]), param.name

    @pytest.mark.parametrize("use_li", [True, False])
    @pytest.mark.parametrize("use_adv", [True, False])
    def test_load_rebuilds_every_head_combination(self, tiny_corpus, tmp_path,
                                                   use_li, use_adv):
        model = MweTagger.build(small_config(seed=3,
                                             use_lateral_inhibition=use_li,
                                             use_adversarial=use_adv),
                                tiny_corpus)
        path = tmp_path / "model.json"
        model.save(path)
        clone = MweTagger.load(path)
        assert [(p.name, p.shape) for p in clone.parameters()] == \
            [(p.name, p.shape) for p in model.parameters()]
        assert clone.extractor.vocab == model.extractor.vocab
        assert clone.tagset == model.tagset
        assert (clone.classifier.inhibition is None) == (not use_li)
        assert (clone.discriminator is None) == (not use_adv)
        if use_adv:
            assert clone.discriminator.languages == model.discriminator.languages
        for s in tiny_corpus:
            batch = model.extractor.encode([s])
            for original, reloaded in zip(model.forward(batch), clone.forward(batch)):
                if original is None:
                    assert reloaded is None
                else:
                    assert np.array_equal(original.data, reloaded.data)


def _as_numbers(payload):
    """``payload`` with each parameter's values as a list of numbers."""
    for entry in payload["parameters"].values():
        raw = b"".join(base64.b64decode(chunk) for chunk in entry["data"])
        entry["data"] = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    return payload


def _drop_param(payload):
    del payload["parameters"]["classifier.head_b"]
    return payload


def _extra_param(payload):
    payload["parameters"]["classifier.extra"] = {"shape": [1], "data": [0.0]}
    return payload


def _wrong_shape(payload):
    payload["parameters"]["extractor.hidden_b"]["shape"] = [2, 3]
    return payload


def _nan_value(payload):
    payload["parameters"]["classifier.head_w"]["data"][0] = math.nan
    return payload


def _unknown_config_key(payload):
    payload["config"]["bogus"] = 1
    return payload


def _invalid_config_value(payload):
    payload["config"]["hidden_dim"] = 0
    return payload


def _float_window(payload):
    payload["config"]["window"] = 1.0
    return payload


def _string_adversarial(payload):
    payload["config"]["use_adversarial"] = "no"
    return payload


def _nan_steepness(payload):
    payload["config"]["steepness"] = math.nan
    return payload


def _infinite_lam(payload):
    payload["config"]["lam"] = math.inf
    return payload


def _duplicate_vocab(payload):
    payload["vocab"][3] = payload["vocab"][2]
    return payload


def _short_data(payload):
    payload["parameters"]["extractor.hidden_b"]["data"].pop()
    return payload


def _swapped_reserved(payload):
    vocab = payload["vocab"]
    vocab[0], vocab[2] = vocab[2], vocab[0]
    return payload


def _bad_code_tagset(payload):
    payload["tagset"] = ["O", "B-L:V", "I-L:V", "B-VID", "I-VID"]
    return payload


def _bad_prefix_tagset(payload):
    payload["tagset"] = ["O", "B-IRV", "I-IRV", "X-LVC.full", "I-LVC.full"]
    return payload


def _tab_code_tagset(payload):
    payload["tagset"] = ["O", "B-IRV\tx", "I-IRV\tx", "B-VID", "I-VID"]
    return payload


def _unsorted_tagset(payload):
    payload["tagset"] = ["O", "B-VID", "I-VID", "B-IRV", "I-IRV"]
    return payload


def _string_values(payload):
    data = payload["parameters"]["classifier.head_b"]["data"]
    data[0] = repr(data[0])
    return payload


def _huge_integer(payload):
    payload["parameters"]["classifier.head_b"]["data"][0] = 10 ** 400
    return payload


@pytest.mark.parametrize("corrupt, message", [
    (_drop_param, "classifier.head_b is missing"),
    (_extra_param, "unexpected parameters"),
    (_wrong_shape, "do not match model shape"),
    (_nan_value, "non-finite"),
    (_unknown_config_key, "bad config"),
    (_invalid_config_value, "bad config"),
    (_float_window, "bad config: window must be an integer, got 1.0"),
    (_string_adversarial, "bad config: use_adversarial must be true or false"),
    (_nan_steepness, "bad config: steepness must be finite"),
    (_infinite_lam, "bad config: lam must be finite"),
    (lambda payload: [payload], "not a mweid-checkpoint"),
    (_duplicate_vocab, "vocab must be a list of distinct"),
    (_short_data, "do not match model shape"),
    (_swapped_reserved, "vocab must start with <pad>, <unk>"),
    (_bad_code_tagset, "tagset: invalid MWE category code: 'L:V'"),
    (_bad_prefix_tagset, "tagset must be 'O', then B-c, I-c"),
    (_tab_code_tagset, r"tagset: invalid MWE category code: 'IRV\\tx'"),
    (_unsorted_tagset, "in sorted order"),
    (_string_values, "version-1 data must be a list of numbers"),
    (_huge_integer, "classifier.head_b is missing or malformed"),
])
def test_corrupted_checkpoint_rejected(tiny_corpus, tmp_path, corrupt, message):
    path = tmp_path / "model.json"
    MweTagger.build(small_config(), tiny_corpus).save(path)
    intact = _as_numbers(json.loads(path.read_text()))
    intact["version"] = 1
    path.write_text(json.dumps(intact))
    MweTagger.load(path)
    path.write_text(json.dumps(corrupt(intact)))
    with pytest.raises(CheckpointError, match=message):
        MweTagger.load(path)


def _head_w(edit):
    """Corrupt classifier.head_w, 30 values (240 bytes) in one chunk, by
    ``edit(data)``, ``data`` its list of chunks."""
    def corrupt(payload):
        edit(payload["parameters"]["classifier.head_w"]["data"])
        return payload
    return corrupt


def _bytes(edit):
    """``_head_w`` editing the decoded bytes of the first chunk."""
    def chunk(data):
        data[0] = base64.b64encode(edit(base64.b64decode(data[0]))).decode()
    return _head_w(chunk)


def _version(number):
    def corrupt(payload):
        payload["version"] = number
        return payload
    return corrupt


def _replace(data, value):
    data[0] = value


def _f8(value):
    return struct.pack("<d", value)


NOT_STRINGS = "version-2 data must be a list of base64 strings"
SHAPE = r" values of shape \(6, 5\) do not match model shape"


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_head_w(lambda data: _replace(data, 0.5)), NOT_STRINGS,
                 id="number-chunk"),
    pytest.param(_head_w(lambda data: _replace(data, data[:1])), NOT_STRINGS,
                 id="list-chunk"),
    pytest.param(_as_numbers, NOT_STRINGS, id="numbers-in-version-2"),
    pytest.param(_head_w(lambda data: _replace(data, "*" + data[0][1:])),
                 "head_w is missing or malformed.*Only base64 data",
                 id="invalid-base64"),
    pytest.param(_head_w(lambda data: _replace(data, data[0][:-1])),
                 "head_w is missing or malformed.*padding",
                 id="truncated-base64"),
    pytest.param(_bytes(lambda raw: raw[:-8]), "29" + SHAPE,
                 id="one-value-short"),
    pytest.param(_bytes(lambda raw: raw + _f8(0.25)), "31" + SHAPE,
                 id="one-value-long"),
    pytest.param(_head_w(list.clear), "0" + SHAPE, id="no-chunks"),
    pytest.param(_bytes(lambda raw: raw + b"\0\0\0"),
                 "head_w is missing or malformed.*multiple of element size",
                 id="partial-value"),
    pytest.param(_bytes(lambda raw: _f8(math.nan) + raw[8:]),
                 "head_w has non-finite values", id="nan"),
    pytest.param(_bytes(lambda raw: raw[:-8] + _f8(-math.inf)),
                 "head_w has non-finite values", id="inf"),
    pytest.param(_version(1), "version-1 data must be a list of numbers",
                 id="strings-in-version-1"),
    pytest.param(_version(3), "unsupported checkpoint version 3",
                 id="version-3"),
    pytest.param(_version(True), "unsupported checkpoint version True",
                 id="version-true"),
    pytest.param(_version(2.0), "unsupported checkpoint version 2.0",
                 id="version-2.0"),
])
def test_corrupted_v2_checkpoint_rejected(tiny_corpus, tmp_path, corrupt,
                                          message):
    path = tmp_path / "model.json"
    MweTagger.build(small_config(), tiny_corpus).save(path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    path.write_text(json.dumps(corrupt(payload)))
    with pytest.raises(CheckpointError, match=message):
        MweTagger.load(path)


def test_failed_save_keeps_previous_checkpoint(tiny_corpus, tmp_path):
    path = tmp_path / "model.json"
    model = MweTagger.build(small_config(), tiny_corpus)
    model.save(path)
    before = path.read_bytes()
    # base64 would encode the NaN without complaint, so save checks every
    # parameter, this last one too, before it opens a file.
    model.discriminator.b2.data[0] = math.nan
    with pytest.raises(ValueError, match="parameter discriminator.b2 has "
                                         "non-finite values"):
        model.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


SPECIAL = [-0.0, 5e-324, 1e16, 0.1, -1.5e-300, 123456789.0]


def _large_model():
    """A model whose vocab and embedding table span several chunks, with
    floats whose bits are easy to get wrong."""
    forms = ["gândi", "ŝ\u2028\"x\\"] \
        + [f"w{i}" for i in range(CHUNK_VALUES + 900)]
    model = MweTagger.build(small_config(embedding_dim=16), corpus_of(
        make_sentence(forms, [("VID", [1, 2])], language="RO")))
    model.extractor.embedding.data[2, :len(SPECIAL)] = SPECIAL
    model.classifier.head_b.data[:2] = [-0.0, 1e16]
    return model


def test_save_writes_exact_float64_bytes_in_chunks(tmp_path):
    model = _large_model()
    path = tmp_path / "model.json"
    model.save(path)

    def chunks(values):
        values = values.reshape(-1).tolist()
        return [base64.b64encode(struct.pack(
                    f"<{len(values[i:i + CHUNK_VALUES])}d",
                    *values[i:i + CHUNK_VALUES])).decode("ascii")
                for i in range(0, len(values), CHUNK_VALUES)]

    payload = {
        "format": "mweid-checkpoint", "version": 2,
        "config": asdict(model.config),
        "vocab": list(model.extractor.vocab), "tagset": model.tagset,
        "languages": model.discriminator.languages,
        "parameters": {p.name: {"shape": list(p.shape), "data": chunks(p.data)}
                       for p in model.parameters()}}
    want = io.StringIO()
    json.dump(payload, want, allow_nan=False)
    assert path.read_bytes() == (want.getvalue() + "\n").encode("utf-8")
    embedding = payload["parameters"]["extractor.embedding"]["data"]
    assert len(embedding) == math.ceil(
        model.extractor.embedding.data.size / CHUNK_VALUES) > 2
    assert {len(chunk) for chunk in embedding[:-1]} \
        == {len(chunks(np.zeros(CHUNK_VALUES))[0])}

    clone = MweTagger.load(path)
    assert np.array_equal(bits(clone.extractor.embedding.data[2, :len(SPECIAL)]),
                          bits(np.array(SPECIAL)))
    for original, reloaded in zip(model.parameters(), clone.parameters()):
        assert np.array_equal(bits(original.data), bits(reloaded.data))


def test_save_peak_memory_is_bounded_by_the_checkpoint_size(tmp_path):
    model = _large_model()
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        model.save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size, (peak, path.stat().st_size)


class TestBatch:
    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_windows_match_padded_sentences(self, tiny_corpus, window):
        model = MweTagger.build(small_config(window=window), tiny_corpus)
        sentences = [make_sentence(["ana"]), tiny_corpus.sentences[1],
                     make_sentence(["le", "x", "ana", "are"])]
        batch = model.extractor.encode(sentences)
        assert batch.offsets.tolist() == [0, 1, 4, 8] and len(batch) == 8
        rows = []
        for s in sentences:
            ids = [model.extractor.vocab.get(t.form, UNK_ID) for t in s.tokens]
            padded = np.concatenate([[PAD_ID] * window, ids, [PAD_ID] * window])
            rows += [padded[i:i + 2 * window + 1] for i in range(len(ids))]
        assert batch.windows.dtype == np.int64
        assert np.array_equal(batch.windows, rows)

    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_no_sentences_give_no_rows(self, tiny_corpus, window):
        model = MweTagger.build(small_config(window=window), tiny_corpus)
        batch = model.extractor.encode([])
        assert batch.windows.shape == (0, 2 * window + 1)
        assert batch.windows.dtype == np.int64
        assert batch.offsets.tolist() == [0] and len(batch) == 0
        assert model.predict_tags([]) == []

    def test_select_and_pooling(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        sentences = [make_sentence(["ana"] * n) for n in (1, 3, 2)]
        batch = model.extractor.encode(sentences)
        picked = batch.select([2, 0])
        assert picked.offsets.tolist() == [0, 2, 3]
        assert np.array_equal(picked.windows,
                              np.concatenate([batch.windows[4:6],
                                              batch.windows[0:1]]))
        assert np.array_equal(picked.pooling(),
                              [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("lengths", [[1], [5], [1, 3, 2], [7, 1, 1, 12, 3],
                                         list(range(1, 30))])
    def test_pooling_is_the_scattered_matrix_bitwise(self, lengths):
        offsets = np.cumsum([0] + lengths)
        batch = Batch(np.zeros((offsets[-1], 3), dtype=np.int64), offsets)
        # The construction pooling() replaced: 1/len scattered into zeros.
        reference = np.zeros((len(lengths), offsets[-1]))
        reference[np.repeat(np.arange(len(lengths)), lengths),
                  np.arange(offsets[-1])] = np.repeat(1.0 / np.array(lengths),
                                                      lengths)
        assert np.array_equal(bits(batch.pooling()), bits(reference))

    def test_sentences_are_views_equal_to_select(self):
        lengths = [2, 1, 4, 3, 1]
        offsets = np.cumsum([0] + lengths)
        batch = Batch(np.arange(offsets[-1] * 3).reshape(-1, 3), offsets,
                      tags=np.arange(offsets[-1]) * 2,
                      languages=np.array([1, 0, 1, 1, 0]))
        for start, stop in ((0, 5), (0, 1), (1, 4), (3, 5), (4, 5)):
            view = batch.sentences(start, stop)
            picked = batch.select(np.arange(start, stop))
            for name in ("windows", "offsets", "tags", "languages"):
                assert np.array_equal(getattr(view, name),
                                      getattr(picked, name)), name
            for name in ("windows", "tags", "languages"):
                assert np.shares_memory(getattr(view, name),
                                        getattr(batch, name)), name
        untrained = Batch(batch.windows, offsets).sentences(1, 3)
        assert untrained.tags is None and untrained.languages is None

    def test_batched_forward_matches_each_sentence(self, tiny_corpus):
        model = MweTagger.build(small_config(), tiny_corpus)
        rng = np.random.default_rng(4)
        for param in model.parameters():
            param.data = rng.uniform(-1, 1, param.shape)
        sentences = [make_sentence(["ana", "are", "mere", "le"]),
                     make_sentence(["chat"]), tiny_corpus.sentences[0]]
        tag_logits, lang_logits = model.forward(
            model.extractor.encode(sentences))
        start = 0
        for row, s in enumerate(sentences):
            tags, langs = model.forward(model.extractor.encode([s]))
            np.testing.assert_allclose(tag_logits.data[start:start + len(s)],
                                       tags.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lang_logits.data[row:row + 1],
                                       langs.data, rtol=0, atol=1e-12)
            start += len(s)
