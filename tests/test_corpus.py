"""Corpus module: CUPT parsing, tag codec, merging, keys, statistics."""

import copy
import gc
import io
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mweid
from mweid.corpus import (N_COLUMNS, BadMweColumn, Corpus, CuptError,
                          DanglingMweId, DuplicateLanguageCode, MalformedLine,
                          MweInstance, NonContiguousIds,
                          OverlapUnrepresentable, Sentence, Token, VmweCategory,
                          _check_mwe_rules, corpus_stats, decode_tags,
                          encode_tags, extract_mwes, format_mwe_field,
                          iter_cupt, make_lemma_key, merge_corpora,
                          parse_cupt, parse_cupt_file, seen_lemma_keys,
                          serialize_corpus, serialize_sentence, with_instances)
from conftest import (corpus_of, cupt_text, make_sentence, parse_rows,
                      random_sentence)


def _outcome(parse, *args, **kwargs):
    """What ``parse`` gives: the corpus, or the error's type and message."""
    try:
        return parse(*args, **kwargs)
    except CuptError as err:
        return type(err), str(err)


class TestToken:
    def test_slotted_and_frozen(self):
        token = make_sentence(["a"]).tokens[0]
        assert not hasattr(token, "__dict__")
        with pytest.raises(AttributeError):
            token.form = "b"

    def test_positional_replace_eq_and_hash_agree_with_keywords(self):
        tags = ((1, VmweCategory("VID")),)
        keyword = Token(id=1, form="a", lemma="a", columns="X", mwe_tags=tags,
                        mwe_raw="1:VID")
        positional = Token(1, "a", "a", "X", tags, "1:VID")
        assert positional == keyword and hash(positional) == hash(keyword)
        assert keyword._replace(form="b") == Token(1, "b", "a", "X", tags,
                                                   "1:VID")
        assert keyword._replace(form="b") != keyword
        assert keyword._replace(mwe_tags=(), mwe_raw="*") \
            == Token(id=1, form="a", lemma="a", columns="X", mwe_tags=())
        parsed = parse_rows([("a", "a", "1:VID")]).tokens[0]
        expected = keyword._replace(columns="X\t_\t_\t_\t_\t_\t_")
        assert parsed == expected and hash(parsed) == hash(expected)

    def test_parsed_tokens_are_tokens_built_with_keywords(self):
        # The parser builds tokens with tuple.__new__; Token(...) is the
        # reference path.
        rows = [("a", "a", "1:VID"), ("b", "B", "*"), ("c", "c", "1;2:IRV"),
                ("d", "d", "_"), ("e", "e", "2")]
        for token in parse_rows(rows).tokens:
            built = Token(id=token.id, form=token.form, lemma=token.lemma,
                          columns=token.columns, mwe_tags=token.mwe_tags,
                          mwe_raw=token.mwe_raw)
            assert type(token) is Token
            assert token == built and hash(token) == hash(built)
            assert repr(token) == repr(built)
        assert repr(Token(1, "a", "a", "X", ())) == ("Token(id=1, form='a', "
            "lemma='a', columns='X', mwe_tags=(), mwe_raw='*')")

    def test_a_token_is_the_tuple_of_its_fields(self):
        token = parse_rows([("a", "a", "1:VID")]).tokens[0]
        fields = (1, "a", "a", "X\t_\t_\t_\t_\t_\t_",
                  ((1, VmweCategory("VID")),), "1:VID")
        assert token == fields and tuple(token) == fields
        assert Token._fields == ("id", "form", "lemma", "columns", "mwe_tags",
                                 "mwe_raw")

    def test_pickle_and_copy_round_trips(self):
        for token in parse_rows([("a", "a", "1:VID"), ("b", "b", "1"),
                                 ("c", "c", "_")]).tokens:
            for twin in (pickle.loads(pickle.dumps(token)), copy.copy(token),
                         copy.deepcopy(token)):
                assert type(twin) is Token
                assert twin == token and hash(twin) == hash(token)

    def test_tokens_of_one_parse_share_each_mwe_field(self):
        text = (cupt_text([("a", "a", "*"), ("b", "b", "1:VID")])
                + cupt_text([("c", "c", "1:VID"), ("d", "d", "1"),
                             ("e", "e", "_")])
                + cupt_text([("f", "f", "*"), ("g", "g", "_"),
                             ("h", "h", "1:VID"), ("i", "i", "1")]))
        by_field = {}
        for sentence in parse_cupt(text):
            for token in sentence.tokens:
                by_field.setdefault(token.mwe_raw, []).append(token)
        assert {field: len(group) for field, group in by_field.items()} \
            == {"*": 2, "1:VID": 3, "1": 2, "_": 2}
        for first, *others in by_field.values():
            assert all(token.mwe_tags is first.mwe_tags
                       and token.mwe_raw is first.mwe_raw for token in others)


class TestParsing:
    def test_minimal_irv_annotation(self):
        s = parse_rows([("se", "se", "1:IRV"), ("gândi", "gândi", "1")])
        mwes = extract_mwes(s)
        assert len(mwes) == 1
        assert str(mwes[0].category) == "IRV"
        assert mwes[0].token_indices == (1, 2)

    def test_all_star_means_no_mwes(self):
        s = parse_rows([("a", "a", "*"), ("b", "b", "*"), ("c", "c", "*")])
        assert extract_mwes(s) == []

    def test_double_membership_on_one_token(self):
        s = parse_rows([("a", "a", "1:LVC.full"), ("b", "b", "2:VID"),
                        ("c", "c", "1;2")])
        assert s.tokens[2].mwe_tags == ((1, None), (2, None))
        mwes = extract_mwes(s)
        assert [m.token_indices for m in mwes] == [(1, 3), (2, 3)]

    def test_underscore_mwe_column_is_empty_and_preserved(self):
        text = cupt_text([("a", "a", "_")])
        corpus = parse_cupt(text)
        assert extract_mwes(corpus.sentences[0]) == []
        assert serialize_corpus(corpus) == text

    def test_wrong_column_count(self):
        with pytest.raises(MalformedLine):
            parse_cupt("1\tonly\tthree\n")

    # int() reads each of these as 1, and serialization would write "1".
    @pytest.mark.parametrize("raw_id", ["01", "+1", " 1", "\uff11"])
    def test_non_canonical_token_id_rejected_at_its_line(self, raw_id):
        text = f"# c\n{raw_id}\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*\n"
        message = f"<string>:2: token id {raw_id!r} is not written as 1"
        with pytest.raises(MalformedLine, match=f"^{re.escape(message)}$"):
            parse_cupt(text)

    @pytest.mark.parametrize("field", ["x:VID", "0", "-1", "1:VID;1:VID", ";",
                                       "1:", "1:A:B"])
    def test_bad_mwe_column(self, field):
        with pytest.raises(BadMweColumn, match=r"^<string>:2: "):
            parse_rows([("a", "a", field)])

    # "1:VID;1:" pins the check order: its bad category is reported before
    # the repeated MWE id.
    @pytest.mark.parametrize("field, code", [("1:", "''"), ("1:A:B", "'A:B'"),
                                             ("1:VID;1:", "''")])
    def test_bad_category_code_rejected_at_its_line(self, field, code):
        with pytest.raises(BadMweColumn, match=rf"^<string>:2: invalid MWE "
                                               rf"category code: {code}$"):
            parse_rows([("a", "a", field)])

    @pytest.mark.parametrize("field", ["1:VID;1", "1;1:VID"])
    def test_repeated_mwe_id_rejected_at_its_line(self, field):
        # One token listed twice in MWE 1 used to parse and fail only later,
        # in extract_mwes, with no file or line.
        with pytest.raises(BadMweColumn,
                           match=r"^<string>:2: duplicate membership .* of MWE 1$"):
            parse_rows([("a", "a", field), ("b", "b", "1")])

    def test_dangling_mwe_id(self):
        with pytest.raises(DanglingMweId):
            parse_rows([("a", "a", "1"), ("b", "b", "1")])

    def test_category_on_non_first_component_rejected(self):
        with pytest.raises(BadMweColumn):
            parse_rows([("a", "a", "1"), ("b", "b", "1:VID")])

    def test_two_category_bearers_rejected(self):
        with pytest.raises(BadMweColumn):
            parse_rows([("a", "a", "1:VID"), ("b", "b", "1:IRV")])

    def test_non_contiguous_token_ids(self):
        # A check of the whole block names the block's first line.
        text = ("\n# c\n1\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "3\tb\tb\tX\t_\t_\t_\t_\t_\t_\t*\n")
        with pytest.raises(NonContiguousIds, match=r"^<string>:2: token ids "
                                                   r"\[1, 3\] are not 1\.\.2$"):
            parse_cupt(text)

    def test_out_of_order_ids_name_the_block(self):
        text = ("# c\n1\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "3\tb\tb\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "2\tc\tc\tX\t_\t_\t_\t_\t_\t_\t*\n")
        with pytest.raises(NonContiguousIds, match=r"^<string>:1: token ids "
                                                   r"\[1, 3, 2\] are not 1\.\.3$"):
            parse_cupt(text)

    def test_row_error_after_out_of_order_id_comes_first(self):
        text = ("1\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "3\tb\tb\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "01\tc\tc\tX\t_\t_\t_\t_\t_\t_\t*\n")
        with pytest.raises(MalformedLine, match=r"^<string>:3: token id '01' "
                                                r"is not written as 1$"):
            parse_cupt(text)

    def test_sentence_longer_than_numeral_table_round_trips(self):
        mwe = {1050: "1:VID", 1100: "1"}
        text = cupt_text([(f"w{i}", f"L{i}", mwe.get(i, "*"))
                          for i in range(1, 1101)])
        corpus = parse_cupt(text)
        (sentence,) = corpus.sentences
        assert [t.id for t in sentence.tokens] == list(range(1, 1101))
        (instance,) = extract_mwes(sentence)
        assert instance.token_indices == (1050, 1100)
        assert instance.lemma_key == ("l1050", "l1100")
        assert serialize_corpus(corpus) == text

    def test_non_contiguous_mwe_ids(self):
        with pytest.raises(NonContiguousIds):
            parse_rows([("a", "a", "2:VID"), ("b", "b", "2")])

    def test_ranges_and_empty_nodes_excluded_but_kept(self):
        text = ("# sent_id = x\n"
                "1\tan\tan\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "2-3\tdel\t_\t_\t_\t_\t_\t_\t_\t_\t*\n"
                "2\tde\tde\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "3\tel\tel\tX\t_\t_\t_\t_\t_\t_\t*\n"
                "3.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\t*\n\n")
        corpus = parse_cupt(text)
        sentence = corpus.sentences[0]
        assert [t.form for t in sentence.tokens] == ["an", "de", "el"]
        assert len(sentence.extra_rows) == 2
        assert serialize_corpus(corpus) == text

    def test_crlf_input(self):
        text = cupt_text([("a", "a", "*")]).replace("\n", "\r\n")
        corpus = parse_cupt(text)
        assert len(corpus.sentences[0]) == 1

    def test_file_line_ends_read_as_text_mode(self, tmp_path):
        path = tmp_path / "f.cupt"
        two = cupt_text([("a", "a", "*")]) + cupt_text([("b", "b", "*")])
        # A lone CR inside the MWE field ends the line in both parsers, so
        # "V" is a row of one column.
        cr_in_field = cupt_text([("a", "a", "1:IR\rV")])
        for text, want in (
                (two, parse_cupt(two, source=str(path))),
                (cr_in_field, (MalformedLine, f"{path}:3: expected 11 "
                                              f"tab-separated columns, got 1"))):
            for ending in ("\n", "\r\n", "\r"):
                variant = text.replace("\n", ending)
                path.write_bytes(variant.encode("utf-8"))
                assert _outcome(parse_cupt_file, path) == want
                assert _outcome(parse_cupt, variant, source=str(path)) == want

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("row, error, line, message", [
        ("2\tde\tde", MalformedLine, 10,
         "expected 11 tab-separated columns, got 3"),
        ("01\tde\tde\tX\t_\t_\t_\t_\t_\t_\t*", MalformedLine, 10,
         "token id '01' is not written as 1"),
        ("2\tde\tde\tX\t_\t_\t_\t_\t_\t_\t1:", BadMweColumn, 10,
         "invalid MWE category code: ''"),
        ("3\tde\tde\tX\t_\t_\t_\t_\t_\t_\t*", NonContiguousIds, 5,
         "token ids [1, 3] are not 1..2"),
        ("2\tde\tde\tX\t_\t_\t_\t_\t_\t_\t1", DanglingMweId, 5,
         "MWE 1 has no category-bearing component"),
    ], ids=["columns", "id_01", "mwe_field", "ids_1_3", "dangling"])
    def test_error_line_numbers(self, tmp_path, ending, row, error, line,
                                message):
        # A bad row is reported at its own line, a fault of the whole block
        # at the block's first line (5): the second block, after a range
        # row, an empty node and a '#' line that follows a row.
        def text(row):
            return ending.join([
                "# sent_id = a", "1\ta\ta\tX\t_\t_\t_\t_\t_\t_\t*", "", "  ",
                "# sent_id = b", "1\tan\tan\tX\t_\t_\t_\t_\t_\t_\t*",
                "2-3\tdel\t_\t_\t_\t_\t_\t_\t_\t_\t*",
                "3.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\t*", "# after a row", row,
                "# tail", "", ""])

        path = tmp_path / "lines.cupt"
        good = text("2\tde\tde\tX\t_\t_\t_\t_\t_\t_\t*")
        assert [len(s) for s in parse_cupt(good).sentences] == [1, 2]
        path.write_bytes(text(row).encode("utf-8"))
        want = (error, f"{path}:{line}: {message}")
        assert _outcome(parse_cupt, text(row), source=str(path)) == want
        assert _outcome(parse_cupt_file, path) == want

    def test_collector_paused_only_while_parsing(self, monkeypatch):
        # The parser looks ``Sentence`` up each time it builds one.
        sentence, during = mweid.corpus.Sentence, []

        def watched(*args, **kwargs):
            during.append(gc.isenabled())
            return sentence(*args, **kwargs)

        monkeypatch.setattr(mweid.corpus, "Sentence", watched)
        enabled = gc.isenabled()
        block = cupt_text([("a", "a", "*")])
        try:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                # The fault case builds one sentence before its error.
                for text in (block * 3, block + "1\tonly\tthree\n"):
                    during.clear()
                    _outcome(parse_cupt, text)
                    assert during and not any(during)
                    assert gc.isenabled() is state
        finally:
            (gc.enable if enabled else gc.disable)()

    def test_non_utf8_file_names_path_and_offset(self, tmp_path):
        path = tmp_path / "latin1.cupt"
        path.write_bytes(cupt_text([("café", "café", "*")]).encode("latin-1"))
        offset = path.read_bytes().index(b"\xe9")
        with pytest.raises(CuptError, match=rf"^{path}: byte {offset} \(0xe9\) "
                                            r"is not UTF-8$"):
            parse_cupt_file(path)

    def test_language_stamp(self):
        corpus = parse_cupt(cupt_text([("a", "a", "*")]), language="RO")
        assert corpus.sentences[0].language == "RO"

    def test_comments_and_metadata(self):
        s = parse_rows([("a", "a", "*")])
        assert s.sent_id == "s1"

    def test_hash_line_after_a_row_keeps_its_place(self):
        row = "\t".join(["{}", "a", "a", "X"] + ["_"] * 6 + ["*"])
        text = "\n".join(["# sent_id = a", row.format(1), "# sent_id = mid",
                          row.format("1-2"), "# after range", row.format(2),
                          "#"]) + "\n\n"
        (sentence,) = parse_cupt(text).sentences
        assert sentence.sent_id == "a"
        assert sentence.comments == ("# sent_id = a",)
        assert [position for position, _ in sentence.extra_rows] == [1, 1, 1, 2]
        assert serialize_corpus(parse_cupt(text)).encode() == text.encode()

    def test_fixture_roundtrip_byte_exact(self):
        for name in ("synthetic_ro.cupt", "synthetic_fr.cupt"):
            path = mweid.fixture_path(name)
            text = open(path, encoding="utf-8").read()
            assert serialize_corpus(parse_cupt(text, source=name)) == text


class TestBlockReader:
    """``iter_cupt`` reads a file in text mode, PIECE_CHARS characters at a
    time, and for a read of fewer characters the text layer reads and
    decodes the file CHUNK bytes at a time. Each test puts a line end, a
    character or a bad byte across a chunk boundary, and must give what
    ``parse_cupt`` of the whole text gives (for a bad byte, what decoding
    the whole file reports)."""

    RO_TEXT = open(mweid.fixture_path("synthetic_ro.cupt"),
                   encoding="utf-8").read()
    CHUNK = 8192

    def test_the_text_layer_reads_a_chunk_at_a_time(self, tmp_path):
        path = tmp_path / "chunks.cupt"
        path.write_bytes(b"#\n" * self.CHUNK)
        with open(path, encoding="utf-8", newline=None) as handle:
            handle.read(7)
            assert handle.buffer.tell() == self.CHUNK

    @staticmethod
    def read(path, monkeypatch, piece):
        monkeypatch.setattr(mweid.corpus, "PIECE_CHARS", piece)
        return _outcome(parse_cupt_file, path)

    @staticmethod
    def whole_file_outcome(path, data):
        """The outcome the file would have if it were read in one piece."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            return CuptError, (f"{path}: byte {err.start} "
                               f"(0x{data[err.start]:02x}) is not UTF-8")
        return _outcome(parse_cupt, text, source=str(path))

    def check(self, tmp_path, monkeypatch, data, cut, end="\n"):
        """Read ``data`` after a '#' line, ended by ``end``, that makes its
        byte ``cut`` open the second chunk, in pieces of a few sizes (the
        largest reads the file as one chunk)."""
        path = tmp_path / "pieces.cupt"
        data = b"#" + b"-" * (self.CHUNK - cut - 1 - len(end)) \
            + end.encode() + data
        path.write_bytes(data)
        want = self.whole_file_outcome(path, data)
        for piece in (1, 2, 3, 7, 64, 1 << 16):
            assert self.read(path, monkeypatch, piece) == want, piece
        return want

    @staticmethod
    def unpadded(corpus):
        """The text of ``corpus`` after the line ``check`` put first."""
        return serialize_corpus(corpus).partition("\n")[2]

    def test_crlf_split_across_two_pieces(self, tmp_path, monkeypatch):
        data = self.RO_TEXT.replace("\n", "\r\n").encode("utf-8")
        cut = data.index(b"\r\n") + 1
        assert data[cut - 1:cut + 1] == b"\r\n"
        want = self.check(tmp_path, monkeypatch, data, cut, "\r\n")
        assert self.unpadded(want) == self.RO_TEXT

    def test_lone_cr_at_the_end_of_a_piece(self, tmp_path, monkeypatch):
        # Blank lines are "\r\r": a held CR is followed by another CR.
        data = self.RO_TEXT.replace("\n", "\r").encode("utf-8")
        cut = data.index(b"\r\r") + 1
        want = self.check(tmp_path, monkeypatch, data, cut, "\r")
        assert self.unpadded(want) == self.RO_TEXT

    def test_mixed_line_ends_read_as_in_text_mode(self, tmp_path,
                                                  monkeypatch):
        # Each line of the fixture ends in LF, CR or CRLF at random (never a
        # CR before a blank line's LF, which would make one CRLF of them):
        # parse_cupt and the block reader read them as text mode does.
        rng = np.random.default_rng(3)
        lines = self.RO_TEXT.split("\n")
        for variant in range(5):
            ends = [str(end) if end != "\r" or after else "\r\n"
                    for end, after in zip(rng.choice(["\n", "\r", "\r\n"],
                                                     len(lines) - 1),
                                          lines[1:])]
            text = "".join(map(str.__add__, lines, ends)) + lines[-1]
            path = tmp_path / f"mixed{variant}.cupt"
            path.write_bytes(text.encode("utf-8"))
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == self.RO_TEXT
            assert parse_cupt(text) == parse_cupt(self.RO_TEXT)
            for piece in (1, 7, 1 << 16):
                assert self.read(path, monkeypatch, piece) \
                    == parse_cupt(self.RO_TEXT)

    def test_cr_in_a_field_at_the_end_of_a_piece(self, tmp_path,
                                                  monkeypatch):
        data = cupt_text([("a", "a", "1:IR\rV")]).encode("utf-8")
        want = self.check(tmp_path, monkeypatch, data, data.index(b"\r") + 1)
        # Line 1 is the padding.
        assert want[0] is MalformedLine and want[1].endswith(
            ":4: expected 11 tab-separated columns, got 1")

    def test_character_split_across_two_pieces(self, tmp_path, monkeypatch):
        data = self.RO_TEXT.encode("utf-8")
        cut = data.index("â".encode("utf-8")) + 1
        want = self.check(tmp_path, monkeypatch, data, cut)
        assert self.unpadded(want) == self.RO_TEXT

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3A", b"\xe2\x82"],
                             ids=["invalid-byte", "bad-continuation",
                                  "cut-at-the-end"])
    def test_bad_byte_in_the_second_piece_names_its_offset(
            self, tmp_path, monkeypatch, bad):
        data = self.RO_TEXT.encode("utf-8")
        if bad == b"\xe2\x82":
            data += bad  # a character cut short by the end of the file
        else:
            at = data.index("â".encode("utf-8"))
            data = data[:at] + bad + data[at + 2:]
        offset = len(self.RO_TEXT.encode("utf-8")) if bad == b"\xe2\x82" \
            else data.index(bad)
        path = tmp_path / "pieces.cupt"
        # The bad byte opens the second chunk, or its character starts at
        # the end of the first.
        for cut in (offset, offset + 1):
            want = (CuptError, f"{path}: byte {self.CHUNK - cut + offset} "
                               f"(0x{bad[0]:02x}) is not UTF-8")
            assert self.check(tmp_path, monkeypatch, data, cut) == want

    def test_bad_byte_after_a_row_fault_is_reported(self, tmp_path,
                                                    monkeypatch):
        # The row fault is in the first chunk, the bad byte opens the second.
        rows = self.RO_TEXT.encode("utf-8")
        data = b"1\tonly\tthree\n\n" + rows * 3 + b"\xe9\n"
        want = self.check(tmp_path, monkeypatch, data, len(data) - 2)
        assert want[1].endswith(f"byte {self.CHUNK} (0xe9) is not UTF-8")
        # Without the bad byte, the row fault stands.
        assert self.check(tmp_path, monkeypatch, data[:-2],
                          len(data) - 2)[1].endswith(
            ":2: expected 11 tab-separated columns, got 3")

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("insert", [
        b"\xe9", b"\xff", b"\xc3", "é".encode("utf-8"), "€".encode("utf-8"),
        b"\r", b"\r\n"], ids=["e9", "ff", "c3", "2-byte", "3-byte", "cr",
                             "crlf"])
    def test_insertions_around_chunk_boundaries(self, tmp_path, monkeypatch,
                                                insert, end):
        # The fixture's text 13 times over is 17,121 bytes with LF ends.
        data = (self.RO_TEXT.replace("\n", end) * 13).encode("utf-8")
        path = tmp_path / "swept.cupt"
        for boundary in (self.CHUNK, 2 * self.CHUNK):
            for at in range(boundary - 4, boundary + 4):
                swept = data[:at] + insert + data[at:]
                path.write_bytes(swept)
                want = self.whole_file_outcome(path, swept)
                for piece in (1, 7):
                    assert self.read(path, monkeypatch, piece) == want, \
                        (at, piece)

    def test_sentences_come_before_the_fault_that_follows_them(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(mweid.corpus, "PIECE_CHARS", 64)
        path = tmp_path / "late.cupt"
        path.write_text(self.RO_TEXT * 2 + "1\tonly\tthree\n",
                        encoding="utf-8")
        sentences = iter_cupt(path, language="RO")
        first = parse_cupt(self.RO_TEXT, language="RO").sentences
        assert [next(sentences) for _ in range(10)] == [*first, *first]
        # The fixture has 47 lines, so the bad row is line 95.
        with pytest.raises(MalformedLine, match=rf"^{re.escape(str(path))}:"
                                                r"95: expected 11 "):
            next(sentences)


# CUPT-shaped text: rows of 1-12 tab-separated fields with ids and MWE
# fields drawn from valid and invalid values, '#' lines, blank and
# whitespace-only lines, and any line may end in a carriage return. An
# MWE field may hold a lone carriage return, which ends its line. A
# row's id is often the next one its sentence expects, so that many
# texts parse.
_FUZZ_IDS = ("1", "2", "3", "1-2", "2.1", "x", "", "0")
_FUZZ_MWE_FIELDS = ("*", "_", "1", "1:VID", "1;2", ":", ";", "0", " 1:VID ",
                    "1:", "1:A:B", "1:IR\rV")


def _often(value, strategy):
    """``value`` three times in four, otherwise a draw from ``strategy``."""
    return st.integers(0, 3).flatmap(
        lambda roll: strategy if roll == 0 else st.just(value))


@st.composite
def _cupt_texts(draw):
    lines, next_id = [], 1
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("row", "row", "row", "comment", "blank")))
        if kind == "blank":
            line, next_id = draw(st.sampled_from(("", " ", "\t "))), 1
        elif kind == "comment":
            line = draw(st.sampled_from(("# sent_id = s1", "# text = a b", "#")))
        else:
            n_fields = draw(_often(N_COLUMNS, st.integers(1, 12)))
            fields = [draw(st.one_of(st.just(str(next_id)),
                                     st.sampled_from(_FUZZ_IDS)))]
            fields += [draw(st.sampled_from(("a", "_", "b c", "")))
                       for _ in range(n_fields - 2)]
            if n_fields > 1:
                fields.append(draw(_often("*",
                                          st.sampled_from(_FUZZ_MWE_FIELDS))))
            next_id += fields[0] == str(next_id)
            line = "\t".join(fields)
        lines.append(line + "\r" * draw(st.booleans()))
    return "\n".join(lines)


class TestParserFuzz:
    @given(_cupt_texts())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_parses_or_raises_cupt_error(self, text):
        try:
            corpus = parse_cupt(text)
        except CuptError as err:
            location = re.match(r"<string>:(\d+): ", str(err))
            assert location, f"no source:line in {str(err)!r}"
            lines = io.StringIO(text, newline=None).read().split("\n")
            assert 1 <= int(location[1]) <= len(lines)
            return
        once = serialize_corpus(corpus)
        again = parse_cupt(once)
        assert again == corpus
        assert serialize_corpus(again) == once


class TestCategory:
    def test_parse_serialize_identity(self):
        for code in ("VID", "LVC.full", "LVC.cause", "IRV", "VPC.full", "XYZ"):
            assert str(VmweCategory(code)) == code

    def test_unknown_code_preserved(self):
        category = VmweCategory("WEIRD.cat")
        assert str(category) == "WEIRD.cat"

    @pytest.mark.parametrize("code", ["", "A:B", "A;B", "A\tB", "A\rB",
                                      "A\nB"])
    def test_invalid_codes_rejected(self, code):
        with pytest.raises(BadMweColumn):
            VmweCategory(code)


@pytest.mark.parametrize("indices, message", [
    ((), "MWE 3 has no member tokens"),
    ((2, 2), "MWE 3 token indices must be strictly increasing: (2, 2)"),
    ((4, 1), "MWE 3 token indices must be strictly increasing: (4, 1)")])
def test_instance_needs_increasing_members(indices, message):
    with pytest.raises(CuptError, match=f"^{re.escape(message)}$"):
        MweInstance(mwe_id=3, category=VmweCategory("VID"),
                    token_indices=indices, lemma_key=())


def test_sentence_needs_a_token():
    with pytest.raises(CuptError, match="^sentence has no tokens$"):
        Sentence(tokens=())


def _extract_mwes_reference(sentence):
    """``extract_mwes`` as it read before it skipped unannotated tokens:
    the MWE rules over every token, lemmas taken from ``lemmas()``."""
    try:
        members, categories = _check_mwe_rules(sentence.tokens)
    except CuptError as err:
        raise type(err)(f"sentence {sentence.sent_id!r}: {err}") from None
    lemmas = sentence.lemmas()
    instances = []
    for mwe_id in sorted(members):
        indices = tuple(sorted(members[mwe_id]))
        instances.append(MweInstance(
            mwe_id=mwe_id, category=categories[mwe_id], token_indices=indices,
            lemma_key=make_lemma_key(lemmas[i - 1] for i in indices)))
    return instances


# Memberships drawn into hand-built sentences: with each other they make
# overlaps, dangling and non-contiguous ids, and misplaced categories.
_MEMBERSHIPS = ((), (), (), ((1, VmweCategory("VID")),), ((1, None),),
                ((2, VmweCategory("IRV")),), ((2, None),), ((3, None),),
                ((1, None), (2, VmweCategory("LVC.full"))))


class TestExtract:
    def test_matches_all_tokens_reference(self, ro_corpus, fr_corpus):
        # The parser checks the same rules and names the block's first line.
        rng = np.random.default_rng(15)
        sentences = [*ro_corpus, *fr_corpus]
        sentences += [random_sentence(rng, sent_id=f"r{i}") for i in range(200)]
        for index in range(600):
            base = make_sentence(["Ab", "cD", "é", "F", "g"][:1 + index % 5],
                                 sent_id=f"h{index}")
            drawn = (_MEMBERSHIPS[i] for i in
                     rng.integers(len(_MEMBERSHIPS), size=len(base)))
            sentences.append(replace(base, tokens=tuple(
                t._replace(mwe_tags=tags, mwe_raw=format_mwe_field(tags))
                for t, tags in zip(base.tokens, drawn))))
        outcomes = set()
        for sentence in sentences:
            got, want = (_outcome(extract, sentence) for extract in
                         (extract_mwes, _extract_mwes_reference))
            assert got == want, sentence.sent_id
            parsed = _outcome(parse_cupt, serialize_sentence(sentence) + "\n")
            if isinstance(want, tuple):
                outcomes.add(want[0])
                assert parsed == (want[0], want[1].replace(
                    f"sentence {sentence.sent_id!r}", "<string>:1")), want
            else:
                outcomes.add(bool(want))
                assert parsed.sentences[0].tokens == sentence.tokens
        assert outcomes == {True, False, NonContiguousIds, DanglingMweId,
                            BadMweColumn}

    def test_se_gandi_example(self):
        s = parse_rows([("El", "el", "*"), ("se", "se", "1:IRV"),
                        ("gândi", "gândi", "1")])
        (mwe,) = extract_mwes(s)
        assert str(mwe.category) == "IRV"
        assert mwe.token_indices == (2, 3)
        assert mwe.lemma_key == ("gândi", "se")

    def test_no_annotations(self):
        assert extract_mwes(parse_rows([("a", "a", "*")])) == []

    def test_rule_error_names_the_sentence(self):
        # Built directly, so no parser checked the MWE column first.
        s = make_sentence(["a", "b"])
        s = replace(s, tokens=tuple(t._replace(mwe_tags=((1, None),))
                                    for t in s.tokens))
        with pytest.raises(DanglingMweId, match=r"^sentence 's': MWE 1 has no "
                                                r"category-bearing component$"):
            extract_mwes(s)

    def test_interleaved_mwes(self):
        s = parse_rows([("a", "a", "1:VID"), ("b", "b", "2:IRV"),
                        ("c", "c", "1"), ("d", "d", "2")])
        mwes = extract_mwes(s)
        assert [m.token_indices for m in mwes] == [(1, 3), (2, 4)]
        assert [str(m.category) for m in mwes] == ["VID", "IRV"]


class TestLemmaKey:
    def test_order_insensitive(self):
        assert make_lemma_key(["somn", "fura"]) == make_lemma_key(["fura", "somn"])

    def test_case_folded(self):
        assert make_lemma_key(["Se", "GÂNDI"]) == make_lemma_key(["se", "gândi"])

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5),
           st.randoms())
    def test_permutation_invariance(self, lemmas, rnd):
        shuffled = list(lemmas)
        rnd.shuffle(shuffled)
        assert make_lemma_key(lemmas) == make_lemma_key(shuffled)


class TestEncode:
    def test_fura_somnul_contiguous_vid(self):
        s = parse_rows([("fura", "fura", "1:VID"), ("somnul", "somn", "1")])
        assert encode_tags(s) == ["B-VID", "I-VID"]

    def test_all_o(self):
        s = parse_rows([("a", "a", "*"), ("b", "b", "*")])
        assert encode_tags(s) == ["O", "O"]

    def test_gap_token_is_o(self):
        s = make_sentence(["a", "b", "c"], [("VID", [1, 3])])
        assert encode_tags(s) == ["B-VID", "O", "I-VID"]

    def test_overlap_resolution_smallest_start_wins(self):
        # Token 2 belongs to MWE 1 (starts at 1) and MWE 2 (starts at 2):
        # it stays with MWE 1, and MWE 2's surviving extent re-opens with B.
        s = make_sentence(["a", "b", "c"], [("VID", [1, 2]), ("IRV", [2, 3])])
        with pytest.warns(OverlapUnrepresentable):
            tags = encode_tags(s)
        assert tags == ["B-VID", "I-VID", "B-IRV"]

    def test_overlap_tie_smaller_id_wins(self):
        s = make_sentence(["a", "b"], [("VID", [1, 2]), ("IRV", [1, 2])])
        with pytest.warns(OverlapUnrepresentable):
            tags = encode_tags(s)
        assert tags == ["B-VID", "I-VID"]

    def test_gold_sentence_keeps_overlap(self):
        s = make_sentence(["a", "b"], [("VID", [1, 2]), ("IRV", [1, 2])])
        assert len(extract_mwes(s)) == 2


class TestDecode:
    def test_simple(self):
        (mwe,) = decode_tags(["B-VID", "I-VID", "O"])
        assert str(mwe.category) == "VID"
        assert mwe.token_indices == (1, 2)

    def test_orphan_repair(self):
        (mwe,) = decode_tags(["O", "I-IRV"])
        assert str(mwe.category) == "IRV"
        assert mwe.token_indices == (2,)

    def test_gap_reattachment(self):
        (mwe,) = decode_tags(["B-VID", "O", "I-VID"])
        assert mwe.token_indices == (1, 3)

    def test_new_b_opens_new_instance(self):
        mwes = decode_tags(["B-VID", "I-VID", "B-VID", "I-VID"])
        assert [m.token_indices for m in mwes] == [(1, 2), (3, 4)]

    def test_distinct_categories_interleave(self):
        mwes = decode_tags(["B-VID", "B-IRV", "I-VID", "I-IRV"])
        assert [(str(m.category), m.token_indices) for m in mwes] == \
            [("VID", (1, 3)), ("IRV", (2, 4))]

    def test_lemma_keys_from_lemmas(self):
        (mwe,) = decode_tags(["B-VID", "I-VID"], lemmas=["Fura", "Somn"])
        assert mwe.lemma_key == ("fura", "somn")

    def test_ids_numbered_by_first_token(self):
        mwes = decode_tags(["O", "B-IRV", "O", "B-VID"])
        assert [m.mwe_id for m in mwes] == [1, 2]
        assert [str(m.category) for m in mwes] == ["IRV", "VID"]

    def test_unknown_tags_are_gaps(self):
        assert decode_tags(["junk", "O", "", "B-", "B-a:b", "I-x;y"]) == []


def _with_instances_reference(sentence, instances):
    """``with_instances`` as the rule states it: every token's MWE field
    rebuilt from the instances and written by ``format_mwe_field``."""
    per_token = {}
    for inst in instances:
        for position in inst.token_indices:
            per_token.setdefault(position, []).append(
                (inst.mwe_id,
                 inst.category if position == inst.token_indices[0] else None))
    tokens = []
    for token in sentence.tokens:
        memberships = tuple(sorted(per_token.get(token.id, ()),
                                   key=lambda m: m[0]))
        tokens.append(token._replace(mwe_tags=memberships,
                                     mwe_raw=format_mwe_field(memberships)))
    return replace(sentence, tokens=tuple(tokens))


class TestRewrite:
    def test_with_instances_canonical_column(self):
        s = make_sentence(["a", "b", "c"], [])
        mwes = decode_tags(["B-VID", "O", "I-VID"], lemmas=s.lemmas())
        out = with_instances(s, mwes)
        assert [t.mwe_raw for t in out.tokens] == ["1:VID", "*", "1"]

    def test_with_instances_rewrites_only_changed_tokens(self):
        s = parse_rows([("a", "a", "1:VID"), ("b", "b", " 1"), ("c", "c", "_"),
                        ("d", "d", "*")])
        out = with_instances(s, decode_tags(["B-VID", "I-VID", "O", "O"]))
        assert [new is old for new, old in zip(out.tokens, s.tokens)] \
            == [True, False, False, True]
        assert [t.columns for t in out.tokens] == ["X\t_\t_\t_\t_\t_\t_"] * 4
        assert [t.mwe_raw for t in out.tokens] == ["1:VID", "1", "*", "*"]
        assert out.tokens[2].mwe_tags == ()

    def test_with_instances_keeps_an_untouched_sentence(self):
        s = parse_rows([("a", "a", "1:VID"), ("b", "b", "*"), ("c", "c", "1")])
        assert with_instances(s, extract_mwes(s)) is s
        assert with_instances(s, []) == parse_rows(
            [("a", "a", "*"), ("b", "b", "*"), ("c", "c", "*")])
        blank = parse_rows([("a", "a", "*"), ("b", "b", "_")])
        out = with_instances(blank, extract_mwes(blank))
        assert out is not blank
        assert [t.mwe_raw for t in out.tokens] == ["*", "*"]
        assert (out.sent_id, out.language, out.comments, out.extra_rows) == (
            blank.sent_id, blank.language, blank.comments, blank.extra_rows)

    def test_with_instances_matches_rebuilding_every_field(self):
        rng = np.random.default_rng(5)
        tags = ("O", "O", "O", "B-VID", "I-VID", "B-IRV", "I-IRV")
        for index in range(300):
            s = random_sentence(rng, sent_id=f"w{index}")
            s = replace(s, tokens=tuple(
                t._replace(mwe_raw="_") if not t.mwe_tags and rng.random() < 0.3
                else t for t in s.tokens))
            drawn = [tags[i] for i in rng.integers(len(tags), size=len(s))]
            instances = extract_mwes(s) if index % 5 == 0 \
                else decode_tags(drawn, lemmas=s.lemmas())
            assert with_instances(s, instances) \
                == _with_instances_reference(s, instances), f"sentence {index}"

    def test_format_mwe_field_sorted(self):
        assert format_mwe_field([(2, None), (1, VmweCategory("VID"))]) == "1:VID;2"
        assert format_mwe_field([]) == "*"


class TestMerge:
    def test_single_corpus_stamped(self, ro_corpus):
        bare = Corpus(tuple(ro_corpus.sentences))
        merged = merge_corpora([(bare, "RO")])
        assert all(s.language == "RO" for s in merged)
        assert len(merged) == len(bare)

    def test_counts_and_order(self):
        ro = corpus_of(make_sentence(["a"]), make_sentence(["b"]))
        fr = corpus_of(make_sentence(["c"]), make_sentence(["d"]),
                       make_sentence(["e"]))
        merged = merge_corpora([(ro, "RO"), (fr, "FR")])
        assert len(merged) == 5
        assert [s.language for s in merged] == ["RO", "RO", "FR", "FR", "FR"]

    def test_per_language_stats_preserved(self, ro_corpus, fr_corpus):
        merged = merge_corpora([(ro_corpus, "RO"), (fr_corpus, "FR")])
        stats = corpus_stats(merged)
        ro_stats = corpus_stats(ro_corpus)
        fr_stats = corpus_stats(fr_corpus)
        assert stats.by_language["RO"].by_category == ro_stats.by_category
        assert stats.by_language["FR"].by_category == fr_stats.by_category
        assert stats.n_mwes == ro_stats.n_mwes + fr_stats.n_mwes

    def test_conflicting_restamp_rejected(self):
        stamped = corpus_of(make_sentence(["a"]), language="RO")
        with pytest.raises(DuplicateLanguageCode):
            merge_corpora([(stamped, "FR")])

    def test_same_code_twice_is_fine(self):
        part = corpus_of(make_sentence(["a"]))
        merged = merge_corpora([(part, "RO"), (part, "RO")])
        assert len(merged) == 2


class TestSeenKeys:
    def test_seen_and_unseen(self):
        train = corpus_of(parse_rows([("se", "se", "1:IRV"),
                                      ("gândi", "gândi", "1")]))
        keys = seen_lemma_keys(train)
        assert make_lemma_key(["se", "gândi"]) in keys
        assert make_lemma_key(["da", "foc"]) not in keys

    def test_empty_train(self):
        assert seen_lemma_keys(Corpus(sentences=())) == set()

    def test_case_folding_matches(self):
        train = corpus_of(make_sentence(["Se", "Gândi"], [("IRV", [1, 2])],
                                        lemmas=["Se", "Gândi"]))
        test = make_sentence(["se", "gândi"], [("IRV", [1, 2])],
                             lemmas=["se", "gândi"])
        keys = seen_lemma_keys(train)
        assert extract_mwes(test)[0].lemma_key in keys


class TestStats:
    def test_fixture_counts(self, ro_corpus):
        stats = corpus_stats(ro_corpus)
        assert stats.n_sentences == 5
        assert stats.n_tokens == 31
        assert stats.n_mwes == 6
        assert stats.by_category == {"IRV": 2, "VID": 2,
                                     "LVC.full": 1, "LVC.cause": 1}

    def test_empty_corpus_all_zero(self):
        stats = corpus_stats(Corpus(sentences=()))
        assert (stats.n_sentences, stats.n_tokens, stats.n_mwes) == (0, 0, 0)
        assert stats.by_category == {}


class TestRoundTrips:
    def test_encode_decode_recovers_extraction(self):
        rng = np.random.default_rng(7)
        for index in range(200):
            s = random_sentence(rng, sent_id=f"g{index}")
            decoded = decode_tags(encode_tags(s), lemmas=s.lemmas())
            gold = extract_mwes(s)
            assert {(str(m.category), m.token_indices, m.lemma_key)
                    for m in decoded} == \
                   {(str(m.category), m.token_indices, m.lemma_key)
                    for m in gold}, f"sentence {index}"

    def test_serialize_reparse_gives_equal_corpus(self):
        rng = np.random.default_rng(11)
        corpus = corpus_of(*[random_sentence(rng, f"e{i}") for i in range(20)])
        first = parse_cupt(serialize_corpus(corpus))
        second = parse_cupt(serialize_corpus(first))
        assert first == second

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_identity_generated(self, seed):
        rng = np.random.default_rng(seed)
        s = random_sentence(rng)
        corpus = corpus_of(s)
        text = serialize_corpus(corpus)
        again = parse_cupt(text)
        assert serialize_corpus(again) == text
        assert [t.form for t in again.sentences[0].tokens] == \
            [t.form for t in s.tokens]
