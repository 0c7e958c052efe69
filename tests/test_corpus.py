import json
import os
import random
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from trrgen import corpus as C


@pytest.fixture
def cfg():
    return C.PreprocessConfig()


@pytest.fixture
def ad_cfg():
    return C.AdConfig()


class TestNormalize:
    def test_email(self, cfg):
        assert C.normalize_text("contact us at foo@bar.com", cfg) == "contact us at ⟨email⟩"

    def test_url(self, cfg):
        assert C.normalize_text("see https://example.com/faq ok", cfg) == "see ⟨url⟩ ok"

    def test_user_handle(self, cfg):
        assert C.normalize_text("hi @Dev_42 !", cfg) == "hi ⟨user_name⟩ !"

    def test_empty(self, cfg):
        assert C.normalize_text("", cfg) == ""

    def test_lowercase(self, cfg):
        assert C.normalize_text("GREAT App", cfg) == "great app"

    def test_idempotent_on_fuzzed_strings(self, cfg):
        rng = random.Random(0)
        bits = ["foo@bar.com", "http://x.io/a?b=1", "@user9", "Hello!", "⟨email⟩",
                "WWW.site.org/x", "a.b", "?", "nice app", "5 stars", "…", "tab\tsep"]
        for _ in range(100):
            s = " ".join(rng.choice(bits) for _ in range(rng.randint(0, 8)))
            once = C.normalize_text(s, cfg)
            assert C.normalize_text(once, cfg) == once

    def test_no_pii_pattern_survives(self, cfg):
        import re
        s = "mail a@b.co or b@c.org, visit https://x.y see @me"
        out = C.normalize_text(s, cfg)
        for pattern, _ in C.PLACEHOLDER_RULES:
            assert re.search(pattern, out) is None


# Pieces that the default rules rewrite, or whose lowercase differs in length
# or in what a rule matches, mixed with any text.
PII_TEXT = st.lists(st.sampled_from(
    ["Bob.Smith@Mail.COM", "a@b.co", "x@y", "https://X.io/a?b=1", "WWW.Site.org/x", "@Dev_42",
     "@", ".", " ", "İ", "ẞ", "ς", "Σ", "\u212a", "⟨email⟩", "⟨URL⟩", "⟨"]) | st.text(max_size=4),
    max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(PII_TEXT, st.booleans())
def test_normalize_text_is_idempotent(text, lowercase):
    """So text that `preprocess` wrote encodes as before when a later command
    normalizes it again."""
    cfg = C.PreprocessConfig(lowercase=lowercase)
    once = C.normalize_text(text, cfg)
    assert C.normalize_text(once, cfg) == once


class TestTokenize:
    def test_punctuation_isolated(self):
        assert C.tokenize("thanks!") == ["thanks", "!"]

    def test_placeholder_atomic(self):
        assert C.tokenize("send ⟨email⟩ now") == ["send", "⟨email⟩", "now"]

    def test_empty(self):
        assert C.tokenize("") == []

    def test_rating_and_category_tokens_atomic(self):
        assert C.tokenize("⟨4⟩ ⟨cat:TOOLS⟩") == ["⟨4⟩", "⟨cat:TOOLS⟩"]


class TestRatingToken:
    @pytest.mark.parametrize("rating,token", [(4, "⟨4⟩"), (1, "⟨1⟩"), (5, "⟨5⟩")])
    def test_valid(self, rating, token):
        assert C.rating_token(rating) == token

    @pytest.mark.parametrize("rating", [0, 6, -1])
    def test_invalid(self, rating):
        with pytest.raises(C.CorpusError):
            C.rating_token(rating)


class TestMidNgram:
    def test_exact_length(self):
        toks = list("abcde")
        assert C.mid_ngram(toks, 5) == tuple(toks)

    def test_midpoint_rule(self):
        assert C.mid_ngram(list("abcdefg"), 5) == tuple("bcdef")

    def test_too_short(self):
        assert C.mid_ngram(list("abc"), 5) is None


class TestSentenceSplit:
    def test_concatenation_is_identity(self):
        text = "Hi there. Second one! Third?  And a trailing tail"
        assert "".join(C.split_sentences(text)) == text

    def test_basic_split(self):
        got = C.split_sentences("one two. three four! five")
        assert [s.strip() for s in got] == ["one two.", "three four!", "five"]

    def test_decimal_not_split(self):
        assert len(C.split_sentences("version 1.5 is out")) == 1

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("ab .!?\n\t\x1c\xa0\u3000")), max_size=30)
           | st.text(max_size=20))
    def test_matches_the_scanning_split(self, text):
        """The one-regex split against the loop it replaced."""
        assert C.split_sentences(text) == split_sentences_by_scanning(text)


def split_sentences_by_scanning(text):
    """Each '.', '!' or '?' that whitespace or the end of string follows ends
    a piece, which takes the whitespace after it; the rest is the last piece."""
    pieces, start = [], 0
    for m in re.finditer(r"[.!?](?=\s|$)", text):
        end = m.end()
        while end < len(text) and text[end].isspace():
            end += 1
        pieces.append(text[start:end])
        start = end
    return pieces + ([text[start:]] if start < len(text) else [])


class TestAdReport:
    def test_empty_corpus(self, ad_cfg):
        assert C.ad_report([], ad_cfg).entries == []

    def test_planted_sentence_counted(self, ad_cfg):
        sent = "⟨app_name⟩ is a free phone cleaner which cleans junk"
        records = [C.ReviewRecord("a", "TOOLS", 5, "good", sent) for _ in range(10)]
        report = C.ad_report(records, ad_cfg)
        top = report.entries[0]
        assert top.count == 10
        assert top.expression == C.mid_ngram(C.tokenize(sent), 5)

    def test_threshold_flagging(self, ad_cfg):
        planted = "zeta eta theta iota kappa"
        records = []
        for i in range(100):
            if i < 7:
                resp = f"filler number {i} goes here first. {planted}."
            else:
                resp = f"unique reply text number {i} indeed"
            records.append(C.ReviewRecord("a", "TOOLS", 3, "r", resp))
        cfg7 = C.AdConfig(ad_flag_threshold=0.05)
        report = C.ad_report(records, cfg7)
        by_expr = {e.expression: e for e in report.entries}
        assert by_expr[tuple(planted.split())].flagged
        # 3 occurrences of a different 5-gram stay unflagged
        records2 = [C.ReviewRecord("a", "T", 3, "r", planted if i < 3 else f"some other response text {i}")
                    for i in range(100)]
        report2 = C.ad_report(records2, cfg7)
        assert not {e.expression: e for e in report2.entries}[tuple(planted.split())].flagged

    def test_counts_match_brute_force_rescan(self, ad_cfg):
        rng = random.Random(5)
        words = "red green blue gold pink onyx jade ruby".split()
        records = []
        for i in range(40):
            sents = [" ".join(rng.choice(words) for _ in range(rng.randint(2, 8))) + "."
                     for _ in range(rng.randint(1, 3))]
            records.append(C.ReviewRecord("a", "T", 1 + i % 5, "rev", " ".join(sents)))
        report = C.ad_report(records, ad_cfg)
        # independent recount
        recount = {}
        for rec in records:
            for sent in C.split_sentences(rec.response_text):
                toks = C.tokenize(sent)
                if len(toks) >= ad_cfg.ad_ngram_n:
                    start = (len(toks) - ad_cfg.ad_ngram_n) // 2
                    expr = tuple(toks[start:start + ad_cfg.ad_ngram_n])
                    recount[expr] = recount.get(expr, 0) + 1
        assert {e.expression: e.count for e in report.entries} == recount
        counts = [e.count for e in report.entries]
        assert counts == sorted(counts, reverse=True)


class TestFilterAds:
    def test_empty_blocklist_identity(self, ad_cfg):
        records = [C.ReviewRecord("a", "T", 3, "rev", "resp one. resp two.")]
        out = C.filter_ads(records, set(), ad_cfg)
        assert out[0].response_text == records[0].response_text

    def test_blocked_sentence_removed_others_byte_exact(self, ad_cfg):
        ad = "alpha beta gamma delta epsilon"
        resp = f"Thanks for  writing in! {ad}. We will FIX it soon."
        records = [C.ReviewRecord("a", "T", 3, "rev", resp)]
        out = C.filter_ads(records, {tuple(ad.split())}, ad_cfg)
        assert out[0].response_text == "Thanks for  writing in! We will FIX it soon."
        assert out[0].review_text == "rev"

    def test_record_dropped_when_response_empties(self, ad_cfg):
        ad = "alpha beta gamma delta epsilon"
        records = [C.ReviewRecord("a", "T", 3, "rev", f"{ad}.")]
        assert C.filter_ads(records, {tuple(ad.split())}, ad_cfg) == []

    def test_wrong_length_expression_rejected(self, ad_cfg):
        with pytest.raises(C.CorpusError):
            C.filter_ads([], {("too", "short")}, ad_cfg)


class TestVocabulary:
    def test_categories_present(self):
        records = [C.ReviewRecord("a", "TOOLS", 3, "x y", "z"),
                   C.ReviewRecord("a", "GAME", 4, "x", "y")]
        vocab = C.build_vocabulary(records, min_freq=1)
        assert "⟨cat:TOOLS⟩" in vocab.token_to_id
        assert "⟨cat:GAME⟩" in vocab.token_to_id

    def test_min_freq_cutoff(self):
        records = [C.ReviewRecord("a", "T", 3, "common common rare", "common")]
        vocab = C.build_vocabulary(records, min_freq=2)
        assert vocab.token_to_id.get("common", C.UNK_ID) != C.UNK_ID
        assert vocab.token_to_id.get("rare", C.UNK_ID) == C.UNK_ID

    @pytest.mark.parametrize("min_freq", [0, -3])
    def test_min_freq_below_one_rejected(self, min_freq):
        """A cut-off below 1 used to keep every token silently."""
        records = [C.ReviewRecord("a", "T", 3, "common rare", "common")]
        with pytest.raises(C.CorpusError, match=f"^min_freq must be >= 1, got {min_freq}$"):
            C.build_vocabulary(records, min_freq=min_freq)

    def test_bijection_round_trip(self):
        vocab = C.build_vocabulary(
            [C.ReviewRecord("a", "T", 3, "a b c d", "e f g")], min_freq=1)
        for tok, i in vocab.token_to_id.items():
            assert vocab.id_to_token[i] == tok
        ids = list(range(len(vocab)))
        assert [vocab.token_to_id[t] for t in vocab.decode(ids)] == ids

    def test_specials_at_fixed_ids(self):
        vocab = C.build_vocabulary([C.ReviewRecord("a", "T", 3, "x", "y")], min_freq=1)
        assert vocab.id_to_token[:4] == [C.PAD, C.UNK, C.SOS, C.EOS]
        assert [vocab.token_to_id[C.rating_token(r)] for r in range(1, 6)] == [4, 5, 6, 7, 8]

    def test_empty_corpus_specials_only(self):
        vocab = C.build_vocabulary([], min_freq=1)
        assert len(vocab) == 4 + 5 + len(C.PLACEHOLDER_TOKENS)

    def test_save_load_round_trip(self, tmp_path):
        vocab = C.build_vocabulary([C.ReviewRecord("a", "T", 3, "x y z", "w")], min_freq=1)
        path = tmp_path / "vocab.json"
        vocab.save(path)
        assert C.Vocabulary.load(path).id_to_token == vocab.id_to_token

    @pytest.mark.parametrize("tokens", [5, None, "⟨pad⟩", {"⟨pad⟩": 0},
                                        [C.PAD, C.UNK, C.SOS, C.EOS, 7],
                                        [C.PAD, C.UNK, C.SOS, C.EOS, ["x"]]])
    def test_anything_but_a_list_of_strings_rejected(self, tmp_path, tokens):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(tokens))
        with pytest.raises(C.CorpusError, match="JSON list of strings"):
            C.Vocabulary.load(path)


class TestEncodeRecord:
    def setup_method(self):
        self.records = [C.ReviewRecord("a", "TOOLS", 4, "great app works", "ok")]
        self.vocab = C.build_vocabulary(self.records, min_freq=1)
        self.cfg = C.PreprocessConfig()

    def test_target_wrapped_in_sos_eos(self):
        enc = C.encode_record(self.records[0], self.vocab, self.cfg)
        assert enc.tgt_ids[0] == C.SOS_ID and enc.tgt_ids[-1] == C.EOS_ID
        assert self.vocab.decode(enc.tgt_ids[1:-1]) == ["ok"]

    @pytest.mark.parametrize("limits", [{"max_review_tokens": 0}, {"max_review_tokens": -1},
                                        {"max_response_tokens": 1}])
    def test_token_limits_checked(self, limits):
        # a negative limit used to slice tokens off the end of the text
        with pytest.raises(C.CorpusError, match="max_review_tokens"):
            C.PreprocessConfig(**limits)

    def test_truncation(self):
        long_rec = C.ReviewRecord("a", "TOOLS", 4, " ".join(["w"] * 200), "ok")
        cfg = C.PreprocessConfig(max_review_tokens=60)
        vocab = C.build_vocabulary([long_rec], min_freq=1)
        assert len(C.encode_record(long_rec, vocab, cfg).src_ids) == 60

    def test_rating_mapped_to_escape_token(self):
        enc = C.encode_record(self.records[0], self.vocab, self.cfg)
        assert enc.rating_id == self.vocab.token_to_id["⟨4⟩"]

    def test_unknown_category_rejected(self):
        rec = C.ReviewRecord("a", "NOPE", 4, "great", "ok")
        with pytest.raises(C.CorpusError):
            C.encode_record(rec, self.vocab, self.cfg)

    def encode(self, review, response):
        records = [C.ReviewRecord("a", "GAME", 3, "thanks bye", "thanks bye"),
                   C.ReviewRecord("a", "TOOLS", 4, review, response)]
        vocab = C.build_vocabulary(records, min_freq=1)
        return C.encode_record(records[1], vocab, self.cfg), vocab

    def test_special_tokens_in_response_read_as_unk(self):
        enc, vocab = self.encode("fine", "thanks ⟨eos⟩ ⟨pad⟩ bye")
        ids = vocab.token_to_id
        assert enc.tgt_ids == [C.SOS_ID, ids["thanks"], C.UNK_ID, C.UNK_ID, ids["bye"],
                               C.EOS_ID]

    def test_sos_rating_and_category_in_review_read_as_unk(self):
        enc, vocab = self.encode("⟨sos⟩ ⟨3⟩ ⟨cat:GAME⟩ ⟨cat:NOPE⟩ ⟨5⟩", "ok")
        assert enc.src_ids == [C.UNK_ID] * 5
        assert (enc.rating_id, enc.category_id) == (vocab.token_to_id["⟨4⟩"],
                                                    vocab.token_to_id["⟨cat:TOOLS⟩"])

    def test_every_rating_token_in_text_read_as_unk(self):
        text = " ".join(C.RATING_TOKENS.values())
        enc, _ = self.encode(text, text)
        assert enc.src_ids == [C.UNK_ID] * 5 and enc.tgt_ids[1:-1] == [C.UNK_ID] * 5

    def test_placeholders_keep_their_ids(self):
        text = " ".join(C.PLACEHOLDER_TOKENS)
        enc, vocab = self.encode(text, text)
        expected = [vocab.token_to_id[t] for t in C.PLACEHOLDER_TOKENS]
        assert C.UNK_ID not in expected
        assert enc.src_ids == expected and enc.tgt_ids[1:-1] == expected

    def test_category_token_in_text_is_not_a_vocabulary_category(self):
        _, vocab = self.encode("⟨cat:FAKE⟩ ⟨cat:FAKE⟩", "⟨cat:FAKE⟩")
        assert vocab.categories == ["GAME", "TOOLS"]
        assert "⟨cat:FAKE⟩" not in vocab.token_to_id


class TestLoadCorpus:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [{"app_name": "a", "category": "T", "rating": r,
                 "review": f"rev {r}", "response": f"resp {r}"} for r in (1, 3, 5)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records = C.load_corpus(path)
        assert len(records) == 3
        assert [r.rating for r in records] == [1, 3, 5]

    def test_rating_out_of_range(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for rating in (7, 4.7, True, 4.0, "4"):
            path.write_text(json.dumps({"app_name": "a", "category": "T", "rating": rating,
                                        "review": "x", "response": "y"}) + "\n")
            with pytest.raises(C.CorpusError, match="bad.jsonl:1: rating"):
                C.load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"app_name": "a", "category": "T", "rating": 3,
                           "review": "x", "response": "y"})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(C.CorpusError, match=":2"):
            C.load_corpus(path)

    @pytest.mark.parametrize("field,value", [("review", None), ("review", 12345),
                                             ("response", None), ("response", ["y"]),
                                             ("category", 7), ("app_name", None)])
    def test_text_field_must_be_a_string(self, tmp_path, field, value):
        """Not the text "none" or "12345": a JSON null or number is no review."""
        good = {"app_name": "a", "category": "T", "rating": 3, "review": "x", "response": "y"}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        message = f"bad.jsonl:2: {field} must be a string, got {value!r}"
        with pytest.raises(C.CorpusError, match=re.escape(message) + "$"):
            C.load_corpus(path)

    def test_tsv(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("app\tTOOLS\t4\tnice one\tthanks\n")
        records = C.load_corpus(path, "tsv")
        assert records[0].category == "TOOLS" and records[0].rating == 4

    @pytest.mark.parametrize("review", ["⟨⟩", " ⟨ ⟩⟩ ", "\u00a0", "   "])
    def test_review_without_tokens_rejected(self, tmp_path, review):
        """A review must give the encoder at least one token; "⟨⟩" is not blank,
        but no token pattern matches it."""
        good = json.dumps({"app_name": "a", "category": "T", "rating": 3,
                           "review": "fine", "response": "y"})
        bad = json.dumps({"app_name": "a", "category": "T", "rating": 3,
                          "review": review, "response": "y"}, ensure_ascii=False)
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(C.CorpusError, match="^.*bad.jsonl:2: review text has no tokens$"):
            C.load_corpus(path)
        path = tmp_path / "bad.tsv"
        path.write_text(f"app\tT\t3\t{review}\ty\n", encoding="utf-8")
        with pytest.raises(C.CorpusError, match="bad.tsv:1: review text has no tokens"):
            C.load_corpus(path, "tsv")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["", " ", "a b", "\t", "\r", "\r\n", "\n", "\u2028", "\x0b",
                                 "\x85", "⟨x⟩"]), max_size=12).map("".join))
def test_read_lines_are_the_text_mode_lines(text):
    """`read_lines` yields the non-blank lines, and their numbers, that
    iterating the file in text mode gives: only \\n, \\r\\n and \\r end a line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lines.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, encoding="utf-8") as fh:
            want = [(f"{path}:{n}", line.rstrip("\n"))
                    for n, line in enumerate(fh, start=1) if line.strip()]
        assert list(C.read_lines(path)) == want


class TestSplitCorpus:
    def make(self, n):
        return [C.ReviewRecord("a", "T", 1 + i % 5, f"rev {i}", f"resp {i}")
                for i in range(n)]

    def test_sizes(self):
        train, valid, test = C.split_corpus(self.make(100), seed=0)
        assert (len(train), len(valid), len(test)) == (80, 10, 10)

    def test_deterministic(self):
        records = self.make(50)
        a = C.split_corpus(records, seed=7)
        b = C.split_corpus(records, seed=7)
        assert a == b

    def test_partition_disjoint_exhaustive(self):
        records = self.make(53)
        train, valid, test = C.split_corpus(records, seed=3)
        ids = lambda rs: {r.review_text for r in rs}
        assert ids(train) | ids(valid) | ids(test) == ids(records)
        assert not ids(train) & ids(valid)
        assert not ids(train) & ids(test)
        assert not ids(valid) & ids(test)
        assert len(train) + len(valid) + len(test) == 53

    def test_bad_ratios(self):
        with pytest.raises(C.CorpusError):
            C.split_corpus(self.make(10), 0, (0.5, 0.4, 0.2))
        with pytest.raises(C.CorpusError, match="must sum to 1"):  # NaN compares false
            C.split_corpus(self.make(10), 0, (float("nan"), 0.1, 0.1))
        with pytest.raises(C.CorpusError, match=r"must each lie in \[0, 1\]"):
            C.split_corpus(self.make(100), 0, (-0.5, 0.3, 1.2))
        with pytest.raises(C.CorpusError):
            C.split_corpus(self.make(3), 0, (0.9, 0.05, 0.05))


FIELD_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(0, 6),
                         st.floats(), st.text(max_size=12), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
RECORD_KEYS = ("app_name", "category", "rating", "review", "response")
JSONL_LINES = st.one_of(
    st.fixed_dictionaries({}, optional={k: FIELD_VALUES for k in RECORD_KEYS}).map(json.dumps),
    st.fixed_dictionaries({**{k: st.text(max_size=12) for k in RECORD_KEYS},
                           "rating": FIELD_VALUES}).map(json.dumps),
    FIELD_VALUES.map(json.dumps),
    st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=40))


@settings(max_examples=300, deadline=None)
@given(JSONL_LINES)
@example(json.dumps({"app_name": "a", "category": "T", "rating": 3, "review": "⟨⟩"}))
def test_any_jsonl_line_loads_or_raises_corpus_error(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        try:
            records = C.load_corpus(path)
        except C.CorpusError as exc:
            assert str(exc).startswith(f"{path}:1: ") and "\n" not in str(exc)
        else:
            assert len(records) == (1 if line.strip() else 0)
            for rec in records:
                rec.validate()
                # the encoder gets at least one review token
                vocab = C.build_vocabulary([rec], min_freq=1)
                assert C.encode_record(rec, vocab, C.PreprocessConfig()).src_ids
