"""Corpus ingestion, normalization, vocabulary and encoding.

Dataset files are UTF-8 JSON-Lines (keys: app_name, category, rating, review,
response) or TSV with the same five columns in that order. Variable surface
text (emails, URLs, user handles) is replaced by placeholder tokens such as
⟨email⟩ so it cannot blow up the vocabulary.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, replace

PAD, UNK, SOS, EOS = "⟨pad⟩", "⟨unk⟩", "⟨sos⟩", "⟨eos⟩"
PAD_ID, UNK_ID, SOS_ID, EOS_ID = 0, 1, 2, 3

RATING_TOKENS = {r: f"⟨{r}⟩" for r in range(1, 6)}
PLACEHOLDER_TOKENS = ["⟨email⟩", "⟨url⟩", "⟨app_name⟩", "⟨user_name⟩"]
# Tokens that only `encode_record` places; spelled in review or response text
# they are read as ⟨unk⟩, like any ⟨cat:…⟩ token (see `is_control`).
CONTROL_TOKENS = {PAD, SOS, EOS, *RATING_TOKENS.values()}

# The PII patterns `normalize_text` rewrites, in order. App names cannot be
# detected generically, so ⟨app_name⟩ is reserved and no rule produces it.
PLACEHOLDER_RULES = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "⟨email⟩"),
    (r"(?:https?://|www\.)[^\s]+", "⟨url⟩"),
    (r"@[A-Za-z0-9_]+", "⟨user_name⟩"),
)

_TOKEN_RE = re.compile(r"⟨[^⟨⟩\s]+⟩|[A-Za-z0-9_']+|[^\sA-Za-z0-9_'⟨⟩]")


class CorpusError(ValueError):
    pass


def check_fields(settings, error, rules):
    """Raise `error` for the first `(name, ok, rule)` not `ok`, naming the value in `settings`."""
    for name, ok, rule in rules:
        if not ok:
            raise error(f"{name} must be {rule}, got {getattr(settings, name)!r}")


@dataclass
class ReviewRecord:
    """One (app, category, rating, review, response) tuple."""

    app_name: str
    category: str
    rating: int
    review_text: str
    response_text: str = ""

    def validate(self, where: str = "record"):
        # `type` and not `isinstance`: JSON true is a bool, and bool is an int
        if type(self.rating) is not int or not 1 <= self.rating <= 5:
            raise CorpusError(f"{where}: rating must be an integer in [1,5], "
                              f"got {self.rating!r}")
        for key, text in (("app_name", self.app_name), ("category", self.category),
                          ("review", self.review_text), ("response", self.response_text)):
            if type(text) is not str:
                raise CorpusError(f"{where}: {key} must be a string, got {text!r}")
        if not tokenize(self.review_text):  # blank, or only ⟨ and ⟩, as in "⟨⟩"
            raise CorpusError(f"{where}: review text has no tokens")


@dataclass
class PreprocessConfig:
    lowercase: bool = True
    max_review_tokens: int = 100
    max_response_tokens: int = 120

    def __post_init__(self):
        check_fields(self, CorpusError, [
            ("max_review_tokens", self.max_review_tokens >= 1, ">= 1"),
            ("max_response_tokens", self.max_response_tokens >= 2, ">= 2")])


@dataclass
class AdConfig:
    """The mid n-gram length, and the share of responses `ad_report` flags at."""

    ad_ngram_n: int = 5
    ad_flag_threshold: float = 0.005

    def __post_init__(self):
        check_fields(self, CorpusError, [
            ("ad_ngram_n", self.ad_ngram_n >= 1, ">= 1"),
            ("ad_flag_threshold", 0.0 < self.ad_flag_threshold <= 1.0, "in (0, 1]")])


@dataclass
class NgramEntry:
    expression: tuple[str, ...]
    count: int
    flagged: bool


@dataclass
class NgramReport:
    entries: list[NgramEntry]

    def to_tsv(self) -> str:
        """One `count<TAB>expression<TAB>flagged` line per entry; flagged is 1 or 0."""
        return "".join(f"{e.count}\t{' '.join(e.expression)}\t{int(e.flagged)}\n"
                       for e in self.entries)


# ---------------------------------------------------------------------------
# loading


def read_text(path) -> str:
    """The UTF-8 text of file `path`, less a leading byte-order mark, with universal
    newlines; a byte that is not UTF-8 is a CorpusError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:  # its offsets index `exc.object`, the bytes after the mark
        line = len(re.split(rb"\r\n?|\n", exc.object[:exc.start]))
        raise CorpusError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_lines(path):
    """(`path:line`, line) for each non-blank line of file `path`, from line 1."""
    return ((f"{path}:{n}", line) for n, line in enumerate(read_text(path).split("\n"), start=1)
            if line.strip())


def parse_json(text: str, where: str):
    """The JSON value `text`; malformed JSON is a CorpusError naming `where`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax or digits; nesting too deep
        raise CorpusError(f"{where}: malformed JSON ({exc})") from None


def load_corpus(path, fmt: str = "jsonl") -> list[ReviewRecord]:
    """Read one record per line, preserving order; raises on the first bad line."""
    if fmt not in ("jsonl", "tsv"):
        raise CorpusError(f"unknown corpus format {fmt!r}")
    records = []
    for where, line in read_lines(path):
        if fmt == "jsonl":
            obj = parse_json(line, where)
            try:
                rec = ReviewRecord(obj["app_name"], obj["category"], obj["rating"],
                                   obj["review"], obj.get("response", ""))
            except (KeyError, TypeError) as exc:
                raise CorpusError(f"{where}: bad record ({exc})") from None
        else:
            cols = line.split("\t")
            if len(cols) != 5:
                raise CorpusError(f"{where}: expected 5 tab-separated columns, got {len(cols)}")
            try:
                rating = int(cols[2])
            except ValueError:
                raise CorpusError(f"{where}: non-integer rating {cols[2]!r}") from None
            rec = ReviewRecord(cols[0], cols[1], rating, cols[3], cols[4])
        rec.validate(where)
        records.append(rec)
    return records


def save_corpus(records: list[ReviewRecord], path):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"app_name": r.app_name, "category": r.category,
                                 "rating": r.rating, "review": r.review_text,
                                 "response": r.response_text}, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# normalization and tokenization


def normalize_text(text: str, config: PreprocessConfig) -> str:
    """Replace PII-like spans with placeholder tokens; optionally lowercase.

    Lowercasing runs first so the rules see canonical text; the function is
    idempotent because placeholder tokens never re-match any rule.
    """
    if config.lowercase:
        text = text.lower()
    for pattern, token in PLACEHOLDER_RULES:
        text = re.sub(pattern, token, text)
    return text


def normalize_corpus(records: list[ReviewRecord], config: PreprocessConfig) -> list[ReviewRecord]:
    return [ReviewRecord(r.app_name, r.category, r.rating,
                         normalize_text(r.review_text, config),
                         normalize_text(r.response_text, config))
            for r in records]


def rating_token(rating: int) -> str:
    if rating not in RATING_TOKENS:
        raise CorpusError(f"rating must be in [1,5], got {rating!r}")
    return RATING_TOKENS[rating]


def category_token(category: str) -> str:
    return f"⟨cat:{category}⟩"


def is_control(token: str) -> bool:
    return token in CONTROL_TOKENS or token.startswith("⟨cat:")


def tokenize(text: str) -> list[str]:
    """Whitespace split with punctuation isolated; ⟨…⟩ placeholders stay atomic."""
    return _TOKEN_RE.findall(text)


# ---------------------------------------------------------------------------
# advertisement-sentence detection


# Text up to a '.', '!' or '?' that whitespace or the end of string follows,
# with the whitespace after it; or the text after the last such mark.
_SENTENCE = re.compile(r"(?:[^.!?]+|[.!?](?!\s|$))*(?:[.!?]\s*|$)")


def split_sentences(text: str) -> list[str]:
    """Split after each sentence end; the pieces join to the input, byte for byte."""
    return [piece for piece in _SENTENCE.findall(text) if piece]


def mid_ngram(sentence_tokens: list[str], n: int) -> tuple[str, ...] | None:
    """The n (>= 1) consecutive tokens from floor((len-n)/2), or None if too short."""
    if len(sentence_tokens) < n:
        return None
    start = (len(sentence_tokens) - n) // 2
    return tuple(sentence_tokens[start:start + n])


def ad_report(records: list[ReviewRecord], config: AdConfig) -> NgramReport:
    """Rank the mid n-grams of all response sentences by corpus frequency.

    Entries with count >= ad_flag_threshold * |responses| are flagged for
    human review; removal itself is driven by a curated blocklist.
    """
    responses = [r.response_text for r in records if r.response_text.strip()]
    exprs = (mid_ngram(tokenize(sent), config.ad_ngram_n)
             for text in responses for sent in split_sentences(text))
    counts = Counter(expr for expr in exprs if expr is not None)
    cutoff = config.ad_flag_threshold * len(responses)
    return NgramReport([NgramEntry(expr, c, c >= cutoff) for expr, c in counts.most_common()])


def filter_ads(records: list[ReviewRecord], blocklist: set[tuple[str, ...]],
               config: AdConfig) -> list[ReviewRecord]:
    """Delete response sentences whose mid n-gram is blocklisted.

    Unblocked sentences pass through byte-exact; records whose response
    becomes empty are dropped. Review text is never touched.
    """
    for expr in blocklist:
        if len(expr) != config.ad_ngram_n:
            raise CorpusError(f"blocklist expression {expr} does not have {config.ad_ngram_n} tokens")
    out = []
    for rec in records:
        kept = [s for s in split_sentences(rec.response_text)
                if mid_ngram(tokenize(s), config.ad_ngram_n) not in blocklist]
        response = "".join(kept)
        if rec.response_text.strip() and not response.strip():
            continue
        out.append(replace(rec, response_text=response))
    return out


def load_blocklist(path) -> set[tuple[str, ...]]:
    return {tuple(line.split()) for _, line in read_lines(path)}


# ---------------------------------------------------------------------------
# vocabulary


class Vocabulary:
    """Bijective token <-> id map with reserved specials at fixed ids."""

    def __init__(self, tokens: list[str]):
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError("vocabulary must be a JSON list of strings")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("duplicate token in vocabulary")
        for tok, i in ((PAD, PAD_ID), (UNK, UNK_ID), (SOS, SOS_ID), (EOS, EOS_ID)):
            if self.token_to_id.get(tok) != i:
                raise CorpusError(f"special token {tok} missing or misplaced")

    def __len__(self):
        return len(self.id_to_token)

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    @property
    def categories(self) -> list[str]:
        return [t[5:-1] for t in self.id_to_token
                if t.startswith("⟨cat:") and t.endswith("⟩")]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.id_to_token, fh, ensure_ascii=False, indent=0)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        tokens = parse_json(read_text(path), path)
        try:
            return cls(tokens)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None


def build_vocabulary(records: list[ReviewRecord], min_freq: int = 2) -> Vocabulary:
    """Shared source/target vocabulary over normalized, tokenized records.

    Specials, rating tokens, placeholders and one ⟨cat:NAME⟩ per observed
    category are always included; other tokens need corpus frequency >=
    min_freq, and control tokens spelled in text are never added. Corpus
    tokens are ordered by frequency (ties alphabetically) so construction is
    deterministic.
    """
    if min_freq < 1:  # a lower cut-off would keep every token, as 1 does
        raise CorpusError(f"min_freq must be >= 1, got {min_freq!r}")
    freq: Counter = Counter()
    categories = set()
    for rec in records:
        categories.add(rec.category)
        freq.update(tokenize(rec.review_text))
        freq.update(tokenize(rec.response_text))

    tokens = [PAD, UNK, SOS, EOS]
    tokens += [RATING_TOKENS[r] for r in range(1, 6)]
    tokens += PLACEHOLDER_TOKENS
    tokens += [category_token(c) for c in sorted(categories)]
    reserved = set(tokens)
    body = sorted((t for t, c in freq.items()
                   if c >= min_freq and t not in reserved and not is_control(t)),
                  key=lambda t: (-freq[t], t))
    return Vocabulary(tokens + body)


@dataclass
class EncodedRecord:
    src_ids: list[int]
    tgt_ids: list[int]  # ⟨sos⟩ ... ⟨eos⟩
    rating_id: int
    category_id: int


def _text_ids(text: str, vocab: Vocabulary, limit: int) -> list[int]:
    """Ids of the first `limit` tokens of `text`, control tokens read as ⟨unk⟩."""
    get = vocab.token_to_id.get  # bound once, not looked up per token
    return [UNK_ID if t[0] == "⟨" and is_control(t) else get(t, UNK_ID)
            for t in tokenize(text)[:limit]]


def encode_record(record: ReviewRecord, vocab: Vocabulary,
                  config: PreprocessConfig) -> EncodedRecord:
    cat_tok = category_token(record.category)
    if cat_tok not in vocab.token_to_id:
        raise CorpusError(f"unknown category {record.category!r}")
    src = _text_ids(record.review_text, vocab, config.max_review_tokens)
    resp = _text_ids(record.response_text, vocab, config.max_response_tokens - 2)
    return EncodedRecord(src_ids=src,
                         tgt_ids=[SOS_ID] + resp + [EOS_ID],
                         rating_id=vocab.token_to_id[rating_token(record.rating)],
                         category_id=vocab.token_to_id[cat_tok])


# ---------------------------------------------------------------------------
# splitting


def check_split_ratios(ratios: tuple[float, float, float]):
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # `not <=`, so a NaN ratio fails too
        raise CorpusError(f"split ratios must sum to 1, got {ratios}")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise CorpusError(f"split ratios must each lie in [0, 1], got {ratios}")


def split_corpus(records: list[ReviewRecord], seed: int,
                 ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)):
    """Seed-deterministic shuffle into disjoint, exhaustive (train, valid, test)."""
    check_split_ratios(ratios)
    idx = list(range(len(records)))
    random.Random(seed).shuffle(idx)
    n = len(records)
    n_train = int(ratios[0] * n)
    n_valid = int(ratios[1] * n)
    train = [records[i] for i in idx[:n_train]]
    valid = [records[i] for i in idx[n_train:n_train + n_valid]]
    test = [records[i] for i in idx[n_train + n_valid:]]
    if not (train and valid and test):
        raise CorpusError(f"split ratios {ratios} produce an empty split for {n} records")
    return train, valid, test
