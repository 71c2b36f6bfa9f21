import re

import pytest
from hypothesis import given, settings, strategies as st

from rulefst.errors import DataError
from rulefst.text import (
    EMOJI_NAMES,
    EOS_ID,
    PLACEHOLDERS,
    SEP,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    normalize_tweet,
    reserved_token_error,
    tokenize,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Im a big intro actually") == ["im", "a", "big", "intro", "actually"]


def test_tokenize_splits_punctuation():
    assert tokenize("u ok?") == ["u", "ok", "?"]
    assert tokenize("well... fine!!") == ["well", ".", ".", ".", "fine", "!", "!"]


def test_tokenize_preserves_placeholders():
    assert tokenize("@USER lol HTTPURL") == ["@USER", "lol", "HTTPURL"]


def test_tokenize_preserves_sep():
    assert tokenize("u ok [SEP] you ok") == ["u", "ok", "[SEP]", "you", "ok"]


def test_tokenize_splits_the_other_reserved_tokens_like_any_bracketed_word():
    assert tokenize("hi [EOS] there [PAD]") == ["hi", "[", "eos", "]", "there", "[", "pad", "]"]


def test_normalize_tweet_mentions_and_urls():
    assert normalize_tweet("@bob hi") == "@USER hi"
    assert normalize_tweet("see https://a.b/c") == "see HTTPURL"
    assert normalize_tweet("see www.example.com now") == "see HTTPURL now"
    assert tokenize(normalize_tweet("@bob, hi")) == ["@USER", ",", "hi"]
    assert normalize_tweet("see https://a.b/c.") == "see HTTPURL ."
    assert "@USER" not in normalize_tweet("mail me@example.com")


def test_normalize_tweet_emoji():
    assert normalize_tweet("so happy \U0001f602") == "so happy face_with_tears_of_joy"


def test_normalize_tweet_plain_text_unchanged():
    assert normalize_tweet("nothing special here") == "nothing special here"


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=80))
def test_tokenize_reads_its_space_joined_output_back(s):
    tokens = tokenize(s)
    assert tokenize(" ".join(tokens)) == tokens
    stripped = "".join(" ".join(tokens).split())
    # Placeholders keep their casing; everything else lowercases.
    expected = "".join(tokenize(s)) if tokens else ""
    assert stripped == expected


# ---- mentions, e-mail addresses and URLs beside punctuation ------------------

ALNUM = st.text(alphabet="abcXYZ019", min_size=1, max_size=5)
MENTION_NAME = st.text(alphabet="abcXYZ019_", min_size=1, max_size=6)
OPENING = st.sampled_from(["", "(", '"', "'"])
FOLLOWING = st.text(alphabet=".,!?;:'\")-", max_size=3)
URL_CLOSING = st.text(alphabet=".,!?;:", min_size=1, max_size=3)
URLS = st.tuples(
    st.sampled_from(["http://", "https://", "www."]),
    st.lists(st.tuples(ALNUM, st.sampled_from("./-")), max_size=3).map(lambda parts: "".join(a + b for a, b in parts)),
    ALNUM,
).map("".join)
EMAILS = st.tuples(MENTION_NAME, ALNUM, ALNUM).map(lambda p: f"{p[0]}@{p[1]}.{p[2]}")


@given(st.lists(st.one_of(ALNUM.map(lambda w: ("word", w)),
                          st.tuples(OPENING, MENTION_NAME, FOLLOWING).map(lambda m: ("mention", m))),
                max_size=8))
def test_every_mention_is_one_user_token_whatever_punctuation_follows(items):
    chunks, expected = [], []
    for kind, item in items:
        if kind == "word":
            chunks.append(item)
            expected.append(item.lower())
        else:
            opening, name, following = item
            chunks.append(f"{opening}@{name}{following}")
            expected += [*opening, "@USER", *following]
    assert tokenize(normalize_tweet(" ".join(chunks))) == expected


@given(EMAILS, FOLLOWING)
def test_an_email_address_yields_no_user_token(email, following):
    out = normalize_tweet(f"mail {email}{following} or @bob")
    assert out.count("@USER") == 1 and email in out


@given(URLS, URL_CLOSING, st.booleans())
def test_punctuation_after_a_url_survives(url, closing, more):
    tail = " now" if more else ""
    assert normalize_tweet(f"see {url}{closing}{tail}") == f"see HTTPURL {closing}{tail}"


@given(st.lists(st.one_of(ALNUM, URLS, EMAILS, st.sampled_from(sorted(EMOJI_NAMES)),
                          st.tuples(OPENING, MENTION_NAME, FOLLOWING).map(lambda m: f"{m[0]}@{m[1]}{m[2]}"),
                          st.sampled_from(".,!?;:@")),
                max_size=10),
       st.lists(st.sampled_from(["", " ", "  "]), min_size=10, max_size=10))
def test_normalizing_twice_changes_nothing(pieces, gaps):
    once = normalize_tweet("".join(p + g for p, g in zip(pieces, gaps)))
    assert normalize_tweet(once) == once


# ---- oracles for the fast paths --------------------------------------------
#
# The plain one-regex-call-per-chunk tokenizer and the always-scan normalizer
# that `tokenize` and `normalize_tweet` must equal, with their own regexes.

_REF_MENTION_RE = re.compile(r"(?<![\w@])@\w+(?![\w@])")
_REF_URL_RE = re.compile(r"(https?://|www\.)(\S*)")
_REF_WORD_OR_PUNCT = re.compile(r"\w+|[^\w\s]")


def _reference_url(m):
    """A URL less the closing run of `.,!?;:`, which stays; none if nothing
    is left after the scheme."""
    body = m.group(2)
    kept = body.rstrip(".,!?;:")
    return " HTTPURL " + body[len(kept):] if kept else m.group(0)


def reference_tokenize(s):
    out = []
    for chunk in s.split():
        if chunk in PLACEHOLDERS:
            out.append(chunk)
        else:
            out.extend(_REF_WORD_OR_PUNCT.findall(chunk.lower()))
    return out


def reference_normalize_tweet(s):
    s = _REF_URL_RE.sub(_reference_url, s)
    s = _REF_MENTION_RE.sub(" @USER ", s)
    for emoji in sorted(EMOJI_NAMES, key=len, reverse=True):
        if emoji in s:
            s = s.replace(emoji, " " + EMOJI_NAMES[emoji] + " ")
    return " ".join(s.split())


SKIN_TONE = "\U0001f3fd"  # medium skin tone modifier
PIECES = (
    # placeholders and reserved tokens alone and glued to punctuation, and look-alikes
    *sorted(PLACEHOLDERS | set(SPECIAL_TOKENS)), "@USER!", "([SEP])", "[EOS].", "@user", "httpurl", "[sep]",
    # what the URL and mention steps look for
    "@bob", "@", "http://a.b/c", "https://", "http", "www.", "www.x", "WWW.X",
    # `_`, digits and numerals that are \w but not letters
    "_", "a_b", "x2", "½", "٣", "2day",
    # whitespace that str.split sees
    " ", "\t", "\n", "\xa0", "\x1c", "\u2028", "\u3000",
    # casing with context or length changes
    "İstanbul", "ΟΔΟΣ", "aΣ", "Σ", "ß", "ǅ", "\u212a", "ﬃ", "e\u0301", "\u0301", "Σ\u0301",
    # punctuation and symbols
    "!", "?", ".", "'", ":", "-", "$", SKIN_TONE,
    # every emoji key bare, with U+FE0F and with a skin-tone modifier
    *EMOJI_NAMES, *(e + "\ufe0f" for e in EMOJI_NAMES), *(e + SKIN_TONE for e in EMOJI_NAMES),
)
TWEETS = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8"), max_size=80),
    st.lists(st.one_of(st.sampled_from(PIECES), st.text(alphabet=st.characters(codec="utf-8"), max_size=3)),
             max_size=16).map("".join),
)


@pytest.mark.parametrize("f, reference", [(tokenize, reference_tokenize),
                                          (normalize_tweet, reference_normalize_tweet)])
def test_fast_paths_equal_the_reference_on_every_pair_of_pieces(f, reference):
    for a in PIECES:
        for b in PIECES:
            assert f(a + b) == reference(a + b), (a, b)


@settings(max_examples=500)
@given(TWEETS)
def test_no_tweet_tokenizes_to_a_reserved_token_other_than_sep(s):
    """[PAD], [BOS] and [EOS] would break batching and decoding, and [UNK]
    means something else, so raw text never yields them."""
    assert not set(tokenize(normalize_tweet(s))) & (set(SPECIAL_TOKENS) - {SEP})


@settings(max_examples=2000)
@given(TWEETS)
def test_tokenize_and_normalize_tweet_equal_the_reference_and_normalizing_is_idempotent(s):
    assert tokenize(s) == reference_tokenize(s)
    once = normalize_tweet(s)
    assert once == reference_normalize_tweet(s)
    assert normalize_tweet(once) == once
    assert tokenize(once) == reference_tokenize(once)


def test_encode_decode_round_trip():
    vocab = build_vocab([["hello", "world", "hello"]])
    tokens = ["hello", "world"]
    assert vocab.decode(vocab.encode(tokens)) == tokens


def test_decode_out_of_range_raises():
    vocab = build_vocab([["a"]])
    with pytest.raises(DataError):
        vocab.decode([len(vocab)])


def test_encode_empty_sequence_allowed():
    vocab = build_vocab([["a"]])
    assert vocab.encode([]) == []


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", *SPECIAL_TOKENS]), max_size=6), max_size=30))
def test_vocab_is_the_specials_plus_every_distinct_token(corpus):
    vocab = build_vocab(corpus)
    others = {t for sent in corpus for t in sent} - set(SPECIAL_TOKENS)
    assert vocab.tokens[: len(SPECIAL_TOKENS)] == SPECIAL_TOKENS
    assert sorted(vocab.tokens[len(SPECIAL_TOKENS) :]) == sorted(others)


def test_vocab_reserved_ids_fixed():
    vocab = build_vocab([["z"]])
    for i, tok in enumerate(SPECIAL_TOKENS):
        assert vocab.tokens[i] == tok
        assert vocab.encode([tok]) == [i]


def test_id_5_is_the_first_content_id_and_legal_in_a_sentence():
    """[SEP] and [UNK] may appear, and so may id 5, the first id after the
    five reserved tokens; [EOS] and an id outside the vocabulary may not."""
    assert SPECIAL_TOKENS == ("[PAD]", "[BOS]", "[EOS]", "[SEP]", "[UNK]")
    assert build_vocab([["z"]]).encode(["z"]) == [5]
    assert reserved_token_error([SEP_ID, UNK_ID, 5], 6) is None
    assert reserved_token_error([5, EOS_ID], 6) == "position 1 holds the reserved token [EOS]"
    assert reserved_token_error([5, 6], 6) == "id 6 at position 1 is outside the vocabulary 0..5"


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab([["gamma", "alpha", "beta", "alpha"]])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert Vocabulary.load(path) == vocab


@pytest.mark.parametrize("token", ["", "x\ny", "x\ry"])
def test_build_vocab_refuses_a_token_that_would_not_read_back(token):
    message = rf"token {re.escape(repr(token))} at id {len(SPECIAL_TOKENS) + 1} is empty or holds a line break"
    with pytest.raises(DataError, match=message):
        build_vocab([["a", "a", token]])


def test_vocab_load_refuses_a_blank_line_between_tokens(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join([*SPECIAL_TOKENS, "a", "", "b"]) + "\n", encoding="utf-8")
    message = f"{path}: token '' at id {len(SPECIAL_TOKENS) + 1} is empty or holds a line break"
    with pytest.raises(DataError, match=re.escape(message)):
        Vocabulary.load(path)


def test_vocab_load_refuses_a_file_without_the_reserved_tokens(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: vocabulary must start with the reserved tokens")):
        Vocabulary.load(path)


def test_vocab_load_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes("\n".join(SPECIAL_TOKENS).encode("utf-8") + b"\n\xff\xfe\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not valid UTF-8: ")):
        Vocabulary.load(path)


def test_vocab_deterministic_order():
    a = build_vocab([["x", "y", "x", "z"]])
    b = build_vocab([["x", "y", "x", "z"]])
    assert a.tokens == b.tokens
    assert a.tokens[len(SPECIAL_TOKENS)] == "x"  # most frequent first
