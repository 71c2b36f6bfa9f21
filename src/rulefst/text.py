"""Tokenization, tweet normalization and vocabulary handling.

Everything downstream (rule matching, serialization, the model) works on the
token sequences produced here, so scores are only comparable within this
toolkit.
"""

from __future__ import annotations

import hashlib
import numbers
import re
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError

PAD, BOS, EOS, SEP, UNK = "[PAD]", "[BOS]", "[EOS]", "[SEP]", "[UNK]"
SPECIAL_TOKENS = (PAD, BOS, EOS, SEP, UNK)
PAD_ID, BOS_ID, EOS_ID, SEP_ID, UNK_ID = range(5)

# Tokens that survive tokenization verbatim (case preserved, never split).
# Of the reserved tokens only [SEP], which the serializers insert, is one:
# raw text that spells [EOS] or [PAD] is split like any bracketed word.
PLACEHOLDERS = frozenset({"@USER", "HTTPURL", SEP})


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 file at `path`, each without its line break and
    the first without a leading byte-order mark; a file that is not UTF-8
    raises DataError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return [line.rstrip("\n") for line in f]
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not valid UTF-8: {e}") from None


def check_tokens(name: str, tokens: Sequence[str]) -> None:
    """Raise DataError naming `name` unless `tokens` is a token sequence: a
    sized iterable of `str` instances (subclasses such as `numpy.str_` too)
    that is not itself a string. A string is refused since its characters
    would be taken for tokens, an iterator since this check would use it up,
    and a token that is not a string by its position ("x: token 1 at position
    0 is not a string"). The usual case costs one C-level pass, `str.join`'s."""
    if isinstance(tokens, str):
        raise DataError(f"{name} is a string, not a token sequence")
    try:
        len(tokens)
        "".join(tokens)
    except TypeError:
        for j, t in enumerate(tokens if isinstance(tokens, Collection) else ()):
            if not isinstance(t, str):
                raise DataError(f"{name}: token {t!r} at position {j} is not a string") from None
        raise DataError(f"{name}: {type(tokens).__name__} is not a token sequence") from None


def reserved_token_error(ids: Sequence[int], vocab_size: int) -> str | None:
    """The complaint about the first id in `ids` that no sentence given to
    the model may hold, or None if there is none: a bool or any other
    non-integer, "id X at position j is not an integer", an id outside the
    vocabulary, "id X at position j is outside the vocabulary 0..V-1", or a
    [PAD], [BOS] or [EOS] (ids 0..EOS_ID), "position j holds the reserved
    token X". These three give batches and decoding their structure; [SEP]
    and [UNK] may appear."""
    if set(map(type, ids)) <= {int} and (not ids or (min(ids) > EOS_ID and max(ids) < vocab_size)):
        return None  # C-level passes for the usual case
    for j, tok_id in enumerate(ids):
        error = _id_error(tok_id, j, vocab_size)
        if error:
            return error
        if tok_id <= EOS_ID:
            return f"position {j} holds the reserved token {SPECIAL_TOKENS[tok_id]}"
    return None


def _id_error(tok_id, j: int, vocab_size: int) -> str | None:
    """The complaint about `tok_id`, the id at position j, if it is a bool or
    any other non-integer, or outside the vocabulary 0..vocab_size-1."""
    if isinstance(tok_id, bool) or not isinstance(tok_id, numbers.Integral):
        return f"id {tok_id!r} at position {j} is not an integer"
    if not 0 <= tok_id < vocab_size:
        return f"id {tok_id} at position {j} is outside the vocabulary 0..{vocab_size - 1}"
    return None


# A mention is `@` and a name with neither a word character nor an `@` on
# either side, so an e-mail address is not one and neither part of `@a@b` is.
# The lookbehind comes after the `@` so that `re` can scan for the `@`.
_MENTION_RE = re.compile(r"@(?<![\w@]@)\w+(?![\w@])")
# A URL runs to the end of its whitespace-delimited chunk, less the run of
# `.,!?;:` that closes the chunk, and must keep at least one character
# after `http://`, `https://` or `www.`.
_URL_RE = re.compile(r"(?:https?://|www\.)\S*[^\s.,!?;:]")
_WORD_OR_PUNCT = re.compile(r"\w+|[^\w\s]")

# Bundled emoji -> name-string table (underscore-joined so each maps to one
# token). Deliberately small; unmapped codepoints pass through untouched.
EMOJI_NAMES = {
    "\U0001f600": "grinning_face",
    "\U0001f601": "beaming_face",
    "\U0001f602": "face_with_tears_of_joy",
    "\U0001f603": "grinning_face_with_big_eyes",
    "\U0001f604": "grinning_face_with_smiling_eyes",
    "\U0001f605": "grinning_face_with_sweat",
    "\U0001f606": "grinning_squinting_face",
    "\U0001f607": "smiling_face_with_halo",
    "\U0001f609": "winking_face",
    "\U0001f60a": "smiling_face_with_smiling_eyes",
    "\U0001f60d": "smiling_face_with_heart_eyes",
    "\U0001f60e": "smiling_face_with_sunglasses",
    "\U0001f610": "neutral_face",
    "\U0001f612": "unamused_face",
    "\U0001f614": "pensive_face",
    "\U0001f618": "face_blowing_a_kiss",
    "\U0001f61a": "kissing_face_with_closed_eyes",
    "\U0001f61b": "face_with_tongue",
    "\U0001f61c": "winking_face_with_tongue",
    "\U0001f61e": "disappointed_face",
    "\U0001f620": "angry_face",
    "\U0001f621": "pouting_face",
    "\U0001f622": "crying_face",
    "\U0001f624": "face_with_steam_from_nose",
    "\U0001f625": "sad_but_relieved_face",
    "\U0001f628": "fearful_face",
    "\U0001f629": "weary_face",
    "\U0001f62a": "sleepy_face",
    "\U0001f62b": "tired_face",
    "\U0001f62d": "loudly_crying_face",
    "\U0001f631": "face_screaming_in_fear",
    "\U0001f633": "flushed_face",
    "\U0001f637": "face_with_medical_mask",
    "\U0001f641": "slightly_frowning_face",
    "\U0001f642": "slightly_smiling_face",
    "\U0001f643": "upside_down_face",
    "\U0001f644": "face_with_rolling_eyes",
    "\U0001f923": "rolling_on_the_floor_laughing",
    "\U0001f97a": "pleading_face",
    "\U0001f914": "thinking_face",
    "\U0001f44d": "thumbs_up",
    "\U0001f44e": "thumbs_down",
    "\U0001f494": "broken_heart",
    "❤️": "red_heart",
    "❤": "red_heart",
    "\U0001f525": "fire",
    "\U0001f389": "party_popper",
}
# Longest first, so that a key with U+FE0F is replaced before its bare form.
_EMOJI_LONGEST_FIRST = tuple(sorted(EMOJI_NAMES, key=len, reverse=True))


def tokenize(s: str) -> list[str]:
    """Lowercase and segment `s` into tokens.

    Each whitespace-separated chunk that equals a placeholder (`@USER`,
    `HTTPURL` or `[SEP]`) passes through verbatim; the comparison is
    case-sensitive, so `@user` is not one. Every other chunk, `[EOS]` and
    `[PAD]` included, is lowercased and split so that each maximal run of
    `\\w` characters (letters, digits and `_`) is one token and each other
    non-space character is a token of its own.

    The fast path is exact. Lowercasing neither creates nor removes
    whitespace, and its one context rule (final sigma) stops at whitespace,
    so the chunks of `s.lower()` are the lowered chunks of `s`. And `re`'s
    `\\w` is `str.isalnum` plus `_`, so a lowered chunk for which
    `isalnum()` holds is exactly one `\\w+` match; only chunks that hold
    punctuation, `_` or symbols go through the regex.

    An `s` that is not a `str` raises DataError naming it."""
    if not isinstance(s, str):
        raise DataError(f"tokenize: s is {type(s).__name__}, not a string")
    out: list[str] = []
    for chunk, lowered in zip(s.split(), s.lower().split()):
        if chunk in PLACEHOLDERS:
            out.append(chunk)
        elif lowered.isalnum():
            out.append(lowered)
        else:
            out.extend(_WORD_OR_PUNCT.findall(lowered))
    return out


def normalize_tweet(s: str) -> str:
    """Map URLs to HTTPURL, user mentions to @USER and known emoji to their
    name strings, each padded with spaces so that it stays one token beside
    punctuation, then collapse whitespace to single spaces.

    Each step is skipped when it cannot match, which leaves the output
    unchanged: every URL match holds `http` or `www.`, every mention holds
    `@`, and every emoji key is non-ASCII. An `s` that is not a `str` raises
    DataError naming it."""
    if not isinstance(s, str):
        raise DataError(f"normalize_tweet: s is {type(s).__name__}, not a string")
    if "http" in s or "www." in s:
        s = _URL_RE.sub(" HTTPURL ", s)
    if "@" in s:
        s = _MENTION_RE.sub(" @USER ", s)
    if not s.isascii():
        for emoji in _EMOJI_LONGEST_FIRST:
            if emoji in s:
                s = s.replace(emoji, " " + EMOJI_NAMES[emoji] + " ")
    return " ".join(s.split())


@dataclass(frozen=True)
class Vocabulary:
    """Token <-> id map with reserved ids 0..4 for the special tokens; a
    token that would not read back from `save`'s file raises DataError.
    `tokens` is stored as a tuple, whatever sequence it is given as."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        check_tokens("tokens", self.tokens)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise DataError("vocabulary must start with the reserved tokens")
        for i, t in enumerate(self.tokens):
            if not t or "\n" in t or "\r" in t:
                raise DataError(f"token {t!r} at id {i} is empty or holds a line break")
        index = {t: i for i, t in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """The ids of `tokens`, [UNK] for a token not in the vocabulary.
        `check_tokens` refuses what is not a token sequence."""
        check_tokens("tokens", tokens)
        idx = self._index
        return [idx.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """The tokens of `ids`. A bool or any other non-integer id, or an id
        outside the vocabulary, raises DataError naming its position, with
        `reserved_token_error`'s wording; reserved ids decode."""
        out = []
        for j, i in enumerate(ids):
            error = _id_error(i, j, len(self.tokens))
            if error:
                raise DataError(error)
            out.append(self.tokens[i])
        return out

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        """One token per line."""
        with open(path, "w", encoding="utf-8") as f:
            for t in self.tokens:
                f.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what `save` wrote; DataError names the file if it is not a
        vocabulary."""
        tokens = read_lines(path)
        while tokens and tokens[-1] == "":
            tokens.pop()
        try:
            return cls(tokens)
        except DataError as e:
            raise DataError(f"{path}: {e}") from None


def build_vocab(corpus: Iterable[Sequence[str]]) -> Vocabulary:
    """Build a vocabulary from an iterable of token sequences: the reserved
    tokens, then every other distinct token by descending frequency, ties
    broken alphabetically, so construction is deterministic. `check_tokens`
    refuses a corpus element that is not a token sequence, naming it (a
    corpus that is a string fails on its first character)."""
    counts = Counter()
    for i, tokens in enumerate(corpus):
        check_tokens(f"corpus element {i}", tokens)
        counts.update(tokens)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    return Vocabulary(SPECIAL_TOKENS + tuple(sorted(counts, key=lambda t: (-counts[t], t))))
