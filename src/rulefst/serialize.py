"""Model-input construction for the four rule-injection methods.

NR    : raw source, no rules.
RB    : source rewritten by first-come-first-served rule application.
RCAT  : source [SEP] FCFS rewrite.
CARI  : source [SEP] one segment per (match, alternative) pair, in
        (match position, alternative order) order. Each segment takes its
        context window from the match, so the window is the one
        `match_rules` was called with, and renders the alternative inside
        it (left + alternative + right).

`max_len`, when given, bounds the model input:

NR    : a source longer than max_len raises DataError.
RB    : max_len bounds the rewrite, not the source; a rewrite longer than
        max_len raises DataError.
RCAT  : a source longer than max_len raises DataError; the rewrite is cut
        at its tail to fit, and [SEP] goes too when no rewrite token fits.
CARI  : a source longer than max_len raises DataError; the first segment
        that would not fit and every segment after it are dropped whole.
RCAT and CARI set `truncated` exactly when they cut something.

Serialized datasets are written as UTF-8 TSV, one
`input<TAB>target<TAB>method<TAB>truncated` line per example with tokens
space-joined and [SEP] rendered literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError, check_size
from .rules import RuleMatch, RuleSet, match_rules
from .text import SEP, read_lines

NR, RB, RCAT, CARI = "NR", "RB", "RCAT", "CARI"
METHODS = (NR, RB, RCAT, CARI)


@dataclass(frozen=True)
class SerializedExample:
    method: str
    input: tuple[str, ...]
    target: tuple[str, ...]
    truncated: bool = False


def apply_rules_fcfs(x: Sequence[str], matches: Sequence[RuleMatch]) -> list[str]:
    """Greedy left-to-right application: earliest match wins, overlapping
    later matches are skipped, and the first listed alternative is always
    substituted.

    The matches are sorted by start, as `match_rules` returns them, so a
    match overlaps an applied rewrite exactly when it starts before the end
    of the last one applied."""
    out: list[str] = []
    pos = 0
    for m in matches:
        if m.start >= pos:
            out.extend(x[pos : m.start])
            out.extend(m.alternatives[0])
            pos = m.end
    out.extend(x[pos:])
    return out


def serialize_example(
    method: str,
    x: Sequence[str],
    y: Sequence[str],
    rules: RuleSet,
    w: int,
    max_len: int | None = None,
) -> SerializedExample:
    """The model input for source `x` and target `y` under `method`, with
    `max_len` applied as the module docstring states. An unknown method, a
    window w that is not an integer of at least 0, and a given max_len that
    is not an integer of at least 1 (`errors.check_size`) raise DataError
    before any matching, and so does an x or y that is a string, not a
    token sequence; RB, RCAT and CARI call `match_rules(x, rules, w)` once,
    NR never."""
    if method not in METHODS:
        raise DataError(f"unknown serialization method {method!r}")
    if type(w) is not int or w < 0:
        check_size("window size", w, 0)
    if max_len is not None and (type(max_len) is not int or max_len < 1):
        check_size("max_len", max_len)
    for name, tokens in (("x", x), ("y", y)):
        if isinstance(tokens, str):
            raise DataError(f"{name} is a string, not a token sequence")
    matches = () if method == NR else match_rules(x, rules, w)
    if not x:
        raise DataError("source sentence is empty")
    if max_len is not None and method != RB and len(x) > max_len:
        raise DataError(f"source of {len(x)} tokens exceeds max_len={max_len}")
    if method == NR:
        return SerializedExample(NR, tuple(x), tuple(y))
    if method == CARI:
        input_tokens = list(x)
        for m in matches:
            left, right = m.context_left, m.context_right
            for alt in m.alternatives:
                seg = left + alt + right
                if max_len is not None and len(input_tokens) + 1 + len(seg) > max_len:
                    return SerializedExample(CARI, tuple(input_tokens), tuple(y), True)
                input_tokens.append(SEP)
                input_tokens.extend(seg)
        return SerializedExample(CARI, tuple(input_tokens), tuple(y), False)
    x_prime = apply_rules_fcfs(x, matches)
    if method == RB:
        if max_len is not None and len(x_prime) > max_len:
            raise DataError(f"RB rewrite of {len(x_prime)} tokens (source of {len(x)}) exceeds max_len={max_len}")
        return SerializedExample(RB, tuple(x_prime), tuple(y))
    room = len(x_prime) if max_len is None else max(max_len - len(x) - 1, 0)
    supplement = x_prime[:room]
    input_tokens = tuple(x) + (SEP,) + tuple(supplement) if supplement else tuple(x)
    return SerializedExample(RCAT, input_tokens, tuple(y), room < len(x_prime))


def write_examples_tsv(examples: Sequence[SerializedExample], path) -> None:
    """One `input<TAB>target<TAB>method<TAB>truncated` line per example, with
    truncated written as 0 or 1. An example that would not read back as
    written (a method not in METHODS, a token that is empty or holds
    whitespace) raises DataError naming it, before anything is written."""
    lines = []
    for i, ex in enumerate(examples):
        if ex.method not in METHODS:
            raise DataError(f"example {i}: unknown serialization method {ex.method!r}")
        fields = [" ".join(ex.input), " ".join(ex.target)]
        if fields[0].split() != list(ex.input) or fields[1].split() != list(ex.target):
            raise DataError(f"example {i}: a token is empty or holds whitespace")
        lines.append("\t".join(fields) + f"\t{ex.method}\t{int(ex.truncated)}\n")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def read_examples_tsv(path, method: str | None = None) -> list[SerializedExample]:
    """Read what `write_examples_tsv` wrote, losslessly: one
    `input<TAB>target<TAB>method<TAB>truncated` line per example, blank lines
    skipped. A line of any other shape, and a given method that differs from
    a line's own, raise DataError naming the line."""
    out: list[SerializedExample] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected input<TAB>target<TAB>method<TAB>truncated")
        src, tgt, line_method, truncated = parts
        if line_method not in METHODS or truncated not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: bad method {line_method!r} or truncated flag {truncated!r}")
        if method is not None and line_method != method:
            raise DataError(f"{path}:{lineno}: method {line_method}, expected {method}")
        out.append(SerializedExample(line_method, tuple(src.split()), tuple(tgt.split()), truncated == "1"))
    return out
