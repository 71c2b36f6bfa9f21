"""Model-input construction for the four rule-injection methods.

NR    : raw source, no rules.
RB    : source rewritten by first-come-first-served rule application.
RCAT  : source [SEP] FCFS rewrite.
CARI  : source [SEP] one segment per (match, alternative) pair, each
        alternative rendered inside its context window.

Serialized datasets are written as UTF-8 TSV, one
`input<TAB>target<TAB>method<TAB>truncated` line per example with tokens
space-joined and [SEP] rendered literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError
from .rules import RuleMatchSet, RuleSet, match_rules
from .text import SEP

NR, RB, RCAT, CARI = "NR", "RB", "RCAT", "CARI"
METHODS = (NR, RB, RCAT, CARI)

SEGMENT_MODES = ("substituted", "literal")


@dataclass(frozen=True)
class SerializedExample:
    method: str
    input: tuple[str, ...]
    target: tuple[str, ...]
    truncated: bool = False


def _check_source(x: Sequence[str], max_len: int | None) -> None:
    if not x:
        raise DataError("source sentence is empty")
    if max_len is not None and len(x) > max_len:
        raise DataError(f"source of {len(x)} tokens exceeds max_len={max_len}")


def serialize_nr(x: Sequence[str], y: Sequence[str], max_len: int | None = None) -> SerializedExample:
    """No-rule baseline: the input is the source itself."""
    _check_source(x, max_len)
    return SerializedExample(NR, tuple(x), tuple(y))


def apply_rules_fcfs(x: Sequence[str], matches: RuleMatchSet) -> list[str]:
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


def serialize_rb(x: Sequence[str], matches: RuleMatchSet, y: Sequence[str], max_len: int | None = None) -> SerializedExample:
    """Rule-base method: train on the FCFS rewrite alone."""
    x_prime = apply_rules_fcfs(x, matches)
    _check_source(x_prime, max_len)
    return SerializedExample(RB, tuple(x_prime), tuple(y))


def serialize_rcat(x: Sequence[str], x_prime: Sequence[str], y: Sequence[str], max_len: int | None = None) -> SerializedExample:
    """Concatenate the source and its FCFS rewrite with a separator."""
    _check_source(x, max_len)
    truncated = False
    supplement = list(x_prime)
    if max_len is not None:
        room = max_len - len(x) - 1
        if room < len(supplement):
            truncated = True
            supplement = supplement[: max(room, 0)]
    if supplement:
        input_tokens = tuple(x) + (SEP,) + tuple(supplement)
    else:
        input_tokens = tuple(x)
    return SerializedExample(RCAT, input_tokens, tuple(y), truncated)


def serialize_cari(
    x: Sequence[str],
    matches: RuleMatchSet,
    y: Sequence[str] = (),
    max_len: int | None = None,
    segment_mode: str = "substituted",
) -> SerializedExample:
    """Context-aware serialization: one segment per (match, alternative) pair,
    in (match position, alternative order) order.

    Each segment takes its context window from the match, so the window size
    is the one `match_rules` was called with. substituted mode renders each
    alternative inside that window (left + alternative + right); literal mode
    puts the alternative first (alternative + left + right). Segments that
    would push the input past max_len are dropped whole, tail first; the
    source itself is never truncated.
    """
    if segment_mode not in SEGMENT_MODES:
        raise DataError(f"unknown segment_mode {segment_mode!r}")
    _check_source(x, max_len)
    segments: list[tuple[str, ...]] = []
    for m in matches:
        left, right = m.context_left, m.context_right
        for alt in m.alternatives:
            if segment_mode == "substituted":
                segments.append(left + alt + right)
            else:
                segments.append(alt + left + right)
    input_tokens = list(x)
    truncated = False
    for seg in segments:
        if max_len is not None and len(input_tokens) + 1 + len(seg) > max_len:
            truncated = True
            break
        input_tokens.append(SEP)
        input_tokens.extend(seg)
    return SerializedExample(CARI, tuple(input_tokens), tuple(y), truncated)


def serialize_downstream(d_ori: Sequence[str], d_fst: Sequence[str]) -> tuple[str, ...]:
    """Input format for downstream classification: original [SEP] FST output."""
    if not d_ori or not d_fst:
        raise DataError("downstream serialization needs non-empty inputs")
    return tuple(d_ori) + (SEP,) + tuple(d_fst)


def serialize_example(
    method: str,
    x: Sequence[str],
    y: Sequence[str],
    rules: RuleSet,
    w: int,
    max_len: int | None = None,
    segment_mode: str = "substituted",
) -> SerializedExample:
    """Dispatch to the chosen method, running rule matching as needed. An
    unknown method raises DataError before any matching."""
    if method not in METHODS:
        raise DataError(f"unknown serialization method {method!r}")
    if method == NR:
        return serialize_nr(x, y, max_len)
    matches = match_rules(x, rules, w)
    if method == RB:
        return serialize_rb(x, matches, y, max_len)
    if method == RCAT:
        x_prime = apply_rules_fcfs(x, matches)
        return serialize_rcat(x, x_prime, y, max_len)
    return serialize_cari(x, matches, y, max_len, segment_mode)


def write_examples_tsv(examples: Sequence[SerializedExample], path) -> None:
    """One `input<TAB>target<TAB>method<TAB>truncated` line per example, with
    truncated written as 0 or 1. A token that is empty or holds whitespace
    would not read back as written, so it raises DataError."""
    with open(path, "w", encoding="utf-8") as f:
        for i, ex in enumerate(examples):
            fields = [" ".join(ex.input), " ".join(ex.target)]
            if fields[0].split() != list(ex.input) or fields[1].split() != list(ex.target):
                raise DataError(f"example {i}: a token is empty or holds whitespace")
            f.write("\t".join(fields) + f"\t{ex.method}\t{int(ex.truncated)}\n")


def read_examples_tsv(path, method: str | None = None) -> list[SerializedExample]:
    """Read what `write_examples_tsv` wrote, losslessly.

    Old two-column `input<TAB>target` files carry no method or truncation
    flag: their examples get `method` (NR when None) and truncated=False.
    A given method that differs from a line's own raises DataError.
    """
    out: list[SerializedExample] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) == 2:
                parts += [method or NR, "0"]
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected input<TAB>target[<TAB>method<TAB>truncated]")
            src, tgt, line_method, truncated = parts
            if line_method not in METHODS or truncated not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: bad method {line_method!r} or truncated flag {truncated!r}")
            if method is not None and line_method != method:
                raise DataError(f"{path}:{lineno}: method {line_method}, expected {method}")
            out.append(SerializedExample(line_method, tuple(src.split()), tuple(tgt.split()), truncated == "1"))
    return out
