"""Declarative rewrite rules and exhaustive matching with context windows.

Rule file format (UTF-8, one rule per line):

    id<TAB>pattern<TAB>alt1|alt2|...

`#` starts a comment line. Pattern and alternatives are space-separated
tokens; patterns match case-insensitively against whole tokens. File order is
significant: it defines first-come-first-served priority downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from .errors import DataError, check_size
from .text import check_tokens, read_lines

# Context window default: up to 3 tokens on each side of a match, chosen by
# hand rather than by a window-size sweep.
DEFAULT_WINDOW = 3


@dataclass(frozen=True)
class Rule:
    id: str
    pattern: tuple[str, ...]
    alternatives: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        check_tokens(f"rule {self.id!r}: pattern", self.pattern)
        if not self.pattern or "" in self.pattern:
            raise DataError(f"rule {self.id!r}: empty pattern")
        if not self.alternatives:
            raise DataError(f"rule {self.id!r}: no alternatives")
        for k, alt in enumerate(self.alternatives):
            check_tokens(f"rule {self.id!r}: alternative {k}", alt)
            if not alt or "" in alt:
                raise DataError(f"rule {self.id!r}: empty alternative")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise DataError(f"rule {self.id!r}: duplicate alternatives")
        object.__setattr__(self, "pattern", tuple(t.lower() for t in self.pattern))


@dataclass(frozen=True)
class RuleSet:
    """Rules in file order, indexed by the first token of their pattern.

    `rules` is stored as a tuple, so the index cannot go stale when the
    caller later changes the sequence it was built from.

    `_last` is `match_rules`'s one-entry memo: ((w, tokens), matches) of the
    last call on this rule set, with the tokens as given, casing kept.
    It cannot go stale either: the rules are a tuple of frozen `Rule`s and
    the stored tuple of matches is immutable. Key and result are
    set as one tuple, so concurrent callers can at worst miss it."""

    rules: tuple[Rule, ...] = ()
    by_head: dict[str, tuple[Rule, ...]] = field(init=False, repr=False, compare=False)
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise DataError(f"duplicate rule id {dup!r}")
        by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            by_head.setdefault(rule.pattern[0], []).append(rule)
        object.__setattr__(self, "by_head", {head: tuple(rs) for head, rs in by_head.items()})

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, i: int) -> Rule:
        return self.rules[i]


class RuleMatch(NamedTuple):
    """One occurrence of a rule in a sentence, with its context window.

    A named tuple, so it is immutable and cheap to build; it compares equal
    to a plain tuple of the same fields."""

    rule_id: str
    start: int
    end: int
    matched_text: tuple[str, ...]
    context_left: tuple[str, ...]
    context_right: tuple[str, ...]
    alternatives: tuple[tuple[str, ...], ...]


def load_rules(path) -> RuleSet:
    """Load a rule file, preserving file order (= FCFS priority)."""
    rules: list[Rule] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        rule_id, pattern_s, alts_s = (p.strip() for p in parts)
        if not rule_id:
            raise DataError(f"{path}:{lineno}: empty rule id")
        alternatives = tuple(tuple(a.split()) for a in alts_s.split("|"))
        try:
            rules.append(Rule(rule_id, tuple(pattern_s.split()), alternatives))
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    try:
        return RuleSet(tuple(rules))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _check_savable(rule: Rule) -> None:
    """Raise DataError unless `load_rules` reads `rule`'s line back as it."""
    i = rule.id
    if not i or i != i.strip() or i.startswith("#") or any(c in i for c in "\t\n\r"):
        raise DataError(f"rule {i!r}: id is empty, starts with '#', has surrounding whitespace "
                        "or holds a tab or line break")
    for t in rule.pattern:
        if t.split() != [t]:
            raise DataError(f"rule {i!r}: pattern token {t!r} is empty or holds whitespace")
    for alt in rule.alternatives:
        for t in alt:
            if t.split() != [t] or "|" in t:
                raise DataError(f"rule {i!r}: alternative token {t!r} is empty or holds whitespace or '|'")


def save_rules(rules: RuleSet, path) -> None:
    """Write `rules` in the rule file format, in order.

    A rule that would not read back as written raises DataError naming it and
    the field, before anything is written."""
    lines = []
    for r in rules:
        _check_savable(r)
        alts = "|".join(" ".join(alt) for alt in r.alternatives)
        lines.append(f"{r.id}\t{' '.join(r.pattern)}\t{alts}\n")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def match_rules(tokens: Sequence[str], rules: RuleSet, w: int = DEFAULT_WINDOW) -> tuple[RuleMatch, ...]:
    """Every (position, rule) occurrence, including overlaps, sorted by
    (start, rule file order). Matching is case-insensitive; matched_text
    keeps the original casing.

    Only the rules whose pattern starts with the token at a position are
    compared there, so a sentence costs O(tokens x rules sharing the head
    token), not O(tokens x rules).

    A call with the same w and the same tokens (casing included, since
    matched_text and the context windows keep it) as the last call on this
    rule set returns that call's tuple again; see `RuleSet`.
    `check_tokens` refuses what is not a token sequence, before the memo is
    read: a string whose characters equal the last call's tokens would
    find it."""
    check_tokens("tokens", tokens)
    if type(w) is not int or w < 0:
        check_size("window size", w, 0)
    key = (w, tuple(tokens))
    last = rules._last
    if last is not None and last[0] == key:
        return last[1]
    tokens = key[1]
    lowered = tuple([t.lower() for t in tokens])
    matches: list[RuleMatch] = []
    for start in range(len(tokens)):
        for rule in rules.by_head.get(lowered[start], ()):
            end = start + len(rule.pattern)
            if lowered[start:end] == rule.pattern:  # a slice cut short by the end differs too
                # Up to w tokens on each side of the span, clipped at the sentence ends.
                matches.append(RuleMatch(rule.id, start, end, tokens[start:end], tokens[max(0, start - w) : start],
                                         tokens[end : end + w], rule.alternatives))
    result = tuple(matches)
    object.__setattr__(rules, "_last", (key, result))
    return result
