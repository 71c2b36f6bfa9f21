"""Declarative rewrite rules, exhaustive matching and context extraction.

Rule file format (UTF-8, one rule per line):

    id<TAB>pattern<TAB>alt1|alt2|...

`#` starts a comment line. Pattern and alternatives are space-separated
tokens; patterns match case-insensitively against whole tokens. File order is
significant: it defines first-come-first-served priority downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from .errors import DataError

# Context window default: the empirical peak of the window-size sweep.
DEFAULT_WINDOW = 3


@dataclass(frozen=True)
class Rule:
    id: str
    pattern: tuple[str, ...]
    alternatives: tuple[tuple[str, ...], ...]
    source: str = ""

    def __post_init__(self):
        if not self.pattern or any(not t for t in self.pattern):
            raise DataError(f"rule {self.id!r}: empty pattern")
        if not self.alternatives:
            raise DataError(f"rule {self.id!r}: no alternatives")
        if any(not alt or any(not t for t in alt) for alt in self.alternatives):
            raise DataError(f"rule {self.id!r}: empty alternative")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise DataError(f"rule {self.id!r}: duplicate alternatives")
        object.__setattr__(self, "pattern", tuple(t.lower() for t in self.pattern))


@dataclass(frozen=True)
class RuleSet:
    """Rules in file order, indexed by the first token of their pattern.

    `rules` is stored as a tuple, so the index cannot go stale when the
    caller later changes the sequence it was built from.

    `_last` is `match_rules`'s one-entry memo: ((w, tokens), RuleMatchSet) of
    the last call on this rule set, with the tokens as given, casing kept.
    It cannot go stale either: the rules are a tuple of frozen `Rule`s and
    the stored result and its matches are immutable. Key and result are
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

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class RuleMatchSet:
    matches: tuple[RuleMatch, ...] = ()

    @property
    def count(self) -> int:
        return len(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self) -> Iterator[RuleMatch]:
        return iter(self.matches)

    def __getitem__(self, i: int) -> RuleMatch:
        return self.matches[i]


def parse_rule_line(line: str, lineno: int, source: str = "") -> Rule:
    parts = line.split("\t")
    if len(parts) != 3:
        raise DataError(f"{source or 'rules'}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
    rule_id, pattern_s, alts_s = (p.strip() for p in parts)
    if not rule_id:
        raise DataError(f"{source or 'rules'}:{lineno}: empty rule id")
    pattern = tuple(pattern_s.split())
    if not pattern:
        raise DataError(f"{source or 'rules'}:{lineno}: empty pattern")
    alternatives = tuple(tuple(a.split()) for a in alts_s.split("|"))
    if any(not alt for alt in alternatives):
        raise DataError(f"{source or 'rules'}:{lineno}: empty alternative")
    try:
        return Rule(rule_id, pattern, alternatives, source=source)
    except DataError as e:
        raise DataError(f"{source or 'rules'}:{lineno}: {e}") from None


def load_rules(path) -> RuleSet:
    """Load a rule file, preserving file order (= FCFS priority)."""
    rules: list[Rule] = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not valid UTF-8: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rules.append(parse_rule_line(line, lineno, source=str(path)))
    try:
        return RuleSet(tuple(rules))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def save_rules(rules: RuleSet, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in rules:
            alts = "|".join(" ".join(alt) for alt in r.alternatives)
            f.write(f"{r.id}\t{' '.join(r.pattern)}\t{alts}\n")


def extract_context(tokens: Sequence[str], span: tuple[int, int], w: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Up to w tokens on each side of a half-open span, clipped at sentence
    boundaries."""
    start, end = span
    if w < 0:
        raise ValueError("window size must be >= 0")
    if not (0 <= start <= end <= len(tokens)):
        raise ValueError(f"span {span} out of bounds for {len(tokens)} tokens")
    left = tuple(tokens[max(0, start - w) : start])
    right = tuple(tokens[end : end + w])
    return left, right


def match_rules(tokens: Sequence[str], rules: RuleSet, w: int = DEFAULT_WINDOW) -> RuleMatchSet:
    """Every (position, rule) occurrence, including overlaps, sorted by
    (start, rule file order). Matching is case-insensitive; matched_text
    keeps the original casing.

    Only the rules whose pattern starts with the token at a position are
    compared there, so a sentence costs O(tokens x rules sharing the head
    token), not O(tokens x rules).

    A call with the same w and the same tokens (casing included, since
    matched_text and the context windows keep it) as the last call on this
    rule set returns that call's result object again; see `RuleSet`."""
    if w < 0:
        raise ValueError("window size must be >= 0")
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
                left, right = extract_context(tokens, (start, end), w)
                matches.append(RuleMatch(rule.id, start, end, tokens[start:end], left, right, rule.alternatives))
    result = RuleMatchSet(tuple(matches))
    object.__setattr__(rules, "_last", (key, result))
    return result
