"""Output checks that hold for any correct implementation.

Each check returns a list of problems (empty when the output is right), so
the benchmark can count them without stopping. The references here are
written independently of `rulefst`: rule matching looks patterns up in a
hash index instead of scanning the rule list, so it stays a valid oracle for
an indexed or automaton-based matcher.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from rulefst.text import BOS_ID, EOS_ID, PAD_ID, SEP

DECODE_TOLERANCE = 1e-5


def reference_matches(tokens: Sequence[str], rules, w: int) -> list[tuple]:
    """Every (rule, position) occurrence as (rule_id, start, end, matched,
    left, right, alternatives), ordered by start and then rule file order."""
    index: dict[tuple[str, ...], list[int]] = {}
    for order, rule in enumerate(rules):
        index.setdefault(rule.pattern, []).append(order)
    lengths = sorted({len(p) for p in index})
    lowered = tuple(t.lower() for t in tokens)
    found = []
    for start in range(len(tokens)):
        hits = []
        for n in lengths:
            if start + n <= len(tokens):
                hits.extend((order, n) for order in index.get(lowered[start : start + n], ()))
        for order, n in sorted(hits):
            rule = rules[order]
            end = start + n
            found.append((
                rule.id, start, end, tuple(tokens[start:end]),
                tuple(tokens[max(0, start - w) : start]), tuple(tokens[end : end + w]),
                rule.alternatives,
            ))
    return found


def as_tuples(matches) -> list[tuple]:
    return [
        (m.rule_id, m.start, m.end, m.matched_text, m.context_left, m.context_right, m.alternatives)
        for m in matches
    ]


def check_matches(tokens, rules, w, matches) -> list[str]:
    if as_tuples(matches) != reference_matches(tokens, rules, w):
        return [f"match_rules differs from the reference on {' '.join(tokens)!r}"]
    return []


def check_rb(tokens, reference, rb_input) -> list[str]:
    """FCFS: earliest match wins, a match overlapping an applied one is
    skipped, and the first alternative is substituted. The reference applies
    only non-overlapping rewrites, so equality also shows that RB's never
    overlap."""
    out, pos = [], 0
    for _, start, end, *_rest, alts in reference:
        if start >= pos:
            out += list(tokens[pos:start]) + list(alts[0])
            pos = end
    out += list(tokens[pos:])
    if tuple(out) != tuple(rb_input):
        return [f"RB rewrite differs from the FCFS reference on {' '.join(tokens)!r}"]
    return []


def check_cari(tokens, reference, example) -> list[str]:
    """The source comes first; then every (match, alternative) segment in
    order, of which only a tail may be missing, and only when truncated."""
    parts: list[list[str]] = [[]]
    for t in example.input:
        if t == SEP:
            parts.append([])
        else:
            parts[-1].append(t)
    expected = [left + alt + right for _, _, _, _, left, right, alts in reference for alt in alts]
    got = [tuple(p) for p in parts[1:]]
    problems = []
    if tuple(parts[0]) != tuple(tokens):
        problems.append("CARI input does not start with the source")
    if got != expected[: len(got)]:
        problems.append(f"CARI segments differ from the reference on {' '.join(tokens)!r}")
    elif len(got) < len(expected) and not example.truncated:
        problems.append("CARI segments missing without the truncated flag")
    return problems


def check_tsv(written, read_back) -> list[str]:
    if [(e.input, e.target) for e in written] != [(e.input, e.target) for e in read_back]:
        return ["TSV round trip changed input or target tokens"]
    return []


def check_decode(model, src_ids: Sequence[int], output: Sequence[int], max_len: int, fanout: int) -> list[str]:
    """Oracle for greedy (fanout 1) and beam outputs that holds for any
    correct implementation, an incremental (KV-cached) one included.

    Beam search only ever extends a hypothesis with one of the top-`fanout`
    next tokens of its prefix, so every output token, and the EOS that ended
    an output shorter than max_len, must be within the top `fanout` of a
    teacher-forced forward pass over [BOS] + output; for greedy that is the
    argmax. Ids must be in range and EOS can only end an output.

    Special ids other than EOS are not refused: the decoders score every
    vocabulary id and document no masking, so a model at its initialisation
    may rank [PAD] or [BOS] first. The benchmark counts them instead
    (see `special_ids`)."""
    if len(output) > max_len:
        return [f"decode output of {len(output)} tokens exceeds max_len={max_len}"]
    vocab_size = model.config.vocab_size
    bad = sorted({t for t in output if not 0 <= t < vocab_size or t == EOS_ID})
    if bad:
        return [f"decode output holds ids {bad}: out of range or EOS={EOS_ID} before the end"]
    logits = model.forward(
        np.asarray([src_ids], dtype=np.int64), np.asarray([[BOS_ID, *output]], dtype=np.int64)
    )[0].astype(np.float64)
    chosen = list(output) + ([EOS_ID] if len(output) < max_len else [])
    k = min(fanout, vocab_size)
    kth = -np.partition(-logits, k - 1, axis=-1)[:, k - 1]
    if any(logits[t, tok] < kth[t] - DECODE_TOLERANCE for t, tok in enumerate(chosen)):
        return [f"decoded token is not among the teacher-forced top {k}"]
    return []


def special_ids(output: Sequence[int]) -> int:
    """[PAD] and [BOS] ids in a decoder output."""
    return sum(t in (BOS_ID, PAD_ID) for t in output)
