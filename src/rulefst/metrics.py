"""Evaluation metric: multi-reference corpus BLEU, as `bleu_statistics` (the
pooled clipped n-gram counts and lengths) and `corpus_bleu` (the score).

BLEU is BLEU-4 in the original corpus-level definition (Papineni et al.
2002): geometric mean of clipped modified n-gram precisions for n = 1..4
(MAX_N) times a brevity penalty, with max-over-references clipping and the
closest-reference-length rule, unsmoothed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import DataError

Tokens = Sequence[str]

MAX_N = 4  # the longest n-gram BLEU counts


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_statistics(hypotheses: Sequence[Tokens], reference_sets: Sequence[Sequence[Tokens]]) -> dict:
    """Pooled corpus statistics: clipped matches and totals per n, plus the
    hypothesis/reference length sums for the brevity penalty. A hypothesis
    or reference that is a string, not a token sequence, raises DataError
    naming its index: BLEU would count its characters as tokens."""
    if not hypotheses:
        raise DataError("corpus BLEU needs at least one hypothesis")
    if len(hypotheses) != len(reference_sets):
        raise DataError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(reference_sets)}"
        )
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = 0
    ref_len = 0
    for i, (hyp, refs) in enumerate(zip(hypotheses, reference_sets)):
        if isinstance(hyp, str):
            raise DataError(f"hypothesis {i} is a string, not a token sequence")
        if any(isinstance(r, str) for r in refs):
            raise DataError(f"reference set {i} is or holds a string, not token sequences")
        if not refs:
            raise DataError("empty reference set")
        hyp = list(hyp)
        refs = [list(r) for r in refs]
        hyp_len += len(hyp)
        # Closest reference length; ties broken toward the shorter reference.
        ref_len += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        for n in range(1, MAX_N + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            max_ref: Counter = Counter()
            for r in refs:
                for ng, c in _ngram_counts(r, n).items():
                    if c > max_ref[ng]:
                        max_ref[ng] = c
            matches[n - 1] += sum(min(c, max_ref[ng]) for ng, c in hyp_counts.items())
            totals[n - 1] += sum(hyp_counts.values())
    return {"matches": matches, "totals": totals, "hyp_len": hyp_len, "ref_len": ref_len}


def corpus_bleu(hypotheses: Sequence[Tokens], reference_sets: Sequence[Sequence[Tokens]]) -> float:
    """Corpus BLEU in [0, 100] of `bleu_statistics`; 0 when any precision is
    0, as it is when the hypotheses hold no token."""
    stats = bleu_statistics(hypotheses, reference_sets)
    precisions = [num / den if den > 0 else 0.0 for num, den in zip(stats["matches"], stats["totals"])]
    hyp_len, ref_len = stats["hyp_len"], stats["ref_len"]
    if any(p == 0.0 for p in precisions):
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    log_mean = sum(math.log(p) for p in precisions) / MAX_N
    return 100.0 * bp * math.exp(log_mean)
