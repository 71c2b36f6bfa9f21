"""Evaluation metric: multi-reference corpus BLEU.

BLEU is BLEU-4 in the original corpus-level definition (Papineni et al.
2002): geometric mean of clipped modified n-gram precisions for n = 1..4
(MAX_N) times a brevity penalty, with max-over-references clipping and the
closest-reference-length rule, unsmoothed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DataError

Tokens = Sequence[str]

MAX_N = 4  # the longest n-gram BLEU counts


@dataclass
class EvalReport:
    metric: str
    value: float
    n_examples: int
    config: dict = field(default_factory=dict)

    def to_json_line(self) -> str:
        payload = {
            "metric": self.metric,
            "value": self.value,
            "n_examples": self.n_examples,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True)


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_statistics(hypotheses: Sequence[Tokens], reference_sets: Sequence[Sequence[Tokens]]) -> dict:
    """Pooled corpus statistics: clipped matches and totals per n, plus the
    hypothesis/reference length sums for the brevity penalty."""
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
    for hyp, refs in zip(hypotheses, reference_sets):
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


def _bleu_from_stats(stats: dict) -> tuple[float, list[float], float]:
    precisions = [num / den if den > 0 else 0.0 for num, den in zip(stats["matches"], stats["totals"])]
    hyp_len, ref_len = stats["hyp_len"], stats["ref_len"]
    if hyp_len == 0:
        return 0.0, precisions, 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        return 0.0, precisions, bp
    log_mean = sum(math.log(p) for p in precisions) / MAX_N
    return 100.0 * bp * math.exp(log_mean), precisions, bp


def corpus_bleu(hypotheses: Sequence[Tokens], reference_sets: Sequence[Sequence[Tokens]]) -> float:
    """Corpus BLEU in [0, 100]."""
    stats = bleu_statistics(hypotheses, reference_sets)
    score, _, _ = _bleu_from_stats(stats)
    return score


def corpus_bleu_report(hypotheses: Sequence[Tokens], reference_sets: Sequence[Sequence[Tokens]]) -> EvalReport:
    stats = bleu_statistics(hypotheses, reference_sets)
    score, precisions, bp = _bleu_from_stats(stats)
    return EvalReport(
        metric="bleu",
        value=score,
        n_examples=len(hypotheses),
        config={
            "max_n": MAX_N,
            "smoothing": "none",
            "precisions": precisions,
            "brevity_penalty": bp,
            "hyp_len": stats["hyp_len"],
            "ref_len": stats["ref_len"],
        },
    )
