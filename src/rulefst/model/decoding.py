"""Greedy and beam-search decoding with length-normalized scoring.

The beam keeps `beam_size` live hypotheses; each step expands every live
hypothesis with its top-`fanout` next tokens, then reselects the best
`beam_size` by score. Hypotheses end at [EOS] or max_len and the best
finished hypothesis wins. Scores are sum log-probability, divided by the
generated length when length_normalize is on.

Decoding is incremental: the step callback receives only the token that each
live hypothesis has just added, plus a back-pointer to the row of the
previous step's state that the hypothesis extends, so a model step feeds one
position per hypothesis through the decoder (fairseq's incremental_state and
reorder_incremental_state, Ott et al. 2019).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DataError
from ..text import BOS_ID, EOS_ID
from .seq2seq import DecoderCache, Seq2SeqTransformer

# step_fn(parents, tokens) -> (n, V) next-token log-probs. Hypothesis i is the
# prefix that row parents[i] of the previous call scored, extended by
# tokens[i]; the first call gets parents [0] and tokens [BOS].
StepFn = Callable[[np.ndarray, list[int]], np.ndarray]


def _score(logp_sum: float, length: int, length_normalize: bool) -> float:
    if not length_normalize:
        return logp_sum
    return logp_sum / max(length, 1)


def _hyp_key(hyp: tuple[list[int], float], length_normalize: bool) -> tuple:
    tokens, logp = hyp
    # Deterministic ordering: score, then shorter, then lexicographic.
    return (-_score(logp, len(tokens), length_normalize), len(tokens), tokens)


def beam_search(
    step_fn: StepFn,
    beam_size: int = 4,
    fanout: int = 6,
    max_len: int = 32,
    length_normalize: bool = True,
) -> list[int]:
    """Generic beam search over a next-token log-probability callback.

    Returns the generated ids without BOS, with the trailing EOS stripped.
    """
    if beam_size < 1:
        raise DataError("beam_size must be >= 1")
    if fanout < 1:
        raise DataError("fanout must be >= 1")
    if max_len < 1:
        raise DataError("max_len must be >= 1")
    live: list[tuple[list[int], float]] = [([], 0.0)]
    parents = [0]
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        last = [tokens[-1] if tokens else BOS_ID for tokens, _ in live]
        logprobs = step_fn(np.asarray(parents), last)
        candidates: list[tuple[list[int], float, int]] = []
        for parent, ((tokens, logp), row) in enumerate(zip(live, logprobs)):
            k = min(fanout, row.shape[-1])
            top = np.argpartition(-row, k - 1)[:k]
            for tok in sorted(top.tolist(), key=lambda t: (-row[t], t)):
                candidates.append((tokens + [tok], logp + float(row[tok]), parent))
        candidates.sort(key=lambda h: _hyp_key(h[:2], length_normalize))
        live, parents = [], []
        for tokens, logp, parent in candidates:
            if tokens[-1] == EOS_ID:
                finished.append((tokens, logp))
            elif len(live) < beam_size:
                live.append((tokens, logp))
                parents.append(parent)
        if not live:
            break
    finished.extend(live)  # ran into max_len
    finished.sort(key=lambda h: _hyp_key(h, length_normalize))
    best = finished[0][0]
    if best and best[-1] == EOS_ID:
        best = best[:-1]
    return best


def model_step_fn(model: Seq2SeqTransformer, src_ids: Sequence[int]) -> StepFn:
    """Encode once; each step reorders the decoder cache by the back-pointers
    and feeds one new position per hypothesis through the decoder."""
    src = np.asarray([src_ids], dtype=np.int64)
    enc_out, src_mask = model.encode(src, train=False)
    cache = DecoderCache(model.config.dec_layers)

    def step(parents: np.ndarray, tokens: list[int]) -> np.ndarray:
        cache.reorder(parents)
        new_ids = np.asarray(tokens, dtype=np.int64)[:, None]
        return model.next_token_logprobs(enc_out, src_mask, new_ids, cache)

    return step


def beam_decode(
    model: Seq2SeqTransformer,
    src_ids: Sequence[int],
    beam_size: int = 4,
    fanout: int = 6,
    max_len: int | None = None,
    length_normalize: bool = True,
) -> list[int]:
    """Beam-search translation of one source sentence.

    max_len defaults to, and may not exceed, model.config.max_len - 1, so
    that [BOS] + output fits the model's positions; a bad max_len raises
    DataError before the source is encoded.
    """
    if fanout < beam_size:
        raise DataError("fanout must be >= beam_size")
    limit = model.config.max_len - 1
    if max_len is None:
        max_len = limit
    elif not 1 <= max_len <= limit:
        raise DataError(f"max_len={max_len} is outside 1..{limit}, the model's output length range")
    return beam_search(
        model_step_fn(model, src_ids),
        beam_size=beam_size,
        fanout=fanout,
        max_len=max_len,
        length_normalize=length_normalize,
    )


def greedy_decode(model: Seq2SeqTransformer, src_ids: Sequence[int], max_len: int | None = None) -> list[int]:
    """Argmax decoding: beam search with beam_size=1, fanout=1."""
    return beam_decode(model, src_ids, beam_size=1, fanout=1, max_len=max_len)
