"""Greedy and beam-search decoding with length-normalized scoring.

The beam keeps `beam_size` live hypotheses; each step expands every live
hypothesis with its top-`fanout` next tokens, then reselects the best
`beam_size` by score. Hypotheses end at [EOS] or max_len and the best
finished hypothesis wins. Scores are sum log-probability, divided by the
generated length when length_normalize is on. Ties go to the shorter, then
the lexicographically smaller hypothesis.

Decoding is incremental: the step callback receives only the token that each
live hypothesis has just added, plus a back-pointer to the row of the
previous step's state that the hypothesis extends, so a model step feeds one
position per hypothesis through the decoder (fairseq's incremental_state and
reorder_incremental_state, Ott et al. 2019).

The bookkeeping is array-backed: each step keeps only the (token, parent)
arrays of its live hypotheses, and token lists are rebuilt from them for the
winner and for exact score ties. Live hypotheses all have the same length
and are kept in lexicographic order, so with each row's top tokens in
ascending id order, a candidate's index in the flattened (live, fanout) grid
is its lexicographic rank, and a stable sort by score alone gives the exact
(score, tokens) order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DataError
from ..text import BOS_ID, EOS_ID
from .seq2seq import DecoderCache, Seq2SeqTransformer

# step_fn(parents, tokens) -> (n, V) next-token log-probs. Hypothesis i is the
# prefix that row parents[i] of the previous call scored, extended by
# tokens[i]; the first call gets parents [0] and tokens [BOS]. Both are
# (n,) int arrays.
StepFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _tokens(history: list[tuple[np.ndarray, np.ndarray]], length: int, row: int) -> list[int]:
    """Tokens of row `row` of the live hypotheses of `length` tokens,
    followed back through the parents."""
    out = []
    for tokens, parents in reversed(history[:length]):
        out.append(int(tokens[row]))
        row = parents[row]
    return out[::-1]


def _top_k(logprobs: np.ndarray, k: int) -> np.ndarray:
    """Each row's k best ids by (log-prob descending, id ascending), in any
    order. argpartition may cut through a tie at the k-th value; only the
    rows where one does, which then hold more than k values at or above it,
    are ranked again by a stable sort."""
    v = logprobs.shape[-1]
    top = np.argpartition(logprobs, v - k, axis=-1)[:, v - k :]  # column 0 holds the k-th best
    at_or_above = logprobs >= logprobs[np.arange(len(top)), top[:, 0]][:, None]
    if np.count_nonzero(at_or_above) > top.size:
        tied = np.count_nonzero(at_or_above, axis=-1) > k
        top[tied] = np.argsort(-logprobs[tied], axis=-1, kind="stable")[:, :k]
    return top


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
    history: list[tuple[np.ndarray, np.ndarray]] = []  # [n - 1]: (tokens, parents) of the live of n tokens
    # Finished hypotheses, one entry per step that ends some: (scores,
    # length, rows, eos); the hypotheses are the live of `length - eos`
    # tokens at `rows`, followed by EOS if eos.
    ended: list[tuple[np.ndarray, int, np.ndarray, bool]] = []
    parents, last, logp = np.zeros(1, np.int64), np.full(1, BOS_ID, np.int64), np.zeros(1)
    for step in range(max_len):
        logprobs = step_fn(parents, last)
        k = min(fanout, logprobs.shape[-1])
        if k == 1:  # row i's one candidate is candidate i; argmax takes the first maximum
            top = np.argmax(logprobs, axis=-1)
            rows = np.arange(len(top))
            cand_logp = logp + logprobs[rows, top]
        else:
            top = np.sort(_top_k(logprobs, k), axis=-1).ravel()
            rows = np.arange(len(top)) // k
            cand_logp = logp[rows] + logprobs[rows, top]
        score = cand_logp / (step + 1) if length_normalize else cand_logp
        ends = top == EOS_ID
        if len(top) > beam_size or np.count_nonzero(ends):
            order = np.argsort(-score, kind="stable")
            eos = ends[order]
            if eos.any():
                done = order[eos]
                ended.append((score[done], step + 1, rows[done], True))
            keep = np.sort(order[~eos][:beam_size])
            if not keep.size:
                break
            parents, last, logp, score = rows[keep], top[keep], cand_logp[keep], score[keep]
        else:  # every candidate stays live
            parents, last, logp = rows, top, cand_logp
        history.append((last, parents))
    else:  # the live hypotheses ran into max_len
        ended.append((score, max_len, np.arange(len(score)), False))
    best = max(float(scores.max()) for scores, *_ in ended)
    shortest = min(length for scores, length, *_ in ended if (scores == best).any())
    ties = [
        _tokens(history, length - eos, int(row)) + [EOS_ID] * eos
        for scores, length, rows, eos in ended
        if length == shortest
        for row in rows[scores == best]
    ]
    tokens = min(ties)
    return tokens[:-1] if tokens[-1] == EOS_ID else tokens


def model_step_fn(model: Seq2SeqTransformer, src_ids: Sequence[int]) -> StepFn:
    """Encode once; each step reorders the decoder cache by the back-pointers
    and feeds one new position per hypothesis through the decoder.

    An empty source, or one holding an id outside the vocabulary, raises
    DataError before anything is encoded.
    """
    src = np.asarray([src_ids], dtype=np.int64)
    vocab_size = model.config.vocab_size
    if not src.size:
        raise DataError("empty source")
    bad = np.flatnonzero((src[0] < 0) | (src[0] >= vocab_size))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"source id {int(src[0, i])} at position {i} is outside the vocabulary 0..{vocab_size - 1}")
    enc_out, src_mask = model.encode(src, train=False)
    cache = DecoderCache(model.config)

    def step(parents: np.ndarray, tokens: np.ndarray) -> np.ndarray:
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
