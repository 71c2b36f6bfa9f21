"""Greedy and beam-search decoding with length-normalized scoring.

The beam keeps `beam_size` live hypotheses; each step expands every live
hypothesis with its top-`fanout` next tokens, then reselects the best
`beam_size` by score. Hypotheses end at [EOS] or max_len and the best
finished hypothesis wins. A hypothesis's score is its sum log-probability
divided by its generated length (length-normalised). Ties go to the shorter,
then the lexicographically smaller hypothesis.

Decoding is incremental: the step callback receives only the token that each
live hypothesis has just added, plus a back-pointer to the row of the
previous step's state that the hypothesis extends, so a model step feeds one
position per hypothesis through the decoder (fairseq's incremental_state and
reorder_incremental_state, Ott et al. 2019). The model's step runs on a
DecoderCache built for the encoded source, which starts from one row, the
empty prefix, and raises DataError on a back-pointer outside the previous
step's rows or below the one before it, or a token outside the vocabulary,
naming the value and its row.
Greedy decoding is beam search with beam 1 and fanout 1, through the same
top-k as every other fanout.

The live hypotheses are one (live, length) array of their tokens, kept in
lexicographic order, so a stable sort by score alone ranks the candidates by
(score, tokens). Finished ones are (-score, length, tokens); the least wins.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DataError, check_size
from ..text import BOS_ID, EOS_ID, reserved_token_error
from .layers import scoring
from .seq2seq import DecoderCache, Seq2SeqTransformer

# step_fn(parents, tokens) -> (n, V) next-token log-probs. Hypothesis i is the
# prefix that row parents[i] of the previous call scored, extended by
# tokens[i]; the first call gets parents [0] and tokens [BOS]. Both are (n,)
# int arrays; parents never decreases, as `_top_k` returns rows in row-major
# order and `beam_search` keeps np.sort of the kept candidates' indices.
StepFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _top_k(logprobs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, ids) of each row's k best ids by (log-prob descending, id
    ascending), in lexicographic order: row by row, each row's ids
    ascending. A row's k-th largest value is its threshold, and the ids at
    or above it are its k best unless the threshold is tied; then there are
    more than k such ids in all, and the rows are ranked by a stable sort."""
    n, v = logprobs.shape
    rows, ids = (logprobs >= np.partition(logprobs, v - k, axis=-1)[:, v - k, None]).nonzero()
    if len(ids) != n * k:
        ids = np.sort(np.argsort(-logprobs, axis=-1, kind="stable")[:, :k], axis=-1).ravel()
        rows = np.arange(n).repeat(k)
    return rows, ids


def beam_search(
    step_fn: StepFn,
    beam_size: int = 4,
    fanout: int = 6,
    max_len: int = 32,
) -> list[int]:
    """Generic beam search over a next-token log-probability callback.

    Returns the generated ids without BOS, with the trailing EOS stripped.
    beam_size, fanout and max_len must be integers of at least 1
    (`errors.check_size`), or DataError names the first that is not.
    """
    _check_sizes(beam_size, fanout, max_len)
    finished: list[tuple[float, int, list[int]]] = []
    seqs, parents = np.zeros((1, 0), np.int64), np.zeros(1, np.int64)
    last, logp = np.full(1, BOS_ID, np.int64), np.zeros(1)
    for step in range(max_len):
        logprobs = step_fn(parents, last)
        rows, top = _top_k(logprobs, min(fanout, logprobs.shape[-1]))
        cand_logp = logp[rows] + logprobs[rows, top]
        score = cand_logp / (step + 1)
        ends = top == EOS_ID
        if len(top) > beam_size or np.count_nonzero(ends):
            order = np.argsort(-score, kind="stable")
            eos = ends[order]
            for i in order[eos].tolist():
                finished.append((-float(score[i]), step + 1, seqs[rows[i]].tolist() + [EOS_ID]))
            keep = np.sort(order[~eos][:beam_size])
            if not keep.size:
                break
            parents, last, logp, score = rows[keep], top[keep], cand_logp[keep], score[keep]
        else:  # every candidate stays live
            parents, last, logp = rows, top, cand_logp
        seqs = np.concatenate((seqs.take(parents, 0), last[:, None]), 1)
    else:  # the live hypotheses ran into max_len
        finished += [(-s, max_len, tokens) for s, tokens in zip(score.tolist(), seqs.tolist())]
    tokens = min(finished)[2]
    return tokens[:-1] if tokens[-1] == EOS_ID else tokens


def _check_sizes(beam_size, fanout, max_len) -> None:
    for name, value in (("beam_size", beam_size), ("fanout", fanout), ("max_len", max_len)):
        check_size(name, value)


def model_step_fn(model: Seq2SeqTransformer, src_ids: Sequence[int]) -> StepFn:
    """Encode once, in `layers.scoring()`, and build the source's
    DecoderCache; each step reorders the cache by the back-pointers and
    feeds one new position per hypothesis through
    `Seq2SeqTransformer.next_token_logprobs`.

    An empty source, or one holding a non-integer, an id outside the
    vocabulary or a [PAD], [BOS] or [EOS] (text.reserved_token_error),
    raises DataError before anything is encoded. A step raises DataError
    on a back-pointer outside 0..n-1, n the previous step's rows (1 at the
    first step, the empty prefix), or below the back-pointer before it, on
    a token outside the vocabulary, and past the model's max_len positions.
    """
    src_ids = list(src_ids)
    if not src_ids:
        raise DataError("empty source")
    bad = reserved_token_error(src_ids, model.config.vocab_size)
    if bad:
        raise DataError(f"source {bad}")
    with scoring():  # no layer keeps an array: the decoder runs on the cache
        enc_out, src_mask = model.encode(np.asarray([src_ids], dtype=np.int64))
    cache = DecoderCache(model, enc_out, src_mask)

    def step(parents: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        cache.reorder(parents)
        new_ids = np.asarray(tokens, dtype=np.int64)[:, None]
        return model.next_token_logprobs(new_ids, cache)

    return step


def beam_decode(
    model: Seq2SeqTransformer,
    src_ids: Sequence[int],
    beam_size: int = 4,
    fanout: int = 6,
    max_len: int | None = None,
) -> list[int]:
    """Beam-search translation of one source sentence.

    max_len defaults to, and may not exceed, model.config.max_len - 1, so
    that [BOS] + output fits the model's positions. A beam_size, fanout or
    max_len that is not an integer of at least 1, a fanout below beam_size
    and a max_len above that limit raise DataError before the source is
    encoded.
    """
    limit = model.config.max_len - 1
    if max_len is None:
        max_len = limit
    _check_sizes(beam_size, fanout, max_len)
    if fanout < beam_size:
        raise DataError("fanout must be >= beam_size")
    if max_len > limit:
        raise DataError(f"max_len={max_len} is outside 1..{limit}, the model's output length range")
    return beam_search(model_step_fn(model, src_ids), beam_size=beam_size, fanout=fanout, max_len=max_len)


def greedy_decode(model: Seq2SeqTransformer, src_ids: Sequence[int], max_len: int | None = None) -> list[int]:
    """Argmax decoding: beam search with beam_size=1, fanout=1."""
    return beam_decode(model, src_ids, beam_size=1, fanout=1, max_len=max_len)
