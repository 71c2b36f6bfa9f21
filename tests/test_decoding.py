import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulefst.errors import DataError
from rulefst.model import ModelConfig, Seq2SeqTransformer, beam_decode, beam_search, greedy_decode, model_step_fn
from rulefst.text import BOS_ID, EOS_ID, PAD_ID


def tiny_model(vocab_size=12, seed=0, max_len=12):
    config = ModelConfig(
        vocab_size=vocab_size,
        d_model=16,
        heads=2,
        enc_layers=1,
        dec_layers=2,
        ffn_dim=32,
        max_len=max_len,
        dropout=0.0,
        dtype="float64",
    )
    return Seq2SeqTransformer(config, seed=seed)


class PrefixStep:
    """Step callback that rebuilds every hypothesis's whole prefix from the
    back-pointers and scores it with score(prefixes) -> (n, V)."""

    def __init__(self, score):
        self.score = score
        self.prefixes = [[]]
        self.seen = []

    def __call__(self, parents, tokens):
        self.prefixes = [self.prefixes[p] + [t] for p, t in zip(parents, tokens)]
        self.seen.extend(self.prefixes)
        return self.score(self.prefixes)


def full_prefix_scores(model, src):
    """Reference scorer: re-decodes each whole prefix, without a cache."""
    enc_out, src_mask = model.encode(np.asarray([src], dtype=np.int64))

    def score(prefixes):
        n = len(prefixes)
        tgt = np.asarray(prefixes, dtype=np.int64)
        return model.next_token_logprobs(np.repeat(enc_out, n, 0), np.repeat(src_mask, n, 0), tgt)

    return score


def exhaustive_best(score, vocab_size, max_len, length_normalize):
    """Best output over every sequence beam search can finish: EOS-ended
    ones up to max_len, and EOS-free ones of exactly max_len."""
    finished = []

    def visit(tokens, logp):
        row = score([[BOS_ID] + tokens])[0]
        for tok in range(vocab_size):
            hyp = (tokens + [tok], logp + float(row[tok]))
            if tok == EOS_ID or len(hyp[0]) == max_len:
                finished.append(hyp)
            else:
                visit(*hyp)

    visit([], 0.0)

    def key(hyp):
        tokens, logp = hyp
        s = logp / len(tokens) if length_normalize else logp
        return (-s, len(tokens), tokens)

    best = min(finished, key=key)[0]
    return best[:-1] if best[-1] == EOS_ID else best


def random_scores(vocab_size, seed):
    """Scorer with peaked, seeded log-probs that depend on the whole prefix."""

    def score(prefixes):
        rows = np.stack([np.random.default_rng([seed, *p]).normal(0.0, 3.0, vocab_size) for p in prefixes])
        rows[:, EOS_ID] -= 2.0  # so that most of the best outputs run to max_len
        return rows - np.log(np.exp(rows).sum(axis=1, keepdims=True))

    return score


@pytest.mark.parametrize("length_normalize", [True, False])
def test_unpruned_beam_equals_exhaustive_search(length_normalize):
    vocab_size, max_len = 8, 3
    unpruned = dict(beam_size=vocab_size**max_len, fanout=vocab_size, max_len=max_len, length_normalize=length_normalize)
    src = [6, 7, 3, 6]
    for seed in range(3):
        model = tiny_model(vocab_size, seed)
        got = beam_search(model_step_fn(model, src), **unpruned)
        assert got == exhaustive_best(full_prefix_scores(model, src), vocab_size, max_len, length_normalize)
    # A model at its initialisation scores every prefix alike; these scores
    # depend on the whole prefix, so a wrong back-pointer changes the winner.
    for seed in range(20):
        score = random_scores(vocab_size, seed)
        got = beam_search(PrefixStep(score), **unpruned)
        assert got == exhaustive_best(score, vocab_size, max_len, length_normalize)


def test_cached_steps_match_full_prefix_after_reorders():
    model = tiny_model(seed=3)
    model.store.values["out.bias"][PAD_ID] = 2.0  # so live hypotheses hold [PAD]
    src = [7, 8, 9, 10, 11]
    cached = model_step_fn(model, src)
    reference = PrefixStep(full_prefix_scores(model, src))

    reordered = []

    def both(parents, tokens):
        reordered.append(not np.array_equal(parents, np.arange(len(parents))))
        got = cached(parents, tokens)
        np.testing.assert_allclose(got, reference(parents, tokens), rtol=0, atol=1e-6)
        return got

    out = beam_search(both, beam_size=3, fanout=5, max_len=10)
    assert out == beam_search(PrefixStep(full_prefix_scores(model, src)), beam_size=3, fanout=5, max_len=10)
    assert any(PAD_ID in p for p in reference.seen)
    assert any(reordered)


def test_cached_steps_match_full_prefix_for_hand_picked_back_pointers():
    model = tiny_model(seed=4)
    src = [7, 9, PAD_ID]
    cached = model_step_fn(model, src)
    reference = PrefixStep(full_prefix_scores(model, src))
    moves = [([0], [BOS_ID]), ([0, 0, 0], [7, PAD_ID, 9]), ([2, 0, 1, 1], [PAD_ID, 8, 10, 7]), ([3, 3], [9, PAD_ID])]
    for parents, tokens in moves:
        parents = np.asarray(parents)
        np.testing.assert_allclose(cached(parents, tokens), reference(parents, tokens), rtol=0, atol=1e-6)


def test_greedy_is_the_argmax_loop_and_equals_beam_1_fanout_1():
    stopped_early = 0
    for seed in range(4):
        model = tiny_model(seed=seed)
        model.store.values["out.bias"][EOS_ID] = 0.5 * seed
        src = [7, 8, 9, 10]
        score = full_prefix_scores(model, src)
        argmax = []
        for _ in range(10):
            tok = int(np.argmax(score([[BOS_ID] + argmax])[0]))
            if tok == EOS_ID:
                break
            argmax.append(tok)
        stopped_early += len(argmax) < 10
        assert greedy_decode(model, src, max_len=10) == argmax
        assert beam_decode(model, src, beam_size=1, fanout=1, max_len=10) == argmax
    assert stopped_early


def tied_rows(n, vocab_size, seed):
    """Log-prob-like rows on a coarse grid, so that most rows hold ties, with
    EOS far below the rest."""
    rows = np.round(np.random.default_rng(seed).normal(-3.0, 1.0, (n, vocab_size)))
    rows[:, EOS_ID] = -50.0
    return rows


def test_greedy_takes_the_first_maximum_on_tied_rows():
    rows = tied_rows(200, 12, seed=0)
    assert sum(np.count_nonzero(r == r.max()) > 1 for r in rows) > 20
    calls = iter(rows)
    got = beam_search(lambda parents, tokens: next(calls)[None], beam_size=1, fanout=1, max_len=len(rows))
    assert got == [int(np.argmax(r)) for r in rows]


def test_fanout_cut_keeps_the_smaller_ids_of_tied_tokens():
    k, cut_ties = 4, 0
    for row in tied_rows(200, 12, seed=1):
        ranked = sorted(range(len(row)), key=lambda t: (-row[t], t))
        cut_ties += row[ranked[k - 1]] == row[ranked[k]]
        step = PrefixStep(lambda prefixes: np.tile(row, (len(prefixes), 1)))
        beam_search(step, beam_size=k, fanout=k, max_len=2)
        # the second call scores the k live hypotheses, one per selected token
        assert sorted(prefix[-1] for prefix in step.seen[1:]) == sorted(ranked[:k])
    assert cut_ties > 20


def table_scores(table, vocab_size=8):
    """Scorer from {prefix: {token: log-prob}}; every other token gets -20."""

    def score(prefixes):
        rows = np.full((len(prefixes), vocab_size), -20.0)
        for row, p in zip(rows, prefixes):
            for tok, logp in table.get(tuple(p), {}).items():
                row[tok] = logp
        return rows

    return score


def test_length_normalisation_ranks_by_mean_log_prob():
    a = 7
    table = {
        (BOS_ID,): {EOS_ID: -1.0, a: -0.1},  # [EOS]: sum -1.0, mean -1.0
        (BOS_ID, a): {EOS_ID: -1.2},  # [a, EOS]: sum -1.3, mean -0.65
    }

    def run(length_normalize):
        return beam_search(
            PrefixStep(table_scores(table)), beam_size=2, fanout=2, max_len=2, length_normalize=length_normalize
        )

    assert run(length_normalize=True) == [a]
    assert run(length_normalize=False) == []


def test_length_normalisation_breaks_ties_by_shorter_then_lexicographic():
    # [6, EOS] and [7, EOS] tie with [EOS] on mean log-prob -1.0.
    table = {(BOS_ID,): {EOS_ID: -1.0, 6: -1.0, 7: -1.0}, (BOS_ID, 6): {EOS_ID: -1.0}, (BOS_ID, 7): {EOS_ID: -1.0}}
    assert beam_search(PrefixStep(table_scores(table)), beam_size=3, fanout=3, max_len=2) == []
    del table[(BOS_ID,)][EOS_ID]
    assert beam_search(PrefixStep(table_scores(table)), beam_size=3, fanout=3, max_len=2) == [6]


def test_beam_cut_breaks_score_ties_lexicographically_across_parents():
    # Step 1 ranks [7] above [6]; at step 2, [6, 5] and [7, 3] tie at -2.0
    # for the one slot that [7, 4] leaves, and the smaller tokens win it.
    table = {
        (BOS_ID,): {6: -1.0, 7: -0.5},
        (BOS_ID, 6): {5: -1.0, 4: -3.0},
        (BOS_ID, 7): {3: -1.5, 4: -0.1},
        (BOS_ID, 6, 5): {EOS_ID: 0.0},
        (BOS_ID, 7, 3): {EOS_ID: 0.0},
        (BOS_ID, 7, 4): {EOS_ID: -5.0},
    }
    args = dict(beam_size=2, fanout=2, max_len=3, length_normalize=False)
    assert beam_search(PrefixStep(table_scores(table)), **args) == [6, 5]
    assert reference_beam_search(PrefixStep(table_scores(table)), **args) == [6, 5]


def test_max_len_outside_the_output_range_raises_before_encoding(monkeypatch):
    model = tiny_model()
    limit = model.config.max_len - 1

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded a source that cannot be decoded")

    monkeypatch.setattr(model, "encode", no_encode)
    for decode in (lambda **kw: beam_decode(model, [7, 8], **kw), lambda **kw: greedy_decode(model, [7, 8], **kw)):
        for max_len in (limit + 1, 0):
            with pytest.raises(DataError, match="max_len"):
                decode(max_len=max_len)
    with pytest.raises(DataError, match="max_len"):
        beam_search(PrefixStep(random_scores(8, 0)), max_len=0)


def test_decoder_cache_keeps_the_target_length_guard():
    model = tiny_model()
    step = model_step_fn(model, [7, 8])
    step(np.asarray([0]), [BOS_ID])
    for _ in range(model.config.max_len - 1):
        step(np.asarray([0]), [7])
    with pytest.raises(DataError, match="target length"):
        step(np.asarray([0]), [7])


def test_cached_steps_match_full_prefix_out_to_max_len():
    """The in-place cache over every position the model has, through
    reorders that repeat, drop, grow, shrink and keep rows."""
    model = tiny_model(seed=5, max_len=40)
    src = [7, 8, PAD_ID, 9, 10, 11]
    cached = model_step_fn(model, src)
    reference = PrefixStep(full_prefix_scores(model, src))
    rng = np.random.default_rng(5)
    rows, seen = 1, set()
    for position in range(model.config.max_len):
        if position == 0:
            parents, tokens = np.asarray([0]), [BOS_ID]
        else:
            kind = ["random", "random", "identity", "random", "prefix", "one"][position % 6]
            if kind == "random":
                parents = rng.integers(0, rows, size=int(rng.integers(1, 6)))
            elif kind == "identity":
                parents = np.arange(rows)
            elif kind == "prefix":
                parents = np.arange(max(rows - 1, 1))
            else:
                parents = np.asarray([rows - 1])
            kept = set(parents.tolist())
            seen |= {("repeat", len(kept) < len(parents)), ("drop", len(kept) < rows), ("grow", len(parents) > rows)}
            tokens = rng.integers(0, model.config.vocab_size, size=len(parents)).tolist()
        rows = len(parents)
        np.testing.assert_allclose(cached(parents, tokens), reference(parents, tokens), rtol=0, atol=1e-6)
    assert {("repeat", True), ("drop", True), ("grow", True)} <= seen
    assert any(PAD_ID in p for p in reference.seen)
    assert len(reference.prefixes[0]) == model.config.max_len
    with pytest.raises(DataError, match="target length"):
        cached(np.asarray([0]), [7])


@pytest.mark.parametrize(
    "src, message",
    [
        ([7, -1, 5], r"source id -1 at position 1\b"),
        ([25, 3], r"source id 25 at position 0\b"),
        ([7, 8, 12], r"source id 12 at position 2\b"),
        ([], "empty source"),
    ],
    ids=["negative", "far-above-vocab", "vocab-size", "empty"],
)
def test_bad_source_raises_before_encoding(monkeypatch, src, message):
    model = tiny_model()  # vocab_size 12

    def no_encode(*args, **kwargs):
        raise AssertionError("encoded a bad source")

    monkeypatch.setattr(model, "encode", no_encode)
    for decode in (beam_decode, greedy_decode):
        with pytest.raises(DataError, match=message):
            decode(model, src)


# ---- reference: the list-based beam search ----------------------------------


def _reference_score(logp_sum, length, length_normalize):
    if not length_normalize:
        return logp_sum
    return logp_sum / max(length, 1)


def _reference_key(hyp, length_normalize):
    tokens, logp = hyp
    return (-_reference_score(logp, len(tokens), length_normalize), len(tokens), tokens)


def reference_beam_search(step_fn, beam_size=4, fanout=6, max_len=32, length_normalize=True):
    """Beam search that keeps every hypothesis as a token list: each row's
    `fanout` best tokens by (-log-prob, id) become (tokens + [tok], logp)
    candidates, sorted by (-score, length, tokens)."""
    live = [([], 0.0)]
    parents = [0]
    finished = []
    for _ in range(max_len):
        last = [tokens[-1] if tokens else BOS_ID for tokens, _ in live]
        logprobs = step_fn(np.asarray(parents), last)
        candidates = []
        for parent, ((tokens, logp), row) in enumerate(zip(live, logprobs)):
            for tok in sorted(range(row.shape[-1]), key=lambda t: (-row[t], t))[:fanout]:
                candidates.append((tokens + [tok], logp + float(row[tok]), parent))
        candidates.sort(key=lambda h: _reference_key(h[:2], length_normalize))
        live, parents = [], []
        for tokens, logp, parent in candidates:
            if tokens[-1] == EOS_ID:
                finished.append((tokens, logp))
            elif len(live) < beam_size:
                live.append((tokens, logp))
                parents.append(parent)
        if not live:
            break
    finished.extend(live)
    finished.sort(key=lambda h: _reference_key(h, length_normalize))
    best = finished[0][0]
    if best and best[-1] == EOS_ID:
        best = best[:-1]
    return best


def grid_scores(vocab_size, seed, grid, eos_penalty):
    """Scorer whose seeded, prefix-dependent log-probs are rounded to a
    coarse grid, so that scores tie often, within a step and across lengths;
    an EOS penalty keeps hypotheses alive to the beam's cut."""

    def score(prefixes):
        rows = np.stack([np.random.default_rng([seed, *p]).normal(-2.0, 1.5, vocab_size) for p in prefixes])
        rows = np.minimum(np.round(rows / grid) * grid, 0.0)
        rows[:, EOS_ID] -= eos_penalty
        return rows

    return score


@settings(max_examples=300, deadline=None)
@given(
    vocab_size=st.integers(3, 8),
    max_len=st.integers(1, 4),
    data=st.data(),
    length_normalize=st.booleans(),
    seed=st.integers(0, 2**16),
    grid=st.sampled_from([0.5, 1.0, 2.0]),
    eos_penalty=st.sampled_from([0.0, 1.0, 4.0]),
)
def test_beam_search_equals_the_list_based_reference(
    vocab_size, max_len, data, length_normalize, seed, grid, eos_penalty
):
    beam_size = data.draw(st.one_of(st.integers(1, 4), st.integers(1, vocab_size**max_len)), label="beam_size")
    fanout = data.draw(st.integers(1, vocab_size), label="fanout")
    args = dict(beam_size=beam_size, fanout=fanout, max_len=max_len, length_normalize=length_normalize)
    score = grid_scores(vocab_size, seed, grid, eos_penalty)
    assert beam_search(PrefixStep(score), **args) == reference_beam_search(PrefixStep(score), **args)
