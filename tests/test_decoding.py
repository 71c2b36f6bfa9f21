import numpy as np
import pytest

from rulefst.errors import DataError
from rulefst.model import ModelConfig, Seq2SeqTransformer, beam_decode, beam_search, greedy_decode, model_step_fn
from rulefst.text import BOS_ID, EOS_ID, PAD_ID


def tiny_model(vocab_size=12, seed=0):
    config = ModelConfig(
        vocab_size=vocab_size,
        d_model=16,
        heads=2,
        enc_layers=1,
        dec_layers=2,
        ffn_dim=32,
        max_len=12,
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
