"""Length-sorted sub-batches in `loss` and `loss_and_grads`: the split must
give the loss and gradients of the whole padded batch."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import grad_check
from rulefst.model import ModelConfig, Seq2SeqTransformer, make_batch
from rulefst.model import seq2seq
from rulefst.model.seq2seq import content_lengths, split_rows
from rulefst.text import BOS_ID, PAD_ID

MAX_LEN = 16
HEADS = 2
FFN_DIM = 32


def model(seed=0, dtype="float64", dropout=0.0):
    cfg = ModelConfig(
        vocab_size=12, d_model=16, heads=HEADS, enc_layers=1, dec_layers=2, ffn_dim=FFN_DIM,
        max_len=MAX_LEN, dropout=dropout, dtype=dtype,
    )
    return Seq2SeqTransformer(cfg, seed=seed)


def mixed_batch(seed=0):
    """Sources of 1 to MAX_LEN tokens in shuffled order, targets of 0 to
    MAX_LEN - 1 tokens, and one row whose target is all [PAD]."""
    rng = np.random.default_rng(seed)
    src_lens = rng.permutation([1, MAX_LEN, 3, 9, 2, 14, 6, 11, 5, 16, 7])
    tgt_lens = rng.permutation([0, 1, 4, MAX_LEN - 1, 2, 8, 12, 3, 6, 10, 5])
    pairs = [
        (rng.integers(6, 12, s).tolist(), rng.integers(6, 12, t).tolist())
        for s, t in zip(src_lens, tgt_lens)
    ]
    src, tgt_in, tgt_out = make_batch(pairs)
    tgt_in[4], tgt_out[4] = PAD_ID, PAD_ID
    return src, tgt_in, tgt_out


def cost(rows, side, heads, ffn_dim, itemsize):
    """The cost that `split_rows` gives `rows` rows of length `side`."""
    return rows * side * max(heads * side, 2 * ffn_dim) * itemsize


def budget_for(rows, side):
    """A budget that lets `rows` rows of length `side` share a sub-batch of
    the float64 test model."""
    return cost(rows, side, HEADS, FFN_DIM, 8)


def run(budget, batch):
    m = model(seed=3)
    with mock.patch.object(seq2seq, "SUB_BATCH_BYTES", budget):
        n_sub = len(list(m._sub_batches(*batch)))
        loss, n_tok = m.loss_and_grads(*batch)
        eval_loss, _ = m.loss(*batch)
    return n_sub, loss, n_tok, eval_loss, m.store.grads


def test_split_loss_and_gradients_equal_the_unsplit_and_one_row_paths():
    batch = mixed_batch()
    n_one, loss_one, n_tok, eval_one, whole = run(math.inf, batch)
    n_mid, loss_mid, n_tok_mid, eval_mid, mid = run(budget_for(3, 10), batch)
    n_row, loss_row, n_tok_row, eval_row, single = run(0, batch)
    assert (n_one, n_row) == (1, len(batch[0])) and 3 <= n_mid < n_row
    assert n_tok == n_tok_mid == n_tok_row == int((batch[2] != PAD_ID).sum())
    for loss in (loss_mid, loss_row, eval_one, eval_mid, eval_row):
        assert loss == pytest.approx(loss_one, abs=1e-10)
    assert set(whole) == set(mid) == set(single) == set(model().store.values)
    for name, g in whole.items():
        np.testing.assert_allclose(mid[name], g, rtol=0, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(single[name], g, rtol=0, atol=1e-10, err_msg=name)


def test_split_loss_equals_cross_entropy_of_the_full_padded_forward():
    src, tgt_in, tgt_out = batch = mixed_batch(seed=1)
    m = model(seed=4)
    full, _, n_full = m._ce(m.forward(src, tgt_in), tgt_out)
    with mock.patch.object(seq2seq, "SUB_BATCH_BYTES", budget_for(2, 8)):
        assert len(list(m._sub_batches(*batch))) >= 3
        loss, n_tok = m.loss(*batch)
        grad_loss, _ = m.loss_and_grads(*batch)
    assert n_tok == n_full
    assert loss == pytest.approx(full, abs=1e-10)
    assert grad_loss == pytest.approx(full, abs=1e-10)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("budget", [math.inf, budget_for(3, 10), 1], ids=["whole", "mid", "one-row"])
def test_loss_is_the_loss_of_loss_and_grads_bit_for_bit(budget, dtype):
    """`loss`, which computes no gradient and drops nothing, gives a dropout
    model the loss that `loss_and_grads` gives its dropout-0 twin, built
    from the same parameters, bit for bit, also when a sub-batch holds only
    the all-[PAD] target row, as at one row per sub-batch."""
    batch = mixed_batch(seed=3)
    m = model(seed=6, dtype=dtype, dropout=0.1)
    twin = Seq2SeqTransformer(replace(m.config, dropout=0.0), seed=6, params=m.store.values)
    with mock.patch.object(seq2seq, "SUB_BATCH_BYTES", budget):
        tokens = [int((tgt_out != PAD_ID).sum()) for _, _, tgt_out in m._sub_batches(*batch)]
        if budget == 1:
            assert 0 in tokens  # the all-[PAD] row's own sub-batch
        assert m.loss(*batch) == twin.loss_and_grads(*batch)


def test_grad_check_passes_across_sub_batches():
    src, tgt_in, tgt_out = batch = mixed_batch(seed=2)
    keep = [0, 1, 2, 3, 4, 5]  # the all-PAD target row included
    batch = tuple(a[keep] for a in batch)
    m = model(seed=5)
    with mock.patch.object(seq2seq, "SUB_BATCH_BYTES", budget_for(2, 8)):
        assert len(list(m._sub_batches(*batch))) >= 3
        errors = grad_check(m, *batch, epsilon=1e-5, samples_per_param=3)
    assert errors["overall"] < 1e-4, errors


def test_zero_tokens_give_zero_loss_and_a_zero_gradient_for_every_parameter():
    src, tgt_in, tgt_out = mixed_batch(seed=4)
    tgt_out[:] = PAD_ID
    n_sub, loss, n_tok, eval_loss, grads = run(budget_for(3, 10), (src, tgt_in, tgt_out))
    assert n_sub >= 3
    assert (loss, n_tok, eval_loss) == (0.0, 0, 0.0)
    assert set(grads) == set(model().store.values)
    assert all(not g.any() for g in grads.values())


def test_sub_batches_are_trimmed_to_their_own_longest_rows():
    batch = mixed_batch(seed=5)
    with mock.patch.object(seq2seq, "SUB_BATCH_BYTES", budget_for(3, 10)):
        subs = list(model()._sub_batches(*batch))
    for src, tgt_in, tgt_out in subs:
        assert tgt_in.shape == tgt_out.shape and tgt_in.shape[0] == src.shape[0]
        assert (src[:, -1] != PAD_ID).any()
        assert (tgt_out[:, -1] != PAD_ID).any() or tgt_out.shape[1] == 1
    assert sum(s.shape[0] for s, _, _ in subs) == len(batch[0])


def test_content_lengths_stop_at_the_last_non_pad_id():
    ids = np.array([[6, 7, PAD_ID, 8, PAD_ID], [PAD_ID] * 5, [BOS_ID, 6, 7, 8, 9]])
    assert content_lengths(ids).tolist() == [4, 0, 5]


@given(
    lengths=st.lists(st.tuples(st.integers(0, 127), st.integers(0, 127)), min_size=1, max_size=40),
    heads=st.integers(1, 8),
    ffn_dim=st.integers(1, 512),
    itemsize=st.sampled_from([4, 8]),
    budget=st.integers(0, 1 << 21),
)
def test_split_covers_every_row_once_within_the_budget(lengths, heads, ffn_dim, itemsize, budget):
    src_len = np.array([s for s, _ in lengths])
    tgt_len = np.array([t for _, t in lengths])
    with mock.patch.object(seq2seq, "SUB_BATCH_BYTES", budget):
        subs = split_rows(src_len, tgt_len, heads, ffn_dim, itemsize)
    order = np.concatenate(subs)
    assert order.tolist() == np.argsort(-src_len, kind="stable").tolist()

    def size(rows):
        side = max(int(src_len[rows].max()), int(tgt_len[rows].max()), 1)
        return cost(len(rows), side, heads, ffn_dim, itemsize)

    for i, rows in enumerate(subs):
        assert len(rows) == 1 or size(rows) <= budget
        if i + 1 < len(subs):  # greedy: the next row would not have fitted
            assert size(np.append(rows, subs[i + 1][0])) > budget


# Source and target lengths of the first B=32 training batch of the
# benchmark's pipeline-cari workload at seed 1.
CARI_SRC = [59, 57, 38, 72, 64, 127, 62, 124, 43, 52, 78, 47, 123, 123, 79, 54,
            50, 120, 59, 124, 57, 45, 61, 54, 72, 42, 54, 36, 117, 71, 48, 58]
CARI_TGT = [19, 16, 14, 21, 16, 31, 22, 28, 21, 20, 19, 14, 30, 33, 21, 19,
            16, 28, 20, 32, 15, 14, 20, 16, 18, 13, 17, 12, 30, 22, 15, 15]


def default_split(src_len, tgt_len):
    """split_rows for the default float32 ModelConfig."""
    cfg = ModelConfig(vocab_size=300)
    return split_rows(np.array(src_len), np.array(tgt_len), cfg.heads, cfg.ffn_dim, np.dtype(cfg.dtype).itemsize)


def test_a_default_float32_cari_batch_is_cut_into_sub_batches_of_at_most_512_positions():
    subs = default_split(CARI_SRC, CARI_TGT)
    positions = [len(rows) * max(max(CARI_SRC[r], CARI_TGT[r]) for r in rows) for rows in subs]
    assert max(positions) <= 512 and sum(len(rows) for rows in subs) == 32
    assert max(positions) > 512 - 128  # no smaller cap than the cost gives


def test_rows_of_128_positions_still_go_four_to_a_sub_batch():
    subs = default_split([128] * 32, [17] * 32)
    assert [len(rows) for rows in subs] == [4] * 8
