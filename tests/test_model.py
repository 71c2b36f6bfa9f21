import functools
import json
import os
import re
import tempfile
import threading
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import grad_check, tiny_model_for_check
from rulefst.errors import DataError, TrainingError
from rulefst.model import (
    Checkpoint,
    ModelConfig,
    Seq2SeqTransformer,
    TrainSpec,
    beam_decode,
    evaluate_loss,
    greedy_decode,
    make_batch,
    train,
)
from rulefst.model import training
from rulefst.model.layers import (
    LN_EPS, Dense, Dropout, FeedForward, LayerNorm, MultiHeadAttention, ParamStore, scatter_add_rows, scoring,
    softmax,
)
from rulefst.model.seq2seq import DecoderCache
from rulefst.text import (
    BOS_ID, EOS_ID, PAD_ID, SEP_ID, SPECIAL_TOKENS, UNK_ID, Vocabulary, build_vocab, normalize_tweet, tokenize,
)


def tiny_config(**overrides):
    base = dict(
        vocab_size=12,
        d_model=16,
        heads=2,
        enc_layers=1,
        dec_layers=1,
        ffn_dim=32,
        max_len=12,
        dropout=0.0,
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


def batch_from(pairs):
    return make_batch(pairs)


# ---- independent straight-line forward oracle -------------------------------


def scalar_forward_loss(model, src, tgt_in, tgt_out):
    """Re-implementation of the forward pass with explicit loops, reading the
    parameter store directly. Kept independent of the layer classes."""
    P = model.store.values
    cfg = model.config
    dh = cfg.d_model // cfg.heads

    def layer_norm(vec, prefix):
        g, b = P[prefix + ".gamma"], P[prefix + ".beta"]
        mean = vec.mean()
        var = vec.var()
        return (vec - mean) / np.sqrt(var + 1e-5) * g + b

    def dense(vec, prefix, block=None):
        """vec @ W + b, or with a block index, through that (d, d) column
        block of a fused projection."""
        W, b = P[prefix + ".W"], P[prefix + ".b"]
        if block is not None:
            cols = slice(block * cfg.d_model, (block + 1) * cfg.d_model)
            W, b = W[:, cols], b[cols]
        return vec @ W + b

    def attention(q_rows, kv_rows, prefix, mask_fn, cross=False):
        lq, lk = len(q_rows), len(kv_rows)
        # Self-attention: wqkv holds the q, k, v blocks; cross: wq, and wkv the k, v blocks.
        if cross:
            q_name, kv_name, k_block = prefix + ".wq", prefix + ".wkv", 0
        else:
            q_name = kv_name = prefix + ".wqkv"
            k_block = 1
        q = np.stack([dense(r, q_name, 0) for r in q_rows])
        k = np.stack([dense(r, kv_name, k_block) for r in kv_rows])
        v = np.stack([dense(r, kv_name, k_block + 1) for r in kv_rows])
        out = np.zeros((lq, cfg.d_model))
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(lq):
                scores = np.empty(lk)
                for j in range(lk):
                    scores[j] = q[i, sl] @ k[j, sl] / np.sqrt(dh) + mask_fn(i, j)
                e = np.exp(scores - scores.max())
                a = e / e.sum()
                out[i, sl] = sum(a[j] * v[j, sl] for j in range(lk))
        return np.stack([dense(out[i], prefix + ".wo") for i in range(lq)])

    total_nll = 0.0
    n_tok = 0
    for b in range(src.shape[0]):
        src_row = src[b]
        ls = src.shape[1]
        x = np.stack([P["embed.tok.E"][src_row[i]] + P["embed.pos"][i] for i in range(ls)])

        def src_mask(i, j):
            return -1e9 if src_row[j] == PAD_ID else 0.0

        for li in range(cfg.enc_layers):
            pre = np.stack([layer_norm(x[i], f"enc{li}.ln1") for i in range(ls)])
            x = x + attention(pre, pre, f"enc{li}.attn", src_mask)
            for i in range(ls):
                h2 = layer_norm(x[i], f"enc{li}.ln2")
                hid = np.maximum(dense(h2, f"enc{li}.ffn.lin1"), 0.0)
                x[i] = x[i] + dense(hid, f"enc{li}.ffn.lin2")
        enc_out = np.stack([layer_norm(x[i], "enc.ln_f") for i in range(ls)])

        tgt_row = tgt_in[b]
        lt = tgt_in.shape[1]
        y = np.stack([P["embed.tok.E"][tgt_row[i]] + P["embed.pos"][i] for i in range(lt)])

        def tgt_mask(i, j):
            return -1e9 if j > i else 0.0

        for li in range(cfg.dec_layers):
            pre = np.stack([layer_norm(y[i], f"dec{li}.ln1") for i in range(lt)])
            y = y + attention(pre, pre, f"dec{li}.self", tgt_mask)
            pre = np.stack([layer_norm(y[i], f"dec{li}.ln2") for i in range(lt)])
            y = y + attention(pre, enc_out, f"dec{li}.cross", src_mask, cross=True)
            for i in range(lt):
                h2 = layer_norm(y[i], f"dec{li}.ln3")
                hid = np.maximum(dense(h2, f"dec{li}.ffn.lin1"), 0.0)
                y[i] = y[i] + dense(hid, f"dec{li}.ffn.lin2")

        for i in range(lt):
            if tgt_out[b, i] == PAD_ID:
                continue
            h = layer_norm(y[i], "dec.ln_f")
            logits = P["embed.tok.E"] @ h + P["out.bias"]
            e = np.exp(logits - logits.max())
            total_nll -= np.log(e[tgt_out[b, i]] / e.sum())
            n_tok += 1
    return total_nll / n_tok


def test_loss_matches_scalar_oracle():
    model = Seq2SeqTransformer(tiny_config(), seed=3)
    pairs = [([6, 7, 8], [9, 10]), ([11, 6], [7, 8, 9, 10]), ([8], [11])]
    src, tgt_in, tgt_out = batch_from(pairs)
    loss, _ = model.loss(src, tgt_in, tgt_out)
    oracle = scalar_forward_loss(model, src, tgt_in, tgt_out)
    assert loss == pytest.approx(oracle, abs=1e-10)


# ---- shape / masking / softmax ----------------------------------------------


def test_forward_single_token_shapes_and_finite():
    model = Seq2SeqTransformer(tiny_config(), seed=0)
    logits = model.forward(np.array([[7]]), np.array([[BOS_ID]]))
    assert logits.shape == (1, 1, 12)
    assert np.all(np.isfinite(logits))


def test_longer_pad_tail_does_not_change_logits():
    model = Seq2SeqTransformer(tiny_config(), seed=1)
    tgt_in = np.array([[BOS_ID, 6, 7]])
    short = model.forward(np.array([[6, 7, 8]]), tgt_in)
    longer = model.forward(np.array([[6, 7, 8, PAD_ID, PAD_ID]]), tgt_in)
    np.testing.assert_allclose(short, longer, atol=1e-12)


def test_pad_positions_in_batch_do_not_leak():
    model = Seq2SeqTransformer(tiny_config(), seed=1)
    pairs_a = [([6, 7], [8]), ([9, 10, 11, 6], [7, 8, 9])]
    pairs_b = [([6, 7], [8])]
    src_a, ti_a, to_a = batch_from(pairs_a)
    src_b, ti_b, to_b = batch_from(pairs_b)
    full = model.forward(src_a, ti_a)
    solo = model.forward(src_b, ti_b)
    np.testing.assert_allclose(full[0, : ti_b.shape[1]], solo[0], atol=1e-12)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@given(
    pairs=st.lists(
        st.tuples(st.lists(st.integers(6, 11), min_size=1, max_size=8), st.lists(st.integers(6, 11), max_size=8)),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**16),
)
def test_trailing_target_pad_ids_change_neither_loss_nor_gradients(dtype, pairs, seed):
    """The causal mask alone keeps a target's trailing [PAD] from every scored
    position: any ids in its place leave the loss and every gradient bit for
    bit as they were, with dropout on. One exception, of summation order:
    where a filler id is also a content id of the target, its zero gradient
    rows join that id's row sum in `scatter_add_rows`, whose pairwise
    reduction may then round the embedding row in its last bits."""
    src, tgt_in, tgt_out = batch_from(pairs)
    trailing = tgt_in == PAD_ID
    filled = np.where(trailing, np.random.default_rng(seed).integers(0, 12, tgt_in.shape), tgt_in)
    results = []
    for ids in (tgt_in, filled):
        model = Seq2SeqTransformer(tiny_config(dtype=dtype, dropout=0.1, dec_layers=2), seed=seed)
        loss, n_tok = model.loss_and_grads(src, ids, tgt_out, train=True)
        results.append((loss, n_tok, model.store.grads))
    (loss_a, n_a, grads_a), (loss_b, n_b, grads_b) = results
    assert loss_a == loss_b and n_a == n_b
    shared = sorted(set(filled[trailing].tolist()) & set(tgt_in[~trailing].tolist()))
    for name, grad in grads_a.items():
        other = grads_b[name]
        if name == "embed.tok.E":
            tol = 16 * np.finfo(dtype).eps * np.abs(grad[shared]).max(initial=0.0)
            np.testing.assert_allclose(other[shared], grad[shared], rtol=0, atol=tol)
            grad, other = np.delete(grad, shared, axis=0), np.delete(other, shared, axis=0)
        assert np.array_equal(grad, other), name


def test_causal_masking():
    model = Seq2SeqTransformer(tiny_config(), seed=2)
    src = np.array([[6, 7, 8]])
    tgt1 = np.array([[BOS_ID, 6, 7, 8]])
    tgt2 = np.array([[BOS_ID, 6, 11, 8]])  # change position 2
    l1 = model.forward(src, tgt1)
    l2 = model.forward(src, tgt2)
    np.testing.assert_allclose(l1[0, :2], l2[0, :2], atol=1e-12)
    assert not np.allclose(l1[0, 2], l2[0, 2])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_masks_are_read_only_views_of_one_buffer_per_dtype(dtype):
    """Each mask is the triangle of NEG_INF it always was, whichever longer
    mask its buffer was cut for."""
    for length in (5, 9, 3, 9, 1):
        mask = Seq2SeqTransformer.causal_mask(length, dtype)
        expected = np.triu(np.full((length, length), -1e9), k=1)[None, None].astype(dtype)
        assert mask.dtype == dtype and mask.shape == expected.shape and mask.tobytes() == expected.tobytes()
        assert not mask.flags.writeable
    assert np.shares_memory(Seq2SeqTransformer.causal_mask(3, dtype), Seq2SeqTransformer.causal_mask(9, dtype))


def test_attention_rows_sum_to_one():
    """forward(attention=True) returns every attention layer's weights, equal
    to those that a caching forward holds for its backward, rows summing to
    1 with no weight on a [PAD] key, and leaves no array on a layer."""
    model = Seq2SeqTransformer(tiny_config(enc_layers=2, dec_layers=2), seed=4)
    pairs = [([6, 7, 8], [9, 10]), ([11], [6])]
    src, tgt_in, tgt_out = batch_from(pairs)
    built = layer_state(model)
    logits, weights = model.forward(src, tgt_in, attention=True)
    assert layer_state(model) == built
    assert np.array_equal(logits, model.forward(src, tgt_in))
    layers = {f"enc{i}.attn": block.attn for i, block in enumerate(model.enc_blocks)}
    for i, block in enumerate(model.dec_blocks):
        layers.update({f"dec{i}.self": block.self_attn, f"dec{i}.cross": block.cross_attn})
    assert weights.keys() == layers.keys()
    model.decode(*model.encode(src), tgt_in)  # caches, as for a backward
    ls, lt = src.shape[1], tgt_in.shape[1]
    for name, attn in weights.items():
        lq, lk = (lt, lt) if name.endswith(".self") else (lt if name.startswith("dec") else ls, ls)
        assert attn.shape == (2, model.config.heads, lq, lk)
        assert np.array_equal(attn, layers[name]._attn.swapaxes(-1, -2))
        assert np.all(attn >= 0)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
        if not name.endswith(".self"):
            assert np.all(attn[1, :, :, 1:] < 1e-6)  # the second source is [11] and two [PAD]


def test_length_overflow_errors():
    model = Seq2SeqTransformer(tiny_config(), seed=0)
    with pytest.raises(DataError):
        model.forward(np.full((1, 13), 6), np.array([[BOS_ID]]))


def test_layer_norm_single_centering_pass_matches_var_formula():
    rng = np.random.default_rng(0)
    store = ParamStore(np.float64)
    ln = LayerNorm(store, "ln", 16)
    store.values["ln.gamma"][:] = rng.normal(1.0, 0.5, 16)
    store.values["ln.beta"][:] = rng.normal(0.0, 0.5, 16)
    x = rng.normal(3.0, 2.0, size=(4, 5, 16))
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    old = (x - mean) / np.sqrt(var + LN_EPS) * store.values["ln.gamma"] + store.values["ln.beta"]
    np.testing.assert_allclose(ln.forward(x), old, rtol=0, atol=1e-12)


def row_softmax(x):
    """Softmax over the last axis, kept apart from the layers' in-place, key-major one."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-15)])
@pytest.mark.parametrize("axis", [-1, -2, 0, 1])
def test_softmax_normalises_in_place_over_any_axis(axis, dtype, atol):
    """softmax normalises axis -2 of its argument; given a view of x with
    `axis` moved there, strided for every axis but -2, it normalises x over
    `axis` in place."""
    x = np.random.default_rng(6).normal(0.0, 5.0, size=(3, 4, 5, 6)).astype(dtype)
    x[1, 2] = -1e9  # a masked slice, in every orientation
    expected = np.moveaxis(row_softmax(np.moveaxis(x.astype(np.float64), axis, -1)), -1, axis)
    view = np.moveaxis(x, axis, -2)
    out = softmax(view)
    assert out is view and x.dtype == dtype
    np.testing.assert_allclose(x, expected, rtol=0, atol=atol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_draws_in_the_model_dtype_and_scales_what_it_keeps(dtype):
    x = np.full((40, 50), 2.0, dtype)
    out = Dropout(0.25).forward(x, True, np.random.default_rng(9))
    kept = out != 0
    assert out.dtype == dtype
    assert np.all(out[kept] == dtype(2.0) * (dtype(1.0) / dtype(0.75)))
    assert abs(kept.mean() - 0.75) < 0.03
    assert np.array_equal(out, Dropout(0.25).forward(x, True, np.random.default_rng(9)))
    uniforms = np.random.default_rng(9).random(x.shape, dtype=dtype)
    assert np.array_equal(kept, uniforms < 0.75)  # for float64 the stream of rng.random(shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_equals_the_float_mask_formula_bit_for_bit(dtype):
    """Forward output and backward gradient against a verbatim copy of the
    float-mask formula that the bool mask replaced, compared as bytes, so a
    dropped negative input must give -0.0 as it did."""
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 2.0, size=(6, 9, 16)).astype(dtype)
    dout = rng.normal(0.0, 2.0, size=x.shape).astype(dtype)
    for rate in (0.1, 0.25, 0.3):
        drop = Dropout(rate)
        out = drop.forward(x, True, np.random.default_rng(11))
        dx = drop.backward(dout)
        keep = 1.0 - rate
        u = np.random.default_rng(11).random(x.shape, dtype=x.dtype)
        mask = np.divide(u < keep, keep, out=u, dtype=x.dtype)
        assert out.dtype == dx.dtype == dtype
        assert out.tobytes() == (x * mask).tobytes()
        assert dx.tobytes() == (dout * mask).tobytes()
        assert np.signbit(out[(mask == 0) & (x < 0)]).all() and ((mask == 0) & (x < 0)).any()


DROPOUT_RATES = (0.1, 0.25, 0.7, 0.9)  # at 0.9, float32(0.1) * 2**24 is not an integer: the bound's ceiling counts


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_masks_drawn_in_turn_equal_rng_random_in_turn(dtype):
    """Masks of mixed even sizes, drawn one after another from one generator,
    equal the same sequence of `rng.random(shape, dtype) < 1 - rate` drawn
    from a generator of the same seed."""
    shapes = [(4, 6), (2, 3, 8), (10,), (64, 64), (1, 2), (3, 2, 16)]
    for rate in DROPOUT_RATES:
        drop = Dropout(rate)
        ours, numpy_stream = np.random.default_rng(4), np.random.default_rng(4)
        for shape in shapes:
            drop.forward(np.ones(shape, dtype), True, ours)
            assert np.array_equal(drop._mask, numpy_stream.random(shape, dtype=dtype) < 1.0 - rate), (rate, shape)


class RawWords:
    """A stand-in generator whose bit generator returns the given 64-bit words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, np.uint64)

    def random_raw(self, n):
        assert n == len(self.words)
        return self.words.copy()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_keeps_a_word_exactly_when_numpys_uniform_of_it_is_below_keep(dtype):
    """The words next to each rate's bound, against the uniforms NumPy makes
    of them: (word >> 11) * 2**-53, or for float32 (half >> 8) * 2**-24 of
    each 32-bit half, low half first."""
    assert float(np.float32(1 - 0.9)) * 2**24 % 1 != 0
    bits, shift, raw = (24, 8, np.uint32) if dtype == np.float32 else (53, 11, np.uint64)
    for rate in DROPOUT_RATES:
        x = float(dtype(1.0 - rate)) * 2**bits  # the bound before its ceiling
        # the integers around it, each with the bits below the shift clear and set
        near = [i << shift | low for i in range(int(x) - 2, int(x) + 3) for low in (0, (1 << shift) - 1)]
        words = [lo | hi << 32 for lo, hi in zip(near[::2], near[1::2])] if dtype == np.float32 else near
        uniforms = (np.array(near, raw) >> shift).astype(dtype) * dtype(2.0**-bits)
        drop = Dropout(rate)
        drop.forward(np.ones(len(uniforms), dtype), True, RawWords(words))
        expected = uniforms < 1.0 - rate
        assert expected.any() and not expected.all()
        assert np.array_equal(drop._mask, expected), rate


def test_an_odd_sized_float32_mask_drops_the_unused_half_of_its_last_word():
    """NumPy serves the unused half of an odd-sized float32 draw first in the
    next draw; the mask drops it. So an odd-sized mask equals rng.random's,
    and the next one equals what rng.random gives after a draw one larger,
    not after the odd one. float64 draws take whole words, so odd sizes
    stay in step with rng.random."""
    drop = Dropout(0.25)
    ours, numpy_stream, one_larger = (np.random.default_rng(6) for _ in range(3))
    drop.forward(np.ones((3, 5), np.float32), True, ours)
    assert np.array_equal(drop._mask, numpy_stream.random((3, 5), dtype=np.float32) < 0.75)
    assert np.array_equal(drop._mask.reshape(-1), one_larger.random(16, dtype=np.float32)[:15] < 0.75)
    drop.forward(np.ones((8, 8), np.float32), True, ours)
    assert np.array_equal(drop._mask, one_larger.random((8, 8), dtype=np.float32) < 0.75)
    assert not np.array_equal(drop._mask, numpy_stream.random((8, 8), dtype=np.float32) < 0.75)

    ours, numpy_stream = np.random.default_rng(6), np.random.default_rng(6)
    for shape in ((3, 5), (7,), (8, 8)):
        drop.forward(np.ones(shape), True, ours)
        assert np.array_equal(drop._mask, numpy_stream.random(shape) < 0.75)


@pytest.mark.parametrize("d_model, heads, ffn_dim, equal", [(64, 4, 256, True), (5, 1, 8, False)],
                         ids=["even", "odd"])
def test_a_model_with_an_even_d_model_drops_as_rng_random_masks_would(monkeypatch, d_model, heads, ffn_dim, equal):
    """Every activation the model drops has d_model as its last axis. With an
    even d_model, as in the default config, loss and gradients with dropout
    on equal, bit for bit, those of a model of the same seed whose masks come
    from `rng.random`; with an odd one, the odd-sized float32 draws (here 12
    of 3 positions by 5) put the two streams out of step."""
    config = ModelConfig(vocab_size=12, d_model=d_model, heads=heads, ffn_dim=ffn_dim, dropout=0.1)
    batch = batch_from([([6, 7, 8], [9, 10])])
    results = []
    for keep in (Dropout._keep, lambda self, shape, dtype, rng: rng.random(shape, dtype=dtype) < 1.0 - self.rate):
        monkeypatch.setattr(Dropout, "_keep", keep)
        model = Seq2SeqTransformer(config, seed=5)
        loss, _ = model.loss_and_grads(*batch, train=True)
        results.append((loss, model.store.grads))
    (loss_a, grads_a), (loss_b, grads_b) = results
    assert (loss_a == loss_b and all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a)) == equal


class UnfusedAttention:
    """Reference attention with separate wq, wk, wv and wo Dense layers."""

    def __init__(self, store, d_model, heads, rng):
        self.heads, self.d_head = heads, d_model // heads
        self.wq, self.wk, self.wv, self.wo = (Dense(store, n, d_model, d_model, rng) for n in ("wq", "wk", "wv", "wo"))

    def _split(self, x):
        b, l, _ = x.shape
        return x.reshape(b, l, self.heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x):
        b, h, l, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)

    def forward(self, q_in, kv_in, mask):
        q = self._split(self.wq.forward(q_in))
        k, v = self._split(self.wk.forward(kv_in)), self._split(self.wv.forward(kv_in))
        attn = row_softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(self.d_head) + mask)
        self._q, self._k, self._v, self._attn = q, k, v, attn
        return self.wo.forward(self._merge(attn @ v))

    def backward(self, dout):
        q, k, v, attn = self._q, self._k, self._v, self._attn
        dctx = self._split(self.wo.backward(dout))
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) / np.sqrt(self.d_head)
        dq_in = self.wq.backward(self._merge(dscores @ k))
        dk_in = self.wk.backward(self._merge(dscores.transpose(0, 1, 3, 2) @ q))
        return dq_in, dk_in + self.wv.backward(self._merge(attn.transpose(0, 1, 3, 2) @ dctx))


@pytest.mark.parametrize("cross", [False, True])
def test_fused_attention_equals_the_unfused_composition(cross):
    d, heads = 16, 4
    fused_store, ref_store = ParamStore(np.float64), ParamStore(np.float64)
    fused = MultiHeadAttention(fused_store, "a", d, heads, np.random.default_rng(3), cross=cross)
    ref = UnfusedAttention(ref_store, d, heads, np.random.default_rng(3))
    # The fused weights start as the unfused ones, drawn in the same order.
    blocks = {"wq": ("a.wq", 0), "wk": ("a.wkv", 0), "wv": ("a.wkv", 1)} if cross else {
        "wq": ("a.wqkv", 0), "wk": ("a.wqkv", 1), "wv": ("a.wqkv", 2)}
    blocks["wo"] = ("a.wo", 0)
    rng = np.random.default_rng(4)
    for name, (fused_name, i) in blocks.items():
        cols = slice(i * d, (i + 1) * d)
        for part in (".W", ".b"):
            assert np.array_equal(fused_store.values[fused_name + part][..., cols], ref_store.values[name + part])
            noise = rng.normal(0.0, 0.3, ref_store.values[name + part].shape)  # nonzero biases too
            ref_store.values[name + part] += noise
            fused_store.values[fused_name + part][..., cols] += noise
    x, memory = rng.normal(size=(3, 5, d)), rng.normal(size=(3, 7, d))
    kv_in = memory if cross else x
    mask = np.where(rng.random((3, 1, 1, kv_in.shape[1])) < 0.3, -1e9, 0.0)
    dout = rng.normal(size=(3, 5, d))

    out = fused.forward(x, mask, memory=memory if cross else None)
    np.testing.assert_allclose(out, ref.forward(x, kv_in, mask), rtol=0, atol=1e-6)
    dq_ref, dkv_ref = ref.backward(dout)
    if cross:
        dx, dmemory = fused.backward(dout)
        np.testing.assert_allclose(dx, dq_ref, rtol=0, atol=1e-6)
        np.testing.assert_allclose(dmemory, dkv_ref, rtol=0, atol=1e-6)
    else:
        np.testing.assert_allclose(fused.backward(dout), dq_ref + dkv_ref, rtol=0, atol=1e-6)
    for name, (fused_name, i) in blocks.items():
        cols = slice(i * d, (i + 1) * d)
        for part in (".W", ".b"):
            got = fused_store.grads[fused_name + part][..., cols]
            np.testing.assert_allclose(got, ref_store.grads[name + part], rtol=0, atol=1e-6)


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-4), (np.float64, 1e-12)])
def test_scatter_add_rows_matches_add_at(dtype, atol):
    rng = np.random.default_rng(1)
    for n_rows in (1, 7, 200):
        ids = rng.integers(0, 12, size=n_rows)
        ids[::3] = PAD_ID  # one id repeated many times
        ids[-1] = ids[0]
        rows = rng.normal(size=(n_rows, 5)).astype(dtype)
        expected = np.zeros((15, 5), dtype)
        np.add.at(expected, ids, rows)
        out = scatter_add_rows(ids, rows, 15)
        assert out.dtype == dtype
        np.testing.assert_allclose(out, expected, rtol=0, atol=atol)
        assert not out[12:].any()  # ids never seen stay exactly zero


# ---- dtype contract ----------------------------------------------------------


def reachable(obj, path, seen):
    """(path, value) of every value reachable from obj through attributes,
    dicts, lists and tuples; each container and object is entered once."""
    yield path, obj
    if isinstance(obj, (np.ndarray, np.generic)) or id(obj) in seen:
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return
    seen.add(id(obj))
    for key, value in items:
        yield from reachable(value, f"{path}.{key}", seen)


def floating_values(obj, path, seen):
    """(path, value) of every floating ndarray or NumPy scalar reachable from
    obj."""
    for p, value in reachable(obj, path, seen):
        if isinstance(value, (np.ndarray, np.generic)) and np.issubdtype(value.dtype, np.floating):
            yield p, value


def assert_all_in_dtype(dtype, **roots):
    found = [pv for name, root in roots.items() for pv in floating_values(root, name, set())]
    wrong = [(path, value.dtype) for path, value in found if value.dtype != dtype]
    assert not wrong, wrong
    return {path for path, _ in found}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_activations_caches_and_gradients_stay_in_model_dtype(dtype):
    model = Seq2SeqTransformer(tiny_config(dtype=dtype, dropout=0.1), seed=2)
    src, tgt_in, tgt_out = batch_from([([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8])])
    model.decode(*model.encode(src, train=True), tgt_in, train=True)  # caches live until their backward
    paths = assert_all_in_dtype(np.dtype(dtype), model=model)
    assert "model.enc_blocks.0.attn._attn" in paths
    assert model.dec_blocks[0].drop3._mask.dtype == bool
    model.loss_and_grads(src, tgt_in, tgt_out, train=True)
    assert_all_in_dtype(np.dtype(dtype), model=model)
    assert len(model.store.grads) == len(model.store.values)

    enc_out, src_mask = model.encode(src[:1])
    cache = DecoderCache(model, enc_out, src_mask)
    logits = model.decode(enc_out, src_mask, np.array([[BOS_ID]]), cache=cache)
    cache.reorder(np.array([0, 0]))
    logprobs = model.next_token_logprobs(enc_out, src_mask, np.array([[6], [7]]), cache)
    paths = assert_all_in_dtype(np.dtype(dtype), model=model, cache=cache, logits=logits, enc_out=enc_out)
    folded = {f"cache.layers.0.{name}" for name in ("wqkv", "wo", "m", "vw", "w1", "w2")}
    buffers = {f"cache._{name}" for name in ("kv", "out", "sq", "xn", "ctx", "relu")}
    assert folded | buffers <= paths
    assert logprobs.dtype == np.float64 and logprobs.shape == (2, model.config.vocab_size)


def layer_state(model):
    """The paths of everything reachable from the model outside its
    ParamStore, with the type of each value."""
    return {(path, type(value)) for path, value in reachable(model, "model", set())
            if not path.startswith("model.store.")}


@pytest.mark.parametrize("train", [True, False])
def test_no_layer_holds_a_forward_array_after_loss_and_grads(train):
    """encode and decode, the forward of `loss_and_grads`, cache for its
    backward, which drops every cache; a forward that no backward follows
    (`loss`, `evaluate_loss`, `forward`, the encode of a decode) caches
    nothing."""
    model = Seq2SeqTransformer(tiny_config(dropout=0.1), seed=2)
    built = layer_state(model)
    pairs = [([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8])]
    batch = batch_from(pairs)
    model.decode(*model.encode(batch[0], train), batch[1], train)
    assert any(path.endswith("._attn") for path, _ in layer_state(model) - built)
    model.loss_and_grads(*batch, train=train)
    assert layer_state(model) == built
    calls = {
        "loss": lambda: model.loss(*batch),
        "evaluate_loss": lambda: evaluate_loss(model, pairs),
        "forward": lambda: model.forward(*batch[:2], train=train),
        "beam_decode": lambda: beam_decode(model, pairs[0][0], beam_size=2, fanout=3, max_len=4),
        "greedy_decode": lambda: greedy_decode(model, pairs[0][0], max_len=4),
    }
    for name, call in calls.items():
        call()
        assert layer_state(model) == built, name


def test_scoring_leaves_layers_in_other_threads_and_after_it_caching():
    layer = Dense(ParamStore(np.float64), "dense", 4, 4, np.random.default_rng(0))
    x = np.ones((2, 4))
    with pytest.raises(RuntimeError, match="leaves the block"):
        with scoring():
            layer.forward(x)
            assert "_x2d" not in vars(layer)
            thread = threading.Thread(target=layer.forward, args=(x,))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert "_x2d" in vars(layer)  # the other thread's forward cached
            vars(layer).pop("_x2d")
            raise RuntimeError("leaves the block")
    layer.forward(x)
    assert "_x2d" in vars(layer)


def test_a_second_backward_without_a_forward_raises():
    model = Seq2SeqTransformer(tiny_config(dropout=0.1), seed=2)
    src, tgt_in, tgt_out = batch_from([([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8])])
    enc_out, src_mask = model.encode(src, train=True)
    _, dlogits, _ = model._ce(model.decode(enc_out, src_mask, tgt_in, train=True), tgt_out)
    model._backward(src, tgt_in, dlogits)
    with pytest.raises(RuntimeError, match=r"Embedding: a backward without its forward \(_h2d is not cached\)"):
        model._backward(src, tgt_in, dlogits)
    model.forward(src, tgt_in, train=True)  # a scoring forward, which caches nothing for a backward
    with pytest.raises(RuntimeError, match=r"Embedding: a backward without its forward \(_h2d is not cached\)"):
        model._backward(src, tgt_in, dlogits)


@pytest.mark.parametrize("make", [
    lambda store, rng: Dense(store, "dense", 8, 8, rng),
    lambda store, rng: LayerNorm(store, "ln", 8),
    lambda store, rng: MultiHeadAttention(store, "attn", 8, 2, rng),
    lambda store, rng: FeedForward(store, "ffn", 8, 16, rng),
    lambda store, rng: Dropout(0.0),
], ids=["Dense", "LayerNorm", "MultiHeadAttention", "FeedForward", "Dropout"])
def test_each_layer_backward_takes_what_its_forward_cached(make):
    rng = np.random.default_rng(0)
    layer = make(ParamStore(np.float64), rng)
    x = rng.normal(size=(2, 3, 8))
    forward = {
        Dropout: lambda: layer.forward(x, train=True, rng=rng),
        MultiHeadAttention: lambda: layer.forward(x, None),
    }.get(type(layer), lambda: layer.forward(x))
    dout = np.ones_like(forward())
    layer.backward(dout)
    with pytest.raises(RuntimeError, match=f"{type(layer).__name__}: a backward without its forward"):
        layer.backward(dout)
    forward()
    layer.backward(dout)


def test_float32_loss_and_gradients_agree_with_float64_twin():
    cfg = ModelConfig(vocab_size=40, d_model=32, heads=4, enc_layers=2, dec_layers=2,
                      ffn_dim=64, max_len=16, dropout=0.0, dtype="float32")
    m32 = Seq2SeqTransformer(cfg, seed=4)
    rng = np.random.default_rng(4)
    for value in m32.store.values.values():  # move away from the near-uniform init
        value += rng.normal(0.0, 0.3, size=value.shape).astype(value.dtype)
    m64 = Seq2SeqTransformer(replace(cfg, dtype="float64"), seed=4, params=m32.store.values)
    pairs = toy_pairs(6, seed=4, vocab=40)
    src, tgt_in, tgt_out = batch_from(pairs)
    loss32, n32 = m32.loss_and_grads(src, tgt_in, tgt_out, train=False)
    loss64, n64 = m64.loss_and_grads(src, tgt_in, tgt_out, train=False)
    assert n32 == n64 and isinstance(loss32, float)
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    d = cfg.d_model
    grads = {}
    for name, g64 in m64.store.grads.items():
        g32 = m32.store.grads[name]
        key_block = slice(d, 2 * d) if name.endswith(".wqkv.b") else slice(0, d) if name.endswith(".wkv.b") else None
        if key_block is not None:
            # A key bias shifts all of a query's scores alike, which softmax
            # ignores: the exact gradient of the fused bias's K block is zero
            # and only round-off is left.
            err = np.linalg.norm(g32[key_block] - g64[key_block])
            assert err < 1e-6, (name, err)
            assert np.linalg.norm(g64[key_block]) < 1e-12, name
            keep = np.ones(g64.shape, bool)
            keep[key_block] = False
            g32, g64 = g32[keep], g64[keep]
        grads[name] = g32, g64
    assert sum(name.endswith((".wqkv.b", ".wkv.b")) for name in grads) == 6
    for name, (g32, g64) in grads.items():
        err = np.linalg.norm(g32 - g64)
        assert err < 1e-3 * np.linalg.norm(g64), (name, err / np.linalg.norm(g64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_head_matches_full_softmax_and_zeroes_pad_rows(dtype):
    rng = np.random.default_rng(5)
    logits = rng.normal(0.0, 4.0, size=(3, 4, 9)).astype(dtype)
    tgt_out = rng.integers(3, 9, size=(3, 4))
    tgt_out[0, 2:] = PAD_ID
    tgt_out[2, 1:] = PAD_ID
    loss, dlogits, n_tok = Seq2SeqTransformer._ce(logits, tgt_out)
    mask = tgt_out != PAD_ID
    probs = np.exp(logits.astype(np.float64))
    probs /= probs.sum(axis=-1, keepdims=True)
    ii, jj = np.nonzero(mask)
    expected_loss = -np.log(probs[ii, jj, tgt_out[ii, jj]]).mean()
    expected = probs.copy()
    expected[ii, jj, tgt_out[ii, jj]] -= 1.0
    expected[~mask] = 0.0
    expected /= n_tok
    tol = 1e-6 if dtype == np.float32 else 1e-12
    assert n_tok == int(mask.sum()) and isinstance(loss, float)
    assert loss == pytest.approx(expected_loss, rel=tol)
    assert dlogits.dtype == dtype
    assert not dlogits[~mask].any()
    np.testing.assert_allclose(dlogits, expected, rtol=0, atol=tol)


# ---- gradients ---------------------------------------------------------------


def test_grad_check_all_parameter_groups():
    model = tiny_model_for_check(seed=5)
    src, tgt_in, tgt_out = batch_from([([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8])])
    errors = grad_check(model, src, tgt_in, tgt_out, epsilon=1e-5, samples_per_param=3)
    assert errors["overall"] < 1e-4, errors


def test_zero_loss_example_zero_gradients():
    model = tiny_model_for_check(seed=6)
    src = np.array([[6, 7]])
    tgt_in = np.array([[BOS_ID, 8]])
    tgt_out = np.full((1, 2), PAD_ID)  # everything masked out
    loss, n_tok = model.loss_and_grads(src, tgt_in, tgt_out)
    assert loss == 0.0 and n_tok == 0
    for g in model.store.grads.values():
        assert np.all(g == 0.0)


# ---- training ----------------------------------------------------------------


def toy_pairs(n, seed, vocab=12, lo=6, hi=11):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        length = int(rng.integers(2, 6))
        src = rng.integers(lo, vocab, size=length).tolist()
        tgt = [t for t in reversed(src)]
        pairs.append((src, tgt))
    return pairs


def test_train_deterministic_same_seed():
    cfg = tiny_config(dtype="float32", dropout=0.1)
    spec = TrainSpec(learning_rate=1e-3, batch_size=8, max_steps=30, eval_every=10, seed=11)
    pairs = toy_pairs(24, seed=0)
    ck1 = train(pairs, pairs[:8], cfg, spec)
    ck2 = train(pairs, pairs[:8], cfg, spec)
    assert ck1.history == ck2.history
    for k in ck1.params:
        assert np.array_equal(ck1.params[k], ck2.params[k])


def adam_step_with_temporaries(adam):
    """`Adam.step` as it was before it ran in place, verbatim."""
    adam.t += 1
    b1t = 1.0 - training.ADAM_BETA1**adam.t
    b2t = 1.0 - training.ADAM_BETA2**adam.t
    for k, g in adam.store.grads.items():
        m = adam.m[k]
        v = adam.v[k]
        m *= training.ADAM_BETA1
        m += (1.0 - training.ADAM_BETA1) * g
        v *= training.ADAM_BETA2
        v += (1.0 - training.ADAM_BETA2) * np.square(g)
        adam.store.values[k] -= adam.lr * (m / b1t) / (np.sqrt(v / b2t) + training.ADAM_EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_in_place_equals_the_step_with_temporaries_bit_for_bit(dtype):
    rng = np.random.default_rng(8)
    stores = [ParamStore(dtype) for _ in range(2)]
    for name, shape in (("w", (5, 7)), ("b", (7,)), ("e", (3, 4, 2))):
        value = rng.normal(size=shape)
        for store in stores:
            store.add(name, shape, lambda _: value)
    ours, reference = (training.Adam(store, lr=3e-3) for store in stores)
    for _ in range(3):
        grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), size=v.shape).astype(dtype)
                 for name, v in stores[0].values.items()}
        for store in stores:
            store.grads = {name: g.copy() for name, g in grads.items()}
        ours.step()
        adam_step_with_temporaries(reference)
        assert ours.t == reference.t
        for name in grads:
            for a, b in ((ours.m, reference.m), (ours.v, reference.v), (stores[0].values, stores[1].values)):
                assert a[name].dtype == dtype and a[name].tobytes() == b[name].tobytes(), name
            assert stores[0].grads[name].tobytes() == grads[name].tobytes()  # the step leaves the gradient


def test_train_overfits_small_corpus():
    def token_hit_rate(model, pairs):
        """Teacher-forced argmax accuracy over the non-[PAD] target positions."""
        src, tgt_in, tgt_out = make_batch(pairs)
        mask = tgt_out != PAD_ID
        return float((np.argmax(model.forward(src, tgt_in, train=False), axis=-1)[mask] == tgt_out[mask]).mean())

    cfg = ModelConfig(vocab_size=16, d_model=32, heads=4, enc_layers=1, dec_layers=1,
                      ffn_dim=64, max_len=16, dropout=0.0, dtype="float32")
    pairs = toy_pairs(50, seed=1, vocab=16)
    spec = TrainSpec(learning_rate=2e-3, batch_size=32, max_steps=200, eval_every=20, seed=3)
    ck = train(pairs, pairs, cfg, spec)
    model = ck.restore_model()
    assert token_hit_rate(model, pairs) >= 0.99


def test_train_runs_the_budget_and_evaluates_on_one_schedule(monkeypatch):
    """Exactly max_steps Adam steps; one evaluation at each multiple of
    eval_every and after the last step, also where an epoch ends there; the
    checkpoint's step is that of the lowest validation loss."""
    cfg = tiny_config(dtype="float32")
    pairs = toy_pairs(32, seed=3)  # 4 batches of 8 per epoch
    adam_steps = []
    original = training.Adam.step

    def counted(self):
        adam_steps.append(self.t)
        original(self)

    monkeypatch.setattr(training.Adam, "step", counted)
    for max_steps, eval_every in ((60, 20), (50, 20), (7, 4), (3, 10)):
        adam_steps.clear()
        spec = TrainSpec(learning_rate=2e-3, batch_size=8, max_steps=max_steps, eval_every=eval_every, seed=5)
        ck = train(pairs, pairs[:8], cfg, spec)
        assert len(adam_steps) == max_steps
        expected = sorted({*range(eval_every, max_steps + 1, eval_every), max_steps})
        assert [h["step"] for h in ck.history] == expected
        assert all(h.keys() == {"step", "val_loss"} for h in ck.history)
        assert ck.step == min(ck.history, key=lambda h: h["val_loss"])["step"]


@pytest.mark.parametrize(
    "which, side, tok_id, message",
    [
        ("train", 0, PAD_ID, r"train\[3\]: source position 1 holds the reserved token \[PAD\]"),
        ("valid", 1, BOS_ID, r"valid\[3\]: target position 1 holds the reserved token \[BOS\]"),
        ("train", 1, EOS_ID, r"train\[3\]: target position 1 holds the reserved token \[EOS\]"),
        ("train", 0, 12, r"train\[3\]: source id 12 at position 1 is outside the vocabulary 0\.\.11"),
        ("valid", 1, -1, r"valid\[3\]: target id -1 at position 1 is outside the vocabulary 0\.\.11"),
    ],
    ids=["pad-in-a-train-source", "bos-in-a-valid-target", "eos-in-a-train-target", "vocab-size-in-a-train-source",
         "negative-in-a-valid-target"],
)
def test_train_refuses_pad_bos_and_eos_in_a_pair(which, side, tok_id, message):
    """Also an id outside the vocabulary: one rule, text.reserved_token_error."""
    cfg = tiny_config(dtype="float32")  # vocab_size 12
    spec = TrainSpec(batch_size=8, max_steps=1, eval_every=1)
    sets = {"train": toy_pairs(8, seed=2), "valid": toy_pairs(4, seed=3)}
    sets["train"][0] = ([6, SEP_ID, UNK_ID], [5, 7])  # the other reserved tokens and id 5, a content id, are legal
    train(sets["train"], sets["valid"], cfg, spec)
    pair = [list(seq) for seq in sets[which][3]]
    pair[side][1] = tok_id
    sets[which][3] = tuple(pair)
    with pytest.raises(DataError, match=message):
        train(sets["train"], sets["valid"], cfg, spec)


def test_train_accepts_a_tweet_that_spells_reserved_tokens():
    """Raw text holding "[EOS]" or "[PAD]" tokenizes to ordinary tokens, so
    it trains like any other pair."""
    src = tokenize(normalize_tweet("hi [EOS] there"))
    tgt = tokenize("hello [PAD] there")
    vocab = build_vocab([src, tgt])
    pair = (vocab.encode(src), vocab.encode(tgt))
    ck = train([pair] * 4, [pair], tiny_config(vocab_size=len(vocab)), TrainSpec(batch_size=2, max_steps=2, eval_every=1))
    assert [h["step"] for h in ck.history] == [1, 2]


def test_training_divergence_raises_with_step():
    cfg = tiny_config(dtype="float32")
    pairs = toy_pairs(16, seed=2)
    spec = TrainSpec(learning_rate=1e9, batch_size=8, max_steps=200, eval_every=100, seed=0)
    with pytest.raises(TrainingError) as exc:
        train(pairs, pairs[:4], cfg, spec)
    assert exc.value.step is not None and exc.value.step >= 1


def test_non_finite_validation_loss_raises_with_step(monkeypatch):
    cfg = tiny_config(dtype="float32")
    pairs = toy_pairs(16, seed=2)
    spec = TrainSpec(learning_rate=1e-3, batch_size=8, max_steps=10, eval_every=2, seed=0)
    monkeypatch.setattr(training, "evaluate_loss", lambda model, pairs: float("nan"))
    with pytest.raises(TrainingError, match="non-finite validation loss at step 2") as exc:
        train(pairs, pairs[:4], cfg, spec)
    assert exc.value.step == 2


def test_non_finite_gradient_with_finite_loss_raises_before_adam(monkeypatch):
    cfg = tiny_config(dtype="float32")
    pairs = toy_pairs(16, seed=2)
    spec = TrainSpec(learning_rate=1e-3, batch_size=8, max_steps=10, eval_every=5, seed=0)
    original = Seq2SeqTransformer.loss_and_grads
    seen = {}

    def inf_grad(self, *args, **kwargs):
        loss, n_tok = original(self, *args, **kwargs)
        self.store.grads["dec0.ffn.lin1.W"][0, 0] = np.inf
        seen["model"], seen["params"] = self, self.store.snapshot()
        return loss, n_tok

    monkeypatch.setattr(Seq2SeqTransformer, "loss_and_grads", inf_grad)
    with pytest.raises(TrainingError, match="dec0.ffn.lin1.W") as exc:
        train(pairs, pairs[:4], cfg, spec)
    assert exc.value.step == 1
    for name, value in seen["model"].store.values.items():
        assert np.array_equal(value, seen["params"][name]), name


def test_best_checkpoint_has_lowest_observed_val_loss():
    cfg = tiny_config(dtype="float32")
    pairs = toy_pairs(32, seed=3)
    spec = TrainSpec(learning_rate=2e-3, batch_size=8, max_steps=60, eval_every=20, seed=5)
    ck = train(pairs, pairs[:8], cfg, spec)
    evals = [h["val_loss"] for h in ck.history if "val_loss" in h]

    model = ck.restore_model()
    assert evaluate_loss(model, pairs[:8]) == pytest.approx(min(evals), abs=1e-6)


def test_evaluate_loss_is_the_token_weighted_mean_of_per_pair_losses():
    model = Seq2SeqTransformer(tiny_config(), seed=7)
    pairs = toy_pairs(100, seed=6)
    per_pair = [model.loss(*make_batch([pair])) for pair in pairs]
    expected = sum(loss * n for loss, n in per_pair) / sum(n for _, n in per_pair)
    assert evaluate_loss(model, pairs) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([([-1, 7], [8])], r"eval\[0\]: source id -1 at position 0 is outside the vocabulary 0\.\.11"),
        ([([7, 8], [9]), ([7, 8], [9, PAD_ID, 10])], r"eval\[1\]: target position 1 holds the reserved token \[PAD\]"),
        ([], r"eval set is empty"),
    ],
    ids=["negative-id", "pad-in-target", "empty"],
)
def test_evaluate_loss_refuses_pairs_that_train_refuses(pairs, message):
    with pytest.raises(DataError, match=message):
        evaluate_loss(Seq2SeqTransformer(tiny_config(), seed=0), pairs)


# ---- checkpoint io -----------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_config(dtype="float32", dropout=0.1)
    pairs = toy_pairs(16, seed=4)
    spec = TrainSpec(learning_rate=1e-3, batch_size=8, max_steps=20, eval_every=10, seed=2)
    ck = train(pairs, pairs[:4], cfg, spec, vocab_hash="abc123")
    path = tmp_path / "model.npz"
    ck.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.vocab_hash == "abc123"
    assert loaded.config == cfg
    assert loaded.step == ck.step

    src, tgt_in, _ = batch_from(pairs[:3])
    a = ck.restore_model().forward(src, tgt_in)
    b = loaded.restore_model().forward(src, tgt_in)
    assert np.array_equal(a, b)


@functools.lru_cache(maxsize=1)
def trained_and_reloaded():
    """A float32 model trained with dropout, and its save/load round trip."""
    cfg = tiny_config(dtype="float32", dropout=0.1)
    pairs = toy_pairs(16, seed=5)
    spec = TrainSpec(learning_rate=3e-3, batch_size=8, max_steps=20, eval_every=10, seed=4)
    ck = train(pairs, pairs[:4], cfg, spec)
    assert ck.step > 0  # the best parameters are trained ones, not the initial ones
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.npz")
        ck.save(path)
        loaded = Checkpoint.load(path)
    return ck.restore_model(), loaded.restore_model()


@given(
    src=st.lists(st.integers(6, 11), min_size=1, max_size=11),
    beam=st.integers(1, 4),
    max_len=st.integers(1, 11),
)
def test_checkpoint_round_trip_gives_bit_identical_beam_output(src, beam, max_len):
    original, reloaded = trained_and_reloaded()
    out = beam_decode(original, src, beam_size=beam, fanout=beam + 1, max_len=max_len)
    assert beam_decode(reloaded, src, beam_size=beam, fanout=beam + 1, max_len=max_len) == out
    ids = np.asarray([src]), np.asarray([[BOS_ID, *out]])
    assert np.array_equal(original.forward(*ids), reloaded.forward(*ids))


def test_checkpoint_of_an_older_format_is_refused(tmp_path, monkeypatch):
    ck = _checkpoint_with_hash("abc123")
    path = tmp_path / "old.npz"
    monkeypatch.setattr(training, "CHECKPOINT_FORMAT_VERSION", 1)
    ck.save(path)
    monkeypatch.undo()
    assert training.CHECKPOINT_FORMAT_VERSION == 2
    with pytest.raises(DataError, match="unsupported checkpoint version 1"):
        Checkpoint.load(path)


@pytest.mark.parametrize(
    "field, value",
    [("dropout", -0.5), ("dropout", 1.0), ("heads", 0), ("ffn_dim", 0), ("enc_layers", -1), ("dec_layers", 0),
     ("d_model", 0), ("max_len", 0), ("dropout", float("nan")), ("dropout", True), ("d_model", 16.0),
     ("heads", True), ("vocab_size", 12.0), ("vocab_size", 5), ("dtype", "int32")],
)
def test_config_with_a_bad_value_is_refused_also_from_a_checkpoint(tmp_path, field, value):
    with pytest.raises(DataError, match=rf"\b{field}={value}"):
        tiny_config(**{field: value})
    ck = _checkpoint_with_hash("abc123")
    object.__setattr__(ck.config, field, value)  # as if written by a version that did not check
    path = tmp_path / "bad_config.npz"
    ck.save(path)
    with pytest.raises(DataError, match=rf"bad_config\.npz: {field}={value}"):
        Checkpoint.load(path)


def test_checkpoint_config_with_a_field_the_model_does_not_have_is_refused(tmp_path, monkeypatch):
    ck = _checkpoint_with_hash("abc123")
    monkeypatch.setattr(ModelConfig, "to_dict", lambda self: {**asdict(self), "positional": "learned"})
    path = tmp_path / "extra_field.npz"
    ck.save(path)
    monkeypatch.undo()
    with pytest.raises(DataError, match=r"extra_field\.npz: .*'positional'"):
        Checkpoint.load(path)


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
     ("learning_rate", True), ("batch_size", 2.5), ("batch_size", 0), ("max_steps", 10.0), ("eval_every", False),
     ("seed", -1), ("seed", 1.0)],
)
def test_train_spec_with_a_bad_value_is_refused(field, value):
    with pytest.raises(DataError, match=rf"\b{field}={value}"):
        TrainSpec(**{field: value})


@pytest.mark.parametrize("key", ["config", "vocab_hash", "step", "seed", "history"])
def test_checkpoint_without_a_metadata_key_is_refused_naming_file_and_key(tmp_path, key):
    path = tmp_path / "no_key.npz"
    _checkpoint_with_hash("abc123").save(path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    del meta[key]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=rf"no_key\.npz: checkpoint metadata has no '{key}'"):
        Checkpoint.load(path)


def test_checkpoint_written_with_param_names_still_loads(tmp_path):
    path = tmp_path / "param_names.npz"
    ck = _checkpoint_with_hash("abc123")
    ck.save(path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    assert "param_names" not in meta
    meta["param_names"] = sorted(ck.params)  # as files written before it was dropped hold
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    loaded = Checkpoint.load(path)
    assert loaded.params.keys() == ck.params.keys()
    assert all(np.array_equal(loaded.params[k], v) for k, v in ck.params.items())


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(DataError):
        Checkpoint.load(path)


def _with_meta(raw: bytes):
    """An edit that writes a saved checkpoint again with `raw` as its metadata bytes."""
    def write(path):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["meta"] = np.frombuffer(raw, dtype=np.uint8)
        np.savez(path, **arrays)
    return write


def _one_array(path):
    with open(path, "wb") as f:
        np.save(f, np.zeros(3))


def _one_bit_flipped(path):
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"config"')] ^= 1  # inside the metadata member, whose CRC then fails
    path.write_bytes(raw)


def _first_member_header(edit):
    """An edit of a saved checkpoint's first central directory header, the
    bytes from which zipfile reads a member's flags and compression method."""
    def write(path):
        with zipfile.ZipFile(path) as z:
            at = z.start_dir
        raw = bytearray(path.read_bytes())
        assert raw[at : at + 4] == b"PK\x01\x02"
        edit(raw, at)
        path.write_bytes(raw)
    return write


def _unsupported_compression(raw, at):
    raw[at + 10 : at + 12] = (99).to_bytes(2, "little")  # zipfile: NotImplementedError


def _encrypted(raw, at):
    raw[at + 8] |= 1  # the encryption flag bit; zipfile: RuntimeError, password required


NOT_CHECKPOINTS = {
    "empty": lambda path: path.write_bytes(b""),
    "first_half": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "text": lambda path: path.write_text("step\t1\n", encoding="utf-8"),
    "npy": _one_array,
    "damaged": _one_bit_flipped,
    "meta_not_utf8": _with_meta(b"\xff\xfe"),
    "meta_not_json": _with_meta(b"{format_version: 2}"),
    "meta_a_list": _with_meta(b"[2]"),
    "unsupported_compression": _first_member_header(_unsupported_compression),
    "encrypted": _first_member_header(_encrypted),
}


@pytest.mark.parametrize("edit", NOT_CHECKPOINTS)
def test_a_file_that_is_not_a_checkpoint_is_refused_naming_it(tmp_path, edit):
    path = tmp_path / "not_a_checkpoint.npz"
    _checkpoint_with_hash("abc123").save(path)
    NOT_CHECKPOINTS[edit](path)
    with pytest.raises(DataError, match=r"not_a_checkpoint\.npz: "):
        Checkpoint.load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_checkpoint_with_a_non_finite_parameter_is_refused(tmp_path, value):
    ck = _checkpoint_with_hash("abc123")
    ck.params["dec.ln_f.gamma"][3] = value
    path = tmp_path / "non_finite.npz"
    ck.save(path)
    with pytest.raises(DataError, match=r"non_finite\.npz: parameter dec\.ln_f\.gamma holds a non-finite value"):
        Checkpoint.load(path)


def _checkpoint_with_hash(vocab_hash):
    cfg = tiny_config()
    params = {k: v.copy() for k, v in Seq2SeqTransformer(cfg, seed=3).store.values.items()}
    return Checkpoint(config=cfg, params=params, vocab_hash=vocab_hash, seed=3)


def test_restore_model_rejects_other_vocabulary():
    ck = _checkpoint_with_hash("abc123")
    with pytest.raises(DataError, match="abc123") as err:
        ck.restore_model(vocab_hash="def456")
    assert "def456" in str(err.value)


def test_a_vocabulary_file_with_the_old_cls_token_loads_and_a_new_checkpoint_refuses_it(tmp_path):
    """A vocabulary file saved when [CLS] was a sixth reserved token still
    loads, with "[CLS]" as content id 5; its hash is not that of the
    vocabulary built from the same text today, so a checkpoint trained on
    the new one refuses it."""
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join([*SPECIAL_TOKENS, "[CLS]", "hello", "world"]) + "\n", encoding="utf-8")
    old = Vocabulary.load(path)
    assert old.encode(["[CLS]", "hello", "world"]) == [5, 6, 7]
    new = build_vocab([["hello", "world"]])
    ck = _checkpoint_with_hash(new.content_hash())
    ck.restore_model(vocab_hash=new.content_hash())
    with pytest.raises(DataError, match=f"not {old.content_hash()!r}"):
        ck.restore_model(vocab_hash=old.content_hash())


def test_restore_model_accepts_same_vocabulary():
    ck = _checkpoint_with_hash("abc123")
    src, tgt_in, _ = batch_from(toy_pairs(3, seed=1))
    a = ck.restore_model(vocab_hash="abc123").forward(src, tgt_in)
    b = ck.restore_model().forward(src, tgt_in)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda p: p.__setitem__("dec0.ffn.lin9.W", p.pop("dec0.ffn.lin1.W")), "dec0.ffn.lin1.W"),
        (lambda p: p.__setitem__("enc0.attn.wqkv.b", np.zeros(3)), "enc0.attn.wqkv.b"),
        (lambda p: p.pop("enc.ln_f.beta"), "enc.ln_f.beta"),
        (lambda p: p.__setitem__("dec0.extra.W", np.zeros(3)), "dec0.extra.W"),
    ],
    ids=["renamed", "reshaped", "missing", "extra"],
)
def test_checkpoint_load_checks_parameters_against_config(tmp_path, edit, name):
    ck = _checkpoint_with_hash("abc123")
    edit(ck.params)
    path = tmp_path / "bad.npz"
    ck.save(path)
    with pytest.raises(DataError, match=rf"bad\.npz: parameters do not fit the stored config: .*{re.escape(name)}"):
        Checkpoint.load(path)
    with pytest.raises(ValueError, match=re.escape(name)):
        ck.restore_model()


@functools.lru_cache(maxsize=2)
def trained_checkpoint(dtype):
    """A checkpoint of a `dtype` model trained with dropout 0.1."""
    pairs = toy_pairs(16, seed=5)
    spec = TrainSpec(learning_rate=3e-3, batch_size=8, max_steps=20, eval_every=10, seed=4)
    ck = train(pairs, pairs[:4], tiny_config(dtype=dtype, dropout=0.1), spec)
    assert ck.step > 0
    return ck


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_restore_model_equals_a_seeded_model_with_the_parameters_loaded(dtype):
    """The restored model holds copies of the checkpoint's parameters, in its
    dtype, bit-equal to those that a model built at the checkpoint's seed
    holds once they are written into its values in place, and draws the same
    dropout stream."""
    ck = trained_checkpoint(dtype)
    restored = ck.restore_model()
    seeded = Seq2SeqTransformer(ck.config, seed=ck.seed)
    for name, value in seeded.store.values.items():
        value[...] = ck.params[name]
    assert restored.store.values.keys() == seeded.store.values.keys()
    for name, value in seeded.store.values.items():
        ours = restored.store.values[name]
        assert ours.dtype == value.dtype == np.dtype(dtype), name
        assert ours.tobytes() == value.tobytes(), name
        assert not np.shares_memory(ours, ck.params[name]), name
    batch = batch_from(toy_pairs(6, seed=9))
    assert restored.loss_and_grads(*batch) == seeded.loss_and_grads(*batch)  # with dropout 0.1
    assert restored.store.grads.keys() == seeded.store.grads.keys()
    for name, grad in seeded.store.grads.items():
        assert restored.store.grads[name].tobytes() == grad.tobytes(), name


class _NoDraws(np.random.Generator):
    def normal(self, *args, **kwargs):
        raise AssertionError("a weight was drawn")


def test_restore_model_and_checkpoint_load_draw_no_weights(tmp_path, monkeypatch):
    ck = trained_checkpoint("float32")
    path = tmp_path / "model.npz"
    ck.save(path)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _NoDraws(np.random.PCG64(seed)))
    with pytest.raises(AssertionError, match="a weight was drawn"):
        Seq2SeqTransformer(ck.config, seed=ck.seed)  # a new model does draw
    loaded = Checkpoint.load(path)
    for model in (ck.restore_model(), loaded.restore_model()):
        assert all(np.array_equal(model.store.values[k], v) for k, v in ck.params.items())
