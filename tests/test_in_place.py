"""The layers' in-place rule: a layer overwrites only arrays it allocated
itself, never an input, a memory, an upstream gradient, a cache's filled
positions or a parameter. Each of those is made read-only here, so that a
write raises, and is compared bit for bit with a copy afterwards."""

import numpy as np
import pytest

from rulefst.model import ModelConfig, Seq2SeqTransformer, make_batch
from rulefst.model.layers import Dense, Dropout, FeedForward, KVCache, LayerNorm, MultiHeadAttention, ParamStore
from rulefst.model.seq2seq import DecoderCache
from rulefst.text import BOS_ID, PAD_ID

D, HEADS = 16, 4


def freeze(*arrays):
    """Make arrays read-only; returns a check that they are bit-unchanged."""
    copies = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False

    def assert_unchanged():
        for a, c in zip(arrays, copies):
            assert np.array_equal(a, c)

    return assert_unchanged


def normal(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def pad_mask(rng, rows, length):
    mask = np.where(rng.random((rows, 1, 1, length)) < 0.3, -1e9, 0.0).astype(np.float32)
    mask[..., 0] = 0.0  # every row keeps a key
    return mask


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def store():
    return ParamStore(np.float32)


@pytest.mark.parametrize("make", [
    lambda store, rng: Dense(store, "dense", D, 3 * D, rng, blocks=3),
    lambda store, rng: LayerNorm(store, "ln", D),
    lambda store, rng: FeedForward(store, "ffn", D, 2 * D, rng),
], ids=["Dense", "LayerNorm", "FeedForward"])
def test_layer_writes_neither_input_nor_gradient_nor_parameters(store, rng, make):
    layer = make(store, rng)
    params_unchanged = freeze(*store.values.values())
    x = normal(rng, 3, 5, D)
    x_unchanged = freeze(x)
    out = layer.forward(x)
    dout = normal(rng, *out.shape)
    dout_unchanged = freeze(dout)
    layer.backward(dout)
    x_unchanged()
    dout_unchanged()
    params_unchanged()


def test_dropout_in_training_writes_neither_input_nor_gradient(rng):
    drop = Dropout(0.3)
    x, dout = normal(rng, 3, 5, D), normal(rng, 3, 5, D)
    unchanged = freeze(x, dout)
    out = drop.forward(x, train=True, rng=rng)
    assert out.dtype == drop._mask.dtype == np.float32
    drop.backward(dout)
    unchanged()


@pytest.mark.parametrize("cross", [False, True])
def test_attention_writes_neither_inputs_nor_gradient(store, rng, cross):
    attn = MultiHeadAttention(store, "attn", D, HEADS, rng, cross=cross)
    x, memory, dout = normal(rng, 3, 5, D), normal(rng, 3, 7, D), normal(rng, 3, 5, D)
    mask = pad_mask(rng, 3, 7 if cross else 5)
    unchanged = freeze(x, memory, mask, dout, *store.values.values())
    attn.forward(x, mask, memory=memory if cross else None)
    attn.backward(dout)
    unchanged()


def test_attention_with_filled_caches_writes_neither_inputs_nor_filled_positions(store, rng):
    self_attn = MultiHeadAttention(store, "self", D, HEADS, rng)
    cross_attn = MultiHeadAttention(store, "cross", D, HEADS, rng, cross=True)
    params_unchanged = freeze(*store.values.values())
    memory, src_mask = normal(rng, 1, 7, D), pad_mask(rng, 1, 7)
    self_kv, cross_kv = KVCache(capacity=8), KVCache()
    x = normal(rng, 2, 1, D)
    self_attn.forward(x, None, self_kv)
    cross_attn.forward(x, src_mask, cross_kv, memory=memory)
    first_k, first_v = self_kv.k.copy(), self_kv.v.copy()  # its buffers take appends: compare copies
    static_unchanged = freeze(cross_kv.k, cross_kv.v, memory, src_mask)
    for _ in range(2):
        x = normal(rng, 2, 1, D)
        x_unchanged = freeze(x)
        self_attn.forward(x, None, self_kv)
        cross_attn.forward(x, src_mask, cross_kv)
        x_unchanged()
    assert self_kv.k.shape[2] == 3
    assert np.array_equal(self_kv.k[:, :, :1], first_k) and np.array_equal(self_kv.v[:, :, :1], first_v)
    static_unchanged()
    params_unchanged()


def small_model():
    cfg = ModelConfig(vocab_size=12, d_model=D, heads=HEADS, enc_layers=1, dec_layers=2, ffn_dim=2 * D,
                      max_len=12, dropout=0.2, dtype="float32")
    return Seq2SeqTransformer(cfg, seed=1)


def test_training_step_with_dropout_writes_neither_batch_nor_parameters():
    model = small_model()
    batch = make_batch([([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8]), ([11], [PAD_ID, 6])])
    unchanged = freeze(*batch, *model.store.values.values())
    loss, n_tok = model.loss_and_grads(*batch, train=True)
    assert np.isfinite(loss) and n_tok > 0
    assert set(model.store.grads) == set(model.store.values)
    unchanged()


def test_cached_decode_steps_write_neither_encoder_output_nor_parameters():
    model = small_model()
    enc_out, src_mask = model.encode(np.array([[6, 7, PAD_ID, 8]]))
    unchanged = freeze(enc_out, src_mask, *model.store.values.values())
    cache = DecoderCache(model.config)
    model.next_token_logprobs(enc_out, src_mask, np.array([[BOS_ID]]), cache)
    cross_unchanged = freeze(*(a for kv in cache.cross_kv for a in (kv.k, kv.v)))
    cache.reorder(np.array([0, 0]))
    model.next_token_logprobs(enc_out, src_mask, np.array([[6], [7]]), cache)
    assert cache.length == 2
    unchanged()
    cross_unchanged()
