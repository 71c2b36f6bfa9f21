"""The layers' in-place rule: a layer overwrites only arrays it allocated
itself, never an input, a memory, an upstream gradient or a parameter; nor
does a cached decode step write a filled position or the cache's folded
products. Each of those is made read-only here, so that a write raises, and
is compared bit for bit with a copy afterwards."""

import numpy as np
import pytest

from rulefst.model import ModelConfig, Seq2SeqTransformer, make_batch
from rulefst.model.layers import Dense, Dropout, FeedForward, LayerNorm, MultiHeadAttention, ParamStore, scoring
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
    lambda store, rng: Dense(store, "dense", D, 3 * D, rng),
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
    drop = Dropout(0.3, rng)
    x, dout = normal(rng, 3, 5, D), normal(rng, 3, 5, D)
    unchanged = freeze(x, dout)
    out = drop.forward(x)
    assert out.dtype == np.float32 and drop._mask.dtype == bool
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


def small_model():
    cfg = ModelConfig(vocab_size=12, d_model=D, heads=HEADS, enc_layers=1, dec_layers=2, ffn_dim=2 * D,
                      max_len=12, dropout=0.2, dtype="float32")
    return Seq2SeqTransformer(cfg, seed=1)


def test_training_step_with_dropout_writes_neither_batch_nor_parameters():
    model = small_model()
    batch = make_batch([([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8]), ([11], [PAD_ID, 6])])
    unchanged = freeze(*batch, *model.store.values.values())
    loss, n_tok = model.loss_and_grads(*batch)
    assert np.isfinite(loss) and n_tok > 0
    assert set(model.store.grads) == set(model.store.values)
    unchanged()


def test_attention_with_filled_caches_writes_neither_inputs_nor_filled_positions(rng):
    """The cached attention of `DecoderCache.decode`, with no reorder between
    steps: each step appends its own keys and values and leaves the filled
    positions, its ids, the source, the folded cross-attention products and
    the parameters as they were."""
    model = small_model()
    with scoring():
        enc_out, src_mask = model.encode(np.array([[6, 7, PAD_ID, 8, 9]]))
    unchanged = freeze(enc_out, src_mask, *model.store.values.values())
    cache = DecoderCache(model, enc_out, src_mask)
    cache.reorder(np.array([0, 0]))
    cache.decode(model, enc_out, src_mask, np.array([[BOS_ID], [BOS_ID]]))
    static_unchanged = freeze(*[layer.m for layer in cache.layers], *[layer.vw for layer in cache.layers])
    first = cache._kv[:2, :, :, :, :1].copy()  # its buffer takes appends: compare a copy
    for _ in range(2):
        ids = rng.integers(PAD_ID, 12, size=(2, 1))
        ids_unchanged = freeze(ids)
        logits = cache.decode(model, enc_out, src_mask, ids)
        ids_unchanged()
        assert logits.shape == (2, 1, 12) and np.all(np.isfinite(logits))
    assert cache.length == 3
    assert np.array_equal(cache._kv[:2, :, :, :, :1], first)
    static_unchanged()
    unchanged()


def test_cached_decode_steps_write_neither_encoder_output_nor_parameters(rng):
    """Each step writes only its own position: the keys and values of the
    positions before it are those the reorder left, and the step's ids, the
    source, the parameters and the folded products stay as they were."""
    model = small_model()
    with scoring():
        enc_out, src_mask = model.encode(np.array([[6, 7, PAD_ID, 8, 9]]))
    unchanged = freeze(enc_out, src_mask, *model.store.values.values())
    cache = DecoderCache(model, enc_out, src_mask)
    model.next_token_logprobs(np.array([[BOS_ID]]), cache)
    folded = [a for layer in cache.layers for a in vars(layer).values() if isinstance(a, np.ndarray)]
    folded_unchanged = freeze(*folded)
    for parents in ([0, 0, 0], [0, 1, 1], [0, 1, 2], [1, 2]):
        cache.reorder(np.array(parents))
        t, rows = cache.length, len(parents)
        filled = cache._kv[:rows, :, :, :, :t].copy()
        ids = rng.integers(PAD_ID, 12, size=(rows, 1))
        ids_unchanged = freeze(ids)
        model.next_token_logprobs(ids, cache)
        ids_unchanged()
        assert np.array_equal(cache._kv[:rows, :, :, :, :t], filled)
    assert cache.length == 5
    unchanged()
    folded_unchanged()
