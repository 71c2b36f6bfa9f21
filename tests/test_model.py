import functools
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rulefst.errors import DataError, TrainingError
from rulefst.model import (
    Checkpoint,
    ModelConfig,
    Seq2SeqTransformer,
    TrainSpec,
    beam_decode,
    grad_check,
    make_batch,
    tiny_model_for_check,
    token_accuracy,
    train,
)
from rulefst.model import training
from rulefst.model.layers import Dense, Dropout, LayerNorm, MultiHeadAttention, ParamStore, scatter_add_rows, softmax
from rulefst.model.seq2seq import DecoderCache
from rulefst.text import BOS_ID, EOS_ID, PAD_ID


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
            if j > i:
                return -1e9
            return -1e9 if tgt_row[j] == PAD_ID else 0.0

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


def test_causal_masking():
    model = Seq2SeqTransformer(tiny_config(), seed=2)
    src = np.array([[6, 7, 8]])
    tgt1 = np.array([[BOS_ID, 6, 7, 8]])
    tgt2 = np.array([[BOS_ID, 6, 11, 8]])  # change position 2
    l1 = model.forward(src, tgt1)
    l2 = model.forward(src, tgt2)
    np.testing.assert_allclose(l1[0, :2], l2[0, :2], atol=1e-12)
    assert not np.allclose(l1[0, 2], l2[0, 2])


def test_attention_rows_sum_to_one():
    model = Seq2SeqTransformer(tiny_config(), seed=4)
    pairs = [([6, 7, 8], [9, 10]), ([11], [6])]
    src, tgt_in, tgt_out = batch_from(pairs)
    model.forward(src, tgt_in)
    for block in model.enc_blocks:
        attn = block.attn.last_attention
        assert np.all(attn >= 0)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
    for block in model.dec_blocks:
        for mha in (block.self_attn, block.cross_attn):
            attn = mha.last_attention
            assert np.all(attn >= 0)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


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
    old = (x - mean) / np.sqrt(var + ln.eps) * store.values["ln.gamma"] + store.values["ln.beta"]
    np.testing.assert_allclose(ln.forward(x), old, rtol=0, atol=1e-12)


def row_softmax(x):
    """Softmax over the last axis, kept apart from the layers' in-place, key-major one."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-15)])
@pytest.mark.parametrize("axis", [-1, -2, 0, 1])
def test_softmax_normalises_in_place_over_any_axis(axis, dtype, atol):
    x = np.random.default_rng(6).normal(0.0, 5.0, size=(3, 4, 5, 6)).astype(dtype)
    x[1, 2] = -1e9  # a masked slice, in every orientation
    expected = np.moveaxis(row_softmax(np.moveaxis(x.astype(np.float64), axis, -1)), -1, axis)
    out = softmax(x, axis=axis)
    assert out is x and x.dtype == dtype
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


def floating_values(obj, path, seen):
    """(path, value) of every floating ndarray or NumPy scalar reachable from
    obj through attributes, dicts, lists and tuples."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (np.ndarray, np.generic)):
        if np.issubdtype(obj.dtype, np.floating):
            yield path, obj
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return
    for key, value in items:
        yield from floating_values(value, f"{path}.{key}", seen)


def assert_all_in_dtype(dtype, **roots):
    found = [pv for name, root in roots.items() for pv in floating_values(root, name, set())]
    wrong = [(path, value.dtype) for path, value in found if value.dtype != dtype]
    assert not wrong, wrong
    return {path for path, _ in found}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_activations_caches_and_gradients_stay_in_model_dtype(dtype):
    model = Seq2SeqTransformer(tiny_config(dtype=dtype, dropout=0.1), seed=2)
    src, tgt_in, tgt_out = batch_from([([6, 7, 8, 9], [10, 11, 6]), ([7, 9], [8])])
    model.loss_and_grads(src, tgt_in, tgt_out, train=True)
    paths = assert_all_in_dtype(np.dtype(dtype), model=model)
    assert "model.enc_blocks.0.attn._attn" in paths
    assert "model.dec_blocks.0.drop3._mask" in paths
    assert len(model.store.grads) == len(model.store.values)

    enc_out, src_mask = model.encode(src[:1])
    cache = DecoderCache(model.config)
    logits = model.decode(enc_out, src_mask, np.array([[BOS_ID]]), cache=cache)
    cache.reorder(np.array([0, 0]))
    logprobs = model.next_token_logprobs(enc_out, src_mask, np.array([[6], [7]]), cache)
    paths = assert_all_in_dtype(np.dtype(dtype), model=model, cache=cache, logits=logits, enc_out=enc_out)
    assert "cache.self_kv.0.k" in paths and "cache.cross_kv.0.v" in paths
    assert logprobs.dtype == np.float64 and logprobs.shape == (2, model.config.vocab_size)


def test_float32_loss_and_gradients_agree_with_float64_twin():
    cfg = ModelConfig(vocab_size=40, d_model=32, heads=4, enc_layers=2, dec_layers=2,
                      ffn_dim=64, max_len=16, dropout=0.0, dtype="float32")
    m32 = Seq2SeqTransformer(cfg, seed=4)
    rng = np.random.default_rng(4)
    for value in m32.store.values.values():  # move away from the near-uniform init
        value += rng.normal(0.0, 0.3, size=value.shape).astype(value.dtype)
    m64 = Seq2SeqTransformer(replace(cfg, dtype="float64"), seed=4)
    m64.store.load(m32.store.values)
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


def test_loss_scale_scales_gradients_linearly():
    src, tgt_in, tgt_out = batch_from([([6, 7, 8], [9, 10])])
    model = tiny_model_for_check(seed=7)
    model.loss_and_grads(src, tgt_in, tgt_out)
    base = {k: v.copy() for k, v in model.store.grads.items()}
    model.loss_and_grads(src, tgt_in, tgt_out, loss_scale=2.0)
    for k, g in model.store.grads.items():
        np.testing.assert_allclose(g, 2.0 * base[k], rtol=1e-12, atol=1e-300)


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


def test_train_overfits_small_corpus():
    cfg = ModelConfig(vocab_size=16, d_model=32, heads=4, enc_layers=1, dec_layers=1,
                      ffn_dim=64, max_len=16, dropout=0.0, dtype="float32")
    pairs = toy_pairs(50, seed=1, vocab=16)
    spec = TrainSpec(learning_rate=2e-3, batch_size=32, max_steps=2000, eval_every=200, seed=3)
    ck = train(pairs, pairs, cfg, spec)
    model = ck.restore_model()
    assert token_accuracy(model, pairs) >= 0.99


def test_early_stopping_on_rising_validation_loss():
    cfg = tiny_config(dtype="float32")
    train_pairs = [([6, 7], [8, 9])] * 24
    valid_pairs = [([6, 7], [10, 11])] * 8  # conflicts with training mapping
    spec = TrainSpec(learning_rate=5e-3, batch_size=8, max_steps=5000, eval_every=1000, seed=0)
    ck = train(train_pairs, valid_pairs, cfg, spec)
    events = [h["event"] for h in ck.history]
    assert "early_stop" in events
    assert ck.history[-1]["step"] < spec.max_steps


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
    spec = TrainSpec(learning_rate=1e-3, batch_size=8, max_steps=10, eval_every=100, seed=0)
    monkeypatch.setattr(training, "evaluate_loss", lambda model, pairs: float("nan"))
    with pytest.raises(TrainingError, match="non-finite validation loss at step 2") as exc:
        train(pairs, pairs[:4], cfg, spec)  # 2 steps per epoch, then the epoch-end eval
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
    from rulefst.model import evaluate_loss

    model = ck.restore_model()
    assert evaluate_loss(model, pairs[:8]) == pytest.approx(min(evals), abs=1e-6)


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
     ("d_model", 0), ("max_len", 0)],
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


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(DataError):
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
    ],
    ids=["renamed", "reshaped"],
)
def test_checkpoint_load_checks_parameters_against_config(tmp_path, edit, name):
    ck = _checkpoint_with_hash("abc123")
    edit(ck.params)
    path = tmp_path / "bad.npz"
    ck.save(path)
    with pytest.raises(DataError, match=name.replace(".", r"\.")):
        Checkpoint.load(path)
