"""A small transformer encoder-decoder trained from scratch.

Pre-norm blocks, learned positional embeddings, a token embedding shared by
encoder and decoder, and an output projection tied to the token embedding.
No token-type embeddings: [SEP] tokens alone carry segment structure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from ..errors import DataError
from ..text import PAD_ID
from .layers import (
    LN_EPS,
    NEG_INF,
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    MultiHeadAttention,
    ParamStore,
    scatter_add_rows,
    softmax,  # unused here, but the benchmark tracer patches seq2seq.softmax
)

# Largest (rows, heads, L, L) attention score array of one training sub-batch:
# 1 MiB, so that a sub-batch's scores and softmax stay within a 2 MiB per-core
# L2 cache. Measured on such a 2-CPU host, one float32 B=32 train step
# (sources of 10-127 tokens, targets of 10-40, default ModelConfig, V=2000):
# 150-157 ms unsplit, 103-109 at 2 MiB, 80-98 at 1 MiB, 83-92 at 512 KiB,
# 109-124 at one row per sub-batch. With the in-place, key-major attention,
# the median step over pipeline-cari's four B=32 CARI batches (sources up to
# 128 tokens, V=335; two runs of 8 and 12 rounds) is 98-106 ms at 512 KiB,
# 101-107 at 1 MiB, 103-106 at 2 MiB and 123-132 at 4 MiB.
SUB_BATCH_BYTES = 1 << 20


def content_lengths(ids: np.ndarray) -> np.ndarray:
    """Per row, 1 + the index of its last non-PAD id (0 for an all-PAD row):
    the width a row keeps when its trailing PAD is trimmed."""
    content = ids != PAD_ID
    return np.where(content.any(axis=1), ids.shape[1] - np.argmax(content[:, ::-1], axis=1), 0)


def split_rows(src_len: np.ndarray, tgt_len: np.ndarray, heads: int, itemsize: int) -> list[np.ndarray]:
    """Row indices of each training sub-batch, in order.

    Rows are sorted by source length, longest first (stable), and cut
    greedily: a row joins the current sub-batch while rows x heads x L x L x
    itemsize stays within SUB_BATCH_BYTES, where L is the larger of the
    sub-batch's longest source and longest target. A row that alone exceeds
    the budget forms a sub-batch by itself.
    """
    src_len, tgt_len = np.asarray(src_len), np.asarray(tgt_len)
    cell = heads * itemsize
    out: list[np.ndarray] = []
    rows: list[int] = []
    side = 0
    for r in np.argsort(-src_len, kind="stable"):
        grown = max(side, int(src_len[r]), int(tgt_len[r]), 1)
        if rows and (len(rows) + 1) * cell * grown * grown > SUB_BATCH_BYTES:
            out.append(np.asarray(rows))
            rows, grown = [], max(int(src_len[r]), int(tgt_len[r]), 1)
        rows.append(int(r))
        side = grown
    if rows:
        out.append(np.asarray(rows))
    return out


def check_size(name: str, value, low: int = 1) -> None:
    """Raise DataError naming `name` unless `value` is an integer of at least
    `low`; a bool, or a float such as 64.0, is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DataError(f"{name}={value!r} must be an integer of at least {low}")


@dataclass(frozen=True)
class ModelConfig:
    """Model shape and numerics.

    `dtype` is the dtype of the parameters and of every activation, cache
    and gradient, forward and backward; only the loss scalar and the
    (B, V) rows of `Seq2SeqTransformer.next_token_logprobs`, which beam
    scores sum, are float64.
    """

    vocab_size: int
    d_model: int = 64
    heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 256
    max_len: int = 128
    dropout: float = 0.1
    dtype: str = "float32"

    def __post_init__(self):
        check_size("vocab_size", self.vocab_size, 7)  # the reserved tokens and one more
        for name in ("d_model", "heads", "enc_layers", "dec_layers", "ffn_dim", "max_len"):
            check_size(name, getattr(self, name))
        dropout = self.dropout
        if isinstance(dropout, bool) or not isinstance(dropout, numbers.Real) or not 0.0 <= dropout < 1.0:
            raise DataError(f"dropout={dropout!r} must be a number in [0, 1)")
        if self.d_model % self.heads:
            raise DataError("d_model must be divisible by heads")
        if self.dtype not in ("float32", "float64"):
            raise DataError(f"dtype={self.dtype} must be float32 or float64")

    def to_dict(self) -> dict:
        return asdict(self)


class _EncoderBlock:
    def __init__(self, store, prefix, cfg, rng):
        self.ln1 = LayerNorm(store, prefix + ".ln1", cfg.d_model)
        self.attn = MultiHeadAttention(store, prefix + ".attn", cfg.d_model, cfg.heads, rng)
        self.drop1 = Dropout(cfg.dropout)
        self.ln2 = LayerNorm(store, prefix + ".ln2", cfg.d_model)
        self.ffn = FeedForward(store, prefix + ".ffn", cfg.d_model, cfg.ffn_dim, rng)
        self.drop2 = Dropout(cfg.dropout)

    def forward(self, x, mask, train, rng):
        h = self.ln1.forward(x)
        x = x + self.drop1.forward(self.attn.forward(h, mask), train, rng)
        x = x + self.drop2.forward(self.ffn.forward(self.ln2.forward(x)), train, rng)
        return x

    def backward(self, dx):
        dffn = self.ln2.backward(self.ffn.backward(self.drop2.backward(dx)))
        dx = dx + dffn
        dx = dx + self.ln1.backward(self.attn.backward(self.drop1.backward(dx)))
        return dx


class _DecoderBlock:
    def __init__(self, store, prefix, cfg, rng):
        self.ln1 = LayerNorm(store, prefix + ".ln1", cfg.d_model)
        self.self_attn = MultiHeadAttention(store, prefix + ".self", cfg.d_model, cfg.heads, rng)
        self.drop1 = Dropout(cfg.dropout)
        self.ln2 = LayerNorm(store, prefix + ".ln2", cfg.d_model)
        self.cross_attn = MultiHeadAttention(store, prefix + ".cross", cfg.d_model, cfg.heads, rng, cross=True)
        self.drop2 = Dropout(cfg.dropout)
        self.ln3 = LayerNorm(store, prefix + ".ln3", cfg.d_model)
        self.ffn = FeedForward(store, prefix + ".ffn", cfg.d_model, cfg.ffn_dim, rng)
        self.drop3 = Dropout(cfg.dropout)

    def forward(self, x, enc_out, self_mask, cross_mask, train, rng):
        h = self.ln1.forward(x)
        x = x + self.drop1.forward(self.self_attn.forward(h, self_mask), train, rng)
        x = x + self.drop2.forward(self.cross_attn.forward(self.ln2.forward(x), cross_mask, enc_out), train, rng)
        x = x + self.drop3.forward(self.ffn.forward(self.ln3.forward(x)), train, rng)
        return x

    def backward(self, dx):
        dffn = self.ln3.backward(self.ffn.backward(self.drop3.backward(dx)))
        dx = dx + dffn
        dq, denc = self.cross_attn.backward(self.drop2.backward(dx))
        dx = dx + self.ln2.backward(dq)
        dx = dx + self.ln1.backward(self.self_attn.backward(self.drop1.backward(dx)))
        return dx, denc


def _normalized(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """LayerNorm without its affine, (x - mean) / sqrt(var + LN_EPS) over the
    last axis; `mean` is a (d, 1) column of 1 / d."""
    xc = x - x @ mean
    var = np.square(xc) @ mean
    var += LN_EPS
    xc /= np.sqrt(var, out=var)
    return xc


def _fold_norm(ln: LayerNorm, dense) -> tuple[np.ndarray, np.ndarray]:
    """(W, b) such that dense(ln(x)) = x_hat @ W + b, where x_hat is x
    normalised without ln's affine: W = gamma[:, None] * W_dense and
    b = beta @ W_dense + b_dense."""
    return ln.gamma[:, None] * dense.weight, ln.beta @ dense.weight + dense.bias


@dataclass
class _FoldedLayer:
    """One decoder block, folded for one source: each LayerNorm's affine is
    in the weights after it, the query blocks carry 1 / sqrt(d_head), and the
    cross-attention is `m`, `c` and `vw` over heads x source keys, laid out
    head-major (heads, S), so that the softmax reduces over a contiguous last
    axis of S keys."""

    wqkv: np.ndarray  # (d, 3d)
    bqkv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    m: np.ndarray  # (d, heads * S): cross-attention scores are x_hat @ m + c
    c: np.ndarray  # (heads * S,): query bias times keys, plus the source's [PAD] mask
    vw: np.ndarray  # (heads * S, d): each head's values times its rows of wo
    cross_bo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


class DecoderCache:
    """Incremental decoding state for one source sentence, after fairseq's
    incremental_state, with everything that depends only on the source and
    the parameters computed once, at the first cached `decode` call.

    Folded then, from the decoder blocks' layers and the encoder output (see
    `_FoldedLayer`): each LayerNorm's gamma and beta into the Dense after it
    (ln1 into the self-attention's `.wqkv`, ln2 into the cross-attention's
    `.wq`, ln3 into the FFN's `.lin1`, the final `dec.ln_f` into the tied
    output projection with `out.bias`); the attention scale into both query
    projections; the cross-attention query projection into the source's
    keys, and its values into `.wo`, so that a step's cross-attention is two
    matmuls. Each step then runs on 2-D (rows, d_model) arrays, one new
    position per row.

    The self-attention keys and values of every decoder layer share one
    buffer, (rows, dec_layers, 2, heads, max_len, d_head), and the additive
    mask that hides decoded [PAD] keys one (rows, max_len) buffer; both are
    allocated for config.max_len positions and written in place. `reorder`
    takes the rows that the next step extends.

    A cache is bound to the model, `enc_out` and `src_mask` of its first
    call, by identity: another source raises DataError. It is also bound to
    the parameter values of that call: after a parameter update, start a new
    cache. Every folded product and buffer is in the model's dtype; the
    constants mixed in are Python floats, which never widen it.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.length = 0  # target positions decoded so far
        self.layers: list[_FoldedLayer] = []
        self._source: tuple | None = None  # (model, enc_out, src_mask) of the first call
        self._rows = 0  # rows of the last step, or of the next one after a reorder

    def reorder(self, rows: np.ndarray) -> None:
        """Keep row rows[i] of the state as row i (beam back-pointers).

        Nothing moves when rows is 0..n-1; otherwise the decoded positions
        of the chosen rows are gathered once. Before the first step there is
        nothing to reorder. A back-pointer outside the previous step's rows
        raises DataError."""
        if not self.length:
            return
        rows = np.asarray(rows)
        n = len(rows)
        if n <= self._rows and np.array_equal(rows, np.arange(n)):
            self._rows = n
            return
        if rows.min() < 0 or rows.max() >= self._rows:
            i = int(np.flatnonzero((rows < 0) | (rows >= self._rows))[0])
            raise DataError(f"back-pointer {int(rows[i])} at row {i} is outside the previous step's {self._rows} rows")
        t = self.length
        kv, pad = self._kv[rows, :, :, :, :t], self._pad[rows, :t]
        if n > len(self._kv):
            self._kv = np.empty((n, *self._kv.shape[1:]), self._kv.dtype)
            self._pad = np.empty((n, *self._pad.shape[1:]), self._pad.dtype)
        self._kv[:n, :, :, :, :t] = kv
        self._pad[:n, :t] = pad
        self._rows = n

    def _fold(self, model: "Seq2SeqTransformer", enc_out: np.ndarray, src_mask: np.ndarray, rows: int) -> None:
        """Compute the folded products of the source and allocate the buffers."""
        cfg = self.config
        d, heads = cfg.d_model, cfg.heads
        dh = d // heads
        dtype = model.store.dtype
        scale = 1.0 / math.sqrt(dh)  # a Python float, which keeps float32 products float32
        memory = enc_out[0]
        src_len = len(memory)
        key_mask = src_mask.reshape(src_len)
        for block in model.dec_blocks:
            wqkv, bqkv = _fold_norm(block.ln1, block.self_attn.wqkv)
            wqkv[:, :d] *= scale
            bqkv[:d] *= scale
            cross = block.cross_attn
            wq, bq = _fold_norm(block.ln2, cross.wq)
            wq *= scale
            bq *= scale
            kv = memory @ cross.wkv.weight
            kv += cross.wkv.bias
            k, v = kv.reshape(src_len, 2, heads, dh).transpose(1, 2, 3, 0)  # (heads, d_head, S) each
            m = wq.reshape(d, heads, dh).transpose(1, 0, 2) @ k  # (heads, d, S)
            c = (bq.reshape(heads, 1, dh) @ k)[:, 0] + key_mask  # (heads, S)
            vw = v.swapaxes(-1, -2) @ cross.wo.weight.reshape(heads, dh, d)  # (heads, S, d)
            w1, b1 = _fold_norm(block.ln3, block.ffn.lin1)
            self.layers.append(_FoldedLayer(
                wqkv=wqkv, bqkv=bqkv, wo=block.self_attn.wo.weight, bo=block.self_attn.wo.bias,
                m=m.transpose(1, 0, 2).reshape(d, -1), c=c.reshape(-1), vw=vw.reshape(-1, d), cross_bo=cross.wo.bias,
                w1=w1, b1=b1, w2=block.ffn.lin2.weight, b2=block.ffn.lin2.bias,
            ))
        table = model.tok.table
        self._out_w = model.dec_ln.gamma[:, None] * table.T  # (d, V)
        self._out_b = model.dec_ln.beta @ table.T + model.store.values["out.bias"]
        self._mean = np.full((d, 1), 1.0 / d, dtype)
        self._src_ones = np.ones((src_len, 1), dtype)
        self._ones = np.ones((1, cfg.max_len), dtype)
        self._kv = np.empty((rows, cfg.dec_layers, 2, heads, cfg.max_len, dh), dtype)
        self._pad = np.empty((rows, cfg.max_len), dtype)
        self._rows = rows
        self._source = (model, enc_out, src_mask)

    def decode(
        self, model: "Seq2SeqTransformer", enc_out: np.ndarray, src_mask: np.ndarray, tgt_in_ids: np.ndarray
    ) -> np.ndarray:
        """Logits (rows, 1, V) of one new position per row, after the cached ones."""
        rows, t = tgt_in_ids.shape
        if t != 1:
            raise DataError(f"cached decoding takes one new position per row, not {t}")
        ids = tgt_in_ids[:, 0]
        vocab = self.config.vocab_size
        if rows and (ids.min() < 0 or ids.max() >= vocab):
            i = int(np.flatnonzero((ids < 0) | (ids >= vocab))[0])
            raise DataError(f"token {int(ids[i])} at row {i} is outside the vocabulary 0..{vocab - 1}")
        pos = self.length
        model._check_len(pos + 1, "target")
        if self._source is None:
            if enc_out.shape[0] != 1:
                raise DataError(f"a DecoderCache decodes one source, not a batch of {enc_out.shape[0]}")
            self._fold(model, enc_out, src_mask, rows)
        elif self._source[0] is not model or self._source[1] is not enc_out or self._source[2] is not src_mask:
            raise DataError("this DecoderCache is bound to the model and source of its first decode call")
        elif rows != self._rows:
            raise DataError(f"cached decode got {rows} rows; the cache holds {self._rows}")
        kv = self._kv[:rows]
        self._pad[:rows, pos] = np.where(ids == PAD_ID, NEG_INF, 0.0)
        pad = self._pad[:rows, None, : pos + 1, None]  # key-major: (rows, 1, keys, 1)
        ones = self._ones[:, : pos + 1]
        mean, heads = self._mean, self.config.heads
        x = model.tok.table[ids] + model.store.values["embed.pos"][pos]
        for i, f in enumerate(self.layers):
            qkv = _normalized(x, mean) @ f.wqkv
            qkv += f.bqkv
            qkv = qkv.reshape(rows, 3, heads, -1)
            kv[:, i, :, :, pos] = qkv[:, 1:]
            k, v = kv[:, i, 0, :, : pos + 1], kv[:, i, 1, :, : pos + 1]  # (rows, heads, keys, d_head)
            s = k @ qkv[:, 0, :, :, None]
            s += pad
            s -= np.maximum.reduce(s, axis=-2, keepdims=True)
            np.exp(s, out=s)
            s /= ones @ s
            out = (s.swapaxes(-1, -2) @ v).reshape(rows, -1) @ f.wo
            out += f.bo
            x += out

            s = _normalized(x, mean) @ f.m
            s += f.c
            s3 = s.reshape(rows, heads, -1)  # (rows, heads, S)
            s3 -= np.maximum.reduce(s3, axis=-1, keepdims=True)
            np.exp(s, out=s)
            s3 /= s3 @ self._src_ones
            out = s @ f.vw
            out += f.cross_bo
            x += out

            h = _normalized(x, mean) @ f.w1
            h += f.b1
            out = np.maximum(h, 0, out=h) @ f.w2
            out += f.b2
            x += out
        self.length = pos + 1
        logits = _normalized(x, mean) @ self._out_w
        logits += self._out_b
        return logits[:, None, :]


class Seq2SeqTransformer:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.store = ParamStore(np.dtype(config.dtype))
        root = np.random.default_rng(seed)
        init_rng, dropout_rng = root.spawn(2)
        self._dropout_rng = dropout_rng
        cfg = config

        self.tok = Embedding(self.store, "embed.tok", cfg.vocab_size, cfg.d_model, init_rng)
        self.store.add("embed.pos", init_rng.normal(0.0, 0.02, size=(cfg.max_len, cfg.d_model)))
        self.emb_drop_src = Dropout(cfg.dropout)
        self.emb_drop_tgt = Dropout(cfg.dropout)
        self.enc_blocks = [
            _EncoderBlock(self.store, f"enc{i}", cfg, init_rng) for i in range(cfg.enc_layers)
        ]
        self.enc_ln = LayerNorm(self.store, "enc.ln_f", cfg.d_model)
        self.dec_blocks = [
            _DecoderBlock(self.store, f"dec{i}", cfg, init_rng) for i in range(cfg.dec_layers)
        ]
        self.dec_ln = LayerNorm(self.store, "dec.ln_f", cfg.d_model)
        self.store.add("out.bias", np.zeros(cfg.vocab_size))

    # ---- helpers -------------------------------------------------------

    def _check_len(self, length: int, what: str) -> None:
        if length > self.config.max_len:
            raise DataError(f"{what} length {length} exceeds max_len={self.config.max_len}")

    def _embed(self, ids: np.ndarray, drop: Dropout, train: bool) -> np.ndarray:
        pos = self.store.values["embed.pos"][: ids.shape[1]]
        x = self.tok.table[ids] + pos
        return drop.forward(x, train, self._dropout_rng)

    def _embed_backward(self, ids: np.ndarray, dx: np.ndarray, drop: Dropout) -> None:
        dx = drop.backward(dx)
        dE = scatter_add_rows(ids.reshape(-1), dx.reshape(-1, dx.shape[-1]), self.config.vocab_size)
        self.store.accumulate("embed.tok.E", dE)
        dpos = np.zeros_like(self.store.values["embed.pos"])
        dpos[: ids.shape[1]] = dx.sum(axis=0)
        self.store.accumulate("embed.pos", dpos)

    @staticmethod
    def pad_mask(ids: np.ndarray, dtype) -> np.ndarray:
        """(B, 1, 1, L) additive mask hiding PAD keys."""
        return np.where(ids[:, None, None, :] == PAD_ID, NEG_INF, 0.0).astype(dtype)

    @staticmethod
    def causal_mask(length: int, dtype) -> np.ndarray:
        """(1, 1, length, length) additive mask: query i sees keys 0..i."""
        m = np.triu(np.full((length, length), NEG_INF), k=1)
        return m[None, None].astype(dtype)

    # ---- forward / backward -------------------------------------------

    def encode(self, src_ids: np.ndarray, train: bool = False) -> tuple[np.ndarray, np.ndarray]:
        self._check_len(src_ids.shape[1], "source")
        mask = self.pad_mask(src_ids, self.store.dtype)
        x = self._embed(src_ids, self.emb_drop_src, train)
        for block in self.enc_blocks:
            x = block.forward(x, mask, train, self._dropout_rng)
        return self.enc_ln.forward(x), mask

    def decode(
        self,
        enc_out: np.ndarray,
        src_mask: np.ndarray,
        tgt_in_ids: np.ndarray,
        train: bool = False,
        cache: DecoderCache | None = None,
    ) -> np.ndarray:
        """Logits at each position of tgt_in_ids, (B, T, V).

        With a cache (inference only), tgt_in_ids hold one new position per
        row, after the cache's length; enc_out and src_mask are those of one
        source (batch 1) and the cache's first call, and the cache then holds
        the new position too (see DecoderCache, which raises DataError on any
        other use).
        """
        if cache is not None:
            return cache.decode(self, enc_out, src_mask, tgt_in_ids)
        t = tgt_in_ids.shape[1]
        self._check_len(t, "target")
        self_mask = self.causal_mask(t, self.store.dtype) + self.pad_mask(tgt_in_ids, self.store.dtype)
        x = self._embed(tgt_in_ids, self.emb_drop_tgt, train)
        for block in self.dec_blocks:
            x = block.forward(x, enc_out, self_mask, src_mask, train, self._dropout_rng)
        return self.tok.project_out(self.dec_ln.forward(x)) + self.store.values["out.bias"]

    def forward(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, train: bool = False) -> np.ndarray:
        """Logits over the vocabulary at every target position, (B, T, V)."""
        enc_out, src_mask = self.encode(src_ids, train)
        return self.decode(enc_out, src_mask, tgt_in_ids, train)

    def _sub_batches(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, tgt_out_ids: np.ndarray):
        """Yield the (src, tgt_in, tgt_out) sub-batches of a padded batch, cut
        by `split_rows` and each trimmed to its own longest source and target."""
        src_len, tgt_len = content_lengths(src_ids), content_lengths(tgt_out_ids)
        for rows in split_rows(src_len, tgt_len, self.config.heads, self.store.dtype.itemsize):
            ls = max(int(src_len[rows].max()), 1)
            lt = max(int(tgt_len[rows].max()), 1)
            yield src_ids[rows, :ls], tgt_in_ids[rows, :lt], tgt_out_ids[rows, :lt]

    def loss(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, tgt_out_ids: np.ndarray, train: bool = False) -> tuple[float, int]:
        """Mean token cross-entropy over non-PAD target positions.

        Returns (loss, n_tokens); n_tokens == 0 yields loss 0.0. Runs on the
        length-sorted sub-batches of `loss_and_grads` (rows sorted by source
        length and cut so that no (rows, heads, L, L) attention score array
        exceeds SUB_BATCH_BYTES, 1 MiB, for the 2 MiB L2 cache; each trimmed
        to its own longest rows), so with dropout on, masks are drawn per
        sub-batch.
        """
        total, n_tok = 0.0, 0
        for src, tgt_in, tgt_out in self._sub_batches(src_ids, tgt_in_ids, tgt_out_ids):
            loss, _, n = self._ce(self.forward(src, tgt_in, train), tgt_out)
            total += loss * n
            n_tok += n
        return total / max(n_tok, 1), n_tok

    @staticmethod
    def _ce(logits: np.ndarray, tgt_out: np.ndarray) -> tuple[float, np.ndarray, int]:
        """(mean loss, dloss/dlogits, n_tokens): a log-softmax over the non-PAD
        rows only, in the logits' dtype; dlogits is zero on PAD rows."""
        mask = tgt_out != PAD_ID
        n_tok = int(mask.sum())
        dlogits = np.zeros_like(logits)
        if n_tok == 0:
            return 0.0, dlogits, 0
        rows = logits[mask]
        shifted = rows - rows.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=-1, keepdims=True)
        gold = tgt_out[mask]
        at_gold = (np.arange(n_tok), gold)
        loss = -float((shifted[at_gold] - np.log(total[:, 0])).sum(dtype=np.float64)) / n_tok
        probs = e / total
        probs[at_gold] -= 1.0
        probs /= n_tok
        dlogits[mask] = probs
        return loss, dlogits, n_tok

    def loss_and_grads(
        self,
        src_ids: np.ndarray,
        tgt_in_ids: np.ndarray,
        tgt_out_ids: np.ndarray,
        train: bool = True,
    ) -> tuple[float, int]:
        """Forward + backward; gradients accumulate into the param store.

        Returns the mean loss of the whole padded batch and leaves its mean
        gradient in the store, but runs it in length-sorted sub-batches
        (`split_rows`): the rows, sorted by source length, longest first, are
        cut greedily so that no sub-batch's largest (rows, heads, L, L)
        attention score array exceeds SUB_BATCH_BYTES (1 MiB, which keeps it
        in a 2 MiB per-core L2 cache), and each sub-batch is trimmed to its
        own longest source and target, so that no attention runs over another
        row's padding. Each sub-batch's dlogits is weighted by its tokens / all
        tokens before its backward pass.

        With dropout on, masks are drawn per sub-batch: training stays
        deterministic per seed, but draws differently from one pass over
        the whole padded batch.
        """
        self.store.zero_grads()
        n_total = int((tgt_out_ids != PAD_ID).sum())
        total = 0.0
        for src, tgt_in, tgt_out in self._sub_batches(src_ids, tgt_in_ids, tgt_out_ids):
            loss, dlogits, n = self._ce(self.forward(src, tgt_in, train), tgt_out)
            total += loss * n
            dlogits *= n / max(n_total, 1)
            self._backward(src, tgt_in, dlogits)
        return total / max(n_total, 1), n_total

    def _backward(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, dlogits: np.ndarray) -> None:
        """Backpropagate dlogits through the last forward call, adding the
        gradients to the store."""
        self.store.accumulate("out.bias", dlogits.reshape(-1, dlogits.shape[-1]).sum(axis=0))
        dx = self.dec_ln.backward(self.tok.project_out_backward(dlogits))
        denc_total = np.zeros((*src_ids.shape, self.config.d_model), self.store.dtype)
        for block in reversed(self.dec_blocks):
            dx, denc = block.backward(dx)
            denc_total += denc
        self._embed_backward(tgt_in_ids, dx, self.emb_drop_tgt)

        dx = self.enc_ln.backward(denc_total)
        for block in reversed(self.enc_blocks):
            dx = block.backward(dx)
        self._embed_backward(src_ids, dx, self.emb_drop_src)

    def next_token_logprobs(
        self,
        enc_out: np.ndarray,
        src_mask: np.ndarray,
        prefix_ids: np.ndarray,
        cache: DecoderCache | None = None,
    ) -> np.ndarray:
        """Log-probabilities for the next token after each prefix, (B, V).

        With a cache, prefix_ids hold only the positions after the cached ones.
        """
        logits = self.decode(enc_out, src_mask, prefix_ids, train=False, cache=cache)
        last = logits[:, -1, :].astype(np.float64)
        last -= np.maximum.reduce(last, axis=-1, keepdims=True)
        last -= np.log(np.add.reduce(np.exp(last), axis=-1, keepdims=True))
        return last
