"""A small transformer encoder-decoder trained from scratch.

Pre-norm blocks, learned positional embeddings, a token embedding shared by
encoder and decoder, and an output projection tied to the token embedding.
No token-type embeddings: [SEP] tokens alone carry segment structure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from ..errors import DataError, check_size
from ..text import PAD_ID, SPECIAL_TOKENS
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
    scoring,
    shared_constant,
    softmax,  # unused here, but the benchmark tracer patches seq2seq.softmax
)

# Budget of one training sub-batch's widest arrays (`split_rows`): 1 MiB, so
# that they stay within a 2 MiB per-core L2 cache. Measured on such a 2-CPU
# host, one float32 B=32 train step (sources of 10-127 tokens, targets of
# 10-40, default ModelConfig, V=2000), with the score array alone as the
# cost: 150-157 ms unsplit, 103-109 at 2 MiB, 80-98 at 1 MiB, 83-92 at 512
# KiB, 109-124 at one row per sub-batch. The score array alone let a
# sub-batch of short sources hold 800-1,000 positions, whose per-position
# arrays outgrew the cache and set the process's peak memory. The FFN term
# of the cost caps the default float32 config at 512 positions. Position
# caps on pipeline-cari's four B=32 steps, against the score array alone
# (one process, CPU seconds, median of 30 alternating rounds, BLAS on one
# thread): 0.95x as fast at 1,024 positions, 0.99x at 768, 1.03x at 512
# (the cost's own cut, 1.03x in the same rounds), 1.01x at 384 and 0.94x
# at 256. With each layer's cache dropped in its backward, pipeline-cari's
# peak RSS fell from 70.9 to 59.4 MB (bench/run.py, seed 1).
SUB_BATCH_BYTES = 1 << 20


def _causal(n: int, dtype) -> np.ndarray:
    return np.triu(np.full((n, n), NEG_INF, dtype), k=1)


def content_lengths(ids: np.ndarray) -> np.ndarray:
    """Per row, 1 + the index of its last non-PAD id (0 for an all-PAD row):
    the width a row keeps when its trailing PAD is trimmed."""
    content = ids != PAD_ID
    return np.where(content.any(axis=1), ids.shape[1] - np.argmax(content[:, ::-1], axis=1), 0)


def split_rows(
    src_len: np.ndarray, tgt_len: np.ndarray, heads: int, ffn_dim: int, itemsize: int
) -> list[np.ndarray]:
    """Row indices of each training sub-batch, in order.

    Rows are sorted by source length, longest first (stable), and cut
    greedily: a row joins the current sub-batch while its cost,
    rows x L x max(heads x L, 2 x ffn_dim) x itemsize, stays within
    SUB_BATCH_BYTES, where L is the larger of the sub-batch's longest source
    and longest target. heads x L covers the (rows, heads, L, L) attention
    score array; 2 x ffn_dim covers the FFN's hidden activation and its
    gradient, the widest per-position arrays. A row that alone exceeds the
    budget forms a sub-batch by itself.
    """
    src_len, tgt_len = np.asarray(src_len), np.asarray(tgt_len)

    def cost(rows: int, side: int) -> int:
        return rows * side * max(heads * side, 2 * ffn_dim) * itemsize

    out: list[np.ndarray] = []
    rows: list[int] = []
    side = 0
    for r in np.argsort(-src_len, kind="stable"):
        grown = max(side, int(src_len[r]), int(tgt_len[r]), 1)
        if rows and cost(len(rows) + 1, grown) > SUB_BATCH_BYTES:
            out.append(np.asarray(rows))
            rows, grown = [], max(int(src_len[r]), int(tgt_len[r]), 1)
        rows.append(int(r))
        side = grown
    if rows:
        out.append(np.asarray(rows))
    return out


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
        check_size("vocab_size", self.vocab_size, len(SPECIAL_TOKENS) + 1)  # the reserved tokens and one more
        for name in ("d_model", "heads", "enc_layers", "dec_layers", "ffn_dim"):
            check_size(name, getattr(self, name))
        check_size("max_len", self.max_len, 2)  # [BOS] and one output
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
    def __init__(self, store, prefix, cfg, rng, dropout_rng):
        self.ln1 = LayerNorm(store, prefix + ".ln1", cfg.d_model)
        self.attn = MultiHeadAttention(store, prefix + ".attn", cfg.d_model, cfg.heads, rng)
        self.drop1 = Dropout(cfg.dropout, dropout_rng)
        self.ln2 = LayerNorm(store, prefix + ".ln2", cfg.d_model)
        self.ffn = FeedForward(store, prefix + ".ffn", cfg.d_model, cfg.ffn_dim, rng)
        self.drop2 = Dropout(cfg.dropout, dropout_rng)

    def forward(self, x, mask):
        h = self.ln1.forward(x)
        x = x + self.drop1.forward(self.attn.forward(h, mask))
        x = x + self.drop2.forward(self.ffn.forward(self.ln2.forward(x)))
        return x

    def backward(self, dx):
        dffn = self.ln2.backward(self.ffn.backward(self.drop2.backward(dx)))
        dx = dx + dffn
        dx = dx + self.ln1.backward(self.attn.backward(self.drop1.backward(dx)))
        return dx


class _DecoderBlock:
    def __init__(self, store, prefix, cfg, rng, dropout_rng):
        self.ln1 = LayerNorm(store, prefix + ".ln1", cfg.d_model)
        self.self_attn = MultiHeadAttention(store, prefix + ".self", cfg.d_model, cfg.heads, rng)
        self.drop1 = Dropout(cfg.dropout, dropout_rng)
        self.ln2 = LayerNorm(store, prefix + ".ln2", cfg.d_model)
        self.cross_attn = MultiHeadAttention(store, prefix + ".cross", cfg.d_model, cfg.heads, rng, cross=True)
        self.drop2 = Dropout(cfg.dropout, dropout_rng)
        self.ln3 = LayerNorm(store, prefix + ".ln3", cfg.d_model)
        self.ffn = FeedForward(store, prefix + ".ffn", cfg.d_model, cfg.ffn_dim, rng)
        self.drop3 = Dropout(cfg.dropout, dropout_rng)

    def forward(self, x, enc_out, self_mask, cross_mask):
        h = self.ln1.forward(x)
        x = x + self.drop1.forward(self.self_attn.forward(h, self_mask))
        x = x + self.drop2.forward(self.cross_attn.forward(self.ln2.forward(x), cross_mask, enc_out))
        x = x + self.drop3.forward(self.ffn.forward(self.ln3.forward(x)))
        return x

    def backward(self, dx):
        dffn = self.ln3.backward(self.ffn.backward(self.drop3.backward(dx)))
        dx = dx + dffn
        dq, denc = self.cross_attn.backward(self.drop2.backward(dx))
        dx = dx + self.ln2.backward(dq)
        dx = dx + self.ln1.backward(self.self_attn.backward(self.drop1.backward(dx)))
        return dx, denc


def _fold_norm(ln: LayerNorm, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The (d + 1, n) product W with [x_hat / sqrt(d), 1] @ W =
    ln(x) @ weight + bias, x_hat being x normalised without ln's affine:
    W[:d] = sqrt(d) * gamma[:, None] * weight, and the last row, the folded
    bias, is beta @ weight + bias. The decode step's normalisation divides
    by sqrt(d) * sqrt(var + LN_EPS), and these weights take the sqrt(d)
    back."""
    d = len(ln.gamma)
    w = np.empty((d + 1, weight.shape[1]), weight.dtype)
    np.multiply((math.sqrt(d) * ln.gamma)[:, None], weight, out=w[:d])
    w[d] = ln.beta @ weight + bias
    return w


@dataclass
class _FoldedLayer:
    """One decoder block, folded for one source.

    Each product's bias is its last row, which the ones column of the
    step's buffer that it multiplies picks up. A product that follows a
    LayerNorm is in `_fold_norm`'s layout, with the norm's affine and
    sqrt(d) in its first d rows. The query blocks carry 1 / sqrt(d_head).
    Each product that adds to the residual stream ends in the centring
    matrix C = I - 1/d, bias row included, so that the stream stays
    centred. The cross-attention is `m` and `vw` over heads x source keys,
    laid out head-major (heads, S), so that the softmax reduces over a
    contiguous last axis of S keys; its `.wo` bias rides in `vw`, divided
    by heads, since each head's attention weights sum to 1."""

    wqkv: np.ndarray  # (d + 1, 3d)
    wo: np.ndarray  # (d + 1, d): [.wo weight; .wo bias] @ C
    m: np.ndarray  # (d + 1, heads * S): query projection times keys; last row: query bias times keys, plus [PAD] mask
    vw: np.ndarray  # (heads * S, d): each head's values times its rows of .wo, plus .wo's bias / heads, @ C
    w1: np.ndarray  # (d + 1, ffn)
    w2: np.ndarray  # (ffn + 1, d): [.lin2 weight; .lin2 bias] @ C


class DecoderCache:
    """Incremental decoding state for one source sentence, after fairseq's
    incremental_state, built for that source: the constructor computes
    everything that depends only on the source and the parameters.

    Folded there, from the decoder blocks' layers and the encoder output (see
    `_FoldedLayer`): each LayerNorm's gamma and beta into the Dense after it
    (ln1 into the self-attention's `.wqkv`, ln2 into the cross-attention's
    `.wq`, ln3 into the FFN's `.lin1`, the final `dec.ln_f` into the tied
    output projection with `out.bias`); the attention scale into both query
    projections; the cross-attention query projection into the source's
    keys, and its values into `.wo`, so that a step's cross-attention is two
    products. Each step then runs on 2-D (rows, d_model) arrays, one new
    position per row.

    LayerNorm's centring is folded too. The residual stream is kept centred:
    the step multiplies the embedding sum by the centring matrix C = I - 1/d
    once, and every product that adds to the stream (`.wo`, `vw`, `.lin2`)
    has C folded into its weight and bias. A LayerNorm then only divides
    each row by its norm, into a (rows, d + 1) buffer whose last column is 1,
    so that one product with the folded weight, its bias as the last row,
    finishes LayerNorm and Dense together. The norm itself is one product
    too: the squares go into a (rows, d + 1) buffer whose last column holds
    d * LN_EPS. The self-attention context (the matmul writes it in place)
    and the ReLU output go into ones-padded (rows, d + 1) and (rows, ffn + 1)
    buffers in the same way, for the biases of `.wo` and `.lin2`.

    Every 2-D product in the step is `a.dot(b)`, not `a @ b`: the results
    are identical, but NumPy 2.4's `@` costs more per call, which is most of
    the cost on these small arrays (on a 2-CPU host, BLAS on one thread,
    float32: (4, 64) by (64, 192) takes 2.9 us with `@` and 1.7 us with
    `.dot`). The 4-D self-attention products stay `@`.

    The self-attention keys and values of every decoder layer, the only
    per-row state kept from step to step, share one buffer, (rows,
    dec_layers, 2, heads, max_len, d_head), allocated for config.max_len
    positions and written in place. No key is hidden: a decoded [PAD] is
    attended like any other token. A new cache holds one row, the empty
    prefix; `reorder` takes the rows that the next step extends.

    A cache is built for one source (batch 1; a batch raises DataError) and
    keeps its `model`, `enc_out` and `src_mask`, to which it is bound by
    identity: `decode` with others raises DataError. It is also bound to
    the parameter values it was built from: after a parameter update, build
    a new cache. Every folded product and buffer is in the model's dtype;
    the constants mixed in are Python floats, which never widen it.
    """

    def __init__(self, model: "Seq2SeqTransformer", enc_out: np.ndarray, src_mask: np.ndarray):
        if enc_out.shape[0] != 1:
            raise DataError(f"a DecoderCache decodes one source, not a batch of {enc_out.shape[0]}")
        self.config = model.config
        self.length = 0  # target positions decoded so far
        self.layers: list[_FoldedLayer] = []
        self.model, self.enc_out, self.src_mask = model, enc_out, src_mask
        self._fold(model, enc_out, src_mask)
        self._allocate(1)
        self._rows = 1  # rows of the last step, or of the next one after a reorder

    def _allocate(self, rows: int) -> None:
        """Allocate the per-row buffers for `rows` rows; their decoded
        positions are the caller's to fill."""
        cfg = self.config
        d, dtype = cfg.d_model, cfg.dtype
        self._kv = np.empty((rows, cfg.dec_layers, 2, cfg.heads, cfg.max_len, d // cfg.heads), dtype)
        self._sq = np.full((rows, d + 1), d * LN_EPS, dtype)
        self._xn = np.ones((rows, d + 1), dtype)
        self._ctx = np.ones((rows, d + 1), dtype)
        self._ctx_heads = self._ctx[:, :d].reshape(rows, cfg.heads, 1, d // cfg.heads)  # a view of _ctx
        self._relu = np.ones((rows, cfg.ffn_dim + 1), dtype)

    def reorder(self, rows: np.ndarray) -> None:
        """Keep row rows[i] of the state as row i (beam back-pointers).

        Nothing moves when rows is 0..n-1. More rows than the buffers hold
        first get larger buffers, with the filled rows copied in. Then only
        the rows that change are written, in place, each with the decoded
        positions of its chosen row: first each row that takes a later row,
        in ascending order, then each that takes an earlier row, in
        descending order; back-pointers that never decrease let neither pass
        read a row already written. One basic-slice copy per moved row
        costs about half of NumPy's fancy-index gather and scatter of the
        same rows (a (rows, ..., :t) slice of the 6-D buffer is not
        contiguous). The checks run on a list: NumPy's per-call cost
        outweighs its speed on four rows. A back-pointer outside the
        previous step's rows (before the first step, the one row of the
        empty prefix), or below the one before it, raises DataError."""
        order = np.asarray(rows).tolist()
        n = len(order)
        if n <= self._rows and order == list(range(n)):
            self._rows = n
            return
        if min(order) < 0 or max(order) >= self._rows:
            i = next(i for i, r in enumerate(order) if not 0 <= r < self._rows)
            raise DataError(f"back-pointer {order[i]} at row {i} is outside the previous step's {self._rows} rows")
        i = next((i for i in range(1, n) if order[i] < order[i - 1]), 0)
        if i:
            raise DataError(f"back-pointer {order[i]} at row {i} decreases from row {i - 1}'s {order[i - 1]}")
        t, filled = self.length, self._rows
        if n > len(self._kv):
            kv = self._kv
            self._allocate(n)
            self._kv[:filled, :, :, :, :t] = kv[:filled, :, :, :, :t]
        for i in [i for i, r in enumerate(order) if r > i] + [i for i in range(n - 1, -1, -1) if order[i] < i]:
            self._kv[i, :, :, :, :t] = self._kv[order[i], :, :, :, :t]
        self._rows = n

    def _fold(self, model: "Seq2SeqTransformer", enc_out: np.ndarray, src_mask: np.ndarray) -> None:
        """Compute the folded products of the source."""
        cfg = self.config
        d, heads = cfg.d_model, cfg.heads
        dh = d // heads
        dtype = model.store.dtype
        scale = 1.0 / math.sqrt(dh)  # a Python float, which keeps float32 products float32
        centre = np.eye(d, dtype=dtype) - 1.0 / d
        memory = enc_out[0]
        src_len = len(memory)
        key_mask = src_mask.reshape(src_len)
        for block in model.dec_blocks:
            attn, cross, ffn = block.self_attn, block.cross_attn, block.ffn
            wqkv = _fold_norm(block.ln1, attn.wqkv.weight, attn.wqkv.bias)
            wqkv[:, :d] *= scale
            wq = _fold_norm(block.ln2, cross.wq.weight, cross.wq.bias)
            wq *= scale
            kv = memory @ cross.wkv.weight
            kv += cross.wkv.bias
            k, v = kv.reshape(src_len, 2, heads, dh).transpose(1, 2, 3, 0)  # (heads, d_head, S) each
            m = wq.reshape(d + 1, heads, dh).transpose(1, 0, 2) @ k  # (heads, d + 1, S)
            m[:, d] += key_mask
            vw = v.swapaxes(-1, -2) @ (cross.wo.weight @ centre).reshape(heads, dh, d)  # (heads, S, d)
            vw += (cross.wo.bias @ centre) / heads
            self.layers.append(_FoldedLayer(
                wqkv=wqkv, wo=np.concatenate([attn.wo.weight, attn.wo.bias[None]]) @ centre,
                m=m.transpose(1, 0, 2).reshape(d + 1, -1), vw=vw.reshape(-1, d),
                w1=_fold_norm(block.ln3, ffn.lin1.weight, ffn.lin1.bias),
                w2=np.concatenate([ffn.lin2.weight, ffn.lin2.bias[None]]) @ centre,
            ))
        table = model.tok.table
        self._out = _fold_norm(model.dec_ln, table.T, model.store.values["out.bias"])  # (d + 1, V)
        self._centre = centre
        self._blocks = np.repeat(np.eye(heads, dtype=dtype), src_len, axis=0)  # (heads * S, heads): head of each key
        self._norm_ones = np.ones(d + 1, dtype)

    def decode(
        self, model: "Seq2SeqTransformer", enc_out: np.ndarray, src_mask: np.ndarray, tgt_in_ids: np.ndarray
    ) -> np.ndarray:
        """Logits (rows, 1, V) of one new position per row, after the cached
        ones. Ids that are not a NumPy array of shape (rows, 1), of a
        non-integer dtype or outside 0..vocab_size-1 raise DataError, and so
        does a position past max_len. The ids are tested as a list, not with
        `_ids`: on four rows a list's min() and max() take 0.4-0.7 us, the
        array's 2.5 (2-CPU host), and the list names a bad id's row."""
        if not isinstance(tgt_in_ids, np.ndarray) or tgt_in_ids.shape[1:] != (1,):
            what = f"shape {tgt_in_ids.shape}" if isinstance(tgt_in_ids, np.ndarray) else type(tgt_in_ids).__name__
            raise DataError(f"cached decoding takes a NumPy array of one new position per row, not {what}")
        rows = len(tgt_in_ids)
        ids = tgt_in_ids[:, 0]
        if ids.dtype.kind not in "iu":
            raise DataError(f"token ids must be integers, not {ids.dtype}")
        listed = ids.tolist()
        vocab = self.config.vocab_size
        if rows and (min(listed) < 0 or max(listed) >= vocab):
            i = next(i for i, token in enumerate(listed) if not 0 <= token < vocab)
            raise DataError(f"token {listed[i]} at row {i} is outside the vocabulary 0..{vocab - 1}")
        pos = self.length
        if pos + 1 > self.config.max_len:
            raise DataError(f"target length {pos + 1} exceeds max_len={self.config.max_len}")
        if self.model is not model or self.enc_out is not enc_out or self.src_mask is not src_mask:
            raise DataError("this DecoderCache is bound to the model and source it was built for")
        if rows != self._rows:
            raise DataError(f"cached decode got {rows} rows; the cache holds {self._rows}")
        kv = self._kv[:rows]
        norm_ones, heads = self._norm_ones, self.config.heads
        sq, xn, ctx, relu = self._sq[:rows], self._xn[:rows], self._ctx[:rows], self._relu[:rows]
        sq_x, xn_x, ctx_heads, relu_x = sq[:, :-1], xn[:, :-1], self._ctx_heads[:rows], relu[:, :-1]

        def normalized(x):
            """xn, holding each row of x over sqrt(x . x + d * LN_EPS)."""
            np.square(x, out=sq_x)
            np.divide(x, np.sqrt(sq.dot(norm_ones))[:, None], out=xn_x)
            return xn

        x = (model.tok.table[ids] + model.store.values["embed.pos"][pos]).dot(self._centre)
        for i, f in enumerate(self.layers):
            qkv = normalized(x).dot(f.wqkv).reshape(rows, 3, heads, -1)
            kv[:, i, :, :, pos] = qkv[:, 1:]
            k, v = kv[:, i, 0, :, : pos + 1], kv[:, i, 1, :, : pos + 1]  # (rows, heads, keys, d_head)
            s = k @ qkv[:, 0, :, :, None]  # key-major: (rows, heads, keys, 1)
            s -= np.maximum.reduce(s, axis=-2, keepdims=True)
            np.exp(s, out=s)
            s /= np.add.reduce(s, axis=-2, keepdims=True)
            np.matmul(s.swapaxes(-1, -2), v, out=ctx_heads)
            x += ctx.dot(f.wo)

            s = normalized(x).dot(f.m)
            s3 = s.reshape(rows, heads, -1)  # (rows, heads, S)
            s3 -= np.maximum.reduce(s3, axis=-1, keepdims=True)
            np.exp(s, out=s)
            s3 /= s.dot(self._blocks)[:, :, None]
            x += s.dot(f.vw)

            np.maximum(normalized(x).dot(f.w1), 0, out=relu_x)
            x += relu.dot(f.w2)
        self.length = pos + 1
        return normalized(x).dot(self._out)[:, None, :]


class Seq2SeqTransformer:
    def __init__(self, config: ModelConfig, seed: int = 0, params: dict[str, np.ndarray] | None = None):
        """A model of `config`'s shapes. Its parameters are drawn from `seed`,
        or given `params`, copies of those, in the config's dtype, with
        nothing drawn: the names and shapes must be exactly the config's, or
        ValueError names a parameter that does not fit. Either way the
        dropout stream is `seed`'s, which `spawn` makes independent of the
        draws."""
        self.config = config
        self.store = ParamStore(np.dtype(config.dtype), params)
        root = np.random.default_rng(seed)
        init_rng, dropout_rng = root.spawn(2)
        cfg = config

        self.tok = Embedding(self.store, "embed.tok", cfg.vocab_size, cfg.d_model, init_rng)
        self.store.add("embed.pos", (cfg.max_len, cfg.d_model), lambda shape: init_rng.normal(0.0, 0.02, size=shape))
        self.emb_drop_src = Dropout(cfg.dropout, dropout_rng)
        self.emb_drop_tgt = Dropout(cfg.dropout, dropout_rng)
        self.enc_blocks = [
            _EncoderBlock(self.store, f"enc{i}", cfg, init_rng, dropout_rng) for i in range(cfg.enc_layers)
        ]
        self.enc_ln = LayerNorm(self.store, "enc.ln_f", cfg.d_model)
        self.dec_blocks = [
            _DecoderBlock(self.store, f"dec{i}", cfg, init_rng, dropout_rng) for i in range(cfg.dec_layers)
        ]
        self.dec_ln = LayerNorm(self.store, "dec.ln_f", cfg.d_model)
        self.store.add("out.bias", (cfg.vocab_size,), np.zeros)
        extra = sorted(set(params or ()) - set(self.store.values))
        if extra:
            raise ValueError(f"parameters the config has no place for: {extra}")
        self.store.params = None  # copied; the model holds no reference to them

    # ---- helpers -------------------------------------------------------

    def _ids(self, name: str, ids: np.ndarray) -> None:
        """Refuse, with a DataError that starts with `name`, id arrays that
        the model cannot embed or score:
        - a value that is not a NumPy array (nested lists included);
        - an array that is not 2-D;
        - a non-integer dtype (bool included);
        - an array of no id (zero rows or zero width);
        - more columns than max_len;
        - an id outside 0..vocab_size-1 (a negative id would index the
          table from its end)."""
        if not isinstance(ids, np.ndarray):
            raise DataError(f"{name}: {type(ids).__name__} is not a NumPy array")
        if ids.ndim != 2:
            raise DataError(f"{name}: shape {ids.shape} is not 2-D")
        if ids.dtype.kind not in "iu":
            raise DataError(f"{name}: token ids must be integers, not {ids.dtype}")
        if not ids.size:
            raise DataError(f"{name}: token ids of shape {ids.shape} hold no id")
        if ids.shape[1] > self.config.max_len:
            raise DataError(f"{name}: length {ids.shape[1]} exceeds max_len={self.config.max_len}")
        low, high, vocab = int(ids.min()), int(ids.max()), self.config.vocab_size
        if low < 0 or high >= vocab:
            raise DataError(f"{name}: token id {low if low < 0 else high} is outside the vocabulary 0..{vocab - 1}")

    def _embed(self, ids: np.ndarray, drop: Dropout) -> np.ndarray:
        """Token plus positional embeddings of ids that `_ids` accepts,
        through `drop`."""
        pos = self.store.values["embed.pos"][: ids.shape[1]]
        return drop.forward(self.tok.table[ids] + pos)

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
        """(1, 1, length, length) additive mask: query i sees keys 0..i. A
        read-only view of one mask per dtype, as large as the longest asked
        for (`layers.shared_constant`)."""
        return shared_constant("causal", length, np.dtype(dtype), _causal)[None, None, :length, :length]

    # ---- forward / backward -------------------------------------------

    def encode(self, src_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(encoder output, source [PAD] mask). Outside `layers.scoring()`
        the layers cache for a backward and dropout drops. `_ids` lists
        the src_ids it refuses."""
        self._ids("src_ids", src_ids)
        mask = self.pad_mask(src_ids, self.store.dtype)
        x = self._embed(src_ids, self.emb_drop_src)
        for block in self.enc_blocks:
            x = block.forward(x, mask)
        return self.enc_ln.forward(x), mask

    def decode(
        self,
        enc_out: np.ndarray,
        src_mask: np.ndarray,
        tgt_in_ids: np.ndarray,
        cache: DecoderCache | None = None,
    ) -> np.ndarray:
        """Logits at each position of tgt_in_ids, (B, T, V), under a causal
        self-attention mask alone: a [PAD] is attended like any other token.
        Outside `layers.scoring()` the layers cache for a backward and
        dropout drops, as in `encode`.

        With a cache (inference only), tgt_in_ids hold one new position per
        row, after the cache's length; enc_out and src_mask are those the
        cache was built for, and the cache then holds the new position too
        (see DecoderCache, which raises DataError on any other use).
        Without one, tgt_in_ids that `_ids` refuses raise DataError, and
        so do tgt_in_ids of other rows than enc_out.
        """
        if cache is not None:
            return cache.decode(self, enc_out, src_mask, tgt_in_ids)
        self._ids("tgt_in_ids", tgt_in_ids)
        if len(tgt_in_ids) != len(enc_out):
            raise DataError(f"tgt_in_ids has {len(tgt_in_ids)} rows; the encoder output has {len(enc_out)}")
        self_mask = self.causal_mask(tgt_in_ids.shape[1], self.store.dtype)
        x = self._embed(tgt_in_ids, self.emb_drop_tgt)
        for block in self.dec_blocks:
            x = block.forward(x, enc_out, self_mask, src_mask)
        return self.tok.project_out(self.dec_ln.forward(x)) + self.store.values["out.bias"]

    def forward(
        self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, attention: bool = False
    ) -> np.ndarray | tuple[np.ndarray, dict[str, np.ndarray]]:
        """Logits over the vocabulary at every target position, (B, T, V).

        A scoring forward (`layers.scoring`): no backward follows it, so it
        drops nothing and no layer keeps an array after it. With attention,
        returns (logits, weights), weights holding every attention layer's
        (B, heads, Lq, Lk) weights under its parameter prefix (`enc0.attn`,
        `dec0.self`, `dec0.cross`, ...), the rows of each summing to 1 over
        the keys. `_ids` lists the src_ids and tgt_in_ids it refuses, and
        `decode` refuses tgt_in_ids of other rows than src_ids.
        """
        weights = {} if attention else None
        with scoring(weights):
            enc_out, src_mask = self.encode(src_ids)
            logits = self.decode(enc_out, src_mask, tgt_in_ids)
        return (logits, weights) if attention else logits

    def _sub_batches(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, tgt_out_ids: np.ndarray):
        """A list of the (src, tgt_in, tgt_out) sub-batches of a padded batch,
        cut by `split_rows` and each trimmed to its own longest source and
        target. First, during the call (a list, not a generator), it refuses
        the batches that `loss` lists, which NumPy would mis-score or fail
        on."""
        arrays = {"src_ids": src_ids, "tgt_in_ids": tgt_in_ids, "tgt_out_ids": tgt_out_ids}
        for name, ids in arrays.items():
            self._ids(name, ids)
        if not len(src_ids) == len(tgt_in_ids) == len(tgt_out_ids):
            rows = ", ".join(f"{name} {len(ids)}" for name, ids in arrays.items())
            raise DataError(f"the batch arrays hold different numbers of rows: {rows}")
        if tgt_in_ids.shape[1] != tgt_out_ids.shape[1]:
            raise DataError(f"tgt_in_ids is {tgt_in_ids.shape[1]} wide and tgt_out_ids {tgt_out_ids.shape[1]}")
        src_len, tgt_len = content_lengths(src_ids), content_lengths(tgt_out_ids)
        cfg = self.config

        def trim(rows):
            ls, lt = max(int(src_len[rows].max()), 1), max(int(tgt_len[rows].max()), 1)
            return src_ids[rows, :ls], tgt_in_ids[rows, :lt], tgt_out_ids[rows, :lt]
        return [trim(rows) for rows in split_rows(src_len, tgt_len, cfg.heads, cfg.ffn_dim, self.store.dtype.itemsize)]

    def loss(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, tgt_out_ids: np.ndarray) -> tuple[float, int]:
        """Mean token cross-entropy over non-PAD target positions, without
        dropout and without a gradient: the loss that `loss_and_grads` gives
        a dropout-0 model of the same parameters, bit for bit.

        Returns (loss, n_tokens); n_tokens == 0 yields loss 0.0. Runs on the
        sub-batches of `loss_and_grads` (see `split_rows`), each a scoring
        `forward`, so no layer keeps an array after it. DataError names the
        array that `_ids` refuses, and refuses arrays of different row
        counts and a tgt_in of another width than tgt_out.
        """
        total, n_tok = 0.0, 0
        for src, tgt_in, tgt_out in self._sub_batches(src_ids, tgt_in_ids, tgt_out_ids):
            loss, n, _ = self._nll(self.forward(src, tgt_in), tgt_out)
            total += loss * n
            n_tok += n
        return total / max(n_tok, 1), n_tok

    @staticmethod
    def _nll(logits: np.ndarray, tgt_out: np.ndarray) -> tuple[float, int, tuple]:
        """(mean loss, n_tokens, softmax state): a log-softmax over the
        non-PAD rows only, in the logits' dtype. The state, which `_ce` turns
        into the gradient, is (mask, gold indices, exp of the rows less their
        maxima, their sums), or () if no row is non-PAD."""
        mask = tgt_out != PAD_ID
        n_tok = int(mask.sum())
        if n_tok == 0:
            return 0.0, 0, ()
        exp = logits[mask]  # a copy: shifted and exponentiated in place
        exp -= exp.max(axis=-1, keepdims=True)
        at_gold = (np.arange(n_tok), tgt_out[mask])
        shifted_gold = exp[at_gold]
        np.exp(exp, out=exp)
        total = exp.sum(axis=-1, keepdims=True)
        loss = -float((shifted_gold - np.log(total[:, 0])).sum(dtype=np.float64)) / n_tok
        return loss, n_tok, (mask, at_gold, exp, total)

    @staticmethod
    def _ce(logits: np.ndarray, tgt_out: np.ndarray) -> tuple[float, np.ndarray, int]:
        """(mean loss, dloss/dlogits, n_tokens) of `_nll`; dlogits is zero on
        PAD rows."""
        loss, n_tok, state = Seq2SeqTransformer._nll(logits, tgt_out)
        dlogits = np.zeros_like(logits)
        if n_tok:
            mask, at_gold, probs, total = state
            probs /= total
            probs[at_gold] -= 1.0
            probs /= n_tok
            dlogits[mask] = probs
        return loss, dlogits, n_tok

    def loss_and_grads(
        self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, tgt_out_ids: np.ndarray
    ) -> tuple[float, int]:
        """Forward + backward; gradients accumulate into the param store.

        Returns the mean loss of the whole padded batch and leaves its mean
        gradient in the store, but runs it in the sub-batches that
        `split_rows` cuts, each trimmed to its own longest source and target,
        so that no attention runs over another row's padding. Each
        sub-batch's `encode` and `decode` cache what the backward reads (the
        scoring `forward` does not), and its dlogits is weighted by its
        tokens / all tokens before its backward pass, which drops those
        caches layer by layer.

        It always trains: at a dropout above 0 it draws masks from the
        model's dropout stream, per sub-batch, so training stays
        deterministic per seed but draws differently from one pass over the
        whole padded batch. A dropout-0 model draws nothing; `loss` is its
        loss without the backward. It refuses what `loss` refuses, before
        any forward.
        """
        batches = self._sub_batches(src_ids, tgt_in_ids, tgt_out_ids)
        self.store.zero_grads()
        n_total = int((tgt_out_ids != PAD_ID).sum())
        total = 0.0
        for src, tgt_in, tgt_out in batches:
            enc_out, src_mask = self.encode(src)
            loss, dlogits, n = self._ce(self.decode(enc_out, src_mask, tgt_in), tgt_out)
            total += loss * n
            dlogits *= n / max(n_total, 1)
            self._backward(src, tgt_in, dlogits)
        return total / max(n_total, 1), n_total

    def _backward(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, dlogits: np.ndarray) -> None:
        """Backpropagate dlogits through the last `encode` and `decode` calls
        outside `scoring()`, adding the gradients to the store."""
        self.store.accumulate("out.bias", dlogits.reshape(-1, dlogits.shape[-1]).sum(axis=0))
        dx = self.dec_ln.backward(self.tok.project_out_backward(dlogits))
        dx, denc_total = self.dec_blocks[-1].backward(dx)
        for block in reversed(self.dec_blocks[:-1]):
            dx, denc = block.backward(dx)
            denc_total += denc
        self._embed_backward(tgt_in_ids, dx, self.emb_drop_tgt)

        dx = self.enc_ln.backward(denc_total)
        for block in reversed(self.enc_blocks):
            dx = block.backward(dx)
        self._embed_backward(src_ids, dx, self.emb_drop_src)

    def next_token_logprobs(self, new_ids: np.ndarray, cache: DecoderCache) -> np.ndarray:
        """Log-probabilities (rows, V) of the next token after each of the
        cache's rows, each extended by its id in new_ids, (rows, 1); the
        cache then holds that position too (see DecoderCache).

        The step runs on the cache's products, folded from the encoder output
        and source mask it was built for, not on the layers: it drops nothing
        and leaves no array on a layer with no `scoring()` block, which
        around every step made beam and greedy decodes 1.03x as slow
        (tools/ab_model.py, 10 rounds, 2-CPU host, BLAS on one thread).
        new_ids that `_ids` refuses, or of another width than 1, raise
        DataError: the step tests them itself and names a bad id's row.
        """
        logits = self.decode(cache.enc_out, cache.src_mask, new_ids, cache)
        last = logits[:, -1, :].astype(np.float64)
        last -= np.maximum.reduce(last, axis=-1, keepdims=True)
        last -= np.log(np.add.reduce(np.exp(last), axis=-1, keepdims=True))
        return last
