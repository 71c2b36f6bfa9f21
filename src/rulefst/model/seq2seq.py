"""A small transformer encoder-decoder trained from scratch.

Pre-norm blocks, learned positional embeddings, a token embedding shared by
encoder and decoder, and an output projection tied to the token embedding.
No token-type embeddings: [SEP] tokens alone carry segment structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from ..errors import DataError
from ..text import PAD_ID
from .layers import (
    NEG_INF,
    Dropout,
    Embedding,
    FeedForward,
    KVCache,
    LayerNorm,
    MultiHeadAttention,
    ParamStore,
    PrefixBuffer,
    scatter_add_rows,
    softmax,  # unused here, but the benchmark tracer patches seq2seq.softmax
)

# Largest (rows, heads, L, L) attention score array of one training sub-batch:
# 1 MiB, so that a sub-batch's scores and softmax stay within a 2 MiB per-core
# L2 cache. Measured on such a 2-CPU host, one float32 B=32 train step
# (sources of 10-127 tokens, targets of 10-40, default ModelConfig, V=2000):
# 150-157 ms unsplit, 103-109 at 2 MiB, 80-98 at 1 MiB, 83-92 at 512 KiB,
# 109-124 at one row per sub-batch.
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
        if self.d_model % self.heads:
            raise DataError("d_model must be divisible by heads")
        if self.vocab_size < 7:
            raise DataError("vocab_size must cover the reserved tokens")

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

    def forward(self, x, enc_out, self_mask, cross_mask, train, rng, self_kv=None, cross_kv=None):
        h = self.ln1.forward(x)
        x = x + self.drop1.forward(self.self_attn.forward(h, self_mask, self_kv), train, rng)
        x = x + self.drop2.forward(
            self.cross_attn.forward(self.ln2.forward(x), cross_mask, cross_kv, memory=enc_out), train, rng
        )
        x = x + self.drop3.forward(self.ffn.forward(self.ln3.forward(x)), train, rng)
        return x

    def backward(self, dx):
        dffn = self.ln3.backward(self.ffn.backward(self.drop3.backward(dx)))
        dx = dx + dffn
        dq, denc = self.cross_attn.backward(self.drop2.backward(dx))
        dx = dx + self.ln2.backward(dq)
        dx = dx + self.ln1.backward(self.self_attn.backward(self.drop1.backward(dx)))
        return dx, denc


class DecoderCache:
    """Incremental decoding state for one source sentence, after fairseq's
    incremental_state: per decoder layer, the self-attention keys and values
    of every decoded position (one row per live hypothesis) and the
    cross-attention keys and values of the source (batch 1, shared by all
    rows), plus `pad_mask`, the additive mask that hides decoded [PAD] keys,
    (rows, 1, 1, length). Decoded positions are written in place into
    buffers sized once for config.max_len positions.
    """

    def __init__(self, config: ModelConfig):
        self.self_kv = [KVCache(capacity=config.max_len) for _ in range(config.dec_layers)]
        self.cross_kv = [KVCache() for _ in range(config.dec_layers)]
        self._pad = PrefixBuffer(config.max_len, axis=3)

    @property
    def pad_mask(self) -> np.ndarray | None:
        return self._pad.value

    @property
    def length(self) -> int:
        """Target positions decoded so far."""
        return 0 if self.pad_mask is None else self.pad_mask.shape[-1]

    def append_pad_mask(self, pad: np.ndarray) -> np.ndarray:
        """Add the (rows, 1, 1, t) mask of the next t positions; returns the
        mask of every decoded position."""
        return self._pad.append(pad)

    def reorder(self, rows: np.ndarray) -> None:
        """Keep row rows[i] of the state as row i (beam back-pointers)."""
        if self.pad_mask is None:
            return
        rows = np.asarray(rows)
        identity = bool(np.array_equal(rows, np.arange(len(rows))))
        self._pad.reorder(rows, identity)
        for kv in self.self_kv:
            kv.reorder(rows, identity)


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

    def _embed(self, ids: np.ndarray, drop: Dropout, train: bool, start: int = 0) -> np.ndarray:
        pos = self.store.values["embed.pos"][start : start + ids.shape[1]]
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
    def causal_mask(length: int, dtype, start: int = 0) -> np.ndarray:
        """(1, 1, length, start + length) additive mask: query i sits at
        position start + i and sees keys up to that position."""
        m = np.triu(np.full((length, start + length), NEG_INF), k=start + 1)
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

        With a cache, tgt_in_ids are the next T positions after the cache's
        length (inference only); the cache then holds them too, and enc_out
        and src_mask may keep batch size 1 for any B.
        """
        start = 0 if cache is None else cache.length
        t = tgt_in_ids.shape[1]
        self._check_len(start + t, "target")
        pad = self.pad_mask(tgt_in_ids, self.store.dtype)
        if cache is not None:
            pad = cache.append_pad_mask(pad)
        # causal_mask(1, ...) is all zeros: one new position sees every key.
        self_mask = pad if t == 1 else self.causal_mask(t, self.store.dtype, start) + pad
        x = self._embed(tgt_in_ids, self.emb_drop_tgt, train, start)
        for i, block in enumerate(self.dec_blocks):
            kv = (None, None) if cache is None else (cache.self_kv[i], cache.cross_kv[i])
            x = block.forward(x, enc_out, self_mask, src_mask, train, self._dropout_rng, *kv)
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
        loss_scale: float = 1.0,
    ) -> tuple[float, int]:
        """Forward + backward; gradients accumulate into the param store.

        Returns the mean loss of the whole padded batch and leaves its mean
        gradient in the store, but runs it in length-sorted sub-batches
        (`split_rows`): the rows, sorted by source length, longest first, are
        cut greedily so that no sub-batch's largest (rows, heads, L, L)
        attention score array exceeds SUB_BATCH_BYTES (1 MiB, which keeps it
        in a 2 MiB per-core L2 cache), and each sub-batch is trimmed to its
        own longest source and target, so that no attention runs over another
        row's padding. Each sub-batch's dlogits is weighted by
        loss_scale * its tokens / all tokens before its backward pass.

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
            dlogits *= float(loss_scale) * n / max(n_total, 1)
            self._backward(src, tgt_in, dlogits)
        return float(loss_scale) * total / max(n_total, 1), n_total

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
        shifted = last - last.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
