"""Neural network building blocks with hand-written backprop.

All parameters live in a ParamStore keyed by dotted names, so the optimizer,
checkpointing and finite-difference checking can treat the model as a flat
dict of arrays. Layers cache what they need on forward and accumulate
gradients on backward; each layer instance is used once per forward pass.

Attention projections are fused: a self-attention layer has one `.wqkv`
Dense of shape (d, 3d) whose column blocks are the query, key and value
projections, and a cross-attention layer has `.wq` plus one `.wkv` of shape
(d, 2d), keys then values. Each block is drawn from the rng in that order, as
separate (d, d) projections would be. One Dense call per fused projection
keeps NumPy's per-call overhead, which dominates one-row decode steps, low.

Incremental decoding keeps per-layer keys and values in a KVCache, whose
PrefixBuffers are allocated once for the model's max_len positions and
written in place as positions are decoded.

Attention scores are kept key-major, (B, heads, Lk, Lq): the softmax's max
over the keys is then a reduction over axis -2, which NumPy runs about three
times faster than one over a short contiguous last axis. Its sum, like
LayerNorm's means and the sums over rows of the bias and LayerNorm
gradients, is a matmul with a constant vector, which BLAS runs several times
faster than np.add.reduce sums short rows.

Dtype contract: every activation, cache and gradient stays in the parameter
dtype (the model's `ModelConfig.dtype`). Constants mixed into array
arithmetic are Python floats, which NumPy 2 (NEP 50) never lets widen an
array; a NumPy float64 scalar would promote a float32 array to float64.

In-place rule: to save the temporaries and the passes over memory that
fresh arrays cost, a layer overwrites arrays that it allocated itself (a
matmul result, a buffer from np.empty) while it builds its output or
gradient. It never writes an input, an upstream gradient, anything saved
for backward once saved, a KVCache or PrefixBuffer (other than through
their own append and reorder), or a parameter. `softmax` normalises its
argument in place, so callers pass it an array they own.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = -1e9


class ParamStore:
    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self.values:
            raise ValueError(f"duplicate parameter {name!r}")
        self.values[name] = np.asarray(value, dtype=self.dtype)
        return self.values[name]

    def zero_grads(self) -> None:
        self.grads = {}

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        if name in self.grads:
            self.grads[name] += grad
        else:
            self.grads[name] = grad.astype(self.dtype, copy=True)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.values.items()}

    def load(self, params: dict[str, np.ndarray]) -> None:
        if set(params) != set(self.values):
            missing = set(self.values) - set(params)
            extra = set(params) - set(self.values)
            raise ValueError(f"parameter name mismatch (missing={sorted(missing)}, extra={sorted(extra)})")
        for k, v in params.items():
            if v.shape != self.values[k].shape:
                raise ValueError(f"shape mismatch for {k}: {v.shape} vs {self.values[k].shape}")
            self.values[k] = np.asarray(v, dtype=self.dtype).copy()


def axis_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """x summed over `axis`, keeping it as size 1. Over either of the last
    two axes the sum is a matmul with a ones vector: BLAS sums rows of a few
    dozen elements several times faster than np.add.reduce does."""
    axis %= x.ndim
    if axis == x.ndim - 1:
        return x @ np.ones((x.shape[-1], 1), x.dtype)
    if axis == x.ndim - 2:
        return np.ones((1, x.shape[-2]), x.dtype) @ x
    return np.add.reduce(x, axis=axis, keepdims=True)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of x along `axis`, computed in place: x is overwritten with
    the result, which is returned. Any axis works; attention passes
    key-major scores and axis=-2."""
    x -= np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= axis_sum(x, axis)
    return x


class Dense:
    """x @ W + b over the last axis. With blocks > 1, W is `blocks` column
    blocks of d_out // blocks columns, each drawn from the rng in turn, so a
    fused projection starts from the weights its separate parts would."""

    def __init__(
        self, store: ParamStore, name: str, d_in: int, d_out: int, rng: np.random.Generator, blocks: int = 1
    ):
        self.store = store
        self.name = name
        self._w, self._b = name + ".W", name + ".b"
        width = d_out // blocks
        store.add(self._w, np.concatenate([rng.normal(0.0, 0.02, size=(d_in, width)) for _ in range(blocks)], axis=1))
        store.add(self._b, np.zeros(d_out))
        self._x2d: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._x2d = x.reshape(-1, x.shape[-1])
        out = self._x2d @ self.store.values[self._w]
        out += self.store.values[self._b]
        return out.reshape(*x.shape[:-1], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d2d = dout.reshape(-1, dout.shape[-1])
        W = self.store.values[self._w]
        self.store.accumulate(self._w, self._x2d.T @ d2d)
        self.store.accumulate(self._b, axis_sum(d2d, 0)[0])
        return (d2d @ W.T).reshape(self._shape)


class LayerNorm:
    """Normalisation over the last axis. Means over it are a matmul with a
    constant (d, 1) column of 1 / d, which BLAS runs several times faster
    than x.mean runs on short rows."""

    def __init__(self, store: ParamStore, name: str, d: int, eps: float = 1e-5):
        self.store = store
        self.name = name
        self.eps = eps
        self._gamma, self._beta = name + ".gamma", name + ".beta"
        store.add(self._gamma, np.ones(d))
        store.add(self._beta, np.zeros(d))
        self._mean = np.full((d, 1), 1.0 / d, store.dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        xc = x - x @ self._mean
        out = np.square(xc)  # the output's buffer, first used for the variance
        self._inv_std = 1.0 / np.sqrt(out @ self._mean + self.eps)
        xc *= self._inv_std
        self._norm = xc
        np.multiply(xc, self.store.values[self._gamma], out=out)
        out += self.store.values[self._beta]
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        norm = self._norm
        flat = (-1, norm.shape[-1])
        t = dout * norm
        self.store.accumulate(self._gamma, axis_sum(t.reshape(flat), 0)[0])
        self.store.accumulate(self._beta, axis_sum(dout.reshape(flat), 0)[0])
        dx = dout * self.store.values[self._gamma]  # dnorm, turned into dx in place
        # d/dx of (x - mean) / std, all along the last axis:
        # (dnorm - mean(dnorm) - norm * mean(dnorm * norm)) / std
        np.multiply(dx, norm, out=t)
        np.multiply(norm, t @ self._mean, out=t)
        dx -= dx @ self._mean
        dx -= t
        dx *= self._inv_std
        return dx


def scatter_add_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums of rows by id: out[i] = sum of rows[j] over ids[j] == i.

    The same as np.add.at on zeros, but the ids are sorted once and each run
    of equal ids is summed by one np.add.reduceat, in the original row order.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    out = np.zeros((n, rows.shape[-1]), rows.dtype)
    out[sorted_ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


class Embedding:
    """Token embedding table; also provides the tied output projection.

    The lookup and its gradient live in Seq2SeqTransformer._embed and
    _embed_backward, which add the positional embedding in the same pass.
    """

    def __init__(self, store: ParamStore, name: str, n: int, d: int, rng: np.random.Generator):
        self.store = store
        self.name = name
        self.n = n
        store.add(name + ".E", rng.normal(0.0, 0.02, size=(n, d)))

    @property
    def table(self) -> np.ndarray:
        return self.store.values[self.name + ".E"]

    def project_out(self, h: np.ndarray) -> np.ndarray:
        """Tied unembedding: logits = h @ E^T."""
        self._h2d = h.reshape(-1, h.shape[-1])
        self._h_shape = h.shape
        return (self._h2d @ self.table.T).reshape(*h.shape[:-1], self.n)

    def project_out_backward(self, dlogits: np.ndarray) -> np.ndarray:
        d2d = dlogits.reshape(-1, self.n)
        self.store.accumulate(self.name + ".E", d2d.T @ self._h2d)
        return (d2d @ self.table).reshape(self._h_shape)


class Dropout:
    """Inverted dropout. The uniforms are drawn in the input's dtype, and
    `_mask`, in that dtype too, is 1 / (1 - rate) where kept and 0 where
    dropped."""

    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None) -> np.ndarray:
        if not train or self.rate <= 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        u = rng.random(x.shape, dtype=x.dtype)
        self._mask = np.divide(u < keep, keep, out=u, dtype=x.dtype)
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class PrefixBuffer:
    """Per-row sequences that grow along `axis`, one row per live hypothesis.

    Positions are written in place into a buffer allocated once for
    `capacity` positions (it grows only in rows); `value` is the view of the
    filled part, (rows, ..., length, ...), or None before the first append.
    """

    def __init__(self, capacity: int, axis: int):
        self.capacity = capacity
        self._lead = (slice(None),) * (axis - 1)  # the axes between rows and positions
        self._buf: np.ndarray | None = None
        self.value: np.ndarray | None = None

    def _view(self, rows: int, length: int) -> np.ndarray:
        return self._buf[(slice(0, rows), *self._lead, slice(0, length))]

    def append(self, x: np.ndarray) -> np.ndarray:
        """Add x's positions after the filled ones; x has one row per current row."""
        axis = len(self._lead) + 1
        if self._buf is None:
            shape = list(x.shape)
            shape[axis] = self.capacity
            self._buf = np.empty(shape, x.dtype)
            length = 0
        else:
            length = self.value.shape[axis]
        end = length + x.shape[axis]
        self._buf[(slice(0, x.shape[0]), *self._lead, slice(length, end))] = x
        self.value = self._view(x.shape[0], end)
        return self.value

    def reorder(self, rows: np.ndarray, identity: bool) -> None:
        """Keep row rows[i] as row i. When rows is 0..n-1 (identity), nothing
        moves; otherwise only the filled positions are copied."""
        length = self.value.shape[len(self._lead) + 1]
        if not identity:
            taken = self.value[rows]
            if len(rows) > self._buf.shape[0]:
                self._buf = np.empty((len(rows), *self._buf.shape[1:]), self._buf.dtype)
            self._buf[(slice(0, len(rows)), *self._lead, slice(0, length))] = taken
        self.value = self._view(len(rows), length)


class KVCache:
    """Projected keys and values of one attention layer, kept across decode
    steps; `k` and `v` are (rows, heads, length, d_head).

    Without a capacity the cache is static (cross-attention): it is filled
    from the first call's memory and reused as is, and may keep batch size 1
    to broadcast against any number of queries. With one (self-attention),
    each call appends the keys and values of its new positions in place,
    into PrefixBuffers sized once for `capacity` positions, and `reorder`
    selects the rows that the next step extends; `k` and `v` then view the
    buffers' filled part.
    """

    def __init__(self, capacity: int | None = None):
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._k = self._v = None
        if capacity is not None:
            self._k, self._v = PrefixBuffer(capacity, axis=2), PrefixBuffer(capacity, axis=2)

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        if self._k is None:
            self.k, self.v = k, v
        else:
            self.k, self.v = self._k.append(k), self._v.append(v)

    def reorder(self, rows: np.ndarray, identity: bool) -> None:
        if self._k is not None and self.k is not None:
            self._k.reorder(rows, identity)
            self._v.reorder(rows, identity)
            self.k, self.v = self._k.value, self._v.value


class MultiHeadAttention:
    """Scaled dot-product attention over `heads` heads.

    Self-attention (the default) projects its input through one fused
    `.wqkv` (d, 3d); cross-attention projects the queries through `.wq` and
    the memory through one fused `.wkv` (d, 2d). The mask is additive, 4-D
    and broadcastable to (B, 1, Lq, Lk). With a KVCache, forward is
    inference only: backward needs the full sequence in one call. Backward
    returns the input gradient, and for cross-attention also the memory's.

    The scores are key-major, `k @ (q * scale)^T` of shape (B, heads, Lk,
    Lq): the transposed mask is added and the softmax normalises over axis
    -2, both in place. The context is written straight into the (B, Lq,
    heads, d_head) layout that `.wo` reads, and backward writes dq, dk and dv
    straight into the (B, L, parts, heads, d_head) layout that the fused
    projection's backward reads.
    """

    def __init__(
        self, store: ParamStore, name: str, d_model: int, heads: int, rng: np.random.Generator, cross: bool = False
    ):
        if d_model % heads:
            raise ValueError("d_model must be divisible by heads")
        self.heads = heads
        self.d_head = d_model // heads
        self.cross = cross
        # A Python float: under NEP 50 np.float64 scalars promote float32 arrays.
        self.scale = 1.0 / math.sqrt(self.d_head)
        if cross:
            self.wq = Dense(store, name + ".wq", d_model, d_model, rng)
            self.wkv = Dense(store, name + ".wkv", d_model, 2 * d_model, rng, blocks=2)
        else:
            self.wqkv = Dense(store, name + ".wqkv", d_model, 3 * d_model, rng, blocks=3)
        self.wo = Dense(store, name + ".wo", d_model, d_model, rng)

    def _split(self, x: np.ndarray, parts: int) -> np.ndarray:
        """(B, L, parts * d) -> (parts, B, heads, L, d_head) views."""
        b, l, _ = x.shape
        return x.reshape(b, l, parts, self.heads, self.d_head).transpose(2, 0, 3, 1, 4)

    def forward(
        self, x: np.ndarray, mask: np.ndarray | None, cache: KVCache | None = None, memory: np.ndarray | None = None
    ) -> np.ndarray:
        """Attend from x to itself, or for cross-attention to `memory`
        (which a filled static cache replaces)."""
        if not self.cross:
            q, k, v = self._split(self.wqkv.forward(x), 3)
            if cache is not None:
                cache.append(k, v)
                k, v = cache.k, cache.v
        else:
            q = self._split(self.wq.forward(x), 1)[0]
            if cache is not None and cache.k is not None:
                k, v = cache.k, cache.v
            else:
                k, v = self._split(self.wkv.forward(memory), 2)
                if cache is not None:
                    cache.append(k, v)
        q = q * self.scale
        attn = k @ q.swapaxes(-1, -2)
        if mask is not None:
            attn += mask.swapaxes(-1, -2)
        softmax(attn, axis=-2)  # normalises attn in place
        b, _, _, lq = attn.shape
        ctx = np.empty((b, lq, self.heads, self.d_head), attn.dtype)
        np.matmul(attn.swapaxes(-1, -2), v, out=ctx.transpose(0, 2, 1, 3))
        self._q, self._k, self._v, self._attn, self._ctx = q, k, v, attn, ctx
        return self.wo.forward(ctx.reshape(b, lq, -1))

    @property
    def last_attention(self) -> np.ndarray:
        """Attention weights of the last forward, (B, heads, Lq, Lk): a
        transposed view of the key-major weights."""
        return self._attn.swapaxes(-1, -2)

    def backward(self, dout: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        q, k, v, attn, ctx = self._q, self._k, self._v, self._attn, self._ctx
        b, lq, heads, dh = ctx.shape
        lk = k.shape[2]
        dctx = self.wo.backward(dout).reshape(b, lq, heads, dh)
        # Softmax backward along the key axis: dscores = attn * (dattn - D),
        # where D = sum over keys of dattn * attn = dctx . ctx per query.
        delta = np.einsum("bqhd,bqhd->bhq", dctx, ctx)[:, :, None, :]
        dctx = dctx.transpose(0, 2, 1, 3)
        dscores = v @ dctx.swapaxes(-1, -2)  # dattn, key-major; made dscores in place
        dscores -= delta
        dscores *= attn
        if self.cross:
            dq = np.empty((b, lq, 1, heads, dh), attn.dtype)
            dkv = np.empty((b, lk, 2, heads, dh), attn.dtype)
        else:  # one buffer, the layout of wqkv's output, holds dq, dk and dv
            dq = dkv = np.empty((b, lq, 3, heads, dh), attn.dtype)
        dq_h = dq[:, :, 0].transpose(0, 2, 1, 3)
        np.matmul(dscores.swapaxes(-1, -2), k, out=dq_h)
        dq_h *= self.scale
        np.matmul(dscores, q, out=dkv[:, :, -2].transpose(0, 2, 1, 3))  # q is pre-scaled
        np.matmul(attn, dctx, out=dkv[:, :, -1].transpose(0, 2, 1, 3))
        if not self.cross:
            return self.wqkv.backward(dkv.reshape(b, lq, -1))
        return self.wq.backward(dq.reshape(b, lq, -1)), self.wkv.backward(dkv.reshape(b, lk, -1))


class FeedForward:
    def __init__(self, store: ParamStore, name: str, d_model: int, d_hidden: int, rng: np.random.Generator):
        self.lin1 = Dense(store, name + ".lin1", d_model, d_hidden, rng)
        self.lin2 = Dense(store, name + ".lin2", d_hidden, d_model, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.lin1.forward(x)
        self._h = np.maximum(h, 0, out=h)  # ReLU in place; h > 0 where the input was
        return self.lin2.forward(h)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dh = self.lin2.backward(dout)
        dh *= self._h > 0
        return self.lin1.backward(dh)
