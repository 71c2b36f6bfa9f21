"""Neural network building blocks with hand-written backprop.

All parameters live in a ParamStore keyed by dotted names, so the optimizer,
checkpointing and finite-difference checking can treat the model as a flat
dict of arrays. Layers cache what they need on forward and accumulate
gradients on backward; each layer instance is used once per forward pass.

Dtype contract: every activation, cache and gradient stays in the parameter
dtype (the model's `ModelConfig.dtype`). Constants mixed into array
arithmetic are Python floats, which NumPy 2 (NEP 50) never lets widen an
array; a NumPy float64 scalar would promote a float32 array to float64.
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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class Dense:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int, rng: np.random.Generator):
        self.store = store
        self.name = name
        store.add(name + ".W", rng.normal(0.0, 0.02, size=(d_in, d_out)))
        store.add(name + ".b", np.zeros(d_out))
        self._x2d: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._x2d = x.reshape(-1, x.shape[-1])
        out = self._x2d @ self.store.values[self.name + ".W"] + self.store.values[self.name + ".b"]
        return out.reshape(*x.shape[:-1], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d2d = dout.reshape(-1, dout.shape[-1])
        W = self.store.values[self.name + ".W"]
        self.store.accumulate(self.name + ".W", self._x2d.T @ d2d)
        self.store.accumulate(self.name + ".b", d2d.sum(axis=0))
        return (d2d @ W.T).reshape(self._shape)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, d: int, eps: float = 1e-5):
        self.store = store
        self.name = name
        self.eps = eps
        store.add(name + ".gamma", np.ones(d))
        store.add(name + ".beta", np.zeros(d))

    def forward(self, x: np.ndarray) -> np.ndarray:
        xc = x - x.mean(axis=-1, keepdims=True)
        var = np.mean(xc * xc, axis=-1, keepdims=True)
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._norm = xc * self._inv_std
        g = self.store.values[self.name + ".gamma"]
        b = self.store.values[self.name + ".beta"]
        return self._norm * g + b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        g = self.store.values[self.name + ".gamma"]
        norm = self._norm
        d = norm.shape[-1]
        flat = (-1, d)
        self.store.accumulate(self.name + ".gamma", (dout * norm).reshape(flat).sum(axis=0))
        self.store.accumulate(self.name + ".beta", dout.reshape(flat).sum(axis=0))
        dnorm = dout * g
        # d/dx of (x - mean) / std, all along the last axis
        dx = (
            dnorm
            - dnorm.mean(axis=-1, keepdims=True)
            - norm * (dnorm * norm).mean(axis=-1, keepdims=True)
        ) * self._inv_std
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
    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None) -> np.ndarray:
        if not train or self.rate <= 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class KVCache:
    """Projected keys and values of one attention layer, kept across decode
    steps, each (B, heads, Lk, d_head).

    A static cache (cross-attention) is filled from the first call's kv_in
    and reused as is; it may keep batch size 1 and broadcast against any
    number of queries. Otherwise (self-attention) each call appends the keys
    and values of its new rows, and `reorder` selects the rows that the next
    step extends.
    """

    def __init__(self, static: bool = False):
        self.static = static
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def reorder(self, rows: np.ndarray) -> None:
        if not self.static and self.k is not None:
            self.k, self.v = self.k[rows], self.v[rows]


class MultiHeadAttention:
    """Scaled dot-product attention over `heads` heads.

    Query input and key/value input may differ (cross-attention). The mask is
    additive, broadcastable to (B, 1, Lq, Lk). With a KVCache, forward is
    inference only: backward needs the full sequence in one call.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, heads: int, rng: np.random.Generator):
        if d_model % heads:
            raise ValueError("d_model must be divisible by heads")
        self.heads = heads
        self.d_head = d_model // heads
        # A Python float: under NEP 50 np.float64 scalars promote float32 arrays.
        self.scale = 1.0 / math.sqrt(self.d_head)
        self.wq = Dense(store, name + ".wq", d_model, d_model, rng)
        self.wk = Dense(store, name + ".wk", d_model, d_model, rng)
        self.wv = Dense(store, name + ".wv", d_model, d_model, rng)
        self.wo = Dense(store, name + ".wo", d_model, d_model, rng)

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, l, _ = x.shape
        return x.reshape(b, l, self.heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, l, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)

    def forward(
        self, q_in: np.ndarray, kv_in: np.ndarray, mask: np.ndarray | None, cache: KVCache | None = None
    ) -> np.ndarray:
        q = self._split(self.wq.forward(q_in))
        if cache is not None and cache.static and cache.k is not None:
            k, v = cache.k, cache.v
        else:
            k = self._split(self.wk.forward(kv_in))
            v = self._split(self.wv.forward(kv_in))
            if cache is not None:
                if not cache.static and cache.k is not None:
                    k = np.concatenate([cache.k, k], axis=2)
                    v = np.concatenate([cache.v, v], axis=2)
                cache.k, cache.v = k, v
        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale
        if mask is not None:
            scores = scores + mask
        attn = softmax(scores, axis=-1)
        ctx = attn @ v
        self._q, self._k, self._v, self._attn = q, k, v, attn
        return self.wo.forward(self._merge(ctx))

    @property
    def last_attention(self) -> np.ndarray:
        return self._attn

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, k, v, attn, scale = self._q, self._k, self._v, self._attn, self.scale
        dctx = self._split(self.wo.backward(dout))
        dattn = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn.transpose(0, 1, 3, 2) @ dctx
        # softmax backward along the key axis
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq = (dscores @ k) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale
        dq_in = self.wq.backward(self._merge(dq))
        dkv_in = self.wk.backward(self._merge(dk)) + self.wv.backward(self._merge(dv))
        return dq_in, dkv_in


class FeedForward:
    def __init__(self, store: ParamStore, name: str, d_model: int, d_hidden: int, rng: np.random.Generator):
        self.lin1 = Dense(store, name + ".lin1", d_model, d_hidden, rng)
        self.lin2 = Dense(store, name + ".lin2", d_hidden, d_model, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.lin1.forward(x)
        self._pos = h > 0
        return self.lin2.forward(h * self._pos)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dh = self.lin2.backward(dout) * self._pos
        return self.lin1.backward(dh)
