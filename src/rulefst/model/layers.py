"""Neural network building blocks with hand-written backprop.

All parameters live in a ParamStore keyed by dotted names, so the optimizer,
checkpointing and finite-difference checking can treat the model as a flat
dict of arrays. Layers cache what they need on forward and accumulate
gradients on backward; each layer instance is used once per forward pass.

Cache lifetime: a layer's forward caches the arrays its backward reads
(`put_cache`), and its backward takes them (`take_cache`): once read, they
are dropped, so a training step frees each layer's activations as its
backward passes it. A forward that no backward follows runs inside
`scoring()`, where no layer caches anything, as inference under PyTorch's
no_grad (Paszke et al. 2019) keeps no graph: `Seq2SeqTransformer.forward`
and `loss` and the decoders' encode do, so evaluation and decoding leave no
array on a layer, and each activation is freed as soon as the next layer has
read it. A backward without its forward raises RuntimeError at once, rather
than reusing stale arrays.

Attention projections are fused: a self-attention layer has one `.wqkv`
Dense of shape (d, 3d) whose column blocks are the query, key and value
projections, and a cross-attention layer has `.wq` plus one `.wkv` of shape
(d, 2d), keys then values. Each block is drawn from the rng in that order, as
separate (d, d) projections would be. One Dense call per fused projection
keeps NumPy's per-call overhead low.

These layers run the full-prefix path that training and teacher-forced
scoring use; cached decode steps run on products folded from their
parameters (`seq2seq.DecoderCache`), which read them through `Dense.weight`,
`Dense.bias`, `LayerNorm.gamma`, `LayerNorm.beta` and `Embedding.table`.

The layers keep `a @ b`, where the folded decode step uses `a.dot(b)`. On
2-D operands the two give identical results, and `.dot` saves about a
microsecond of NumPy's per-call cost, which is most of the cost of a decode
step's (rows <= 4, 64) products. A training step's arrays are large, so
that saving is lost in the arithmetic: with `.dot` in Dense, Embedding and
LayerNorm's means, four B=32 training steps at pipeline-cari's sizes ran
0.97x as fast (median of 16 alternating rounds, 2-CPU host, BLAS on one
thread). On 3-D operands, as LayerNorm's, `.dot` also rounds differently.

Attention scores are kept key-major, (B, heads, Lk, Lq), and `softmax`
works on axis -2 alone: its max over the keys is a reduction over axis -2,
which NumPy runs about three times faster than one over a short contiguous
last axis. Its sum (`axis_sum`), like LayerNorm's means and the sums over
rows of the bias and LayerNorm gradients, is a matmul with a constant
vector, which BLAS runs several times faster than np.add.reduce sums short
rows.

Dtype contract: every activation, cache and gradient stays in the parameter
dtype (the model's `ModelConfig.dtype`). Constants mixed into array
arithmetic are Python floats, which NumPy 2 (NEP 50) never lets widen an
array; a NumPy float64 scalar would promote a float32 array to float64.

In-place rule: to save the temporaries and the passes over memory that
fresh arrays cost, a layer overwrites arrays that it allocated itself (a
matmul result, a buffer from np.empty) while it builds its output or
gradient; attention scales its queries inside their block of its own
projection's output. It never writes an input, an upstream gradient,
anything saved for backward once saved, or a parameter. `softmax`
normalises its argument in place, so callers pass it an array they own.
The constants reused from call to call, `axis_sum`'s ones row and the
decoder's causal mask, are read-only slices of one buffer per dtype
(`shared_constant`) and are never written.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

NEG_INF = -1e9
# Added to the variance under every LayerNorm's square root; the folded
# decode step adds d * LN_EPS to the squared norm (`seq2seq.DecoderCache`).
LN_EPS = 1e-5


class ParamStore:
    """Parameters by name, in one dtype. Given `params`, every parameter a
    layer adds takes its value from there instead of from its initialiser,
    so a model can be rebuilt from saved arrays without drawing weights
    that would be overwritten."""

    def __init__(self, dtype=np.float32, params: dict[str, np.ndarray] | None = None):
        self.dtype = np.dtype(dtype)
        self.params = params
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, shape: tuple[int, ...], init) -> np.ndarray:
        """Add parameter `name` of `shape`: a copy of params[name] in the
        dtype, or without params, init(shape) in the dtype. ValueError if
        params has no such array, or one of another shape."""
        if name in self.values:
            raise ValueError(f"duplicate parameter {name!r}")
        if self.params is None:
            value = np.asarray(init(shape), dtype=self.dtype)
        elif name not in self.params:
            raise ValueError(f"missing parameter {name}")
        elif np.shape(self.params[name]) != shape:
            raise ValueError(f"shape mismatch for {name}: {np.shape(self.params[name])} vs {shape}")
        else:
            value = np.array(self.params[name], dtype=self.dtype)
        self.values[name] = value
        return value

    def zero_grads(self) -> None:
        self.grads = {}

    def accumulate(self, name: str, grad: np.ndarray) -> None:
        if name in self.grads:
            self.grads[name] += grad
        else:
            self.grads[name] = grad.astype(self.dtype, copy=True)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.values.items()}


class _Forward(threading.local):
    """What layer forwards keep in this thread, as `scoring()` sets it:
    `cache`, whether they cache what a backward reads, and `attention`, a
    dict that each attention layer puts its weights in, or None. Per thread,
    as PyTorch keeps its grad mode, so that scoring in one thread leaves a
    training step in another caching."""

    cache = True
    attention: dict | None = None


_FORWARD = _Forward()


@contextlib.contextmanager
def scoring(attention: dict | None = None):
    """A block of forwards that no backward follows: no layer caches
    anything in it. Given a dict, each attention layer that runs in it puts
    its weights there under its parameter prefix, (B, heads, Lq, Lk), a
    transposed view of its key-major weights. The mode before it is
    restored on leaving it."""
    saved = _FORWARD.cache, _FORWARD.attention
    _FORWARD.cache, _FORWARD.attention = False, attention
    try:
        yield
    finally:
        _FORWARD.cache, _FORWARD.attention = saved


def put_cache(layer, **arrays) -> None:
    """Cache `arrays` on `layer` for its backward, unless in `scoring()`."""
    if _FORWARD.cache:
        vars(layer).update(arrays)


def take_cache(layer, *names: str) -> list:
    """The values that `layer`'s forward cached under `names`, removed from
    the layer; RuntimeError if its forward has not cached one since its last
    backward."""
    cache = vars(layer)
    try:
        return [cache.pop(name) for name in names]
    except KeyError as err:
        raise RuntimeError(
            f"{type(layer).__name__}: a backward without its forward ({err.args[0]} is not cached)"
        ) from None


_CONSTANTS: dict[tuple[str, np.dtype], np.ndarray] = {}


def shared_constant(kind: str, n: int, dtype: np.dtype, make) -> np.ndarray:
    """The read-only array `make(size, dtype)` of `kind`, at a size of at
    least n along each axis, for callers to slice to n. There is one per kind
    and dtype, shared by every caller; a larger n replaces it with one of
    that size, so it is only as large as the largest n served."""
    key = (kind, dtype)
    buf = _CONSTANTS.get(key)
    if buf is None or len(buf) < n:
        buf = _CONSTANTS[key] = make(n, dtype)
        buf.flags.writeable = False
    return buf


def axis_sum(x: np.ndarray) -> np.ndarray:
    """x summed over axis -2, keeping it as size 1. The sum is a matmul with
    a ones row: BLAS sums rows of a few dozen elements several times faster
    than np.add.reduce does."""
    n = x.shape[-2]
    return shared_constant("ones", n, x.dtype, np.ones)[None, :n] @ x


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of x over axis -2, computed in place: x is overwritten with
    the result, which is returned. Attention passes key-major scores, whose
    axis -2 is the keys."""
    x -= np.maximum.reduce(x, axis=-2, keepdims=True)
    np.exp(x, out=x)
    x /= axis_sum(x)
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

        def init(shape):
            return np.concatenate([rng.normal(0.0, 0.02, size=(d_in, width)) for _ in range(blocks)], axis=1)

        store.add(self._w, (d_in, d_out), init)
        store.add(self._b, (d_out,), np.zeros)

    @property
    def weight(self) -> np.ndarray:
        return self.store.values[self._w]

    @property
    def bias(self) -> np.ndarray:
        return self.store.values[self._b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x2d = x.reshape(-1, x.shape[-1])
        put_cache(self, _x2d=x2d)
        out = x2d @ self.store.values[self._w]
        out += self.store.values[self._b]
        return out.reshape(*x.shape[:-1], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (x2d,) = take_cache(self, "_x2d")
        d2d = dout.reshape(-1, dout.shape[-1])
        W = self.store.values[self._w]
        self.store.accumulate(self._w, x2d.T @ d2d)
        self.store.accumulate(self._b, axis_sum(d2d)[0])
        return (d2d @ W.T).reshape(*dout.shape[:-1], -1)


class LayerNorm:
    """Normalisation over the last axis. Means over it are a matmul with a
    constant (d, 1) column of 1 / d, which BLAS runs several times faster
    than x.mean runs on short rows."""

    def __init__(self, store: ParamStore, name: str, d: int):
        self.store = store
        self.name = name
        self._gamma, self._beta = name + ".gamma", name + ".beta"
        store.add(self._gamma, (d,), np.ones)
        store.add(self._beta, (d,), np.zeros)
        self._mean = np.full((d, 1), 1.0 / d, store.dtype)

    @property
    def gamma(self) -> np.ndarray:
        return self.store.values[self._gamma]

    @property
    def beta(self) -> np.ndarray:
        return self.store.values[self._beta]

    def forward(self, x: np.ndarray) -> np.ndarray:
        xc = x - x @ self._mean
        out = np.square(xc)  # the output's buffer, first used for the variance
        inv_std = 1.0 / np.sqrt(out @ self._mean + LN_EPS)
        xc *= inv_std
        put_cache(self, _norm=xc, _inv_std=inv_std)
        np.multiply(xc, self.store.values[self._gamma], out=out)
        out += self.store.values[self._beta]
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        norm, inv_std = take_cache(self, "_norm", "_inv_std")
        flat = (-1, norm.shape[-1])
        t = dout * norm
        self.store.accumulate(self._gamma, axis_sum(t.reshape(flat))[0])
        self.store.accumulate(self._beta, axis_sum(dout.reshape(flat))[0])
        dx = dout * self.store.values[self._gamma]  # dnorm, turned into dx in place
        # d/dx of (x - mean) / std, all along the last axis:
        # (dnorm - mean(dnorm) - norm * mean(dnorm * norm)) / std
        np.multiply(dx, norm, out=t)
        np.multiply(norm, t @ self._mean, out=t)
        dx -= dx @ self._mean
        dx -= t
        dx *= inv_std
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
        store.add(name + ".E", (n, d), lambda shape: rng.normal(0.0, 0.02, size=shape))

    @property
    def table(self) -> np.ndarray:
        return self.store.values[self.name + ".E"]

    def project_out(self, h: np.ndarray) -> np.ndarray:
        """Tied unembedding: logits = h @ E^T."""
        h2d = h.reshape(-1, h.shape[-1])
        put_cache(self, _h2d=h2d)
        return (h2d @ self.table.T).reshape(*h.shape[:-1], self.n)

    def project_out_backward(self, dlogits: np.ndarray) -> np.ndarray:
        (h2d,) = take_cache(self, "_h2d")
        d2d = dlogits.reshape(-1, self.n)
        self.store.accumulate(self.name + ".E", d2d.T @ h2d)
        return (d2d @ self.table).reshape(*dlogits.shape[:-1], -1)


class Dropout:
    """Inverted dropout. `_mask` is a bool array of the kept positions (None
    when the forward dropped nothing), and both passes scale by dtype(1) /
    dtype(1 - rate) and then zero the dropped positions in place, which
    gives the same bits as multiplying by a float mask of that scale and 0
    without building one.

    The mask equals `rng.random(x.shape, x.dtype) < 1 - rate` but is drawn
    from the generator's raw 64-bit words, in about half the time, since no
    uniform is made. NumPy makes a float64 uniform from a word as
    (word >> 11) * 2**-53, and a float32 uniform from each 32-bit half of a
    word, low half first, as (half >> 8) * 2**-24. With keep = 1 - rate
    rounded to the dtype, as the comparison rounds it, a uniform is below
    keep exactly when its integer is below ceil(keep * 2**53) or
    ceil(keep * 2**24), that is, when its word or half is below that bound
    shifted left by 11 or 8 bits. So the mask compares the words, or for
    float32 their uint32 view (low half first on a little-endian host),
    with that bound. This holds for PCG64, `default_rng`'s generator, whose
    raw output is those 64-bit words.

    One NumPy detail differs: after a float32 draw of an odd size, NumPy
    keeps the unused high half of the last word and serves it first in the
    next float32 draw, while this mask drops it. So masks equal
    `rng.random`'s up to the first odd-sized float32 draw and differ after
    it. Every activation the model drops has d_model as its last axis, so
    the model makes one only when d_model is odd: with an even d_model, as
    in the default config, its masks are `rng.random`'s. tests/test_model.py
    pins NumPy's word-to-uniform rule at the words next to each bound, the
    equality with `rng.random` over a stream of draws, this odd-size
    difference, and a model's loss and gradients against those of masks
    drawn by `rng.random`.
    """

    def __init__(self, rate: float):
        self.rate = rate

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        return x * (x.dtype.type(1) / x.dtype.type(1.0 - self.rate))

    def _keep(self, shape: tuple, dtype: np.dtype, rng: np.random.Generator) -> np.ndarray:
        """The kept positions of one draw (see the class docstring)."""
        n = math.prod(shape)
        keep = 1.0 - self.rate
        if dtype == np.float32:
            words = rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n]
            bound = math.ceil(float(np.float32(keep)) * 2**24) << 8
        else:
            words = rng.bit_generator.random_raw(n)
            bound = math.ceil(keep * 2**53) << 11
        return (words < bound).reshape(shape)

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None) -> np.ndarray:
        if not train or self.rate <= 0.0:
            put_cache(self, _mask=None)
            return x
        mask = self._keep(x.shape, x.dtype, rng)
        put_cache(self, _mask=mask)
        out = self._scaled(x)
        out *= mask
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (mask,) = take_cache(self, "_mask")
        if mask is None:
            return dout
        dx = self._scaled(dout)
        dx *= mask
        return dx


class MultiHeadAttention:
    """Scaled dot-product attention over `heads` heads.

    Self-attention (the default) projects its input through one fused
    `.wqkv` (d, 3d); cross-attention projects the queries through `.wq` and
    the memory through one fused `.wkv` (d, 2d). The mask is additive, 4-D
    and broadcastable to (B, 1, Lq, Lk). Backward returns the input
    gradient, and for cross-attention also the memory's.

    The scores are key-major, `k @ (q * scale)^T` of shape (B, heads, Lk,
    Lq): the transposed mask is added and the softmax normalises over axis
    -2, both in place. The context is written straight into the (B, Lq,
    heads, d_head) layout that `.wo` reads, and backward writes dq, dk and dv
    straight into the (B, L, parts, heads, d_head) layout that the fused
    projection's backward reads.

    Forward caches q, k, v, the weights and the context for backward. Inside
    `scoring(attention)` it caches nothing and, given a dict, puts its
    weights there under its parameter prefix, `name`; that is the only way
    the weights leave the layer.
    """

    def __init__(
        self, store: ParamStore, name: str, d_model: int, heads: int, rng: np.random.Generator, cross: bool = False
    ):
        if d_model % heads:
            raise ValueError("d_model must be divisible by heads")
        self.name = name
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

    def forward(self, x: np.ndarray, mask: np.ndarray | None, memory: np.ndarray | None = None) -> np.ndarray:
        """Attend from x to itself, or for cross-attention to `memory`."""
        if self.cross:
            q = self._split(self.wq.forward(x), 1)[0]
            k, v = self._split(self.wkv.forward(memory), 2)
        else:
            q, k, v = self._split(self.wqkv.forward(x), 3)
        q *= self.scale  # in the projection's output, which this layer owns
        attn = k @ q.swapaxes(-1, -2)
        if mask is not None:
            attn += mask.swapaxes(-1, -2)
        softmax(attn)  # normalises attn over the keys, in place
        b, _, _, lq = attn.shape
        ctx = np.empty((b, lq, self.heads, self.d_head), attn.dtype)
        np.matmul(attn.swapaxes(-1, -2), v, out=ctx.transpose(0, 2, 1, 3))
        put_cache(self, _q=q, _k=k, _v=v, _attn=attn, _ctx=ctx)
        if _FORWARD.attention is not None:
            _FORWARD.attention[self.name] = attn.swapaxes(-1, -2)
        return self.wo.forward(ctx.reshape(b, lq, -1))

    def backward(self, dout: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        q, k, v, attn, ctx = take_cache(self, "_q", "_k", "_v", "_attn", "_ctx")
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
        put_cache(self, _h=np.maximum(h, 0, out=h))  # ReLU in place; h > 0 where the input was
        return self.lin2.forward(h)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (h,) = take_cache(self, "_h")
        dh = self.lin2.backward(dout)
        dh *= h > 0
        return self.lin1.backward(dh)
