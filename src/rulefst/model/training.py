"""Adam training loop with periodic validation and epoch-level early stopping."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from ..errors import DataError, TrainingError
from ..text import BOS_ID, EOS_ID, PAD_ID
from .seq2seq import ModelConfig, Seq2SeqTransformer

log = logging.getLogger(__name__)

# 2: attention projections fused into .wqkv and .wkv; ModelConfig without
# `positional` and `tie_embeddings`.
CHECKPOINT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_steps: int = 20000
    eval_every: int = 1000
    early_stop_patience: int = 2
    seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size, self.max_steps, self.eval_every, self.early_stop_patience) <= 0:
            raise DataError("all TrainSpec fields must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    vocab_hash: str = ""
    step: int = 0
    seed: int = 0
    history: list = field(default_factory=list)

    def restore_model(self, vocab_hash: str | None = None) -> Seq2SeqTransformer:
        """Rebuild the trained model. Given the hash of the vocabulary it will
        be used with, refuse a vocabulary other than the one it was trained on."""
        if vocab_hash is not None and vocab_hash != self.vocab_hash:
            raise DataError(
                f"checkpoint was trained with vocabulary {self.vocab_hash!r}, not {vocab_hash!r}"
            )
        model = Seq2SeqTransformer(self.config, seed=self.seed)
        model.store.load(self.params)
        return model

    def save(self, path) -> None:
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "vocab_hash": self.vocab_hash,
            "step": self.step,
            "seed": self.seed,
            "history": self.history,
            "param_names": sorted(self.params),
        }
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        with open(path, "wb") as f:
            np.savez(f, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with np.load(path) as data:
            if "meta" not in data:
                raise DataError(f"{path}: not a checkpoint file")
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {meta.get('format_version')}")
            params = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
        try:
            config = ModelConfig(**meta["config"])
        except DataError as err:
            raise DataError(f"{path}: {err}") from err
        try:
            Seq2SeqTransformer(config).store.load(params)
        except ValueError as err:
            raise DataError(f"{path}: parameters do not fit the stored config: {err}") from err
        return cls(
            config=config,
            params=params,
            vocab_hash=meta["vocab_hash"],
            step=meta["step"],
            seed=meta["seed"],
            history=meta["history"],
        )


class Adam:
    def __init__(self, store, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in store.values.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.values.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k, g in self.store.grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            self.store.values[k] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


Pair = tuple[list[int], list[int]]


def make_batch(pairs: list[Pair], dtype=np.int64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of (src_ids, tgt_ids) into (src, tgt_in, tgt_out) arrays.

    tgt_in is BOS-prefixed, tgt_out is EOS-suffixed; both PAD-filled.
    """
    b = len(pairs)
    ls = max(len(s) for s, _ in pairs)
    lt = max(len(t) for _, t in pairs) + 1
    src = np.full((b, ls), PAD_ID, dtype=dtype)
    tgt_in = np.full((b, lt), PAD_ID, dtype=dtype)
    tgt_out = np.full((b, lt), PAD_ID, dtype=dtype)
    for i, (s, t) in enumerate(pairs):
        src[i, : len(s)] = s
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : len(t) + 1] = t
        tgt_out[i, : len(t)] = t
        tgt_out[i, len(t)] = EOS_ID
    return src, tgt_in, tgt_out


def _validate_pairs(pairs: list[Pair], config: ModelConfig, what: str) -> None:
    if not pairs:
        raise DataError(f"{what} set is empty")
    for i, (s, t) in enumerate(pairs):
        if len(s) == 0:
            raise DataError(f"{what}[{i}]: empty source")
        if len(s) > config.max_len or len(t) + 1 > config.max_len:
            raise DataError(f"{what}[{i}]: sequence exceeds max_len={config.max_len}")
        for seq in (s, t):
            for tok_id in seq:
                if not 0 <= tok_id < config.vocab_size:
                    raise DataError(f"{what}[{i}]: token id {tok_id} outside vocabulary")


def evaluate_loss(model: Seq2SeqTransformer, pairs: list[Pair], batch_size: int = 64) -> float:
    """Token-weighted mean teacher-forced loss (no dropout)."""
    total, n = 0.0, 0
    for i in range(0, len(pairs), batch_size):
        src, tgt_in, tgt_out = make_batch(pairs[i : i + batch_size])
        loss, n_tok = model.loss(src, tgt_in, tgt_out, train=False)
        total += loss * n_tok
        n += n_tok
    return total / max(n, 1)


def token_accuracy(model: Seq2SeqTransformer, pairs: list[Pair], batch_size: int = 64) -> float:
    """Teacher-forced argmax accuracy over non-PAD target positions."""
    hit, n = 0, 0
    for i in range(0, len(pairs), batch_size):
        src, tgt_in, tgt_out = make_batch(pairs[i : i + batch_size])
        logits = model.forward(src, tgt_in, train=False)
        mask = tgt_out != PAD_ID
        hit += int((np.argmax(logits, axis=-1)[mask] == tgt_out[mask]).sum())
        n += int(mask.sum())
    return hit / max(n, 1)


def train(
    train_set: list[Pair],
    valid_set: list[Pair],
    config: ModelConfig,
    spec: TrainSpec,
    vocab_hash: str = "",
) -> Checkpoint:
    """Train until max_steps or until validation loss rises in two successive
    epochs (early_stop_patience); returns the checkpoint with the best
    validation loss seen at any eval point. Deterministic given spec.seed.
    A non-finite training loss, gradient or validation loss raises
    TrainingError naming the step; the overflow behind it does not warn."""
    _validate_pairs(train_set, config, "train")
    _validate_pairs(valid_set, config, "valid")

    model = Seq2SeqTransformer(config, seed=spec.seed)
    adam = Adam(model.store, lr=spec.learning_rate)
    shuffle_rng = np.random.default_rng(spec.seed + 0x5EED)

    best_loss = float("inf")
    best_params = model.store.snapshot()
    best_step = 0
    history: list = []
    step = 0
    epoch = 0
    epoch_val: list[float] = []
    rises = 0

    def eval_point(tag: str) -> float:
        nonlocal best_loss, best_params, best_step
        with np.errstate(over="ignore", invalid="ignore"):
            val = evaluate_loss(model, valid_set)
        if not np.isfinite(val):
            raise TrainingError(f"non-finite validation loss at step {step}", step=step)
        history.append({"step": step, "epoch": epoch, "event": tag, "val_loss": val})
        if val < best_loss:
            best_loss = val
            best_params = model.store.snapshot()
            best_step = step
        return val

    stop = False
    while not stop and step < spec.max_steps:
        epoch += 1
        order = shuffle_rng.permutation(len(train_set))
        for start in range(0, len(order), spec.batch_size):
            batch = [train_set[i] for i in order[start : start + spec.batch_size]]
            src, tgt_in, tgt_out = make_batch(batch)
            with np.errstate(over="ignore", invalid="ignore"):
                loss, _ = model.loss_and_grads(src, tgt_in, tgt_out, train=True)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at step {step + 1}", step=step + 1)
            bad = next((k for k, g in model.store.grads.items() if not np.isfinite(g).all()), None)
            if bad is not None:
                raise TrainingError(f"non-finite gradient of {bad} at step {step + 1}", step=step + 1)
            adam.step()
            step += 1
            if step % spec.eval_every == 0:
                eval_point("eval_every")
            if step >= spec.max_steps:
                stop = True
                break
        val = eval_point("epoch_end")
        if epoch_val and val > epoch_val[-1]:
            rises += 1
            if rises >= spec.early_stop_patience:
                history.append({"step": step, "epoch": epoch, "event": "early_stop", "val_loss": val})
                stop = True
        else:
            rises = 0
        epoch_val.append(val)

    model.store.load(best_params)
    return Checkpoint(
        config=config,
        params=best_params,
        vocab_hash=vocab_hash,
        step=best_step,
        seed=spec.seed,
        history=history,
    )
