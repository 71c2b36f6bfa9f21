"""Adam training over a fixed budget of steps, with the validation loss
evaluated on one schedule and the best checkpoint by validation loss kept."""

from __future__ import annotations

import json
import math
import numbers
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from ..errors import DataError, TrainingError, check_size
from ..text import BOS_ID, EOS_ID, PAD_ID, reserved_token_error
from .seq2seq import ModelConfig, Seq2SeqTransformer

# 2: attention projections fused into .wqkv and .wkv; ModelConfig without
# `positional` and `tie_embeddings`.
CHECKPOINT_FORMAT_VERSION = 2

# Adam's moment decay rates and denominator term, as in Kingma & Ba (2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainSpec:
    """How `train` runs: exactly max_steps Adam steps of batch_size pairs at
    learning_rate, with the validation loss evaluated every eval_every steps
    and after the last one. seed fixes the initialisation, the dropout and
    the per-epoch shuffle."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    max_steps: int = 20000
    eval_every: int = 1000
    seed: int = 0

    def __post_init__(self):
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not (math.isfinite(lr) and lr > 0):
            raise DataError(f"learning_rate={lr!r} must be a finite number above 0")
        for name in ("batch_size", "max_steps", "eval_every"):
            check_size(name, getattr(self, name))
        check_size("seed", self.seed, 0)

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
        """Rebuild the trained model from copies of `params`, drawing no
        weights; its dropout stream is that of a model built at `seed`.
        Given the hash of the vocabulary it will be used with, refuse a
        vocabulary other than the one it was trained on. Parameters whose
        names or shapes do not fit `config` raise ValueError."""
        if vocab_hash is not None and vocab_hash != self.vocab_hash:
            raise DataError(
                f"checkpoint was trained with vocabulary {self.vocab_hash!r}, not {vocab_hash!r}"
            )
        return Seq2SeqTransformer(self.config, seed=self.seed, params=self.params)

    def save(self, path) -> None:
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "vocab_hash": self.vocab_hash,
            "step": self.step,
            "seed": self.seed,
            "history": self.history,
        }
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        with open(path, "wb") as f:
            np.savez(f, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint; DataError names the file if it cannot be used,
        and a missing file raises FileNotFoundError. The parameters are
        checked against the stored config by building a model from them,
        which draws no weights. DataError also names the file and the key
        of metadata that `train` does not write: a `step` or `seed` that is
        not an integer of at least 0, a `vocab_hash` that is not a string,
        and a `history` that is not a list of {"step", "val_loss"}
        objects."""
        # np.load given a path leaves its file open when zipfile refuses it;
        # given a file, it never closes it, so this `with` closes it always.
        with open(path, "rb") as f:
            try:
                data = np.load(f)
            except (EOFError, ValueError, zipfile.BadZipFile) as err:  # empty, neither .npy nor .npz, cut short
                raise DataError(f"{path}: not a checkpoint file: {err}") from err
            if not isinstance(data, np.lib.npyio.NpzFile):  # one .npy array
                raise DataError(f"{path}: not a checkpoint file: one array")
            with data:
                if "meta" not in data:
                    raise DataError(f"{path}: not a checkpoint file: no metadata")
                try:
                    raw = bytes(data["meta"])
                    params = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
                # A member whose bytes fail its CRC, or whose header names a
                # compression method zipfile lacks, or encryption.
                except (zipfile.BadZipFile, NotImplementedError, RuntimeError) as err:
                    raise DataError(f"{path}: damaged checkpoint file: {err}") from err
        try:
            meta = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise DataError(f"{path}: checkpoint metadata is not UTF-8 JSON: {err}") from err
        if not isinstance(meta, dict):
            raise DataError(f"{path}: checkpoint metadata is not a JSON object")
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {meta.get('format_version')}")
        missing = next((k for k in ("config", "vocab_hash", "step", "seed", "history") if k not in meta), None)
        if missing is not None:
            raise DataError(f"{path}: checkpoint metadata has no {missing!r}")
        try:
            config = ModelConfig(**meta["config"])
            for key in ("step", "seed"):
                check_size(key, meta[key], 0)
        except (DataError, TypeError) as err:  # TypeError: a field ModelConfig does not have
            raise DataError(f"{path}: {err}") from err
        if not isinstance(meta["vocab_hash"], str):
            raise DataError(f"{path}: vocab_hash={meta['vocab_hash']!r} must be a string")
        history = meta["history"]
        if not isinstance(history, list) or not all(
            isinstance(h, dict) and h.keys() == {"step", "val_loss"} for h in history
        ):
            raise DataError(f'{path}: history must be a list of {{"step", "val_loss"}} objects')
        try:
            Seq2SeqTransformer(config, params=params)
        except ValueError as err:
            raise DataError(f"{path}: parameters do not fit the stored config: {err}") from err
        bad = next((k for k in sorted(params) if not np.isfinite(params[k]).all()), None)
        if bad is not None:
            raise DataError(f"{path}: parameter {bad} holds a non-finite value")
        return cls(
            config=config,
            params=params,
            vocab_hash=meta["vocab_hash"],
            step=meta["step"],
            seed=meta["seed"],
            history=meta["history"],
        )


class Adam:
    """Adam over a ParamStore's gradients. `step` updates the moments and the
    parameters in place, in two scratch arrays per parameter, with the
    operations of the textbook expression in its order:
    m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g^2, and
    p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), each product
    and quotient rounded as the expression rounds it, so the bits are those
    of that expression evaluated with temporaries."""

    def __init__(self, store, lr: float):
        self.store = store
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in store.values.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.values.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for k, g in self.store.grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            num = np.multiply(g, 1.0 - ADAM_BETA1)
            m += num
            v *= ADAM_BETA2
            np.square(g, out=num)
            num *= 1.0 - ADAM_BETA2
            v += num
            den = np.divide(v, b2t)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            np.divide(m, b1t, out=num)
            num *= self.lr
            num /= den
            self.store.values[k] -= num


Pair = tuple[list[int], list[int]]


def make_batch(pairs: list[Pair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of (src_ids, tgt_ids) into (src, tgt_in, tgt_out) int64 arrays.

    tgt_in is BOS-prefixed, tgt_out is EOS-suffixed; both PAD-filled. An
    empty list raises DataError.
    """
    b = len(pairs)
    if not b:
        raise DataError("empty batch: make_batch needs at least one pair")
    ls = max(len(s) for s, _ in pairs)
    lt = max(len(t) for _, t in pairs) + 1
    src = np.full((b, ls), PAD_ID, dtype=np.int64)
    tgt_in = np.full((b, lt), PAD_ID, dtype=np.int64)
    tgt_out = np.full((b, lt), PAD_ID, dtype=np.int64)
    for i, (s, t) in enumerate(pairs):
        src[i, : len(s)] = s
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : len(t) + 1] = t
        tgt_out[i, : len(t)] = t
        tgt_out[i, len(t)] = EOS_ID
    return src, tgt_in, tgt_out


def _validate_pairs(pairs: list[Pair], config: ModelConfig, what: str) -> None:
    """Refuse an empty set, an empty source, a pair too long for the model,
    and a non-integer, an id outside the vocabulary or a [PAD], [BOS] or
    [EOS] (text.reserved_token_error)."""
    if not pairs:
        raise DataError(f"{what} set is empty")
    for i, (s, t) in enumerate(pairs):
        if len(s) == 0:
            raise DataError(f"{what}[{i}]: empty source")
        if len(s) > config.max_len or len(t) + 1 > config.max_len:
            raise DataError(f"{what}[{i}]: sequence exceeds max_len={config.max_len}")
        for side, seq in (("source", s), ("target", t)):
            bad = reserved_token_error(seq, config.vocab_size)
            if bad:
                raise DataError(f"{what}[{i}]: {side} {bad}")


def evaluate_loss(model: Seq2SeqTransformer, pairs: list[Pair]) -> float:
    """Token-weighted mean teacher-forced loss (no dropout) of the pairs as
    one batch, which `model.loss` runs in its memory-bounded sub-batches,
    with no gradient and no layer keeping an array; the pairs are checked
    as `train` checks its pairs."""
    _validate_pairs(pairs, model.config, "eval")
    return model.loss(*make_batch(pairs))[0]


def train(
    train_set: list[Pair],
    valid_set: list[Pair],
    config: ModelConfig,
    spec: TrainSpec,
    vocab_hash: str = "",
) -> Checkpoint:
    """Run exactly spec.max_steps Adam steps; return the checkpoint with the
    lowest validation loss seen.

    The training set is reshuffled at the start of each epoch. The validation
    loss is evaluated every spec.eval_every steps and after the last step,
    once at each such step; `history` holds one {"step", "val_loss"} record
    per evaluation. Deterministic given spec.seed. A non-finite training
    loss, gradient or validation loss raises TrainingError naming the step;
    the overflow behind it does not warn."""
    _validate_pairs(train_set, config, "train")
    _validate_pairs(valid_set, config, "valid")

    model = Seq2SeqTransformer(config, seed=spec.seed)
    adam = Adam(model.store, lr=spec.learning_rate)
    shuffle_rng = np.random.default_rng(spec.seed + 0x5EED)

    # The last step always evaluates and a non-finite loss raises, so these
    # are always replaced.
    best_loss, best_params, best_step = float("inf"), None, None
    history: list = []
    per_epoch = -(-len(train_set) // spec.batch_size)  # batches; the last may be short
    for step in range(1, spec.max_steps + 1):
        start = (step - 1) % per_epoch * spec.batch_size
        if start == 0:
            order = shuffle_rng.permutation(len(train_set))
        src, tgt_in, tgt_out = make_batch([train_set[i] for i in order[start : start + spec.batch_size]])
        with np.errstate(over="ignore", invalid="ignore"):
            loss, _ = model.loss_and_grads(src, tgt_in, tgt_out)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite training loss at step {step}", step=step)
        bad = next((k for k, g in model.store.grads.items() if not np.isfinite(g).all()), None)
        if bad is not None:
            raise TrainingError(f"non-finite gradient of {bad} at step {step}", step=step)
        adam.step()
        if step % spec.eval_every and step < spec.max_steps:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            val = evaluate_loss(model, valid_set)
        if not np.isfinite(val):
            raise TrainingError(f"non-finite validation loss at step {step}", step=step)
        history.append({"step": step, "val_loss": val})
        if val < best_loss:
            best_loss, best_params, best_step = val, model.store.snapshot(), step

    return Checkpoint(
        config=config,
        params=best_params,
        vocab_hash=vocab_hash,
        step=best_step,
        seed=spec.seed,
        history=history,
    )
